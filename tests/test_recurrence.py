from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from vicsek_sandpile import (
    SandpileConfig,
    add_particles,
    boundary_flow,
    build,
    enumerate_recurrent_k4,
    is_recurrent,
    sample_recurrent,
    smith_normal_form,
    reduced_laplacian,
    transition_matrix,
    tree_to_config,
    wilson_ust,
)
from vicsek_sandpile import recurrence
from vicsek_sandpile.recurrence import EdgeOrder, SpanningTree
from vicsek_sandpile.sandpile import _K4_RECURRENT, _chain_volume, _glue, _k4_class

from .oracles import burns, chain_config, k4_spanning_trees

# the sixteen recurrent K4 configurations with the sink at the top-right
# corner, as (height(0,0), height(0,1), height(1,0)) triples
RECURRENT_K4 = {
    (1, 0, 2), (1, 2, 0), (0, 2, 2), (1, 2, 2),
    (2, 0, 1), (2, 1, 2), (2, 2, 0), (2, 1, 0),
    (0, 1, 2), (2, 0, 2), (0, 2, 1), (2, 2, 1),
    (1, 2, 1), (2, 2, 2), (1, 1, 2), (2, 1, 1),
}


def test_enumerate_recurrent_k4_exact_set():
    got = {c.as_tuple() for c in enumerate_recurrent_k4()}
    assert len(got) == 16
    assert got == RECURRENT_K4
    assert (2, 2, 2) in got and (1, 2, 0) in got
    assert (0, 0, 0) not in got


def test_enumerate_recurrent_k4_cached(monkeypatch):
    first = enumerate_recurrent_k4()

    def no_burning(*args):
        raise AssertionError("the cached table ran the burning test again")

    monkeypatch.setattr(recurrence, "is_recurrent", no_burning)
    first[0].heights[:] = 0  # a caller's copy; the cached table is untouched
    assert {c.as_tuple() for c in enumerate_recurrent_k4()} == RECURRENT_K4


def test_k4_table_is_the_burning_table(g0):
    """The samplers' table, read off Dhar's criterion, holds the triples the
    stabilizing burning test finds among the 27 stable level-0 triples, in
    the same order, and the 16 lie in distinct classes modulo
    (4I - J) Z^3, so the class lookup is a bijection."""
    table = [tuple(t) for t in _K4_RECURRENT.tolist()]
    burned = [t for t in product(range(3), repeat=3) if burns(g0, SandpileConfig(t))]
    assert table == burned
    assert [c.as_tuple() for c in enumerate_recurrent_k4()] == table
    assert len(set(zip(*(k.tolist() for k in _k4_class(_K4_RECURRENT))))) == 16


class PermutedEdgeOrder(EdgeOrder):
    """Edge order twisted by a fixed permutation of vertex indices, to check
    that the bijection holds for other orders too."""

    def __init__(self, perm):
        self.perm = perm

    def rank(self, v: int, w: int) -> int:
        return int(self.perm[w])


def test_burning_counts_over_stable_triples(g0):
    stable = [SandpileConfig(t) for t in product(range(3), repeat=3)]
    passed = [is_recurrent(g0, c) for c in stable]
    assert passed == [burns(g0, c) for c in stable]
    assert sum(passed) == 16  # of 27 stable configurations


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_is_recurrent_matches_burning_oracle(level, seed):
    """The representative check agrees with the stabilizing burning test on
    stable configurations on both sides: a uniform recurrent eta, eta with
    the non-root corners of one block emptied (a forbidden
    subconfiguration), eta with one positive height lowered, and uniformly
    random stable heights."""
    g = build(level)
    rng = np.random.default_rng(seed)
    eta = sample_recurrent(g, rng)
    emptied = eta.copy()
    b = rng.integers(0, len(g.blocks))
    emptied.heights[[v for v in g.blocks[b].tolist() if v != g.block_roots[b]]] = 0
    lowered = eta.copy()
    v = rng.choice(np.flatnonzero(eta.heights))
    lowered.heights[v] = rng.integers(0, eta.heights[v])
    uniform = SandpileConfig(rng.integers(0, g.degrees[:-1]))
    cases = [eta, emptied, lowered, uniform]
    outcomes = [is_recurrent(g, c) for c in cases]
    assert outcomes == [burns(g, c) for c in cases]
    assert outcomes[:2] == [True, False]


def test_is_recurrent_requires_stable(g0):
    with pytest.raises(ValueError):
        is_recurrent(g0, SandpileConfig([3, 0, 0]))


def test_burning_bijection_star_tree(g0):
    parent = np.array([g0.sink_index] * 3 + [-1])
    tree = SpanningTree(parent=parent, root=g0.sink_index)
    assert tree_to_config(g0, tree).as_tuple() == (2, 2, 2)


def _k4_tree_to_spanning(g0, edges):
    """Root a 3-edge K4 tree (on vertex indices) at the sink."""
    parent = np.full(4, -1, dtype=np.int64)
    adj = {v: [] for v in range(4)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    stack = [g0.sink_index]
    seen = {g0.sink_index}
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                parent[w] = u
                seen.add(w)
                stack.append(w)
    return SpanningTree(parent=parent, root=g0.sink_index)


@pytest.mark.parametrize("order", [None, "permuted"])
def test_burning_bijection_all_k4_trees(g0, order):
    edge_order = PermutedEdgeOrder([2, 0, 3, 1]) if order else EdgeOrder()
    images = set()
    for tree_edges in k4_spanning_trees():
        tree = _k4_tree_to_spanning(g0, [tuple(e) for e in tree_edges])
        config = tree_to_config(g0, tree, edge_order)
        assert is_recurrent(g0, config)
        images.add(config.as_tuple())
    # injective over all 16 trees, onto the recurrent set, for any edge order
    assert images == RECURRENT_K4


def test_tree_validation(g1):
    bad = SpanningTree(
        parent=np.zeros(g1.num_vertices, dtype=np.int64), root=g1.sink_index
    )
    with pytest.raises(ValueError):
        bad.validate(g1)
    # an edge that is not in the graph
    parent = np.full(g1.num_vertices, -1, dtype=np.int64)
    parent[g1.vertex_index((0, 0))] = g1.vertex_index((0, 3))
    with pytest.raises(ValueError):
        SpanningTree(parent=parent, root=g1.sink_index).validate(g1)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_wilson_spans(level, rng):
    g = build(level)
    for _ in range(5):
        tree = wilson_ust(g, rng)
        tree.validate(g)
        assert len(tree.edge_set()) == g.num_vertices - 1
        depths = tree.depths(g)
        assert np.all(depths[np.arange(g.num_vertices) != g.sink_index] >= 1)


def test_wilson_uniform_on_k4(g0):
    rng = np.random.default_rng(11)
    counts = {}
    draws = 16000
    for _ in range(draws):
        tree = wilson_ust(g0, rng)
        key = tree.edge_set()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 16
    chi2 = sum((c - draws / 16) ** 2 / (draws / 16) for c in counts.values())
    assert stats.chi2.sf(chi2, df=15) > 0.001


def test_tree_count_matches_group_order(g1):
    # Kirchhoff: number of spanning trees = product of invariant factors
    factors = smith_normal_form(reduced_laplacian(g1))
    assert factors.product() == 16**5


def test_bijection_injective_on_sampled_level1_trees(g1):
    """Distinct spanning trees map to distinct configurations (injectivity
    over 10^4 sampled trees of the level-1 graph)."""
    rng = np.random.default_rng(23)
    seen: dict = {}
    for _ in range(10_000):
        tree = wilson_ust(g1, rng)
        key = tree.edge_set()
        config = tree_to_config(g1, tree).as_tuple()
        if key in seen:
            assert seen[key] == config  # same tree, same image
        seen[key] = config
    assert len(set(seen.values())) == len(seen)


def test_sample_recurrent_always_recurrent(rng):
    for level in (0, 1, 2, 3):
        g = build(level)
        for _ in range(10):
            assert is_recurrent(g, sample_recurrent(g, rng))


def test_sample_recurrent_uniform_on_k4(g0):
    rng = np.random.default_rng(13)
    counts = dict.fromkeys(RECURRENT_K4, 0)
    draws = 8000
    for _ in range(draws):
        counts[sample_recurrent(g0, rng).as_tuple()] += 1
    chi2 = sum((c - draws / 16) ** 2 / (draws / 16) for c in counts.values())
    assert stats.chi2.sf(chi2, df=15) > 0.001


def test_sample_recurrent_matches_wilson_off_diagonal(g1):
    """Two-sample chi-squared test on the joint heights of off-diagonal
    vertices: two non-root corners of the bottom-right block, its root (2, 1)
    (a cutpoint of the middle block), and a corner of the top-left block.
    The block sampler must give the law of Wilson's algorithm plus the
    burning bijection."""
    rng = np.random.default_rng(29)
    watched = [g1.vertex_index(v) for v in ((2, 0), (3, 0), (2, 1), (0, 3))]
    draws = 4000
    block = Counter(
        tuple(sample_recurrent(g1, rng).heights[watched]) for _ in range(draws)
    )
    wilson = Counter(
        tuple(tree_to_config(g1, wilson_ust(g1, rng)).heights[watched])
        for _ in range(draws)
    )
    keys = sorted(block.keys() | wilson.keys())
    table = [[block[k] for k in keys], [wilson[k] for k in keys]]
    assert stats.chi2_contingency(table).pvalue > 0.001


def _block_local_sample(g, eta, j):
    """Extract the block-j K4 sample from a full configuration, removing the
    +3 gluing at degree-6 vertices."""
    triple = []
    for v in ((j - 1, j - 1), (j - 1, j), (j, j - 1)):
        vi = g.vertex_index(v)
        h = int(eta.heights[vi])
        if g.degrees[vi] == 6:
            h -= 3
        triple.append(h)
    return tuple(triple)


def test_full_graph_marginals_match_block_model(g1):
    """Uniform recurrent configurations on the level-1 graph restrict to the
    diagonal blocks as independent uniform recurrent K4 samples glued with
    +3 at degree-6 cutpoints."""
    rng = np.random.default_rng(17)
    draws = 4000
    per_block = [dict.fromkeys(RECURRENT_K4, 0) for _ in range(3)]
    joint: dict = {}
    for _ in range(draws):
        eta = sample_recurrent(g1, rng)
        samples = [_block_local_sample(g1, eta, j) for j in (1, 2, 3)]
        for j, s in enumerate(samples):
            assert s in RECURRENT_K4
            per_block[j][s] += 1
        key = (samples[0], samples[2])
        joint[key] = joint.get(key, 0) + 1
    for j in range(3):
        chi2 = sum(
            (c - draws / 16) ** 2 / (draws / 16) for c in per_block[j].values()
        )
        assert stats.chi2.sf(chi2, df=15) > 0.001, f"block {j+1} not uniform"
    # pairwise independence of blocks 1 and 3
    chi2 = 0.0
    for a in RECURRENT_K4:
        for b in RECURRENT_K4:
            expect = per_block[0][a] * per_block[2][b] / draws
            seen = joint.get((a, b), 0)
            if expect > 0:
                chi2 += (seen - expect) ** 2 / expect
    assert stats.chi2.sf(chi2, df=15 * 15) > 0.001


def test_sample_ivl_diagonal_marginals(rng):
    """The infinite-volume limit on the first m diagonal blocks, the block
    sampler on the chain's block tree, holds independent uniform recurrent
    K4 triples on the blocks' non-root corners, less the glue."""
    m, draws = 4, 4000
    vol = _chain_volume(m)
    counts = [dict.fromkeys(RECURRENT_K4, 0) for _ in range(m)]
    pair: dict = {}
    for _ in range(draws):
        q = (sample_recurrent(vol, rng).heights - _glue(vol))[vol.block_corners]
        tuples = [tuple(t) for t in q.tolist()]
        for j, t in enumerate(tuples):
            counts[j][t] += 1
        key = (tuples[0], tuples[1])
        pair[key] = pair.get(key, 0) + 1
    for j in range(m):
        chi2 = sum((c - draws / 16) ** 2 / (draws / 16) for c in counts[j].values())
        assert stats.chi2.sf(chi2, df=15) > 0.001
    chi2 = 0.0
    for a in RECURRENT_K4:
        for b in RECURRENT_K4:
            expect = counts[0][a] * counts[1][b] / draws
            seen = pair.get((a, b), 0)
            if expect > 0:
                chi2 += (seen - expect) ** 2 / expect
    assert stats.chi2.sf(chi2, df=15 * 15) > 0.001


def test_ivl_first_checkpoint_matches_transition_row(g2):
    """Block samples on the diagonal chain run through the nested-volume flow
    reproduce the first row of the exact transition matrix."""
    rng = np.random.default_rng(19)
    P = transition_matrix()
    draws = 6000
    counts = [0] * 5
    vol = _chain_volume(9)
    for _ in range(draws):
        eta = sample_recurrent(vol, rng)
        c = add_particles(g2, chain_config(g2, eta.heights), (0, 0), 1)
        counts[boundary_flow(g2, c, [(1, 1)])[0]] += 1
    expected = [float(p) * draws for p in P[1]]
    chi2 = sum(
        (c - e) ** 2 / e for c, e in zip(counts, expected) if e > 0
    )
    # X1 = 4 has probability zero from one added particle
    assert counts[4] == 0
    assert stats.chi2.sf(chi2, df=3) > 0.001

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vicsek_sandpile.sandpile as sandpile_module
from vicsek_sandpile import (
    AvalancheReport,
    SandpileConfig,
    add_particles,
    boundary_flow,
    branch_component,
    build,
    classify,
    DiagonalClass,
    geodesic_subgraph,
    group_add,
    is_stable,
    sample_recurrent,
    stabilize,
    stabilize_many,
    topple,
    untopple,
)
from vicsek_sandpile.identity import identity
from vicsek_sandpile.recurrence import is_recurrent
from vicsek_sandpile.sandpile import (
    _chain_volume,
    _glue,
    _recurrent_representative,
    _solve_times_four,
    _stacks,
)

from .oracles import (
    _bfs,
    apply_laplacian,
    burns,
    chain_config,
    chain_queue_flow,
    exact_least_action_stabilize,
    exact_sum_representative,
    glued_chain,
    nested_volume_counts,
    random_order_stabilize,
    random_subset_stabilize,
    round_stabilize,
)


def test_topple_example(g0):
    c = SandpileConfig([3, 2, 2])
    out = topple(g0, c, (0, 0))
    assert out.as_tuple() == (0, 3, 3)
    # one particle left through the sink edge
    assert c.total_mass() - out.total_mass() == 1


def test_topple_untopple_inverse(g1, rng):
    c = SandpileConfig(rng.integers(0, 6, size=15))
    for v in [(0, 0), (1, 1), (2, 3)]:
        assert untopple(g1, topple(g1, c, v), v) == c
        assert topple(g1, untopple(g1, c, v), v) == c


def test_topple_twice_is_double(g0):
    c = SandpileConfig([7, 0, 0])
    twice = topple(g0, topple(g0, c, (0, 0)), (0, 0))
    assert twice.as_tuple() == (1, 2, 2)


def test_topple_errors(g0):
    c = SandpileConfig([0, 0, 0])
    with pytest.raises(ValueError, match="cannot topple the sink"):
        topple(g0, c, (1, 1))
    with pytest.raises(ValueError, match="cannot untopple the sink"):
        untopple(g0, c, (1, 1))
    with pytest.raises(ValueError, match="cannot place particles on the sink"):
        add_particles(g0, c, (1, 1), 1)
    with pytest.raises(ValueError):
        topple(g0, c, (5, 5))


def test_stacks_are_bounded_and_drawn_as_asked(monkeypatch):
    """``_stacks`` takes any iterable, here a generator that logs its draws,
    and draws no row before the stack holding it is asked for."""
    drawn = []

    def rows(count):
        for i in range(count):
            drawn.append(i)
            yield i

    monkeypatch.setattr(sandpile_module, "_STACK_HEIGHTS", 300)
    stacks = _stacks(build(2), rows(11))  # 75 heights a row: 4 rows a stack
    assert drawn == []
    assert next(stacks) == [0, 1, 2, 3] and drawn == [0, 1, 2, 3]
    assert next(stacks) == [4, 5, 6, 7] and len(drawn) == 8
    assert list(stacks) == [[8, 9, 10]]
    monkeypatch.setattr(sandpile_module, "_STACK_HEIGHTS", 7000)
    assert [len(s) for s in _stacks(build(3), rows(64))] == [18, 18, 18, 10]
    # a row of more heights than the bound still goes, in a stack of its own
    monkeypatch.setattr(sandpile_module, "_STACK_HEIGHTS", 10)
    assert list(_stacks(build(2), range(3))) == [[0], [1], [2]]
    assert list(_stacks(build(2), [])) == []


def test_stabilize_k4_example(g0):
    c = SandpileConfig([2, 2, 2])
    out, rep = stabilize(g0, add_particles(g0, c, (0, 0), 1))
    assert out.as_tuple() == (2, 1, 1)
    assert rep.sink_particles == 3
    assert rep.toppled_set == {(0, 0), (0, 1), (1, 0)}
    assert rep.diameter == 1


def test_toppled_set_needs_a_graph_with_coordinates():
    """A chain volume is a block tree without coordinates: ``toppled_set``
    raises a TypeError that points to ``toppled_indices``."""
    _, rep = stabilize(_chain_volume(2), SandpileConfig([3, 0, 0, 0, 0, 0]))
    assert rep.toppled_indices.tolist() == [0]
    with pytest.raises(TypeError, match="toppled_indices"):
        rep.toppled_set


@lru_cache(maxsize=None)
def _all_pairs(kind: str, i: int):
    g = build(i) if kind == "level" else _chain_volume(i)
    return g, np.array([_bfs(g.neighbors, s) for s in range(g.num_vertices)])


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([("level", n) for n in range(4)] + [("chain", n) for n in (1, 2, 7, 30)]),
    st.data(),
)
def test_diameter_matches_all_pairs_bfs(graph, data):
    """The double-sweep diameter of a toppled set with 0, 1, 2 or many
    members is the largest breadth-first distance between two members."""
    g, dist = _all_pairs(*graph)
    n = g.num_vertices - 1
    count = data.draw(st.sampled_from([0, 1, 2]) | st.integers(3, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    members = rng.choice(n, size=count, replace=False)
    odometer = np.zeros(n, dtype=np.int64)
    odometer[members] = rng.integers(1, 5, size=count)
    want = int(dist[np.ix_(members, members)].max()) if count else -1
    assert AvalancheReport(g, odometer, 0).diameter == want


def test_stabilize_idempotent_on_stable(g1, rng):
    c = SandpileConfig(rng.integers(0, 3, size=15))
    assert is_stable(g1, c)
    out, rep = stabilize(g1, c)
    assert out == c
    assert rep.sink_particles == 0
    assert len(rep.toppled_indices) == 0
    assert rep.diameter == -1


def test_four_particles_at_origin_restore(g1, rng):
    for _ in range(10):
        eta = sample_recurrent(g1, rng)
        out, rep = stabilize(g1, add_particles(g1, eta, (0, 0), 4))
        assert out == eta
        assert np.all(rep.odometer >= 1)  # every vertex topples


def test_mass_conservation(g2, rng):
    for _ in range(20):
        c = SandpileConfig(rng.integers(0, 12, size=g2.num_vertices - 1))
        out, rep = stabilize(g2, c)
        assert c.total_mass() == out.total_mass() + rep.sink_particles


def test_stabilization_commutes_with_addition(g1, rng):
    # stabilizing early never changes the outcome: (a + b)° == (a° + b)°
    for _ in range(50):
        a = SandpileConfig(rng.integers(0, 8, size=15))
        b = SandpileConfig(rng.integers(0, 4, size=15))
        direct, _ = stabilize(g1, a + b)
        a_stable, _ = stabilize(g1, a)
        staged, _ = stabilize(g1, a_stable + b)
        assert staged == direct


def test_abelian_order_independence(g2, rng):
    # the engine vs. two independent random legal orders, each firing a
    # random subset of the unstable vertices per step
    for _ in range(100):
        c = SandpileConfig(rng.integers(0, 9, size=g2.num_vertices - 1))
        engine_out, engine_rep = stabilize(g2, c)
        for seed in rng.integers(0, 2**63, size=2):
            ref_out, ref_odo, ref_sink = random_subset_stabilize(
                g2, c, np.random.default_rng(seed)
            )
            assert ref_out == engine_out
            assert np.array_equal(ref_odo, engine_rep.odometer)
            assert ref_sink == engine_rep.sink_particles


def test_random_subset_oracle_matches_random_order(g1, rng):
    """At level 1 the random-subset order and the one-toppling-at-a-time
    random order give the same result, odometer and sink count."""
    for _ in range(30):
        c = SandpileConfig(rng.integers(0, 12, size=g1.num_vertices - 1))
        subset = random_subset_stabilize(g1, c, rng)
        single = random_order_stabilize(g1, c, rng)
        assert subset[0] == single[0] and subset[2] == single[2]
        assert np.array_equal(subset[1], single[1])


# random_order_stabilize takes one Python step per toppling; above this many
# topplings only the round oracle runs
RANDOM_ORDER_BUDGET = 50_000


@lru_cache(maxsize=None)
def soaked_origin_case() -> SandpileConfig:
    """10^4 particles at (1, 1) of level 2 with the origin at -X, where X is
    what the origin soaks up when it sits at -2^40: the origin ends at 0 and
    never topples, so the result is not recurrent, far above the maximal
    stable total."""
    g = build(2)
    heights = np.zeros(g.num_vertices - 1, dtype=np.int64)
    origin = g.vertex_index((0, 0))
    heights[g.vertex_index((1, 1))] = 10**4
    heights[origin] = -(2**40)
    out, _, _ = round_stabilize(g, SandpileConfig(heights))
    heights[origin] = -(int(out.heights[origin]) + 2**40)
    return SandpileConfig(heights)


def maximal_with_emptied_origin_block(g, bump_at):
    """The maximal stable configuration with (0,0), (0,1), (1,0) at 0 and 10
    particles added at vertex index bump_at: 4 above the maximal total."""
    heights = g.degrees[:-1] - 1
    heights[[g.vertex_index(v) for v in [(0, 0), (0, 1), (1, 0)]]] = 0
    heights[bump_at] += 10
    return SandpileConfig(heights)


@st.composite
def stabilize_cases(draw):
    """(graph, configuration, kind): random heights from -5 to 40, k*eta for
    a uniform recurrent eta and k <= 8, identity + eta, eta plus 1 to 8
    particles dropped on 1 to 3 random vertices, a pile of about
    2^38 or 2^40 particles on one level-1 vertex over small heights, the
    maximal stable configuration with the origin's block emptied and 10
    particles next to the sink at level 2 or 3, whose result is not
    recurrent, random heights from 0 to 40 over a hole up to 10 particles
    per vertex deep, 10^4 particles at level 2 over an origin that soaks up
    all that reaches it, or a chain of 1 to 12 K4 blocks, the block tree of
    a nested volume of the diagonal chain, with random heights from -5 to 40
    or a uniform recurrent configuration plus 1 to 8 particles."""
    kinds = [
        "random", "multiple", "identity", "particles", "pile", "emptied", "hole", "soaked",
        "chain",
    ]
    kind = draw(st.sampled_from(kinds))
    if kind == "pile":
        g = build(1)
    elif kind == "soaked":
        return build(2), soaked_origin_case(), kind
    elif kind == "chain":
        g = _chain_volume(draw(st.integers(1, 12)))
    else:
        g = build(draw(st.integers(2 if kind == "emptied" else 0, 3)))
    n = g.num_vertices - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random" or (kind == "chain" and draw(st.booleans())):
        heights = rng.integers(-5, 41, size=n)
    elif kind == "multiple":
        heights = sample_recurrent(g, rng).heights * draw(st.integers(1, 8))
    elif kind == "identity":
        heights = (identity(g.level) + sample_recurrent(g, rng)).heights
    elif kind in ("particles", "chain"):
        heights = sample_recurrent(g, rng).heights
        sites = rng.integers(0, n, size=draw(st.integers(1, 3)))
        np.add.at(heights, rng.choice(sites, size=draw(st.integers(1, 8))), 1)
    elif kind == "emptied":
        bump_at = draw(st.sampled_from(g.neighbors[g.sink_index]))
        heights = maximal_with_emptied_origin_block(g, bump_at).heights
    elif kind == "hole":
        heights = rng.integers(0, 41, size=n)
        heights[draw(st.integers(0, n - 1))] -= draw(st.integers(1, 10 * n))
    else:
        heights = rng.integers(0, 4, size=n)
        heights[draw(st.integers(0, n - 1))] += draw(st.sampled_from([2**38, 2**40 - 64]))
    return g, SandpileConfig(heights), kind


@settings(max_examples=90, deadline=None)
@given(stabilize_cases(), st.integers(0, 2**32 - 1))
def test_stabilize_matches_oracles(case, seed):
    """The engine against the plain rounds and single random legal
    topplings: heights, odometer and sink particles.  The piles are far
    beyond both; their reference is the rounds started from the least action
    bound solved in exact rationals.  The engine runs no rounds exactly when
    the result is recurrent or the input was stable already, whatever the
    mass; the soaked origin never topples."""
    g, c, kind = case
    out, rep = stabilize(g, c)
    refs = []
    if kind == "pile":
        refs.append(exact_least_action_stabilize(g, c))
    else:
        refs.append(round_stabilize(g, c))
        if rep.odometer.sum() <= RANDOM_ORDER_BUDGET:
            refs.append(random_order_stabilize(g, c, np.random.default_rng(seed)))
    for ref_out, ref_odometer, ref_sink in refs:
        assert out == ref_out
        assert np.array_equal(rep.odometer, ref_odometer)
        assert rep.sink_particles == ref_sink
    recurrent = burns(g, out)
    assert (rep.rounds == 0) == (recurrent or is_stable(g, c))
    assert recurrent or kind not in ("multiple", "identity", "particles")
    if kind == "emptied":
        assert rep.rounds > 0
    if kind == "soaked":
        assert c.total_mass() == 1218 and not rep.read_off
        assert rep.odometer[g.vertex_index((0, 0))] == 0


STACK_ROWS = ["stable", "particles", "low", "refilled", "multiple"]


def stack_row(g, kind, rng):
    """One height row of the given kind: a stable row, a recurrent
    configuration plus 1 to 8 particles, a few particles on an empty
    graph (low mass, not recurrent), the maximal stable configuration with
    a random third of it emptied and more than that mass put back on one
    vertex (above the maximal stable total), or k*eta for k <= 8."""
    n = g.num_vertices - 1
    deg = g.degrees[:-1]
    if kind == "stable":
        return rng.integers(0, deg)
    if kind == "particles":
        heights = sample_recurrent(g, rng).heights
        np.add.at(heights, rng.integers(0, n, size=rng.integers(1, 9)), 1)
        return heights
    if kind == "low":
        heights = np.zeros(n, dtype=np.int64)
        np.add.at(heights, rng.integers(0, n, size=rng.integers(1, 2 * n)), 1)
        return heights
    if kind == "refilled":
        heights = deg - 1
        hole = rng.choice(n, size=max(1, n // 3), replace=False)
        removed = heights[hole].sum()
        heights[hole] = 0
        heights[rng.integers(n)] += removed + rng.integers(1, 11)
        return heights
    return sample_recurrent(g, rng).heights * rng.integers(1, 9)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["0", "1", "2", "3", "chain 1", "chain 2", "chain 5", "chain 9"]),
    st.lists(st.sampled_from(STACK_ROWS), max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_stabilize_many_matches_rows(graph, kinds, seed):
    """A stack against the plain rounds row by row: stable heights,
    odometer and sink particles, and each row's rounds are those of the row
    stabilized alone.  A row is read off exactly when it was unstable and
    its result is recurrent, and then runs no rounds."""
    g = _chain_volume(int(graph.split()[1])) if graph.startswith("chain") else build(int(graph))
    rng = np.random.default_rng(seed)
    stack = [SandpileConfig(stack_row(g, kind, rng)) for kind in kinds]
    results = stabilize_many(g, stack)
    assert len(results) == len(stack)
    for c, (out, rep) in zip(stack, results):
        ref_out, ref_odometer, ref_sink = round_stabilize(g, c)
        assert out == ref_out
        assert np.array_equal(rep.odometer, ref_odometer)
        assert rep.sink_particles == ref_sink
        assert rep.rounds == stabilize(g, c)[1].rounds
        assert rep.read_off == (burns(g, out) and not is_stable(g, c))
        assert not (rep.read_off and rep.rounds)


def test_stabilize_many_read_off_row_by_row(g2, rng):
    """Recurrent-plus-particles rows are read off; low-mass rows, whose
    results are not recurrent, run rounds, each as many as alone, and a
    stable row does neither."""
    n = g2.num_vertices - 1
    low = [SandpileConfig.zeros(g2), SandpileConfig.zeros(g2)]
    low[0].heights[[0, 5]] = [7, 3]
    low[1].heights[n // 2] = 9
    plus = [add_particles(g2, sample_recurrent(g2, rng), v, 3) for v in [(0, 0), (4, 5)]]
    stable = SandpileConfig(rng.integers(0, 2, size=n))
    stack = [plus[0], low[0], stable, plus[1], low[1]]
    reports = [rep for _, rep in stabilize_many(g2, stack)]
    assert [rep.read_off for rep in reports] == [True, False, False, True, False]
    assert [rep.rounds > 0 for rep in reports] == [False, True, False, False, True]
    assert reports[1].rounds != reports[4].rounds
    assert [rep.rounds for rep in reports] == [stabilize(g2, c)[1].rounds for c in stack]


def test_stabilize_many_edge_cases(g1):
    assert stabilize_many(g1, []) == []
    n = g1.num_vertices - 1
    good = SandpileConfig.constant(g1, 3)
    with pytest.raises(ValueError):
        stabilize_many(g1, [good, SandpileConfig([3] * (n - 1))])
    pile = SandpileConfig.zeros(g1)
    pile.heights[0] = 2**40 + 1
    with pytest.raises(OverflowError):
        stabilize_many(g1, [good, pile, good])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_recurrent_representative(level, seed):
    """The block-tree sweep returns a recurrent configuration equivalent to
    the heights (4 L^-1 (h - r) is divisible by 4), and leaves recurrent
    configurations, such as the sampler's, as they are.  A stack of rows is
    swept row by row."""
    g = build(level)
    rng = np.random.default_rng(seed)
    heights = rng.integers(-60, 61, size=g.num_vertices - 1)
    r = SandpileConfig(_recurrent_representative(g, heights))
    assert is_recurrent(g, r) and burns(g, r)
    assert np.all(_solve_times_four(g, heights - r.heights) % 4 == 0)
    eta = sample_recurrent(g, rng)
    assert np.array_equal(_recurrent_representative(g, eta.heights), eta.heights)
    stack = np.stack([heights, eta.heights, -heights])
    rows = [_recurrent_representative(g, row) for row in stack]
    assert np.array_equal(_recurrent_representative(g, stack), rows)


@pytest.mark.parametrize("level", range(5))
def test_recurrent_results_take_no_rounds(level, rng):
    """identity + eta and 4 eta stabilize to eta and to the identity with no
    toppling rounds, up to level 4, and L odometer is what left the heights."""
    g = build(level)
    ident = identity(level)
    for _ in range(3):
        eta = sample_recurrent(g, rng)
        for start, want in [(ident + eta, eta), (eta.scaled(4), ident)]:
            out, rep = stabilize(g, start)
            assert out == want and rep.rounds == 0
            assert np.array_equal(
                apply_laplacian(g, rep.odometer), start.heights - out.heights
            )


@pytest.mark.parametrize("level", [2, 3])
def test_non_recurrent_result_takes_rounds(level):
    """Above the maximal stable total with a result that is not recurrent,
    the engine runs the rounds from the heights, and agrees with the plain
    rounds."""
    g = build(level)
    c = maximal_with_emptied_origin_block(g, g.neighbors[g.sink_index][0])
    assert c.total_mass() == (g.degrees[:-1] - 1).sum() + 4
    out, rep = stabilize(g, c)
    ref_out, ref_odometer, ref_sink = round_stabilize(g, c)
    assert out == ref_out and not burns(g, out)
    assert np.array_equal(rep.odometer, ref_odometer) and rep.sink_particles == ref_sink
    assert rep.rounds > 0


@st.composite
def sweep_inputs(draw):
    """A block tree, a Vicsek graph of level 0-5 or a diagonal chain volume
    of at most 40 blocks, and heights for it: one row or a stack of 1-12
    rows, drawn from a small range or within 8 of -2^40 and 2^40."""
    if draw(st.booleans()):
        g = build(draw(st.integers(0, 5)))
    else:
        g = _chain_volume(draw(st.integers(1, 40)))
    rows = draw(st.none() | st.integers(1, 12))
    shape = g.num_vertices - 1 if rows is None else (rows, g.num_vertices - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        heights = rng.integers(-8, 9, size=shape)
    else:
        heights = rng.choice([-(2**40), 2**40], size=shape) + rng.integers(-8, 9, size=shape)
    return g, heights


@settings(max_examples=60, deadline=None)
@given(sweep_inputs())
def test_residue_sweep_matches_the_exact_sum_sweep(case):
    """The depth-major sweep on residues mod 4 returns, bit for bit, what
    the leaves-first sweep on exact sums returns, for one row and for
    stacks, on Vicsek graphs and chain volumes."""
    g, heights = case
    assert np.array_equal(
        _recurrent_representative(g, heights), exact_sum_representative(g, heights)
    )


SOLVE_GRAPHS = [pytest.param(("level", i), id=str(i)) for i in range(6)]
SOLVE_GRAPHS += [pytest.param(("chain", m), id=f"chain-{m}") for m in (1, 2, 13, 40)]


@pytest.mark.parametrize("graph", SOLVE_GRAPHS)
def test_solve_times_four_is_exact(graph):
    """4 L^-1 is an integer matrix, and the prefix sums over the vertex tree
    apply it exactly: L solve(b) equals 4b in int64, for unit vectors of
    either sign, mixed-sign rows and large b, on Vicsek graphs and chain
    volumes, one row at a time and as one stack."""
    kind, size = graph
    g = build(size) if kind == "level" else _chain_volume(size)
    n = g.num_vertices - 1
    rng = np.random.default_rng(size)
    picks = rng.choice(n, size=min(n, 20), replace=False)
    cases = [np.eye(1, n, i, dtype=np.int64)[0] * (-1) ** i for i in picks]
    cases += [np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64)]
    cases += [rng.integers(-3, 4, size=n), rng.integers(-(2**40), 2**40, size=n)]
    for b in cases:
        assert np.array_equal(apply_laplacian(g, _solve_times_four(g, b)), 4 * b)
    stack = np.stack(cases)
    assert np.array_equal(_solve_times_four(g, stack), [_solve_times_four(g, b) for b in cases])
    assert np.array_equal(apply_laplacian(g, _solve_times_four(g, stack)), 4 * stack)
    if n <= 120:
        dense = np.diag(g.degrees[:-1]) - g.nonsink_adjacency.toarray()
        columns = np.stack([_solve_times_four(g, e) for e in np.eye(n, dtype=np.int64)], axis=1)
        assert np.allclose(columns, 4 * np.linalg.inv(dense), rtol=0, atol=1e-9)


def test_branch_invariance(g2, rng):
    offsets = [v for v in g2.vertices if classify(g2, v) is DiagonalClass.OFFSET_D1]
    for _ in range(15):
        eta = sample_recurrent(g2, rng)
        out, _ = stabilize(g2, add_particles(g2, eta, (0, 0), 1))
        for x in offsets:
            for v in branch_component(g2, x):
                vi = g2.vertex_index(v)
                assert out.heights[vi] == eta.heights[vi]


def test_geodesic_locality(g2, rng):
    verts = [v for v in g2.vertices if v != g2.sink]
    for _ in range(25):
        eta = sample_recurrent(g2, rng)
        x = verts[rng.integers(0, len(verts))]
        out, _ = stabilize(g2, add_particles(g2, eta, x, 1))
        inside = geodesic_subgraph(g2, x)
        for vi, v in enumerate(g2.vertices[:-1]):
            if v not in inside:
                assert out.heights[vi] == eta.heights[vi], (x, v)


@pytest.mark.parametrize("level", [1, 2])
def test_order_four_kill_anywhere(level, rng):
    g = build(level)
    verts = [v for v in g.vertices if v != g.sink]
    for _ in range(25):
        eta = sample_recurrent(g, rng)
        x = verts[rng.integers(0, len(verts))]
        out, _ = stabilize(g, add_particles(g, eta, x, 4))
        assert out == eta, x


def test_group_add_commutative(g1, rng):
    for _ in range(100):
        a = SandpileConfig(rng.integers(0, 3, size=15))
        b = SandpileConfig(rng.integers(0, 3, size=15))
        assert group_add(g1, a, b) == group_add(g1, b, a)


def test_group_add_identity_law(g1, rng):
    ident = identity(1)
    for _ in range(20):
        eta = sample_recurrent(g1, rng)
        assert group_add(g1, ident, eta) == eta


def test_group_add_associative_on_recurrent(g1, rng):
    for _ in range(20):
        a, b, c = (sample_recurrent(g1, rng) for _ in range(3))
        assert group_add(g1, group_add(g1, a, b), c) == group_add(
            g1, a, group_add(g1, b, c)
        )


def test_group_add_k4_example(g0):
    two = SandpileConfig([2, 2, 2])
    direct, _ = stabilize(g0, SandpileConfig([4, 4, 4]))
    assert group_add(g0, two, two) == direct


def test_add_particles(g1):
    c = SandpileConfig.zeros(g1)
    assert add_particles(g1, c, (0, 0), 0) == c
    bumped = add_particles(g1, c, (1, 2), 5)
    assert bumped.heights[g1.vertex_index((1, 2))] == 5
    with pytest.raises(ValueError):
        add_particles(g1, c, g1.sink, 1)
    with pytest.raises(ValueError):
        add_particles(g1, c, (0, 0), -1)
    with pytest.raises(ValueError):
        add_particles(build(2), SandpileConfig([0, 0, 0]), (0, 0), 1)


# ---------------------------------------------------------------------------
# boundary flow
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("i", [1, 2, 5, 9])
def test_chain_volume_is_the_diagonal_chain(g2, i):
    """Volume i's block tree holds the level-2 graph's edges among the
    diagonal chain's vertices up to (i, i), its sink, its block roots are
    the cutpoints (1, 1) .. (i, i), and its glue is 3 at the interior
    cutpoints (1, 1) .. (i - 1, i - 1) and 0 elsewhere."""
    vol = _chain_volume(i)
    coords = [v for x in range(i) for v in ((x, x), (x, x + 1), (x + 1, x))] + [(i, i)]
    idx = [g2.vertex_index(v) for v in coords]
    assert vol.num_vertices == len(coords) and vol.sink_index == 3 * i
    assert (g2.adjacency[idx][:, idx] != vol.adjacency).nnz == 0
    assert vol.block_roots.tolist() == [3 * j for j in range(1, i + 1)]
    cutpoints = {(x, x) for x in range(1, i)}
    assert _glue(vol).tolist() == [3 * (v in cutpoints) for v in coords[:-1]]


def test_boundary_flow_all_two(g1):
    chain = glued_chain([[2, 2, 2]] * 3)
    c = add_particles(g1, chain_config(g1, chain), (0, 0), 1)
    counts = boundary_flow(g1, c, [(1, 1), (2, 2), (3, 3)])
    assert counts[0] == 3


def test_boundary_flow_takes_checkpoints_equal_to_a_vertex(g2):
    c = add_particles(g2, SandpileConfig.constant(g2, 0), (0, 0), 4)
    assert boundary_flow(g2, c, [(1.0, 1.0), (np.int64(2), 2)]) == boundary_flow(
        g2, c, [(1, 1), (2, 2)]
    )


def test_boundary_flow_zero_absorbs(g2):
    # a block sample that cannot pass anything on: origin height stays small
    chain = glued_chain([[0, 0, 0]] + [[2, 2, 2]] * 8)
    c = add_particles(g2, chain_config(g2, chain), (0, 0), 1)
    counts = boundary_flow(g2, c, [(i, i) for i in range(1, 10)])
    assert counts[0] == 0
    assert all(x == 0 for x in counts)


def test_boundary_flow_four_persists(g2, rng):
    # inject 4 particles; every checkpoint passes exactly 4 onward
    eta = sample_recurrent(_chain_volume(9), rng)
    c = add_particles(g2, chain_config(g2, eta.heights), (0, 0), 4)
    counts = boundary_flow(g2, c, [(i, i) for i in range(1, 10)])
    assert all(x == 4 for x in counts)


def test_boundary_flow_validation(g1):
    c = SandpileConfig.zeros(g1)
    with pytest.raises(ValueError):
        boundary_flow(g1, c, [(1, 2)])  # off-diagonal checkpoint
    with pytest.raises(ValueError):
        boundary_flow(g1, c, [(2, 2), (1, 1)])  # not ascending
    off_support = add_particles(g1, c, (0, 3), 1)
    with pytest.raises(ValueError):
        boundary_flow(g1, off_support, [(1, 1)])
    assert boundary_flow(g1, c, []) == []


def test_boundary_flow_subset_of_checkpoints(g2, rng):
    eta = sample_recurrent(_chain_volume(9), rng)
    c = add_particles(g2, chain_config(g2, eta.heights), (0, 0), 1)
    full = boundary_flow(g2, c, [(i, i) for i in range(1, 10)])
    partial = boundary_flow(g2, c, [(2, 2), (5, 5), (9, 9)])
    assert partial == [full[1], full[4], full[8]]


def test_boundary_flow_matches_full_graph_oracle(g2, rng):
    """The chain contraction must reproduce nested-volume stabilization on
    the full graph for genuine uniform recurrent samples, with heights at
    degree-6 vertices carrying the +3 gluing over their block-local values."""
    for _ in range(25):
        eta = sample_recurrent(g2, rng)
        oracle = nested_volume_counts(
            g2, add_particles(g2, eta, (0, 0), 1), 9
        )
        # translate the full configuration onto the chain: subtract the +3
        # gluing at degree-6 offset vertices (their branches are contracted)
        heights = np.zeros(g2.num_vertices - 1, dtype=np.int64)
        for vi, v in enumerate(g2.vertices[:-1]):
            cls = classify(g2, v)
            if cls is DiagonalClass.BRANCH:
                continue
            h = int(eta.heights[vi])
            if cls is DiagonalClass.OFFSET_D1 and g2.degrees[vi] == 6:
                h -= 3
            heights[vi] = h
        chain_config = add_particles(g2, SandpileConfig(heights), (0, 0), 1)
        counts = boundary_flow(g2, chain_config, [(i, i) for i in range(1, 10)])
        assert counts == oracle


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(-5, 0), st.sampled_from([4, 7, 12, 41]), st.data())
def test_boundary_flow_matches_queue_engine(level, low, high, data):
    """boundary_flow against the queue engine on arbitrary heights over the
    whole diagonal chain, beyond the last checkpoint too: negative, small or
    far above the degrees, so that volumes need not end recurrent."""
    g = build(level)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    chain = rng.integers(low, high, size=3 * g.side)
    stops = sorted(data.draw(st.sets(st.integers(1, g.side), min_size=1)))
    counts = boundary_flow(g, chain_config(g, chain), [(i, i) for i in stops])
    full = chain_queue_flow(chain.tolist() + [0], g.side)
    assert counts == [full[i - 1] for i in stops]


def test_overflow_guard(g0):
    with pytest.raises(OverflowError):
        stabilize(g0, SandpileConfig([2**50, 0, 0]))

from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vicsek_sandpile import (
    CapacityError,
    InvariantFactors,
    SandpileConfig,
    SingularMatrixError,
    build,
    element_order,
    enumerate_recurrent_k4,
    group_add,
    group_coordinates,
    group_structure,
    k_step_distribution,
    order2_count,
    reduced_laplacian,
    sample_recurrent,
    sink_hit_probability,
    smith_normal_form,
)
from vicsek_sandpile.chain import _k4_walk_table, transition_matrix
from vicsek_sandpile.critical_group import _geodesic_walk, _sink_count
from vicsek_sandpile.fractal_graph import LEVEL_CAP_ENV
from vicsek_sandpile.identity import identity
from vicsek_sandpile.sandpile import _K4_WALK, _chain_volume, _recurrent_representative

from .oracles import cofactor_determinant, doubling_order, engine_sink_hits


def test_reduced_laplacian_k4(g0):
    L = reduced_laplacian(g0)
    assert L.tolist() == [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    assert cofactor_determinant(L.tolist()) == 16
    # row sums count the deleted sink adjacencies
    assert sorted(int(r) for r in L.sum(axis=1)) == [1, 1, 1]


def test_reduced_laplacian_structure(g1):
    L = reduced_laplacian(g1)
    assert np.array_equal(L, L.T)
    assert np.all(np.diag(L) == g1.degrees[:-1])
    off = L - np.diag(np.diag(L))
    assert set(np.unique(off)) <= {-1, 0}
    assert set(int(r) for r in L.sum(axis=1)) <= {0, 1, 2, 3}


@pytest.mark.parametrize(
    "graph",
    [("level", i) for i in range(4)] + [("chain", i) for i in range(1, 6)],
    ids=lambda graph: f"{graph[0]}{graph[1]}",
)
def test_reduced_laplacian_matches_the_sparse_adjacency(graph):
    kind, i = graph
    g = build(i) if kind == "level" else _chain_volume(i)
    L = reduced_laplacian(g)
    assert L.dtype == np.int64
    assert np.array_equal(L, np.diag(g.degrees[:-1]) - g.nonsink_adjacency.toarray())


def test_snf_already_diagonal():
    assert smith_normal_form([[2, 0], [0, 6]]).factors == (2, 6)
    assert smith_normal_form([[6, 0], [0, 2]]).factors == (2, 6)


def test_snf_k4(g0):
    assert smith_normal_form(reduced_laplacian(g0)).factors == (1, 4, 4)
    assert group_structure(0).factors == (1, 4, 4)


def test_snf_errors():
    with pytest.raises(SingularMatrixError):
        smith_normal_form([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        smith_normal_form([[1.5, 0], [0, 2]])


def test_snf_bigint_fallback():
    big = 2**70
    factors = smith_normal_form([[big, 0], [0, 3 * big]])
    assert factors.factors == (big, 3 * big)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_snf_random_matrices(rows):
    det = cofactor_determinant(rows)
    if det == 0:
        with pytest.raises(SingularMatrixError):
            smith_normal_form(rows)
        return
    factors = smith_normal_form(rows)
    # divisibility chain is enforced by the type; check determinant
    assert factors.product() == abs(det)
    for a, b in zip(factors, list(factors)[1:]):
        assert b % a == 0


def test_invariant_factors_type():
    with pytest.raises(ValueError):
        InvariantFactors(factors=(2, 3))
    with pytest.raises(ValueError):
        InvariantFactors(factors=(0, 2))
    f = InvariantFactors(factors=(1, 2, 4))
    assert f.product() == 8
    assert f.nonunit() == (2, 4)


@pytest.mark.parametrize(
    "level,units,fours",
    [(0, 1, 2), (1, 5, 10), (2, 25, 50)],
)
def test_group_structure(level, units, fours):
    factors = group_structure(level)
    counts = Counter(factors.factors)
    assert counts == {1: units, 4: fours}
    assert factors.product() == 16 ** (5**level)


def test_group_structure_cap(monkeypatch):
    """Only the build cap limits the group structure."""
    counts = Counter(group_structure(6).factors)
    assert counts == {1: 5**6, 4: 2 * 5**6}
    monkeypatch.setenv(LEVEL_CAP_ENV, "3")
    with pytest.raises(CapacityError):
        group_structure(4)
    with pytest.raises(ValueError):
        group_structure(-1)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_group_structure_matches_snf(level):
    """The block decomposition's factors are the reduced Laplacian's."""
    assert group_structure(level) == smith_normal_form(reduced_laplacian(build(level)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_group_coordinates(level, seed):
    """The coordinates vanish on the columns of the reduced Laplacian, add
    mod 4, agree on a configuration and its recurrent representative, are
    zero on the identity and tell sampled recurrent configurations apart."""
    g = build(level)
    rng = np.random.default_rng(seed)

    def pi(heights):
        return group_coordinates(g, SandpileConfig(heights))

    assert pi(np.zeros(g.num_vertices - 1, dtype=np.int64)).shape == (len(g.blocks), 2)
    for column in reduced_laplacian(g).T:
        assert not pi(column).any()
    a, b = rng.integers(-100, 101, size=(2, g.num_vertices - 1))
    assert np.array_equal(pi(a + b), (pi(a) + pi(b)) % 4)
    assert np.array_equal(pi(_recurrent_representative(g, a)), pi(a))
    assert not pi(identity(level).heights).any()
    sampled = [sample_recurrent(g, rng) for _ in range(30)]
    coordinates = {eta.as_tuple(): pi(eta.heights).tobytes() for eta in sampled}
    assert len(set(coordinates.values())) == len(coordinates)


@pytest.mark.parametrize("level,want", [(0, 4), (1, 2**10), (2, 2**50)])
def test_order2_count(level, want):
    assert order2_count(level) == want


def test_order2_count_chain_inequality():
    assert order2_count(1) <= order2_count(0) ** 5
    assert order2_count(2) <= order2_count(1) ** 5


def test_element_order_identity(g1):
    assert element_order(g1, identity(1)) == 1


def test_element_order_spectrum_k4(g0):
    ident = identity(0)
    recurrent = enumerate_recurrent_k4()
    orders = Counter(element_order(g0, eta) for eta in recurrent)
    # Z4 x Z4: one identity, three elements of order 2, twelve of order 4
    assert orders == {1: 1, 2: 3, 4: 12}
    assert orders[1] + orders[2] == 4  # doubling kills exactly 4 elements
    assert [element_order(g0, eta) for eta in recurrent] == [
        doubling_order(g0, eta, ident) for eta in recurrent
    ]


@pytest.mark.parametrize("level", [1, 2])
def test_element_order_divides_four(level, rng):
    g = build(level)
    ident = identity(level)
    seen = set()
    for _ in range(100):
        eta = sample_recurrent(g, rng)
        order = element_order(g, eta)
        assert order in (1, 2, 4)
        assert order == doubling_order(g, eta, ident)
        seen.add(order)
        doubled = group_add(g, eta, eta)  # of order 1 or 2
        assert element_order(g, doubled) == doubling_order(g, doubled, ident)
    assert 4 in seen  # the generic order equals the largest invariant factor
    assert max(seen) == max(group_structure(level).factors)


def test_element_order_requires_recurrent(g1):
    with pytest.raises(ValueError):
        element_order(g1, SandpileConfig.zeros(g1))


def test_sink_hit_certain_with_four(g1, g2, rng):
    for g, x in ((g1, (0, 0)), (g1, (1, 2)), (g2, (4, 5)), (g2, (0, 3))):
        est = sink_hit_probability(g, x, 4, samples=40, rng=rng)
        assert est.hits == est.samples
        assert est.estimate == 1.0


def test_sink_hit_doubling_inequality(g1, rng):
    one = sink_hit_probability(g1, (0, 0), 1, samples=600, rng=rng)
    two = sink_hit_probability(g1, (0, 0), 2, samples=600, rng=rng)
    joint = 3 * (one.stderr**2 + two.stderr**2) ** 0.5
    assert two.estimate <= 2 * one.estimate + joint


def test_sink_hit_matches_exact_chain(g1, rng):
    """One particle at the origin reaches the level-1 sink exactly when the
    nested-volume chain is not yet absorbed at 0 after the three blocks."""
    exact = 1 - k_step_distribution(1, 3)[0]
    est = sink_hit_probability(g1, (0, 0), 1, samples=1500, rng=rng)
    assert abs(est.estimate - float(exact)) < 3 * est.stderr + 1e-9


@pytest.mark.parametrize(
    "x, k, seed, hits",
    [((1, 0), 1, 11, 23), ((4, 5), 2, 12, 33), ((9, 10), 3, 13, 53), ((0, 1), 1, 14, 16)],
)
def test_sink_hit_same_seed_same_hits(x, k, seed, hits):
    """Same seed, same sample path: hit counts recorded when the samples
    were still stabilized one at a time."""
    assert sink_hit_probability(build(3), x, k, samples=64, rng=seed).hits == hits


@settings(max_examples=60, deadline=None)
@given(
    level=st.integers(0, 3),
    pick=st.integers(0, 10**6),
    k=st.integers(1, 9),
    samples=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_sink_hit_walk_matches_engine(level, pick, k, samples, seed):
    """The geodesic walk counts the hits the engine finds on the same draws,
    at any non-sink vertex; k above 4 takes the walk through its mod-4 wrap."""
    g = build(level)
    x = g.vertices[pick % (g.num_vertices - 1)]
    got = sink_hit_probability(g, x, k, samples=samples, rng=seed).hits
    assert got == engine_sink_hits(g, x, k, samples, seed)


def _entry_law(slot: int, x: int) -> tuple[Fraction, ...]:
    """The law over the 16 picks of what a block entered at ``slot`` by x
    particles passes on, as the walk reads it: 4 (x // 4) + _K4_WALK[..., x % 4]."""
    counts = np.bincount(4 * (x // 4) + _K4_WALK[slot, :, x % 4], minlength=5)
    return tuple(Fraction(int(c), 16) for c in counts)


def test_walk_table_is_the_chain_law():
    """Averaged over the 16 picks, the table is the chain's transition matrix
    from every entry slot, and from slot 0 it is the engine-run block table."""
    for slot in range(3):
        assert [_entry_law(slot, x) for x in range(5)] == list(transition_matrix().rows)
    walk = _k4_walk_table()
    assert np.array_equal(_K4_WALK[0], walk[:, :4]) and (walk[:, 4] == 4).all()


def test_walk_law_is_a_chain_power_at_every_level1_vertex(g1):
    """Over all 16^d picks of the d <= 3 blocks on the geodesic of each
    level-1 vertex, the walk's sink count for k = 1..4 has law e_k P^d."""
    depth = g1.distance_to_sink()
    for x in g1.vertices[:-1]:
        _, steps = _geodesic_walk(g1, x)
        d = len(steps)
        assert d == depth[g1.vertex_index(x)] and 1 <= d <= 3
        for k in range(1, 5):
            counts = Counter(_sink_count(steps, picks, k) for picks in product(range(16), repeat=d))
            law = tuple(Fraction(counts[a], 16**d) for a in range(5))
            assert sum(law) == 1 and law == k_step_distribution(k, d), (x, k)


def test_sink_hit_validation(g1, rng):
    with pytest.raises(ValueError):
        sink_hit_probability(g1, g1.sink, 1, samples=5, rng=rng)
    with pytest.raises(ValueError):
        sink_hit_probability(g1, (0, 0), 0, samples=5, rng=rng)
    with pytest.raises(ValueError):
        sink_hit_probability(g1, (0, 0), 1, samples=0, rng=rng)

import importlib
from collections import Counter

import pytest

from vicsek_sandpile import (
    CapacityError,
    SandpileConfig,
    VerificationError,
    build,
    is_recurrent,
    merge,
    sample_recurrent,
    stabilize,
    stabilize_many,
    verify_identity,
)
from vicsek_sandpile.fractal_graph import LEVEL_CAP_ENV
from vicsek_sandpile.identity import MergeSpec, identity

from .oracles import merge_identity

# the package's `identity` attribute is the function, so fetch the module
identity_module = importlib.import_module("vicsek_sandpile.identity")
sandpile_module = importlib.import_module("vicsek_sandpile.sandpile")


def all_two(level):
    return SandpileConfig.constant(build(level), 2)


def test_identity_level0():
    assert identity(0).as_tuple() == (2, 2, 2)


def test_identity_level1(g1):
    ident = identity(1)
    cutpoints = {(1, 1), (2, 1), (1, 2), (2, 2)}
    for vi, v in enumerate(g1.vertices[:-1]):
        assert ident.heights[vi] == (5 if v in cutpoints else 2), v


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5])
def test_identity_matches_merge_recursion(level):
    """The identity read off the block tree is the five-copy merge."""
    assert identity(level) == merge_identity(level)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_identity_height_structure(level):
    """Heights are 2 off the cutpoints, 5 on the finest-scale cutpoints
    (those joining two K4 blocks of the same level-1 square) and 4 on all
    coarser cutpoints; this matches the {2,4,5} color structure of the
    level-3 picture."""
    g = build(level)
    ident = identity(level)
    hist = Counter(int(h) for h in ident.heights)
    fives = 4 * 5 ** (level - 1)
    fours = 5 ** (level - 1) - 1
    assert hist == {
        2: g.num_vertices - 1 - fives - fours,
        **({5: fives} if fives else {}),
        **({4: fours} if fours else {}),
    }
    # every non-2 height sits on a degree-6 cutpoint
    for vi in range(g.num_vertices - 1):
        if ident.heights[vi] != 2:
            assert g.degrees[vi] == 6


def test_merge_display_example(g1):
    """The k=2 merge of five all-2 blocks puts 4 at the four cutpoints and
    2 elsewhere (this is the merge operation itself; the group identity
    needs k=3 at the first level, see test_identity_level1)."""
    id0 = all_two(0)
    merged = merge(g1, MergeSpec(k=2, lb=id0, rb=id0, rt=id0, lt=id0, mid=id0))
    cutpoints = {(1, 1), (2, 1), (1, 2), (2, 2)}
    for vi, v in enumerate(g1.vertices[:-1]):
        assert merged.heights[vi] == (4 if v in cutpoints else 2), v


def test_merge_cutpoint_bump(g1):
    id0 = all_two(0)
    for k in (0, 1, 2, 3):
        merged = merge(g1, MergeSpec(k=k, lb=id0, rb=id0, rt=id0, lt=id0, mid=id0))
        assert merged.heights[g1.vertex_index((1, 1))] == k + 2


def test_merge_k3_recurrent(g2, rng):
    """The k=3 merge of five recurrent configurations is recurrent."""
    g1 = build(1)
    for _ in range(5):
        parts = [sample_recurrent(g1, rng) for _ in range(5)]
        merged = merge(
            g2, MergeSpec(k=3, lb=parts[0], rb=parts[1], rt=parts[2], lt=parts[3], mid=parts[4])
        )
        assert is_recurrent(g2, merged)


def test_merge_respects_rotations(g1, rng):
    """The rotated copies read their heights through the quarter-turn maps:
    spot-check single-vertex markers land where the maps say."""
    g0 = build(0)
    zero = SandpileConfig.zeros(g0)
    marker = SandpileConfig([7, 0, 0])  # height at local (0,0)
    merged = merge(g1, MergeSpec(k=0, lb=zero, rb=marker, rt=zero, lt=zero, mid=zero))
    # local (0,0) appears at the global vertex x with rot(tau_RB(x)) = (0,0),
    # i.e. x = (2,0) + (0,0) rotated back: phi maps (0,0) -> (0,1), so x=(2,1)?
    got = {v for vi, v in enumerate(g1.vertices[:-1]) if merged.heights[vi] == 7}
    assert len(got) == 1
    (vertex,) = got
    # independent check: the marked vertex is inside the RB copy
    assert vertex[0] >= 2 and vertex[1] <= 1


def test_merge_validation(g1, g2):
    id0 = all_two(0)
    id1 = all_two(1)
    with pytest.raises(ValueError):
        merge(g1, MergeSpec(k=-1, lb=id0, rb=id0, rt=id0, lt=id0, mid=id0))
    with pytest.raises(ValueError):
        merge(g2, MergeSpec(k=2, lb=id0, rb=id0, rt=id0, lt=id0, mid=id0))
    with pytest.raises(ValueError):
        merge(g1, MergeSpec(k=2, lb=id1, rb=id1, rt=id1, lt=id1, mid=id1))
    with pytest.raises(ValueError):
        merge(build(0), MergeSpec(k=2, lb=id0, rb=id0, rt=id0, lt=id0, mid=id0))


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_identity_matches_fourfold_oracle(level, rng):
    g = build(level)
    ident = identity(level)
    for _ in range(3):
        eta = sample_recurrent(g, rng)
        collapsed, _ = stabilize(g, eta.scaled(4))
        assert collapsed == ident


@pytest.mark.parametrize("level", [1, 2, 3])
def test_identity_self_similar(level):
    g_prev = build(level - 1)
    ident, prev = identity(level), identity(level - 1)
    g = build(level)
    sub_sink = g_prev.sink
    for vi, v in enumerate(g_prev.vertices[:-1]):
        assert ident.heights[g.vertex_index(v)] == prev.heights[vi], v
    # the previous sink is a cutpoint now and carries a bumped height
    assert ident.heights[g.vertex_index(sub_sink)] in (4, 5)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_verify_identity_passes(level, rng):
    g = build(level)
    report = verify_identity(g, identity(level), samples=25, rng=rng)
    assert not report.failed()
    assert report.sink_particles_mod4 == 2
    assert set(report.height_histogram) <= {2, 4, 5}


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_identity_needs_a_sample(g1, rng, samples):
    # clauses (c) and (d) would hold vacuously
    with pytest.raises(ValueError, match="sample"):
        verify_identity(g1, identity(1), samples=samples, rng=rng)


def test_verify_identity_rejects_non_identity(g1, rng):
    fake = SandpileConfig.constant(g1, 2)  # stable, recurrent-looking, wrong
    with pytest.raises(VerificationError) as err:
        verify_identity(g1, fake, samples=3, rng=rng)
    message = str(err.value)
    assert "clauses" in message


def test_verify_identity_report_on_failure(g1, rng):
    fake = SandpileConfig.constant(g1, 1)  # not even recurrent
    with pytest.raises(VerificationError) as err:
        verify_identity(g1, fake, samples=2, rng=rng)
    assert "a_recurrent" in str(err.value)


def test_identity_is_cached_and_returned_fresh(monkeypatch):
    want = identity(2).as_tuple()
    returned = identity(2)
    returned.heights[:] = 0
    assert identity(2).as_tuple() == want
    hits = identity_module._identity_heights.cache_info().hits
    identity(2)
    assert identity_module._identity_heights.cache_info().hits == hits + 1
    monkeypatch.delenv(LEVEL_CAP_ENV, raising=False)
    with pytest.raises(CapacityError):
        identity(7)


def test_verify_identity_stack_is_read_off(g2, monkeypatch):
    """For the true identity every row of the stack, 2e, e + eta_i and
    4 eta_i, is read off the block tree with no rounds."""
    stacks = []

    def spy(g, configs):
        out = stabilize_many(g, configs)
        stacks.append(out)
        return out

    monkeypatch.setattr(identity_module, "stabilize_many", spy)
    verify_identity(g2, identity(2), samples=5, rng=1)
    [stack] = stacks
    assert len(stack) == 11
    assert all(rep.read_off and rep.rounds == 0 for _, rep in stack)


@pytest.mark.parametrize("stack_heights", [None, 300])
def test_verify_identity_same_seed_same_report(g2, monkeypatch, stack_heights):
    """Same seed, same outcome: values recorded when the samples were still
    stabilized one at a time, with the default stacks and with stacks of
    four level-2 rows, the last one short."""
    if stack_heights:
        monkeypatch.setattr(sandpile_module, "_STACK_HEIGHTS", stack_heights)
    report = verify_identity(g2, identity(2), 5, rng=1)
    assert all(report.clauses.values()) and len(report.clauses) == 5
    assert report.sink_particles_mod4 == 2
    assert report.height_histogram == {2: 51, 4: 4, 5: 20}
    for h in (2, 1):
        with pytest.raises(VerificationError) as err:
            verify_identity(g2, SandpileConfig.constant(g2, h), 5, rng=1)
        named = "clauses ['a_recurrent', 'b_idempotent', 'c_neutral', 'd_fourfold_collapse']"
        assert named in str(err.value)

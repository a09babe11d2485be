import os
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import vicsek_sandpile
import vicsek_sandpile.fractal_graph as fractal_graph
from vicsek_sandpile import (
    ChainEvent,
    SandpileConfig,
    absorption_probabilities,
    k4_transition_table,
    k_step_closed_form,
    k_step_distribution,
    kappa,
    monte_carlo_stabilization,
    path_probability,
    radius_pmf,
    radius_pmf_table,
    stabilization_probability,
    stabilize,
    transient_mass,
    transition_matrix,
)
from vicsek_sandpile.chain import (
    _BLOCK_TRIALS,
    STATES,
    SingularMatrixError,
    TransitionMatrix,
    _k4_walk_table,
    _run_trials,
    default_workers,
)
from vicsek_sandpile.fractal_graph import LEVEL_CAP_ENV, CapacityError, has_ternary_digit_two
from vicsek_sandpile.sandpile import _K4_RECURRENT

from .oracles import chain_queue_flow

F = Fraction

# the one-step law of the nested-volume chain
P_ROWS = (
    (F(1), F(0), F(0), F(0), F(0)),
    (F(1, 2), F(3, 16), F(2, 16), F(3, 16), F(0)),
    (F(3, 16), F(3, 16), F(1, 4), F(3, 16), F(3, 16)),
    (F(0), F(3, 16), F(2, 16), F(3, 16), F(1, 2)),
    (F(0), F(0), F(0), F(0), F(1)),
)

# collected particles per recurrent block and added count, keyed by
# (height(0,0), height(0,1), height(1,0))
COLLECTED = {
    (1, 0, 2): (0, 2, 2), (1, 2, 0): (0, 2, 2),
    (2, 0, 1): (1, 1, 1), (2, 1, 0): (1, 1, 1), (2, 1, 1): (1, 1, 1),
    (1, 2, 1): (0, 3, 4), (1, 1, 2): (0, 3, 4), (1, 2, 2): (0, 3, 4),
    (2, 2, 0): (2, 2, 4), (2, 0, 2): (2, 2, 4),
    (0, 2, 1): (0, 0, 3), (0, 1, 2): (0, 0, 3), (0, 2, 2): (0, 0, 3),
    (2, 2, 2): (3, 4, 4), (2, 1, 2): (3, 4, 4), (2, 2, 1): (3, 4, 4),
}


def test_k4_transition_table():
    table = k4_transition_table()
    configs = {key[0] for key in table}
    assert configs == set(COLLECTED)
    for config, per_added in COLLECTED.items():
        for added, want in zip((1, 2, 3), per_added):
            assert table[(config, added)] == want, (config, added)
        assert table[(config, 4)] == 4  # four particles always pass through


def test_transition_matrix_exact():
    P = transition_matrix()
    for i in STATES:
        assert P[i] == P_ROWS[i], f"row {i}"


def test_transition_matrix_validation():
    with pytest.raises(ValueError):
        TransitionMatrix(rows=((F(1),) * 5,) * 5)
    bad = tuple(
        tuple(F(1, 2) if j == 0 else F(-1, 2) if j == 1 else F(1) if j == 2 else F(0) for j in range(5))
        for _ in range(5)
    )
    with pytest.raises(ValueError):
        TransitionMatrix(rows=bad)


def test_absorption_probabilities():
    x = absorption_probabilities()
    assert x == (F(1), F(3, 4), F(1, 2), F(1, 4), F(0))
    assert stabilization_probability() == F(3, 4)
    # monotone in the start state
    assert all(a >= b for a, b in zip(x, x[1:]))


def test_absorption_singular_detection():
    frozen = tuple(
        tuple(F(1) if i == j else F(0) for j in range(5)) for i in range(5)
    )
    with pytest.raises(SingularMatrixError):
        absorption_probabilities(TransitionMatrix(rows=frozen))


def test_singular_absorption_raises_the_package_error():
    frozen = tuple(
        tuple(F(1) if i == j else F(0) for j in range(5)) for i in range(5)
    )
    with pytest.raises(vicsek_sandpile.SingularMatrixError):
        absorption_probabilities(TransitionMatrix(rows=frozen))


def test_k_step_basics():
    P = transition_matrix()
    assert k_step_distribution(1, 0) == (F(0), F(1), F(0), F(0), F(0))
    assert k_step_distribution(1, 1) == P[1]
    assert k_step_distribution(3, 1) == P[3]
    for k in (2, 5, 9):
        dist = k_step_distribution(1, k)
        assert sum(dist) == 1
    with pytest.raises(ValueError):
        k_step_distribution(7, 1)
    with pytest.raises(ValueError):
        k_step_distribution(1, -1)


def test_k_step_limit():
    dist = k_step_distribution(1, 200)
    assert transient_mass(200) < F(1, 10**50)
    assert abs(dist[0] - F(3, 4)) < F(1, 10**50)
    assert abs(dist[4] - F(1, 4)) < F(1, 10**50)


def test_k_step_mirror_symmetry():
    # the chain commutes with the state flip j -> 4 - j
    for k in (1, 3, 7):
        top = k_step_distribution(1, k)
        bottom = k_step_distribution(3, k)
        assert top == tuple(reversed(bottom))


@pytest.mark.parametrize("start", [1, 2, 3])
def test_closed_form_matches_exact(start):
    for k in range(1, 41):
        exact = [float(q) for q in k_step_distribution(start, k)]
        closed = k_step_closed_form(start, k)
        assert max(abs(a - b) for a, b in zip(exact, closed)) < 1e-12


def test_closed_form_validation():
    with pytest.raises(ValueError):
        k_step_closed_form(1, 0)
    assert k_step_closed_form(0, 5) == (1.0, 0.0, 0.0, 0.0, 0.0)
    assert k_step_closed_form(4, 5) == (0.0, 0.0, 0.0, 0.0, 1.0)
    for start in (5, -1):
        with pytest.raises(ValueError):
            k_step_closed_form(start, 3)


def test_chain_event_merging():
    ev = ChainEvent.of((2, {1, 2, 3}), (2, {0, 1}), (5, {0}))
    assert ev.constraints == ((2, frozenset({1})), (5, frozenset({0})))
    with pytest.raises(ValueError):
        ChainEvent.of((2, {0}), (2, {1}))  # contradictory
    with pytest.raises(ValueError):
        ChainEvent.of((0, {1}))  # time must be >= 1
    with pytest.raises(ValueError):
        ChainEvent(constraints=((2, frozenset({9})),))


def test_path_probability_examples():
    assert path_probability(ChainEvent.of((1, {0})), 1) == F(1, 2)
    assert path_probability(ChainEvent.of((1, {0, 1, 2, 3, 4})), 1) == 1
    composite = ChainEvent.of((1, {2, 3}), (2, {0, 1}), (3, {0}))
    second = ChainEvent.of((1, {1}), (2, {1, 2, 3}), (2, {0, 1}), (3, {0}))
    assert path_probability(composite, 1) == F(27, 512)
    assert path_probability(second, 1) == F(9, 512)
    assert path_probability(composite, 1) + path_probability(second, 1) == F(36, 512)


# probability masses of the avalanche radius; every value here is produced
# by the two-term trajectory formula and cross-checked against exhaustive
# dynamics in test_radius_pmf_matches_block_dynamics / the trajectory oracle
# (n = 0: 1/2 with no topple plus 3/32 with the origin toppling alone)
RADIUS_PMF_KNOWN = {
    0: F(19, 32),
    1: F(9, 128),
    2: F(0),
    3: F(999, 16384),
    4: F(189, 16384),
    9: F(55075923, 4294967296),
    10: F(1199637, 4294967296),
    13: F(382257441, 8796093022208),
    28: F(306567753658951869, 77371252455336267181195264),
    31: F(97686053815163514237, 158456325028528675187087900672),
    40: F(12345562530280703719909341, 5316911983139663491615228241121378304),
}


def test_radius_pmf_values():
    for n, want in RADIUS_PMF_KNOWN.items():
        assert radius_pmf(n) == want, n


def test_radius_pmf_digit_two_zeros():
    for n in range(101):
        if has_ternary_digit_two(n):
            assert radius_pmf(n) == 0, n
        elif n > 0:
            assert radius_pmf(n) > 0, n


def test_radius_pmf_table():
    table = radius_pmf_table(9)
    assert [n for n, _ in table] == list(range(10))
    assert dict(table)[9] == RADIUS_PMF_KNOWN[9]
    with pytest.raises(ValueError):
        radius_pmf(-1)
    with pytest.raises(ValueError, match="non-negative"):
        radius_pmf_table(-3)


# a second law with 16th-denominator rows and state 0 absorbing, not the
# paper's: no symmetry, and state 4 is not absorbing
OTHER_P = TransitionMatrix(
    rows=tuple(
        tuple(F(w, 16) for w in row)
        for row in ((16, 0, 0, 0, 0), (3, 5, 4, 2, 2), (1, 2, 6, 4, 3), (2, 1, 3, 7, 3), (1, 1, 1, 1, 12))
    )
)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 9, 27, 243])
@pytest.mark.parametrize("matrix", [None, OTHER_P], ids=["paper", "other"])
def test_radius_pmf_table_matches_per_radius(m, matrix):
    """The shared-vector table equals the per-radius propagation row by row;
    at n = 1 the constraints at times k + 2 and n + 1 coincide."""
    assert radius_pmf_table(m, matrix) == [(n, radius_pmf(n, matrix)) for n in range(m + 1)]


def _trajectory_oracle(n):
    """Brute-force sum over complete chain trajectories of length n+2,
    applying the radius event as a plain predicate; independent of the
    restriction-operator machinery inside path_probability."""
    p16 = transition_matrix().scaled_by_16()
    k = kappa(n - 1)
    horizon = n + 2

    def event(traj):
        first = traj[k + 1] in (2, 3)
        second = traj[k + 1] == 1 and traj[k + 2] in (1, 2, 3)
        tail = traj[n + 1] in (0, 1) and traj[n + 2] == 0
        return (first or second) and tail

    total = 0
    stack = [((1,), 1)]  # (trajectory so far, numerator product)
    while stack:
        traj, weight = stack.pop()
        t = len(traj) - 1
        if t == horizon:
            if event(traj):
                total += weight
            continue
        state = traj[-1]
        for nxt in STATES:
            w = p16[state][nxt]
            if w:
                stack.append((traj + (nxt,), weight * w))
    return F(total, 16**horizon)


@pytest.mark.parametrize("n", [n for n in range(8) if not has_ternary_digit_two(n)])
def test_radius_pmf_against_trajectory_oracle(n):
    # every radius up to 7 with non-zero mass (the digit-2 radii are pinned
    # to zero by a separate clause of the distribution)
    if n == 0:
        # no topple (X_1 = 0), or the origin topples alone (X_1 = 1) and the
        # cutpoint (1, 1) stays stable (X_2 = 0); the level-1 dynamics in
        # test_radius_pmf_matches_block_dynamics give the same 19/32
        assert radius_pmf(0) == F(1, 2) + F(3, 16) * F(1, 2) == F(19, 32)
        return
    assert radius_pmf(n) == _trajectory_oracle(n), n


def test_radius_pmf_matches_block_dynamics(g1):
    """Exhaustive dynamics check on the level-1 graph: every choice of the
    three diagonal block samples (branch blocks held at the recurrent all-2
    state, which never changes the toppled set), one particle at the origin,
    real stabilization, true toppled-set diameters.

    The grouped mass of "nothing beyond the origin moved" is exactly 19/32
    under the dynamics, and radius_pmf(0) must equal it.
    """
    from vicsek_sandpile import enumerate_recurrent_k4, graph_distance

    blocks = [c.as_tuple() for c in enumerate_recurrent_k4()]
    base = np.zeros(15, dtype=np.int64)
    # branch content: all-2 blocks rooted at (1,2) and (2,1), +3 at the roots
    for v in ((0, 2), (0, 3), (1, 3), (2, 0), (3, 0), (3, 1)):
        base[g1.vertex_index(v)] = 2
    dist_cache = {}

    def diam(coords):
        pts = sorted(coords)
        if not pts:
            return -1
        best = 0
        for i, v in enumerate(pts):
            for w in pts[i + 1 :]:
                if (v, w) not in dist_cache:
                    dist_cache[(v, w)] = graph_distance(g1, v, w)
                best = max(best, dist_cache[(v, w)])
        return best

    counts: dict[int, int] = {}
    chain_coords = [
        (0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2),
    ]
    bumps = {(1, 1): 3, (1, 2): 3, (2, 1): 3, (2, 2): 3}
    for s1, s2, s3 in product(blocks, repeat=3):
        h = base.copy()
        for j, s in enumerate((s1, s2, s3), start=1):
            h[g1.vertex_index((j - 1, j - 1))] = s[0] + bumps.get((j - 1, j - 1), 0)
            h[g1.vertex_index((j - 1, j))] = s[1] + bumps.get((j - 1, j), 0)
            h[g1.vertex_index((j, j - 1))] = s[2] + bumps.get((j, j - 1), 0)
        h[g1.vertex_index((0, 0))] += 1
        _, rep = stabilize(g1, SandpileConfig(h))
        d = diam(rep.toppled_set)
        counts[d] = counts.get(d, 0) + 1
    total = 16**3
    assert F(counts.get(-1, 0), total) == F(1, 2)
    assert F(counts.get(0, 0), total) == F(3, 32)
    assert F(counts.get(-1, 0) + counts.get(0, 0), total) == radius_pmf(0) == F(19, 32)
    assert F(counts.get(1, 0), total) == radius_pmf(1) == F(9, 128)
    assert 2 not in counts  # ternary gap, straight from the dynamics


def test_radius_pmf_against_full_graph_monte_carlo(g2):
    """Assumption-free statistical leg: uniform spanning trees on the full
    level-2 graph, real stabilization, true toppled-set diameters.  The
    masses for radii 1, 3 and 4 must sit inside the sampling window of the
    formula values (the radius-2 count must vanish outright)."""
    from vicsek_sandpile import add_particles, sample_recurrent

    rng = np.random.default_rng(31)
    trials = 1200
    counts: dict[int, int] = {}
    for _ in range(trials):
        eta = sample_recurrent(g2, rng)
        _, rep = stabilize(g2, add_particles(g2, eta, (0, 0), 1))
        d = rep.diameter
        counts[d] = counts.get(d, 0) + 1
    assert counts.get(2, 0) == 0
    for n in (1, 3, 4):
        want = float(radius_pmf(n))
        got = counts.get(n, 0) / trials
        sigma = (want * (1 - want) / trials) ** 0.5
        assert abs(got - want) < 4 * sigma, (n, got, want)


def test_radius_pmf_total_mass_bound():
    """The radius masses must account for the full stabilization probability
    3/4, up to the exact transient tail of the cutoff."""
    N = 3**6
    total = sum(radius_pmf(n) for n in range(N + 1) if not has_ternary_digit_two(n))
    # a toppled set reaching diameter > N forces the chain to stay alive for
    # at least (N - 2) / 4 blocks (branch reach is at most 2t + 1 from the
    # origin after t blocks), so the missing mass is bounded by that tail
    tail = transient_mass((N - 2) // 4)
    assert total <= F(3, 4)
    assert F(3, 4) - total <= tail
    assert total + F(1, 4) + tail >= 1


def test_transient_mass_bounds_truncation():
    # a level-3 cutoff leaves less than 1e-7 of the trajectories undecided
    assert float(transient_mass(27)) < 1e-7
    assert transient_mass(0) == 1
    assert transient_mass(1) == F(1, 2)


def test_monte_carlo_chain_mode():
    est = monte_carlo_stabilization("chain", 3, 200_000, rng=12345)
    assert est.trials == 200_000
    assert est.stabilized + est.exploded + est.truncated == est.trials
    assert abs(est.estimate - 0.75) < 4 * est.stderr + 1e-9
    # determinism: same seed, same sample path
    again = monte_carlo_stabilization("chain", 3, 200_000, rng=12345)
    assert again.stabilized == est.stabilized


def test_monte_carlo_sandpile_mode():
    est = monte_carlo_stabilization("sandpile", 2, 3000, rng=99)
    assert abs(est.estimate - 0.75) < 4 * est.stderr + 1e-9
    assert est.truncated <= est.trials


# sandpile-mode counts (stabilized, exploded, truncated) per (level, trials,
# seed), as the queue engine gave them one trial at a time on the blocks the
# kernel draws (``queue_counts_of_live_draws`` on the seed's one child stream)
SANDPILE_COUNTS = {
    (1, 2500, 7): (1661, 479, 360),
    (2, 3000, 99): (2225, 769, 6),
    (3, 3000, 7): (2216, 784, 0),
    (4, 2000, 11): (1483, 517, 0),
}


# chain-mode counts per (level, trials, seed), as the 5x16 lookup built from
# the Fraction rows of the transition matrix gave them
CHAIN_COUNTS = {
    (3, 200_000, 12345): (150073, 49927, 0),
    (1, 5000, 3): (3372, 897, 731),
}


def _assert_counts_pinned(mode, pinned):
    for (level, trials, seed), want in pinned.items():
        est = monte_carlo_stabilization(mode, level, trials, rng=seed)
        assert (est.stabilized, est.exploded, est.truncated) == want, (level, trials, seed)


def test_monte_carlo_sandpile_counts_pinned():
    _assert_counts_pinned("sandpile", SANDPILE_COUNTS)


def test_monte_carlo_chain_counts_pinned():
    _assert_counts_pinned("chain", CHAIN_COUNTS)


def test_sorted_walk_table_is_the_sixteenths_law():
    """Column x of the sorted walk table, which the chain mode draws from,
    holds each next state j exactly 16 P[x][j] times."""
    step = np.sort(_k4_walk_table(), axis=0)
    for x in STATES:
        for j in STATES:
            assert np.count_nonzero(step[:, x] == j) == 16 * P_ROWS[x][j], (x, j)


def test_k4_walk_table():
    """Nothing arriving passes nothing, four arriving pass four, and the
    other columns are the engine's table in the samplers' row order."""
    walk = _k4_walk_table()
    assert walk.shape == (16, 5)
    assert np.all(walk[:, 0] == 0) and np.all(walk[:, 4] == 4)
    for block, row in zip(_K4_RECURRENT.tolist(), walk.tolist()):
        assert tuple(row[1:4]) == COLLECTED[tuple(block)]


def queue_flow_of_blocks(picks, added: int, **kwargs) -> list[int]:
    """The queue engine on the diagonal chain assembled from rows picks of
    the recurrent K4 table, with the +3 gluing at the interior cutpoints and
    `added` particles at the origin."""
    m = len(picks)
    heights = np.zeros(3 * m + 1, dtype=np.int64)
    heights[: 3 * m] = _K4_RECURRENT[np.asarray(picks)].ravel()
    heights[3 : 3 * m : 3] += 3
    heights[0] += added
    return chain_queue_flow(heights.tolist(), m, **kwargs)


def walk_of_blocks(picks, added: int) -> list[int]:
    walk, state, states = _k4_walk_table(), added, []
    for b in picks:
        state = int(walk[b, state])
        states.append(state)
    return states


def test_walk_matches_queue_engine_on_two_block_chains():
    """The reflector lemma, exhaustively over two blocks: the table walk
    gives the queue engine's count at both cutpoints."""
    for picks in product(range(16), repeat=2):
        for added in (1, 2, 3, 4):
            assert walk_of_blocks(picks, added) == queue_flow_of_blocks(picks, added)


def test_walk_matches_queue_engine_on_long_chains():
    rng = np.random.default_rng(2718)
    for _ in range(300):
        picks = rng.integers(0, 16, size=27)
        added = int(rng.integers(1, 5))
        assert walk_of_blocks(picks, added) == queue_flow_of_blocks(picks, added)


def queue_counts_of_live_draws(level: int, trials: int, rng: np.random.Generator) -> tuple[int, int, int]:
    """(stabilized, exploded, truncated) by the queue engine on the blocks
    the Monte Carlo kernel draws: at each of at most 3^level steps one
    ``integers(0, 16, size=live)`` call picks the next block of each trial
    still live, in trial order, where live means that the queue engine,
    stopped at absorption, has not yet reached 0 or 4 on its blocks so far."""
    picks = [[] for _ in range(trials)]
    active = list(range(trials))
    for _ in range(3**level):
        if not active:
            break
        for t, d in zip(active, rng.integers(0, 16, size=len(active)).tolist()):
            picks[t].append(d)
        active = [
            t for t in active
            if queue_flow_of_blocks(picks[t], 1, stop_at_absorption=True)[-1] not in (0, 4)
        ]
    last = [queue_flow_of_blocks(row, 1, stop_at_absorption=True)[-1] for row in picks]
    return last.count(0), last.count(4), trials - last.count(0) - last.count(4)


def test_sandpile_trials_match_queue_engine():
    """The Monte Carlo kernel on the unsorted table classifies the blocks it
    draws as the queue engine stopped at absorption does."""
    trials, level = 400, 3
    want = queue_counts_of_live_draws(level, trials, np.random.default_rng(41))
    assert _run_trials(_k4_walk_table(), level, trials, np.random.default_rng(41)) == want


def test_monte_carlo_modes_agree():
    a = monte_carlo_stabilization("chain", 3, 50_000, rng=5)
    b = monte_carlo_stabilization("sandpile", 3, 5000, rng=6)
    joint = (a.stderr**2 + b.stderr**2) ** 0.5
    assert abs(a.estimate - b.estimate) < 3 * joint + 1e-9


def test_monte_carlo_workers_deterministic():
    one = monte_carlo_stabilization("chain", 3, 5000, rng=7, workers=2)
    two = monte_carlo_stabilization("chain", 3, 5000, rng=7, workers=2)
    assert one.as_dict() == two.as_dict()
    assert one.stabilized + one.exploded + one.truncated == 5000


def test_monte_carlo_counts_independent_of_workers():
    # two and a half blocks of trials in each mode, so that the workers share
    # the blocks unevenly
    for mode, level in (("chain", 2), ("sandpile", 1)):
        trials = 5 * _BLOCK_TRIALS // 2
        runs = [monte_carlo_stabilization(mode, level, trials, rng=7, workers=w) for w in (1, 2, 3)]
        assert [run.workers for run in runs] == [1, 2, 3], mode
        one, two, three = (run.as_dict() for run in runs)
        assert one == two == three, mode
    # no more workers run than there are trial blocks, and the estimate says so
    assert monte_carlo_stabilization("sandpile", 1, 10, rng=7, workers=4).workers == 1


def test_default_workers_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 5}, raising=False)
    assert default_workers() == 2
    # without an affinity call, the machine's count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_workers() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_workers() == 1


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        monte_carlo_stabilization("nope", 1, 10, rng=0)
    with pytest.raises(ValueError):
        monte_carlo_stabilization("chain", 1, 0, rng=0)
    with pytest.raises(CapacityError):
        monte_carlo_stabilization("sandpile", 99, 10, rng=0)


def test_sandpile_monte_carlo_builds_no_level_graph(monkeypatch):
    """Sandpile mode walks the K4 block law and never reads the level graph,
    so it checks the level against the cap without building it."""
    _k4_walk_table()  # builds level 0 once, before the builds are watched
    built = []
    monkeypatch.setattr(fractal_graph, "_build_uncapped", built.append)
    monkeypatch.setenv(LEVEL_CAP_ENV, "7")
    est = monte_carlo_stabilization("sandpile", 7, 100, rng=5)
    assert est.stabilized + est.exploded == 100 and built == []
    with pytest.raises(CapacityError, match="level 8 exceeds the build cap 7"):
        monte_carlo_stabilization("sandpile", 8, 10, rng=0)
    with pytest.raises(ValueError, match="non-negative"):
        monte_carlo_stabilization("sandpile", -1, 10, rng=0)
    assert built == []


def test_sandpile_monte_carlo_memory_is_flat_in_the_level(monkeypatch):
    """Sandpile mode draws blocks only for the live trials, so its peak
    memory stays the same from 9 to 2187 diagonal blocks."""
    monkeypatch.setenv(LEVEL_CAP_ENV, "7")
    monte_carlo_stabilization("sandpile", 0, 1, rng=0)  # tables and lazy imports
    peaks = []
    for level in (2, 7):
        tracemalloc.start()
        try:
            monte_carlo_stabilization("sandpile", level, 4096, rng=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1 << 20, peaks
    assert max(peaks) <= 1.25 * min(peaks), peaks

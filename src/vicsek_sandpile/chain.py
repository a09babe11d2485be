"""Exact analysis of the nested-volume particle chain.

Adding one particle at the origin of a configuration sampled from the
infinite-volume limit and stabilizing block by block along the diagonal
chain produces a Markov chain X_i on {0,...,4}: the number of particles
arriving at the cutpoint (i, i).  State 0 means the avalanche died
(stabilization), state 4 persists forever (explosion).  The one-step
transition law follows from the 16 equally likely recurrent K4 blocks and
is computed here by running the sandpile engine on every (block, added)
pair, never hard-coded.

Why X is a Markov chain (both steps are Dhar's burning test, PRL 64, 1613,
1990).  Volume i is the blocks K^1..K^i with (i, i) as its sink; at the
start it holds a recurrent K4 triple on each block's corners other than
the one nearest (i, i), 3 more at every interior cutpoint, and the added
particle: a recurrent configuration plus one particle.  So once volume i
is stabilized it is recurrent.  In volume i + 1, (i, i) is a corner of
K^{i+1} of degree 6.  Each time it fires, it puts one particle on each of
its three edges into volume i, which is volume i's burning configuration:
every vertex there fires once, volume i returns to where it was and 3
particles come back.  The old volume acts as a reflector, and (i, i) acts
as a degree-3 corner of a lone K4 block whose glued 3 particles offset the
3 extra edges.  Hence X_{i+1} = T[block_{i+1}, X_i], with T the table of
``k4_transition_table``, and the blocks are independent and uniform.

Everything downstream is exact rational arithmetic: absorption
probabilities, k-step distributions (all entries have denominator 16^k, so
the internal representation keeps integer numerators at that denominator),
probabilities of time-constrained trajectories, and the avalanche-radius
probability mass function.  Floating point appears only in the closed-form
eigenvalue cross-check, whose eigenvalues (5 +- sqrt(13))/16 are irrational.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .critical_group import SingularMatrixError
from .fractal_graph import _check_level, build, has_ternary_digit_two, kappa
from .recurrence import enumerate_recurrent_k4
from .sandpile import add_particles, stabilize

STATES = (0, 1, 2, 3, 4)


@dataclass(frozen=True)
class TransitionMatrix:
    """5x5 stochastic matrix of exact rationals, rows indexed by state."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.rows) != 5 or any(len(r) != 5 for r in self.rows):
            raise ValueError("transition matrix must be 5x5")
        for r in self.rows:
            if any(p < 0 for p in r):
                raise ValueError("negative transition probability")
            if sum(r) != 1:
                raise ValueError("rows must sum to one")

    def __getitem__(self, state: int) -> tuple[Fraction, ...]:
        return self.rows[state]

    def scaled_by_16(self) -> list[list[int]]:
        """Integer matrix 16*P; every entry of P has denominator dividing 16."""
        out = []
        for row in self.rows:
            ints = []
            for p in row:
                q = p * 16
                if q.denominator != 1:
                    raise ValueError("entry denominator does not divide 16")
                ints.append(q.numerator)
            out.append(ints)
        return out


@lru_cache(maxsize=1)
def _k4_walk_table() -> np.ndarray:
    """T[b, x]: the particles that a K4 block passes to its sink when x
    particles arrive at the corner opposite the sink, one engine
    stabilization per pair, with b indexing ``enumerate_recurrent_k4()``
    (the samplers' row order).  T[b, 0] = 0, and T[b, 4] = 4 because four
    particles at a vertex act as the group identity.  Cached, read-only."""
    g = build(0)
    blocks = enumerate_recurrent_k4()
    walk = np.zeros((len(blocks), 5), dtype=np.int64)
    for b, config in enumerate(blocks):
        for x in (1, 2, 3, 4):
            walk[b, x] = stabilize(g, add_particles(g, config, (0, 0), x))[1].sink_particles
    walk.flags.writeable = False
    return walk


def k4_transition_table() -> dict[tuple[tuple[int, int, int], int], int]:
    """Particles collected at the sink of a K4 block, for every recurrent
    block configuration and every number of particles added at the corner
    opposite the sink: a dict view of ``_k4_walk_table``."""
    walk = _k4_walk_table()
    return {
        (config.as_tuple(), x): int(walk[b, x])
        for b, config in enumerate(enumerate_recurrent_k4())
        for x in (1, 2, 3, 4)
    }


@lru_cache(maxsize=1)
def transition_matrix() -> TransitionMatrix:
    """One-step law of the nested-volume chain: row x counts column x of
    ``_k4_walk_table`` over the 16 equally likely blocks, so 0 and 4 are
    absorbing.  Cached (the result is immutable)."""
    walk = _k4_walk_table()
    return TransitionMatrix(
        rows=tuple(
            tuple(Fraction(int(k), len(walk)) for k in np.bincount(walk[:, x], minlength=5))
            for x in STATES
        )
    )


def absorption_probabilities(matrix: TransitionMatrix | None = None) -> tuple[Fraction, ...]:
    """Probability of reaching 0 before 4 from each start state, solved
    exactly from the harmonicity system with boundary values x0=1, x4=0."""
    P = matrix if matrix is not None else transition_matrix()
    # unknowns x1,x2,x3:  (I - Q) x = r where r is the one-step mass to 0
    A = [
        [
            (Fraction(1) if i == j else Fraction(0)) - P[i + 1][j + 1]
            for j in range(3)
        ]
        for i in range(3)
    ]
    b = [P[i + 1][0] for i in range(3)]
    x = _solve_exact(A, b)
    return (Fraction(1), *x, Fraction(0))


def _solve_exact(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("singular absorption system")
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def stabilization_probability() -> Fraction:
    """Chance that one added particle at the origin stabilizes (start X0=1)."""
    return absorption_probabilities()[1]


# ---------------------------------------------------------------------------
# k-step distributions: exact and closed-form.
# ---------------------------------------------------------------------------


def _step_numerators(vec: list[int], p16: list[list[int]]) -> list[int]:
    return [
        sum(vec[i] * p16[i][j] for i in range(5) if vec[i])
        for j in range(5)
    ]


def k_step_distribution(start: int, k: int, matrix: TransitionMatrix | None = None) -> tuple[Fraction, ...]:
    """Row `start` of the k-th matrix power, exactly."""
    if start not in STATES:
        raise ValueError(f"start state must be in 0..4, got {start}")
    if k < 0:
        raise ValueError("k must be non-negative")
    P = matrix if matrix is not None else transition_matrix()
    p16 = P.scaled_by_16()
    vec = [1 if j == start else 0 for j in STATES]
    for _ in range(k):
        vec = _step_numerators(vec, p16)
    den = 16**k
    return tuple(Fraction(v, den) for v in vec)


_SQRT13 = math.sqrt(13.0)
_LAMBDA_PLUS = (5.0 + _SQRT13) / 16.0
_LAMBDA_MINUS = (5.0 - _SQRT13) / 16.0

# Spectral form of the k-step law for k >= 1:  constant + c+ l+^k + c- l-^k.
# Coefficients (constant, a, b) encode a + b*sqrt(13) over the common
# denominator 52 for the two eigenvalue terms.
_CLOSED_FORM_START1 = {
    0: (Fraction(3, 4), (-13, -3), (-13, 3)),
    1: (Fraction(0), (13, 1), (13, -1)),
    2: (Fraction(0), (0, 4), (0, -4)),
    3: (Fraction(0), (13, 1), (13, -1)),
    4: (Fraction(1, 4), (-13, -3), (-13, 3)),
}
_CLOSED_FORM_START2 = {
    0: (Fraction(1, 2), (-13, -5), (-13, 5)),
    1: (Fraction(0), (0, 6), (0, -6)),
    2: (Fraction(0), (26, -2), (26, 2)),
    3: (Fraction(0), (0, 6), (0, -6)),
    4: (Fraction(1, 2), (-13, -5), (-13, 5)),
}


def k_step_closed_form(start: int, k: int) -> tuple[float, ...]:
    """Closed-form k-step law (k >= 1) via the eigenvalues (5 +- sqrt 13)/16.

    Only the start-1 and start-2 coefficient blocks are stored: the chain
    commutes with the state flip j -> 4-j, which covers start state 3, and
    the absorbing states are constant.
    """
    if start not in STATES:
        raise ValueError(f"start state must be in 0..4, got {start}")
    if k < 1:
        raise ValueError("the closed form holds for k >= 1")
    if start == 0 or start == 4:
        return tuple(1.0 if j == start else 0.0 for j in STATES)
    if start == 3:
        flipped = k_step_closed_form(1, k)
        return tuple(reversed(flipped))
    coeffs = _CLOSED_FORM_START1 if start == 1 else _CLOSED_FORM_START2
    lam_p = _LAMBDA_PLUS**k
    lam_m = _LAMBDA_MINUS**k
    out = []
    for j in STATES:
        const, (ap, bp), (am, bm) = coeffs[j]
        term_p = (ap + bp * _SQRT13) / 52.0
        term_m = (am + bm * _SQRT13) / 52.0
        out.append(float(const) + term_p * lam_p + term_m * lam_m)
    return tuple(out)


# ---------------------------------------------------------------------------
# Constrained trajectories and the avalanche-radius distribution.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainEvent:
    """Conjunction of constraints X_t in S_t at strictly increasing times."""

    constraints: tuple[tuple[int, frozenset[int]], ...]

    def __post_init__(self):
        times = [t for t, _ in self.constraints]
        if any(t < 1 for t in times):
            raise ValueError("constraint times must be >= 1")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("constraint times must be strictly increasing")
        for _, s in self.constraints:
            if not s or not s.issubset(set(STATES)):
                raise ValueError("constraint sets must be non-empty subsets of 0..4")

    @classmethod
    def of(cls, *constraints: tuple[int, set[int]]) -> "ChainEvent":
        merged: dict[int, frozenset[int]] = {}
        for t, s in constraints:
            fs = frozenset(s)
            merged[t] = merged[t] & fs if t in merged else fs
        items = tuple(sorted(merged.items()))
        if any(not s for _, s in items):
            raise ValueError("contradictory constraints at a shared time")
        return cls(items)


def path_probability(
    event: ChainEvent, start: int, matrix: TransitionMatrix | None = None
) -> Fraction:
    """Exact probability that the chain started at `start` satisfies every
    constraint of the event, via restricted forward propagation."""
    if start not in STATES:
        raise ValueError(f"start state must be in 0..4, got {start}")
    P = matrix if matrix is not None else transition_matrix()
    p16 = P.scaled_by_16()
    vec = [1 if j == start else 0 for j in STATES]
    t_prev = 0
    for t, allowed in event.constraints:
        for _ in range(t - t_prev):
            vec = _step_numerators(vec, p16)
        vec = [v if j in allowed else 0 for j, v in enumerate(vec)]
        t_prev = t
    return Fraction(sum(vec), 16**t_prev)


def _radius_events(n: int) -> tuple[ChainEvent, ChainEvent]:
    """The two disjoint trajectory events whose probabilities sum to the
    radius mass at n >= 1: the block midpoint at kappa(n-1) must topple
    (reached with 2-3 particles directly, or with exactly 1 particle twice),
    while the vertex at distance n+1 must not."""
    k = kappa(n - 1)
    first = ChainEvent.of((k + 1, {2, 3}), (n + 1, {0, 1}), (n + 2, {0}))
    second = ChainEvent.of(
        (k + 1, {1}), (k + 2, {1, 2, 3}), (n + 1, {0, 1}), (n + 2, {0})
    )
    return first, second


def radius_pmf(n: int, matrix: TransitionMatrix | None = None) -> Fraction:
    """Probability that the avalanche started by one particle at the origin
    has toppled-set diameter exactly n.

    n = 0 collects the no-topple and origin-only cases: the origin stays
    stable (X_1 = 0), or it topples alone (X_1 = 1, which already means both
    off-sink corners of the first block stay quiet) and the cutpoint (1, 1)
    then stays stable (X_2 = 0).  Radii whose ternary expansion contains a 2
    are unreachable: the toppling that would realize them forces a strictly
    larger diameter.
    """
    if n < 0:
        raise ValueError("the radius is non-negative")
    P = matrix if matrix is not None else transition_matrix()
    if n == 0:
        p10, p11 = P[1][0], P[1][1]
        return p10 + p11 * p10
    if has_ternary_digit_two(n):
        return Fraction(0)
    first, second = _radius_events(n)
    if not _events_disjoint(first, second):
        raise RuntimeError(f"radius events overlap at n={n}")
    return path_probability(first, 1, P) + path_probability(second, 1, P)


def _events_disjoint(a: ChainEvent, b: ChainEvent) -> bool:
    """Audit check: two events are disjoint when some shared constraint time
    carries disjoint allowed sets."""
    times_a = dict(a.constraints)
    times_b = dict(b.constraints)
    return any(
        times_a[t].isdisjoint(times_b[t]) for t in times_a.keys() & times_b.keys()
    )


def radius_pmf_table(max_n: int, matrix: TransitionMatrix | None = None) -> list[tuple[int, Fraction]]:
    """The rows (n, radius_pmf(n)) for n = 0..max_n, from shared forward and
    backward vectors instead of one propagation per radius.

    With k = kappa(n - 1), both events of ``_radius_events`` constrain X_{k+1}
    (and the second also X_{k+2}) and end with X_{n+1} in {0, 1}, X_{n+2} = 0.
    In numerators over powers of 16, let F_t = e_1 (16P)^t count the ways
    from X_0 = 1 to each state at time t, and G_m = (16P)^m w, with
    w_j = [j in {0, 1}] 16P[j][0], the ways from each state to meet the two
    final constraints m and m + 1 steps later.  Over 16^(n+2), the mass at n is
    then, with f = F_{k+1},

        f_2 G_{n-k}[2] + f_3 G_{n-k}[3] + f_1 sum_{i=1..3} 16P[1][i] G_{n-k-1}[i].

    When k + 2 = n + 1, G_0 = w keeps only i = 1, which is where the
    constraints {1, 2, 3} and {0, 1} meet.  Every F_t and G_m is one 5x5
    big-integer step from the one before, so the table takes O(max_n) steps.
    ``radius_pmf`` keeps the per-radius propagation as the reference the
    tests compare this against.
    """
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    P = matrix if matrix is not None else transition_matrix()
    p16 = P.scaled_by_16()
    starts = {n: kappa(n - 1) for n in range(1, max_n + 1) if not has_ternary_digit_two(n)}
    forward = [[1 if j == 1 else 0 for j in STATES]]
    for _ in range(max(starts.values(), default=-1) + 1):
        forward.append(_step_numerators(forward[-1], p16))
    backward = [[p16[j][0] if j in (0, 1) else 0 for j in STATES]]
    columns = [list(col) for col in zip(*p16)]  # G_{m+1} = (16P) G_m
    for _ in range(max((n - k for n, k in starts.items()), default=0)):
        backward.append(_step_numerators(backward[-1], columns))
    table = []
    for n in range(max_n + 1):
        if n not in starts:  # n = 0 or a ternary digit 2: radius_pmf answers at once
            table.append((n, radius_pmf(n, P)))
            continue
        k = starts[n]
        f, g, h = forward[k + 1], backward[n - k], backward[n - k - 1]
        ways = f[2] * g[2] + f[3] * g[3] + f[1] * sum(p16[1][i] * h[i] for i in (1, 2, 3))
        table.append((n, Fraction(ways, 16 ** (n + 2))))
    return table


def transient_mass(k: int, start: int = 1, matrix: TransitionMatrix | None = None) -> Fraction:
    """Exact probability of not being absorbed after k steps; bounds the
    truncation error of any analysis cut off at the k-th block."""
    dist = k_step_distribution(start, k, matrix)
    return dist[1] + dist[2] + dist[3]


# ---------------------------------------------------------------------------
# Monte Carlo cross-validation.
# ---------------------------------------------------------------------------


@dataclass
class MonteCarloEstimate:
    """Stabilization-probability estimate with its sampling uncertainty."""

    mode: str
    level: int
    trials: int
    stabilized: int
    exploded: int
    truncated: int
    estimate: float
    stderr: float
    workers: int  # the worker processes that ran, not the count asked for

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "workers"}


def _run_trials(table: np.ndarray, level: int, trials: int, rng: np.random.Generator) -> tuple[int, int, int]:
    """Walk X_{i+1} = table[d, X_i] from X_0 = 1 for at most 3^level steps,
    with d uniform over the table's rows.  Each step draws only for the
    trials not yet at 0 or 4, in trial order, as both are fixed points."""
    states = np.ones(trials, dtype=np.int64)  # the added particle at the origin
    active = np.arange(trials)
    for _ in range(3**level):
        if len(active) == 0:
            break
        step = table[rng.integers(0, len(table), size=len(active)), states[active]]
        states[active] = step
        active = active[(step & 3) != 0]
    stabilized = int(np.count_nonzero(states == 0))
    exploded = int(np.count_nonzero(states == 4))
    return stabilized, exploded, trials - stabilized - exploded


# Trials per random stream.  Every block of trials draws from its own child
# of the caller's stream and workers take whole blocks, so the counts depend
# on the seed alone and the worker count changes only the wall time.
_BLOCK_TRIALS = 1 << 18


def monte_carlo_stabilization(mode: str, level: int, trials: int, rng, workers: int = 1) -> MonteCarloEstimate:
    """Estimate the stabilization probability by simulation.

    Both modes run ``_run_trials`` from X_0 = 1 for at most 3^level steps.
    chain mode walks the column-sorted block table, whose column x holds
    each next state j exactly 16 P[x][j] times, so each step is drawn from
    the transition law.  sandpile mode walks the table in
    ``enumerate_recurrent_k4()`` order, so draw d picks the recurrent K4
    block of row d for the next diagonal block of the level graph, and by
    the reflector lemma (module docstring) the nested-volume flow of the
    drawn blocks plus one particle at the origin is the walk
    X_{i+1} = T[block_{i+1}, X_i].  The trials are split into fixed-size
    blocks, each with its own child random stream; workers share out the
    blocks, and the result does not depend on how many there are.  No more
    workers run than there are blocks, and the estimate records how many
    did.
    """
    if mode not in ("chain", "sandpile"):
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if level < 0:
        raise ValueError("level must be non-negative")
    if mode == "sandpile":
        _check_level(level)
        table = _k4_walk_table()
    else:
        table = np.sort(_k4_walk_table(), axis=0)
    rng = np.random.default_rng(rng)

    blocks = [min(_BLOCK_TRIALS, trials - start) for start in range(0, trials, _BLOCK_TRIALS)]
    args = ([table] * len(blocks), [level] * len(blocks), blocks, rng.spawn(len(blocks)))
    workers = min(max(1, workers), len(blocks))
    if workers == 1:
        parts = list(map(_run_trials, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_trials, *args))
    stabilized, exploded, truncated = (sum(column) for column in zip(*parts))
    p = stabilized / trials
    stderr = math.sqrt(max(p * (1 - p), 1e-300) / trials)
    return MonteCarloEstimate(
        mode=mode,
        level=level,
        trials=trials,
        stabilized=stabilized,
        exploded=exploded,
        truncated=truncated,
        estimate=p,
        stderr=stderr,
        workers=workers,
    )


def default_workers() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)

"""The sandpile group identity, read off the block tree, and its checks.

The identity is the recurrent configuration in the class of 0, the one the
leaves-first sweep ``sandpile._recurrent_representative`` returns for the
zero heights.  Its heights are 2 off the cutpoints, 5 on block-scale
cutpoints (those joining two K4 blocks of the same level-1 square) and 4 on
all coarser cutpoints.

The same configuration comes from five-copy merging, the paper's
construction: a level-n configuration is assembled from five level-(n-1)
configurations placed on the LB, RB, RT, LT and middle copies.  The RB copy
is rotated a quarter turn one way and the LT copy the other way, so that
each rotated copy's local sink lands on the cutpoint whose height the merge
overrides; the four cutpoints receive k extra particles on top of the value
inherited from the middle (or, at the top-right cutpoint, the RT) copy.  The
level-1 identity is the k = 3 merge of five all-2 blocks, and every later
level is the k = 2 merge of five copies of the previous identity; the tests
check the identity against that recursion, built from ``merge``.

The verification routine checks the identity laws with the sandpile engine
and additionally confirms that stabilizing four times the identity sends
2 mod 4 particles into the sink, the invariant that drives the recursion.
The engine reads its results off the same sweep that defines ``identity``,
so what the checks add is the exact solve u = L^-1 (h - r) >= 0 and the
mass balance behind each result; the checks free of the block tree are
``tests/oracles.py::round_stabilize`` and ``random_order_stabilize``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fractal_graph import Coord, VicsekGraph, _check_level, build
from .recurrence import is_recurrent, sample_recurrent
from .sandpile import (
    SandpileConfig,
    _recurrent_representative,
    _stacks,
    stabilize,
    stabilize_many,
)


class VerificationError(RuntimeError):
    """An identity verification clause failed."""


@dataclass(frozen=True)
class MergeSpec:
    """Five level-(n-1) configurations and the cutpoint bump k."""

    k: int
    lb: SandpileConfig
    rb: SandpileConfig
    rt: SandpileConfig
    lt: SandpileConfig
    mid: SandpileConfig

    def parts(self) -> tuple[SandpileConfig, ...]:
        return (self.lb, self.rb, self.rt, self.lt, self.mid)


def merge(g: VicsekGraph, spec: MergeSpec) -> SandpileConfig:
    """Assemble a level-n configuration from the five copies of spec.

    Placement maps move each copy back onto the level-(n-1) square before
    looking up heights; the RB copy is composed with the quarter-turn
    (x, y) -> (y, L - x) and the LT copy with its inverse, the unique
    orientation for which no lookup ever hits a copy's sink.
    """
    if g.level < 1:
        raise ValueError("merging needs a level >= 1 target graph")
    if spec.k < 0:
        raise ValueError("the cutpoint bump k must be non-negative")
    prev = build(g.level - 1)
    want = prev.num_vertices - 1
    for part in spec.parts():
        if len(part.heights) != want:
            raise ValueError(
                f"merge parts must be level-{g.level - 1} configurations "
                f"({want} heights, got {len(part.heights)})"
            )
    L = prev.side
    c_lb, c_rb, c_rt, c_lt = (L, L), (2 * L, L), (2 * L, 2 * L), (L, 2 * L)

    def local(cfg: SandpileConfig, v: Coord) -> int:
        return int(cfg.heights[prev.vertex_index(v)])

    def rot(v: Coord) -> Coord:
        return (v[1], L - v[0])

    def rot3(v: Coord) -> Coord:
        return (L - v[1], v[0])

    heights = np.zeros(g.num_vertices - 1, dtype=np.int64)
    for vi in range(g.num_vertices - 1):
        x, y = g.vertices[vi]
        if (x, y) == c_rt:
            h = spec.k + local(spec.rt, (0, 0))
        elif (x, y) in (c_lb, c_rb, c_lt):
            h = spec.k + local(spec.mid, (x - L, y - L))
        elif x <= L and y <= L:
            h = local(spec.lb, (x, y))
        elif x >= 2 * L and y <= L:
            h = local(spec.rb, rot((x - 2 * L, y)))
        elif x >= 2 * L and y >= 2 * L:
            h = local(spec.rt, (x - 2 * L, y - 2 * L))
        elif x <= L and y >= 2 * L:
            h = local(spec.lt, rot3((x, y - 2 * L)))
        else:
            h = local(spec.mid, (x - L, y - L))
        heights[vi] = h
    return SandpileConfig(heights)


@lru_cache(maxsize=None)
def _identity_heights(level: int) -> np.ndarray:
    g = build(level)
    heights = _recurrent_representative(g, SandpileConfig.zeros(g).heights)
    heights.flags.writeable = False
    return heights


def identity(level: int) -> SandpileConfig:
    """Group identity of the level-n sandpile group: the recurrent
    configuration equivalent to the zero heights, computed once per level;
    each call returns a fresh copy."""
    _check_level(level)  # the build cap applies to cached levels too
    return SandpileConfig(_identity_heights(level))


@dataclass
class IdentityReport:
    """Outcome of the five identity checks plus the height histogram."""

    level: int
    samples: int
    clauses: dict[str, bool] = field(default_factory=dict)
    height_histogram: dict[int, int] = field(default_factory=dict)
    sink_particles_mod4: int | None = None

    def failed(self) -> list[str]:
        return [name for name, ok in self.clauses.items() if not ok]


def verify_identity(
    g: VicsekGraph, candidate: SandpileConfig, samples: int, rng
) -> IdentityReport:
    """Check the five identity clauses:

    (a) the candidate is recurrent;
    (b) it is idempotent under the group operation;
    (c) it acts neutrally on uniformly sampled recurrent configurations;
    (d) stabilizing four times a sampled recurrent configuration yields it;
    (e) stabilizing four times the candidate sends 2 mod 4 particles to the
        sink.

    Raises VerificationError naming the failed clauses; returns the report
    when everything passes.  Clauses (c) and (d) need at least one sample.
    The sums of (b), (c) and (d) are stabilized together, in stacks of a
    bounded number of heights; the module docstring says what the engine's
    results rest on.
    """
    if samples < 1:
        raise ValueError("identity verification needs at least one sample")
    rng = np.random.default_rng(rng)
    report = IdentityReport(level=g.level, samples=samples)
    report.height_histogram = dict(sorted(Counter(candidate.heights.tolist()).items()))

    report.clauses["a_recurrent"] = is_recurrent(g, candidate)
    clauses = dict.fromkeys(["b_idempotent", "c_neutral", "d_fourfold_collapse"], True)
    # each row: the clause it checks, its heights, and the result the clause wants
    def rows():
        yield "b_idempotent", candidate + candidate, candidate
        for _ in range(samples):
            eta = sample_recurrent(g, rng)
            yield "c_neutral", candidate + eta, eta
            yield "d_fourfold_collapse", eta.scaled(4), candidate

    for stack in _stacks(g, rows()):
        results = stabilize_many(g, [heights for _, heights, _ in stack])
        for (name, _, want), (out, _) in zip(stack, results):
            clauses[name] &= out == want
    report.clauses.update(clauses)

    _, rep = stabilize(g, candidate.scaled(4))
    report.sink_particles_mod4 = rep.sink_particles % 4
    report.clauses["e_sink_two_mod_four"] = report.sink_particles_mod4 == 2

    failed = report.failed()
    if failed:
        raise VerificationError(
            f"identity verification failed at level {g.level}: clauses {failed}"
        )
    return report

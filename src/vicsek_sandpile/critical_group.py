"""The sandpile group, read off the block tree.

Deleting the sink row and column of the graph Laplacian leaves a symmetric,
diagonally dominant integer matrix L whose cokernel Z^N / L Z^N is the
group of recurrent configurations under add-and-stabilize.

On a tree of K4 blocks glued at cut vertices, such as the Vicsek graph, the
group is the direct sum of the blocks' groups (Klivans, *The Mathematics of
Chip-Firing*, 2018), and the block tree gives it explicit coordinates.  For
a block B with non-root corners c1, c2, c3, let S(c) be the sum of the
heights over c and everything hanging from it, and put

    pi_B(h) = ((S(c1) - S(c3)) mod 4, (S(c2) - S(c3)) mod 4).

Firing c_i changes B's triple S by -3 at c_i and +1 at the other two,
firing B's root by (1, 1, 1), and firing any other vertex leaves it alone,
so pi_B vanishes on L Z^N.  The 16^(5^n) block-product recurrent
configurations (see ``recurrence``) take every value of the product of the
pi_B, and they are as many as the group's elements, so the product is an
isomorphism onto (Z/4)^(2*5^n).  Hence the invariant factors are the K4
block's (1, 4, 4) once per block, 5^n ones and 2*5^n fours at level n, and
the order of an element is the largest order among its coordinates.

``smith_normal_form`` stays as a general tool, and the tests use it as the
cross-check of the block decomposition.  It works by exact integer
elimination with minimal-absolute-value pivoting and the usual divisibility
repair (add an offending row into the pivot row and re-eliminate).  The
entries are Python integers in object arrays, so no intermediate can
overflow, and each row or column operation is one numpy step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fractal_graph import BlockTree, Coord, VicsekGraph, _check_level, build
from .recurrence import is_recurrent, sample_recurrent
from .sandpile import (
    SandpileConfig,
    _check_config,
    _k4_class,
    _stacks,
    add_particles,
    stabilize_many,
)


class SingularMatrixError(ArithmeticError):
    """A matrix or linear system is singular (rank deficient)."""


def reduced_laplacian(g: BlockTree) -> np.ndarray:
    """Graph Laplacian with the sink row and column removed, dense, built
    from the graph's flat neighbour arrays (no edge is listed twice)."""
    n = g.num_vertices - 1
    rows = np.repeat(np.arange(n + 1), g.degrees)
    inside = (rows < n) & (g.nbr_indices < n)
    out = np.diag(g.degrees[:-1])
    out[rows[inside], g.nbr_indices[inside]] -= 1
    return out


def _snf_diagonal(mat: np.ndarray) -> list[int]:
    """Diagonalize by unimodular row/column operations; returns the diagonal
    in divisibility order.  The entries are Python integers (object dtype)."""
    A = mat.copy()
    n, m = A.shape
    diag: list[int] = []
    for t in range(min(n, m)):
        sub = A[t:, t:]
        while True:
            nonzero = np.nonzero(sub)
            if len(nonzero[0]) == 0:
                raise SingularMatrixError("matrix is rank deficient")
            absvals = abs(sub[nonzero])
            k = int(np.argmin(absvals))
            pi, pj = int(nonzero[0][k]) + t, int(nonzero[1][k]) + t
            if pi != t:
                A[[t, pi], :] = A[[pi, t], :]
            if pj != t:
                A[:, [t, pj]] = A[:, [pj, t]]
            pivot = A[t, t]
            if pivot < 0:
                A[t, :] = -A[t, :]
                pivot = A[t, t]
            col = A[t + 1 :, t]
            rows = np.nonzero(col)[0]
            if len(rows):
                q = col[rows] // pivot
                A[t + 1 :, :][rows] -= np.outer(q, A[t, :])
            row = A[t, t + 1 :]
            cols = np.nonzero(row)[0]
            if len(cols):
                q = row[cols] // pivot
                A[:, t + 1 :][:, cols] -= np.outer(A[:, t], q)
            if np.any(A[t + 1 :, t]) or np.any(A[t, t + 1 :]):
                continue  # remainders left behind; re-pivot on a smaller entry
            rem = A[t + 1 :, t + 1 :] % pivot
            bad = np.nonzero(rem)
            if len(bad[0]) == 0:
                break
            # fold a non-divisible row into the pivot row and start over
            A[t, :] += A[t + 1 + int(bad[0][0]), :]
        diag.append(int(A[t, t]))
    return diag


@dataclass(frozen=True)
class InvariantFactors:
    """Non-decreasing divisibility chain d1 | d2 | ... | dr, units included."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if any(d <= 0 for d in self.factors):
            raise ValueError("invariant factors must be positive")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError(f"broken divisibility chain: {a} does not divide {b}")

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)

    def product(self) -> int:
        out = 1
        for d in self.factors:
            out *= d
        return out

    def nonunit(self) -> tuple[int, ...]:
        return tuple(d for d in self.factors if d != 1)


def smith_normal_form(mat) -> InvariantFactors:
    """Invariant factors of a square non-singular integer matrix."""
    A = np.asarray(mat)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    if A.dtype.kind not in "iuO":
        raise ValueError("matrix entries must be integers")
    return InvariantFactors(tuple(_snf_diagonal(np.frompyfunc(int, 1, 1)(A))))


def group_structure(level: int) -> InvariantFactors:
    """Invariant factors of the sandpile group at the given level: the K4
    block's, once for each of the 5^level blocks (see the module docstring).
    Every level the build cap accepts works, and no level graph is built."""
    _check_level(level)
    block = smith_normal_form(reduced_laplacian(build(0))).factors
    return InvariantFactors(tuple(sorted(block * 5**level)))


def order2_count(level: int) -> int:
    """Number of group elements killed by doubling, from the invariant
    factors: the product of gcd(d, 2) over the factor list."""
    out = 1
    for d in group_structure(level):
        out *= 2 if d % 2 == 0 else 1
    return out


def group_coordinates(g: BlockTree, c: SandpileConfig) -> np.ndarray:
    """The coordinates of c's class in (Z/4)^(2 * blocks), one row pi_B per
    block, row-aligned with ``g.blocks`` (see the module docstring).  Two
    configurations are equivalent exactly when their coordinates agree; the
    heights may be any integers.  The subtree sums S are differences of one
    prefix sum over the preorder of ``g.vertex_tree``."""
    _check_config(g, c)
    tree = g.vertex_tree
    prefix = np.zeros(len(c.heights) + 1, dtype=np.int64)
    np.cumsum((c.heights % 4)[tree.order], out=prefix[1:])  # mod 4 keeps it small
    subtree = np.empty_like(prefix[1:])
    subtree[tree.order] = prefix[tree.stop] - prefix[:-1]
    return np.stack(_k4_class(subtree[g.block_corners]), axis=1)


def element_order(g: BlockTree, eta: SandpileConfig) -> int:
    """Order of a recurrent configuration in the sandpile group: the largest
    order of its group coordinates in Z/4, so 1, 2 or 4."""
    if not is_recurrent(g, eta):
        raise ValueError("element order is defined for recurrent configurations")
    pi = group_coordinates(g, eta)
    if not pi.any():
        return 1
    return 4 if np.any(pi % 2) else 2


@dataclass
class SinkHitEstimate:
    """Empirical probability that k added particles push mass into the sink."""

    x: Coord
    k: int
    samples: int
    hits: int
    estimate: float
    stderr: float


def sink_hit_probability(
    g: VicsekGraph, x: Coord, k: int, samples: int, rng
) -> SinkHitEstimate:
    """Sample uniform recurrent configurations, add k particles at x, and
    record how often stabilization delivers at least one particle to the
    sink.  With k = 4 this happens every time, because four particles at any
    vertex act as the group identity and their stabilization sweeps the whole
    graph.  The samples are stabilized together, in stacks of a bounded
    number of heights."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if x == g.sink:
        raise ValueError("x must differ from the sink")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(rng)
    rows = (add_particles(g, sample_recurrent(g, rng), x, k) for _ in range(samples))
    hits = 0
    for stack in _stacks(g, rows):
        hits += sum(report.sink_particles >= 1 for _, report in stabilize_many(g, stack))
    p = hits / samples
    stderr = float(np.sqrt(max(p * (1 - p), 1e-300) / samples))
    return SinkHitEstimate(
        x=x, k=k, samples=samples, hits=hits, estimate=p, stderr=stderr
    )

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
from .recurrence import _block_picks, is_recurrent
from .sandpile import _K4_WALK, SandpileConfig, _check_config, _k4_class


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


def _geodesic_walk(g: VicsekGraph, x: Coord) -> tuple[np.ndarray, list]:
    """The blocks of x's geodesic, and their ``_K4_WALK`` rows by entry slot."""
    blocks, entry = np.divmod(g.path_to_sink(g.vertex_index(x)), 3)
    walk = _K4_WALK.tolist()
    return blocks, [walk[e] for e in entry.tolist()]


def _sink_count(steps: list, picks: list, k: int) -> int:
    """a_d for k particles at x, given ``_geodesic_walk`` rows and the
    blocks' picks (see ``sink_hit_probability``)."""
    a = k
    for walk, p in zip(steps, picks):
        r = a & 3
        a += walk[p][r] - r
        if a <= 0:
            if a < 0:
                raise RuntimeError("a geodesic block passed on a negative carry")
            break  # a block that receives nothing passes nothing on
    return a


def sink_hit_probability(
    g: VicsekGraph, x: Coord, k: int, samples: int, rng
) -> SinkHitEstimate:
    """Sample uniform recurrent configurations eta, add k particles at x, and
    record how often stabilization delivers at least one particle to the
    sink; for k >= 4 always, as four particles at a vertex act as the group
    identity.

    Nothing is stabilized.  Let B_1 .. B_d be the blocks holding x and its
    ancestors as non-root corners, B_i entered at slot e_i and holding q_i.
    From a_0 = k, B_i passes a_i = a_(i-1) + |q_i| - |t_i| on, t_i the
    recurrent triple of q_i + (a_(i-1) mod 4) e_(e_i) (``_K4_WALK``; 4 Z^3
    lies in the K4 lattice).  The sink gets a_d particles:

    - eta + k delta_x, recurrent plus particles, stabilizes to the recurrent
      member r of its class and sends |eta| + k - |r| to the sink.
    - Adding k delta_x changes subtree sums only at x and its ancestors, so
      only the B_i change class (``group_coordinates``).  In the exact-carry
      representative sweep every other block keeps its triple and passes
      nothing, so B_i gets a_(i-1) at e_i, becomes t_i and passes a_i:
      |eta| + k - |r| = k + sum(|q_i| - |t_i|) = a_d.
    - a_i >= 0: B_i alone, its root the sink, stabilizes q_i plus a_(i-1)
      particles to t_i and sends a_i on.  A negative carry raises
      ``RuntimeError``.

    Picks are drawn per sample as ``sample_recurrent`` draws them, so a seed
    gives the hits of stabilizing those samples."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if x == g.sink:
        raise ValueError("x must differ from the sink")
    if samples < 1:
        raise ValueError("need at least one sample")
    blocks, steps = _geodesic_walk(g, x)
    rng = np.random.default_rng(rng)
    hits = sum(
        _sink_count(steps, _block_picks(g, rng)[blocks].tolist(), k) >= 1 for _ in range(samples)
    )
    p = hits / samples
    stderr = float(np.sqrt(max(p * (1 - p), 1e-300) / samples))
    return SinkHitEstimate(
        x=x, k=k, samples=samples, hits=hits, estimate=p, stderr=stderr
    )

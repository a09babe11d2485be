"""Sandpile configurations, toppling, stabilization, and the group operation.

A configuration assigns a non-negative height to every non-sink vertex
(canonical index order; the sink is always the last vertex and carries no
height).  A vertex v is unstable when its height reaches deg(v); toppling
sends one particle to each neighbor, with particles arriving at the sink
leaving the system.  Stabilization performs legal topplings until no vertex
is unstable; by the Abelian property the result and the per-vertex topple
counts (the odometer) do not depend on the order.

The engine takes any tree of K4 blocks glued at cut vertices whose last
vertex is the sink (``fractal_graph.BlockTree``): a Vicsek graph, or one of
the diagonal chain's nested volumes, which ``boundary_flow`` stabilizes one
after another.  ``_stabilize_rows``, on a stack of height rows, is the
package's only toppling loop; ``stabilize_many`` and ``stabilize`` wrap it.

The stabilizer reads the result off the block tree first.  The sandpile
group is the direct sum of the K4 blocks' groups, so a leaves-first sweep
that fires whole subtrees finds the one recurrent configuration r equivalent
to the heights h.  The sweep needs each height only mod 4, and it runs
depth by depth on a depth-major numbering of the vertices in which each
depth's block roots are one slice, so a depth costs five numpy steps for a
whole stack of rows.  Eliminating the blocks leaves-first gives
u = L^-1 (h - r) exactly in int64 for the reduced Laplacian L, from prefix
sums over a preorder of the block tree.  If u >= 0, r and u are the stable
result and the odometer (proof in ``_stabilize_rows``); that is so exactly
when the result is recurrent, as for a recurrent configuration plus
particles, sums of recurrent configurations and multiples of them.  The
solve is skipped when sum(h) < sum(r), because the sink cannot give
particles back.

A row that is not read off runs the rounds from its own heights, firing
all currently unstable vertices at once, each floor(height/deg) times;
every one of those topplings is legal, so the schedule is just one
particular legal order, chosen because it vectorizes well.  Its result is
not recurrent, so some vertex never topples: were every vertex to topple,
the member of any set F whose last toppling comes first would gain a
particle from each of its neighbours in F afterwards, and F would not be
forbidden.  Each round is one scipy sparse product with the adjacency, the
only step of a stabilization that needs scipy, so a result read off the
block tree never imports it.  The plain rounds, randomized legal orders,
the rounds from an exact rational least-action bound and the
representative sweep on exact sums live in the test suite as the
references the engine is checked against.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property, lru_cache
from itertools import islice, product

import numpy as np

from .fractal_graph import BlockTree, Coord, VicsekGraph

_OVERFLOW_LIMIT = np.int64(2) ** 40
# _stacks hands the engine at most this many heights per call: enough
# rows to share each numpy step at small levels, while the engine's arrays
# stay a few megabytes each at the largest, whatever the sample count.
_STACK_HEIGHTS = 2**18

# The 16 recurrent configurations of K4 with one corner as the sink, as
# triples in product order.  A stable triple is recurrent exactly when no
# set F of its vertices has every height below deg_F = |F| - 1 (Dhar's
# forbidden subconfigurations), that is when its sorted heights are at
# least (0, 1, 2).  The sandpile samplers draw from this table.
_K4_RECURRENT = np.array(
    [t for t in product(range(3), repeat=3) if all(h >= i for i, h in enumerate(sorted(t)))],
    dtype=np.int64,
)
_K4_RECURRENT.flags.writeable = False


def _k4_class(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class of K4 triples q (rows) modulo (4I - J) Z^3 = 4 Z^3 + Z 1,
    a lattice of index 16: the differences to the last entry mod 4."""
    return (q[..., 0] - q[..., 2]) % 4, (q[..., 1] - q[..., 2]) % 4


# _K4_BY_CLASS[_k4_class(q)] is the recurrent triple equivalent to q
_K4_BY_CLASS = np.empty((4, 4, 3), dtype=np.int64)
_K4_BY_CLASS[_k4_class(_K4_RECURRENT)] = _K4_RECURRENT
# The same law by residue code 16 q0 + 4 q1 + q2 (each q mod 4), for the
# representative sweep: the recurrent triple t of the code's class, and the
# carry sum(q - t) its block passes to the root.
_CODE_WEIGHTS = np.array([16, 4, 1], dtype=np.int64)
_RESIDUES = np.arange(64)[:, None] // _CODE_WEIGHTS % 4
_K4_BY_CODE = _K4_BY_CLASS[_k4_class(_RESIDUES)]
_K4_CARRY = (_RESIDUES - _K4_BY_CODE).sum(axis=1)
# _K4_WALK[e, p, r] = r + |q| - |t|: what a block holding q = _K4_RECURRENT[p]
# passes to its root when r enter at slot e, t the recurrent triple of q + r e_e.
_ENTERING = _K4_RECURRENT[:, None] + np.arange(4)[:, None] * np.eye(3, dtype=np.int64)[:, None, None]
_K4_WALK = _ENTERING.sum(axis=-1) - _K4_BY_CLASS[_k4_class(_ENTERING)].sum(axis=-1)
_K4_WALK.flags.writeable = False


class SandpileConfig:
    """Dense height vector over the non-sink vertices of a fixed-level graph.

    Heights are machine integers; ordinary sandpiles are non-negative, but
    explicitly requested illegal topplings may drive a height negative.
    """

    __slots__ = ("heights",)

    def __init__(self, heights):
        self.heights = np.asarray(heights, dtype=np.int64).copy()
        if self.heights.ndim != 1:
            raise ValueError("heights must be a one-dimensional array")

    @classmethod
    def zeros(cls, g: BlockTree) -> "SandpileConfig":
        return cls(np.zeros(g.num_vertices - 1, dtype=np.int64))

    @classmethod
    def constant(cls, g: BlockTree, h: int) -> "SandpileConfig":
        return cls(np.full(g.num_vertices - 1, h, dtype=np.int64))

    def copy(self) -> "SandpileConfig":
        return SandpileConfig(self.heights)

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(int(h) for h in self.heights)

    def total_mass(self) -> int:
        return int(self.heights.sum())

    def __len__(self) -> int:
        return len(self.heights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SandpileConfig):
            return NotImplemented
        return np.array_equal(self.heights, other.heights)

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"SandpileConfig({self.heights.tolist()})"

    def __add__(self, other: "SandpileConfig") -> "SandpileConfig":
        return SandpileConfig(self.heights + other.heights)

    def scaled(self, k: int) -> "SandpileConfig":
        return SandpileConfig(self.heights * k)


class AvalancheReport:
    """Accounting for one stabilization: odometer, toppled set, diameter,
    the number of particles delivered to the sink, the number of toppling
    rounds the engine ran, and whether the result was read off the block
    tree (then with 0 rounds).

    The diameter (largest pairwise graph distance over the toppled set) is
    computed on first access: -1 for an empty toppled set, 0 for a single
    vertex.
    """

    def __init__(
        self, graph: BlockTree, odometer: np.ndarray, sink_particles: int, rounds: int = 0,
        read_off: bool = False,
    ):
        self.graph = graph
        self.odometer = odometer
        self.sink_particles = int(sink_particles)
        self.rounds = rounds
        self.read_off = read_off

    @cached_property
    def toppled_indices(self) -> np.ndarray:
        return np.nonzero(self.odometer > 0)[0]

    @property
    def toppled_set(self) -> frozenset[Coord]:
        return frozenset(self.graph.vertices[i] for i in self.toppled_indices)

    @cached_property
    def diameter(self) -> int:
        idx = self.toppled_indices
        if len(idx) == 0:
            return -1
        # a double sweep is exact, as block graphs are 0-hyperbolic (Howorka,
        # 1979): the member farthest from any member ends a diameter
        far = idx[self.graph.distances_from(idx[0])[idx].argmax()]
        return int(self.graph.distances_from(far)[idx].max())

    def __repr__(self) -> str:
        return (
            f"AvalancheReport(toppled={len(self.toppled_indices)}, "
            f"sink_particles={self.sink_particles})"
        )


def _check_config(g: BlockTree, c: SandpileConfig) -> None:
    if len(c.heights) != g.num_vertices - 1:
        raise ValueError(
            f"configuration has {len(c.heights)} heights, "
            f"the graph needs {g.num_vertices - 1}"
        )


def is_stable(g: BlockTree, c: SandpileConfig) -> bool:
    _check_config(g, c)
    return bool(np.all(c.heights < g.degrees[: len(c.heights)]))


def _nonsink_index(g: VicsekGraph, v: Coord, action: str) -> int:
    vi = g.vertex_index(v)
    if vi == g.sink_index:
        raise ValueError(f"cannot {action} the sink")
    return vi


def _fire(g: VicsekGraph, c: SandpileConfig, v: Coord, sign: int, action: str) -> SandpileConfig:
    """Fire v once (sign 1) or take one firing back (sign -1), legal or not."""
    _check_config(g, c)
    vi = _nonsink_index(g, v, action)
    out = c.heights.copy()
    out[vi] -= sign * g.degrees[vi]
    nbrs = g.nbr_indices[g.indptr[vi] : g.indptr[vi + 1]]
    out[nbrs[nbrs != g.sink_index]] += sign
    return SandpileConfig(out)


def topple(g: VicsekGraph, c: SandpileConfig, v: Coord) -> SandpileConfig:
    """Topple at v unconditionally (illegal topplings are permitted)."""
    return _fire(g, c, v, 1, "topple")


def untopple(g: VicsekGraph, c: SandpileConfig, v: Coord) -> SandpileConfig:
    """Inverse of topple: every neighbor returns one particle to v."""
    return _fire(g, c, v, -1, "untopple")


def _solve_times_four(g: BlockTree, b: np.ndarray) -> np.ndarray:
    """4 L^-1 b for an integer vector b and the reduced Laplacian L, exactly,
    from prefix sums over the preorder of the vertex tree.

    Eliminate the blocks leaves-first.  By induction, once the blocks below
    a block are eliminated, the equations at its three non-root corners c
    read M z_c = b'_c + z_root with M = 4I - J, where b'_c sums b over the
    subtree hanging from c, c included.  M 1 = 1, so z_c = z_root + M^-1 b'_c:
    put into the root's equation, the block adds nothing to the root's
    diagonal and the sum of its b' to the right-hand side, which keeps the
    form one level up.  M^-1 = (I + J) / 4, so
    4 z_c = 4 z_root + b'_c + (sum of b' over the block), with z = 0 at the
    sink.  Hence 4z is an integer vector, and as the subtrees are disjoint,
    |4z| <= 2 * depth * sum(|b|).

    So 4 z_c sums w_a = b'_a + (sum of b' over a's block) over c and every
    vertex between c and the sink.  In the preorder of ``g.vertex_tree``
    both terms of w are differences of one prefix sum of b, and the vertices
    between position p and the sink are the positions a <= p whose subtree
    has not closed by p: 4z at p is the prefix sum of w up to p less the
    prefix sum of w, taken in ``by_stop`` order, over the ``closed[p]``
    subtrees that have.  Every partial sum is a partial sum of b or a sum
    of w over a set of positions, and sum(|w|) <= 4 * depth * sum(|b|), as
    each vertex lies in at most depth subtrees and each block's sum is
    counted at its three corners.  A stack of b, one per row, is solved
    together, vertex by vertex down the first axis of its transpose.
    """
    tree = g.vertex_tree
    b = b.T
    prefix = np.zeros((len(b) + 1,) + b.shape[1:], dtype=np.int64)
    np.cumsum(b.take(tree.order, axis=0), axis=0, out=prefix[1:])
    w = prefix.take(tree.stop, axis=0) - prefix[:-1]
    w += prefix.take(tree.block_stop, axis=0) - prefix.take(tree.block_start, axis=0)
    closed = np.zeros_like(prefix)
    np.cumsum(w.take(tree.by_stop, axis=0), axis=0, out=closed[1:])
    z4 = np.empty_like(w)
    z4[tree.order] = np.cumsum(w, axis=0) - closed.take(tree.closed, axis=0)
    return z4.T


def _glue(g: BlockTree) -> np.ndarray:
    """The 3 particles a recurrent configuration carries at every non-sink
    block root on top of its blocks' recurrent K4 triples, per non-sink
    vertex.  A non-sink vertex lies in one block as a non-root corner and,
    when it is a cut vertex, in one more as its root, so this is deg - 3."""
    return g.degrees[:-1] - 3


def _recurrent_representative(g: BlockTree, heights: np.ndarray) -> np.ndarray:
    """The recurrent configuration r equivalent to heights modulo L Z^n, in
    one leaves-first sweep over the block tree.

    Firing a corner c of a block together with everything hanging from it
    moves mass only inside the block: c loses 3 and the block's other three
    vertices gain 1 each.  So a block's three non-root corners can move
    their local triple q by any vector of (4I - J) Z^3, passing the change
    in its total on to the root.  Per block, deepest first, q is the heights
    at the corners, as updated from below, less the 3 that every non-sink
    root carries in a recurrent configuration; it is replaced by the
    recurrent triple t of its class.  The result is a recurrent K4 triple on
    every block plus 3 at every non-sink root, which is recurrent (see
    ``recurrence``).

    Only residues mod 4 matter: a block's class depends on q mod 4, and so
    does its carry sum(q - t) mod 4, which is all the root's own class will
    read.  So the sweep keeps any state congruent to the heights mod 4 and
    reads q & 3, which is q mod 4 on int64, negative values included.  It
    runs on ``g.sweep_layout``, a stack of rows at a time: per depth it
    gathers the corners, codes their residues 16 q0 + 4 q1 + q2 and adds
    each block's carry to its root, the roots of one depth being one slice.
    The triples come from one lookup of all the codes at the end.
    """
    sweep = g.sweep_layout
    glue = _glue(g)
    rows = heights.reshape(-1, len(glue))
    local = np.empty((len(rows), len(sweep.order)), dtype=np.int64)
    local[:, :-1] = rows.take(sweep.order[:-1], axis=1)
    # the non-sink roots, which carry the glue, sit just before the sink
    start = len(sweep.order) - len(sweep.corners)
    local[:, start:-1] -= 3
    codes = np.empty((len(rows), len(sweep.corners)), dtype=np.int64)
    bounds = sweep.offsets.tolist()
    for a, b in zip(bounds, bounds[1:]):
        q = local.take(sweep.corners[a:b], axis=1)
        q &= 3
        code = np.matmul(q, _CODE_WEIGHTS, out=codes[:, a:b])
        local[:, start + a : start + b] += _K4_CARRY.take(code)
    triples = _K4_BY_CODE.take(codes, axis=0).reshape(len(rows), -1)
    return (triples.take(sweep.slot, axis=1) + glue).reshape(heights.shape)


def _stacks(g: BlockTree, rows: Iterable) -> Iterator[list]:
    """Rows, one per configuration on g, in order and in lists of at most
    ``_STACK_HEIGHTS`` heights (one row at least), each drawn when asked for."""
    rows, per_stack = iter(rows), max(1, _STACK_HEIGHTS // (g.num_vertices - 1))
    while stack := list(islice(rows, per_stack)):
        yield stack


def stabilize(g: BlockTree, c: SandpileConfig) -> tuple[SandpileConfig, AvalancheReport]:
    """Perform legal topplings until stable; returns the stable configuration
    and the avalanche report.  ``stabilize_many`` with one row."""
    return stabilize_many(g, [c])[0]


def stabilize_many(
    g: BlockTree, configs: list[SandpileConfig]
) -> list[tuple[SandpileConfig, AvalancheReport]]:
    """Stabilize each configuration of a stack, as ``stabilize`` does one:
    the stable configuration and the avalanche report per row, in order."""
    for c in configs:
        _check_config(g, c)
    return [
        (SandpileConfig(h), AvalancheReport(g, o, s, int(r), bool(t)))
        for h, o, s, r, t in zip(*_stabilize_rows(g, [c.heights for c in configs]))
    ]


def _stabilize_rows(g: BlockTree, heights) -> tuple[np.ndarray, ...]:
    """Per row of a stack of heights: stable heights, odometer, sink
    particles, rounds and whether it was read off.  Rows never interact;
    the stack shares the numpy steps of the read-off and of the rounds.
    Terminates on any finite graph with a sink.

    A stable row is its own result, with a zero odometer.  Otherwise the
    heights h are first compared with their recurrent representative r:
    u = L^-1 (h - r) is an integer vector, and if u >= 0 then r is the stable
    result and u the odometer.  Proof: r = h - L u is stable, so by the least
    action principle the odometer o is at most u.  Then w = u - o >= 0 and
    the stable result is s = r + L w.  If w != 0, let F be the set where w
    is largest.  For v in F, every neighbour outside F (the sink, where
    w = 0, included) has smaller w, so (L w)_v >= deg v - deg_F v and
    r_v = s_v - (L w)_v <= deg_F v - 1: F would be a forbidden
    subconfiguration (Dhar) of the recurrent r.  Hence o = u and s = r.
    Conversely a recurrent result equals r, the one recurrent configuration
    of its class, and then o = u >= 0; so this path is taken exactly when
    the result is recurrent, and the row is flagged read off.  The
    particles it sends to the sink, sum(h) - sum(r), are a count, so the
    solve is skipped when sum(h) < sum(r).  It needs heights of at least
    -2^40: with a positive mass of at most 2^40 and sum(h - r) >= 0,
    sum(|h - r|) <= 2 * 2^40, so |4u| <= depth * 2^42 and every partial sum
    of the solve, at most depth * 2^43, fit in int64 (see
    _solve_times_four).

    Otherwise the row runs the rounds from its own heights, together with
    the other rows left to them; a row's rounds are the ones in which it
    fired.
    """
    deg = g.degrees[:-1]
    heights = np.array(heights, dtype=np.int64).reshape(-1, len(deg))
    # total mass is conserved, so no height can ever exceed the initial sum
    if (np.maximum(heights, 0).sum(axis=1) > _OVERFLOW_LIMIT).any():
        raise OverflowError("sandpile mass exceeds the engine limit")
    mass = heights.sum(axis=1)
    odometer = np.zeros_like(heights)
    rounds = np.zeros(len(heights), dtype=np.int64)
    read_off = np.zeros(len(heights), dtype=bool)
    rows = (heights >= deg).any(axis=1).nonzero()[0]
    solve = rows[heights[rows].min(axis=1) >= -_OVERFLOW_LIMIT]
    if len(solve):
        recurrent = _recurrent_representative(g, heights[solve])
        keep = mass[solve] >= recurrent.sum(axis=1)
        solve, recurrent = solve[keep], recurrent[keep]
        u4 = _solve_times_four(g, heights[solve] - recurrent)
        if (u4 & 3).any():
            raise RuntimeError("the recurrent representative is not equivalent to the heights")
        keep = u4.min(axis=1) >= 0
        solve = solve[keep]
        heights[solve], odometer[solve], read_off[solve] = recurrent[keep], u4[keep] >> 2, True
        rows = rows[~read_off[rows]]
    if len(rows):
        live, fired, count = heights[rows], odometer[rows], rounds[rows]
        while True:
            fire = live // deg
            np.maximum(fire, 0, out=fire)
            firing = fire.any(axis=1)
            if not firing.any():
                break
            live -= fire * deg
            live += (g.nonsink_adjacency @ fire.T).T
            fired += fire
            count += firing
        heights[rows], odometer[rows], rounds[rows] = live, fired, count
    sink_particles = odometer @ g.sink_degrees
    if (mass != heights.sum(axis=1) + sink_particles).any():
        raise RuntimeError("stabilization lost mass: what left the heights missed the sink")
    return heights, odometer, sink_particles, rounds, read_off


def add_particles(g: VicsekGraph, c: SandpileConfig, v: Coord, k: int) -> SandpileConfig:
    _check_config(g, c)
    if k < 0:
        raise ValueError("particle count must be non-negative")
    vi = _nonsink_index(g, v, "place particles on")
    out = c.heights.copy()
    out[vi] += k
    return SandpileConfig(out)


def group_add(g: BlockTree, a: SandpileConfig, b: SandpileConfig) -> SandpileConfig:
    """Pointwise addition followed by stabilization (the group operation on
    recurrent configurations)."""
    stable, _ = stabilize(g, a + b)
    return stable


@lru_cache(maxsize=None)
def _chain_volume(i: int) -> BlockTree:
    """Volume i of the diagonal chain as a block tree: blocks K^1..K^i, with
    block j + 1 on rows (3j, 3j + 1, 3j + 2, 3j + 3) for the corners
    (j, j), (j, j + 1), (j + 1, j), (j + 1, j + 1), and (i, i), at 3i, as
    the sink."""
    return BlockTree(3 * np.arange(i)[:, None] + np.arange(4))


def boundary_flow(
    g: VicsekGraph, c: SandpileConfig, checkpoints: list[Coord]
) -> list[int]:
    """Stabilize c in nested volumes along the diagonal chain and report the
    particle count arriving at each requested checkpoint (i, i).

    Volume i is K^1 u ... u K^i with (i, i) acting as its sink, and X_i is
    the number of particles arriving at (i, i) while volume i stabilizes.
    Each volume is stabilized with ``stabilize`` on its block tree, from the
    stable volume i - 1 with the X_{i-1} particles added at (i - 1, i - 1)
    and block i's heights; by the Abelian property this gives the same
    counts as stabilizing each volume from scratch.  Unlike the Monte Carlo
    walk in ``chain``, this takes any heights on the chain, whose volumes
    need not end recurrent.

    The configuration must be supported on the diagonal chain (mass beyond
    the last checkpoint is legal but stays frozen and cannot influence the
    reported counts); heights at interior chain cutpoints are expected to
    carry the +3 gluing convention used when assembling per-block samples.
    """
    _check_config(g, c)
    if not checkpoints:
        return []
    ids = []
    for v in checkpoints:
        g.vertex_index(v)
        x, y = v
        if x != y or x < 1:
            raise ValueError(f"checkpoint {v} is not a diagonal vertex (i,i), i >= 1")
        ids.append(x)
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise ValueError("checkpoints must be strictly ascending along the diagonal")
    m = ids[-1]

    heights = np.zeros(3 * m + 1, dtype=np.int64)
    for vi in np.flatnonzero(c.heights):
        x, y = g.vertices[vi]
        if abs(x - y) > 1:
            raise ValueError(f"configuration has mass at {(x, y)}, off the diagonal chain")
        # (x, x) has chain id 3x, (x, x + 1) has 3x + 1 and (x + 1, x) has 3x + 2
        cid = 3 * min(x, y) + (y - x) % 3
        if cid < 3 * m:
            heights[cid] = c.heights[vi]
    counts = []
    for i in range(1, m + 1):
        stable, report = stabilize(_chain_volume(i), SandpileConfig(heights[: 3 * i]))
        heights[: 3 * i] = stable.heights
        heights[3 * i] += report.sink_particles
        counts.append(report.sink_particles)
    return [counts[i - 1] for i in ids]

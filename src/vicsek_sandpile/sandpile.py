"""Sandpile configurations, toppling, stabilization, and the group operation.

A configuration assigns a non-negative height to every non-sink vertex
(canonical index order; the sink is always the last vertex and carries no
height).  A vertex v is unstable when its height reaches deg(v); toppling
sends one particle to each neighbor, with particles arriving at the sink
leaving the system.  Stabilization performs legal topplings until no vertex
is unstable; by the Abelian property the result and the per-vertex topple
counts (the odometer) do not depend on the order.

The stabilizer here fires all currently unstable vertices in rounds, firing
each vertex floor(height/deg) times at once; every one of those topplings is
legal, so the schedule is just one particular legal order, chosen because it
vectorizes well.  A randomized single-toppling reference implementation in
the test suite checks order independence.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .fractal_graph import Coord, VicsekGraph

_OVERFLOW_LIMIT = np.int64(2) ** 40


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
    def zeros(cls, g: VicsekGraph) -> "SandpileConfig":
        return cls(np.zeros(g.num_vertices - 1, dtype=np.int64))

    @classmethod
    def constant(cls, g: VicsekGraph, h: int) -> "SandpileConfig":
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
    and the number of particles delivered to the sink.

    The diameter (largest pairwise graph distance over the toppled set) is
    computed on first access: -1 for an empty toppled set, 0 for a single
    vertex.
    """

    def __init__(self, graph: VicsekGraph, odometer: np.ndarray, sink_particles: int):
        self.graph = graph
        self.odometer = odometer
        self.sink_particles = int(sink_particles)

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
        if len(idx) == 1:
            return 0
        best = 0
        for i in idx:
            dist = self.graph.distances_from(int(i))
            best = max(best, int(dist[idx].max()))
        return best

    def __repr__(self) -> str:
        return (
            f"AvalancheReport(toppled={len(self.toppled_indices)}, "
            f"sink_particles={self.sink_particles})"
        )


def _check_config(g: VicsekGraph, c: SandpileConfig) -> None:
    if len(c.heights) != g.num_vertices - 1:
        raise ValueError(
            f"configuration has {len(c.heights)} heights, "
            f"level-{g.level} graph needs {g.num_vertices - 1}"
        )


def is_stable(g: VicsekGraph, c: SandpileConfig) -> bool:
    _check_config(g, c)
    return bool(np.all(c.heights < g.degrees[: len(c.heights)]))


def topple(g: VicsekGraph, c: SandpileConfig, v: Coord) -> SandpileConfig:
    """Topple at v unconditionally (illegal topplings are permitted)."""
    _check_config(g, c)
    vi = g.vertex_index(v)
    if vi == g.sink_index:
        raise ValueError("cannot topple the sink")
    out = c.heights.copy()
    out[vi] -= g.degrees[vi]
    for w in g.neighbors[vi]:
        if w != g.sink_index:
            out[w] += 1
    return SandpileConfig(out)


def untopple(g: VicsekGraph, c: SandpileConfig, v: Coord) -> SandpileConfig:
    """Inverse of topple: every neighbor returns one particle to v."""
    _check_config(g, c)
    vi = g.vertex_index(v)
    if vi == g.sink_index:
        raise ValueError("cannot untopple the sink")
    out = c.heights.copy()
    out[vi] += g.degrees[vi]
    for w in g.neighbors[vi]:
        if w != g.sink_index:
            out[w] -= 1
    return SandpileConfig(out)


def is_legal_topple(g: VicsekGraph, c: SandpileConfig, v: Coord) -> bool:
    vi = g.vertex_index(v)
    return vi != g.sink_index and c.heights[vi] >= g.degrees[vi]


def stabilize(g: VicsekGraph, c: SandpileConfig) -> tuple[SandpileConfig, AvalancheReport]:
    """Perform legal topplings until stable; returns the stable configuration
    and the avalanche report.  Terminates on any finite graph with a sink."""
    _check_config(g, c)
    deg, adj = g.degrees[:-1], g.nonsink_adjacency
    heights = c.heights.copy()
    # total mass is conserved, so no height can ever exceed the initial sum
    if heights[heights > 0].sum() > _OVERFLOW_LIMIT:
        raise OverflowError("sandpile mass exceeds the engine limit")
    odometer = np.zeros_like(heights)
    while True:
        fire = heights // deg
        np.maximum(fire, 0, out=fire)
        if not fire.any():
            break
        heights -= fire * deg
        heights += adj.dot(fire)
        odometer += fire
    sink_particles = int(g.sink_degrees @ odometer)
    if c.heights.sum() != heights.sum() + sink_particles:
        raise RuntimeError("stabilization lost mass: what left the heights missed the sink")
    return SandpileConfig(heights), AvalancheReport(g, odometer, sink_particles)


def add_particles(g: VicsekGraph, c: SandpileConfig, v: Coord, k: int) -> SandpileConfig:
    if k < 0:
        raise ValueError("particle count must be non-negative")
    vi = g.vertex_index(v)
    if vi == g.sink_index:
        raise ValueError("cannot place particles on the sink")
    out = c.heights.copy()
    out[vi] += k
    return SandpileConfig(out)


def group_add(g: VicsekGraph, a: SandpileConfig, b: SandpileConfig) -> SandpileConfig:
    """Pointwise addition followed by stabilization (the group operation on
    recurrent configurations)."""
    stable, _ = stabilize(g, a + b)
    return stable


# ---------------------------------------------------------------------------
# Nested-volume flow along the diagonal chain.
#
# The chain of blocks K^1..K^m is stabilized in growing volumes: volume i is
# K^1 u ... u K^i with the vertex (i,i) acting as sink.  The number of
# particles arriving at (i,i) while stabilizing volume i is the observable
# X_i; by the Abelian property the incremental procedure below (extend the
# volume, unfreeze the previous sink, continue toppling) produces exactly the
# same counts as stabilizing each volume from scratch.
# ---------------------------------------------------------------------------


class _ChainTopology:
    """Vertex ids for the diagonal chain: block j (1-based) has bottom-left
    3(j-1), top-left 3(j-1)+1, bottom-right 3(j-1)+2 and top-right 3j."""

    def __init__(self, m: int):
        self.m = m
        n = 3 * m + 1
        self.neighbors: list[list[int]] = [[] for _ in range(n)]
        for j in range(m):
            block = (3 * j, 3 * j + 1, 3 * j + 2, 3 * j + 3)
            for a in range(4):
                for b in range(a + 1, 4):
                    self.neighbors[block[a]].append(block[b])
                    self.neighbors[block[b]].append(block[a])
        self.degree = [len(lst) for lst in self.neighbors]

    @staticmethod
    def vertex_id(v: Coord) -> int | None:
        x, y = v
        if x == y:
            return 3 * x
        if y == x + 1:
            return 3 * x + 1
        if x == y + 1:
            return 3 * y + 2
        return None


def _chain_flow(heights: list[int], m: int, stop_at_absorption: bool = False) -> list[int]:
    """Particle counts arriving at (i,i) for i = 1..m under nested-volume
    stabilization.  With stop_at_absorption, the trajectory is cut short once
    it hits 0 or reaches 4 (both values persist from that point on)."""
    topo = _ChainTopology(m)
    h = list(heights)
    counts: list[int] = []
    for i in range(1, m + 1):
        sink = 3 * i
        limit = sink  # ids < limit are active in volume i
        collected = 0
        queue = [v for v in range(limit) if h[v] >= topo.degree[v]]
        in_queue = [False] * limit
        for v in queue:
            in_queue[v] = True
        while queue:
            v = queue.pop()
            in_queue[v] = False
            d = topo.degree[v]
            fire = h[v] // d
            if fire <= 0:
                continue
            h[v] -= fire * d
            for w in topo.neighbors[v]:
                if w == sink:
                    collected += fire
                else:  # neighbors of active vertices never exceed the sink id
                    h[w] += fire
                    if h[w] >= topo.degree[w] and not in_queue[w]:
                        queue.append(w)
                        in_queue[w] = True
            if h[v] >= d and not in_queue[v]:
                queue.append(v)
                in_queue[v] = True
        counts.append(collected)
        h[sink] += collected
        if stop_at_absorption and collected in (0, 4):
            break
    return counts


def boundary_flow(
    g: VicsekGraph, c: SandpileConfig, checkpoints: list[Coord]
) -> list[int]:
    """Stabilize c in nested volumes along the diagonal chain and report the
    particle count arriving at each requested checkpoint (i, i).

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

    chain_heights = [0] * (3 * m + 1)
    for vi, height in enumerate(c.heights):
        if height == 0:
            continue
        cid = _ChainTopology.vertex_id(g.vertices[vi])
        if cid is None:
            raise ValueError(
                f"configuration has mass at {g.vertices[vi]}, off the diagonal chain"
            )
        if cid < 3 * m:
            chain_heights[cid] = int(height)
    counts = _chain_flow(chain_heights, m)
    return [counts[i - 1] for i in ids]

"""Recurrent configurations: burning test, burning bijection, uniform
spanning trees, and samplers for the infinite-volume limit.

A stable configuration is recurrent exactly when Dhar's burning test
passes: add one particle to each vertex for every edge it shares with the
sink, stabilize, and check that every vertex toppled exactly once and the
configuration returned to its start.  On a tree of K4 blocks the test
needs no stabilization: the recurrent set is the block product below, so
``is_recurrent`` checks each block's triple against Dhar's criterion on K4.
The stabilizing burning test stays in the tests as the reference.

Recurrent configurations are in bijection with spanning trees rooted at the
sink; sampling a uniform spanning tree with Wilson's loop-erased-random-walk
algorithm and mapping it through the bijection therefore samples exactly
uniformly from the recurrent set.

The Vicsek graph is a tree of K4 blocks glued at cut vertices, and the
recurrent set is a product over the blocks: a recurrent K4 configuration on
each block's three corners away from its root (the corner nearest the sink),
plus three particles at every non-sink root.  Each such configuration burns
block by block, distinct choices differ, and there are 16^(5^n) of them, the
number of spanning trees; so they are all the recurrent configurations,
and ``sample_recurrent`` draws the blocks independently and is exactly uniform.
Wilson's algorithm and the burning bijection stay as the structure-free
reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .fractal_graph import BlockTree, VicsekGraph, build
# stabilize is no longer called here; a benchmark harness test asserts that
# this module binds it, and the import goes with that assertion (ROADMAP
# item 1, the benchmark re-cut)
from .sandpile import (  # noqa: F401
    _K4_RECURRENT,
    SandpileConfig,
    _glue,
    is_stable,
    stabilize,
)


@dataclass
class SpanningTree:
    """Sink-rooted spanning tree given by the parent index of every other
    vertex; the edge to the parent is the unique first step toward the root.
    """

    parent: np.ndarray
    root: int

    def validate(self, g: VicsekGraph) -> None:
        n = g.num_vertices
        if len(self.parent) != n or self.root != g.sink_index:
            raise ValueError("tree does not match the graph")
        depth = np.full(n, -1, dtype=np.int64)
        depth[self.root] = 0
        for v in range(n):
            if depth[v] >= 0:
                continue
            trail = []
            u = v
            while depth[u] < 0:
                trail.append(u)
                p = int(self.parent[u])
                if p < 0 or p >= n or u == p:
                    raise ValueError(f"malformed tree at vertex {g.vertices[u]}")
                if p not in g.neighbors[u]:
                    raise ValueError(
                        f"tree edge {g.vertices[u]}-{g.vertices[p]} is not a graph edge"
                    )
                u = p
                if len(trail) > n:
                    raise ValueError("tree contains a cycle")
            base = depth[u]
            for k, w in enumerate(reversed(trail)):
                depth[w] = base + k + 1
        self._depth = depth

    def depths(self, g: VicsekGraph) -> np.ndarray:
        if not hasattr(self, "_depth"):
            self.validate(g)
        return self._depth

    def edge_set(self) -> frozenset:
        return frozenset(
            frozenset((v, int(p)))
            for v, p in enumerate(self.parent)
            if v != self.root
        )


class EdgeOrder:
    """Total order on the edges at each vertex; the burning bijection works
    for any fixed choice.  The default ranks an edge by the canonical index
    of its far endpoint."""

    def rank(self, v: int, w: int) -> int:
        return w


def is_recurrent(g: BlockTree, c: SandpileConfig) -> bool:
    """Dhar's burning test, block by block; input must be stable.  The
    recurrent configurations are the block products (see the module
    docstring), so a stable configuration is recurrent exactly when on every
    block its non-root corners, less the glue, hold a recurrent K4 triple:
    one whose sorted heights are at least (0, 1, 2).  Stability already
    bounds each of them by 2."""
    if not is_stable(g, c):
        raise ValueError("the burning test applies to stable configurations only")
    q = (c.heights - _glue(g))[g.block_corners]
    return bool(np.all(np.sort(q, axis=1) >= np.arange(3)))


@lru_cache(maxsize=1)
def _burning_k4_table() -> tuple[tuple[int, ...], ...]:
    """The 16 recurrent level-0 triples in the order the burning test finds
    them among the 27 stable triples; computed once."""
    g = build(0)
    return tuple(h for h in product(range(3), repeat=3) if is_recurrent(g, SandpileConfig(h)))


def enumerate_recurrent_k4() -> list[SandpileConfig]:
    """All recurrent configurations of the level-0 graph (sink top-right),
    found by the burning test over the 27 stable triples.  They are the rows
    of the samplers' table ``sandpile._K4_RECURRENT``, read off Dhar's
    criterion; the tests check both against the stabilizing burning test."""
    return [SandpileConfig(h) for h in _burning_k4_table()]


def tree_to_config(
    g: VicsekGraph, tree: SpanningTree, order: EdgeOrder | None = None
) -> SandpileConfig:
    """Burning bijection: height of v is deg(v) - 1 minus the number of
    neighbors strictly more than one level above v in the tree, minus the
    number of same-level-above neighbors whose edge precedes the parent edge.
    """
    if order is None:
        order = EdgeOrder()
    tree.validate(g)
    depth = tree.depths(g)
    heights = np.zeros(g.num_vertices - 1, dtype=np.int64)
    for v in range(g.num_vertices - 1):
        lv = depth[v]
        parent_rank = order.rank(v, int(tree.parent[v]))
        a = b = 0
        for w in g.neighbors[v]:
            if depth[w] < lv - 1:
                a += 1
            elif depth[w] == lv - 1 and order.rank(v, w) < parent_rank:
                b += 1
        heights[v] = g.degrees[v] - 1 - a - b
    return SandpileConfig(heights)


class _UniformPool:
    """Batched exact uniform integers in [0, d); one pool per degree value."""

    def __init__(self, rng: np.random.Generator, chunk: int = 8192):
        self.rng = rng
        self.chunk = chunk
        self.pools: dict[int, np.ndarray] = {}
        self.used: dict[int, int] = {}

    def draw(self, d: int) -> int:
        pos = self.used.get(d, 0)
        pool = self.pools.get(d)
        if pool is None or pos >= len(pool):
            pool = self.rng.integers(0, d, size=self.chunk)
            self.pools[d] = pool
            pos = 0
        self.used[d] = pos + 1
        return int(pool[pos])


def wilson_ust(g: VicsekGraph, rng) -> SpanningTree:
    """Uniform spanning tree rooted at the sink via loop-erased random walks.

    Walks are run from each unvisited vertex in index order; the successor
    array implicitly erases loops (a revisited vertex overwrites its old
    successor), which is Wilson's cycle-popping formulation.
    """
    rng = np.random.default_rng(rng)
    n = g.num_vertices
    root = g.sink_index
    in_tree = np.zeros(n, dtype=bool)
    in_tree[root] = True
    parent = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, -1, dtype=np.int64)
    pool = _UniformPool(rng)
    indptr, nbr, deg = g.indptr, g.nbr_indices, g.degrees
    for start in range(n):
        if in_tree[start]:
            continue
        u = start
        while not in_tree[u]:
            r = pool.draw(int(deg[u]))
            v = int(nbr[indptr[u] + r])
            nxt[u] = v
            u = v
        u = start
        while not in_tree[u]:
            parent[u] = nxt[u]
            in_tree[u] = True
            u = int(nxt[u])
    return SpanningTree(parent=parent, root=root)


def _block_picks(g: BlockTree, rng: np.random.Generator) -> np.ndarray:
    """One uniform row of ``_K4_RECURRENT`` per block: one sample's draws."""
    return rng.integers(0, len(_K4_RECURRENT), size=len(g.blocks))


def sample_recurrent(g: BlockTree, rng) -> SandpileConfig:
    """Exactly uniform sample from the recurrent configurations: one uniform
    recurrent K4 configuration per block on its three non-root corners (in
    canonical order), plus three particles at every non-sink block root."""
    heights = _glue(g)
    heights[g.block_corners] += _K4_RECURRENT[_block_picks(g, np.random.default_rng(rng))]
    return SandpileConfig(heights)

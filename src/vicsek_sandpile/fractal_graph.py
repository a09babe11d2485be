"""Finite Vicsek fractal graphs and their structural queries.

The level-0 graph is the complete graph K4 on the unit square
{(0,0),(1,0),(0,1),(1,1)}.  Level n is the union of five shifted copies of
level n-1 placed at offsets (0,0), (L,L), (2L,0), (0,2L), (2L,2L) with
L = 3^(n-1), so the level-n graph lives on the lattice square [0, 3^n]^2.
The five copies meet only at single vertices, so the level-n graph is a
tree of 5^n K4 blocks glued at cut vertices: it has 3*5^n + 1 vertices and
6*5^n edges, and every vertex has degree 3 (corner of a single block) or
degree 6 (cutpoint shared by exactly two blocks).  The graph is built as
that block table, with sorted coordinate keys.  ``BlockTree`` derives
adjacency and the block-tree layout from any such table whose last vertex
is the sink, so the sandpile engine also runs on other trees of K4 blocks,
such as the diagonal chain below.
The layout is one walk out from the sink, and every distance is read off it.

The diagonal chain D_n is the union of the 3^n complete blocks
K^i = {(i-1,i-1), (i-1,i), (i,i-1), (i,i)}.  Vertices split into the exact
diagonal (x = y), the 1-offset diagonal (|x - y| = 1), and branch vertices
(|x - y| > 1) that hang off the chain in subtrees rooted at 1-offset
vertices.  All mass flowing to the sink (3^n, 3^n) crosses the chain, which
is what makes the nested-volume analysis in the other modules work.
"""

from __future__ import annotations

import os
from enum import Enum
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse

Coord = tuple[int, int]

DEFAULT_LEVEL_CAP = 6
LEVEL_CAP_ENV = "SANDPILE_LEVEL_CAP"


class CapacityError(ValueError):
    """Requested level exceeds the configured build cap."""


def level_cap() -> int:
    """Current build cap; the environment variable overrides the default."""
    raw = os.environ.get(LEVEL_CAP_ENV)
    if raw is None:
        return DEFAULT_LEVEL_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{LEVEL_CAP_ENV} must be an integer, got {raw!r}") from exc


class DiagonalClass(Enum):
    DIAGONAL_D0 = "diagonal"
    OFFSET_D1 = "offset"
    BRANCH = "branch"


# Corners of a unit square in canonical (lexicographic) order, and the
# offsets of the five copies in units of the previous level's side.
_CORNERS = np.array([(0, 0), (0, 1), (1, 0), (1, 1)], dtype=np.int64)
_COPY_OFFSETS = np.array([(0, 0), (1, 1), (2, 0), (0, 2), (2, 2)], dtype=np.int64)
# the 12 ordered pairs of distinct corners: the directed edges of one block
_BLOCK_EDGES = np.array([(a, b) for a in range(4) for b in range(4) if a != b])


def _block_corners(level: int) -> np.ndarray:
    """Lower-left corners of the 5^level unit blocks, by the five-copy
    recursion applied to the level-0 block at the origin."""
    corners = np.zeros((1, 2), dtype=np.int64)
    for k in range(level):
        corners = (_COPY_OFFSETS[:, None, :] * 3**k + corners[None, :, :]).reshape(-1, 2)
    return corners


class VertexTree(NamedTuple):
    """The vertex tree of the block tree in preorder: every non-sink vertex
    hangs from the root of the one block it is a non-root corner of.  Each
    vertex is the root of at most one block, so a vertex has no children or
    its block's three other corners, and the preorder visits those three
    one after another, each followed by its subtree.  Arrays are indexed by
    preorder position over the non-sink vertices.

    - ``order``: the vertex index at each position;
    - ``position``: the inverse of ``order``, indexed by vertex, with -1
      for the sink, so that stop[-1] ends every span;
    - ``stop``: the end of each position's subtree, so that positions
      p .. stop[p] - 1 are the subtree and stop[p] - p is its size;
    - ``block_start``, ``block_stop``: the span of the subtrees of the
      position's block: its three non-root corners and everything below
      them.  The span of the sink's block is every position;
    - ``by_stop``: the positions sorted by ``stop``;
    - ``closed``: for each position p, how many subtrees have closed at or
      before it, the number of positions a with stop[a] <= p.

    A subtree sum is then the difference of two prefix sums.  A sum over
    the path from a position to the sink is a prefix sum up to it less the
    prefix, in ``by_stop`` order, over the ``closed`` subtrees before it.
    """

    order: np.ndarray
    position: np.ndarray
    stop: np.ndarray
    block_start: np.ndarray
    block_stop: np.ndarray
    by_stop: np.ndarray
    closed: np.ndarray


class SweepLayout(NamedTuple):
    """The depth-major numbering of a block tree's vertices on which the
    leaves-first sweep runs.  Positions hold first every vertex that is no
    block's root, then the block roots depth by depth, deepest first, in
    the order of ``block_levels``, so the sink comes last.  Block k of that
    order has its root at position len(order) - len(corners) + k, and the
    roots of one depth fill one contiguous range.

    - ``order``: the vertex index at each position;
    - ``corners``: the positions of each block's three non-root corners,
      one row per block, in the same block order;
    - ``offsets``: the index of each depth's first block, with the number
      of blocks last;
    - ``slot``: each non-sink vertex's index in ``corners.ravel()``, as
      every non-sink vertex is a non-root corner of exactly one block.
    """

    order: np.ndarray
    corners: np.ndarray
    offsets: np.ndarray
    slot: np.ndarray


class BlockTree:
    """A tree of K4 blocks glued at cut vertices, given by its block table:
    one row of four vertex indices per block, two blocks sharing at most one
    vertex, and the last vertex the sink, a corner of one block.  Everything
    the sandpile engine needs is derived from the table: degrees and
    adjacency as flat CSR-style arrays up front; per-vertex neighbor lists,
    the non-sink views and the blocks' layout in the block tree on first use.
    The layout is one walk from the sink, kept as flat arrays.  The
    preorder of ``vertex_tree`` serves the exact solve and subtree sums;
    the depth-major numbering of ``sweep_layout``, built on the first
    read-off, serves the recurrent representative's residue sweep.
    """

    def __init__(self, blocks: np.ndarray):
        self.blocks = blocks
        # every corner of a block is adjacent to the block's three others;
        # two blocks share at most one vertex, so no edge is listed twice
        self.degrees = 3 * np.bincount(blocks.ravel())
        n = len(self.degrees)
        self.sink_index = n - 1
        src = blocks[:, _BLOCK_EDGES[:, 0]].ravel()
        dst = blocks[:, _BLOCK_EDGES[:, 1]].ravel()
        self.nbr_indices = dst[np.lexsort((dst, src))]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.indptr[1:])

    @property
    def num_vertices(self) -> int:
        return len(self.degrees)

    @property
    def num_edges(self) -> int:
        return int(self.degrees.sum()) // 2

    @cached_property
    def neighbors(self) -> list[list[int]]:
        """Each vertex's sorted neighbor indices, as a list of Python ints."""
        flat, bounds = self.nbr_indices.tolist(), self.indptr.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    @cached_property
    def adjacency(self) -> scipy.sparse.csr_matrix:
        """Adjacency matrix of the whole graph, sink included.  scipy is
        imported here, on first use, so that importing the package and every
        path that never needs the sparse matrix stay free of it."""
        import scipy.sparse

        n = self.num_vertices
        return scipy.sparse.csr_matrix(
            (np.ones(len(self.nbr_indices), dtype=np.int64), self.nbr_indices, self.indptr),
            shape=(n, n),
        )

    @cached_property
    def nonsink_adjacency(self) -> scipy.sparse.csr_matrix:
        """Adjacency matrix among the non-sink vertices (the sink is last)."""
        return self.adjacency[:-1, :-1]

    @cached_property
    def sink_degrees(self) -> np.ndarray:
        """Number of edges from each non-sink vertex to the sink."""
        out = np.zeros(self.num_vertices - 1, dtype=np.int64)
        out[self.nbr_indices[self.indptr[-2] :]] = 1  # the sink's, as it is last
        return out

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One walk out from the sink's one block.  Each step roots the blocks
        that the last step's corners reach at those corners; their other
        corners are the next frontier.  A cut vertex lies in two blocks, so
        the one beyond it is the sum of their indices less the one it was
        reached through.  Returns each block's root, each vertex's depth (its
        distance to the sink) and the blocks by the depth of their root,
        deepest first and flat: their roots, their non-root corners (one row
        per block) and the index of each depth's first block, with the
        number of blocks last.  Flat arrays keep a long chain of one-block
        depths from costing one array object per depth."""
        blocks, is_cut = self.blocks, self.degrees > 3
        block_sum = np.zeros(len(is_cut), dtype=np.int64)
        np.add.at(block_sum, blocks, np.arange(len(blocks))[:, None])
        roots = np.empty(len(blocks), dtype=np.int64)
        depth = np.zeros_like(block_sum)
        levels = []
        at, through = np.array([self.sink_index]), block_sum[[self.sink_index]]
        while len(at):
            rows = blocks[through]
            corners = rows[rows != at[:, None]].reshape(-1, 3)
            roots[through] = at
            levels.append((at, corners))
            depth[corners] = len(levels)
            cut = is_cut[corners]
            at, through = corners[cut], (block_sum[corners] - through[:, None])[cut]
        levels.reverse()
        offsets = np.cumsum([0] + [len(at) for at, _ in levels])
        level_roots = np.concatenate([at for at, _ in levels])
        level_corners = np.concatenate([corners for _, corners in levels])
        return roots, depth, level_roots, level_corners, offsets

    @cached_property
    def block_roots(self) -> np.ndarray:
        """Each block's corner nearest the sink: the cut vertex joining it to
        the rest of the block tree on the sink's side, or the sink itself."""
        return self._layout[0]

    @cached_property
    def block_corners(self) -> np.ndarray:
        """Each block's three corners other than its root, in the block
        table's order, row-aligned with ``blocks``.  Every non-sink vertex is
        a non-root corner of exactly one block."""
        return self.blocks[self.blocks != self.block_roots[:, None]].reshape(-1, 3)

    @cached_property
    def corner_slots(self) -> np.ndarray:
        """Each non-sink vertex's index in ``block_corners.ravel()``."""
        out = np.empty(self.num_vertices - 1, dtype=np.int64)
        out[self.block_corners.ravel()] = np.arange(self.block_corners.size)
        return out

    def path_to_sink(self, i: int) -> np.ndarray:
        """The ``corner_slots`` of i and its ancestors, i first: i's geodesic
        blocks.  The ancestors are the preorder positions a <= p whose
        subtree has not closed by i's position p."""
        tree = self.vertex_tree
        p = tree.position[i]
        return self.corner_slots[tree.order[np.flatnonzero(tree.stop[: p + 1] > p)[::-1]]]

    @property
    def block_levels(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The blocks grouped by the depth of their root in the block tree,
        deepest first, the order in which leaves-first sweeps visit them: per
        depth, the blocks' roots and, row by row, their non-root corners.
        Views into the flat layout, made on each call."""
        _, _, roots, corners, offsets = self._layout
        bounds = offsets.tolist()
        return tuple((roots[a:b], corners[a:b]) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def sweep_layout(self) -> SweepLayout:
        """The depth-major numbering of the vertices that a leaves-first
        sweep over ``block_levels`` runs on (see ``SweepLayout``), derived
        from the flat layout on first use."""
        _, _, roots, corners, offsets = self._layout
        n = self.num_vertices
        is_root = np.zeros(n, dtype=bool)
        is_root[roots] = True
        order = np.concatenate([np.flatnonzero(~is_root), roots])
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        slot = np.empty(n - 1, dtype=np.int64)
        slot[corners.ravel()] = np.arange(corners.size)
        return SweepLayout(order=order, corners=position[corners], offsets=offsets, slot=slot)

    @cached_property
    def vertex_tree(self) -> VertexTree:
        """The preorder layout of the vertex tree (see ``VertexTree``),
        built from ``block_levels`` on first use: subtree sizes
        leaves-first, then positions from the sink down."""
        n = self.num_vertices
        levels = self.block_levels
        size = np.ones(n, dtype=np.int64)
        for roots, corners in levels:
            size[roots] += size[corners].sum(axis=1)
        # the sink takes position -1, so its block starts at 0
        pos = np.full(n, -1, dtype=np.int64)
        block_start = np.empty(n, dtype=np.int64)
        block_stop = np.empty(n, dtype=np.int64)
        for roots, corners in reversed(levels):
            start = pos[roots, None] + 1
            ends = start + np.cumsum(size[corners], axis=1)
            pos[corners] = ends - size[corners]
            block_start[corners] = start
            block_stop[corners] = ends[:, -1:]
        order = np.empty(n - 1, dtype=np.int64)
        order[pos[:-1]] = np.arange(n - 1)
        stop = (pos + size)[order]
        return VertexTree(
            order=order,
            position=pos,
            stop=stop,
            block_start=block_start[order],
            block_stop=block_stop[order],
            by_stop=np.argsort(stop, kind="stable"),
            closed=np.cumsum(np.bincount(stop, minlength=n))[: n - 1],
        )

    def distances_from(self, source: int) -> np.ndarray:
        """Distances from one vertex index, read off the vertex tree.  For a
        the deepest common ancestor of u and v, d(u, v) = depth u + depth v -
        2 depth a, less 1 when a is neither u nor v, as a's children on the
        two paths are corners of a's one block.  The preorder spans of u's
        ancestors are nested, so depth a is one cumsum of a difference array."""
        depth = self.distance_to_sink()
        tree = self.vertex_tree
        at = np.arange(len(tree.order))
        p = tree.position[source]
        ancestor = (at <= p) & (tree.stop > p)
        common = np.cumsum(ancestor - np.bincount(tree.stop[ancestor], minlength=len(at) + 1)[:-1])
        # the common ancestor is u or v when v is an ancestor of u or below it
        on_path = ancestor | ((at >= p) & (at < tree.stop[p]))
        dist = np.empty_like(depth)
        dist[tree.order] = depth[source] + depth[tree.order] - 2 * common - 1 + on_path
        dist[self.sink_index] = depth[source]
        return dist

    def distance_to_sink(self) -> np.ndarray:
        return self._layout[1]


class VicsekGraph(BlockTree):
    """Immutable level-n Vicsek graph with dense canonical vertex indexing.

    The graph is a tree of 5^n K4 blocks glued at cut vertices, and the
    block table ``blocks`` is its primary data: one row per unit square,
    holding the indices of its four corners in canonical order
    (x, y), (x, y+1), (x+1, y), (x+1, y+1), rows sorted by lower-left corner.
    Vertices are ordered lexicographically by (x, y); the sink (3^n, 3^n) is
    always the last index.  Adjacency and the block-tree layout come from
    ``BlockTree``.  Coordinates live once, in the sorted ``keys`` x * (side + 1) + y.
    """

    def __init__(self, level: int):
        self.level = level
        self.side = 3**level
        self.sink: Coord = (self.side, self.side)

        squares = _block_corners(level)[:, None, :] + _CORNERS[None, :, :]
        keys = squares[..., 0] * (self.side + 1) + squares[..., 1]
        self.keys, blocks = np.unique(keys, return_inverse=True)
        blocks = blocks.reshape(-1, 4).astype(np.int64)
        super().__init__(blocks[np.argsort(blocks[:, 0])])

    def __repr__(self) -> str:
        return (
            f"VicsekGraph(level={self.level}, vertices={self.num_vertices}, "
            f"edges={self.num_edges})"
        )

    def coordinates(self, idx=slice(None)) -> tuple:
        """x and y of the vertices at idx (default all), as Python ints."""
        return tuple(a.tolist() for a in np.divmod(self.keys[idx], self.side + 1))

    @cached_property
    def vertices(self) -> list[Coord]:
        return list(zip(*self.coordinates()))

    def contains(self, v: Coord) -> bool:
        try:
            self.vertex_index(v)
        except ValueError:
            return False
        return True

    def vertex_index(self, v: Coord) -> int:
        # keys collide off the lattice square: decode back to v
        try:
            x, y = v
            i = int(self.keys.searchsorted(int(x) * (self.side + 1) + int(y)))
            if divmod(self.keys.item(i), self.side + 1) == v:
                return i
        except (TypeError, ValueError, OverflowError, IndexError):
            pass
        raise ValueError(f"{v} is not a vertex of the level-{self.level} graph")

    def degree(self, v: Coord) -> int:
        return int(self.degrees[self.vertex_index(v)])

    def neighbors_of(self, v: Coord) -> list[Coord]:
        return [self.vertices[w] for w in self.neighbors[self.vertex_index(v)]]


@lru_cache(maxsize=None)
def _build_uncapped(level: int) -> VicsekGraph:
    return VicsekGraph(level)


def _check_level(level: int) -> None:
    """The one check of a level against the build cap, graph or no graph."""
    if level < 0:
        raise ValueError(f"level must be non-negative, got {level}")
    cap = level_cap()
    if level > cap:
        raise CapacityError(f"level {level} exceeds the build cap {cap}")


def build(level: int) -> VicsekGraph:
    """Construct the level-n Vicsek graph (recursive five-copy union)."""
    _check_level(level)
    return _build_uncapped(level)


def classify(g: VicsekGraph, v: Coord) -> DiagonalClass:
    """Diagonal / 1-offset / branch classification of a vertex by |x - y|."""
    x, y = g.coordinates(g.vertex_index(v))
    gap = abs(x - y)
    if gap == 0:
        return DiagonalClass.DIAGONAL_D0
    if gap == 1:
        return DiagonalClass.OFFSET_D1
    return DiagonalClass.BRANCH


def diagonal_vertices(g: VicsekGraph) -> set[Coord]:
    """Vertex set of the diagonal chain D_n (|x - y| <= 1)."""
    return {(x, y) for x, y in g.vertices if abs(x - y) <= 1}


def branch_component(g: VicsekGraph, x: Coord) -> set[Coord]:
    """Subtree hanging off a 1-offset vertex, away from the diagonal chain.

    Returns the vertex set of the connected component of g minus {x}
    containing no chain vertex, empty when every neighbor of x lies on the
    chain.  The chain holds the sink, so this is what hangs from x.
    """
    if classify(g, x) is not DiagonalClass.OFFSET_D1:
        raise ValueError(f"{x} is not a 1-offset diagonal vertex")
    component = descendants(g, x)
    if any(abs(a - b) <= 1 for a, b in component):
        raise RuntimeError(f"the branch at {x} reaches the diagonal chain")
    return component


def geodesic_to_sink(g: VicsekGraph, x: Coord) -> list[Coord]:
    """The shortest path from x to the sink.  It is unique: a non-sink vertex
    is a non-root corner of exactly one block, every path from it to the sink
    passes that block's root, and the root is its neighbour."""
    i = g.vertex_index(x)
    return [g.vertices[v] for v in [i, *g.block_roots[g.path_to_sink(i) // 3].tolist()]]


def descendants(g: VicsekGraph, x: Coord) -> set[Coord]:
    """Vertices whose geodesic to the sink passes through x (x excluded):
    x's subtree in the preorder of the vertex tree, less x."""
    tree = g.vertex_tree
    p = tree.position[g.vertex_index(x)]
    return set(zip(*g.coordinates(tree.order[p + 1 : tree.stop[p]])))


def geodesic_subgraph(g: VicsekGraph, x: Coord) -> set[Coord]:
    """Vertices within distance 1 of the geodesic from x to the sink, minus
    descendants of x: the chain of K4 blocks linking x to the sink."""
    if x == g.sink:
        raise ValueError("the sink has no geodesic subgraph")
    path = [g.vertex_index(v) for v in geodesic_to_sink(g, x)]
    ball = {g.vertices[w] for u in path for w in [u, *g.neighbors[u]]}
    return ball - descendants(g, x)


def graph_distance(g: VicsekGraph, v: Coord, w: Coord) -> int:
    """Shortest-path distance between two vertices."""
    return int(g.distances_from(g.vertex_index(v))[g.vertex_index(w)])


def ternary_digits(n: int) -> list[int]:
    """Base-3 digits of n, least significant first ([] for n = 0)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    digits = []
    while n:
        n, r = divmod(n, 3)
        digits.append(r)
    return digits


def kappa(n: int) -> int:
    """Sum of 3^i over the positions i where the ternary digit of n is nonzero.

    Clamping each digit to at most 1 gives the largest ternary-0/1 number
    obtainable digitwise, i.e. kappa(n) <= n with equality iff no digit is 2.
    """
    return sum(3**i for i, a in enumerate(ternary_digits(n)) if a >= 1)


def has_ternary_digit_two(n: int) -> bool:
    return any(a == 2 for a in ternary_digits(n))

import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from vicsek_sandpile import (
    CapacityError,
    DiagonalClass,
    SandpileConfig,
    add_particles,
    boundary_flow,
    branch_component,
    build,
    classify,
    diagonal_vertices,
    geodesic_subgraph,
    geodesic_to_sink,
    graph_distance,
    group_add,
    group_coordinates,
    has_ternary_digit_two,
    identity,
    is_recurrent,
    kappa,
    sample_recurrent,
    sink_hit_probability,
    stabilize,
    stabilize_many,
    verify_identity,
)
from vicsek_sandpile.cli import render_pgm, render_svg
from vicsek_sandpile.fractal_graph import BlockTree, VicsekGraph, descendants, ternary_digits
from vicsek_sandpile.sandpile import _chain_volume

from .oracles import _bfs, five_copy_union, hanging_from, nx_graph


@pytest.mark.parametrize("level", range(6))
def test_counts_and_degrees(level):
    g = build(level)
    assert g.num_vertices == 3 * 5**level + 1
    assert g.num_edges == 6 * 5**level
    threes = int(np.count_nonzero(g.degrees == 3))
    sixes = int(np.count_nonzero(g.degrees == 6))
    assert threes == 2 * 5**level + 2
    assert sixes == 5**level - 1
    assert threes + sixes == g.num_vertices


def test_build_examples():
    assert (build(0).num_vertices, build(0).num_edges) == (4, 6)
    assert (build(1).num_vertices, build(1).num_edges) == (16, 30)
    assert (build(2).num_vertices, build(2).num_edges) == (76, 150)
    g0 = build(0)
    for v in g0.vertices:
        for w in g0.vertices:
            if v != w:
                assert w in g0.neighbors_of(v)


def test_adjacency_symmetric(g2):
    for v in range(g2.num_vertices):
        for w in g2.neighbors[v]:
            assert v in g2.neighbors[w]


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_copy_registry(level):
    # the block table: one K4 clique per unit square, corners in canonical
    # order; the diagonal rows are K^1 .. K^(3^n)
    g = build(level)
    assert g.blocks.shape == (5**level, 4)
    diagonal = []
    for block in g.blocks.tolist():
        x, y = g.vertices[block[0]]
        coords = [g.vertices[v] for v in block]
        assert coords == [(x, y), (x, y + 1), (x + 1, y), (x + 1, y + 1)]
        for a in block:
            assert set(g.neighbors[a]) >= set(block) - {a}
        if x == y:
            diagonal.append(coords)
    assert 6 * len(g.blocks) == g.num_edges  # every edge lies in one block
    assert diagonal == [
        [(i - 1, i - 1), (i - 1, i), (i, i - 1), (i, i)] for i in range(1, 3**level + 1)
    ]


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_block_roots(level):
    # each block's root is its unique corner nearest the sink; the other
    # three corners of all blocks, in block order, partition the non-sink
    # vertices
    g = build(level)
    dist = _bfs(g.neighbors, g.sink_index)
    rows = zip(g.blocks.tolist(), g.block_roots.tolist(), g.block_corners.tolist())
    for block, root, corners in rows:
        assert root in block
        assert corners == [v for v in block if v != root]
        assert all(dist[v] == dist[root] + 1 for v in corners)
    assert sorted(g.block_corners.ravel().tolist()) == list(range(g.num_vertices - 1))
    assert g.sink_index in g.block_roots.tolist()
    assert len(set(g.block_roots.tolist())) == len(g.blocks)
    # block_levels lists every block once, each before the block its root is
    # a non-root corner of, as leaves-first sweeps need
    level_of_corner = {
        v: i for i, (_, corners) in enumerate(g.block_levels) for v in corners.ravel().tolist()
    }
    assert sorted(level_of_corner) == list(range(g.num_vertices - 1))
    assert sum(len(roots) for roots, _ in g.block_levels) == len(g.blocks)
    for i, (roots, _) in enumerate(g.block_levels):
        assert all(r == g.sink_index or level_of_corner[r] > i for r in roots.tolist())


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_vertex_tree_preorder(level):
    """The preorder is a permutation of the non-sink vertices.  Prefix sums
    over it give every vertex's subtree sum, the vertex plus its descendants
    (everything whose geodesic to the sink passes through it), and every
    vertex's block span sums the subtrees of its block's non-root corners."""
    g = build(level)
    tree = g.vertex_tree
    n = g.num_vertices - 1
    assert sorted(tree.order.tolist()) == list(range(n))
    h = np.random.default_rng(level).integers(-50, 51, size=n)
    prefix = np.concatenate([[0], np.cumsum(h[tree.order])])
    subtree = np.empty(n, dtype=np.int64)
    subtree[tree.order] = prefix[tree.stop] - prefix[:-1]
    for c in range(n):
        below = list(hanging_from(g.neighbors, g.sink_index, c))
        assert subtree[c] == h[c] + h[below].sum()
    span = np.empty(n, dtype=np.int64)
    span[tree.order] = prefix[tree.block_stop] - prefix[tree.block_start]
    for block, root in zip(g.blocks.tolist(), g.block_roots.tolist()):
        corners = [v for v in block if v != root]
        assert all(span[c] == subtree[corners].sum() for c in corners)
    assert np.all(np.diff(tree.stop[tree.by_stop]) >= 0)
    assert tree.closed.tolist() == [int((tree.stop <= p).sum()) for p in range(n)]


@pytest.mark.parametrize("kind, i", [("level", n) for n in range(4)] + [("chain", n) for n in (2, 7)])
def test_vertex_tree_position_inverts_the_order(kind, i):
    """Each vertex's preorder position is one lookup, equal to a scan of the
    order for the vertex, and -1 for the sink, which the order leaves out."""
    g = build(i) if kind == "level" else _chain_volume(i)
    tree = g.vertex_tree
    for v in range(g.num_vertices):
        assert tree.position[v] == next(iter(np.flatnonzero(tree.order == v)), -1), v
    assert tree.position[g.sink_index] == -1


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_sweep_layout_is_depth_major(level):
    """The sweep's numbering is a permutation of the vertices, sink last, in
    which the roots of block_levels' blocks come last, in their order, so
    each depth's roots are one slice; the corners and their slots map back
    to the vertices.  It is built on first use, not with the tree."""
    g = BlockTree(build(level).blocks)
    assert "sweep_layout" not in vars(g)
    sweep = g.sweep_layout
    n = g.num_vertices
    assert sorted(sweep.order.tolist()) == list(range(n))
    roots = np.concatenate([roots for roots, _ in g.block_levels])
    corners = np.concatenate([corners for _, corners in g.block_levels])
    assert np.array_equal(sweep.order[n - len(g.blocks) :], roots)
    assert roots[-1] == g.sink_index
    assert np.array_equal(sweep.order[sweep.corners], corners)
    assert np.array_equal(np.diff(sweep.offsets), [len(roots) for roots, _ in g.block_levels])
    assert np.array_equal(corners.ravel()[sweep.slot], np.arange(n - 1))


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_block_tree_from_the_block_table(level):
    """A block tree built from the graph's block table alone derives the
    same adjacency and block-tree layout as the graph."""
    g = build(level)
    tree = BlockTree(g.blocks)
    assert tree.num_vertices == g.num_vertices and tree.sink_index == g.sink_index
    names = ("degrees", "indptr", "nbr_indices", "sink_degrees", "block_roots", "block_corners")
    for name in names:
        assert np.array_equal(getattr(tree, name), getattr(g, name)), name
    assert tree.neighbors == g.neighbors
    for ours, theirs in zip(tree.vertex_tree, g.vertex_tree):
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("level", range(5))
def test_build_matches_five_copy_union(level):
    g = build(level)
    vertices, edges = five_copy_union(level)
    assert g.vertices == sorted(vertices)
    for v, w in edges:
        assert w in g.neighbors_of(v) and v in g.neighbors_of(w)
    assert g.num_edges == len(edges)
    assert all(lst == sorted(lst) for lst in g.neighbors)
    assert np.array_equal(g.nbr_indices, [w for lst in g.neighbors for w in lst])
    assert np.array_equal(np.diff(g.indptr), g.degrees)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_nesting(level):
    g, prev = build(level), build(level - 1)
    side = 3 ** (level - 1)
    sub_vertices = [v for v in g.vertices if v[0] <= side and v[1] <= side]
    assert sub_vertices == prev.vertices
    for v in prev.vertices:
        inner = {w for w in g.neighbors_of(v) if w[0] <= side and w[1] <= side}
        assert inner == set(prev.neighbors_of(v))


def test_build_validation(monkeypatch):
    with pytest.raises(ValueError):
        build(-1)
    with pytest.raises(CapacityError):
        build(99)
    monkeypatch.setenv("SANDPILE_LEVEL_CAP", "2")
    with pytest.raises(CapacityError):
        build(3)
    monkeypatch.setenv("SANDPILE_LEVEL_CAP", "not-a-number")
    with pytest.raises(ValueError):
        build(1)


@pytest.mark.parametrize("v", [(1.5, 0), (-1, 4), (4, -1), (0, -1), (0, 0, 0)])
def test_lookup_rejects_points_off_the_graph(g1, v):
    """A key x * 4 + y names one point only for integers 0 <= y <= 3:
    (1.5, 0) reaches (1, 2)'s key 6, (-1, 4) the origin's 0 and (4, -1) the
    sink's 15, so the lookup must check what it found."""
    assert not g1.contains(v)
    with pytest.raises(ValueError, match=re.escape(f"{v} is not a vertex of the level-1 graph")):
        g1.vertex_index(v)


@pytest.mark.parametrize("v, i", [((0.0, 0), 0), ((np.int64(1), np.int64(2)), 6)])
def test_lookup_takes_coordinates_equal_to_a_vertex(g1, v, i):
    assert g1.contains(v) and g1.vertex_index(v) == i


@pytest.mark.parametrize("level", range(5))
def test_vertex_index_inverts_the_vertex_list(level):
    g = build(level)
    assert [g.vertex_index(v) for v in g.vertices] == list(range(g.num_vertices))
    assert all(g.contains(v) for v in g.vertices)


def test_engine_and_renderers_never_make_the_vertex_list(tmp_path):
    """A graph of its own, not the one ``build`` caches, through the engine,
    the sampler, the group code, the renderers and the fields ``graph``
    prints: none of them makes the tuple list, and there is no index."""
    g = VicsekGraph(3)
    rng = np.random.default_rng(5)
    eta = sample_recurrent(g, rng)
    stabilize(g, add_particles(g, eta, (0, 0), 3))
    stabilize_many(g, [eta, group_add(g, eta, eta)])
    assert not verify_identity(g, identity(3), 2, rng).failed()
    sink_hit_probability(g, (4, 5), 2, 4, rng)
    assert is_recurrent(g, eta)
    group_coordinates(g, eta)
    assert boundary_flow(g, add_particles(g, SandpileConfig.constant(g, 0), (0, 0), 4), [(1, 1)])
    render_pgm(g, eta, str(tmp_path / "eta.pgm"))
    render_svg(g, eta, str(tmp_path / "eta.svg"))
    fields = (g.level, g.num_vertices, g.num_edges, list(g.sink), np.unique(g.degrees).tolist())
    assert fields == (3, 376, 750, [27, 27], [3, 6])
    assert "vertices" not in g.__dict__
    assert not hasattr(g, "index")


def test_classify(g1):
    assert classify(g1, (1, 1)) is DiagonalClass.DIAGONAL_D0
    assert classify(g1, (1, 0)) is DiagonalClass.OFFSET_D1
    assert classify(g1, (0, 3)) is DiagonalClass.BRANCH
    with pytest.raises(ValueError):
        classify(g1, (7, 7))


def test_branch_component_level1(g1):
    assert branch_component(g1, (1, 2)) == {(0, 2), (0, 3), (1, 3)}
    assert branch_component(g1, (1, 0)) == set()
    with pytest.raises(ValueError):
        branch_component(g1, (1, 1))  # diagonal, not 1-offset
    with pytest.raises(ValueError):
        branch_component(g1, (0, 3))  # branch vertex, not 1-offset


def test_branch_component_level2_against_component_oracle(g2):
    # the component of (4,5) away from the diagonal: the three local leaves
    # plus the whole 16-vertex sub-square attached through (3,6)
    got = branch_component(g2, (4, 5))
    assert len(got) == 18
    assert {(3, 5), (4, 6), (3, 6)} <= got
    G = nx_graph(g2)
    G.remove_node((4, 5))
    chain = diagonal_vertices(g2)
    offside = [comp for comp in nx.connected_components(G) if not comp & chain]
    assert len(offside) == 1
    assert got == offside[0]


@pytest.mark.parametrize("level", [1, 2, 3])
def test_branch_partition_identity(level):
    # off-chain vertices are partitioned by the branch components
    g = build(level)
    chain = diagonal_vertices(g)
    offsets = [v for v in g.vertices if classify(g, v) is DiagonalClass.OFFSET_D1]
    total = 0
    seen = set()
    for x in offsets:
        comp = branch_component(g, x)
        assert not (comp & seen)
        seen |= comp
        total += len(comp)
    assert total + len(chain) == g.num_vertices


def test_branch_single_cutpoint_property(g2):
    # inside the branch, only x touches the rest of the graph
    for x in [v for v in g2.vertices if classify(g2, v) is DiagonalClass.OFFSET_D1]:
        comp = branch_component(g2, x)
        for v in comp:
            for w in g2.neighbors_of(v):
                assert w in comp or w == x


def test_geodesic_unique_and_monotone():
    """Every vertex has exactly one shortest path to the sink, counted over
    breadth-first distances (N(sink) = 1, N(v) the sum of N(w) over the
    neighbours w one step closer), and geodesic_to_sink walks it."""
    for level in (1, 2, 3):
        g = build(level)
        dist = _bfs(g.neighbors, g.sink_index)
        paths = [0] * g.num_vertices
        paths[g.sink_index] = 1
        for v in sorted(range(g.num_vertices), key=dist.__getitem__)[1:]:
            paths[v] = sum(paths[w] for w in g.neighbors[v] if dist[w] == dist[v] - 1)
        assert paths == [1] * g.num_vertices
        for v in g.vertices[:-1]:
            path = geodesic_to_sink(g, v)
            assert path[0] == v and path[-1] == g.sink
            assert len(path) == dist[g.vertex_index(v)] + 1
            assert all(b in g.neighbors_of(a) for a, b in zip(path, path[1:]))


def test_path_to_sink_reads_the_geodesic_blocks():
    """path_to_sink lists, per step of the geodesic, the block entered and
    the slot of its corners row that the step leaves from; corner_slots
    inverts block_corners."""
    for level in (0, 1, 2, 3):
        g = build(level)
        assert (g.block_corners.ravel()[g.corner_slots] == np.arange(g.num_vertices - 1)).all()
        for v in g.vertices[:-1]:
            i, path = g.vertex_index(v), g.path_to_sink(g.vertex_index(v))
            walk = [g.vertex_index(w) for w in geodesic_to_sink(g, v)]
            assert len(path) == g.distance_to_sink()[i] == len(walk) - 1
            assert g.block_corners.ravel()[path].tolist() == walk[:-1]
            assert g.block_roots[path // 3].tolist() == walk[1:]
    g = build(1)
    assert g.path_to_sink(g.sink_index).tolist() == [] and geodesic_to_sink(g, g.sink) == [g.sink]


def test_geodesic_subgraph_origin(g1):
    # from the origin the geodesic subgraph is the whole diagonal chain
    assert geodesic_subgraph(g1, (0, 0)) == diagonal_vertices(g1)
    assert len(geodesic_subgraph(g1, (0, 0))) == 10


def test_geodesic_subgraph_adjacent_to_sink(g1):
    assert geodesic_subgraph(g1, (2, 3)) == {(2, 2), (2, 3), (3, 2), (3, 3)}


def _k4_blocks(g):
    """All K4 blocks, identified by a present diagonal edge."""
    blocks = []
    for v in g.vertices:
        x0, y0 = v
        block = {(x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1)}
        if all(g.contains(b) for b in block) and (x0 + 1, y0 + 1) in set(
            g.neighbors_of(v)
        ):
            blocks.append(block)
    return blocks


@pytest.mark.parametrize("x", [(7, 2), (4, 5), (1, 1), (0, 0), (5, 4), (8, 9)])
def test_geodesic_subgraph_is_block_chain(g2, x):
    # independent construction: union of the K4 blocks meeting the geodesic,
    # minus the vertices that x separates from the sink
    got = geodesic_subgraph(g2, x)
    path = set(geodesic_to_sink(g2, x))
    expected = set()
    for block in _k4_blocks(g2):
        if block & path:
            expected |= block
    below = hanging_from(g2.neighbors, g2.sink_index, g2.vertex_index(x))
    expected -= {g2.vertices[v] for v in below}
    assert got == expected


def test_geodesic_subgraph_level2_frozen(g2):
    assert geodesic_to_sink(g2, (7, 2)) == [
        (7, 2), (6, 3), (5, 4), (5, 5), (6, 6), (7, 7), (8, 8), (9, 9),
    ]
    got = geodesic_subgraph(g2, (7, 2))
    expected = {
        (4, 4), (4, 5), (5, 3), (5, 4), (5, 5), (5, 6), (6, 2), (6, 3),
        (6, 4), (6, 5), (6, 6), (6, 7), (7, 2), (7, 3), (7, 6), (7, 7),
        (7, 8), (8, 7), (8, 8), (8, 9), (9, 8), (9, 9),
    }
    assert got == expected
    with pytest.raises(ValueError):
        geodesic_subgraph(g2, g2.sink)


def test_graph_distance(g1):
    assert graph_distance(g1, (0, 0), (1, 1)) == 1
    assert graph_distance(g1, (0, 0), (3, 3)) == 3
    assert graph_distance(g1, (2, 2), (2, 2)) == 0
    assert graph_distance(g1, (0, 3), (3, 0)) == 3
    with pytest.raises(ValueError):
        graph_distance(g1, (0, 0), (9, 9))


def test_graph_distance_matches_networkx(g2, rng):
    G = nx_graph(g2)
    verts = g2.vertices
    for _ in range(40):
        v = verts[rng.integers(0, len(verts))]
        w = verts[rng.integers(0, len(verts))]
        assert graph_distance(g2, v, w) == nx.shortest_path_length(G, v, w)


def test_graph_distance_to_and_from_the_sink(g2):
    # the sink is (9, 9); the distances are networkx's
    cases = {(0, 0): 9, (0, 9): 9, (9, 0): 9, (0, 3): 9, (7, 2): 7, (3, 6): 6, (8, 9): 1}
    for v, d in cases.items():
        assert graph_distance(g2, v, g2.sink) == d
        assert graph_distance(g2, g2.sink, v) == d
    assert graph_distance(g2, g2.sink, g2.sink) == 0


@pytest.mark.parametrize(
    "kind, i", [("level", n) for n in range(5)] + [("chain", n) for n in (1, 2, 7, 30)]
)
def test_distances_from_match_bfs(kind, i):
    """The distances read off the vertex tree equal breadth-first search from
    every source, the sink included, on the Vicsek graphs and on nested
    volumes of the diagonal chain; the distances to the sink are the depths."""
    g = build(i) if kind == "level" else _chain_volume(i)
    for s in range(g.num_vertices):
        assert g.distances_from(s).tolist() == _bfs(g.neighbors, s), s
    assert g.distance_to_sink().tolist() == _bfs(g.neighbors, g.sink_index)


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_descendants_are_what_x_separates_from_the_sink(level):
    g = build(level)
    for x in range(g.num_vertices):
        want = {g.vertices[v] for v in hanging_from(g.neighbors, g.sink_index, x)}
        assert descendants(g, g.vertices[x]) == want


def test_kappa_examples():
    assert kappa(0) == 0
    assert kappa(8) == 4
    assert kappa(10) == 10
    assert ternary_digits(8) == [2, 2]


def test_ternary_examples():
    assert has_ternary_digit_two(2)
    assert not has_ternary_digit_two(10)
    assert has_ternary_digit_two(8)


@given(st.integers(min_value=0, max_value=10**9))
def test_kappa_properties(n):
    k = kappa(n)
    assert 0 <= k <= n
    assert kappa(k) == k  # output has only 0/1 digits
    assert (k == n) == (not has_ternary_digit_two(n))
    assert all(d <= 1 for d in ternary_digits(k))


@given(st.integers(min_value=0, max_value=10**6))
def test_ternary_digits_roundtrip(n):
    assert sum(d * 3**i for i, d in enumerate(ternary_digits(n))) == n

"""Independent reference implementations used only to cross-check the
package.  Everything here is written naively on purpose: single legal
topplings in explicit random order, dict-based bookkeeping, networkx for
structural queries, so that agreement with the engine is meaningful.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import networkx as nx
import numpy as np

from vicsek_sandpile import (
    MergeSpec,
    SandpileConfig,
    VicsekGraph,
    add_particles,
    build,
    enumerate_recurrent_k4,
    group_add,
    merge,
    sample_recurrent,
    stabilize_many,
)
from vicsek_sandpile.fractal_graph import BlockTree
from vicsek_sandpile.sandpile import _K4_BY_CLASS, _chain_volume, _glue, _k4_class, _stacks


def nx_graph(g: VicsekGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    for v in range(g.num_vertices):
        for w in g.neighbors[v]:
            if v < w:
                G.add_edge(g.vertices[v], g.vertices[w])
    return G


def five_copy_union(level: int) -> tuple[set, set]:
    """Vertex and edge sets of the level-n Vicsek graph as the union of five
    shifted copies of the level-(n-1) sets, edges as coordinate frozensets."""
    base = [(0, 0), (1, 0), (0, 1), (1, 1)]
    verts = set(base)
    edges = {frozenset((a, b)) for i, a in enumerate(base) for b in base[i + 1 :]}
    for k in range(1, level + 1):
        s = 3 ** (k - 1)
        offsets = [(0, 0), (s, s), (2 * s, 0), (0, 2 * s), (2 * s, 2 * s)]
        verts = {(x + dx, y + dy) for dx, dy in offsets for x, y in verts}
        edges = {
            frozenset((a[0] + dx, a[1] + dy) for a in e) for dx, dy in offsets for e in edges
        }
    return verts, {tuple(e) for e in edges}


def _bfs(neighbors: list[list[int]], source: int) -> list[int]:
    dist = [-1] * len(neighbors)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in neighbors[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def hanging_from(neighbors: list[list[int]], sink: int, v: int) -> set[int]:
    """The vertices that v separates from the sink: those a breadth-first
    search from the sink cannot reach without passing through v."""
    blocked = [[] if u == v else ws for u, ws in enumerate(neighbors)]
    return {u for u, d in enumerate(_bfs(blocked, sink)) if d < 0}


def chain_config(g: VicsekGraph, chain) -> SandpileConfig:
    """A configuration of g supported on its first m diagonal blocks, from
    the 3m heights of ``_chain_volume(m)`` by chain id: (j, j), (j, j + 1),
    (j + 1, j) at 3j, 3j + 1, 3j + 2."""
    heights = np.zeros(g.num_vertices - 1, dtype=np.int64)
    for cid, h in enumerate(np.asarray(chain, dtype=np.int64).tolist()):
        x, corner = divmod(cid, 3)
        heights[g.vertex_index([(x, x), (x, x + 1), (x + 1, x)][corner])] = h
    return SandpileConfig(heights)


def glued_chain(triples) -> np.ndarray:
    """The heights of ``_chain_volume(m)`` for m K4 triples (rows): each on
    its block's non-root corners, on top of the chain's glue (3 at each
    interior cutpoint), as ``sample_recurrent`` places them."""
    volume = _chain_volume(len(triples))
    heights = _glue(volume)
    heights[volume.block_corners] += np.asarray(triples, dtype=np.int64)
    return heights


def random_order_stabilize(g: VicsekGraph, c: SandpileConfig, rng: np.random.Generator):
    """Stabilize by repeatedly toppling one uniformly chosen unstable vertex.

    Returns (stable SandpileConfig, odometer array, particles at the sink).
    """
    heights = c.heights.copy()
    n = len(heights)
    deg = g.degrees
    odometer = np.zeros(n, dtype=np.int64)
    sink = g.sink_index
    sink_particles = 0
    while True:
        unstable = np.nonzero(heights >= deg[:n])[0]
        if len(unstable) == 0:
            break
        v = int(unstable[rng.integers(0, len(unstable))])
        heights[v] -= deg[v]
        odometer[v] += 1
        for w in g.neighbors[v]:
            if w == sink:
                sink_particles += 1
            else:
                heights[w] += 1
    return SandpileConfig(heights), odometer, sink_particles


def random_subset_stabilize(g: VicsekGraph, c: SandpileConfig, rng: np.random.Generator):
    """Stabilize by firing, at each step, a random non-empty subset of the
    unstable vertices, each once.  A step draws its inclusion probability p
    uniformly, then takes each unstable vertex with probability p; an empty
    draw fires one uniformly chosen unstable vertex instead.  Every firing
    is legal, and every subset, singletons included, has positive
    probability, so every single-toppling order keeps positive probability.

    Returns (stable SandpileConfig, odometer array, particles at the sink).
    """
    deg, adj = g.degrees[:-1], g.nonsink_adjacency
    heights = c.heights.copy()
    odometer = np.zeros_like(heights)
    while True:
        unstable = heights >= deg
        if not unstable.any():
            break
        fire = unstable & (rng.random(len(heights)) < rng.random())
        if not fire.any():
            fire[rng.choice(np.flatnonzero(unstable))] = True
        fire = fire.astype(np.int64)
        heights -= fire * deg
        heights += adj.dot(fire)
        odometer += fire
    return SandpileConfig(heights), odometer, int(g.sink_degrees @ odometer)


def apply_laplacian(g: VicsekGraph, u: np.ndarray) -> np.ndarray:
    """Reduced Laplacian times u (or each row of a stack of u): what firing
    u takes from each height."""
    return g.degrees[:-1] * u - (g.nonsink_adjacency @ u.T).T


def round_stabilize(g: VicsekGraph, c: SandpileConfig):
    """Stabilize in parallel rounds: each round fires every vertex
    floor(height / degree) times at once.  Every round is a batch of legal
    topplings, and there are at most as many rounds as the largest odometer
    entry.

    Returns (stable SandpileConfig, odometer array, particles at the sink).
    """
    deg, adj = g.degrees[:-1], g.nonsink_adjacency
    heights = c.heights.copy()
    odometer = np.zeros_like(heights)
    while True:
        fire = np.maximum(heights // deg, 0)
        if not fire.any():
            break
        heights -= fire * deg
        heights += adj.dot(fire)
        odometer += fire
    return SandpileConfig(heights), odometer, int(g.sink_degrees @ odometer)


def burns(g: VicsekGraph, c: SandpileConfig) -> bool:
    """Dhar's burning test run with the plain rounds: the stable c is
    recurrent when adding the sink's edges topples every vertex once and
    returns c."""
    out, odometer, _ = round_stabilize(g, SandpileConfig(c.heights + g.sink_degrees))
    return out == c and bool(np.all(odometer == 1))


def doubling_order(g: VicsekGraph, eta: SandpileConfig, identity: SandpileConfig) -> int:
    """Order of a recurrent configuration by repeated doubling with the
    engine; on Vicsek graphs every order divides 4."""
    if eta == identity:
        return 1
    squared = group_add(g, eta, eta)
    if squared == identity:
        return 2
    fourth = group_add(g, squared, squared)
    if fourth == identity:
        return 4
    raise ArithmeticError("element order exceeds 4; not a Vicsek sandpile group?")


def merge_identity(level: int) -> SandpileConfig:
    """The group identity by the five-copy merge recursion: all 2 at level
    0, then the merge of five copies of the previous identity with cutpoint
    bump 3 at level 1 and 2 at every later level."""
    current = SandpileConfig.constant(build(0), 2)
    for n in range(1, level + 1):
        k = 3 if n == 1 else 2
        current = merge(
            build(n), MergeSpec(k=k, lb=current, rb=current, rt=current, lt=current, mid=current)
        )
    return current


def exact_laplacian_solve(g: VicsekGraph, b) -> list[Fraction]:
    """z with L z = b for the reduced Laplacian L, by Gauss-Jordan
    elimination in exact rationals on the dense matrix built from the
    neighbour lists."""
    n = g.num_vertices - 1
    rows = []
    for v in range(n):
        row = [Fraction(0)] * n + [Fraction(int(b[v]))]
        row[v] = Fraction(len(g.neighbors[v]))
        for w in g.neighbors[v]:
            if w != g.sink_index:
                row[w] -= 1
        rows.append(row)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def exact_least_action_stabilize(g: VicsekGraph, c: SandpileConfig):
    """round_stabilize from the exact least-action bound.

    The odometer o of h satisfies L o >= h - (deg - 1) and L^-1 >= 0, so
    o >= ceil(z) with z = L^-1 (h - (deg - 1)) solved in exact rationals.
    Firing u0 = max(ceil(z), 0) first and then running the rounds gives the
    same result and odometer (least action principle).  This reaches piles
    far too large for the rounds alone, with no floats and no margin.
    """
    b = c.heights - (g.degrees[:-1] - 1)
    u0 = np.array([max(math.ceil(x), 0) for x in exact_laplacian_solve(g, b)], dtype=np.int64)
    fired = c.heights - apply_laplacian(g, u0)
    out, odometer, _ = round_stabilize(g, SandpileConfig(fired))
    odometer = odometer + u0
    return out, odometer, int(g.sink_degrees @ odometer)


def subgraph_stabilize(g: VicsekGraph, heights_map: dict, active: set, sink_vertex):
    """Naive stabilization of an induced subgraph whose only external
    neighbor is the designated sink vertex.  heights_map maps coordinates to
    heights; returns (new heights map, particles collected at the sink)."""
    h = dict(heights_map)
    collected = 0
    changed = True
    while changed:
        changed = False
        for v in sorted(active):
            dv = g.degree(v)
            while h[v] >= dv:
                h[v] -= dv
                changed = True
                for w in g.neighbors_of(v):
                    if w == sink_vertex:
                        collected += 1
                    else:
                        assert w in active, f"{w} leaks out of the volume"
                        h[w] += 1
    return h, collected


def nested_volume_counts(g: VicsekGraph, c: SandpileConfig, m: int) -> list[int]:
    """Boundary-flow oracle on the full graph: stabilize in the growing
    volumes made of everything whose geodesic to the global sink passes
    through (i, i), with (i, i) acting as the sink.  Works for arbitrary
    configurations supported anywhere in the volume (branches included)."""
    dist_sink = _bfs(g.neighbors, g.sink_index)
    heights = {v: int(c.heights[i]) for i, v in enumerate(g.vertices[:-1])}
    counts = []
    prev_volume: set = set()
    for i in range(1, m + 1):
        target = (i, i)
        ti = g.vertex_index(target)
        dist_t = _bfs(g.neighbors, ti)
        volume = {
            g.vertices[v]
            for v in range(g.num_vertices)
            if dist_sink[v] == dist_t[v] + dist_sink[ti] and v != ti
        }
        for v in volume - prev_volume:
            heights.setdefault(v, 0)
        heights_in = {v: heights[v] for v in volume}
        out, collected = subgraph_stabilize(g, heights_in, volume, target)
        heights.update(out)
        heights[target] = heights.get(target, 0) + collected
        counts.append(collected)
        prev_volume = volume
    return counts


def chain_queue_flow(heights: list[int], m: int, stop_at_absorption: bool = False) -> list[int]:
    """Nested-volume flow along the diagonal chain by a single-vertex queue:
    the particle counts arriving at (i, i) for i = 1..m.

    Chain ids: block j (1-based) has bottom-left 3(j-1), top-left
    3(j-1)+1, bottom-right 3(j-1)+2 and top-right 3j.  Volume i is
    K^1 u ... u K^i with 3i acting as sink; after it is stable, the
    particles collected at 3i join that vertex's height and volume i+1 is
    stabilized.  With stop_at_absorption, the trajectory is cut short once
    it hits 0 or reaches 4 (both values persist from that point on).
    """
    n = 3 * m + 1
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for j in range(m):
        block = (3 * j, 3 * j + 1, 3 * j + 2, 3 * j + 3)
        for a in range(4):
            for b in range(a + 1, 4):
                neighbors[block[a]].append(block[b])
                neighbors[block[b]].append(block[a])
    degree = [len(lst) for lst in neighbors]
    h = list(heights)
    counts: list[int] = []
    for i in range(1, m + 1):
        sink = 3 * i
        limit = sink  # ids < limit are active in volume i
        collected = 0
        queue = [v for v in range(limit) if h[v] >= degree[v]]
        in_queue = [False] * limit
        for v in queue:
            in_queue[v] = True
        while queue:
            v = queue.pop()
            in_queue[v] = False
            d = degree[v]
            fire = h[v] // d
            if fire <= 0:
                continue
            h[v] -= fire * d
            for w in neighbors[v]:
                if w == sink:
                    collected += fire
                else:  # neighbors of active vertices never exceed the sink id
                    h[w] += fire
                    if h[w] >= degree[w] and not in_queue[w]:
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


def k4_spanning_trees():
    """All spanning trees of K4 (vertices 0..3), as frozensets of edges."""
    from itertools import combinations

    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    trees = []
    for triple in combinations(edges, 3):
        seen = {triple[0][0]}
        grew = True
        while grew:
            grew = False
            for a, b in triple:
                if (a in seen) != (b in seen):
                    seen.update((a, b))
                    grew = True
        if len(seen) == 4:
            trees.append(frozenset(triple))
    return trees


def cofactor_determinant(mat) -> int:
    """Exact integer determinant by cofactor expansion (small matrices)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * cofactor_determinant(minor)
    return total


# ---------------------------------------------------------------------------
# Avalanche-radius masses from real dynamics.  Both oracles below work from
# the graph, the 16 recurrent K4 blocks and the toppling rule alone, with
# their own toppling loops and their own breadth-first distances.  Neither
# touches the package's chain algebra (transition matrix, trajectory events,
# kappa, radius formula).
# ---------------------------------------------------------------------------


def k4_topple(heights, added: int) -> tuple[frozenset[int], int]:
    """Stabilize one K4 block by hand, its root acting as the sink.

    Corner 0 (opposite the root) receives `added` particles; corners 1 and
    2 are the other two.  Every toppling sends one particle to each of the
    three other vertices.  Returns the toppled corners and the number of
    particles collected at the root.
    """
    h = [heights[0] + added, heights[1], heights[2]]
    toppled: set[int] = set()
    collected = 0
    while True:
        unstable = [v for v in range(3) if h[v] >= 3]
        if not unstable:
            return frozenset(toppled), collected
        v = unstable[0]
        h[v] -= 3
        toppled.add(v)
        collected += 1
        for w in range(3):
            if w != v:
                h[w] += 1


def exhaustive_radius_masses(max_radius: int) -> dict[int, Fraction]:
    """Avalanche-radius masses for n <= max_radius by exhaustive toppling on
    the level-2 graph.

    Every choice of the first max_radius + 2 diagonal blocks (16^5 for
    radius 3) is built as a configuration: each block's non-root corners take
    its heights, plus 3 where the corner is also the root of another block.
    Every other vertex sits at its max-stable height deg - 1, which is the
    all-2 recurrent state in every block.  One particle is added at the
    origin and all unstable vertices topple in parallel rounds until the
    configuration is stable; n = 0 collects the empty and the origin-only
    toppled sets.

    The origin is the only unstable vertex at the start, so it is in every
    non-empty toppled set, and a toppling at distance > max_radius from it
    proves a diameter > max_radius: such rows stop there.  Until then no
    particle travels beyond distance max_radius + 1, so the dynamics are
    followed exactly on the ball of that radius around the origin; every
    diagonal-chain vertex of the ball is a corner of an enumerated block.
    Diameters are full-graph distances, one evaluation per distinct toppled
    set.
    """
    if not 0 <= max_radius <= 3:
        raise ValueError("16^(max_radius + 2) configurations: radii up to 3 only")
    g = build(2)
    prefix = max_radius + 2
    nbrs = [list(ws) for ws in g.neighbors]
    dist0 = _bfs(nbrs, g.vertex_index((0, 0)))
    ball = [v for v in range(g.num_vertices) if dist0[v] <= max_radius + 1]
    col = {v: i for i, v in enumerate(ball)}
    m = len(ball)
    # column m is a dummy that never topples: neighbours outside the ball
    deg = np.array([len(nbrs[v]) for v in ball] + [127], dtype=np.int8)
    rim = np.array([dist0[v] == max_radius + 1 for v in ball] + [False])
    nb = np.full((m + 1, max(map(len, nbrs))), m, dtype=np.intp)
    for i, v in enumerate(ball):
        inside = [col[w] for w in nbrs[v] if w in col]
        nb[i, : len(inside)] = inside

    blocks = np.array([c.as_tuple() for c in enumerate_recurrent_k4()], dtype=np.int8)
    base = deg - 1
    base[m] = 0
    corners = []  # (block, corner, column) for the corners inside the ball
    for j in range(1, prefix + 1):
        for c, v in enumerate(((j - 1, j - 1), (j - 1, j), (j, j - 1))):
            if g.vertex_index(v) in col:
                corners.append((j - 1, c, col[g.vertex_index(v)]))
    chain_cols = {col[v] for v in ball if abs(g.vertices[v][0] - g.vertices[v][1]) <= 1}
    assert chain_cols == {k for _, _, k in corners}
    bits = np.array([1 << i for i in range(m)] + [0], dtype=np.int64)

    # one chunk per first block; rows enumerate the remaining prefix blocks
    rest = np.indices((16,) * (prefix - 1)).reshape(prefix - 1, -1)
    settled, escaped = [], 0
    for first in range(16):
        choice = np.vstack([np.full(rest.shape[1], first), rest])
        heights = np.tile(base, (rest.shape[1], 1))
        for j, c, k in corners:
            heights[:, k] = blocks[choice[j], c] + deg[k] - 3
        heights[:, col[g.vertex_index((0, 0))]] += 1
        toppled = np.zeros(len(heights), dtype=np.int64)  # bit per column
        while len(heights):
            unstable = heights >= deg
            live = unstable.any(axis=1)
            far = (unstable & rim).any(axis=1)
            settled.append(toppled[~live])
            escaped += int(np.count_nonzero(far))
            keep = live & ~far
            heights, unstable, toppled = heights[keep], unstable[keep], toppled[keep]
            toppled |= unstable @ bits
            heights -= unstable * deg
            heights += unstable[:, nb].sum(axis=2, dtype=np.int8)
    codes, counts = np.unique(np.concatenate(settled), return_counts=True)
    assert int(counts.sum()) + escaped == 16**prefix

    dist = np.array([[_bfs(nbrs, v)[w] for w in ball] for v in ball])
    tally = dict.fromkeys(range(max_radius + 1), 0)
    for code, count in zip(codes.tolist(), counts.tolist()):
        members = [i for i in range(m) if code >> i & 1]
        diameter = int(dist[np.ix_(members, members)].max()) if members else 0
        if diameter <= max_radius:
            tally[diameter] += count
    return {n: Fraction(k, 16**prefix) for n, k in tally.items()}


def burning_radius_masses(max_radius: int) -> dict[int, Fraction]:
    """Avalanche-radius masses for n <= max_radius, assembled exactly on the
    level-3 graph from the burning test.

    X_K counts the particles that reach the diagonal cutpoint (K, K) once
    everything behind it is stable; X_0 = 1 is the added particle.  A
    cutpoint with a recurrent volume behind it gets back one particle per
    edge into that volume each time it topples (the burning test), so every
    diagonal block acts as a lone K4 fed at the corner opposite its root,
    and the law of X_K follows from k4_topple over the 16 uniform blocks.

    If (K, K) is the last cutpoint to topple, the toppled set is (K, K),
    everything behind it, and the toppled corners of block K + 1 together
    with their branches (each burns completely too).  The next cutpoint
    stays stable with the chance that its own block cannot take the X_{K+1}
    particles it receives.  The diameter is computed by breadth-first search
    once per (K, toppled corners); n = 0 collects the no-topple case.
    """
    g = build(3)
    if not 0 <= max_radius <= 3 ** g.level - 2:
        raise ValueError("the toppled blocks must stay inside the level-3 graph")
    nbrs = [list(ws) for ws in g.neighbors]
    dist_rows: dict[int, list[int]] = {}

    def behind(v: int) -> set[int]:
        """v and every vertex that v separates from the sink."""
        return hanging_from(nbrs, g.sink_index, v) | {v}

    def diameter(members: set[int]) -> int:
        for u in members:
            if u not in dist_rows:
                dist_rows[u] = _bfs(nbrs, u)
        return max(dist_rows[a][b] for a in members for b in members)

    blocks = [c.as_tuple() for c in enumerate_recurrent_k4()]
    quiet = {y: Fraction(sum(s[0] + y < 3 for s in blocks), 16) for y in range(5)}
    masses = dict.fromkeys(range(max_radius + 1), Fraction(0))
    masses[0] += quiet[1]  # the origin itself stays stable
    law = {1: Fraction(1)}  # X_0
    for K in range(max_radius + 1):
        corners = [
            g.vertex_index(v) for v in ((K, K), (K, K + 1), (K + 1, K))
        ]
        diameters: dict[frozenset[int], int] = {}
        nxt: dict[int, Fraction] = {}
        for x, px in law.items():
            for s in blocks:
                toppled, y = k4_topple(s, x)
                weight = px / 16
                if y:
                    nxt[y] = nxt.get(y, 0) + weight
                if 0 not in toppled:
                    continue
                if toppled not in diameters:
                    members = set().union(*(behind(corners[c]) for c in toppled))
                    diameters[toppled] = diameter(members)
                d = diameters[toppled]
                if d <= max_radius:
                    masses[d] += weight * quiet[y]
        law = nxt
    return masses


def exact_sum_representative(g: BlockTree, heights: np.ndarray) -> np.ndarray:
    """The recurrent representative of heights by the leaves-first sweep on
    exact sums: per block, deepest first, the corner heights as updated from
    below less the glue are replaced by the recurrent K4 triple of their
    class, and the whole difference passes to the root.  A stack of rows is
    swept as one forest: row i is a copy of the tree on slots i(n + 1) to
    i(n + 1) + n, its sink last."""
    glue = _glue(g)
    n = len(glue)
    local = np.zeros((heights.size // n, n + 1), dtype=np.int64)
    local[:, :-1] = heights.reshape(-1, n) - glue
    shift = (n + 1) * np.arange(len(local))[:, None]
    local = local.ravel()
    for roots, corners in g.block_levels:
        roots, corners = roots + shift, (corners.ravel() + shift).reshape(-1, 3)
        q = local[corners]
        t = _K4_BY_CLASS[_k4_class(q)]
        local[roots.ravel()] += (q - t).sum(axis=1)
        local[corners] = t
    return (local.reshape(-1, n + 1)[:, :-1] + glue).reshape(heights.shape)


def engine_sink_hits(g: VicsekGraph, x, k: int, samples: int, rng) -> int:
    """How many of ``samples`` uniform recurrent configurations plus k
    particles at x send at least one particle to the sink, each stabilized
    by the engine: ``sample_recurrent`` draws the samples from one stream,
    and ``stabilize_many`` takes them in ``_stacks``."""
    rng = np.random.default_rng(rng)
    rows = (add_particles(g, sample_recurrent(g, rng), x, k) for _ in range(samples))
    return sum(
        report.sink_particles >= 1
        for stack in _stacks(g, rows)
        for _, report in stabilize_many(g, stack)
    )

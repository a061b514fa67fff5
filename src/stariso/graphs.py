"""Immutable graph and tree representations with the structural statistics,
distances, enumeration and canonical forms that the rest of the package
consumes.

Vertices are 0-based contiguous integers.  Graphs are simple and undirected;
a Tree is a Graph that also caches leaf/support statistics and its rooted
view at vertex 0 (BFS order and parent array) at construction.  Traversals
live in two functions: ``bfs_order`` (single-source order and parents) and
``bfs_distances`` (multi-source distances).

Free trees are enumerated here, without third-party code:
``free_tree_levels`` yields one compact level sequence per isomorphism
class (what the sweep ships to its workers), ``level_edges`` turns one into
an edge list, ``level_tree`` into a validated Tree without the edge-list
build, and ``enumerate_free_trees`` yields those Trees.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from typing import Iterable, Iterator, NamedTuple

#: Number of free (unlabeled) trees on n vertices, n = 1..20 (OEIS A000055).
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551,
                    1301, 3159, 7741, 19320, 48629, 123867, 317955, 823065)

MAX_ENUMERATION_ORDER = 20


class GraphError(ValueError):
    """Raised for malformed graph input (bad edges, non-tree, parse errors)."""


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Adjacency is stored once, as sorted neighbor tuples, so memory grows
    linearly in n + m; instances are immutable after construction and safe
    to share across workers.
    """

    __slots__ = ("n", "adjacency", "edge_count")

    def __init__(self, n: int, adjacency: tuple[tuple[int, ...], ...]):
        self.n = n
        self.adjacency = adjacency
        self.edge_count = sum(map(len, adjacency)) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def is_connected(self) -> bool:
        return self.n > 0 and len(bfs_order(self, 0)[0]) == self.n

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on the given vertices.

        Returns the subgraph (reindexed 0..m-1) together with the map from
        new indices back to original vertex labels.
        """
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        adjacency = tuple(
            tuple(index[w] for w in self.adjacency[v] if w in index) for v in keep
        )
        return Graph(len(keep), adjacency), tuple(keep)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={self.edges()})"


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection for a bulk build of tracked objects
    (edge tuples, per-vertex lists), whose collections cost a large share
    of a 10^6-vertex parse or build.  The caller's GC state is restored on
    exit, also on error."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph from an edge list.

    Rejects out-of-range endpoints, self-loops and duplicate edges, naming
    the first offending edge in input order.  Runs under ``gc_paused``.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    with gc_paused():
        edges = list(edges)  # a fault is named by a second, sequential pass
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u != v and 0 <= u < n and 0 <= v < n:
                neighbors[u].append(v)
                neighbors[v].append(u)
            else:
                raise GraphError(_first_edge_fault(n, edges))
        for a in neighbors:
            if len(a) > 1:
                a.sort()
                # a repeated edge shows up as two equal neighbors side by side
                previous = -1
                for w in a:
                    if w == previous:
                        raise GraphError(_first_edge_fault(n, edges))
                    previous = w
        return Graph(n, tuple(map(tuple, neighbors)))


def bfs_order(g: Graph, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from root, neighbors taken in adjacency order,
    and the parent of every vertex: ``parent[root] == root``, and vertices
    off root's component keep -1 (and are absent from the order)."""
    adjacency = g.adjacency
    parent = [-1] * g.n
    parent[root] = root
    order = [root]
    for u in order:
        for v in adjacency[u]:
            if parent[v] < 0:
                parent[v] = u
                order.append(v)
    return order, parent


def bfs_distances(g: Graph, sources: Iterable[int]) -> list[int]:
    """Distance from every vertex to its nearest source; -1 where no source
    reaches."""
    adjacency = g.adjacency
    dist = [-1] * g.n
    queue = list(sources)
    for s in queue:
        dist[s] = 0
    for u in queue:
        d = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = d
                queue.append(v)
    return dist


def _first_edge_fault(n: int, edges: list[tuple[int, int]]) -> str:
    """Describe the first edge, in input order, that breaks simplicity."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range for n={n}"
        if u == v:
            return f"self-loop ({u}, {v})"
        key = (min(u, v), max(u, v))
        if key in seen:
            return f"duplicate edge ({u}, {v})"
        seen.add(key)
    raise RuntimeError(f"edge list on n={n} has no fault to report")


class Tree(Graph):
    """A validated tree: a connected acyclic Graph plus cached statistics.

    A Tree is a Graph, sharing the adjacency of the graph it was built
    from, so every graph-level function takes a tree as it is.  A single
    vertex counts as a tree with no leaves (leaf order 0).  ``order`` and
    ``parent`` are ``bfs_order(t, 0)``, the rooted view that ``as_tree``
    checks connectivity with and the DP walks.
    """

    __slots__ = ("leaf_set", "support_set", "strong_support_set", "max_degree",
                 "order", "parent")

    def __init__(self, graph: Graph):
        self.n, self.edge_count = graph.n, graph.edge_count
        self.adjacency = adjacency = graph.adjacency
        leaves = [v for v, a in enumerate(adjacency) if len(a) == 1]
        # a support is a leaf's only neighbor; a strong one is reached twice
        support = set()
        strong = set()
        for v in leaves:
            s = adjacency[v][0]
            if s in support:
                strong.add(s)
            else:
                support.add(s)
        self.leaf_set = frozenset(leaves)
        self.support_set = frozenset(support)
        self.strong_support_set = frozenset(strong)
        self.max_degree = max(map(len, adjacency), default=0)
        self.order, self.parent = bfs_order(self, 0) if self.n else ([], [])

    def rooted(self, root: int) -> tuple[list[int], list[int]]:
        """``bfs_order(t, root)``: the stored view for root 0, computed
        afresh (not cached) for any other root."""
        if not 0 <= root < self.n:
            raise GraphError(f"root {root} out of range for n={self.n}")
        if root == 0:
            return self.order, self.parent
        return bfs_order(self, root)

    @property
    def leaf_order(self) -> int:
        return len(self.leaf_set)

    @property
    def support_count(self) -> int:
        return len(self.support_set)


def as_tree(g: Graph) -> Tree:
    """Validate that g is a tree (connected, acyclic) and cache statistics."""
    if g.n == 0:
        raise GraphError("the empty graph is not a tree")
    if g.edge_count != g.n - 1:
        raise GraphError(f"cyclic: {g.edge_count} edges on {g.n} vertices")
    t = Tree(g)
    if len(t.order) != g.n:
        raise GraphError("disconnected")
    return t


def is_star(t: Tree, k: int) -> bool:
    """True iff t is the star with exactly k edges (K_{1,k})."""
    return t.n == k + 1 and t.max_degree == k


def is_any_star(t: Tree) -> bool:
    """True iff t is K_{1,m} for some m >= 2 (one center, all else leaves)."""
    return t.n >= 3 and t.max_degree == t.n - 1


def closed_neighborhood(g: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """N[D]: the vertices of D together with all their neighbors."""
    result = set()
    for v in vertices:
        result.add(v)
        result.update(g.adjacency[v])
    return frozenset(result)


class PathWitness(NamedTuple):
    """A concrete longest path: consecutive vertices adjacent, all distinct."""

    vertices: tuple[int, ...]
    length: int


def diameter_path(t: Tree) -> PathWitness:
    """Return a diametral path of t in O(n).

    Among all diametral paths in either orientation the returned path
    maximizes deg(u_1); ties break toward the smallest (u_0, u_d) endpoint
    pair.  Requires n >= 2.
    """
    if t.n < 2:
        raise GraphError("diameter path needs at least 2 vertices")
    # the last vertex of a BFS order is farthest from its root, hence an
    # endpoint of some diametral path
    a = t.order[-1]
    from_a = bfs_distances(t, [a])
    b = from_a.index(max(from_a))
    from_b = bfs_distances(t, [b])
    diam = from_a[b]
    # in a tree ecc(x) = max(d(a, x), d(b, x)), so the diametral endpoints
    # are the vertices where that maximum reaches diam; they are leaves
    # (or n = 2), so u_1 is their only neighbor
    adjacency = t.adjacency
    u = min(
        (x for x in range(t.n) if max(from_a[x], from_b[x]) == diam),
        key=lambda x: (-len(adjacency[adjacency[x][0]]), x),
    )
    from_u = bfs_distances(t, [u])
    path = [from_u.index(diam)]
    for d in range(diam - 1, -1, -1):
        path.append(next(w for w in adjacency[path[-1]] if from_u[w] == d))
    path.reverse()
    return PathWitness(tuple(path), diam)


# ---------------------------------------------------------------------------
# Canonical form (center-rooted AHU level encoding)
# ---------------------------------------------------------------------------

def far_path(t: Tree) -> list[int]:
    """A diametral path of t from one BFS: it runs from the last vertex of
    a BFS from ``t.order[-1]`` back to ``t.order[-1]``, itself the far end
    of a BFS from 0 and hence an end of some diametral path.  Its length,
    ``len(path) - 1``, is the diameter, and its middle holds the centers."""
    a = t.order[-1]
    order, parent = bfs_order(t, a)
    path = [order[-1]]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path


def _middle(path: list[int]) -> list[int]:
    """The 1 or 2 middle vertices of a path, sorted."""
    d = len(path) - 1
    return sorted(path[d // 2:(d + 1) // 2 + 1])


def tree_centers(t: Tree) -> list[int]:
    """The 1 or 2 centers of a tree: the middle of ``far_path(t)``."""
    return _middle(far_path(t))


def _rooted_code(t: Tree, root: int) -> bytes:
    """AHU parenthesis code of the tree rooted at root (iterative)."""
    order, parent = t.rooted(root)
    adjacency = t.adjacency
    code = [b""] * t.n
    for u in reversed(order):
        p = parent[u]
        children = sorted(code[v] for v in adjacency[u] if v != p)
        code[u] = b"1" + b"".join(children) + b"0"
    return code[root]


def canonical_code(t: Tree) -> bytes:
    """Isomorphism-invariant code: equal codes iff isomorphic trees.

    Roots at the tree center; for bicentral trees takes the lexicographic
    minimum over the two center rootings.

    Meant for small trees: the cost is quadratic on long paths (6-7 s
    for a path of 10^5 vertices on a 2-vCPU host).  No CLI command or
    sweep path calls it; the sweep calls ``centered_code`` on trees of at
    most 20 vertices.
    """
    return centered_code(t, far_path(t))


def centered_code(t: Tree, path: list[int]) -> bytes:
    """``canonical_code(t)`` from a diametral path of t that the caller
    already holds, such as ``far_path(t)``: every diametral path has the
    centers in its middle."""
    return min(_rooted_code(t, c) for c in _middle(path))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def prufer_decode(seq: Iterable[int]) -> Tree:
    """Decode a Prufer sequence into its labeled tree on len(seq)+2 vertices.

    The standard bijection: repeatedly join the smallest remaining degree-1
    label to the next sequence entry.
    """
    seq = list(seq)
    n = len(seq) + 2
    for entry in seq:
        if not (0 <= entry < n):
            raise GraphError(f"Prufer entry {entry} out of range for n={n}")
    degree = [1] * n
    for entry in seq:
        degree[entry] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for entry in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, entry))
        degree[entry] -= 1
        if degree[entry] == 1:
            heapq.heappush(leaves, entry)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return as_tree(build_graph(n, edges))


def free_tree_levels(n: int) -> Iterator[tuple[int, ...]]:
    """Yield one level sequence per isomorphism class of trees on n vertices.

    A level sequence lists each vertex's distance from the root; vertex i's
    parent is the last earlier vertex one level up (``level_edges``).  This
    is the Wright-Richmond-Odlyzko-McKay generator (SIAM J. Comput. 15,
    1986): the Beyer-Hedetniemi successor walks rooted trees in decreasing
    lexicographic order of their level sequences, and a jump skips every
    rooting that is not the canonical one of its free tree.  It starts
    from the path rooted at its center, and the stream matches networkx's
    ``nonisomorphic_trees`` tree for tree and label for label.
    """
    if not (1 <= n <= MAX_ENUMERATION_ORDER):
        raise GraphError(f"enumeration supports 1 <= n <= {MAX_ENUMERATION_ORDER}, got {n}")
    if n <= 2:
        yield tuple(range(n))
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        # split the root's first subtree (vertices 1..m-1) from the rest
        m = _second_child(levels)
        left_height = max(levels[1:m]) - 1
        rest_height = max(levels[m:], default=0)
        # a rooting is canonical if the first subtree is no higher than the
        # rest, on a tie no larger, and on equal size not later in
        # lexicographic order
        canonical = rest_height > left_height or (
            rest_height == left_height
            and (2 * m < n + 2
                 or (2 * m == n + 2
                     and [x - 1 for x in levels[1:m]] <= [0, *levels[m:]])))
        if not canonical:
            # jump: advance the first subtree; if it was deeper than 2, the
            # tail becomes the path 1, 2, ..., h hanging from the root, h
            # being the deepest level of the new first subtree
            p = m - 1
            deep = levels[p] > 2
            _next_rooted(levels, p)
            if deep:
                height = max(levels[1:_second_child(levels)])
                levels[n - height:] = range(1, height + 1)
        yield tuple(levels)
        p = n - 1
        while levels[p] == 1:
            p -= 1
        if p == 0:
            return
        _next_rooted(levels, p)


def _second_child(levels: list[int]) -> int:
    """Index of the root's second child, or len(levels) if it has one."""
    m = 2
    while m < len(levels) and levels[m] != 1:
        m += 1
    return m


def _next_rooted(levels: list[int], p: int) -> None:
    """Beyer-Hedetniemi successor in place: from position p on, repeat the
    levels that start at p's parent q."""
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    for i in range(p, len(levels)):
        levels[i] = levels[i - p + q]


def level_edges(levels: tuple[int, ...]) -> list[tuple[int, int]]:
    """The edges (vertex, parent) of the rooted tree with these levels."""
    last = [0] * len(levels)  # last[d]: the latest vertex seen at level d
    edges = []
    for v in range(1, len(levels)):
        d = levels[v]
        edges.append((v, last[d - 1]))
        last[d] = v
    return edges


def level_tree(levels: tuple[int, ...]) -> Tree:
    """The rooted tree with these levels as a validated Tree, labels being
    level-sequence indices: equal to ``as_tree(build_graph(n,
    level_edges(levels)))``.  A vertex's parent comes before it and its
    children after it, in ascending order, so the neighbor tuples come
    out sorted with no sort and no duplicate scan."""
    adjacency: list[list[int]] = [[] for _ in levels]
    for v, p in level_edges(levels):
        adjacency[v].append(p)
        adjacency[p].append(v)
    return as_tree(Graph(len(levels), tuple(map(tuple, adjacency))))


def enumerate_free_trees(n: int) -> Iterator[Tree]:
    """Yield one representative per isomorphism class of trees on n vertices,
    in ``free_tree_levels`` order; vertex labels are level-sequence indices.

    The test suite pins the stream to networkx's ``nonisomorphic_trees``
    and cross-checks it against a Prufer-decode-and-deduplicate oracle and
    the known class counts.
    """
    for levels in free_tree_levels(n):
        yield level_tree(levels)

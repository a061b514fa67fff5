"""Graph construction, tree statistics, canonical forms, enumeration and
file formats."""

import gc
import hashlib
import itertools
import random
import tracemalloc
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stariso.families import corona_shape, recognize_char_orderminusleaves
from stariso.formats import format_edgelist, parse_edgelist, parse_graph6
from stariso.graphs import (
    FREE_TREE_COUNTS,
    Graph,
    GraphError,
    Tree,
    as_tree,
    bfs_distances,
    bfs_order,
    build_graph,
    canonical_code,
    closed_neighborhood,
    diameter_path,
    enumerate_free_trees,
    far_path,
    free_tree_levels,
    is_any_star,
    is_star,
    level_edges,
    level_tree,
    prufer_decode,
)
from stariso.solver import (
    certificate_failures,
    iota_bruteforce,
    is_isolating,
    isolation_certificate,
    residual_degrees,
)

from bound_helpers import strong_supports


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(k):
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])


def tree_centers(t):
    """The 1 or 2 centers of a tree, sorted: the middle of ``far_path(t)``."""
    path = far_path(t)
    d = len(path) - 1
    return sorted(path[d // 2:(d + 1) // 2 + 1])


@st.composite
def random_trees(draw, min_n=2, max_n=10):
    n = draw(st.integers(min_n, max_n))
    if n == 2:
        return as_tree(build_graph(2, [(0, 1)]))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(seq)


def first_fault(n, edges):
    """Reference validator: the message for the first bad edge, in input
    order, or None for a simple graph."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range for n={n}"
        if u == v:
            return f"self-loop ({u}, {v})"
        if frozenset((u, v)) in seen:
            return f"duplicate edge ({u}, {v})"
        seen.add(frozenset((u, v)))
    return None


@st.composite
def edge_lists_with_faults(draw):
    """A simple edge list on n vertices with out-of-range, self-loop and
    duplicate edges inserted at random positions."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          max_size=10, unique_by=frozenset))
    for kind in draw(st.lists(st.sampled_from(["range", "loop", "dup"]), max_size=3)):
        if kind == "range":
            bad = (draw(st.sampled_from([-1, n, n + 3])), draw(vertex))
            edge = bad if draw(st.booleans()) else bad[::-1]
            pos = draw(st.integers(0, len(edges)))
        elif kind == "loop":
            v = draw(vertex)
            edge = (v, v)
            pos = draw(st.integers(0, len(edges)))
        else:
            if not edges:
                continue
            i = draw(st.integers(0, len(edges) - 1))
            edge = edges[i] if draw(st.booleans()) else edges[i][::-1]
            pos = draw(st.integers(i + 1, len(edges)))
        edges.insert(pos, edge)
    return n, edges


class TestBuildGraph:
    @given(edge_lists_with_faults())
    @settings(max_examples=300, deadline=None)
    def test_names_the_same_fault_as_a_sequential_check(self, case):
        n, edges = case
        expected = first_fault(n, edges)
        if expected is None:
            g = build_graph(n, edges)
            assert g.adjacency == tuple(
                tuple(sorted({v for e in edges for v in e if u in e and v != u}))
                for u in range(n)
            )
        else:
            with pytest.raises(GraphError) as excinfo:
                build_graph(n, iter(edges))
            assert str(excinfo.value) == expected

    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.edge_count == 1
        assert g.adjacency == ((1,), (0,))

    def test_path_construction(self):
        g = path_graph(4)
        assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]

    def test_star_construction(self):
        g = star_graph(4)
        assert g.degree(0) == 4
        assert all(g.degree(v) == 1 for v in range(1, 5))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match=r"\(0, 5\) out of range"):
            build_graph(3, [(0, 5)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match=r"self-loop \(1, 1\)"):
            build_graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(3, [(0, 1), (0, 1)])
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(3, [(0, 1), (1, 0)])

    def test_adjacency_sorted(self):
        g = build_graph(4, [(2, 0), (3, 0), (1, 0)])
        assert g.adjacency[0] == (1, 2, 3)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_callers_gc_state(self, enabled):
        # build_graph and parse_edgelist pause GC through graphs.gc_paused
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert build_graph(3, [(0, 1), (1, 2)]).edge_count == 2
            assert gc.isenabled() is enabled
            with pytest.raises(GraphError, match="duplicate"):
                build_graph(3, [(0, 1), (1, 0)])
            assert gc.isenabled() is enabled
            assert parse_edgelist("3\n0 1\n1 2\n").edge_count == 2
            assert gc.isenabled() is enabled
            for bad, message in [("3\n0 1\n1 0\n", "duplicate"), ("3\n0 1\n1 x\n", "bad edge"),
                                 ("3\n0 1\n1\n", "expected 'u v'"), ("9\n0 1\n", "exceeds")]:
                with pytest.raises(GraphError, match=message):
                    parse_edgelist(bad)
                assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_parse_builds_edges_with_gc_paused(self, monkeypatch):
        import stariso.formats

        states = []

        def recording_build(n, edges):
            states.append(gc.isenabled())
            return build_graph(n, edges)

        monkeypatch.setattr(stariso.formats, "build_graph", recording_build)
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            assert parse_edgelist("3\n0 1\n1 2\n").edge_count == 2
            assert states == [False] and gc.isenabled()
        finally:
            gc.enable() if was_enabled else gc.disable()


class TestAsTree:
    def test_path_statistics(self):
        t = as_tree(path_graph(6))
        assert t.leaf_order == 2
        assert t.support_count == 2
        assert t.max_degree == 2
        assert strong_supports(t) == set()

    def test_star_statistics(self):
        t = as_tree(star_graph(4))
        assert t.leaf_order == 4
        assert t.support_set == frozenset({0})
        assert strong_supports(t) == {0}
        assert t.max_degree == 4

    def test_cycle_rejected(self):
        c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(GraphError, match="cyclic"):
            as_tree(c4)

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError, match="cyclic|disconnected"):
            as_tree(g)

    def test_single_vertex_has_no_leaves(self):
        t = as_tree(build_graph(1, []))
        assert t.leaf_order == 0

    def test_star_predicates(self):
        assert is_star(as_tree(star_graph(3)), 3)
        assert not is_star(as_tree(star_graph(3)), 2)
        assert is_star(as_tree(path_graph(2)), 1)
        assert is_any_star(as_tree(star_graph(2)))
        assert not is_any_star(as_tree(path_graph(4)))

    @given(random_trees(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_statistics_match_definitions(self, t):
        leaves = {v for v in range(t.n) if t.degree(v) == 1}
        leaf_neighbors = [sum(1 for w in t.adjacency[v] if w in leaves) for v in range(t.n)]
        assert t.leaf_set == leaves
        assert t.support_set == {v for v in range(t.n) if leaf_neighbors[v] >= 1}
        assert t.max_degree == max(t.degree(v) for v in range(t.n))

    @given(random_trees(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_leaf_count_identity(self, t):
        # l = 2 + sum over degrees i >= 3 of n_i (i - 2), for any tree n >= 2
        expected = 2 + sum(
            t.degree(v) - 2 for v in range(t.n) if t.degree(v) >= 3
        )
        assert t.leaf_order == expected
        assert t.leaf_order >= 2


class TestClosedNeighborhood:
    def test_path_center(self):
        g = path_graph(3)
        assert closed_neighborhood(g, {1}) == frozenset({0, 1, 2})

    def test_empty_set(self):
        assert closed_neighborhood(path_graph(4), set()) == frozenset()

    def test_star_leaf(self):
        g = star_graph(4)
        assert closed_neighborhood(g, {2}) == frozenset({0, 2})


class TestDiameterPath:
    def test_path(self):
        w = diameter_path(as_tree(path_graph(6)))
        assert w.length == 5
        assert len(w.vertices) == 6

    def test_star(self):
        assert diameter_path(as_tree(star_graph(3))).length == 2

    def test_too_small(self):
        with pytest.raises(GraphError):
            diameter_path(as_tree(build_graph(1, [])))

    def test_maximize_second_vertex_degree(self):
        # 4-path with 3 extra leaves on vertex 1: every longest path can
        # start either side, and the heavy vertex must win as u_1
        edges = [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (1, 6)]
        t = as_tree(build_graph(7, edges))
        w = diameter_path(t)
        assert w.length == 3
        assert w.vertices[1] == 1
        assert t.degree(w.vertices[1]) == 5

    @given(random_trees(max_n=12))
    @settings(max_examples=60, deadline=None)
    def test_length_is_max_eccentricity(self, t):
        ecc = max(
            max(bfs_distances(t, [v])) for v in range(t.n)
        )
        w = diameter_path(t)
        assert w.length == ecc
        # witness really is a path
        for u, v in zip(w.vertices, w.vertices[1:]):
            assert t.has_edge(u, v)
        assert len(set(w.vertices)) == len(w.vertices)

    def test_matches_all_pairs_rule(self):
        # reference: over every ordered diametral pair (u, v), the path
        # minimizing (-deg(u_1), u, v), found from all-pairs BFS rows
        def reference(t):
            rows = [bfs_distances(t, [v]) for v in range(t.n)]
            diam = max(map(max, rows))

            def path(u, v):
                p = [u]
                while p[-1] != v:
                    p.append(next(w for w in t.adjacency[p[-1]]
                                  if rows[w][v] == rows[p[-1]][v] - 1))
                return tuple(p)

            _, u, v = min(
                (-t.degree(path(u, v)[1]), u, v)
                for u in range(t.n) for v in range(t.n) if rows[u][v] == diam
            )
            return path(u, v), diam

        for n in range(2, 11):
            for t in enumerate_free_trees(n):
                for tree in (t, relabel(t, list(range(n))[::-1])):
                    w = diameter_path(tree)
                    assert (w.vertices, w.length) == reference(tree)


def relabel(t, perm):
    edges = [(perm[u], perm[v]) for u, v in t.edges()]
    return as_tree(build_graph(t.n, edges))


class TestRootedView:
    def test_matches_a_reference_bfs_at_every_root(self):
        def reference(g, root):
            parent = {root: root}
            order = []
            queue = deque([root])
            while queue:
                u = queue.popleft()
                order.append(u)
                for v in g.adjacency[u]:
                    if v not in parent:
                        parent[v] = u
                        queue.append(v)
            return order, [parent.get(v, -1) for v in range(g.n)]

        for n in range(1, 10):
            for t in enumerate_free_trees(n):
                assert (t.order, t.parent) == reference(t, 0)
                for r in range(n):
                    assert t.rooted(r) == reference(t, r)

    @given(random_trees(max_n=12), st.integers(0, 11))
    @settings(max_examples=80, deadline=None)
    def test_order_is_a_permutation_with_parents_first(self, t, r):
        order, parent = t.rooted(r % t.n)
        assert sorted(order) == list(range(t.n))
        position = {v: i for i, v in enumerate(order)}
        assert parent[order[0]] == order[0]
        for v in order[1:]:
            assert position[parent[v]] < position[v]
            assert t.has_edge(parent[v], v)

    def test_disconnected_tree_object_keeps_minus_one_off_component(self):
        t = Tree(build_graph(5, [(0, 1), (1, 2), (3, 4)]))
        assert (t.order, t.parent) == ([0, 1, 2], [0, 0, 1, -1, -1])
        assert bfs_order(t, 3) == ([3, 4], [-1, -1, -1, 3, 3])

    def test_empty_tree_object_has_an_empty_view(self):
        empty = Tree(build_graph(0, []))
        assert (empty.order, empty.parent) == ([], [])

    def test_tree_edge_count_with_a_cycle_is_disconnected(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
        with pytest.raises(GraphError) as excinfo:
            as_tree(g)
        assert str(excinfo.value) == "disconnected"

    @given(random_trees(max_n=12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_multi_source_distances_are_the_pointwise_minimum(self, t, data):
        sources = data.draw(st.sets(st.integers(0, t.n - 1), min_size=1))
        rows = [bfs_distances(t, [s]) for s in sources]
        assert bfs_distances(t, sources) == [min(col) for col in zip(*rows)]

    def test_distances_unreached_stay_minus_one(self):
        g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
        assert bfs_distances(g, [2]) == [2, 1, 0, -1, -1]
        assert bfs_distances(g, []) == [-1] * 5


class TestCanonicalCode:
    def test_relabeled_path_equal(self):
        p4 = as_tree(path_graph(4))
        assert canonical_code(p4) == canonical_code(relabel(p4, [3, 1, 0, 2]))

    def test_path_vs_star_differ(self):
        assert canonical_code(as_tree(path_graph(4))) != canonical_code(
            as_tree(star_graph(3))
        )

    def test_six_vertex_trees_all_distinct(self):
        codes = {canonical_code(t) for t in enumerate_free_trees(6)}
        assert len(codes) == 6

    def test_centers(self):
        assert tree_centers(as_tree(path_graph(5))) == [2]
        assert tree_centers(as_tree(path_graph(6))) == [2, 3]
        assert tree_centers(as_tree(star_graph(4))) == [0]

    def test_centers_match_leaf_peeling(self):
        def peel(t):
            n = t.n
            if n <= 2:
                return list(range(n))
            deg = [t.degree(v) for v in range(n)]
            layer = [v for v in range(n) if deg[v] == 1]
            removed = len(layer)
            while removed < n:
                nxt = []
                for u in layer:
                    deg[u] = 0
                    for v in t.adjacency[u]:
                        if deg[v] > 0:
                            deg[v] -= 1
                            if deg[v] == 1:
                                nxt.append(v)
                removed += len(nxt)
                layer = nxt
            return sorted(layer)

        for n in range(1, 13):
            for t in enumerate_free_trees(n):
                for tree in (t, relabel(t, list(range(n))[::-1])):
                    assert tree_centers(tree) == peel(tree)

    def test_codes_match_recorded_digest(self):
        # sha256 of the codes, one per line, recorded before canonical_code
        # and tree_centers moved onto the rooted view
        free = hashlib.sha256()
        for n in range(1, 13):
            for t in enumerate_free_trees(n):
                free.update(canonical_code(t) + b"\n")
        assert free.hexdigest() == (
            "a788f01502960cc773748980ef5c5cbec1cbec112cd4637727069f56513913e5"
        )
        rng = random.Random(2024)
        prufer = hashlib.sha256()
        for _ in range(20):
            t = prufer_decode([rng.randrange(200) for _ in range(198)])
            prufer.update(canonical_code(t) + b"\n")
        assert prufer.hexdigest() == (
            "8b148968de60bdcfeb78176381ca8cafbf5cfcbe2181a623cbe436dfe381f2b3"
        )

    @given(random_trees(max_n=10), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_relabeling(self, t, rnd):
        perm = list(range(t.n))
        rnd.shuffle(perm)
        assert canonical_code(t) == canonical_code(relabel(t, perm))

    def test_agrees_with_permutation_isomorphism(self):
        # ground-truth isomorphism by trying all vertex bijections
        def isomorphic(t1, t2):
            e2 = {frozenset(e) for e in t2.edges()}
            for perm in itertools.permutations(range(t1.n)):
                if all(frozenset((perm[u], perm[v])) in e2 for u, v in t1.edges()):
                    return True
            return False

        trees = list(enumerate_free_trees(6))
        for t1, t2 in itertools.combinations(trees, 2):
            same = canonical_code(t1) == canonical_code(t2)
            assert same == isomorphic(t1, t2)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_counts_match_known_sequence(self, n):
        assert sum(1 for _ in enumerate_free_trees(n)) == FREE_TREE_COUNTS[n - 1]

    def test_pairwise_non_isomorphic(self):
        for n in range(1, 10):
            codes = [canonical_code(t) for t in enumerate_free_trees(n)]
            assert len(codes) == len(set(codes))

    def test_four_vertex_classes(self):
        codes = {canonical_code(t) for t in enumerate_free_trees(4)}
        expected = {
            canonical_code(as_tree(path_graph(4))),
            canonical_code(as_tree(star_graph(3))),
        }
        assert codes == expected

    @pytest.mark.parametrize("n", range(1, 19))
    def test_level_sequence_counts_match_a000055(self, n):
        assert sum(1 for _ in free_tree_levels(n)) == FREE_TREE_COUNTS[n - 1]

    def test_level_sequences_of_order_five(self):
        # the path rooted at its center, the spider, the star
        assert list(free_tree_levels(5)) == [(0, 1, 2, 1, 2), (0, 1, 2, 1, 1), (0, 1, 1, 1, 1)]

    def test_level_edges_join_each_vertex_to_the_last_one_a_level_up(self):
        assert level_edges((0,)) == []
        assert level_edges((0, 1, 2, 1, 2, 2)) == [(1, 0), (2, 1), (3, 0), (4, 3), (5, 3)]

    @pytest.mark.parametrize("n", range(2, 15))
    def test_matches_networkx_stream(self, n):
        # same trees, same order, same labels: witnesses keyed by
        # enumeration index and sweep output depend on all three
        expected = [build_graph(n, list(g.edges())).adjacency for g in nx.nonisomorphic_trees(n)]
        assert [t.adjacency for t in enumerate_free_trees(n)] == expected

    def test_order_out_of_range(self):
        with pytest.raises(GraphError):
            list(enumerate_free_trees(0))
        with pytest.raises(GraphError):
            list(enumerate_free_trees(21))
        with pytest.raises(GraphError):
            list(free_tree_levels(0))
        with pytest.raises(GraphError):
            list(free_tree_levels(21))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_prufer_dedup_oracle(self, n):
        # independent route: decode every labeled tree, dedup by code
        if n == 2:
            oracle = {canonical_code(as_tree(build_graph(2, [(0, 1)])))}
        else:
            oracle = {
                canonical_code(prufer_decode(seq))
                for seq in itertools.product(range(n), repeat=n - 2)
            }
        assert {canonical_code(t) for t in enumerate_free_trees(n)} == oracle


@pytest.mark.parametrize("n", range(1, 15))
def test_what_a_trees_counts_imply(n):
    # a tree has at least as many leaves as supports, and as many as its
    # max degree, which with n > max degree gives n + l >= 2 max degree + 1
    for t in enumerate_free_trees(n):
        l, s, top = t.leaf_order, t.support_count, t.max_degree
        assert s <= l
        assert (s == l) == (not strong_supports(t))
        assert n + l >= 2 * top + 1
        if n + l == 2 * top + 1:
            assert is_star(t, top)
        if is_any_star(t):
            assert n + l == 2 * top + 1
        assert (n >= 3) == (n + l > 4)


def tree_fields(t):
    return (t.n, t.adjacency, t.edge_count, t.order, t.parent,
            t.leaf_set, t.support_set, t.max_degree)


class TestTreeIsAGraph:
    """A Tree is a Graph: every graph-level function gives the same answer
    on a tree as on the plain graph with its edges."""

    def test_subclass_shares_the_adjacency(self):
        g = path_graph(5)
        t = as_tree(g)
        assert issubclass(Tree, Graph) and isinstance(t, Graph)
        assert t.adjacency is g.adjacency
        assert repr(t) == "Tree(n=5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])"
        assert repr(g) == "Graph(n=5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])"

    @pytest.mark.parametrize("n", range(1, 9))
    def test_graph_functions_agree_on_every_small_tree(self, n):
        for t in enumerate_free_trees(n):
            g = build_graph(t.n, t.edges())
            assert format_edgelist(t) == format_edgelist(g)
            assert bfs_order(t, n - 1) == bfs_order(g, n - 1)
            assert bfs_distances(t, [0, n - 1]) == bfs_distances(g, [0, n - 1])
            for dominators in ({0}, set(range(0, n, 3)), set(t.support_set)):
                assert residual_degrees(t, dominators) == residual_degrees(g, dominators)
                for k in (1, 2):
                    assert is_isolating(t, dominators, k) == is_isolating(g, dominators, k)
            for k in (0, 1, 2):
                if k:
                    assert iota_bruteforce(t, k) == iota_bruteforce(g, k)
                dominators, packing = isolation_certificate(t, k)
                for cert in ((dominators, packing), (dominators, packing[1:])):
                    assert certificate_failures(t, k, *cert) == certificate_failures(g, k, *cert)
            if n >= 3:
                assert corona_shape(t) == corona_shape(g)
                for k in (1, 2):
                    assert (recognize_char_orderminusleaves(t, k)
                            == recognize_char_orderminusleaves(g, k))


class TestLevelTree:
    """``level_tree`` builds the same Tree as the edge-list route."""

    @staticmethod
    def check_order(n):
        for levels in free_tree_levels(n):
            expected = as_tree(build_graph(n, level_edges(levels)))
            assert tree_fields(level_tree(levels)) == tree_fields(expected), levels

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_the_edge_list_build(self, n):
        self.check_order(n)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", (15, 16))
    def test_matches_the_edge_list_build_to_16(self, n):
        self.check_order(n)

    def test_empty_sequence_is_not_a_tree(self):
        with pytest.raises(GraphError, match="the empty graph is not a tree"):
            level_tree(())


class TestPrufer:
    def test_empty_sequence_is_single_edge(self):
        t = prufer_decode([])
        assert t.n == 2 and t.edge_count == 1

    def test_repeated_center(self):
        t = prufer_decode([0, 0])
        assert t.degree(0) == 3
        assert sorted(t.edges()) == [(0, 1), (0, 2), (0, 3)]

    def test_out_of_range_entry(self):
        with pytest.raises(GraphError, match="out of range"):
            prufer_decode([4, 0])

    def test_all_length_two_sequences(self):
        trees = [prufer_decode(seq) for seq in itertools.product(range(4), repeat=2)]
        labeled = {frozenset(frozenset(e) for e in t.edges()) for t in trees}
        assert len(labeled) == 16
        assert len({canonical_code(t) for t in trees}) == 2

    @pytest.mark.parametrize("n", range(3, 7))
    def test_bijection_on_all_sequences(self, n):
        labeled = {
            frozenset(frozenset(e) for e in prufer_decode(seq).edges())
            for seq in itertools.product(range(n), repeat=n - 2)
        }
        assert len(labeled) == n ** (n - 2)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = star_graph(4)
        assert parse_edgelist(format_edgelist(g)).adjacency == g.adjacency

    def test_comments_and_blank_lines(self):
        text = "# a star\n\n3\n0 1  # first edge\n0 2\n"
        g = parse_edgelist(text)
        assert g.n == 3 and g.edge_count == 2

    def test_bad_header(self):
        with pytest.raises(GraphError, match="vertex count"):
            parse_edgelist("a b\n")

    def test_bad_edge_line(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_edgelist("3\n0 1 2\n")

    def test_empty_input(self):
        with pytest.raises(GraphError, match="empty"):
            parse_edgelist("# nothing\n")

    @pytest.mark.parametrize("text,message", [
        ("a b\n", "line 1: expected vertex count, got 'a b'"),
        ("x\n", "line 1: bad vertex count 'x'"),
        ("# c\n\n3  # n\n0 1 2\n", "line 4: expected 'u v', got '0 1 2'"),
        ("3\r\n0 1\r\n1 2 3\r\n", "line 3: expected 'u v', got '1 2 3'"),
        ("  \n\t2\n0\n", "line 3: expected 'u v', got '0'"),
        ("3\n0 x  # c\n", "line 2: bad edge '0 x  # c'"),
        ("2 # x\n1.0 0\n", "line 2: bad edge '1.0 0'"),
        ("", "empty edge-list input"),
        ("-2\n", "vertex count must be nonnegative, got -2"),
        ("3\n0 1\n1 2\n0 1\n9 9\n", "duplicate edge (0, 1)"),
        ("4\n0 1\n", "vertex count 4 exceeds 2m + 1 = 3 for m = 1 edge lines"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(GraphError) as excinfo:
            parse_edgelist(text)
        assert str(excinfo.value) == message

    def test_isolated_vertices_up_to_two_m_plus_one(self):
        g = parse_edgelist("3\n0 1\n")
        assert g.n == 3 and g.adjacency == ((1,), (0,), ())
        assert parse_edgelist("1\n").n == 1


class TestGraph6:
    @pytest.mark.parametrize("n,p,seed", [(5, 0.4, 1), (9, 0.3, 2), (12, 0.5, 3)])
    def test_against_networkx_encoder(self, n, p, seed):
        gnx = nx.gnp_random_graph(n, p, seed=seed)
        text = nx.to_graph6_bytes(gnx).decode("ascii")
        g = parse_graph6(text)
        assert g.n == n
        assert {frozenset(e) for e in g.edges()} == {
            frozenset(e) for e in gnx.edges()
        }

    def test_header_stripped(self):
        text = nx.to_graph6_bytes(nx.path_graph(4), header=True).decode("ascii")
        assert text.startswith(">>graph6<<")
        g = parse_graph6(text)
        assert g.n == 4 and g.edge_count == 3

    def test_long_form_order(self):
        gnx = nx.path_graph(100)
        g = parse_graph6(nx.to_graph6_bytes(gnx, header=False).decode("ascii"))
        assert g.n == 100 and g.edge_count == 99

    @pytest.mark.parametrize("n", [62, 63])
    def test_short_and_long_form_boundary(self, n):
        # 62 is the last order with a one-byte header, 63 the first with ~
        gnx = nx.gnp_random_graph(n, 0.1, seed=n)
        text = nx.to_graph6_bytes(gnx, header=False).decode("ascii")
        assert text.startswith("~") == (n == 63)
        g = parse_graph6(text)
        assert g.n == n
        assert {frozenset(e) for e in g.edges()} == {frozenset(e) for e in gnx.edges()}

    @pytest.mark.parametrize("text,message", [
        ("~~" + "?" * 6, "graph6: unsupported long-form order encoding"),
        ("D>?", "graph6: byte out of printable range"),
        ("D?\x7f", "graph6: byte out of printable range"),
        ("D?", "graph6: expected 2 data bytes for n=5, got 1"),
        ("D???", "graph6: expected 2 data bytes for n=5, got 3"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(GraphError) as excinfo:
            parse_graph6(text)
        assert str(excinfo.value) == message

    def test_empty_graph_has_order_zero(self):
        assert parse_graph6("?\n").n == 0

    def test_truncated_rejected(self):
        good = nx.to_graph6_bytes(nx.path_graph(8), header=False).decode("ascii").strip()
        with pytest.raises(GraphError):
            parse_graph6(good[:-1])

    def test_memory_is_linear_in_the_input_not_the_bits(self):
        # 4,000 vertices code 7,998,000 bits in 1.3 MB: a list of the bits
        # alone would take about 64 MB
        n = 4000  # the long form: "~", then n in three 6-bit bytes
        header = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
        text = header + "?" * ((n * (n - 1) // 2 + 5) // 6) + "\n"
        tracemalloc.start()
        try:
            g = parse_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.n, g.edge_count) == (4000, 0)
        assert peak < 4 * len(text)

    def test_more_edges_than_the_limit_rejected_before_decoding(self):
        # K_2000 codes 1,999,000 edges in 333 KB: every data byte is "~"
        n = 2000
        header = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
        text = header + "~" * ((n * (n - 1) // 2 + 5) // 6) + "\n"
        tracemalloc.start()
        try:
            with pytest.raises(GraphError) as excinfo:
                parse_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(excinfo.value) == "graph6: more than the limit of 1000000 edges"
        assert peak < 4 * len(text)

    def test_the_limit_counts_no_padding_bit(self, monkeypatch):
        # "D~~" is K_5: 10 pair bits and 2 padding bits, all set
        import stariso.formats

        monkeypatch.setattr(stariso.formats, "MAX_GRAPH6_EDGES", 10)
        assert parse_graph6("D~~").edge_count == 10
        monkeypatch.setattr(stariso.formats, "MAX_GRAPH6_EDGES", 9)
        with pytest.raises(GraphError, match="^graph6: more than the limit of 9 edges$"):
            parse_graph6("D~~")

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 13])
    def test_each_pair_alone_and_the_padding_bits(self, n):
        for u, v in itertools.combinations(range(n), 2):
            gnx = nx.empty_graph(n)
            gnx.add_edge(u, v)
            text = nx.to_graph6_bytes(gnx, header=False).decode("ascii")
            assert list(parse_graph6(text).edges()) == [(u, v)]
        # the last byte's bits past the last pair are ignored, set or not
        padding = -(n * (n - 1) // 2) % 6
        text = nx.to_graph6_bytes(nx.empty_graph(n), header=False).decode("ascii").strip()
        padded = text[:-1] + chr(ord(text[-1]) + (1 << padding) - 1)
        assert parse_graph6(padded).edge_count == 0

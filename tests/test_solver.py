"""Solver tests: residual graphs, brute force, the tree DP and its finite
machine, the packing certificate, domination and the witness normalizers."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stariso.graphs import (
    GraphError,
    Tree,
    as_tree,
    build_graph,
    enumerate_free_trees,
    prufer_decode,
)
from stariso.solver import (
    InstanceTooLarge,
    IsolationSolution,
    Machine,
    certificate_failures,
    first_isolating,
    gamma_bruteforce,
    iota_bruteforce,
    iota_tree_dp,
    is_isolating,
    isolation_certificate,
    isolation_number,
    machine,
    normalize_no_deg2_support,
    normalize_no_leaves,
    residual,
    residual_degrees,
)

from tree_helpers import path_graph, random_trees, star_graph


class TestResidual:
    def test_middle_of_five_path_leaves_no_edges(self):
        sub, vertices = residual(path_graph(5), {2})
        assert vertices == (0, 4)
        assert sub.edge_count == 0

    def test_six_path_leaves_a_three_path(self):
        sub, vertices = residual(path_graph(6), {1})
        assert vertices == (3, 4, 5)
        assert sub.edges() == [(0, 1), (1, 2)]

    def test_empty_set_is_identity(self):
        g = star_graph(3)
        sub, vertices = residual(g, set())
        assert vertices == tuple(range(g.n))
        assert sub.adjacency == g.adjacency

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphError):
            residual(path_graph(3), {7})


class TestResidualDegrees:
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]), unique_by=frozenset),
        st.sets(st.integers(0, n - 1)),
        st.integers(1, 4),
    )))
    @settings(max_examples=200, deadline=None)
    def test_match_the_residual_subgraph(self, case):
        n, edges, dominators, k = case
        g = build_graph(n, edges)
        sub, vertices = residual(g, dominators)
        expected = {vertices[i]: sub.degree(i) for i in range(sub.n)}
        assert residual_degrees(g, dominators) == expected
        assert is_isolating(g, dominators, k) == all(sub.degree(i) < k for i in range(sub.n))

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphError):
            residual_degrees(path_graph(3), {7})


class TestContainsKStar:
    """A graph contains a k-star exactly when the empty set does not
    isolate it."""

    def test_three_path(self):
        assert not is_isolating(path_graph(3), set(), 2)
        assert is_isolating(path_graph(3), set(), 3)

    def test_empty_graph(self):
        assert is_isolating(build_graph(0, []), set(), 1)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            is_isolating(path_graph(3), set(), 0)


class TestIsIsolating:
    def test_star_center(self):
        for k in (1, 2, 4):
            g = star_graph(k)
            assert is_isolating(g, {0}, k)
            assert not is_isolating(g, set(), k)

    def test_star_leaf_removes_the_center_too(self):
        g = star_graph(4)
        assert is_isolating(g, {1}, 1)  # residual is three isolated leaves
        assert not is_isolating(path_graph(6), {1}, 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_checked_before_any_residual_pass(self, monkeypatch, k):
        import stariso.solver

        def no_pass(*args):
            raise AssertionError("a pass over the graph ran")

        for name in ("residual_degrees", "closed_neighborhood", "_check_vertex_set"):
            monkeypatch.setattr(stariso.solver, name, no_pass)
        with pytest.raises(ValueError, match=f"k must be positive, got {k}"):
            is_isolating(path_graph(6), {1}, k)

    def test_agrees_with_the_residual_degrees(self):
        # the early exit gives the answer of the full residual count
        rng = random.Random(18)
        outcomes = set()
        for n in range(1, 10):
            for t in enumerate_free_trees(n):
                sets = [set(c) for size in range(3) for c in itertools.combinations(range(n), size)]
                sets += [set(rng.sample(range(n), rng.randint(0, n))) for _ in range(8)]
                for k in (1, 2, 3):
                    for dominators in sets:
                        expected = max(residual_degrees(t, dominators).values(), default=0) < k
                        assert is_isolating(t, dominators, k) == expected, (n, k, dominators)
                        outcomes.add(expected)
        assert outcomes == {True, False}

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphError, match="vertex 6 out of range for n=6"):
            is_isolating(path_graph(6), {6}, 1)


class TestBruteForce:
    def test_six_path(self):
        sol = iota_bruteforce(path_graph(6), 1)
        assert sol.size == 2
        assert sol.method == "brute_force"

    def test_seven_path_two_star(self):
        assert iota_bruteforce(path_graph(7), 2).size == 1

    def test_single_vertex(self):
        assert iota_bruteforce(build_graph(1, []), 1).size == 0

    def test_lexicographically_smallest_witness(self):
        # {0, 3} isolates the 6-path and precedes {1, 4}
        assert iota_bruteforce(path_graph(6), 1).set == frozenset({0, 3})

    def test_cap_mandatory_above_sixteen(self):
        g = path_graph(17)
        sol = iota_bruteforce(g, 1)
        assert sol.size == 4
        assert sol.size == iota_tree_dp(as_tree(g), 1).size

    def test_hard_limit(self):
        with pytest.raises(InstanceTooLarge):
            iota_bruteforce(path_graph(25), 1)

    def test_witnesses_match_recorded_digest(self):
        """The lexicographically first witnesses of both brute forces,
        recorded while gamma_bruteforce still had a search of its own: every
        free tree with n <= 10, the cycles C3..C10 and K4, iota for k = 1..3
        on those with n <= 9."""
        graphs = [t for n in range(1, 11) for t in enumerate_free_trees(n)]
        graphs += [build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 11)]
        graphs.append(build_graph(4, list(itertools.combinations(range(4), 2))))
        assert len(graphs) == 210
        h = hashlib.sha256()
        for i, g in enumerate(graphs):
            h.update(repr(("gamma", i, sorted(gamma_bruteforce(g).set))).encode())
            if g.n <= 9:
                for k in (1, 2, 3):
                    h.update(repr(("iota", i, k, sorted(iota_bruteforce(g, k).set))).encode())
        assert h.hexdigest() == (
            "a0b117b58b9f771e7b011fa7a3fa2428c1d72695cebe0356c4954c620978dc57"
        )


def recorded_graphs():
    """The 210 graphs of ``test_witnesses_match_recorded_digest``."""
    graphs = [t for n in range(1, 11) for t in enumerate_free_trees(n)]
    graphs += [build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 11)]
    graphs.append(build_graph(4, list(itertools.combinations(range(4), 2))))
    return graphs


class TestFirstIsolating:
    """One search for a tuple of k gives each k what its own call gives."""

    @pytest.mark.parametrize("ks", [(3, 1), (2, 2, 5), (0, 1, 2, 3)])
    def test_each_k_as_its_own_call(self, ks):
        for g in recorded_graphs():
            found = first_isolating(g, ks)
            assert sorted(found) == sorted(set(ks))
            for k in ks:
                alone = gamma_bruteforce(g) if k == 0 else iota_bruteforce(g, k)
                assert found[k] == alone
                assert (found[k].k, found[k].method) == (k, "brute_force")

    def test_each_k_is_the_first_minimum_isolating_set(self):
        # against a search of its own per k, in the same subset order
        for g in recorded_graphs()[:48]:  # every free tree with n <= 8
            found = first_isolating(g, (1, 2, 3))
            for k in (1, 2, 3):
                first = next(set(c) for size in range(g.n + 1)
                             for c in itertools.combinations(range(g.n), size)
                             if is_isolating(g, c, k))
                assert found[k].set == first and found[k].size == len(first)

    def test_empty_tuple_searches_nothing(self):
        assert first_isolating(path_graph(6), ()) == {}

    @pytest.mark.parametrize("ks", [(1,), (0, 2), ()])
    def test_hard_limit(self, ks):
        with pytest.raises(InstanceTooLarge, match="capped at n=24, got 25"):
            first_isolating(path_graph(25), ks)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
            first_isolating(path_graph(3), (1, -1))


class TestTreeDp:
    def test_eight_path_two_star(self):
        t = as_tree(path_graph(8))
        sol = iota_tree_dp(t, 2)
        assert sol.size == 2
        assert sol.method == "tree_dp"
        assert is_isolating(t, sol.set, 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_star_needs_one(self, k):
        assert iota_tree_dp(as_tree(star_graph(k)), k).size == 1

    def test_zero_iff_no_big_star(self):
        t = as_tree(path_graph(2))
        assert iota_tree_dp(t, 2).size == 0
        assert iota_tree_dp(t, 1).size == 1

    @pytest.mark.parametrize("root", [-1, -6, 6])
    def test_root_out_of_range(self, root):
        with pytest.raises(GraphError) as excinfo:
            iota_tree_dp(as_tree(path_graph(6)), 1, root=root)
        assert str(excinfo.value) == f"root {root} out of range for n=6"

    def test_root_checked_before_the_k_above_max_degree_answer(self):
        with pytest.raises(GraphError, match="root 6 out of range for n=6"):
            iota_tree_dp(as_tree(path_graph(6)), 10, root=6)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_checked_first(self, k):
        t = as_tree(path_graph(6))
        for run in (lambda: iota_tree_dp(t, k, root=6), lambda: isolation_number(t, k)):
            with pytest.raises(ValueError, match=f"k must be positive, got {k}"):
                run()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_brute_force_exhaustively(self, n):
        for t in enumerate_free_trees(n):
            for k in (1, 2, 3):
                dp = iota_tree_dp(t, k)
                assert dp.size == iota_bruteforce(t, k).size
                assert is_isolating(t, dp.set, k)

    @given(random_trees(max_n=9), st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_random(self, t, k):
        dp = iota_tree_dp(t, k)
        assert dp.size == iota_bruteforce(t, k).size
        assert is_isolating(t, dp.set, k)

    @given(random_trees(max_n=8), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_optimum_independent_of_root(self, t, k):
        sizes = {iota_tree_dp(t, k, root=r).size for r in range(t.n)}
        assert len(sizes) == 1

    def test_witnesses_match_golden_digest(self):
        """Witnesses are pinned for every root, not only their sizes: the
        digest was recorded from the original nested-list DP and covers every
        free tree with n <= 10, k in 1..4 and every root, plus root-0
        witnesses of three seeded Prufer trees at n = 2000."""
        h = hashlib.sha256()
        for n in range(1, 11):
            for idx, t in enumerate(enumerate_free_trees(n)):
                for k in (1, 2, 3, 4):
                    for root in range(n):
                        w = sorted(iota_tree_dp(t, k, root).set)
                        h.update(repr((n, idx, k, root, w)).encode())
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            t = prufer_decode([rng.randrange(2000) for _ in range(1998)])
            for k in (1, 2, 3, 4):
                w = sorted(iota_tree_dp(t, k, 0).set)
                h.update(repr(("prufer", seed, k, w)).encode())
        assert h.hexdigest() == (
            "aed4e9d72920ef28f2789356623e784f9fde9db5d1612078f56ebca2b38ef430"
        )

    def test_monotone_in_k(self):
        for n in range(2, 10):
            for t in enumerate_free_trees(n):
                values = [iota_tree_dp(t, k).size for k in (1, 2, 3, 4)]
                assert values == sorted(values, reverse=True)
                for k in (1, 2, 3, 4):
                    assert (iota_tree_dp(t, k).size == 0) == (t.max_degree < k)


class TestMachine:
    """The DP's finite machine: ``isolation_number`` runs its bottom-up pass
    alone, and the states it can reach are finite for each k."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_isolation_number_matches_the_dp_exhaustively(self, n):
        for t in enumerate_free_trees(n):
            for k in range(1, 6):
                assert isolation_number(t, k) == iota_tree_dp(t, k).size

    @pytest.mark.parametrize("n", [3, 40, 300, 2000])
    def test_isolation_number_matches_the_dp_on_prufer_trees(self, n):
        rng = random.Random(n)
        for _ in range(3):
            t = prufer_decode([rng.randrange(n) for _ in range(n - 2)])
            for k in range(1, 6):
                assert isolation_number(t, k) == iota_tree_dp(t, k).size

    @pytest.mark.parametrize("k, accumulators, shapes", [
        (1, 12, 12), (2, 24, 19), (3, 34, 19), (4, 44, 19),
        (5, 54, 19), (6, 64, 19), (7, 74, 19),
    ])
    def test_closure_state_counts(self, k, accumulators, shapes):
        # every accumulator finishes as it is interned, so attaching every
        # shape to every accumulator until nothing new appears is the closure
        m = Machine(k)
        assert (m.accumulators[m.start], m.shapes[m.finish(m.start)[0]]) == (
            (2, 0, 0, 0, 0), (1, 2, 0, 0, 0 if k >= 2 else 2),
        )
        while True:
            seen = len(m.accumulators), len(m.shapes)
            for acc in range(seen[0]):
                for shape in range(seen[1]):
                    m.attach(acc, shape)
            if (len(m.accumulators), len(m.shapes)) == seen:
                break
        assert seen == (accumulators, shapes)
        assert len(m) == accumulators * shapes

    def test_k_above_the_max_degree_builds_no_machine(self):
        t = as_tree(star_graph(200_000))
        misses = machine.cache_info().misses
        assert isolation_number(t, 10**6) == 0
        assert iota_tree_dp(t, 10**6, root=1) == IsolationSolution(10**6, frozenset(), 0, "tree_dp")
        assert machine.cache_info().misses == misses

    @pytest.mark.parametrize("n", range(1, 11))
    def test_one_above_the_max_degree_is_zero(self, n):
        for t in enumerate_free_trees(n):
            k = t.max_degree + 1
            assert isolation_number(t, k) == 0
            for root in range(n):
                sol = iota_tree_dp(t, k, root)
                assert (sol.size, sol.set) == (0, frozenset())

    @pytest.mark.parametrize("k", [2, 10**4 - 1])
    def test_hostile_star_degree(self, k):
        # the center of K_{1,10^4} counts its FREE_LO children up to k
        t = as_tree(star_graph(10**4))
        assert isolation_number(t, k) == 1
        for root in (0, 1):
            sol = iota_tree_dp(t, k, root)
            assert sol.size == 1
            assert is_isolating(t, sol.set, k)


def certified_size(t, k):
    """Size of the packing certificate, which must prove itself."""
    dominators, packing = isolation_certificate(t, k)
    assert certificate_failures(t, k, dominators, packing) == []
    return len(packing)


class TestAllRoots:
    """Root invariance: the DP's optimum at every root is the size of the
    verified certificate."""

    @staticmethod
    def per_root(t, k):
        return [iota_tree_dp(t, k, root=r).size for r in range(t.n)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_the_dp_at_every_root_exhaustively(self, n):
        for t in enumerate_free_trees(n):
            for k in (1, 2, 3, 4):
                assert self.per_root(t, k) == [certified_size(t, k)] * n

    @given(random_trees(min_n=2, max_n=60), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_dp_at_every_root_random(self, t, k):
        assert self.per_root(t, k) == [certified_size(t, k)] * t.n


class TestIsolationCertificate:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_k0_is_the_domination_number(self, n):
        for t in enumerate_free_trees(n):
            assert certified_size(t, 0) == gamma_bruteforce(t).size

    @given(random_trees(min_n=2, max_n=200), st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_random_trees(self, t, k):
        size = certified_size(t, k)
        if k:
            assert size == iota_tree_dp(t, k).size

    def test_deepest_top_first(self):
        # 7-path rooted at 0, k = 1: the edge 5-6 is the free star with the
        # deepest top (4), then 1-2 is free with top 0
        t = as_tree(path_graph(7))
        assert isolation_certificate(t, 1) == (frozenset({0, 4}), [(5, 6), (1, 2)])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            isolation_certificate(as_tree(path_graph(3)), -1)

    def test_non_isolating_set(self):
        assert certificate_failures(path_graph(3), 1, frozenset(), []) == [
            "set is not isolating: vertex 0 keeps residual degree 1"
        ]

    def test_overlapping_stars(self):
        g = path_graph(7)
        assert certificate_failures(g, 1, {1, 4}, [(0, 1), (2, 3)]) == [
            "stars (0, 1) and (2, 3) have overlapping closed neighborhoods"
        ]

    def test_each_overlap_names_the_first_star_there(self):
        packing = [(0, 1), (0, 2), (0, 3)]
        assert certificate_failures(star_graph(3), 1, {0}, packing) == [
            "stars (0, 1) and (0, 2) have overlapping closed neighborhoods",
            "stars (0, 1) and (0, 3) have overlapping closed neighborhoods",
            "set has 1 vertices, packing has 3 stars",
        ]

    def test_non_stars(self):
        g = path_graph(7)
        # (-1, 5): adj[-1] would read vertex 6's neighbors, (5,)
        packing = [(0, 1), (5, 3), (4, 3, 5), (6, 9), (), (-1, 5)]
        assert certificate_failures(g, 1, {1, 2, 3, 4, 5, 6}, packing) == [
            "(5, 3) is not a 1-star",
            "(4, 3, 5) is not a 1-star",
            "(6, 9) is not a 1-star",
            "() is not a 1-star",
            "(-1, 5) is not a 1-star",
        ]
        assert certificate_failures(path_graph(3), 1, {1}, [(-1, 1)]) == [
            "(-1, 1) is not a 1-star"
        ]
        # a repeated leaf: three entries, but two distinct vertices
        assert certificate_failures(star_graph(3), 2, {0}, [(0, 1, 1)]) == [
            "(0, 1, 1) is not a 2-star"
        ]

    def test_out_of_range_dominator_raises_first(self):
        # the packing and the sizes are wrong too, but nothing is listed
        for v in (7, -1):
            with pytest.raises(GraphError, match=f"vertex {v} out of range for n=7"):
                certificate_failures(path_graph(7), 1, {1, v}, [(9,)])

    def test_a_star_meeting_two_earlier_stars_names_both(self):
        # N[(2, 3)] meets (0, 1) at 1 and 2 and (5, 6) at 4: the earlier
        # star in the packing comes first, whatever the vertex order
        packing = [(5, 6), (0, 1), (2, 3)]
        assert certificate_failures(path_graph(7), 1, {1, 4, 5}, packing) == [
            "stars (5, 6) and (2, 3) have overlapping closed neighborhoods",
            "stars (0, 1) and (2, 3) have overlapping closed neighborhoods",
        ]

    def test_non_isolating_names_the_lowest_vertex(self):
        # two 2-stars, centered at 1 and at 4 (of degree 3)
        g = build_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (4, 6)])
        assert certificate_failures(g, 2, set(), []) == [
            "set is not isolating: vertex 1 keeps residual degree 2"
        ]

    def test_size_mismatch(self):
        assert certificate_failures(path_graph(7), 1, {1, 4}, [(0, 1)]) == [
            "set has 2 vertices, packing has 1 stars"
        ]


def min_k1_isolating_size(g):
    """Independent route for the domination identity: smallest set whose
    residual has no vertices at all."""
    for size in range(g.n + 1):
        for picked in itertools.combinations(range(g.n), size):
            if residual(g, set(picked))[0].n == 0:
                return size
    raise AssertionError


class TestDomination:
    def test_four_cycle(self):
        c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert gamma_bruteforce(c4).size == 2

    def test_four_path_is_half(self):
        assert gamma_bruteforce(path_graph(4)).size == 2

    def test_star(self):
        assert gamma_bruteforce(star_graph(5)).size == 1

    def test_matches_single_vertex_isolation(self):
        shapes = [path_graph(n) for n in range(1, 8)]
        shapes += [star_graph(k) for k in range(2, 6)]
        shapes.append(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        shapes.extend(enumerate_free_trees(7))
        for g in shapes:
            assert gamma_bruteforce(g).size == min_k1_isolating_size(g)

    def test_half_order_bound(self):
        for n in range(2, 10):
            for t in enumerate_free_trees(n):
                assert 2 * gamma_bruteforce(t).size <= n


class TestNormalizeNoLeaves:
    def test_five_path_leaf_moves_to_support(self):
        t = as_tree(path_graph(5))
        out = normalize_no_leaves(t, IsolationSolution(1, frozenset({0}), 1, "brute_force"))
        assert out.set == frozenset({1})

    def test_interior_vertex_unchanged(self):
        t = as_tree(path_graph(5))
        sol = iota_bruteforce(t, 1)
        assert sol.set == frozenset({2})
        assert normalize_no_leaves(t, sol).set == frozenset({2})

    def test_star_leaf_moves_to_center(self):
        t = as_tree(star_graph(3))
        out = normalize_no_leaves(t, IsolationSolution(1, frozenset({1}), 1, "brute_force"))
        assert out.set == frozenset({0})

    def test_needs_three_vertices(self):
        t = as_tree(path_graph(2))
        with pytest.raises(GraphError):
            normalize_no_leaves(t, IsolationSolution(1, frozenset({0}), 1, "brute_force"))


class TestNormalizeNoDeg2Support:
    def test_five_path_support_moves_inward(self):
        t = as_tree(path_graph(5))
        sol = IsolationSolution(1, frozenset({1}), 1, "brute_force")
        assert normalize_no_deg2_support(t, sol).set == frozenset({2})

    def test_non_support_vertices_unchanged(self):
        t = as_tree(path_graph(6))
        sol = IsolationSolution(1, frozenset({2, 3}), 2, "brute_force")
        assert normalize_no_deg2_support(t, sol).set == frozenset({2, 3})

    def test_spider_minimum_already_clean(self):
        # 4-path with one extra leaf at vertex 1; {1} is the optimum
        t = as_tree(build_graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)]))
        sol = iota_bruteforce(t, 1)
        assert sol.set == frozenset({1})
        out = normalize_no_deg2_support(t, sol)
        assert out.set == frozenset({1})
        assert not out.set & t.leaf_set
        assert not any(v in t.support_set and t.degree(v) == 2 for v in out.set)

    def test_rejects_leafy_input(self):
        t = as_tree(path_graph(5))
        with pytest.raises(ValueError, match="leaves"):
            normalize_no_deg2_support(t, IsolationSolution(1, frozenset({0}), 1, "brute_force"))

    def test_rejects_other_k(self):
        t = as_tree(path_graph(5))
        with pytest.raises(ValueError, match="k=1"):
            normalize_no_deg2_support(t, IsolationSolution(2, frozenset({1}), 1, "brute_force"))

    def test_support_without_a_non_leaf_neighbor_raises(self):
        # Tree() skips as_tree's checks: on P3 + P2, the middle of the P3 is
        # a degree-2 support whose neighbors are both leaves
        t = Tree(build_graph(5, [(0, 1), (1, 2), (3, 4)]))
        sol = IsolationSolution(1, frozenset({1}), 1, "brute_force")
        with pytest.raises(GraphError, match="degree-2 support 1 has 0 non-leaf neighbors"):
            normalize_no_deg2_support(t, sol)

    def test_rejects_small_order(self):
        t = as_tree(path_graph(4))
        with pytest.raises(GraphError):
            normalize_no_deg2_support(t, IsolationSolution(1, frozenset({1}), 1, "brute_force"))


def minimum_isolating_sets(t, k):
    """Every minimum k-isolating set of t, each as a brute-force solution."""
    size = isolation_number(t, k)
    for vertices in itertools.combinations(range(t.n), size):
        if is_isolating(t, frozenset(vertices), k):
            yield IsolationSolution(k, frozenset(vertices), size, "brute_force")


class TestNormalizerContracts:
    # per n: the minimum sets at k = 1 and 2, those holding a leaf, and the
    # leaf-normalized k = 1 sets holding a degree-2 support (n >= 5), so
    # that each normalizer has inputs to change
    COUNTS = {3: (6, 4, 0), 4: (14, 8, 0), 5: (20, 10, 1), 6: (41, 18, 8),
              7: (72, 29, 18), 8: (193, 84, 43), 9: (450, 204, 101)}

    @pytest.mark.parametrize("n", range(3, 10))
    def test_minimum_witnesses_stay_minimum(self, n):
        sets = with_leaf = with_deg2_support = 0
        for t in enumerate_free_trees(n):
            for k in (1, 2):
                for sol in minimum_isolating_sets(t, k):
                    sets += 1
                    with_leaf += bool(sol.set & t.leaf_set)
                    out = normalize_no_leaves(t, sol)
                    assert out.size == sol.size
                    assert is_isolating(t, out.set, k)
                    assert not out.set & t.leaf_set
                    if k == 1 and n >= 5:
                        with_deg2_support += any(
                            v in t.support_set and t.degree(v) == 2 for v in out.set
                        )
                        out2 = normalize_no_deg2_support(t, out)
                        assert out2.size == sol.size
                        assert is_isolating(t, out2.set, 1)
                        assert not out2.set & t.leaf_set
                        assert not any(
                            v in t.support_set and t.degree(v) == 2 for v in out2.set
                        )
        assert (sets, with_leaf, with_deg2_support) == self.COUNTS[n]

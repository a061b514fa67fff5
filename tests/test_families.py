"""Family generators, recognizers and constructive sets, cross-checked
against exhaustive-labeling oracles and brute-force optima."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from stariso.families import (
    FamilyError,
    FCertificate,
    TkCertificate,
    corona_shape,
    gen_char_orderminusleaves,
    gen_corona_extremal,
    gen_family_F,
    gen_family_Tk,
    gen_spider_gap,
    min_iso_set_F,
    min_iso_set_Tk,
    recognize_char_orderminusleaves,
    recognize_F,
    recognize_Tk,
    sample_family_F,
    sample_family_Tk,
)
from stariso.graphs import (
    Tree,
    as_tree,
    build_graph,
    canonical_code,
    diameter_path,
    enumerate_free_trees,
)
from stariso.solver import iota_bruteforce, iota_tree_dp, is_isolating

from family_helpers import add_twin_leaves


def shape_item(shape):
    """What a digest records of ``corona_shape``'s answer."""
    if shape is None:
        return None
    cert, most = shape
    return (cert.kind, cert.core_vertices, tuple(cert.leaf_assignment.items()), most)


def path_tree(n):
    return as_tree(build_graph(n, [(i, i + 1) for i in range(n - 1)]))


def star_tree(k):
    return as_tree(build_graph(k + 1, [(0, i) for i in range(1, k + 1)]))


# ---------------------------------------------------------------------------
# Exhaustive-labeling oracles (independent of the recognizers' propagation)
# ---------------------------------------------------------------------------

def oracle_member_F(t: Tree) -> bool:
    """Try every X/Y split of the undetermined vertices; the A/B/C layers
    are forced by the leaf structure."""
    if t.n < 6:
        return False
    c_set = set(t.leaf_set)
    b_set, a_set = set(), set()
    b_leaf, b_other = {}, {}
    for c in c_set:
        b = t.adjacency[c][0]
        if t.degree(b) != 2 or b in b_leaf:
            return False
        b_set.add(b)
        b_leaf[b] = c
    for b in b_set:
        others = [w for w in t.adjacency[b] if w not in c_set]
        if len(others) != 1 or others[0] in b_set or others[0] in c_set:
            return False
        a_set.add(others[0])
        b_other[b] = others[0]
    if len(a_set) != len(b_set):
        return False
    rest = sorted(set(range(t.n)) - a_set - b_set - c_set)
    p3 = tuple((b_other[b], b, b_leaf[b]) for b in sorted(b_set))
    for bits in itertools.product((0, 1), repeat=len(rest)):
        x_set = {v for v, bit in zip(rest, bits) if bit}
        y_set = {v for v, bit in zip(rest, bits) if not bit}
        quads = _recover_quads(t, x_set, y_set)
        if quads is None:
            continue
        cert = FCertificate(
            a_set=frozenset(a_set),
            b_set=frozenset(b_set),
            c_set=frozenset(c_set),
            x_set=frozenset(x_set),
            y_set=frozenset(y_set),
            p3_copies=p3,
            p4_copies=quads,
        )
        if not cert.validate(t):
            return True
    return False


def _recover_quads(t, x_set, y_set):
    quads = []
    seen = set()
    for y in sorted(y_set):
        if y in seen:
            continue
        partners = [w for w in t.adjacency[y] if w in y_set]
        x_nbrs = [w for w in t.adjacency[y] if w in x_set]
        if len(partners) != 1 or len(x_nbrs) != 1:
            return None
        y2 = partners[0]
        if y2 in seen:
            return None
        x_nbrs2 = [w for w in t.adjacency[y2] if w in x_set]
        if len(x_nbrs2) != 1:
            return None
        x1, x2 = x_nbrs[0], x_nbrs2[0]
        if x1 == x2 or x1 in seen or x2 in seen:
            return None
        quads.append((x1, y, y2, x2))
        seen.update((x1, y, y2, x2))
    if seen != x_set | y_set:
        return None
    return tuple(quads)


def oracle_member_Tk(t: Tree, k: int) -> bool:
    """Try every extension of the forced hub set over the degree-k
    candidates; B and A are then determined."""
    leaves = set(t.leaf_set)
    base_hubs = set(t.support_set)
    if any(t.degree(c) != k for c in base_hubs):
        return False
    candidates = sorted(
        v for v in range(t.n)
        if v not in leaves and v not in base_hubs and t.degree(v) == k
    )
    for r in range(len(candidates) + 1):
        for extra in itertools.combinations(candidates, r):
            c_set = base_hubs | set(extra)
            b_set = {
                w for c in c_set for w in t.adjacency[c] if w not in leaves
            }
            if b_set & c_set:
                continue
            a_set = set(range(t.n)) - leaves - c_set - b_set
            if not a_set:
                continue
            comps = _component_count(t, a_set)
            cert = TkCertificate(
                k=k,
                a_set=frozenset(a_set),
                b_set=frozenset(b_set),
                c_set=frozenset(c_set),
                leaf_set=frozenset(leaves),
                h=comps,
                n0=len(a_set),
            )
            if not cert.validate(t):
                return True
    return False


def _component_count(g, vertices):
    remaining = set(vertices)
    count = 0
    while remaining:
        queue = [min(remaining)]
        remaining.discard(queue[0])
        while queue:
            u = queue.pop()
            for w in g.adjacency[u]:
                if w in remaining:
                    remaining.discard(w)
                    queue.append(w)
        count += 1
    return count


# ---------------------------------------------------------------------------
# (n + l)/4 family
# ---------------------------------------------------------------------------

class TestGenFamilyF:
    def test_two_triples_is_the_six_path(self):
        t, cert = gen_family_F(2, 0)
        assert canonical_code(t) == canonical_code(path_tree(6))
        assert len(cert.a_set) == 2 and not cert.x_set

    def test_with_one_quad(self):
        t, cert = gen_family_F(2, 1)
        assert t.n == 10
        assert iota_bruteforce(t, 1).size == 3 == len(cert.a_set) + 1

    def test_three_triples(self):
        t, _ = gen_family_F(3, 0)
        assert t.n == 9
        assert iota_bruteforce(t, 1).size == 3 == (9 + 3) // 4

    def test_rejects_small_r(self):
        with pytest.raises(FamilyError, match="r >= 2"):
            gen_family_F(1, 0)

    def test_custom_wiring_cycle_rejected(self):
        with pytest.raises(FamilyError, match="tree"):
            gen_family_F(3, 0, wiring=[(0, 3), (3, 6), (0, 6)])

    def test_custom_wiring_leaf_rejected(self):
        # joining everything through one quad endpoint leaves the other
        # endpoint (vertex 9) a leaf
        with pytest.raises(FamilyError, match="leaf"):
            gen_family_F(2, 1, wiring=[(0, 6), (3, 6)])

    def test_custom_wiring_outside_parts_rejected(self):
        with pytest.raises(FamilyError, match="leaves A u X"):
            gen_family_F(2, 0, wiring=[(1, 3)])

    def test_custom_wiring_valid_alternative(self):
        t, cert = gen_family_F(2, 1, wiring=[(0, 6), (3, 9)])
        assert not cert.validate(t)


class TestRecognizeF:
    def test_six_path(self):
        cert = recognize_F(path_tree(6))
        assert cert is not None
        assert len(cert.a_set) == 2
        assert cert.c_set == path_tree(6).leaf_set

    def test_seven_path_rejected(self):
        assert recognize_F(path_tree(7)) is None

    def test_two_path_rejected(self):
        assert recognize_F(path_tree(2)) is None

    def test_round_trip_on_random_wirings(self):
        rng = random.Random(123)
        for _ in range(40):
            r, s = rng.randint(2, 5), rng.randint(0, 3)
            t, cert = sample_family_F(rng, r, s)
            got = recognize_F(t)
            assert got is not None
            assert got.a_set == cert.a_set and got.x_set == cert.x_set

    @pytest.mark.parametrize("n", range(1, 14))
    def test_agrees_with_labeling_oracle(self, n):
        for t in enumerate_free_trees(n):
            assert (recognize_F(t) is not None) == oracle_member_F(t), t

    def test_strong_support_excluded(self):
        # twin leaf at a support of the six-path
        t = as_tree(build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6)]))
        assert t.strong_support_set
        assert recognize_F(t) is None
        assert Fraction(iota_bruteforce(t, 1).size) < Fraction(t.n + t.leaf_order, 4)

    def test_degree_two_bridge_pattern_excluded(self):
        # a 4-path glued by its inner vertex onto a tree
        base = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]  # 6-path
        extra = [(6, 7), (7, 8), (8, 9), (7, 2)]         # 4-path 6-7-8-9 at 7
        t = as_tree(build_graph(10, base + extra))
        assert recognize_F(t) is None
        assert Fraction(iota_bruteforce(t, 1).size) < Fraction(t.n + t.leaf_order, 4)

    def test_five_path_support_bridge_excluded(self):
        # a 5-path glued by a support vertex onto a tree
        base = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        extra = [(6, 7), (7, 8), (8, 9), (9, 10), (7, 2)]
        t = as_tree(build_graph(11, base + extra))
        assert recognize_F(t) is None
        assert Fraction(iota_bruteforce(t, 1).size) < Fraction(t.n + t.leaf_order, 4)


class TestMinIsoSetF:
    def test_six_path_takes_the_inner_pair(self):
        t, cert = gen_family_F(2, 0)
        for root in sorted(cert.a_set):
            sol = min_iso_set_F(t, cert, root)
            assert sol.set == cert.a_set
            assert is_isolating(t, sol.set, 1)

    def test_with_quads_takes_nearer_endpoints(self):
        t, cert = gen_family_F(2, 1)
        root = min(cert.a_set)
        sol = min_iso_set_F(t, cert, root)
        assert sol.size == 3 == iota_bruteforce(t, 1).size
        assert is_isolating(t, sol.set, 1)

    def test_no_quads_gives_exactly_a(self):
        t, cert = gen_family_F(3, 0)
        sol = min_iso_set_F(t, cert, min(cert.a_set))
        assert sol.set == cert.a_set

    def test_root_outside_parts_rejected(self):
        t, cert = gen_family_F(2, 0)
        leaf = min(cert.c_set)
        with pytest.raises(FamilyError, match="root"):
            min_iso_set_F(t, cert, leaf)

    def test_every_root_works(self):
        rng = random.Random(5)
        t, cert = sample_family_F(rng, 3, 2)
        expect = iota_tree_dp(t, 1).size
        for root in sorted(cert.a_set | cert.x_set):
            sol = min_iso_set_F(t, cert, root)
            assert sol.size == expect
            assert is_isolating(t, sol.set, 1)


# ---------------------------------------------------------------------------
# (n + l)/(2k + 1) family
# ---------------------------------------------------------------------------

class TestGenFamilyTk:
    def test_smallest_member_is_the_eight_path(self):
        t, cert = gen_family_Tk(2, 2, [(0, 1)], [0, 1])
        assert canonical_code(t) == canonical_code(path_tree(8))
        assert cert.h == 1 and cert.n0 == 2

    def test_k4_twelve_vertices(self):
        t, cert = gen_family_Tk(4, 2, [(0, 1)], [0, 1])
        assert t.n == 12
        assert iota_bruteforce(t, 4).size == 2 == len(cert.c_set)

    def test_trivial_component_rejected(self):
        with pytest.raises(FamilyError, match="trivial"):
            gen_family_Tk(2, 2, [], [0, 1])

    def test_overloaded_hub_rejected(self):
        with pytest.raises(FamilyError, match="between 1 and 2"):
            gen_family_Tk(2, 3, [(0, 1), (1, 2)], [0, 0, 0])

    def test_unused_hub_rejected(self):
        with pytest.raises(FamilyError, match="between 1 and"):
            gen_family_Tk(3, 3, [(0, 1), (1, 2)], [0, 0, 0])

    def test_cycle_wiring_rejected(self):
        # both bridges of one component into a single hub closes a cycle
        with pytest.raises(FamilyError, match="tree"):
            gen_family_Tk(2, 4, [(0, 1), (2, 3)], [0, 0, 1, 2])


class TestRecognizeTk:
    def test_eight_path(self):
        cert = recognize_Tk(path_tree(8), 2)
        assert cert is not None
        assert cert.a_set == frozenset({3, 4})
        assert cert.c_set == frozenset({1, 6})

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_star_is_not_a_member(self, k):
        assert recognize_Tk(star_tree(k), k) is None

    def test_nine_path_rejected(self):
        assert recognize_Tk(path_tree(9), 2) is None

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            recognize_Tk(path_tree(8), 1)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 14) for k in (2, 3)])
    def test_agrees_with_labeling_oracle(self, n, k):
        for t in enumerate_free_trees(n):
            assert (recognize_Tk(t, k) is not None) == oracle_member_Tk(t, k)

    def test_bridged_components_with_leafless_hub(self):
        # two A components joined through a hub with no leaves (k = 2)
        t, cert = gen_family_Tk(2, 4, [(0, 1), (2, 3)], [0, 1, 0, 2])
        assert t.n == 13
        got = recognize_Tk(t, 2)
        assert got is not None and got.h == 2
        assert oracle_member_Tk(t, 2)

    def test_round_trip_on_samples(self):
        rng = random.Random(99)
        for _ in range(30):
            k = rng.randint(2, 4)
            h = rng.randint(1, 2)
            n0 = rng.randint(2 * h, 6)
            t, cert = sample_family_Tk(rng, k, n0, h)
            got = recognize_Tk(t, k)
            assert got is not None
            assert got.a_set == cert.a_set
            assert got.c_set == cert.c_set
            assert got.h == cert.h


class NoDraws:
    """A random source that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used")


class TestSampleFamilyTk:
    def test_every_seed_gives_a_member(self):
        for seed in range(10):
            t, cert = sample_family_Tk(random.Random(seed), 4, 200, 20)
            got = recognize_Tk(t, 4)
            assert got is not None
            assert (got.h, got.n0) == (cert.h, cert.n0) == (20, 200)

    def test_draws_every_small_member(self):
        members = [
            (t, k, cert)
            for n in range(1, 16)
            for t in enumerate_free_trees(n)
            for k in (2, 3)
            if (cert := recognize_Tk(t, k)) is not None
        ]
        assert len(members) == 5
        for t, k, cert in members:
            code = canonical_code(t)
            assert any(
                canonical_code(sample_family_Tk(random.Random(seed), k, cert.n0, cert.h)[0])
                == code
                for seed in range(300)
            ), (k, cert.n0, cert.h)

    @pytest.mark.parametrize("k, n0, h, message", [
        (1, 2, 1, "need k >= 2, got 1"),
        (2, 2, 0, "need h >= 1, got 0"),
        (2, 2, -1, "need h >= 1, got -1"),
        (2, 3, 2, "h=2 components need n0 >= 4, got 3"),
    ])
    def test_bad_parameters_rejected_before_any_draw(self, k, n0, h, message):
        with pytest.raises(FamilyError, match=f"^{message}$"):
            sample_family_Tk(NoDraws(), k, n0, h)


def relabelled(t, perm):
    return as_tree(build_graph(t.n, [(perm[u], perm[v]) for u, v in t.edges()]))


def random_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


class TestRecognizerCertificates:
    def test_F_and_Tk_certificates_match_recorded_digest(self):
        # every free tree with n <= 12 and seeded family samples, each also
        # relabelled; the digest was recorded before the recognizers were
        # rewritten as one bottom-up pass from a leaf, and re-recorded when
        # the T_k sampler became constructive (new T_k draws and relabellings),
        # with only the sampler swapped into the older code
        rng = random.Random(2408)
        f_trees = [t for n in range(1, 13) for t in enumerate_free_trees(n)]
        tk_trees = list(f_trees)
        for _ in range(40):
            f_trees.append(sample_family_F(rng, rng.randint(2, 5), rng.randint(0, 3))[0])
        for _ in range(40):
            h = rng.randint(1, 3)
            tk_trees.append(sample_family_Tk(rng, rng.randint(2, 4), rng.randint(2 * h, 7), h)[0])
        f_trees += [relabelled(t, random_permutation(rng, t.n)) for t in f_trees[-40:]]
        tk_trees += [relabelled(t, random_permutation(rng, t.n)) for t in tk_trees[-40:]]

        digest = hashlib.sha256()
        accepted = 0
        for t, k in [(t, None) for t in f_trees] + [(t, k) for t in tk_trees for k in (2, 3, 4)]:
            cert = recognize_F(t) if k is None else recognize_Tk(t, k)
            item = None
            if cert is not None:
                accepted += 1
                item = json.dumps(cert.to_json_dict(), sort_keys=True)
            digest.update(f"{item}\n".encode())
        assert (len(f_trees), len(tk_trees), accepted) == (1067, 1067, 169)
        assert digest.hexdigest() == (
            "6d1d4de8686e783c2beb75a83b752e843ffd93f1e9f0f215f61cf0459e527e21"
        )

    def test_free_trees_to_16_match_recorded_digest(self):
        # recognize_F, recognize_Tk at k = 2, 3, 4 and corona_shape on every
        # free tree with n <= 16; recorded before the recognizers dropped
        # the membership tests that validate repeats or that cannot fire
        digest = hashlib.sha256()
        trees, accepted = 0, [0, 0, 0]
        for n in range(1, 17):
            for t in enumerate_free_trees(n):
                trees += 1
                f_cert = recognize_F(t)
                tk_certs = [recognize_Tk(t, k) for k in (2, 3, 4)]
                shape = corona_shape(t) if n >= 3 else None
                accepted[0] += f_cert is not None
                accepted[1] += sum(c is not None for c in tk_certs)
                accepted[2] += shape is not None
                certs = [None if c is None else json.dumps(c.to_json_dict(), sort_keys=True)
                         for c in [f_cert, *tk_certs]]
                digest.update(repr((certs, shape_item(shape))).encode() + b"\n")
        assert (trees, accepted) == (32508, [18, 9, 1895])
        assert digest.hexdigest() == (
            "04477dd681275d6aee405d2933d1ac8a4691c2fed4b6ed957e55a903171c3388"
        )

    def test_relabelled_members_give_permuted_parts(self):
        rng = random.Random(31)
        for _ in range(20):
            t, cert = sample_family_F(rng, rng.randint(2, 5), rng.randint(0, 3))
            perm = random_permutation(rng, t.n)
            got = recognize_F(relabelled(t, perm))
            assert got is not None
            for part in ("a_set", "b_set", "c_set", "x_set", "y_set"):
                assert getattr(got, part) == {perm[v] for v in getattr(cert, part)}
        for _ in range(20):
            k, h = rng.randint(2, 4), rng.randint(1, 3)
            t, cert = sample_family_Tk(rng, k, rng.randint(2 * h, 7), h)
            perm = random_permutation(rng, t.n)
            got = recognize_Tk(relabelled(t, perm), k)
            assert got is not None
            for part in ("a_set", "b_set", "c_set", "leaf_set"):
                assert getattr(got, part) == {perm[v] for v in getattr(cert, part)}
            assert (got.h, got.n0) == (cert.h, cert.n0)


class TestTkCertificateValidate:
    def test_hub_distance_clause_fires(self):
        # C1-B1-A-B2-C2: A vertex 0 carries two bridges, so hubs 5 and 6
        # sit at distance 4; vertex 1 completes the A component
        edges = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 7),
                 (5, 8), (6, 9), (7, 10)]
        t = as_tree(build_graph(11, edges))
        cert = TkCertificate(
            k=2,
            a_set=frozenset({0, 1}),
            b_set=frozenset({2, 3, 4}),
            c_set=frozenset({5, 6, 7}),
            leaf_set=frozenset({8, 9, 10}),
            h=1,
            n0=2,
        )
        violations = cert.validate(t)
        assert "A vertex 0 has 2 B-neighbors, want 1" in violations
        assert "C vertices 5, 6 at distance 4 < 5" in violations
        # hub 7 is at distance 5 from both others
        assert not any("C vertices" in v and "7" in v for v in violations)


class TestMinIsoSetTk:
    def test_eight_path(self):
        cert = recognize_Tk(path_tree(8), 2)
        sol = min_iso_set_Tk(path_tree(8), cert)
        assert sol.size == 2 == len(cert.c_set)
        assert is_isolating(path_tree(8), sol.set, 2)

    def test_single_component_takes_all_of_a(self):
        t, cert = gen_family_Tk(3, 3, [(0, 1), (1, 2)], [0, 1, 2])
        sol = min_iso_set_Tk(t, cert)
        assert sol.set == cert.a_set

    def test_two_components_drop_one_contact(self):
        rng = random.Random(17)
        t, cert = sample_family_Tk(rng, 3, 4, 2)
        sol = min_iso_set_Tk(t, cert)
        assert sol.size == 3 == len(cert.a_set) - 1
        assert is_isolating(t, sol.set, 3)
        assert sol.size == iota_tree_dp(t, 3).size


# ---------------------------------------------------------------------------
# (n - l)/2 graphs
# ---------------------------------------------------------------------------

def leaf_order(g):
    return sum(1 for v in range(g.n) if g.degree(v) == 1)


class TestCoronaExtremal:
    @pytest.mark.parametrize("k,r,n", [(2, 2, 8), (1, 1, 5), (3, 2, 11), (1, 2, 6)])
    def test_attains_equality(self, k, r, n):
        g = gen_corona_extremal(k, r, n)
        assert g.n == n
        assert iota_bruteforce(g, k).size == r
        assert Fraction(n - leaf_order(g), 2) == r

    def test_smallest_case_degrades_to_three_path(self):
        g = gen_corona_extremal(1, 1, 3)
        assert sorted(g.edges()) == [(0, 1), (0, 2)]
        assert iota_bruteforce(g, 1).size == 1

    def test_labels_pinned(self):
        # path v_0..v_2, partners w_i = 3 + i, k leaves per partner in turn,
        # then the two spare vertices on the last partner
        g = gen_corona_extremal(2, 3, 14)
        assert sorted(g.edges()) == [
            (0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 6), (3, 7),
            (4, 8), (4, 9), (5, 10), (5, 11), (5, 12), (5, 13),
        ]

    def test_too_few_vertices_rejected(self):
        with pytest.raises(FamilyError, match="n >="):
            gen_corona_extremal(2, 2, 7)


class TestCharOrderMinusLeaves:
    def test_cycle_kind_round_trip(self):
        g, cert = gen_char_orderminusleaves("c4", 1, leaf_counts=[1, 1, 1, 1])
        assert g.n == 8
        assert iota_bruteforce(g, 1).size == 2 == (g.n - leaf_order(g)) // 2
        got = recognize_char_orderminusleaves(g, 1)
        assert got is not None and got.kind == "c4_leaves"

    def test_corona_kind_round_trip(self):
        g, cert = gen_char_orderminusleaves(
            "corona", 2, base_edges=[(0, 1)], base_n=2, w_leaf_counts=[2, 2]
        )
        assert g.n == 8
        assert iota_bruteforce(g, 2).size == 2
        got = recognize_char_orderminusleaves(g, 2)
        assert got is not None and got.kind == "corona_with_leaves"

    def test_low_leaf_count_rejected(self):
        with pytest.raises(FamilyError, match="< k=2"):
            gen_char_orderminusleaves("c4", 2, leaf_counts=[2, 2, 2, 1])

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(FamilyError, match=f"need k >= 1, got {k}"):
            recognize_char_orderminusleaves(path_tree(6), k)

    def test_five_path_not_recognized(self):
        assert recognize_char_orderminusleaves(path_tree(5), 1) is None

    def test_star_not_recognized(self):
        assert recognize_char_orderminusleaves(star_tree(5), 1) is None

    def test_six_path_is_a_corona_with_leaves(self):
        cert = recognize_char_orderminusleaves(path_tree(6), 1)
        assert cert is not None and cert.kind == "corona_with_leaves"
        assert iota_bruteforce(path_tree(6), 1).size == 2

    def test_equivalence_on_all_small_connected_graphs(self):
        # ground truth by brute force over every connected graph, n <= 5;
        # at k >= 2 the two-non-leaf band is excluded (see double stars)
        for n in range(3, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in itertools.product((0, 1), repeat=len(pairs)):
                edges = [e for e, bit in zip(pairs, bits) if bit]
                g = build_graph(n, edges)
                if not g.is_connected():
                    continue
                l = leaf_order(g)
                for k in (1, 2):
                    eq = Fraction(iota_bruteforce(g, k).size) == Fraction(n - l, 2)
                    member = recognize_char_orderminusleaves(g, k) is not None
                    if k >= 2 and n - l == 2:
                        assert eq == any(g.degree(v) >= k for v in range(n)), (n, edges, k)
                    else:
                        assert eq == member, (n, edges, k)

    def test_double_star_band_at_k2(self):
        # P4 attains (n-l)/2 at k=2 without satisfying the per-support
        # leaf condition: the recognizer stays strict, equality holds
        g = path_tree(4)
        assert Fraction(iota_bruteforce(g, 2).size) == Fraction(g.n - leaf_order(g), 2)
        assert recognize_char_orderminusleaves(g, 2) is None


    def test_an_odd_core_has_no_shape(self):
        # each accepted core (4-cycle, edge, corona) has an even order
        odd = [t for n in range(3, 13) for t in enumerate_free_trees(n)
               if (t.n - t.leaf_order) % 2]
        assert len(odd) == 494
        assert all(corona_shape(t) is None for t in odd)

    def test_disconnected_graph_raises(self):
        g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        with pytest.raises(FamilyError, match="connected"):
            recognize_char_orderminusleaves(g, 1)

    def test_certificates_match_recorded_digest(self):
        # every free tree with n <= 12, every connected graph with n <= 6
        # and 4-cycles with 0..3 leaves per vertex, k = 1..4; the digest was
        # recorded before the recognizer was split into a k-free pass and a
        # per-k step
        import networkx as nx

        graphs = [t for n in range(3, 13) for t in enumerate_free_trees(n)]
        graphs += [build_graph(h.number_of_nodes(), list(h.edges()))
                   for h in nx.graph_atlas_g()
                   if 3 <= h.number_of_nodes() <= 6 and nx.is_connected(h)]
        graphs += [gen_char_orderminusleaves("c4", 0, leaf_counts=list(counts))[0]
                   for counts in itertools.product(range(4), repeat=4)]
        digest = hashlib.sha256()
        accepted = 0
        for g in graphs:
            for k in range(1, 5):
                cert = recognize_char_orderminusleaves(g, k)
                item = None
                if cert is not None:
                    accepted += 1
                    item = (cert.kind, cert.core_vertices, tuple(cert.leaf_assignment.items()))
                digest.update(repr(item).encode() + b"\n")
        assert (len(graphs), accepted) == (1382, 369)  # 98 of them 4-cycles
        assert digest.hexdigest() == (
            "672fb441cfbeafadf0ed7e81ecafa2ea44b03f6536274064808c5926476b657a"
        )

    def test_shapes_of_atlas_graphs_match_recorded_digest(self):
        # corona_shape on every connected graph of the atlas (3 <= n <= 7);
        # recorded before the pass stopped building core subgraphs
        import networkx as nx

        digest = hashlib.sha256()
        graphs = accepted = 0
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() >= 3 and nx.is_connected(h):
                graphs += 1
                shape = corona_shape(build_graph(h.number_of_nodes(), list(h.edges())))
                accepted += shape is not None
                digest.update(repr(shape_item(shape)).encode() + b"\n")
        assert (graphs, accepted) == (994, 18)
        assert digest.hexdigest() == (
            "556689bf6fd1bd855bde260544440edf64899ccd3204b2ddd4fe283f6a60138d"
        )


class TestSpider:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gap_construction(self, k):
        t = gen_spider_gap(k)
        assert t.n == 2 * k + 3
        assert t.leaf_order == 2 * k + 1
        assert iota_bruteforce(t, 1).size == 1

    def test_heavy_vertex_leads_longest_paths(self):
        t = gen_spider_gap(2)
        w = diameter_path(t)
        assert w.length == 3
        assert t.degree(w.vertices[1]) == t.max_degree


class TestTwinLeaves:
    def test_single_twin_on_six_path(self):
        t, cert = gen_family_F(2, 0)
        t2 = add_twin_leaves(t, cert, {min(cert.b_set): 1})
        assert t2.n == 7
        expected = Fraction(t2.n - t2.leaf_order + 2 * t2.support_count, 4)
        assert Fraction(iota_bruteforce(t2, 1).size) == expected == 2

    def test_zero_multiplicities_identity(self):
        t, cert = gen_family_F(2, 0)
        t2 = add_twin_leaves(t, cert, {b: 0 for b in cert.b_set})
        assert canonical_code(t2) == canonical_code(t)

    def test_double_twins_keep_equality(self):
        t, cert = gen_family_F(2, 1)
        t2 = add_twin_leaves(t, cert, {b: 2 for b in cert.b_set})
        expected = Fraction(t2.n - t2.leaf_order + 2 * t2.support_count, 4)
        assert Fraction(iota_tree_dp(t2, 1).size) == expected

    def test_non_support_key_rejected(self):
        t, cert = gen_family_F(2, 0)
        with pytest.raises(FamilyError, match="not a support"):
            add_twin_leaves(t, cert, {min(cert.a_set): 1})

    def test_negative_multiplicity_rejected(self):
        t, cert = gen_family_F(2, 0)
        with pytest.raises(FamilyError, match="negative"):
            add_twin_leaves(t, cert, {min(cert.b_set): -1})

"""Family generators, recognizers and constructive sets, cross-checked
against exhaustive-labeling oracles and brute-force optima."""

import ast
import hashlib
import inspect
import itertools
import json
import random
import re
import textwrap
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from stariso.families import (
    CoronaCertificate,
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

from bound_helpers import strong_supports
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
        assert strong_supports(t)
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


class TestSampleFamilyF:
    @pytest.mark.parametrize("r, s, message", [
        (0, 0, "need r >= 2 copies of the 3-path, got 0"),
        (0, 2, "need r >= 2 copies of the 3-path, got 0"),
        (1, 1, "need r >= 2 copies of the 3-path, got 1"),
        (2, -1, "need s >= 0 copies of the 4-path, got -1"),
    ])
    def test_bad_parameters_rejected_before_any_draw(self, r, s, message):
        with pytest.raises(FamilyError, match=f"^{message}$"):
            sample_family_F(NoDraws(), r, s)


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
        # C1-B1-A-B2-C2: A vertex 0 carries two bridges, so hubs 5 and 6 sit
        # at distance 4; that breaks A vertex 0's one-bridge rule, which is
        # why hubs of a member are at least 5 apart; vertex 1 completes the
        # A component
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
        assert "A vertex 0 has 2 B-neighbors, want 1" in cert.validate(t)


# ---------------------------------------------------------------------------
# Certificate corruptions: each row starts from a generated member and its
# certificate, changes one thing, and names a clause ``validate`` must report
# ---------------------------------------------------------------------------

def moved(v, src, dst):
    """Move vertex v from one part of the certificate to another."""
    return lambda g, cert: (g, replace(cert, **{src: getattr(cert, src) - {v},
                                                 dst: getattr(cert, dst) | {v}}))


def swapped(p, q):
    """Exchange two parts of the certificate."""
    return lambda g, cert: (g, replace(cert, **{p: getattr(cert, q), q: getattr(cert, p)}))


def field(**values):
    """Overwrite certificate fields."""
    return lambda g, cert: (g, replace(cert, **values))


def rewired(drop, add):
    """The same certificate against the graph with edge ``drop`` (if any)
    replaced by edge ``add``."""
    def change(g, cert):
        graph = build_graph(g.n, [e for e in g.edges() if e != drop] + [add])
        return (as_tree(graph) if isinstance(g, Tree) else graph), cert
    return change


# gen_family_F(3, 2): 2-1-0-9-10-11-12-13-14-15-16, then 16-3-4-5 and 16-6-7-8;
# A = {0, 3, 6}, B = {1, 4, 7}, C = {2, 5, 8}, X = {9, 12, 13, 16}, Y = {10, 11, 14, 15}
F_CORRUPTIONS = [
    (field(a_set=frozenset({3, 6})), "parts do not partition the vertex set"),
    (swapped("b_set", "c_set"), "C is not exactly the leaf set"),
    (rewired((0, 9), (1, 9)), "support 1 has degree 3 != 2"),
    (moved(0, "a_set", "b_set"), "support 1 lacks one A-neighbor and one C-neighbor"),
    (moved(16, "x_set", "y_set"), "Y vertex 16 has degree 3 != 2"),
    (moved(10, "y_set", "x_set"), "Y vertex 11 lacks one X-neighbor and one Y-neighbor"),
    (moved(10, "y_set", "x_set"), "X vertex 9 has 0 Y-neighbors, want 1"),
    (moved(0, "a_set", "b_set"), "X vertex 9 has a neighbor outside Y u X u A"),
    (field(a_set=frozenset({0}), x_set=frozenset({3, 6, 9, 12, 13, 16})), "|A|=1 < 2"),
    (field(p3_copies=((0, 1, 2), (3, 4, 5))), "wrong number of 3-path copies"),
    (field(p3_copies=((2, 1, 0), (3, 4, 5), (6, 7, 8))), "3-path copy (2,1,0) mislabeled"),
    (field(p3_copies=((0, 1, 5), (3, 4, 2), (6, 7, 8))), "3-path copy (0,1,5) is not a path"),
    (field(p3_copies=((0, 1, 2), (0, 1, 2), (6, 7, 8))),
     "3-path copies do not partition A u B u C"),
    (field(p4_copies=((9, 10, 11, 12),)), "wrong number of 4-path copies"),
    (field(p4_copies=((10, 9, 11, 12), (13, 14, 15, 16))), "4-path copy (10,9,11,12) mislabeled"),
    (field(p4_copies=((9, 11, 10, 12), (13, 14, 15, 16))),
     "4-path copy (9,11,10,12) is not a path"),
    (field(p4_copies=((9, 10, 11, 12), (9, 10, 11, 12))),
     "4-path copies do not partition X u Y"),
]

# gen_family_Tk(3, 4, [(0, 1), (2, 3)], [0, 1, 1, 2]): A = {0, 1, 2, 3} in two
# components, bridge 4 + i on A vertex i, hubs 8 (bridge 4), 9 (bridges 5, 6)
# and 10 (bridge 7), leaves 11, 12 on 8, 13 on 9, 14, 15 on 10
TK_CORRUPTIONS = [
    (field(k=1), "k=1 < 2"),
    (field(a_set=frozenset({0, 1, 2})), "parts do not partition the vertex set"),
    (swapped("c_set", "leaf_set"), "L is not exactly the leaf set"),
    (field(h=1), "A induces 2 components, certificate says h=1"),
    (moved(1, "a_set", "b_set"), "A component [0] is trivial"),
    (field(n0=5), "|A|=4, n0=5 inconsistent"),
    (moved(4, "b_set", "a_set"), "A vertex 0 has 0 B-neighbors, want 1"),
    (moved(1, "a_set", "c_set"), "A vertex 0 has a neighbor outside A u B"),
    (moved(9, "c_set", "b_set"), "B vertex 9 has degree 3 != 2"),
    (moved(8, "c_set", "a_set"), "B vertex 4 lacks one A-neighbor and one C-neighbor"),
    (field(k=4), "C vertex 8 has degree 3 != k=4"),
    (moved(11, "leaf_set", "c_set"), "C vertex 8 has a neighbor outside B u L"),
]

# Changes that break a consequence of the clauses, not a clause: each row
# names the consequence (as the clause that once checked it read), and
# ``validate`` must still reject the change through a defining clause
F_IMPLIED = [
    (swapped("a_set", "b_set"), "B is not exactly the support set"),
    (rewired((0, 9), (0, 10)), "X vertex 9 has no neighbor in X u A"),
    (field(p4_copies=((12, 10, 11, 13), (9, 14, 15, 16))),
     "X-X edge (12, 13) inside one 4-path copy"),
    (moved(2, "c_set", "b_set"), "|A|=3, |B|=4, |C|=2 not all equal"),
    (moved(10, "y_set", "x_set"), "|X|=5, |Y|=3 must be equal and even"),
    (moved(0, "a_set", "y_set"), "n=17 != 3|A| + 2|X| >= 6"),
    (moved(0, "a_set", "y_set"), "(n+l)/4 = 5 != |A| + |X|/2"),
    (swapped("a_set", "c_set"), "vertex 2 in A u X is a leaf"),
    (moved(0, "a_set", "x_set"), "X u Y component of order 9 not divisible by 4"),
]

TK_IMPLIED = [
    (moved(11, "leaf_set", "c_set"), "C vertex 11 has no B-neighbor"),
    (moved(8, "c_set", "b_set"), "leaf 11 is not attached to C"),
    (moved(9, "c_set", "leaf_set"), "A u B u C does not induce a tree"),
    (moved(9, "c_set", "leaf_set"), "|C|=2 != n0-(h-1)=3"),
    (moved(9, "c_set", "leaf_set"), "|L|=6 != (k-1)n0-k(h-1)=5"),
    (field(n0=5), "n=16 != (k+2)n0-(k+1)(h-1) >= 2k+4"),
    (moved(1, "a_set", "c_set"), "C vertices 1, 8 at distance 3 < 5"),
]

# "c4": the 4-cycle 0-1-2-3 with leaf 4 + i on vertex i; "corona": the path
# 0-1-2 with partner 3 + i on vertex i and leaf 6 + i on partner 3 + i
CORONA_CORRUPTIONS = [
    ("c4", field(core_vertices=(0, 1, 2, 2)), 1, "core is not 4 distinct vertices"),
    ("c4", field(core_vertices=(0, 2, 1, 3)), 1, "missing cycle edge (0, 2)"),
    ("c4", rewired(None, (0, 2)), 1, "core has a chord"),
    ("c4", rewired(None, (4, 5)), 1, "a non-core vertex is not a leaf"),
    ("c4", field(), 2, "cycle vertex 0 has 1 < k=2 leaves"),
    ("c4", field(leaf_assignment={0: 2, 1: 1, 2: 1, 3: 1}), 1, "leaf assignment wrong at 0"),
    ("corona", field(kind="corona"), 1, "unknown kind 'corona'"),
    ("corona", field(core_vertices=((0, 3), (1, 3), (2, 5))), 1, "corona pairs are not disjoint"),
    ("corona", rewired(None, (6, 7)), 1, "a non-core vertex is not a leaf"),
    ("corona", field(core_vertices=((0, 3), (4, 1), (2, 5))), 1,
     "the inner corona vertices do not induce a connected graph"),
    ("corona", field(core_vertices=((0, 4), (1, 3), (2, 5))), 1,
     "pendant partner edge (0, 4) missing"),
    ("corona", rewired(None, (3, 4)), 1, "corona leaf 3 has core neighbors besides 0"),
    ("corona", field(), 2, "corona leaf 3 has 1 < k=2 leaves"),
    ("corona", field(leaf_assignment={3: 2, 4: 1, 5: 1}), 1, "leaf assignment wrong at 3"),
    ("c4", field(leaf_assignment={0: 1, 1: 1, 2: 1, 3: 1, 5: 7}), 1,
     "leaf assignment wrong at 5"),
    ("corona", field(leaf_assignment={}), 1, "leaf assignment wrong at 5"),
    ("corona", field(leaf_assignment={0: 0, 3: 1, 4: 1, 5: 1}), 1, "leaf assignment wrong at 0"),
]


def assert_rejected(violations, message, implied):
    """A clause's row must report its message; an implied row must be
    rejected by the defining clauses alone."""
    if any(message == m for _, m in implied):
        assert violations and message not in violations
    else:
        assert message in violations


def clause_patterns(cls):
    """One regular expression per distinct message ``cls.validate`` can
    report, each formatted field matching any text."""
    patterns = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(cls.validate)))):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "v.append":
            (text,) = node.args
            pieces = text.values if isinstance(text, ast.JoinedStr) else [text]
            patterns.add("".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".+"
                                 for p in pieces))
    return patterns


class TestCertificateCorruptions:
    @pytest.mark.parametrize("change, message", F_CORRUPTIONS + F_IMPLIED)
    def test_F_clause_fires(self, change, message):
        t, cert = change(*gen_family_F(3, 2))
        assert_rejected(cert.validate(t), message, F_IMPLIED)

    @pytest.mark.parametrize("change, message", TK_CORRUPTIONS + TK_IMPLIED)
    def test_Tk_clause_fires(self, change, message):
        t, cert = change(*gen_family_Tk(3, 4, [(0, 1), (2, 3)], [0, 1, 1, 2]))
        assert_rejected(cert.validate(t), message, TK_IMPLIED)

    @pytest.mark.parametrize("kind, change, k, message", CORONA_CORRUPTIONS)
    def test_corona_clause_fires(self, kind, change, k, message):
        if kind == "c4":
            member = gen_char_orderminusleaves("c4", 1, leaf_counts=[1, 1, 1, 1])
        else:
            member = gen_char_orderminusleaves("corona", 1, base_edges=[(0, 1), (1, 2)], base_n=3)
        g, cert = change(*member)
        assert message in cert.validate(g, k)

    def test_every_clause_has_a_row(self):
        # each message a validate method can report is some row's message,
        # and each row's message is exactly one of them
        tables = [(FCertificate, F_CORRUPTIONS), (TkCertificate, TK_CORRUPTIONS),
                  (CoronaCertificate, CORONA_CORRUPTIONS)]
        for cls, rows in tables:
            messages = sorted(row[-1] for row in rows)
            hits = {p: [m for m in messages if re.fullmatch(p, m)] for p in clause_patterns(cls)}
            assert all(hits.values()), cls
            assert sorted(m for found in hits.values() for m in found) == messages, cls
        assert [len(clause_patterns(cls)) for cls, _ in tables] == [17, 12, 12]

    def test_the_pattern_scan_sees_every_clause(self):
        class Checked:
            def validate(self, t):
                v = []
                v.append("plain clause")
                v.append(f"vertex {t} has {len(t)} < k={t} leaves")
                v.append(f"vertex {t} has {len(t)} < k={t} leaves")
                return v

        plain, formatted = sorted(clause_patterns(Checked))
        assert re.fullmatch(plain, "plain clause")
        assert re.fullmatch(formatted, "vertex 3 has 1 < k=2 leaves")
        assert not re.fullmatch(formatted, "vertex 3 has 1 < k=2 leaf")


# ---------------------------------------------------------------------------
# Labelings are unique: ``validate`` accepts a member's own labeling and no
# other, checked against every labeling (T_k) and random edits (F)
# ---------------------------------------------------------------------------

def tk_labelings(t, k):
    """Every certificate that labels t's non-leaves A, B or C, with h and
    n0 read off its A part."""
    inner = [v for v in range(t.n) if v not in t.leaf_set]
    for labels in itertools.product("ABC", repeat=len(inner)):
        a, b, c = (frozenset(v for v, got in zip(inner, labels) if got == want) for want in "ABC")
        yield TkCertificate(k=k, a_set=a, b_set=b, c_set=c, leaf_set=t.leaf_set,
                            h=_component_count(t, a), n0=len(a))


F_PARTS = ("a_set", "b_set", "c_set", "x_set", "y_set")


def f_labeling(cert):
    """A certificate's parts and copies, each 4-path copy read from its
    smaller end and the copies in order."""
    return ([getattr(cert, part) for part in F_PARTS], sorted(cert.p3_copies),
            sorted(min(q, q[::-1]) for q in cert.p4_copies))


def f_edit(rng, t, cert):
    """One random change of an F certificate: a vertex moved to a part, two
    parts swapped, or one copy reversed, dropped, doubled, shuffled, given
    a random vertex or traded a vertex with another copy."""
    copies = rng.choice(["p3_copies", "p4_copies"])
    seq = list(getattr(cert, copies))
    edit = rng.randrange(8)
    if edit == 0:
        v = rng.randrange(t.n)
        src = next(part for part in F_PARTS if v in getattr(cert, part))
        dst = rng.choice(F_PARTS)
        cert = replace(cert, **{src: getattr(cert, src) - {v}})
        return replace(cert, **{dst: getattr(cert, dst) | {v}})
    if edit == 1:
        p, q = rng.sample(F_PARTS, 2)
        return replace(cert, **{p: getattr(cert, q), q: getattr(cert, p)})
    if not seq:
        return cert
    i, j = rng.randrange(len(seq)), rng.randrange(len(seq))
    if edit == 2:
        seq[i] = seq[i][::-1]
    elif edit == 3:
        del seq[i]
    elif edit == 4:
        seq.append(seq[i])
    elif edit == 5:
        rng.shuffle(seq)
    elif edit == 6:
        slot = rng.randrange(len(seq[i]))
        seq[i] = seq[i][:slot] + (rng.randrange(t.n),) + seq[i][slot + 1:]
    else:
        slot = rng.randrange(len(seq[i]))
        seq[i], seq[j] = (seq[i][:slot] + seq[j][slot:slot + 1] + seq[i][slot + 1:],
                          seq[j][:slot] + seq[i][slot:slot + 1] + seq[j][slot + 1:])
    return replace(cert, **{copies: tuple(seq)})


class TestLabelingsAreUnique:
    @pytest.mark.parametrize("k", [2, 3])
    def test_only_the_recognized_tk_labeling_of_a_small_tree_is_valid(self, k):
        trees = [t for n in range(1, 11) for t in enumerate_free_trees(n)
                 if t.n - t.leaf_order <= 7]
        labelings = members = 0
        for t in trees:
            certs = list(tk_labelings(t, k))
            got = recognize_Tk(t, k)
            assert [cert for cert in certs if not cert.validate(t)] == ([] if got is None else [got])
            labelings += len(certs)
            members += got is not None
        assert (len(trees), labelings, members) == (200, 56332, 1)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n0, forest", [(2, [(0, 1)]), (3, [(0, 1), (1, 2)])])
    def test_only_the_own_labeling_of_a_small_tk_member_is_valid(self, k, n0, forest):
        t, cert = gen_family_Tk(k, n0, forest, list(range(n0)))
        assert t.n - t.leaf_order <= 9
        assert [c for c in tk_labelings(t, k) if not c.validate(t)] == [cert]

    def test_edited_F_certificates_are_rejected_unless_unchanged(self):
        rng = random.Random(28)
        edits = changed = 0
        for _ in range(60):
            t, cert = sample_family_F(rng, rng.randint(2, 4), rng.randint(0, 3))
            for _ in range(50):
                edited = f_edit(rng, t, cert)
                same = f_labeling(edited) == f_labeling(cert)
                assert (not edited.validate(t)) == same, (t.edges(), cert, edited)
                edits += 1
                changed += not same
        assert (edits, changed) == (3000, 1970)


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

    def test_sampled_members_give_a_minimum_set_inside_a(self):
        rng = random.Random(31)
        for _ in range(200):
            k, h = rng.randint(2, 4), rng.randint(1, 5)
            t, cert = sample_family_Tk(rng, k, rng.randint(2 * h, 2 * h + 4), h)
            sol = min_iso_set_Tk(t, cert)
            assert sol.set <= cert.a_set and sol.size == len(cert.a_set) - (h - 1)
            assert sol.size == len(cert.c_set) == iota_tree_dp(t, k).size
            assert is_isolating(t, sol.set, k)

    def test_a_rejected_certificate_raises(self):
        t, cert = gen_family_Tk(3, 3, [(0, 1), (1, 2)], [0, 1, 2])
        with pytest.raises(FamilyError, match="A induces 1 components, certificate says h=2"):
            min_iso_set_Tk(t, replace(cert, h=2))
        with pytest.raises(FamilyError, match="C vertex"):
            min_iso_set_Tk(t, replace(cert, k=2))


# ---------------------------------------------------------------------------
# What a validated membership implies: the sweep checks the membership, and
# these statements are checked here, on the members themselves
# ---------------------------------------------------------------------------

def recognized_members(recognize, sample, draws):
    """Each tree with n <= 14 that ``recognize`` accepts, with its
    certificate, then ``draws`` seeded ``sample(rng)`` trees, each checked
    to be recognized."""
    for n in range(1, 15):
        for t in enumerate_free_trees(n):
            cert = recognize(t)
            if cert is not None:
                yield t, cert
    rng = random.Random(7)
    for _ in range(draws):
        t = sample(rng)
        cert = recognize(t)
        assert cert is not None
        yield t, cert


class TestWhatMembershipImplies:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_a_Tk_member_fixes_its_hub_count_order_diameter_and_hub_degree(self, k):
        def sample(rng):
            h = rng.randint(1, 3)
            return sample_family_Tk(rng, k, rng.randint(2 * h, 2 * h + 4), h)[0]

        small = 0
        for t, cert in recognized_members(partial(recognize_Tk, k=k), sample, 200):
            assert min_iso_set_Tk(t, cert).size == len(cert.c_set)
            assert t.n >= 2 * k + 4
            # the path c-b-a-a'-b'-c' through two hubs; u_1 is a hub
            path = diameter_path(t)
            assert path.length >= 5
            assert t.degree(path.vertices[1]) == k
            small += t.n <= 14
        assert small > 0

    def test_no_F_member_has_a_strong_support(self):
        def sample(rng):
            return sample_family_F(rng, rng.randint(2, 5), rng.randint(0, 3))[0]

        small = 0
        for t, _ in recognized_members(recognize_F, sample, 200):
            assert not strong_supports(t)
            small += t.n <= 14
        assert small > 0


# ---------------------------------------------------------------------------
# (n - l)/2 graphs
# ---------------------------------------------------------------------------

def leaf_order(g):
    return sum(1 for v in range(g.n) if g.degree(v) == 1)


def leafy_four_cycle(counts):
    """The 4-cycle 0-1-2-3 with counts[i] leaves on vertex i, numbered from
    4 in turn (``gen_char_orderminusleaves``'s layout, any count)."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    edges += [(i, 4 + sum(counts[:i]) + j) for i, cnt in enumerate(counts) for j in range(cnt)]
    return build_graph(4 + sum(counts), edges)


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

    @pytest.mark.parametrize("kind, shape", [
        ("c4", {"leaf_counts": [0, 0, 0, 0]}),
        ("corona", {"base_edges": [(0, 1)], "base_n": 2}),
    ])
    @pytest.mark.parametrize("k", [0, -1])
    def test_generator_rejects_k_below_one(self, kind, shape, k):
        with pytest.raises(FamilyError, match=f"^need k >= 1, got {k}$"):
            gen_char_orderminusleaves(kind, k, **shape)

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
        graphs += [leafy_four_cycle(counts) for counts in itertools.product(range(4), repeat=4)]
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

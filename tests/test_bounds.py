"""Bound evaluation, regime classification and equality reporting."""

import json
from fractions import Fraction

import pytest

from stariso.bounds import (
    BOUND_NAMES,
    BOUTRIG,
    CARO_THIRD,
    CARO_TREES,
    ORDER_MINUS_LEAVES,
    ORDER_PLUS_LEAVES,
    STAR_BOUND,
    SUPPORT_BOUND,
    BoundReport,
    evaluate_bounds,
    regime_classify,
)
from stariso.families import gen_corona_extremal, gen_spider_gap
from stariso.graphs import as_tree, enumerate_free_trees, is_any_star, is_star
from stariso.solver import iota_tree_dp

from bound_helpers import fraction_table_violations, strong_supports
from tree_helpers import path_tree, star_tree


class TestRegimeClassify:
    def test_k1_examples(self):
        assert regime_classify(3, 2, 1) == "ℓ > n/3"
        assert regime_classify(9, 3, 1) == "ℓ = n/3"
        assert regime_classify(7, 2, 1) == "ℓ < n/3"

    def test_k2_thresholds(self):
        assert regime_classify(12, 3, 2) == "ℓ = (k-1)n/(k+2)"
        assert regime_classify(12, 4, 2) == "(k-1)n/(k+2) < ℓ < kn/(k+2)"
        assert regime_classify(12, 6, 2) == "ℓ = kn/(k+2)"
        assert regime_classify(12, 7, 2) == "ℓ > kn/(k+2)"
        assert regime_classify(12, 2, 2) == "ℓ < (k-1)n/(k+2)"

    def test_bad_input(self):
        with pytest.raises(ValueError):
            regime_classify(4, 5, 1)
        with pytest.raises(ValueError):
            regime_classify(4, 2, 0)
        with pytest.raises(ValueError, match="leaf order -1 out of range"):
            regime_classify(5, -1, 1)


class TestEvaluateBounds:
    def test_six_path_sits_on_the_triple_point(self):
        t = path_tree(6)
        report = evaluate_bounds(t, 1, iota_tree_dp(t, 1).size)
        assert report.iota == 2
        assert report.regime == "ℓ = n/3"
        assert report.bounds[ORDER_PLUS_LEAVES] == 2
        assert report.bounds[ORDER_MINUS_LEAVES] == 2
        assert report.equality[ORDER_PLUS_LEAVES]
        assert report.equality[ORDER_MINUS_LEAVES]
        assert report.equality[CARO_THIRD]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_star_attains_its_bound(self, k):
        t = star_tree(k)
        report = evaluate_bounds(t, k, iota_tree_dp(t, k).size)
        assert report.bounds[STAR_BOUND] == 1
        assert report.iota == 1
        assert report.equality[STAR_BOUND]
        assert CARO_TREES in report.not_applicable

    def test_corona_extremal_attains_order_minus_leaves(self):
        t = as_tree(gen_corona_extremal(2, 2, 8))
        report = evaluate_bounds(t, 2, iota_tree_dp(t, 2).size)
        assert report.bounds[ORDER_MINUS_LEAVES] == 2
        assert report.iota == 2
        assert report.equality[ORDER_MINUS_LEAVES]

    def test_five_path_all_strict(self):
        t = path_tree(5)
        report = evaluate_bounds(t, 1, iota_tree_dp(t, 1).size)
        assert report.iota == 1
        assert not any(report.equality.values())

    def test_two_vertex_not_applicable_entries(self):
        t = path_tree(2)
        report = evaluate_bounds(t, 1, iota_tree_dp(t, 1).size)
        assert ORDER_MINUS_LEAVES in report.not_applicable
        assert CARO_THIRD in report.not_applicable
        assert SUPPORT_BOUND in report.not_applicable
        assert report.bounds[ORDER_PLUS_LEAVES] == 1
        assert report.equality[ORDER_PLUS_LEAVES]

    def test_stars_excluded_from_leaf_removal_bounds(self):
        t = star_tree(3)
        report = evaluate_bounds(t, 1, iota_tree_dp(t, 1).size)
        assert "star" in report.not_applicable[ORDER_MINUS_LEAVES]
        assert "star" in report.not_applicable[BOUTRIG]
        assert CARO_TREES in report.bounds  # K_{1,3} is not the 1-star
        assert report.bounds[CARO_TREES] == Fraction(4, 3)

    def test_star_bound_informational_at_k1(self):
        t = path_tree(6)
        report = evaluate_bounds(t, 1, iota_tree_dp(t, 1).size)
        assert STAR_BOUND in report.notes
        assert report.bounds[STAR_BOUND] == Fraction(8, 3)

    def test_json_rendering(self):
        t = path_tree(5)
        report = evaluate_bounds(t, 1, iota_tree_dp(t, 1).size)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["bounds"][ORDER_PLUS_LEAVES] == "7/4"
        assert payload["bounds"][ORDER_MINUS_LEAVES] == "3/2"
        assert payload["regime"] == "ℓ > n/3"
        assert payload["iota"] == 1
        t = path_tree(2)
        report2 = evaluate_bounds(t, 1, iota_tree_dp(t, 1).size)
        assert report2.to_json_dict()["bounds"][CARO_THIRD].startswith("N/A:")


class TestGap:
    """(n + l)/4 minus iota_1, exactly."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_spider_gap_is_k(self, k):
        t = gen_spider_gap(k)
        assert Fraction(t.n + t.leaf_order, 4) - iota_tree_dp(t, 1).size == k

    def test_six_path_gap_zero(self):
        t = path_tree(6)
        assert Fraction(t.n + t.leaf_order, 4) - iota_tree_dp(t, 1).size == 0


class TestSweptInvariants:
    def test_no_applicable_bound_violated(self):
        for n in range(1, 11):
            for t in enumerate_free_trees(n):
                for k in (1, 2, 3):
                    report = evaluate_bounds(t, k, iota_tree_dp(t, k).size)
                    for name, value in report.bounds.items():
                        assert Fraction(report.iota) <= value, (n, k, name)
                    if t.n >= 3 and not is_any_star(t):
                        assert not fraction_table_violations(
                            t.n, t.leaf_order, k, report.iota, report.regime), (n, k)

    def test_support_bound_below_leaf_bound(self):
        for n in range(3, 11):
            for t in enumerate_free_trees(n):
                report = evaluate_bounds(t, 1, iota_tree_dp(t, 1).size)
                if SUPPORT_BOUND not in report.bounds:
                    continue
                sb = report.bounds[SUPPORT_BOUND]
                opl = report.bounds[ORDER_PLUS_LEAVES]
                assert sb <= opl
                assert (sb == opl) == (not strong_supports(t))

    def test_order_plus_leaf_order_floor(self):
        # any tree with a k-star has n + l >= 2k + 1, tight only at the star
        for n in range(2, 11):
            for t in enumerate_free_trees(n):
                for k in (2, 3, 4):
                    if t.max_degree < k:
                        continue
                    total = t.n + t.leaf_order
                    assert total >= 2 * k + 1
                    is_k_star = t.n == k + 1 and t.max_degree == k
                    assert (total == 2 * k + 1) == is_k_star


class FakeTree:
    """Just the statistics the bound code reads, for (n, l, s) no tree has;
    max degree 0 (the default) keeps every star clause off, and n - 1 turns
    them on."""

    def __init__(self, n, l, s=0, max_degree=0):
        self.n, self.leaf_order, self.support_count, self.max_degree = n, l, s, max_degree


def fraction_regime(n, l, k):
    """regime_classify as it was written with Fractions: the reference."""
    if k == 1:
        third = Fraction(n, 3)
        if l < third:
            return "ℓ < n/3"
        if l == third:
            return "ℓ = n/3"
        return "ℓ > n/3"
    low = Fraction((k - 1) * n, k + 2)
    high = Fraction(k * n, k + 2)
    if l < low:
        return "ℓ < (k-1)n/(k+2)"
    if l == low:
        return "ℓ = (k-1)n/(k+2)"
    if l < high:
        return "(k-1)n/(k+2) < ℓ < kn/(k+2)"
    if l == high:
        return "ℓ = kn/(k+2)"
    return "ℓ > kn/(k+2)"


class TestIntegerComparisons:
    """The integer cross-multiplications agree with the Fraction reference."""

    def test_regime_and_equality_flags_match_fractions(self):
        for n in range(1, 41):
            for l in range(n + 1):
                s = (l + 1) // 2
                for k in range(1, 6):
                    regime = regime_classify(n, l, k)
                    assert regime == fraction_regime(n, l, k), (n, l, k)
                    for iota in range(n + 1):
                        report = evaluate_bounds(FakeTree(n, l, s), k, iota)
                        assert report.regime == regime
                        assert report.equality == {
                            name: Fraction(iota) == value for name, value in report.bounds.items()
                        }, (n, l, k, iota)


def fraction_evaluate_bounds(t, k, iota):
    """evaluate_bounds written out per tree, with Fraction equality
    flags: the reference."""
    n, l, s = t.n, t.leaf_order, t.support_count
    bounds = {}
    na = {}
    notes = {}

    star_any = is_any_star(t)
    if n < 3:
        na[ORDER_MINUS_LEAVES] = "requires n >= 3"
    elif star_any:
        na[ORDER_MINUS_LEAVES] = "star: removing the leaves leaves a single vertex"
    else:
        bounds[ORDER_MINUS_LEAVES] = Fraction(n - l, 2)

    bounds[ORDER_PLUS_LEAVES] = Fraction(n + l, 4)

    if is_star(t, k):
        na[CARO_TREES] = f"tree is the k-star K(1,{k})"
    else:
        bounds[CARO_TREES] = Fraction(n, k + 2)

    bounds[STAR_BOUND] = Fraction(n + l, 2 * k + 1)
    if k == 1:
        notes[STAR_BOUND] = "informational at k=1: not sharp, dominated by order_plus_leaves"

    if n < 3:
        na[SUPPORT_BOUND] = "requires n >= 3"
    elif s == 1:
        na[SUPPORT_BOUND] = "requires s != 1"
    else:
        bounds[SUPPORT_BOUND] = Fraction(n - l + 2 * s, 4)

    if n < 3:
        na[BOUTRIG] = "requires n >= 3"
    elif star_any:
        na[BOUTRIG] = "star: removing the leaves leaves a single vertex"
    else:
        bounds[BOUTRIG] = Fraction(n - l + s, 3)

    if n == 2:
        na[CARO_THIRD] = "tree is K_2"
    else:
        bounds[CARO_THIRD] = Fraction(n, 3)

    equality = {name: value == iota for name, value in bounds.items()}
    return BoundReport(
        n=n, l=l, s=s, k=k, iota=iota,
        regime=regime_classify(n, l, k),
        bounds=bounds, not_applicable=na, equality=equality, notes=notes,
    )


def report_fields(report):
    """Every field, each dict as its item list so that order counts too."""
    return [list(value.items()) if isinstance(value, dict) else value for value in report]


class TestBoundTable:
    """The bound report of a key is the report the Fraction code gave, and
    no report can change a later one."""

    def test_matches_the_fraction_reference(self):
        # every key of the FakeTree grid, star or not; iota at 0 and at and
        # just above every whole bound value, where an equality flag turns
        # (TestIntegerComparisons covers every iota on part of the grid)
        stars = 0
        for n in range(1, 41):
            for l in range(n + 1):
                for s in sorted({0, 1, (l + 1) // 2, l}):
                    for max_degree in (0, n - 1):
                        t = FakeTree(n, l, s, max_degree)
                        for k in range(1, 6):
                            stars += is_star(t, k)
                            base = fraction_evaluate_bounds(t, k, 0)
                            values = base.bounds.values()
                            whole = {int(v) for v in values if v.denominator == 1}
                            iotas = {0} | whole | {w + 1 for w in whole}
                            for iota in sorted(iotas):
                                got = evaluate_bounds(t, k, iota)
                                want = base._replace(iota=iota, equality={
                                    name: v == iota for name, v in base.bounds.items()})
                                assert report_fields(got) == report_fields(want), (
                                    n, l, s, max_degree, k, iota)
        assert stars > 0

    def test_real_trees_match_the_fraction_reference(self):
        for n in range(1, 10):
            for t in enumerate_free_trees(n):
                for k in (1, 2, 3):
                    iota = iota_tree_dp(t, k).size
                    got = evaluate_bounds(t, k, iota)
                    want = fraction_evaluate_bounds(t, k, iota)
                    assert report_fields(got) == report_fields(want)
                    assert got.to_json_dict() == want.to_json_dict()

    @pytest.mark.parametrize("t, k", [(star_tree(3), 1), (star_tree(3), 3), (path_tree(2), 1)])
    def test_mutating_a_report_leaves_later_ones_alone(self, t, k):
        first = evaluate_bounds(t, k, 1)
        assert first.not_applicable
        first.bounds.clear()
        first.equality.clear()
        first.not_applicable.clear()
        first.notes["planted"] = "note"
        for iota in (1, 0):
            again = evaluate_bounds(t, k, iota)
            assert report_fields(again) == report_fields(fraction_evaluate_bounds(t, k, iota))
            again.bounds[ORDER_PLUS_LEAVES] = Fraction(99)
            again.equality[ORDER_PLUS_LEAVES] = None
        assert set(evaluate_bounds(t, k, 1).to_json_dict()["bounds"]) == set(BOUND_NAMES)


def direct_render(report):
    """The "bounds" block of to_json_dict rendered from the report's own
    Fractions and reasons: the reference."""
    return {
        name: (f"{report.bounds[name].numerator}/{report.bounds[name].denominator}"
               if name in report.bounds else f"N/A: {report.not_applicable[name]}")
        for name in BOUND_NAMES
    }


class TestRenderedStrings:
    """to_json_dict renders the report's own dicts: it matches a direct
    rendering, its output cannot change a later report, and it follows a
    caller's edits."""

    def test_match_a_direct_rendering(self):
        keys = set()
        for n in range(1, 11):
            for t in enumerate_free_trees(n):
                for k in range(1, 5):
                    report = evaluate_bounds(t, k, 1)
                    rendered = report.to_json_dict()
                    assert rendered["bounds"] == direct_render(report)
                    assert list(rendered["bounds"]) == list(BOUND_NAMES)
                    keys.add((n, t.leaf_order, t.support_count, k))
        assert len(keys) > 100

    @pytest.mark.parametrize("t, k", [(path_tree(6), 1), (star_tree(3), 3), (path_tree(2), 1)])
    def test_editing_a_report_leaves_the_next_alone(self, t, k):
        first = evaluate_bounds(t, k, 1)
        want = first.to_json_dict()
        json_dict = first.to_json_dict()
        json_dict["bounds"].clear()
        json_dict["equality"][ORDER_PLUS_LEAVES] = None
        first.bounds[ORDER_PLUS_LEAVES] = Fraction(99)
        first.not_applicable["planted"] = "reason"
        assert first.to_json_dict()["bounds"][ORDER_PLUS_LEAVES] == "99/1"
        first.bounds.clear()
        first.not_applicable.clear()
        first.equality.clear()
        first.notes.clear()
        again = evaluate_bounds(t, k, 1)
        assert again.to_json_dict() == want
        assert again.to_json_dict()["bounds"] == direct_render(again)

    def test_copies_render_alike(self):
        import copy
        import pickle

        report = evaluate_bounds(path_tree(7), 2, 1)
        want = report.to_json_dict()
        for other in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report),
                      report._replace(iota=1)):
            assert other == report
            assert other.to_json_dict() == want

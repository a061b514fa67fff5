"""Sweep machinery: record content, determinism, and the check suites."""

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import lru_cache, partial
from pathlib import Path

import pytest

import stariso
from stariso.bounds import (
    ORDER_MINUS_LEAVES,
    ORDER_PLUS_LEAVES,
    STAR_BOUND,
    SUPPORT_BOUND,
    bound_key,
    bound_report,
    evaluate_bounds,
    regime_table_violations,
)
from stariso.families import gen_corona_extremal, recognize_F
from stariso.graphs import (
    FREE_TREE_COUNTS,
    as_tree,
    build_graph,
    canonical_code,
    diameter_path,
    enumerate_free_trees,
    free_tree_levels,
    is_star,
)
from stariso.solver import iota_tree_dp
from stariso.sweep import (
    CACHE_SIZE,
    CHECK_SUITES,
    MAX_SWEEP_N,
    REPORTED_VIOLATIONS,
    SweepConfig,
    SweepLine,
    _bounds_suite,
    _check_share,
    _per_k,
    _strip_to_single_leaves,
    _twin_leaf_member,
    check_tree,
    run_sweep,
    sweep_lines,
)


def path_tree(n):
    return as_tree(build_graph(n, [(i, i + 1) for i in range(n - 1)]))


@pytest.fixture
def fresh_cache():
    """The sweep's per-k cache, emptied before the test and after it, so
    that the test counts from zero and leaves nothing it planted."""
    _per_k.cache_clear()
    yield _per_k
    _per_k.cache_clear()


class TestConfig:
    def test_all_expands(self):
        cfg = SweepConfig(max_n=5, k_list=(1,))
        assert cfg.active_checks() == frozenset(CHECK_SUITES)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="k_list"):
            SweepConfig(max_n=5, k_list=()).validate()
        with pytest.raises(ValueError, match="max_n"):
            SweepConfig(max_n=0, k_list=(1,)).validate()
        with pytest.raises(ValueError, match="brute-force"):
            SweepConfig(max_n=5, k_list=(1,), bf_max=20).validate()
        with pytest.raises(ValueError, match="unknown"):
            SweepConfig(max_n=5, k_list=(1,), checks=("bogus",)).validate()
        with pytest.raises(ValueError, match="jobs"):
            SweepConfig(max_n=5, k_list=(1,), jobs=0).validate()

    def test_k_bounded_by_the_largest_order(self):
        SweepConfig(max_n=5, k_list=(1, MAX_SWEEP_N)).validate()
        with pytest.raises(ValueError, match=f"k values must be at most {MAX_SWEEP_N}"):
            SweepConfig(max_n=5, k_list=(2, MAX_SWEEP_N + 1)).validate()
        with pytest.raises(ValueError, match=r"k values must be positive: \(0, 2\)"):
            SweepConfig(max_n=5, k_list=(0, 2)).validate()

    def test_jobs_capped_at_the_cpu_count(self, monkeypatch):
        import stariso.sweep

        monkeypatch.setattr(stariso.sweep.os, "cpu_count", lambda: 3)
        SweepConfig(max_n=5, k_list=(1,), jobs=3).validate()
        with pytest.raises(ValueError, match=r"jobs must be <= 3 \(the CPU count\), got 4"):
            SweepConfig(max_n=5, k_list=(1,), jobs=4).validate()
        monkeypatch.setattr(stariso.sweep.os, "cpu_count", lambda: None)
        with pytest.raises(ValueError, match="jobs must be <= 1"):
            SweepConfig(max_n=5, k_list=(1,), jobs=2).validate()


class TestStripToSingleLeaves:
    def test_twin_leaf_removed(self):
        t = as_tree(build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6)]))
        reduced = _strip_to_single_leaves(t)
        assert reduced.n == 6
        assert canonical_code(reduced) == canonical_code(path_tree(6))

    def test_already_single(self):
        t = path_tree(6)
        assert canonical_code(_strip_to_single_leaves(t)) == canonical_code(t)


    def test_precheck_keeps_the_membership(self, monkeypatch):
        # the precheck skips exactly the reduced trees that fail
        # recognize_F's first tests: under 6 vertices, or a leaf whose
        # support does not have degree 2
        import stariso.sweep

        rebuilt = []

        def recording(t):
            rebuilt.append(_strip_to_single_leaves(t))
            return rebuilt[-1]

        monkeypatch.setattr(stariso.sweep, "_strip_to_single_leaves", recording)
        counts = {True: 0, False: 0}
        for n in range(3, 15):
            for t in enumerate_free_trees(n):
                if t.support_count >= 2:
                    member = _twin_leaf_member(t)
                    reduced = _strip_to_single_leaves(t)
                    assert member == (recognize_F(reduced) is not None)
                    counts[member] += 1
                    first_tests = reduced.n >= 6 and all(
                        reduced.degree(reduced.adjacency[c][0]) == 2
                        for c in reduced.leaf_set)
                    assert first_tests == bool(rebuilt)
                    rebuilt.clear()
        assert counts[True] > 0 and counts[False] > 0


class TestCheckTree:
    def test_six_path_record(self):
        cfg = SweepConfig(max_n=6, k_list=(1, 2))
        rec = check_tree(path_tree(6), cfg)
        assert rec.n == 6 and rec.l == 2 and rec.s == 2 and rec.diam == 5
        assert rec.family_F is True
        assert rec.per_k[1]["iota"] == 2
        assert rec.per_k[1]["equality"]["order_plus_leaves"] is True
        assert rec.per_k[2]["iota"] == 1
        assert rec.per_k[2]["tk_member"] is False
        assert rec.violations == []

    def test_eight_path_is_a_hub_family_member(self):
        cfg = SweepConfig(max_n=8, k_list=(2,))
        rec = check_tree(path_tree(8), cfg)
        assert rec.per_k[2]["tk_member"] is True
        assert rec.violations == []

    def test_json_line_stable_keys(self):
        cfg = SweepConfig(max_n=6, k_list=(1,))
        rec = check_tree(path_tree(6), cfg)
        payload = json.loads(rec.to_json_line())
        assert set(payload) == {
            "tree_code", "source", "n", "l", "s", "diam", "family_F", "k",
            "violations",
        }


    @pytest.mark.parametrize("k_list", [(1,), (2,), (2, 3), (3, 1)])
    def test_k1_statements_run_whatever_the_k_list(self, monkeypatch, k_list):
        # P6 is in F: with recognize_F blinded, both (n+l)/4-type equalities
        # lose their membership, and a do-nothing support normalization
        # keeps P6's degree-2 supports, whether or not 1 is in the k list
        normalized = []

        def recording(t, sol):
            normalized.append(sol.k)
            return sol

        monkeypatch.setattr(stariso.sweep, "recognize_F", lambda t: None)
        monkeypatch.setattr(stariso.sweep, "normalize_no_deg2_support", recording)
        cfg = SweepConfig(max_n=6, k_list=k_list, checks=("f-equality", "normalizers"))
        rec = check_tree(path_tree(6), cfg)
        assert rec.violations == [
            "(n+l)/4 equality is True but family membership is False",
            "(n-l+2s)/4 equality is True but twin-leaf reduction membership is False",
            "support normalization left a degree-2 support",
        ]
        assert normalized == [1]
        assert sorted(rec.per_k) == sorted(k_list)


class TestDpCalls:
    """check_tree solves each k once; the oracle adds one certificate per k,
    the bounds suite one k = 0 certificate, and neither calls the
    domination brute force."""

    @staticmethod
    def count_calls(monkeypatch, t, cfg):
        import stariso.solver
        import stariso.sweep

        def no_brute_force(g):
            raise AssertionError("the sweep called gamma_bruteforce")

        monkeypatch.setattr(stariso.solver, "gamma_bruteforce", no_brute_force)
        monkeypatch.setattr(stariso.sweep, "gamma_bruteforce", no_brute_force, raising=False)
        calls = {"iota_tree_dp": [], "isolation_certificate": []}
        for name, log in calls.items():
            real = getattr(stariso.sweep, name)

            def counting(*args, _real=real, _log=log, **kwargs):
                _log.append(args[1])
                return _real(*args, **kwargs)

            monkeypatch.setattr(stariso.sweep, name, counting)
        rec = check_tree(t, cfg)
        assert rec.violations == []
        return len(calls["iota_tree_dp"]), calls["isolation_certificate"]

    @pytest.mark.parametrize("k_list", [(1,), (2,), (3, 2), (1, 2, 3)])
    def test_once_per_k_without_oracle(self, monkeypatch, k_list):
        checks = tuple(c for c in CHECK_SUITES if c != "oracle")
        cfg = SweepConfig(max_n=8, k_list=k_list, checks=checks)
        calls = self.count_calls(monkeypatch, path_tree(8), cfg)
        assert calls == (len(set(k_list) | {1}), [0])

    @pytest.mark.parametrize("k_list", [(1,), (2, 3)])
    def test_oracle_adds_one_certificate_per_k(self, monkeypatch, k_list):
        cfg = SweepConfig(max_n=8, k_list=k_list, bf_max=8)
        calls = self.count_calls(monkeypatch, path_tree(8), cfg)
        assert calls == (len(set(k_list) | {1}), [*k_list, 0])

    def test_no_certificate_above_bf_max(self, monkeypatch):
        cfg = SweepConfig(max_n=8, k_list=(1, 2), bf_max=7)
        assert self.count_calls(monkeypatch, path_tree(8), cfg) == (2, [])

    def test_forged_certificate_names_each_fault(self, monkeypatch):
        import stariso.sweep

        real = stariso.sweep.isolation_certificate

        def one_star_short(t, k):
            dominators, packing = real(t, k)
            return dominators, packing[:-1]

        monkeypatch.setattr(stariso.sweep, "isolation_certificate", one_star_short)
        cfg = SweepConfig(max_n=8, k_list=(1, 2), bf_max=8)
        rec = check_tree(path_tree(8), cfg)
        # the 8-path: iota_1 = iota_2 = 2, domination number 3
        assert rec.violations == [
            "k=1: set has 2 vertices, packing has 1 stars",
            "k=1: dp=2 != certificate=1",
            "k=2: set has 2 vertices, packing has 1 stars",
            "k=2: dp=2 != certificate=1",
            "k=0: set has 3 vertices, packing has 2 stars",
        ]


    def test_domination_bound_reads_the_certificate(self, monkeypatch):
        import stariso.sweep

        def one_above_half(t, k):
            return frozenset(range(t.n // 2 + 1)), [(v,) for v in range(t.n // 2 + 1)]

        monkeypatch.setattr(stariso.sweep, "isolation_certificate", one_above_half)
        monkeypatch.setattr(stariso.sweep, "certificate_failures", lambda *args: [])
        rec = check_tree(path_tree(8), SweepConfig(max_n=8, k_list=(1,), checks=("bounds",)))
        assert rec.violations == ["domination number 5 above n/2"]


class TestRecordShape:
    """The record's diameter and tree code come from one BFS and match the
    public functions; ``diameter_path`` runs only on tk-equality
    instances, where its u_1 is read."""

    def test_diameter_and_code_match_the_public_functions(self, monkeypatch):
        import stariso.sweep

        calls = []

        def counting(t):
            calls.append(t)
            return diameter_path(t)

        monkeypatch.setattr(stariso.sweep, "diameter_path", counting)
        cfg = SweepConfig(max_n=12, k_list=(1, 2, 3), bf_max=0)
        expected = 0
        for n in range(1, 13):
            for t in enumerate_free_trees(n):
                rec = check_tree(t, cfg)
                assert rec.violations == []
                assert rec.diam == (diameter_path(t).length if n >= 2 else 0)
                assert rec.tree_code == canonical_code(t).decode("ascii")
                expected += sum((2 * k + 1) * rec.per_k[k]["iota"] == n + rec.l
                                for k in (2, 3))
        assert 0 < expected == len(calls)

    def test_no_diameter_path_without_the_tk_suite(self, monkeypatch):
        import stariso.sweep

        def no_call(t):
            raise AssertionError("diameter_path ran outside the tk-equality suite")

        monkeypatch.setattr(stariso.sweep, "diameter_path", no_call)
        checks = tuple(c for c in CHECK_SUITES if c != "tk-equality")
        cfg = SweepConfig(max_n=10, k_list=(1, 2, 3), checks=checks, bf_max=0)
        for n in range(1, 11):
            for t in enumerate_free_trees(n):
                assert check_tree(t, cfg).violations == []


class TestBoundTableReads:
    """check_tree reads each record's regime, bound strings and equality
    flags from the bound report of its key, and its equality clauses read
    the flags."""

    def test_per_k_entry_matches_the_report(self):
        cfg = SweepConfig(max_n=10, k_list=(1, 2, 3, 4), bf_max=0)
        for n in range(1, 11):
            for t in enumerate_free_trees(n):
                rec = check_tree(t, cfg)
                assert rec.violations == []
                for k in cfg.k_list:
                    want = evaluate_bounds(t, k, rec.per_k[k]["iota"]).to_json_dict()
                    for key in ("regime", "bounds", "equality"):
                        assert rec.per_k[k][key] == want[key], (n, k, key)

    @pytest.mark.parametrize("t, k, name, whole, violation", [
        (path_tree(6), 1, ORDER_PLUS_LEAVES, None,
         "(n+l)/4 equality is False but family membership is True"),
        (path_tree(5), 1, ORDER_PLUS_LEAVES, 1,
         "(n+l)/4 equality is True but family membership is False"),
        (path_tree(6), 1, SUPPORT_BOUND, None,
         "(n-l+2s)/4 equality is False but twin-leaf reduction membership is True"),
        (path_tree(8), 2, STAR_BOUND, None,
         "k=2: (n+l)/(2k+1) equality is False but membership is True"),
        (as_tree(gen_corona_extremal(2, 2, 8)), 2, ORDER_MINUS_LEAVES, None,
         "k=2: (n-l)/2 equality is False but corona membership is True"),
    ])
    def test_a_flipped_flag_fires_its_clause(self, monkeypatch, fresh_cache, t, k, name, whole,
                                             violation):
        # ``whole`` stands in for the bound's value where it is a whole number
        import stariso.sweep

        cfg = SweepConfig(max_n=t.n, k_list=(k,), bf_max=0)
        assert check_tree(t, cfg).violations == []

        def flipped(key, iota):
            report = bound_report(key, iota)
            return report._replace(equality=dict(report.equality, **{name: whole == iota}))

        monkeypatch.setattr(stariso.sweep, "bound_report", flipped)
        fresh_cache.cache_clear()
        assert check_tree(t, cfg).violations == [violation]


def reference_bounds_suite(t, k, iota, iota1):
    """The bounds suite as check_tree ran it inline, reading the tree:
    the reference for the cached suite."""
    report = evaluate_bounds(t, k, iota)
    n, l = t.n, t.leaf_order
    violations = []
    for name, value in report.bounds.items():
        if iota * value.denominator > value.numerator:
            violations.append(f"k={k}: iota={iota} exceeds {name}={value}")
    violations.extend(f"k={k}: {v}" for v in regime_table_violations(t, k, iota))
    if SUPPORT_BOUND in report.bounds:
        sb = report.bounds[SUPPORT_BOUND]
        opl = report.bounds[ORDER_PLUS_LEAVES]
        if sb > opl:
            violations.append(f"k={k}: support bound {sb} above (n+l)/4 {opl}")
        if (sb == opl) != (not t.strong_support_set):
            violations.append(
                f"k={k}: support bound ties (n+l)/4 iff no strong support failed"
            )
    if k >= 2 and t.max_degree >= k:
        if n + l < 2 * k + 1:
            violations.append(f"k={k}: n+l={n + l} below 2k+1")
        if (n + l == 2 * k + 1) != is_star(t, k):
            violations.append(f"k={k}: n+l=2k+1 boundary is not the k-star")
    if (iota == 0) != (t.max_degree < k):
        violations.append(f"k={k}: iota=0 iff max degree < k failed")
    if iota > iota1:
        violations.append(f"k={k}: iota_k={iota} above iota_1={iota1}")
    return violations


def reference_json_line(rec):
    """SweepRecord.to_json_line as it was before the per-k entries were
    shared: the reference."""
    payload = {
        "tree_code": rec.tree_code,
        "source": rec.source,
        "n": rec.n,
        "l": rec.l,
        "s": rec.s,
        "diam": rec.diam,
        "family_F": rec.family_F,
        "k": {str(k): v for k, v in sorted(rec.per_k.items())},
        "violations": rec.violations,
    }
    return json.dumps(payload, sort_keys=True)


class TestMemos:
    """The sweep's one cache: the bounds suite runs and each per-k entry is
    built once per key of what they read, and the entries are shared
    read-only mappings whose stored JSON text the record splices."""

    def test_memoized_suite_matches_the_tree_reading_reference(self, monkeypatch):
        import stariso.sweep

        cache = lru_cache(maxsize=10 ** 6)(_per_k.__wrapped__)  # nothing evicted
        monkeypatch.setattr(stariso.sweep, "_per_k", cache)
        lookups = fired = 0
        for n in range(1, 11):
            for t in enumerate_free_trees(n):
                iota1 = iota_tree_dp(t, 1).size
                strong = bool(t.strong_support_set)
                for k in range(1, 5):
                    key = bound_key(t, k)
                    for iota in range(n + 1):
                        _, got = cache(key, iota, iota1, strong, t.max_degree >= k, None, None)
                        want = reference_bounds_suite(t, k, iota, iota1)
                        assert list(got) == want, (n, k, iota)
                        lookups += 1
                        fired += bool(want)
        # one tree never repeats a key, so the hits came from other trees
        info = cache.cache_info()
        assert 0 < info.misses < lookups // 2
        assert info.hits + info.misses == lookups
        assert 0 < fired < lookups

    def test_a_fresh_entry_is_not_served_another_entrys_verdict(self, fresh_cache):
        key = bound_key(path_tree(6), 1)
        real = _per_k(key, 3, 3, False, True, None, None)
        assert "k=1: iota=3 exceeds order_plus_leaves=2" in real[1]
        edited = key[:2] + (1,) + key[3:]  # s = 1, so no support bound
        entry, got = _per_k(edited, 3, 3, False, True, None, None)
        assert got == _bounds_suite(bound_report(edited, 3), edited, 3, False, True) != real[1]
        assert entry["bounds"][SUPPORT_BOUND] == "N/A: requires s != 1"
        assert _per_k(key, 3, 3, False, True, None, None) is real
        assert fresh_cache.cache_info().currsize == 2

    def test_a_sweep_misses_once_per_key(self, fresh_cache):
        config = SweepConfig(max_n=10, k_list=(1, 2, 3), jobs=1)
        keys = set()
        records = 0
        for line in sweep_lines(config):
            assert line.violations == []
            record = json.loads(line.line)
            n, l, s = record["n"], record["l"], record["s"]
            records += 1
            star = n == 2 or (n >= 3 and l == n - 1)
            for k in config.k_list:
                entry = record["k"][str(k)]
                # with no violations, iota = 0 exactly where the max degree is
                # below k; a strong support vertex exists exactly where l > s
                keys.add(((n, l, s, k, n >= 3 and star, star and n == k + 1),
                          entry["iota"], record["k"]["1"]["iota"], l > s, entry["iota"] > 0,
                          entry.get("tk_member"), entry.get("corona_char_member")))
        info = fresh_cache.cache_info()
        assert info.hits + info.misses == records * len(config.k_list)
        assert info.misses <= len(keys) <= info.maxsize

    def test_entries_are_shared_and_read_only(self):
        cfg = SweepConfig(max_n=9, k_list=(1, 2, 3), bf_max=0)
        by_key = {}
        entries = 0
        for n in range(1, 10):
            for t in enumerate_free_trees(n):
                per_k = check_tree(t, cfg).per_k
                for k, entry in per_k.items():
                    key = (bound_key(t, k), entry["iota"], per_k[1]["iota"],
                           bool(t.strong_support_set), t.max_degree >= k,
                           entry.get("tk_member"), entry.get("corona_char_member"))
                    assert by_key.setdefault(key, entry) is entry
                    entries += 1
        assert len(by_key) < entries
        entry = check_tree(path_tree(8), cfg).per_k[2]
        plain = json.loads(json.dumps(entry))
        changes = [
            lambda e: e.__setitem__("iota", 0),
            lambda e: e.__delitem__("iota"),
            lambda e: e.update(iota=0),
            lambda e: e.setdefault("note", 0),
            lambda e: e.pop("iota"),
            lambda e: e.popitem(),
            lambda e: e.clear(),
            lambda e: e.__ior__({"iota": 0}),
            lambda e: e["bounds"].__setitem__("caro_third", "1/1"),
            lambda e: e["equality"].update(caro_third=True),
        ]
        for change in changes:
            with pytest.raises(TypeError):
                change(entry)
        assert entry == plain and entry["tk_member"] is True
        for other in (dict(entry), copy.deepcopy(entry), pickle.loads(pickle.dumps(entry))):
            assert other == plain
            other["iota"] = 0  # copies are plain dicts
        assert entry == plain

    def test_json_line_matches_the_reference(self, monkeypatch):
        import stariso.sweep

        real = stariso.sweep._to_line
        seen = []

        def checking(rec):
            line = real(rec)
            assert line.line == reference_json_line(rec)
            seen.append(rec.source)
            return line

        monkeypatch.setattr(stariso.sweep, "_to_line", checking)
        list(sweep_lines(SweepConfig(max_n=10, k_list=(1, 2, 3), seed=5)))
        assert (seen.count("enumerated"), seen.count("generated")) == (201, 12)

        cfg = SweepConfig(max_n=8, k_list=(3, 1, 2), bf_max=0)
        rec = check_tree(path_tree(8), cfg, source="generated")
        rec.violations.append('generated "member" not recognized: ℓ > n/3\n')
        assert rec.to_json_line() == reference_json_line(rec)
        rec.per_k[2] = dict(rec.per_k[2], iota=7)
        rec.per_k[3] = json.loads(json.dumps(rec.per_k[3]))
        rec.per_k[3]["bounds"]["caro_third"] = "9/1"
        line = rec.to_json_line()
        assert line == reference_json_line(rec)
        record = json.loads(line)
        assert record["k"]["2"]["iota"] == 7
        assert record["k"]["3"]["bounds"]["caro_third"] == "9/1"

    def test_memos_stay_within_their_cap(self):
        run_sweep(SweepConfig(max_n=12, k_list=(1, 2, 3), jobs=1))
        info = _per_k.cache_info()
        assert 0 < info.currsize <= info.maxsize == CACHE_SIZE

    def test_a_full_memo_is_refilled(self, monkeypatch):
        import stariso.sweep

        config = SweepConfig(max_n=9, k_list=(1, 2, 3), seed=1)
        want = [line.line for line in sweep_lines(config)]
        small = lru_cache(maxsize=16)(_per_k.__wrapped__)
        monkeypatch.setattr(stariso.sweep, "_per_k", small)
        assert [line.line for line in sweep_lines(config)] == want
        info = small.cache_info()
        assert info.currsize == 16 < info.misses


class TestCoronaPass:
    def test_k_free_pass_once_per_tree(self, monkeypatch):
        import stariso.sweep

        calls = []
        real = stariso.sweep.corona_shape

        def counting(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(stariso.sweep, "corona_shape", counting)
        cfg = SweepConfig(max_n=8, k_list=(1, 2, 3, 4), bf_max=0)
        trees = [t for n in range(1, 9) for t in enumerate_free_trees(n)]
        for t in trees:
            assert check_tree(t, cfg).violations == []
        assert sorted(calls) == sorted(t.n for t in trees if t.n >= 3)


class TestRunSweep:
    def test_clean_up_to_nine(self):
        records = list(sweep_lines(SweepConfig(max_n=9, k_list=(1, 2, 3), seed=4)))
        enumerated = [r for r in records if r.source == "enumerated"]
        assert len(enumerated) == 95  # 1+1+1+2+3+6+11+23+47
        generated = [r for r in records if r.source == "generated"]
        assert len(generated) == 12
        assert all(not r.violations for r in records)

    def test_records_sorted(self):
        records = list(sweep_lines(SweepConfig(max_n=6, k_list=(1,), seed=0)))
        keys = [(r.n, r.tree_code, r.source) for r in records]
        assert keys == sorted(keys)

    def test_output_file(self, tmp_path):
        out = tmp_path / "r.jsonl"
        config = SweepConfig(max_n=5, k_list=(1,), seed=0, output_path=str(out))
        summary, violations = run_sweep(config)
        records = list(sweep_lines(replace(config, output_path=None)))
        assert len(summary) == len(records)
        assert (summary.enumerated, violations) == (8, 0)  # 1+1+1+2+3 trees
        assert summary.violating == []
        assert out.read_text() == "".join(r.line + "\n" for r in records)
        assert json.loads(records[0].line)["n"] == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl"]

    def test_k_keys_in_string_order(self, tmp_path):
        out = tmp_path / "r.jsonl"
        run_sweep(SweepConfig(max_n=5, k_list=(1, 2, 10), output_path=str(out)))
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line, object_pairs_hook=lambda pairs: pairs)
            assert [key for key, _ in dict(record)["k"]] == ["1", "10", "2"]

    def test_subset_of_checks(self):
        records = list(sweep_lines(
            SweepConfig(max_n=7, k_list=(2,), checks=("oracle", "tk-equality"), seed=0)
        ))
        assert all(r.source == "enumerated" and not r.violations for r in records)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_parallel_matches_serial_across_shares(self, monkeypatch, jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        config = SweepConfig(max_n=9, k_list=(1, 2), seed=3)
        # orders of 11, 23 and 47 trees: uneven shares at 2 and 3 jobs
        assert all(FREE_TREE_COUNTS[n - 1] % jobs for n in (7, 8, 9))
        serial = list(sweep_lines(config))
        parallel = list(sweep_lines(replace(config, jobs=jobs)))
        assert [r.line for r in parallel] == [r.line for r in serial]
        assert parallel == serial

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_output_matches_recorded_digest(self, monkeypatch, tmp_path, jobs):
        # recorded before the bound checks went integer, the corona
        # recognizer was split, the JSON lines moved into the workers and
        # the records were streamed order by order; re-recorded when the
        # T_k sampler became constructive (new draws for the six generated
        # T_k records), with only the sampler swapped into the older code
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "r.jsonl"
        summary, violations = run_sweep(
            SweepConfig(max_n=10, k_list=(1, 2, 3), seed=0, jobs=jobs, output_path=str(out))
        )
        assert (len(summary), violations) == (213, 0)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "bfd075ebb292dec06ca8826866d0d18954d5b5754abe3657a3e296d4b04bdfbe"
        )
        assert len(out.read_text().splitlines()) == len(summary)

    @pytest.mark.slow
    def test_scan_sweep_matches_recorded_digest(self, monkeypatch, tmp_path):
        # the bench's sweep-scan configuration at seed 0, recorded before
        # the sweep checked each order in shares
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "r.jsonl"
        summary, violations = run_sweep(SweepConfig(
            max_n=14, k_list=(1, 2, 3), bf_max=0, jobs=2, seed=0, output_path=str(out)))
        assert (len(summary), violations) == (5459, 0)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "90991190a926c2d9ae5b34b7eb3d84730c736efaa1e78dcd2da4600052fbb0f4"
        )

    def test_desk_sweep_matches_recorded_digest(self, tmp_path):
        # the default desk verification: stariso sweep --max-n 12 --out ...
        out = tmp_path / "r.jsonl"
        summary, violations = run_sweep(SweepConfig(
            max_n=12, k_list=(1, 2, 3), seed=0, bf_max=12, jobs=1, output_path=str(out)))
        assert (len(summary), violations) == (999, 0)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "38a28ca843397bdee1e4268755332244c899fc44343f197190277b6fac6e7520"
        )

    def test_streams_order_by_order(self, monkeypatch):
        # the first record of order n is yielded before the worker has seen
        # more than one tree of order n + 1
        calls = []
        real = stariso.sweep._worker

        def counting(config, levels):
            calls.append(len(levels))
            return real(config, levels)

        monkeypatch.setattr(stariso.sweep, "_worker", counting)
        seen = {}
        for rec in sweep_lines(SweepConfig(max_n=9, k_list=(1, 2), checks=("constructive",),
                                           bf_max=0)):
            seen.setdefault(rec.n, len(calls))
        free_trees = [1, 1, 1, 2, 3, 6, 11, 23, 47]
        for n in range(1, 10):
            assert seen[n] <= sum(free_trees[:n]) + 1
        assert len(calls) == 95

    def test_summary_keeps_records_up_to_the_reported_violations(self, monkeypatch):
        def failing(config, levels):
            return SweepLine(len(levels), "".join(map(str, levels)), "enumerated",
                             list("abcde"), "{}")

        monkeypatch.setattr(stariso.sweep, "_worker", failing)
        config = SweepConfig(max_n=7, k_list=(1,), checks=("bounds",))
        summary, violations = run_sweep(config)
        assert (len(summary), summary.enumerated, violations) == (25, 25, 125)
        # a record is kept while fewer than 50 violations precede it: 0, 5, ..., 45
        assert REPORTED_VIOLATIONS == 50
        assert summary.violating == list(sweep_lines(config))[:10]

    @pytest.mark.parametrize("older", [None, "older run\n"])
    def test_crash_leaves_no_partial_output(self, monkeypatch, tmp_path, older):
        real = stariso.sweep._worker

        def crashing(config, levels):
            if len(levels) == 6:
                raise RuntimeError("worker crashed")
            return real(config, levels)

        monkeypatch.setattr(stariso.sweep, "_worker", crashing)
        out = tmp_path / "r.jsonl"
        if older is not None:
            out.write_text(older)
        with pytest.raises(RuntimeError, match="worker crashed"):
            run_sweep(SweepConfig(max_n=7, k_list=(1,), checks=("bounds",), bf_max=0,
                                  output_path=str(out)))
        assert not (tmp_path / "r.jsonl.partial").exists()
        if older is None:
            assert not out.exists()
        else:
            assert out.read_text() == older


class TestShares:
    """Each order is checked in one share per job, each in its own file
    under the temporary directory; the shares claim the order's trees."""

    @pytest.fixture
    def tmpdir(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        return tmp_path / "tmp"

    def test_every_tree_checked_once(self, tmpdir):
        config = SweepConfig(max_n=10, k_list=(1, 2), checks=("bounds",), bf_max=0)
        runs = {jobs: list(sweep_lines(replace(config, jobs=jobs))) for jobs in (1, 2, 3)}
        counts = Counter(r.n for r in runs[1])
        assert [counts[n] for n in range(1, 11)] == list(FREE_TREE_COUNTS[:10])
        assert len({r.tree_code for r in runs[1]}) == len(runs[1])
        assert runs[2] == runs[1] and runs[3] == runs[1]
        assert list(tmpdir.iterdir()) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crash_leaves_the_directory_empty(self, monkeypatch, tmpdir, jobs):
        real = stariso.sweep._worker

        def crashing(config, levels):
            if len(levels) == 8:
                raise RuntimeError("worker crashed")
            return real(config, levels)

        monkeypatch.setattr(stariso.sweep, "_worker", crashing)
        with pytest.raises(RuntimeError, match="worker crashed"):
            list(sweep_lines(SweepConfig(max_n=9, k_list=(1,), checks=("bounds",), jobs=jobs)))
        assert list(tmpdir.iterdir()) == []

    def test_a_failing_share_stops_the_other_shares(self, monkeypatch, tmpdir, tmp_path):
        # the share that claims order 12's first tree fails on it; the
        # other share stops at its next claim instead of checking the rest
        real = stariso.sweep._worker
        first = next(free_tree_levels(12))
        checked = tmp_path / "checked"
        checked.touch()

        def failing(config, levels):
            if levels == first:
                raise RuntimeError("worker crashed")
            if len(levels) == 12:
                with open(checked, "ab") as log:
                    log.write(b".")
            return real(config, levels)

        monkeypatch.setattr(stariso.sweep, "_worker", failing)
        with pytest.raises(RuntimeError, match="worker crashed"):
            list(sweep_lines(SweepConfig(max_n=12, k_list=(1,), checks=("bounds",), jobs=2)))
        assert checked.stat().st_size < FREE_TREE_COUNTS[11] // 10
        assert list(tmpdir.iterdir()) == []

    def test_closing_early_cancels_the_shares_not_started(self, monkeypatch, tmpdir, tmp_path):
        # the workers start with orders 1, 2, ...; closed after the first
        # line, the sweep runs only the shares already started
        real = stariso.sweep._worker
        checked = tmp_path / "checked"

        def counting(config, levels):
            with open(checked, "ab") as log:
                log.write(b".")
            return real(config, levels)

        monkeypatch.setattr(stariso.sweep, "_worker", counting)
        lines = sweep_lines(SweepConfig(max_n=15, k_list=(1,), checks=("bounds",), jobs=2))
        next(lines)
        lines.close()
        assert 0 < checked.stat().st_size < sum(FREE_TREE_COUNTS[:15]) // 4
        assert list(tmpdir.iterdir()) == []

    def test_concurrent_shares_claim_each_tree_once(self, monkeypatch, tmp_path):
        # four claimants on two cores, switching threads every microsecond
        def fake(config, levels):
            return SweepLine(len(levels), "".join(map(str, levels)), "enumerated", [], "{}")

        monkeypatch.setattr(stariso.sweep, "_worker", fake)
        check = partial(_check_share, SweepConfig(max_n=12, k_list=(1,)), str(tmp_path))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                starts = list(pool.map(check, [(12, i) for i in range(4)], timeout=60))
        finally:
            sys.setswitchinterval(interval)
        codes = [key.split()[0].decode() for path, start in starts
                 for key in Path(path).read_bytes()[start:].splitlines()]
        assert sorted(codes) == sorted("".join(map(str, levels)) for levels in free_tree_levels(12))

    def test_one_job_starts_no_process(self, monkeypatch, tmpdir):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(stariso.sweep, "ProcessPoolExecutor", no_pool)
        lines = list(sweep_lines(SweepConfig(max_n=8, k_list=(1,), checks=("bounds",))))
        assert len(lines) == sum(FREE_TREE_COUNTS[:8])


def test_sweep_and_enumeration_never_import_networkx():
    src = str(Path(stariso.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from stariso.graphs import enumerate_free_trees\n"
        "from stariso.sweep import SweepConfig, run_sweep\n"
        "run_sweep(SweepConfig(max_n=8, k_list=(1, 2), jobs=1))\n"
        "list(enumerate_free_trees(12))\n"
        "print('networkx' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

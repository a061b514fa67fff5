"""Sweep machinery: record content, determinism, and the check suites."""

import ast
import copy
import hashlib
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
import textwrap
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
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

from tree_helpers import path_tree, star_tree


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

    @pytest.mark.parametrize("checks", [("all", "orcale"), ("orcale", "all"),
                                        ("bounds", "orcale")])
    def test_every_unknown_suite_is_named_even_beside_all(self, checks):
        with pytest.raises(ValueError) as excinfo:
            SweepConfig(max_n=5, k_list=(1,), checks=checks).validate()
        assert str(excinfo.value) == "unknown check suites: ['orcale']"

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
        k1, k2 = json.loads(rec.per_k[1]), json.loads(rec.per_k[2])
        assert k1["iota"] == 2
        assert k1["equality"]["order_plus_leaves"] is True
        assert k2["iota"] == 1
        assert k2["tk_member"] is False
        assert rec.violations == []

    def test_eight_path_is_a_hub_family_member(self):
        cfg = SweepConfig(max_n=8, k_list=(2,))
        rec = check_tree(path_tree(8), cfg)
        assert json.loads(rec.per_k[2])["tk_member"] is True
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
    """check_tree solves each k once; the oracle adds one brute-force search
    per tree and one certificate per k, the bounds suite one k = 0
    certificate, and neither calls the domination brute force."""

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

    @pytest.mark.parametrize("bf_max, searches", [(8, [(2, 3)]), (7, [])])
    def test_one_brute_force_search_per_tree(self, monkeypatch, bf_max, searches):
        import stariso.sweep

        calls = []
        real = stariso.sweep.first_isolating

        def counting(g, ks):
            calls.append(tuple(ks))
            return real(g, ks)

        monkeypatch.setattr(stariso.sweep, "first_isolating", counting)
        cfg = SweepConfig(max_n=8, k_list=(3, 2, 3), bf_max=bf_max)
        assert check_tree(path_tree(8), cfg).violations == []
        assert calls == searches


class TestRecordShape:
    """The record's diameter and tree code come from one BFS and match the
    public functions; the sweep never runs ``diameter_path``."""

    def test_diameter_and_code_match_the_public_functions(self, monkeypatch):
        import stariso.graphs

        def no_call(t):
            raise AssertionError("the sweep ran diameter_path")

        monkeypatch.setattr(stariso.graphs, "diameter_path", no_call)
        cfg = SweepConfig(max_n=12, k_list=(1, 2, 3), bf_max=0)
        for n in range(1, 13):
            for t in enumerate_free_trees(n):
                rec = check_tree(t, cfg)
                assert rec.violations == []
                assert rec.diam == (diameter_path(t).length if n >= 2 else 0)
                assert rec.tree_code == canonical_code(t).decode("ascii")

    def test_no_diameter_path_without_the_tk_suite(self):
        # the tk-equality suite was its last reader: the sweep no longer
        # holds the name
        import stariso.sweep

        assert not hasattr(stariso.sweep, "diameter_path")


class TestBoundTableReads:
    """check_tree reads each record's regime, bound strings and equality
    flags from the bound report of its key (its equality clauses read the
    flags: see the ``*-flag`` rows of ``CLAUSE_FAULTS``)."""

    def test_per_k_entry_matches_the_report(self):
        cfg = SweepConfig(max_n=10, k_list=(1, 2, 3, 4), bf_max=0)
        for n in range(1, 11):
            for t in enumerate_free_trees(n):
                rec = check_tree(t, cfg)
                assert rec.violations == []
                for k in cfg.k_list:
                    entry = json.loads(rec.per_k[k])
                    want = evaluate_bounds(t, k, entry["iota"]).to_json_dict()
                    for key in ("regime", "bounds", "equality"):
                        assert entry[key] == want[key], (n, k, key)


def flipped(name):
    """A ``bound_report`` fault: the real report with ``name``'s equality
    flag turned over."""
    def fake(real):
        def report(key, iota):
            got = real(key, iota)
            return got._replace(equality=dict(got.equality, **{name: not got.equality[name]}))
        return report
    return fake


def lowered(name):
    """A ``bound_report`` fault: ``name``'s bound one half below iota."""
    def fake(real):
        def report(key, iota):
            got = real(key, iota)
            return got._replace(bounds=dict(got.bounds, **{name: Fraction(2 * iota - 1, 2)}))
        return report
    return fake


def resized(change, at_k=None):
    """A fault of a function whose answer is an ``IsolationSolution``: its
    size plus ``change`` (at ``at_k`` only, where given), the set kept."""
    def fake(real):
        def solve(t, *args):
            sol = real(t, *args)
            return sol if at_k not in (None, sol.k) else sol._replace(size=sol.size + change)
        return solve
    return fake


def each_resized(change):
    """A ``first_isolating`` fault: the solution at every k with its size
    plus ``change``, the sets kept."""
    def fake(real):
        def solve(g, ks):
            return {k: sol._replace(size=sol.size + change) for k, sol in real(g, ks).items()}
        return solve
    return fake


def with_a_leaf(real):
    """A solution fault: the real solution with a leaf added."""
    def solve(t, *args):
        sol = real(t, *args)
        leafy = sol.set | {min(t.leaf_set)}
        return sol._replace(set=leafy, size=len(leafy))
    return solve


def one_star_short(real):
    """A certificate fault: the real packing without its last star."""
    def certify(t, k):
        dominators, packing = real(t, k)
        return dominators, packing[:-1]
    return certify


def one_above_half(real):
    """A certificate fault: a set of more than n/2 vertices, each its own
    star."""
    def certify(t, k):
        return frozenset(range(t.n // 2 + 1)), [(v,) for v in range(t.n // 2 + 1)]
    return certify


def row(name, t, k_list, checks, faults, clauses, violations, bf_max=0):
    """A ``CLAUSE_FAULTS`` row: check ``t`` at ``k_list`` with the suites
    ``checks`` and the brute-force oracle up to ``bf_max``."""
    cfg = SweepConfig(max_n=t.n, k_list=k_list, checks=checks, bf_max=bf_max)
    return pytest.param(t, cfg, faults, clauses, violations, id=name)


ALL = ("all",)
DOUBLE_STAR = as_tree(build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]))

#: One row per fault: the tree, the config, the faults (each a sweep-level
#: name and a function of the real one that returns the fake), the clauses
#: the row fires (message templates of ``check_tree`` and ``_bounds_suite``,
#: each formatted field written ``{}``) and the exact violations it gives.
CLAUSE_FAULTS = [
    row("brute-force", path_tree(6), (1,), ("oracle",), {"first_isolating": each_resized(1)},
        ["k={}: dp={} != brute_force={}"], ["k=1: dp=2 != brute_force=3"], bf_max=6),
    row("dp-witness", path_tree(6), (1,), ("oracle",),
        {"iota_tree_dp": lambda real: lambda t, k: real(t, k)._replace(set=t.leaf_set)},
        ["k={}: dp witness fails verification"], ["k=1: dp witness fails verification"],
        bf_max=6),
    # the 8-path: iota_1 = iota_2 = 2, domination number 3
    row("forged-certificate", path_tree(8), (1, 2), ALL,
        {"isolation_certificate": one_star_short},
        ["k={}: {}", "k={}: dp={} != certificate={}", "k=0: {}"],
        ["k=1: set has 2 vertices, packing has 1 stars", "k=1: dp=2 != certificate=1",
         "k=2: set has 2 vertices, packing has 1 stars", "k=2: dp=2 != certificate=1",
         "k=0: set has 3 vertices, packing has 2 stars"], bf_max=8),
    # a certificate that passes is a minimum dominating set, at most n/2
    # (Ore), so the clause fires only when its check is broken too
    row("domination", path_tree(8), (1,), ("bounds",),
        {"isolation_certificate": one_above_half,
         "certificate_failures": lambda real: lambda *args: []},
        ["domination number {} above n/2"], ["domination number 5 above n/2"], bf_max=8),
    row("bound-exceeded", path_tree(6), (1,), ("bounds",),
        {"bound_report": lowered(ORDER_PLUS_LEAVES)}, ["k={}: iota={} exceeds {}={}"],
        ["k=1: iota=2 exceeds order_plus_leaves=3/2"]),
    row("iota-zero", path_tree(6), (2,), ("bounds",), {"iota_tree_dp": resized(-1)},
        ["k={}: iota=0 iff max degree < k failed"], ["k=2: iota=0 iff max degree < k failed"]),
    row("above-iota-1", path_tree(8), (2,), ("bounds",), {"iota_tree_dp": resized(-1, at_k=1)},
        ["k={}: iota_k={} above iota_1={}"], ["k=2: iota_k=2 above iota_1=1"]),
    row("tk-flag", path_tree(8), (2,), ALL, {"bound_report": flipped(STAR_BOUND)},
        ["k={}: (n+l)/(2k+1) equality is {} but membership is {}"],
        ["k=2: (n+l)/(2k+1) equality is False but membership is True"]),
    row("hub-set", path_tree(8), (2,), ("tk-equality",), {"min_iso_set_Tk": resized(-1)},
        ["k={}: constructive hub set is not a minimum witness"],
        ["k=2: constructive hub set is not a minimum witness"]),
    row("small-order", star_tree(3), (2,), ("tk-equality",), {"iota_tree_dp": resized(1)},
        ["k={}: small-order tree with iota={} != 1"], ["k=2: small-order tree with iota=2 != 1"]),
    row("double-star-flag", DOUBLE_STAR, (2,), ("corona-char",),
        {"bound_report": flipped(ORDER_MINUS_LEAVES)},
        ["k={}: double-star (n-l)/2 equality is {} with max degree {}"],
        ["k=2: double-star (n-l)/2 equality is False with max degree 3"]),
    row("corona-flag", as_tree(gen_corona_extremal(2, 2, 8)), (2,), ALL,
        {"bound_report": flipped(ORDER_MINUS_LEAVES)},
        ["k={}: (n-l)/2 equality is {} but corona membership is {}"],
        ["k=2: (n-l)/2 equality is False but corona membership is True"]),
    row("leaf-normalization", path_tree(4), (1,), ("normalizers",),
        {"normalize_no_leaves": with_a_leaf},
        ["k={}: leaf normalization broke the witness", "k={}: leaf normalization left a leaf"],
        ["k=1: leaf normalization broke the witness", "k=1: leaf normalization left a leaf"]),
    row("F-flag", path_tree(6), (1,), ALL, {"bound_report": flipped(ORDER_PLUS_LEAVES)},
        ["(n+l)/4 equality is {} but family membership is {}"],
        ["(n+l)/4 equality is False but family membership is True"]),
    row("family-set", path_tree(6), (1,), ("f-equality",), {"min_iso_set_F": resized(-1)},
        ["constructive family set is not a minimum witness"],
        ["constructive family set is not a minimum witness"]),
    row("diameter", star_tree(3), (1,), ("f-equality",), {"iota_tree_dp": resized(1)},
        ["diameter {} tree needs iota=1, got {}"], ["diameter 2 tree needs iota=1, got 2"]),
    row("twin-leaf-flag", path_tree(6), (1,), ALL, {"bound_report": flipped(SUPPORT_BOUND)},
        ["(n-l+2s)/4 equality is {} but twin-leaf reduction membership is {}"],
        ["(n-l+2s)/4 equality is False but twin-leaf reduction membership is True"]),
    row("support-normalization", path_tree(6), (1,), ("normalizers",),
        {"normalize_no_deg2_support": with_a_leaf},
        ["support normalization broke the witness", "support normalization left a leaf"],
        ["support normalization broke the witness", "support normalization left a leaf"]),
    row("degree-2-support", path_tree(6), (1,), ("normalizers",),
        {"normalize_no_deg2_support": lambda real: lambda t, sol: sol},
        ["support normalization left a degree-2 support"],
        ["support normalization left a degree-2 support"]),
]


def template_pattern(template):
    return ".+".join(map(re.escape, template.split("{}")))


def clause_templates(functions=(check_tree, _bounds_suite)):
    """Each message template of ``functions``: the text of each string or
    f-string appended to, extended into or first assigned to
    ``violations``, its formatted fields written ``{}``."""
    templates = []
    for function in functions:
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(function)))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                    "violations.append", "violations.extend"):
                (text,) = node.args
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "violations":
                text = node.value
            else:
                continue
            if isinstance(text, (ast.GeneratorExp, ast.ListComp)):
                text = text.elt
            if isinstance(text, ast.JoinedStr):
                templates.append("".join(p.value if isinstance(p, ast.Constant) else "{}"
                                         for p in text.values))
            elif isinstance(text, ast.Constant):
                templates.append(text.value)
    return templates


class TestEveryClauseFires:
    """Each clause of ``check_tree`` and ``_bounds_suite`` has a fault in a
    sweep-level name that makes it fire, with the exact violations it
    gives: a clause no fault can fire checks nothing."""

    @pytest.mark.parametrize("t, cfg, faults, clauses, violations", CLAUSE_FAULTS)
    def test_a_fault_fires_its_clauses(self, monkeypatch, fresh_cache, t, cfg, faults, clauses,
                                       violations):
        import stariso.sweep

        assert check_tree(t, cfg).violations == []
        for name, fault in faults.items():
            monkeypatch.setattr(stariso.sweep, name, fault(getattr(stariso.sweep, name)))
        fresh_cache.cache_clear()  # the per-k cache holds the real reports
        assert check_tree(t, cfg).violations == violations
        for clause in clauses:
            assert any(re.fullmatch(template_pattern(clause), v) for v in violations), clause

    def test_every_clause_has_a_row(self):
        templates = clause_templates()
        named = [clause for row in CLAUSE_FAULTS for clause in row.values[3]]
        assert len(set(templates)) == len(templates) == 23
        assert sorted(named) == sorted(templates)

    def test_the_template_scan_sees_every_kind_of_clause(self):
        def checks(k, xs):
            violations = [f"k={k}: {x} is odd" for x in xs if x % 2]
            violations.append("plain clause")
            violations.extend(f"k=0: {x}" for x in xs)
            violations.extend(xs)
            other = [f"k={k}"]
            other.append("not a violation")
            return violations + other

        assert sorted(clause_templates([checks])) == ["k=0: {}", "k={}: {} is odd",
                                                      "plain clause"]


def reference_bounds_suite(t, k, iota, iota1):
    """The bounds suite as check_tree ran it inline, reading the tree:
    the reference for the cached suite."""
    report = evaluate_bounds(t, k, iota)
    violations = []
    for name, value in report.bounds.items():
        if iota * value.denominator > value.numerator:
            violations.append(f"k={k}: iota={iota} exceeds {name}={value}")
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
        "k": {str(k): json.loads(text) for k, text in sorted(rec.per_k.items())},
        "violations": rec.violations,
    }
    return json.dumps(payload, sort_keys=True)


class TestMemos:
    """The sweep's one cache: the bounds suite runs and each per-k entry is
    built once per key of what they read, and each entry is its JSON text,
    shared by the records of its key and spliced into their lines."""

    def test_memoized_suite_matches_the_tree_reading_reference(self, monkeypatch):
        import stariso.sweep

        cache = lru_cache(maxsize=10 ** 6)(_per_k.__wrapped__)  # nothing evicted
        monkeypatch.setattr(stariso.sweep, "_per_k", cache)
        lookups = fired = 0
        for n in range(1, 11):
            for t in enumerate_free_trees(n):
                iota1 = iota_tree_dp(t, 1).size
                for k in range(1, 5):
                    key = bound_key(t, k)
                    for iota in range(n + 1):
                        *_, got = cache(key, iota, iota1, t.max_degree >= k, None, None)
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
        real = _per_k(key, 3, 3, True, None, None)
        assert "k=1: iota=3 exceeds order_plus_leaves=2" in real[2]
        edited = key[:2] + (1,) + key[3:]  # s = 1, so no support bound
        text, _, got = _per_k(edited, 3, 3, True, None, None)
        assert got == _bounds_suite(bound_report(edited, 3), 3, True) != real[2]
        assert json.loads(text)["bounds"][SUPPORT_BOUND] == "N/A: requires s != 1"
        assert _per_k(key, 3, 3, True, None, None) is real
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
                # below k
                keys.add(((n, l, s, k, n >= 3 and star, star and n == k + 1),
                          entry["iota"], record["k"]["1"]["iota"], entry["iota"] > 0,
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
                iota1 = json.loads(per_k[1])["iota"]
                for k, text in per_k.items():
                    entry = json.loads(text)
                    key = (bound_key(t, k), entry["iota"], iota1, t.max_degree >= k,
                           entry.get("tk_member"), entry.get("corona_char_member"))
                    assert by_key.setdefault(key, text) is text
                    entries += 1
        assert len(by_key) < entries
        # a str cannot be changed, so no record can alter a shared entry
        entry = check_tree(path_tree(8), cfg).per_k[2]
        assert type(entry) is str
        plain = json.loads(entry)
        assert plain["tk_member"] is True
        for other in (copy.deepcopy(entry), pickle.loads(pickle.dumps(entry))):
            assert other == entry and json.loads(other) == plain

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
        rec.per_k[2] = json.dumps(dict(json.loads(rec.per_k[2]), iota=7), sort_keys=True)
        entry = json.loads(rec.per_k[3])
        entry["bounds"]["caro_third"] = "9/1"
        rec.per_k[3] = json.dumps(entry, sort_keys=True)
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

    # recorded before one brute-force search answered every k of a tree
    @pytest.mark.parametrize("k_list, fields, records, digest", [
        ((1, 2, 3, 4, 5), {"max_n": 13, "bf_max": 10, "seed": 3}, 2300,
         "c22fd06099c1a3e4940d70381105532c469b7170a77f7098c3cdc4f618ec44c4"),
        # the oracle without k = 1 in the k list
        ((2, 3), {"max_n": 11}, 448,
         "1330cd5811e50d5fd0d26882bdbf4e5c5878dff836242d4154d11d889249e66d"),
    ], ids=["k-1-to-5", "k-2-3"])
    def test_cli_default_sweeps_match_recorded_digests(self, tmp_path, k_list, fields, records,
                                                        digest):
        out = tmp_path / "r.jsonl"
        summary, violations = run_sweep(
            SweepConfig(k_list=k_list, output_path=str(out), **fields))
        assert (len(summary), violations) == (records, 0)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.slow
    def test_order_16_sweep_matches_recorded_digest(self, monkeypatch, tmp_path):
        # stariso sweep --max-n 16 --k-list 2,3,4 --bf-max 0 --jobs 2
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "r.jsonl"
        summary, violations = run_sweep(SweepConfig(
            max_n=16, k_list=(2, 3, 4), bf_max=0, jobs=2, seed=0, output_path=str(out)))
        assert (len(summary), violations) == (32520, 0)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e0d500ef2734124e091c08a14f05be1f4bc43d73282cc5710197c43a2329b17f"
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

    def test_an_older_output_is_replaced_only_after_the_last_line(self, monkeypatch, tmp_path):
        real_worker, real_replace = stariso.sweep._worker, os.replace
        config = SweepConfig(max_n=7, k_list=(1,), seed=0)
        lines = "".join(r.line + "\n" for r in sweep_lines(config))
        out = tmp_path / "r.jsonl"
        out.write_text("older run\n")
        checked, renamed = [], []

        def reading(config, levels):
            assert out.read_text() == "older run\n"
            checked.append(len(levels))
            return real_worker(config, levels)

        def checking(src, dst, *args, **kwargs):
            assert not os.path.lexists(dst)
            renamed.append((Path(src).name, Path(dst).name))
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(stariso.sweep, "_worker", reading)
        monkeypatch.setattr(os, "replace", checking)
        monkeypatch.setattr(os, "rename", checking)
        run_sweep(replace(config, output_path=str(out)))
        assert len(checked) == sum(FREE_TREE_COUNTS[:7])
        assert renamed == [("r.jsonl.partial", "r.jsonl")]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl"]
        assert out.read_text() == lines

    def test_a_failed_final_rename_keeps_the_finished_output(self, monkeypatch, tmp_path):
        config = SweepConfig(max_n=6, k_list=(1,), seed=0)
        lines = "".join(r.line + "\n" for r in sweep_lines(config))
        out = tmp_path / "r.jsonl"
        out.write_text("older run\n")

        def failing(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", failing)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(replace(config, output_path=str(out)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl.partial"]
        assert (tmp_path / "r.jsonl.partial").read_text() == lines

    @pytest.mark.parametrize("make", [os.mkfifo, os.mkdir], ids=["fifo", "directory"])
    def test_an_out_that_is_not_a_regular_file_fails_before_any_work(
            self, monkeypatch, tmp_path, make):
        def never(*args, **kwargs):
            raise AssertionError("no tree may be checked")

        monkeypatch.setattr(stariso.sweep, "_worker", never)
        monkeypatch.setattr(stariso.sweep, "check_tree", never)
        out = tmp_path / "r.jsonl"
        make(out)
        before = out.stat()
        with pytest.raises(OSError, match="exists and is not a regular file"):
            run_sweep(SweepConfig(max_n=4, k_list=(1,), output_path=str(out)))
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]
        assert (out.stat().st_ino, out.stat().st_mode) == (before.st_ino, before.st_mode)


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

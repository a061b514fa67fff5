"""The two scripts, run end to end as subprocesses or in-process."""

import json
import os
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_script(name, *args, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=timeout)


def test_extremal_census_matches_golden():
    proc = run_script("extremal_census.py", "--max-n", "8", "--k-list", "1,2,3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "extremal_census_max_n_8.txt").read_text()


def test_full_verification_small(tmp_path):
    out = tmp_path / "results.jsonl"
    proc = run_script("full_verification.py", "--max-n", "7", "--extend-tk-n", "9",
                      "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "total violations: 0" in proc.stdout.splitlines()
    records = [json.loads(line) for line in out.read_text().splitlines()]
    sources = Counter(r["source"] for r in records)
    assert sources == {"enumerated": 25, "generated": 12}  # 1+1+1+2+3+6+11 trees
    assert {r["n"] for r in records if r["source"] == "enumerated"} == set(range(1, 8))


def test_full_verification_reports_extension_violations(tmp_path, monkeypatch, capsys):
    import stariso.sweep

    check_tree = stariso.sweep.check_tree

    def planted(t, config, source="enumerated"):
        rec = check_tree(t, config, source)
        if config.checks == ("tk-equality",) and t.n == 9:
            rec.violations.append("planted")
        return rec

    monkeypatch.setattr(stariso.sweep, "check_tree", planted)
    monkeypatch.setattr(sys, "argv", ["full_verification.py", "--max-n", "7",
                                      "--extend-tk-n", "9", "--out", str(tmp_path / "r.jsonl")])
    main = runpy.run_path(str(ROOT / "scripts" / "full_verification.py"))["main"]
    assert main() == 2
    lines = capsys.readouterr().out.splitlines()
    reported = [line for line in lines if line.startswith("VIOLATION ")]
    assert len(reported) == 47  # one per free tree on 9 vertices
    assert all(line.startswith("VIOLATION n=9 code=") and line.endswith(": planted")
               for line in reported)
    assert "total violations: 47" in lines


@pytest.mark.parametrize("per_tree, reported, note", [(1, 6, False), (9, 50, True)])
def test_full_verification_reports_main_sweep_violations(
    tmp_path, monkeypatch, capsys, per_tree, reported, note
):
    import stariso.sweep

    check_tree = stariso.sweep.check_tree

    def planted(t, config, source="enumerated"):
        rec = check_tree(t, config, source)
        if source == "enumerated" and t.n == 6:
            rec.violations.extend(f"planted {i}" for i in range(per_tree))
        return rec

    monkeypatch.setattr(stariso.sweep, "check_tree", planted)
    monkeypatch.setattr(sys, "argv", ["full_verification.py", "--max-n", "6",
                                      "--extend-tk-n", "6", "--out", str(tmp_path / "r.jsonl")])
    main = runpy.run_path(str(ROOT / "scripts" / "full_verification.py"))["main"]
    assert main() == 2
    lines = capsys.readouterr().out.splitlines()
    violation_lines = [line for line in lines if line.startswith("VIOLATION ")]
    assert len(violation_lines) == reported  # 6 free trees on 6 vertices
    assert all(line.startswith("VIOLATION n=6 code=") and ": planted " in line
               for line in violation_lines)
    assert ("... further violations suppressed" in lines) == note
    assert f"total violations: {6 * per_tree}" in lines


@pytest.mark.parametrize("flag, order", [("--max-n", "25"), ("--extend-tk-n", "21")])
def test_full_verification_rejects_orders_before_any_work(tmp_path, flag, order):
    # an unchecked --extend-tk-n 21 used to sweep n = 13..20 first (hours)
    out = tmp_path / "results.jsonl"
    proc = run_script("full_verification.py", flag, order, "--out", str(out), timeout=20)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: max_n must be in 1..20, got {order}\n"
    assert not out.exists()


@pytest.mark.parametrize("k_list, message", [
    ("1,x", "bad k list '1,x'"),
    ("1,25", "k values must be at most 20: (1, 25)"),
])
def test_full_verification_rejects_k_lists_before_any_work(tmp_path, k_list, message):
    out = tmp_path / "results.jsonl"
    proc = run_script("full_verification.py", "--k-list", k_list, "--out", str(out), timeout=20)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"
    assert not out.exists()


def test_full_verification_rejects_an_unwritable_out_before_any_work(tmp_path):
    out = tmp_path / "missing" / "results.jsonl"
    proc = run_script("full_verification.py", "--out", str(out), timeout=20)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert proc.stderr.count("\n") == 1


def test_full_verification_rejects_a_fifo_partial_before_any_work(tmp_path):
    out = tmp_path / "results.jsonl"
    partial = tmp_path / "results.jsonl.partial"
    os.mkfifo(partial)
    proc = run_script("full_verification.py", "--out", str(out), timeout=20)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: cannot write {out}: {partial} exists and is not a regular file\n")
    assert [p.name for p in tmp_path.iterdir()] == ["results.jsonl.partial"]


@pytest.mark.parametrize("flag, value, message", [
    ("--k-list", "1,x", "bad k list '1,x'"),
    ("--k-list", "1,25", "k values must be at most 20: (1, 25)"),
    ("--max-n", "25", "max_n must be in 1..20, got 25"),
])
def test_extremal_census_rejects_arguments_before_any_work(flag, value, message):
    proc = run_script("extremal_census.py", flag, value, timeout=20)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"

"""The two scripts, run end to end as subprocesses."""

import json
import os
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


@pytest.mark.parametrize("flag, order", [("--max-n", "25"), ("--extend-tk-n", "21")])
def test_full_verification_rejects_orders_before_any_work(tmp_path, flag, order):
    # an unchecked --extend-tk-n 21 used to sweep n = 13..20 first (hours)
    out = tmp_path / "results.jsonl"
    proc = run_script("full_verification.py", flag, order, "--out", str(out), timeout=20)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: max_n must be in 1..20, got {order}\n"
    assert not out.exists()

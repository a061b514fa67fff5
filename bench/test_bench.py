"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, and that a corrupted expected value shows up as failed
operations rather than passing silently.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name, trace, want=None):
    return run.run_workload(name, seed=3, seconds=0.1, trace=trace,
                            workloads=run.TINY_WORKLOADS, want=want)


def units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    report = tiny(name, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    result = report["result"]
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in spec}
    assert result["correct"] and result["failed"] == 0 and report["error_rate"] == 0
    assert result["attempted"] >= 1
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(run.TINY_WORKLOADS) == list(run.WORKLOADS)


def corrupt_order_digest(want):
    count, _ = want["sweep"]["orders"][5]
    want["sweep"]["orders"][5] = (count, "0" * 64)


def corrupt_random_iota(want):
    for (name, _), values in want["large"].items():
        if name == "random":
            values["iota"] += 1


@pytest.mark.parametrize("name,corrupt", [
    ("sweep-desk", corrupt_order_digest),
    ("large-trees", corrupt_random_iota),
])
def test_corrupted_expectation_is_counted_as_failures(name, corrupt):
    from expected import LARGE, SWEEP

    want = copy.deepcopy({"sweep": SWEEP, "large": LARGE})
    corrupt(want)
    report = tiny(name, trace=True, want=want)
    assert report["error_rate"] > 0
    assert not report["result"]["correct"]

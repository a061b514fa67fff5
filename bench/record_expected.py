#!/usr/bin/env python3
"""Record the values the benchmark checks against, from the current program.

    python3 bench/record_expected.py > bench/expected.py

Run this only on a commit whose answers are trusted: the recorded values are
what later commits are held to.  It records, for the sweeps, the record
count and a content digest per order (tree codes left out, so a change of
canonical encoding does not count as a wrong answer); and for the random
tree and the caterpillar of ``large-trees``, the isolation number and the
``bounds --json`` report at every scale the benchmark and its self-test use.
It checks on the way that those two inputs' answers do not depend on the
label shuffle, which is what lets one recording serve every seed.
"""

import json
import os
import sys
from collections import Counter, defaultdict
from pprint import pformat

import run

GENERATED_RECORDS = 12
WORKDIR = run.OUT / "record"


def sweep_orders(max_n: int) -> dict[int, tuple[int, str]]:
    from stariso.sweep import SweepConfig, run_sweep

    out = WORKDIR / "sweep.jsonl"
    config = SweepConfig(max_n=max_n, k_list=run.K_LIST, output_path=str(out),
                         jobs=min(2, os.cpu_count() or 1), bf_max=0)
    _, violations = run_sweep(config)
    assert violations == 0
    digests = defaultdict(list)
    sources = Counter()
    with open(out, encoding="utf-8") as fh:
        for line in fh:
            rec, digest = run.record_digest(line)
            sources[rec["source"]] += 1
            if rec["source"] == "enumerated":
                digests[rec["n"]].append(digest)
    assert sources["generated"] == GENERATED_RECORDS
    return {n: (len(d), run.multiset_digest(d)) for n, d in sorted(digests.items())}


def large_values(scale) -> dict:
    values = {}
    for seed in (0, 1):
        for f in run.make_tree_files(seed, scale):
            if f.closed_form_iota is not None:
                continue
            path = WORKDIR / f"{f.name}.txt"
            path.write_text(f.text, encoding="utf-8")
            argv = ["--input", str(path), "--k", str(f.k)]
            solve = run.cli_inprocess(["solve", *argv])
            bounds = run.cli_inprocess(["bounds", *argv, "--json"])
            recog = run.cli_inprocess(["recognize", "--family", f.family, *argv])
            assert solve.code == bounds.code == recog.code == 0
            assert recog.out.strip() == "none"
            got = {"iota": int(solve.out), "bounds": json.loads(bounds.out)}
            assert values.setdefault((f.name, f.n), got) == got, "depends on labels"
    return values


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    WORKDIR.mkdir(parents=True, exist_ok=True)
    max_n = max(w.max_n for table in (run.WORKLOADS, run.TINY_WORKLOADS)
                for w in table.values() if isinstance(w, run.SweepWorkload))
    sweep = {"generated": GENERATED_RECORDS, "orders": sweep_orders(max_n)}
    large = {}
    for table in (run.WORKLOADS, run.TINY_WORKLOADS):
        large.update(large_values(table["large-trees"].scale))
    print('"""Values recorded from a trusted commit by record_expected.py; see there."""')
    print()
    print(f"SWEEP = {pformat(sweep, width=100)}")
    print()
    print(f"LARGE = {pformat(large, width=100)}")


if __name__ == "__main__":
    main()

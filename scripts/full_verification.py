#!/usr/bin/env python3
"""Full desk-scale machine check.

Runs every check suite over all free trees up to --max-n for the given k
values, extends the k = 2 equality characterization (the tk-equality
suite) one order further, where brute force is switched off and the DP
carries the sweep, and writes one JSON-lines record per tree of the main
sweep.

Usage:
    python scripts/full_verification.py [--max-n 12] [--k-list 1,2,3]
        [--extend-tk-n 13] [--out results.jsonl] [--jobs J] [--seed S]

Exit status 0 only if every machine-checked statement holds on every
instance; 1, before any work, if either order is out of range.
"""

import argparse
import sys
import time

from stariso.graphs import enumerate_free_trees
from stariso.sweep import SweepConfig, check_tree, run_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--k-list", default="1,2,3")
    parser.add_argument("--extend-tk-n", type=int, default=13,
                        help="Scan the k=2 equality characterization up to this order.")
    parser.add_argument("--out", default="results.jsonl")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ks = tuple(int(f) for f in args.k_list.split(","))
    config = SweepConfig(
        max_n=args.max_n,
        k_list=ks,
        output_path=args.out,
        jobs=args.jobs,
        seed=args.seed,
    )
    tk_config = SweepConfig(max_n=args.extend_tk_n, k_list=(2,),
                            checks=("tk-equality",), bf_max=0)
    try:
        config.validate()
        if args.extend_tk_n > args.max_n:
            tk_config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    t0 = time.time()
    summary, violations = run_sweep(config)
    print(f"sweep: {summary.enumerated} trees (n <= {args.max_n}), k in {ks}, "
          f"{violations} violations  [{time.time() - t0:.1f}s]")

    extra_violations = 0
    for n in range(args.max_n + 1, args.extend_tk_n + 1):
        t1 = time.time()
        count = 0
        found = 0
        for t in enumerate_free_trees(n):
            count += 1
            rec = check_tree(t, tk_config)
            for v in rec.violations:
                print(f"VIOLATION n={rec.n} code={rec.tree_code}: {v}")
            found += len(rec.violations)
        extra_violations += found
        print(f"k=2 characterization at n={n}: {count} trees, "
              f"{found} violations  [{time.time() - t1:.1f}s]")

    total = violations + extra_violations
    print(f"total violations: {total}")
    print(f"records written to {args.out}")
    return 2 if total else 0


if __name__ == "__main__":
    sys.exit(main())

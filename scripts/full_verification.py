#!/usr/bin/env python3
"""Full desk-scale machine check.

Runs every check suite over all free trees up to --max-n for the given k
values and writes one JSON-lines record per tree of that sweep.  When
--extend-tk-n is above --max-n, a second sweep rechecks the k = 2 equality
characterization (the tk-equality suite alone, brute force off, the DP
carrying it) over every order up to --extend-tk-n; it writes no records.
Each sweep prints its first 50 violations as ``VIOLATION n=... code=...: ...``
lines, then ``... further violations suppressed`` if there were more.

Usage:
    python scripts/full_verification.py [--max-n 12] [--k-list 1,2,3]
        [--extend-tk-n 13] [--out results.jsonl] [--jobs J] [--seed S]

Exit status 0 only if every machine-checked statement holds on every
instance, 2 if one fails; 1, before any work, if an argument is bad (a k
list, an order out of range) or --out cannot be written.
"""

import argparse
import sys
import time

from stariso.sweep import SweepConfig, SweepSummary, parse_k_list, run_sweep


def sweep_and_report(config: SweepConfig) -> tuple[SweepSummary, int]:
    """``run_sweep``, then print the violations it kept, as the CLI does."""
    summary, violations = run_sweep(config)
    for line in summary.violation_lines(violations):
        print(line)
    return summary, violations


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

    tk_config = SweepConfig(max_n=args.extend_tk_n, k_list=(2,),
                            checks=("tk-equality",), jobs=args.jobs, bf_max=0)
    extend = args.extend_tk_n > args.max_n
    try:
        ks = parse_k_list(args.k_list)
        config = SweepConfig(
            max_n=args.max_n,
            k_list=ks,
            output_path=args.out,
            jobs=args.jobs,
            seed=args.seed,
        )
        config.validate()
        if extend:
            tk_config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    try:
        # run_sweep opens the output before it checks any tree
        summary, violations = sweep_and_report(config)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"sweep: {summary.enumerated} trees (n <= {args.max_n}), k in {ks}, "
          f"{violations} violations  [{time.perf_counter() - t0:.1f}s]")

    extra_violations = 0
    if extend:
        t1 = time.perf_counter()
        summary, extra_violations = sweep_and_report(tk_config)
        print(f"k=2 characterization for n <= {args.extend_tk_n}: {summary.enumerated} "
              f"trees, {extra_violations} violations  [{time.perf_counter() - t1:.1f}s]")

    total = violations + extra_violations
    print(f"total violations: {total}")
    print(f"records written to {args.out}")
    return 2 if total else 0


if __name__ == "__main__":
    sys.exit(main())

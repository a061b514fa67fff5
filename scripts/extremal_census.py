#!/usr/bin/env python3
"""Census of bound-equality instances over all free trees.

For each order n and each k, counts how many isomorphism classes attain
each closed-form bound exactly, alongside the family-recognizer counts,
so the characterizations can be eyeballed order by order.  A view over
the records of a sweep with no check suites enabled.

Usage:
    python scripts/extremal_census.py [--max-n 12] [--k-list 1,2,3]

Exit status 0, or 1 before any work if an argument is bad (a k list, an
order out of range).
"""

import argparse
import json
import sys
from collections import defaultdict

from stariso.sweep import SweepConfig, parse_k_list, sweep_lines

NAMES = ("caro_trees", "order_minus_leaves", "order_plus_leaves", "star_bound")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--k-list", default="1,2,3")
    args = parser.parse_args()
    try:
        ks = parse_k_list(args.k_list)
        config = SweepConfig(args.max_n, ks, checks=(), bf_max=0)
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # one streaming pass over the records; the per-k counts are keyed by (k, n)
    classes: dict[int, int] = defaultdict(int)
    zero: dict[tuple[int, int], int] = defaultdict(int)
    members: dict[tuple[int, int], int] = defaultdict(int)
    eq_counts: dict[tuple[int, int, str], int] = defaultdict(int)
    for line in sweep_lines(config):
        rec = json.loads(line.line)
        n = rec["n"]
        classes[n] += 1
        for k in ks:
            entry = rec["k"][str(k)]
            zero[k, n] += entry["iota"] == 0
            for name, flag in entry["equality"].items():
                eq_counts[k, n, name] += flag
            if k == 1:
                members[k, n] += rec["family_F"]
            else:
                members[k, n] += (n == k + 1 and rec["l"] == k) or entry["tk_member"]

    for k in ks:
        print(f"\n== k = {k} ==")
        family = "family" if k == 1 else "star+hub"
        print(f"{'n':>3} {'classes':>8} {'iota=0':>7} "
              + " ".join(f"{name[:7]:>7}" for name in NAMES) + f" {family:>8}")
        for n in range(1, args.max_n + 1):
            row = [f"{n:>3}", f"{classes[n]:>8}", f"{zero[k, n]:>7}"]
            row += [f"{eq_counts[k, n, name]:>7}" for name in NAMES]
            row.append(f"{members[k, n]:>8}")
            print(" ".join(row))
    print("\nequality columns count isomorphism classes with iota equal to the bound;")
    print("the final column counts recognized extremal-family members.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

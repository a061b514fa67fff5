"""One untraced sweep pass in a fresh interpreter.

    PYTHONPATH=src python3 bench/sweep_pass.py '{"max_n": 12, "k_list": [1, 2, 3], ...}'

The argument holds the ``SweepConfig`` fields.  Prints one JSON line with the
wall time of ``run_sweep`` (import excluded), the record count and the
violation count.  ``run.py`` starts one of these per pass so that each pass
gets its own peak RSS, Pool workers included.
"""

import json
import sys
import time

from stariso.sweep import SweepConfig, run_sweep


def main() -> None:
    fields = json.loads(sys.argv[1])
    fields["k_list"] = tuple(fields["k_list"])
    config = SweepConfig(**fields)
    start = time.perf_counter()
    records, violations = run_sweep(config)
    wall = time.perf_counter() - start
    print(json.dumps({"wall_s": wall, "records": len(records), "violations": violations}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The stariso benchmark: three workloads, checked outputs, one JSON result.

    python3 bench/run.py --workload sweep-desk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing patched: sweep passes and CLI commands run as child
processes, one at a time (a closed loop with one client).  ``--trace 1``
runs the same work in this process, once plain and once with every public
stariso function wrapped by ``spans.Tracer``, and reports per-layer
metrics.  Every pass is checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  Details (machine, input
sizes, per-command latencies, error rate) go to the lines before it and to
``.bench_out/``.  See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from importlib import metadata
from pathlib import Path

import expected
from inputs import LargeTreeScale, TreeFile, make_tree_files
from spans import RECOGNIZERS, SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 2       # timed passes per untraced run, whatever --seconds says
SETUP_SAMPLES = 9    # fresh-interpreter imports per run, after one warm-up
K_LIST = (1, 2, 3)


@dataclass(frozen=True)
class SweepWorkload:
    max_n: int
    bf_max: int
    jobs: int


@dataclass(frozen=True)
class LargeTreeWorkload:
    scale: LargeTreeScale


WORKLOADS = {
    # The default desk verification: every suite, brute force up to n = 12,
    # one process.  The only workload that runs the brute-force oracles.
    "sweep-desk": SweepWorkload(max_n=12, bf_max=12, jobs=1),
    # The DP-carried scan: 5.5x the records, no brute force, work spread over
    # the sweep Pool, the record merge and the output writer.
    "sweep-scan": SweepWorkload(max_n=14, bf_max=0, jobs=min(2, os.cpu_count() or 1)),
    # Single big trees through the CLI, one process per command.
    "large-trees": LargeTreeWorkload(LargeTreeScale(
        random_n=50_000,
        caterpillar_spine=800,
        caterpillar_leaves=30,
        f_copies=(2000, 1000),
        tk_k=6,
        tk_components=400,
        tk_n0=1600,
    )),
}

#: The same workloads at a size the self-test can afford.
TINY_WORKLOADS = {
    "sweep-desk": SweepWorkload(max_n=7, bf_max=7, jobs=1),
    "sweep-scan": SweepWorkload(max_n=8, bf_max=0, jobs=min(2, os.cpu_count() or 1)),
    "large-trees": LargeTreeWorkload(LargeTreeScale(
        random_n=300,
        caterpillar_spine=20,
        caterpillar_leaves=6,
        f_copies=(20, 10),
        tk_k=3,
        tk_components=10,
        tk_n0=40,
    )),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "trees_per_s": "1/s", "peak_rss_mb": "MB"}
COMMANDS = ("solve", "verify-set", "bounds", "recognize")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    code: int
    out: str
    wall_s: float
    maxrss_kb: int


def run_child(argv: list[str]) -> Child:
    """Run a child to completion; its peak RSS covers the processes it reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=child_env())
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out.decode(), wall, usage.ru_maxrss)


def measure_setup() -> list[float]:
    """Seconds to ``import stariso.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import stariso.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        child = run_child([sys.executable, "-c", code])
        if child.code != 0:
            raise RuntimeError(f"import stariso.cli failed with exit code {child.code}")
        if i:
            samples.append(float(child.out))
    return samples


# ---------------------------------------------------------------------------
# Passes and their checks
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    wall_s: float
    trees: int
    attempted: int
    failed: int
    peak_rss_kb: int = 0
    command_s: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def record_digest(line: str) -> tuple[dict, str]:
    rec = json.loads(line)
    content = {key: value for key, value in rec.items() if key != "tree_code"}
    blob = json.dumps(content, sort_keys=True, separators=(",", ":")).encode()
    return rec, hashlib.sha256(blob).hexdigest()


def multiset_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(sorted(digests)).encode()).hexdigest()


def expected_records(w: SweepWorkload, want: dict) -> int:
    return want["generated"] + sum(want["orders"][n][0] for n in range(1, w.max_n + 1))


def check_sweep_output(path: Path, w: SweepWorkload, want: dict) -> tuple[int, int, int, list[str]]:
    """Compare a sweep's JSONL against the recorded per-order counts and
    content digests; returns (records, attempted, failed, problems).

    A violation changes a record's content, so it fails its whole order.
    Generated records depend on the seed and are checked for violations only.
    """
    attempted = expected_records(w, want)
    by_n: dict[int, list[str]] = defaultdict(list)
    generated = bad_generated = records = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                records += 1
                rec, digest = record_digest(line)
                if rec["source"] == "generated":
                    generated += 1
                    bad_generated += bool(rec["violations"])
                    continue
                by_n[rec["n"]].append(digest)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return records, attempted, attempted, [f"unreadable sweep output: {exc!r}"]
    problems = []
    failed = bad_generated + abs(generated - want["generated"])
    if bad_generated or generated != want["generated"]:
        problems.append(f"{generated} generated records ({bad_generated} with violations), "
                        f"want {want['generated']} without")
    for n in range(1, w.max_n + 1):
        count, digest = want["orders"][n]
        got = by_n.pop(n, [])
        if len(got) != count or multiset_digest(got) != digest:
            failed += max(count, len(got))
            problems.append(f"order {n}: {len(got)} records (want {count}) or content differs")
    for n, got in by_n.items():
        failed += len(got)
        problems.append(f"order {n}: {len(got)} unexpected records")
    return records, attempted, min(failed, attempted), problems


def sweep_config(w: SweepWorkload, seed: int, out: Path, jobs: int) -> dict:
    return {"max_n": w.max_n, "k_list": list(K_LIST), "output_path": str(out),
            "jobs": jobs, "seed": seed, "bf_max": w.bf_max}


def sweep_pass_child(w: SweepWorkload, seed: int, out: Path, want: dict) -> Pass:
    child = run_child([sys.executable, str(BENCH / "sweep_pass.py"),
                       json.dumps(sweep_config(w, seed, out, w.jobs))])
    if child.code != 0:
        attempted = expected_records(w, want)
        return Pass(child.wall_s, 0, attempted, attempted, child.maxrss_kb,
                    problems=[f"sweep child exited with {child.code}"])
    report = json.loads(child.out)
    records, attempted, failed, problems = check_sweep_output(out, w, want)
    if report["records"] != records:
        problems.append(f"run_sweep returned {report['records']} records, wrote {records}")
        failed = attempted
    return Pass(report["wall_s"], records, attempted, failed, child.maxrss_kb, problems=problems)


def sweep_pass_inprocess(w: SweepWorkload, seed: int, out: Path, want: dict) -> Pass:
    import stariso.sweep

    fields = sweep_config(w, seed, out, jobs=1)
    fields["k_list"] = tuple(fields["k_list"])
    start = time.perf_counter()
    try:
        stariso.sweep.run_sweep(stariso.sweep.SweepConfig(**fields))
    except Exception:  # as in a real process: traceback, every record failed
        traceback.print_exc()
        attempted = expected_records(w, want)
        return Pass(time.perf_counter() - start, 0, attempted, attempted,
                    problems=["run_sweep raised"])
    wall = time.perf_counter() - start
    records, attempted, failed, problems = check_sweep_output(out, w, want)
    return Pass(wall, records, attempted, failed, problems=problems)


def command_argv(f: TreeFile, path: Path, command: str, witness: str) -> list[str]:
    base = ["--input", str(path), "--k", str(f.k)]
    if command == "solve":
        return ["solve", *base, "--witness"]
    if command == "verify-set":
        return ["verify-set", *base, "--set", witness]
    if command == "bounds":
        return ["bounds", *base, "--json"]
    return ["recognize", "--family", f.family, *base]


def check_command(f: TreeFile, command: str, child: Child, want: dict) -> str | None:
    """Why one command's result is wrong, or None when it is right."""
    try:
        return _check_command(f, command, child, want)
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _check_command(f: TreeFile, command: str, child: Child, want: dict) -> str | None:
    if child.code != 0:
        return f"exit code {child.code}"
    out = child.out.split("\n")
    recorded = want.get((f.name, f.n))
    if f.closed_form_iota is not None:
        iota = f.closed_form_iota
    elif recorded is not None:
        iota = recorded["iota"]
    else:
        return "no recorded value for this input"
    if command == "solve":
        witness = [int(v) for v in out[1].split(",")] if out[1] else []
        if out[0] != str(iota) or len(set(witness)) != iota or not all(0 <= v < f.n for v in witness):
            return f"solve gave {out[0]} with {len(witness)} witness vertices, want {iota}"
    elif command == "verify-set":
        if out[0] != "true":
            return f"verify-set said {out[0]!r} on the solve witness"
    elif command == "bounds":
        report = json.loads(child.out)
        if f.closed_form_iota is None:
            if report != recorded["bounds"]:
                return "bounds report differs from the recorded one"
        else:
            bound = "order_plus_leaves" if f.family == "F" else "star_bound"
            if (report["iota"], report["n"], report["l"], report["equality"][bound]) != (iota, f.n, f.leaves, True):
                return f"bounds report misses the {bound} equality"
    elif f.closed_form_iota is not None:
        if out[0] == "none":
            return f"recognize --family {f.family} rejected a member"
        cert = json.loads(out[0])
        size = len(cert["C"])
        if size != (f.leaves if f.family == "F" else iota):
            return f"certificate has |C| = {size}"
    elif out[0] != "none":
        return f"recognize --family {f.family} accepted a non-member"
    return None


def large_pass(files: list[TreeFile], paths: list[Path], run, want: dict) -> Pass:
    """Every command on every file; ``run(argv)`` executes one CLI call."""
    results: list[tuple[TreeFile, str, Child]] = []
    start = time.perf_counter()
    for f, path in zip(files, paths):
        witness = ""
        for command in COMMANDS:
            child = run(command_argv(f, path, command, witness))
            if command == "solve":
                witness = child.out.split("\n")[1] if child.out.count("\n") >= 2 else ""
            results.append((f, command, child))
    wall = time.perf_counter() - start
    result = Pass(wall, len(files), len(results), 0,
                  max(child.maxrss_kb for _, _, child in results),
                  {command: 0.0 for command in COMMANDS})
    for f, command, child in results:
        result.command_s[command] += child.wall_s
        problem = check_command(f, command, child, want)
        if problem:
            result.failed += 1
            result.problems.append(f"{f.name} {command}: {problem}")
    return result


def cli_subprocess(argv: list[str]) -> Child:
    return run_child([sys.executable, "-m", "stariso.cli", *argv])


def cli_inprocess(argv: list[str]) -> Child:
    import stariso.cli

    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            code = stariso.cli.main(argv)
        except Exception:  # as in a real process: traceback, exit code 1
            traceback.print_exc()
            code = 1
    return Child(code, buffer.getvalue(), time.perf_counter() - start, 0)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def git_head() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_head": git_head(),
        "networkx": version("networkx"),
        "click": version("click"),
    }


def prepare_inputs(name: str, w, seed: int) -> tuple[Path, dict, list, list]:
    """Workload directory, input description, and for large-trees the files."""
    workdir = OUT / f"{name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    if isinstance(w, SweepWorkload):
        info = {"max_n": w.max_n, "k_list": list(K_LIST), "bf_max": w.bf_max, "jobs": w.jobs,
                "records": expected_records(w, expected.SWEEP)}
        return workdir, info, [], []
    files = make_tree_files(seed, w.scale)
    paths = []
    for f in files:
        path = workdir / f"{f.name}.txt"
        path.write_text(f.text, encoding="utf-8")
        paths.append(path)
    info = {f.name: {"vertices": f.n, "leaves": f.leaves, "k": f.k, "bytes": len(f.text)}
            for f in files}
    return workdir, info, files, paths


def run_passes(one_pass, seconds: float) -> list[Pass]:
    """At least MIN_PASSES passes; more while the next is expected to end
    within ``seconds`` of the first pass's start."""
    start = time.perf_counter()
    passes = [one_pass()]
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes
        passes.append(one_pass())


def timed_run(name: str, w, seed: int, seconds: float, want: dict) -> dict:
    workdir, inputs, files, paths = prepare_inputs(name, w, seed)
    setup = measure_setup()
    if isinstance(w, SweepWorkload):
        out = workdir / "sweep.jsonl"
        passes = run_passes(partial(sweep_pass_child, w, seed, out, want["sweep"]), seconds)
        inputs["output_bytes"] = out.stat().st_size
    else:
        passes = run_passes(partial(large_pass, files, paths, cli_subprocess, want["large"]),
                            seconds)
    walls = [p.wall_s for p in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "trees_per_s": statistics.median(p.trees / p.wall_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_kb for p in passes) / 1024,
    }
    samples = {"setup_s": len(setup), "wall_s": len(passes), "trees_per_s": len(passes),
               "peak_rss_mb": len(passes)}
    extra = {"pass_wall_s": walls, "setup_samples_s": setup}
    if isinstance(w, LargeTreeWorkload):
        for command in COMMANDS:
            key = command.replace("-", "_") + "_s"
            extra[key] = statistics.median(p.command_s[command] for p in passes)
            samples[key] = len(passes)
    return {"passes": passes, "metrics": metrics, "units": END_TO_END_UNITS,
            "samples": samples, "extra": extra, "inputs": inputs, "workdir": workdir}


def percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1000
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1000


def traced_run(name: str, w, seed: int, want: dict) -> dict:
    workdir, inputs, files, paths = prepare_inputs(name, w, seed)
    if isinstance(w, SweepWorkload):
        one_pass = partial(sweep_pass_inprocess, w, seed, workdir / "sweep-inprocess.jsonl",
                           want["sweep"])
    else:
        one_pass = partial(large_pass, files, paths, cli_inprocess, want["large"])
    plain = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass()
    finally:
        tracer.uninstall()
    spans_path = workdir / "spans.jsonl"
    tracer.write(spans_path)

    summary = tracer.summary()
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = summary[span]["calls"]
        units[f"{span}.calls"] = "count"
        metrics[f"{span}.self_s"] = summary[span]["self_s"]
        units[f"{span}.self_s"] = "s"
    for span in ("graphs.as_tree", "solver.iota_tree_dp"):
        metrics[f"{span}.calls_per_tree"] = summary[span]["calls"] / traced.trees
        units[f"{span}.calls_per_tree"] = "calls/tree"
    for span in RECOGNIZERS:
        calls = summary[span]["calls"]
        metrics[f"{span}.accept_ratio"] = tracer.accepts.get(span, 0) / calls if calls else 0.0
        units[f"{span}.accept_ratio"] = "ratio"
    checks = summary["sweep.check_tree"]["durations"]
    for q in (50, 99):
        metrics[f"sweep.check_tree.p{q}_ms"] = percentile_ms(checks, q)
        units[f"sweep.check_tree.p{q}_ms"] = "ms"
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["trace.uncovered_s"] = traced.wall_s - tracer.root_time()
    units["trace.overhead_s"] = units["trace.uncovered_s"] = "s"
    extra = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
             "trees": traced.trees, "spans": len(tracer.spans), "spans_file": str(spans_path),
             "check_tree_samples": len(checks)}
    return {"passes": [plain, traced], "metrics": metrics, "units": units,
            "samples": {}, "extra": extra, "inputs": inputs, "workdir": workdir}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workloads: dict = WORKLOADS, want: dict | None = None) -> dict:
    """Run one workload; returns the result line plus everything reported."""
    if want is None:
        want = {"sweep": expected.SWEEP, "large": expected.LARGE}
    w = workloads[name]
    run = traced_run(name, w, seed, want) if trace else timed_run(name, w, seed, seconds, want)
    attempted = sum(p.attempted for p in run["passes"])
    failed = sum(p.failed for p in run["passes"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": run["units"][key]}
                    for key, value in run["metrics"].items()},
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(), "inputs": run["inputs"], "samples": run["samples"],
        "extra": run["extra"], "error_rate": failed / attempted,
        "problems": sorted({p for ps in run["passes"] for p in ps.problems}),
        "result": result,
    }
    (run["workdir"] / f"result-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    return report


def print_report(report: dict) -> None:
    result = report["result"]
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"machine={json.dumps(report['machine'], sort_keys=True)}")
    print(f"# inputs {json.dumps(report['inputs'], sort_keys=True)}")
    for key, metric in result["metrics"].items():
        n = report["samples"].get(key)
        tail = f" (median of {n})" if n else ""
        print(f"#   {key} = {metric['value']:.6g} {metric['unit']}{tail}")
    for key, value in sorted(report["extra"].items()):
        if key.endswith("_s") and isinstance(value, float):
            n = report["samples"].get(key)
            tail = f" (median of {n})" if n else ""
            print(f"#   {key} = {value:.6g} s{tail}")
    print(f"#   error_rate = {report['error_rate']:.6g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for problem in report["problems"][:20]:
        print(f"#   FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stariso" / "__init__.py").is_file():
        print(f"stariso sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        print(json.dumps(reports[0]["result"]))
    else:
        print(json.dumps({
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {f"{r['workload']}.{key}": metric for r in reports
                        for key, metric in r["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

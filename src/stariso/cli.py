"""Command-line frontend, on the standard library's ``argparse``.

Each command is a ``Command`` registered on the ``cli`` group:
``cli.commands[name]`` is the module attribute of the same name (with
``-`` for ``_``), and ``main`` parses the arguments and calls that
command's ``callback`` with them, looked up at call time, so a wrapper
set on ``callback`` runs in its place.

Exit codes: 0 on success (``--help`` included), 1 on usage or parse
errors and, with nothing printed, when the reader of stdout closes it
early (``| head``), 2 when a verification finds a violation (a failing
set in ``verify-set``, a ``solve --witness`` set that does not
re-verify, or any violation record in ``sweep``).  Errors are printed to
stderr as ``Error: <message>``.
"""

from __future__ import annotations

import argparse
import os
import sys
from copy import copy
from functools import partial

from .formats import format_edgelist, load_graph
from .graphs import Graph, GraphError, as_tree
from .solver import (
    InstanceTooLarge,
    iota_bruteforce,
    iota_tree_dp,
    is_isolating,
    isolation_number,
    residual_degrees,
)

# bounds, families, sweep, random and json are imported inside the commands
# that use them, so that solve and verify-set start without loading them

#: The largest member ``generate`` builds: the largest tree scale the
#: toolkit targets.
MAX_GENERATED_ORDER = 10**6


class CliError(Exception):
    """A usage or input error: ``main`` prints it and exits 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse would exit 2, which here means a violation
        self.print_usage(sys.stderr)
        raise CliError(message)


class _HelpFormatter(argparse.HelpFormatter):
    def _format_action(self, action: argparse.Action) -> str:
        # show the default of each option that takes a value and has one
        if action.nargs is None and action.default is not None:
            action = copy(action)
            action.help = f"{action.help or ''} [default: %(default)s]".lstrip()
        return super()._format_action(action)


def _new_parser(make, **kwargs) -> argparse.ArgumentParser:
    parser = make(allow_abbrev=False, add_help=False, formatter_class=_HelpFormatter,
                  **kwargs)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def option(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """The arguments of one ``add_argument`` call."""
    return flags, kwargs


class Command:
    """A subcommand: its options and the function that runs it."""

    def __init__(self, callback, options: tuple) -> None:
        self.name = callback.__name__.replace("_", "-")
        self.callback = callback
        self.options = options

    def add_parser(self, subparsers, with_options: bool = True) -> argparse.ArgumentParser:
        doc = self.callback.__doc__
        parser = _new_parser(partial(subparsers.add_parser, self.name),
                             help=doc, description=doc)
        if with_options:
            for flags, kwargs in self.options:
                parser.add_argument(*flags, **kwargs)
        return parser


class Group:
    """The ``stariso`` command and its subcommands, by name."""

    def __init__(self, doc: str) -> None:
        self.doc = doc
        self.commands: dict[str, Command] = {}

    def command(self, *options: tuple):
        def register(callback) -> Command:
            command = Command(callback, options)
            self.commands[command.name] = command
            return command
        return register

    def parser(self, argv: list[str]) -> argparse.ArgumentParser:
        """The parser for argv: every subcommand with its help, and the
        options of the one that argv names."""
        parser = _new_parser(_Parser, prog="stariso", description=self.doc)
        subparsers = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
        # the group's only option is --help, so the command is argv's first
        # argument that is not an option
        named = next((arg for arg in argv if not arg.startswith("-")), None)
        for command in self.commands.values():
            command.add_parser(subparsers, with_options=command.name == named)
        return parser


cli = Group("Exact k-star isolation toolkit for trees.")


def _load(path: str, graph6: bool) -> Graph:
    try:
        return load_graph(path, graph6=graph6)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except GraphError as exc:
        raise CliError(f"parse error: {exc}") from exc


def _parse_vertex_list(text: str, g: Graph) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        vertices = [int(f) for f in text.split(",")]
    except ValueError:
        raise CliError(f"bad vertex list {text!r}") from None
    for v in vertices:
        if not (0 <= v < g.n):
            raise CliError(f"vertex {v} out of range for n={g.n}")
    return frozenset(vertices)


_INPUT = option("--input", dest="path", required=True)
_K = option("--k", required=True, type=int)
_GRAPH6 = option("--graph6", action="store_true")


@cli.command(
    _INPUT,
    _K,
    option("--witness", action="store_true", help="Also print a minimum witness set."),
    option("--graph6", action="store_true", help="Input is graph6 instead of an edge list."),
)
def solve(path: str, k: int, witness: bool, graph6: bool) -> int | None:
    """Compute the k-isolation number of the input graph."""
    g = _load(path, graph6)
    if k < 1:
        raise CliError(f"k must be positive, got {k}")
    try:
        tree = as_tree(g)
    except GraphError:
        tree = None
    if tree is None:
        if not g.is_connected():
            raise CliError(
                "input is the empty graph (n=0)" if g.n == 0 else "input graph is disconnected"
            )
        try:
            sol = iota_bruteforce(g, k)
        except InstanceTooLarge as exc:
            raise CliError(str(exc)) from exc
    elif witness:
        sol = iota_tree_dp(tree, k)
    else:
        print(isolation_number(tree, k))
        return None
    if witness and not is_isolating(g, sol.set, k):
        print(f"error: the {sol.method} witness of size {sol.size} is not "
              f"{k}-isolating", file=sys.stderr)
        return 2
    print(sol.size)
    if witness:
        print(",".join(str(v) for v in sorted(sol.set)))
    return None


@cli.command(
    _INPUT,
    _K,
    option("--json", dest="as_json", action="store_true", help="Emit the report as JSON."),
    _GRAPH6,
)
def bounds(path: str, k: int, as_json: bool, graph6: bool) -> None:
    """Evaluate every bound for a tree and report equality flags."""
    g = _load(path, graph6)
    try:
        tree = as_tree(g)
    except GraphError as exc:
        raise CliError(f"bounds need a tree input: {exc}") from exc
    if k < 1:
        raise CliError(f"k must be positive, got {k}")
    from .bounds import BOUND_NAMES, evaluate_bounds

    report = evaluate_bounds(tree, k, isolation_number(tree, k))
    if as_json:
        import json

        print(json.dumps(report.to_json_dict(), sort_keys=True))
        return
    print(
        f"n={report.n} l={report.l} s={report.s} k={report.k} "
        f"iota={report.iota} regime: {report.regime}"
    )
    for name in BOUND_NAMES:
        if name in report.bounds:
            value = report.bounds[name]
            mark = "equal" if report.equality[name] else "strict"
            note = f"  ({report.notes[name]})" if name in report.notes else ""
            print(f"  {name:<20} {str(value):>8}  {mark}{note}")
        else:
            print(f"  {name:<20}      N/A  {report.not_applicable[name]}")


@cli.command(
    _INPUT,
    _K,
    option("--set", dest="set_text", required=True),
    _GRAPH6,
)
def verify_set(path: str, k: int, set_text: str, graph6: bool) -> int | None:
    """Check whether a vertex set is k-isolating; exit 2 when it is not."""
    g = _load(path, graph6)
    if k < 1:
        raise CliError(f"k must be positive, got {k}")
    dominators = _parse_vertex_list(set_text, g)
    degrees = residual_degrees(g, dominators)
    max_deg = max(degrees.values(), default=0)
    if max_deg < k:
        print("true")
        print(f"residual-max-degree: {max_deg}")
        return None
    offender = min(v for v, d in degrees.items() if d >= k)
    print("false")
    print(f"residual-max-degree: {max_deg}")
    print(f"witness: {offender}")
    return 2


@cli.command(
    option("--family", required=True, choices=["F", "Tk", "corona-char"]),
    _INPUT,
    option("--k", type=int, default=1),
    _GRAPH6,
)
def recognize(family: str, path: str, k: int, graph6: bool) -> None:
    """Test family membership; print the certificate JSON or "none"."""
    g = _load(path, graph6)
    from .families import (
        FamilyError,
        recognize_char_orderminusleaves,
        recognize_F,
        recognize_Tk,
    )

    try:
        if family == "F":
            cert = recognize_F(as_tree(g))
        elif family == "Tk":
            if k < 2:
                raise CliError("--family Tk needs --k >= 2")
            cert = recognize_Tk(as_tree(g), k)
        else:
            cert = recognize_char_orderminusleaves(g, k)
    except (GraphError, FamilyError) as exc:
        raise CliError(str(exc)) from exc
    if cert is None:
        print("none")
    else:
        import json

        print(json.dumps(cert.to_json_dict(), sort_keys=True))


@cli.command(
    option("--family", required=True,
           choices=["F", "Tk", "corona-extremal", "corona-c4", "corona-corona", "spider"]),
    option("--r", type=int, default=2),
    option("--s", type=int, default=0),
    option("--k", type=int, default=1),
    option("--n", type=int),
    option("--n0", type=int, default=2),
    option("--h", type=int, default=1),
    option("--seed", type=int, default=0),
    option("--leaf-counts", help="Comma list of per-vertex leaf counts (corona-c4)."),
)
def generate(family: str, r: int, s: int, k: int, n: int | None, n0: int,
             h: int, seed: int, leaf_counts: str | None) -> None:
    """Emit a family member as an edge list, certificate attached as a
    trailing comment line."""
    import random

    from .families import (
        FamilyError,
        gen_char_orderminusleaves,
        gen_corona_extremal,
        gen_family_F,
        gen_spider_gap,
        sample_family_Tk,
    )

    counts = [k] * 4
    if family == "corona-c4" and leaf_counts:
        try:
            counts = [int(f) for f in leaf_counts.split(",")]
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    if n is None:
        n = (k + 2) * r
    # the member's order, known from the parameters before anything is built
    order = {
        "F": 3 * r + 4 * s,
        "Tk": (k + 2) * n0 - (k + 1) * (h - 1),
        "corona-extremal": n,
        "corona-c4": 4 + sum(counts),
        "corona-corona": (k + 2) * r,
        "spider": 2 * k + 3,
    }[family]
    if order > MAX_GENERATED_ORDER:
        raise CliError(
            f"--family {family} with these parameters has {order} vertices, "
            f"above the limit of {MAX_GENERATED_ORDER}"
        )
    cert = None
    try:
        if family == "F":
            g, cert = gen_family_F(r, s)
        elif family == "Tk":
            g, cert = sample_family_Tk(random.Random(seed), k, n0, h)
        elif family == "corona-extremal":
            g = gen_corona_extremal(k, r, n)
        elif family == "corona-c4":
            g, cert = gen_char_orderminusleaves("c4", k, leaf_counts=counts)
        elif family == "corona-corona":
            base_edges = [(i, i + 1) for i in range(r - 1)]
            g, cert = gen_char_orderminusleaves(
                "corona", k, base_edges=base_edges, base_n=r
            )
        else:
            g = gen_spider_gap(k)
    except (FamilyError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    print(format_edgelist(g), end="")
    if cert is not None:
        import json

        print(f"# certificate: {json.dumps(cert.to_json_dict(), sort_keys=True)}")


@cli.command(
    option("--max-n", required=True, type=int),
    option("--k-list", default="1,2,3"),
    option("--checks", default="all",
           # stariso.sweep.CHECK_SUITES, spelled out to keep the sweep unloaded
           help="Comma list from oracle, bounds, f-equality, tk-equality, "
                "corona-char, normalizers, constructive or 'all'."),
    option("--out", dest="output_path"),
    option("--jobs", type=int, default=1),
    option("--seed", type=int, default=0),
    option("--bf-max", type=int, default=12,
           help="Largest n that gets brute-force cross-checks."),
)
def sweep(max_n: int, k_list: str, checks: str, output_path: str | None, jobs: int,
          seed: int, bf_max: int) -> int | None:
    """Machine-check every statement over all free trees up to --max-n."""
    from .sweep import SweepConfig, parse_k_list, run_sweep

    try:
        config = SweepConfig(
            max_n=max_n,
            k_list=parse_k_list(k_list),
            checks=tuple(checks.split(",")),
            output_path=output_path,
            jobs=jobs,
            seed=seed,
            bf_max=bf_max,
        )
        config.validate()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    try:
        summary, violations = run_sweep(config)
    except OSError as exc:
        raise CliError(f"cannot write {output_path}: {exc}") from exc
    # flushed, so that it precedes the violations on a shared terminal or file
    print(f"checked {summary.enumerated} trees "
          f"(+{len(summary) - summary.enumerated} generated), {violations} violations",
          flush=True)
    if not violations:
        return None
    for line in summary.violation_lines(violations):
        print(line, file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = vars(cli.parser(argv).parse_args(argv))
        except SystemExit:  # only --help exits: _Parser.error raises CliError
            return 0
        command = cli.commands[args.pop("command")]
        return command.callback(**args) or 0
    except CliError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left; what stdout still buffers goes to devnull, so that
        # the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line frontend.

Exit codes: 0 on success, 1 on usage or parse errors, 2 when a
verification finds a violation (a failing set in ``verify-set``, a
``solve --witness`` set that does not re-verify, or any violation record
in ``sweep``).
"""

from __future__ import annotations

import json
import sys

import click

from .formats import format_edgelist, load_graph
from .graphs import Graph, GraphError, as_tree
from .solver import (
    InstanceTooLarge,
    iota_bruteforce,
    iota_tree_dp,
    is_isolating,
    residual_degrees,
)

# bounds, families, sweep and random are imported inside the commands that
# use them, so that solve and verify-set start without loading them

#: The largest member ``generate`` builds: the largest tree scale the
#: toolkit targets.
MAX_GENERATED_ORDER = 10**6


@click.group()
def cli() -> None:
    """Exact k-star isolation toolkit for trees."""


def _load(path: str, graph6: bool) -> Graph:
    try:
        return load_graph(path, graph6=graph6)
    except OSError as exc:
        raise click.ClickException(f"cannot read {path}: {exc}") from exc
    except GraphError as exc:
        raise click.ClickException(f"parse error: {exc}") from exc


def _parse_vertex_list(text: str, g: Graph) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        vertices = [int(f) for f in text.split(",")]
    except ValueError:
        raise click.ClickException(f"bad vertex list {text!r}") from None
    for v in vertices:
        if not (0 <= v < g.n):
            raise click.ClickException(f"vertex {v} out of range for n={g.n}")
    return frozenset(vertices)


@cli.command()
@click.option("--input", "path", required=True, type=click.Path())
@click.option("--k", required=True, type=int)
@click.option("--witness", is_flag=True, help="Also print a minimum witness set.")
@click.option("--graph6", is_flag=True, help="Input is graph6 instead of an edge list.")
@click.pass_context
def solve(ctx: click.Context, path: str, k: int, witness: bool, graph6: bool) -> None:
    """Compute the k-isolation number of the input graph."""
    g = _load(path, graph6)
    if k < 1:
        raise click.ClickException(f"k must be positive, got {k}")
    try:
        tree = as_tree(g)
    except GraphError:
        tree = None
    if tree is not None:
        sol = iota_tree_dp(tree, k)
    else:
        if not g.is_connected():
            raise click.ClickException(
                "input is the empty graph (n=0)" if g.n == 0 else "input graph is disconnected"
            )
        try:
            sol = iota_bruteforce(g, k)
        except InstanceTooLarge as exc:
            raise click.ClickException(str(exc)) from exc
    if witness and not is_isolating(g, sol.set, k):
        click.echo(f"error: the {sol.method} witness of size {sol.size} is not "
                   f"{k}-isolating", err=True)
        ctx.exit(2)
    click.echo(sol.size)
    if witness:
        click.echo(",".join(str(v) for v in sorted(sol.set)))


@cli.command()
@click.option("--input", "path", required=True, type=click.Path())
@click.option("--k", required=True, type=int)
@click.option("--json", "as_json", is_flag=True, help="Emit the report as JSON.")
@click.option("--graph6", is_flag=True)
def bounds(path: str, k: int, as_json: bool, graph6: bool) -> None:
    """Evaluate every bound for a tree and report equality flags."""
    g = _load(path, graph6)
    try:
        tree = as_tree(g)
    except GraphError as exc:
        raise click.ClickException(f"bounds need a tree input: {exc}") from exc
    if k < 1:
        raise click.ClickException(f"k must be positive, got {k}")
    from .bounds import BOUND_NAMES, evaluate_bounds

    report = evaluate_bounds(tree, k, iota_tree_dp(tree, k).size)
    if as_json:
        click.echo(json.dumps(report.to_json_dict(), sort_keys=True))
        return
    click.echo(
        f"n={report.n} l={report.l} s={report.s} k={report.k} "
        f"iota={report.iota} regime: {report.regime}"
    )
    for name in BOUND_NAMES:
        if name in report.bounds:
            value = report.bounds[name]
            mark = "equal" if report.equality[name] else "strict"
            note = f"  ({report.notes[name]})" if name in report.notes else ""
            click.echo(f"  {name:<20} {str(value):>8}  {mark}{note}")
        else:
            click.echo(f"  {name:<20}      N/A  {report.not_applicable[name]}")


@cli.command("verify-set")
@click.option("--input", "path", required=True, type=click.Path())
@click.option("--k", required=True, type=int)
@click.option("--set", "set_text", required=True)
@click.option("--graph6", is_flag=True)
@click.pass_context
def verify_set(ctx: click.Context, path: str, k: int, set_text: str, graph6: bool) -> None:
    """Check whether a vertex set is k-isolating; exit 2 when it is not."""
    g = _load(path, graph6)
    if k < 1:
        raise click.ClickException(f"k must be positive, got {k}")
    dominators = _parse_vertex_list(set_text, g)
    degrees = residual_degrees(g, dominators)
    max_deg = max(degrees.values(), default=0)
    if max_deg < k:
        click.echo("true")
        click.echo(f"residual-max-degree: {max_deg}")
        return
    offender = min(v for v, d in degrees.items() if d >= k)
    click.echo("false")
    click.echo(f"residual-max-degree: {max_deg}")
    click.echo(f"witness: {offender}")
    ctx.exit(2)


@cli.command()
@click.option("--family", "family", required=True,
              type=click.Choice(["F", "Tk", "corona-char"]))
@click.option("--input", "path", required=True, type=click.Path())
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--graph6", is_flag=True)
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
                raise click.ClickException("--family Tk needs --k >= 2")
            cert = recognize_Tk(as_tree(g), k)
        else:
            cert = recognize_char_orderminusleaves(g, k)
    except (GraphError, FamilyError) as exc:
        raise click.ClickException(str(exc)) from exc
    if cert is None:
        click.echo("none")
    else:
        click.echo(json.dumps(cert.to_json_dict(), sort_keys=True))


@cli.command()
@click.option("--family", required=True,
              type=click.Choice(["F", "Tk", "corona-extremal", "corona-c4",
                                 "corona-corona", "spider"]))
@click.option("--r", type=int, default=2, show_default=True)
@click.option("--s", type=int, default=0, show_default=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--n", type=int, default=None)
@click.option("--n0", type=int, default=2, show_default=True)
@click.option("--h", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--leaf-counts", default=None,
              help="Comma list of per-vertex leaf counts (corona-c4).")
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
            raise click.ClickException(str(exc)) from exc
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
        raise click.ClickException(
            f"--family {family} with these parameters has {order} vertices, "
            f"above the limit of {MAX_GENERATED_ORDER}"
        )
    cert = None
    try:
        if family == "F":
            tree, cert = gen_family_F(r, s)
            g = tree.graph
        elif family == "Tk":
            tree, cert = sample_family_Tk(random.Random(seed), k, n0, h)
            g = tree.graph
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
            g = gen_spider_gap(k).graph
    except (FamilyError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(format_edgelist(g), nl=False)
    if cert is not None:
        click.echo(f"# certificate: {json.dumps(cert.to_json_dict(), sort_keys=True)}")


@cli.command()
@click.option("--max-n", required=True, type=int)
@click.option("--k-list", default="1,2,3", show_default=True)
@click.option("--checks", default="all", show_default=True,
              # stariso.sweep.CHECK_SUITES, spelled out to keep the sweep unloaded
              help="Comma list from oracle, bounds, f-equality, tk-equality, "
                   "corona-char, normalizers, constructive or 'all'.")
@click.option("--out", "output_path", type=click.Path(), default=None)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bf-max", type=int, default=12, show_default=True,
              help="Largest n that gets brute-force cross-checks.")
@click.pass_context
def sweep(ctx: click.Context, max_n: int, k_list: str, checks: str,
          output_path: str | None, jobs: int, seed: int, bf_max: int) -> None:
    """Machine-check every statement over all free trees up to --max-n."""
    from .sweep import REPORTED_VIOLATIONS, SweepConfig, run_sweep

    try:
        ks = tuple(int(f) for f in k_list.split(","))
    except ValueError:
        raise click.ClickException(f"bad k list {k_list!r}") from None
    config = SweepConfig(
        max_n=max_n,
        k_list=ks,
        checks=tuple(checks.split(",")),
        output_path=output_path,
        jobs=jobs,
        seed=seed,
        bf_max=bf_max,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    try:
        summary, violations = run_sweep(config)
    except OSError as exc:
        raise click.ClickException(f"cannot write {output_path}: {exc}") from exc
    click.echo(f"checked {summary.enumerated} trees "
               f"(+{len(summary) - summary.enumerated} generated), {violations} violations")
    if violations:
        reported = [(rec, v) for rec in summary.violating for v in rec.violations]
        shown = reported[:REPORTED_VIOLATIONS]
        for rec, v in shown:
            click.echo(f"VIOLATION n={rec.n} code={rec.tree_code}: {v}", err=True)
        if violations > len(shown):
            click.echo("... further violations suppressed", err=True)
        ctx.exit(2)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: outputs, exit codes and file formats."""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import stariso
from stariso.cli import main
from stariso.formats import parse_edgelist
from stariso.graphs import as_tree, build_graph
from stariso.families import recognize_F
from stariso.solver import IsolationSolution, is_isolating


def path_edgelist(n):
    return f"{n}\n" + "\n".join(f"{i} {i + 1}" for i in range(n - 1)) + "\n"


@pytest.fixture
def p8_file(tmp_path):
    path = tmp_path / "p8.txt"
    path.write_text(path_edgelist(8))
    return str(path)


@pytest.fixture
def p6_file(tmp_path):
    path = tmp_path / "p6.txt"
    path.write_text(path_edgelist(6))
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolve:
    def test_eight_path_k2(self, p8_file, capsys):
        assert main(["solve", "--input", p8_file, "--k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_star_with_witness(self, tmp_path, capsys):
        star = write(tmp_path, "k13.txt", "4\n0 1\n0 2\n0 3\n")
        assert main(["solve", "--input", star, "--k", "3", "--witness"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1"
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        witness = frozenset(int(v) for v in lines[1].split(","))
        assert is_isolating(g, witness, 3)

    def test_two_vertices_large_star(self, tmp_path, capsys):
        f = write(tmp_path, "k2.txt", "2\n0 1\n")
        assert main(["solve", "--input", f, "--k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_k_above_the_max_degree(self, tmp_path, capsys):
        star = write(tmp_path, "k13.txt", "4\n0 1\n0 2\n0 3\n")
        assert main(["solve", "--input", star, "--k", "1000000"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_general_graph_falls_back_to_brute_force(self, tmp_path, capsys):
        c4 = write(tmp_path, "c4.txt", "4\n0 1\n1 2\n2 3\n0 3\n")
        assert main(["solve", "--input", c4, "--k", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_witness_that_does_not_isolate_exits_2(self, p8_file, monkeypatch, capsys):
        import stariso.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "iota_tree_dp",
            lambda tree, k: IsolationSolution(k, frozenset({0}), 1, "tree_dp"),
        )
        assert main(["solve", "--input", p8_file, "--k", "2", "--witness"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not 2-isolating" in captured.err

    def test_brute_force_beyond_sixteen_vertices(self, tmp_path, capsys):
        def cycle(n):
            return f"{n}\n" + "".join(f"{i} {(i + 1) % n}\n" for i in range(n))

        c20 = write(tmp_path, "c20.txt", cycle(20))
        assert main(["solve", "--input", c20, "--k", "1", "--witness"]) == 0
        assert capsys.readouterr().out.splitlines() == ["5", "0,4,8,12,16"]
        c25 = write(tmp_path, "c25.txt", cycle(25))
        assert main(["solve", "--input", c25, "--k", "1"]) == 1
        assert "brute force capped at n=24, got 25" in capsys.readouterr().err

    def test_disconnected_rejected(self, tmp_path, capsys):
        f = write(tmp_path, "dis.txt", "4\n0 1\n2 3\n")
        assert main(["solve", "--input", f, "--k", "1"]) == 1

    def test_parse_failure(self, tmp_path):
        f = write(tmp_path, "bad.txt", "not a graph\n")
        assert main(["solve", "--input", f, "--k", "1"]) == 1

    def test_missing_file(self):
        assert main(["solve", "--input", "does-not-exist.txt", "--k", "1"]) == 1

    def test_absurd_vertex_count_rejected_before_allocation(self, tmp_path, monkeypatch,
                                                             capsys):
        import stariso.formats

        def no_build(n, edges):
            raise AssertionError(f"build_graph called with n={n}")

        monkeypatch.setattr(stariso.formats, "build_graph", no_build)
        f = write(tmp_path, "huge.txt", "1000000000000\n0 1\n")
        assert main(["solve", "--input", f, "--k", "1"]) == 1
        assert "vertex count 1000000000000 exceeds 2m + 1 = 3" in capsys.readouterr().err

    def test_graph6_input(self, tmp_path, capsys):
        g6 = nx.to_graph6_bytes(nx.path_graph(6), header=False).decode().strip()
        f = write(tmp_path, "p6.g6", g6 + "\n")
        assert main(["solve", "--input", f, "--k", "1", "--graph6"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_graph6_empty_graph_named(self, tmp_path, capsys):
        f = write(tmp_path, "empty.g6", "?\n")
        assert main(["solve", "--input", f, "--k", "1", "--graph6"]) == 1
        assert "Error: input is the empty graph (n=0)" in capsys.readouterr().err


class TestBounds:
    def test_human_table(self, p6_file, capsys):
        assert main(["bounds", "--input", p6_file, "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "regime: ℓ = n/3" in out
        assert "order_plus_leaves" in out and "equal" in out

    def test_json_output(self, p6_file, capsys):
        assert main(["bounds", "--input", p6_file, "--k", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["iota"] == 2
        assert payload["equality"]["order_plus_leaves"] is True
        assert payload["bounds"]["order_plus_leaves"] == "2/1"

    def test_star_bound_equality(self, tmp_path, capsys):
        star = write(tmp_path, "k14.txt", "5\n0 1\n0 2\n0 3\n0 4\n")
        assert main(["bounds", "--input", star, "--k", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equality"]["star_bound"] is True

    def test_non_tree_rejected(self, tmp_path):
        c4 = write(tmp_path, "c4.txt", "4\n0 1\n1 2\n2 3\n0 3\n")
        assert main(["bounds", "--input", c4, "--k", "1"]) == 1


class TestVerifySet:
    def test_star_center(self, tmp_path, capsys):
        f = write(tmp_path, "k12.txt", "3\n0 1\n0 2\n")
        assert main(["verify-set", "--input", f, "--k", "2", "--set", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "true"

    def test_empty_set_fails_with_witness(self, tmp_path, capsys):
        f = write(tmp_path, "k12.txt", "3\n0 1\n0 2\n")
        assert main(["verify-set", "--input", f, "--k", "2", "--set", ""]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "false"
        assert "witness: 0" in lines[2]

    def test_family_construction_verifies(self, p6_file, capsys):
        cert = recognize_F(as_tree(parse_edgelist(path_edgelist(6))))
        from stariso.families import min_iso_set_F

        sol = min_iso_set_F(
            as_tree(parse_edgelist(path_edgelist(6))), cert, min(cert.a_set)
        )
        set_text = ",".join(str(v) for v in sorted(sol.set))
        assert main(["verify-set", "--input", p6_file, "--k", "1", "--set", set_text]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "true"

    def test_residual_report_names_smallest_offender(self, p6_file, capsys):
        # N[{1}] = {0, 1, 2} leaves the path 3-4-5
        assert main(["verify-set", "--input", p6_file, "--k", "1", "--set", "1"]) == 2
        assert capsys.readouterr().out == "false\nresidual-max-degree: 2\nwitness: 3\n"
        assert main(["verify-set", "--input", p6_file, "--k", "3", "--set", "1"]) == 0
        assert capsys.readouterr().out == "true\nresidual-max-degree: 2\n"

    def test_out_of_range_vertex(self, p6_file):
        assert main(["verify-set", "--input", p6_file, "--k", "1", "--set", "9"]) == 1


class TestRecognize:
    def test_family_f(self, p6_file, capsys):
        assert main(["recognize", "--family", "F", "--input", p6_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["A"] == [2, 3]

    def test_family_tk(self, p8_file, capsys):
        assert main(["recognize", "--family", "Tk", "--k", "2", "--input", p8_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["A"] == [3, 4]

    def test_negative_answer(self, tmp_path, capsys):
        f = write(tmp_path, "p5.txt", path_edgelist(5))
        assert main(["recognize", "--family", "corona-char", "--k", "1", "--input", f]) == 0
        assert capsys.readouterr().out.strip() == "none"

    def test_tk_needs_k_at_least_two(self, p8_file):
        assert main(["recognize", "--family", "Tk", "--k", "1", "--input", p8_file]) == 1

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_corona_char_needs_k_at_least_one(self, p6_file, capsys, k):
        assert main(["recognize", "--family", "corona-char", "--k", k, "--input", p6_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"need k >= 1, got {k}" in captured.err


class TestGenerate:
    def test_family_f_round_trips(self, capsys):
        assert main(["generate", "--family", "F", "--r", "2", "--s", "0"]) == 0
        out = capsys.readouterr().out
        tree = as_tree(parse_edgelist(out))
        assert tree.n == 6
        assert recognize_F(tree) is not None
        assert "# certificate:" in out

    def test_corona_extremal(self, capsys):
        assert main(["generate", "--family", "corona-extremal",
                     "--k", "2", "--r", "2", "--n", "8"]) == 0
        g = parse_edgelist(capsys.readouterr().out)
        assert g.n == 8

    def test_spider(self, capsys):
        assert main(["generate", "--family", "spider", "--k", "3"]) == 0
        g = parse_edgelist(capsys.readouterr().out)
        assert g.n == 9

    def test_tk_sampler_round_trips(self, capsys):
        assert main(["generate", "--family", "Tk", "--k", "3", "--n0", "4",
                     "--h", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        tree = as_tree(parse_edgelist(out))
        assert tree.n == 4 * (3 + 2) - (3 + 1)  # (k+2) n0 - (k+1)(h-1)
        from stariso.families import recognize_Tk

        assert recognize_Tk(tree, 3) is not None

    def test_tk_sampler_at_fifty_thousand_vertices(self, capsys):
        assert main(["generate", "--family", "Tk", "--k", "2", "--n0", "20000",
                     "--h", "10000"]) == 0
        assert as_tree(parse_edgelist(capsys.readouterr().out)).n == 4 * 20000 - 3 * 9999

    @pytest.mark.parametrize("args, message", [
        (["--k", "1"], "need k >= 2, got 1"),
        (["--k", "2", "--h", "0"], "need h >= 1, got 0"),
        (["--k", "2", "--h", "-1"], "need h >= 1, got -1"),
    ])
    def test_tk_bad_parameters_named(self, capsys, args, message):
        assert main(["generate", "--family", "Tk", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"Error: {message}\n"

    @pytest.mark.parametrize("family, args", [
        ("corona-c4", ["--k", "0"]),
        ("corona-corona", ["--k", "0", "--r", "2"]),
        ("corona-corona", ["--k", "-1", "--r", "2"]),
    ])
    def test_corona_kinds_reject_k_below_one(self, capsys, family, args):
        assert main(["generate", "--family", family, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"Error: need k >= 1, got {args[1]}\n"

    def test_corona_kinds_round_trip(self, capsys):
        from stariso.families import recognize_char_orderminusleaves

        assert main(["generate", "--family", "corona-c4", "--k", "2"]) == 0
        g = parse_edgelist(capsys.readouterr().out)
        assert recognize_char_orderminusleaves(g, 2) is not None
        assert main(["generate", "--family", "corona-corona", "--k", "1",
                     "--r", "3"]) == 0
        g = parse_edgelist(capsys.readouterr().out)
        assert recognize_char_orderminusleaves(g, 1) is not None

    @pytest.mark.parametrize("family, args, order", [
        ("F", ["--r", "2", "--s", "1"], 10),
        ("Tk", ["--k", "3", "--n0", "5", "--h", "2"], 21),
        ("corona-extremal", ["--k", "2", "--r", "3"], 12),
        ("corona-c4", ["--k", "1", "--leaf-counts", "1,2,3,4"], 14),
        ("corona-corona", ["--k", "2", "--r", "3"], 12),
        ("spider", ["--k", "4"], 11),
    ])
    def test_size_limit_is_the_members_order(self, monkeypatch, capsys, family, args, order):
        import stariso.cli

        monkeypatch.setattr(stariso.cli, "MAX_GENERATED_ORDER", order)
        assert main(["generate", "--family", family, *args]) == 0
        assert parse_edgelist(capsys.readouterr().out).n == order
        monkeypatch.setattr(stariso.cli, "MAX_GENERATED_ORDER", order - 1)
        assert main(["generate", "--family", family, *args]) == 1
        assert f"has {order} vertices, above the limit of {order - 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("family, generator, args, order", [
        ("F", "gen_family_F", ["--r", "333334"], 1000002),
        ("Tk", "sample_family_Tk", ["--k", "200000000"], 400000004),
        ("corona-extremal", "gen_corona_extremal", ["--k", "200000000"], 400000004),
        ("corona-c4", "gen_char_orderminusleaves", ["--k", "200000000"], 800000004),
        ("corona-corona", "gen_char_orderminusleaves", ["--r", "400000"], 1200000),
        ("spider", "gen_spider_gap", ["--k", "200000000"], 400000003),
    ])
    def test_huge_member_rejected_before_building(self, monkeypatch, capsys, family,
                                                  generator, args, order):
        import stariso.families

        def no_build(*_args, **_kwargs):
            raise AssertionError(f"{generator} called")

        monkeypatch.setattr(stariso.families, generator, no_build)
        assert main(["generate", "--family", family, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"has {order} vertices, above the limit of 1000000" in captured.err

    def test_invalid_parameters(self, capsys):
        assert main(["generate", "--family", "spider", "--k", "0"]) == 1
        assert main(["generate", "--family", "corona-c4", "--k", "2",
                     "--leaf-counts", "2,2,2,1"]) == 1


class TestSweepCommand:
    def test_small_sweep_clean(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        assert main(["sweep", "--max-n", "7", "--k-list", "1,2",
                     "--out", str(out), "--seed", "1"]) == 0
        summary = capsys.readouterr().out
        assert "0 violations" in summary
        lines = out.read_text().splitlines()
        enumerated = [json.loads(line) for line in lines
                      if json.loads(line)["source"] == "enumerated"]
        assert len(enumerated) == 1 + 1 + 1 + 2 + 3 + 6 + 11

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["sweep", "--max-n", "6", "--out", str(a), "--seed", "9"]) == 0
        assert main(["sweep", "--max-n", "6", "--out", str(b), "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_matches_serial(self, tmp_path, capsys, monkeypatch):
        # two jobs must be allowed even on a single-CPU host
        cpus = max(2, os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["sweep", "--max-n", "6", "--out", str(a), "--seed", "9"]) == 0
        assert main(["sweep", "--max-n", "6", "--out", str(b), "--seed", "9",
                     "--jobs", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_configuration(self, capsys):
        assert main(["sweep", "--max-n", "7", "--k-list", ""]) == 1
        assert main(["sweep", "--max-n", "7", "--checks", "nonsense"]) == 1
        assert main(["sweep", "--max-n", "7", "--bf-max", "17"]) == 1
        assert main(["sweep", "--max-n", "25"]) == 1

    def test_a_misspelt_suite_beside_all_exits_1(self, monkeypatch, capsys):
        import stariso.sweep

        def no_sweep(config):
            raise AssertionError("a bad --checks must stop the sweep before it runs")

        monkeypatch.setattr(stariso.sweep, "run_sweep", no_sweep)
        assert main(["sweep", "--max-n", "3", "--checks", "all,orcale"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "Error: unknown check suites: ['orcale']\n")

    def test_jobs_above_the_cpu_count_start_no_process(self, monkeypatch, capsys):
        import stariso.sweep

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool must not be started")

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(stariso.sweep, "ProcessPoolExecutor", no_pool)
        assert main(["sweep", "--max-n", "7", "--jobs", "100000"]) == 1
        assert "jobs must be <= 4 (the CPU count), got 100000" in capsys.readouterr().err

    def test_violations_exit_code(self, monkeypatch, capsys):
        import stariso.sweep
        from stariso.sweep import SweepLine, SweepSummary

        broken = SweepLine(
            n=2, tree_code="10", source="enumerated",
            violations=["synthetic violation for the exit-code path"],
            line="{}",
        )
        summary = SweepSummary(records=1, enumerated=1, violating=[broken])
        monkeypatch.setattr(stariso.sweep, "run_sweep", lambda config: (summary, 1))
        assert main(["sweep", "--max-n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "checked 1 trees (+0 generated), 1 violations\n"
        assert captured.err == (
            "VIOLATION n=2 code=10: synthetic violation for the exit-code path\n"
        )

    @pytest.mark.parametrize("count,note", [(50, False), (51, True)])
    def test_suppression_note_only_when_violations_are_left_out(
        self, monkeypatch, capsys, count, note
    ):
        import stariso.sweep
        from stariso.sweep import REPORTED_VIOLATIONS, SweepLine, SweepSummary

        assert REPORTED_VIOLATIONS == 50
        broken = [
            SweepLine(n=2, tree_code="10", source="enumerated",
                      violations=[f"synthetic violation {i}"], line="{}")
            for i in range(count)
        ]
        summary = SweepSummary(records=count, enumerated=count, violating=broken[:50])
        monkeypatch.setattr(stariso.sweep, "run_sweep", lambda config: (summary, count))
        assert main(["sweep", "--max-n", "2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[:50] == [f"VIOLATION n=2 code=10: synthetic violation {i}" for i in range(50)]
        assert err[50:] == (["... further violations suppressed"] if note else [])

    def test_k_above_the_largest_order_starts_no_work(self, monkeypatch, capsys):
        import stariso.sweep

        def never(*args, **kwargs):
            raise AssertionError("no tree may be checked")

        monkeypatch.setattr(stariso.sweep, "ProcessPoolExecutor", never)
        monkeypatch.setattr(stariso.sweep, "_worker", never)
        monkeypatch.setattr(stariso.sweep, "check_tree", never)
        assert main(["sweep", "--max-n", "3", "--k-list", "2000000"]) == 1
        assert "k values must be at most 20: (2000000,)" in capsys.readouterr().err

    def test_unwritable_out_fails_before_any_work(self, monkeypatch, tmp_path, capsys):
        import stariso.sweep

        def never(*args, **kwargs):
            raise AssertionError("no tree may be checked")

        monkeypatch.setattr(stariso.sweep, "ProcessPoolExecutor", never)
        monkeypatch.setattr(stariso.sweep, "_worker", never)
        monkeypatch.setattr(stariso.sweep, "check_tree", never)
        out = tmp_path / "no" / "such" / "r.jsonl"
        assert main(["sweep", "--max-n", "16", "--jobs", "2", "--out", str(out)]) == 1
        assert f"cannot write {out}: " in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("make", [os.mkfifo, os.mkdir], ids=["fifo", "directory"])
    def test_out_that_is_not_a_regular_file_fails_before_any_work(
            self, monkeypatch, tmp_path, capsys, make):
        import stariso.sweep

        def never(*args, **kwargs):
            raise AssertionError("no tree may be checked")

        monkeypatch.setattr(stariso.sweep, "_worker", never)
        monkeypatch.setattr(stariso.sweep, "check_tree", never)
        out = tmp_path / "r.jsonl"
        make(out)
        before = out.stat()
        assert main(["sweep", "--max-n", "4", "--out", str(out)]) == 1
        assert capsys.readouterr().err.endswith(
            f"cannot write {out}: exists and is not a regular file\n")
        assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]
        assert (out.stat().st_ino, out.stat().st_mode) == (before.st_ino, before.st_mode)


def python_env():
    src = str(Path(stariso.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_python(*args):
    return subprocess.run([sys.executable, *args], env=python_env(), capture_output=True,
                          text=True)


def symlink_to_a_file(partial):
    target = partial.with_name("target.txt")
    target.write_text("older\n")
    partial.symlink_to(target)


@pytest.mark.parametrize("make", [os.mkfifo, os.mkdir, symlink_to_a_file],
                         ids=["fifo", "directory", "symlink"])
def test_partial_that_is_not_a_regular_file_fails_at_once(tmp_path, make):
    # opening a FIFO for writing waits for a reader: the timeout turns a
    # regression into a failure instead of a hang; a symbolic link would
    # have the sweep written through it, and --out renamed to the link
    out = tmp_path / "r.jsonl"
    partial = tmp_path / "r.jsonl.partial"
    make(partial)
    before = sorted(p.name for p in tmp_path.iterdir())
    proc = subprocess.run([sys.executable, "-m", "stariso.cli", "sweep", "--max-n", "3",
                           "--out", str(out)],
                          env=python_env(), capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.endswith(
        f"cannot write {out}: {partial} exists and is not a regular file\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert not stat.S_ISREG(os.lstat(partial).st_mode)
    target = tmp_path / "target.txt"
    assert not target.exists() or target.read_text() == "older\n"


def test_cli_import_loads_only_what_solve_needs():
    unused = ["stariso.families", "stariso.bounds", "stariso.sweep",
              "multiprocessing", "networkx", "click", "json"]
    code = f"import sys, stariso.cli; print([m for m in {unused!r} if m in sys.modules])"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_and_bounds_import_without_dataclasses_or_inspect():
    code = ("import sys, stariso.cli, stariso.bounds; "
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_closed_stdout_exits_1_without_a_traceback():
    # the member has 50,003 vertices, far more output than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "stariso.cli", "generate", "--family", "Tk",
         "--k", "2", "--n0", "20000", "--h", "10000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=python_env(),
    )
    assert proc.stdout.readline() == b"50003\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), stderr) == (1, b"")


@pytest.mark.parametrize("name", stariso.__all__)
def test_package_exports_resolve(name):
    namespace = {}
    exec(f"from stariso import {name}", namespace)
    value = namespace[name]
    assert getattr(sys.modules[value.__module__], name) is value


def test_package_rejects_unknown_names():
    with pytest.raises(ImportError):
        exec("from stariso import no_such_name", {})


COMMANDS = ["solve", "bounds", "verify-set", "recognize", "generate", "sweep"]


def test_parser_adds_every_commands_options():
    from stariso.cli import cli

    parser = cli.parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    options = {name: [a.dest for a in sub._actions] for name, sub in subparsers.choices.items()}
    assert list(options) == COMMANDS
    assert options == {
        "solve": ["help", "path", "k", "witness", "graph6"],
        "bounds": ["help", "path", "k", "as_json", "graph6"],
        "verify-set": ["help", "path", "k", "set_text", "graph6"],
        "recognize": ["help", "family", "path", "k", "graph6"],
        "generate": ["help", "family", "r", "s", "k", "n", "n0", "h", "seed", "leaf_counts"],
        "sweep": ["help", "max_n", "k_list", "checks", "output_path", "jobs", "seed", "bf_max"],
    }


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_option(self):
        assert main(["solve"]) == 1

    @pytest.mark.parametrize("command", [[], *([c] for c in COMMANDS)])
    def test_help_exits_0(self, command, capsys):
        assert main([*command, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(" ".join(["usage: stariso", *command]) + " ")
        assert captured.err == ""

    @pytest.mark.parametrize("args", [
        ["solve", "--input", "{p8}", "--k", "x"],
        ["recognize", "--family", "G", "--input", "{p8}"],
        ["solve", "--input", "{p8}", "--k", "2", "--frobnicate"],
        ["solve", "--input", "{p8}", "--k", "2", "--wit"],
        ["solve", "--k", "2"],
    ], ids=["bad-int", "bad-choice", "unknown-option", "abbreviation", "missing-input"])
    def test_usage_error_exits_1(self, p8_file, args, capsys):
        assert main([a.format(p8=p8_file) for a in args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "\nError: " in captured.err

    def test_module_entry_point(self, p8_file):
        proc = run_python("-m", "stariso.cli", "solve", "--input", p8_file, "--k", "2")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2\n", "")
        proc = run_python("-m", "stariso.cli", "solve", "--input", p8_file, "--k", "x")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Error: argument --k: invalid int value: 'x'" in proc.stderr


def test_main_calls_the_command_callback_it_finds(p8_file, monkeypatch, capsys):
    # the benchmark's tracer wraps each command by replacing its callback
    import stariso.cli

    calls = []
    callback = stariso.cli.solve.callback

    def counting(**kwargs):
        calls.append(kwargs)
        return callback(**kwargs)

    monkeypatch.setattr(stariso.cli.solve, "callback", counting)
    assert main(["solve", "--input", p8_file, "--k", "2"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert calls == [{"path": p8_file, "k": 2, "witness": False, "graph6": False}]

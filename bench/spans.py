"""In-memory span tracer that wraps stariso's public functions from outside.

A span is recorded around every call of a wrapped function: its name, start,
end and the span that was open when it began.  ``install`` replaces each
function in every stariso module namespace that holds it (``stariso.sweep``
imports ``iota_tree_dp`` by name, so patching ``stariso.solver`` alone would
miss those calls); ``uninstall`` puts the originals back.  Spans stay in
memory until ``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

#: (defining module, attribute) of every traced function.  The metric prefix
#: is ``<module>.<attribute>``.
FUNCTIONS = (
    ("formats", "parse_edgelist"),
    ("graphs", "build_graph"),
    ("graphs", "as_tree"),
    ("graphs", "enumerate_free_trees"),
    ("graphs", "canonical_code"),
    ("graphs", "diameter_path"),
    ("solver", "iota_tree_dp"),
    ("solver", "iota_bruteforce"),
    ("solver", "gamma_bruteforce"),
    ("solver", "is_isolating"),
    ("solver", "residual"),
    ("bounds", "evaluate_bounds"),
    ("families", "recognize_F"),
    ("families", "recognize_Tk"),
    ("families", "recognize_char_orderminusleaves"),
    ("sweep", "check_tree"),
)
#: Methods, traced on the class itself.
METHODS = (("sweep", "SweepRecord", "to_json_line"),)
#: CLI commands, traced through their click callbacks: (attribute, command name).
COMMANDS = (
    ("solve", "solve"),
    ("verify_set", "verify-set"),
    ("bounds", "bounds"),
    ("recognize", "recognize"),
)
#: Functions whose non-None result counts as an accept.
RECOGNIZERS = ("families.recognize_F", "families.recognize_Tk",
               "families.recognize_char_orderminusleaves")
MODULES = ("formats", "graphs", "solver", "bounds", "families", "sweep", "cli")

SPAN_NAMES = (
    [f"{m}.{a}" for m, a in FUNCTIONS]
    + [f"{m}.{c}.{a}" for m, c, a in METHODS]
    + [f"cli.{name}" for _, name in COMMANDS]
)


class Tracer:
    """Records spans as (id, parent id, name, start, end); parent -1 is a root."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.accepts: dict[str, int] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name: str, sid: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def wrap(self, fn, name: str):
        count_accepts = name in RECOGNIZERS
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid, parent, start = self._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, sid, parent, start)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, start)
            if count_accepts and result is not None:
                self.accepts[name] = self.accepts.get(name, 0) + 1
            return result
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function wherever stariso binds it."""
        import stariso
        mods = [importlib.import_module(f"stariso.{m}") for m in MODULES] + [stariso]
        for home, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"stariso.{home}"), attr)
            wrapped = self.wrap(original, f"{home}.{attr}")
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapped)
        for home, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"stariso.{home}"), cls_name)
            self._set(cls, attr, self.wrap(getattr(cls, attr), f"{home}.{cls_name}.{attr}"))
        cli = importlib.import_module("stariso.cli")
        for attr, name in COMMANDS:
            command = getattr(cli, attr)
            self._set(command, "callback", self.wrap(command.callback, f"cli.{name}"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and durations."""
        child_time: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
               for name in SPAN_NAMES}
        for sid, _, name, start, end in self.spans:
            entry = out[name]
            dur = end - start
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child_time.get(sid, 0.0)
            entry["durations"].append(dur)
        return out

    def root_time(self) -> float:
        return sum(end - start for _, parent, _, start, end in self.spans if parent < 0)

    def write(self, path) -> None:
        """Dump the spans as JSON lines: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

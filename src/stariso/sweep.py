"""Exhaustive verification sweeps over all free trees at desk scale.

Every enumerated tree yields one record carrying its statistics, per-k
solver results, bounds, equality flags, family memberships and a list of
violations (empty on success).  Any nonempty violation list means a
machine-checked statement failed on a concrete instance.

The bounds suite and a record's per-k entry read only a few values of
(tree, k): the bound key (n, l, s, k and the two star flags), iota,
iota_1, whether its max degree is at least k, and the two
family-membership flags.  Each process computes both once per such key,
in one ``functools.lru_cache`` (``_per_k``) bounded at ``CACHE_SIZE``
keys.  The entry is its JSON text, one ``str`` shared by the records of
its key, which ``SweepRecord.to_json_line`` splices.

Each order is checked in one share per job, whose task claims the
order's trees one at a time, so a worker that falls behind checks fewer.
It writes their JSON lines, then their sorted keys, to its own temporary
file; the caller merges an order's shares by key and reads each line
back, so no line passes through a pipe.
"""

from __future__ import annotations

import json
import os
import random
import stat
import tempfile
from collections import defaultdict
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from functools import lru_cache, partial
from heapq import merge
from itertools import chain
from json.encoder import encode_basestring_ascii as json_string
from operator import attrgetter
from typing import NamedTuple, TextIO

from .bounds import (
    ORDER_MINUS_LEAVES,
    ORDER_PLUS_LEAVES,
    STAR_BOUND,
    SUPPORT_BOUND,
    BoundKey,
    BoundReport,
    bound_key,
    bound_report,
)
from .families import (
    corona_shape,
    min_iso_set_F,
    min_iso_set_Tk,
    recognize_F,
    recognize_Tk,
    sample_family_F,
    sample_family_Tk,
)
from .graphs import (
    FREE_TREE_COUNTS,
    MAX_ENUMERATION_ORDER as MAX_SWEEP_N,
    Tree,
    as_tree,
    centered_code,
    far_path,
    free_tree_levels,
    is_star,
    level_tree,
)
from .solver import (
    certificate_failures,
    iota_bruteforce,
    iota_tree_dp,
    is_isolating,
    isolation_certificate,
    normalize_no_deg2_support,
    normalize_no_leaves,
)

CHECK_SUITES = ("oracle", "bounds", "f-equality", "tk-equality", "corona-char", "normalizers",
                "constructive")

#: The largest ``bf_max``: the brute-force oracle on every tree up to it.
BRUTE_FORCE_FREE_N = 16

#: A ``SweepSummary`` keeps the violating records until they hold this
#: many violations: the CLI prints no more.
REPORTED_VIOLATIONS = 50

#: Keys in the per-process cache of ``check_tree``'s per-k work (``_per_k``).
#: A one-process sweep to max-n 14 at k 1, 2, 3 fills 1,072 of them; past
#: the bound the least recently used key goes first.
CACHE_SIZE = 4096


def parse_k_list(text: str) -> tuple[int, ...]:
    """The k values of a comma list such as ``"1,2,3"``."""
    try:
        return tuple(int(f) for f in text.split(","))
    except ValueError:
        raise ValueError(f"bad k list {text!r}") from None


@dataclass(frozen=True)
class SweepConfig:
    max_n: int
    k_list: tuple[int, ...]
    checks: tuple[str, ...] = ("all",)
    output_path: str | None = None
    jobs: int = 1
    seed: int = 0
    bf_max: int = 12

    def active_checks(self) -> frozenset[str]:
        if "all" in self.checks:
            return frozenset(CHECK_SUITES)
        return frozenset(self.checks)

    def validate(self) -> None:
        if not self.k_list:
            raise ValueError("k_list must be nonempty")
        if any(k < 1 for k in self.k_list):
            raise ValueError(f"k values must be positive: {self.k_list}")
        if any(k > MAX_SWEEP_N for k in self.k_list):
            # no swept tree has a vertex of degree k, and the generated T_k
            # members pad every hub with leaves up to degree k
            raise ValueError(f"k values must be at most {MAX_SWEEP_N}: {self.k_list}")
        if not (1 <= self.max_n <= MAX_SWEEP_N):
            raise ValueError(f"max_n must be in 1..{MAX_SWEEP_N}, got {self.max_n}")
        if self.bf_max > BRUTE_FORCE_FREE_N:
            raise ValueError(
                f"brute-force cross-checks capped at n={BRUTE_FORCE_FREE_N}, got {self.bf_max}"
            )
        unknown = set(self.checks) - {*CHECK_SUITES, "all"}
        if unknown:
            raise ValueError(f"unknown check suites: {sorted(unknown)}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        cpus = os.cpu_count() or 1
        if self.jobs > cpus:
            raise ValueError(f"jobs must be <= {cpus} (the CPU count), got {self.jobs}")


@dataclass
class SweepRecord:
    """One tree's checks.  ``per_k`` maps each k to the JSON text of an
    object with ``iota``, ``regime``, ``bounds``, ``equality`` and, where
    computed, ``tk_member`` and ``corona_char_member``.  ``check_tree``
    takes each text from the sweep's cache, shared by the records of one
    cache key."""

    tree_code: str
    source: str  # enumerated | generated
    n: int
    l: int
    s: int
    diam: int
    family_F: bool
    per_k: dict[int, str]
    violations: list[str] = field(default_factory=list)

    def to_json_line(self) -> str:
        """``json.dumps`` of the record with sorted keys, the k keys as
        strings and each per-k text spliced in, for fields of their
        declared types."""
        per_k = ", ".join(f'"{k}": {text}' for k, text in
                          sorted(self.per_k.items(), key=lambda item: str(item[0])))
        return (f'{{"diam": {self.diam}, "family_F": {"true" if self.family_F else "false"}, '
                f'"k": {{{per_k}}}, "l": {self.l}, "n": {self.n}, "s": {self.s}, '
                f'"source": {json_string(self.source)}, '
                f'"tree_code": {json_string(self.tree_code)}, '
                f'"violations": [{", ".join(map(json_string, self.violations))}]}}')


class SweepLine(NamedTuple):
    """What the sweep keeps of a record: its sort key, its violations and
    its ``to_json_line()``, built where the record was checked."""

    n: int
    tree_code: str
    source: str
    violations: list[str]
    line: str


def _to_line(rec: SweepRecord) -> SweepLine:
    return SweepLine(rec.n, rec.tree_code, rec.source, rec.violations, rec.to_json_line())


def _strip_to_single_leaves(t: Tree) -> Tree:
    """Delete all but one leaf at every support vertex (the twin-leaf
    inverse)."""
    drop = set()
    for v in sorted(t.support_set):
        leaf_nbrs = sorted(w for w in t.adjacency[v] if w in t.leaf_set)
        drop.update(leaf_nbrs[1:])
    keep = [v for v in range(t.n) if v not in drop]
    sub, _ = t.induced_subgraph(keep)
    return as_tree(sub)


def _twin_leaf_member(t: Tree) -> bool:
    """``recognize_F(_strip_to_single_leaves(t)) is not None``, with no
    rebuild where the reduced tree fails ``recognize_F``'s gate (n >= 6,
    as many supports as leaves, every support of degree 2).  The reduced
    tree has n - l + s vertices; it keeps one leaf per support vertex, so
    a support's degree there is one more than its non-leaf neighbors in
    t."""
    adjacency, leaves = t.adjacency, t.leaf_set
    if t.n - t.leaf_order + t.support_count < 6 or any(
            sum(w not in leaves for w in adjacency[v]) != 1 for v in t.support_set):
        return False
    return recognize_F(_strip_to_single_leaves(t)) is not None


def _bounds_suite(report: BoundReport, iota1: int, wide: bool) -> tuple[str, ...]:
    """The bounds suite's violations at one (tree, k): a function of the
    report, iota_1 and whether the tree's max degree is at least k
    (``wide``).  No clause restates the tree's counts: s <= l, and a
    vertex of degree k gives n+l >= 2k+1, tight only on the k-star."""
    k, iota = report.k, report.iota
    violations = [f"k={k}: iota={iota} exceeds {name}={value}"
                  for name, value in report.bounds.items()
                  if iota * value.denominator > value.numerator]
    if (iota == 0) != (not wide):
        violations.append(f"k={k}: iota=0 iff max degree < k failed")
    if iota > iota1:
        violations.append(f"k={k}: iota_k={iota} above iota_1={iota1}")
    return tuple(violations)


@lru_cache(maxsize=CACHE_SIZE)
def _per_k(key: BoundKey, iota: int, iota1: int, wide: bool, tk_member: bool | None,
           corona_member: bool | None) -> tuple[str, frozenset[str], tuple[str, ...]]:
    """A record's entry at one k as its JSON text, the names of the bounds
    iota attains there and the bounds suite's violations, from the values
    they read (``_bounds_suite``'s and the membership flags).  The entry
    leaves out each flag that is None."""
    report = bound_report(key, iota)
    entry = {
        "iota": iota,
        "regime": report.regime,
        "bounds": report.to_json_dict()["bounds"],
        "equality": report.equality,
    }
    if tk_member is not None:
        entry["tk_member"] = tk_member
    if corona_member is not None:
        entry["corona_char_member"] = corona_member
    equal = frozenset(name for name, eq in report.equality.items() if eq)
    violations = _bounds_suite(report, iota1, wide)
    return json.dumps(entry, sort_keys=True), equal, violations


def check_tree(t: Tree, config: SweepConfig, source: str = "enumerated") -> SweepRecord:
    """Run every enabled check suite on one tree and collect violations.
    No clause restates a validated certificate beside its membership
    clause (a T_k member's hub count, n >= 2k+4, diameter >= 5 and hubs
    of degree k; an F member's lack of strong supports) or n >= 3 iff
    n+l > 4."""
    checks = config.active_checks()
    n, l, s = t.n, t.leaf_order, t.support_count
    # one BFS gives the diameter here and the centers of the tree code
    far = far_path(t)
    diam = len(far) - 1
    violations: list[str] = []
    per_k: dict[int, str] = {}
    equal1 = None  # the bounds attained at k = 1, where 1 is in the k list

    # one DP solution per k, shared by the bound checks, the oracle's
    # witness check and the normalizers
    solutions = {k: iota_tree_dp(t, k) for k in sorted(set(config.k_list) | {1})}
    iota1 = solutions[1].size

    f_cert = recognize_F(t)
    corona_check = "corona-char" in checks and n >= 3
    corona = corona_shape(t) if corona_check else None

    for k in sorted(set(config.k_list)):
        sol = solutions[k]
        iota = sol.size
        tk_cert = recognize_Tk(t, k) if k >= 2 else None
        corona_member = corona is not None and corona[1] >= k if corona_check else None
        text, equal, bound_violations = _per_k(
            bound_key(t, k), iota, iota1, t.max_degree >= k,
            tk_cert is not None if k >= 2 else None, corona_member,
        )
        if k == 1:
            equal1 = equal

        if "oracle" in checks and n <= config.bf_max:
            bf = iota_bruteforce(t, k)
            if bf.size != iota:
                violations.append(f"k={k}: dp={iota} != brute_force={bf.size}")
            if not is_isolating(t, sol.set, k):
                violations.append(f"k={k}: dp witness fails verification")
            cert_set, packing = isolation_certificate(t, k)
            violations.extend(
                f"k={k}: {f}" for f in certificate_failures(t, k, cert_set, packing)
            )
            if len(packing) != iota:
                violations.append(f"k={k}: dp={iota} != certificate={len(packing)}")

        if "bounds" in checks:
            violations.extend(bound_violations)

        if "tk-equality" in checks and k >= 2:
            eq = STAR_BOUND in equal
            member = is_star(t, k) or tk_cert is not None
            if eq != member:
                violations.append(
                    f"k={k}: (n+l)/(2k+1) equality is {eq} but membership is {member}"
                )
            if tk_cert is not None:
                built = min_iso_set_Tk(t, tk_cert)
                if built.size != iota or not is_isolating(t, built.set, k):
                    violations.append(f"k={k}: constructive hub set is not a minimum witness")
            if n >= 3 and k <= t.max_degree and n <= 2 * k + 1 and iota != 1:
                violations.append(f"k={k}: small-order tree with iota={iota} != 1")

        if corona_check:
            # N/A, so False, on stars, where n - l = 1
            eq = ORDER_MINUS_LEAVES in equal
            if k >= 2 and n - l == 2:
                # double-star core: equality holds exactly when a k-star
                # exists at all, regardless of the per-support leaf counts
                if eq != (t.max_degree >= k):
                    violations.append(
                        f"k={k}: double-star (n-l)/2 equality is {eq} with max degree "
                        f"{t.max_degree}"
                    )
            elif eq != corona_member:
                violations.append(
                    f"k={k}: (n-l)/2 equality is {eq} but corona membership is {corona_member}"
                )

        if "normalizers" in checks and n >= 3:
            norm = normalize_no_leaves(t, sol)
            if norm.size != sol.size or not is_isolating(t, norm.set, k):
                violations.append(f"k={k}: leaf normalization broke the witness")
            if norm.set & t.leaf_set:
                violations.append(f"k={k}: leaf normalization left a leaf")

        per_k[k] = text

    # the k = 1 statements run once per tree, whether or not 1 is in the
    # k list: iota_1 is always solved
    if "f-equality" in checks:
        if equal1 is None:
            equal1 = _per_k(bound_key(t, 1), iota1, iota1, t.max_degree >= 1, None, None)[1]
        eq = ORDER_PLUS_LEAVES in equal1
        member = f_cert is not None
        if eq != (member or n == 2):
            violations.append(f"(n+l)/4 equality is {eq} but family membership is {member}")
        if member:
            root = min(f_cert.a_set | f_cert.x_set)
            built = min_iso_set_F(t, f_cert, root)
            if built.size != iota1 or not is_isolating(t, built.set, 1):
                violations.append("constructive family set is not a minimum witness")
        if 2 <= diam <= 3 and iota1 != 1:
            violations.append(f"diameter {diam} tree needs iota=1, got {iota1}")
        if s >= 2 and n >= 3:
            eq2 = SUPPORT_BOUND in equal1
            member2 = _twin_leaf_member(t)
            if eq2 != member2:
                violations.append(
                    f"(n-l+2s)/4 equality is {eq2} but twin-leaf reduction membership is {member2}"
                )

    if "normalizers" in checks and n >= 5:
        norm = normalize_no_deg2_support(t, normalize_no_leaves(t, solutions[1]))
        if norm.size != iota1 or not is_isolating(t, norm.set, 1):
            violations.append("support normalization broke the witness")
        if norm.set & t.leaf_set:
            violations.append("support normalization left a leaf")
        if any(v in t.support_set and t.degree(v) == 2 for v in norm.set):
            violations.append("support normalization left a degree-2 support")

    if "bounds" in checks and 2 <= n <= config.bf_max:
        # k = 0: a minimum dominating set, proved by a 2-packing
        dominators, packing = isolation_certificate(t, 0)
        failures = certificate_failures(t, 0, dominators, packing)
        violations.extend(f"k=0: {f}" for f in failures)
        if not failures and 2 * len(dominators) > n:
            violations.append(f"domination number {len(dominators)} above n/2")

    return SweepRecord(tree_code=centered_code(t, far).decode("ascii"), source=source, n=n, l=l,
                       s=s, diam=diam, family_F=f_cert is not None, per_k=per_k,
                       violations=violations)


def _constructive_records(config: SweepConfig) -> list[SweepRecord]:
    """Seeded random family instances pushed through the full per-tree
    checks plus their own round-trip assertions."""
    rng = random.Random(config.seed)
    records = []
    for _ in range(6):
        r = rng.randint(2, 4)
        s = rng.randint(0, 2)
        t, _ = sample_family_F(rng, r, s)
        rec = check_tree(t, config, source="generated")
        if not rec.family_F:
            rec.violations.append(f"generated family member (r={r}, s={s}) not recognized")
        records.append(rec)
    tk_ks = [k for k in config.k_list if k >= 2] or [2]
    for _ in range(6):
        k = rng.choice(tk_ks)
        h = rng.randint(1, 2)
        n0 = rng.randint(2 * h, 5)
        t, _ = sample_family_Tk(rng, k, n0, h)
        rec = check_tree(t, config, source="generated")
        if recognize_Tk(t, k) is None:
            rec.violations.append(
                f"generated hub family member (k={k}, n0={n0}, h={h}) not recognized"
            )
        records.append(rec)
    return records


def _worker(config: SweepConfig, levels: tuple[int, ...]) -> SweepLine:
    return _to_line(check_tree(level_tree(levels), config))


def _check_share(config: SweepConfig, directory: str, task: tuple[int, int]) -> tuple[str, int]:
    """For ``task = (n, i)``: check the trees of order n this task claims in
    ``n.claims`` and write the file ``n.i`` in ``directory``: their lines,
    then their sorted keys ``tree_code source offset size violations`` (a
    JSON list), one a line.  Returns its path and where the keys start."""
    n, share = task
    count = FREE_TREE_COUNTS[n - 1]
    keys, offset, claim = [], 0, -1
    path = os.path.join(directory, f"{n}.{share}")
    with open(path, "wb") as spill, \
            open(os.path.join(directory, f"{n}.claims"), "ab", buffering=0) as claims:
        for index, levels in enumerate(free_tree_levels(n)):
            if index > claim:
                # appends are atomic: this byte's index is a tree no one claimed
                claims.write(b".")
                claim = claims.tell() - 1
                if claim >= count:
                    break
            if index < claim:
                continue
            try:
                line = _worker(config, levels)
            except BaseException:
                # every later claim now lies past the order's last tree, so
                # the order's other shares stop instead of checking the rest
                claims.write(b"." * count)
                raise
            data = line.line.encode()
            spill.write(data)
            # sorted as bytes by code, then source: a space sorts below both
            keys.append(f"{line.tree_code} {line.source} {offset} {len(data)} "
                        f"[{', '.join(map(json_string, line.violations))}]\n".encode())
            offset += len(data)
        keys.sort()
        spill.writelines(keys)
    return path, offset


def _share_lines(n: int, path: str, start: int) -> Iterator[SweepLine]:
    """A share's lines in key order, from its file at ``path`` (deleted once
    open), whose keys start at ``start``."""
    with open(path, "rb") as share:
        os.unlink(path)
        share.seek(start)
        for key in share:
            tree_code, source, offset, size, violations = key.decode().split(" ", 4)
            yield SweepLine(n, tree_code, source,
                            [] if violations == "[]\n" else json.loads(violations),
                            os.pread(share.fileno(), int(size), int(offset)).decode())


def sweep_lines(config: SweepConfig) -> Iterator[SweepLine]:
    """Yield one ``SweepLine`` per record, sorted by order, tree code and
    source, an order at a time: its shares run here for one job, and in a
    ``ProcessPoolExecutor`` for more.  The constructive records are checked
    first, here; each joins its own order, and those above ``max_n`` come
    last.  Leaving early (an error, or the generator closed) cancels the
    shares not yet started and waits for the running ones: no busy worker
    is killed, and none is left writing to the removed directory."""
    config.validate()
    generated: dict[int, list[SweepLine]] = defaultdict(list)
    if "constructive" in config.active_checks():
        for rec in _constructive_records(config):
            generated[rec.n].append(_to_line(rec))
    orders = range(1, config.max_n + 1)
    tasks = ((n, share) for n in orders for share in range(config.jobs))
    by_key = attrgetter("tree_code", "source")
    pool = ProcessPoolExecutor(config.jobs) if config.jobs > 1 else None
    with tempfile.TemporaryDirectory() as directory:
        check = partial(_check_share, config, directory)
        try:
            written = map(check, tasks) if pool is None else pool.map(check, tasks)
            for n in orders:
                shares = [_share_lines(n, *next(written)) for _ in range(config.jobs)]
                # stable: equal keys (only among generated lines) keep their order
                yield from merge(*shares, sorted(generated.pop(n, []), key=by_key), key=by_key)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
    yield from sorted(chain.from_iterable(generated.values()),
                      key=attrgetter("n", "tree_code", "source"))


@dataclass
class SweepSummary:
    """What ``run_sweep`` keeps of its records: the counts, and the
    violating records up to the first ``REPORTED_VIOLATIONS`` violations.
    ``len()`` is the number of records."""

    records: int = 0
    enumerated: int = 0
    violating: list[SweepLine] = field(default_factory=list)

    def __len__(self) -> int:
        return self.records

    def violation_lines(self, violations: int) -> list[str]:
        """``VIOLATION n=... code=...: ...`` for each of the first
        ``REPORTED_VIOLATIONS`` violations kept, then a note when
        ``violations`` (the sweep's count) is more than were printed."""
        lines = [f"VIOLATION n={rec.n} code={rec.tree_code}: {v}"
                 for rec in self.violating for v in rec.violations][:REPORTED_VIOLATIONS]
        if violations > len(lines):
            lines.append("... further violations suppressed")
        return lines


@contextmanager
def _all_or_nothing(path: str) -> Iterator[TextIO]:
    """Write to ``<path>.partial``, opened at once, after refusing a
    ``path`` or ``<path>.partial`` that exists and is not a regular file
    (opening a FIFO would wait for a reader) and a ``<path>.partial``
    that is a symbolic link (writing would go through it).  When anything
    in the block raises, delete ``<path>.partial`` and leave ``path`` as
    it was.  When the block succeeds, unlink the older file at ``path``
    and rename the new one onto the free name; should either call fail,
    the finished output stays at ``<path>.partial``.

    Renaming onto an existing file makes ext4 (``auto_da_alloc``) start
    writing the new file back at once, so that a rerun into the same path
    would then pay to free its blocks; an older output not yet written back
    costs almost nothing to unlink.  The price is durability: there is no
    ``fsync``, so after a machine crash before the kernel writes the new
    output back, ``path`` may be empty or missing and the older output is
    gone too.
    """
    tmp = f"{path}.partial"
    for name, prefix, status in ((path, "", os.stat), (tmp, f"{tmp} ", os.lstat)):
        with suppress(FileNotFoundError):
            if not stat.S_ISREG(status(name).st_mode):
                raise OSError(f"{prefix}exists and is not a regular file")
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        os.unlink(tmp)
        raise
    with suppress(FileNotFoundError):
        os.unlink(path)
    os.replace(tmp, path)


def run_sweep(config: SweepConfig) -> tuple[SweepSummary, int]:
    """Execute the sweep; returns (a ``SweepSummary``, the violation count)
    and, when an output path is configured, writes each record's JSON line
    as ``sweep_lines`` yields it.

    The output is opened before any tree is checked, so an unwritable
    path, or a path or ``<path>.partial`` that exists and is not a regular
    file, fails at once.  It is written as ``<path>.partial``; only when
    the last line is written is an older file at ``path`` removed and the
    new one renamed onto the free name (see ``_all_or_nothing`` for why,
    and for what a machine crash can then lose).  A failed run removes the
    partial file and leaves an older file at ``path`` as it was.
    """
    config.validate()
    summary = SweepSummary()
    violations = 0
    path = config.output_path
    with _all_or_nothing(path) if path else nullcontext() as out:
        for line in sweep_lines(config):
            if out is not None:
                out.write(line.line + "\n")
            summary.records += 1
            summary.enumerated += line.source == "enumerated"
            if line.violations:
                if violations < REPORTED_VIOLATIONS:
                    summary.violating.append(line)
                violations += len(line.violations)
    return summary, violations

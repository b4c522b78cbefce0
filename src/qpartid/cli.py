"""Batch verification front end.

Subcommands, with the --format values each one renders:
  verify      run identity checks over parameter grids, emit a report (json, tsv, human)
  table       print one exact partition count (human, tsv)
  gauss       print a Gaussian polynomial (no --format)
  oracle-diff exhaustively compare the DP counts against brute-force enumeration
              (json, tsv, human)

Every subcommand takes --out PATH.  One runner, _run, builds every report
(verify and oracle-diff): it times each task and streams the report.  A task
returns CaseResults, which are written as the task's block of ASCII bytes,
_CHUNK rows at a time, by the process that ran the task: the runner writes a
serial task's block straight into the report, and a pool worker writes its
task's block to a file of its own in a private temporary directory and sends
back the path, which the runner appends in task order and deletes.  Either
way the CaseResults are dropped once written, so memory is bounded by the
largest task, which for verify is one identity family, not by the whole run.
The report is streamed into an anonymous binary temporary file and copied,
as bytes, to --out or stdout only after the last task, so a run that crashes
writes nothing.  A pooled task that raises cancels the tasks not yet handed
to the pool, but ProcessPoolExecutor counts a task in its call queue, which
holds up to workers + 1 of them, as running: those tasks and the running
ones still run to the end before the exit 3.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage error
(including an --out path that cannot be written), 3 an unexpected exception
(a verify family's check, the oracle-diff comparison, or anything else),
reported on one error line, with no report written and an existing --out
file left as it was.

A JSON report is exactly json.dumps(report, indent=2, sort_keys=True)
followed by a newline.  Its top-level keys sort as config, results, timing,
totals, version, so the head (config and the opening of results) is written
first and timing, totals and version last.  The frame is rendered by
json.dumps.  Every row, of every format, passing or failing, is written from
one CaseResult, the tuple (names, values, verdict), by a _RowWriter, which
owns the row text caches and lives as long as the run or the pooled task
that made it: the template of the last names tuple it met, the text around
params of each verdict of the task it is writing, and, for a serial run of
more than one task, up to _MEMO_TEXTS params texts of the last names, so
families that share a grid format each params text once.  No cache is
module state.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import time
from collections import deque
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import Optional

from . import __version__
from .bigpoly import IntPoly, format_poly, poly_substitute_power
from .identities import (
    CaseResult,
    get_descriptor,
    registry,
    run_identity,
)
from .partitions import (
    ORACLE_LIMIT_DEFAULT,
    UNBOUNDED,
    box_counts,
    count_P,
    count_P_most,
    count_P_of,
    count_P_star,
    count_Q,
    count_Q_most,
    count_Q_of,
    count_Q_star,
    count_tables,
    oracle_counts,
)

WORKERS_ENV = "QPARTID_WORKERS"

# Rows per render_report call when a task's block is written.  It bounds the
# row text held at once, whatever the size of the task: 1,024 JSON rows are
# about 270 kB, held as rows, joined and encoded, where 4,096 rows left serial
# verify --all and the resdbl1-4 grid 3 MB higher at their peak, and no faster.
_CHUNK = 1024

# The most params texts a _RowWriter keeps, all for one names tuple; past it
# the writer keeps only the names' template until other names arrive.  Only
# the writer that _run makes for a run of more than one task keeps texts, for
# the whole run; the writer of a one-task run, of a pooled task or of a lone
# render_report call keeps none, since no family repeats its own values.
# comb16-19 at n, m <= 120, p <= 40 share 600,281 values, and a memo of them
# all peaked 94 MB higher (208 MB against 114 MB) and ran about 10 % slower
# than none, on Python 3.11 on x86-64.  The default grids stay far below it:
# verify --all keeps at most 5,733 texts for one names tuple, and the
# resdbl1-4 grid at n, m, p <= 7 keeps 6,144.
_MEMO_TEXTS = 1 << 15


class UsageError(Exception):
    pass


class FamilyError(Exception):
    """A report task raised; the message names the task and the exception."""


def _run_task(label: str, func, *args):
    """Call func(*args) for task label: the elapsed seconds, the case and failure counts, the CaseResults.

    The failures are counted from each verdict's first field, as tuple items.
    """
    start = time.perf_counter()
    try:
        results = func(*args)
    except Exception as exc:
        raise FamilyError(f"{label}: {type(exc).__name__}: {exc}") from None
    took = time.perf_counter() - start
    return took, len(results), sum(1 for case in results if not case[2][0]), results


def _spool_task(path: str, fmt: str, label: str, func, *args):
    """Run one task in a pool worker and write its fmt block to the new file path.

    Returns the task's outcome with the case count and path in place of its
    CaseResults, so the worker sends back a few scalars, not the rows.
    """
    took, cases, failures, results = _run_task(label, func, *args)
    with open(path, "xb") as sink:
        # a family never repeats its own values, so the task keeps no params texts
        _RowWriter(fmt, memo=False).write(sink, label, results, took)
    return label, took, cases, failures, path


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures process pool, imported here so a serial run never loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _outcomes(tasks: list[tuple], fmt: str, workers: int):
    """Yield each task's outcome in task order: label, seconds, cases, failures and block.

    A serial task's block is its CaseResults, written by the caller.  A pooled
    task's block is the path of the file its worker wrote; the file, and the
    private directory that holds them all, are deleted once the caller has
    them, or when the generator is closed.
    """
    if workers > 1 and len(tasks) > 1:
        with tempfile.TemporaryDirectory(prefix="qpartid-") as spool:
            # a fork-based pool starts all of its workers at the first submit
            pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
            try:
                futures = deque(
                    pool.submit(_spool_task, os.path.join(spool, str(i)), fmt, label, *t)
                    for i, (label, *t) in enumerate(tasks)
                )
                while futures:
                    outcome = futures.popleft().result()
                    yield outcome
                    os.remove(outcome[-1])
            finally:
                # when a task raises, cancel the tasks not yet in the pool's call
                # queue and wait for the rest, which the pool counts as running
                pool.shutdown(cancel_futures=True)
    else:
        for label, *t in tasks:
            yield (label, *_run_task(label, *t))


def _run(config: dict, tasks: list[tuple], fmt: str, out: Optional[str], workers: int = 1) -> int:
    """Run each (label, function, *args) task, write the report echoing config; its exit code.

    Each task's block is written as soon as the task finishes, so memory is
    bounded by the largest task.  Blocks go, as bytes, to an anonymous
    temporary file, which is copied to out (or stdout) after the last task: a
    task that raises leaves nothing written.  The run's writer keeps params
    texts across tasks only when there is more than one task.
    """
    started = time.perf_counter()
    timing = {}
    failures = 0
    with tempfile.TemporaryFile() as sink, contextlib.closing(_outcomes(tasks, fmt, workers)) as outcomes:
        writer = _ReportWriter(sink, fmt, {"config": config}, memo=len(tasks) > 1)
        for label, took, cases, failed, block in outcomes:
            timing[label] = round(took, 6)
            failures += failed
            writer.add(label, took, cases, block)
            # the next task runs before the loop rebinds block: drop its rows first
            del block
        timing["total"] = round(time.perf_counter() - started, 6)
        totals = {"cases": writer.cases, "passes": writer.cases - failures, "failures": failures}
        writer.close({"timing": timing, "totals": totals, "version": __version__})
        sink.seek(0)
        _emit(sink, out)
    return 0 if failures == 0 else 1


def _grid_for(identity_id: str, overrides: dict[str, list[int]]) -> dict[str, list[int]]:
    desc = get_descriptor(identity_id)
    return {
        name: list(overrides.get(name, desc.default_grid[name]))
        for name in desc.params
    }


def run_verify(config: dict, out: Optional[str]) -> int:
    """Evaluate the families config names, write the report to out (or stdout); its exit code."""
    known = {d.id for d in registry()}
    seen = set()
    for fam in config["families"]:
        if fam not in known:
            raise UsageError(f"unknown identity id {fam!r}")
        if fam in seen:
            # the config would echo it twice for a family that runs once
            raise UsageError(f"--family {fam} is given more than once")
        seen.add(fam)
    families = sorted(seen)
    overrides = config["overrides"]
    read = {name for fam in families for name in get_descriptor(fam).params}
    for name in overrides:
        if name not in read:
            raise UsageError(f"{_OVERRIDE_FLAGS[name]} sets {name}, which no selected family reads")
    tasks = [
        (fam, run_identity, fam, _grid_for(fam, overrides), config["inject_failure"] and i == 0)
        for i, fam in enumerate(families)
    ]
    return _run(config, tasks, config["format"], out, config["workers"])


def _json_params(names: tuple) -> tuple:
    """The params object of a row with these names, as json.dumps nests it, and its values' order.

    The text is a %-template with one %s slot per name, in sorted name order,
    so the name text is escaped for % as well as for JSON.  The order is an
    itemgetter that puts a row's values into slot order, or None when they
    are in that order already.
    """
    if not names:
        return "{}", None
    order = sorted(range(len(names)), key=names.__getitem__)
    slots = ",\n        ".join(_json_str(names[i]).replace("%", "%%") + ": %s" for i in order)
    return "{\n        " + slots + "\n      }", None if order == sorted(order) else itemgetter(*order)


def _text_params(names: tuple) -> tuple:
    """The k=v,... params text of TSV and human rows, whose slots are in the values' own order."""
    return ",".join(k.replace("%", "%%") + "=%s" for k in names), None


def _json_fixed(label: str, verdict: tuple) -> tuple[str, str]:
    """The JSON row text of a verdict before and after its params object.

    The verdict is the runner's (passed, lhs_hash, rhs_hash, first_mismatch),
    and a first_mismatch is None, an int or a tuple of two ints, written as a
    two-item list.  Strings go through json's own escaper.
    """
    passed, lhs_hash, rhs_hash, mismatch = verdict
    if mismatch is None:
        mismatch_s = "null"
    elif type(mismatch) is int:
        mismatch_s = str(mismatch)
    else:
        mismatch_s = f"[\n        {mismatch[0]},\n        {mismatch[1]}\n      ]"
    return (
        f'    {{\n      "first_mismatch": {mismatch_s},'
        f'\n      "id": {_json_str(label)},'
        f'\n      "lhs_hash": {_json_str(lhs_hash)},'
        '\n      "params": ',
        f',\n      "pass": {"true" if passed else "false"},'
        f'\n      "rhs_hash": {_json_str(rhs_hash)}\n    }}',
    )


def _tsv_fixed(label: str, verdict: tuple) -> tuple[str, str]:
    passed, lhs_hash, rhs_hash, mismatch = verdict
    mismatch = "" if mismatch is None else json.dumps(mismatch)
    return f"{label}\t", f"\t{int(passed)}\t{mismatch}\t{lhs_hash}\t{rhs_hash}\n"


def _fail_fixed(label: str, verdict: tuple) -> tuple[str, str]:
    return "  FAIL ", f" first_mismatch={json.dumps(verdict[3])}\n"


# per format: the params template of a names tuple, the text around params, the row separator
_ROW_FORMATS = {
    "json": (_json_params, _json_fixed, ",\n"),
    "tsv": (_text_params, _tsv_fixed, ""),
    "human": (_text_params, _fail_fixed, ""),
}


def _json_members(members: dict, before: str, after: str) -> str:
    """Each top-level member, in sorted key order, as json.dumps(..., indent=2) writes it."""
    out = []
    for key, value in sorted(members.items()):
        text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        out.append(f"{before}\n  {_json_str(key)}: {text}{after}")
    return "".join(out)


class _RowWriter:
    """Writes the fmt rows of CaseResults, and owns their text caches for as long as it lives.

    A CaseResult is (names, values, verdict).  The writer keeps the template
    of the last names tuple it met: its text with one %s slot per value, and
    the order of the values in the slots.  A names tuple is found by identity
    while it stays the same object, as it does across a family run, and an
    equal copy keeps the template too.  With memo on it also keeps each
    params text of those names once formatted, up to _MEMO_TEXTS of them;
    other names start both afresh.  The text before and after params is
    built once per verdict of the task in hand, since the runner shares a
    verdict across the cases with the same sides; write starts each task's
    verdict texts afresh, as a lone render_report call does.  Every verdict
    is the runner's tuple, so it keys that cache.  Only the names, escaped,
    go into a %-template; the id and the digests are concatenated.
    """

    def __init__(self, fmt: str, memo: bool):
        self.fmt, self.memo = fmt, memo
        self.names = self.template = self.texts = None
        self.fixed = {}

    def rows(self, label: str, results: list[CaseResult]) -> str:
        """The rows of results, a task label's CaseResults, each the text before, params, after."""
        template_of, fixed_of, sep = _ROW_FORMATS[self.fmt]
        fixed = self.fixed
        names = None
        rows = []
        append = rows.append
        for case_names, values, verdict in results:
            if case_names is not names:
                names = case_names
                if names != self.names:
                    self.names, self.template = names, template_of(names)
                    self.texts = {} if self.memo else None
                (text, order), texts = self.template, self.texts
            if texts is None:
                params = text % (order(values) if order else values)
            else:
                params = texts.get(values)
                if params is None:
                    params = text % (order(values) if order else values)
                    if len(texts) < _MEMO_TEXTS:
                        texts[values] = params
                    else:
                        # this many texts cost more than they save: format these names' rows
                        texts = self.texts = None
            around = fixed.get(verdict)
            if around is None:
                around = fixed[verdict] = fixed_of(label, verdict)
            append(around[0] + params + around[1])
        return sep.join(rows)

    def write(self, sink, label: str, results: list[CaseResult], took: float) -> None:
        """Write render_report's block of task label to the binary sink, as ASCII, _CHUNK rows per call."""
        self.fixed = {}
        if self.fmt == "human":
            sink.write(render_report(label, results, self.fmt, took, self).encode("ascii"))
            return
        sep = _ROW_FORMATS[self.fmt][2].encode("ascii")
        for start in range(0, len(results), _CHUNK):
            if start:
                sink.write(sep)
            sink.write(render_report(label, results[start : start + _CHUNK], self.fmt, took, self).encode("ascii"))


def render_report(
    label: str, results: list[CaseResult], fmt: str, took: float, writer: Optional[_RowWriter] = None
) -> str:
    """One block of a report: the CaseResults of task label, which ran for took seconds.

    Each CaseResult is the runner's tuple (names, values, verdict), its
    verdict a tuple of hashable items.

    A JSON block is the rows as json.dumps nests them in the results list,
    with no separator before the first row or after the last.  A human block
    is the task's summary line and at most 10 of its failures.  TSV and
    human output write a mismatch as json.dumps does.  Every row, of every
    format, is written by writer, the caller's _RowWriter, or else by a new
    one that keeps no params texts.  The JSON or TSV block of a list is the
    blocks of its consecutive slices joined by the row separator, which is
    how _RowWriter.write writes a task's rows a chunk at a time.
    """
    rows = (_RowWriter(fmt, memo=False) if writer is None else writer).rows
    if fmt != "human":
        return rows(label, results)
    failed = [case for case in results if not case[2][0]]
    status = "ok" if not failed else f"{len(failed)} FAILED"
    return f"{label}: {len(results)} cases, {status} ({took:.2f}s)\n" + rows(label, failed[:10])


class _ReportWriter:
    """Writes one report to the binary sink in fmt: the head, one block per task, the tail.

    The head holds the top-level keys that sort before "results" and the tail
    those after it, so a JSON report is exactly
    json.dumps(report, indent=2, sort_keys=True) + "\n" although its rows
    arrive a block at a time.  The frame is rendered by json.dumps and each
    block by a _RowWriter: this writer's own, which keeps params texts across
    tasks when memo is on, or the one of the pool worker that ran the task.
    Everything reaches the sink as ASCII bytes.
    """

    def __init__(self, sink, fmt: str, head: dict, memo: bool = False):
        self.sink, self.fmt, self.cases = sink, fmt, 0
        self.rows = _RowWriter(fmt, memo)
        if fmt == "json":
            sink.write(("{" + _json_members(head, "", ",") + '\n  "results": [').encode("ascii"))
        elif fmt == "tsv":
            sink.write(b"id\tparams\tpass\tfirst_mismatch\tlhs_hash\trhs_hash\n")

    def add(self, label: str, took: float, cases: int, block) -> None:
        """Write the block of task label, which ran for took seconds and holds cases rows.

        The block is the task's CaseResults, or the path of the file that a
        pool worker wrote them to, which is copied as it stands.
        """
        if self.fmt == "json" and cases:
            self.sink.write(b",\n" if self.cases else b"\n")
        if isinstance(block, str):
            with open(block, "rb") as spooled:
                shutil.copyfileobj(spooled, self.sink)
        else:
            self.rows.write(self.sink, label, block, took)
        self.cases += cases

    def close(self, tail: dict) -> None:
        """Write the tail; the human tail is the TOTAL line."""
        if self.fmt == "json":
            close = "\n  ]" if self.cases else "]"
            self.sink.write((close + _json_members(tail, ",", "") + "\n}\n").encode("ascii"))
        elif self.fmt == "human":
            totals = tail["totals"]
            verdict = "PASS" if totals["failures"] == 0 else "FAIL"
            self.sink.write(
                f"TOTAL: {totals['cases']} cases, {totals['passes']} passed, "
                f"{totals['failures']} failed -> {verdict} ({tail['timing']['total']:.2f}s)\n".encode("ascii")
            )


def _check_out(out: Optional[str]) -> None:
    """Reject an --out path that is a directory or lies in a missing one, before any work runs."""
    if out:
        if os.path.isdir(out):
            raise UsageError(f"--out {out}: is a directory")
        parent = os.path.dirname(out) or "."
        if not os.path.isdir(parent):
            raise UsageError(f"--out {out}: {parent} is not a directory")


def _emit(source, out: Optional[str]) -> None:
    """Copy the binary file source, from where it stands, to the --out path or else stdout."""
    if out:
        try:
            with open(out, "wb") as fh:
                shutil.copyfileobj(source, fh)
        except OSError as exc:
            raise UsageError(f"--out {out}: {exc.strerror or exc}") from None
        return
    stdout = sys.stdout
    buffer = getattr(stdout, "buffer", None)
    if buffer is None:
        # a text stream with no bytes beneath it, such as an io.StringIO
        stdout.write(source.read().decode("ascii"))
    else:
        stdout.flush()
        shutil.copyfileobj(source, buffer)
        buffer.flush()


def _parse_int_list(text: str, flag: str, low: int) -> list[int]:
    parts = text.split(",")
    if any(part.strip() == "" for part in parts):
        raise UsageError(f"{flag} has an empty item in {text!r}")
    try:
        values = [int(part) for part in parts]
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated integer list, got {text!r}")
    if any(v < low for v in values):
        raise UsageError(f"{flag} values must be >= {low}")
    if len(set(values)) != len(values):
        raise UsageError(f"{flag} values must be distinct")
    return values


# the verify flag that overrides each grid parameter
_OVERRIDE_FLAGS = {
    "n": "--n-max",
    "m": "--m-max",
    "p": "--p-max",
    "a": "--a-set",
    "b": "--b-set",
    "c": "--c-set",
}


def _collect_overrides(args) -> dict[str, list[int]]:
    overrides: dict[str, list[int]] = {}
    for name in ("n", "m", "p"):
        hi = getattr(args, name + "_max")
        if hi is not None:
            if hi < 0:
                raise UsageError(f"{_OVERRIDE_FLAGS[name]} must be >= 0")
            overrides[name] = list(range(hi + 1))
    # only the resdbl families read a, b and c; their domain is a >= 0 and b, c >= 1
    for name, low in (("a", 0), ("b", 1), ("c", 1)):
        raw = getattr(args, name + "_set")
        if raw is not None:
            overrides[name] = _parse_int_list(raw, _OVERRIDE_FLAGS[name], low)
    return overrides


def cmd_verify(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1 (the default is ${WORKERS_ENV} if set)")
    overrides = _collect_overrides(args)
    if args.preset == "desk" and overrides:
        raise UsageError("--preset desk pins the default grids; range overrides conflict")
    if args.all and args.family:
        raise UsageError("--all selects every identity; drop it or the --family flags")
    if args.all:
        families = [d.id for d in registry()]
    elif args.family:
        families = list(args.family)
    else:
        raise UsageError("select identities with --family ID (repeatable) or --all")
    config = {
        "families": families,
        "preset": args.preset,
        "overrides": dict(sorted(overrides.items())),
        "format": args.format,
        "workers": args.workers,
        # verify never reads the oracle limit; the key stays so the
        # pinned report digests stay valid
        "oracle_limit": ORACLE_LIMIT_DEFAULT,
        "inject_failure": args.inject_failure,
    }
    return run_verify(config, args.out)


# one query each, answered by the one-shot counts
_TABLE_FUNCS = {
    "P": (("n", "m"), ("p",), count_P),
    "Q": (("n", "m"), ("p",), count_Q),
    "Pstar": (("n", "m"), ("p",), count_P_star),
    "Qstar": (("n", "m"), ("p",), count_Q_star),
    "Pmost": (("n",), ("p",), count_P_most),
    "Qmost": (("n",), ("p",), count_Q_most),
    "Pn": (("n",), (), count_P_of),
    "Qn": (("n",), (), count_Q_of),
}


def cmd_table(args) -> int:
    required, optional, func = _TABLE_FUNCS[args.func]
    for name in ("n", "m", "p"):
        if getattr(args, name) is not None and name not in required + optional:
            raise UsageError(f"table --func {args.func} takes no --{name}")
    values = {}
    for name in required:
        v = getattr(args, name)
        if v is None:
            raise UsageError(f"table --func {args.func} requires --{name}")
        if v < 0:
            raise UsageError(f"--{name} must be >= 0")
        values[name] = v
    for name in optional:
        v = getattr(args, name)
        if v is not None and v < 0:
            raise UsageError(f"--{name} must be >= 0")
        values[name] = UNBOUNDED if v is None else v
    call_args = [values[name] for name in required + optional]
    value = func(*call_args)
    if args.format == "tsv":
        shown = {k: values.get(k) for k in ("n", "m", "p")}
        cells = ["-" if shown[k] is None else str(shown[k]) for k in ("n", "m", "p")]
        text = "n\tm\tp\tvalue\n" + "\t".join(cells + [str(value)]) + "\n"
    else:
        text = f"{value}\n"
    _emit(io.BytesIO(text.encode("ascii")), args.out)
    return 0


def cmd_gauss(args) -> int:
    if args.m < 0 or args.p < 0:
        raise UsageError("--m and --p must be >= 0")
    if args.base < 1:
        raise UsageError("--base must be >= 1")
    # [m+p, m] counts the partitions in an m-by-p box, by size
    poly = poly_substitute_power(IntPoly(box_counts(args.m * args.p, args.m, args.p)), args.base)
    coeffs = " ".join(str(c) for c in poly.coeffs) or "0"
    _emit(io.BytesIO(f"{format_poly(poly)}\ncoeffs: {coeffs}\n".encode("ascii")), args.out)
    return 0


_ORACLE_NAMES = ("n", "m", "p")
_ORACLE_PASS = (True, "", "", None)


def _oracle_cases(n_max: int, oracle_limit: int) -> list[CaseResult]:
    """One case per (n, m, p), n <= n_max: the DP counts, from one fill of P and one of Q, against enumeration.

    Every case shares one names tuple, and every passing case one verdict.
    """
    results = []
    append, make = results.append, CaseResult._make
    P, Q = (count_tables(n_max + 1, n_max + 1, n_max, distinct) for distinct in (False, True))
    for n in range(n_max + 1):
        plain_counts, distinct_counts = oracle_counts(n, oracle_limit)
        for m in range(n + 1):
            for p in range(n + 1):
                plain, distinct = plain_counts[m][p], distinct_counts[m][p]
                dp_p, dp_q = P[p][n][m], Q[p][n][m]
                if plain == dp_p and distinct == dp_q:
                    verdict = _ORACLE_PASS
                else:
                    verdict = (False, "", "", (dp_p, plain) if plain != dp_p else (dp_q, distinct))
                append(make((_ORACLE_NAMES, (n, m, p), verdict)))
    return results


def cmd_oracle_diff(args) -> int:
    if args.n_max < 0:
        raise UsageError("--n-max must be >= 0")
    if args.oracle_limit < 0:
        raise UsageError("--oracle-limit must be >= 0")
    if args.n_max > args.oracle_limit:
        raise UsageError(
            f"--n-max {args.n_max} exceeds the oracle limit {args.oracle_limit}"
        )
    config = {"n_max": args.n_max, "oracle_limit": args.oracle_limit}
    tasks = [("oracle_diff", _oracle_cases, args.n_max, args.oracle_limit)]
    return _run(config, tasks, args.format, args.out)


def _worker_count(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects an integer (the default is ${WORKERS_ENV} if set), got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpartid",
        description="Exact verification of partition-count and q-binomial identities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, formats=()):
        if formats:
            p.add_argument("--format", choices=formats, default="human")
        p.add_argument("--out", metavar="PATH", default=None)

    report_formats = ("json", "tsv", "human")

    v = sub.add_parser("verify", help="run identity checks over parameter grids")
    v.add_argument("--family", action="append", metavar="ID", help="identity id (repeatable)")
    v.add_argument("--all", action="store_true", help="verify every registered identity")
    v.add_argument("--preset", choices=("desk",), default=None)
    v.add_argument("--n-max", type=int, default=None, metavar="N")
    v.add_argument("--m-max", type=int, default=None, metavar="N")
    v.add_argument("--p-max", type=int, default=None, metavar="N")
    v.add_argument("--a-set", default=None, metavar="LIST")
    v.add_argument("--b-set", default=None, metavar="LIST")
    v.add_argument("--c-set", default=None, metavar="LIST")
    # argparse converts a string default through type only when verify runs
    # without --workers, so a bad $QPARTID_WORKERS fails verify alone
    v.add_argument(
        "--workers",
        type=_worker_count,
        default=os.environ.get(WORKERS_ENV) or os.cpu_count() or 1,
        metavar="N",
    )
    v.add_argument("--inject-failure", action="store_true", help=argparse.SUPPRESS)
    add_output(v, report_formats)
    v.set_defaults(handler=cmd_verify)

    t = sub.add_parser("table", help="print one exact partition count")
    t.add_argument("--func", choices=sorted(_TABLE_FUNCS), required=True)
    t.add_argument("--n", type=int, default=None)
    t.add_argument("--m", type=int, default=None)
    t.add_argument("--p", type=int, default=None)
    add_output(t, ("human", "tsv"))
    t.set_defaults(handler=cmd_table)

    g = sub.add_parser("gauss", help="print a Gaussian polynomial")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--base", type=int, default=1)
    add_output(g)
    g.set_defaults(handler=cmd_gauss)

    o = sub.add_parser("oracle-diff", help="compare DP counts against enumeration")
    o.add_argument("--n-max", type=int, required=True, metavar="N")
    o.add_argument("--oracle-limit", type=int, default=ORACLE_LIMIT_DEFAULT, metavar="N")
    add_output(o, report_formats)
    o.set_defaults(handler=cmd_oracle_diff)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version
        return int(exc.code or 0)
    try:
        _check_out(args.out)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # exit 1 means a failed check; a crash is a different outcome
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

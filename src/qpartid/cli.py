"""Batch verification front end.

Subcommands, with the --format values each one renders:
  verify      run identity checks over parameter grids, emit a report (json, tsv, human)
  table       print one exact partition count (human, tsv)
  gauss       print a Gaussian polynomial (no --format)
  oracle-diff exhaustively compare the DP counts against brute-force enumeration
              (json, tsv, human)

Every subcommand takes --out PATH.  One runner, _run, builds every report
(verify and oracle-diff): it times each task and streams the report.  A task
returns a CaseRun: its names, its grids (a family's one product grid, or
oracle-diff's one per n), its distinct verdicts and one verdict index per
case.  The run is written as the task's block of ASCII bytes, _CHUNK rows
at a time, by the process that ran the task.  The runner writes a serial
task's block straight into the report.  A pooled run forks its own workers with os.fork, so no run imports
multiprocessing: the workers take task indices from one pipe, write each
task's block to a file of its own in a private temporary directory, and
report on a pipe of their own when they take a task and when they finish
it; the runner reads those lines to append the blocks in task order and
delete them.  Either way the run is dropped once written, so memory is
bounded by the largest task, which for verify is one identity family, not by
the whole run: a family's rows are built in a store of its own and freed with
it.  The one exception is qbinom's bracket memo, which keeps every Gaussian
bracket any family has read for the life of the process.  The report is streamed into an anonymous binary temporary
file and copied, as bytes, to --out or stdout only after the last task, so a
run that crashes writes nothing.  When the runner reaches a pooled task that
raised, or as soon as a worker dies with a task unfinished, it kills every
worker before the exit 3, so no task starts after that.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage error
(including an --out path that cannot be written), 3 an unexpected exception
(a verify family's check, the oracle-diff comparison, or anything else),
reported on one error line, with no report written and an existing --out
file left as it was.

A JSON report is exactly json.dumps(report, indent=2, sort_keys=True)
followed by a newline.  Its top-level keys sort as config, results, timing,
totals, version, so the head (config and the opening of results) is written
first and timing, totals and version last.  The frame is rendered by
json.dumps.  Every row, of every format, passing or failing, is written by
the task's _RowWriter from text rendered once per run: the text of each
distinct verdict before and after the params, and the params piece of
each value of each axis of the run's grids.  A row is then one bytes join
of its verdict's text and its case's pieces, which come from one
itertools.product per grid; no row is built by % formatting or by json.
No text is kept past its task, and no cache is module state.
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
from array import array
from json.encoder import encode_basestring_ascii as _json_str
from itertools import chain, compress, islice, product
from operator import itemgetter
from typing import Optional

from . import __version__
from .bigpoly import IntPoly, format_poly, poly_substitute_power
from .identities import (
    CaseRun,
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
# row bytes held at once, whatever the size of the task: 1,024 JSON rows are
# about 270 kB, where 4,096 rows left serial verify --all and the resdbl1-4
# grid 3 MB higher at their peak, and no faster.
_CHUNK = 1024


class UsageError(Exception):
    pass


class FamilyError(Exception):
    """A report task raised; the message names the task and the exception."""


def _run_task(label: str, func, *args):
    """Call func(*args) for task label: the elapsed seconds, the case and failure counts, the CaseRun."""
    start = time.perf_counter()
    try:
        run = func(*args)
    except Exception as exc:
        raise FamilyError(f"{label}: {type(exc).__name__}: {exc}") from None
    took = time.perf_counter() - start
    return took, len(run), run.failures(), run


def _spool(path: str, fmt: str, label: str, func, *args) -> str:
    """Run one task in a worker and write its block to the new file path; the rest of its outcome line.

    That is "took cases failures", or "error" when the task raised, with the
    FamilyError text in the file path.err instead of a block.
    """
    try:
        took, cases, failures, run = _run_task(label, func, *args)
    except FamilyError as exc:
        with open(path + ".err", "x", encoding="utf-8") as err:
            err.write(str(exc))
        return "error"
    with open(path, "xb") as sink:
        _write_block(sink, fmt, label, run, took)
    return f"{took!r} {cases} {failures}"


def _work(tasks: list[tuple], fmt: str, spool: str, queue: int, done: int) -> None:
    """A worker's loop: run each task whose index it reads from the fd queue, until EOF.

    On taking task i the worker writes the line "i" to its own fd done, and
    on finishing it "i took cases failures", or "i error"; the task's block
    goes to the file spool/i.  Each index is one 4-byte read, so none is
    split between workers.
    """
    while word := os.read(queue, 4):
        i = int.from_bytes(word, "little")
        os.write(done, b"%d\n" % i)
        line = f"{i} {_spool(os.path.join(spool, str(i)), fmt, *tasks[i])}\n"
        os.write(done, line.encode("ascii"))


@contextlib.contextmanager
def _forked(count: int, work):
    """Fork count workers that each call work(done) and leave through os._exit; yield the read ends of their pipes.

    done is the write end of a pipe of the worker's own, made just before
    its fork and closed in the parent right after, so no other process
    holds it and its read end meets EOF as soon as the worker exits.  On
    exit, SIGKILL and reap every worker and close the read ends.
    """
    # imported here, so a serial run never loads signal (about 1 ms)
    from signal import SIGKILL

    pids, reads = [], []
    try:
        for _ in range(count):
            read, done = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        work(done)
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
            finally:
                os.close(done)
        yield reads
    finally:
        # a worker is not reaped before this, so its pid cannot have been reused
        for pid in pids:
            os.kill(pid, SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for read in reads:
            os.close(read)


def _finished(tasks: list[tuple], reads: list[int]):
    """Yield (i, outcome words) for each task as a worker reports it finished, reading every worker's pipe.

    A worker's pipe that meets EOF while the worker holds a task it took and
    has not finished raises that task's FamilyError at once; the generator
    ends when every pipe has met EOF.
    """
    # imported here, so a serial run never loads select
    from select import select

    held, partial_lines = {}, dict.fromkeys(reads, b"")
    while partial_lines:
        for fd in select(list(partial_lines), [], [])[0]:
            data = os.read(fd, 1 << 16)
            if not data:
                del partial_lines[fd]
                if fd in held:
                    raise FamilyError(f"{tasks[held[fd]][0]}: a worker exited before the task finished")
                continue
            *lines, partial_lines[fd] = (partial_lines[fd] + data).split(b"\n")
            for line in lines:
                i, *outcome = line.split()
                if outcome:
                    del held[fd]
                    yield int(i), outcome
                else:
                    held[fd] = int(i)


def _outcomes(tasks: list[tuple], fmt: str, workers: int):
    """Yield each task's outcome in task order: label, seconds, cases, failures and block.

    A serial task's block is its CaseRun, written by the caller.  A pooled
    run forks min(workers, len(tasks)) workers, which take task indices
    from one pipe and report each task they take and finish on a pipe of
    their own.  A pooled task's block is the path of the file its worker
    wrote; the file, and the private directory that holds them all, are
    deleted once the caller has them, or when the generator is closed.
    Reaching a task that raised raises its FamilyError, as does a worker
    that dies with a task unfinished, as soon as its pipe says so; either
    way, and whenever the generator is closed, every worker is killed first.
    """
    if workers <= 1 or len(tasks) <= 1:
        for label, *t in tasks:
            yield (label, *_run_task(label, *t))
        return
    queue_r, queue_w = os.pipe()
    with (
        tempfile.TemporaryDirectory(prefix="qpartid-") as spool,
        open(queue_r, "rb", buffering=0) as queue,
    ):
        # every index is in the pipe before a worker reads one: the registry's
        # families need 228 bytes, far below the pipe's 64 KiB
        with open(queue_w, "wb", buffering=0) as words:
            words.write(b"".join(i.to_bytes(4, "little") for i in range(len(tasks))))
        with _forked(min(workers, len(tasks)), lambda done: _work(tasks, fmt, spool, queue_r, done)) as reads:
            queue.close()
            finished, lines = _finished(tasks, reads), {}
            for i, (label, *_) in enumerate(tasks):
                while i not in lines:
                    j, outcome = next(finished, (i, None))
                    if outcome is None:
                        raise FamilyError(f"{label}: a worker exited before the task finished")
                    lines[j] = outcome
                outcome = lines.pop(i)
                path = os.path.join(spool, str(i))
                if outcome == [b"error"]:
                    with open(path + ".err", encoding="utf-8") as err:
                        raise FamilyError(err.read())
                took, cases, failures = outcome
                yield label, float(took), int(cases), int(failures), path
                os.remove(path)


def _run(config: dict, tasks: list[tuple], fmt: str, out: Optional[str], workers: int = 1) -> int:
    """Run each (label, function, *args) task, write the report echoing config; its exit code.

    Each task's block is written as soon as the task finishes, so memory is
    bounded by the largest task.  Blocks go, as bytes, to an anonymous
    temporary file, which is copied to out (or stdout) after the last task: a
    task that raises leaves nothing written.
    """
    started = time.perf_counter()
    timing = {}
    failures = 0
    with tempfile.TemporaryFile() as sink, contextlib.closing(_outcomes(tasks, fmt, workers)) as outcomes:
        writer = _ReportWriter(sink, fmt, {"config": config})
        for label, took, cases, failed, block in outcomes:
            timing[label] = round(took, 6)
            failures += failed
            writer.add(label, took, cases, block)
            # the next task runs before the loop rebinds block: drop its run first
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
    """The params object of JSON rows with these names, as json.dumps nests it, in pieces.

    Per name, in names order, the text before and after its value in the
    object; the object of no names; and an itemgetter that puts a row's
    pieces, in names order, into sorted name order, or None when they are
    in that order already.  The first sorted piece opens the object and the
    last closes it, so a row's params text is its pieces joined.
    """
    order = sorted(range(len(names)), key=names.__getitem__)
    around = [None] * len(names)
    for at, i in enumerate(order):
        head = "{" if at == 0 else ","
        around[i] = (f"{head}\n        {_json_str(names[i])}: ", "\n      }" if at == len(order) - 1 else "")
    return around, "{}" if not names else "", None if order == sorted(order) else itemgetter(*order)


def _text_params(names: tuple) -> tuple:
    """The k=v,... params of TSV and human rows in pieces, in the values' own order, as _json_params gives them."""
    return [("," * (i > 0) + name + "=", "") for i, name in enumerate(names)], "", None


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


def _fail_fixed(label: str, verdict: tuple) -> Optional[tuple[str, str]]:
    """The text around params of a failing verdict's human row; a passing verdict has no row."""
    return None if verdict[0] else ("  FAIL ", f" first_mismatch={json.dumps(verdict[3])}\n")


# per format: the params pieces of a names tuple, the text around params, the row separator
_ROW_FORMATS = {
    "json": (_json_params, _json_fixed, b",\n"),
    "tsv": (_text_params, _tsv_fixed, b""),
    "human": (_text_params, _fail_fixed, b""),
}


def _json_members(members: dict, before: str, after: str) -> str:
    """Each top-level member, in sorted key order, as json.dumps(..., indent=2) writes it."""
    out = []
    for key, value in sorted(members.items()):
        text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        out.append(f"{before}\n  {_json_str(key)}: {text}{after}")
    return "".join(out)


class _RowWriter:
    """Writes the fmt rows of one task's CaseRun in case order, as ASCII bytes.

    Text is rendered once per run: each verdict's text before and after
    params (a human writer's for its failing verdicts alone), and each axis
    value of each grid as its params piece, the name and the value with the
    text around them.  itertools.product over a grid's per-axis piece lists
    gives each case's pieces, put in the format's name order by one
    itemgetter.  A row is then one join of its verdict's text before, its
    pieces joined, and the text after.  Every call reads on from where the
    last one stopped.
    """

    def __init__(self, fmt: str, label: str, run: CaseRun):
        params_of, fixed_of, self.sep = _ROW_FORMATS[fmt]
        around, empty, order = params_of(run.names)
        texts = [fixed_of(label, verdict) for verdict in run.verdicts]
        self.before = [None if text is None else (text[0] + empty).encode("ascii") for text in texts]
        self.after = [None if text is None else text[1].encode("ascii") for text in texts]

        def pieces(axes):
            return product(*(
                [f"{head}{value}{tail}".encode("ascii") for value in axis] for (head, tail), axis in zip(around, axes)
            ))

        self.pieces = chain.from_iterable(map(pieces, run.grids))
        if order is not None:
            self.pieces = map(order, self.pieces)
        self.indices, self.at = run.indices, 0

    def rows(self, count: int) -> bytes:
        """The next count rows, joined by the row separator."""
        start = self.at
        self.at += count
        indices = self.indices[start : self.at]
        join = b"".join
        # zip reads its arguments left to right, so it stops at the last index before it reads another case's pieces
        befores, afters = map(self.before.__getitem__, indices), map(self.after.__getitem__, indices)
        return self.sep.join(map(join, zip(befores, map(join, self.pieces), afters)))

    def failing(self, count: int) -> bytes:
        """The rows of the first count cases whose verdict has text: a human writer's failures."""
        fails = [before is not None for before in self.before]
        befores, afters = map(self.before.__getitem__, self.indices), map(self.after.__getitem__, self.indices)
        cases = compress(zip(befores, self.pieces, afters), map(fails.__getitem__, self.indices))
        join = b"".join
        return join(join((before, join(pieces), after)) for before, pieces, after in islice(cases, count))


def _write_block(sink, fmt: str, label: str, run: CaseRun, took: float) -> None:
    """Write render_report's block of task label's run to the binary sink, _CHUNK rows per call."""
    if fmt == "human":
        sink.write(render_report(label, run, fmt, took))
        return
    writer = _RowWriter(fmt, label, run)
    for start in range(0, len(run), _CHUNK):
        if start:
            sink.write(writer.sep)
        sink.write(render_report(label, run, fmt, took, writer))


def render_report(label: str, run: CaseRun, fmt: str, took: float, writer: Optional[_RowWriter] = None) -> bytes:
    """One block of a report, as ASCII bytes: the cases of run, task label's CaseRun, which ran for took seconds.

    A JSON block is the rows as json.dumps nests them in the results list,
    with no separator before the first row or after the last.  A human block
    is the task's summary line and at most 10 of its failures.  TSV and
    human output write a mismatch as json.dumps does.  Given writer, the
    _RowWriter of this run, a JSON or TSV block is the run's next _CHUNK
    rows, as _write_block writes a task a chunk at a time: the block of the
    whole run is those blocks joined by the row separator.
    """
    if fmt != "human":
        return _RowWriter(fmt, label, run).rows(len(run)) if writer is None else writer.rows(_CHUNK)
    failed = run.failures()
    if not failed:
        return f"{label}: {len(run)} cases, ok ({took:.2f}s)\n".encode("ascii")
    head = f"{label}: {len(run)} cases, {failed} FAILED ({took:.2f}s)\n".encode("ascii")
    return head + _RowWriter(fmt, label, run).failing(10)


class _ReportWriter:
    """Writes one report to the binary sink in fmt: the head, one block per task, the tail.

    The head holds the top-level keys that sort before "results" and the tail
    those after it, so a JSON report is exactly
    json.dumps(report, indent=2, sort_keys=True) + "\n" although its rows
    arrive a block at a time.  The frame is rendered by json.dumps and each
    block by the _RowWriter of its task, in this process or in the pool
    worker that ran the task.  Everything reaches the sink as ASCII bytes.
    """

    def __init__(self, sink, fmt: str, head: dict):
        self.sink, self.fmt, self.cases = sink, fmt, 0
        if fmt == "json":
            sink.write(("{" + _json_members(head, "", ",") + '\n  "results": [').encode("ascii"))
        elif fmt == "tsv":
            sink.write(b"id\tparams\tpass\tfirst_mismatch\tlhs_hash\trhs_hash\n")

    def add(self, label: str, took: float, cases: int, block) -> None:
        """Write the block of task label, which ran for took seconds and holds cases rows.

        The block is the task's CaseRun, or the path of the file that a pool
        worker wrote its rows to, which is copied as it stands.
        """
        if self.fmt == "json" and cases:
            self.sink.write(b",\n" if self.cases else b"\n")
        if isinstance(block, str):
            with open(block, "rb") as spooled:
                shutil.copyfileobj(spooled, self.sink)
        else:
            _write_block(self.sink, self.fmt, label, block, took)
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


def _oracle_cases(n_max: int, oracle_limit: int) -> CaseRun:
    """One case per (n, m, p), n <= n_max: the DP counts, from one fill of P and one of Q, against enumeration.

    The run's grids are {n} x 0..n x 0..n for each n in turn.  Every passing
    case shares the run's first verdict, and each failing case has one of
    its own.
    """
    grids, verdicts, indices = [], [_ORACLE_PASS], array("I")
    P, Q = (count_tables(n_max + 1, n_max + 1, n_max, distinct) for distinct in (False, True))
    for n in range(n_max + 1):
        plain_counts, distinct_counts = oracle_counts(n, oracle_limit)
        grids.append(((n,), range(n + 1), range(n + 1)))
        for m in range(n + 1):
            for p in range(n + 1):
                plain, distinct = plain_counts[m][p], distinct_counts[m][p]
                dp_p, dp_q = P[p][n][m], Q[p][n][m]
                if plain == dp_p and distinct == dp_q:
                    indices.append(0)
                else:
                    indices.append(len(verdicts))
                    verdicts.append((False, "", "", (dp_p, plain) if plain != dp_p else (dp_q, distinct)))
    return CaseRun(_ORACLE_NAMES, grids, verdicts, indices)


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

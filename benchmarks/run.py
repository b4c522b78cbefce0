"""The qpartid benchmark: the real CLI, run end to end in child processes.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` and need not be installed.  Each run starts fresh CLI children
(``python -m qpartid ... --format json --out <tmp>``) until the next one
would end after S seconds, checks every report against its committed
digest, and prints one JSON result line last.  ``--trace 0`` reports the
end-to-end metrics, with times calibrated against ``calibrate.py``;
``--trace 1`` alternates untraced children with children run under
``traced.py`` and reports the per-layer metrics.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Children a run always makes, even when S is shorter than their total time.
MIN_CHILDREN = 3
MIN_TRACED_PAIRS = 1
# Cold imports timed before the first child and after every child; setup_s
# is their median.  Spreading them over the run keeps one slow phase of a
# shared machine from setting the whole figure.
SETUP_REPS_PER_GAP = 3
SETUP_CODE = "import qpartid; qpartid.registry()"
# A run must end within 180 s, so a child still running at this age is killed.
RUN_DEADLINE_S = 170.0
# The end-to-end times are scaled by REF_NOMINAL_S over the wall time of
# calibrate.py measured just before and after each child, so they read as
# seconds on a machine where calibrate.py takes REF_NOMINAL_S.  On a shared
# 2-CPU virtual machine the same child ran 20-40 % slower or faster for
# seconds to minutes at a time; the scaling cancels much of that.
REF_NOMINAL_S = 0.6
REF_ARGV = [sys.executable, str(BENCH_DIR / "calibrate.py")]

# The report is rendered with indent=2 and sorted keys, so the top-level
# timing block is the only one that opens at two spaces of indent.
TIMING_BLOCK = re.compile(rb'\n  "timing": (\{.*?\n  \})', re.S)


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    cases: int
    # sha256 of the JSON report with its top-level "timing" block cut out
    digest: str
    # True when the CLI fans families out to a forked pool, whose traced
    # counters stay in the workers
    pooled: bool = False


_RESDBL = tuple(arg for i in range(1, 5) for arg in ("--family", f"resdbl{i}"))

WORKLOADS = {
    "verify-all": Workload(
        ("verify", "--all", "--workers", "1"),
        cases=75456,
        digest="500432fd4734338d2768873f5cabe4c1527532497cadc28432fd2bdaff6be644",
    ),
    "verify-all-w2": Workload(
        ("verify", "--all", "--workers", "2"),
        cases=75456,
        digest="8acb9b6835a3d2925278c68bcc452b5e814f6ac647f9c3d7227cb09ca75ddc27",
        pooled=True,
    ),
    "qpoly": Workload(
        ("verify", *_RESDBL, "--n-max", "7", "--m-max", "7", "--p-max", "7", "--workers", "1"),
        cases=24576,
        digest="fb85c7423f529ffb7cfd57040a6b10bca7325c608720c757380d5978d00a2e30",
    ),
    # oracle-diff has no --workers flag; it always runs in one process
    "oracle": Workload(
        ("oracle-diff", "--n-max", "25"),
        cases=6201,
        digest="1e61700523b919476dbf0deca09b69864924410f14be6aabdf5592e477078a32",
    ),
}

KIND_LABELS = {
    "q_polynomial": "q_polynomial",
    "count_integer": "count_integer",
    "combinatorial_q1": "combinatorial",
}
LEAF_METRICS = {
    "bigpoly.poly_mul": ("calls", "self_s", "coef_mults", "max_terms"),
    "bigpoly.poly_add": ("calls", "self_s"),
    "bigpoly.series_mul": ("calls", "self_s"),
    "qbinom.binom": ("calls", "self_s", "distinct_frac"),
    "qbinom.bracket_base": ("calls", "self_s", "distinct_frac"),
    "partitions.enumerate_partitions": ("calls", "self_s", "partitions_out"),
    "partitions.count_P": ("calls", "self_s", "distinct_frac"),
    "partitions.count_Q": ("calls", "self_s", "distinct_frac"),
}
LAYERS = ("bigpoly", "qbinom", "partitions", "identities", "cli")
# Units of the per-layer fields that are neither seconds nor counts.
UNITS = {
    "distinct_frac": "ratio",
    "cases_per_s": "1/s",
    "report_bytes": "bytes",
    "parallelism": "ratio",
    "parent_only": "flag",
}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool
    report_bytes: int  # without the timing block, whose length varies
    timing: dict


def child_env(tmp: Path) -> dict:
    """A pinned environment: no QPARTID_WORKERS, a fixed hash seed, temp files in tmp."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C",
        "TMPDIR": str(tmp),
    }


def spawn(argv: list[str], tmp: Path, deadline: float) -> tuple[int, float, object]:
    """Run argv to completion; return its exit code, wall seconds and rusage.

    The rusage from wait4 covers the child and every descendant it waited
    for, so a pool's workers count in its CPU time and max RSS.
    """
    with open(tmp / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(tmp),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        killer = threading.Timer(
            max(1.0, deadline - time.perf_counter()),
            os.killpg,
            (proc.pid, signal.SIGKILL),
        )
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    # reaped by wait4 above, so tell Popen not to wait for it again
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = (tmp / "stderr.txt").read_bytes()[-2000:].decode(errors="replace")
        print(f"child {argv[1:]} exited {code}:\n{tail}", file=sys.stderr)
    return code, wall, usage


def check_report(data: bytes) -> tuple[str, int, dict]:
    """Digest and length of the report without its timing block, and that block parsed."""
    match = TIMING_BLOCK.search(data)
    if match is None:
        return hashlib.sha256(data).hexdigest(), len(data), {}
    stripped = data[: match.start()] + data[match.end() :]
    return hashlib.sha256(stripped).hexdigest(), len(stripped), json.loads(match.group(1))


def run_cli(prefix: list[str], work: Workload, digest: str, tmp: Path, deadline: float) -> Child:
    out = tmp / "report.json"
    argv = [*prefix, *work.argv, "--format", "json", "--out", str(out)]
    code, wall, usage = spawn(argv, tmp, deadline)
    data = out.read_bytes() if out.exists() else b""
    got, size, timing = check_report(data)
    ok = code == 0 and got == digest
    if code == 0 and got != digest:
        print(f"report digest {got} != expected {digest}", file=sys.stderr)
    out.unlink(missing_ok=True)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        ok=ok,
        report_bytes=size,
        timing=timing,
    )


def time_setup(tmp: Path, deadline: float, reps: int) -> list[float]:
    walls = []
    for _ in range(reps):
        code, wall, _ = spawn([sys.executable, "-c", SETUP_CODE], tmp, deadline)
        if code != 0:
            raise SystemExit(f"setup import failed with exit code {code}")
        walls.append(wall)
    return walls


def keep_going(started: float, seconds: int, done: int, minimum: int, last_s: float) -> bool:
    """Take another step only if, lasting as long as the last one, it ends in time."""
    if done < minimum:
        return True
    return time.perf_counter() - started + last_s <= seconds


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def time_reference(tmp: Path) -> float:
    """Mean wall time of calibrate.py, run at once on every CPU the children may use."""
    started = time.perf_counter()
    procs = {}
    for _ in os.sched_getaffinity(0):
        proc = subprocess.Popen(
            REF_ARGV,
            cwd=ROOT,
            env=child_env(tmp),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )
        procs[proc.pid] = proc
    walls = []
    while procs:
        pid, status = os.wait()  # these are the only children alive now
        proc = procs.pop(pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise SystemExit(f"calibrate.py failed with exit code {proc.returncode}")
        walls.append(time.perf_counter() - started)
    return statistics.fmean(walls)


def untraced_run(work, digest, tmp, seconds, deadline) -> tuple[list[Child], dict]:
    """Time CLI children for the run's seconds, calibrated against calibrate.py.

    The order is ref, setup imports, child, ref, setup imports, child, ...,
    ref, setup imports.  Each child is scaled by the mean of the refs just
    before and after it, and each group of setup imports by the ref just
    before it.
    """
    prefix = [sys.executable, "-m", "qpartid"]
    time_setup(tmp, deadline, 1)  # writes the bytecode caches; not counted
    refs: list[float] = []
    setup: list[float] = []
    children: list[Child] = []

    def gap():
        refs.append(time_reference(tmp))
        scale = REF_NOMINAL_S / refs[-1]
        setup.extend(wall * scale for wall in time_setup(tmp, deadline, SETUP_REPS_PER_GAP))

    gap()
    started = time.perf_counter()
    step_s = 0.0
    while keep_going(started, seconds, len(children), MIN_CHILDREN, step_s):
        step_started = time.perf_counter()
        children.append(run_cli(prefix, work, digest, tmp, deadline))
        gap()
        step_s = time.perf_counter() - step_started
    scales = [2 * REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    wall = statistics.median(c.wall_s * k for c, k in zip(children, scales))
    metrics = {
        "wall_s": metric(wall, "s"),
        "cases_per_s": metric(work.cases / wall, "1/s"),
        "cpu_s": metric(statistics.median(c.cpu_s * k for c, k in zip(children, scales)), "s"),
        "peak_rss_mb": metric(statistics.median(c.peak_rss_mb for c in children), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    print(
        f"uncalibrated median wall {statistics.median(c.wall_s for c in children):.4f} s; "
        f"calibrate.py median {statistics.median(refs):.4f} s"
    )
    return children, metrics


def leaf_values(trace: dict) -> dict[str, float]:
    """Per-function totals over every parent layer, plus per-layer self time."""
    totals: dict[str, dict[str, float]] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for row in trace["functions"]:
        agg = totals.setdefault(row["name"], {})
        for key, value in row.items():
            if key in ("name", "parent"):
                continue
            if key == "max_terms":
                agg[key] = max(agg.get(key, 0), value)
            else:
                agg[key] = agg.get(key, 0) + value
        layer_self[row["name"].split(".")[0]] += row["self_s"]
    values = {}
    for name, fields in LEAF_METRICS.items():
        agg = totals.get(name, {})
        calls = agg.get("calls", 0)
        for field in fields:
            if field == "distinct_frac":
                value = trace["distinct"].get(name, 0) / calls if calls else 0.0
            else:
                value = agg.get(field, 0)
            values[f"{name}.{field}"] = value
    for layer, self_s in layer_self.items():
        values[f"{layer}.self_s"] = self_s
    return values


def span_values(trace: dict, child: Child) -> dict[str, float]:
    """Per-kind family throughput and the cli phases, from the spans."""
    values = {}
    per_kind = {label: [0, 0.0] for label in KIND_LABELS.values()}
    cli_s = {"cli.run_verify": 0.0, "cli.render_report": 0.0}
    for span in trace["spans"]:
        duration = span["end"] - span["start"]
        if span["name"] == "identities.run_identity":
            acc = per_kind[KIND_LABELS[trace["kinds"][span["arg0"]]]]
            acc[0] += span["result_len"]
            acc[1] += duration
        elif span["name"] in cli_s:
            cli_s[span["name"]] += duration
    for label, (cases, seconds) in per_kind.items():
        values[f"identities.{label}.cases"] = cases
        values[f"identities.{label}.s"] = seconds
        values[f"identities.{label}.cases_per_s"] = cases / seconds if seconds else 0.0
    run_verify_s = cli_s["cli.run_verify"]
    family_s = sum(v for k, v in child.timing.items() if k != "total")
    values["cli.run_verify_s"] = run_verify_s
    values["cli.render_report_s"] = cli_s["cli.render_report"]
    values["cli.report_bytes"] = child.report_bytes
    values["cli.parallelism"] = family_s / run_verify_s if run_verify_s else 0.0
    return values


def unit_of(name: str) -> str:
    field = name.rsplit(".", 1)[-1]
    if field in UNITS:
        return UNITS[field]
    return "s" if field == "s" or field.endswith("_s") else "count"


def is_count(name: str) -> bool:
    return unit_of(name) in ("count", "bytes")


def traced_run(workload, work, digest, tmp, seconds, deadline) -> tuple[list[Child], dict, bool]:
    """Alternate untraced and traced children; return all children, the metrics
    and whether the traced children agreed on every count."""
    started = time.perf_counter()
    plain_cli = [sys.executable, "-m", "qpartid"]
    trace_file = tmp / "trace.json"
    traced_cli = [sys.executable, str(BENCH_DIR / "traced.py"), str(trace_file)]
    plain, traced, samples = [], [], []
    pair_s = 0.0
    while keep_going(started, seconds, len(traced), MIN_TRACED_PAIRS, pair_s):
        pair_started = time.perf_counter()
        plain.append(run_cli(plain_cli, work, digest, tmp, deadline))
        trace_file.unlink(missing_ok=True)
        child = run_cli(traced_cli, work, digest, tmp, deadline)
        traced.append(child)
        if trace_file.exists():
            trace_text = trace_file.read_text()
            trace = json.loads(trace_text)
            samples.append({**leaf_values(trace), **span_values(trace, child)})
        pair_s = time.perf_counter() - pair_started
    if not samples:
        raise SystemExit("no traced child wrote a trace")
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload}.trace.json").write_text(trace_text)

    # counts are exact: every traced child of one run must report the same ones
    repeatable = all(
        s[name] == samples[0][name] for s in samples for name in samples[0] if is_count(name)
    )
    if not repeatable:
        print("traced counts differ between children of one run", file=sys.stderr)
    metrics = {
        name: metric(
            samples[0][name] if is_count(name) else statistics.median(s[name] for s in samples),
            unit_of(name),
        )
        for name in samples[0]
    }
    metrics["trace.overhead_s"] = metric(
        statistics.median(c.wall_s for c in traced) - statistics.median(c.wall_s for c in plain),
        "s",
    )
    metrics["trace.parent_only"] = metric(1 if work.pooled else 0, "flag")
    return plain + traced, metrics, repeatable


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="recorded only: every workload is a fixed parameter grid with nothing to draw",
    )
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--digest",
        default=None,
        help="expect this report digest instead of the committed one (checks the check)",
    )
    args = parser.parse_args()
    if not (SRC / "qpartid" / "__init__.py").is_file():
        print(f"no qpartid sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    work = WORKLOADS[args.workload]
    digest = args.digest or work.digest
    if not work.pooled:
        # one CPU for the child and calibrate.py alike, so the calibration
        # gauges the CPU the child ran on; children inherit the affinity
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.perf_counter() + RUN_DEADLINE_S
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        if args.trace:
            children, metrics, correct = traced_run(
                args.workload, work, digest, tmp, args.seconds, deadline
            )
        else:
            children, metrics = untraced_run(work, digest, tmp, args.seconds, deadline)
            correct = True
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for i, child in enumerate(children):
        print(
            f"{args.workload} child {i}: wall {child.wall_s:.3f} s, cpu {child.cpu_s:.3f} s, "
            f"rss {child.peak_rss_mb:.1f} MB, {'ok' if child.ok else 'FAILED'}"
        )
    print(f"seed {args.seed} recorded; the workload grid does not depend on it")
    failed = sum(work.cases for c in children if not c.ok)
    result = {
        "correct": correct and failed == 0,
        "attempted": work.cases * len(children),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

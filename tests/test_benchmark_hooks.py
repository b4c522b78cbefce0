"""The benchmark's per-layer tracer still finds the functions it times."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_run_records_the_benchmark_spans_and_leaves(tmp_path):
    trace_out, report_out = tmp_path / "trace.json", tmp_path / "report.json"
    argv = [
        "verify",
        *("--family", "delta", "--family", "theorem1", "--family", "comb20"),
        # the single sums multiply packed; the parity halves still go through poly_mul
        *("--family", "corollary_2_4"),
        *("--n-max", "1", "--m-max", "1", "--p-max", "1"),
        *("--workers", "1", "--format", "json", "--out", str(report_out)),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "traced.py"), str(trace_out), *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_out.read_text())
    assert trace["exit_code"] == 0
    spans = {span["name"] for span in trace["spans"]}
    assert {"identities.run_identity", "cli.run_verify", "cli.render_report"} <= spans
    functions = {record["name"] for record in trace["functions"]}
    assert {"partitions.count_P", "bigpoly.poly_mul", "bigpoly.pack"} <= functions
    # the kernels are read through row entries, which call the traced leaves
    assert {"qbinom.binom", "qbinom.bracket_base", "partitions.count_Q"} <= functions

"""The batch front end: selection, formats, exit codes, determinism."""

import ast
import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qpartid import __version__, bigpoly, cli, identities
from qpartid.bigpoly import format_poly
from qpartid.cli import _CHUNK, _ReportWriter, main, render_report
from qpartid.identities import CaseResult
from qpartid.qbinom import bracket_base

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_family_grid_override(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "result1", "--n-max", "8", "--m-max", "8"
    )
    assert code == 0
    assert "result1: 81 cases, ok" in out


def test_verify_unknown_family(capsys):
    code, _, err = run_cli(capsys, "verify", "--family", "no_such_id")
    assert code == 2
    assert "unknown identity id" in err


def test_verify_requires_selection(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert "--family" in err


def test_verify_all_conflicts_with_family(capsys, monkeypatch):
    # --all used to win silently and run every family
    from qpartid import cli

    monkeypatch.setattr(cli, "run_verify", lambda config: pytest.fail("a family ran"))
    code, out, err = run_cli(capsys, "verify", "--all", "--family", "delta")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --all ") and err.count("\n") == 1


def test_verify_preset_conflicts_with_overrides(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--preset", "desk", "--family", "delta", "--n-max", "3"
    )
    assert code == 2
    assert "preset" in err


def test_verify_rejects_malformed_set(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--family", "resdbl1", "--a-set", "1,x"
    )
    assert code == 2
    assert "--a-set" in err
    code, _, err = run_cli(capsys, "verify", "--family", "delta", "--n-max", "-2")
    assert code == 2


@pytest.mark.parametrize("value", ["1,,2", "1,", ",1", " ", ""])
@pytest.mark.parametrize("flag", ["--a-set", "--b-set", "--c-set"])
def test_verify_rejects_an_empty_set_item(capsys, flag, value):
    # an empty item used to be dropped, so "1,,2" ran {1, 2} and exited 0
    code, out, err = run_cli(capsys, "verify", "--family", "resdbl1", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


def test_verify_json_report_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--family",
        "delta",
        "--n-max",
        "2",
        "--m-max",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"version", "config", "results", "totals", "timing"}
    assert report["totals"] == {"cases": 9, "passes": 9, "failures": 0}
    row = report["results"][0]
    assert set(row) == {"id", "params", "pass", "first_mismatch", "lhs_hash", "rhs_hash"}
    assert report["config"]["families"] == ["delta"]


def test_oracle_limit_is_only_an_oracle_diff_flag(capsys):
    for argv in (
        ("verify", "--family", "delta"),
        ("table", "--func", "Pn", "--n", "5"),
        ("gauss", "--m", "1", "--p", "1"),
    ):
        code, _, err = run_cli(capsys, *argv, "--oracle-limit", "5")
        assert code == 2
        assert "--oracle-limit" in err


# SHA-256 of `verify --all --n-max 3 --m-max 3 --p-max 3 --workers 1 --format json`
# with the top-level timing block cut out: 4,700 cases of every identity
SMALL_ALL_REPORT_DIGEST = "99cfa0f065cadc64818ffd1255e0862eea909192e058c244b291552441a2d305"


# the same for `oracle-diff --n-max 8 --format json`: 285 (n, m, p) triples
SMALL_ORACLE_REPORT_DIGEST = "873b507dbe2db631d91a0c0f181641d31323634452fbc29e1bc093a82d92869b"


def timing_stripped_digest(report_path) -> str:
    # sorted keys at indent 2: only the top-level timing block opens at two spaces
    stripped, cuts = re.subn(
        rb'\n  "timing": \{.*?\n  \}', b"", report_path.read_bytes(), flags=re.S
    )
    assert cuts == 1
    return hashlib.sha256(stripped).hexdigest()


def test_verify_all_small_grid_report_bytes_are_pinned(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "verify",
        "--all",
        *("--n-max", "3", "--m-max", "3", "--p-max", "3"),
        *("--workers", "1", "--format", "json", "--out", str(out)),
    )
    assert code == 0
    assert timing_stripped_digest(out) == SMALL_ALL_REPORT_DIGEST


# the same for `verify --all --workers N --format json` at the default grids:
# the reports that benchmarks/run.py pins for its verify-all and verify-all-w2
# workloads, which differ only in config.workers
@pytest.mark.parametrize(
    "workers, digest",
    [
        ("1", "500432fd4734338d2768873f5cabe4c1527532497cadc28432fd2bdaff6be644"),
        ("2", "8acb9b6835a3d2925278c68bcc452b5e814f6ac647f9c3d7227cb09ca75ddc27"),
    ],
)
def test_verify_all_json_report_bytes_are_pinned(capsys, tmp_path, workers, digest):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--all", "--workers", workers, "--format", "json", "--out", str(out))
    assert code == 0
    assert timing_stripped_digest(out) == digest


def test_oracle_diff_report_bytes_are_pinned(capsys, tmp_path):
    out = tmp_path / "oracle.json"
    code, _, _ = run_cli(
        capsys, "oracle-diff", "--n-max", "8", "--format", "json", "--out", str(out)
    )
    assert code == 0
    assert timing_stripped_digest(out) == SMALL_ORACLE_REPORT_DIGEST


COUNT_SUM_FAMILIES = (
    "theorem1", "theorem2", "theorem3", "theorem6", "theorem7", "theorem8", "theorem9",
    "theorem_simple", "qstar_relation", "sine_vanishing_6", "sine_vanishing_7",
)


# SHA-256 of the whole stdout (TSV carries no timing).  JSON sorts its keys,
# so TSV is the format where the order of each row's params shows.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("verify", "--all", "--n-max", "3", "--m-max", "3", "--p-max", "3", "--workers", "1"),
            "06cb4b8252378ad0ab97de7b9d40be9ce5ec492791110693e4c5362b43c84555",
        ),
        (
            ("oracle-diff", "--n-max", "8"),
            "f38484a45d09cfc4696f07412c0d41b032e0fcb0ef0d646d61d8c2e0322ed0a8",
        ),
        (
            # the qpoly benchmark's grid: 24,576 resdbl1-4 rows
            (
                "verify",
                *("--family", "resdbl1", "--family", "resdbl2"),
                *("--family", "resdbl3", "--family", "resdbl4"),
                *("--n-max", "7", "--m-max", "7", "--p-max", "7", "--workers", "1"),
            ),
            "41768b82e50796a316218feca8eddfb0ebc60aac26ac630337d88412ae6f0c20",
        ),
        (
            # the seven single sums past the default grid: 2,024 lines
            (
                "verify",
                *("--family", "delta", "--family", "result1", "--family", "result2"),
                *("--family", "result3", "--family", "result4"),
                *("--family", "result5", "--family", "result6"),
                *("--n-max", "16", "--m-max", "16", "--workers", "1"),
            ),
            "c850cde56bcf6a50f432db017b8be5983c641420508dd95da371f4be13dc14df",
        ),
        (
            # the parity halves and the triangle theorem past the default grid: 508 lines
            (
                "verify",
                *("--family", "corollary_2_4", "--family", "corollary_3_4", "--family", "f_theorem"),
                *("--n-max", "12", "--m-max", "12", "--workers", "1"),
            ),
            "61eade12937446411262e81473ef5aea6398042658198465b0e881ae739a6b48",
        ),
        (
            # the same at n, m <= 16: 867 lines, every half summed packed
            (
                "verify",
                *("--family", "corollary_2_4", "--family", "corollary_3_4", "--family", "f_theorem"),
                *("--n-max", "16", "--m-max", "16", "--workers", "1"),
            ),
            "0d61659fc449546d42d73a36a754ce25d6e9b0ee2412b55caf48d8760b17cc31",
        ),
        (
            # count planes 41 by 41, packed at slots of 1 to 5 bytes
            (
                "verify",
                *("--family", "theorem6", "--family", "theorem_simple"),
                *("--n-max", "40", "--m-max", "40", "--p-max", "20", "--workers", "1"),
            ),
            "c6d1ed25734c81b0645c586b09349b99d52bb2f1471c6700fdcb0785a857ddc6",
        ),
        (
            # resdbl1-4 over sparse, non-contiguous a, b and c sets: 11,520 rows
            (
                "verify",
                *("--family", "resdbl1", "--family", "resdbl2"),
                *("--family", "resdbl3", "--family", "resdbl4"),
                *("--n-max", "9", "--m-max", "5", "--p-max", "5"),
                *("--a-set", "0,3", "--b-set", "1,3", "--c-set", "2,3", "--workers", "1"),
            ),
            "3eb5746ce0a34c1cf23b35694c7eea42d2b5d15c11565ba2615247217c2b4a75",
        ),
        (
            # all 13 (n, m, p) count families at n, m <= 40, p <= 20: 458,913 rows,
            # each family reading the P and Q tables its own run fills
            (
                "verify",
                *(arg for family in COUNT_SUM_FAMILIES for arg in ("--family", family)),
                *("--family", "pnmp_correspondence", "--family", "qnmp_correspondence"),
                *("--n-max", "40", "--m-max", "40", "--p-max", "20", "--workers", "1"),
            ),
            "8e31418843c130b43ba374a5a4e959113921bc08a3eb15d365842587ce546a84",
        ),
        (
            # every n <= 30 tabulated from its ZS1 partitions against one fill of P and Q
            ("oracle-diff", "--n-max", "30"),
            "5cd8f60c7f9f331e9027b841ba12ad02e00b00a6d9f3a38910686060cd505a74",
        ),
    ],
    ids=[
        "verify-all-small", "oracle-diff-8", "qpoly-grid", "single-sums-16", "triangles-12",
        "triangles-16", "wide-count-sums", "sparse-resdbl", "wide-count-families", "oracle-diff-30",
    ],
)
def test_tsv_report_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv, "--format", "tsv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of serial `verify --all --format tsv` at the default grids
ALL_TSV_DIGEST = "f6a31a45a93ed08249f95bdf36de7bcb34120344145179e143ddf901999ee798"


@pytest.mark.parametrize("words", [dict(bigpoly._WORDS), {}], ids=["word-path", "byte-path"])
def test_verify_all_tsv_bytes_do_not_depend_on_the_packing_path(capsys, words):
    # with the word table empty, as on a big-endian host, every slot moves
    # through bytes; the store is emptied so that every row is rebuilt that way
    with mock.patch.dict(bigpoly._WORDS, words, clear=True), mock.patch.dict(identities._ROWS, clear=True):
        code, out, _ = run_cli(capsys, "verify", "--all", "--workers", "1", "--format", "tsv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_TSV_DIGEST


def test_verify_sets_override_abc(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--family",
        "resdbl1",
        "--n-max",
        "2",
        "--m-max",
        "2",
        "--p-max",
        "2",
        "--a-set",
        "0",
        "--b-set",
        "1",
        "--c-set",
        "1,2",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["totals"]["cases"] == 3 * 3 * 3 * 1 * 1 * 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--family", "theorem1", "--b-set", "2"), "--b-set"),
        (("--family", "comb16", "--a-set", "5"), "--a-set"),
        (("--family", "pn_from_q", "--m-max", "3"), "--m-max"),
        (("--family", "pn_from_q", "--family", "result1", "--p-max", "2"), "--p-max"),
    ],
)
def test_verify_rejects_an_override_no_selected_family_reads(capsys, monkeypatch, argv, flag):
    # the override would be echoed in the config without ever being run
    from qpartid import cli

    def no_family(*args, **kwargs):
        raise AssertionError("no family may run")

    monkeypatch.setattr(cli, "run_identity", no_family)
    code, out, err = run_cli(capsys, "verify", *argv, "--workers", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and flag in err


def test_verify_all_accepts_every_override(capsys):
    # the resdbl families read a, b and c, so --all takes every flag
    code, out, _ = run_cli(
        capsys, "verify", "--all", "--workers", "1", "--format", "json",
        *("--n-max", "1", "--m-max", "1", "--p-max", "1"),
        *("--a-set", "1", "--b-set", "2", "--c-set", "2"),
    )
    assert code == 0
    rows = json.loads(out)["results"]
    assert {(r["params"]["a"], r["params"]["b"]) for r in rows if r["id"] == "resdbl1"} == {(1, 2)}


@pytest.mark.parametrize("flag", ["--a-set", "--b-set", "--c-set"])
def test_verify_rejects_repeated_set_values(capsys, flag):
    # a repeated value would run and count each of its cases twice
    code, out, err = run_cli(capsys, "verify", "--family", "resdbl1", flag, "2,1,2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and flag in err and "distinct" in err


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("flag", ["--b-set", "--c-set"])
def test_verify_rejects_b_c_below_one_before_any_work(capsys, flag, workers):
    # the resdbl brackets are read in base q**b and q**c, so b, c >= 1
    code, out, err = run_cli(
        capsys, "verify", "--family", "resdbl1", flag, "0", "--workers", workers
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and flag in err
    assert "Traceback" not in err


def test_injected_failure_exits_one_with_case_in_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--family",
        "delta",
        "--n-max",
        "2",
        "--m-max",
        "2",
        "--inject-failure",
        "--format",
        "json",
    )
    assert code == 1
    report = json.loads(out)
    failing = [r for r in report["results"] if not r["pass"]]
    assert len(failing) == 1
    assert failing[0]["first_mismatch"] is not None
    assert report["totals"]["failures"] == 1


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_family_exception_exits_three_with_one_line(capsys, monkeypatch, workers):
    # exit 1 means an identity failed; a check that raises is a different outcome
    from qpartid.identities import get_descriptor

    def broken(*axes):
        raise RuntimeError("injected fault")

    # the pool forks, so the workers see the patched descriptor too
    monkeypatch.setattr(get_descriptor("delta"), "prepare", broken)
    code, out, err = run_cli(
        capsys,
        "verify",
        *("--family", "delta", "--family", "result1", "--n-max", "2", "--m-max", "2"),
        *("--workers", workers),
    )
    assert code == 3
    assert out == ""
    assert err == "error: delta: RuntimeError: injected fault\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_later_family_that_raises_writes_nothing(capsys, monkeypatch, tmp_path, workers):
    # delta's rows are streamed before result1 raises; none of them may reach the output
    from qpartid.identities import get_descriptor

    def broken(*axes):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(get_descriptor("result1"), "prepare", broken)
    argv = (
        "verify",
        *("--family", "delta", "--family", "result1", "--n-max", "2", "--m-max", "2"),
        *("--workers", workers, "--format", "json"),
    )
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: result1: RuntimeError: injected fault\n"
    old = tmp_path / "old.json"
    old.write_bytes(b"an earlier report\n")
    code, out, err = run_cli(capsys, *argv, "--out", str(old))
    assert (code, out) == (3, "")
    assert err == "error: result1: RuntimeError: injected fault\n"
    assert old.read_bytes() == b"an earlier report\n"


ONE_HASH = "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"
TWO_HASH = "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35"


def failing_lines(out: str, fmt: str) -> list[str]:
    """The failing rows of a TSV report, or the FAIL lines of a human one."""
    if fmt == "tsv":
        return [line for line in out.splitlines()[1:] if line.split("\t")[2] == "0"]
    return [line for line in out.splitlines() if line.startswith("  FAIL")]


# the second family of each pair makes --workers 2 go through the pool
@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "families, tsv, human",
    [
        (
            ("result1", "result2"),
            f"result1\tn=0,m=0\t0\t0\t{ONE_HASH}\t{TWO_HASH}",
            "  FAIL n=0,m=0 first_mismatch=0",
        ),
        (
            ("theorem1", "theorem2"),
            f"theorem1\tn=0,m=0,p=0\t0\t[1, 2]\t{ONE_HASH}\t{TWO_HASH}",
            "  FAIL n=0,m=0,p=0 first_mismatch=[1, 2]",
        ),
    ],
    ids=["int-mismatch", "pair-mismatch"],
)
def test_failing_row_text_is_pinned(capsys, families, tsv, human, workers):
    p_max = ("--p-max", "3") if families[0].startswith("theorem") else ()
    argv = ["verify", "--n-max", "3", "--m-max", "3", *p_max, "--inject-failure"]
    argv += [arg for family in families for arg in ("--family", family)]
    for fmt, want in (("tsv", tsv), ("human", human)):
        code, out, _ = run_cli(capsys, *argv, "--workers", workers, "--format", fmt)
        assert code == 1
        assert failing_lines(out, fmt) == [want]


def bump_the_oracle_fill(monkeypatch, distinct, n, m, p, step):
    """Make oracle-diff's DP side read P(n, m, p), or Q(n, m, p) when distinct, off by step from its fill."""
    from qpartid import cli

    fill = cli.count_tables

    def bumped(rows, cols, p_max, fill_distinct=False):
        layers = fill(rows, cols, p_max, fill_distinct)
        if fill_distinct == distinct:
            layers[p][n][m] += step
        return layers

    monkeypatch.setattr(cli, "count_tables", bumped)


def test_failing_oracle_row_text_is_pinned(capsys, monkeypatch):
    bump_the_oracle_fill(monkeypatch, False, 7, 3, 4, -1)
    for fmt, want in (
        ("tsv", "oracle_diff\tn=7,m=3,p=4\t0\t[2, 3]\t\t"),
        ("human", "  FAIL n=7,m=3,p=4 first_mismatch=[2, 3]"),
    ):
        code, out, _ = run_cli(capsys, "oracle-diff", "--n-max", "8", "--format", fmt)
        assert code == 1
        assert failing_lines(out, fmt) == [want]


def test_a_family_that_raises_cancels_the_queued_families(capsys, monkeypatch, tmp_path):
    # the queued families would otherwise all run before the exit 3
    from qpartid.identities import get_descriptor, registry

    first, *others = sorted(d.id for d in registry())

    def broken(*axes):
        raise RuntimeError("injected fault")

    def recording(desc):
        # the pool forks, so each family marks its start with a file
        prepare, mark = desc.prepare, tmp_path / desc.id

        def started(*axes):
            if not mark.exists():
                mark.touch()
                time.sleep(0.05)
            return prepare(*axes)

        return started

    monkeypatch.setattr(get_descriptor(first), "prepare", broken)
    for family in others:
        monkeypatch.setattr(get_descriptor(family), "prepare", recording(get_descriptor(family)))
    code, out, err = run_cli(
        capsys, "verify", "--all", "--n-max", "1", "--m-max", "1", "--p-max", "1",
        "--workers", "2",
    )
    assert (code, out) == (3, "")
    assert err == f"error: {first}: RuntimeError: injected fault\n"
    # one family in flight per worker, plus one that the worker of the raising
    # family may take while the runner is being scheduled; the rest never start
    started = sorted(path.name for path in tmp_path.iterdir())
    assert len(started) <= 3 < len(others), started


def test_json_determinism_modulo_timing(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = main(
            [
                "verify",
                "--family",
                "result2",
                "--family",
                "comb02",
                "--n-max",
                "4",
                "--m-max",
                "4",
                "--format",
                "json",
                "--out",
                str(path),
            ]
        )
        assert code == 0
    capsys.readouterr()
    reports = []
    for path in paths:
        data = json.loads(path.read_text())
        data.pop("timing")
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]


def test_tsv_report_is_complete(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--family",
        "result1",
        "--n-max",
        "3",
        "--m-max",
        "3",
        "--format",
        "tsv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("id\tparams\tpass")
    assert len(lines) == 1 + 16


def test_parallel_matches_serial(capsys, tmp_path):
    base = [
        "verify",
        "--family",
        "delta",
        "--family",
        "result1",
        "--family",
        "comb01",
        "--n-max",
        "4",
        "--m-max",
        "4",
        "--format",
        "json",
    ]
    serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
    assert main(base + ["--workers", "1", "--out", str(serial)]) == 0
    assert main(base + ["--workers", "2", "--out", str(parallel)]) == 0
    capsys.readouterr()
    a = json.loads(serial.read_text())
    b = json.loads(parallel.read_text())
    a.pop("timing"), b.pop("timing")
    a["config"].pop("workers"), b["config"].pop("workers")
    assert a == b


def inline_workers(sizes: list):
    """A stand-in for cli._forked: records the worker count and runs one worker's loop in this process, forking none.

    That one worker takes every task, in task order, and writes them all with its one writer.
    """

    @contextlib.contextmanager
    def forked(count, work):
        sizes.append(count)
        work()
        yield

    return forked


def test_worker_pool_is_capped_at_the_family_count(capsys, monkeypatch):
    # each worker is forked at the start of the run, whether or not a task is left for it
    sizes = []
    monkeypatch.setattr(cli, "_forked", inline_workers(sizes))
    families = ("--family", "delta", "--family", "result1", "--family", "comb01")
    for workers in ("5000", "2"):
        code, out, _ = run_cli(
            capsys, "verify", *families, "--n-max", "2", "--m-max", "2",
            "--workers", workers, "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["config"]["workers"] == int(workers)
    assert sizes == [3, 2]


RUN_IMPORTS_CHILD = """
import contextlib, io, sys
from qpartid.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["oracle-diff", "--n-max", "3"])]
    codes.append(main(["verify", "--family", "delta", "--workers", "1"]))
    codes.append(main(["verify", "--family", "delta", "--family", "result1", "--workers", "2"]))
print(*codes, *(int(name in sys.modules) for name in ("multiprocessing", "concurrent.futures")))
"""


def test_no_run_imports_multiprocessing():
    # a pooled run forks its own workers: importing concurrent.futures with
    # multiprocessing costs 17-20 ms before any family can run
    assert run_small_child(RUN_IMPORTS_CHILD) == [0, 0, 0, 0, 0]


def test_verify_rejects_a_repeated_family(capsys, monkeypatch):
    # the family would run once but be echoed twice in the config
    from qpartid import cli

    def no_family(*args, **kwargs):
        raise AssertionError("no family may run")

    monkeypatch.setattr(cli, "run_identity", no_family)
    code, out, err = run_cli(
        capsys, "verify", "--family", "delta", "--family", "result1", "--family", "delta"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "delta" in err


def test_workers_env_default(monkeypatch):
    from qpartid.cli import build_parser

    monkeypatch.setenv("QPARTID_WORKERS", "3")
    args = build_parser().parse_args(["verify", "--all"])
    assert args.workers == 3


def test_table_examples(capsys):
    assert run_cli(capsys, "table", "--func", "Pn", "--n", "5")[1] == "7\n"
    assert run_cli(capsys, "table", "--func", "P", "--n", "5", "--m", "2", "--p", "3")[1] == "1\n"
    assert run_cli(capsys, "table", "--func", "Q", "--n", "0", "--m", "0", "--p", "0")[1] == "1\n"
    code, out, _ = run_cli(
        capsys, "table", "--func", "P", "--n", "5", "--m", "2", "--p", "3", "--format", "tsv"
    )
    assert code == 0
    assert out == "n\tm\tp\tvalue\n5\t2\t3\t1\n"
    # unbounded part size when --p is omitted
    assert run_cli(capsys, "table", "--func", "P", "--n", "4", "--m", "2")[1] == "2\n"


def test_table_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "table", "--func", "P", "--n", "5")
    assert code == 2
    assert "requires --m" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--func", "Pn", "--n", "5", "--p", "3"), "--p"),
        (("--func", "Qn", "--n", "6", "--m", "2"), "--m"),
        (("--func", "Pmost", "--n", "6", "--m", "2", "--p", "3"), "--m"),
    ],
)
def test_table_rejects_a_flag_its_func_does_not_take(capsys, argv, flag):
    # before, Pn --n 5 --p 3 printed p(5) = 7 and Qn ignored --m, both exiting 0
    code, out, err = run_cli(capsys, "table", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and flag in err and err.count("\n") == 1


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_verify_rejects_workers_below_one_before_any_work(capsys, workers):
    code, out, err = run_cli(capsys, "verify", "--family", "delta", "--workers", workers)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--workers" in err
    assert "Traceback" not in err


def test_table_rejects_negative_p(capsys):
    code, out, err = run_cli(capsys, "table", "--func", "P", "--n", "5", "--m", "2", "--p", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--p" in err


def test_gauss_tall_thin_box_needs_no_recursion(capsys):
    # [1201, 1]_q = 1 + q + ... + q^1200, built by a 1200-deep recurrence
    code, out, _ = run_cli(capsys, "gauss", "--m", "1200", "--p", "1")
    assert code == 0
    coeffs = out.splitlines()[1].split()
    assert coeffs[0] == "coeffs:"
    assert coeffs[1:] == ["1"] * 1201


def test_gauss_output(capsys):
    code, out, _ = run_cli(capsys, "gauss", "--m", "2", "--p", "2")
    assert code == 0
    assert out.splitlines() == ["1 + q + 2q^2 + q^3 + q^4", "coeffs: 1 1 2 1 1"]
    assert run_cli(capsys, "gauss", "--m", "0", "--p", "9")[1].splitlines()[0] == "1"
    code, out, _ = run_cli(capsys, "gauss", "--m", "1", "--p", "2", "--base", "2")
    assert out.splitlines()[0] == "1 + q^2 + q^4"
    assert run_cli(capsys, "gauss", "--m", "1", "--p", "1", "--base", "0")[0] == 2


def test_gauss_prints_the_bracket_recurrence(capsys):
    # gauss reads box counts; the Pascal-type bracket recurrence is the reference
    for m, p, base in itertools.product(range(13), range(13), (1, 2, 3)):
        poly = bracket_base(m + p, m, base)
        expected = f"{format_poly(poly)}\ncoeffs: {' '.join(map(str, poly.coeffs))}\n"
        argv = ("gauss", "--m", str(m), "--p", str(p), "--base", str(base))
        assert run_cli(capsys, *argv)[:2] == (0, expected), (m, p, base)


GAUSS_PEAK_RSS_CHILD = """
import contextlib, io, resource
from qpartid.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["gauss", "--m", "80", "--p", "80"])
coeffs = out.getvalue().splitlines()[1].split()[1:]
print(code, len(coeffs), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def run_small_child(source: str) -> list[int]:
    """The integers source prints, run in a child of a fresh, small interpreter.

    Linux keeps a process's peak RSS across exec, so a child started straight
    from this (large) test process would report at least the test's own size.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = [sys.executable, "-c", source]
    launcher = f"import subprocess; subprocess.run({child!r}, check=True)"
    proc = subprocess.run(
        [sys.executable, "-c", launcher], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return [int(word) for word in proc.stdout.split()]


def test_gauss_of_a_large_box_stays_small():
    code, n_coeffs, peak_kb = run_small_child(GAUSS_PEAK_RSS_CHILD)
    assert (code, n_coeffs) == (0, 80 * 80 + 1)
    assert peak_kb < 60 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


PN_FROM_Q_PEAK_RSS_CHILD = """
import contextlib, io, resource
from qpartid.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", "--family", "pn_from_q", "--n-max", "600", "--workers", "1"])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_pn_from_q_past_the_default_grid_stays_small():
    # p(x) and q(x) for every x <= 600 are two rolling lists
    code, peak_kb = run_small_child(PN_FROM_Q_PEAK_RSS_CHILD)
    assert code == 0
    assert peak_kb < 150 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


VERIFY_ALL_PEAK_RSS_CHILD = """
import os, resource, sys, tempfile
from qpartid.cli import main
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "report.json")
    code = main(["verify", "--all", "--workers", "1", "--format", "json", "--out", out])
    size = os.path.getsize(out)
print(code, size, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_verify_all_json_report_is_streamed():
    # 75,456 rows and about 26 MB of JSON: held whole, they peaked above 110 MB
    code, size, peak_kb = run_small_child(VERIFY_ALL_PEAK_RSS_CHILD)
    assert code == 0
    assert size > 25 * 10**6
    assert peak_kb < 60 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


def test_oracle_diff(capsys):
    code, out, _ = run_cli(capsys, "oracle-diff", "--n-max", "8")
    assert code == 0
    assert "285 cases" in out  # sum over n<=8 of (n+1)^2
    code, out, _ = run_cli(capsys, "oracle-diff", "--n-max", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["totals"]["cases"] == 1


def test_oracle_diff_over_limit(capsys):
    code, _, err = run_cli(capsys, "oracle-diff", "--n-max", "1000")
    assert code == 2
    assert "oracle limit" in err
    # a lowered limit bites even below the default
    code, _, err = run_cli(capsys, "oracle-diff", "--n-max", "8", "--oracle-limit", "5")
    assert code == 2
    code, _, _ = run_cli(capsys, "oracle-diff", "--n-max", "5", "--oracle-limit", "5")
    assert code == 0


def test_oracle_diff_rejects_a_negative_limit_by_its_own_flag(capsys):
    code, _, err = run_cli(capsys, "oracle-diff", "--n-max", "5", "--oracle-limit", "-1")
    assert code == 2
    assert "--oracle-limit must be >= 0" in err
    assert "exceeds" not in err


def test_oracle_diff_reaches_past_the_default_limit(capsys):
    code, out, _ = run_cli(capsys, "oracle-diff", "--n-max", "35", "--oracle-limit", "35")
    assert code == 0
    assert "16206 cases" in out  # sum over n<=35 of (n+1)^2


def test_oracle_diff_past_the_default_limit_report_bytes_are_pinned():
    # 33,511 (n, m, p) triples; n = 45 has 89,134 partitions
    proc = run_module("oracle-diff", "--n-max", "45", "--oracle-limit", "45", "--format", "tsv")
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "a31761f1906ca63f0043cab0c60f12a477bae6911f67fce7da628b7304a7b66a"


def test_oracle_diff_names_a_dp_mismatch(capsys, monkeypatch):
    bump_the_oracle_fill(monkeypatch, True, 5, 2, 3, 1)
    code, out, _ = run_cli(capsys, "oracle-diff", "--n-max", "6", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["totals"]["failures"] == 1
    (row,) = [r for r in report["results"] if not r["pass"]]
    assert row["params"] == {"n": 5, "m": 2, "p": 3}
    # [dp_q, enumerated]: 3+2 is the only partition of 5 into 2 distinct parts <= 3
    assert row["first_mismatch"] == [2, 1]


@pytest.mark.parametrize(
    "argv, line",
    [
        (("oracle-diff", "--n-max", "3"), "error: oracle_diff: RuntimeError: injected fault\n"),
        (("gauss", "--m", "2", "--p", "2"), "error: RuntimeError: injected fault\n"),
        (("table", "--func", "Pn", "--n", "5"), "error: RuntimeError: injected fault\n"),
    ],
    ids=["oracle-diff", "gauss", "table"],
)
def test_unexpected_exception_exits_three_with_one_line(capsys, monkeypatch, argv, line):
    # exit 1 means a check failed; a crash is a different outcome
    from qpartid import cli

    def broken(*args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "oracle_counts", broken)
    monkeypatch.setattr(cli, "box_counts", broken)
    monkeypatch.setitem(cli._TABLE_FUNCS, "Pn", (("n",), (), broken))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == line
    assert "Traceback" not in err


def run_module(*argv):
    # a child process, so whatever a large run holds leaves with it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "qpartid", *argv], capture_output=True, text=True, env=env
    )


def test_wide_count_sum_tsv_report_bytes_are_pinned():
    # 89,375 cases; every count plane is built 25 by 25, at the grid's extent
    families = [arg for family in COUNT_SUM_FAMILIES for arg in ("--family", family)]
    grid = ("--n-max", "24", "--m-max", "24", "--p-max", "12")
    proc = run_module("verify", *families, *grid, "--workers", "1", "--format", "tsv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 89_375 + 1
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "10ca7fb35ade4b96461c32cacc0787e711f6f8ae8e9605ccf8004976fd59a867"


def test_triangle_family_tsv_report_bytes_are_pinned_in_a_fresh_process():
    # the parity halves and f_theorem at n, m <= 12, from an empty row store:
    # each prepare grows its diagonal rows to n = 12 before its first case
    families = ("--family", "corollary_2_4", "--family", "corollary_3_4", "--family", "f_theorem")
    proc = run_module("verify", *families, "--n-max", "12", "--m-max", "12", "--workers", "1", "--format", "tsv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 507 + 1
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "61eade12937446411262e81473ef5aea6398042658198465b0e881ae739a6b48"


def test_series_family_tsv_report_bytes_are_pinned_in_a_fresh_process():
    # pn_from_q and qn_double_sum at n <= 600, read from one spec table:
    # the left row and A through 600, B through 300
    families = ("--family", "pn_from_q", "--family", "qn_double_sum")
    proc = run_module("verify", *families, "--n-max", "600", "--workers", "1", "--format", "tsv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 1_202 + 1
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "76bfb51982040fd43b392edbd958fd8b2d49353c70c1d79704a6d3544325ffce"


def test_q1_family_tsv_report_bytes_are_pinned_past_the_default_grid_in_a_fresh_process():
    # comb01-26 at n, m <= 40 (p <= 12 for comb16-19), twice their default
    # extent: each side a weighted sum over the binomial rows, each triangle
    # diagonal one too
    families = [arg for i in range(1, 27) for arg in ("--family", f"comb{i:02d}")]
    proc = run_module(
        "verify", *families, "--n-max", "40", "--m-max", "40", "--p-max", "12",
        "--workers", "1", "--format", "tsv",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 124_395
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "649ae437e3063f94766add9e1c56df5d5f355f7ab638428bece888f6e6f896f2"


def test_wide_q1_triangle_tsv_report_bytes_are_pinned_in_a_fresh_process():
    # comb16 at n, m <= 120, p <= 40: 600,281 rows, each case summed over the
    # nonzero diagonals alone.  The report, about 100 MB, is hashed as the
    # child writes it, so the test holds none of it.
    argv = ("--family", "comb16", "--n-max", "120", "--m-max", "120", "--p-max", "40")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digest, lines = hashlib.sha256(), 0
    with subprocess.Popen(
        [sys.executable, "-m", "qpartid", "verify", *argv, "--workers", "1", "--format", "tsv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
        err = proc.stderr.read().decode()
    assert proc.returncode == 0, err
    assert lines == 600_281 + 1
    assert digest.hexdigest() == "27adb2a1f1f9e32620e0145e22268e06278b7f1d245bf4155366d71868ba794b"


# TSV of verify --all --inject-failure: 75,456 rows, comb01's first one failing
INJECTED_ALL_TSV_DIGEST = "d06301de115ca8b0aa470deaca3add6ba65bb53978f831d37986c094fe046937"


def test_injected_failure_tsv_is_pinned_across_worker_counts():
    # the failing row goes through the row writer outside the verdict memo,
    # in the parent at --workers 1 and in a pool worker at --workers 2
    outs = []
    for workers in ("1", "2"):
        proc = run_module("verify", "--all", "--inject-failure", "--format", "tsv", "--workers", workers)
        assert proc.returncode == 1, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode()).hexdigest() == INJECTED_ALL_TSV_DIGEST
    assert [line.split("\t")[:3] for line in outs[0].splitlines() if line.split("\t")[2] == "0"] == [
        ["comb01", "n=0,m=0", "0"]
    ]


def test_series_families_at_n_2000_are_pinned():
    # p(x) from one box count list, q(x) and s(k) from the signed products
    families = ("--family", "pn_from_q", "--family", "qn_double_sum")
    proc = run_module("verify", *families, "--n-max", "2000", "--workers", "1", "--format", "tsv")
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "1028d2cf516dad6fec12430740c3afc66dcfdc0fbea8b6a9da25514c414ed313"


AS_LIMITED_CHILD = """
import contextlib, io, resource, sys
limit = 400_000 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from qpartid.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code)
"""


def test_pn_from_q_at_n_4000_runs_in_400_mb_of_address_space():
    # the limit is set in the child alone, before qpartid is imported
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["verify", "--family", "pn_from_q", "--n-max", "4000", "--workers", "1", "--format", "tsv"]
    proc = subprocess.run(
        [sys.executable, "-c", AS_LIMITED_CHILD, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


PMOST_CHAIN_PEAK_RSS_CHILD = """
import contextlib, hashlib, io, resource
from qpartid.cli import main
argv = ["verify", "--family", "pmost_chain", "--n-max", "800", "--p-max", "3", "--workers", "1", "--format", "tsv"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(argv)
digest = int(hashlib.sha256(out.getvalue().encode()).hexdigest(), 16)
print(code, digest, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_pmost_chain_at_n_800_is_pinned_and_fills_few_layers():
    # P layers 0..4 at rows 2n <= 1600, so about 90 MB; the unbounded counts
    # are read by conjugation, with no layer past p + 1
    code, digest, peak_kb = run_small_child(PMOST_CHAIN_PEAK_RSS_CHILD)
    assert code == 0
    assert digest == int("3235354be20e9fdbf7a99d5ad42a6f288b0c3f631ac2613f9f5c1c24ca29a349", 16)
    assert peak_kb < 120 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


def test_count_families_past_the_recursion_limit():
    # every count is read from iterative fills, so n past the interpreter's
    # recursion limit is just a longer table
    n_max = str(sys.getrecursionlimit() + 1)
    families = ("theorem1", "theorem2", "pnmp_correspondence", "qnmp_correspondence")
    argv = [arg for family in families for arg in ("--family", family)]
    grid = ("--n-max", n_max, "--m-max", "2", "--p-max", "2")
    proc = run_module("verify", *argv, *grid, "--workers", "1", "--format", "tsv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("\n") == 1 + 4 * (int(n_max) + 1) * 3 * 3


def test_table_partition_count_past_the_recursion_limit():
    proc = run_module("table", "--func", "Pn", "--n", "2000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4720819175619413888601432406799959512200344166\n"


def test_table_distinct_count_past_the_recursion_limit():
    # table answers from one rolling list of n + 1 integers, with no recursion
    proc = run_module("table", "--func", "Q", "--n", "3000", "--m", "20")
    assert proc.returncode == 0, proc.stderr
    # Q(n, m) = P(n - C(m, 2), m): partitions of 2790 into at most 20 parts
    assert proc.stdout == "1986018922049330813498474312875\n"


def test_argparse_usage_error_exit_code(capsys):
    assert run_cli(capsys, "verify", "--format", "yaml")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    # table renders human and tsv only, and gauss has one output form
    for argv in (
        ("table", "--func", "Pn", "--n", "5", "--format", "json"),
        ("gauss", "--m", "2", "--p", "2", "--format", "json"),
        ("gauss", "--m", "2", "--p", "2", "--format", "tsv"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "--format" in err


def test_console_entry_point_subprocess():
    proc = run_module("gauss", "--m", "2", "--p", "2")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1 + q + 2q^2 + q^3 + q^4"


def test_verify_rejects_unwritable_out_before_any_family_runs(capsys, monkeypatch, tmp_path):
    from qpartid import cli

    def no_family(*args, **kwargs):
        raise AssertionError("a family ran")

    monkeypatch.setattr(cli, "run_identity", no_family)
    monkeypatch.setattr(cli, "oracle_counts", no_family)
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    for out in (tmp_path / "missing" / "x.json", not_a_dir / "x.json", tmp_path):
        for argv in (
            ("verify", "--family", "delta", "--format", "json"),
            ("oracle-diff", "--n-max", "3", "--format", "json"),
        ):
            code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
            assert code == 2
            assert stdout == ""
            assert err.startswith("error: --out") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--func", "Pn", "--n", "5"),
        ("gauss", "--m", "2", "--p", "2"),
        ("verify", "--family", "delta", "--n-max", "1", "--m-max", "1"),
    ],
)
def test_unwritable_out_exits_two_with_one_line(capsys, tmp_path, argv):
    # a missing directory and a directory given as the file are both caught up front
    for out in (tmp_path / "missing" / "x.txt", tmp_path):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: --out") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_bad_workers_env_is_a_verify_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("QPARTID_WORKERS", value)
    code, out, err = run_cli(capsys, "verify", "--family", "delta", "--n-max", "1", "--m-max", "1")
    assert code == 2
    assert out == ""
    assert "QPARTID_WORKERS" in err and "Traceback" not in err
    # an explicit --workers wins over the variable, and no other subcommand reads it
    code, _, _ = run_cli(
        capsys, "verify", "--family", "delta", "--n-max", "1", "--m-max", "1", "--workers", "1"
    )
    assert code == 0
    assert run_cli(capsys, "table", "--func", "Pn", "--n", "5")[:2] == (0, "7\n")
    assert run_cli(capsys, "gauss", "--m", "1", "--p", "1")[0] == 0
    assert run_cli(capsys, "oracle-diff", "--n-max", "2")[0] == 0


def case_of(row: dict) -> CaseResult:
    """The runner's record of a parsed report row: its params' names and values, and its verdict.

    A pair mismatch, which the report holds as a two-item list, is the
    runner's tuple again.
    """
    params, mismatch = row["params"], row["first_mismatch"]
    if type(mismatch) is list:
        mismatch = tuple(mismatch)
    verdict = (row["pass"], row["lhs_hash"], row["rhs_hash"], mismatch)
    return CaseResult._make((tuple(params), tuple(params.values()), verdict))


def _render(report: dict, fmt: str) -> str:
    """The whole report in fmt, written by _ReportWriter with one block per run of equal ids.

    The report is a parsed one, whose rows are made CaseResults again.
    """
    sink = io.BytesIO()
    writer = _ReportWriter(sink, fmt, {k: v for k, v in report.items() if k < "results"})
    for label, rows in itertools.groupby(report["results"], key=lambda row: row["id"]):
        results = [case_of(row) for row in rows]
        writer.add(label, report["timing"].get(label, 0.0), len(results), results)
    writer.close({k: v for k, v in report.items() if k > "results"})
    return sink.getvalue().decode("ascii")


def json_dumps_report(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def assert_same_text(got, want):
    if got != want:
        # an excerpt: pytest's own diff of two megabyte strings takes minutes
        at = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
        at = min(len(got), len(want)) if at is None else at
        pytest.fail(f"differs at {at}: {got[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}")


def assert_renders_as_json_dumps(report):
    assert_same_text(_render(report, "json"), json_dumps_report(report))


def rendered_reports(capsys, *argv):
    """Run the CLI once; its exit code and the JSON report it wrote, parsed.

    The bytes the CLI wrote, streamed a family at a time, must already be
    json.dumps of the report they parse to.
    """
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    report = json.loads(out)
    assert_same_text(out, json_dumps_report(report))
    return code, report


def test_json_render_matches_json_dumps_on_a_small_verify_all(capsys):
    code, report = rendered_reports(
        capsys, "verify", "--all", "--n-max", "3", "--m-max", "3", "--p-max", "3"
    )
    assert code == 0
    assert len(report["results"]) == 4700
    assert_renders_as_json_dumps(report)


def test_json_render_matches_json_dumps_on_injected_failures(capsys):
    shapes = set()
    # a q family fails at an exponent, a count family at a pair of values
    for family, p_max in (("result1", ()), ("theorem1", ("--p-max", "3"))):
        code, report = rendered_reports(
            capsys, "verify", "--family", family,
            "--n-max", "3", "--m-max", "3", *p_max, "--inject-failure",
        )
        assert code == 1
        shapes.update(type(r["first_mismatch"]) for r in report["results"] if not r["pass"])
        assert_renders_as_json_dumps(report)
    assert shapes == {int, list}


def test_json_render_matches_json_dumps_on_an_oracle_mismatch(capsys, monkeypatch):
    bump_the_oracle_fill(monkeypatch, False, 7, 3, 4, -1)
    code, report = rendered_reports(capsys, "oracle-diff", "--n-max", "8")
    assert code == 1
    (failed,) = [r for r in report["results"] if not r["pass"]]
    assert type(failed["first_mismatch"]) is list
    assert_renders_as_json_dumps(report)


def json_leaves():
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=6),
    )


# every str, however odd, fits the row template: json's own escaper writes it
ROW_TEXT = st.one_of(
    st.text(alphabet="ab\"\\é☃\n\x00", max_size=6),
    st.text(max_size=6),
    st.just("0" * 64),
)
BIG_INTS = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**200), st.just(-1))
# the rows the report runner makes: first_mismatch is None, a q exponent or
# a pair of values
REPORT_ROWS = st.fixed_dictionaries(
    {
        "first_mismatch": st.one_of(
            st.none(), BIG_INTS, st.lists(BIG_INTS, min_size=2, max_size=2)
        ),
        "id": ROW_TEXT,
        "lhs_hash": ROW_TEXT,
        "params": st.dictionaries(ROW_TEXT, BIG_INTS, max_size=6),
        "pass": st.booleans(),
        "rhs_hash": ROW_TEXT,
    }
)


REPORTS = st.fixed_dictionaries(
    {
        "config": st.dictionaries(st.text(max_size=4), json_leaves(), max_size=4),
        "results": st.lists(REPORT_ROWS, max_size=6),
        "timing": st.dictionaries(st.text(max_size=4), st.floats(0, 10), max_size=3),
        "version": st.text(max_size=4),
    },
    optional={"totals": st.dictionaries(st.text(max_size=4), st.integers(), max_size=3)},
)


def example_row(**fields):
    row = {
        "first_mismatch": None,
        "id": "delta",
        "lhs_hash": "0" * 64,
        "params": {"n": 3, "m": 1},
        "pass": True,
        "rhs_hash": "f" * 64,
    }
    return {**row, **fields}


@settings(max_examples=300, deadline=None)
@given(REPORTS)
@example({"config": {}, "results": [], "timing": {}, "version": "0"})
@example(
    {
        # "%" in a params key and in the id, which the row writer must not read as a slot
        "config": {},
        "results": [example_row(params={"%": 0}), example_row(id="%d %s %%", params={"%s": 1})],
        "timing": {},
        "version": "0",
    }
)
@example(
    {
        # rows of one block that share a digest but not the text around their params
        "config": {},
        "results": [
            example_row(),
            example_row(first_mismatch=3, **{"pass": False}),
            example_row(first_mismatch=[1, 2], **{"pass": False}),
            example_row(lhs_hash="a" * 64, **{"pass": False}),
            example_row(lhs_hash="b" * 64),
        ],
        "timing": {},
        "version": "0",
    }
)
@example(
    {
        # two params key orders, and a third key set, in one block
        "config": {},
        "results": [
            example_row(params={"n": 1, "m": 2}),
            example_row(params={"m": 2, "n": 1}),
            example_row(params={"n": 1, "m": 2, "p": 3}),
            example_row(params={"m": 5, "n": 4}),
        ],
        "timing": {},
        "version": "0",
    }
)
@example(
    {
        "config": {"families": ["delta"], "overrides": {}},
        "results": [
            example_row(),
            example_row(params={}, **{"pass": False}),
            example_row(first_mismatch=-7, **{"pass": False}),
            example_row(first_mismatch=2**64 + 1),
            example_row(first_mismatch=[-(2**70), 2**65]),
            example_row(id='say "hi"', lhs_hash="back\\slash", rhs_hash="é☃"),
            example_row(params={'n"\\': 1, "é": -(2**70)}),
        ],
        "timing": {"total": 0.25},
        "totals": {"cases": 7},
        "version": "0.1",
    }
)
def test_json_render_is_json_dumps(report):
    assert_renders_as_json_dumps(report)


def text_block_by_fstring(label, results, fmt):
    """Reference: a TSV or human block of a task that took no time, one f-string per line."""
    failures = sum(1 for r in results if not r.passed)
    status = f"{failures} FAILED" if failures else "ok"
    lines = [] if fmt == "tsv" else [f"{label}: {len(results)} cases, {status} (0.00s)\n"]
    for r in results:
        params = ",".join(f"{k}={v}" for k, v in r.params.items())
        if fmt == "tsv":
            mismatch = "" if r.first_mismatch is None else json.dumps(r.first_mismatch)
            lines.append(
                f"{label}\t{params}\t{int(r.passed)}\t{mismatch}\t{r.lhs_hash}\t{r.rhs_hash}\n"
            )
        elif not r.passed and len(lines) <= 10:
            lines.append(f"  FAIL {params} first_mismatch={json.dumps(r.first_mismatch)}\n")
    return "".join(lines)


@settings(max_examples=200, deadline=None)
@given(ROW_TEXT, st.lists(REPORT_ROWS, max_size=12))
@example("%s", [example_row(params={"%": 0}), example_row(params={"%d": 1}, **{"pass": False})])
@example(
    "delta",
    [
        example_row(),
        example_row(first_mismatch=[1, 2], **{"pass": False}),
        example_row(params={"m": 1, "n": 3}),
        example_row(rhs_hash="0" * 64, first_mismatch=0, **{"pass": False}),
    ],
)
def test_text_render_is_the_row_fstring(label, rows):
    results = [case_of(row) for row in rows]
    for fmt in ("tsv", "human"):
        assert render_report(label, results, fmt, 0.0) == text_block_by_fstring(label, results, fmt)


# names shared by several tasks, the same names in another order, other names,
# and a name that the %-template must escape
TASK_NAMES = (("n", "m"), ("m", "n"), ("n", "m", "p"), ("%s", "n"))
TASK_VERDICTS = (
    (True, ONE_HASH, ONE_HASH, None),
    (False, ONE_HASH, TWO_HASH, 0),
    (False, ONE_HASH, TWO_HASH, (1, -2)),
    (False, TWO_HASH, ONE_HASH, (3, 4)),
)


def task_results(names: tuple, size: int, offset: int) -> list[CaseResult]:
    """size CaseResults sharing one names tuple, whose values recur within the task and across tasks."""
    return [
        CaseResult._make(
            (
                names,
                tuple((i + offset) * (j + 1) % 37 for j in range(len(names))),
                TASK_VERDICTS[(i + offset) % 5 % len(TASK_VERDICTS)],
            )
        )
        for i in range(size)
    ]


def json_report_of(config: dict, tasks: list[tuple]) -> str:
    """The JSON report of tasks that each took no time, through json.dumps."""
    results = [
        {
            "first_mismatch": r.first_mismatch,
            "id": label,
            "lhs_hash": r.lhs_hash,
            "params": r.params,
            "pass": r.passed,
            "rhs_hash": r.rhs_hash,
        }
        for label, _, results in tasks
        for r in results
    ]
    failures = sum(not row["pass"] for row in results)
    return json_dumps_report(
        {
            "config": config,
            "results": results,
            "timing": {**{label: 0.0 for label, *_ in tasks}, "total": 0.0},
            "totals": {"cases": len(results), "passes": len(results) - failures, "failures": failures},
            "version": __version__,
        }
    )


def text_report_of(tasks: list[tuple], fmt: str) -> str:
    """The TSV or human report of tasks that each took no time, one f-string per line."""
    blocks = "".join(text_block_by_fstring(label, results, fmt) for label, _, results in tasks)
    if fmt == "tsv":
        return "id\tparams\tpass\tfirst_mismatch\tlhs_hash\trhs_hash\n" + blocks
    cases = sum(len(results) for _, _, results in tasks)
    failures = sum(not r.passed for _, _, results in tasks for r in results)
    verdict = "FAIL" if failures else "PASS"
    return blocks + f"TOTAL: {cases} cases, {cases - failures} passed, {failures} failed -> {verdict} (0.00s)\n"


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(range(len(TASK_NAMES))),
            st.sampled_from((0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1)),
            st.integers(0, 3),
            st.booleans(),
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from((cli._MEMO_TEXTS, 5)),
)
@example([(0, 0, 0, False), (0, _CHUNK + 1, 0, False), (0, 0, 0, True), (0, _CHUNK, 1, True)], 5)
@example(
    [(0, 1, 0, False), (1, _CHUNK - 1, 0, False), (2, 2, 0, False), (3, _CHUNK, 0, False), (0, 2, 0, True)],
    cli._MEMO_TEXTS,
)
def test_a_run_sharing_one_params_memo_writes_every_block_as_the_reference(specs, memo_texts):
    # tasks of 0 rows, 1 row and the chunk size +- 1 rows, whose values recur
    # under the same names, the same names in another order and other names;
    # a names tuple that is an equal copy must keep the writer's texts, and
    # a writer that outgrows a memo of 5 texts gives them up midway.  The
    # serial run shares one writer across the tasks, and so does the pooled
    # run's one worker, whose loop runs in process here.
    tasks = []
    for k, (which, size, offset, copy) in enumerate(specs):
        names = TASK_NAMES[which]
        results = task_results(tuple(list(names)) if copy else names, size, offset)
        tasks.append((f"t{k}%s", list, results))
    config = {"families": [label for label, *_ in tasks]}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        # every task and the run take no time, so the timing text is known
        mp.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        mp.setattr(cli, "_MEMO_TEXTS", memo_texts)
        mp.setattr(cli, "_forked", inline_workers([]))
        out = os.path.join(tmp, "report")
        for fmt, workers in itertools.product(("json", "tsv", "human"), (1, 2)):
            code = cli._run(config, tasks, fmt, out, workers)
            failed = any(not r.passed for _, _, results in tasks for r in results)
            assert code == int(failed)
            with open(out, "rb") as fh:
                got = fh.read().decode("ascii")
            want = json_report_of(config, tasks) if fmt == "json" else text_report_of(tasks, fmt)
            assert_same_text(got, want)


@pytest.fixture
def private_tmpdir(tmp_path, monkeypatch):
    """An empty TMPDIR of this test's own, for this process and the pool workers it forks."""
    tmp = tmp_path / "tmpdir"
    tmp.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    return tmp


def cli_state() -> dict:
    """Each module attribute of cli, with a copy of its contents if it is a dict, list or set."""
    return {
        name: (value, value.copy() if isinstance(value, (dict, list, set)) else None)
        for name, value in vars(cli).items()
    }


def assert_same_state(before: dict, after: dict) -> None:
    assert after.keys() == before.keys()
    changed = [name for name, pair in before.items() if after[name][0] is not pair[0] or after[name][1] != pair[1]]
    assert changed == []


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("outcome", ["pass", "inject", "raise"])
def test_no_spool_file_and_no_params_memo_outlive_a_run(
    capsys, monkeypatch, tmp_path, private_tmpdir, outcome, workers
):
    from qpartid.identities import get_descriptor

    argv = [
        "verify",
        *("--family", "delta", "--family", "result1", "--family", "comb01"),
        *("--n-max", "3", "--m-max", "3", "--workers", workers, "--format", "tsv"),
    ]
    if outcome == "inject":
        argv.append("--inject-failure")
    if outcome == "raise":

        def broken(*axes):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(get_descriptor("result1"), "prepare", broken)
    out = tmp_path / "report.tsv"
    out.write_bytes(b"an earlier report\n")
    # every cache lives in the run's writers, so no run, serial or pooled, writes a module attribute
    before = cli_state()
    code, stdout, _ = run_cli(capsys, *argv, "--out", str(out))
    assert_same_state(before, cli_state())
    assert (code, stdout) == ({"pass": 0, "inject": 1, "raise": 3}[outcome], "")
    if outcome == "raise":
        assert out.read_bytes() == b"an earlier report\n"
    else:
        assert out.read_bytes().count(b"\n") == 1 + 16 + 16 + 16
    assert list(private_tmpdir.iterdir()) == []


@pytest.mark.parametrize("outcome", ["pass", "raise", "killed"])
def test_no_worker_outlives_a_run(capsys, monkeypatch, tmp_path, private_tmpdir, outcome):
    # the runner SIGKILLs and reaps every worker it forked, however the run ends
    from qpartid.identities import get_descriptor

    test_pid = os.getpid()
    prepare = get_descriptor("result1").prepare

    def broken(*axes):
        raise RuntimeError("injected fault")

    def killed(*axes):
        # only a worker dies; run in this process, the family would kill the test
        if os.getpid() != test_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return prepare(*axes)

    if outcome != "pass":
        monkeypatch.setattr(get_descriptor("result1"), "prepare", {"raise": broken, "killed": killed}[outcome])
    out = tmp_path / "report.tsv"
    code, stdout, err = run_cli(
        capsys, "verify", *("--family", "delta", "--family", "result1", "--family", "comb01"),
        *("--n-max", "3", "--m-max", "3", "--workers", "2", "--format", "tsv", "--out", str(out)),
    )
    assert (code, stdout) == ({"pass": 0, "raise": 3, "killed": 3}[outcome], "")
    if outcome == "pass":
        assert err == "" and out.read_bytes().count(b"\n") == 1 + 16 + 16 + 16
    else:
        cause = {"raise": "RuntimeError: injected fault", "killed": "a worker exited before the task finished"}
        assert err == f"error: result1: {cause[outcome]}\n"
        assert not out.exists()
    assert list(private_tmpdir.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_has_no_global_statement():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)] == []


def test_a_pool_worker_sends_back_the_path_of_its_spooled_block(capsys, monkeypatch, private_tmpdir):
    # the worker's loop runs in process here, so the runner's outcomes can be read
    outcomes = []
    pooled = cli._outcomes

    def recording(*args):
        with contextlib.closing(pooled(*args)) as inner:
            for outcome in inner:
                outcomes.append(outcome)
                yield outcome

    monkeypatch.setattr(cli, "_forked", inline_workers([]))
    monkeypatch.setattr(cli, "_outcomes", recording)
    argv = ("verify", "--family", "delta", "--family", "result1", "--n-max", "2", "--m-max", "2")
    code, pooled_out, _ = run_cli(capsys, *argv, "--workers", "2", "--format", "tsv")
    assert code == 0
    assert [outcome[:4:2] for outcome in outcomes] == [("delta", 9), ("result1", 9)]
    for *_, path in outcomes:
        spool = pathlib.Path(path).parent
        assert spool.parent == private_tmpdir and not spool.exists()
    assert list(private_tmpdir.iterdir()) == []
    assert pooled_out == run_cli(capsys, *argv, "--workers", "1", "--format", "tsv")[1]


def test_only_a_run_of_more_than_one_task_keeps_a_params_memo(capsys, monkeypatch):
    # each render_report call of a run: its label, the run's writer and the writer's caches after the call
    calls = []
    render = cli.render_report

    def recording(label, results, fmt, took, writer=None):
        text = render(label, results, fmt, took, writer)
        calls.append((label, writer, writer.memo, writer.template, writer.texts))
        return text

    monkeypatch.setattr(cli, "render_report", recording)
    # a pooled run's one worker, run in process here, writes every task
    monkeypatch.setattr(cli, "_forked", inline_workers([]))
    # a one-task run keeps no params texts
    for argv in (
        ("oracle-diff", "--n-max", "3"),
        ("verify", "--family", "delta", "--n-max", "3", "--m-max", "3", "--workers", "1"),
    ):
        calls.clear()
        assert run_cli(capsys, *argv, "--format", "tsv")[0] == 0
        assert calls and all(not memo and texts is None for _, _, memo, _, texts in calls)
    argv = ("verify", "--family", "delta", "--family", "result1", "--family", "theorem1")
    grid = ("--n-max", "3", "--m-max", "3", "--p-max", "1")
    # the serial run's writer and a worker's writer each keep them across their tasks
    memo_texts = cli._MEMO_TEXTS
    for workers in ("1", "2"):
        calls.clear()
        monkeypatch.setattr(cli, "_MEMO_TEXTS", memo_texts)
        assert run_cli(capsys, *argv, *grid, "--workers", workers, "--format", "tsv")[0] == 0
        # one writer: delta fills its texts, result1 reads the same ones, theorem1's names replace them
        (_, writer, memo, delta, delta_texts), (_, *result1), (_, *theorem1) = calls
        assert memo and [label for label, *_ in calls] == ["delta", "result1", "theorem1"]
        assert result1[0] is writer and result1[2] is delta and result1[3] is delta_texts and len(delta_texts) == 16
        assert theorem1[0] is writer and theorem1[2] != delta and theorem1[3] is not delta_texts
        # past the cap the writer keeps the names' template and gives up their texts
        calls.clear()
        monkeypatch.setattr(cli, "_MEMO_TEXTS", 10)
        assert run_cli(capsys, *argv, *grid, "--workers", workers, "--format", "tsv")[0] == 0
        for _, _, memo, template, texts in calls[:2]:
            assert memo and template == delta and texts is None


@pytest.mark.parametrize("workers", ["1", "2"])
def test_each_verdict_text_is_built_once_per_task(capsys, monkeypatch, workers):
    # the text around params of a verdict outlives the 1,024-row chunk it was
    # built in, for the rest of its task: on the qpoly workload's grid each
    # resdbl family builds its distinct verdicts' texts once
    built = collections.Counter()
    template_of, fixed_of, sep = cli._ROW_FORMATS["json"]

    def counting(label, verdict):
        built[label] += 1
        return fixed_of(label, verdict)

    monkeypatch.setitem(cli._ROW_FORMATS, "json", (template_of, counting, sep))
    monkeypatch.setattr(cli, "_forked", inline_workers([]))
    families = [arg for i in range(1, 5) for arg in ("--family", f"resdbl{i}")]
    grid = ("--n-max", "7", "--m-max", "7", "--p-max", "7")
    assert run_cli(capsys, "verify", *families, *grid, "--workers", workers, "--format", "json")[0] == 0
    assert built == {"resdbl1": 234, "resdbl2": 234, "resdbl3": 95, "resdbl4": 95}
    if workers == "1":
        built.clear()
        assert run_cli(capsys, "verify", "--all", "--workers", "1", "--format", "json")[0] == 0
        assert sum(built.values()) == 7061

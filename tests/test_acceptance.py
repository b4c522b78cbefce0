"""Acceptance gate: every criterion at its full grid, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with its grid size and wall time.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

from qpartid.bigpoly import coeff_at, poly_eval_int, poly_shift
from qpartid.identities import (
    check_F_theorem,
    q_identity_sides,
    registry,
    run_identity,
    standard_f_sequences,
)
from qpartid.partitions import (
    PartitionSpec,
    count_P,
    count_P_star,
    count_Q,
    enumerate_partitions,
)
from qpartid.qbinom import binom, binom2, bracket_base, gaussian, gaussian_product_form_check, gaussian_symmetry_check


def report(criterion, detail, started):
    print(f"ACCEPTANCE {criterion} PASS: {detail} ({time.perf_counter() - started:.1f}s)")


def run_grid(identity_id, grid=None):
    results = run_identity(identity_id, grid)
    failed = [r for r in results if not r.passed]
    assert not failed, (identity_id, failed[0].params, failed[0].first_mismatch)
    return len(results)


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    cases = 0
    for n in range(21):
        for m in range(n + 1):
            for p in range(n + 1):
                plain = enumerate_partitions(PartitionSpec(n, exact_parts=m, max_part=p))
                assert len(plain) == count_P(n, m, p), (n, m, p)
                distinct = enumerate_partitions(
                    PartitionSpec(n, exact_parts=m, max_part=p, distinct=True)
                )
                assert len(distinct) == count_Q(n, m, p), (n, m, p)
                cases += 1
    report(1, f"DP counts match enumeration on {cases} (n,m,p) triples, n <= 20", started)


def test_criterion_2_gaussian_properties():
    started = time.perf_counter()
    for m in range(11):
        for p in range(11):
            g = gaussian(m, p)
            d = m * p
            assert (g.degree or 0) == d
            for i in range(d + 1):
                assert coeff_at(g, i) == coeff_at(g, d - i), (m, p, i)
            assert poly_eval_int(g, 1) == binom(m + p, m)
            for n in range(d + 1):
                assert coeff_at(g, n) == count_P_star(n, m, p)
            assert gaussian_product_form_check(m, p)
            assert gaussian_symmetry_check(m, p)
    report(2, "degree/palindrome/q=1/coefficients/product-form/symmetry for m,p <= 10", started)


def test_criterion_3_correspondences():
    started = time.perf_counter()
    # both default grids are the 16^3 cube n, m, p <= 15
    cases = run_grid("pnmp_correspondence") + run_grid("qnmp_correspondence")
    report(3, f"both count correspondences on {cases} cases of the 16^3 grid", started)


def test_criterion_4_generating_functions():
    started = time.perf_counter()
    cases = run_grid("genfun")  # p <= 6 with q_order 30, z_degree 8
    report(4, f"both product expansions match counts for {cases} values of p", started)


def test_criterion_5_count_identities():
    started = time.perf_counter()
    total = 0
    for identity_id in (
        "theorem1",
        "theorem2",
        "theorem3",
        "theorem6",
        "theorem7",
        "theorem8",
        "theorem9",
        "theorem_simple",
        "qstar_relation",
        "sine_vanishing_6",
        "sine_vanishing_7",
        "pmost_chain",
        "pn_from_q",
        "qn_double_sum",
    ):
        total += run_grid(identity_id)
    report(5, f"counting identities pass on {total} cases", started)


def test_criterion_6_q_identities():
    started = time.perf_counter()
    total = 0
    for identity_id in (
        "delta",
        "result1",
        "result2",
        "result3",
        "result4",
        "result5",
        "result6",
        "resdbl1",
        "resdbl2",
        "resdbl3",
        "resdbl4",
        "corollary_2_4",
        "corollary_3_4",
    ):
        total += run_grid(identity_id)
    report(6, f"polynomial identities pass on {total} cases (corollaries incl. odd-zero forms)", started)


def test_criterion_7_f_theorem():
    started = time.perf_counter()
    cases = 0
    for n in range(9):
        for m in range(9):
            for sign_on in ("k", "l"):
                for _, seq in standard_f_sequences(n, m):
                    assert check_F_theorem(seq, n, m, sign_on).passed, (n, m, sign_on)
                    cases += 1
    # the first two double-sum identities are instances of the theorem
    for n in range(4):
        for m in range(3):
            for p in range(3):
                for a in (0, 1):
                    for c in (1, 2):
                        seq = tuple(
                            poly_shift(bracket_base(p + n - j, p, c), a * binom2(n - j))
                            for j in range(n + 1)
                        )
                        for sign_on, name in (("k", "resdbl1"), ("l", "resdbl2")):
                            assert check_F_theorem(seq, n, m, sign_on).passed
                            params = {"n": n, "m": m, "p": p, "a": a, "b": 1, "c": c}
                            lhs, rhs = q_identity_sides(name, params)
                            assert lhs == rhs == seq[0]
                            cases += 1
    report(7, f"triangle theorem on {cases} (F, sign) instances incl. double-sum reduction", started)


def test_criterion_8_combinatorial_identities():
    started = time.perf_counter()
    # anchor: the first even-split binomial identity at m=2, n=3 gives 28
    lhs = sum(binom(3, 2 * k) * binom(5 - k, 2) for k in range(4))
    assert lhs == binom(8, 2) == 28
    total = 0
    comb_ids = [d.id for d in registry() if d.kind == "combinatorial_q1"]
    assert len(comb_ids) == 26
    for identity_id in comb_ids:
        total += run_grid(identity_id)
    report(8, f"all 26 combinatorial identities pass on {total} cases", started)


def test_criterion_9_cli_contract():
    started = time.perf_counter()

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "qpartid", *argv], capture_output=True, text=True, env=env
        )

    full = cli("verify", "--all", "--preset", "desk", "--format", "json")
    assert full.returncode == 0, full.stderr
    full_report = json.loads(full.stdout)
    assert full_report["totals"]["failures"] == 0
    assert full_report["totals"]["cases"] > 70000

    injected = cli(
        "verify", "--family", "delta", "--n-max", "2", "--m-max", "2",
        "--inject-failure", "--format", "json",
    )
    assert injected.returncode == 1
    failing = [r for r in json.loads(injected.stdout)["results"] if not r["pass"]]
    assert len(failing) == 1 and failing[0]["first_mismatch"] is not None

    unknown = cli("verify", "--family", "definitely_not_real")
    assert unknown.returncode == 2

    report(9, f"desk preset ({full_report['totals']['cases']} cases) exit 0; injected exit 1; unknown exit 2", started)

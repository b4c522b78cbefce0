"""The identity registry: transcriptions, weights, and cross-checks."""

import functools
import hashlib
import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qpartid.bigpoly import (
    IntPoly,
    ONE,
    ZERO,
    poly_add,
    poly_eval_int,
    poly_mul,
    poly_scale,
    poly_shift,
    slot_width,
    unpack,
)
from qpartid import identities
from qpartid.identities import (
    KIND_COMBINATORIAL,
    KIND_Q_POLYNOMIAL,
    IdentityDescriptor,
    check_F_theorem,
    check_genfun,
    evaluate_case,
    genfun_table,
    get_descriptor,
    iter_cases,
    parity_sum_sides,
    q_identity_sides,
    registry,
    standard_f_sequences,
    triangle_sum,
    twice_cos,
    twice_sin_over_sqrt3,
)
from qpartid.partitions import (
    PartitionSpec,
    count_P,
    count_P_of,
    count_P_star,
    count_Q,
    count_Q_nm,
    count_Q_of,
    count_Q_star,
    enumerate_partitions,
)
from qpartid.qbinom import binom, binom2, bracket_base

RESDBL = ("resdbl1", "resdbl2", "resdbl3", "resdbl4")


def case_sides(identity_id, *values):
    """One case's sides, as the family's prepare builds them for the one-point grid at values."""
    sides, _ = get_descriptor(identity_id).prepare(*([value] for value in values))
    return sides(*values)


# --- weight tables ----------------------------------------------------------


def test_twice_cos_table():
    assert [twice_cos(j) for j in range(6)] == [2, 1, -1, -2, -1, 1]
    for j in range(-20, 21):
        assert twice_cos(j + 6) == twice_cos(j)
        assert twice_cos(-j) == twice_cos(j)


def test_twice_sin_table():
    assert [twice_sin_over_sqrt3(j) for j in range(6)] == [0, 1, 1, 0, -1, -1]
    for j in range(-20, 21):
        assert twice_sin_over_sqrt3(j + 6) == twice_sin_over_sqrt3(j)
        assert twice_sin_over_sqrt3(-j) == -twice_sin_over_sqrt3(j)


# the weights w(k) at n, from their formulas: the reference oracles below read
# these, never the table under test
WEIGHT_FORMULAS = {
    identities._PLAIN: lambda k, n: 1,
    identities._ALT: lambda k, n: (-1) ** k,
    identities._COS: lambda k, n: twice_cos(2 * k - n),
    identities._SIN: lambda k, n: twice_sin_over_sqrt3(n - 2 * k),
}


def weight_period(weight):
    """The least period in k of a weight's formula, at every n."""
    w = WEIGHT_FORMULAS[weight]
    return next(t for t in range(1, 7) if all(w(k + t, n) == w(k, n) for k in range(6) for n in range(6)))


def test_the_period_table_is_each_weight_formula_over_one_period():
    table = identities._PERIOD_WEIGHTS
    assert set(table) == set(WEIGHT_FORMULAS)
    assert {weight: weight_period(weight) for weight in table} == {
        identities._PLAIN: 1, identities._ALT: 2, identities._COS: 3, identities._SIN: 3,
    }
    for weight, w in WEIGHT_FORMULAS.items():
        # tuples, so no reader can change the table every reader shares
        assert type(table[weight]) is tuple and len(table[weight]) == 6
        for n in range(41):
            period = table[weight][n % 6]
            assert type(period) is tuple and len(period) == weight_period(weight)
            assert [period[k % len(period)] for k in range(41)] == [w(k, n) for k in range(41)], (weight, n)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    outer=st.lists(st.integers(-9, 9), min_size=24, max_size=24),
    inner=st.lists(st.integers(-9, 9), min_size=24, max_size=24),
    n=st.integers(0, 20),
    d=st.integers(1, 4),
    extra=st.integers(0, 3),
)
@example(weights=[-2, 1, 0], outer=[5] * 24, inner=[7] * 24, n=2, d=3, extra=0)
@example(weights=[1, -1], outer=list(range(24)), inner=list(range(-12, 12)), n=20, d=1, extra=3)
def test_weighted_sum_is_the_literal_sum(weights, outer, inner, n, d, extra):
    # rows may run past the terms the sum reads; n < d reads k = 0 alone
    outer, inner = outer[: n + 1 + extra], inner[: n // d + 1 + extra]
    expected = sum(weights[k % len(weights)] * outer[n - d * k] * inner[k] for k in range(n // d + 1))
    assert identities._weighted_sum(weights, outer, inner, n, d) == expected
    # any iterable of weights, read once
    assert identities._weighted_sum(iter(weights), outer, inner, n, d) == expected


# --- registry shape ---------------------------------------------------------


def test_registry_ids_unique():
    ids = [d.id for d in registry()]
    assert len(ids) == len(set(ids))


def test_registry_core_q_identities():
    # the ten labelled single- and double-sum q-binomial results
    labelled = {
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
    }
    core = [d for d in registry() if d.id in labelled]
    assert len(core) == 10
    assert {d.kind for d in core} == {KIND_Q_POLYNOMIAL}
    assert labelled == (set(identities._Q_SUMS) - {"delta"}) | set(identities.RESDBL_IDS)


def test_registry_combinatorial_count():
    combs = [d for d in registry() if d.kind == KIND_COMBINATORIAL]
    assert len(combs) == 26
    assert [d.id for d in combs] == [f"comb{i:02d}" for i in range(1, 27)]
    # each names the q row it specialises
    q_rows = {**identities._Q_SUMS, **identities._RESDBL, **identities._COROLLARIES}
    assert all(spec[1] in q_rows for spec in identities._COMB_SUMS.values())


def test_registry_expected_ids_present():
    ids = {d.id for d in registry()}
    for required in (
        "delta",
        "corollary_2_4",
        "corollary_3_4",
        "f_theorem",
        "theorem1",
        "theorem2",
        "theorem3",
        "theorem6",
        "theorem7",
        "theorem8",
        "theorem9",
        "theorem_simple",
        "qstar_relation",
        "pn_from_q",
        "qn_double_sum",
        "pmost_chain",
        "sine_vanishing_6",
        "sine_vanishing_7",
        "pnmp_correspondence",
        "qnmp_correspondence",
        "genfun",
    ):
        assert required in ids, required


def test_get_descriptor_unknown():
    with pytest.raises(KeyError):
        get_descriptor("no_such_identity")


# --- q-polynomial identities ------------------------------------------------


def test_delta_examples():
    for m in range(6):
        lhs, rhs = q_identity_sides("delta", {"n": 0, "m": m})
        assert lhs == rhs == ONE
    r = evaluate_case("delta", {"n": 4, "m": 2})
    assert r.passed and r.first_mismatch is None
    assert r.lhs_hash == r.rhs_hash


def test_result1_single_term_case():
    lhs, rhs = q_identity_sides("result1", {"n": 1, "m": 3})
    assert lhs == rhs == bracket_base(4, 1) == IntPoly([1, 1, 1, 1])


def test_result2_hand_computed_case():
    # n=2, m=1: (1+q+q^2) - (1+q^2) on the left, q^C(2,2) * [2 choose 2] on the right
    lhs, rhs = q_identity_sides("result2", {"n": 2, "m": 1})
    assert lhs == rhs == IntPoly([0, 1])


def test_resdbl3_spot_case():
    r = evaluate_case("resdbl3", {"n": 2, "m": 2, "p": 3, "a": 1, "b": 1, "c": 1})
    assert r.passed


@pytest.mark.parametrize("name", ["delta", "result1", "result2", "result3", "result4", "result5", "result6"])
def test_single_sum_identities_small_grid(name):
    for n in range(7):
        for m in range(7):
            assert evaluate_case(name, {"n": n, "m": m}).passed, (name, n, m)


@pytest.mark.parametrize("name", RESDBL)
def test_resdbl_small_grid(name):
    for n in range(4):
        for m in range(4):
            for p in range(4):
                for a in (0, 2):
                    for b in (1, 2):
                        for c in (1, 2):
                            params = {"n": n, "m": m, "p": p, "a": a, "b": b, "c": c}
                            assert evaluate_case(name, params).passed, params


def test_q_identity_domain_rejection():
    with pytest.raises(ValueError):
        evaluate_case("delta", {"n": -1, "m": 0})
    with pytest.raises(ValueError):
        evaluate_case("resdbl1", {"n": 1, "m": 1, "p": 1, "a": 0, "b": 0, "c": 1})


def test_q_identity_sides_rejects_unknowns():
    with pytest.raises(KeyError):
        q_identity_sides("resdbl9", {"n": 1, "m": 1, "p": 1, "a": 0, "b": 1, "c": 1})


# --- parity corollaries -----------------------------------------------------


def explicit_corollary_2_4_sides(n, m):
    lhs = ZERO
    for k in range(n + 1):
        for l in range(n - k + 1):
            if (k + l) % 2:
                continue
            term = poly_shift(
                poly_mul(
                    poly_mul(bracket_base(m + k, m), bracket_base(m + l, m)),
                    bracket_base(m + 1, n - k - l),
                ),
                binom2(n - k - l),
            )
            lhs = poly_add(lhs, term if k % 2 == 0 else poly_scale(term, -1))
    return lhs, bracket_base(m + n, m)


def explicit_corollary_3_4_sides(n, m):
    lhs = ZERO
    for k in range(n + 1):
        for l in range(n - k + 1):
            if (k + l) % 2:
                continue
            term = poly_shift(
                poly_mul(
                    poly_mul(bracket_base(m + 1, k), bracket_base(m + 1, l)),
                    bracket_base(m + n - k - l, m),
                ),
                binom2(k) + binom2(l),
            )
            lhs = poly_add(lhs, term if k % 2 == 0 else poly_scale(term, -1))
    return lhs, poly_shift(bracket_base(m + 1, n), binom2(n))


def test_corollaries_match_their_explicit_forms():
    for n in range(7):
        for m in range(6):
            derived = q_identity_sides("corollary_2_4", {"n": n, "m": m})
            assert derived == explicit_corollary_2_4_sides(n, m), (n, m)
            derived = q_identity_sides("corollary_3_4", {"n": n, "m": m})
            assert derived == explicit_corollary_3_4_sides(n, m), (n, m)


def test_corollaries_pass_and_include_odd_zero_forms():
    for name in ("corollary_2_4", "corollary_3_4"):
        for n in range(7):
            for m in range(6):
                assert evaluate_case(name, {"n": n, "m": m}).passed


def test_odd_combination_sums_vanish():
    for corollary_id in ("corollary_2_4", "corollary_3_4"):
        for n in range(6):
            for m in range(5):
                lhs, rhs = parity_sum_sides(corollary_id, "odd", n, m)
                assert rhs == ZERO
                assert lhs == ZERO, (corollary_id, n, m)


def test_parity_sum_sides_rejections():
    with pytest.raises(ValueError):
        parity_sum_sides("resdbl2", "even", 1, 1)
    with pytest.raises(ValueError):
        parity_sum_sides("corollary_2_4", "mixed", 1, 1)


# --- the triangle theorem ---------------------------------------------------


def test_f_theorem_delta_sequence():
    for n in range(6):
        for m in range(5):
            f = (ONE,) + (ZERO,) * n
            for sign_on in ("k", "l"):
                assert check_F_theorem(f, n, m, sign_on).passed


def test_f_theorem_single_term_at_n_zero():
    f = (IntPoly([3, 1]),)
    r = check_F_theorem(f, 0, 4, "k")
    assert r.passed  # the k=l=0 term is F(0) itself


def test_f_theorem_power_sequence():
    for n in range(6):
        for m in range(5):
            f = tuple(poly_shift(ONE, j) for j in range(n + 1))
            for sign_on in ("k", "l"):
                assert check_F_theorem(f, n, m, sign_on).passed


def test_f_theorem_guards():
    with pytest.raises(ValueError):
        check_F_theorem((ONE,), 2, 1, "k")  # too short
    with pytest.raises(ValueError):
        check_F_theorem((ONE, ONE, ONE), 2, 1, "kl")


def test_f_theorem_registry_check():
    for n in range(5):
        for m in range(4):
            assert evaluate_case("f_theorem", {"n": n, "m": m}).passed
    assert len(standard_f_sequences(4, 2)) == 3


def test_f_theorem_reduces_to_resdbl():
    # the double-sum identities are instances of the triangle theorem with
    # F(j) = q^(a*C(n-j,2)) * bracket(p+n-j, p or n-j) in base q^c
    for n in range(4):
        for m in range(3):
            for p in range(3):
                for a in (0, 1):
                    for b in (1, 2):
                        for c in (1, 2):
                            f12 = tuple(
                                poly_shift(bracket_base(p + n - j, p, c), a * binom2(n - j))
                                for j in range(n + 1)
                            )
                            f34 = tuple(
                                poly_shift(bracket_base(p, n - j, c), a * binom2(n - j))
                                for j in range(n + 1)
                            )
                            for seq, sign_on, name in (
                                (f12, "k", "resdbl1"),
                                (f12, "l", "resdbl2"),
                                (f34, "k", "resdbl3"),
                                (f34, "l", "resdbl4"),
                            ):
                                assert check_F_theorem(seq, n, m, sign_on, base=b).passed
                                params = {"n": n, "m": m, "p": p, "a": a, "b": b, "c": c}
                                lhs, rhs = q_identity_sides(name, params)
                                # same triangle, same summand: the F-theorem total is the lhs
                                assert seq[0] == rhs
                                assert lhs == rhs


_INT_POLY = st.lists(st.integers(-5, 5), max_size=5).map(IntPoly)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n=st.integers(0, 6),
    m=st.integers(0, 4),
    b=st.sampled_from([1, 2]),
    sign_on=st.sampled_from(["k", "l"]),
)
def test_triangle_sum_property(data, n, m, b, sign_on):
    # the theorem holds for every sequence F, not only the stock ones
    F = data.draw(st.lists(_INT_POLY, min_size=n + 1, max_size=n + 1))
    assert triangle_sum(F, n, m, b, sign_on) == F[0]
    # the two halves of each parity corollary add up to its whole double sum
    for corollary_id, variant, p, a in (
        ("corollary_2_4", "resdbl2", m, 0),
        ("corollary_3_4", "resdbl3", m + 1, 1),
    ):
        even, _ = parity_sum_sides(corollary_id, "even", n, m)
        odd, _ = parity_sum_sides(corollary_id, "odd", n, m)
        params = {"n": n, "m": m, "p": p, "a": a, "b": 1, "c": 1}
        assert poly_add(even, odd) == q_identity_sides(variant, params)[0]


def triangle_sum_by_terms(F, n, m, b, sign_on, parity=None):
    """Reference oracle: the triangle sum term by term, one product per (k, l)."""
    total = ZERO
    for k in range(n + 1):
        for l in range(n - k + 1):
            signed, unsigned = (k, l) if sign_on == "k" else (l, k)
            if parity is not None and (n - unsigned) % 2 != parity:
                continue
            pb = poly_shift(
                poly_mul(bracket_base(m + 1, k, b), bracket_base(m + l, m, b)), b * binom2(k)
            )
            term = poly_mul(F[k + l], pb)
            total = poly_add(total, poly_scale(term, -1) if signed % 2 else term)
    return total


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    n=st.integers(0, 7),
    m=st.integers(0, 5),
    b=st.sampled_from([1, 2, 3]),
    sign_on=st.sampled_from(["k", "l"]),
    parity=st.sampled_from([None, 0, 1]),
)
def test_triangle_sum_diagonals_match_the_term_by_term_sum(data, n, m, b, sign_on, parity):
    F = data.draw(st.lists(_INT_POLY, min_size=n + 1, max_size=n + 1))
    expected = triangle_sum_by_terms(F, n, m, b, sign_on, parity)
    if parity is None:
        assert triangle_sum(F, n, m, b, sign_on) == expected
    else:
        # a half reads the diagonals that keep its unsigned index u = n - parity (mod 2)
        keep = (n - parity) % 2
        assert identities._diagonal_sum(F[n::-1], n, *identities._diagonals(m, b, sign_on, keep, n)) == expected


def test_triangle_diagonals_cancel_past_the_origin():
    # the paper's cancellation, read off the diagonals themselves, each row
    # grown in two steps: through j = 3, then through j = 8
    identities._ROWS.clear()
    for m in range(7):
        for b in (1, 2, 3):
            for sign_on in ("k", "l"):
                identities._diagonals(m, b, sign_on, None, 3)
                g, nonzero = identities._diagonals(m, b, sign_on, None, 8)
                assert g == [ONE] + [ZERO] * 8, (m, b, sign_on)
                assert nonzero == [0]


@pytest.mark.parametrize(
    "call, got",
    [
        (lambda F: triangle_sum(F, 2, 1, 0, "k"), "b = 0"),
        (lambda F: triangle_sum(F, 2, 1, -3, "k"), "b = -3"),
        (lambda F: triangle_sum(F, 2, -1, 1, "k"), "m = -1"),
        (lambda F: check_F_theorem(F, 2, 1, "k", base=0), "b = 0"),
        (lambda F: check_F_theorem(F, 2, -1, "l"), "m = -1"),
        (lambda F: parity_sum_sides("corollary_2_4", "even", 2, -1), "m = -1"),
        (lambda F: parity_sum_sides("corollary_3_4", "odd", -1, 2), "n = -1"),
    ],
    ids=[
        "triangle_sum-b0", "triangle_sum-b-3", "triangle_sum-m-1", "check_F_theorem-b0",
        "check_F_theorem-m-1", "parity_sum_sides-m-1", "parity_sum_sides-n-1",
    ],
)
def test_the_public_triangle_entry_points_check_m_and_b(call, got):
    # a base below 1 is not read as base 1, nor a negative m as an empty sum,
    # and nothing is built for the value that fails
    identities._ROWS.clear()
    with pytest.raises(ValueError, match=f"got {got}$"):
        call((ONE, ZERO, ONE))
    assert identities._ROWS == {}


def comb_triangle_by_terms(f, n, m, sign_on):
    """Reference oracle: the q = 1 triangle sum of f as a double loop over binomials."""
    lhs = 0
    for k in range(n + 1):
        for l in range(n - k + 1):
            sign = (-1) ** (k if sign_on == "k" else l)
            lhs += sign * binom(m + 1, k) * binom(m + l, m) * f[n - k - l]
    return lhs


# the q = 1 triangle (sign_on, F uses C(p+s, p)) that specialises each resdbl row
COMB_TRIANGLE_ROWS = {
    ("k", True): "comb16",
    ("l", True): "comb17",
    ("k", False): "comb18",
    ("l", False): "comb19",
}


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    n=st.integers(0, 20),
    m=st.integers(0, 20),
    sign_on=st.sampled_from(["k", "l"]),
)
def test_comb_triangle_diagonals_match_the_double_loop(data, n, m, sign_on):
    # any integer sequence f, not only the binomial ones of comb16-19
    f = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n + 1, max_size=n + 1))
    g = identities._row(identities._comb_diagonal, sign_on, m, None, top=n)
    assert sum(f[n - j] * g[j] for j in range(n + 1)) == comb_triangle_by_terms(f, n, m, sign_on)
    p = data.draw(st.integers(0, 12))
    for shifted_top in (True, False):
        f = [binom(p + s, p) if shifted_top else binom(p, s) for s in range(n + 1)]
        expected = (comb_triangle_by_terms(f, n, m, sign_on), f[n])
        comb_id = COMB_TRIANGLE_ROWS[sign_on, shifted_top]
        assert case_sides(comb_id, n, m, p) == expected


def test_comb_triangle_diagonals_vanish_past_the_origin():
    for m in range(21):
        for sign_on in ("k", "l"):
            g = identities._row(identities._comb_diagonal, sign_on, m, None, top=20)
            assert g[0] == 1
            assert g[1:21] == [0] * 20, (m, sign_on)


# --- counting identities ----------------------------------------------------


def test_theorem1_spot_case():
    r = evaluate_case("theorem1", {"n": 5, "m": 2, "p": 3})
    assert r.passed
    assert count_P(5, 2, 3) == 1


def test_theorem6_spot_case():
    assert evaluate_case("theorem6", {"n": 4, "m": 2, "p": 4}).passed


def test_theorem_simple_base_case():
    assert evaluate_case("theorem_simple", {"n": 0, "m": 0, "p": 3}).passed
    r = evaluate_case("theorem_simple", {"n": 2, "m": 1, "p": 3})
    assert r.passed


@pytest.mark.parametrize(
    "name",
    [
        "theorem1",
        "theorem2",
        "theorem3",
        "theorem6",
        "theorem7",
        "theorem8",
        "theorem9",
        "theorem_simple",
        "qstar_relation",
    ],
)
def test_count_identities_small_grid(name):
    for n in range(8):
        for m in range(8):
            for p in range(5):
                assert evaluate_case(name, {"n": n, "m": m, "p": p}).passed, (name, n, m, p)


def test_sine_vanishing_cases():
    assert evaluate_case("sine_vanishing_6", {"n": 3, "m": 2, "p": 3}).passed
    assert evaluate_case("sine_vanishing_7", {"n": 0, "m": 0, "p": 2}).passed
    for n in range(6):
        for m in (0, 3, 6):  # m divisible by 3
            for p in range(4):
                assert evaluate_case("sine_vanishing_6", {"n": n, "m": m, "p": p}).passed


def test_chain_and_special_cases():
    for n in range(9):
        for p in range(9):
            assert evaluate_case("pmost_chain", {"n": n, "p": p}).passed
    for n in range(15):
        assert evaluate_case("pn_from_q", {"n": n}).passed
        assert evaluate_case("qn_double_sum", {"n": n}).passed


def test_qn_double_sum_row_is_the_sum_as_stated():
    # the statement runs l to floor(n/2); the row stops where Q(k, l) is 0
    pair, _ = get_descriptor("qn_double_sum").prepare(range(61))
    for n in range(61):
        stated = sum(
            count_P_of(n - 2 * k) * sum((-1) ** l * count_Q_nm(k, l) for l in range(n // 2 + 1))
            for k in range(n // 2 + 1)
        )
        assert pair(n) == (count_Q_of(n), stated)


def test_pmost_chain_takes_its_left_side_from_the_one_shot_box_count(monkeypatch):
    # sum_k P(n, k, p) and P*(n, n, p) read the memo, so the left side must
    # not: with one memo entry bumped, pair 1 is the first to fail
    from qpartid import partitions

    memo = {}
    monkeypatch.setattr(partitions, "_memo_P", memo)
    monkeypatch.setattr(partitions, "_memo_Q", {})
    assert count_P(6, 3, 3) == 2
    memo[(6, 3, 3)] += 1
    r = evaluate_case("pmost_chain", {"n": 6, "p": 3})
    assert not r.passed
    assert r.first_mismatch == (7, 8)


def test_theorem2_specializes_to_the_chain():
    # at m=n the double sum collapses onto the bounded-part convolution
    from qpartid.partitions import count_P_nm, count_Q_star

    for n in range(8):
        for p in range(8):
            total = sum(
                count_Q_star(n - 2 * k, n - 2 * l, p) * count_P(k, l, p)
                for k in range(n // 2 + 1)
                for l in range(n // 2 + 1)
            )
            assert total == count_P(2 * n, n, p + 1) == count_P_nm(n + p, p)


def test_chain_convolution_at_p_equals_n_gives_unrestricted_form():
    # with the part bound at n the convolution loses its restrictions entirely
    from qpartid.partitions import count_P_nm, count_P_of, count_Q_most, count_Q_of

    for n in range(13):
        bounded = sum(
            count_Q_most(n - 2 * k, n) * count_P_nm(n + k, n) for k in range(n // 2 + 1)
        )
        unrestricted = sum(
            count_Q_of(n - 2 * k) * count_P_of(k) for k in range(n // 2 + 1)
        )
        assert bounded == unrestricted == count_P_of(n)


# --- generating functions ---------------------------------------------------


def test_genfun_empty_product():
    r = check_genfun(0, 8, 4)
    assert r.passed


def test_genfun_spot_coefficients():
    prod = genfun_table(2, 6, 3, distinct=False)
    assert prod[2][3] == count_P(3, 2, 2) == 1

    qprod = genfun_table(3, 6, 2, distinct=True)
    # oracle: partitions of 5 into two distinct parts of size at most 3
    oracle = enumerate_partitions(PartitionSpec(5, exact_parts=2, max_part=3, distinct=True))
    assert oracle == [[3, 2]]
    assert qprod[2][5] == count_Q(5, 2, 3) == len(oracle) == 1


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(0, 6),
    q_order=st.integers(0, 12),
    z_degree=st.integers(0, 5),
    distinct=st.booleans(),
)
def test_genfun_table_matches_enumeration(p, q_order, z_degree, distinct):
    # the enumeration oracle shares no code with the in-place table expansion
    table = genfun_table(p, q_order, z_degree, distinct)
    assert len(table) == z_degree + 1
    for m, row in enumerate(table):
        assert len(row) == q_order + 1
        for n, coeff in enumerate(row):
            spec = PartitionSpec(n, exact_parts=m, max_part=p, distinct=distinct)
            assert coeff == len(enumerate_partitions(spec)), (m, n)


def test_genfun_registry_grid():
    for p in range(5):
        assert evaluate_case("genfun", {"p": p}).passed
    with pytest.raises(ValueError):
        check_genfun(-1)


# --- combinatorial identities -----------------------------------------------


def test_comb01_base_case():
    assert evaluate_case("comb01", {"n": 0, "m": 5}).passed
    r = evaluate_case("comb01", {"n": 3, "m": 2})
    assert r.passed


def test_comb02_anchor_value():
    lhs = sum(binom(3, 2 * k) * binom(5 - k, 2) for k in range(4))
    assert lhs == binom(8, 2) == 28
    assert evaluate_case("comb02", {"n": 3, "m": 2}).passed


def test_comb23_anchor_case():
    assert evaluate_case("comb23", {"n": 1, "m": 1}).passed
    lhs = sum((-1) ** k * binom(1 + 4 * k, 1) * binom(2, 1 - k) for k in range(2))
    rhs = -sum(binom(2, 2 * k) * binom(2, 2 - k) for k in range(3))
    assert lhs == rhs == -3


def test_all_combinatorial_identities_small_grid():
    for d in registry():
        if d.kind != KIND_COMBINATORIAL:
            continue
        for n in range(7):
            for m in range(6):
                params = {"n": n, "m": m}
                if "p" in d.params:
                    for p in range(5):
                        assert evaluate_case(d.id, {**params, "p": p}).passed, (d.id, n, m, p)
                else:
                    assert evaluate_case(d.id, params).passed, (d.id, n, m)


# (q identity, dilation d, sign eps, comb ids for r = 0, 1, ...):
# comb(n, m) = eps^n * q-sides(d*n + r, m) at q = 1
Q1_SINGLE_SUMS = (
    ("delta", 1, 1, ("comb01",)),
    ("result1", 2, 1, ("comb02", "comb03")),
    ("result2", 2, -1, ("comb04", "comb05")),
    ("result3", 3, -1, ("comb06", "comb07", "comb08")),
    ("result4", 3, -1, ("comb09", "comb10", "comb11")),
    ("result5", 4, 1, ("comb12", "comb13", "comb14", "comb15")),
    ("result6", 4, -1, ("comb23", "comb24", "comb25", "comb26")),
)


def assert_comb_sides_at_q1(comb_id, params, q_sides, sign=1):
    # a combinatorial row hashes its two integers, so compare through the hashes
    def digest(value):
        return hashlib.sha256(str(value).encode("ascii")).hexdigest()

    result = evaluate_case(comb_id, params)
    lhs, rhs = (digest(sign * poly_eval_int(side, 1)) for side in q_sides)
    assert (result.lhs_hash, result.rhs_hash) == (lhs, rhs), (comb_id, params)


def test_q1_specialization_reproduces_combinatorial_sides():
    # every binomial identity is a polynomial one evaluated at q = 1, so a slip
    # in either evaluator shows here: the two layers read the same spec rows
    # but share no evaluator; every single sum runs to q-index 21 and m = 10
    for q_id, d, eps, comb_ids in Q1_SINGLE_SUMS:
        for r, comb_id in enumerate(comb_ids):
            for n, m in itertools.product(range((21 - r) // d + 1), range(11)):
                sides = q_identity_sides(q_id, {"n": d * n + r, "m": m})
                assert_comb_sides_at_q1(comb_id, {"n": n, "m": m}, sides, eps**n)

    for i, comb_id in enumerate(("comb16", "comb17", "comb18", "comb19")):
        for n, m, p in itertools.product(range(4), repeat=3):
            params = {"n": n, "m": m, "p": p}
            sides = q_identity_sides(RESDBL[i], {**params, "a": 1, "b": 1, "c": 1})
            assert_comb_sides_at_q1(comb_id, params, sides)

    for corollary_id, parity, comb_id in (
        ("corollary_2_4", "even", "comb20"),
        ("corollary_3_4", "even", "comb21"),
        ("corollary_2_4", "odd", "comb22"),
    ):
        for n, m in itertools.product(range(6), range(5)):
            sides = parity_sum_sides(corollary_id, parity, n, m)
            assert_comb_sides_at_q1(comb_id, {"n": n, "m": m}, sides)


# --- per-axis kernel tables -------------------------------------------------
#
# Each oracle below is the per-call loop its table replaced.  The queries come
# in drawn order, large before small as often as not, and each example starts
# from empty memos, so every way a table can grow is exercised.

COUNT_KERNELS = {
    "U": count_P,
    "V": count_Q,
    "Q*": count_Q_star,
    "P*": count_P_star,
    "P+": lambda a, b, p: count_P(a + b, b, p + 1),
}
COUNT_SIDES = sorted(
    {side for spec in identities._COUNT_SUMS.values() for side in spec if isinstance(side, tuple)}
)


def count_side(side, n, m, p):
    """One count side at one case, read as the count prepare of the one-point grid reads it."""
    sides, _ = identities._count_sums((side, identities._NIL), [n], [m], [p])
    return sides(n, m, p)[0]


def count_side_by_calls(side, n, m, p):
    """Reference oracle: a convolution row, one pair of kernel calls per term."""
    scale, a, b, d, weight = side
    outer, inner = COUNT_KERNELS[a], COUNT_KERNELS[b]
    total = 0
    for l in range(m // d + 1):
        w = WEIGHT_FORMULAS[weight](l, m)
        if w:
            total += w * sum(
                outer(n - d * k, m - d * l, p) * inner(k, l, p) for k in range(n // d + 1)
            )
    return scale * total


@functools.lru_cache(maxsize=None)
def count_plane_by_calls(side, p, rows, cols):
    """count_side_by_calls at every n < rows, m < cols; a plane's cells do not depend on when it was built."""
    return [[count_side_by_calls(side, n, m, p) for m in range(cols)] for n in range(rows)]


# a side whose 41-row plane the oracle fills in well under a second (d = 4)
WIDE_SIDE = identities._COUNT_SUMS["theorem9"][0]


@settings(max_examples=80, deadline=None)
@given(
    queries=st.lists(
        st.tuples(
            st.sampled_from(COUNT_SIDES),
            st.integers(0, 16),
            st.integers(0, 16),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=8,
    )
)
@example(queries=[(COUNT_SIDES[0], 16, 16, 2), (COUNT_SIDES[0], 3, 9, 2), (COUNT_SIDES[0], 9, 3, 2)])
@example(queries=[(WIDE_SIDE, 3, 9, 1), (WIDE_SIDE, 15, 15, 1), (WIDE_SIDE, 40, 5, 1)])
@example(queries=[(WIDE_SIDE, 40, 5, 3), (WIDE_SIDE, 3, 20, 3), (WIDE_SIDE, 2, 2, 0)])
def test_count_tables_match_the_per_call_convolution(queries):
    identities._ROWS.clear()
    for side, n, m, p in queries:
        assert count_side(side, n, m, p) == count_side_by_calls(side, n, m, p)
    tables = {key[1:]: t for key, t in identities._ROWS.items() if key[0] is identities._count_entry}
    assert tables
    # the store keeps the kernel tables, never a plane or a weight
    assert {key[0] for key in identities._ROWS} == {identities._count_entry}
    for (name, p), table in tables.items():
        # every cell of every kernel table is its kernel's value, grown by
        # the queries in their order
        for a, row in enumerate(table):
            assert row == [COUNT_KERNELS[name](a, b, p) for b in range(len(row))]
    for side, p in {(side, p) for side, _, _, p in queries}:
        # a plane built over the grown tables, at the largest n + 1 and m + 1
        # asked, is the oracle's at every cell
        asked = [(n, m) for s, n, m, q in queries if (s, q) == (side, p)]
        rows, cols = (max(top) + 1 for top in zip(*asked))
        plane = identities._count_plane(side, p, rows, cols)
        assert plane == count_plane_by_calls(side, p, rows, cols)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(0, 5),
    queries=st.lists(
        st.tuples(st.sampled_from(["P*", "Q*", "U", "V"]), st.integers(1, 14), st.integers(1, 14)),
        min_size=1,
        max_size=6,
    ),
)
@example(p=2, queries=[("P*", 3, 9), ("Q*", 9, 3), ("P*", 12, 12), ("Q*", 12, 12)])
@example(p=3, queries=[("U", 14, 14), ("P*", 2, 2), ("V", 5, 14), ("Q*", 14, 4), ("Q*", 6, 14)])
def test_star_tables_are_running_sums_cell_by_cell(p, queries):
    # P* and Q* grow in place as running sums of U and V along b, in either
    # direction and after their term tables have grown on their own
    identities._ROWS.clear()
    counts = {"P*": count_P_star, "Q*": count_Q_star, "U": count_P, "V": count_Q}
    for name, rows, cols in queries:
        identities._count_table(name, p, rows, cols)
        for star in ("P*", "Q*"):
            table = identities._ROWS.get((identities._count_entry, star, p), [])
            for a, row in enumerate(table):
                assert row == [counts[star](a, b, p) for b in range(len(row))], (star, a)
        table = identities._ROWS[(identities._count_entry, name, p)]
        assert len(table) >= rows and all(len(row) >= cols for row in table[:rows])
    identities._ROWS.clear()


def test_count_sides_are_zero_at_negative_indices():
    # every kernel, and so every convolution row, is zero at a negative index
    for side in COUNT_SIDES:
        for n, m in ((-1, 5), (5, -1), (-3, -3)):
            assert count_side_by_calls(side, n, m, 2) == 0
    for name, kernel in COUNT_KERNELS.items():
        for n, m in ((-1, 5), (5, -1), (-3, -3), (-1, 0)):
            assert kernel(n, m, 2) == 0, (name, n, m)
    # but a grid is indexed from 0, so the runner rejects a negative index
    # rather than let it wrap to the grid's far edge
    for identity_id in ("theorem6", "theorem_simple", "pnmp_correspondence"):
        for n, m in ((-1, 5), (5, -1), (-3, -3)):
            with pytest.raises(ValueError):
                evaluate_case(identity_id, {"n": n, "m": m, "p": 2})


# The eleven _COUNT_SUMS rows as they were written out before nine of them were
# derived from _Q_SUMS, over the count kernel names P (count_P) and Q (count_Q).
LITERAL_COUNT_SUMS = {
    "theorem1": ("P", (1, "Q", "P", 2, "plain")),
    "theorem2": ("P+", (1, "Q*", "P", 2, "plain")),
    "theorem3": ("Q", (1, "P", "Q", 2, "alt")),
    "theorem6": ((2, "Q", "P", 3, "alt"), (1, "P", "P", 1, "cos")),
    "theorem7": ((2, "P", "Q", 3, "alt"), (1, "Q", "Q", 1, "cos")),
    "theorem8": ((1, "Q", "P", 4, "plain"), (1, "P", "P", 2, "alt")),
    "theorem9": ((1, "P", "Q", 4, "alt"), (1, "Q", "Q", 2, "plain")),
    "theorem_simple": ((1, "P", "Q", 1, "alt"), "delta"),
    "qstar_relation": ("Q*", (1, "P+", "Q", 2, "alt")),
    "sine_vanishing_6": ((1, "P", "P", 1, "sin"), "zero"),
    "sine_vanishing_7": ((1, "Q", "Q", 1, "sin"), "zero"),
}


def over_q_kernel_names(spec):
    """spec with P and Q renamed U and V, the q kernels they stand in for."""
    if isinstance(spec, tuple):
        return tuple(over_q_kernel_names(part) for part in spec)
    return {"P": "U", "Q": "V"}.get(spec, spec)


def literal_count_entry(name, p, a, b):
    """The count kernel under its literal name, in _count_entry's signature."""
    return COUNT_KERNELS[over_q_kernel_names(name)](a, b, p)


def test_count_rows_are_the_literal_rows_under_the_q_kernel_names():
    literal = [(i, over_q_kernel_names(spec)) for i, spec in LITERAL_COUNT_SUMS.items()]
    assert list(identities._COUNT_SUMS.items()) == literal


@settings(max_examples=60, deadline=None)
@given(
    cases=st.lists(
        st.tuples(
            st.sampled_from(sorted(LITERAL_COUNT_SUMS)),
            st.integers(0, 16),
            st.integers(0, 16),
            st.integers(0, 4),
        ),
        min_size=1,
        max_size=8,
    )
)
@example(cases=[(identity_id, 16, 16, 4) for identity_id in LITERAL_COUNT_SUMS])
def test_count_rows_derived_from_q_rows_read_as_the_literal_rows(cases):
    # the literal rows go through _count_side too, over kernels under their old names
    identities._ROWS.clear()
    derived = [
        [count_side(side, n, m, p) for side in identities._COUNT_SUMS[i]]
        for i, n, m, p in cases
    ]
    with mock.patch.object(identities, "_count_entry", literal_count_entry):
        literal = [
            [count_side(side, n, m, p) for side in LITERAL_COUNT_SUMS[i]]
            for i, n, m, p in cases
        ]
    # leave no rows kept under the patched entry behind
    identities._ROWS.clear()
    assert derived == literal, cases


BINOM_ROWS = {
    "u": lambda m, top: [binom(m + j, m) for j in range(top + 1)],
    "v": lambda m, top: [binom(m + 1, j) for j in range(top + 1)],
    "f_shifted": lambda p, top: [binom(p + s, p) for s in range(top + 1)],
    "f_plain": lambda p, top: [binom(p, s) for s in range(top + 1)],
}


@settings(max_examples=80, deadline=None)
@given(
    queries=st.lists(
        st.tuples(st.sampled_from(sorted(BINOM_ROWS)), st.integers(0, 22), st.integers(0, 90)),
        min_size=1,
        max_size=10,
    )
)
@example(queries=[("u", 5, 90), ("v", 5, 3), ("f_shifted", 5, 40), ("f_plain", 6, 0)])
def test_binomial_rows_match_the_comprehensions(queries):
    identities._ROWS.clear()
    for form, x, top in queries:
        if form == "u":
            row = identities._u(x, top)
        elif form == "v":
            row = identities._v(x, top)
        else:
            row = identities._row(identities._binom_entry, form == "f_shifted", x, top=top)
        assert row[: top + 1] == BINOM_ROWS[form](x, top), (form, x, top)
        # the q = 1 triangle reads the F row and the diagonals from the same memos
        n = top % 21
        lhs = comb_triangle_by_terms(BINOM_ROWS["f_plain"](x, n), n, x % 21, "k")
        assert case_sides("comb18", n, x % 21, x) == (lhs, binom(x, n))


def q_kernel_by_brackets(name, m, d, indices):
    """Reference oracle: the kernel U or V at each index, built bracket by bracket."""
    if name == "U":
        return [bracket_base(m + j, m, d) for j in indices]
    return [poly_shift(bracket_base(m + 1, j, d), d * binom2(j)) for j in indices]


def q_side_by_terms(side, n, m):
    """Reference oracle: a single-sum side folded with poly_mul, poly_add and poly_scale, its kernels built for this case alone."""
    if side == identities._DELTA:
        return ONE if n == 0 else ZERO
    if isinstance(side, str):
        return q_kernel_by_brackets(side, m, 1, [n])[0]
    scale, a, b, d, weight = side
    weights = (WEIGHT_FORMULAS[weight](k, n) for k in range(n // d + 1))
    terms = [(k, scale * w) for k, w in enumerate(weights) if w]
    outer = q_kernel_by_brackets(a, m, 1, [n - d * k for k, _ in terms])
    inner = q_kernel_by_brackets(b, m, d, [k for k, _ in terms])
    total = ZERO
    for (_, w), x, y in zip(terms, outer, inner):
        term = poly_mul(x, y)
        total = poly_add(total, term if w == 1 else poly_scale(term, w))
    return total


@settings(max_examples=80, deadline=None)
@given(
    queries=st.lists(
        st.tuples(
            st.sampled_from(sorted(identities._Q_SUMS)),
            st.integers(0, 12),
            st.integers(0, 12),
        ),
        min_size=1,
        max_size=8,
    )
)
@example(queries=[("result3", 12, 12), ("result3", 2, 12), ("result6", 12, 0), ("delta", 0, 5)])
def test_q_sum_sides_match_the_per_case_kernel_build(queries):
    identities._ROWS.clear()
    for q_id, n, m in queries:
        expected = tuple(q_side_by_terms(side, n, m) for side in identities._Q_SUMS[q_id])
        assert q_identity_sides(q_id, {"n": n, "m": m}) == expected, (q_id, n, m)


def test_packed_q_sides_match_the_term_by_term_fold():
    # every side of every single sum at n, m <= 14, where the slot widths run
    # from 1 to 5 bytes: each side alone at the width its own bound sets, and
    # two sides as a case reads them, at the wider of the two.  Pairing each
    # side with delta, in either order, makes pairs whose sides differ.
    identities._ROWS.clear()
    widths = set()
    for q_id, spec in identities._Q_SUMS.items():
        for n, m in itertools.product(range(15), repeat=2):
            want = {side: q_side_by_terms(side, n, m) for side in (*spec, identities._DELTA)}
            for side, poly in want.items():
                width = slot_width(identities._q_bound(side, n, m))
                widths.add(width)
                read = identities._q_reader(side, m, width, n)
                assert unpack(read(n), width) == poly, (q_id, side, n, m)
            for pair in itertools.permutations(want, 2):
                sides, _ = identities._q_sums(pair, [n], [m])
                got = identities._poly_unkey(sides(n, m))
                assert got == tuple(want[side].coeffs for side in pair), (pair, n, m)
    assert widths == set(range(1, 6))


def test_packed_kernel_rows_keep_one_width_per_m(monkeypatch):
    # a family run packs each kernel it reads at m once, every one at the
    # slot its own grid needs at m, whichever family ran before it
    packed = []
    real = identities._q_packed

    def spy(name, m, d, width, top):
        packed.append((m, name, d, width))
        return real(name, m, d, width, top)

    monkeypatch.setattr(identities, "_q_packed", spy)
    identities._ROWS.clear()
    grid = {"n": list(range(15)), "m": list(range(15))}
    widths = {}
    for q_id in ("result5", "result3", "delta"):
        packed.clear()
        results = identities.run_identity(q_id, grid)
        assert all(case.passed for case in results)
        # the value oracle: every case's sides are the term-by-term fold's
        for case in results[::7]:
            lhs, rhs = (q_side_by_terms(side, *case.values).coeffs for side in identities._Q_SUMS[q_id])
            assert case.verdict == identities._finish_poly((lhs, rhs)), (q_id, case.values)
        assert len(packed) == len(set(packed))
        widths[q_id] = {m: {width for at, *_, width in packed if at == m} for m in range(15)}
        for m, held in widths[q_id].items():
            need = max(
                slot_width(identities._q_bound(side, n, m))
                for side in identities._Q_SUMS[q_id]
                for n in range(15)
            )
            assert held == {need}, (q_id, m)
    # delta, after the wider result3, packs at its own narrower width
    assert any(max(widths["delta"][m]) < max(widths["result3"][m]) for m in range(15))
    assert widths["result5"][14] != {1}
    # and the store keeps no packed row
    assert not any(key[0] is identities._q_packed for key in identities._ROWS)


def diagonal_by_terms(m, b, sign_on, keep, j):
    """Reference oracle: G_j in base q**b folded over k + l = j with poly_mul, poly_add and poly_scale.

    The term (k, l) has sign (-1)^(k or l), and with keep set only the terms
    whose unsigned index is keep (mod 2) are summed.
    """
    total = ZERO
    for k in range(j + 1):
        l = j - k
        signed, unsigned = (k, l) if sign_on == "k" else (l, k)
        if keep is not None and unsigned % 2 != keep:
            continue
        v = poly_shift(bracket_base(m + 1, k, b), b * binom2(k))
        total = poly_add(total, poly_scale(poly_mul(v, bracket_base(m + l, m, b)), (-1) ** signed))
    return total


def test_packed_diagonals_match_the_term_by_term_fold():
    # the diagonals of the whole triangle and of both parity halves, with the
    # nonzero indices kept beside each row
    identities._ROWS.clear()
    for m, b, sign_on, keep in itertools.product(range(9), (1, 2, 3), ("k", "l"), (None, 0, 1)):
        row, nonzero = identities._diagonals(m, b, sign_on, keep, 10)
        expected = [diagonal_by_terms(m, b, sign_on, keep, j) for j in range(11)]
        assert row == expected, (m, b, sign_on, keep)
        assert nonzero == [j for j, g in enumerate(expected) if g.coeffs]
        if keep is None:
            assert nonzero == [0]


def comb_parity_by_loops(parity, kernel, n, m):
    """Reference oracle: a comb20-22 case as its own double loop over u and v.

    sum_{k+l = parity mod 2} (-1)^k x_k x_l y_{n-k-l} against x_n (even) or 0
    (odd), with (x, y) = (u, v) for kernel "u" and (v, u) for kernel "v".
    """
    u = [binom(m + j, m) for j in range(n + 1)]
    v = [binom(m + 1, j) for j in range(n + 1)]
    x, y = (u, v) if kernel == "u" else (v, u)
    lhs = sum(
        (-1) ** k * x[k] * sum(x[l] * y[n - k - l] for l in range((parity + k) % 2, n - k + 1, 2))
        for k in range(n + 1)
    )
    return lhs, (0 if parity else x[n])


COMB_PARITY_CASES = {"comb20": (0, "u"), "comb21": (0, "v"), "comb22": (1, "u")}


@settings(max_examples=80, deadline=None)
@given(
    queries=st.lists(
        st.tuples(
            st.sampled_from(sorted(COMB_PARITY_CASES)),
            st.integers(0, 20),
            st.integers(0, 20),
        ),
        min_size=1,
        max_size=8,
    )
)
@example(queries=[("comb20", 20, 20), ("comb22", 3, 20), ("comb21", 20, 0), ("comb20", 0, 0)])
def test_comb_parity_halves_match_the_double_loop(queries):
    # comb20-22 are halves of the q = 1 triangle; the oracle is their own loop
    identities._ROWS.clear()
    for comb_id, n, m in queries:
        expected = comb_parity_by_loops(*COMB_PARITY_CASES[comb_id], n, m)
        assert case_sides(comb_id, n, m) == expected, (comb_id, n, m)


def test_comb_parity_halves_match_the_double_loop_on_the_whole_grid():
    # one prepare over the whole grid, as a family run makes it
    for comb_id, (parity, kernel) in COMB_PARITY_CASES.items():
        sides, _ = get_descriptor(comb_id).prepare(range(21), range(21))
        for n, m in itertools.product(range(21), repeat=2):
            expected = comb_parity_by_loops(parity, kernel, n, m)
            assert sides(n, m) == expected, (comb_id, n, m)


def alternate(xs):
    """(-1)^k x_k."""
    return [x if k % 2 == 0 else -x for k, x in enumerate(xs)]


def cos_convolution(y, top, r):
    """sum_{k <= top} 2cos((2k-r)pi/3) y_{top-k} y_k."""
    weights = [twice_cos(2 * k - r) for k in range(top + 1)]
    return sum(w * y[top - k] * y[k] for k, w in enumerate(weights) if w)


def binomial_kernels(m, top):
    return [binom(m + j, m) for j in range(top + 1)], [binom(m + 1, j) for j in range(top + 1)]


def template_top(d, r, n, m):
    """02-03 (d = 2), 06-08 (d = 3, alternating) and 12-15 (d = 4)."""
    top = d * n + r
    u, v = binomial_kernels(m, top)
    terms = [v[d * k + r] * u[n - k] for k in range(n + 1)]
    if d == 2:
        return sum(terms), u[top]
    if d == 3:
        return 2 * sum(alternate(terms)), cos_convolution(u, top, r)
    s, t = divmod(r, 2)
    half = 2 * n + s
    rhs = sum(alternate([u[2 * k + t] * u[half - k] for k in range(half + 1)]))
    return sum(terms), -rhs if s else rhs


def template_bottom(d, r, n, m):
    """01 (d = 1), 04-05 (d = 2), 09-11 (d = 3) and 23-26 (d = 4)."""
    top = d * n + r
    u, v = binomial_kernels(m, top)
    lhs = sum(alternate([u[d * k + r] * v[n - k] for k in range(n + 1)]))
    sign_n = -1 if n % 2 else 1
    if d == 1:
        return lhs, int(n == 0)
    if d == 2:
        return lhs, sign_n * v[top]
    if d == 3:
        return 2 * lhs, cos_convolution(v, top, r)
    s, t = divmod(r, 2)
    half = 2 * n + s
    return lhs, sign_n * sum(v[2 * k + t] * v[half - k] for k in range(half + 1))


# (template, d, r) of each q = 1 single sum, written out as binomial sums
COMB_TEMPLATES = {
    "comb01": (template_bottom, 1, 0),
    "comb02": (template_top, 2, 0),
    "comb03": (template_top, 2, 1),
    "comb04": (template_bottom, 2, 0),
    "comb05": (template_bottom, 2, 1),
    "comb06": (template_top, 3, 0),
    "comb07": (template_top, 3, 1),
    "comb08": (template_top, 3, 2),
    "comb09": (template_bottom, 3, 0),
    "comb10": (template_bottom, 3, 1),
    "comb11": (template_bottom, 3, 2),
    "comb12": (template_top, 4, 0),
    "comb13": (template_top, 4, 1),
    "comb14": (template_top, 4, 2),
    "comb15": (template_top, 4, 3),
    "comb23": (template_bottom, 4, 0),
    "comb24": (template_bottom, 4, 1),
    "comb25": (template_bottom, 4, 2),
    "comb26": (template_bottom, 4, 3),
}


def comb_by_templates(comb_id, n, m):
    """Reference oracle: a q = 1 single sum from its hand-written binomial template."""
    template, d, r = COMB_TEMPLATES[comb_id]
    return template(d, r, n, m)


@settings(max_examples=80, deadline=None)
@given(
    queries=st.lists(
        st.tuples(
            st.sampled_from(sorted(COMB_TEMPLATES)),
            st.integers(0, 40),
            st.integers(0, 30),
        ),
        min_size=1,
        max_size=8,
    )
)
@example(queries=[("comb15", 40, 30), ("comb06", 3, 30), ("comb26", 40, 0), ("comb01", 0, 0)])
def test_comb_sums_match_the_binomial_templates(queries):
    # each row is its _Q_SUMS row at q = 1; the oracle is the template it replaced
    identities._ROWS.clear()
    for comb_id, n, m in queries:
        assert identities._COMB_SUMS[comb_id][1] in identities._Q_SUMS
        expected = comb_by_templates(comb_id, n, m)
        assert case_sides(comb_id, n, m) == expected, (comb_id, n, m)


def resdbl_f_by_loop(variant, n, p, a, c):
    """Reference oracle: F(0..n) of a resdbl identity, built bracket by bracket."""
    shifted_top = variant in ("resdbl1", "resdbl2")
    F = []
    for s in range(n, -1, -1):
        base = bracket_base(p + s, p, c) if shifted_top else bracket_base(p, s, c)
        F.append(poly_shift(base, a * binom2(s)))
    return tuple(F)


@settings(max_examples=80, deadline=None)
@given(
    queries=st.lists(
        st.tuples(
            st.sampled_from(RESDBL),
            st.integers(0, 9),
            st.integers(0, 4),
            st.integers(0, 2),
            st.integers(1, 2),
        ),
        min_size=1,
        max_size=8,
    )
)
@example(queries=[("resdbl1", 9, 2, 1, 2), ("resdbl2", 0, 2, 1, 2), ("resdbl2", 4, 2, 1, 2)])
def test_resdbl_f_rows_match_the_bracket_loop(queries):
    # a case reads F(j) = H[n - j] in place from the row H of its (top form, p, a, c)
    identities._ROWS.clear()
    for variant, n, p, a, c in queries:
        shifted_top = identities._RESDBL[variant][0]
        H = identities._row(identities._resdbl_h, shifted_top, p, a, c, top=n)
        F = resdbl_f_by_loop(variant, n, p, a, c)
        assert tuple(H[n - j] for j in range(n + 1)) == F
        params = {"n": n, "m": 2, "p": p, "a": a, "b": 1, "c": c}
        assert q_identity_sides(variant, params)[1] == F[0]


def test_resdbl_f_rejects_a_negative_n():
    # a negative n must not read the F row from its far end
    with pytest.raises(ValueError):
        q_identity_sides("resdbl1", {"n": -1, "m": 2, "p": 2, "a": 0, "b": 1, "c": 1})
    with pytest.raises(ValueError):
        parity_sum_sides("corollary_2_4", "even", -1, 2)
    # the public triangle sum too, whatever F it is given
    for F in ((), (ONE,), (ONE, ZERO, ONE)):
        with pytest.raises(ValueError):
            triangle_sum(F, -1, 2, 1, "k")


@pytest.mark.parametrize("identity_id", ["theorem6", "comb17", "comb20", "resdbl3", "result3"])
def test_a_reversed_grid_gives_the_same_results(identity_id):
    # reversed, every memo first grows at the largest (n, m) of the grid
    desc = get_descriptor(identity_id)
    reversed_grid = {name: values[::-1] for name, values in desc.default_grid.items()}
    outcomes = []
    for grid in (reversed_grid, desc.default_grid):
        identities._ROWS.clear()
        outcomes.append(
            {
                tuple(r.params.items()): (r.passed, r.lhs_hash, r.rhs_hash, r.first_mismatch)
                for r in identities.run_identity(identity_id, grid)
            }
        )
    assert len(outcomes[0]) == len(list(iter_cases(desc)))
    assert outcomes[0] == outcomes[1]


# --- the grid runner --------------------------------------------------------

ALL_IDS = [d.id for d in registry()]


@pytest.mark.parametrize("identity_id", ALL_IDS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_the_grid_runner_matches_each_case_run_alone(identity_id, data):
    # a sub-grid of the default grid, each axis a non-empty subset in any
    # order, so its rows are built to an extent no single case reaches
    desc = get_descriptor(identity_id)
    size = 2 if len(desc.params) > 3 else 3
    grid = {
        name: data.draw(
            st.lists(st.sampled_from(values), min_size=1, max_size=size, unique=True), label=name
        )
        for name, values in desc.default_grid.items()
    }
    identities._ROWS.clear()
    together = identities.run_identity(identity_id, grid)
    alone = []
    for params in iter_cases(desc, grid):
        # each case from empty rows, so it builds only what it reads
        identities._ROWS.clear()
        alone.append(evaluate_case(identity_id, params))
    assert together == alone
    assert all(list(r.params) == list(desc.params) for r in together)


@pytest.mark.parametrize("identity_id", ALL_IDS)
def test_tamper_first_fails_exactly_the_first_case(identity_id):
    desc = get_descriptor(identity_id)
    grid = {name: values[:2] for name, values in desc.default_grid.items()}
    honest = identities.run_identity(identity_id, grid)
    tampered = identities.run_identity(identity_id, grid, tamper_first=True)
    assert [r.passed for r in tampered] == [False] + [True] * (len(honest) - 1)
    assert tampered[0].params == honest[0].params and tampered[0].lhs_hash != tampered[0].rhs_hash
    assert tampered[1:] == honest[1:]


@pytest.mark.parametrize("identity_id", ALL_IDS)
def test_one_value_outside_the_q_domain_fails_the_grid_before_any_case(identity_id, monkeypatch):
    # every kind of family shares the q families' parameter domain
    desc = get_descriptor(identity_id)
    prepare, prepared = desc.prepare, []

    def spy(*axes):
        prepared.append(axes)
        return prepare(*axes)

    monkeypatch.setattr(desc, "prepare", spy)
    small = {name: values[:2] for name, values in desc.default_grid.items()}
    assert identities.run_identity(identity_id, small) and prepared
    for name in desc.params:
        # the bad value last, where a per-case loop would reach it only at the end
        bad = 0 if name in ("b", "c") else -1
        prepared.clear()
        with pytest.raises(ValueError, match=f"got {name} = {bad}"):
            identities.run_identity(identity_id, {**small, name: [*small[name], bad]})
        assert prepared == []
        with pytest.raises(ValueError):
            evaluate_case(identity_id, {key: values[0] for key, values in small.items()} | {name: bad})
        assert prepared == []


def test_count_planes_are_built_once_at_the_grid_extent(monkeypatch):
    # a plane grown case by case is rebuilt at each new extent; one built at
    # the grid's extent is 41 by 41 from the start, and only its run holds it
    calls, planes = [], []
    real_mul, real_plane = identities.grid_mul, identities._count_plane

    def counted(*args):
        calls.append(1)
        return real_mul(*args)

    def kept(*args):
        planes.append(real_plane(*args))
        return planes[-1]

    monkeypatch.setattr(identities, "grid_mul", counted)
    monkeypatch.setattr(identities, "_count_plane", kept)
    identities._ROWS.clear()
    grid = {"n": list(range(41)), "m": list(range(41)), "p": list(range(4))}
    families = ("theorem6", "theorem_simple")
    for identity_id in families:
        assert all(r.passed for r in identities.run_identity(identity_id, grid))
    row_sides = [side for i in families for side in identities._COUNT_SUMS[i] if isinstance(side, tuple)]
    classes = sum(weight_period(side[4]) for side in row_sides)
    assert len(calls) == classes * len(grid["p"]) == 28
    assert len(planes) == len(row_sides) * len(grid["p"])
    assert all((len(plane), len(plane[0])) == (41, 41) for plane in planes)
    # the value oracle, at the far corner of one plane
    assert planes[0][40][40] == count_side_by_calls(row_sides[0], 40, 40, 0)
    stored = [id(row) for row in identities._ROWS.values()]
    assert not any(id(plane) in stored for plane in planes)
    identities._ROWS.clear()


@pytest.mark.parametrize(
    "identity_id, name, bad",
    [
        ("pn_from_q", "n", -1),
        ("qn_double_sum", "n", -3),
        ("comb20", "n", -1),
        ("comb16", "m", -1),
        ("theorem6", "m", -1),
        ("pmost_chain", "p", -1),
    ],
)
def test_a_negative_index_fails_every_kind_of_family(identity_id, name, bad):
    # the rows a family reads are indexed from 0, so once they are built a
    # negative index would wrap to their far end rather than fail
    desc = get_descriptor(identity_id)
    params = {key: values[0] for key, values in desc.default_grid.items()} | {name: bad}
    identities._ROWS.clear()
    with pytest.raises(ValueError, match=f"got {name} = {bad}"):
        evaluate_case(identity_id, params)
    assert all(r.passed for r in identities.run_identity(identity_id))
    with pytest.raises(ValueError):
        evaluate_case(identity_id, params)


# --- result bookkeeping -----------------------------------------------------


def test_tampered_case_reports_mismatch():
    r = evaluate_case("delta", {"n": 0, "m": 0}, tamper=True)
    assert not r.passed
    assert r.first_mismatch == 0
    assert r.lhs_hash != r.rhs_hash

    r = evaluate_case("theorem1", {"n": 2, "m": 1, "p": 2}, tamper=True)
    assert not r.passed
    assert isinstance(r.first_mismatch, tuple)


def sha_of(values):
    return hashlib.sha256(",".join(str(v) for v in values).encode("ascii")).hexdigest()


def test_hashes_are_of_each_side_as_given():
    # a passing case hashes one side for both; a failing one hashes each side
    n, m, p = 5, 4, 3
    lhs, rhs = q_identity_sides("result1", {"n": n, "m": m})
    for tamper, want_rhs in ((False, rhs), (True, poly_add(rhs, ONE))):
        r = evaluate_case("result1", {"n": n, "m": m}, tamper=tamper)
        assert r.passed is not tamper
        assert (r.lhs_hash, r.rhs_hash) == (sha_of(lhs.coeffs), sha_of(want_rhs.coeffs))

    total = sum(
        count_Q(n - 2 * k, m - 2 * l, p) * count_P(k, l, p)
        for k in range(n // 2 + 1)
        for l in range(m // 2 + 1)
    )
    for tamper in (False, True):
        r = evaluate_case("theorem1", {"n": n, "m": m, "p": p}, tamper=tamper)
        assert r.passed is not tamper
        assert r.lhs_hash == sha_of([count_P(n, m, p)])
        assert r.rhs_hash == sha_of([total + tamper])


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.integers(-(10**40), 10**40) | st.integers(-3, 3), max_size=6))
@example(values=[])
@example(values=[-(2**200), 0, 2**200])
def test_side_digests_are_the_sha_of_the_decimal_text(values):
    # a digest is the SHA-256 of the comma-joined decimal text, of a tuple or
    # of a polynomial's coefficients, and a verdict holds exactly those digests
    want = sha_of(values)
    poly = IntPoly(values)
    assert identities._digest(tuple(values)) == want
    assert identities._digest(poly.coeffs) == sha_of(poly.coeffs)
    assert identities._finish_poly(poly.coeffs) == (True, sha_of(poly.coeffs), sha_of(poly.coeffs), None)
    if values:
        pairs = tuple((v, v) for v in values)
        assert identities._finish_pairs(pairs) == (True, want, want, None)
        assert identities._finish_pair(pairs[0]) == identities._finish_pairs(pairs[:1])


def test_combine_returns_the_first_failing_corollary_half():
    # an odd half tampered to a nonzero right side comes back as the verdict
    sides, finish = get_descriptor("corollary_2_4").prepare([3], [2])
    even, odd = sides(3, 2)
    odd_lhs, _ = identities._poly_unkey(odd)
    assert identities._finish_poly(even)[0]
    passed, lhs_hash, rhs_hash, first_mismatch = finish((even, (odd_lhs, ONE.coeffs)))
    assert odd_lhs == parity_sum_sides("corollary_2_4", "odd", 3, 2)[0].coeffs
    assert not passed
    assert (lhs_hash, rhs_hash) == (sha_of(odd_lhs), sha_of(ONE.coeffs))
    assert first_mismatch == 0


@pytest.mark.parametrize("corollary_id", ["corollary_2_4", "corollary_3_4"])
def test_a_corollary_case_reads_its_prepared_rows_and_the_public_readers_are_its_one_point_runs(
    corollary_id, monkeypatch
):
    # no case goes back through parity_sum_sides or the domain check: the
    # run checks its domain once and reads both halves from the bound rows
    calls = {"parity_sum_sides": 0, "_require_domain": 0}
    for name in calls:
        real = getattr(identities, name)

        def spy(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(identities, name, spy)
    results = identities.run_identity(corollary_id)
    assert len(results) == 81 and all(r.passed for r in results)
    assert calls == {"parity_sum_sides": 0, "_require_domain": 1}
    monkeypatch.undo()
    # the public readers return the sides a case reads, half by half
    grid = get_descriptor(corollary_id).default_grid
    sides, _ = get_descriptor(corollary_id).prepare(grid["n"], grid["m"])
    for n, m in itertools.product(grid["n"], grid["m"]):
        even, odd = map(identities._poly_unkey, sides(n, m))
        for parity, half in (("even", even), ("odd", odd)):
            lhs, rhs = parity_sum_sides(corollary_id, parity, n, m)
            assert (lhs.coeffs, rhs.coeffs) == half, (parity, n, m)
        lhs, rhs = q_identity_sides(corollary_id, {"n": n, "m": m})
        assert (lhs.coeffs, rhs.coeffs) == even, (n, m)


def test_combine_returns_the_first_failing_f_theorem_sub_check():
    sides, finish = get_descriptor("f_theorem").prepare([2], [1])
    keys = sides(2, 1)
    # the six checks, sign on k then on l, each check_F_theorem's verdict
    want = [
        check_F_theorem(F, 2, 1, sign_on).verdict
        for sign_on in ("k", "l")
        for _, F in standard_f_sequences(2, 1)
    ]
    assert [identities._finish_poly(key) for key in keys] == want
    # with the fourth and fifth checks failing, the fourth is the verdict
    bad = (*keys[:3], ((1, 2), (1, 3)), ((5,), (6,)), keys[5])
    assert finish(bad) == (False, sha_of((1, 2)), sha_of((1, 3)), 1)


def test_combine_hashes_the_joined_sub_digests_of_a_pass():
    def sha(text):
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    n, m = 3, 2
    for corollary_id in ("corollary_2_4", "corollary_3_4"):
        halves = [parity_sum_sides(corollary_id, parity, n, m) for parity in ("even", "odd")]
        r = evaluate_case(corollary_id, {"n": n, "m": m})
        assert r.passed
        assert r.lhs_hash == sha("".join(sha_of(lhs.coeffs) for lhs, _ in halves))
        assert r.rhs_hash == sha("".join(sha_of(rhs.coeffs) for _, rhs in halves))

    lhs_six, rhs_six = [], []
    for sign_on in ("k", "l"):
        for _, F in standard_f_sequences(n, m):
            lhs_six.append(sha_of(triangle_sum(F, n, m, 1, sign_on).coeffs))
            rhs_six.append(sha_of(F[0].coeffs))
    r = evaluate_case("f_theorem", {"n": n, "m": m})
    assert r.passed
    assert (r.lhs_hash, r.rhs_hash) == (sha(",".join(lhs_six)), sha(",".join(rhs_six)))


def test_the_verdict_memo_lives_for_one_family_run_only(monkeypatch):
    finished = []
    finish = identities._finish_poly

    def spy(*args, **kwargs):
        finished.append(args[0])
        return finish(*args, **kwargs)

    monkeypatch.setattr(identities, "_finish_poly", spy)
    grid = {"n": [2, 3], "m": [0, 1, 2], "p": [1], "a": [0], "b": [1, 2], "c": [1]}
    results = identities.run_identity("resdbl1", grid)
    # every (m, b) case at one n has the sides F(0), F(0): two distinct sides
    # over 12 cases, each finished once, and every case shares its verdict
    assert len(results) == 12
    assert len(finished) == 2 and finished[0] != finished[1]
    assert len({id(r.verdict) for r in results}) == 2
    assert all(r.names is results[0].names for r in results)
    # the value oracle: each verdict is the one of its case's own sides
    for r in results:
        lhs, rhs = q_identity_sides("resdbl1", r.params)
        assert r.verdict == finish((lhs.coeffs, rhs.coeffs)), r.params

    # a second run keeps nothing of the first, nor does a case run alone
    finished.clear()
    assert identities.run_identity("resdbl1", grid) == results
    assert len(finished) == 2
    evaluate_case("resdbl1", {"n": 3, "m": 1, "p": 1, "a": 0, "b": 1, "c": 1})
    assert len(finished) == 3

    calls = []

    def fails_on_the_second_sides(*args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return finish(*args)

    monkeypatch.setattr(identities, "_finish_poly", fails_on_the_second_sides)
    with pytest.raises(RuntimeError, match="injected"):
        identities.run_identity("resdbl1", grid)
    # a run that failed leaves no verdict for the next one to read
    monkeypatch.setattr(identities, "_finish_poly", spy)
    finished.clear()
    assert identities.run_identity("resdbl1", grid) == results
    assert len(finished) == 2


@pytest.mark.parametrize("identity_id, finish_name", [
    ("corollary_3_4", "_finish_halves"),
    ("f_theorem", "_finish_f_theorem"),
])
def test_a_many_part_check_finishes_each_distinct_sides_once(identity_id, finish_name, monkeypatch):
    # the halves of a corollary and the six checks of f_theorem share the
    # run's verdict memo; tamper_first still fails case 0 alone
    grid = {"n": list(range(9)), "m": list(range(9))}
    sides, _ = get_descriptor(identity_id).prepare(grid["n"], grid["m"])
    keys = [sides(n, m) for n, m in itertools.product(grid["n"], grid["m"])]
    finished = []
    finish = getattr(identities, finish_name)

    def spy(key, tamper=False):
        finished.append((key, tamper))
        return finish(key, tamper)

    monkeypatch.setattr(identities, finish_name, spy)
    honest = identities.run_identity(identity_id, grid)
    assert all(r.passed for r in honest)
    assert sorted(map(repr, finished)) == sorted(repr((key, False)) for key in set(keys))
    assert [r.verdict for r in honest] == [finish(key) for key in keys]
    finished.clear()
    tampered = identities.run_identity(identity_id, grid, tamper_first=True)
    assert [r.passed for r in tampered] == [False] + [True] * (len(honest) - 1)
    assert tampered[1:] == honest[1:]
    assert finished[0] == (keys[0], True) and len(finished) == 1 + len(set(keys[1:]))


def test_the_row_store_does_not_depend_on_family_order():
    # the store keeps exact rows only, so two orders of the same families
    # leave it equal, entry for entry
    grid = {"n": list(range(15)), "m": list(range(15))}
    stores = []
    for order in (("result5", "result3", "delta"), ("delta", "result3", "result5")):
        identities._ROWS.clear()
        for q_id in order:
            assert all(r.passed for r in identities.run_identity(q_id, grid))
        stores.append(dict(identities._ROWS))
    assert stores[0] == stores[1]
    identities._ROWS.clear()


def test_the_verdict_memo_never_keeps_a_tampered_verdict():
    # theorem_simple at n, m, p <= 3 has the sides (0, 0) at case 0's
    # neighbours and far beyond: a tampered verdict kept in the memo would
    # fail every later case with case 0's sides
    grid = {"n": [0, 1, 2, 3], "m": [0, 1, 2, 3], "p": [0, 1, 2, 3]}
    sides, _ = get_descriptor("theorem_simple").prepare(*grid.values())
    first = sides(0, 0, 0)
    repeats = sum(sides(*values) == first for values in itertools.product(*grid.values()))
    assert repeats > 1
    honest = identities.run_identity("theorem_simple", grid)
    tampered = identities.run_identity("theorem_simple", grid, tamper_first=True)
    assert all(r.passed for r in honest)
    assert [r.passed for r in tampered] == [False] + [True] * (len(honest) - 1)
    assert tampered[1:] == honest[1:]


def test_family_results_do_not_depend_on_which_family_ran_first():
    runs = {}
    for order in (("resdbl1", "resdbl3"), ("resdbl3", "resdbl1")):
        for identity_id in order:
            runs.setdefault(identity_id, []).append(identities.run_identity(identity_id))
    for identity_id, (first, second) in runs.items():
        assert first == second
        assert all(r.passed for r in first)


def test_case_result_fields():
    r = evaluate_case("result3", {"n": 2, "m": 2})
    assert r.params == {"n": 2, "m": 2}
    # the result's params keep the descriptor's names only, in its order
    params = evaluate_case("result3", {"m": 2, "n": 2, "p": 9}).params
    assert list(params.items()) == [("n", 2), ("m", 2)]
    assert len(r.lhs_hash) == 64


def iter_cases_by_recursion(desc, grid=None):
    """Reference oracle: the nested grid walk, one recursion level per axis."""
    grid = grid or desc.default_grid
    axes = [grid[name] for name in desc.params]

    def rec(i, acc):
        if i == len(desc.params):
            yield dict(acc)
            return
        for v in axes[i]:
            acc[desc.params[i]] = v
            yield from rec(i + 1, acc)

    yield from rec(0, {})


@settings(max_examples=150, deadline=None)
@given(
    axes=st.lists(
        st.lists(st.integers(-3, 9), max_size=4),
        min_size=1,
        max_size=6,
    ),
    use_default=st.booleans(),
)
def test_iter_cases_matches_the_nested_grid_walk(axes, use_default):
    names = tuple("nmpabc"[: len(axes)])
    grid = dict(zip(names, axes))
    desc = IdentityDescriptor("grid", KIND_Q_POLYNOMIAL, names, grid, prepare=None)
    given_grid = None if use_default else grid
    cases = list(iter_cases(desc, given_grid))
    assert [list(c.items()) for c in cases] == [
        list(c.items()) for c in iter_cases_by_recursion(desc, given_grid)
    ]
    # a fresh dict per case, so a check may keep the one it was given
    assert len({id(c) for c in cases}) == len(cases)


# --- sensitivity: the default grids reject wrong spec rows -------------------


def survivors(table, mutants):
    """The (id, row) mutants of a spec table under which the family still passes its default grid."""
    alive = set()
    for identity_id, row in mutants:
        with mock.patch.dict(table, {identity_id: row}):
            if all(r.passed for r in identities.run_identity(identity_id)):
                alive.add((identity_id, row))
    return alive


def test_every_corollary_spec_mutant_fails_the_default_grid_but_the_equivalents():
    # a row is (variant, p - m, a): another variant, p - m +- 1, a +- 1 (a >= 0)
    mutants = []
    for corollary_id, (variant, offset, a) in identities._COROLLARIES.items():
        mutants += [(corollary_id, (other, offset, a)) for other in RESDBL if other != variant]
        mutants += [(corollary_id, (variant, offset + d, a)) for d in (-1, 1)]
        mutants += [(corollary_id, (variant, offset, a + d)) for d in (-1, 1) if a + d >= 0]
    assert len(mutants) == 13
    # The other signed index is equivalent: a half is (full +- (-1)^n twisted) / 2,
    # the twisted sum sum (-1)^(k+l) F(k+l) V_k U_l does not depend on which index
    # carries the sign, and the full sum is F(0) for either sign.
    assert survivors(identities._COROLLARIES, mutants) == {
        ("corollary_2_4", ("resdbl1", 0, 0)),
        ("corollary_3_4", ("resdbl4", 1, 1)),
    }


def test_every_series_spec_mutant_fails_the_default_grid_but_the_other_true_row():
    table = identities._SERIES_SUMS
    mutants = [
        (identity_id, row)
        for identity_id, spec in table.items()
        for row in itertools.product("pqs", repeat=3)
        if row != spec
    ]
    assert len(mutants) == 52
    # each family's row, read as the other's, is still Euler's other convolution
    assert survivors(table, mutants) == {
        ("pn_from_q", table["qn_double_sum"]),
        ("qn_double_sum", table["pn_from_q"]),
    }


# --- sensitivity: the default grids reject a wrong weight or diagonal sign ---


def first_failing(families):
    """The first of families that fails its default grid, read from a cleared store; None when all pass."""
    identities._ROWS.clear()
    return next(
        (i for i in families if not all(r.passed for r in identities.run_identity(i))), None
    )


def test_every_period_table_entry_mutant_fails_the_default_grid():
    # each entry of the table, 1 off either way; a cosine or sign weight is
    # caught by a single sum, a sine weight by the count rows it weighs
    table = identities._PERIOD_WEIGHTS
    q_sums, sine_rows = tuple(identities._Q_SUMS), ("sine_vanishing_6", "sine_vanishing_7")
    mutants = 0
    try:
        for weight, periods in table.items():
            for r, period in enumerate(periods):
                for k, step in itertools.product(range(len(period)), (-1, 1)):
                    wrong = period[:k] + (period[k] + step,) + period[k + 1:]
                    mutant = periods[:r] + (wrong,) + periods[r + 1:]
                    with mock.patch.dict(table, {weight: mutant}):
                        failed = first_failing(q_sums + sine_rows)
                    expected = sine_rows if weight == identities._SIN else q_sums
                    assert failed in expected, (weight, r, k, step, failed)
                    mutants += 1
    finally:
        identities._ROWS.clear()
    assert mutants == 108


def test_every_diagonal_sign_mutant_fails_a_q_and_a_q1_family():
    # flip the sign of one class of k mod 2 at one (signed index, keep, j mod 2),
    # or give a class that a parity half drops the weight 1
    real = identities._diagonal_weights
    q_families = (*RESDBL, *identities._COROLLARIES, "f_theorem")
    comb_families = tuple(f"comb{i}" for i in range(16, 23))
    mutants = list(itertools.product(("k", "l"), (None, 0, 1), (0, 1), (0, 1)))
    assert len(mutants) == 24

    def mutated(sign_on, keep, parity, c):
        def weights(*args):
            w = list(real(*args))
            if args[:2] == (sign_on, keep) and args[2] % 2 == parity:
                w[c] = -w[c] if w[c] else 1
            return tuple(w)

        return weights

    try:
        for target in mutants:
            with mock.patch.object(identities, "_diagonal_weights", mutated(*target)):
                assert first_failing(q_families) is not None, target
                assert first_failing(comb_families) is not None, target
    finally:
        identities._ROWS.clear()


def test_the_store_keeps_no_weight_and_the_period_table_is_never_written():
    identities._ROWS.clear()
    before = dict(identities._PERIOD_WEIGHTS)
    assert all(all(r.passed for r in identities.run_identity(d.id)) for d in registry())
    assert identities._PERIOD_WEIGHTS == before
    assert all(identities._PERIOD_WEIGHTS[weight] is periods for weight, periods in before.items())
    # only exact rows, one per (entry, *key), for every family on its default grid
    entries = {key[0] for key in identities._ROWS}
    assert entries == {
        identities._q_kernel, identities._q_norm, identities._diagonals, identities._resdbl_h,
        identities._count_entry, identities._count_of, identities._signed_distinct,
        identities._binom_entry, identities._comb_diagonal,
    }
    assert len(identities._ROWS) == 439

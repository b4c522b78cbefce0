"""Partition counts, the enumeration oracle, and the count correspondences."""

import copy
import pickle
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from qpartid.bigpoly import coeff_at
from qpartid.identities import evaluate_case
from qpartid.partitions import (
    UNBOUNDED,
    PartitionSpec,
    box_count,
    box_counts,
    count_P,
    count_P_most,
    count_P_nm,
    count_P_of,
    count_P_star,
    count_Q,
    count_Q_most,
    count_Q_nm,
    count_Q_of,
    count_Q_star,
    count_tables,
    distinct_series,
    enumerate_partitions,
    oracle_counts,
)
from qpartid.qbinom import gaussian


def test_count_P_examples():
    assert count_P(5, 2, 3) == 1  # only 3+2
    for p in range(6):
        assert count_P(0, 0, p) == 1
    assert count_P(4, 2, UNBOUNDED) == 2  # 3+1, 2+2
    assert count_P(3, 0, 5) == 0
    assert count_P(-1, 2, 3) == 0
    assert count_P(4, 2, -1) == 0


def test_count_Q_examples():
    assert count_Q(6, 3, 3) == 1  # only 3+2+1
    for n in range(1, 8):
        for p in range(8):
            assert count_Q(n, 1, p) == (1 if 1 <= n <= p else 0)
    assert count_Q(5, 2, 4) == 2  # 4+1, 3+2
    assert count_Q(5, 2, 3) == 1  # 3+2 only


def test_star_and_most_examples():
    assert count_P_star(2, 2, 2) == 2  # 2 and 1+1
    for m in range(5):
        for p in range(5):
            assert count_P_star(0, m, p) == 1
            assert count_Q_star(0, m, p) == 1
    assert count_Q_star(3, 2, 3) == 2  # 3 and 2+1
    for n in range(1, 6):
        assert count_Q_star(n, 0, 3) == 0
    assert count_P_most(4, 2) == 3  # 2+2, 2+1+1, 1+1+1+1


def test_unrestricted_counts():
    assert count_P_of(5) == 7
    assert count_Q_of(5) == 3  # 5, 4+1, 3+2
    known_p = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, expected in enumerate(known_p):
        assert count_P_of(n) == expected


def test_enumerate_examples():
    assert enumerate_partitions(PartitionSpec(4, exact_parts=2)) == [[3, 1], [2, 2]]
    assert enumerate_partitions(PartitionSpec(0)) == [[]]
    assert enumerate_partitions(
        PartitionSpec(6, exact_parts=3, max_part=3, distinct=True)
    ) == [[3, 2, 1]]


def test_enumerate_guards():
    with pytest.raises(ValueError):
        enumerate_partitions(PartitionSpec(31))
    enumerate_partitions(PartitionSpec(31), oracle_limit=40)  # raised limit is fine
    with pytest.raises(ValueError):
        PartitionSpec(4, exact_parts=2, max_parts=3)
    with pytest.raises(ValueError):
        PartitionSpec(-1)
    # a validated spec stays valid: it cannot be changed, and it is a value
    spec = PartitionSpec(4, exact_parts=2)
    with pytest.raises(AttributeError):
        spec.max_parts = 3
    assert spec == PartitionSpec(4, 2) and hash(spec) == hash(PartitionSpec(4, 2))
    assert spec != PartitionSpec(4, max_parts=2)


def test_partition_spec_survives_pickle_copy_and_replace():
    spec = PartitionSpec(7, max_parts=3, max_part=4, distinct=True)
    for again in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert type(again) is PartitionSpec and again == spec
        assert enumerate_partitions(again) == enumerate_partitions(spec)
    assert spec._replace(max_part=None) == PartitionSpec(7, max_parts=3, distinct=True)
    # a copy is made through the constructor, so it is validated too
    with pytest.raises(ValueError):
        spec._replace(exact_parts=2)


def test_oracle_equivalence_small():
    for n in range(13):
        for m in range(n + 1):
            for p in range(n + 1):
                plain = enumerate_partitions(PartitionSpec(n, exact_parts=m, max_part=p))
                assert len(plain) == count_P(n, m, p), (n, m, p)
                distinct = enumerate_partitions(
                    PartitionSpec(n, exact_parts=m, max_part=p, distinct=True)
                )
                assert len(distinct) == count_Q(n, m, p), (n, m, p)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=14))
@example(0)  # the empty partition alone
def test_oracle_counts_matches_per_spec_enumeration(n):
    # the one-pass tables against one enumeration per (m, p, distinct) spec
    plain, distinct = oracle_counts(n)
    for d, table in ((False, plain), (True, distinct)):
        assert len(table) == n + 1
        for m in range(n + 1):
            assert len(table[m]) == n + 1
            for p in range(n + 1):
                spec = PartitionSpec(n, exact_parts=m, max_part=p, distinct=d)
                assert table[m][p] == len(enumerate_partitions(spec)), (n, m, p, d)


def test_oracle_counts_respects_the_oracle_limit():
    with pytest.raises(ValueError):
        oracle_counts(31)
    assert oracle_counts(31, oracle_limit=31)[0][1][31] == 1


def test_oracle_counts_matches_enumeration_by_part_count_for_every_n_to_30():
    # every n <= 30 exhaustively: the uncapped column against one spec per m
    for n in range(31):
        plain, distinct = oracle_counts(n)
        for m in range(n + 1):
            spec = PartitionSpec(n, exact_parts=m)
            assert plain[m][n] == len(enumerate_partitions(spec)), (n, m)
            spec = PartitionSpec(n, exact_parts=m, distinct=True)
            assert distinct[m][n] == len(enumerate_partitions(spec)), (n, m)


def test_oracle_counts_streams():
    # ZS1 rewrites one list in place; a list per partition peaked at 6.2 MB
    tracemalloc.start()
    try:
        oracle_counts(40, oracle_limit=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024, f"tracemalloc peak {peak / 1024:.0f} KB"


# one fill of every P and Q layer at n <= 60, m <= 61, read by the examples below
_FILL_REFERENCE = tuple(count_tables(61, 62, 60, distinct) for distinct in (False, True))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(min_value=0, max_value=60))
def test_box_counts_match_the_count_table(data, n):
    # the one-shot counts against the layer-by-layer fill
    m = data.draw(st.integers(min_value=0, max_value=n + 1))
    p = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n)))
    # no part of a partition of n <= 60 exceeds 60, so the unbounded counts are layer 60
    plain, distinct = (layers[60 if p is None else p] for layers in _FILL_REFERENCE)
    assert count_P(n, m, p) == plain[n][m]
    assert count_Q(n, m, p) == distinct[n][m]
    assert box_count(n, m, p) == count_P_star(n, m, p) == sum(plain[n][: m + 1])
    # the whole rolling list, as gauss reads it
    assert box_counts(n, m, p) == [sum(plain[t][: m + 1]) for t in range(n + 1)]
    assert count_Q_star(n, m, p) == sum(distinct[n][: m + 1])
    assert box_count(n, UNBOUNDED, p) == count_P_most(n, p) == sum(plain[n])
    assert count_Q_most(n, p) == sum(distinct[n])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=0, max_value=30))
@example(n=0)
@example(n=30)
def test_the_fill_the_box_counts_and_the_enumeration_agree(n):
    # three independent sources of P(n, m, p) and Q(n, m, p) for n <= 30: the
    # smallest-part recurrence, the Gaussian rolling lists and ZS1 enumeration
    plain, distinct = oracle_counts(n)
    P, Q = (count_tables(n + 1, n + 1, n, d) for d in (False, True))
    for m in range(n + 1):
        for p in range(n + 1):
            assert P[p][n][m] == count_P(n, m, p) == plain[m][p], (n, m, p)
            assert Q[p][n][m] == count_Q(n, m, p) == distinct[m][p], (n, m, p)
            assert box_count(n, m, p) == sum(plain[k][p] for k in range(m + 1)), (n, m, p)
    # the signed products: the distinct-part counts, and sum_l (-1)^l Q(n, l)
    assert distinct_series(n, 1)[n] == sum(row[n] for row in distinct)
    assert distinct_series(n, -1)[n] == sum((-1) ** l * row[n] for l, row in enumerate(distinct))


def test_the_fill_shares_the_layers_past_its_last_row_and_stops_at_p_max():
    # no part of an n < rows exceeds rows - 1, so those layers are one object
    layers = count_tables(4, 3, 9)
    assert len(layers) == 10 and all(layer is layers[3] for layer in layers[3:])
    assert layers[3] == [[1, 0, 0], [0, 1, 0], [0, 1, 1], [0, 1, 1]]
    assert count_tables(4, 3, -1) == [] and count_tables(3, 2, 0) == [[[1, 0], [0, 0], [0, 0]]]


def test_box_counts_out_of_range():
    assert box_count(-1, 3, 3) == 0
    assert box_count(0, -1, 3) == 0
    assert box_counts(-1, 3, 3) == []
    assert box_counts(2, -1, 3) == [0, 0, 0]
    assert box_counts(3, 2, -1) == [1, 0, 0, 0]
    assert box_count(4, 0, 4) == box_count(4, 4, 0) == 0
    assert count_P(0, 0, 0) == count_Q(0, 0, 0) == 1
    assert count_P(3, -1, 3) == count_Q(3, -1, 3) == 0
    assert count_P(1, 1, 0) == count_Q(3, 2, 1) == 0


def test_star_counts_match_the_box_counts_past_their_last_nonzero_term():
    # the distinct star sum stops where C(k+1, 2) > n; m runs far past that and
    # past n, and n and m below zero, so no dropped term counts
    plain, distinct = _FILL_REFERENCE
    for n in range(-2, 30):
        for m in range(-2, 40):
            for p in (0, 1, 3, UNBOUNDED):
                layer = 60 if p is None else p
                want = [sum(t[layer][n][: m + 1]) if n >= 0 and m >= 0 else 0 for t in (plain, distinct)]
                assert [count_P_star(n, m, p), count_Q_star(n, m, p)] == want, (n, m, p)


def test_star_sums_stopped_at_their_support_match_the_unbounded_sums():
    # count_P_star is one box count and count_Q_star stops at C(k+1, 2) > n;
    # the oracle is the sum over every k <= min(m, n)
    from qpartid.identities import get_descriptor

    for n in range(-1, 61):
        for p in (-1, 0, 1, 2, 3, 5, 8, n, UNBOUNDED):
            plain = [count_P(n, k, p) for k in range(n + 1)]
            distinct = [count_Q(n, k, p) for k in range(n + 1)]
            for m in sorted({-1, 0, 1, 2, n // 3, n // 2, n, n + 1}):
                assert count_P_star(n, m, p) == sum(plain[: max(m + 1, 0)]), (n, m, p)
                assert count_Q_star(n, m, p) == sum(distinct[: max(m + 1, 0)]), (n, m, p)
            if n >= 0 and p in (0, 1, 2, 3):
                # pmost_chain's exact sum reads the same counts from its fill
                pairs, _ = get_descriptor("pmost_chain").prepare([n], [p])
                assert pairs(n, p)[0][1] == sum(plain), (n, p)


def test_enumerate_max_parts_matches_star_counts():
    for n in range(11):
        for m in range(n + 1):
            for p in range(n + 1):
                got = enumerate_partitions(PartitionSpec(n, max_parts=m, max_part=p))
                assert len(got) == count_P_star(n, m, p)


def test_gaussian_coefficients_from_counts():
    for m in range(7):
        for p in range(7):
            g = gaussian(m, p)
            for n in range(m * p + 1):
                assert coeff_at(g, n) == count_P_star(n, m, p)


def _correspondence_holds(identity_id, n, m, p):
    return evaluate_case(identity_id, {"n": n, "m": m, "p": p}).passed


def test_pnmp_correspondence():
    # P*(n, m, p) == P(n + m, m, p + 1)
    assert _correspondence_holds("pnmp_correspondence", 2, 2, 2)
    assert _correspondence_holds("pnmp_correspondence", 0, 0, 0)
    assert _correspondence_holds("pnmp_correspondence", 5, 3, 4)
    for n in range(9):
        for m in range(9):
            for p in range(9):
                assert _correspondence_holds("pnmp_correspondence", n, m, p)


def test_qnmp_correspondence():
    # Q(n, m, p) == P(n - m(m-1)/2, m, p - m + 1)
    assert _correspondence_holds("qnmp_correspondence", 6, 3, 3)
    for n in range(7):
        for p in range(7):
            assert _correspondence_holds("qnmp_correspondence", n, 0, p)
    assert _correspondence_holds("qnmp_correspondence", 9, 2, 5)
    for n in range(9):
        for m in range(9):
            for p in range(9):
                assert _correspondence_holds("qnmp_correspondence", n, m, p)


def test_conjugation_chain():
    for n in range(9):
        for p in range(9):
            most = count_P_most(n, p)
            assert most == count_P_star(n, n, p)
            assert most == count_P(2 * n, n, p + 1)
            assert most == count_P_nm(n + p, p)


def test_two_argument_reduction():
    # P(n, m) equals P(n - m) whenever 2m >= n
    for n in range(31):
        for m in range((n + 1) // 2, n + 1):
            assert count_P_nm(n, m) == count_P_of(n - m)


def test_monotone_saturation():
    for n in range(9):
        for p in range(9):
            for m in range(n, n + 4):
                assert count_P_star(n, m, p) == count_P_most(n, p)
                assert count_Q_star(n, m, p) == count_Q_most(n, p)


def test_no_count_outlives_a_run():
    # every family fills the tables it reads and drops them: after a run of
    # the whole registry, partitions holds no table, memo or cache
    from qpartid import identities, partitions

    for desc in identities.registry():
        assert all(r.passed for r in identities.run_identity(desc.id)), desc.id
    state = sorted(
        name for name, value in vars(partitions).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    )
    assert state == []


def test_distinct_nm():
    assert count_Q_nm(5, 2) == 2  # 4+1, 3+2
    assert count_Q_nm(0, 0) == 1
    assert count_Q_nm(3, 3) == 0

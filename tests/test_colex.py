"""Colex segments: the closed-form size, the sharp bound, and f(m)."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import members, oracle_colex_total
from ucfam import (
    DomainError,
    Family,
    colex_total_size,
    czedli_threshold_agrees,
    extremal_construction,
    f_extremal,
    initial_segment,
    is_downset,
    is_union_closed,
    kk_downset_bound,
    min_ground,
    segment_bound,
    segment_bound_is_tight,
    segment_bound_sixths,
    total_size_range,
)
from ucfam.colex import colex_superadditivity_slack


# --- the segment and its size ---------------------------------------------------


def test_initial_segment_nine():
    seg = initial_segment(9)
    want = [(), (1,), (2,), (1, 2), (3,), (1, 3), (2, 3), (1, 2, 3), (4,)]
    assert members(seg) == {frozenset(x) for x in want}
    assert seg.total_size() == 13
    assert colex_total_size(9) == 13


def test_initial_segment_cells_are_a_prefix():
    assert list(initial_segment(5)) == [0, 1, 2, 3, 4]
    assert initial_segment(0, 3).mask == 0
    with pytest.raises(DomainError):
        initial_segment(5, 2)
    with pytest.raises(DomainError):
        initial_segment(3, -1)
    with pytest.raises(DomainError):
        initial_segment(-1, 3)


def test_colex_total_matches_digit_sum_oracle():
    acc = 0
    for m in range(1, 4097):
        acc += bin(m - 1).count("1")
        assert colex_total_size(m) == acc
    assert colex_total_size(0) == 0


def test_colex_total_power_of_two_closed_form():
    for k in range(0, 16):
        want = k << (k - 1) if k else 0
        assert colex_total_size(1 << k) == want


def test_total_size_range_is_the_prefix_table():
    table = total_size_range(600)
    assert table == [colex_total_size(m) for m in range(601)]


def test_superadditivity_small_exhaustive():
    table = total_size_range(256)
    for m1 in range(129):
        for m2 in range(129):
            slack = table[m1 + m2] - table[m1] - table[m2] - min(m1, m2)
            assert slack >= 0, (m1, m2)
            assert slack == colex_superadditivity_slack(m1, m2)


def test_superadditivity_tight_on_equal_powers():
    # I(2^k) + I(2^k) glue into I(2^(k+1)) exactly
    for k in range(10):
        assert colex_superadditivity_slack(1 << k, 1 << k) == 0


# --- the sharp upper bound -------------------------------------------------------


TIGHT_UP_TO_64 = [1, 2, 3, 4, 6, 8, 11, 12, 16, 22, 24, 32, 43, 44, 48, 64]


def test_segment_bound_dominates_and_equality_is_characterized():
    for m in range(1, 1 << 13):
        sixths = segment_bound_sixths(m)
        assert 6 * colex_total_size(m) <= sixths
        assert (6 * colex_total_size(m) == sixths) == segment_bound_is_tight(m)


def test_segment_bound_tight_set_frozen():
    assert [m for m in range(1, 65) if segment_bound_is_tight(m)] == TIGHT_UP_TO_64


def test_segment_bound_fraction_agrees_with_sixths():
    for m in range(1, 2000):
        assert segment_bound(m) * 6 == segment_bound_sixths(m)


def test_czedli_threshold_exhaustive_small():
    for r in range(1, 12):
        for m in range(1, 1 << 12):
            assert czedli_threshold_agrees(m, r), (m, r)


# --- f(m) and the extremal construction ------------------------------------------


def test_min_ground_values():
    assert [min_ground(m) for m in [1, 2, 3, 4, 5, 8, 9, 16, 17]] == [
        0, 1, 2, 2, 3, 3, 4, 4, 5,
    ]
    with pytest.raises(DomainError):
        min_ground(0)


def test_f_extremal_spot_values():
    assert f_extremal(1) == 0
    assert f_extremal(3) == 3
    assert f_extremal(6) == 9
    assert f_extremal(8) == 12
    assert f_extremal(12) == 24
    assert f_extremal(16) == 32


def test_extremal_construction_properties():
    for m in range(1, 65):
        fam = extremal_construction(m)
        assert len(fam) == m
        assert is_union_closed(fam)
        assert fam.total_size() == f_extremal(m)
        assert fam.n == min_ground(m)


def test_extremal_construction_full_power_set():
    for n in range(5):
        assert extremal_construction(1 << n) == Family.powerset(n)


@given(st.integers(1, 10**9))
def test_f_extremal_monotone_steps(m):
    # each extra set costs at least one element and at most the ground size
    n = min_ground(m + 1)
    assert f_extremal(m) < f_extremal(m + 1) or m == 1
    assert f_extremal(m + 1) - f_extremal(m) <= n


# --- the down-set comparison ------------------------------------------------------


def test_downset_slack_nonnegative_exhaustive():
    for n in range(5):
        for mask in range(1 << (1 << n)):
            fam = Family(n, mask)
            if is_downset(fam):
                assert kk_downset_bound(fam) >= 0


def test_downset_slack_zero_on_segments():
    for m in range(17):
        assert kk_downset_bound(initial_segment(m, 4)) == 0


def test_downset_slack_rejects_non_downsets():
    with pytest.raises(DomainError):
        kk_downset_bound(Family.from_sets(2, [[1, 2]]))


def test_colex_total_against_conftest_oracle():
    for m in (0, 1, 9, 100, 1000):
        assert colex_total_size(m) == oracle_colex_total(m)

"""Tests for the benchmark's pure-set oracle.

    PYTHONPATH=src python3 -m pytest bench/test_oracle.py
"""
from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
from ucfam import Family, colex_total_size, deficiency, is_simply_rooted, is_union_closed, roots, stats  # noqa: E402


def as_sets(fam: Family) -> frozenset[frozenset[int]]:
    """Bridge from ucfam's characteristic vector: cell s holds element b+1 iff bit b of s."""
    return frozenset(
        frozenset(b + 1 for b in range(fam.n) if (s >> b) & 1)
        for s in range(1 << fam.n)
        if (fam.mask >> s) & 1
    )


def as_cell(elements: frozenset[int]) -> int:
    return sum(1 << (e - 1) for e in elements)


@pytest.mark.parametrize("n", range(5))
def test_union_closed_counts_match_oeis(n):
    assert sum(1 for _ in oracle.union_closed_families(n)) == oracle.UNION_CLOSED_COUNTS[n]


@pytest.mark.parametrize("n", range(4))
def test_agrees_with_ucfam_on_every_family(n):
    for mask in range(1 << (1 << n)):
        fam = Family(n, mask)
        sets = as_sets(fam)
        table = oracle.root_table(sets)
        assert oracle.is_union_closed(sets) == is_union_closed(fam), fam
        assert oracle.is_simply_rooted(sets, table) == is_simply_rooted(fam), fam
        for b in sets:
            assert as_cell(table[b]) == roots(fam, as_cell(b)), (fam, b)
        st = stats(fam)
        assert oracle.total_size(sets) == st.total_size == fam.total_size()
        assert oracle.colex_total(len(sets)) == colex_total_size(len(fam))
        assert oracle.max_rooted_count(n, sets, table) == st.max_rooted_count, fam
        assert oracle.max_degree(n, sets) == st.max_degree
        assert oracle.deficiency(sets) == deficiency(fam)


def test_root_recursion_matches_the_definition():
    """[{e}, B] inside F, checked subset by subset, on every family over 3 points."""
    cells = oracle.power_set(3)
    for code in range(1 << len(cells)):
        fam = frozenset(c for i, c in enumerate(cells) if (code >> i) & 1)
        table = oracle.root_table(fam)
        for b in fam:
            direct = {
                e for e in b
                if all(c in fam for c in cells if e in c and c <= b)
            }
            assert table[b] == direct


def test_parse_family_roundtrip():
    n, fam = oracle.parse_family("n=3\n{}\n{1}\n{1,3}\n")
    assert n == 3
    assert fam == frozenset({frozenset(), frozenset({1}), frozenset({1, 3})})
    with pytest.raises(ValueError):
        oracle.parse_family("n=2\n{3}\n")
    with pytest.raises(ValueError):
        oracle.parse_family("{1}\n")


def test_probe_values_on_a_known_violation():
    """The n = 4 refutation of the max-rooted probe exceeds its bound by exactly 1."""
    found = []
    for uc in oracle.union_closed_families(4):
        fam = oracle.complement(4, uc)
        lhs, rhs = oracle.probe_values(4, fam)["probe_max_rooted_bound"]
        if lhs > rhs:
            found.append(lhs - rhs)
    assert found == [1] * 24

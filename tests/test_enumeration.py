"""Exhaustive streams, seeded sampling, canonical forms, extremal search."""
from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_roots, simply_rooted_at, subsets, union_closed_at
from ucfam import (
    CapacityError,
    DomainError,
    EnumerationPlan,
    Family,
    bitops,
    canonicalize,
    complement,
    decode_set,
    encode_set,
    enumerate_simply_rooted,
    enumerate_union_closed,
    extremal_construction,
    extremal_search,
    f_extremal,
    indexed_rooted_sample,
    indexed_sample,
    is_simply_rooted,
    is_union_closed,
    random_union_closed,
)
from ucfam.enumeration import SplitMix64, _root_repair, population_size, union_closure

UNION_CLOSED_COUNTS = {0: 2, 1: 4, 2: 14, 3: 122, 4: 4960}


def permute_family(fam: Family, perm: dict[int, int]) -> Family:
    return Family.from_sets(
        fam.n, ([perm[e] for e in decode_set(s)] for s in fam)
    )


# --- exhaustive streams ----------------------------------------------------------


@pytest.mark.parametrize("n, count", sorted(UNION_CLOSED_COUNTS.items()))
def test_union_closed_counts_frozen(n, count):
    assert len(union_closed_at(n)) == count


def test_union_closed_stream_is_duplicate_free():
    masks = [f.mask for f in union_closed_at(3)]
    assert len(masks) == len(set(masks))
    assert all(is_union_closed(f) for f in union_closed_at(3))


def test_simply_rooted_stream_is_the_complement_stream():
    for n in range(4):
        rooted = simply_rooted_at(n)
        assert len(rooted) == UNION_CLOSED_COUNTS[n]
        assert {f.mask for f in rooted} == {
            complement(f).mask for f in union_closed_at(n)
        }
        assert all(is_simply_rooted(f) for f in rooted)


def test_empty_family_is_in_the_rooted_stream():
    # complement of the full power set
    assert any(f.mask == 0 for f in simply_rooted_at(2))


def test_exhaustive_plan_capacity():
    with pytest.raises(CapacityError):
        EnumerationPlan(n=5)
    with pytest.raises(CapacityError):
        EnumerationPlan(n=17, mode="random")


@pytest.mark.parametrize("fields", [{"sample_count": 7}, {"seed": 5}, {"seed": -1}])
def test_exhaustive_plan_rejects_sampling_fields(fields):
    with pytest.raises(DomainError):
        EnumerationPlan(n=2, **fields)
    assert EnumerationPlan(n=2, sample_count=0, seed=0) == EnumerationPlan(n=2)


def test_plan_rejects_negative_ground_size():
    for mode in ("exhaustive", "random"):
        with pytest.raises(DomainError):
            EnumerationPlan(n=-1, mode=mode, sample_count=3)


def test_random_plan_rejects_negative_sample_count():
    with pytest.raises(DomainError):
        EnumerationPlan(n=3, mode="random", sample_count=-5, seed=1)
    assert EnumerationPlan(n=3, mode="random", sample_count=0, seed=1).sample_count == 0


# --- seeded randomness ------------------------------------------------------------


def test_random_union_closed_edges():
    assert len(random_union_closed(4, 0, 9)) == 0
    assert len(random_union_closed(4, 1, 9)) == 1


def test_random_union_closed_is_closed_and_deterministic():
    for seed in range(2500):
        fam = random_union_closed(5, seed % 5 + 1, seed)
        assert is_union_closed(fam)
    assert random_union_closed(6, 4, 123) == random_union_closed(6, 4, 123)


def _fixpoint_closure(cells: list[int]) -> int:
    """Add pairwise unions until none is new, on plain sets of encodings."""
    sets = set(cells)
    while True:
        grown = sets | {a | b for a in sets for b in sets}
        if grown == sets:
            return sum(1 << s for s in sets)
        sets = grown


@settings(max_examples=200)
@given(st.integers(0, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=8))
))
def test_union_closure_matches_fixpoint(case):
    n, cells = case
    assert union_closure(n, cells) == _fixpoint_closure(cells)


def test_random_stream_is_reproducible():
    plan = EnumerationPlan(n=5, mode="random", sample_count=40, seed=11)
    a = list(enumerate_union_closed(plan))
    b = list(enumerate_union_closed(plan))
    assert a == b
    assert len(a) == 40
    assert all(is_union_closed(f) for f in a)


def test_indexed_sample_matches_stream_order():
    random = EnumerationPlan(n=5, mode="random", sample_count=25, seed=3)
    exhaustive = EnumerationPlan(n=3)
    for plan, indices in ((random, (0, 7, 13, 24)), (exhaustive, range(UNION_CLOSED_COUNTS[3]))):
        stream = list(enumerate_union_closed(plan))
        rooted_stream = list(enumerate_simply_rooted(plan))
        assert population_size(plan) == len(stream)
        for i in indices:
            assert indexed_sample(plan, i) == stream[i]
            assert indexed_rooted_sample(plan, i) == rooted_stream[i]
            assert indexed_rooted_sample(plan, i) == complement(stream[i])


def _reference_root_repair(n: int, cells: list[int], rng: SplitMix64) -> int:
    """_root_repair's documented loop on plain sets: while some nonempty member
    has no root, patch the least one (by encoding) with the interval from a
    random one of its elements, drawn over its ascending elements."""
    sets = {frozenset(decode_set(s)) for s in cells}
    while True:
        rootless = [b for b in sets if b and not oracle_roots(sets, b)]
        if not rootless:
            return Family.from_sets(n, sets).mask
        s = min(rootless, key=encode_set)
        elems = sorted(s)
        b = elems[rng.below(len(elems))]
        sets |= {frozenset(x) for x in subsets(s) if b in x}


@settings(max_examples=300)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=2 * n + 2))
    ),
    st.integers(0, (1 << 64) - 1),
)
def test_root_repair_matches_the_documented_loop(case, state):
    n, cells = case
    rng, ref_rng = SplitMix64(state), SplitMix64(state)
    assert _root_repair(n, cells, rng) == _reference_root_repair(n, cells, ref_rng)
    assert rng.state == ref_rng.state


def test_sampler_makes_no_rooted_mask_sweep(monkeypatch):
    plans = [EnumerationPlan(n=n, mode="random", sample_count=80, seed=n) for n in range(4, 9)]
    before = [list(enumerate_simply_rooted(plan)) for plan in plans]

    def sweep(*args):
        raise AssertionError("the sampler swept rooted masks")

    monkeypatch.setattr(bitops, "rooted_masks", sweep)
    monkeypatch.setattr(bitops, "rootless", sweep)
    assert [list(enumerate_simply_rooted(plan)) for plan in plans] == before


# --- canonical forms ---------------------------------------------------------------


def test_canonicalize_identifies_relabelings():
    a = Family.from_sets(2, [[1]])
    b = Family.from_sets(2, [[2]])
    assert canonicalize(a) == canonicalize(b)


@settings(max_examples=100)
@given(st.integers(0, len(union_closed_at(3)) - 1), st.integers(0, 5))
def test_canonicalize_is_permutation_invariant(idx, perm_idx):
    fam = union_closed_at(3)[idx]
    perm = dict(zip([1, 2, 3], list(permutations([1, 2, 3]))[perm_idx]))
    assert canonicalize(permute_family(fam, perm)) == canonicalize(fam)


def test_canonicalize_extremal_construction_stable():
    for m in (5, 6, 7, 12):
        fam = extremal_construction(m)
        perm = {i: i % fam.n + 1 for i in range(1, fam.n + 1)}  # cyclic shift
        assert canonicalize(permute_family(fam, perm)) == canonicalize(fam)


def test_canonicalize_capacity():
    with pytest.raises(CapacityError):
        canonicalize(Family.empty(9))


# --- extremal search ----------------------------------------------------------------


def test_extremal_search_n2_m3():
    best, classes = extremal_search(2, 3)
    assert best == 3
    assert classes == [canonicalize(Family.from_sets(2, [[], [1], [1, 2]]))]


def test_extremal_search_full_power_set():
    best, classes = extremal_search(3, 8)
    assert best == 12
    assert classes == [Family.powerset(3)]


def test_extremal_search_n4_m12():
    best, classes = extremal_search(4, 12)
    assert best == 24 == f_extremal(12)
    assert canonicalize(extremal_construction(12)) in classes


def test_extremal_search_errors():
    with pytest.raises(CapacityError):
        extremal_search(5, 3)
    with pytest.raises(DomainError):
        extremal_search(2, 5)
    with pytest.raises(DomainError):
        extremal_search(-1, 1)

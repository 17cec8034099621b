"""Down/up sweeps, their traces, the mirror duality, and cube decompositions."""
from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import families, members, rooted_families, simply_rooted_at, union_closed_at
from ucfam import (
    DomainError,
    Family,
    complement,
    decode_set,
    encode_set,
    full_down,
    full_up,
    is_downset,
    is_simply_rooted,
    reimer_decomposition,
    roots,
    uc_image_witness,
)


# --- a pure-set oracle for one compression step -----------------------------------


def oracle_down_step(sets: set[frozenset[int]], i: int) -> set[frozenset[int]]:
    out = set()
    for b in sets:
        lower = b - {i}
        out.add(lower if i in b and lower not in sets else b)
    return out


def oracle_up_step(sets: set[frozenset[int]], i: int) -> set[frozenset[int]]:
    out = set()
    for b in sets:
        upper = b | {i}
        out.add(upper if i not in b and upper not in sets else b)
    return out


@settings(max_examples=200)
@given(families(max_n=5))
def test_down_sweep_matches_oracle(fam):
    want = members(fam)
    for i in range(1, fam.n + 1):
        want = oracle_down_step(want, i)
    down, trace = full_down(fam)
    assert members(down) == want
    assert trace.result == down


@settings(max_examples=200)
@given(families(max_n=5))
def test_up_sweep_matches_oracle(fam):
    want = members(fam)
    for i in range(1, fam.n + 1):
        want = oracle_up_step(want, i)
    up, _ = full_up(fam)
    assert members(up) == want


# --- sweep invariants ---------------------------------------------------------------


@given(families(max_n=5))
def test_sweeps_preserve_cardinality(fam):
    down, _ = full_down(fam)
    up, _ = full_up(fam)
    assert len(down) == len(fam) == len(up)


@given(families(max_n=5))
def test_down_sweep_shrinks_total_size(fam):
    down, _ = full_down(fam)
    assert down.total_size() <= fam.total_size()


def test_down_sweep_fixes_downsets():
    for n in range(4):
        for mask in range(1 << (1 << n)):
            fam = Family(n, mask)
            if is_downset(fam):
                assert full_down(fam)[0] == fam


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_rooted_down_sweep_reaches_a_downset(n):
    for fam in simply_rooted_at(n):
        assert is_downset(full_down(fam)[0])


def test_ascending_pass_reaches_downset_on_everything_small():
    # empirically order 1..n lands every n <= 3 family in a down-set in one pass
    for n in range(4):
        for mask in range(1 << (1 << n)):
            assert is_downset(full_down(Family(n, mask))[0])


# --- trace mechanics ------------------------------------------------------------------


@given(families(max_n=5))
def test_trace_prefixes_and_images_agree(fam):
    _, trace = full_down(fam)
    n = fam.n
    assert trace.prefix_family(0) == fam
    assert trace.prefix_family(n) == trace.result
    img = trace.image_map()
    assert Family.from_cells(n, img.values()) == trace.result
    for s in fam:
        assert trace.prefix_image(s, n) == trace.image(s)
        assert trace.prefix_image(s, 0) == s


@given(families(max_n=5))
def test_trace_fixed_mask_is_the_unmoved_part(fam):
    _, trace = full_down(fam)
    fixed = trace.fixed_mask()
    for s in fam:
        assert ((fixed >> s) & 1 == 1) == (trace.image(s) == s)


def test_trace_image_requires_membership():
    _, trace = full_down(Family.from_sets(2, [[1]]))
    with pytest.raises(DomainError):
        trace.image(0b10)


# --- the mirror duality ----------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_down_up_mirror_exhaustive(n):
    # complement of every down-sweep prefix equals the up-sweep prefix of the complement
    for mask in range(1 << (1 << n)):
        fam = Family(n, mask)
        _, dtrace = full_down(fam)
        _, utrace = full_up(complement(fam))
        for k in range(n + 1):
            assert complement(dtrace.prefix_family(k)) == utrace.prefix_family(k)


@settings(max_examples=150)
@given(families(min_n=4, max_n=6))
def test_down_up_mirror_sampled(fam):
    _, dtrace = full_down(fam)
    _, utrace = full_up(complement(fam))
    for k in range(fam.n + 1):
        assert complement(dtrace.prefix_family(k)) == utrace.prefix_family(k)


# --- cube decompositions ------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_reimer_cubes_tile_exhaustive(n):
    for fam in union_closed_at(n):
        dec = reimer_decomposition(fam)
        assert dec.disjoint
        # cubes are pairwise disjoint, so their cells add up
        assert dec.covered.bit_count() == dec.total_cube_cells
        # each member sits at the bottom of its own cube
        assert fam.mask & ~dec.covered == 0


def test_reimer_rejects_non_union_closed():
    with pytest.raises(DomainError):
        reimer_decomposition(Family.from_sets(2, [[1], [2]]))


@settings(max_examples=150)
@given(rooted_families(max_n=6))
def test_uc_image_witness_on_moved_members(fam):
    _, dtrace = full_down(fam)
    _, utrace = full_up(complement(fam))
    for s in fam:
        if dtrace.image(s) == s:
            with pytest.raises(DomainError):
                uc_image_witness(fam, s)
            continue
        k, a = uc_image_witness(fam, s)
        assert a == s & ~roots(fam, s)
        assert utrace.prefix_image(a, k) == s


def test_uc_image_witness_example():
    # {}, {1}, {1,2}: the pair {1,2} falls to {2}; its root is 1, A = {2}
    fam = Family.from_sets(2, [[], [1], [1, 2]])
    k, a = uc_image_witness(fam, encode_set([1, 2]))
    assert decode_set(a) == (2,)
    assert k >= 1

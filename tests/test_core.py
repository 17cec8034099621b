"""Encodings, the family container, text format, and the two predicates."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    families,
    members,
    oracle_reducible,
    oracle_roots,
    oracle_simply_rooted,
    oracle_total,
    oracle_union_closed,
    rooted_families,
    union_closed_at,
)
from ucfam import (
    DomainError,
    Family,
    ParseError,
    bitops,
    complement,
    cube,
    decode_set,
    encode_set,
    family_from_text,
    family_to_text,
    is_downset,
    is_simply_rooted,
    is_union_closed,
    parse_set_text,
    rooted_subfamily,
    roots,
    set_text,
    shadow,
    stats,
)
from ucfam.core import _simply_rooted_masks
from ucfam.enumeration import SplitMix64, union_closure


# --- encodings ---------------------------------------------------------------


@given(st.sets(st.integers(1, 12)))
def test_encode_decode_roundtrip(elements):
    assert set(decode_set(encode_set(elements))) == elements


def test_encode_rejects_out_of_range():
    with pytest.raises(DomainError):
        encode_set([0])
    with pytest.raises(DomainError):
        encode_set([3], n=2)


def test_set_text_examples():
    assert set_text(0) == "{}"
    assert set_text(0b101) == "{1,3}"
    assert parse_set_text("{1,3}", 4) == 0b101
    assert parse_set_text("{}", 4) == 0
    with pytest.raises(DomainError):
        set_text(-3)


@pytest.mark.parametrize(
    "text",
    ["{2,1}", "{1,1}", "{0}", "{5}", "1,2", "{a}"],
)
def test_parse_set_text_rejects(text):
    with pytest.raises(ParseError):
        parse_set_text(text, 4)


# --- the family container ----------------------------------------------------


def test_family_basics():
    fam = Family.from_sets(3, [[], [1], [1, 2]])
    assert len(fam) == 3
    assert 0 in fam and 0b11 in fam and 0b10 not in fam
    assert list(fam) == [0, 0b01, 0b11]  # ascending cell encodings
    assert fam.total_size() == 3
    assert Family.powerset(2).mask == 0b1111


def test_family_rejects_foreign_cells():
    with pytest.raises(DomainError):
        Family(1, 1 << 2)  # cell {2} outside P({1})
    with pytest.raises(DomainError):
        Family.from_cells(3, [-1])


@given(families(max_n=4))
def test_total_size_matches_oracle(fam):
    assert fam.total_size() == oracle_total(members(fam))


# --- text format ---------------------------------------------------------------


@given(families(max_n=5))
def test_family_text_roundtrip(fam):
    assert family_from_text(family_to_text(fam)) == fam


def test_family_text_examples():
    text = "n=2\n{}\n{1}\n{1,2}\n"
    fam = family_from_text(text)
    assert fam == Family.from_sets(2, [[], [1], [1, 2]])
    assert family_to_text(fam) == text


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("", 1),
        ("{1}\n", 1),  # missing header
        ("n=x\n", 1),
        ("n=2\n{1}\n{1}\n", 3),  # duplicate
        ("n=2\n{2,1}\n", 2),  # unsorted
        ("n=2\n{3}\n", 2),  # out of ground
    ],
)
def test_family_text_errors_carry_line(text, bad_line):
    with pytest.raises(ParseError) as exc:
        family_from_text(text)
    assert exc.value.line == bad_line


# --- predicates against pure-set oracles --------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_union_closed_matches_oracle_exhaustive(n):
    for mask in range(1 << (1 << n)):
        fam = Family(n, mask)
        assert is_union_closed(fam) == oracle_union_closed(members(fam))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_simply_rooted_matches_oracle_exhaustive(n):
    for mask in range(1 << (1 << n)):
        fam = Family(n, mask)
        assert is_simply_rooted(fam) == oracle_simply_rooted(members(fam))


@settings(max_examples=300)
@given(families(min_n=4, max_n=5))
def test_predicates_match_oracles_sampled(fam):
    sets = members(fam)
    assert is_union_closed(fam) == oracle_union_closed(sets)
    assert is_simply_rooted(fam) == oracle_simply_rooted(sets)


def naive_union_closed(fam: Family) -> bool:
    cells = list(fam)
    return all((fam.mask >> (s | t)) & 1 for s in cells for t in cells)


def test_union_closed_matches_pairwise_definition_n4():
    for mask in range(1 << 16):
        fam = Family(4, mask)
        assert is_union_closed(fam) == naive_union_closed(fam), mask


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_union_closed_matches_pairwise_definition_random(n):
    # union closures, and the same closures with one cell toggled
    verdicts = set()
    for seed in range(4):
        rng = SplitMix64(seed)
        closed = Family(n, union_closure(n, [rng.next64() % (1 << n) for _ in range(3 + seed)]))
        cell = SplitMix64(seed + 100).next64() % (1 << n)
        for fam in (closed, Family(n, closed.mask ^ (1 << cell))):
            verdict = is_union_closed(fam)
            assert verdict == naive_union_closed(fam)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def near_misses(n: int, seed: int) -> tuple[Family, Family]:
    """A union closure with one reducible member s | t removed, and the same
    closure with one cell from outside it added."""
    rng = SplitMix64(seed)
    closed = Family(n, union_closure(n, [rng.next64() % (1 << n) for _ in range(3 + seed % 4)]))
    joins = sorted({s | t for s in closed for t in closed if s | t not in (s, t)})
    rng = SplitMix64(seed + 200)
    removed = joins[rng.below(len(joins))]
    # the largest cell outside is often the whole ground set, which keeps closure
    outside = list(complement(closed))
    added = outside[rng.below(len(outside))] if seed % 2 else outside[-1]
    return Family(n, closed.mask ^ (1 << removed)), Family(n, closed.mask | (1 << added))


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_union_closed_matches_pairwise_definition_near_misses(n):
    # one cell away from closed: the removed join breaks closure, while an
    # added cell breaks it unless every join with it lands in the family
    added_verdicts = set()
    for seed in range(8):
        removed, added = near_misses(n, seed)
        assert not is_union_closed(removed)
        assert not naive_union_closed(removed)
        verdict = is_union_closed(added)
        assert verdict == naive_union_closed(added)
        added_verdicts.add(verdict)
    assert added_verdicts == {True, False}


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_reducible_matches_definition_exhaustive(n):
    for mask in range(1 << (1 << n)):
        fam = Family(n, mask)
        got = Family(n, bitops.reducible(n, mask))
        assert members(got) == oracle_reducible(members(fam)), mask


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_rooted_masks_match_rooted_mask_exhaustive(n):
    for mask in range(1 << (1 << n)):
        assert bitops.rooted_masks(n, mask) == [
            bitops.rooted_mask(n, mask, b) for b in range(1, n + 1)
        ]


@settings(max_examples=150)
@given(families(min_n=4, max_n=9))
def test_rooted_masks_match_rooted_mask_sampled(fam):
    n = fam.n
    assert bitops.rooted_masks(n, fam.mask) == [
        bitops.rooted_mask(n, fam.mask, b) for b in range(1, n + 1)
    ]


@pytest.mark.parametrize("n", range(13))
def test_without_each_sweeps_every_element_but_one(n):
    # a state that records which elements were swept: b, then all but b
    off = bitops._off_axes(n)

    def record(table, swept, elements):
        assert table is off, "every step gets the driver's table"
        for i in elements:
            assert not (swept >> (i - 1)) & 1, "element swept twice"
            swept |= 1 << (i - 1)
        return swept

    full = (1 << n) - 1
    assert list(bitops._without_each(off, 0, record)) == [
        (b, full ^ (1 << (b - 1))) for b in range(1, n + 1)
    ]


def lane_rootless_want(n: int, masks: list[int]) -> int:
    """rootless of each family by its own rooted masks, packed lane by lane."""
    return bitops.pack_lanes(n, [bitops.rootless(m, bitops.rooted_masks(n, m)) for m in masks])


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_rootless_lanes_match_rooted_masks_exhaustive(n):
    # every ordered pair of families on n points, in two lanes
    masks = range(1 << (1 << n))
    for a in masks:
        for b in masks:
            packed = bitops.pack_lanes(n, [a, b])
            assert bitops.rootless_lanes(n, packed, 2) == lane_rootless_want(n, [a, b]), (a, b)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rootless_lanes_match_rooted_masks_sampled(data):
    n = data.draw(st.integers(0, 9))
    lanes = data.draw(st.integers(1, n + 1))
    fams = st.one_of(families(min_n=n, max_n=n), rooted_families(min_n=n, max_n=n))
    masks = [data.draw(fams).mask for _ in range(lanes)]
    got = bitops.rootless_lanes(n, bitops.pack_lanes(n, masks), lanes)
    assert got == lane_rootless_want(n, masks)


@pytest.mark.parametrize("n", range(2, 8))
def test_rootless_lanes_are_independent(n):
    # the family {{1..n}} has no root; a full or empty lane beside it must
    # neither root it nor be flagged
    lonely = 1 << ((1 << n) - 1)
    for other in (Family.powerset(n).mask, Family.empty(n).mask):
        for lane in range(3):
            masks = [other] * 3
            masks[lane] = lonely
            got = bitops.rootless_lanes(n, bitops.pack_lanes(n, masks), 3)
            assert got == lonely << (lane << n)


def test_rootless_lanes_without_lanes():
    assert bitops.rootless_lanes(0, 0, 0) == 0
    assert bitops.rootless_lanes(3, 0, 0) == 0
    assert bitops.pack_lanes(3, []) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_split_top_inverts_pack_lanes_exhaustive(n):
    halves = range(1 << (1 << (n - 1)))
    for mask in range(1 << (1 << n)):
        lo, hi = bitops.split_top(n, mask)
        assert lo in halves and hi in halves
        assert bitops.pack_lanes(n - 1, (lo, hi)) == mask
    for lo in halves:
        for hi in halves:
            assert bitops.split_top(n, bitops.pack_lanes(n - 1, (lo, hi))) == (lo, hi)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_split_top_is_the_top_element_split_sampled(data):
    n = data.draw(st.integers(1, 10))
    mask = data.draw(st.integers(0, bitops.universe(n)))
    lo, hi = bitops.split_top(n, mask)
    assert bitops.pack_lanes(n - 1, (lo, hi)) == mask
    sets = members(Family(n, mask))
    assert members(Family(n - 1, lo)) == {b for b in sets if n not in b}
    assert members(Family(n - 1, hi)) == {b - {n} for b in sets if n in b}


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_simply_rooted_masks_exhaustive(n):
    for fam in (Family(n, mask) for mask in range(1 << (1 << n))):
        if oracle_simply_rooted(members(fam)):
            assert _simply_rooted_masks(fam) == tuple(bitops.rooted_masks(n, fam.mask))
        else:
            with pytest.raises(DomainError, match="family is not simply rooted"):
                _simply_rooted_masks(fam)


@settings(max_examples=60, deadline=None)
@given(rooted_families(max_n=8))
def test_simply_rooted_masks_sampled(fam):
    assert _simply_rooted_masks(fam) == tuple(bitops.rooted_masks(fam.n, fam.mask))


@pytest.mark.parametrize("n", range(2, 8))
def test_simply_rooted_masks_reject_the_lonely_top(n):
    # {{1..n}} has no root once n >= 2
    with pytest.raises(DomainError, match="family is not simply rooted"):
        _simply_rooted_masks(Family(n, 1 << ((1 << n) - 1)))


def wide_families(n: int):
    """Arbitrary families on n points and their complements, with sampled simply
    rooted ones (many cells with several roots) and their union-closed complements."""
    fams = st.one_of(families(min_n=n, max_n=n), rooted_families(min_n=n, max_n=n))
    return st.one_of(fams, fams.map(complement))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rooted_masks_match_oracle_roots_sampled(n, data):
    fam = data.draw(wide_families(n))
    sets = members(fam)
    rooted = bitops.rooted_masks(n, fam.mask)
    for s in range(1 << n):
        want = oracle_roots(sets, frozenset(decode_set(s)))
        assert bitops.root_set(rooted, s) == encode_set(want), s


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reducible_matches_definition_sampled(n, data):
    fam = data.draw(wide_families(n))
    got = Family(n, bitops.reducible(n, fam.mask))
    assert members(got) == oracle_reducible(members(fam))


def roots_differ_want(n: int, rooted: list[int], d: int) -> int:
    """Cells whose root set is not their own elements in d, cell by cell."""
    return sum(1 << s for s in range(1 << n) if bitops.root_set(rooted, s) != s & d)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_roots_differ_matches_root_set_exhaustive(n):
    for mask in range(1 << (1 << n)):
        rooted = bitops.rooted_masks(n, mask)
        for d in range(1 << n):
            assert bitops.roots_differ(n, rooted, d) == roots_differ_want(n, rooted, d), (mask, d)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_roots_differ_matches_root_set_sampled(n, data):
    fam = data.draw(wide_families(n))
    rooted = bitops.rooted_masks(n, fam.mask)
    for d in data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4)):
        assert bitops.roots_differ(n, rooted, d) == roots_differ_want(n, rooted, d), d


def spread_want(n: int, cells: int, e: int) -> int:
    """The union of the cubes [a, a + e] over the cells a that miss e: the
    cells x whose part outside e is one of them."""
    return sum(1 << x for x in range(1 << n) if (cells >> (x & ~e)) & 1)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_spread_is_the_union_of_cubes_exhaustive(n):
    for e in range(1 << n):
        missing = sum(1 << a for a in range(1 << n) if not a & e)
        for cells in range(1 << (1 << n)):
            cells &= missing
            assert bitops.spread(cells, e) == spread_want(n, cells, e), (cells, e)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_spread_is_the_union_of_cubes_sampled(data):
    n = data.draw(st.integers(4, 8))
    e = data.draw(st.integers(0, (1 << n) - 1))
    cells = data.draw(families(min_n=n, max_n=n)).mask
    cells &= sum(1 << a for a in range(1 << n) if not a & e)
    assert bitops.spread(cells, e) == spread_want(n, cells, e)


@given(families(max_n=5))
def test_union_closed_iff_complement_simply_rooted(fam):
    assert is_union_closed(fam) == is_simply_rooted(complement(fam))


@given(families(max_n=5))
def test_complement_is_an_involution(fam):
    assert complement(complement(fam)) == fam


def test_empty_and_trivial_families():
    assert is_union_closed(Family.empty(3))
    assert is_simply_rooted(Family.empty(3))
    assert is_simply_rooted(Family.from_sets(3, [[]]))
    assert is_union_closed(Family.powerset(3))
    assert is_simply_rooted(Family.powerset(3))


# --- shadow, cube, roots -------------------------------------------------------


def test_shadow_example():
    s = encode_set([1, 2, 3])
    sh = shadow(3, s)
    assert members(sh) == {frozenset(x) for x in [(1, 2), (1, 3), (2, 3)]}
    assert len(shadow(3, 0)) == 0
    with pytest.raises(DomainError):
        shadow(3, -1)
    with pytest.raises(DomainError):
        shadow(3, 8)


def test_cube_example():
    c = cube(3, encode_set([1]), encode_set([1, 3]))
    assert members(c) == {frozenset([1]), frozenset([1, 3])}
    with pytest.raises(DomainError):
        cube(3, encode_set([2]), encode_set([1]))
    with pytest.raises(DomainError):
        cube(3, -1, 3)
    with pytest.raises(DomainError):
        cube(3, 0, -1)


@given(families(max_n=4), st.data())
def test_roots_match_oracle(fam, data):
    cells = list(fam)
    if not cells:
        return
    s = data.draw(st.sampled_from(cells))
    got = set(decode_set(roots(fam, s)))
    want = oracle_roots(members(fam), frozenset(decode_set(s)))
    assert got == want


def test_roots_requires_membership():
    with pytest.raises(DomainError):
        roots(Family.empty(2), 0b01)
    with pytest.raises(DomainError):
        roots(Family(2, 0b1111), -1)


def test_rooted_subfamily_splits_by_root():
    fam = Family.from_sets(2, [[], [1], [2], [1, 2]])
    side1 = rooted_subfamily(fam, encode_set([1]))
    assert members(side1) == {frozenset([1]), frozenset([1, 2])}
    # the empty set is rooted nowhere
    assert 0 not in side1
    with pytest.raises(DomainError):
        rooted_subfamily(Family(2, 0b1110), 8)  # element 4 of a 2-point ground set


# --- stats ---------------------------------------------------------------------


def test_stats_example():
    fam = Family.from_sets(3, [[1], [1, 2], [1, 2, 3], [3]])
    st_ = stats(fam)
    assert st_.m == 4
    assert st_.degrees == (3, 2, 2)
    assert st_.total_size == 7
    # {1},{12} are rooted at 1; {123} is not ({13} missing), {3} only at 3
    assert st_.max_rooted_count == 2
    assert st_.p.numerator == 1 and st_.p.denominator == 2


def test_downset_predicate():
    assert is_downset(Family.from_sets(2, [[], [1], [2]]))
    assert not is_downset(Family.from_sets(2, [[1, 2]]))


def test_union_closed_enumeration_is_the_filter():
    # the table built by the top-element split against the raw pairwise
    # filter over every family, in the same (ascending) order
    for n in range(5):
        direct = [
            mask
            for mask in range(1 << (1 << n))
            if oracle_union_closed(members(Family(n, mask)))
        ]
        assert [f.mask for f in union_closed_at(n)] == direct

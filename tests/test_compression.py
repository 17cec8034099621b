"""Down/up sweeps, their traces, the mirror duality, and cube decompositions."""
from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import families, members, rooted_families, simply_rooted_at, union_closed_at
from ucfam import (
    DomainError,
    Family,
    bitops,
    complement,
    decode_set,
    encode_set,
    full_down,
    full_up,
    is_downset,
    is_simply_rooted,
    roots,
)
from ucfam.compression import _cube_cover, _witnessed
from ucfam.verify import _FAMILY_CHECKS, build_evidence


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


# --- history groups against a per-cell sweep replay ------------------------------------


def replay_sweep(fam: Family, down: bool) -> list[dict[int, int]]:
    """Cell of every original member after each prefix of the sweep, one cell at a time."""
    pos = {s: s for s in fam}
    out = [dict(pos)]
    for i in range(fam.n):
        bit = 1 << i
        occupied = set(pos.values())
        step = {}
        for s, c in pos.items():
            target = c & ~bit if down else c | bit
            step[s] = target if target != c and target not in occupied else c
        pos = step
        out.append(dict(pos))
    return out


def assert_trace_matches_replay(fam: Family) -> None:
    for down, sweep in ((True, full_down), (False, full_up)):
        _, trace = sweep(fam)
        cells = replay_sweep(fam, down)
        n = fam.n
        for k in range(n + 1):
            assert trace.prefix_masks[k] == Family.from_cells(n, cells[k].values()).mask
            for s in fam:
                assert trace.prefix_image(s, k) == cells[k][s]
        for s in fam:
            assert trace.image(s) == cells[n][s]
        assert trace.fixed_mask() == Family.from_cells(
            n, (s for s in fam if cells[n][s] == s)
        ).mask
        moves = {}
        for s in fam:
            steps = tuple(
                (k, cells[k][s]) for k in range(1, n + 1) if cells[k][s] != cells[k - 1][s]
            )
            if steps:
                moves[s] = steps
        assert trace.moves == moves
        assert trace.moved_mask() == Family.from_cells(n, moves).mask


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_group_traces_match_cell_replay_exhaustive(n):
    for mask in range(1 << (1 << n)):
        fam = Family(n, mask)
        assert_trace_matches_replay(fam)
        # each direction of a history moved its own element: an up-group
        # member misses its history and a down-group member contains it
        assert all(
            s & a == (a if down else 0)
            for down, sweep in ((True, full_down), (False, full_up))
            for a, g in sweep(fam)[1].groups.items()
            for s in bitops.iter_bits(g)
        )


@settings(max_examples=120)
@given(families(max_n=8))
def test_group_traces_match_cell_replay_sampled(fam):
    assert_trace_matches_replay(fam)


@settings(max_examples=60)
@given(rooted_families(max_n=8))
def test_group_traces_match_cell_replay_rooted(fam):
    assert_trace_matches_replay(fam)
    assert_trace_matches_replay(complement(fam))


def test_double_drop_is_a_two_element_history():
    # {1,2} alone drops 1 at direction 1, then 2 at direction 2
    _, trace = full_down(Family.from_sets(2, [[1, 2]]))
    assert trace.groups == {0b11: 1 << 0b11}
    assert trace.moves == {0b11: ((1, 0b10), (2, 0))}


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
        ev = build_evidence(complement(fam))  # its up sweep is the one of fam
        covered, overlap = _cube_cover(ev.up)
        assert overlap is None
        # cubes are pairwise disjoint, so their cells add up
        uppers = ev.up.image_map()
        assert covered.bit_count() == sum(1 << (u & ~a).bit_count() for a, u in uppers.items())
        # each member sits at the bottom of its own cube
        assert fam.mask & ~covered == 0
        assert _FAMILY_CHECKS["lemma_reimer_cubes"](ev) == (True, 0, 0, None)


def cube_cover_reference(uppers: dict[int, int]) -> tuple[int, bool]:
    covered = 0
    disjoint = True
    for a, u in uppers.items():
        cube = bitops.interval(a, u)
        disjoint &= not covered & cube
        covered |= cube
    return covered, disjoint


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_cube_cover_matches_pairwise_reference(n):
    # any family's up sweep, union-closed or not, so overlaps occur too
    overlaps = 0
    for mask in range(1 << (1 << n)):
        _, trace = full_up(Family(n, mask))
        uppers = trace.image_map()
        covered, overlap = _cube_cover(trace)
        assert (covered, overlap is None) == cube_cover_reference(uppers)
        if overlap is not None:
            overlaps += 1
            a, u = overlap
            assert uppers[a] == u
            others = {b: v for b, v in uppers.items() if b != a}
            assert bitops.interval(a, u) & cube_cover_reference(others)[0]
    assert n < 2 or overlaps


def witnessed_reference(fam: Family) -> int:
    """Moved members s whose candidate A = s minus its roots is carried onto s
    by the complement's up sweep within the direction of the first fall of s."""
    rooted = bitops.rooted_masks(fam.n, fam.mask)
    _, down = full_down(fam)
    _, up = full_up(complement(fam))
    out = 0
    for s, steps in down.moves.items():
        a = s & ~bitops.root_set(rooted, s)
        if a in up.original and up.prefix_image(a, steps[0][0]) == s:
            out |= 1 << s
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_witnessed_matches_cell_reference(n):
    # any family, so members without a witness occur too
    misses = 0
    for mask in range(1 << (1 << n)):
        fam = Family(n, mask)
        _, down = full_down(fam)
        _, up = full_up(complement(fam))
        got = _witnessed(down, up, bitops.rooted_masks(n, mask))
        assert got == witnessed_reference(fam)
        misses += got != down.moved_mask()
    assert n < 2 or misses


@settings(max_examples=60)
@given(rooted_families(min_n=4, max_n=8))
def test_witnessed_covers_every_moved_member(fam):
    _, down = full_down(fam)
    _, up = full_up(complement(fam))
    got = _witnessed(down, up, bitops.rooted_masks(fam.n, fam.mask))
    assert got == witnessed_reference(fam) == down.moved_mask()


def test_reimer_rejects_non_union_closed():
    # the cubes are read off the evidence of the complement, which is not simply rooted
    with pytest.raises(DomainError):
        build_evidence(complement(Family.from_sets(2, [[1], [2]])))


@settings(max_examples=150)
@given(rooted_families(max_n=6))
def test_uc_image_witness_on_moved_members(fam):
    ev = build_evidence(fam)
    assert _witnessed(ev.down, ev.up, ev.rooted) == ev.down.moved_mask()
    for s, steps in ev.down.moves.items():
        # A = s minus its roots; the up sweep carries it onto s by the first fall of s
        assert ev.up.prefix_image(s & ~roots(fam, s), steps[0][0]) == s
    assert _FAMILY_CHECKS["lemma_uc_image"](ev) == (True, 0, 0, None)


def test_uc_image_witness_example():
    # {}, {1}, {1,2}: the pair {1,2} falls to {2}; its root is 1, A = {2}
    ev = build_evidence(Family.from_sets(2, [[], [1], [1, 2]]))
    s = encode_set([1, 2])
    a = s & ~bitops.root_set(ev.rooted, s)
    assert decode_set(a) == (2,)
    (k, _), = ev.down.moves[s]
    assert ev.up.prefix_image(a, k) == s
    assert (_witnessed(ev.down, ev.up, ev.rooted) >> s) & 1

"""Word-parallel primitives over characteristic vectors of set families.

A family over ground set {1..n} is held in a single Python int: bit s is set
iff the member set encoded by s belongs to the family, where a set's encoding
has bit i-1 set iff the set contains element i.  With that layout the basic
structural moves (one compression direction, "union with a fixed element",
subset-containment sweeps) each cost O(1) or O(n) big-integer operations no
matter how many sets the family holds.

Cell index arithmetic: the cell of B - {i} sits exactly 2^(i-1) positions
below the cell of B, so moving every set containing i down one direction is
a shift of the whole vector by 2^(i-1) bits.  Each per-element step splits
the vector by the cached cells without i (_off_axes), never building ~axis.

The rooted masks and the join-reducible members both need, for every
element b, a sweep over every element but b; _without_each is the one
driver that shares those sweeps.

Lanes: several families on the same n points sit side by side in one int,
family k in bits k*2^n .. (k+1)*2^n - 1 (pack_lanes).  A subset step by
element i shifts by 2^(i-1) < 2^n and keeps the shifted bit only on cells
that contain i, whose source cell (the same set less i) lies in the same
lane; so no bit crosses a lane, and with the off-axis table repeated in
every lane (_off_axes(n, lanes); one family is lanes = 1) one _without_each
sweep serves every lane at once (rootless_lanes).  A family on n points is
two lanes on n - 1 points, its members without n and its members with n less
n: split_top reads that top-element split and pack_lanes joins it.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

MAX_GROUND = 24

State = TypeVar("State")


@lru_cache(maxsize=None)
def universe(n: int) -> int:
    """All-ones vector over the 2^n cells of the power set."""
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def axis(n: int, i: int) -> int:
    """Cells whose set contains element i (1 <= i <= n)."""
    block = 1 << (i - 1)
    pat = ((1 << block) - 1) << block  # one 2^i wide period: low half 0, high half 1
    width = 2 * block
    size = 1 << n
    while width < size:
        pat |= pat << width
        width *= 2
    return pat


@lru_cache(maxsize=None)
def _lane_ones(n: int, lanes: int) -> int:
    """The empty-set cell of each of `lanes` lanes of 2^n bits."""
    return ((1 << (lanes << n)) - 1) // universe(n)


@lru_cache(maxsize=None)
def _off_axes(n: int, lanes: int = 1) -> tuple[int, ...]:
    """Cells without element i, at index i - 1 (the complements of the axes),
    repeated in each of `lanes` lanes of 2^n bits."""
    ones = _lane_ones(n, lanes)
    return tuple((universe(n) & ~axis(n, i)) * ones for i in range(1, n + 1))


def iter_bits(x: int) -> Iterator[int]:
    """Positions of set bits, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def down_fallers(n: int, mask: int, i: int) -> int:
    """Cells of mask that compressing direction i downward moves, at their pre-move
    position: each B with i moves to B - {i} unless that cell is occupied."""
    lo = mask & _off_axes(n)[i - 1]
    return (mask ^ lo) & ~(lo << (1 << (i - 1)))


def up_fallers(n: int, mask: int, i: int) -> int:
    """Cells of mask that compressing direction i upward moves, at their pre-move
    position: each B without i moves to B + {i} unless that cell is occupied."""
    lo = mask & _off_axes(n)[i - 1]
    return lo & ~((mask ^ lo) >> (1 << (i - 1)))


def or_with_element(n: int, mask: int, i: int) -> int:
    """Image of the family under B |-> B + {i}."""
    lo = mask & _off_axes(n)[i - 1]
    return (mask ^ lo) | (lo << (1 << (i - 1)))


def union_image(n: int, mask: int, s: int) -> int:
    """Image of the family under B |-> B union S, for the set encoded by s."""
    out = mask
    for b in iter_bits(s):
        out = or_with_element(n, out, b + 1)
    return out


def _subset_steps(off: Sequence[int], g: int, elements: range) -> int:
    """Apply the subset-AND step of subset_and for each element of `elements`,
    `off` being the off-axis table (_off_axes(n, lanes), one lane or many).

    g keeps a cell with element i only if the cell without i is in g too.
    The steps commute, so any subset of them may be applied in any order.
    """
    for i in elements:
        g &= off[i - 1] | (g << (1 << (i - 1)))
    return g


def subset_and(n: int, mask: int) -> int:
    """Vector g with g(B) = 1 iff every A <= B is in mask.

    This marks the sets whose entire power set lies in the family.
    """
    return _subset_steps(_off_axes(n), mask, range(1, n + 1))


def rooted_mask(n: int, mask: int, b: int) -> int:
    """Cells B with b in B and the whole interval [{b}, B] inside the family."""
    off = _off_axes(n)
    swept = _subset_steps(off, mask, range(1, b))
    return _subset_steps(off, swept, range(b + 1, n + 1)) & axis(n, b)


def _without_each(
    off: Sequence[int], state: State, steps: Callable[[Sequence[int], State, range], State]
) -> Iterator[tuple[int, State]]:
    """Yield (b, state swept by `steps` over every element but b) for b = 1..n,
    n = len(off), the off-axis table that each `steps` call receives.

    `steps(off, state, elements)` must apply commuting per-element steps.
    Halving the element range shares the sweeps: each half is entered after
    sweeping the other half, so the n results cost n log n steps instead of
    n(n - 1).  The halves wait on an explicit stack (a recursive nested
    function would be a reference cycle per call).
    """
    n = len(off)
    todo = [(state, 1, n + 1)] if n else []  # (state, lo, hi): elements lo..hi-1 not yet swept
    while todo:
        state, lo, hi = todo.pop()
        if hi - lo == 1:
            yield lo, state
            continue
        mid = (lo + hi) // 2
        todo.append((steps(off, state, range(lo, mid)), mid, hi))
        todo.append((steps(off, state, range(mid, hi)), lo, mid))


def rooted_masks(n: int, mask: int) -> list[int]:
    """rooted_mask for every b = 1..n (index b-1 in the result), by one
    _without_each sweep: sweeping every element but b leaves the cells
    through b whose interval [{b}, B] lies in the family."""
    return [g & axis(n, b) for b, g in _without_each(_off_axes(n), mask, _subset_steps)]


def pack_lanes(n: int, masks: Iterable[int]) -> int:
    """Families on n points side by side, the k-th in lane k (bits from k*2^n)."""
    out = 0
    for k, mask in enumerate(masks):
        out |= mask << (k << n)
    return out


def split_top(n: int, mask: int) -> tuple[int, int]:
    """The top-element split (lo, hi) of a family on n >= 1 points: lo holds
    the members without n and hi the members with n, n removed, both families
    on n - 1 points.  The inverse of pack_lanes(n - 1, (lo, hi))."""
    return mask & universe(n - 1), mask >> (1 << (n - 1))


def rootless_lanes(n: int, packed: int, lanes: int) -> int:
    """rootless for each of `lanes` families packed by pack_lanes, in place:
    the nonempty cells of each lane that no element roots.  One
    _without_each sweep over the lane-repeated table roots every lane, as
    rooted_masks roots one family; a family alone is the case lanes = 1."""
    off = _off_axes(n, lanes)
    anyroot = _lane_ones(n, lanes)  # the empty cells need no root
    for b, g in _without_each(off, packed, _subset_steps):
        anyroot |= g & ~off[b - 1]
    return packed & ~anyroot


def _up_steps(off: Sequence[int], gh: tuple[int, int], elements: range) -> tuple[int, int]:
    """Apply the superset steps of reducible for each element of `elements`.

    g gains every cell one element i above a cell of g (the superset
    closure); h gains the same cells, which lie strictly above a cell of g
    (the strict superset closure).  The steps commute, as in _subset_steps.
    """
    g, h = gh
    for i in elements:
        up = (g & off[i - 1]) << (1 << (i - 1))
        g |= up
        h |= up
    return g, h


def reducible(n: int, mask: int) -> int:
    """Nonempty cells of mask whose set is the union of the members strictly inside it.

    B is such a union iff every b in B lies in a member strictly inside B,
    that is iff B is in the strict superset closure of the members through b.
    Sweeping elements other than b keeps a cell on its side of axis(b), so
    that closure is the sweep of the whole mask over every element but b,
    cut to axis(b); _without_each shares the n sweeps.  The members left
    over are the join-irreducible ones; the empty set counts among them.
    """
    off = _off_axes(n)
    out = mask & ~1
    for b, (_, h) in _without_each(off, (mask, 0), _up_steps):
        out &= h | off[b - 1]
    return out


def rootless(mask: int, rooted: Iterable[int]) -> int:
    """Nonempty cells of mask that none of its rooted masks covers."""
    anyroot = 0
    for r in rooted:
        anyroot |= r
    return mask & ~anyroot & ~1


def root_set(rooted: Sequence[int], s: int) -> int:
    """Encoded set of the roots of cell s: the b whose rooted mask (index b-1) holds s."""
    out = 0
    for j, r in enumerate(rooted):
        if (r >> s) & 1:
            out |= 1 << j
    return out


def roots_differ(n: int, rooted: Sequence[int], d: int) -> int:
    """Cells whose root set is not their own elements in the encoded set d:
    those rooted at an element outside d, or holding an element of d that does
    not root them (`rooted` as rooted_masks returns it, index b-1 for b)."""
    out = 0
    for j, r in enumerate(rooted):
        out |= axis(n, j + 1) & ~r if (d >> j) & 1 else r
    return out


def rooted_union(rooted: Sequence[int], elements: int) -> int:
    """Cells rooted at some element of the encoded element set."""
    out = 0
    for b in iter_bits(elements):
        out |= rooted[b]
    return out


def spread(cells: int, elements: int) -> int:
    """Each of the cells a that miss the encoded `elements` spread to the cube [a, a + elements]."""
    for b in iter_bits(elements):
        cells |= cells << (1 << b)
    return cells


def interval(lower: int, upper: int) -> int:
    """Cells of the cube [lower, upper] = {X : lower <= X <= upper}; lower must lie inside upper."""
    return spread(1 << lower, upper & ~lower)


def swap_elements(n: int, mask: int, a: int, b: int) -> int:
    """Relabel the family by transposing ground elements a and b."""
    if a == b:
        return mask
    off = _off_axes(n)
    shift = abs((1 << (b - 1)) - (1 << (a - 1)))
    only_a = mask & axis(n, a) & off[b - 1]
    only_b = mask & axis(n, b) & off[a - 1]
    rest = mask ^ only_a ^ only_b
    if b > a:
        return rest | (only_a << shift) | (only_b >> shift)
    return rest | (only_a >> shift) | (only_b << shift)


def permute_cell(s: int, perm: tuple[int, ...]) -> int:
    """Re-encode one set under the permutation perm (perm[i-1] = image of element i)."""
    out = 0
    for b in iter_bits(s):
        out |= 1 << (perm[b] - 1)
    return out

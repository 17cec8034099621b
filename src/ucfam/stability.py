"""Bad sets, deficiency, partitions, and the Y and Z sets.

For a simply rooted family F a member B is *bad* when its shadow lies inside
F or the full downward sweep leaves it fixed; every other member is good.
Good members strictly shed one element under the sweep, which is what powers
every bound here: the more bad sets, the further ||F|| sits below the trivial
segment bound ||I(m)|| + m.

Partitions split the ground set into (S, T); writing F_S for the members
rooted in S, partition_search builds one in a single balancing pass that
always certifies 4|F_S||F_T| >= m0^2 - q^2, so the product is large whenever
no single element roots too many members.  Throughout, the two partition sides
are adjusted to carry the empty set when F does: F1 = F_S + {{}}, F2 = F_T +
{{}}, keeping F1 and F2 simply rooted with F1 union F2 = F, at the price of
the empty set always being bad (it is fixed and has an empty shadow).

The inequalities built on these counts are the checks of ucfam.verify.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import bitops
from .compression import CompressionTrace, full_down
from .core import Family, _require_simply_rooted
from .errors import CapacityError, DomainError

__all__ = [
    "BadSetAnalysis",
    "Partition",
    "classify_sets",
    "deficiency",
    "deficiency_tight_family",
    "largest_downset",
    "partition_search",
    "z_family",
]

@dataclass(frozen=True)
class Partition:
    """Two-sided split of the ground set, sides as encoded element sets."""

    n: int
    s_elements: int
    t_elements: int

    def __post_init__(self) -> None:
        full = (1 << self.n) - 1
        if self.s_elements & self.t_elements:
            raise DomainError("partition sides overlap")
        if self.s_elements | self.t_elements != full:
            raise DomainError("partition does not cover the ground set")


def _fallers(fam: Family) -> Iterator[int]:
    """The down-faller masks of the family for directions 1..n, one at a time:
    the members B through i whose shadow set B - i is missing."""
    return (bitops.down_fallers(fam.n, fam.mask, i) for i in range(1, fam.n + 1))


def deficiency(fam: Family) -> int:
    """Sum over members of how many shadow sets are missing from the family."""
    return sum(f.bit_count() for f in _fallers(fam))


def largest_downset(fam: Family) -> Family:
    """The members whose entire power set lies in the family (the largest down-set)."""
    return Family(fam.n, bitops.subset_and(fam.n, fam.mask))


def deficiency_tight_family(m: int, k: int) -> Family:
    """The colex segment of m sets with k fresh elements glued onto every member.

    Its deficiency is exactly k*m and its total size meets the deficiency
    bound with equality.
    """
    base_n = (m - 1).bit_length() if m > 1 else 0
    n = base_n + k
    if n > bitops.MAX_GROUND:
        raise CapacityError(f"needs ground size {n}")
    block = ((1 << k) - 1) << base_n
    return Family.from_cells(n, (s | block for s in range(m)))


def partition_search(fam: Family) -> Partition:
    """Balanced partition of the ground set in one pass over the elements.

    Elements 1..n in order each join the side whose rooted count, |F_S| or
    |F_T|, is currently smaller (ties go to S).  The result certifies
    4|F_S||F_T| >= m0^2 - q^2, where m0 counts the nonempty members and q the
    largest one-element rooted count |F_b|:

    - adding b to the smaller side raises that count by at most |F_b| <= q
      and leaves the other unchanged, so |F_S| and |F_T| never differ by
      more than q;
    - at the end every nonempty member has a root in S or in T, so
      a + c >= m0 for a = |F_S| and c = |F_T|;
    - hence 4ac = (a + c)^2 - (c - a)^2 >= m0^2 - q^2.
    """
    rooted = bitops.rooted_masks(fam.n, fam.mask)
    _require_simply_rooted(fam, rooted)
    return _partition(fam, rooted)


def _partition(fam: Family, rooted: Sequence[int]) -> Partition:
    """partition_search on a simply rooted family with its rooted masks."""
    s_el = side_s = side_t = 0
    for b, r in enumerate(rooted):
        if side_s.bit_count() <= side_t.bit_count():
            s_el |= 1 << b
            side_s |= r
        else:
            side_t |= r
    return Partition(fam.n, s_el, ((1 << fam.n) - 1) ^ s_el)


@dataclass(frozen=True)
class BadSetAnalysis:
    """Outcome of classify_sets: the bad/good split and the partition counts."""

    partition: Partition
    side_s: Family  # members rooted in S, plus {} when present
    side_t: Family
    shared: Family  # members of both sides, F1 intersect F2
    full_shadow: Family
    fixed: Family
    bad: Family
    good: Family
    y: Family  # full-shadow members that are also fixed

    @property
    def b(self) -> int:
        return len(self.bad)

    @property
    def b1(self) -> int:
        return (self.full_shadow.mask & ~self.shared.mask).bit_count()

    @property
    def b2(self) -> int:
        return len(self.shared)

    @property
    def b3(self) -> int:
        return len(self.fixed)

    @property
    def side_product(self) -> int:
        """|F_S||F_T|, counting the empty set on both sides when F has it."""
        return len(self.side_s) * len(self.side_t)


def classify_sets(fam: Family, partition: Partition | None = None) -> BadSetAnalysis:
    """Split a simply rooted family into bad and good members."""
    rooted = bitops.rooted_masks(fam.n, fam.mask)
    _require_simply_rooted(fam, rooted)
    _, down = full_down(fam)
    return _classify(fam, rooted, down, _fallers(fam), partition)


def _classify(
    fam: Family,
    rooted: Sequence[int],
    down: CompressionTrace,
    fallers: Iterable[int],
    partition: Partition | None = None,
) -> BadSetAnalysis:
    """classify_sets on a simply rooted family, its rooted masks, its down
    sweep and its down-faller masks."""
    if partition is None:
        partition = _partition(fam, rooted)
    n = fam.n
    empty_bit = fam.mask & 1
    side_s = bitops.rooted_union(rooted, partition.s_elements) | empty_bit
    side_t = bitops.rooted_union(rooted, partition.t_elements) | empty_bit
    fell = 0
    for f in fallers:
        fell |= f
    fs = fam.mask & ~fell  # members whose whole shadow lies in F
    fixed = down.fixed_mask()
    bad = fs | fixed
    return BadSetAnalysis(
        partition=partition,
        side_s=Family(n, side_s),
        side_t=Family(n, side_t),
        shared=Family(n, side_s & side_t),
        full_shadow=Family(n, fs),
        fixed=Family(n, fixed),
        bad=Family(n, bad),
        good=Family(n, fam.mask & ~bad),
        y=Family(n, fs & fixed),
    )


def z_family(fam: Family, side_s: Family, side_t: Family) -> Family:
    """Members of both sides whose three sweep images are pairwise distinct."""
    if side_s.mask | side_t.mask != fam.mask:
        raise DomainError("sides do not cover the family")
    if (side_s.mask | side_t.mask) & ~fam.mask:
        raise DomainError("sides contain non-members")
    _, tr = full_down(fam)
    _, tr_s = full_down(side_s)
    _, tr_t = full_down(side_t)
    return Family(fam.n, _z_mask(side_s.mask & side_t.mask, tr, tr_s, tr_t))


def _z_mask(
    shared: int, down: CompressionTrace, trace_s: CompressionTrace, trace_t: CompressionTrace
) -> int:
    """Cells of `shared` whose images under the three sweeps are pairwise distinct."""
    same = down.same_images(trace_s) | down.same_images(trace_t) | trace_s.same_images(trace_t)
    return shared & ~same

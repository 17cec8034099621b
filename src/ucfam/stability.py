"""Bad sets, deficiency, partitions, and the Y and Z sets.

For a simply rooted family F a member B is *bad* when its shadow lies inside
F or the full downward sweep leaves it fixed; every other member is good.
Good members strictly shed one element under the sweep, which is what powers
every bound here: the more bad sets, the further ||F|| sits below the trivial
segment bound ||I(m)|| + m.

Partitions split the ground set into (S, T); writing F_S for the members
rooted in S, the product |F_S||F_T| is large for some partition whenever no
single element roots too many members.  Throughout, the two partition sides
are adjusted to carry the empty set when F does: F1 = F_S + {{}}, F2 = F_T +
{{}}, keeping F1 and F2 simply rooted with F1 union F2 = F, at the price of
the empty set always being bad (it is fixed and has an empty shadow).

The inequalities built on these counts are the checks of ucfam.verify.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    "full_shadow_mask",
    "largest_downset",
    "partition_search",
    "y_family",
    "z_family",
]

FALLBACK_GROUND_LIMIT = 20


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


def deficiency(fam: Family) -> int:
    """Sum over members of how many shadow sets are missing from the family."""
    return sum(
        bitops.down_fallers(fam.n, fam.mask, i).bit_count() for i in range(1, fam.n + 1)
    )


def largest_downset(fam: Family) -> Family:
    """The members whose entire power set lies in the family (the largest down-set)."""
    return Family(fam.n, bitops.subset_and(fam.n, fam.mask))


def full_shadow_mask(fam: Family) -> int:
    """Cells of members with their whole shadow inside the family: those that
    fall in no direction of a down step."""
    fallers = 0
    for i in range(1, fam.n + 1):
        fallers |= bitops.down_fallers(fam.n, fam.mask, i)
    return fam.mask & ~fallers


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
    """Greedy balanced partition of the ground set by rooted-subfamily size.

    Starting from S empty, repeatedly apply the single-element move that most
    increases min(|F_S|, |F_T|) (ties: smallest element).  Any partition that
    no single move improves satisfies 4|F_S||F_T| >= m0^2 - q^2, where m0
    counts the nonempty members and q the largest one-element rooted count;
    that bound is asserted, with an exhaustive search as a fallback.
    """
    rooted = bitops.rooted_masks(fam.n, fam.mask)
    _require_simply_rooted(fam, rooted)
    return _partition(fam, rooted)


def _partition(fam: Family, rooted: Sequence[int]) -> Partition:
    """partition_search on a simply rooted family with its rooted masks."""
    n = fam.n
    full = (1 << n) - 1
    m0 = (fam.mask & ~1).bit_count()
    q = max((r.bit_count() for r in rooted), default=0)
    target = m0 * m0 - q * q  # 4|F_S||F_T| must reach this

    s_el = 0
    cur_min = 0
    while True:
        best = None  # (new_min, new_s_el)
        for b in range(n):
            new_s_el = s_el ^ (1 << b)
            ns = bitops.rooted_union(rooted, new_s_el).bit_count()
            nt = bitops.rooted_union(rooted, full ^ new_s_el).bit_count()
            new_min = min(ns, nt)
            if new_min > cur_min and (best is None or new_min > best[0]):
                best = (new_min, new_s_el)
        if best is None:
            break
        cur_min, s_el = best

    a = bitops.rooted_union(rooted, s_el).bit_count()
    b_ = bitops.rooted_union(rooted, full ^ s_el).bit_count()
    if 4 * a * b_ >= target:
        return Partition(n, s_el, full ^ s_el)
    return _partition_exhaustive(fam, rooted, target)


def _partition_exhaustive(fam: Family, rooted: Sequence[int], target: int) -> Partition:
    n = fam.n
    live = [b for b in range(n) if rooted[b]]
    if len(live) > FALLBACK_GROUND_LIMIT:
        raise CapacityError(f"exhaustive partition fallback over {len(live)} elements")
    best_prod = -1
    best_sel = 0
    for pick in range(1 << len(live)):
        s_el = 0
        for j, b in enumerate(live):
            if (pick >> j) & 1:
                s_el |= 1 << b
        t_el = ((1 << n) - 1) ^ s_el
        prod = (
            bitops.rooted_union(rooted, s_el).bit_count()
            * bitops.rooted_union(rooted, t_el).bit_count()
        )
        if prod > best_prod:
            best_prod, best_sel = prod, s_el
    if 4 * best_prod < target:  # impossible for simply rooted input
        raise RuntimeError("no partition certifies the product bound")
    return Partition(n, best_sel, ((1 << n) - 1) ^ best_sel)


@dataclass(frozen=True)
class BadSetAnalysis:
    """Outcome of classify_sets: the bad/good split and the partition counts."""

    partition: Partition
    side_s: Family  # members rooted in S, plus {} when present
    side_t: Family
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
        return (self.full_shadow.mask & ~(self.side_s.mask & self.side_t.mask)).bit_count()

    @property
    def b2(self) -> int:
        return (self.side_s.mask & self.side_t.mask).bit_count()

    @property
    def b3(self) -> int:
        return len(self.fixed)


def classify_sets(fam: Family, partition: Partition | None = None) -> BadSetAnalysis:
    """Split a simply rooted family into bad and good members."""
    rooted = bitops.rooted_masks(fam.n, fam.mask)
    _require_simply_rooted(fam, rooted)
    _, down = full_down(fam)
    return _classify(fam, rooted, down, partition)


def _classify(
    fam: Family,
    rooted: Sequence[int],
    down: CompressionTrace,
    partition: Partition | None = None,
) -> BadSetAnalysis:
    """classify_sets on a simply rooted family, its rooted masks and its down sweep."""
    if partition is None:
        partition = _partition(fam, rooted)
    n = fam.n
    empty_bit = fam.mask & 1
    side_s = bitops.rooted_union(rooted, partition.s_elements) | empty_bit
    side_t = bitops.rooted_union(rooted, partition.t_elements) | empty_bit
    fs = full_shadow_mask(fam)
    fixed = down.fixed_mask()
    bad = fs | fixed
    return BadSetAnalysis(
        partition=partition,
        side_s=Family(n, side_s),
        side_t=Family(n, side_t),
        full_shadow=Family(n, fs),
        fixed=Family(n, fixed),
        bad=Family(n, bad),
        good=Family(n, fam.mask & ~bad),
        y=Family(n, fs & fixed),
    )


def y_family(fam: Family) -> Family:
    """Members that are both full-shadow and fixed by the downward sweep."""
    fs = full_shadow_mask(fam)
    _, trace = full_down(fam)
    return Family(fam.n, fs & trace.fixed_mask())


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

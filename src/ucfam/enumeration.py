"""Enumeration and sampling of union-closed and simply rooted families.

A plan is a pure index map (plan, i) -> family over population_size(plan)
positions, and the streams walk it in index order.  Exhaustive mode indexes
the table of every union-closed family, built from the table one point
smaller by the top-element split and capped at n <= 4; the simply rooted
stream is the complement of each.

Randomness is a fixed splitmix64 stream.  Sample i of a run is generated
from substream(seed, i << 20), never from generator state shared across
samples, so any slice of the sample range can be produced independently:
parallel and serial runs agree bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from functools import lru_cache
from typing import Iterator, Literal

from . import bitops
from .core import Family, complement
from .errors import CapacityError, DomainError

__all__ = [
    "EnumerationPlan",
    "SplitMix64",
    "canonicalize",
    "enumerate_simply_rooted",
    "enumerate_union_closed",
    "extremal_search",
    "indexed_rooted_sample",
    "indexed_sample",
    "population_size",
    "random_union_closed",
]

EXHAUSTIVE_GROUND_LIMIT = 4
RANDOM_GROUND_LIMIT = 16
CANONICAL_GROUND_LIMIT = 8

_M64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """splitmix64 finalizer: the bijective scrambler on 64-bit words."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64), identical on every platform."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        return _mix64(self.state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise DomainError("bound must be positive")
        limit = (_M64 + 1) - ((_M64 + 1) % bound)
        while True:
            v = self.next64()
            if v < limit:
                return v % bound


def substream(seed: int, index: int) -> SplitMix64:
    """Independent generator for sample `index` of a run seeded with `seed`."""
    return SplitMix64(_mix64(seed) ^ _mix64(index ^ 0xA5A5A5A5A5A5A5A5))


def union_closure(n: int, cells: list[int]) -> int:
    """Characteristic vector of the union closure of the given set encodings.

    One step per cell: if the family so far is union-closed, adding S and
    every member joined with S keeps it union-closed, since the union of any
    two of these sets is again a member, S, or a member joined with S.
    """
    mask = 0
    for s in cells:
        mask |= bitops.union_image(n, mask, s) | (1 << s)
    return mask


def random_union_closed(n: int, seed_sets: int, seed: int) -> Family:
    """Union closure of seed_sets uniform subsets of {1..n}, deterministic in seed."""
    if n > RANDOM_GROUND_LIMIT:
        raise CapacityError(f"random sampling capped at n <= {RANDOM_GROUND_LIMIT}")
    rng = SplitMix64(seed)
    full = (1 << n) - 1
    cells = [rng.next64() & full for _ in range(seed_sets)]
    return Family(n, union_closure(n, cells))


def _root_repair(n: int, cells: list[int], rng: SplitMix64) -> int:
    """Grow the cells into a simply rooted family by patching rootless members.

    While some nonempty member lacks a root, take the least such cell, pick
    one of its elements at random, and add the whole interval from that
    singleton up to the member.  Added cells are rooted by construction and
    adding cells removes no root, so each patch roots one original cell and
    this stops after at most len(cells) patches; RuntimeError if it does not.
    """
    mask = 0
    for s in cells:
        mask |= 1 << s
    for _ in range(len(cells) + 1):
        rootless = bitops.rootless(mask, bitops.rooted_masks(n, mask))
        if not rootless:
            return mask
        s = (rootless & -rootless).bit_length() - 1
        elems = list(bitops.iter_bits(s))
        b = elems[rng.below(len(elems))]
        mask |= bitops.interval(1 << b, s)
    raise RuntimeError(f"root repair left rootless members after {len(cells)} patches")


def _random_sample(n: int, rng: SplitMix64) -> Family:
    """One random union-closed family; two regimes for size diversity.

    Closures of uniform seed sets stay small, so their simply rooted
    complements are always large.  The second regime builds a simply rooted
    family directly (cube repair) and returns its complement, covering the
    other end of the size range.
    """
    full = (1 << n) - 1
    if n == 0:
        return Family(0, rng.below(2))
    regime = rng.below(2)
    k = rng.below(2 * n + 2)
    cells = [rng.next64() & full for _ in range(k)]
    if regime == 0:
        return Family(n, union_closure(n, cells))
    rooted = _root_repair(n, cells, rng)
    return Family(n, rooted ^ bitops.universe(n))


@dataclass(frozen=True)
class EnumerationPlan:
    """What to enumerate: exhaustive small-n stream or seeded random samples."""

    n: int
    mode: Literal["exhaustive", "random"] = "exhaustive"
    sample_count: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "random"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.n < 0:
            raise DomainError(f"ground size must be >= 0, got {self.n}")
        if self.sample_count < 0:
            raise DomainError(f"sample count must be >= 0, got {self.sample_count}")
        if self.mode == "exhaustive" and (self.sample_count or self.seed):
            # an exhaustive plan draws nothing, so these would only mislabel it
            raise DomainError("sample count and seed apply to random mode only")
        if self.mode == "exhaustive" and self.n > EXHAUSTIVE_GROUND_LIMIT:
            raise CapacityError(
                f"exhaustive enumeration capped at n <= {EXHAUSTIVE_GROUND_LIMIT}"
            )
        if self.mode == "random" and self.n > RANDOM_GROUND_LIMIT:
            raise CapacityError(f"random sampling capped at n <= {RANDOM_GROUND_LIMIT}")


def _join_stable(n: int, closed: int) -> int:
    """S(closed) = {a : a | b in closed for every member b}, for a family on {1..n}.

    The cells a with a | b in the family are the preimage of the family
    under B |-> B | b, one element of b at a time.
    """
    out = bitops.universe(n)
    for b in bitops.iter_bits(closed):
        pre = closed
        for i in bitops.iter_bits(b):
            ax = bitops.axis(n, i + 1)
            pre &= ax
            pre |= pre >> (1 << i)
        out &= pre
    return out


@lru_cache(maxsize=8)
def _union_closed_masks(n: int) -> tuple[int, ...]:
    """Every union-closed family on {1..n}, ascending, built by the top-element split.

    F is union-closed iff F = A | {B + n : B in Bs} with A and Bs union-closed
    on {1..n-1} and A inside S(Bs) (_join_stable).  F's mask is A's plus Bs's
    shifted past the cells without n, so taking Bs, then A, each in ascending
    order gives the table in ascending order.
    """
    if n == 0:
        return (0, 1)
    below = _union_closed_masks(n - 1)
    shift = 1 << (n - 1)
    inside: dict[int, list[int]] = {}  # S(Bs) -> the A inside it, ascending
    out = []
    for high in below:
        stable = _join_stable(n - 1, high)
        if stable not in inside:
            inside[stable] = [a for a in below if not a & ~stable]
        top = high << shift
        out.extend(top | a for a in inside[stable])
    return tuple(out)


def population_size(plan: EnumerationPlan) -> int:
    """Number of index positions: the table size when exhaustive, the sample
    count when random."""
    if plan.mode == "exhaustive":
        return len(_union_closed_masks(plan.n))
    return plan.sample_count


def indexed_sample(plan: EnumerationPlan, index: int) -> Family:
    """Family `index` of the plan's union-closed stream; pure function of (plan, index).

    Index addressing is what makes sharded parallel runs reproducible: shard
    boundaries never shift the stream, because position i depends on nothing
    but (seed, i), or on i alone for an exhaustive plan.
    """
    if plan.mode == "exhaustive":
        return Family(plan.n, _union_closed_masks(plan.n)[index])
    # index << 20 is where sample `index` has always been drawn from (the
    # first draw of a former rejection loop), so every sample stays the same
    return _random_sample(plan.n, substream(plan.seed, index << 20))


def indexed_rooted_sample(plan: EnumerationPlan, index: int) -> Family:
    """Family `index` of the plan's simply rooted stream."""
    return complement(indexed_sample(plan, index))


def enumerate_union_closed(plan: EnumerationPlan) -> Iterator[Family]:
    """Stream the plan's union-closed families in index order."""
    for index in range(population_size(plan)):
        yield indexed_sample(plan, index)


def enumerate_simply_rooted(plan: EnumerationPlan) -> Iterator[Family]:
    """Stream simply rooted families: complements of the union-closed stream."""
    for fam in enumerate_union_closed(plan):
        yield complement(fam)


def canonicalize(fam: Family) -> Family:
    """Least relabeling of the family under ground-set permutations (n <= 8)."""
    if fam.n > CANONICAL_GROUND_LIMIT:
        raise CapacityError(f"canonical forms capped at n <= {CANONICAL_GROUND_LIMIT}")
    cells = list(fam)
    best = fam.mask
    for perm in permutations(range(1, fam.n + 1)):
        mask = 0
        for s in cells:
            mask |= 1 << bitops.permute_cell(s, perm)
        if mask < best:
            best = mask
    return Family(fam.n, best)


def extremal_search(n: int, m: int) -> tuple[int, list[Family]]:
    """Least total size over union-closed families of m sets in {1..n}.

    Returns the minimum and the canonical forms of every minimizer class.
    """
    if n > EXHAUSTIVE_GROUND_LIMIT:
        raise CapacityError(f"extremal search capped at n <= {EXHAUSTIVE_GROUND_LIMIT}")
    if not 0 <= m <= (1 << n):
        raise DomainError(f"no family of {m} sets in a {n}-cube")
    best: int | None = None
    minimizers: list[Family] = []
    for mask in _union_closed_masks(n):
        fam = Family(n, mask)
        if len(fam) != m:
            continue
        total = fam.total_size()
        if best is None or total < best:
            best, minimizers = total, [fam]
        elif total == best:
            minimizers.append(fam)
    if best is None:
        raise DomainError(f"no union-closed family of {m} sets in a {n}-cube")
    classes = sorted({canonicalize(f).mask for f in minimizers})
    return best, [Family(n, mask) for mask in classes]

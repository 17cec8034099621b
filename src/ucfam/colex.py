"""Colex order, initial segments, and exact size bounds for down-sets.

Colex compares two sets by the largest element where they differ: A < B iff
max(A xor B) lies in B.  Under our encoding this is integer order, so the
initial segment of length m is simply the cells 0..m-1 and its total size is
the number of one bits among 0..m-1.

f_extremal(m) is the least total size of a union-closed family of m sets.
For 2^(n-1) < m <= 2^n it equals ||P(n)|| - ||I(m')|| - m' with m' = 2^n - m,
achieved by removing {B + {n} : B in I(m')} from the full power set.

segment_bound gives the closed-form upper bound on ||I(m)||: with r the
unique integer satisfying 2^r < 3m < 2^(r+1) (3m is never a power of two),

    ||I(m)|| <= m(r/2 - 1) + (3/2)(m - 2^r/3) = (m(r+1) - 2^r) / 2.

The bound is tight exactly when m is a power of two or m = 2^k * c with c
binary-patterned 1(01)^j1, i.e. m = 2^a + 2^(a-2) + ... + 2^(a-2j) +
2^(a-2j-1) with bottom exponent >= 0; segment_bound_is_tight decides that.
"""
from __future__ import annotations

from fractions import Fraction

from . import bitops
from .core import Family, is_downset
from .errors import CapacityError, DomainError

__all__ = [
    "colex_superadditivity",
    "colex_superadditivity_slack",
    "colex_total_size",
    "czedli_threshold_agrees",
    "extremal_construction",
    "f_extremal",
    "initial_segment",
    "kk_downset_bound",
    "min_ground",
    "segment_bound",
    "segment_bound_is_tight",
    "segment_bound_sixths",
    "total_size_range",
]


def colex_total_size(m: int) -> int:
    """Total size of the colex initial segment with m sets: ones among 0..m-1."""
    if m < 0:
        raise DomainError("segment length must be nonnegative")
    total = 0
    bit = 0
    while (1 << bit) < m:
        period = 2 << bit
        half = 1 << bit
        total += (m // period) * half
        rem = m % period
        if rem > half:
            total += rem - half
        bit += 1
    return total


def total_size_range(limit: int) -> list[int]:
    """Prefix table t with t[m] = colex_total_size(m) for 0 <= m <= limit."""
    pc = [0] * (limit + 1)
    for k in range(1, limit + 1):
        pc[k] = pc[k >> 1] + (k & 1)
    out = [0] * (limit + 1)
    acc = 0
    for k in range(limit):
        acc += pc[k]
        out[k + 1] = acc
    return out


def min_ground(m: int) -> int:
    """The unique n with 2^(n-1) < m <= 2^n."""
    if m < 1:
        raise DomainError("family size must be positive")
    return (m - 1).bit_length()


def initial_segment(m: int, n: int | None = None) -> Family:
    """The first m sets in colex order, as a family over {1..n}."""
    if n is None:
        n = min_ground(m) if m else 0
    if n < 0 or not 0 <= m <= (1 << n):
        raise DomainError(f"segment of {m} sets does not fit in a {n}-cube")
    return Family(n, (1 << m) - 1)


def f_extremal(m: int) -> int:
    """Least total size of a union-closed family of m sets."""
    n = min_ground(m)
    m2 = (1 << n) - m
    return n * (1 << (n - 1)) - colex_total_size(m2) - m2 if n else 0


def extremal_construction(m: int) -> Family:
    """A union-closed family of m sets with total size f_extremal(m).

    Take the full power set of {1..n} and delete {B + {n} : B in I(m')},
    m' = 2^n - m.  The deleted cells are the segment cells joined as the top
    half of the cube's top-element split.
    """
    n = min_ground(m)
    if n > bitops.MAX_GROUND:
        raise CapacityError(f"extremal family needs ground size {n} > {bitops.MAX_GROUND}")
    m2 = (1 << n) - m
    deleted = bitops.pack_lanes(n - 1, (0, (1 << m2) - 1)) if n else 0
    return Family(n, bitops.universe(n) ^ deleted)


def kk_downset_bound(fam: Family) -> int:
    """||I(|F|)|| - ||F|| for a down-set F (nonnegative); DomainError otherwise."""
    if not is_downset(fam):
        raise DomainError("family is not a down-set")
    return colex_total_size(len(fam)) - fam.total_size()


def colex_superadditivity_slack(m1: int, m2: int) -> int:
    """||I(m1+m2)|| - ||I(m1)|| - ||I(m2)|| - min(m1, m2) (nonnegative)."""
    return (
        colex_total_size(m1 + m2)
        - colex_total_size(m1)
        - colex_total_size(m2)
        - min(m1, m2)
    )


def colex_superadditivity(m1: int, m2: int) -> bool:
    """Whether ||I(m1)|| + ||I(m2)|| <= ||I(m1+m2)|| - min(m1, m2)."""
    return colex_superadditivity_slack(m1, m2) >= 0


def segment_bound(m: int) -> Fraction:
    """Closed-form upper bound on colex_total_size(m), exact rational."""
    return Fraction(segment_bound_sixths(m), 6)


def segment_bound_sixths(m: int) -> int:
    """segment_bound(m) scaled by 6, as an integer (for exact comparisons)."""
    if m < 1:
        raise DomainError("bound needs m >= 1")
    r = (3 * m).bit_length() - 1  # 3m is never a power of two: 2^r < 3m < 2^(r+1)
    return 3 * (m * (r + 1) - (1 << r))


def segment_bound_is_tight(m: int) -> bool:
    """True iff segment_bound(m) equals colex_total_size(m) (see module docstring)."""
    if m < 1:
        raise DomainError("bound needs m >= 1")
    odd = m >> ((m & -m).bit_length() - 1)
    if odd == 1:
        return True  # every power of two, m = 1 degenerately (both sides zero)
    # odd part must read 1(01)^j1 in binary, i.e. (odd-1)/2 all 1s in base 4
    x = (odd - 1) >> 1
    while x:
        if x & 3 != 1:
            return False
        x >>= 2
    return True


def czedli_threshold_agrees(m: int, r: int) -> bool:
    """Whether [||I(m)|| > mr/2] iff [m > 2^(r+2)/3] holds at (m, r)."""
    lhs = 2 * colex_total_size(m) > m * r
    rhs = 3 * m > (1 << (r + 2))
    return lhs == rhs

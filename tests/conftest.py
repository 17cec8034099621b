"""Shared strategies and pure-set oracles for the test modules.

The oracles below work on frozensets of frozensets and never touch the
package's bit-parallel machinery, so agreement between the two routes is
evidence rather than circularity.
"""
from __future__ import annotations

import copy
import functools
from itertools import chain, combinations

from hypothesis import strategies as st

from ucfam import (
    EnumerationPlan,
    Evidence,
    Family,
    decode_set,
    enumerate_simply_rooted,
    enumerate_union_closed,
    indexed_rooted_sample,
)


def members(fam: Family) -> set[frozenset[int]]:
    """Family as a plain set of frozensets of elements."""
    return {frozenset(decode_set(s)) for s in fam}


def subsets(b: frozenset[int]):
    return chain.from_iterable(combinations(sorted(b), k) for k in range(len(b) + 1))


def oracle_union_closed(sets: set[frozenset[int]]) -> bool:
    return all(a | b in sets for a in sets for b in sets)


def oracle_simply_rooted(sets: set[frozenset[int]]) -> bool:
    for b in sets:
        if not b:
            continue
        has_root = False
        for e in b:
            # root e: every subset of b through e is a member
            if all(frozenset(x) in sets for x in subsets(b) if e in x):
                has_root = True
                break
        if not has_root:
            return False
    return True


def oracle_roots(sets: set[frozenset[int]], b: frozenset[int]) -> set[int]:
    """Elements e of b whose whole interval [{e}, b] lies in the family."""
    return {
        e for e in b if all(frozenset(x) in sets for x in subsets(b) if e in x)
    }


def oracle_reducible(sets: set[frozenset[int]]) -> set[frozenset[int]]:
    """Nonempty members equal to the union of the members strictly inside them."""
    return {
        b for b in sets
        if b and b == frozenset().union(*(a for a in sets if a < b))
    }


def oracle_total(sets: set[frozenset[int]]) -> int:
    return sum(len(b) for b in sets)


def oracle_colex_total(m: int) -> int:
    return sum(bin(k).count("1") for k in range(m))


@functools.lru_cache(maxsize=None)
def union_closed_at(n: int) -> tuple[Family, ...]:
    return tuple(enumerate_union_closed(EnumerationPlan(n=n)))


@functools.lru_cache(maxsize=None)
def simply_rooted_at(n: int) -> tuple[Family, ...]:
    return tuple(enumerate_simply_rooted(EnumerationPlan(n=n)))


@st.composite
def families(draw, min_n: int = 0, max_n: int = 5) -> Family:
    """Arbitrary family over a small ground set.

    The integer strategy favours small masks, so half the draws take the
    complement: dense families then occur at every n, not only sparse ones.
    """
    n = draw(st.integers(min_n, max_n))
    full = (1 << (1 << n)) - 1
    mask = draw(st.integers(0, full))
    if draw(st.booleans()):
        mask ^= full
    return Family(n, mask)


@st.composite
def rooted_families(draw, min_n: int = 0, max_n: int = 6) -> Family:
    """Seeded random simply rooted family, via the indexed sampler."""
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    index = draw(st.integers(0, 2**20))
    plan = EnumerationPlan(n=n, mode="random", sample_count=1, seed=seed)
    return indexed_rooted_sample(plan, index)


def splice(ev: Evidence, **fields) -> Evidence:
    """A copy of an evidence record with the given fields replaced.

    Fields already built on `ev` are kept as built; fields not yet built are
    built on the copy, from its own fields, the first time they are read.
    """
    out = copy.copy(ev)
    vars(out).update(fields)
    return out

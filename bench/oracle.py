"""Pure-set reference computations for the benchmark's output checks.

A set is a frozenset of ground elements 1..n and a family is a frozenset of
such sets.  Nothing here imports ucfam or uses its bit-vector encoding, so
agreement between this module and a ucfam report is evidence, not an echo.

Roots come from an interval recursion rather than from the definition's
subset scan: e roots B exactly when B is a member and, for every other
element x of B, e roots B - {x} (the interval [{e}, B] is B together with
the intervals [{e}, B - {x}]).  That keeps the check of a 1,000-member
family at n = 10 in milliseconds.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator

# OEIS A102897: union-closed families on 0, 1, 2, 3, 4 points.
UNION_CLOSED_COUNTS = (2, 4, 14, 122, 4960)


def power_set(n: int) -> list[frozenset[int]]:
    """All subsets of {1..n}, smallest first."""
    ground = range(1, n + 1)
    return [frozenset(c) for k in range(n + 1) for c in combinations(ground, k)]


def is_union_closed(fam: frozenset[frozenset[int]]) -> bool:
    """Closed under pairwise unions; the empty family passes."""
    members = list(fam)
    return all(a | b in fam for i, a in enumerate(members) for b in members[i + 1:])


def union_closed_families(n: int) -> Iterator[frozenset[frozenset[int]]]:
    """Every union-closed family on {1..n}, found by scanning all of P(P([n]))."""
    cells = power_set(n)
    for code in range(1 << len(cells)):
        fam = frozenset(c for i, c in enumerate(cells) if (code >> i) & 1)
        if is_union_closed(fam):
            yield fam


def complement(n: int, fam: frozenset[frozenset[int]]) -> frozenset[frozenset[int]]:
    return frozenset(s for s in power_set(n) if s not in fam)


def root_table(fam: frozenset[frozenset[int]]) -> dict[frozenset[int], frozenset[int]]:
    """Roots of every member: the elements e with [{e}, B] inside the family."""
    table: dict[frozenset[int], frozenset[int]] = {}
    for b in sorted(fam, key=len):
        if len(b) <= 1:
            table[b] = b
            continue
        found = set()
        for e in b:
            if all(e in table.get(b - {x}, ()) for x in b if x != e):
                found.add(e)
        table[b] = frozenset(found)
    return table


def is_simply_rooted(fam: frozenset[frozenset[int]], table=None) -> bool:
    """Every nonempty member has a root."""
    table = root_table(fam) if table is None else table
    return all(table[b] for b in fam if b)


def total_size(fam: frozenset[frozenset[int]]) -> int:
    """||F||: the sum of the member sizes."""
    return sum(len(b) for b in fam)


def colex_total(m: int) -> int:
    """||I(m)||: the binary digit sums of 0..m-1 added up."""
    return sum(bin(k).count("1") for k in range(m))


def max_rooted_count(n: int, fam: frozenset[frozenset[int]], table=None) -> int:
    """q: the most members that one element roots."""
    table = root_table(fam) if table is None else table
    return max((sum(1 for r in table.values() if e in r) for e in range(1, n + 1)), default=0)


def max_degree(n: int, fam: frozenset[frozenset[int]]) -> int:
    return max((sum(1 for b in fam if e in b) for e in range(1, n + 1)), default=0)


def deficiency(fam: frozenset[frozenset[int]]) -> int:
    """Missing shadow sets, counted over all members."""
    return sum(1 for b in fam for x in b if b - {x} not in fam)


def probe_values(n: int, fam: frozenset[frozenset[int]]) -> dict[str, tuple[int, int] | None]:
    """(lhs, rhs) of each conjecture probe on a simply rooted family.

    A violation is lhs > rhs.  None marks a probe whose hypothesis fails.
    """
    table = root_table(fam)
    m = len(fam)
    total = total_size(fam)
    colex = colex_total(m)
    q = max_rooted_count(n, fam, table)
    return {
        "probe_degree_bound": (total, colex + max_degree(n, fam)),
        "probe_max_rooted_bound": (total, colex + q),
        "probe_eps_delta_bound": (10 * total, 10 * colex + 9 * m) if 10 * q <= m else None,
    }


def parse_family(text: str) -> tuple[int, frozenset[frozenset[int]]]:
    """Read the report's family text: a line n=<k>, then one {a,b,...} per line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError(f"no n=<k> header in {text[:40]!r}")
    n = int(lines[0][2:])
    sets = []
    for ln in lines[1:]:
        if not (ln.startswith("{") and ln.endswith("}")):
            raise ValueError(f"bad set line {ln!r}")
        body = ln[1:-1]
        elems = frozenset(int(x) for x in body.split(",")) if body else frozenset()
        if any(not 1 <= e <= n for e in elems):
            raise ValueError(f"element outside 1..{n} in {ln!r}")
        sets.append(elems)
    fam = frozenset(sets)
    if len(fam) != len(sets):
        raise ValueError("repeated set")
    return n, fam

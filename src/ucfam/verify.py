"""Exact check catalog and suite runner.

Every structural statement the package implements is registered here as an
executable check over a concrete population: the simply rooted families on a
fixed ground set, either enumerated exhaustively (small n) or drawn from the
seeded index-addressable sampler.  One ordered table declares each entry
once: thirty catalog checks, then three conjecture probes that are reported
in a separate section and excluded from pass/fail semantics.

All comparisons are exact: integer or Fraction arithmetic throughout, scaled
to clear denominators (products against 2^n, bounds in sixths, chain bounds
in thirds).  A violation record carries the replayable family text plus the
two offending numbers, so any red result can be reproduced from the report
alone.

Execution is sharded over fixed-size index blocks regardless of worker
count, and shard results merge in index order, so one worker and eight
produce byte-identical reports.  Notation used in statements below: m = |F|,
m0 = nonempty members of F, q = largest one-element rooted count, I(m) = the
colex initial segment, d() = the full downward sweep.
"""
from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from math import isqrt, lcm
from typing import Any, Callable, Iterable, Iterator, Literal, Sequence

from . import bitops
from .colex import (
    colex_total_size,
    czedli_threshold_bounds,
    segment_bound_is_tight,
    segment_bound_sixths,
    total_size_range,
)
from .compression import CompressionTrace, _cube_cover, _witnessed, full_down, full_up
from .core import (
    Family,
    _simply_rooted_masks,
    complement,
    family_to_text,
    is_downset,
    is_simply_rooted,
    is_union_closed,
)
from .enumeration import EnumerationPlan, _mix64, indexed_rooted_sample, population_size
from .errors import DomainError
from .stability import (
    BadSetAnalysis,
    _classify,
    _fallers,
    _z_mask,
    deficiency,
    deficiency_tight_family,
    largest_downset,
)

__all__ = [
    "CATALOG_IDS",
    "PROBE_IDS",
    "CheckDescriptor",
    "CheckReport",
    "ConstantChain",
    "Evidence",
    "Violation",
    "build_evidence",
    "catalog",
    "derive_constants",
    "document_json",
    "excluded_fraction",
    "fixpoint_constants",
    "margin_from_root",
    "render_table",
    "run_suite",
    "suite_document",
    "threshold_coefficients",
]

SHARD_SIZE = 2048
VIOLATION_CAP = 100
COLEX_SWEEP_LIMIT = 1 << 13
THRESHOLD_R_LIMIT = 11
PAIR_REMARK_GROUND = 4
TIGHT_GRID_M = 16
TIGHT_GRID_K = 3


# ---------------------------------------------------------------------------
# constant chain


@dataclass(frozen=True)
class ConstantChain:
    """Inputs and outputs of the counterexample-constant derivation.

    split_factor scales the peak rooted fraction when the degree dichotomy
    branches; stability_constant is the c of the quadratic stability bound;
    alpha is the power-set fraction above which the union-closed conjecture
    is already settled, so a counterexample complement has m > (1-alpha) 2^n.
    c1 and c2 are filled by derive_constants: c1 bounds the peak rooted
    fraction of a counterexample from below, c2 the excess of m/2^n over 1/3.
    """

    split_factor: int = 3
    stability_constant: int = 12
    alpha: Fraction = Fraction(2, 3)
    c1: Fraction | None = None
    c2: Fraction | None = None

    def __post_init__(self) -> None:
        # a float would leak into the exact threshold arithmetic
        if not isinstance(self.split_factor, int) or not isinstance(self.stability_constant, int):
            raise DomainError("split factor and stability constant must be ints")
        if not isinstance(self.alpha, (int, Fraction)):
            raise DomainError("alpha must be an int or a Fraction")
        if self.split_factor <= 0:
            raise DomainError("split factor must be positive")
        if self.stability_constant not in (8, 12):
            raise DomainError("stability constant must be 8 or 12")
        if not Fraction(1, 2) <= self.alpha <= Fraction(2, 3):
            raise DomainError("alpha outside [1/2, 2/3]")


def threshold_coefficients(chain: ConstantChain) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (A, B, C) of the normalized threshold A p^2 + B p > C.

    A counterexample whose scaled peak rooted fraction is p forces the strict
    inequality; the defaults give (9, 36, 1).
    """
    mu = 1 - chain.alpha  # lower bound on m / 2^n
    t = chain.split_factor
    return Fraction(t * t), Fraction(chain.stability_constant, 1) / mu, Fraction(1)


def excluded_fraction(chain: ConstantChain, p: Fraction) -> bool:
    """True when A p^2 + B p <= C: no counterexample can sit at fraction p."""
    a, b, c = threshold_coefficients(chain)
    return a * p * p + b * p <= c


def margin_from_root(c1: Fraction) -> Fraction:
    """Excess c2 with m > (1/3 + c2) 2^n forced by a peak-fraction bound c1.

    Feeding ||I(m)|| > m(n/2 - 1 + c1) into the segment bound
    m(n/2 - 1) + (3/2)(m - 2^n/3) leaves (3/2)(m - 2^n/3) > c1 m, which
    rearranges to c2 = 2 c1 / (9 - 6 c1).
    """
    return 2 * c1 / (9 - 6 * c1)


def _root_lower_bound(chain: ConstantChain) -> Fraction:
    """Certified rational lower bound on the positive root of A p^2 + B p = C."""
    coeffs = threshold_coefficients(chain)
    common = lcm(*(x.denominator for x in coeffs))
    a, b, c = (int(x * common) for x in coeffs)
    disc = b * b + 4 * a * c
    prec = 10**18
    s = isqrt(disc * prec * prec)  # floor: sqrt(disc) >= s / prec, one-sided
    lb = Fraction(s - b * prec, 2 * a * prec)
    scale = 10**12  # floor-scale to keep fixpoint denominators small
    return Fraction(max((lb.numerator * scale) // lb.denominator, 0), scale)


def derive_constants(chain: ConstantChain) -> ConstantChain:
    """Fill c1 and c2 for the given chain.

    c1 is a certified rational lower bound on the positive root of the
    threshold quadratic (every p <= c1 is excluded, so a counterexample has
    some rooted subfamily larger than split_factor * c1 * m), and
    c2 = margin_from_root(c1).  Exact comparisons against the true algebraic
    root go through excluded_fraction.
    """
    c1 = _root_lower_bound(chain)
    return ConstantChain(
        chain.split_factor, chain.stability_constant, chain.alpha, c1, margin_from_root(c1)
    )


def fixpoint_constants(
    split_factor: int = 3, stability_constant: int = 8, rounds: int = 12
) -> ConstantChain:
    """Iterate the alpha feedback: each c2 tightens alpha to 2/3 - c2.

    Every step uses certified lower bounds, so the final c1, c2 are sound
    simultaneously with the final alpha.  Converges in a handful of rounds.
    """
    chain = ConstantChain(split_factor, stability_constant, Fraction(2, 3))
    for _ in range(rounds):
        chain = derive_constants(chain)
        chain = ConstantChain(
            split_factor, stability_constant, Fraction(2, 3) - chain.c2, chain.c1, chain.c2
        )
    return derive_constants(chain)


# ---------------------------------------------------------------------------
# per-family evidence


class _lazy:
    """An Evidence field built by its method on first read and then stored on
    the record, where later reads find it without calling back here.

    functools.cached_property does the same under a lock on Python 3.11.
    Against building every field up front, it made the whole catalog 13%
    dearer per family at n = 4 and 6% at n = 6; this descriptor, 5% and no
    more than the noise (one process, 2-core machine, Python 3.11.7).
    """

    def __init__(self, build: Callable[[Evidence], Any]) -> None:
        self.build = build
        self.name = build.__name__

    def __get__(self, ev: Evidence | None, owner: type | None = None) -> Any:
        if ev is None:
            return self
        value = self.build(ev)
        object.__setattr__(ev, self.name, value)  # as the frozen dataclass __init__ does
        return value


@dataclass(frozen=True)
class Evidence:
    """Everything the per-family checks consume, each field built at most once.

    Only the rooted masks are computed up front.  Every other field is built
    from the fields it reads the first time a check reads it, and kept, so a
    run pays only for the fields its selected checks read.  Every field above
    `analysis` (the scalars m, m0, degrees, total, colex_m, q and peak among
    them) holds for any family; `analysis` and the fields built from it need
    the family simply rooted.
    """

    fam: Family
    rooted: tuple[int, ...]

    @_lazy
    def comp(self) -> Family:
        return complement(self.fam)

    @_lazy
    def m(self) -> int:
        return len(self.fam)

    @_lazy
    def m0(self) -> int:
        return (self.fam.mask & ~1).bit_count()

    @_lazy
    def degrees(self) -> tuple[int, ...]:
        return self.fam.degrees()

    @_lazy
    def total(self) -> int:
        return sum(self.degrees)

    @_lazy
    def colex_m(self) -> int:
        return colex_total_size(self.m)

    @_lazy
    def counterexample(self) -> bool:
        """The complement has a nonempty member and every degree exceeds m/2."""
        return (self.comp.mask & ~1) != 0 and all(2 * d > self.m for d in self.degrees)

    @_lazy
    def rooted_counts(self) -> tuple[int, ...]:
        """|F_i| for i = 1..n, the members rooted at each element."""
        return tuple(r.bit_count() for r in self.rooted)

    @_lazy
    def q(self) -> int:
        return max(self.rooted_counts, default=0)

    @_lazy
    def peak(self) -> int:
        """Smallest element attaining q, 1-based; 0 when n = 0."""
        counts = self.rooted_counts
        return counts.index(self.q) + 1 if counts else 0

    @_lazy
    def fallers(self) -> tuple[int, ...]:
        """The n down-faller masks of F: index i-1 holds the members B through
        i whose shadow set B - i is missing."""
        return tuple(_fallers(self.fam))

    @_lazy
    def down(self) -> CompressionTrace:
        return full_down(self.fam)[1]

    @_lazy
    def up(self) -> CompressionTrace:
        """Ascending sweep of the complement."""
        return full_up(self.comp)[1]

    @_lazy
    def analysis(self) -> BadSetAnalysis:
        return _classify(self.fam, self.rooted, self.down, self.fallers)

    @_lazy
    def trace_s(self) -> CompressionTrace:
        return full_down(self.analysis.side_s)[1]

    @_lazy
    def trace_t(self) -> CompressionTrace:
        return full_down(self.analysis.side_t)[1]

    @_lazy
    def swept_meet(self) -> int:
        """|d(F1) & d(F2)|, the members the two swept sides share."""
        return (self.trace_s.prefix_masks[-1] & self.trace_t.prefix_masks[-1]).bit_count()

    @_lazy
    def z_mask(self) -> int:
        return _z_mask(self.analysis.shared.mask, self.down, self.trace_s, self.trace_t)


def build_evidence(fam: Family) -> Evidence:
    """The family's evidence record, with its rooted masks built.

    DomainError when the family is not simply rooted.
    """
    return Evidence(fam, _simply_rooted_masks(fam))


# ---------------------------------------------------------------------------
# family checks

Outcome = tuple[bool, int, int, "dict[str, int] | None"]
FamilyCheck = Callable[[Evidence], Outcome]


def _chk_eq1_duality(ev: Evidence) -> Outcome:
    full = bitops.universe(ev.fam.n)
    for k in range(ev.fam.n + 1):
        want = ev.down.prefix_masks[k] ^ full
        got = ev.up.prefix_masks[k]
        if want != got:
            return False, want, got, None
    return True, 0, 0, None


def _chk_rooted_complement_duality(ev: Evidence) -> Outcome:
    """On the family itself, then again after toggling one cell of the cube.

    The first clause shows the complement union-closed by the full test (the
    evidence family is simply rooted), so the toggled complement, one cell
    away from it, is tested incrementally.
    """
    lhs, rhs = not bitops.rootless(ev.fam.mask, ev.rooted), is_union_closed(ev.comp)
    if lhs != rhs or not rhs:
        return False, int(lhs), int(rhs), None
    cell = _toggle_cell(ev.fam)
    lhs = int(is_simply_rooted(Family(ev.fam.n, ev.fam.mask ^ (1 << cell))))
    rhs = int(_toggle_keeps_union_closed(ev.fam.n, ev.comp.mask, cell))
    return lhs == rhs, lhs, rhs, None


def _toggle_keeps_union_closed(n: int, closed: int, c: int) -> bool:
    """Whether the union-closed family `closed` stays union-closed with cell c toggled.

    Adding c: every member joined with c must land in the family or on c.
    Removing c: c must not be the union of two members strictly inside it.
    In a union-closed family that happens iff every element of c lies in
    some member strictly inside c, since the union of those members is then
    c, and the first of them whose join reaches c gives the pair.
    """
    if not (closed >> c) & 1:
        return bitops.union_image(n, closed, c) & ~(closed | (1 << c)) == 0
    below = closed & bitops.interval(0, c) & ~(1 << c)
    return c == 0 or any(not below & bitops.axis(n, b + 1) for b in bitops.iter_bits(c))


def _toggle_cell(fam: Family) -> int:
    """The cell rooted_complement_duality toggles: a mixed hash of the family.

    An int's hash is not salted, so every process picks the same cell.
    """
    return _mix64(hash(fam.mask)) % (1 << fam.n)


def _chk_reimer_basics(ev: Evidence) -> Outcome:
    """The swept family is a down-set and every sweep prefix k = 1..n is simply
    rooted; prefix k < n is tested in lane k - 1 of one rooted-mask sweep."""
    n, prefixes = ev.fam.n, ev.down.prefix_masks
    if not is_downset(ev.down.result):
        return False, ev.down.result.mask, 0, None
    # prefix n is the swept family, just found to be a down-set, and every
    # down-set is simply rooted (each member is rooted at any of its elements)
    lanes = prefixes[1:n]
    rootless = bitops.rootless_lanes(n, bitops.pack_lanes(n, lanes), len(lanes))
    if rootless:
        k = (_lowest(rootless) >> n) + 1
        return False, k, prefixes[k], None
    return True, 0, 0, None


def _lowest(cells: int) -> int:
    return (cells & -cells).bit_length() - 1


def _chk_rooted_basics(ev: Evidence) -> Outcome:
    n = ev.fam.n
    groups = ev.down.groups
    for a, g in groups.items():
        if a.bit_count() > 1:
            s = _lowest(g)
            return False, s, s ^ a, None
    for k in range(1, n + 1):
        low = (1 << k) - 1
        core = None  # cells whose whole power set sits inside the k-prefix
        for a, g in groups.items():
            if not a & low:  # not fallen within the first k directions
                continue
            if core is None:
                core = bitops.subset_and(n, ev.down.prefix_masks[k])
            outside = (g >> (a & low)) & ~core  # prefix images s - (a & low)
            if outside:
                return False, _lowest(outside), k, None
    return True, 0, 0, None


def _deficiency_sides(fam: Family, fallers: Iterable[int]) -> tuple[int, int]:
    """lemma_deficiency's sides on G, from its down-faller masks:
    ||G|| and ||I(|G|)|| + def(G)."""
    return fam.total_size(), colex_total_size(len(fam)) + sum(f.bit_count() for f in fallers)


def _chk_deficiency(ev: Evidence) -> Outcome:
    """On the family and on its complement."""
    for fam, fallers in ((ev.fam, ev.fallers), (ev.comp, _fallers(ev.comp))):
        lhs, rhs = _deficiency_sides(fam, fallers)
        if lhs > rhs:
            return False, lhs, rhs, None
    return True, lhs, rhs, None


def _chk_forced_fall(ev: Evidence) -> Outcome:
    seen = 0  # members missing a shadow set B - i, over the directions so far
    for miss in ev.fallers:
        if miss & seen:
            return False, _lowest(miss & seen), 2, None
        seen |= miss
    stay = ev.down.fixed_mask()
    for i, miss in enumerate(ev.fallers):
        off = miss & ~(stay | ev.down.groups.get(1 << i, 0))
        if off:
            s = _lowest(off)
            return False, s, ev.down.image(s), None
    return True, 0, 0, None


def _chk_smaller_falls(ev: Evidence) -> Outcome:
    down_fixed = ev.analysis.fixed.mask
    for tr in (ev.trace_s, ev.trace_t):
        stuck = tr.fixed_mask() & ~down_fixed
        if stuck:
            s = _lowest(stuck)
            return False, s, ev.down.image(s), None
    return True, 0, 0, None


def _chk_good_fall(ev: Evidence) -> Outcome:
    good = ev.analysis.good.mask
    for side, tr in ((ev.analysis.side_s, ev.trace_s), (ev.analysis.side_t, ev.trace_t)):
        off = good & side.mask & ~ev.down.same_images(tr)
        if off:
            s = _lowest(off)
            return False, tr.image(s), ev.down.image(s), None
    return True, 0, 0, None


def _chk_split_rooted(ev: Evidence) -> Outcome:
    lhs = ev.swept_meet
    rhs = ev.analysis.b + ev.analysis.b2
    return lhs <= rhs, lhs, rhs, None


def _chk_lower_b(ev: Evidence) -> Outcome:
    cells = 1 << ev.fam.n
    lhs = ev.trace_s.prefix_masks[-1].bit_count() * ev.trace_t.prefix_masks[-1].bit_count()
    rhs = cells * ev.swept_meet
    if lhs > rhs:
        return False, lhs, rhs, None
    lhs = ev.analysis.side_product
    rhs = cells * (ev.analysis.b + ev.analysis.b2)
    return lhs <= rhs, lhs, rhs, None


def _chk_large_product(ev: Evidence) -> Outcome:
    """The found partition must also cover F."""
    a = ev.analysis
    if (a.side_s.mask | a.side_t.mask) != ev.fam.mask:
        return False, a.side_s.mask | a.side_t.mask, ev.fam.mask, None
    lhs = 4 * (a.side_s.mask & ~1).bit_count() * (a.side_t.mask & ~1).bit_count()
    rhs = ev.m0 * ev.m0 - ev.q * ev.q
    return lhs >= rhs, lhs, rhs, None


def _chk_low_degrees(ev: Evidence) -> Outcome:
    m = ev.m
    if not ev.counterexample:
        return True, 0, 0, {"hypothesis_unmet": 1}
    for d in ev.degrees:
        rhs = m * (ev.fam.n - 2) + 2 * d - m
        if not 2 * ev.colex_m > rhs:
            return False, 2 * ev.colex_m, rhs, {"hypothesis_met": 1}
    return True, 0, 0, {"hypothesis_met": 1}


def _chk_few_with_root(ev: Evidence) -> Outcome:
    """Moves the peak element on top, then checks each clause of the split in turn."""
    n = ev.fam.n
    if n == 0 or ev.m0 == 0:
        return True, 0, 0, {"degenerate": 1}
    extra: dict[str, int] = {}
    mask2 = bitops.swap_elements(n, ev.fam.mask, ev.peak, n)
    lo, hi = bitops.split_top(n, mask2)
    minus, plus = Family(n - 1, lo), Family(n - 1, hi)
    m_plus, m_minus = len(plus), len(minus)
    plus_total = plus.total_size()
    acc = plus_total + minus.total_size() + m_plus
    if ev.total != acc:
        return False, ev.total, acc, None
    if bitops.rootless_lanes(n - 1, mask2, 2):  # lane 0 is minus, lane 1 plus
        return False, plus.mask, minus.mask, None
    dplus = largest_downset(plus)
    _, mapped = bitops.split_top(n, bitops.swap_elements(n, ev.rooted[ev.peak - 1], ev.peak, n))
    if mapped & ~dplus.mask:
        return False, mapped, dplus.mask, None
    rhs = colex_total_size(m_plus) + m_plus - len(dplus)
    if plus_total > rhs:
        return False, plus_total, rhs, None
    if m_minus <= m_plus and 3 * (m_plus - m_minus) <= 2 * ev.q:
        extra["chain_hypothesis_met"] = 1
        rhs = 3 * (ev.colex_m + ev.m) - ev.q
        if 3 * ev.total > rhs:
            return False, 3 * ev.total, rhs, extra
    if ev.counterexample:
        extra["counterexample_hypothesis_met"] = 1
        rhs = ev.m * (3 * n - 6) + 2 * ev.q
        if not 6 * ev.colex_m > rhs:
            return False, 6 * ev.colex_m, rhs, extra
    return True, 0, 0, extra or None


def _size_check(term: Callable[[Evidence], int]) -> FamilyCheck:
    """The row ||F|| <= ||I(m)|| + term(F)."""

    def chk(ev: Evidence) -> Outcome:
        rhs = ev.colex_m + term(ev)
        return ev.total <= rhs, ev.total, rhs, None

    return chk


def _product_check(term: Callable[[BadSetAnalysis, Evidence], int]) -> FamilyCheck:
    """The row |F_S||F_T| <= 2^n term(F), the term read from F's bad-set split."""

    def chk(ev: Evidence) -> Outcome:
        lhs = ev.analysis.side_product
        rhs = (1 << ev.fam.n) * term(ev.analysis, ev)
        return lhs <= rhs, lhs, rhs, None

    return chk


def _stability_check(c: int) -> FamilyCheck:
    """The row m^2 - q^2 <= c 2^n (||I(m)|| + m - ||F||)."""

    def chk(ev: Evidence) -> Outcome:
        lhs = ev.m * ev.m - ev.q * ev.q
        rhs = c * (1 << ev.fam.n) * (ev.colex_m + ev.m - ev.total)
        return lhs <= rhs, lhs, rhs, None

    return chk


def _chk_reimer_cubes(ev: Evidence) -> Outcome:
    covered, overlap = _cube_cover(ev.up)
    if overlap is not None:
        s, u = overlap
        return False, s, u, None
    if ev.comp.mask & ~covered:
        return False, ev.comp.mask, covered, None
    return True, 0, 0, None


def _chk_uc_image(ev: Evidence) -> Outcome:
    moved = ev.down.moved_mask()
    unwitnessed = moved & ~_witnessed(ev.down, ev.up, ev.rooted)
    if unwitnessed:
        return False, _lowest(unwitnessed), -1, None
    return True, 0, 0, None


def _chk_cube_set(ev: Evidence) -> Outcome:
    """The members of the cubes [A, A + U] of up group U are the cells A + R,
    R inside U; each must have root set exactly R, so that it minus its roots is A.
    A misses U (each direction of U added its own element), so A + R has just
    the elements R in U, and one roots_differ(U) per group tests every R."""
    for u, g in ev.up.groups.items():
        off = bitops.spread(g, u) & ev.fam.mask & bitops.roots_differ(ev.fam.n, ev.rooted, u)
        if off:
            s = _lowest(off)
            return False, s, s & ~u, None
    return True, 0, 0, None


def _chk_root_fall(ev: Evidence) -> Outcome:
    for a, g in ev.down.groups.items():
        if not a:
            continue
        off = g if a.bit_count() != 1 else g & ~ev.rooted[a.bit_length() - 1]
        if off:
            s = _lowest(off)
            return False, s, s ^ a, None
    return True, 0, 0, None


def _chk_z_roots(ev: Evidence) -> Outcome:
    two = three = some = 0  # cells with at least 2, 3 and 1 roots
    for r in ev.rooted:
        three |= two & r
        two |= some & r
        some |= r
    moved = ev.down.moved_mask()
    short = ev.z_mask & ((moved & ~three) | (~moved & ~two))
    if short:
        s = _lowest(short)
        return False, s, bitops.root_set(ev.rooted, s).bit_count(), None
    return True, 0, 0, None


def _chk_split_rooted_2(ev: Evidence) -> Outcome:
    a = ev.analysis
    if a.shared.mask & ~a.full_shadow.mask:
        return False, a.shared.mask, a.full_shadow.mask, None
    lhs = ev.swept_meet
    rhs = a.b + ev.z_mask.bit_count()
    return lhs <= rhs, lhs, rhs, None


def _chk_y_ge_z(ev: Evidence) -> Outcome:
    lhs = ev.z_mask.bit_count()
    rhs = len(ev.analysis.y)
    return lhs <= rhs, lhs, rhs, None


def _chk_probe_eps_delta(ev: Evidence) -> Outcome:
    if 10 * ev.q > ev.m:
        return True, 0, 0, {"hypothesis_unmet": 1}
    lhs = 10 * ev.total
    rhs = 10 * ev.colex_m + 9 * ev.m
    return lhs <= rhs, lhs, rhs, {"hypothesis_met": 1}


# ---------------------------------------------------------------------------
# global (population-free) sweeps


@dataclass
class _Tally:
    instances: int = 0
    violations: list = field(default_factory=list)  # (order_key, family_text, lhs, rhs)
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def add(self, other: _Tally) -> None:
        self.instances += other.instances
        self.violations.extend(other.violations)
        for key, val in other.details.items():
            self.details[key] = self.details.get(key, 0) + val
        self.seconds += other.seconds


def _global_colex_total(plan: EnumerationPlan | None) -> _Tally:
    """lemma_colex_total: the segment bound in sixths, then Czedli's threshold
    at r = 1..THRESHOLD_R_LIMIT, for every m up to COLEX_SWEEP_LIMIT.

    Each m and each (m, r) pair is one instance.  With both bounds of
    colex.czedli_threshold_bounds clipped to [0, THRESHOLD_R_LIMIT], the
    sides disagree exactly at the r between the two clipped bounds, and the
    threshold flips at m (both sides hold at m, the right side fails at m - 1)
    exactly at the r above m - 1's clipped right bound and up to both of m's.
    """
    t = _Tally()
    tots = total_size_range(COLEX_SWEEP_LIMIT)
    r_limit = THRESHOLD_R_LIMIT
    flips = 0
    right_before = 0  # 3 (m - 1) > 2^(r+2) holds at no r >= 1 for m = 1
    for m in range(1, COLEX_SWEEP_LIMIT + 1):
        six = 6 * tots[m]
        bound = segment_bound_sixths(m)
        if six > bound or (six == bound) != segment_bound_is_tight(m):
            t.violations.append((m, f"m={m}", six, bound))
        left, right = czedli_threshold_bounds(m, tots[m])
        left = 0 if left < 0 else r_limit if left > r_limit else left
        right = 0 if right < 0 else r_limit if right > r_limit else right
        low, high = (left, right) if left <= right else (right, left)
        for r in range(low + 1, high + 1):
            t.violations.append((m, f"m={m} r={r}", int(r <= left), int(r <= right)))
        if low > right_before:
            flips += low - right_before
        right_before = right
    t.instances = COLEX_SWEEP_LIMIT * (1 + r_limit)
    t.details["threshold_flips_seen"] = flips
    return t


def _deficiency_split_sides(n: int) -> Iterator[tuple[int, int, int]]:
    """(mask, ||G||, ||I(|G|)|| + def(G)) for every family G on n points, by
    ascending mask, scored from the halves of the top-element split, which
    are the families this scan yields one point smaller."""
    if n == 0:  # no top element to split at
        for mask in (0, 1):
            fam = Family(0, mask)
            yield (mask, *_deficiency_sides(fam, _fallers(fam)))
        return
    colex = [colex_total_size(m) for m in range((1 << n) + 1)]
    halves = []  # (||H||, def(H), |H|) for every family H on n - 1 points
    for h, tot, bound in _deficiency_split_sides(n - 1):
        size = h.bit_count()
        halves.append((tot, bound - colex[size], size))
    for hi, (tot_hi, def_hi, size_hi) in enumerate(halves):
        top = bitops.pack_lanes(n - 1, (0, hi))
        tot_up = tot_hi + size_hi
        for lo, (tot_lo, def_lo, size_lo) in enumerate(halves):
            yield (top | lo, tot_lo + tot_up,
                   colex[size_lo + size_hi] + def_lo + def_hi + (hi & ~lo).bit_count())


def _global_deficiency(plan: EnumerationPlan | None) -> _Tally:
    """lemma_deficiency on the glued colex segments, on the deficiency-3 pairs
    and, for an exhaustive plan, on all 2^(2^n) families G on n points.

    The exhaustive part scores G from its top-element split (bitops.split_top),
    the one enumeration._union_closed_masks builds the table by: lo holds the
    members of G without n, and hi the members with n, n removed; both are
    families on n - 1 points, so their sides come once for all 2^(2^(n-1)) of
    them from the same scan one point smaller.

      ||G|| = ||lo|| + ||hi|| + |hi|, since each member of hi gains n back.
      def(G) = def(lo) + def(hi) + |hi & ~lo|.  A member B of lo has its
      shadow sets B - i in lo.  A member B = C + n with C in hi has
      B - i = (C - i) + n for i in C, which is missing from G iff C - i is
      missing from hi, and B - n = C, which is missing iff C is not in lo.
      So the only shadow pairs that cross the halves are (C, C + n), one
      missing per member of hi & ~lo.
      |G| = |lo| + |hi|, so ||I(|G|)|| is one table lookup.

    Every mask counts as one instance; a violation carries the mask as its
    order key, the family's text and its exact sides.
    """
    t = _Tally()
    for m in range(1, TIGHT_GRID_M + 1):
        for k in range(1, TIGHT_GRID_K + 1):
            fam = deficiency_tight_family(m, k)
            t.instances += 1
            lhs, rhs = _deficiency_sides(fam, _fallers(fam))
            # m members, deficiency exactly k m, and the bound met with equality
            if len(fam) != m or rhs != colex_total_size(m) + k * m or lhs != rhs:
                t.violations.append((m * 100 + k, f"glued m={m} k={k}", lhs, rhs))
    # pairs with deficiency 3 stay one unit under the generic bound
    cells = 1 << PAIR_REMARK_GROUND
    seen = 0
    for a in range(cells):
        for b in range(a):
            fam = Family(PAIR_REMARK_GROUND, (1 << a) | (1 << b))
            if deficiency(fam) != 3:
                continue
            t.instances += 1
            seen += 1
            if fam.total_size() > 3:
                t.violations.append((a * cells + b, family_to_text(fam), fam.total_size(), 3))
    t.details["deficiency3_pairs"] = seen
    if plan is not None and plan.mode == "exhaustive":
        n = plan.n
        t.instances += 1 << (1 << n)
        for mask, lhs, rhs in _deficiency_split_sides(n):
            if lhs > rhs:
                t.violations.append((mask, family_to_text(Family(n, mask)), lhs, rhs))
    return t


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class CheckDescriptor:
    """One catalog row: what is claimed, over which population, and how.

    `family` runs on every family of the population, `sweep` once per suite;
    a row with both reports their merged tally.  The rows of the table carry
    no population; catalog(plan) gives the plan to the family-scope ones.
    """

    id: str
    applicability: str  # "simply-rooted" | "any-family" | "numeric"
    statement_ref: str
    family: FamilyCheck | None = None
    sweep: Callable[[EnumerationPlan | None], _Tally] | None = None
    conjecture: bool = False
    population: EnumerationPlan | None = None


_TABLE: tuple[CheckDescriptor, ...] = (
    CheckDescriptor("eq1_duality", "any-family",
                    "complementing the family swaps down- and up-compression, prefix by prefix",
                    _chk_eq1_duality),
    CheckDescriptor("rooted_complement_duality", "any-family",
                    "a family is simply rooted iff its complement in P(n) is union-closed",
                    _chk_rooted_complement_duality),
    CheckDescriptor("rooted_size_bound", "simply-rooted", "||F|| <= ||I(m)|| + m",
                    _size_check(lambda ev: ev.m)),
    CheckDescriptor("lemma_colex_total", "numeric",
                    "6||I(m)|| <= 3(m(r+1) - 2^r) for 2^r < 3m < 2^(r+1), equality on the tight "
                    "set; and 2||I(m)|| > mr iff 3m > 2^(r+2)",
                    sweep=_global_colex_total),
    CheckDescriptor("lemma_reimer_basics", "simply-rooted",
                    "the full down sweep is a downset and every sweep prefix is simply rooted",
                    _chk_reimer_basics),
    CheckDescriptor("lemma_rooted_basics", "simply-rooted",
                    "a fallen prefix image carries its whole power set inside the prefix; "
                    "falls shed at most one element",
                    _chk_rooted_basics),
    CheckDescriptor("lemma_no_falls", "simply-rooted",
                    "||F|| <= ||I(m)|| + m - #(members fixed by the down sweep)",
                    _size_check(lambda ev: ev.m - ev.analysis.b3)),
    CheckDescriptor("lemma_full_shadow", "simply-rooted",
                    "||F|| <= ||I(m)|| + m - #(members whose whole shadow lies in F)",
                    _size_check(lambda ev: ev.m - len(ev.analysis.full_shadow))),
    CheckDescriptor("lemma_deficiency", "any-family",
                    "||G|| <= ||I(|G|)|| + def(G) for every family; glued colex segments are "
                    "tight and deficiency-3 pairs stay at total 3",
                    _chk_deficiency, _global_deficiency),
    CheckDescriptor("lemma_forced_fall", "simply-rooted",
                    "no member misses two shadow sets; a member missing B-b falls to B-b or stays",
                    _chk_forced_fall),
    CheckDescriptor("lemma_smaller_falls", "simply-rooted",
                    "members fixed by a rooted subfamily's sweep are fixed by the full sweep",
                    _chk_smaller_falls),
    CheckDescriptor("lemma_good_fall", "simply-rooted",
                    "good members fall identically under the full sweep and a rooted side sweep",
                    _chk_good_fall),
    CheckDescriptor("lemma_split_rooted", "simply-rooted",
                    "|d(F1) ^ d(F2)| <= #bad(F) + |F1 ^ F2| for the rooted sides F1, F2",
                    _chk_split_rooted),
    CheckDescriptor("cor_lower_b", "simply-rooted",
                    "|F1||F2| <= 2^n (#bad(F) + |F1 ^ F2|), via Harris on the swept downsets",
                    _chk_lower_b),
    CheckDescriptor("lemma_many_bad", "simply-rooted", "|F_S||F_T| <= 2^n (b1 + 2 b2 + b3)",
                    _product_check(lambda a, ev: a.b1 + 2 * a.b2 + a.b3)),
    CheckDescriptor("lemma_large_product", "simply-rooted",
                    "the balanced-partition search certifies 4|F_S||F_T| >= m0^2 - q^2",
                    _chk_large_product),
    CheckDescriptor("lemma_low_degrees", "simply-rooted",
                    "if the complement is a union-closed counterexample with all degrees over "
                    "m/2, then 2||I(m)|| > m(n-2) + 2 deg(i) - m for every i",
                    _chk_low_degrees),
    CheckDescriptor("thm_downset", "simply-rooted",
                    "||F|| <= ||I(m)|| + m - |largest downset inside F|",
                    _size_check(lambda ev: ev.m - len(largest_downset(ev.fam)))),
    CheckDescriptor("lemma_few_with_root", "simply-rooted",
                    "splitting off the peak element: size accounting is exact, both halves stay "
                    "simply rooted, the top-rooted members map into the upper half's largest "
                    "downset, and the balanced case gives 3||F|| <= 3(||I(m)|| + m) - q",
                    _chk_few_with_root),
    CheckDescriptor("thm_stability_12", "simply-rooted",
                    "m^2 - q^2 <= 12 * 2^n * (||I(m)|| + m - ||F||)",
                    _stability_check(12)),
    CheckDescriptor("lemma_reimer_cubes", "simply-rooted",
                    "the cubes [A, u(A)] of the complement's up sweep are pairwise disjoint and "
                    "cover the complement",
                    _chk_reimer_cubes),
    CheckDescriptor("lemma_uc_image", "simply-rooted",
                    "every member that falls is hit by an up-sweep prefix of itself minus its "
                    "roots",
                    _chk_uc_image),
    CheckDescriptor("lemma_cube_set", "simply-rooted",
                    "a member B inside a sweep cube [A, u(A)] satisfies B minus its roots = A",
                    _chk_cube_set),
    CheckDescriptor("lemma_root_fall", "simply-rooted",
                    "members only ever fall by shedding a root",
                    _chk_root_fall),
    CheckDescriptor("cor_Z_roots", "simply-rooted",
                    "members with three pairwise distinct sweep images have >= 2 roots, >= 3 if "
                    "moved",
                    _chk_z_roots),
    CheckDescriptor("lemma_split_rooted_2", "simply-rooted",
                    "when every shared member is full-shadowed, |d(F1) ^ d(F2)| <= #bad(F) + |Z|",
                    _chk_split_rooted_2),
    CheckDescriptor("lemma_many_bad_2", "simply-rooted",
                    "|F_S||F_T| <= 2^n (b1 + b2 + b3 + |Z| - |Y|)",
                    _product_check(
                        lambda a, ev: a.b1 + a.b2 + a.b3 + ev.z_mask.bit_count() - len(a.y)
                    )),
    CheckDescriptor("lemma_Y_ge_Z", "simply-rooted", "|Z| <= |Y|", _chk_y_ge_z),
    CheckDescriptor("lemma_refinement", "simply-rooted", "|F_S||F_T| <= 2^n (b1 + b2 + b3)",
                    _product_check(lambda a, ev: a.b1 + a.b2 + a.b3)),
    CheckDescriptor("thm_stability_8", "simply-rooted",
                    "m^2 - q^2 <= 8 * 2^n * (||I(m)|| + m - ||F||)",
                    _stability_check(8)),
    CheckDescriptor("probe_degree_bound", "simply-rooted",
                    "conjectured: ||F|| <= ||I(m)|| + max degree",
                    _size_check(lambda ev: max(ev.degrees, default=0)), conjecture=True),
    CheckDescriptor("probe_max_rooted_bound", "simply-rooted",
                    "conjectured: ||F|| <= ||I(m)|| + q",
                    _size_check(lambda ev: ev.q), conjecture=True),
    CheckDescriptor("probe_eps_delta_bound", "simply-rooted",
                    "conjectured n-free stability at eps = delta = 1/10: "
                    "10 q <= m implies 10||F|| <= 10||I(m)|| + 9m",
                    _chk_probe_eps_delta, conjecture=True),
)

CATALOG_IDS: tuple[str, ...] = tuple(d.id for d in _TABLE if not d.conjecture)
PROBE_IDS: tuple[str, ...] = tuple(d.id for d in _TABLE if d.conjecture)
_FAMILY_CHECKS: dict[str, FamilyCheck] = {d.id: d.family for d in _TABLE if d.family}
_GLOBAL_CHECKS: dict[str, Callable[[EnumerationPlan | None], _Tally]] = {
    d.id: d.sweep for d in _TABLE if d.sweep
}


def catalog(plan: EnumerationPlan | None = None) -> list[CheckDescriptor]:
    """The full ordered catalog: thirty checks plus the three conjecture probes."""
    return [replace(d, population=plan) if d.family else d for d in _TABLE]


# ---------------------------------------------------------------------------
# suite runner


@dataclass(frozen=True)
class Violation:
    family: str
    lhs: int
    rhs: int


@dataclass(frozen=True)
class CheckReport:
    id: str
    instances_tested: int
    violations: tuple[Violation, ...]
    violations_seen: int
    status: Literal["pass", "fail", "skipped"]
    wall_time: float
    details: dict
    conjecture: bool = False

    def as_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "wall_time"}


def _run_shard(args: tuple[EnumerationPlan, int, int, tuple[str, ...]]) -> dict[str, _Tally]:
    """Run the family checks `ids` on `count` families of the plan from index `start`."""
    plan, start, count, ids = args
    tallies = {cid: _Tally(instances=count) for cid in ids}
    checks = [(_FAMILY_CHECKS[cid], tallies[cid]) for cid in ids]
    clock = time.perf_counter
    for index in range(start, start + count):
        ev = build_evidence(indexed_rooted_sample(plan, index))
        text = None
        for check, t in checks:
            t0 = clock()
            ok, lhs, rhs, extra = check(ev)
            t.seconds += clock() - t0
            if not ok:
                if text is None:
                    text = family_to_text(ev.fam)
                t.violations.append((index, text, lhs, rhs))
            if extra:
                for key, val in extra.items():
                    t.details[key] = t.details.get(key, 0) + val
    return tallies


def run_suite(
    descriptors: Sequence[CheckDescriptor], parallelism: int = 1
) -> list[CheckReport]:
    """Execute the given catalog entries and return reports in catalog order.

    Family-scope entries share one evidence pass over their common population,
    sharded into fixed index blocks; global entries run once in the parent.
    Reports are identical for any worker count.  A report's wall_time is the
    time spent inside that check, summed over shards, including the evidence
    fields that check is the first to read.  DomainError when parallelism is
    below 1.
    """
    if parallelism < 1:
        raise DomainError(f"parallelism must be at least 1, got {parallelism}")
    family_ids = tuple(d.id for d in descriptors if d.id in _FAMILY_CHECKS)
    plans = {d.population for d in descriptors if d.id in _FAMILY_CHECKS}
    plans.discard(None)
    if len(plans) > 1:
        raise DomainError("family-scope checks must share one population plan")
    plan = plans.pop() if plans else None

    merged: dict[str, _Tally] = {cid: _Tally() for cid in family_ids}
    if plan is not None and family_ids:
        total = population_size(plan)  # builds the exhaustive table before any fork
        shards = [
            (plan, start, min(SHARD_SIZE, total - start), family_ids)
            for start in range(0, total, SHARD_SIZE)
        ]
        if parallelism > 1 and len(shards) > 1:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(min(parallelism, len(shards))) as pool:
                results = pool.map(_run_shard, shards, chunksize=1)
        else:
            results = [_run_shard(s) for s in shards]
        for tallies in results:
            for cid, t in tallies.items():
                merged[cid].add(t)

    reports = []
    for d in descriptors:
        tally = merged.get(d.id, _Tally())
        if d.id in _GLOBAL_CHECKS:
            t0 = time.perf_counter()
            swept = _GLOBAL_CHECKS[d.id](plan)
            swept.seconds = time.perf_counter() - t0
            tally.add(swept)
        found = sorted(tally.violations, key=lambda rec: rec[0])
        reports.append(CheckReport(
            id=d.id,
            instances_tested=tally.instances,
            violations=tuple(Violation(*rec[1:]) for rec in found[:VIOLATION_CAP]),
            violations_seen=len(found),
            status="skipped" if not tally.instances else "fail" if found else "pass",
            wall_time=tally.seconds,
            details=tally.details,
            conjecture=d.conjecture,
        ))
    return reports


def suite_document(
    plan: EnumerationPlan | None,
    reports: Iterable[CheckReport],
    selected: Sequence[str] | None = None,
) -> dict:
    """The canonical report document; wall times stay out so output is replayable."""
    reports = list(reports)
    run_config = {
        "n": plan.n if plan else None,
        "mode": plan.mode if plan else None,
        "samples": plan.sample_count if plan else None,
        "checks": list(selected) if selected is not None else None,
    }
    return {
        "run_config": run_config,
        "seed": plan.seed if plan else None,
        "checks": [r.as_json() for r in reports if not r.conjecture],
        "conjecture_probes": [r.as_json() for r in reports if r.conjecture],
    }


def document_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_table(reports: Iterable[CheckReport]) -> str:
    """Human-readable result table, probes separated below the rule."""
    header = ("check", "status", "instances", "violations", "seconds")
    rows = [
        ((r.id, r.status, str(r.instances_tested), str(r.violations_seen), f"{r.wall_time:.2f}"),
         r.conjecture)
        for r in reports
    ]
    widths = [max(map(len, column)) for column in zip(header, *(cells for cells, _ in rows))]

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()

    lines = [line(header), "  ".join("-" * w for w in widths)]
    lines += [line(cells) for cells, probe in rows if not probe]
    probes = [line(cells) for cells, probe in rows if probe]
    if probes:
        lines += ["conjecture probes:", *probes]
    return "\n".join(lines) + "\n"

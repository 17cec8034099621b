"""Down- and up-compressions with per-set traces.

The one-direction compression d_i removes i from each member containing it
unless the smaller set is already present; u_i is the mirror image.  The full
sweeps apply every direction once, direction 1 first:

    full_down(F) = d_n(...d_1(F)...)      full_up(F) = u_n(...u_1(F)...)

Applying direction 1 first makes the two sweeps exact complements of each
other: complement(d_i(F)) = u_i(complement(F)) cell for cell, and the same
holds prefix by prefix.  With direction n first the two sweeps disagree
already at n = 2, on the family {1}, {2}.

A CompressionTrace records, for every original member, each step at which
its image moved and where it landed.  Traces answer prefix queries exactly:
prefix_family(k) is the family after the first k directions, prefix_image(s,
k) the image of the member s at that point.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import bitops
from .core import Family, complement, is_simply_rooted, is_union_closed, roots, set_text
from .errors import DomainError

__all__ = [
    "CompressionTrace",
    "ReimerDecomposition",
    "full_down",
    "full_up",
    "reimer_decomposition",
    "uc_image_witness",
]


@dataclass(frozen=True)
class CompressionTrace:
    """Replayable record of a full compression sweep."""

    n: int
    directions: tuple[int, ...]
    original: Family
    prefix_masks: tuple[int, ...]  # length len(directions)+1, [0] is the original
    moves: dict[int, tuple[tuple[int, int], ...]] = field(repr=False)

    @property
    def result(self) -> Family:
        return Family(self.n, self.prefix_masks[-1])

    def image(self, s: int) -> int:
        """Final image of original member s."""
        if s not in self.original:
            raise DomainError(f"{set_text(s)} is not an original member")
        mv = self.moves.get(s)
        return mv[-1][1] if mv else s

    def prefix_family(self, k: int) -> Family:
        """Family after the first k directions (k = 0 is the original)."""
        return Family(self.n, self.prefix_masks[k])

    def prefix_image(self, s: int, k: int) -> int:
        """Image of original member s after the first k directions."""
        if s not in self.original:
            raise DomainError(f"{set_text(s)} is not an original member")
        out = s
        for step_index, cell in self.moves.get(s, ()):
            if step_index > k:
                break
            out = cell
        return out

    def image_map(self) -> dict[int, int]:
        return {s: self.image(s) for s in self.original}

    def fixed_mask(self) -> int:
        """Cells of members that never moved."""
        moved = 0
        for s in self.moves:
            moved |= 1 << s
        return self.original.mask & ~moved


def _sweep(
    n: int,
    mask: int,
    directions: tuple[int, ...],
    down: bool,
) -> tuple[tuple[int, ...], dict[int, tuple[tuple[int, int], ...]]]:
    cur = mask
    prefixes = [mask]
    relocated: dict[int, int] = {}  # current cell -> original cell, moved sets only
    moves: dict[int, list[tuple[int, int]]] = {}
    for step_index, i in enumerate(directions, start=1):
        if down:
            fall = bitops.down_fallers(n, cur, i)
        else:
            fall = bitops.up_fallers(n, cur, i)
        block = 1 << (i - 1)
        for c in bitops.iter_bits(fall):
            orig = relocated.pop(c, c)
            target = c - block if down else c + block
            relocated[target] = orig
            moves.setdefault(orig, []).append((step_index, target))
        cur = bitops.down_step(n, cur, i) if down else bitops.up_step(n, cur, i)
        prefixes.append(cur)
    frozen = {s: tuple(mv) for s, mv in moves.items()}
    return tuple(prefixes), frozen


def full_down(fam: Family) -> tuple[Family, CompressionTrace]:
    """Apply every downward direction once, direction 1 first, with trace."""
    dirs = tuple(range(1, fam.n + 1))
    prefixes, moves = _sweep(fam.n, fam.mask, dirs, down=True)
    trace = CompressionTrace(fam.n, dirs, fam, prefixes, moves)
    return trace.result, trace


def full_up(fam: Family) -> tuple[Family, CompressionTrace]:
    """Apply every upward direction once, direction 1 first, with trace.

    Direction 1 first makes this the exact mirror of full_down under
    complementation, prefix by prefix.
    """
    dirs = tuple(range(1, fam.n + 1))
    prefixes, moves = _sweep(fam.n, fam.mask, dirs, down=False)
    trace = CompressionTrace(fam.n, dirs, fam, prefixes, moves)
    return trace.result, trace


@dataclass(frozen=True)
class ReimerDecomposition:
    """Cubes [A, up_image(A)] for the members of a union-closed family.

    For union-closed input the cubes are pairwise disjoint, so they tile
    |F| * average-cube-size cells of the power set; `disjoint` certifies it
    and `covered` is the union of all cube cells.
    """

    family: Family
    image: Family
    uppers: dict[int, int] = field(repr=False)
    covered: int = field(repr=False)
    disjoint: bool = True

    @property
    def total_cube_cells(self) -> int:
        return sum(1 << (u & ~s).bit_count() for s, u in self.uppers.items())


def reimer_decomposition(fam: Family) -> ReimerDecomposition:
    """Decompose a union-closed family into the cubes [A, u(A)] of its up sweep."""
    if not is_union_closed(fam):
        raise DomainError("family is not union-closed")
    final, trace = full_up(fam)
    uppers = trace.image_map()
    covered, overlap = _cube_cover(uppers)
    return ReimerDecomposition(fam, final, uppers, covered, overlap is None)


def _cube_cover(uppers: dict[int, int]) -> tuple[int, tuple[int, int] | None]:
    """Union of the cubes [A, u] over the pairs A -> u, and the first pair whose
    cube meets an earlier one (None when the cubes are pairwise disjoint)."""
    covered = 0
    overlap = None
    for s, u in uppers.items():
        cube = bitops.interval(s, u)
        if overlap is None and covered & cube:
            overlap = (s, u)
        covered |= cube
    return covered, overlap


def _witness_from_traces(
    down_trace: CompressionTrace,
    up_trace: CompressionTrace,
    root_set: int,
    s: int,
) -> tuple[int, int] | None:
    """Shared witness logic: first fall step k and preimage A = s minus its roots.

    None when s never moves or that one candidate is not carried onto s.
    """
    mv = down_trace.moves.get(s)
    if not mv:
        return None
    k = mv[0][0]
    a = s & ~root_set
    if a in up_trace.original and up_trace.prefix_image(a, k) == s:
        return k, a
    return None


def uc_image_witness(fam: Family, s: int) -> tuple[int, int]:
    """For a moved member s of a simply rooted family, a pair (k, A) with the
    complement's upward sweep carrying A onto s after k directions.

    A is s stripped of its roots.  DomainError if s never moves (no witness
    exists), or on precondition violations.
    """
    if not is_simply_rooted(fam):
        raise DomainError("family is not simply rooted")
    if s not in fam:
        raise DomainError(f"{set_text(s)} is not a member")
    _, down_trace = full_down(fam)
    if down_trace.image(s) == s:
        raise DomainError(f"{set_text(s)} is fixed by the downward sweep")
    _, up_trace = full_up(complement(fam))
    out = _witness_from_traces(down_trace, up_trace, roots(fam, s), s)
    if out is None:  # mathematically impossible; guard against implementation bugs
        raise RuntimeError(f"no witness found for {set_text(s)}")
    return out

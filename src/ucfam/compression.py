"""Down- and up-compressions with per-set traces.

The one-direction compression d_i removes i from each member containing it
unless the smaller set is already present; u_i is the mirror image.  The full
sweeps apply every direction once, direction 1 first:

    full_down(F) = d_n(...d_1(F)...)      full_up(F) = u_n(...u_1(F)...)

Applying direction 1 first makes the two sweeps exact complements of each
other: complement(d_i(F)) = u_i(complement(F)) cell for cell, and the same
holds prefix by prefix.  With direction n first the two sweeps disagree
already at n = 2, on the family {1}, {2}.

Direction i only ever removes (or adds) element i, so a member's whole
history is its moved set A: the directions at which it moved.  Its image after
the first k directions is s ^ (A & (2^k - 1)): s minus those elements for the
down sweep, s plus them for the up sweep.  A CompressionTrace keeps, per
history A, the mask of the original members that share it, so every query is
mask algebra over a few groups: prefix_family(k) is the family after the
first k directions, prefix_image(s, k) the image of the member s at that point.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import bitops
from .core import Family, set_text
from .errors import DomainError

__all__ = [
    "CompressionTrace",
    "full_down",
    "full_up",
]


@dataclass(frozen=True)
class CompressionTrace:
    """Replayable record of a full compression sweep, direction 1 first.

    `groups` maps each history (moved set A, an encoded element set) to the
    mask of original members with that history; members that never moved
    form group 0.  The groups partition the original family.  No history is
    assumed: a member that moved twice is a group with two elements in A.
    """

    n: int
    original: Family
    prefix_masks: tuple[int, ...]  # length n+1, [0] is the original
    groups: dict[int, int] = field(repr=False)

    @property
    def result(self) -> Family:
        return Family(self.n, self.prefix_masks[-1])

    @property
    def moves(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Per moved member, each (direction, cell it landed on), in sweep order."""
        out = {}
        for a, g in self.groups.items():
            if not a:
                continue
            steps = [1 << b for b in bitops.iter_bits(a)]
            for s in bitops.iter_bits(g):
                out[s] = tuple(
                    (step.bit_length(), s ^ (a & (2 * step - 1))) for step in steps
                )
        return dict(sorted(out.items()))

    def moved_set(self, s: int) -> int:
        """History of original member s: the encoded set of directions it moved at."""
        for a, g in self.groups.items():
            if (g >> s) & 1:
                return a
        raise DomainError(f"{set_text(s)} is not an original member")

    def image(self, s: int) -> int:
        """Final image of original member s."""
        return s ^ self.moved_set(s)

    def prefix_family(self, k: int) -> Family:
        """Family after the first k directions (k = 0 is the original)."""
        return Family(self.n, self.prefix_masks[k])

    def prefix_image(self, s: int, k: int) -> int:
        """Image of original member s after the first k directions."""
        return s ^ (self.moved_set(s) & ((1 << k) - 1))

    def fixed_mask(self) -> int:
        """Cells of members that never moved."""
        return self.groups.get(0, 0)

    def moved_mask(self) -> int:
        """Cells of members that moved at least once."""
        return self.original.mask & ~self.fixed_mask()

    def same_images(self, other: CompressionTrace) -> int:
        """Cells of both originals that this sweep and `other`, in the same
        direction, carry to the same image: those with the same history."""
        out = 0
        for a, g in self.groups.items():
            h = other.groups.get(a)
            if h:
                out |= g & h
        return out


def _sweep(fam: Family, down: bool) -> CompressionTrace:
    """Run directions 1..n, splitting each history group by the step's movers."""
    n = fam.n
    cur = fam.mask
    prefixes = [cur]
    groups = {0: cur} if cur else {}
    for i in range(1, n + 1):
        block = 1 << (i - 1)
        if down:
            fall = bitops.down_fallers(n, cur, i)
            cur ^= fall | (fall >> block)
        else:
            fall = bitops.up_fallers(n, cur, i)
            cur ^= fall | (fall << block)
        prefixes.append(cur)
        if not fall:
            continue
        for a, g in list(groups.items()):
            # the members of g sit at s ^ a; pick those at a falling cell
            moved = g & ((fall << a) if down else (fall >> a))
            if moved:
                groups[a | block] = moved
                if moved == g:
                    del groups[a]
                else:
                    groups[a] = g ^ moved
    return CompressionTrace(n, fam, tuple(prefixes), groups)


def full_down(fam: Family) -> tuple[Family, CompressionTrace]:
    """Apply every downward direction once, direction 1 first, with trace."""
    trace = _sweep(fam, down=True)
    return trace.result, trace


def full_up(fam: Family) -> tuple[Family, CompressionTrace]:
    """Apply every upward direction once, direction 1 first, with trace.

    Direction 1 first makes this the exact mirror of full_down under
    complementation, prefix by prefix.
    """
    trace = _sweep(fam, down=False)
    return trace.result, trace


def _cube_cover(up: CompressionTrace) -> tuple[int, tuple[int, int] | None]:
    """Union of the cubes [A, u(A)] of an up sweep, and the first pair A -> u(A)
    whose cube meets an earlier group's cubes (None when they are pairwise disjoint).

    A group with history U holds the cubes [A, A + U] of its members A.
    Those never meet each other (a cell X of one determines A = X - U), and
    their union is the group mask spread along every element of U.
    """
    covered = 0
    overlap = None
    for u, g in up.groups.items():
        cubes = bitops.spread(g, u)
        if overlap is None and covered & cubes:
            overlap = next(
                (a, a ^ u) for a in bitops.iter_bits(g) if bitops.interval(a, a ^ u) & covered
            )
        covered |= cubes
    return covered, overlap


def _witnessed(down: CompressionTrace, up: CompressionTrace, rooted: Sequence[int]) -> int:
    """Moved members s of the down sweep with a witness: A = s minus its roots
    is a member of the up sweep's original that the first k directions carry
    onto s, k being the direction of the first fall of s.

    With U the up history of A that means U & (2^k - 1) = roots(s).  A misses U
    (each direction of U added its own element), so A + (U & (2^k - 1)) has just
    those elements in U, and one roots_differ(U) per up group tests every k.
    """
    first_fall: dict[int, int] = {}  # k -> moved members whose first fall is at direction k
    for a, g in down.groups.items():
        if a:
            k = (a & -a).bit_length()
            first_fall[k] = first_fall.get(k, 0) | g
    out = 0
    for u, h in up.groups.items():
        hits = 0
        for k, cells in first_fall.items():
            hits |= (h << (u & ((1 << k) - 1))) & cells
        if hits:
            out |= hits & ~bitops.roots_differ(up.n, rooted, u)
    return out

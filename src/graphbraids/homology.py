"""Homology of Morse complexes.

H_d = ker d_d / im d_(d+1) computed exactly.  Since ker d_d is a direct
summand of the chain group, H_d is Z^(c_d - rank d_d - rank d_(d+1)) plus
the torsion of d_(d+1), so ranks and invariant factors are all it needs.
They come from one pass down the degrees over the sparse boundary rows:
``unit_pivots`` takes the +-1 pivots of each d_d, and the dense Smith form
of the core left over gives the rest of the rank and the torsion.  The rows
of d_d whose cells were pivot columns of d_(d+1) are dropped first (after
Kaczynski, Mrozek and Slusarek's coupled reduction of a chain complex).

Of a `MorseComplex`, `homology` reads only each degree's basis size,
``len(critical[d])``, and the sparse rows of ``boundaries``: any chain
complex given as sizes and rows goes through the same pass.  The census of
critical 1-cells lives in `closedforms`.
"""

from __future__ import annotations

from collections import namedtuple

# perfbench/tracer.py wraps smith_normal_form, kernel_basis and
# kernel_coordinates here, so the two unused ones stay
from .intlinalg import (smith_normal_form, kernel_basis, kernel_coordinates,
                        densify, unit_pivots)
from .morse import MorseComplex, MorseError


class AbelianGroup(namedtuple("AbelianGroup", "rank torsion", defaults=((),))):
    __slots__ = ()

    @staticmethod
    def from_presentation(n_generators: int, relation_matrix) -> "AbelianGroup":
        """Cokernel of a relation matrix whose rows are relations among
        n_generators generators."""
        if not relation_matrix:
            return AbelianGroup(n_generators)
        snf = smith_normal_form(relation_matrix)
        tors = tuple(sorted(abs(d) for d in snf.diag if abs(d) > 1))
        return AbelianGroup(n_generators - snf.rank, tors)

    def __str__(self):
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}" if self.rank > 1 else "Z")
        parts.extend(f"Z_{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}


def homology(mc: MorseComplex) -> dict[int, AbelianGroup]:
    """Integral homology of the Morse complex; degrees 0..2 always present.

    The degrees go from the top down.  A pivot row of d_(d+1) lies in its
    row space and d_d o d_(d+1) = 0, so the row of d_d at the pivot's column
    is an integer combination of the rows at the other columns of the pivot
    row; over all pivots, taken from the last made, the rows at pivot
    columns are combinations of the rest.  Dropping them leaves the row
    lattice of d_d, hence its rank and invariant factors, unchanged.  Then
    rank d_d is the pivots plus the rank of the core, and the torsion of d_d
    is the core's; each core goes through ``smith_normal_form`` as a dense
    matrix, one call per nonempty boundary."""
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple] = {}
    drop: dict[int, dict] = {}  # degree -> the rows to leave out of d_d
    for d in sorted(mc.boundaries, reverse=True):
        rows = mc.boundaries[d]
        if not rows:
            continue
        dropped = drop.get(d, {})
        if any(not 0 <= i < len(rows) for i in dropped):
            raise MorseError(f"a pivot column of d_{d + 1} is not a row of "
                             f"d_{d}")
        pivots, core = unit_pivots([r for i, r in enumerate(rows)
                                    if i not in dropped])
        snf = smith_normal_form(densify(core))
        ranks[d] = len(pivots) + snf.rank
        torsion[d] = tuple(x for x in snf.diag if x > 1)
        drop[d - 1] = pivots
    out: dict[int, AbelianGroup] = {}
    for d in sorted(set(mc.critical) | {0, 1, 2}):
        free = (len(mc.critical.get(d, ())) - ranks.get(d, 0)
                - ranks.get(d + 1, 0))
        if free < 0:
            raise MorseError(f"rank H_{d} comes out negative: {free}")
        out[d] = AbelianGroup(free, torsion.get(d + 1, ()))
    return out

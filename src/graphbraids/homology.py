"""Homology of Morse complexes and the pivotal/separating/free census.

H_d = ker d_d / im d_(d+1) computed exactly.  Since ker d_d is a direct
summand of the chain group, H_d is Z^(c_d - rank d_d - rank d_(d+1)) plus
the torsion of d_(d+1), so ranks and invariant factors are all it needs.
They come from one pass down the degrees over the sparse boundary rows:
``unit_pivots`` takes the +-1 pivots of each d_d, and the dense Smith form
of the core left over gives the rest of the rank and the torsion.  The rows
of d_d whose cells were pivot columns of d_(d+1) are dropped first (after
Kaczynski, Mrozek and Slusarek's coupled reduction of a chain complex).
"""

from __future__ import annotations

from dataclasses import dataclass

# perfbench/tracer.py wraps smith_normal_form, kernel_basis and
# kernel_coordinates here, so the two unused ones stay
from .intlinalg import (smith_normal_form, kernel_basis, kernel_coordinates,
                        densify, unit_pivots)
from .morse import MorseComplex, MorseError, wedge_cell, bare_fill
from . import cells as C


@dataclass(frozen=True)
class AbelianGroup:
    rank: int
    torsion: tuple = ()

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


# ---------------------------------------------------------------------------
# pivotal / separating / free

def _unordered_name(mc: MorseComplex, cell):
    if mc.ordered:
        sc, _ = C.phi(cell)
        return mc.names[cell], sc
    return mc.names[cell], cell


def separating_families(t):
    """Triples feeding rows with two +-1 entries: for each deleted edge d
    with k = g(tau(d), iota(d)) >= 1, the deleted edges d' with smaller tau,
    separated by tau(d), disjoint from d, and g(tau(d), iota(d')) = k."""
    fams = []
    for d in t.deleted:
        a = d[0]
        k = t.branch(a, d[1]) if t.is_ancestor(a, d[1]) and a != d[1] else 0
        if k == 0:
            continue
        partners = []
        for dp in t.deleted:
            if dp == d or dp[0] >= d[0]:
                continue
            if len({d[0], d[1], dp[0], dp[1]}) != 4:
                continue
            if t.separates(dp, a) and t.branch(a, dp[1]) == k:
                partners.append(dp)
        if len(partners) >= 2:
            fams.append((d, sorted(partners)))
    return fams


def separating_cells(t, n: int):
    """Critical 1-cells of the form wedge(d, d') arising from some family."""
    out = set()
    for d, partners in separating_families(t):
        for dp in partners:
            w = wedge_cell(t, d, dp, n - 2, strict=False)
            if w is not None:
                out.add(w)
    return out


def classify_1cells(mc: MorseComplex) -> dict:
    """Tag each critical 1-cell pivotal, separating, or free from the
    geometric characterizations (not from the matrix)."""
    t = mc.tree
    if mc.ordered and mc.n != 2:
        raise ValueError("1-cell classification needs unordered flavor or n = 2")
    sep_unordered = separating_cells(t, mc.n)
    tags = {}
    for cell in mc.critical.get(1, ()):
        name, sc = _unordered_name(mc, cell)
        if sc in sep_unordered:
            tags[cell] = "separating"
            continue
        pivotal = False
        if name is not None and name.canonical and len(name.terms) == 1:
            tm = name.terms[0]
            a = tm.tau
            classes = t.sep_classes().get(a, {})
            hit = any(tm.vec[m - 1] >= 1 for m in classes)
            if tm.kind == "deleted":
                pivotal = hit
            else:
                pivotal = hit and sum(tm.vec) >= 2
        tags[cell] = "pivotal" if pivotal else "free"
    return tags


def undetermined_block(mc: MorseComplex):
    """Rows d u d' - d u d_ref over the separating 1-cells, the block left
    after removing pivotal rows/columns and free columns.

    Returns (matrix, row_labels, column_cells); for the ordered flavor each
    family row appears for both permutation subscripts.
    """
    t = mc.tree
    n = mc.n
    tags = classify_1cells(mc)
    sep = [c for c in mc.critical.get(1, ()) if tags[c] == "separating"]
    col_index = {c: i for i, c in enumerate(sep)}
    from .morse import Reducer, morse_boundary
    red = Reducer(t, mc.ordered)
    rows, labels = [], []

    def emit(chain, label):
        row = [0] * len(sep)
        for cc, x in chain.items():
            if cc in col_index:
                row[col_index[cc]] = x
            elif x:
                raise MorseError(
                    f"block row {label} leaks outside separating columns: "
                    f"{C.format_cell(cc, mc.ordered)}")
        rows.append(row)
        labels.append(label)

    for d, partners in sorted(separating_families(t), reverse=True):
        ref = partners[0]
        for dp in sorted(partners[1:], reverse=True):
            if mc.ordered:
                for sigma in ((1, 2), (2, 1)):
                    ca = C.phi_inverse(tuple(sorted((dp, d))), sigma)
                    cb = C.phi_inverse(tuple(sorted((ref, d))), sigma)
                    chain = _chain_sub(morse_boundary(red, ca),
                                       morse_boundary(red, cb))
                    emit(chain, (d, dp, ref, sigma))
            else:
                ca = bare_fill(t, [d, dp], n - 2)
                cb = bare_fill(t, [d, ref], n - 2)
                chain = _chain_sub(morse_boundary(red, ca),
                                   morse_boundary(red, cb))
                emit(chain, (d, dp, ref))
    return rows, labels, sep


def _chain_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) - v
        if not out[k]:
            del out[k]
    return out


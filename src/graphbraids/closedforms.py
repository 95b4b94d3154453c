"""The paper's closed forms: the Morse boundary of a critical 2-cell on a
tree satisfying T1-T3, and the census of critical 1-cells into pivotal,
separating and free cells.

`morse.build_morse_complex` reads d2 off the rewritten relator words.  The
closed boundary formulas (`fast_morse_boundary`, and
`fast_morse_boundary_ordered` for ordered n = 2) state d2 independently,
reading separation and its branch off the tree's census ``sep_classes``,
and `check_closed_forms` compares the built complex with them.  The 1-cell
census (`classify_1cells`) is read off the cells' names and ``sep_classes``,
not off the matrix.
"""

from __future__ import annotations

from . import cells as C
from .morse import (CriticalName, MorseComplex, MorseError, Term,
                    materialize_name, name_critical_cell)
from .trees import OrderedTree, verify_conditions


# ---------------------------------------------------------------------------
# closed-form boundary formulas

def _p(vec):
    for i, a in enumerate(vec, start=1):
        if a:
            return i
    return 0


def _plus(vec, k):
    """vec + delta_k: one more blocked vertex on branch k."""
    return tuple(x + (i == k) for i, x in enumerate(vec, start=1))


def bold_A(t: OrderedTree, a_vertex: int, vec, ell: int, n: int):
    """The reduction of the staircase sum: surviving critical 1-cells of
    A_{p(vec-alpha)}((vec-alpha) - delta_p + delta_ell), alpha = 0..|vec|;
    a term survives exactly when ell < p(vec-alpha)."""
    out: dict = {}
    cur = list(vec)
    while p := _p(cur):
        if ell < p:
            v = list(cur)
            v[p - 1] -= 1
            v[ell - 1] += 1
            edge = (a_vertex, t.children[a_vertex][p - 1])
            s0 = n - 1 - sum(v)
            name = CriticalName((Term("tree", edge, tuple(v)),), s0)
            cell = materialize_name(t, name)
            if cell is None:
                raise MorseError("bold-A term failed to materialize")
            out[cell] = out.get(cell, 0) + 1
        # vec - (alpha + 1): one fewer vertex on the lowest occupied branch
        cur[p - 1] -= 1
    return out


def wedge_cell(t: OrderedTree, d, dp, s0: int, strict: bool = True):
    """The critical 1-cell at the meet of the initial vertices of two
    deleted edges: C_max(delta_min).  Degenerate configurations (possible
    only when T2 fails) return None unless strict."""
    c = t.meet(d[1], dp[1])
    if c in (d[1], dp[1]):
        if strict:
            raise MorseError("wedge undefined: one initial vertex is an "
                             "ancestor of the other")
        return None
    ga, gb = t.branch(c, d[1]), t.branch(c, dp[1])
    ell, k = min(ga, gb), max(ga, gb)
    edge = (c, t.children[c][k - 1])
    vec = _plus((0,) * t.branch_count(c), ell)
    name = CriticalName((Term("tree", edge, vec),), s0)
    cell = materialize_name(t, name)
    if cell is None:
        if strict:
            raise MorseError("wedge cell failed to materialize")
        return None
    return cell


def fast_morse_boundary(t: OrderedTree, cell) -> dict:
    """Closed-form Morse boundary of an unordered critical 2-cell on a tree
    satisfying T1-T3.  Raises for shapes outside the three standard forms.

    Both formulas share one skeleton over the edge e carrying the blocked
    vector: e(a) - e(a + delta_ell) - boldA(a, ell) + boldA(a + delta_k, ell)
    with k the branch of e itself and ell the branch toward the other edge,
    plus a wedge term when both edges are deleted and k = ell, signed -1
    exactly when e has the smaller initial vertex.
    """
    n = len(cell)
    name = name_critical_cell(t, cell)
    if name is None or len(name.terms) != 2:
        raise MorseError(f"unsupported 2-cell shape {C.format_cell(cell)}")
    hi, lo = name.terms
    if hi.kind == lo.kind == "tree":
        return {}
    # a lower tree edge's vertex sits above tau of the deleted edge; under
    # T2 the deleted edge is not separated there, so the image vanishes.
    # The other edge is always deleted, so the census holds it, keyed by ell
    own, other = (lo, hi) if lo.kind == "tree" else (hi, lo)
    a = own.tau
    ell = next((m for m, ds in t.sep_classes.get(a, {}).items()
                if other.edge in ds), None)
    if ell is None:
        return {}
    k = t.branch(a, own.edge[1])
    avec = own.vec

    def one_cell(vec):
        s0 = n - 1 - sum(vec)
        nm = CriticalName((Term(own.kind, own.edge, tuple(vec)),), s0)
        cc = materialize_name(t, nm)
        if cc is None:
            raise MorseError("boundary term failed to materialize")
        return cc

    out: dict = {}

    def add(cellv, coeff):
        out[cellv] = out.get(cellv, 0) + coeff

    add(one_cell(avec), 1)
    add(one_cell(_plus(avec, ell)), -1)
    for cc, x in bold_A(t, a, avec, ell, n).items():
        add(cc, -x)
    for cc, x in bold_A(t, a, _plus(avec, k), ell, n).items():
        add(cc, x)
    if own.kind == "deleted" and k == ell:
        eps = -1 if own.edge[1] < other.edge[1] else 1
        add(wedge_cell(t, own.edge, other.edge, n - 2), eps)
    return {c: x for c, x in out.items() if x}


def fast_morse_boundary_ordered(t: OrderedTree, cell_tuple) -> dict:
    """Closed-form Morse boundary of an ordered critical 2-cell, n = 2 only."""
    if len(cell_tuple) != 2:
        raise MorseError("ordered closed forms exist only for n = 2")
    sc, sigma = C.phi(cell_tuple)
    dp, d = sc  # sorted: tau(dp) < tau(d)
    if d not in t.deleted_set or dp not in t.deleted_set:
        raise MorseError("ordered critical 2-cells must be pairs of deleted edges")
    a = d[0]
    out: dict = {}
    ell = next((m for m, ds in t.sep_classes.get(a, {}).items() if dp in ds),
               None)
    if ell is None:
        return out
    k = t.branch(a, d[1])
    rho = (2, 1)
    ident = (1, 2)

    def emit(sorted_cell, tau, coeff):
        sub = tau if sigma == ident else (rho if tau == ident else ident)
        tup = C.phi_inverse(sorted_cell, sub)
        out[tup] = out.get(tup, 0) + coeff

    zero = (0,) * t.branch_count(a)
    bare = materialize_name(t, CriticalName((Term("deleted", d, zero),), 1))
    dvec = materialize_name(t, CriticalName((Term("deleted", d,
                                                  _plus(zero, ell)),), 0))
    if bare is None or dvec is None:
        raise MorseError("ordered boundary term failed to materialize")
    emit(bare, ident, 1)
    emit(dvec, rho, -1)
    if d[1] < dp[1]:
        if k == ell:
            emit(wedge_cell(t, d, dp, 0), ident, -1)
    else:
        emit(wedge_cell(t, d, dp, 0), rho, 1)
    return {c: x for c, x in out.items() if x}


def check_closed_forms(mc: MorseComplex) -> None:
    """Compare every d2 row of ``mc``, read off its relator words, with the
    closed boundary formulas, an independent statement of d2.  Raises
    `MorseError` at the first critical 2-cell where they disagree, and for
    a complex the formulas do not cover: ordered n >= 3, or a tree that
    fails T1-T3."""
    if mc.ordered and mc.n >= 3:
        raise MorseError("no closed boundary formulas for ordered n >= 3")
    if not verify_conditions(mc.tree).ok():
        raise MorseError("the closed boundary formulas need a tree "
                         "satisfying T1-T3")
    faces = mc.critical.get(1, [])
    for cell, row in zip(mc.critical.get(2, ()), mc.boundaries.get(2, ())):
        closed = (fast_morse_boundary_ordered(mc.tree, cell) if mc.ordered
                  else fast_morse_boundary(mc.tree, cell))
        chain = {faces[j]: row[j] for j in sorted(row)}
        if closed != chain:
            raise MorseError(
                f"the closed forms and the rewriting disagree on "
                f"{C.format_cell(cell, mc.ordered)}: {closed} vs {chain}")


# ---------------------------------------------------------------------------
# pivotal / separating / free

def separating_families(t):
    """Triples feeding rows with two +-1 entries: for each deleted edge d
    with k = g(tau(d), iota(d)) >= 1, the deleted edges d' with smaller tau,
    separated by tau(d), disjoint from d, and g(tau(d), iota(d')) = k: the
    census ``t.sep_classes[tau(d)][k]`` cut to those."""
    fams = []
    for d in t.deleted:
        a = d[0]
        k = t.branch(a, d[1])
        partners = [dp for dp in t.sep_classes.get(a, {}).get(k, ())
                    if dp[0] < a and len({*d, *dp}) == 4]
        if k and len(partners) >= 2:
            fams.append((d, partners))
    return fams


def separating_cells(t, n: int):
    """Critical 1-cells of the form wedge(d, d') arising from some family."""
    return {w for d, partners in separating_families(t) for dp in partners
            if (w := wedge_cell(t, d, dp, n - 2, strict=False)) is not None}


def classify_1cells(mc: MorseComplex) -> dict:
    """Tag each critical 1-cell pivotal, separating, or free from the
    geometric characterizations (not from the matrix).  The pivotal test
    reads the census ``t.sep_classes[tau]`` on branches m >= 1 only: the
    base side, branch 0, is not in a cell's blocked-vertex vector."""
    t = mc.tree
    if mc.ordered and mc.n > 2:
        raise ValueError("1-cell classification needs unordered flavor or n <= 2")
    sep_unordered = separating_cells(t, mc.n)
    tags = {}
    for cell in mc.critical.get(1, ()):
        rep, _ = mc.orbit(cell)
        if rep in sep_unordered:
            tags[cell] = "separating"
            continue
        pivotal = False
        name = mc.names[rep]
        if name is not None and len(name.terms) == 1:
            tm = name.terms[0]
            classes = t.sep_classes.get(tm.tau, {})
            hit = any(tm.vec[m - 1] >= 1 for m in classes if m)
            if tm.kind == "deleted":
                pivotal = hit
            else:
                pivotal = hit and sum(tm.vec) >= 2
        tags[cell] = "pivotal" if pivotal else "free"
    return tags

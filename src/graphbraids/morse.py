"""The Morse engine: the reduction onto critical cells, Morse boundaries,
critical cell names, and the closed boundary formulas.

`Reducer` is the one reduction engine.  It follows the matching W cellwise
with memoization and writes every cell in a coefficient `Algebra`: Z-chains
(`CHAINS`, the default) give Morse boundaries, and free-group words over
critical 1-cells (`WORDS`) give the rewriting homomorphism that
presentations are read from.  A critical cell is itself, a collapsible cell
is zero, and a redundant cell c is solved out of the boundary of W(c): the
cubical boundary for chains, the square's boundary word for words.  Each
cell is classified once per plan.

`build_morse_complex` walks each critical 2-cell once, in both flavors and
at every n: it rewrites the 2-cell's boundary word with `WORDS` and keeps
the word as a relator.  The word's abelianization is minus the cubical
boundary, and rewriting abelianizes to the Z-chain reduction, so the d2
row is minus the relator's exponent sums.  Only the "fast" path reads d2
from the closed formulas instead.  Degrees 1 and >= 3 are Z-chains.

D_n is the n!-sheeted cover of UD_n and its matching is the lift of the one
on UD_n, so the ordered reduction commutes with relabelling the points: a
cell's value is its sorted representative's value with every critical cell
relabelled the same way.  The ordered reducer reduces representatives only.
For the same reason the ordered basis is the unordered one expanded orbit by
orbit: each critical cell c, in the unordered order, is followed by its n!
labellings ``phi_inverse(c, sigma)`` with sigma in lexicographic order, and
each labelling is named as c with sigma attached.  So the labelling
``phi_inverse(c, tau)`` sits at row orbit(c) * n! + rank(tau), and the build
reduces each orbit once, at c itself (the identity labelling): relabelling
by sigma moves the term at column orbit(c') * n! + rank(tau) to column
orbit(c') * n! + rank(sigma o tau), (sigma o tau)[i] = sigma[tau[i] - 1],
read off one n! x n! table of product ranks.  Every labelling's boundary
row and relator come from its orbit's by this index arithmetic.

The one shortcut move replaces c by c with one unblocked vertex v moved to
its parent, when no vertex or edge end of c lies strictly between parent[v]
and v.  It is a special reduction in both flavors and both algebras, and
the words it gives are the words of the full expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import permutations
from typing import Callable

from . import cells as C
from .trees import OrderedTree, verify_conditions


class MorseError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# reduction

@dataclass(frozen=True)
class Algebra:
    """What a `Reducer` writes reduced cells in.

    A critical cell is ``unit(cell)`` and a collapsible one ``zero``.
    ``relation(cell, ordered)`` reads the boundary of a cell as a list of
    (face, coefficient) whose sum (or product) is zero (or 1); a redundant
    cell is solved out of the relation of its matched cell, and
    ``combine(terms)`` turns the solution, as (value, coefficient) pairs of
    the other faces, into the cell's value, one call per cell.
    ``relabel(value, sigma)`` applies ``C.phi_inverse(., sigma)`` to every
    critical cell in a value."""
    zero: object
    unit: Callable
    combine: Callable
    relation: Callable
    relabel: Callable


def _combine_chains(terms) -> dict:
    acc: dict = {}
    for chain, coeff in terms:
        for cell, x in chain.items():
            acc[cell] = acc.get(cell, 0) + coeff * x
    return {cell: x for cell, x in acc.items() if x}


# Z-chains {critical cell: nonzero coefficient} over the cubical boundary
CHAINS = Algebra(zero={}, unit=lambda cell: {cell: 1}, combine=_combine_chains,
                 relation=lambda cell, ordered: C.boundary(cell, ordered),
                 relabel=lambda chain, sigma: {C.phi_inverse(cell, sigma): x
                                               for cell, x in chain.items()})


# words in a free group; letters are (generator, +-1)

Word = tuple


def wmul(*ws) -> Word:
    out = []
    for w in ws:
        for g, e in w:
            if out and out[-1][0] == g and out[-1][1] == -e:
                out.pop()
            else:
                out.append((g, e))
    return tuple(out)


# the product of one word is that word freely reduced
free_reduce = wmul


def winv(w) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def _combine_words(terms) -> Word:
    return wmul(*[w if e == 1 else winv(w) for w, e in terms])


# words over critical 1-cells; a redundant 1-cell is solved out of the
# boundary word of its matched square
WORDS = Algebra(zero=(), unit=lambda cell: ((cell, 1),),
                combine=_combine_words, relation=C.boundary_word,
                relabel=lambda w, sigma: tuple((C.phi_inverse(g, sigma), e)
                                               for g, e in w))


class Reducer:
    """Memoized reduction onto the critical cells of one flavor, with values
    in ``algebra`` (Z-chains by default).

    Ordered, ``memo`` holds one entry per S_n-orbit, keyed on the sorted
    representative ``C.phi(cell)[0]``: every step of the reduction acts on
    the items position by position, with signs read from the items, so the
    value of ``phi_inverse(rep, sigma)`` is rep's value relabelled by
    sigma."""

    def __init__(self, tree: OrderedTree, ordered: bool = False,
                 algebra: Algebra = CHAINS):
        self.t = tree
        self.ordered = ordered
        self.algebra = algebra
        self.memo: dict = {}

    def _canonical(self, cell):
        """(rep, sigma) with cell = phi_inverse(rep, sigma) and rep the
        orbit's sorted representative; sigma is None for the identity."""
        rep, sigma = C.phi(cell)
        return (cell, None) if rep == cell else (rep, sigma)

    def _plan(self, cell):
        """("critical" | "collapsible", None), or ("redundant", [(rep, sigma,
        coefficient)]) with the cell's value the combination of the faces'
        values, each face canonicalised once (sigma is None unordered)."""
        cls = C.classify(self.t, cell)
        if cls.kind != "redundant":
            return cls.kind, None
        move = self._shortcut_move(cell, cls)
        if move is not None:
            if not self.ordered:
                return "redundant", [(move, None, 1)]
            return "redundant", self._deps([(move, 1)])
        matched = C.matched_cell(self.t, cell, cls.witness, self.ordered)
        rel = self.algebra.relation(matched, self.ordered)
        hits = [i for i, (f, _) in enumerate(rel) if f == cell]
        if len(hits) != 1 or rel[hits[0]][1] not in (1, -1):
            raise MorseError(f"matched face {C.format_cell(cell, self.ordered)} "
                             f"is not once a +-1 term of the boundary of "
                             f"{C.format_cell(matched, self.ordered)}")
        # cell^e * rest = 1, read cyclically from the cell, so cell = rest^-e
        i = hits[0]
        e, rest = rel[i][1], rel[i + 1:] + rel[:i]
        if e == -1:
            return "redundant", self._deps(rest)
        return "redundant", self._deps([(f, -x) for f, x in reversed(rest)])

    def _deps(self, terms):
        """The faces of a plan as (rep, sigma, coefficient)."""
        if not self.ordered:
            return [(f, None, x) for f, x in terms]
        canonical = self._canonical
        return [canonical(f) + (x,) for f, x in terms]

    def _shortcut_move(self, cell, cls):
        """One V-move c -> V_e(c) when the special-reduction hypotheses hold,
        read off the cell's classification ``cls``."""
        parent = self.t.parent
        occupied = cls.occupied
        for v in sorted(cls.unblocked):
            lo = parent[v]
            for w in occupied:
                if lo < w < v:
                    break
            else:
                rep = C.vertex(lo)
                out = [rep if it == (v, -1) else it for it in cell]
                if not self.ordered:
                    out.sort()
                return tuple(out)
        return None

    def reduce_cell(self, cell):
        sigma = None
        if self.ordered:
            cell, sigma = self._canonical(cell)
        value = self.memo.get(cell)
        if value is None:
            value = self._walk(cell)
        return value if sigma is None else self.algebra.relabel(value, sigma)

    def _walk(self, cell0):
        """Reduce the representative cell0 and every representative it
        depends on into ``memo``."""
        memo = self.memo
        alg = self.algebra
        relabel = alg.relabel
        plans: dict = {}
        stack = [(cell0, False)]
        in_progress = set()
        steps = 0
        while stack:
            steps += 1
            if steps > 5_000_000:
                raise MorseError("reduction iteration cap exceeded (bug)")
            cell, ready = stack.pop()
            if cell in memo:
                continue
            plan = plans.get(cell)
            if plan is None:
                plan = self._plan(cell)
                plans[cell] = plan
            kind, deps = plan
            if kind == "critical":
                memo[cell] = alg.unit(cell)
                continue
            if kind == "collapsible":
                memo[cell] = alg.zero
                continue
            if not ready:
                if cell in in_progress:
                    raise MorseError("cyclic reduction dependency (bug)")
                in_progress.add(cell)
                stack.append((cell, True))
                for f, _, _ in deps:
                    if f not in memo:
                        stack.append((f, False))
            else:
                if len(deps) == 1 and deps[0][2] == 1:
                    # a shortcut move: values are kept reduced, so the
                    # moved cell's value is this cell's as it stands
                    f, s, _ = deps[0]
                    memo[cell] = memo[f] if s is None else relabel(memo[f], s)
                else:
                    memo[cell] = alg.combine([
                        (memo[f] if s is None else relabel(memo[f], s), x)
                        for f, s, x in deps])
                in_progress.discard(cell)
        return memo[cell0]

    def reduce(self, terms):
        """The value of a combination [(cell, coefficient)] of cells."""
        return self.algebra.combine([(self.reduce_cell(c), x)
                                     for c, x in terms])


def morse_boundary(red: Reducer, cell):
    """The Morse boundary: reduce the cubical boundary onto critical cells."""
    return red.reduce(C.boundary(cell, ordered=red.ordered))


# ---------------------------------------------------------------------------
# names of critical cells

@dataclass(frozen=True)
class Term:
    kind: str        # "tree" | "deleted"
    edge: tuple      # (tau, iota)
    vec: tuple       # blocked-vertex counts over branches of tau(edge)

    @property
    def tau(self):
        return self.edge[0]


@dataclass(frozen=True)
class CriticalName:
    terms: tuple     # Terms sorted by descending tau
    s0: int          # length of the 0_s prefix
    sigma: tuple | None = None
    canonical: bool = True


def _prefix_length(t: OrderedTree, vset) -> int:
    s = 0
    while s in vset and (s == 0 or t.parent[s] == s - 1):
        s += 1
    return s


def _cell_shape(t: OrderedTree, cell):
    """(s0, rest, edges, owner) of a sorted cell: the length of its 0_s
    prefix, its other vertices in increasing order, its edges by decreasing
    tau, and owner[v], the edge of the cell that the vertex v of rest hangs
    from through cell vertices (None when it hangs from none).  Parents
    precede children in the vertex numbering, so a vertex inherits its
    parent's owner."""
    verts = set()
    edges = []
    for it in cell:
        if it[1] == -1:
            verts.add(it[0])
        else:
            edges.append(it)
    s0 = _prefix_length(t, verts)
    end_owner = {}
    for e in edges:
        end_owner[e[0]] = end_owner[e[1]] = e
    parent = t.parent
    rest = []
    owner: dict = {}
    for it in cell:
        v = it[0]
        if it[1] == -1 and v >= s0:
            rest.append(v)
            p = parent[v]
            owner[v] = owner[p] if p in owner else end_owner.get(p)
    edges.reverse()
    return s0, rest, edges, owner


def name_critical_cell(t: OrderedTree, cell, sigma=None):
    """Structured name of a sorted critical cell, or None when the cell does
    not fit the standard forms (possible on trees violating T1/T2)."""
    s0, rest, edges, owner = _cell_shape(t, cell)
    vecs = {e: [0] * t.branch_count(e[0]) for e in edges}
    for v in rest:
        e = owner[v]
        k = t.branch(e[0], v) if e is not None else 0
        if k == 0:
            return None
        vecs[e][k - 1] += 1
    terms = tuple(Term("deleted" if e in t.deleted_set else "tree", e,
                       tuple(vecs[e])) for e in edges)
    back = materialize_name(t, CriticalName(terms, s0))
    return CriticalName(terms, s0, sigma, canonical=back == tuple(cell))


def _branch_chain(t: OrderedTree, a: int, k: int, skip_first: bool, count: int):
    """The first `count` blocked-vertex slots along branch k of a, optionally
    skipping the branch's first vertex (occupied by an edge end)."""
    out = []
    cur = t.children[a][k - 1]
    if skip_first:
        if len(t.children[cur]) != 1:
            return None
        cur = t.children[cur][0]
    for i in range(count):
        out.append(cur)
        if i + 1 < count:
            if len(t.children[cur]) != 1:
                return None
            cur = t.children[cur][0]
    return out


def materialize_name(t: OrderedTree, name: CriticalName):
    """Inverse of naming: build the sorted cell a CriticalName denotes."""
    items = []
    for tm in name.terms:
        items.append(tm.edge)
        a = tm.tau
        own_branch = t.branch(a, tm.edge[1])
        for i, cnt in enumerate(tm.vec, start=1):
            if not cnt:
                continue
            skip = tm.kind == "tree" and i == own_branch
            chain = _branch_chain(t, a, i, skip, cnt)
            if chain is None:
                return None
            items.extend(C.vertex(v) for v in chain)
    items.extend(C.vertex(v) for v in range(name.s0))
    cell = tuple(sorted(items))
    used = [x for it in cell for x in C.closure_vertices(it)]
    if len(set(used)) != len(used) or len(set(cell)) != len(cell):
        return None
    return cell


def format_name(t: OrderedTree, name: CriticalName | None, cell=None,
                ordered: bool = False) -> str:
    if name is None or not name.canonical:
        return C.format_cell(cell, ordered=ordered) if cell is not None else "?"
    parts = []
    for tm in name.terms:
        if tm.kind == "deleted":
            head = f"d_{t.deleted_index[tm.edge]}"
        else:
            a = tm.tau
            letter = t.essential_letter.get(a, f"V{a}")
            head = f"{letter}_{t.branch(a, tm.edge[1])}"
        if any(tm.vec):
            head += "(" + ",".join(str(x) for x in tm.vec) + ")"
        parts.append(head)
    if not parts:
        parts.append(f"0_{name.s0}")
    body = " ∪ ".join(parts)
    if name.sigma is not None:
        body += "_" + C.perm_cycles(name.sigma)
    return body


# ---------------------------------------------------------------------------
# basis orders (reversed in the Morse complex)

def edge_sort_key(t: OrderedTree, e):
    return (1 if e in t.deleted_set else 0, e[0], e[1])


def _vec_profile(t: OrderedTree, tau: int, vlist):
    mu = t.branch_count(tau)
    vec = [0] * (mu + 1)
    for v in vlist:
        vec[t.branch(tau, v)] += 1
    return tuple(vec)


def cell_sort_key(t: OrderedTree, cell, sigma=None):
    """Basis order of a sorted cell: 1-cells by (size, edge, vector) and
    2-cells by the 6-tuple; vertex tuples and the permutation break
    remaining ties."""
    _, rest, edges, owner = _cell_shape(t, cell)
    sig = tuple(-x for x in sigma) if sigma is not None else ()
    dim = len(edges)
    if dim == 0:
        return (0, (), (), (), 0, (), (), tuple(rest), sig)
    e = edges[0]
    mine = [v for v in rest if owner[v] == e]
    if dim == 1:
        prof = _vec_profile(t, e[0], mine)
        return (len(rest), edge_sort_key(t, e), prof, (), 0, (), (),
                tuple(rest), sig)
    ep = edges[1]
    other = [v for v in rest if owner[v] == ep]
    g = t.branch(e[0], ep[1])
    prof = list(_vec_profile(t, e[0], mine))
    prof[g] += 1
    if dim > 2:
        return (len(mine), tuple(edge_sort_key(t, x) for x in edges),
                tuple(prof), (), 0, (), (), tuple(rest), sig)
    return (len(mine), edge_sort_key(t, e), tuple(prof), (g,),
            0, edge_sort_key(t, ep), _vec_profile(t, ep[0], other),
            tuple(rest), sig)


# ---------------------------------------------------------------------------
# closed-form boundary formulas

def _p(vec):
    for i, a in enumerate(vec, start=1):
        if a:
            return i
    return 0


def _vec_minus_alpha(vec, alpha):
    out = list(vec)
    for _ in range(alpha):
        i = _p(out)
        if not i:
            return None
        out[i - 1] -= 1
    return tuple(out)


def _delta(mu, k):
    out = [0] * mu
    out[k - 1] += 1
    return tuple(out)


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def bold_A(t: OrderedTree, a_vertex: int, vec, ell: int, n: int):
    """The reduction of the staircase sum: surviving critical 1-cells of
    A_{p(vec-alpha)}((vec-alpha) - delta_p + delta_ell), alpha = 0..|vec|;
    a term survives exactly when ell < p(vec-alpha)."""
    out: dict = {}
    cur = tuple(vec)
    while True:
        p = _p(cur)
        if p == 0:
            break
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
        cur = _vec_minus_alpha(cur, 1)
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
    name = CriticalName((Term("tree", edge, _delta(t.branch_count(c), ell)),), s0)
    cell = materialize_name(t, name)
    if cell is None:
        if strict:
            raise MorseError("wedge cell failed to materialize")
        return None
    return cell


def bare_fill(t: OrderedTree, items, count: int):
    """Complete items with `count` blocked vertices packed as low as the
    closures allow (the 0_s prefix, shifted past any occupied endpoint)."""
    used = set()
    for it in items:
        used.update(C.closure_vertices(it))
    verts = set(C.cell_vertices(items))
    ends = used - verts
    out = list(items)
    v = 0
    while count > 0 and v < t.nv:
        if v not in used and (v == 0 or t.parent[v] in verts or t.parent[v] in ends):
            out.append(C.vertex(v))
            verts.add(v)
            used.add(v)
            count -= 1
        v += 1
    if count:
        raise MorseError("could not complete cell with blocked vertices")
    return tuple(sorted(out))


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
    if name is None or not name.canonical or len(name.terms) != 2:
        raise MorseError(f"unsupported 2-cell shape {C.format_cell(cell)}")
    hi, lo = name.terms
    kinds = (hi.kind, lo.kind)
    if kinds == ("tree", "tree"):
        return {}
    if kinds == ("deleted", "tree"):
        # the tree edge's vertex sits above tau of the deleted edge; under
        # T2 the deleted edge is not separated there, so the image vanishes
        own, other = lo, hi
    elif kinds == ("tree", "deleted"):
        own, other = hi, lo
    else:
        own, other = hi, lo
    a = own.tau
    if not t.separates(other.edge, a):
        return {}
    mu = t.branch_count(a)
    k = t.branch(a, own.edge[1])
    ell = t.branch(a, other.edge[1])
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
        if coeff:
            out[cellv] = out.get(cellv, 0) + coeff
            if not out[cellv]:
                del out[cellv]

    add(one_cell(avec), 1)
    add(one_cell(_vec_add(avec, _delta(mu, ell))), -1)
    for cc, x in bold_A(t, a, avec, ell, n).items():
        add(cc, -x)
    for cc, x in bold_A(t, a, _vec_add(avec, _delta(mu, k)), ell, n).items():
        add(cc, x)
    if own.kind == "deleted" and k == ell:
        eps = -1 if own.edge[1] < other.edge[1] else 1
        add(wedge_cell(t, own.edge, other.edge, n - 2), eps)
    return out


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
    if not t.separates(dp, a):
        return out
    k = t.branch(a, d[1])
    ell = t.branch(a, dp[1])
    rho = (2, 1)
    ident = (1, 2)

    def emit(sorted_cell, tau, coeff):
        sub = tau if sigma == ident else (rho if tau == ident else ident)
        tup = C.phi_inverse(sorted_cell, sub)
        out[tup] = out.get(tup, 0) + coeff
        if not out[tup]:
            del out[tup]

    bare = materialize_name(t, CriticalName((Term("deleted", d, (0,) * t.branch_count(a)),), 1))
    dvec = materialize_name(t, CriticalName((Term("deleted", d, _delta(t.branch_count(a), ell)),), 0))
    if bare is None or dvec is None:
        raise MorseError("ordered boundary term failed to materialize")
    emit(bare, ident, 1)
    emit(dvec, rho, -1)
    if d[1] < dp[1]:
        if k == ell:
            emit(wedge_cell(t, d, dp, 0), ident, -1)
    else:
        emit(wedge_cell(t, d, dp, 0), rho, 1)
    return out


# ---------------------------------------------------------------------------
# the Morse complex

@dataclass
class MorseComplex:
    tree: OrderedTree
    n: int
    flavor: str
    critical: dict          # dim -> list of cells, largest basis key first
    index: dict             # dim -> {cell: row index}
    # dim -> one sparse row {column: nonzero coefficient} per cell of
    # critical[dim], in that order; a column is a row index of dim - 1
    boundaries: dict
    names: dict             # cell -> CriticalName
    # the rewritten boundary words of the critical 2-cells, in critical[2]
    # order; None on path "fast"
    relators: list | None = None

    @property
    def ordered(self) -> bool:
        return self.flavor == "ordered"

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(cs) for d, cs in self.critical.items())

    def full_euler_characteristic(self) -> int:
        """The Euler characteristic of the whole complex, from Gal's series."""
        return C.euler_characteristic(self.tree, self.n, self.flavor)

    def validate_chain_complex(self):
        for d in sorted(self.boundaries):
            lower = self.boundaries.get(d - 1)
            if lower is None:
                continue
            for row in self.boundaries[d]:
                acc: dict = {}
                for j, x in row.items():
                    for k, y in lower[j].items():
                        acc[k] = acc.get(k, 0) + x * y
                if any(acc.values()):
                    raise MorseError(f"d o d != 0 in degree {d}")

    def name_of(self, cell) -> str:
        return format_name(self.tree, self.names.get(cell), cell,
                           ordered=self.ordered)


def tree_satisfies_t123(t: OrderedTree) -> bool:
    if not hasattr(t, "_t123"):
        t._t123 = verify_conditions(t).ok()
    return t._t123


def build_morse_complex(t: OrderedTree, n: int, flavor: str = "unordered",
                        path: str = "generic", cap: int = 10_000_000) -> MorseComplex:
    """Generate the critical cells and reduce to the Morse complex with
    boundary matrices over the reversed bases, as sparse rows {column:
    nonzero coefficient}.  ``cap`` bounds the number of critical cells.

    The unordered critical cells are named and sorted once, in both
    flavors.  The ordered basis replaces each of them, in place, by its n!
    labellings ``C.phi_inverse(c, sigma)`` with sigma in lexicographic
    order, so every orbit is contiguous, and names each labelling as c with
    sigma attached.  Each orbit's boundary is reduced (or rewritten) once,
    at c; the row and relator of the labelling sigma are c's with every
    column moved within its orbit to rank(sigma o tau) (see the module
    docstring).  Labellings that collide, or a column moved outside the
    lower basis, raise `MorseError`.

    path "fast" evaluates the closed formulas for the degree-2 boundary,
    "generic" iterates the reduction, "both" runs the two and insists they
    agree cellwise.  On "generic" and "both" the reduction of degree 2 is
    the rewriting of each critical 2-cell's boundary word: the words are
    kept as ``relators`` and the d2 row is minus their exponent sums.  On
    "fast" ``relators`` is None.
    """
    if flavor not in ("unordered", "ordered"):
        raise MorseError(f"unknown flavor {flavor!r}")
    ordered = flavor == "ordered"
    if path in ("fast", "both"):
        if ordered and n >= 3:
            raise MorseError("no closed boundary formulas for ordered n >= 3")
        if not tree_satisfies_t123(t):
            raise MorseError("fast path needs a tree satisfying T1-T3")
    critical: dict[int, list] = {}
    index: dict[int, dict] = {}
    names: dict = {}
    sigmas = list(permutations(range(1, n + 1))) if ordered else [None]
    m = len(sigmas)
    for d, crit in sorted(C.critical_cells(t, n, flavor, cap=cap).items()):
        crit.sort(key=lambda cell: cell_sort_key(t, cell), reverse=True)
        critical[d] = basis = []
        for c in crit:
            name = name_critical_cell(t, c)
            if not ordered:
                basis.append(c)
                names[c] = name
                continue
            # the orbit of c: one labelling per sigma, in lexicographic
            # order, named as c with sigma attached
            for s in sigmas:
                cell = C.phi_inverse(c, s)
                basis.append(cell)
                names[cell] = name and replace(name, sigma=s)
        index[d] = {c: i for i, c in enumerate(basis)}
        if len(index[d]) != len(crit) * m:
            i = next(i for i, c in enumerate(basis) if index[d][c] != i)
            raise MorseError(f"the labellings of {C.format_cell(crit[i // m])} "
                             f"are not distinct: {len(crit)} critical "
                             f"{d}-cells x {m} give {len(index[d])} cells")
    # products[s][u] = rank(sigma_s o sigma_u): relabelling by sigma_s takes
    # the labelling (orbit i, sigma_u) to (orbit i, sigma_s o sigma_u)
    products = _product_table(sigmas) if ordered else [[0]]
    red = Reducer(t, ordered)
    # degree 2 is walked once, in words: the relators are kept and d2 is
    # read off them
    words = Reducer(t, ordered, algebra=WORDS) if path != "fast" else None
    relators = [] if words is not None else None
    boundaries: dict[int, list] = {}
    for d in sorted(critical):
        if d == 0 or not critical[d]:
            continue
        rows = []
        lower = index.get(d - 1, {})
        faces = critical.get(d - 1, [])
        width = len(lower)
        basis = critical[d]
        # one reduction per orbit, of its sorted representative (the
        # identity labelling), read as (orbit offset, rank of the labelling,
        # coefficient) per term; relabelling by sigma_s moves only the rank
        for i in range(0, len(basis), m):
            word = None
            if d == 2 and words is None:
                chain = _fast_for(t, basis[i], ordered).items()
            elif d == 2:
                word = words.reduce(C.boundary_word(basis[i], ordered))
                # d2 is minus the relator's exponent sums
                chain = [(g, -e) for g, e in word]
            else:
                chain = morse_boundary(red, basis[i]).items()
            terms = [(j - j % m, j % m, x)
                     for j, x in ((lower[c], x) for c, x in chain)]
            for s, prod in enumerate(products):
                cell = basis[i + s]
                moved = [(base + prod[u], x) for base, u, x in terms]
                row: dict = {}
                for j, x in moved:
                    if j >= width:
                        raise MorseError(
                            f"a column derived for "
                            f"{C.format_cell(cell, ordered)} falls outside "
                            f"the critical {d - 1}-cells")
                    v = row.get(j, 0) + x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                if word is not None:
                    relators.append(tuple((faces[j], -x) for j, x in moved))
                if d == 2 and path == "both":
                    fast = _fast_for(t, cell, ordered)
                    if {lower[c]: x for c, x in fast.items()} != row:
                        chain = {faces[j]: row[j] for j in sorted(row)}
                        raise MorseError(
                            f"fast/generic disagree on {C.format_cell(cell, ordered)}: "
                            f"{fast} vs {chain}")
                rows.append(row)
        boundaries[d] = rows
    return MorseComplex(t, n, flavor, critical, index, boundaries, names,
                        relators=relators)


def _product_table(sigmas) -> list:
    """The ranks of the products sigma o tau, (sigma o tau)[i] =
    sigma[tau[i] - 1], over ``sigmas`` in order."""
    rank = {s: r for r, s in enumerate(sigmas)}
    return [[rank[tuple(s[i - 1] for i in tau)] for tau in sigmas]
            for s in sigmas]


def _fast_for(t: OrderedTree, cell, ordered: bool) -> dict:
    if ordered:
        return fast_morse_boundary_ordered(t, cell)
    return fast_morse_boundary(t, cell)

"""The Morse engine: the reduction onto critical cells, Morse boundaries,
critical cell names and basis sort keys, and the build of the complex.

`Reducer` is the one reduction engine.  It follows the matching W cellwise
with memoization and writes every cell in a coefficient `Algebra`: Z-chains
(`CHAINS`, the default) give Morse boundaries, and free-group words over
critical 1-cells (`WORDS`) give the rewriting homomorphism that
presentations are read from.  A critical cell is itself, a collapsible cell
is zero, and a redundant cell c is solved out of the boundary of W(c): the
cubical boundary for chains, the square's boundary word for words.  The
matching lives in ``Reducer._plan``: each cell is classified once per plan,
in one pass over its items, and a redundant cell's plan is its slide's end
or its matched cell's relation solved for it.  ``Reducer.reduce`` walks all
the faces of a boundary on one stack, so each boundary is walked once.

`build_morse_complex` walks each critical 2-cell once, in both flavors and
at every n: it rewrites the 2-cell's boundary word with `WORDS` and keeps
the word as a relator.  The word's abelianization is minus the cubical
boundary, and rewriting abelianizes to the Z-chain reduction, so the d2
row is minus the relator's exponent sums.  This is the only way d2 is
built; the paper's closed boundary formulas, in `closedforms`, state it
independently as a check.  Degrees 1 and >= 3 are Z-chains.

D_n is the n!-sheeted cover of UD_n and its matching is the lift of the one
on UD_n, so the ordered reduction commutes with relabelling the points: a
labelling's value is its orbit representative's value with every critical
cell relabelled the same way.  The ordered basis is the unordered one
expanded orbit by orbit: each critical cell c, in the unordered order, is
followed by its n! labellings ``phi_inverse(c, sigma)`` with sigma in
lexicographic order (``MorseComplex.sigmas``).  So the labelling
``phi_inverse(c, tau)`` sits at row orbit(c) * n! + rank(tau), and
``MorseComplex.orbit`` reads (c, tau) back off the row: names are kept once
per orbit, under c, and ``name_of`` attaches tau.  The build reduces each
orbit once, at c itself (the identity labelling): relabelling by sigma
moves the term at column orbit(c') * n! + rank(tau) to column orbit(c') *
n! + rank(sigma o tau), (sigma o tau)[i] = sigma[tau[i] - 1], read off one
n! x n! table of product ranks (`_product_table`).  Every labelling's
boundary row and relator come from its orbit's by this index arithmetic,
the one place where S_n acts on reduced values: `Reducer` walks every cell
as it is given, labelled or not, and never relabels.

The build does only what a job reads.  ``MorseComplex.names`` names a
critical cell with `name_critical_cell` the first time its name is read,
and keeps it; the jobs read the names of critical 1-cells only.  And when
there is a single critical 0-cell c0 (unordered, or ordered n = 1), every
d1 row is empty, so none is reduced:

- a 0-cell has no edge, so none is order respecting and it is never
  collapsible;
- a redundant 0-cell v is solved out of the boundary u - v of its matched
  1-cell, so its value is +1 times u's, and a slide also carries
  coefficient 1;
- so each 0-cell reduces to +1 times a critical 0-cell, here c0, and the
  Morse boundary of a critical 1-cell, its terminal face minus its initial
  face, is c0 - c0 = 0.

Ordered n >= 2 has n! critical 0-cells, and there d1 is walked.

The one-step shortcut move takes the smallest unblocked vertex v of a
redundant cell c with no vertex or edge end of c strictly between parent[v]
and v, and moves it to p = parent[v].  It is a special reduction
in both flavors and both algebras, and the words it gives are the words of
the full expansion.  On a subdivided graph the move repeats down a run of
the tree, so the reducer takes the whole run in one plan, the shortcut
slide: after the first step it keeps moving the vertex from p to parent[p]
while p != 0, parent[p] is free and no vertex or edge end lies strictly
between parent[p] and p, all read off the items of c itself.  The
slide ends where the iterated one-step move ends, so the value is
unchanged; only the start and the end of a run are planned and memoized.
Each cell c' the slide passes, c with v moved to p:

- is redundant.  Its order-respecting edges are among c's: the vertex at p
  only adds constraints, and v constrained no edge, as no edge ends at its
  free parent.  Its smallest unblocked vertex is at most c's, u: u stays
  unblocked unless u = v or parent[u] = p, and then p < u is unblocked
  itself, as parent[p] is free.  So it lies below those edges' terminal
  vertices, and c' is not collapsible.
- moves p next.  The unblocked vertices below p and the occupied vertices
  below them are c's, as the occupied set changed only at p and v > p.
  Each of them failed the test in c, where v was the first to pass, so p,
  which passes, is the first.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Mapping
from functools import partial
from itertools import permutations

from . import cells as C
from .trees import OrderedTree


class MorseError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# reduction

class Algebra(namedtuple("Algebra", "zero unit combine relation")):
    """What a `Reducer` writes reduced cells in.

    A critical cell is ``unit(cell)`` and a collapsible one ``zero``.
    ``relation(cell, ordered)`` reads the boundary of a cell as a list of
    (face, coefficient) whose sum (or product) is zero (or 1); a redundant
    cell is solved out of the relation of its matched cell, and
    ``combine(terms)`` turns the solution, as (value, coefficient) pairs of
    the other faces, into the cell's value, one call per cell."""
    __slots__ = ()


def _combine_chains(terms) -> dict:
    acc: dict = {}
    for chain, coeff in terms:
        for cell, x in chain.items():
            acc[cell] = acc.get(cell, 0) + coeff * x
    return {cell: x for cell, x in acc.items() if x}


# Z-chains {critical cell: nonzero coefficient} over the cubical boundary
CHAINS = Algebra(zero={}, unit=lambda cell: {cell: 1}, combine=_combine_chains,
                 relation=lambda cell, ordered: C.boundary(cell, ordered))


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
                combine=_combine_words, relation=C.boundary_word)


class Reducer:
    """Memoized reduction onto the critical cells of one flavor, with values
    in ``algebra`` (Z-chains by default).

    It walks cells exactly as it is given them and knows nothing of the
    S_n action: ``memo`` is keyed on the cell as walked, a labelled tuple
    when ordered.  `build_morse_complex` only asks it for orbit
    representatives and derives the other labellings itself."""

    def __init__(self, tree: OrderedTree, ordered: bool = False,
                 algebra: Algebra = CHAINS):
        self.t = tree
        self.ordered = ordered
        self.algebra = algebra
        self.memo: dict = {}
        self.parent = tree.parent
        self.deleted = tree.deleted_set
        self.nv = tree.nv

    def _plan(self, cell):
        """("critical" | "collapsible", None), or ("redundant", [(face,
        coefficient)]) with the cell's value the combination of the faces'
        values.

        One pass over the items collects the cell's vertices and occupied
        vertices (cell vertices and edge ends).  A vertex v != 0 is
        unblocked when parent[v] is free, and a tree edge (tau, iota) is
        order respecting when no cell vertex u has parent[u] == tau and u <
        iota.  The cell is collapsible when an order-respecting edge ends
        below its smallest unblocked vertex (or it has none), critical when
        it has neither, and otherwise redundant: the end of its shortcut
        slide, or solved out of the relation of its matched cell W(c),
        which replaces the smallest unblocked vertex v by the tree edge
        (parent[v], v)."""
        parent = self.parent
        verts = []
        occupied = []
        edges = []
        for it in cell:
            a, b = it
            occupied.append(a)
            if b == -1:
                verts.append(a)
            else:
                edges.append(it)
                occupied.append(b)
        unblocked = [v for v in verts if v and parent[v] not in occupied]
        bound = min(unblocked) if unblocked else self.nv
        deleted = self.deleted
        for e in edges:
            tau, iota = e
            if iota >= bound or e in deleted:
                continue
            for u in verts:
                if u < iota and parent[u] == tau:
                    break
            else:
                return "collapsible", None
        if not unblocked:
            return "critical", None
        ordered = self.ordered
        # the shortcut slide (see the module docstring): occupied vertices
        # are distinct, and the vertex v slides to each parent above the
        # largest occupied vertex below v, as no step passes one
        occupied.sort()
        for v in sorted(unblocked):
            i = occupied.index(v)
            below = occupied[i - 1] if i else -1
            end = v
            while end and parent[end] > below:
                end = parent[end]
            if end != v:
                out = list(cell)
                out[cell.index((v, -1))] = (end, -1)
                if not ordered:
                    out.sort()
                return "redundant", [(tuple(out), 1)]
        # W(c): the smallest unblocked vertex becomes the edge below it
        out = list(cell)
        out[cell.index((bound, -1))] = (parent[bound], bound)
        if not ordered:
            out.sort()
        matched = tuple(out)
        rel = self.algebra.relation(matched, ordered)
        hits = [i for i, (f, _) in enumerate(rel) if f == cell]
        if len(hits) != 1 or rel[hits[0]][1] not in (1, -1):
            raise MorseError(f"matched face {C.format_cell(cell, ordered)} "
                             f"is not once a +-1 term of the boundary of "
                             f"{C.format_cell(matched, ordered)}")
        # cell^e * rest = 1, read cyclically from the cell, so cell = rest^-e
        i = hits[0]
        e, rest = rel[i][1], rel[i + 1:] + rel[:i]
        if e == -1:
            return "redundant", rest
        return "redundant", [(f, -x) for f, x in reversed(rest)]

    def _walk(self, cells):
        """Reduce ``cells`` and every cell they depend on into ``memo``, on
        one stack.  A redundant cell waits in ``pending`` from its plan
        until its faces are memoized; it is then on top of the stack again,
        as every cell above it is one of its faces or theirs.  A face found
        waiting is a cycle."""
        memo = self.memo
        alg = self.algebra
        pending: dict = {}
        stack = [c for c in cells if c not in memo]
        steps = 0
        while stack:
            steps += 1
            if steps > 5_000_000:
                raise MorseError("reduction iteration cap exceeded (bug)")
            cell = stack[-1]
            if cell in memo:
                stack.pop()
                continue
            deps = pending.pop(cell, None)
            if deps is None:
                kind, deps = self._plan(cell)
                if kind == "critical":
                    memo[cell] = alg.unit(cell)
                    stack.pop()
                    continue
                if kind == "collapsible":
                    memo[cell] = alg.zero
                    stack.pop()
                    continue
                todo = [f for f, _ in deps if f not in memo]
                if todo:
                    pending[cell] = deps
                    for f in todo:
                        if f in pending:
                            raise MorseError("cyclic reduction dependency (bug)")
                        stack.append(f)
                    continue
            stack.pop()
            if len(deps) == 1 and deps[0][1] == 1:
                # a shortcut slide: values are kept reduced, so the value
                # at the slide's end is this cell's as it stands; the cells
                # it passed are never planned or memoized
                memo[cell] = memo[deps[0][0]]
            else:
                memo[cell] = alg.combine([(memo[f], x) for f, x in deps])

    def reduce(self, terms):
        """The value of a combination [(cell, coefficient)] of cells, its
        cells reduced in one walk."""
        memo = self.memo
        self._walk([c for c, _ in terms])
        return self.algebra.combine([(memo[c], x) for c, x in terms])


def morse_boundary(red: Reducer, cell):
    """The Morse boundary: reduce the cell's relation in the reducer's
    algebra onto critical cells (the cubical boundary for chains, the
    boundary word for words)."""
    return red.reduce(red.algebra.relation(cell, red.ordered))


# ---------------------------------------------------------------------------
# names of critical cells

class Term(namedtuple("Term", "kind edge vec")):
    """``kind`` is "tree" or "deleted", ``edge`` is (tau, iota), and ``vec``
    counts the blocked vertices over the branches of tau(edge)."""
    __slots__ = ()

    @property
    def tau(self):
        return self.edge[0]


class CriticalName(namedtuple("CriticalName", "terms s0")):
    """``terms`` are `Term`s sorted by descending tau; ``s0`` is the length
    of the 0_s prefix."""
    __slots__ = ()


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


def name_critical_cell(t: OrderedTree, cell):
    """Structured name of a sorted critical cell, or None when the cell does
    not fit the standard forms: the name would not materialize back to the
    cell (possible on trees violating T1/T2)."""
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
    name = CriticalName(terms, s0)
    return name if materialize_name(t, name) == tuple(cell) else None


def _branch_chain(t: OrderedTree, a: int, k: int, skip_first: bool, count: int):
    """The first `count` blocked-vertex slots along branch k of a, optionally
    skipping the branch's first vertex (occupied by an edge end)."""
    cur = t.children[a][k - 1]
    out = [cur]
    for _ in range(skip_first + count - 1):
        if len(t.children[cur]) != 1:
            return None
        cur = t.children[cur][0]
        out.append(cur)
    return out[1:] if skip_first else out


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
                ordered: bool = False, sigma=None) -> str:
    """The name of a critical cell; an ordered labelling's carries its
    permutation ``sigma`` as a subscript."""
    if name is None:
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
    if sigma is not None:
        body += "_" + C.perm_cycles(sigma)
    return body


class LazyMapping(Mapping):
    """A read-only mapping over ``keys`` whose value at a key is
    ``compute(key)``, computed the first time it is read and kept.
    Membership, iteration (in the order of ``keys``) and ``len`` compute
    nothing.  ``keys`` (a dict or set) is kept, not copied."""

    def __init__(self, keys, compute: Callable):
        self._keys = keys
        self._compute = compute
        self._values: dict = {}

    def __getitem__(self, key):
        if key in self._values:
            return self._values[key]
        if key not in self._keys:
            raise KeyError(key)
        value = self._values[key] = self._compute(key)
        return value

    def __contains__(self, key):
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


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
# the Morse complex

class MorseComplex:
    def __init__(self, tree: OrderedTree, n: int, flavor: str, critical: dict,
                 index: dict, boundaries: dict, names: LazyMapping,
                 sigmas: list, relators: list):
        self.tree = tree
        self.n = n
        self.flavor = flavor
        self.critical = critical    # dim -> list of cells, largest basis key first
        self.index = index          # dim -> {cell: row index}
        # dim -> one sparse row {column: nonzero coefficient} per cell of
        # critical[dim], in that order; a column is a row index of dim - 1
        self.boundaries = boundaries
        # unordered critical cell -> its `CriticalName` (None where the cell
        # fits no standard form), computed when first read: one name per
        # orbit, under its representative (the identity labelling);
        # ``name_of`` adds the sigma
        self.names = names
        # S_n in lexicographic order, the labellings of each orbit in basis
        # order; [None] unordered
        self.sigmas = sigmas
        # the rewritten boundary words of the critical 2-cells, in
        # critical[2] order
        self.relators = relators

    @property
    def ordered(self) -> bool:
        return self.flavor == "ordered"

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(cs) for d, cs in self.critical.items())

    def full_euler_characteristic(self) -> int:
        """The Euler characteristic of the whole complex, from Gal's series."""
        return C.euler_characteristic(self.tree, self.n, self.flavor)

    def orbit(self, cell):
        """(the orbit's representative, sigma) of a basis cell: row i of its
        degree is the labelling sigmas[i % n!] of the orbit whose
        representative sits at row i - i % n!.  Unordered, this is (cell,
        None)."""
        d = C.cell_dim(cell)
        i = self.index[d][cell]
        m = len(self.sigmas)
        return self.critical[d][i - i % m], self.sigmas[i % m]

    def name_of(self, cell) -> str:
        rep, sigma = self.orbit(cell)
        return format_name(self.tree, self.names.get(rep), cell,
                           ordered=self.ordered, sigma=sigma)


def build_morse_complex(t: OrderedTree, n: int, flavor: str = "unordered",
                        path: str = "generic", cap: int = C.CAP) -> MorseComplex:
    """Generate the critical cells and reduce to the Morse complex with
    boundary matrices over the reversed bases, as sparse rows {column:
    nonzero coefficient}.  ``cap`` bounds the items of the critical cells
    (see `cells.critical_cells`).

    The unordered critical cells are sorted once, in both flavors, and
    ``names`` names those only, each when first read.  The ordered basis
    replaces each of them, in place, by its n! labellings
    ``C.phi_inverse(c, sigma)`` with sigma in lexicographic order (kept as
    ``sigmas``), so every orbit is contiguous and starts with c itself.
    Each orbit's boundary is reduced (or rewritten) once, at c; the row and
    relator of the labelling sigma are c's with every column moved within
    its orbit to rank(sigma o tau) (see the module docstring).  Labellings
    that collide, or a column moved outside the lower basis, raise
    `MorseError`.  With a single critical 0-cell every d1 row is empty and
    none is reduced (see the module docstring).

    The reduction of degree 2 is the rewriting of each critical 2-cell's
    boundary word: the words are kept as ``relators`` and the d2 row is
    minus their exponent sums.  `closedforms.check_closed_forms` compares
    the rows with the closed formulas.  ``path`` accepts only "generic",
    the one route.
    """
    # the benchmark harness still passes path="generic"; ROADMAP item 1
    # removes the keyword
    if path != "generic":
        raise MorseError(f"unknown path {path!r}: d2 has one route, "
                         f"'generic'")
    if flavor not in ("unordered", "ordered"):
        raise MorseError(f"unknown flavor {flavor!r}")
    ordered = flavor == "ordered"
    critical: dict[int, list] = {}
    index: dict[int, dict] = {}
    reps: list = []  # the unordered critical cells, one per orbit
    sigmas = list(permutations(range(1, n + 1))) if ordered else [None]
    m = len(sigmas)
    for d, crit in sorted(C.critical_cells(t, n, flavor, cap=cap).items()):
        crit.sort(key=lambda cell: cell_sort_key(t, cell), reverse=True)
        reps.extend(crit)
        # the orbit of c: one labelling per sigma, in lexicographic order
        critical[d] = basis = ([C.phi_inverse(c, s) for c in crit
                                for s in sigmas] if ordered else crit)
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
    words = Reducer(t, ordered, algebra=WORDS)
    relators: list = []
    boundaries: dict[int, list] = {}
    for d in sorted(critical):
        if d == 0 or not critical[d]:
            continue
        if d == 1 and len(critical[0]) == 1:
            # every 0-cell reduces to the one critical 0-cell
            boundaries[1] = [{} for _ in critical[1]]
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
            if d == 2:
                # d2 is minus the relator's exponent sums
                chain = [(g, -e) for g, e in morse_boundary(words, basis[i])]
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
                if d == 2:
                    relators.append(tuple((faces[j], -x) for j, x in moved))
                rows.append(row)
        boundaries[d] = rows
    names = LazyMapping(dict.fromkeys(reps), partial(name_critical_cell, t))
    return MorseComplex(t, n, flavor, critical, index, boundaries, names,
                        sigmas, relators=relators)


def _product_table(sigmas) -> list:
    """The ranks of the products sigma o tau, (sigma o tau)[i] =
    sigma[tau[i] - 1], over ``sigmas`` in order."""
    rank = {s: r for r, s in enumerate(sigmas)}
    return [[rank[tuple(s[i - 1] for i in tau)] for tau in sigmas]
            for s in sigmas]

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
or its matched cell's relation solved for it.  ``Reducer.reduce`` reduces
each face of a boundary by memoized recursion, so each cell is planned and
visited once; `DEPTH` bounds the recursion, and a reduction deeper than
that restarts from the cell it reached, keeping the plans of the frames it
unwinds.

`build_morse_complex` walks each critical 2-cell once, in both flavors and
at every n: it rewrites the 2-cell's boundary word with `WORDS` and keeps
the word as a relator.  The word's abelianization is minus the cubical
boundary, and rewriting abelianizes to the Z-chain reduction, so the d2
row is minus the relator's exponent sums.  An orbit representative's row
and relator are read straight off its reduced chain or word.  This is the only way d2 is
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
orbit once, at c itself (the identity labelling), and reads c's row and
relator straight off that reduction.  Relabelling by sigma moves the term
at column orbit(c') * n! + rank(tau) to column orbit(c') * n! + rank(sigma
o tau), (sigma o tau)[i] = sigma[tau[i] - 1], read off one n! x n! table of
product ranks (`_product_table`).  Every other labelling's boundary row
and relator come from its orbit's by this index arithmetic, the one place
where S_n acts on reduced values: `Reducer` walks every cell as it is
given, labelled or not, and never relabels.

A critical cell's name, the paper's standard form, is read off its
`cell_shape`: each edge e with the vector of the vertices hanging from it,
counted on the branches of tau(e), and the 0_s prefix.  `standard_vector`
is the one test of that form, which the closed forms' pivotal census
shares, and `edge_cell` builds the cell of a one-term name.

The build does only what a job reads.  ``MorseComplex.names`` names a
critical cell with `name_critical_cell` the first time its name is read,
and keeps it.  A job reads no name until it shows one: the 1-cell census
reads cell shapes and a presentation formats names when displayed.
And when there is a single critical 0-cell c0 (unordered, or ordered n =
1), every d1 row is empty, so none is reduced:

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


# the levels of recursion `Reducer.reduce` takes before it restarts from
# the cell it reached, so the interpreter's stack stays near 2 * DEPTH
# frames on any input (the deepest reduction of K4 n=14 is 126 levels)
DEPTH = 100


class _Deep(Exception):
    """A reduction reached `DEPTH` levels at the unmemoized cell, its one
    argument."""


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

    It reduces cells exactly as it is given them and knows nothing of the
    S_n action: ``memo`` is keyed on the cell as given, a labelled tuple
    when ordered, and holds every cell planned.  `build_morse_complex` only
    asks it for orbit representatives and derives the other labellings
    itself.  ``reduce`` recurses at most `DEPTH` levels deep (see there)."""

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

    def reduce(self, terms):
        """The value of a combination [(cell, coefficient)] of cells.

        ``value(cell, depth)`` reduces one cell by recursion: it plans an
        unmemoized cell once and memoizes its value, ``unit(cell)`` or
        ``zero``, its slide's end's value, or the combination of its faces'
        values.  Each level of recursion is at most two frames (``value``
        and the comprehension over the faces), and `DEPTH` bounds the
        levels: a cell reached `DEPTH` levels down is not planned but
        raised as `_Deep`.  The term then restarts from that cell, with the
        cells waiting on one another listed, and goes back up the list as
        each is memoized.  A restart plans nothing twice: each frame it
        unwinds keeps its plan in ``held``, read on its next visit.  In an
        acyclic matching a deep cell is a strict descendant of every cell
        waiting, so a deep cell already waiting is a cycle."""
        memo = self.memo
        memo_get = memo.get
        alg = self.algebra
        unit, zero, combine = alg.unit, alg.zero, alg.combine
        plan = self._plan
        held: dict = {}

        def value(cell, depth):
            v = memo_get(cell)
            if v is not None:
                return v
            if not depth:
                raise _Deep(cell)
            if held and cell in held:
                kind, deps = held.pop(cell)
            else:
                kind, deps = plan(cell)
            if kind == "critical":
                v = unit(cell)
            elif kind == "collapsible":
                v = zero
            else:
                try:
                    if len(deps) == 1 and deps[0][1] == 1:
                        # a shortcut slide: values are kept reduced, so the
                        # value at the slide's end is this cell's as it
                        # stands; the cells it passed are never planned
                        v = value(deps[0][0], depth - 1)
                    else:
                        v = combine([(value(f, depth - 1), x)
                                     for f, x in deps])
                except _Deep:
                    held[cell] = kind, deps
                    raise
            memo[cell] = v
            return v

        depth = DEPTH
        try:
            for c, _ in terms:
                waiting = [c]
                while waiting:
                    try:
                        value(waiting[-1], depth)
                    except _Deep as deep:
                        cell = deep.args[0]
                        if cell in waiting:
                            raise MorseError("cyclic reduction dependency "
                                             "(bug)") from None
                        waiting.append(cell)
                    else:
                        waiting.pop()
        finally:
            # ``value`` refers to itself: unbind it, so that the cycle does
            # not keep the reducer and its memo alive until the cyclic
            # garbage collector runs
            del value
        return combine([(memo[c], x) for c, x in terms])


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


def prefix_length(t: OrderedTree, vset) -> int:
    """s of the 0_s prefix: 0..s-1 are in ``vset``, each the next's parent."""
    s = 0
    while s in vset and (s == 0 or t.parent[s] == s - 1):
        s += 1
    return s


def cell_shape(t: OrderedTree, cell):
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
    s0 = prefix_length(t, verts)
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
    """Structured name of a sorted critical cell, read off its
    `cell_shape`: each edge with the `standard_vector` of the vertices that
    hang from it, and the 0_s prefix.  None when the cell fits no standard
    form (possible on trees violating T1/T2): a vertex off the prefix hangs
    from no edge, or some edge's vertices are not in standard form."""
    s0, rest, edges, owner = cell_shape(t, cell)
    vecs = [standard_vector(t, e, [v for v in rest if owner[v] == e])
            for e in edges]
    if None in vecs or None in owner.values():
        return None
    return CriticalName(tuple(Term("deleted" if e in t.deleted_set else "tree",
                                   e, vec) for e, vec in zip(edges, vecs)), s0)


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


def standard_vector(t: OrderedTree, e, verts):
    """The blocked-vertex vector of the vertices ``verts`` (increasing) that
    hang from the edge e, or None when they are not in standard form.  The
    one test of the standard form: none lies on branch 0 of tau(e), and on
    each branch k they are the first ones `_branch_chain` walks from tau(e),
    past the edge's own end when e is a tree edge on branch k."""
    tau = e[0]
    on = [[] for _ in t.children[tau]]
    for v in verts:
        k = t.branch(tau, v)
        if not k:
            return None
        on[k - 1].append(v)
    own = 0 if e in t.deleted_set else t.branch(tau, e[1])
    for k, vs in enumerate(on, 1):
        if vs and _branch_chain(t, tau, k, k == own, len(vs)) != vs:
            return None
    return tuple(map(len, on))


def edge_cell(t: OrderedTree, e, vec, s0: int):
    """The sorted cell of the one-term name: the edge e, vec[k - 1] vertices
    on the standard chain of each branch k of tau(e) (see
    `standard_vector`), and the 0_s prefix.  Raises `MorseError` when a
    chain ends early or the items collide."""
    tau = e[0]
    own = 0 if e in t.deleted_set else t.branch(tau, e[1])
    items = [e, *map(C.vertex, range(s0))]
    for k, cnt in enumerate(vec, 1):
        if cnt:
            chain = _branch_chain(t, tau, k, k == own, cnt)
            if chain is None:
                raise MorseError(f"branch {k} of {tau} holds no chain of "
                                 f"{cnt} vertices")
            items.extend(map(C.vertex, chain))
    cell = tuple(sorted(items))
    used = [x for it in cell for x in C.closure_vertices(it)]
    if len(set(used)) != len(used):
        raise MorseError(f"the cell of edge {e}, vector {tuple(vec)} and "
                         f"0_{s0} has colliding items")
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


def cell_sort_key(t: OrderedTree, cell):
    """Basis order of a sorted cell, one shape per degree: 0-cells by their
    vertices, 1-cells by (size, edge, vector), 2-cells by the 6-tuple and
    higher cells by (size, edges, vector); the vertices break ties."""
    _, rest, edges, owner = cell_shape(t, cell)
    rest = tuple(rest)
    if not edges:
        return rest
    e = edges[0]
    mine = [v for v in rest if owner[v] == e]
    if len(edges) == 1:
        return (len(rest), edge_sort_key(t, e), _vec_profile(t, e[0], mine),
                rest)
    ep = edges[1]
    g = t.branch(e[0], ep[1])
    prof = list(_vec_profile(t, e[0], mine))
    prof[g] += 1
    if len(edges) > 2:
        return (len(mine), tuple(edge_sort_key(t, x) for x in edges),
                tuple(prof), rest)
    other = [v for v in rest if owner[v] == ep]
    return (len(mine), edge_sort_key(t, e), tuple(prof), g,
            edge_sort_key(t, ep), _vec_profile(t, ep[0], other), rest)


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
    Each orbit's boundary is reduced (or rewritten) once, at c, and c's row
    and relator are read straight off that reduced value: one lookup in the
    lower basis per term, zero sums dropped, and the reduced word is the
    relator itself.  Only the other labellings sigma go through the product
    table: their rows and relators are c's with every column moved within
    its orbit to rank(sigma o tau) (see the module docstring), so an
    unordered build never reads it, and an ordered one builds it at the
    first row it derives.  The table's n! x n! entries count against
    ``cap`` too, and a larger table is refused before it is built.
    Labellings that collide, or a column moved outside the lower basis,
    raise `MorseError`.  With a single critical 0-cell every d1 row is
    empty and none is reduced (see the module docstring).

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
    crits = sorted(C.critical_cells(t, n, flavor, cap=cap).items())
    # S_n is listed only past the cap, which refuses an orbit of n * n!
    # items larger than it
    sigmas = list(permutations(range(1, n + 1))) if ordered else [None]
    m = len(sigmas)
    for d, crit in crits:
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
    # the labelling (orbit i, sigma_u) to (orbit i, sigma_s o sigma_u);
    # built at the first row derived, as none is when only 0-cells are
    # critical
    products = None
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
        # identity labelling), whose row and relator are read straight off
        # its reduced value
        for i in range(0, len(basis), m):
            if d == 2:
                # the relator is the reduced word, and d2 is minus its
                # exponent sums
                word = morse_boundary(words, basis[i])
                relators.append(word)
                cols = [(lower[g], -e) for g, e in word]
                rows.append(_sum_row(cols))
            else:
                chain = morse_boundary(red, basis[i])
                cols = [(lower[c], x) for c, x in chain.items()]
                rows.append(dict(cols))
            if m == 1:
                continue
            if products is None:
                if m * m > cap:
                    raise MorseError(f"the table of permutation products "
                                     f"exceeds the cap of {cap} items ({m} "
                                     f"x {m})")
                products = _product_table(sigmas)
            # the other labellings: a term at column j = (orbit offset) +
            # (rank u of its labelling) moves under sigma_s to the offset
            # plus rank(sigma_s o sigma_u).  That is a bijection of the
            # columns, so it carries c's row over with its sums as they are
            entries = [(j - j % m, j % m, x) for j, x in rows[-1].items()]
            if d == 2:
                letters = [(j - j % m, j % m, -x) for j, x in cols]
            for s in range(1, m):
                prod = products[s]
                row = {base + prod[u]: x for base, u, x in entries}
                if row and max(row) >= width:
                    raise MorseError(
                        f"a column derived for "
                        f"{C.format_cell(basis[i + s], ordered)} falls "
                        f"outside the critical {d - 1}-cells")
                rows.append(row)
                if d == 2:
                    relators.append(tuple((faces[base + prod[u]], e)
                                          for base, u, e in letters))
        boundaries[d] = rows
    names = LazyMapping(dict.fromkeys(reps), partial(name_critical_cell, t))
    return MorseComplex(t, n, flavor, critical, index, boundaries, names,
                        sigmas, relators=relators)


def _sum_row(terms) -> dict:
    """The sparse row {column: nonzero coefficient} summing the (column,
    coefficient) pairs ``terms``."""
    row: dict = {}
    for j, x in terms:
        v = row.get(j, 0) + x
        if v:
            row[j] = v
        else:
            del row[j]
    return row


def _product_table(sigmas) -> list:
    """The ranks of the products sigma o tau, (sigma o tau)[i] =
    sigma[tau[i] - 1], over ``sigmas`` in order."""
    rank = {s: r for r, s in enumerate(sigmas)}
    return [[rank[tuple(s[i - 1] for i in tau)] for tau in sigmas]
            for s in sigmas]

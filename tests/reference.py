"""Reference code the tests share; the package itself does not need it."""

import math
import random
from itertools import permutations
from types import SimpleNamespace

from graphbraids import cells as C
from graphbraids.cells import CellError, boundary, cell_edges, vertex
from graphbraids.corpus import random_topological_graph
from graphbraids.graphs import Graph, build_graph, subdivide
from graphbraids.closedforms import separating_cells, separating_families
from graphbraids.homology import AbelianGroup
from graphbraids.intlinalg import smith_normal_form
from graphbraids.morse import (WORDS, CriticalName, MorseError, Reducer,
                               Term, _branch_chain, cell_sort_key,
                               morse_boundary, name_critical_cell)
from graphbraids.present import cyclic_reduce
from graphbraids.trees import OrderedTree


# ---------------------------------------------------------------------------
# cells in text: {0-3,1-5} and (4,3-5)

def parse_cell(text: str):
    """Parse "{0-3,1-5}" (unordered) or "(4,3-5)" (ordered tuple), the
    syntax `cells.format_cell` writes."""
    text = text.strip()
    if text.startswith("{") and text.endswith("}"):
        ordered = False
    elif text.startswith("(") and text.endswith(")"):
        ordered = True
    else:
        raise CellError(f"bad cell syntax {text!r}")
    items = []
    body = text[1:-1].strip()
    if body:
        for part in body.split(","):
            part = part.strip()
            if "-" in part:
                a, b = part.split("-")
                items.append((int(a), int(b)))
            else:
                items.append(vertex(int(part)))
    if not ordered:
        items.sort()
    return tuple(items), ordered


def reference_boundary(cell, ordered: bool = False):
    """Signed cubical boundary: faces of the k-th edge in terminal-vertex
    order enter with sign (-1)^k (initial face) and -(-1)^k (terminal)."""
    edges = [(i, it) for i, it in enumerate(cell) if it[1] != -1]
    edges.sort(key=lambda p: p[1][0])
    out = []
    for k, (pos, e) in enumerate(edges, start=1):
        sign = -1 if k % 2 else 1
        tau, iota = e
        for repl, coeff in ((vertex(iota), sign), (vertex(tau), -sign)):
            face = list(cell)
            face[pos] = repl
            if not ordered:
                face.sort()
            out.append((tuple(face), coeff))
    return out


def cell_vertices(cell):
    return [it[0] for it in cell if it[1] == -1]


# ---------------------------------------------------------------------------
# the Farley-Sabalka matching, the long ways

class Classification:
    __slots__ = ("kind", "witness", "unblocked", "occupied")

    def __init__(self, kind, witness=None, unblocked=None, occupied=None):
        self.kind = kind  # critical | redundant | collapsible
        self.witness = witness
        # unblocked cell vertices
        self.unblocked = [] if unblocked is None else unblocked
        # cell vertices and edge ends; at most 2n of them, so a list is
        # scanned as fast as a set is hashed
        self.occupied = [] if occupied is None else occupied


def classify(t: OrderedTree, cell) -> Classification:
    """Critical / redundant / collapsible per the matching on UD_n, with its
    witness, in one pass; ordered cells classify exactly like their
    unordered projections.  `Reducer._plan` classifies the same way without
    building a record.

    A vertex v != 0 is unblocked when parent[v] is free, and a tree edge
    (tau, iota) is order respecting when no cell vertex u has parent[u] ==
    tau and u < iota.  A cell without either is critical; otherwise it is
    redundant, witnessed by its smallest unblocked vertex, when that lies
    below the terminal vertex of every order-respecting edge, and else
    collapsible, witnessed by the order-respecting edge with the smallest
    terminal vertex.  One pass over the items collects the vertices, the
    edges and the occupied vertices."""
    parent = t.parent
    verts = []
    edges = []
    occupied = []
    for it in cell:
        a, b = it
        occupied.append(a)
        if b == -1:
            verts.append(a)
        else:
            edges.append(it)
            occupied.append(b)
    unb = [v for v in verts if v and parent[v] not in occupied]
    # only an order-respecting edge below every unblocked vertex matters
    bound = min(unb) if unb else t.nv
    best = None
    deleted = t.deleted_set
    for e in edges:
        tau, iota = e
        if iota >= bound or e in deleted:
            continue
        for u in verts:
            if u < iota and parent[u] == tau:
                break
        else:
            best = e
            bound = iota
    if best is not None:
        return Classification("collapsible", best, unb, occupied)
    if unb:
        return Classification("redundant", min(unb), unb, occupied)
    return Classification("critical", None, unb, occupied)


def matched_cell(t: OrderedTree, cell, v: int, ordered: bool = False):
    """W(cell) for a redundant cell whose smallest unblocked vertex is v
    (the witness of `classify`): the collapsible cell one dimension up that
    replaces v by the tree edge below it."""
    e = (t.parent[v], v)
    out = [e if it == (v, -1) else it for it in cell]
    if not ordered:
        out.sort()
    return tuple(out)


def solved_out(rel, cell):
    """A relation [(face, coefficient)] of a matched cell, read as a word
    whose product is 1 (or a chain whose sum is 0), solved for its one +-1
    term at ``cell``: with that term cell^e and the rest read cyclically
    after it, cell = rest^-e."""
    [i] = [i for i, (f, _) in enumerate(rel) if f == cell]
    e, rest = rel[i][1], rel[i + 1:] + rel[:i]
    assert e in (1, -1)
    return list(rest) if e == -1 else [(f, -x) for f, x in reversed(rest)]


def unblocked_vertices(t: OrderedTree, cell):
    vs = cell_vertices(cell)
    vset = set(vs)
    for e in cell_edges(cell):
        vset.add(e[0])
        vset.add(e[1])
    return [v for v in vs if v != 0 and t.parent[v] not in vset]


def order_respecting_edges(t: OrderedTree, cell):
    vs = cell_vertices(cell)
    out = []
    for e in cell_edges(cell):
        if e in t.deleted_set:
            continue
        tau, iota = e
        if not any(t.parent[u] == tau and u < iota for u in vs):
            out.append(e)
    return out


def reference_classify(t: OrderedTree, cell) -> Classification:
    """The classification read off the two lists: redundant when the
    smallest unblocked vertex lies below every order-respecting edge's
    terminal vertex, collapsible when an order-respecting edge is left."""
    unb = unblocked_vertices(t, cell)
    orr = order_respecting_edges(t, cell)
    if not unb and not orr:
        return Classification("critical")
    if unb and (not orr or min(unb) < min(e[1] for e in orr)):
        return Classification("redundant", min(unb), unb)
    return Classification("collapsible", min(orr, key=lambda e: e[1]), unb)


def matching(t: OrderedTree, cell, ordered: bool = False):
    """W: a redundant cell maps to the collapsible cell one dimension up that
    replaces its smallest unblocked vertex by the tree edge below it;
    critical and collapsible cells map to None (void)."""
    cls = classify(t, cell)
    if cls.kind != "redundant":
        return None
    return matched_cell(t, cell, cls.witness, ordered)


def _one_step_shortcut(t: OrderedTree, cls):
    """(v, parent[v]) for the smallest unblocked vertex v with no vertex or
    edge end strictly between parent[v] and v, or None."""
    for v in sorted(cls.unblocked):
        lo = t.parent[v]
        if not any(lo < w < v for w in cls.occupied):
            return v, lo
    return None


def step_shortcut_end(t: OrderedTree, cell, ordered: bool = False):
    """The end of the shortcut slide from a redundant cell, one step at a
    time: the one-step move, classified afresh at every cell, repeated while
    the cell stays redundant and each step moves the vertex the previous
    step placed.  None when no vertex moves at all."""
    step = _one_step_shortcut(t, classify(t, cell))
    if step is None:
        return None
    while True:
        v, p = step
        cell = tuple(C.vertex(p) if it == C.vertex(v) else it for it in cell)
        if not ordered:
            cell = tuple(sorted(cell))
        cls = classify(t, cell)
        step = _one_step_shortcut(t, cls) if cls.kind == "redundant" else None
        if step is None or step[0] != p:
            return cell


def random_ordered_tree(seed: int, max_vertices: int = 6,
                        max_extra: int = 8) -> OrderedTree:
    """A random spanning tree of a corpus graph with its parallel edges
    dropped, subdivided for n = 2 half of the time: the edges are added in
    random order, and the base and every vertex's branch order are random
    too.  About half of these trees fail T2."""
    rng = random.Random(seed)
    g = random_topological_graph(rng, max_vertices, max_extra)
    first = {}
    for e in g.edges:
        first.setdefault(frozenset((e.u, e.v)), e)
    g = Graph(g.vertices, list(first.values()))
    if rng.random() < 0.5:
        g, _ = subdivide(g, 2, "strict")
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    nbrs = {v: [] for v in g.vertices}
    for e in rng.sample(g.edges, len(g.edges)):
        a, b = find(e.u), find(e.v)
        if a != b:
            root[a] = b
            nbrs[e.u].append(e.v)
            nbrs[e.v].append(e.u)
    base = rng.choice(sorted(g.vertices))
    children, stack, seen = {}, [base], {base}
    while stack:
        v = stack.pop()
        children[v] = [w for w in rng.sample(nbrs[v], len(nbrs[v]))
                       if w not in seen]
        seen.update(children[v])
        stack.extend(children[v])
    return OrderedTree(g, base, children)


def reference_branch(t: OrderedTree, v: int, w: int) -> int:
    """g(v, w) child by child: 0 unless w lies in v's subtree, else the
    number of v's child whose subtree holds w."""
    if v == w:
        raise ValueError("branch(v, v) is undefined")
    if not t.is_ancestor(v, w):
        return 0
    for k, c in enumerate(t.children[v], start=1):
        if t.is_ancestor(c, w):
            return k
    raise ValueError(f"no child of {v} is an ancestor of {w}")


def separates(t: OrderedTree, edge: tuple, v: int) -> bool:
    """True iff the endpoints of edge lie in distinct components of T - v,
    read off the tree path through the meet."""
    a, b = edge
    if v == a or v == b:
        return False
    m = t.meet(a, b)
    return t.is_ancestor(m, v) and (t.is_ancestor(v, a) or t.is_ancestor(v, b))


def planted_graph(seed: int) -> Graph:
    """A seeded graph for the planarity corollary: a `random_topological_graph`
    and, two times in three, a copy of K5 or K33 planted in it, either wedged
    at a vertex (a cut vertex) or glued along an edge (a 2-cut).  A planted
    copy keeps the graph non-planar."""
    rng = random.Random(seed)
    g = random_topological_graph(rng, 5, 3)
    how = rng.choice(["none", "wedge", "glue"])
    if how == "none":
        return g
    k = build_graph(rng.choice(["K5", "K33"]))
    kedges = [(e.u, e.v) for e in k.edges]
    # identify k's vertices a (and b) with g's vertices u (and v)
    if how == "wedge":
        glued = {rng.choice(k.vertices): rng.choice(g.vertices)}
    else:
        e = rng.choice(g.edges)
        a, b = kedges.pop(rng.randrange(len(kedges)))
        glued = {a: e.u, b: e.v}
    name = lambda v: glued.get(v, f"p{v}")
    vs = list(g.vertices) + [name(v) for v in k.vertices if v not in glued]
    es = [(e.id, e.u, e.v) for e in g.edges]
    es += [(f"p{i}", name(a), name(b)) for i, (a, b) in enumerate(kedges)]
    return Graph(vs, es)


def reference_sep_classes(t: OrderedTree) -> dict:
    """The separation census pair by pair: every vertex v against every
    deleted edge d through `separates`, keyed by g(v, iota(d))."""
    out: dict = {}
    for v in range(t.nv):
        for d in t.deleted:
            if separates(t, d, v):
                out.setdefault(v, {}).setdefault(t.branch(v, d[1]), []).append(d)
    return out


def reference_t2(t: OrderedTree):
    """T2 by the double loop over deleted edges d and vertices v < tau(d):
    (True, None), or (False, (d, v)) at the first v separating d."""
    for d in t.deleted:
        for v in range(d[0]):
            if separates(t, d, v):
                return False, (d, v)
    return True, None


def reference_t4(t: OrderedTree):
    """T4 by the loop `verify_conditions` ran before its inner loop became
    one search: (t4, the first witness (d, d') or None)."""
    witnesses = {}
    t4 = True
    for d in t.deleted:
        for dp in t.deleted:
            if dp[0] < d[0]:
                gd = t.branch(d[0], d[1])
                if d[0] in (dp[0], dp[1]):
                    continue
                gp = t.branch(d[0], dp[1]) if dp[1] != d[0] else -1
                if gd == gp and not d[1] < dp[1]:
                    t4, witnesses["t4"] = False, (d, dp)
                    break
        if not t4:
            break
    return t4, witnesses.get("t4")


def reference_separating_families(t: OrderedTree) -> list:
    """The separating families partner by partner: for each deleted edge d
    on branch k >= 1 of tau(d), the deleted edges d' with smaller tau,
    disjoint from d, separated by tau(d) on branch k, when there are two or
    more."""
    fams = []
    for d in t.deleted:
        a = d[0]
        k = t.branch(a, d[1])
        if k == 0:
            continue
        partners = [dp for dp in t.deleted
                    if dp[0] < a and len({*d, *dp}) == 4
                    and separates(t, dp, a) and t.branch(a, dp[1]) == k]
        if len(partners) >= 2:
            fams.append((d, partners))
    return fams


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


def reference_name(t: OrderedTree, cell):
    """The name of a sorted cell by rebuilding: count each vertex off the
    0_s prefix on the branch of the edge it hangs from (walking up through
    cell vertices), and keep the name only if `materialize_name` gives the
    cell back.  None when some vertex hangs from no edge or lies on
    branch 0 of its edge."""
    verts = {a for a, b in cell if b == -1}
    edges = sorted((it for it in cell if it[1] != -1), reverse=True)
    s0 = 0
    while s0 in verts and (s0 == 0 or t.parent[s0] == s0 - 1):
        s0 += 1
    ends = {x: e for e in edges for x in e}
    vecs = {e: [0] * t.branch_count(e[0]) for e in edges}
    for v in sorted(verts - set(range(s0))):
        u = t.parent[v]
        while u in verts and u >= s0:
            u = t.parent[u]
        e = ends.get(u)
        k = t.branch(e[0], v) if e is not None else 0
        if not k:
            return None
        vecs[e][k - 1] += 1
    name = CriticalName(tuple(Term("deleted" if e in t.deleted_set else "tree",
                                   e, tuple(vecs[e])) for e in edges), s0)
    return name if materialize_name(t, name) == tuple(cell) else None


def reference_wedge_cell(t: OrderedTree, d, dp, s0: int, strict: bool = True):
    """The wedge cell C_max(delta_min) at the meet of the initial vertices
    of two deleted edges, built from its `CriticalName` by
    `materialize_name`: a tree edge on the larger branch k with one blocked
    vertex on the smaller branch ell, and the 0_s prefix.  None (or
    `MorseError` when strict) where it is undefined or does not
    materialize."""
    c = t.meet(d[1], dp[1])
    if c in (d[1], dp[1]):
        if strict:
            raise MorseError("wedge undefined: one initial vertex is an "
                             "ancestor of the other")
        return None
    ga, gb = t.branch(c, d[1]), t.branch(c, dp[1])
    ell, k = min(ga, gb), max(ga, gb)
    edge = (c, t.children[c][k - 1])
    vec = tuple(int(i == ell) for i in range(1, t.branch_count(c) + 1))
    cell = materialize_name(t, CriticalName((Term("tree", edge, vec),), s0))
    if cell is None and strict:
        raise MorseError("wedge cell failed to materialize")
    return cell


class ReferenceReducer:
    """The Morse reduction onto critical cells as Z-chains, the long way:
    one memo entry per cell (per labelling, when ordered), no shortcut
    moves, and every redundant cell solved out of the full cubical boundary
    of its matched cell."""

    def __init__(self, t: OrderedTree, ordered: bool = False):
        self.t, self.ordered, self.memo = t, ordered, {}

    def reduce_cell(self, cell0):
        memo, stack = self.memo, [cell0]
        while stack:
            cell = stack[-1]
            if cell in memo:
                stack.pop()
                continue
            w = matching(self.t, cell, self.ordered)
            if w is None:
                critical = classify(self.t, cell).kind == "critical"
                memo[cell] = {cell: 1} if critical else {}
                continue
            faces = boundary(w, self.ordered)
            todo = [f for f, _ in faces if f != cell and f not in memo]
            if todo:
                stack.extend(todo)
                continue
            # e * cell + sum x * f = 0 with e = +-1, so cell = -e * sum x * f
            e = next(x for f, x in faces if f == cell)
            acc: dict = {}
            for f, x in faces:
                if f == cell:
                    continue
                for c, y in memo[f].items():
                    acc[c] = acc.get(c, 0) - e * x * y
            memo[cell] = {c: y for c, y in acc.items() if y}
        return memo[cell0]

    def morse_boundary(self, cell):
        acc: dict = {}
        for f, x in boundary(cell, self.ordered):
            for c, y in self.reduce_cell(f).items():
                acc[c] = acc.get(c, 0) + x * y
        return {c: y for c, y in acc.items() if y}


def per_labelling_complex(t: OrderedTree, n: int):
    """(critical, names, boundaries, relators) of the ordered Morse complex
    the long way, labelling by labelling: the basis lists every permutation
    of each unordered critical cell, sorted through ``phi`` and named as
    (name of the sorted cell, permutation) through ``phi``; each
    basis cell's boundary word is rewritten (degree 2) or its boundary
    reduced (other degrees) on its own, and the row is read off the
    result."""
    critical, names = {}, {}
    for d, cs in C.critical_cells(t, n, "ordered").items():
        cs = [p for c in cs for p in permutations(c)]
        split = {c: C.phi(c) for c in cs}
        cs.sort(key=lambda c: cell_sort_key(t, *split[c]), reverse=True)
        critical[d] = cs
        names.update((c, (name_critical_cell(t, split[c][0]), split[c][1]))
                     for c in cs)
    red = Reducer(t, ordered=True)
    words = Reducer(t, ordered=True, algebra=WORDS)
    boundaries, relators = {}, []
    for d in sorted(critical):
        if d == 0 or not critical[d]:
            continue
        lower = {c: i for i, c in enumerate(critical.get(d - 1, ()))}
        rows = boundaries[d] = []
        for cell in critical[d]:
            row = [0] * len(lower)
            if d == 2:
                word = words.reduce(C.boundary_word(cell, ordered=True))
                relators.append(word)
                for g, e in word:
                    row[lower[g]] -= e
            else:
                for c, x in morse_boundary(red, cell).items():
                    row[lower[c]] = x
            rows.append(row)
    return critical, names, boundaries, relators


def bare_fill(t: OrderedTree, items, count: int):
    """Complete items with `count` blocked vertices packed as low as the
    closures allow (the 0_s prefix, shifted past any occupied endpoint)."""
    used = set()
    for it in items:
        used.update(C.closure_vertices(it))
    verts = set(cell_vertices(items))
    ends = used - verts
    out = list(items)
    v = 0
    while count > 0 and v < t.nv:
        if v not in used and (v == 0 or t.parent[v] in verts or t.parent[v] in ends):
            out.append(vertex(v))
            verts.add(v)
            used.add(v)
            count -= 1
        v += 1
    if count:
        raise MorseError("could not complete cell with blocked vertices")
    return tuple(sorted(out))


def reference_classify_1cells(mc):
    """Tag each critical 1-cell pivotal, separating, or free from the
    geometric characterizations (not from the matrix).  The pivotal test
    reads the census ``t.sep_classes[tau]`` on branches m >= 1 only: the
    base side, branch 0, is not in a cell's blocked-vertex vector.  Reads
    each cell's `CriticalName`."""
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


def reference_undetermined_block(mc):
    """The undetermined block of the paper's Z_2 torsion argument: rows
    d u d' - d u d_ref over the separating 1-cells, the block left after
    removing pivotal rows and columns and free columns.  Returns (rows,
    row labels, column cells).

    Each family row is the difference of the two family cells' Morse
    boundaries, reduced afresh with a `Reducer`; the ordered family cells
    are the labellings of the sorted pair by every permutation, in
    lexicographic order.  At n = 1 there are no 2-cells, so the block has
    no rows."""
    t = mc.tree
    tags = reference_classify_1cells(mc)
    sep = [c for c in mc.critical.get(1, ()) if tags[c] == "separating"]
    if mc.n < 2:
        return [], [], sep
    col_index = {c: i for i, c in enumerate(sep)}
    red = Reducer(t, mc.ordered)
    rows, labels = [], []

    def emit(ca, cb, label):
        chain = dict(morse_boundary(red, ca))
        for c, x in morse_boundary(red, cb).items():
            chain[c] = chain.get(c, 0) - x
        row = [0] * len(sep)
        for c, x in chain.items():
            if c in col_index:
                row[col_index[c]] = x
            elif x:
                raise MorseError(f"block row {label} leaks outside "
                                 f"separating columns")
        rows.append(row)
        labels.append(label)

    for d, partners in sorted(separating_families(t), reverse=True):
        ref = partners[0]
        for dp in sorted(partners[1:], reverse=True):
            ca = bare_fill(t, [d, dp], mc.n - 2)
            cb = bare_fill(t, [d, ref], mc.n - 2)
            if not mc.ordered:
                emit(ca, cb, (d, dp, ref))
                continue
            for sigma in permutations(range(1, mc.n + 1)):
                emit(C.phi_inverse(ca, sigma), C.phi_inverse(cb, sigma),
                     (d, dp, ref, sigma))
    return rows, labels, sep


# ---------------------------------------------------------------------------
# the whole cube complex

def whole_complex(t: OrderedTree, n: int, flavor: str = "unordered"):
    """UD_n (or D_n) of t's graph with every cell a basis cell, as the chain
    complex `homology` reads: ``critical`` holds the cells of
    `cells.enumerate_cells` by degree, and ``boundaries`` their cubical
    boundaries as sparse rows {column: nonzero coefficient}.  It needs no
    matching, reducer or rewriting, and by Forman's theorem its homology is
    that of the Morse complex over any ordered tree."""
    ordered = flavor == "ordered"
    cells = C.enumerate_cells(t, n, flavor)
    boundaries = {}
    for d, cs in cells.items():
        if d == 0:
            continue
        index = {c: i for i, c in enumerate(cells[d - 1])}
        rows = boundaries[d] = []
        for c in cs:
            row = {}
            for f, x in boundary(c, ordered):
                v = row.get(index[f], 0) + x
                if v:
                    row[index[f]] = v
                else:
                    del row[index[f]]
            rows.append(row)
    return SimpleNamespace(critical=cells, boundaries=boundaries)


# ---------------------------------------------------------------------------
# dense matrices

def dense_boundaries(mc):
    """``mc.boundaries`` as dense matrices: entry (i, j) of degree d is the
    coefficient of critical[d-1][j] in the boundary of critical[d][i]."""
    out = {}
    for d, rows in mc.boundaries.items():
        width = len(mc.critical.get(d - 1, ()))
        out[d] = [[row.get(j, 0) for j in range(width)] for row in rows]
    return out


def assert_chain_complex(mc):
    """d_(d-1) o d_d = 0 in every degree, on the dense matrices."""
    dense = dense_boundaries(mc)
    for d, upper in dense.items():
        lower = dense.get(d - 1)
        if upper and lower:
            assert not any(map(any, mat_mul(upper, lower))), \
                f"d o d != 0 in degree {d}"


def mat_mul(a, b):
    if not a:
        return []
    n, k = len(a), len(a[0])
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(n)]
    for i in range(n):
        ai, oi = a[i], out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(cols):
                    oi[j] += x * bt[j]
    return out


def per_matrix_homology(mc):
    """Homology from one Smith form of each whole dense boundary matrix,
    with no rows dropped between degrees: Z^(c_d - rank d_d - rank
    d_(d+1)) plus the torsion of d_(d+1)."""
    snf = {d: smith_normal_form(b)
           for d, b in dense_boundaries(mc).items() if b and b[0]}
    out = {}
    for d in sorted(set(mc.critical) | {0, 1, 2}):
        lower, upper = snf.get(d), snf.get(d + 1)
        free = (len(mc.critical.get(d, ())) - (lower.rank if lower else 0)
                - (upper.rank if upper else 0))
        torsion = tuple(x for x in upper.diag if x > 1) if upper else ()
        out[d] = AbelianGroup(free, torsion)
    return out


def relative_h1_rank(mc) -> int:
    """rank H_1(M, M^0): generators all critical 1-cells, relations im d_2.

    For ordered n = 2 this is rank H_1(P_2) + 1, the relative trick used to
    present H_1 without a kernel computation.
    """
    n1 = len(mc.critical.get(1, ()))
    rows = dense_boundaries(mc).get(2, [])
    return n1 - (smith_normal_form(rows).rank if rows else 0)


def naive_invariant_factors(a):
    """Independent oracle: repeated gcd elimination without pivot strategy.

    Exhaustively reduces with the smallest pivot by Euclidean steps; used in
    tests to cross-check smith_normal_form.
    """
    m = [row[:] for row in a]
    factors = []
    while m and m[0]:
        entries = [(abs(m[i][j]), i, j)
                   for i in range(len(m)) for j in range(len(m[0])) if m[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        m[0], m[pi] = m[pi], m[0]
        for r in m:
            r[0], r[pj] = r[pj], r[0]
        again = False
        for i in range(1, len(m)):
            if m[i][0] % m[0][0]:
                q = m[i][0] // m[0][0]
                m[i] = [x - q * y for x, y in zip(m[i], m[0])]
                again = True
        for j in range(1, len(m[0])):
            if m[0][j] % m[0][0]:
                q = m[0][j] // m[0][0]
                for r in m:
                    r[j] -= q * r[0]
                again = True
        if again:
            continue
        for i in range(1, len(m)):
            if m[i][0]:
                q = m[i][0] // m[0][0]
                m[i] = [x - q * y for x, y in zip(m[i], m[0])]
        for j in range(1, len(m[0])):
            if m[0][j]:
                q = m[0][j] // m[0][0]
                for r in m:
                    r[j] -= q * r[0]
        bad = any(m[i][j] % m[0][0]
                  for i in range(1, len(m)) for j in range(1, len(m[0])))
        if bad:
            for i in range(1, len(m)):
                if any(m[i][j] % m[0][0] for j in range(1, len(m[0]))):
                    m[0] = [x + y for x, y in zip(m[0], m[i])]
                    break
            continue
        factors.append(abs(m[0][0]))
        m = [row[1:] for row in m[1:]]
    out = sorted(factors)
    # fix divisibility chain by pairwise gcd/lcm sweeps
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            g = math.gcd(out[i], out[i + 1])
            l = out[i] * out[i + 1] // g if g else 0
            if (out[i], out[i + 1]) != (g, l):
                out[i], out[i + 1] = g, l
                changed = True
    return [d for d in out if d]


# ---------------------------------------------------------------------------
# surface words

def exponent_sums(w) -> dict:
    out: dict = {}
    for g, e in w:
        out[g] = out.get(g, 0) + e
        if not out[g]:
            del out[g]
    return out


def quadratic_genus(w):
    """Genus of the closed orientable surface built from a single polygon
    with identification word w; requires each generator to appear exactly
    twice with opposite exponents.  Returns None if w is not such a word."""
    w = cyclic_reduce(w)
    if not w:
        return 0
    sums = exponent_sums(w)
    counts: dict = {}
    for g, _ in w:
        counts[g] = counts.get(g, 0) + 1
    if sums or any(c != 2 for c in counts.values()):
        return None
    L = len(w)
    # corners 0..L-1 sit between letters i-1 and i; glue via matching letters
    parent = list(range(L))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    pos: dict = {}
    for i, (g, e) in enumerate(w):
        if g in pos:
            j, f = pos[g]
            # letter i runs corner i -> i+1; the matching inverse letter j
            # runs j -> j+1 traversing the same edge backwards
            union(i, (j + 1) % L)
            union((i + 1) % L, j)
        else:
            pos[g] = (i, e)
    vertices = len({find(i) for i in range(L)})
    chi = vertices - L // 2 + 1
    if (2 - chi) % 2:
        return None
    return (2 - chi) // 2

"""Cubical cells of discrete configuration spaces.

A cell is a tuple of items; an item is ``(v, -1)`` for the vertex v or
``(tau, iota)`` for an edge.  Unordered cells are kept sorted (this matches
comparison by vertex number / terminal vertex); ordered cells keep tuple
positions.  Closures of distinct items in a cell are disjoint.

The Farley-Sabalka matching is not here: `critical_cells` generates the
critical cells directly, in one depth-first search over the vertices and
edges in the order of their first vertex, so each cell comes out sorted and
each degree in lexicographic order (the basis order is `morse.cell_sort_key`
alone).  On a suitably subdivided graph it first reads chi(UD_n) off Gal's
series, and refuses at once when that many cells exceed the cap.
`morse.Reducer._plan` classifies each cell it reduces and builds its
matched cell, once per plan.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import permutations
from math import comb, factorial

from .graphs import is_suitably_subdivided
from .trees import OrderedTree


class CellError(ValueError):
    pass


# the most items that `critical_cells` generates by default: n per critical
# cell, n * n! per ordered orbit, as the cells' memory grows with their
# items.  It admits K33 n = 5 ordered (159,000 items) and refuses K33 at
# n = 40 long before memory runs short.
CAP = 1_000_000


def vertex(v: int):
    return (v, -1)


def cell_dim(cell) -> int:
    return sum(1 for it in cell if it[1] != -1)


def closure_vertices(item):
    return (item[0],) if item[1] == -1 else item


def cell_edges(cell):
    return [it for it in cell if it[1] != -1]


# ---------------------------------------------------------------------------
# enumeration

def estimate_cell_count(t: OrderedTree, n: int) -> int:
    nv, ne = t.nv, len(t.all_edge_pairs())
    return sum(comb(ne, i) * comb(nv, n - i) for i in range(min(n, ne) + 1)
               if n - i <= nv)


def enumerate_cells(t: OrderedTree, n: int, flavor: str = "unordered",
                    cap: int = 10_000_000):
    """All cells of UD_n (or D_n) grouped by dimension, deterministically
    ordered.  Refuses when the crude size estimate exceeds the cap."""
    if flavor not in ("unordered", "ordered"):
        raise CellError(f"unknown flavor {flavor!r}")
    est = estimate_cell_count(t, n)
    if flavor == "ordered":
        est *= factorial(n)
    if est > cap:
        raise CellError(f"estimated cell count {est} exceeds cap {cap}")
    items = [vertex(v) for v in range(t.nv)] + t.all_edge_pairs()
    items.sort()
    closures = [closure_vertices(it) for it in items]
    by_dim: dict[int, list] = {}
    chosen: list = []
    used: set[int] = set()

    def rec(start: int, remaining: int):
        if remaining == 0:
            c = tuple(chosen)
            by_dim.setdefault(cell_dim(c), []).append(c)
            return
        for i in range(start, len(items) - remaining + 1):
            cl = closures[i]
            if any(x in used for x in cl):
                continue
            chosen.append(items[i])
            used.update(cl)
            rec(i + 1, remaining - 1)
            chosen.pop()
            used.difference_update(cl)

    rec(0, n)
    for d in by_dim:
        by_dim[d].sort()
    if flavor == "ordered":
        ordered: dict[int, list] = {}
        for d, cells in by_dim.items():
            out = []
            for c in cells:
                out.extend(sorted(set(permutations(c))))
            ordered[d] = out
        by_dim = ordered
    return by_dim


def euler_characteristic(t: OrderedTree, n: int, flavor: str = "unordered") -> int:
    """chi(UD_n) of t's graph from Gal's series
    sum_n chi(UD_n) x^n = prod_v (1 + (1 - val v) x) / (1 - x)^|E|
    (T. Gal, Colloq. Math. 89, 2001); chi(D_n) = n! chi(UD_n).  A leaf's
    factor is 1, and a vertex of valency 2 cancels one factor 1 - x of the
    denominator, so only the other vertices are multiplied in."""
    g = t.graph
    poly, ne = [1], len(g.edges)
    for v in g.vertices:
        a = 1 - g.valency(v)
        if a == -1:
            ne -= 1
        elif a:
            poly = [x + a * y for x, y in zip(poly + [0], [0] + poly)][:n + 1]

    def inverse(k):  # coefficient of x^k in (1 - x)^-ne
        return comb(ne + k - 1, k) if ne else int(k == 0)

    chi = sum(c * inverse(n - j) for j, c in enumerate(poly))
    return chi * factorial(n) if flavor == "ordered" else chi


def complex_dimension(t: OrderedTree, n: int) -> int:
    """The top dimension of UD_n: the most disjoint edges, at most n, that
    leave n - d vertices free; negative when n exceeds the vertex count."""
    edges = t.all_edge_pairs()
    used: set[int] = set()

    def has_matching(start: int, need: int) -> bool:
        if need == 0:
            return True
        for i in range(start, len(edges) - need + 1):
            a, b = edges[i]
            if a in used or b in used:
                continue
            used.update(edges[i])
            found = has_matching(i + 1, need - 1)
            used.difference_update(edges[i])
            if found:
                return True
        return False

    d = min(n, t.nv - n)
    while d > 0 and not has_matching(0, d):
        d -= 1
    return d


def critical_cells(t: OrderedTree, n: int, flavor: str = "unordered",
                   cap: int = CAP):
    """The critical cells of UD_n grouped by dimension, each list in
    lexicographic order; every dimension of the complex is a key, even one
    without critical cells.  The critical cells of D_n are the n! labellings
    ``phi_inverse(c, sigma)`` of these, so with flavor "ordered" the same
    unordered cells are returned, each standing for its orbit.

    A cell is critical when every vertex is blocked and no edge is order
    respecting, so its edges are deleted edges or tree edges (tau, iota)
    with iota not the first child of tau, and such a tree edge needs a
    cell vertex u with parent[u] == tau and u < iota.  One depth-first
    search takes these edges and the vertices in the order of their first
    vertex.  Whatever occupies parent[v] and every tree edge's tau come
    before v in that order, so a vertex is taken when it is free and
    blocked, an edge when both its ends are free, and a branch stops as
    soon as some chosen tree edge can no longer get its vertex u: only
    critical cells are built, each a sorted tuple, each degree in order.

    Refuses once the cells generated hold more than ``cap`` items: n per
    cell, and n * n! per ordered orbit.  Refuses before any search when one
    cell or orbit alone holds more, or when the graph is suitably
    subdivided and |chi(UD_n)| cells hold more: the critical cells of each
    degree d number c_d with sum (-1)^d c_d = chi (Forman), and Gal's
    series gives chi only on such a graph."""
    if flavor not in ("unordered", "ordered"):
        raise CellError(f"unknown flavor {flavor!r}")
    ordered = flavor == "ordered"
    per_cell = n * factorial(n) if ordered else n
    unit = "orbit" if ordered else "cell"
    over = (f"the critical cells exceed the cap of {cap} items "
            f"({per_cell} per {unit})")
    if per_cell > cap:  # before an ordered build lists an orbit's n! cells
        raise CellError(over)
    if (is_suitably_subdivided(t.graph, n) and per_cell * max(
            1, abs(euler_characteristic(t, n, "unordered"))) > cap):
        raise CellError(over)
    parent, children, deleted = t.parent, t.children, t.deleted_set
    edges = [e for e in t.all_edge_pairs()
             if e in deleted or children[e[0]][0] != e[1]]
    items = sorted([vertex(v) for v in range(t.nv)] + edges)
    at = {it[0]: i for i, it in enumerate(items) if it[1] == -1}
    # a tree edge needs one of its earlier siblings as a cell vertex; past
    # the item of the last of them it can no longer get one
    last = {e: at[children[e[0]][children[e[0]].index(e[1]) - 1]] + 1
            for e in edges if e not in deleted}
    by_dim: dict[int, list] = {d: [] for d in range(complex_dimension(t, n) + 1)}
    chosen: list = []
    occupied: set[int] = set()
    count = 0

    # ``unmet``: the chosen tree edges with no blocking sibling yet.  A
    # vertex blocks at most one of them, the one at its parent, so a branch
    # with fewer slots than unmet edges, or past an unmet edge's last
    # sibling, emits nothing
    def search(start: int, remaining: int, dim: int, unmet: tuple):
        nonlocal count
        if remaining < len(unmet):
            return
        if remaining == 0:
            count += per_cell
            if count > cap:
                raise CellError(over)
            by_dim[dim].append(tuple(chosen))
            return
        stop = min(last[e] for e in unmet) if unmet else len(items)
        for i in range(start, stop):
            item = items[i]
            v, w = item
            if w == -1:
                if v in occupied or (v and parent[v] not in occupied):
                    continue
                left = tuple(e for e in unmet if e[0] != parent[v])
            elif v in occupied or w in occupied:
                continue
            else:
                left = unmet + (item,) if item in last else unmet
            ends = closure_vertices(item)
            chosen.append(item)
            occupied.update(ends)
            search(i + 1, remaining - 1, dim + (w != -1), left)
            chosen.pop()
            occupied.difference_update(ends)

    search(0, n, 0, ())
    return by_dim


# ---------------------------------------------------------------------------
# boundaries and labellings

def boundary(cell, ordered: bool = False):
    """Signed cubical boundary of a cell tuple (sorted when unordered):
    faces of the k-th edge in terminal-vertex order enter with sign (-1)^k
    (initial face) and -(-1)^k (terminal).

    An ordered face keeps the positions.  An unordered face is spliced, not
    sorted: the items of a sorted cell have disjoint closures, so their
    first vertices are distinct and give the order.  So the edges already
    come by terminal vertex, the terminal face's (tau, -1) takes the edge's
    place, and the initial face's (iota, -1), iota > tau, goes in among the
    items after it at its `bisect_left` position."""
    edges = [(i, it) for i, it in enumerate(cell) if it[1] != -1]
    if ordered:
        edges.sort(key=lambda p: p[1][0])
    out = []
    for k, (pos, (tau, iota)) in enumerate(edges, start=1):
        sign = -1 if k % 2 else 1
        head, tail = cell[:pos], cell[pos + 1:]
        if ordered:
            initial = head + ((iota, -1),) + tail
        else:
            at = bisect_left(cell, (iota, -1), pos + 1)
            initial = head + cell[pos + 1:at] + ((iota, -1),) + cell[at:]
        out.append((initial, sign))
        out.append((head + ((tau, -1),) + tail, -sign))
    return out


def boundary_word(cell, ordered: bool = False):
    """Read the square boundary of a 2-cell as a word in its faces, letters
    (face, +-1): with e the edge of larger terminal vertex and e' the other,
    the word is [e'->iota][e->tau][e'->tau]^-1[e->iota]^-1, faces 0, 3, 1, 2
    of `boundary`.  Its abelianization is minus the cubical boundary."""
    faces = boundary(cell, ordered)
    if len(faces) != 4:
        raise CellError("boundary words are defined for 2-cells")
    return ((faces[0][0], 1), (faces[3][0], 1),
            (faces[1][0], -1), (faces[2][0], -1))


def phi(cell):
    """Bijection D_n -> UD_n x S_n: the unordered projection together with
    the permutation sigma with c_{sigma(1)} < ... < c_{sigma(n)}."""
    idx = sorted(range(len(cell)), key=lambda i: cell[i])
    sigma = tuple(i + 1 for i in idx)
    return tuple(sorted(cell)), sigma


def phi_inverse(sorted_cell, sigma):
    out = [None] * len(sorted_cell)
    for rank, pos in enumerate(sigma):
        out[pos - 1] = sorted_cell[rank]
    return tuple(out)


def perm_cycles(sigma) -> str:
    n = len(sigma)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = sigma[i] - 1
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = sigma[j] - 1
        if len(cyc) > 1:
            parts.append("(" + ",".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "id"


# ---------------------------------------------------------------------------
# text syntax: {0-3,1-5} and (4,3-5)

def format_item(item) -> str:
    return str(item[0]) if item[1] == -1 else f"{item[0]}-{item[1]}"


def format_cell(cell, ordered: bool = False) -> str:
    if ordered:
        return "(" + ",".join(format_item(it) for it in cell) + ")"
    # display convention: edges first, then vertices
    items = sorted(cell, key=lambda it: (it[1] == -1, it))
    return "{" + ",".join(format_item(it) for it in items) + "}"

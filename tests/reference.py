"""Reference code the tests share; the package itself does not need it."""

from itertools import permutations

from graphbraids import cells as C
from graphbraids.cells import (Classification, boundary, cell_edges,
                               cell_vertices, classify, matched_cell)
from graphbraids.morse import (WORDS, Reducer, cell_sort_key, morse_boundary,
                               name_critical_cell)
from graphbraids.trees import OrderedTree


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
    of each unordered critical cell, sorted and named through ``phi``; each
    basis cell's boundary word is rewritten (degree 2) or its boundary
    reduced (other degrees) on its own, and the row is read off the
    result."""
    critical, names = {}, {}
    for d, cs in C.critical_cells(t, n, "ordered").items():
        cs = [p for c in cs for p in permutations(c)]
        split = {c: C.phi(c) for c in cs}
        cs.sort(key=lambda c: cell_sort_key(t, *split[c]), reverse=True)
        critical[d] = cs
        names.update((c, name_critical_cell(t, *split[c])) for c in cs)
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

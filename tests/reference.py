"""Reference code the tests share; the package itself does not need it."""

import math
from itertools import permutations

from graphbraids import cells as C
from graphbraids.cells import (Classification, boundary, cell_edges,
                               cell_vertices, classify, matched_cell)
from graphbraids.homology import AbelianGroup
from graphbraids.intlinalg import copy_matrix, smith_normal_form, zeros
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


def mat_mul(a, b):
    if not a:
        return []
    n, k = len(a), len(a[0])
    cols = len(b[0]) if b else 0
    out = zeros(n, cols)
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
    m = copy_matrix(a)
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

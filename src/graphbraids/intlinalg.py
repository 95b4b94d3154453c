"""Exact integer matrix utilities: Smith normal form, rank, kernel bases.

Matrices are plain lists of lists of Python ints, so all arithmetic is
arbitrary precision.  Row convention throughout: a chain is a row vector and
a boundary matrix has one row per generator of the source.

Invariant factors alone (``smith_normal_form`` without transforms, ``rank``)
come from sparse elimination of the +-1 pivots followed by a dense Smith
form of the small core left over; Morse boundary matrices are almost all
+-1.  The unimodular transforms, and the kernel helpers built on them, use
the dense form throughout.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


def zeros(rows: int, cols: int):
    return [[0] * cols for _ in range(rows)]


def identity(n: int):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


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

def copy_matrix(m):
    return [row[:] for row in m]


@dataclass
class SmithForm:
    """U * A * V = D with U, V unimodular; diag holds the invariant factors."""

    diag: list
    rows: int
    cols: int
    U: list | None = None
    V: list | None = None
    Uinv: list | None = None

    @property
    def rank(self) -> int:
        return len(self.diag)

    def torsion(self) -> list:
        return [d for d in self.diag if abs(d) > 1]


def smith_normal_form(a, transforms: bool = False) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Without transforms, the +-1 entries are eliminated first on sparse rows
    (``_eliminate_units``), each one an invariant factor 1, and only the
    core left over goes through the dense loop.  With transforms, the whole
    matrix goes through the dense loop, which records U, Uinv and V.  The
    returned diagonal is the divisibility chain d1 | d2 | ... with positive
    entries.
    """
    if transforms:
        return _dense_smith_form(copy_matrix(a), transforms=True)
    units, core = _eliminate_units(a)
    diag = [1] * units + _dense_smith_form(core).diag
    return SmithForm(diag, len(a), len(a[0]) if a else 0)


def _eliminate_units(a):
    """Eliminate +-1 pivots on sparse rows; return their number and the
    dense core left over, without its zero rows and columns.

    Each step takes the unit entry of least Markowitz cost
    (row nnz - 1) * (column nnz - 1), the most fill-in it can cause, clears
    its column by row operations and drops its row and column.  A unit
    pivot splits off as a direct summand Z/1, so the invariant factors of
    the matrix are the eliminated units followed by those of the core.

    Unit entries wait in a heap keyed by (cost, row, column), each with a
    cost no higher than its current one.  A step changes costs only in the
    rows it touches and in the pivot row's columns; an entry there whose
    cost fell is pushed again.  A popped entry whose cost has risen goes
    back with its current cost, so the first one popped at its current cost
    is a least-cost unit.
    """
    rows = {}
    col_rows: dict = {}
    for i, r in enumerate(a):
        sparse = {j: x for j, x in enumerate(r) if x}
        if sparse:
            rows[i] = sparse
            for j in sparse:
                col_rows.setdefault(j, set()).add(i)
    heap: list = []
    queued: dict = {}  # (row, column) -> its least cost in the heap

    def offer(i, j):
        x = rows[i][j]
        if x == 1 or x == -1:
            c = (len(rows[i]) - 1) * (len(col_rows[j]) - 1)
            if c < queued.get((i, j), c + 1):
                queued[i, j] = c
                heapq.heappush(heap, (c, i, j))

    for i, r in rows.items():
        for j in r:
            offer(i, j)
    units = 0
    while heap and rows:
        c, pi, pj = heapq.heappop(heap)
        r = rows.get(pi)
        if r is None or queued.get((pi, pj)) != c:
            continue  # its row is gone, or a lower cost supersedes it
        x = r.get(pj)
        if x != 1 and x != -1:
            del queued[pi, pj]
            continue
        now = (len(r) - 1) * (len(col_rows[pj]) - 1)
        if now != c:
            queued[pi, pj] = now
            heapq.heappush(heap, (now, pi, pj))
            continue
        pivot_row = rows.pop(pi)
        for j in pivot_row:
            col_rows[j].discard(pi)
        p = pivot_row[pj]
        touched = col_rows.pop(pj)
        for i in touched:
            r = rows[i]
            q = r.pop(pj) * p  # row[i] -= q * pivot_row clears column pj
            for j, x in pivot_row.items():
                if j == pj:
                    continue
                v = r.get(j, 0) - q * x
                if v:
                    if j not in r:
                        col_rows[j].add(i)
                    r[j] = v
                elif j in r:
                    del r[j]
                    col_rows[j].discard(i)
            if not r:
                del rows[i]
        units += 1
        for i in touched:
            if i in rows:
                for j in rows[i]:
                    offer(i, j)
        for j in pivot_row:
            if j != pj:
                for i in col_rows[j]:
                    offer(i, j)
    core_cols = sorted(j for j, rs in col_rows.items() if rs)
    core = [[r.get(j, 0) for j in core_cols] for r in rows.values()]
    return units, core


def _dense_smith_form(m, transforms: bool = False) -> SmithForm:
    """The dense Smith loop on m, which it overwrites.

    Pivots are chosen by smallest nonzero magnitude, which keeps entries
    small at the scales this library meets.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    U = identity(rows) if transforms else None
    Uinv = identity(rows) if transforms else None
    V = identity(cols) if transforms else None

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        if transforms:
            U[i], U[j] = U[j], U[i]
            for r in Uinv:
                r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        # row[dst] += q * row[src]
        md, ms = m[dst], m[src]
        for t in range(cols):
            md[t] += q * ms[t]
        if transforms:
            ud, us = U[dst], U[src]
            for t in range(rows):
                ud[t] += q * us[t]
            for r in Uinv:
                r[src] -= q * r[dst]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        if transforms:
            U[i] = [-x for x in U[i]]
            for r in Uinv:
                r[i] = -r[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        if transforms:
            for r in V:
                r[i], r[j] = r[j], r[i]

    def add_col(dst, src, q):
        for r in m:
            r[dst] += q * r[src]
        if transforms:
            for r in V:
                r[dst] += q * r[src]

    s = 0
    while s < rows and s < cols:
        # locate smallest nonzero entry in the remaining block
        best = None
        for i in range(s, rows):
            mi = m[i]
            for j in range(s, cols):
                x = mi[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        swap_rows(s, pi)
        swap_cols(s, pj)
        dirty = False
        for i in range(s + 1, rows):
            if m[i][s]:
                q = m[i][s] // m[s][s]
                add_row(i, s, -q)
                if m[i][s]:
                    dirty = True
        for j in range(s + 1, cols):
            if m[s][j]:
                q = m[s][j] // m[s][s]
                add_col(j, s, -q)
                if m[s][j]:
                    dirty = True
        if dirty:
            continue
        # pivot divides its row and column; enforce divisibility of the rest
        piv = m[s][s]
        offender = None
        for i in range(s + 1, rows):
            mi = m[i]
            for j in range(s + 1, cols):
                if mi[j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(s, offender, 1)
            continue
        if piv < 0:
            negate_row(s)
        s += 1
    diag = [m[i][i] for i in range(min(rows, cols)) if m[i][i]]
    return SmithForm(diag, rows, cols, U=U, V=V, Uinv=Uinv)


def rank(a) -> int:
    return smith_normal_form(a).rank


def kernel_basis(a):
    """Rows spanning the left kernel {x : x * A = 0} over the integers.

    The basis generates a direct summand of Z^rows, so any kernel vector has
    integer coordinates in it (see kernel_coordinates).
    """
    if not a:
        return []
    snf = smith_normal_form(a, transforms=True)
    return [snf.U[i][:] for i in range(snf.rank, snf.rows)], snf


def kernel_coordinates(snf: SmithForm, x):
    """Coordinates of a left-kernel vector x in the kernel_basis rows."""
    coords = [sum(x[t] * snf.Uinv[t][i] for t in range(snf.rows))
              for i in range(snf.rows)]
    for i in range(snf.rank):
        if coords[i] != 0:
            raise ValueError("vector is not in the kernel")
    return coords[snf.rank:]


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
    out = []
    for d in sorted(factors):
        out.append(d)
    # fix divisibility chain by pairwise gcd/lcm sweeps
    import math
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

"""Exact integer matrix utilities: Smith normal form, rank, kernel bases.

Matrices are plain lists of lists of Python ints, so all arithmetic is
arbitrary precision.  Row convention throughout: a chain is a row vector and
a boundary matrix has one row per generator of the source.

Invariant factors alone (``smith_normal_form`` without transforms, ``rank``)
come from ``unit_pivots``, which takes the +-1 pivots on sparse rows
{column: coefficient} in one pass, followed by a dense Smith form of the
small core left over; Morse boundary matrices are almost all +-1, and
``homology`` calls ``unit_pivots`` on the sparse rows the build writes.  The
unimodular transforms, and the kernel helpers built on them, use the dense
form throughout.
"""

from __future__ import annotations

import heapq


def zeros(rows: int, cols: int):
    return [[0] * cols for _ in range(rows)]


def identity(n: int):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def copy_matrix(m):
    return [row[:] for row in m]


class SmithForm:
    """U * A * V = D with U, V unimodular; diag holds the invariant factors."""

    def __init__(self, diag: list, rows: int, cols: int, U: list | None = None,
                 V: list | None = None, Uinv: list | None = None):
        self.diag = diag
        self.rows = rows
        self.cols = cols
        self.U = U
        self.V = V
        self.Uinv = Uinv

    @property
    def rank(self) -> int:
        return len(self.diag)

    def torsion(self) -> list:
        return [d for d in self.diag if abs(d) > 1]


def smith_normal_form(a, transforms: bool = False) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Without transforms, the +-1 pivots are taken first on sparse rows
    (``unit_pivots``), each one an invariant factor 1, and only the core
    left over goes through the dense loop.  With transforms, the whole
    matrix goes through the dense loop, which records U, Uinv and V.  The
    returned diagonal is the divisibility chain d1 | d2 | ... with positive
    entries.
    """
    if transforms:
        return _dense_smith_form(copy_matrix(a), transforms=True)
    pivots, core = unit_pivots([{j: x for j, x in enumerate(r) if x}
                                for r in a])
    diag = [1] * len(pivots) + _dense_smith_form(densify(core)).diag
    return SmithForm(diag, len(a), len(a[0]) if a else 0)


def densify(rows):
    """Sparse rows as a dense matrix over the columns they use, in order."""
    cols = sorted({j for r in rows for j in r})
    return [[r.get(j, 0) for j in cols] for r in rows]


def unit_pivots(rows):
    """Take +-1 pivots from sparse rows {column: nonzero}; return
    ({pivot column: reduced pivot row}, core rows).

    The rows are taken from the last to the first.  Each is cleared of the
    pivot columns found so far, in the order the pivots were made: a pivot
    row is already clear of every earlier pivot's column, so one ascending
    sweep over a heap of pivot ranks clears the row.  If a +-1 entry is
    left, the one in the lowest column becomes the row's pivot; otherwise
    the row waits.  At the end the waiting rows are cleared against all the
    pivots; one that gained a +-1 entry becomes a pivot too, and the rest
    are cleared again until no pivot is added.  The nonzero rows left are
    the core, in input order, with no pivot column and no +-1 entry.

    These are unimodular row operations, and the pivot rows restricted to
    the pivot columns form a triangular matrix with +-1 on its diagonal, so
    the invariant factors of the rows are one 1 per pivot followed by those
    of the core.  Morse boundaries list their cells largest basis key
    first, so the rows are taken in increasing basis order.
    """
    pivots: dict = {}   # pivot column -> its reduced row
    rank: dict = {}     # pivot column -> the order it was made in
    order: list = []    # pivot columns by rank

    def clear(row):
        heap = [rank[j] for j in row if j in rank]
        if not heap:
            return
        heapq.heapify(heap)
        while heap:
            pj = order[heapq.heappop(heap)]
            q = row.get(pj)
            if q is None:
                continue  # a duplicate rank, or cancelled by fill-in
            p = pivots[pj]
            q *= p[pj]  # row -= q * p clears column pj, as p[pj] is +-1
            for j, x in p.items():
                v = row.get(j, 0) - q * x
                if v:
                    if j not in row and j in rank:
                        heapq.heappush(heap, rank[j])
                    row[j] = v
                else:
                    del row[j]

    def take(row) -> bool:
        """Make the cleared row a pivot if a +-1 entry is left in it."""
        units = [j for j, x in row.items() if x == 1 or x == -1]
        if not units:
            return False
        pj = min(units)
        rank[pj] = len(order)
        order.append(pj)
        pivots[pj] = row
        return True

    core = []
    for r in reversed(rows):
        row = dict(r)
        clear(row)
        if not take(row):
            core.append(row)
    core.reverse()
    while True:
        made, waiting, core = len(order), core, []
        for row in waiting:
            clear(row)
            if row and not take(row):
                core.append(row)
        if len(order) == made:
            return pivots, core


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

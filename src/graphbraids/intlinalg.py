"""Exact integer matrix utilities: Smith normal form, kernel bases.

Matrices are plain lists of lists of Python ints, so all arithmetic is
arbitrary precision.  Row convention throughout: a chain is a row vector and
a boundary matrix has one row per generator of the source.

Invariant factors (``smith_normal_form``) come from
``unit_pivots``, which takes the +-1 pivots on sparse rows {column:
coefficient} in one pass, followed by the dense Smith loop on the small core
left over; Morse boundary matrices are almost all +-1, and ``homology``
calls ``unit_pivots`` on the sparse rows the build writes.  The kernel
helpers, a reference for the tests, take one row echelon of their own.
"""

from __future__ import annotations

import heapq


class SmithForm:
    """The invariant factors of an integer matrix: diag is the
    divisibility chain d1 | d2 | ... of positive entries."""

    def __init__(self, diag: list):
        self.diag = diag

    @property
    def rank(self) -> int:
        return len(self.diag)


def smith_normal_form(a) -> SmithForm:
    """The invariant factors of an integer matrix.

    The +-1 pivots are taken first on sparse rows (``unit_pivots``), each
    one an invariant factor 1, and only the core left over goes through the
    dense loop (``_dense_smith_form``).
    """
    pivots, core = unit_pivots([{j: x for j, x in enumerate(r) if x}
                                for r in a])
    diag = [1] * len(pivots) + _dense_smith_form(densify(core))
    return SmithForm(diag)


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


# the most passes of the dense Smith loop; a pass that makes no progress
# would otherwise loop for ever
DENSE_STEP_CAP = 5_000_000


def _dense_smith_form(m) -> list:
    """The invariant factors of m, which it overwrites, by unimodular row
    and column operations.

    Pivots are chosen by smallest nonzero magnitude, which keeps entries
    small at the scales this library meets.  Raises `RuntimeError` past
    ``DENSE_STEP_CAP`` passes.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    s = 0
    steps = 0
    while s < rows and s < cols:
        steps += 1
        if steps > DENSE_STEP_CAP:
            raise RuntimeError("dense Smith form iteration cap exceeded (bug)")
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
        m[s], m[pi] = m[pi], m[s]
        for r in m:
            r[s], r[pj] = r[pj], r[s]
        ms = m[s]
        dirty = False
        for i in range(s + 1, rows):
            if m[i][s]:
                q = m[i][s] // ms[s]
                m[i] = mi = [x - q * y for x, y in zip(m[i], ms)]
                if mi[s]:
                    dirty = True
        for j in range(s + 1, cols):
            if ms[j]:
                q = ms[j] // ms[s]
                for r in m:
                    r[j] -= q * r[s]
                if ms[j]:
                    dirty = True
        if dirty:
            continue
        # pivot divides its row and column; enforce divisibility of the rest
        piv = ms[s]
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
            m[s] = [x + y for x, y in zip(ms, m[offender])]
            continue
        if piv < 0:
            m[s] = [-x for x in ms]
        s += 1
    return [m[i][i] for i in range(min(rows, cols)) if m[i][i]]


def kernel_basis(a):
    """(rows spanning the left kernel {x : x * A = 0} over the integers,
    the state ``kernel_coordinates`` reads).

    One row echelon of [A | I] by unimodular row operations: the I part
    becomes U with U * A in echelon form, and the rows of U whose A part is
    zero, the last rows - rank(A), span the kernel.  They are rows of a
    unimodular matrix, so they generate a direct summand of Z^rows and any
    kernel vector has integer coordinates in them.  U^-1 is tracked as the
    rows are combined.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(r) + [int(i == k) for k in range(rows)] for i, r in enumerate(a)]
    uinv = [[int(i == k) for k in range(rows)] for i in range(rows)]
    r = 0  # the rows above r are in echelon form
    for j in range(cols):
        while True:
            live = [i for i in range(r, rows) if m[i][j]]
            if not live:
                break
            p = min(live, key=lambda i: abs(m[i][j]))
            if len(live) == 1:
                m[r], m[p] = m[p], m[r]
                for u in uinv:
                    u[r], u[p] = u[p], u[r]
                r += 1
                break
            # row i -= q * row p, so column p of U^-1 += q * column i
            for i in live:
                if i != p:
                    q = m[i][j] // m[p][j]
                    m[i] = [x - q * y for x, y in zip(m[i], m[p])]
                    for u in uinv:
                        u[p] += q * u[i]
    return [row[cols:] for row in m[r:]], (r, uinv)


def kernel_coordinates(state, x):
    """Coordinates of a left-kernel vector x in the kernel_basis rows: x *
    U^-1 is x in the rows of U, and its first rank(A) entries are zero
    exactly when x is in the kernel."""
    r, uinv = state
    coords = [sum(x[t] * uinv[t][i] for t in range(len(uinv)))
              for i in range(len(uinv))]
    if any(coords[:r]):
        raise ValueError("vector is not in the kernel")
    return coords[r:]

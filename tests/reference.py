"""Reference code the tests share; the package itself does not need it."""

from graphbraids.cells import boundary, classify, matched_cell
from graphbraids.trees import OrderedTree


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

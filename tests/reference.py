"""Reference code the tests share; the package itself does not need it."""

from graphbraids.cells import classify, matched_cell
from graphbraids.trees import OrderedTree


def matching(t: OrderedTree, cell, ordered: bool = False):
    """W: a redundant cell maps to the collapsible cell one dimension up that
    replaces its smallest unblocked vertex by the tree edge below it;
    critical and collapsible cells map to None (void)."""
    cls = classify(t, cell)
    if cls.kind != "redundant":
        return None
    return matched_cell(t, cell, cls.witness, ordered)

"""Pinned trees and orders for the worked examples.

Where exact cell names matter the tie-breaking freedom in tree construction
is removed by registering the tree explicitly.  Each registered tree numbers
its vertices so that the order number equals the integer vertex id.
"""

from __future__ import annotations

from .graphs import Graph, build_graph, subdivide
from .trees import OrderedTree, choose_tree_and_order


def _chain_children(parent_pairs):
    children: dict[str, list[str]] = {}
    for p, c in parent_pairs:
        children.setdefault(str(p), []).append(str(c))
    return children


def _numbered_tree(nv: int, tree, deleted, sep: str = "") -> OrderedTree:
    """The graph on vertices "0".."nv-1" with tree edges t<a><b> and deleted
    edges d<a><b> (``sep`` between a and b), and its tree based at "0" with
    children in pair order."""
    es = [(f"t{a}{sep}{b}", str(a), str(b)) for a, b in tree]
    es += [(f"d{a}{sep}{b}", str(a), str(b)) for a, b in deleted]
    g = Graph([str(i) for i in range(nv)], es)
    return OrderedTree(g, "0", _chain_children(tree), "generic")


def k33_pinned_tree() -> OrderedTree:
    """K(3,3) on six vertices 0..5 with the warm-up example's tree: path
    0-1-2-3 with branch 2-4-5, deleted edges 0-3, 0-4, 1-5, 3-5.

    Not suitably subdivided in the strict n=2 sense, so T1/T2 fail; the
    generic Morse machinery is still valid on it.
    """
    return _numbered_tree(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)],
                          [(0, 3), (0, 4), (1, 5), (3, 5)])


def theta4_pinned_tree() -> OrderedTree:
    """Theta_4 subdivided for n=3 (6 vertices): star tree at vertex 2 with
    stem 0-1-2 and deleted edges (0,3), (0,4), (0,5)."""
    return _numbered_tree(6, [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)],
                          [(0, 3), (0, 4), (0, 5)])


def k5_pinned_tree() -> OrderedTree:
    """K5 subdivided for n=4 (25 vertices, each edge in three pieces), with
    the spine 0..6..11..18 and three two-vertex stubs at each of 6, 11, 18.

    Essential vertices 6, 11, 18 are the A, B, C of the worked examples and
    the deleted edges sort to d1=(0,8) ... d6=(6,20).
    """
    tree = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
            (6, 7), (7, 8), (6, 9), (9, 10), (10, 11),
            (11, 12), (12, 13), (11, 14), (14, 15),
            (11, 16), (16, 17), (17, 18),
            (18, 19), (19, 20), (18, 21), (21, 22), (18, 23), (23, 24)]
    deleted = [(0, 8), (0, 15), (0, 24), (3, 13), (3, 22), (6, 20)]
    return _numbered_tree(25, tree, deleted, "-")


def k4_pinned_tree() -> OrderedTree:
    """K4 subdivided for n=3 with a planar-mode tree satisfying T1-T4.

    The construction is deterministic, so freezing the call is enough to
    make the fixture reproducible.
    """
    g, _ = subdivide(build_graph("K4"), 3, "auto")
    return choose_tree_and_order(g, 3, "planar")


def fig_b3n3_tree() -> OrderedTree:
    """The cut-vertex example graph (two circles and a theta wedged at A)
    with a tree giving A four branches; T2 fails by design, matching the
    example's ad-hoc tree."""
    g = build_graph("FigB3n3")
    parent_pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                    (2, 6), (6, 7), (7, 8), (2, 9), (9, 10), (2, 11)]
    children = _chain_children(parent_pairs)
    return OrderedTree(g, "0", children, "generic")


PINNED_TREES = {
    ("K33", 2): k33_pinned_tree,
    ("Theta4", 3): theta4_pinned_tree,
    ("K5", 4): k5_pinned_tree,
    ("K4", 3): k4_pinned_tree,
    ("FigB3n3", 3): fig_b3n3_tree,
}


def pinned_tree(name: str, n: int) -> OrderedTree | None:
    fn = PINNED_TREES.get((name, n))
    return fn() if fn else None

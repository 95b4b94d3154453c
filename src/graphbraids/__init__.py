"""Homology and presentations of graph braid groups.

Two independent routes to H1 of the n-strand braid group of a graph: a
discrete Morse complex reduced by exact integer linear algebra, and closed
formulas driven by cut-vertex / 2-cut / triconnected decompositions.  The
package also emits and simplifies group presentations of these braid groups.
"""

from .graphs import Graph, build_graph, subdivide, betti1, is_planar
from .trees import OrderedTree, choose_tree_and_order, verify_conditions
from .homology import AbelianGroup, homology, smith_normal_form
from .morse import build_morse_complex
from .decompose import h1_formula, beta2_formula, invariant_bundle

__all__ = [
    "Graph", "build_graph", "subdivide", "betti1",
    "OrderedTree", "choose_tree_and_order", "verify_conditions",
    "AbelianGroup", "homology", "smith_normal_form",
    "build_morse_complex",
    "h1_formula", "beta2_formula", "invariant_bundle", "is_planar",
]

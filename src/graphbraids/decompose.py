"""The closed-form route: graph decompositions and the homology formulas.

A connected graph splits at cut vertices into biconnected pieces; each
biconnected piece splits along 2-cuts (adding virtual edges) into pieces
that are topologically triconnected or circles.  The first homology of the
braid group then reads off the decomposition census.  The blocks come from
one pass of `graphs.blocks`, and the cut vertices with their component
counts mu(x) are read off them.  Each triconnected piece counts toward N3
or N3' by `graphs.is_planar` (re-exported here), which decides from edge
and valency counts and asks networkx only about the pieces they leave open.
"""

from __future__ import annotations

from math import comb

from .graphs import (Edge, Graph, GraphError, betti1, blocks, components,
                     cut_vertices, is_planar, subdivide, segments)
from .homology import AbelianGroup


def _ends(edges) -> list:
    """The endpoints of ``edges``, each once, in order of first appearance."""
    vs = []
    seen = set()
    for e in edges:
        for v in (e.u, e.v):
            if v not in seen:
                seen.add(v)
                vs.append(v)
    return vs


def _subgraph(g: Graph, edge_ids) -> Graph:
    """The subgraph of a valid g on ``edge_ids``, which the callers take
    connected (a block), so it is built without re-validation."""
    edges = [g.edge(eid) for eid in edge_ids]
    return Graph._derived(_ends(edges), edges)


def _workable(g: Graph) -> Graph:
    """A copy where every topological edge has length >= 2, so vertex
    components agree with topological components and the graph is simple."""
    if all(len(s) >= 2 for s in segments(g)) and len(g.vertices) > 1:
        return g
    out, _ = subdivide(g, 1, policy=2)
    return out


# ---------------------------------------------------------------------------
# marked decomposition of a biconnected piece

class MarkedComponent:
    def __init__(self, kind: str, planar: bool | None, vertices: list):
        self.kind = kind                # "circle" | "triconnected"
        self.planar = planar
        self.vertices = vertices


class BlockDecomposition:
    def __init__(self):
        self.two_cuts: list = []        # ({x, y}, mu)
        self.leaves: list = []          # MarkedComponent


class DecompositionTree:
    def __init__(self, graph: Graph, cut_vertices: dict, blocks: list,
                 segment_blocks: int):
        self.graph = graph
        self.cut_vertices = cut_vertices
        self.blocks = blocks            # per-block BlockDecomposition
        self.segment_blocks = segment_blocks

    def n3(self) -> int:
        return sum(1 for b in self.blocks for l in b.leaves
                   if l.kind == "triconnected" and l.planar)

    def n3prime(self) -> int:
        return sum(1 for b in self.blocks for l in b.leaves
                   if l.kind == "triconnected" and not l.planar)

    def n2(self) -> int:
        return sum((mu - 1) * (mu - 2) // 2
                   for b in self.blocks for _, mu in b.two_cuts)

    def to_json(self):
        return {
            "cut_vertices": {v: mu for v, mu in sorted(self.cut_vertices.items())},
            "segment_blocks": self.segment_blocks,
            "blocks": [{
                "two_cuts": [{"cut": sorted(c), "mu": mu} for c, mu in b.two_cuts],
                "leaves": [{"kind": l.kind, "planar": l.planar,
                            "essential_vertices": l.vertices} for l in b.leaves],
            } for b in self.blocks],
        }


def marked_decomposition(block: Graph) -> BlockDecomposition:
    """Iterative 2-cut splitting with virtual-edge marking until every piece
    is topologically triconnected or a circle."""
    out = BlockDecomposition()
    fresh = [0]

    def rec(piece: Graph):
        if not piece.essential_vertices():
            out.leaves.append(MarkedComponent("circle", True, []))
            return
        ess = sorted(v for v in piece.vertices if piece.valency(v) >= 3)
        cut = None
        for i in range(len(ess)):
            for j in range(i + 1, len(ess)):
                comps = components(piece, {ess[i], ess[j]})
                mu = len(comps)
                if mu >= 3 or (mu == 2 and all(
                        any(piece.valency(v) >= 3 for v in comp)
                        for comp in comps)):
                    # a two-sided cut must split essential structure on both
                    # sides; peeling a bare arc off makes no progress and
                    # contributes nothing to N2
                    cut = (ess[i], ess[j], mu, comps)
                    break
            if cut:
                break
        if cut is None:
            out.leaves.append(MarkedComponent(
                "triconnected", is_planar(piece), ess))
            return
        x, y, mu, comps = cut
        out.two_cuts.append(((x, y), mu))
        for comp in comps:
            keep = comp | {x, y}
            edges = [e for e in piece.edges
                     if e.u in keep and e.v in keep
                     and (e.u in comp or e.v in comp)]
            # the virtual path x - mid - y, under names the piece does not
            # use; comp is connected and meets both x and y, so the marked
            # piece is connected
            ids = {e.id for e in edges}
            while True:
                fresh[0] += 1
                mid = f"__virt{fresh[0]}"
                virtual = [Edge(f"__ve{fresh[0]}a", x, mid),
                           Edge(f"__ve{fresh[0]}b", mid, y)]
                if mid not in keep and ids.isdisjoint(e.id for e in virtual):
                    break
            rec(Graph._derived(_ends(edges) + [mid], edges + virtual))

    rec(block)
    return out


def decomposition_tree(g: Graph) -> DecompositionTree:
    work = _workable(g)
    edge_blocks = blocks(work)
    decomposed, segments_count = [], 0
    for edge_ids in edge_blocks:
        if len(edge_ids) == 1:
            segments_count += 1
            continue
        decomposed.append(marked_decomposition(_subgraph(work, edge_ids)))
    return DecompositionTree(work, cut_vertices(work, edge_blocks), decomposed,
                             segments_count)


# ---------------------------------------------------------------------------
# the formulas

def N_cut(n: int, mu: int, nu: int) -> int:
    """Free 1-cells lost when splitting at a cut vertex with mu components
    and valency nu."""
    if mu < 1 or nu < mu:
        raise GraphError("need mu >= 1 and nu >= mu")
    return comb(n + mu - 2, n - 1) * (nu - 2) - comb(n + mu - 2, n) - (nu - mu - 1)


class InvariantBundle:
    def __init__(self, beta1: int, n1: int, n2: int, n3: int, n3prime: int,
                 n: int):
        self.beta1 = beta1
        self.n1 = n1
        self.n2 = n2
        self.n3 = n3
        self.n3prime = n3prime
        self.n = n

    def to_json(self):
        return {"beta1": self.beta1, "N1": self.n1, "N2": self.n2,
                "N3": self.n3, "N3prime": self.n3prime, "n": self.n}


def invariant_bundle(g: Graph, n: int,
                     tree: DecompositionTree | None = None) -> InvariantBundle:
    if n < 2:
        raise GraphError("the decomposition invariants need braid index >= 2")
    tree = tree or decomposition_tree(g)
    work = tree.graph
    n1 = sum(N_cut(n, mu, work.valency(x)) for x, mu in tree.cut_vertices.items())
    return InvariantBundle(betti1(g), n1, tree.n2(), tree.n3(), tree.n3prime(), n)


def h1_formula(g: Graph, n: int, flavor: str = "B",
               bundle: InvariantBundle | None = None) -> AbelianGroup:
    """H1(B_n) or H1(P_2) from the decomposition census."""
    if n < 1:
        raise GraphError("braid index must be >= 1")
    if n == 1:
        return AbelianGroup(betti1(g))
    if flavor == "P2" and n != 2:
        raise GraphError("the pure-braid formula is for n = 2 only")
    b = bundle or invariant_bundle(g, n)
    if flavor == "B":
        return AbelianGroup(b.n1 + b.n2 + b.n3 + b.beta1, (2,) * b.n3prime)
    if flavor == "P2":
        if b.beta1 == 0 and all(g.valency(v) <= 2 for v in g.vertices):
            # a topological segment: the ordered 2-point space falls into
            # two contractible pieces and the count below does not apply
            return AbelianGroup(0)
        return AbelianGroup(2 * b.n1 + 2 * b.n2 + 2 * b.n3 + 2 * b.beta1
                            + b.n3prime - 1)
    raise GraphError(f"unknown flavor {flavor!r}")


def _valency_sum(g: Graph) -> int:
    return sum((g.valency(v) - 1) * (g.valency(v) - 2) for v in g.vertices)


def beta2_formula(g: Graph, flavor: str = "B2") -> int:
    """Second Betti numbers of the 2-strand configuration spaces.

    The B2 value follows the Euler-characteristic derivation
    beta2 = beta1(B_2) - beta1 - (1/2) sum (nu-1)(nu-2) + (1/2) beta1 (beta1-1);
    the printed closed form carries a stray "+2" that contradicts both the
    derivation and the direct computations, so it is not used.  The
    derivation needs UD_2 nonempty; on one vertex it is empty, and beta2 is 0.
    """
    if len(g.vertices) < 2 and flavor in ("B2", "P2"):
        return 0
    b = invariant_bundle(g, 2)
    vsum = _valency_sum(g)
    if flavor == "B2":
        return (b.n1 + b.n2 + b.n3 - vsum // 2
                + b.beta1 * (b.beta1 - 1) // 2)
    if flavor == "P2":
        return (2 * b.n1 + 2 * b.n2 + 2 * b.n3 + b.n3prime
                + b.beta1 * (b.beta1 - 1) - vsum)
    raise GraphError(f"unknown flavor {flavor!r}")


def classify_beta1_characterizations(g: Graph, tree: DecompositionTree) -> dict:
    """The planar/non-planar characterizations of beta1(P2) = 2 beta1 (+1),
    read off g's decomposition tree."""
    b = invariant_bundle(g, 2, tree)
    planar = is_planar(g)
    beta1_p2 = h1_formula(g, 2, "P2", bundle=b).rank
    plus_one = beta1_p2 == 2 * b.beta1 + 1
    equal = beta1_p2 == 2 * b.beta1
    case = None
    if b.n3prime == 0 and b.n1 + b.n2 + b.n3 == 1:
        case = (b.n1, b.n2, b.n3)
    return {
        "planar": planar,
        "beta1": b.beta1,
        "beta1_P2": beta1_p2,
        "plus_one_holds": plus_one,
        "equality_holds": equal,
        "case": case,
        "planar_characterization_applies": planar and plus_one,
        "nonplanar_simple_triconnected":
            (not planar) and b.n1 == 0 and b.n2 == 0 and b.n3 == 0
            and b.n3prime == 1,
    }

"""Finite connected multigraphs, suitable subdivision, and basic invariants.

Vertices and edges carry opaque string ids.  Multi-edges are allowed, loops
are not: a loop must be subdivided by the caller before construction.
Graphs are immutable after construction and safe to share.  `Graph`
validates every input; the graphs the package derives from a valid graph
(a subdivision, a block, a marked 2-cut piece) are built by the private
`Graph._derived`, which skips the checks that hold by construction.
`segments` computes a graph's topological segments the first time they
are asked for and keeps them on the graph, immutable.

`blocks` is the package's one block (biconnected component) routine: the
bridges, cut vertices and component counts mu(x) used by tree choice and
by the formula route all come from it.

`is_planar` answers from counts where Kuratowski's theorem or Euler's edge
bound decides: fewer than six vertices of valency >= 3 and fewer than five
of valency >= 4 leave no room for a subdivided K33 or K5, and a smoothed
graph with too many edges for its vertices cannot be embedded.  Only the
inputs the counts leave open go to `rotation_system`, the one conversion to
networkx, which also gives the planar embeddings of planar-mode trees.
networkx is imported there, when first needed, not when the package loads.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property


class GraphError(ValueError):
    pass


class Edge(namedtuple("Edge", "id u v")):
    __slots__ = ()

    def endpoints(self):
        return (self.u, self.v)

    def other(self, x: str) -> str:
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise KeyError(x)


class Graph:
    """A finite connected multigraph without loops."""

    def __init__(self, vertices, edges):
        vertices = tuple(str(v) for v in vertices)
        if not vertices:
            raise GraphError("graph has no vertices")
        if len(set(vertices)) != len(vertices):
            raise GraphError("duplicate vertex ids")
        norm = []
        seen_ids = set()
        for e in edges:
            if isinstance(e, Edge):
                eid, u, v = e.id, e.u, e.v
            elif len(e) == 3:
                eid, u, v = e
            else:
                u, v = e
                eid = f"e{len(norm)}"
            # an Edge of str fields is kept, so subgraphs share their edges
            if not (isinstance(e, Edge)
                    and type(eid) is type(u) is type(v) is str):
                eid, u, v = str(eid), str(u), str(v)
                e = Edge(eid, u, v)
            if eid in seen_ids:
                raise GraphError(f"duplicate edge id {eid!r}")
            seen_ids.add(eid)
            if u == v:
                raise GraphError(
                    f"loop edge {eid!r} at {u!r}; subdivide loops before building"
                )
            norm.append(e)
        vset = set(vertices)
        for e in norm:
            if e.u not in vset or e.v not in vset:
                raise GraphError(f"edge {e.id!r} references unknown vertex")
        self._index(vertices, tuple(norm))
        if len(components(self)) != 1:
            raise GraphError("graph is not connected")

    @classmethod
    def _derived(cls, vertices, edges) -> Graph:
        """A graph the package derives from a valid one (a subdivision, a
        block, a marked piece), built without validation: ``edges`` are
        `Edge` objects with distinct ids, no loops and endpoints among the
        distinct ``vertices``, and the graph is connected, by construction
        of the caller."""
        g = cls.__new__(cls)
        g._index(tuple(vertices), tuple(edges))
        return g

    def _index(self, vertices: tuple, edges: tuple) -> None:
        self.vertices = vertices
        self.edges = edges
        adjacency: dict[str, list[str]] = {v: [] for v in vertices}
        for e in edges:
            adjacency[e.u].append(e.id)
            adjacency[e.v].append(e.id)
        self.adjacency = {v: tuple(ids) for v, ids in adjacency.items()}
        self._edge_by_id = {e.id: e for e in edges}

    @cached_property
    def _segments(self) -> tuple:
        return _find_segments(self)

    def edge(self, eid: str) -> Edge:
        return self._edge_by_id[eid]

    def valency(self, v: str) -> int:
        return len(self.adjacency[v])

    def essential_vertices(self):
        """Vertices of valency != 2 (branch points and tips)."""
        return [v for v in self.vertices if self.valency(v) != 2]

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def betti1(g: Graph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    return len(g.edges) - len(g.vertices) + 1


def components(g: Graph, removed=frozenset()) -> list[set[str]]:
    """The vertex sets of the components of g minus the vertices
    ``removed``, each found from its first vertex in ``g.vertices``."""
    seen = set(removed)
    out = []
    for start in g.vertices:
        if start in seen:
            continue
        seen.add(start)
        comp, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for eid in g.adjacency[v]:
                w = g.edge(eid).other(v)
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        out.append(comp)
    return out


# ---------------------------------------------------------------------------
# blocks and planarity

def blocks(g: Graph, alive=None) -> list[list[str]]:
    """Edge-id lists of the blocks (maximal biconnected subgraphs and
    bridges) of the spanning subgraph on the edge ids ``alive`` (all edges
    by default), by the low-link DFS of Hopcroft and Tarjan from
    ``g.vertices[0]``.  A block is listed when the DFS finishes it, its
    edges in reverse discovery order.  The DFS skips only the edge it came
    in by, so parallel edges share a block: the bridges are exactly the
    one-edge blocks.  In a connected graph the blocks through a vertex x
    number the components of g - x."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack_edges: list[str] = []
    out: list[list[str]] = []
    root = g.vertices[0]
    index[root] = low[root] = 0
    stack = [(root, None, iter(g.adjacency[root]))]
    while stack:
        v, in_eid, it = stack[-1]
        advanced = False
        for eid in it:
            if eid == in_eid or (alive is not None and eid not in alive):
                continue
            w = g.edge(eid).other(v)
            if w not in index:
                stack_edges.append(eid)
                index[w] = low[w] = len(index)
                stack.append((w, eid, iter(g.adjacency[w])))
                advanced = True
                break
            elif index[w] < index[v]:
                stack_edges.append(eid)
                low[v] = min(low[v], index[w])
        if not advanced:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    block = []
                    while stack_edges:
                        eid = stack_edges.pop()
                        block.append(eid)
                        if eid == in_eid:
                            break
                    out.append(block)
    return out


def cut_vertices(g: Graph, edge_blocks) -> dict[str, int]:
    """All 1-cuts with their component count mu(x), in vertex order: in a
    connected graph mu(x) is the number of blocks through x, counted here
    over ``edge_blocks``, the output of ``blocks(g)``."""
    through: dict[str, int] = {}
    for block in edge_blocks:
        for v in {x for eid in block for x in g.edge(eid).endpoints()}:
            through[v] = through.get(v, 0) + 1
    return {v: through[v] for v in g.vertices if through.get(v, 0) >= 2}


def rotation_system(g: Graph) -> dict[str, list[str]] | None:
    """The clockwise neighbour order around each vertex in a planar
    embedding of the underlying simple graph, or None when it is not
    planar (parallel edges do not affect planarity)."""
    import networkx as nx

    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from((e.u, e.v) for e in g.edges)
    ok, emb = nx.check_planarity(ng)
    if not ok:
        return None
    return {v: list(emb.neighbors_cw_order(v)) for v in g.vertices}


def planarity_from_counts(g: Graph) -> bool | None:
    """Planarity where counts decide it, else None.

    Planar when fewer than 6 vertices have valency >= 3 and fewer than 5
    have valency >= 4: a subdivided K33 needs six branch vertices and a
    subdivided K5 five of valency >= 4 (multigraph valency only
    over-counts).  Non-planar when the smoothed simple graph S, one vertex
    per segment end and one edge per pair of distinct ends joined by a
    segment, has V >= 3 vertices and E > 3V - 6 edges, or no triangle and
    E > 2V - 4 (Euler's bounds): S is a subgraph of a graph homeomorphic
    to g."""
    branch = [v for v in g.vertices if g.valency(v) >= 3]
    if len(branch) < 6 and sum(g.valency(v) >= 4 for v in branch) < 5:
        return True
    adj: dict[str, set[str]] = {}
    for s in segments(g):
        if s.u != s.v:
            adj.setdefault(s.u, set()).add(s.v)
            adj.setdefault(s.v, set()).add(s.u)
    nv = len(adj)
    ne = sum(map(len, adj.values())) // 2
    if nv >= 3 and (ne > 3 * nv - 6 or (ne > 2 * nv - 4 and not any(
            adj[a] & adj[b] for a in adj for b in adj[a]))):
        return False
    return None


def is_planar(g: Graph) -> bool:
    """Planarity of the underlying simple graph (parallel edges are
    harmless): from counts where they decide, else from networkx."""
    decided = planarity_from_counts(g)
    if decided is not None:
        return decided
    return rotation_system(g) is not None


# ---------------------------------------------------------------------------
# topological segments

class Segment(namedtuple("Segment", "u v edge_ids inner")):
    """Maximal path whose interior vertices all have valency 2.

    ``u == v`` means the segment closes up into a cycle attached at ``u``;
    a graph that is itself a topological circle yields one such segment,
    anchored at its smallest vertex.  ``edge_ids`` and ``inner`` are tuples
    of ids.  ``len`` is the edge count, so ``_make`` and ``_replace``, which
    read ``len``, must not be called on a segment.
    """

    __slots__ = ()

    def __len__(self):
        return len(self.edge_ids)


def segments(g: Graph) -> tuple[Segment, ...]:
    """Decompose the graph into topological segments between essential
    vertices.  Computed the first time a graph is asked, and kept on it:
    graphs are immutable, and so are the tuple and its segments."""
    return g._segments


def _find_segments(g: Graph) -> tuple[Segment, ...]:
    ess = set(g.essential_vertices())
    segs: list[Segment] = []
    used: set[str] = set()
    if not ess:
        # a topological circle: walk its one segment from the smallest vertex
        ess = {min(g.vertices)}
    for v in sorted(ess):
        for eid in g.adjacency[v]:
            if eid in used:
                continue
            path, inner = [eid], []
            cur = g.edge(eid).other(v)
            while cur not in ess:
                inner.append(cur)
                nxt = next(i for i in g.adjacency[cur] if i != path[-1])
                path.append(nxt)
                cur = g.edge(nxt).other(cur)
            used.update(path)
            segs.append(Segment(v, cur, tuple(path), tuple(inner)))
    segs.sort(key=lambda s: (s.u, s.v, s.edge_ids))
    return tuple(segs)


# ---------------------------------------------------------------------------
# subdivision

class SubdivisionRecord:
    """Maps each original edge id to its replacement path after subdivision
    (``replacements``) and to the vertices inserted along it (``inserted``)."""

    def __init__(self, replacements=None, inserted=None):
        self.replacements: dict[str, list[str]] = (
            {} if replacements is None else replacements)
        self.inserted: dict[str, list[str]] = {} if inserted is None else inserted


def is_suitably_subdivided(g: Graph, n: int, strict: bool = False) -> bool:
    """Path rule: segments have >= n-1 edges (>= 2 when strict); cycle rule:
    simple cycles have >= n+1 edges."""
    if n <= 1:
        return True
    segs = segments(g)
    floor = max(n - 1, 2) if strict else n - 1
    for s in segs:
        if s.u == s.v:
            if len(s) < n + 1:
                return False
        elif len(s) < floor:
            return False
    by_pair: dict[tuple[str, str], list[int]] = {}
    for s in segs:
        if s.u != s.v:
            by_pair.setdefault(tuple(sorted((s.u, s.v))), []).append(len(s))
    for lens in by_pair.values():
        lens.sort()
        if len(lens) >= 2 and lens[0] + lens[1] < n + 1:
            return False
    return True


def _split_edges(g: Graph, pieces: dict, tag: str):
    """(vertices, edges, record) of g with each edge e cut into
    ``pieces[e.id]`` edges (at least one): inner vertices "<e.id>.<i>" and
    pieces "<e.id>:<i>", each name followed by ``tag``."""
    record = SubdivisionRecord()
    vertices = list(g.vertices)
    edges = []
    for e in g.edges:
        k = max(1, pieces.get(e.id, 1))
        if k == 1:
            edges.append(e)
            record.replacements[e.id] = [e.id]
            record.inserted[e.id] = []
            continue
        chain = [e.u] + [f"{e.id}.{i}{tag}" for i in range(1, k)] + [e.v]
        vertices.extend(chain[1:-1])
        ids = [f"{e.id}:{i}{tag}" for i in range(k)]
        for i in range(k):
            edges.append(Edge(ids[i], chain[i], chain[i + 1]))
        record.replacements[e.id] = ids
        record.inserted[e.id] = chain[1:-1]
    return vertices, edges, record


def subdivide(g: Graph, n: int, policy="auto"):
    """Subdivide so the discrete configuration space of n points is valid.

    policy: "auto" (minimal per-segment: every segment gets at least
    max(n - 1, 2) edges, so essential-to-essential paths have >= 2 edges
    even at n <= 2 and ordered trees get a simple graph), "strict" (another
    name for "auto"), "uniform" (every edge into n+1 pieces), "none" (verify
    only), or an integer k (every edge into k pieces, then verify).
    Refuses, before building it, an output with more than `FAMILY_CAP`
    vertices or edges.
    """
    if n < 1:
        raise GraphError("braid index must be >= 1")
    if policy == "none":
        if not is_suitably_subdivided(g, n):
            raise GraphError("graph is not suitably subdivided and policy is 'none'")
        return g, SubdivisionRecord({e.id: [e.id] for e in g.edges}, {})
    if isinstance(policy, int):
        pieces = {e.id: policy for e in g.edges}
    elif policy == "uniform":
        pieces = {e.id: n + 1 for e in g.edges}
    elif policy in ("auto", "strict"):
        # every segment gets at least max(n - 1, 2) edges, so any two
        # parallel segments already have the n + 1 the pair rule asks for
        floor = max(n - 1, 2)
        cycle = max(n, 2) + 1  # a cycle of n + 1 edges, and simple
        pieces = {}
        for s in segments(g):
            need, have = max(len(s), cycle if s.u == s.v else floor), len(s)
            # spread the extra edges over the segment's pieces
            base, rem = divmod(need, have)
            for i, eid in enumerate(s.edge_ids):
                pieces[eid] = base + (1 if i < rem else 0)
    else:
        raise GraphError(f"unknown subdivision policy {policy!r}")

    # the output's size, read off the pieces before any name is made
    ne = sum(max(1, pieces.get(e.id, 1)) for e in g.edges)
    nv = len(g.vertices) + ne - len(g.edges)
    if max(nv, ne) > FAMILY_CAP:
        raise GraphError(f"the subdivided graph would have {nv:,} vertices "
                         f"and {ne:,} edges; the limit is {FAMILY_CAP:,} "
                         f"of each")
    vertices, edges, record = _split_edges(g, pieces, "")
    # the new names are distinct, as an id ends at its last separator, so
    # only a name the graph keeps can clash with them; then every new name
    # takes a suffix ~j that ends none of the graph's names
    if (len(set(vertices)) != len(vertices)
            or len({e.id for e in edges}) != len(edges)):
        ends = [x.rpartition("~") for x in g.vertices]
        ends += [e.id.rpartition("~") for e in g.edges]
        j = 1 + max((int(tail) for _, sep, tail in ends
                     if sep and tail.isdecimal()), default=0)
        vertices, edges, record = _split_edges(g, pieces, f"~{j}")
    out = Graph._derived(vertices, edges)
    if not is_suitably_subdivided(out, n, strict=(policy == "strict")):
        raise GraphError("subdivision policy produced an unsuitable graph")
    return out, record


# ---------------------------------------------------------------------------
# construction from descriptions and built-in names

def complete_graph(m: int) -> Graph:
    vs = [str(i) for i in range(m)]
    es = [(f"{i}-{j}", str(i), str(j)) for i in range(m) for j in range(i + 1, m)]
    return Graph(vs, es)


def complete_bipartite(m: int, n: int) -> Graph:
    left = [f"a{i}" for i in range(m)]
    right = [f"b{j}" for j in range(n)]
    es = [(f"{u}-{v}", u, v) for u in left for v in right]
    return Graph(left + right, es)


def theta_graph(m: int) -> Graph:
    """Two vertices joined by m parallel edges."""
    return Graph(["u", "v"], [(f"p{i}", "u", "v") for i in range(m)])


def _fig_b3n3() -> Graph:
    """Wedge at A of two circles and a theta: one essential cut vertex of
    valency 7, already suitably subdivided for n = 3 (12 vertices)."""
    vs = [str(i) for i in range(12)]
    es = [("0", "0", "1"), ("1", "1", "2"), ("2", "2", "3"), ("3", "3", "4"),
          ("4", "4", "5"), ("5", "2", "6"), ("6", "6", "7"), ("7", "7", "8"),
          ("8", "2", "9"), ("9", "9", "10"), ("10", "2", "11"),
          ("d0", "0", "10"), ("d1", "2", "5"), ("d2", "2", "8"), ("d3", "4", "11")]
    return Graph(vs, es)


def _fig_counterexample() -> Graph:
    """Non-planar graph with beta1(P2) = 2*beta1 + 1: two copies of K5 joined
    by two disjoint paths attached at subdivided edge midpoints."""
    vs, es = [], []
    for tag in ("a", "b"):
        vs += [f"{tag}{i}" for i in range(5)] + [f"{tag}x", f"{tag}y"]
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for i, j in pairs:
            if (i, j) == (0, 1):
                es += [(f"{tag}01x", f"{tag}0", f"{tag}x"),
                       (f"{tag}01y", f"{tag}x", f"{tag}1")]
            elif (i, j) == (2, 3):
                es += [(f"{tag}23x", f"{tag}2", f"{tag}y"),
                       (f"{tag}23y", f"{tag}y", f"{tag}3")]
            else:
                es.append((f"{tag}{i}{j}", f"{tag}{i}", f"{tag}{j}"))
    es += [("link1", "ax", "bx"), ("link2", "ay", "by")]
    return Graph(vs, es)


def _dumbbell() -> Graph:
    """Two triangles joined by a bridge; the smallest graph with two disjoint
    cycles (handy for commutator presentations)."""
    vs = ["l0", "l1", "l2", "r0", "r1", "r2"]
    es = [("la", "l0", "l1"), ("lb", "l1", "l2"), ("lc", "l2", "l0"),
          ("ra", "r0", "r1"), ("rb", "r1", "r2"), ("rc", "r2", "r0"),
          ("mid", "l0", "r0")]
    return Graph(vs, es)


BUILTIN_GRAPHS = {
    "K4": lambda: complete_graph(4),
    "K5": lambda: complete_graph(5),
    "K33": lambda: complete_bipartite(3, 3),
    "Theta3": lambda: theta_graph(3),
    "Theta4": lambda: theta_graph(4),
    "Theta5": lambda: theta_graph(5),
    "FigB3n3": _fig_b3n3,
    "FigCounterEx": _fig_counterexample,
    "Dumbbell": _dumbbell,
}


# parametrized families: (prefix, usage, {argument count: (constructor,
# (vertex count, edge count) of the graph it builds)})
FAMILIES = (("K(", "K(m) or K(m,n) with integers m, n",
             {1: (complete_graph, lambda m: (m, m * (m - 1) // 2)),
              2: (complete_bipartite, lambda m, n: (m + n, m * n))}),
            ("Theta(", "Theta(m) with an integer m",
             {1: (theta_graph, lambda m: (2, m))}))
# a family member, or a subdivided graph, is refused before it is built
# when it has more vertices or edges than this, the size of the default
# cell cap
FAMILY_CAP = 1_000_000


def build_graph(spec) -> Graph:
    """Build a validated Graph from a name, parametrized family, JSON
    document, edge list, or edge-list text."""
    if isinstance(spec, Graph):
        return spec
    if isinstance(spec, str):
        name = spec.strip()
        if name in BUILTIN_GRAPHS:
            return BUILTIN_GRAPHS[name]()
        for prefix, usage, makers in FAMILIES:
            if name.startswith(prefix) and name.endswith(")"):
                try:
                    args = [int(a) for a in name[len(prefix):-1].split(",")]
                except ValueError:
                    args = []
                if len(args) not in makers:
                    raise GraphError(f"bad graph family {name!r}: expected {usage}")
                for param, a in zip("mn", args):
                    if a < 0:
                        raise GraphError(f"graph family {name!r}: the "
                                         f"parameter {param} = {a} is negative")
                make, size = makers[len(args)]
                nv, ne = size(*args)
                if nv == 0:
                    raise GraphError(f"graph family {name!r} has no vertices")
                if max(nv, ne) > FAMILY_CAP:
                    raise GraphError(
                        f"graph family {name!r} has {nv:,} vertices and {ne:,} "
                        f"edges; the limit is {FAMILY_CAP:,} of each")
                return make(*args)
        if name.startswith("{"):
            try:
                doc = json.loads(name)
            except json.JSONDecodeError as exc:
                raise GraphError(f"malformed JSON graph: {exc}") from None
            return build_graph(doc)
        pairs = [ln.split() for ln in name.splitlines() if ln.split()]
        if pairs and all(len(p) == 2 for p in pairs):
            return build_graph([tuple(p) for p in pairs])
        raise GraphError(f"unknown graph name {name!r}")
    if isinstance(spec, dict):
        if "vertices" not in spec or "edges" not in spec:
            raise GraphError("JSON graph needs 'vertices' and 'edges'")
        vertices, edges = spec["vertices"], spec["edges"]
        if not isinstance(vertices, (list, tuple)) or not isinstance(edges, (list, tuple)):
            raise GraphError("JSON graph 'vertices' and 'edges' must be lists")
        for e in edges:
            if not isinstance(e, (list, tuple)) or len(e) not in (2, 3):
                raise GraphError(f"JSON edge {e!r} is neither [u, v] nor [id, u, v]")
        return Graph(vertices, [tuple(e) for e in edges])
    if isinstance(spec, (list, tuple)):
        vs = []
        seen = set()
        for pair in spec:
            for v in pair[:2] if len(pair) == 2 else pair[1:]:
                if v not in seen:
                    seen.add(v)
                    vs.append(v)
        return Graph(vs, list(spec))
    raise GraphError(f"cannot build a graph from {type(spec).__name__}")


def graph_to_json(g: Graph) -> dict:
    return {"vertices": list(g.vertices),
            "edges": [[e.id, e.u, e.v] for e in g.edges]}

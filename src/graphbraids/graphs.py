"""Finite connected multigraphs, suitable subdivision, and basic invariants.

Vertices and edges carry opaque string ids.  Multi-edges are allowed, loops
are not: a loop must be subdivided by the caller before construction.
Graphs are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str

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
            eid, u, v = str(eid), str(u), str(v)
            if eid in seen_ids:
                raise GraphError(f"duplicate edge id {eid!r}")
            seen_ids.add(eid)
            if u == v:
                raise GraphError(
                    f"loop edge {eid!r} at {u!r}; subdivide loops before building"
                )
            norm.append(Edge(eid, u, v))
        self.vertices = vertices
        self.edges = tuple(norm)
        vset = set(vertices)
        adjacency: dict[str, list[str]] = {v: [] for v in vertices}
        for e in self.edges:
            if e.u not in vset or e.v not in vset:
                raise GraphError(f"edge {e.id!r} references unknown vertex")
            adjacency[e.u].append(e.id)
            adjacency[e.v].append(e.id)
        self.adjacency = {v: tuple(ids) for v, ids in adjacency.items()}
        self._edge_by_id = {e.id: e for e in self.edges}
        if not self._is_connected():
            raise GraphError("graph is not connected")

    def _is_connected(self) -> bool:
        if not self.vertices:
            return False
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for eid in self.adjacency[v]:
                w = self._edge_by_id[eid].other(v)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def edge(self, eid: str) -> Edge:
        return self._edge_by_id[eid]

    def valency(self, v: str) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: str):
        return [self._edge_by_id[eid].other(v) for eid in self.adjacency[v]]

    def essential_vertices(self):
        """Vertices of valency != 2 (branch points and tips)."""
        return [v for v in self.vertices if self.valency(v) != 2]

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def betti1(g: Graph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    return len(g.edges) - len(g.vertices) + 1


# ---------------------------------------------------------------------------
# topological segments

@dataclass
class Segment:
    """Maximal path whose interior vertices all have valency 2.

    ``u == v`` means the segment closes up into a cycle attached at ``u``;
    a graph that is itself a topological circle yields one such segment with
    an arbitrary anchor vertex.
    """

    u: str
    v: str
    edge_ids: list[str]
    inner: list[str]

    def __len__(self):
        return len(self.edge_ids)


def segments(g: Graph) -> list[Segment]:
    """Decompose the graph into topological segments between essential vertices."""
    ess = set(g.essential_vertices())
    segs: list[Segment] = []
    used: set[str] = set()
    if not ess:
        # topological circle: walk the unique cycle from the smallest vertex
        if not g.edges:
            return []
        start = min(g.vertices)
        eid = g.adjacency[start][0]
        path, inner, cur = [eid], [], g.edge(eid).other(start)
        while cur != start:
            inner.append(cur)
            nxt = next(i for i in g.adjacency[cur] if i != path[-1])
            path.append(nxt)
            cur = g.edge(nxt).other(cur)
        return [Segment(start, start, path, inner)]
    for v in sorted(ess):
        for eid in g.adjacency[v]:
            if eid in used:
                continue
            path, inner = [eid], []
            prev, cur = v, g.edge(eid).other(v)
            while cur not in ess:
                inner.append(cur)
                nxt = next(i for i in g.adjacency[cur] if i != path[-1])
                path.append(nxt)
                prev, cur = cur, g.edge(nxt).other(cur)
            used.update(path)
            segs.append(Segment(v, cur, path, inner))
    segs.sort(key=lambda s: (s.u, s.v, s.edge_ids))
    return segs


# ---------------------------------------------------------------------------
# subdivision

@dataclass
class SubdivisionRecord:
    """Maps each original edge id to its replacement path after subdivision."""

    replacements: dict[str, list[str]] = field(default_factory=dict)
    inserted: dict[str, list[str]] = field(default_factory=dict)

    def trivial(self) -> bool:
        return all(len(v) == 1 for v in self.replacements.values())


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


def subdivide(g: Graph, n: int, policy="auto"):
    """Subdivide so the discrete configuration space of n points is valid.

    policy: "auto" (minimal per-segment), "strict" (auto plus the two-edge
    rule used for n = 2), "uniform" (every edge into n+1 pieces), "none"
    (verify only), or an integer k (every edge into k pieces, then verify).
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
        floor = max(n - 1, 1)
        if policy == "strict" or n <= 2:
            # two-edge rule for n = 2: essential-to-essential paths get >= 2
            # edges; one point gets the same, since ordered trees need a
            # simple graph
            floor = max(floor, 2)
        cycle = max(n, 2) + 1  # a cycle of n + 1 edges, and simple
        targets: dict[str, int] = {}
        segs = segments(g)
        by_pair: dict[tuple[str, str], list[Segment]] = {}
        for s in segs:
            targets[id(s)] = max(len(s), floor)
            if s.u == s.v:
                targets[id(s)] = max(targets[id(s)], cycle)
            else:
                by_pair.setdefault(tuple(sorted((s.u, s.v))), []).append(s)
        for fam in by_pair.values():
            if len(fam) >= 2:
                fam.sort(key=lambda s: (targets[id(s)], s.edge_ids))
                while targets[id(fam[0])] + targets[id(fam[1])] < n + 1:
                    targets[id(fam[0])] += 1
        pieces = {}
        for s in segs:
            need, have = targets[id(s)], len(s)
            # spread the extra edges over the segment's pieces
            base, rem = divmod(need, have)
            for i, eid in enumerate(s.edge_ids):
                pieces[eid] = base + (1 if i < rem else 0)
    else:
        raise GraphError(f"unknown subdivision policy {policy!r}")

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
        chain = [e.u] + [f"{e.id}.{i}" for i in range(1, k)] + [e.v]
        vertices.extend(chain[1:-1])
        ids = [f"{e.id}:{i}" for i in range(k)]
        for i in range(k):
            edges.append(Edge(ids[i], chain[i], chain[i + 1]))
        record.replacements[e.id] = ids
        record.inserted[e.id] = chain[1:-1]
    out = Graph(vertices, edges)
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


def build_graph(spec) -> Graph:
    """Build a validated Graph from a name, parametrized family, JSON
    document, edge list, or edge-list text."""
    if isinstance(spec, Graph):
        return spec
    if isinstance(spec, str):
        name = spec.strip()
        if name in BUILTIN_GRAPHS:
            return BUILTIN_GRAPHS[name]()
        for prefix, fn in (("K(", None), ("Theta(", theta_graph)):
            if name.startswith(prefix) and name.endswith(")"):
                args = [int(a) for a in name[len(prefix):-1].split(",")]
                if fn is theta_graph:
                    return theta_graph(*args)
                return complete_graph(*args) if len(args) == 1 else complete_bipartite(*args)
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
        return Graph(spec["vertices"], [tuple(e) for e in spec["edges"]])
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

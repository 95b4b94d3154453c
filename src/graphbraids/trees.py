"""Maximal trees, planar-style vertex orders, and the T1-T4 conditions.

An OrderedTree numbers the vertices 0..|V|-1 by a clockwise traversal of a
regular neighborhood of an embedded spanning tree.  Every edge is oriented
with tau(e) < iota(e) under that order, and navigation (meet, branch
numbers) is answered from subtree intervals.

The tree owns its separation census, ``sep_classes``: which deleted edges
each vertex separates, and on which of its branches.  A vertex separates a
deleted edge exactly when it lies strictly inside the edge's tree path, so
the census is built once, by walking each deleted edge's path; T3, the T3
reordering of branches, the closed boundary formulas and the 1-cell census
read it.  T2 is read off the ancestry instead: a vertex below tau(d)
separates d exactly when tau(d) is not a tree ancestor of iota(d), and the
lowest such vertex is their meet.

Tree choice tries one construction at each base candidate in turn and
keeps the first tree that passes: greedy deletions nearest the base in
generic mode, a walk of the outer face in planar mode (on the embedding,
then on its mirror image).  It takes its bridges and cut vertices from
`graphs.blocks` and, in planar mode, the embedding from
`graphs.rotation_system`, computed once per choice.  Planar mode refuses
a graph the counts of `graphs.planarity_from_counts` or the embedding
show to be non-planar.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from functools import cached_property

from .graphs import (Graph, blocks, cut_vertices, is_suitably_subdivided,
                     planarity_from_counts, rotation_system)


class TreeError(ValueError):
    pass


class ConditionReport:
    def __init__(self, t1: bool, t2: bool, t3: bool, t4: bool | None,
                 witnesses: dict):
        self.t1 = t1
        self.t2 = t2
        self.t3 = t3
        self.t4 = t4
        self.witnesses = witnesses

    def ok(self) -> bool:
        """T1-T3 hold, and T4 too wherever it was checked."""
        return self.t1 and self.t2 and self.t3 and self.t4 is not False


class OrderedTree:
    """A spanning tree with rotation data and the induced vertex order.

    Vertices are referred to by their order numbers; ``ids`` maps numbers
    back to graph vertex ids.  ``children[v]`` lists tree children in branch
    order (branch 1, 2, ...); branch 0 of a vertex points toward the base.
    """

    def __init__(self, graph: Graph, base_id: str, children_ids: dict,
                 mode: str = "generic"):
        self.graph = graph
        self.mode = mode
        nv = len(graph.vertices)
        # clockwise DFS numbering
        order: dict[str, int] = {}
        ids: list[str] = []
        stack = [base_id]
        while stack:
            v = stack.pop()
            order[v] = len(ids)
            ids.append(v)
            for c in reversed(children_ids.get(v, ())):
                stack.append(c)
        if len(ids) != nv:
            raise TreeError("children map does not span the graph")
        self.ids = ids
        self.order = order
        self.parent = [-1] * nv
        self.children = [[] for _ in range(nv)]
        for v, cs in children_ids.items():
            vn = order[v]
            self.children[vn] = [order[c] for c in cs]
            for c in cs:
                self.parent[order[c]] = vn
        # subtree sizes; DFS numbering makes subtrees contiguous intervals
        self.size = [1] * nv
        for v in range(nv - 1, 0, -1):
            self.size[self.parent[v]] += self.size[v]
        tree_pairs = set()
        for v in range(1, nv):
            tree_pairs.add((self.parent[v], v))
        deleted = []
        self._edge_id_of_pair = {}
        for e in graph.edges:
            a, b = order[e.u], order[e.v]
            pair = (a, b) if a < b else (b, a)
            if pair in self._edge_id_of_pair:
                raise TreeError("ordered trees require a simple graph; subdivide first")
            self._edge_id_of_pair[pair] = e.id
            if pair not in tree_pairs:
                deleted.append(pair)
        if len(deleted) != len(graph.edges) - (nv - 1):
            raise TreeError("children map is not a spanning tree of the graph")
        self.deleted = sorted(deleted)
        self.deleted_set = frozenset(deleted)
        self.deleted_index = {d: i + 1 for i, d in enumerate(self.deleted)}
        ess = [v for v in range(nv) if len(self.children[v]) >= 2]
        self.essential_letter = {}
        for i, v in enumerate(ess):
            self.essential_letter[v] = (chr(ord("A") + i) if i < 26 else f"V{v}")

    # -- basic structure ---------------------------------------------------

    @property
    def nv(self) -> int:
        return len(self.ids)

    def is_ancestor(self, a: int, b: int) -> bool:
        """True iff a is an ancestor of b (or equal) in the tree."""
        return a <= b < a + self.size[a]

    def meet(self, v: int, w: int) -> int:
        """First intersection of the tree paths from v and w to the base."""
        while not self.is_ancestor(v, w):
            v = self.parent[v]
        return v

    def branch(self, v: int, w: int) -> int:
        """g(v, w): branch of v along the tree path toward w; 0 means toward
        base.  Children are numbered in branch order and each comes before
        its subtree, so w in v's subtree is on the branch of the last child
        numbered at most w."""
        if v == w:
            raise TreeError("branch(v, v) is undefined")
        if not v < w < v + self.size[v]:
            return 0
        return bisect_right(self.children[v], w)

    def tree_valency(self, v: int) -> int:
        return len(self.children[v]) + (0 if v == 0 else 1)

    def branch_count(self, v: int) -> int:
        return len(self.children[v])

    def all_edge_pairs(self):
        return sorted(self._edge_id_of_pair)

    def stem_length(self) -> int:
        """Edges from the base to the nearest tree vertex of valency >= 3."""
        v, dist = 0, 0
        while len(self.children[v]) == 1:
            v = self.children[v][0]
            dist += 1
            if self.tree_valency(v) >= 3:
                return dist
        return dist if len(self.children[v]) > 1 else self.nv

    @cached_property
    def sep_classes(self) -> dict:
        """The separation census {v: {k: sorted deleted edges}}: v separates
        d when it lies strictly inside d's tree path, and k = g(v, iota(d)),
        0 below the meet on tau(d)'s side.  Vertices separating nothing are
        left out."""
        out: dict[int, dict[int, list]] = {}
        for d in self.deleted:
            a, b = d
            m = self.meet(a, b)
            c = b
            while c != m:  # up from iota(d) to the meet
                v = self.parent[c]
                if v != a:
                    k = self.children[v].index(c) + 1
                    out.setdefault(v, {}).setdefault(k, []).append(d)
                c = v
            v = a
            while v != m and self.parent[v] != m:  # up from tau(d)
                v = self.parent[v]
                out.setdefault(v, {}).setdefault(0, []).append(d)
        return out

    def debug_dump(self) -> str:
        lines = []
        for v in range(self.nv):
            branches = " ".join(str(c) for c in self.children[v])
            lines.append(f"{v} {self.ids[v]} {self.parent[v]} [{branches}]")
        for i, d in enumerate(self.deleted, start=1):
            lines.append(f"d_{i}: {d[0]} {d[1]}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# condition verification

def verify_conditions(t: OrderedTree) -> ConditionReport:
    """Check T1-T3, and T4 exactly when the tree was built in planar mode,
    each with the first witness against it; T2 and T3 read the ancestry and
    the census as the module docstring says."""
    witnesses: dict[str, object] = {}
    t1 = True
    for d in t.deleted:
        if t.graph.valency(t.ids[d[1]]) != 2:
            t1, witnesses["t1"] = False, d
            break
    t2 = True
    for a, b in t.deleted:
        if not t.is_ancestor(a, b):
            t2, witnesses["t2"] = False, ((a, b), t.meet(a, b))
            break
    t3 = True
    for v, classes in sorted(t.sep_classes.items()):
        marked = [k in classes for k in range(1, t.branch_count(v) + 1)]
        if True in marked and False in marked[marked.index(True):]:
            k = marked.index(True)
            t3, witnesses["t3"] = False, (v, marked.index(False, k) + 1, k + 1)
            break
    t4: bool | None = None
    if t.mode == "planar":
        t4 = True
        for d in t.deleted:
            gd = t.branch(d[0], d[1])
            dp = next((dp for dp in t.deleted if dp[0] < d[0]
                       and d[0] not in dp and t.branch(d[0], dp[1]) == gd
                       and not d[1] < dp[1]), None)
            if dp is not None:
                t4, witnesses["t4"] = False, (d, dp)
                break
    return ConditionReport(t1, t2, t3, t4, witnesses)


# ---------------------------------------------------------------------------
# construction

def _base_candidates(g: Graph):
    tips = sorted(v for v in g.vertices if g.valency(v) == 1)
    if tips:
        return tips
    cuts = cut_vertices(g, blocks(g))
    ess = sorted(v for v in g.essential_vertices() if v not in cuts)
    others = sorted(v for v in g.vertices
                    if g.valency(v) == 2 and v not in cuts)
    return ess + others


def _greedy_deletions(g: Graph, base: str):
    """Step II: repeatedly delete an edge nearest the base on a circuit
    nearest the base.  Ties prefer an interior far endpoint, then ids."""
    alive = {e.id for e in g.edges}
    deleted = []
    while len(alive) > len(g.vertices) - 1:
        bridges = {b[0] for b in blocks(g, alive) if len(b) == 1}
        dist = {base: 0}
        q = deque([base])
        while q:
            v = q.popleft()
            for eid in g.adjacency[v]:
                if eid not in alive:
                    continue
                w = g.edge(eid).other(v)
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        best = None
        for eid in alive:
            if eid in bridges:
                continue
            e = g.edge(eid)
            du, dv = dist[e.u], dist[e.v]
            far = e.v if du <= dv else e.u
            key = (min(du, dv), 0 if g.valency(far) == 2 else 1,
                   min(e.u, e.v), max(e.u, e.v), eid)
            if best is None or key < best[0]:
                best = (key, eid)
        if best is None:
            raise TreeError("no deletable edge although cycles remain")
        deleted.append(best[1])
        alive.discard(best[1])
    return deleted


def _rooted_children(g: Graph, base: str, deleted_ids, order_hint=None):
    """Orient the surviving tree away from the base by BFS; the children of
    v are sorted by ``order_hint(parent of v, v, child)`` (the parent of the
    base is None), or by id."""
    removed = set(deleted_ids)
    children: dict[str, list[str]] = {v: [] for v in g.vertices}
    parent = {base: None}
    q = deque([base])
    while q:
        v = q.popleft()
        nbrs = []
        for eid in g.adjacency[v]:
            if eid in removed:
                continue
            w = g.edge(eid).other(v)
            if w not in parent:
                parent[w] = v
                nbrs.append(w)
        if order_hint is not None:
            nbrs.sort(key=lambda w: order_hint(parent[v], v, w))
        else:
            nbrs.sort()
        children[v] = nbrs
        q.extend(nbrs)
    if len(parent) != len(g.vertices):
        raise TreeError("deletions disconnected the graph")
    return children


def _apply_t3(g: Graph, base: str, children: dict, mode: str) -> OrderedTree:
    """Step III: stable-partition each vertex's branches so that branches
    carrying separated deleted edges come last, then renumber."""
    t = OrderedTree(g, base, children, mode)
    moved = False
    new_children = {}
    for v in range(t.nv):
        classes = t.sep_classes.get(v, {})
        branches = enumerate(t.children[v], start=1)
        cs = [c for k, c in sorted(branches, key=lambda kc: kc[0] in classes)]
        moved = moved or cs != t.children[v]
        new_children[t.ids[v]] = [t.ids[c] for c in cs]
    if moved:
        t = OrderedTree(g, base, new_children, mode)
    return t


def choose_tree_and_order(g: Graph, n: int, mode: str = "generic") -> OrderedTree:
    """Choose a maximal tree, embedding, and vertex order satisfying T1-T3
    (mode generic) or T1-T4 (mode planar, planar graphs only).  For n = 1
    the first candidate tree is taken: with one point every spanning tree
    leaves vertex 0 and the deleted edges as the critical cells.  With fewer
    vertices than points (a single vertex, n >= 2) the configuration space
    is empty, so the stem length does not matter."""
    strict = n == 2
    if not is_suitably_subdivided(g, n, strict=strict):
        raise TreeError(
            "graph is not suitably subdivided for braid index "
            f"{n}{' (n=2 needs the two-edge rule)' if strict else ''}")
    if mode == "planar":
        return _choose_planar(g, n)
    if mode != "generic":
        raise TreeError(f"unknown mode {mode!r}")
    last_error = None
    for base in _base_candidates(g):
        children = _rooted_children(g, base, _greedy_deletions(g, base))
        t = _apply_t3(g, base, children, "generic")
        report = verify_conditions(t)
        if n == 1 or (report.ok() and (t.stem_length() >= n - 1
                                       or len(g.vertices) < n)):
            return t
        last_error = report
    raise TreeError(f"could not satisfy T1-T3 on this graph: {last_error}")


# ---------------------------------------------------------------------------
# planar mode

def _trace_face(rot: dict, start):
    """Half-edges of the face containing the half-edge `start`."""
    face = []
    he = start
    while True:
        face.append(he)
        u, v = he
        nbrs = rot[v]
        i = nbrs.index(u)
        he = (v, nbrs[(i - 1) % len(nbrs)])
        if he == start:
            return face


def _choose_planar(g: Graph, n: int) -> OrderedTree:
    """One `_build_planar` per base candidate, on the embedding and then on
    its mirror image.  The mirror matters off subdivided graphs: at n = 1
    an unsubdivided graph may meet T1 in one orientation alone."""
    # the rotation system and the outer-face walk know edges by their ends
    if len({frozenset(e.endpoints()) for e in g.edges}) != len(g.edges):
        raise TreeError("ordered trees require a simple graph; subdivide first")
    # where the counts decide non-planarity, networkx is never loaded
    rotations = None if planarity_from_counts(g) is False else rotation_system(g)
    if rotations is None:
        raise TreeError("planar mode needs a planar graph")
    mirror = {v: ns[::-1] for v, ns in rotations.items()}
    for rot in (rotations, mirror):
        for base in _base_candidates(g):
            try:
                t = _build_planar(g, base, rot)
            except TreeError:
                continue
            if verify_conditions(t).ok() and (t.stem_length() >= n - 1
                                              or len(g.vertices) < n):
                return t
    raise TreeError("could not satisfy T1-T4; is the graph planar and subdivided?")


def _build_planar(g: Graph, base: str, rotations: dict) -> OrderedTree:
    """Delete edges met walking the outer face from the base, then number
    the surviving tree: the base's children in rotation order, every other
    vertex's children counter to the rotation, starting from its parent.
    Faces are walked counter to the rotation too."""
    rot = {v: list(ns) for v, ns in rotations.items()}
    # outer face: a deterministic face through the base (none on a point,
    # which has no edge to delete either)
    outer = []
    for w in rot[base]:
        face = _trace_face(rot, (base, w))
        if (len(face), face) > (len(outer), outer):
            outer = face
    outer_set = set(outer)
    alive = {(min(e.u, e.v), max(e.u, e.v)): e.id for e in g.edges}
    key = lambda u, v: (min(u, v), max(u, v))
    deleted_ids = []
    while len(alive) > len(g.vertices) - 1:
        bridges = {b[0] for b in blocks(g, set(alive.values())) if len(b) == 1}
        # outer is the walk around the outer face from a half-edge at the base
        hit = None
        for he in outer:
            eid = alive.get(key(*he))
            if eid is not None and eid not in bridges:
                hit = he
                break
        if hit is None:
            raise TreeError("outer walk found no circuit edge but cycles remain")
        a, b = hit
        inner = _trace_face(rot, (b, a))
        outer_set.discard((a, b))
        outer_set.update(he for he in inner if he != (b, a))
        deleted_ids.append(alive.pop(key(a, b)))
        rot[a].remove(b)
        rot[b].remove(a)
        start = next((base, w) for w in rot[base] if (base, w) in outer_set)
        outer = _trace_face(rot, start)
        outer_set = set(outer)

    # children counter to the rotation, starting next to the parent
    def hint(p, v, w):
        nbrs = rot[v]
        if p is None:
            return nbrs.index(w)
        i, j = nbrs.index(p), nbrs.index(w)
        return (i - j) % len(nbrs)

    children = _rooted_children(g, base, deleted_ids, hint)
    return _apply_t3(g, base, children, "planar")

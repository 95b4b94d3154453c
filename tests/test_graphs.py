import copy
import pickle
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from graphbraids.corpus import random_topological_graph
from graphbraids import graphs
from graphbraids.decompose import _subgraph, _workable, decomposition_tree
from graphbraids.graphs import (BUILTIN_GRAPHS, Edge, Graph, GraphError,
                                Segment, build_graph, subdivide, betti1,
                                segments, is_suitably_subdivided,
                                graph_to_json, blocks, cut_vertices, is_planar,
                                rotation_system)
from graphbraids.homology import AbelianGroup
from graphbraids.morse import CriticalName, Term


def test_builtin_counts():
    g = build_graph("K33")
    assert len(g.vertices) == 6 and len(g.edges) == 9
    th = build_graph("Theta4")
    assert len(th.vertices) == 2 and len(th.edges) == 4
    assert build_graph("K(3,3)").vertices == g.vertices
    assert len(build_graph("K(5)").edges) == 10


def test_multigraph_allowed_loops_rejected():
    g = build_graph([("a", "b"), ("a", "b")])
    assert len(g.edges) == 2
    with pytest.raises(GraphError, match="loop"):
        build_graph([("a", "a")])
    with pytest.raises(GraphError):
        Graph(["a", "b", "c"], [("e", "a", "b")])  # disconnected
    with pytest.raises(GraphError, match="duplicate"):
        Graph(["a", "b"], [("e", "a", "b"), ("e", "b", "a")])


def test_edges_of_str_fields_are_kept():
    g = build_graph("K33")
    sub = _subgraph(g, [e.id for e in g.edges[1:]])
    assert len(sub.edges) == len(g.edges) - 1
    assert all(a is b for a, b in zip(sub.edges, g.edges[1:]))
    odd = Edge("e", 1, 2)
    h = Graph([1, 2], [odd])
    assert h.edges == (Edge("e", "1", "2"),) and h.edges[0] is not odd
    assert all(type(x) is str for x in (h.edges[0].id, *h.edges[0].endpoints()))
    assert h.edge("e").other("1") == "2"


@pytest.mark.parametrize("vertices, edges, match", [
    (["a", "b"], [Edge("e", "a", "b"), Edge("e", "b", "a")], "duplicate"),
    (["a", "b"], [Edge("e", "a", "b"), Edge("f", "a", "a")], "loop"),
    (["a", "b"], [Edge("e", "a", "b"), Edge("f", "b", "c")], "unknown"),
    (["a", "b", "c"], [Edge("e", "a", "b")], "not connected"),
    (["a", "a"], [Edge("e", "a", "a")], "duplicate vertex"),
])
def test_edge_objects_are_still_checked(vertices, edges, match):
    with pytest.raises(GraphError, match=match):
        Graph(vertices, edges)


def test_json_and_edge_list_inputs():
    g = build_graph({"vertices": ["u", "v", "w"],
                     "edges": [["e1", "u", "v"], ["e2", "v", "w"], ["e3", "w", "u"]]})
    assert betti1(g) == 1
    g2 = build_graph("u v\nv w\nw u")
    assert betti1(g2) == 1
    assert graph_to_json(g)["vertices"] == ["u", "v", "w"]


def test_betti1():
    assert betti1(build_graph("K33")) == 4
    assert betti1(build_graph("K5")) == 6
    assert betti1(build_graph([("a", "b"), ("b", "c")])) == 0  # tree


def test_subdivide_examples():
    g = build_graph("K33")
    out, rec = subdivide(g, 2, "none")
    assert len(out.vertices) == 6
    assert rec.replacements == {e.id: [e.id] for e in g.edges}

    k5, _ = subdivide(build_graph("K5"), 4, "auto")
    assert len(k5.vertices) == 25 and len(k5.edges) == 30

    path = build_graph([("a", "b")])
    out, _ = subdivide(path, 3, "auto")
    assert len(out.edges) >= 2


def test_subdivide_policies_and_errors():
    tri = build_graph("u v\nv w\nw u")
    assert is_suitably_subdivided(tri, 2)  # 3-cycle is fine for two strands
    with pytest.raises(GraphError):
        subdivide(tri, 3, "none")  # but too short for three
    out, _ = subdivide(tri, 3, "auto")
    assert is_suitably_subdivided(out, 3)
    uni, _ = subdivide(tri, 2, "uniform")
    assert len(uni.edges) == 9
    k, _ = subdivide(tri, 2, 4)
    assert len(k.edges) == 12


def test_subdivide_idempotent_and_invariants():
    for name, n in [("K33", 2), ("K5", 3), ("Theta4", 2), ("Dumbbell", 3)]:
        g = build_graph(name)
        once, _ = subdivide(g, n, "auto")
        twice, rec = subdivide(once, n, "auto")
        assert rec.replacements == {e.id: [e.id] for e in once.edges}
        assert len(twice.vertices) == len(once.vertices)
        assert betti1(once) == betti1(g)
        assert sum(once.valency(v) for v in once.vertices) == 2 * len(once.edges)
        for v in rec.inserted.values():
            assert all(once.valency(x) == 2 for x in v)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("spec", [
    "K33", "K5", "Theta4", "FigB3n3", "Dumbbell", "FigCounterEx", "K(1)",
    "K(2)", "Theta(2)", "a b\nb c\nc a", "a b\nb c\nb d"])
def test_strict_is_auto(spec, n):
    # "auto" floors every segment at max(n - 1, 2) edges, which is the
    # two-edge rule that "strict" names, so the two policies agree
    g = build_graph(spec)
    auto, _ = subdivide(g, n, "auto")
    assert graph_to_json(auto) == graph_to_json(subdivide(g, n, "strict")[0])
    assert is_suitably_subdivided(auto, n, strict=True)
    assert all(len(s) >= max(n - 1, 2) for s in segments(auto) if s.u != s.v)


def test_segments_circle_and_wedge():
    circle = build_graph("a b\nb c\nc a")
    segs = segments(circle)
    assert len(segs) == 1 and segs[0].u == segs[0].v and len(segs[0]) == 3
    fig = build_graph("FigB3n3")
    segs = segments(fig)
    assert {s.u for s in segs} <= set(fig.essential_vertices())


def test_unknown_name():
    with pytest.raises(GraphError):
        build_graph("NoSuchGraph")


# ---------------------------------------------------------------------------
# blocks, bridges and cut vertices against networkx and a brute-force count

def _components_without(g: Graph, banned: set) -> int:
    """Components of g with the vertices ``banned`` removed, by search."""
    remaining = [v for v in g.vertices if v not in banned]
    if not remaining:
        return 0
    seen: set[str] = set()
    count = 0
    for start in remaining:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for eid in g.adjacency[v]:
                w = g.edge(eid).other(v)
                if w not in banned and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def _ends(g: Graph, eids):
    return frozenset(frozenset(g.edge(eid).endpoints()) for eid in eids)


def _check_blocks(g: Graph, alive=None):
    eids = [e.id for e in g.edges if alive is None or e.id in alive]
    found = blocks(g, alive)
    assert sorted(eid for b in found for eid in b) == sorted(eids)
    multi = nx.MultiGraph()
    multi.add_nodes_from(g.vertices)
    multi.add_edges_from(g.edge(eid).endpoints() for eid in eids)
    bridges = [b[0] for b in found if len(b) == 1]
    assert _ends(g, bridges) == {frozenset(p) for p in nx.bridges(multi)}
    assert len(bridges) == len(_ends(g, bridges))
    if len(_ends(g, eids)) == len(eids):  # simple
        assert {_ends(g, b) for b in found} == {
            frozenset(frozenset(p) for p in b)
            for b in nx.biconnected_component_edges(nx.Graph(multi))}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(0, 6))
def test_blocks_agree_with_networkx_and_component_counts(seed, nv, extra):
    g = random_topological_graph(random.Random(seed), nv, extra)
    for h in (g, _workable(g)):
        _check_blocks(h)
        assert cut_vertices(h, blocks(h)) == {
            v: mu for v in h.vertices
            if (mu := _components_without(h, {v})) >= 2}
    # a connected spanning subgraph: drop edges while the rest stays connected
    rng = random.Random(seed)
    alive = {e.id for e in g.edges}
    for e in rng.sample(g.edges, len(g.edges) // 2):
        rest = nx.MultiGraph()
        rest.add_nodes_from(g.vertices)
        rest.add_edges_from(g.edge(eid).endpoints() for eid in alive - {e.id})
        if nx.is_connected(rest):
            alive.discard(e.id)
    _check_blocks(g, alive)


def test_blocks_explicit_cases():
    theta = build_graph("Theta(3)")
    assert [sorted(b) for b in blocks(theta)] == [["p0", "p1", "p2"]]
    assert cut_vertices(theta, blocks(theta)) == {}
    assert blocks(Graph(["x"], [])) == []
    dumbbell = build_graph("Dumbbell")
    assert cut_vertices(dumbbell, blocks(dumbbell)) == {"l0": 2, "r0": 2}
    assert sorted(map(sorted, blocks(dumbbell))) == [
        ["la", "lb", "lc"], ["mid"], ["ra", "rb", "rc"]]


# ---------------------------------------------------------------------------
# planarity from counts against networkx

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 7), st.integers(0, 9),
       st.integers(0, 4), st.integers(0, 3))
def test_planarity_from_counts_agrees_with_networkx(seed, nv, extra,
                                                    cuts, pendants):
    """Random subdivisions and pendant paths leave the planarity of a
    corpus graph alone, so the counts must read through both."""
    rng = random.Random(seed)
    g = random_topological_graph(rng, nv, extra)
    vs, es = list(g.vertices), [(e.id, e.u, e.v) for e in g.edges]
    for k in range(cuts):
        i = rng.randrange(len(es))
        eid, u, v = es[i]
        es[i:i + 1] = [(f"{eid}/{k}a", u, f"s{k}"), (f"{eid}/{k}b", f"s{k}", v)]
        vs.append(f"s{k}")
    for k in range(pendants):
        prev = rng.choice(vs)
        for j in range(rng.randint(1, 3)):
            vs.append(f"p{k}.{j}")
            es.append((f"p{k}:{j}", prev, f"p{k}.{j}"))
            prev = f"p{k}.{j}"
    g = Graph(vs, es)
    assert is_planar(g) == (rotation_system(g) is not None)


# ---------------------------------------------------------------------------
# derived graphs skip validation; their segments are computed once

def _check_derived(g: Graph):
    """g equals its validated rebuild, and its kept segments a fresh
    computation."""
    rebuilt = Graph(g.vertices, g.edges)
    assert g.vertices == rebuilt.vertices
    assert g.edges == rebuilt.edges
    assert g.adjacency == rebuilt.adjacency
    assert g._edge_by_id == rebuilt._edge_by_id
    assert segments(g) is segments(g)
    assert segments(g) == graphs._find_segments(rebuilt)


def _derived_graphs(g: Graph) -> list[Graph]:
    """Every graph derived from g: its subdivisions under each policy at
    n = 1-4, and each graph `decomposition_tree` builds (the workable
    copy, its blocks and every marked piece)."""
    made = []
    derive = Graph._derived.__func__

    def record(cls, vertices, edges):
        made.append(derive(cls, vertices, edges))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Graph, "_derived", classmethod(record))
        for n in range(1, 5):
            for policy in ("auto", "strict", "uniform", 2, 3):
                try:
                    subdivide(g, n, policy)
                except GraphError as exc:
                    assert "unsuitable" in str(exc)
        decomposition_tree(g)
    return made


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(0, 5))
def test_derived_graphs_equal_their_validated_rebuild(seed, nv, extra):
    g = random_topological_graph(random.Random(seed), nv, extra)
    for d in _derived_graphs(g):
        _check_derived(d)


@pytest.mark.parametrize("name", sorted(BUILTIN_GRAPHS))
def test_derived_graphs_of_named_graphs(name):
    g = build_graph(name)
    made = _derived_graphs(g)
    # marked pieces are among them wherever a block splits at a 2-cut
    assert any(b.two_cuts for b in decomposition_tree(g).blocks) == any(
        v.startswith("__virt") for d in made for v in d.vertices)
    for d in made:
        _check_derived(d)


def test_marked_pieces_take_fresh_virtual_names():
    # three u-v paths, one through a vertex named like the first virtual
    # vertex and one along an edge named like the second virtual edge
    g = build_graph({"vertices": ["u", "v", "__virt1", "b", "c"],
                     "edges": [["p", "u", "__virt1"], ["q", "__virt1", "v"],
                               ["__ve2a", "u", "b"], ["r", "b", "v"],
                               ["s", "u", "c"], ["t", "c", "v"]]})
    plain = build_graph("u a\na v\nu b\nb v\nu c\nc v")
    assert decomposition_tree(g).to_json() == decomposition_tree(plain).to_json()
    for d in _derived_graphs(g):
        _check_derived(d)


def test_subdivision_names_that_are_taken_are_avoided():
    # vertex e0.1 is the name edge e0's first inner vertex would get, so
    # every new name takes the suffix ~3, past the ~2 of vertex e0.1~2; a
    # graph without such a clash keeps the plain names
    g = build_graph("a b\nb e0.1~2\ne0.1~2 a\na e0.1")
    gs, record = subdivide(g, 3, "uniform")
    assert record.inserted["e0"] == ["e0.1~3", "e0.2~3", "e0.3~3"]
    assert record.replacements["e0"] == ["e0:0~3", "e0:1~3", "e0:2~3",
                                         "e0:3~3"]
    assert set(g.vertices) < set(gs.vertices)
    assert len(set(gs.vertices)) == len(gs.vertices)
    assert is_suitably_subdivided(gs, 3)
    _, record = subdivide(build_graph("a b\nb c\nc a"), 3, "uniform")
    assert record.inserted["e0"] == ["e0.1", "e0.2", "e0.3"]


def test_segments_are_kept_and_immutable():
    g = build_graph("FigB3n3")
    segs = segments(g)
    assert isinstance(segs, tuple) and segs is segments(g)
    assert all(isinstance(s.edge_ids, tuple) and isinstance(s.inner, tuple)
               for s in segs)
    with pytest.raises(AttributeError):
        segs[0].u = "x"


@pytest.mark.parametrize("make, other, field", [
    (lambda: Edge("e", "a", "b"), Edge("e", "b", "a"), "u"),
    (lambda: Segment("a", "b", ("e0", "e1"), ("m",)),
     Segment("a", "b", ("e0", "e2"), ("m",)), "edge_ids"),
    (lambda: Term("tree", (1, 2), (0, 1)), Term("deleted", (1, 2), (0, 1)),
     "kind"),
    (lambda: CriticalName((Term("deleted", (3, 5), (1, 0)),), 1),
     CriticalName((Term("deleted", (3, 5), (1, 0)),), 2), "s0"),
    (lambda: AbelianGroup(4, (2,)), AbelianGroup(4), "torsion"),
], ids=["Edge", "Segment", "Term", "CriticalName", "AbelianGroup"])
def test_value_types_compare_copy_and_refuse_assignment(make, other, field):
    """Equal fields give equal values with equal hashes; deep copies and
    pickle round trips give equal values of the same type; no field can be
    set, and no attribute added."""
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other
    for back in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(back) is type(a) and back == a and hash(back) == hash(a)
        assert repr(back) == repr(a)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_segment_length_is_its_edge_count():
    s = Segment("a", "a", ("e0", "e1", "e2"), ("m", "n"))
    assert len(s) == len(copy.deepcopy(s)) == len(pickle.loads(pickle.dumps(s))) == 3


@pytest.mark.parametrize("spec, built", [
    ("K(5)", True), ("K(6)", False), ("K(2,5)", True), ("K(3,4)", False),
    ("Theta(10)", True), ("Theta(11)", False), ("K(11,0)", False),
])
def test_a_family_above_the_cap_is_refused_before_it_is_built(
        monkeypatch, spec, built):
    """The cap bounds a family member's vertex and edge counts, read off
    its parameters: K(m) has m(m-1)/2 edges, K(m,n) m*n and Theta(m) m."""
    monkeypatch.setattr(graphs, "FAMILY_CAP", 10)
    if built:
        assert isinstance(build_graph(spec), Graph)
    else:
        with pytest.raises(GraphError, match="the limit is 10 of each"):
            build_graph(spec)


@pytest.mark.parametrize("spec, message", [
    ("K(-1)", "graph family 'K(-1)': the parameter m = -1 is negative"),
    ("K(2,-1)", "graph family 'K(2,-1)': the parameter n = -1 is negative"),
    ("Theta(-3)", "graph family 'Theta(-3)': the parameter m = -3 is negative"),
    ("K(0)", "graph family 'K(0)' has no vertices"),
    ("K(0,0)", "graph family 'K(0,0)' has no vertices"),
    ("K(0,3)", "graph is not connected"),
    ("Theta(0)", "graph is not connected"),
])
def test_an_empty_or_negative_family_member_is_named(spec, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        build_graph(spec)


@pytest.mark.parametrize("spec", ["K(1)", "K(1,0)"])
def test_a_one_vertex_family_member_is_a_graph(spec):
    g = build_graph(spec)
    assert len(g.vertices) == 1 and not g.edges


@pytest.mark.parametrize("spec, message", [
    ({"vertices": ["a", "a", "b"], "edges": [["a", "b"]]},
     "duplicate vertex ids"),
    ({"vertices": ["a", "b"], "edges": [["e", "a", "b"], ["e", "b", "a"]]},
     "duplicate edge id 'e'"),
    ([("a", "b"), ("b", "b")],
     "loop edge 'e1' at 'b'; subdivide loops before building"),
    ({"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "c"]]},
     "edge 'e1' references unknown vertex"),
    ({"vertices": ["a", "b", "c"], "edges": [["a", "b"]]},
     "graph is not connected"),
])
def test_inputs_are_still_validated(spec, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        build_graph(spec)

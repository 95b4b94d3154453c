import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphbraids
from graphbraids import graphs
from graphbraids.graphs import (Graph, GraphError, build_graph, subdivide,
                                betti1, rotation_system)
from graphbraids.trees import choose_tree_and_order
from graphbraids.morse import build_morse_complex
from graphbraids.homology import homology, AbelianGroup
from graphbraids.decompose import (N_cut, invariant_bundle, h1_formula,
                                   beta2_formula, is_planar,
                                   marked_decomposition, decomposition_tree,
                                   classify_beta1_characterizations, _workable,
                                   _subgraph)


def test_n_cut_examples():
    assert N_cut(3, 3, 7) == 23
    assert N_cut(5, 2, 2) == 0
    assert N_cut(2, 2, 3) == 1
    with pytest.raises(GraphError):
        N_cut(2, 3, 2)


K2221 = [(f"v{a}", f"v{b}") for a, b in itertools.combinations(range(7), 2)
         if (a, b) not in ((0, 1), (2, 3), (4, 5))]
PETERSEN = ([(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
            + [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
            + [(f"o{i}", f"i{i}") for i in range(5)])
CUBE = [(f"{a:03b}", f"{a ^ bit:03b}") for a in range(8) for bit in (1, 2, 4)
        if a < a ^ bit]


PLANARITY_CASES = [
    # non-planar by Euler's bounds on the smoothed graph
    ("K5", False, 0), ("K33", False, 0), ("K(3,4)", False, 0),
    (K2221, False, 0),
    # planar by the branch-vertex counts
    ("K4", True, 0), ("Theta4", True, 0),
    ([("a", "b"), ("b", "c"), ("c", "a")], True, 0), ([("a", "b")], True, 0),
    (Graph(["v"], []), True, 0),
    # left open by the counts
    (PETERSEN, False, 1), ("FigCounterEx", False, 1), (CUBE, True, 1),
]


def test_planarity(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return rotation_system(g)

    monkeypatch.setattr(graphs, "rotation_system", counted)
    for spec, planar, networkx_calls in PLANARITY_CASES:
        g = build_graph(spec)
        # subdividing changes neither the answer nor the path that found it
        for h in (g, subdivide(g, 3, "uniform")[0]):
            calls.clear()
            assert is_planar(h) == planar, spec
            assert len(calls) == networkx_calls, spec
            assert (rotation_system(h) is not None) == planar, spec


def test_networkx_loads_only_to_embed():
    """The formula route and a planar-mode refusal decided by the counts
    leave networkx unloaded; a planar-mode tree loads it for the embedding
    and numbers K4 as it always has."""
    script = f"""
import json, sys
import graphbraids
from graphbraids import build_graph, choose_tree_and_order, h1_formula
from graphbraids.cli import run
from graphbraids.trees import TreeError
loaded = ["networkx" in sys.modules]
h1_formula(build_graph("K5"), 4)
h1_formula(build_graph({K2221!r}), 3)
h1_formula(build_graph("K(3,4)"), 2, "P2")
loaded.append("networkx" in sys.modules)
gs, _ = graphbraids.subdivide(build_graph("K5"), 2, "strict")
try:
    choose_tree_and_order(gs, 2, "planar")
except TreeError as exc:
    refusal = str(exc)
loaded.append("networkx" in sys.modules)
gs, _ = graphbraids.subdivide(build_graph("K4"), 3, "auto")
dump = choose_tree_and_order(gs, 3, "planar").debug_dump()
loaded.append("networkx" in sys.modules)
print(json.dumps({{"loaded": loaded, "refusal": refusal, "dump": dump}}))
"""
    env = {**os.environ,
           "PYTHONPATH": str(Path(graphbraids.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=120, check=True).stdout
    rep = json.loads(out)
    assert rep["loaded"] == [False, False, False, True]
    assert rep["refusal"] == "planar mode needs a planar graph"
    assert rep["dump"] == (
        "0 0 -1 [1]\n1 0-2.1 0 [2]\n2 2 1 [3]\n3 2-3.1 2 [4]\n"
        "4 3 3 [5 9]\n5 1-3.1 4 [6]\n6 1 5 [7 8]\n7 1-2.1 6 []\n"
        "8 0-1.1 6 []\n9 0-3.1 4 []\nd_1: 0 8\nd_2: 0 9\nd_3: 2 7")


def test_bundles():
    b = invariant_bundle(build_graph("K33"), 2)
    assert (b.beta1, b.n1, b.n2, b.n3, b.n3prime) == (4, 0, 0, 0, 1)
    b = invariant_bundle(build_graph("K5"), 4)
    assert (b.beta1, b.n1, b.n2, b.n3, b.n3prime) == (6, 0, 0, 0, 1)
    b = invariant_bundle(build_graph("Theta4"), 2)
    assert (b.beta1, b.n1, b.n2, b.n3, b.n3prime) == (3, 0, 3, 0, 0)
    b = invariant_bundle(build_graph("FigB3n3"), 3)
    assert (b.n1, b.n2, b.n3, b.n3prime) == (23, 1, 0, 0)


def test_h1_formula_values():
    assert h1_formula(build_graph("K5"), 4) == AbelianGroup(6, (2,))
    assert h1_formula(build_graph("K33"), 2, "P2") == AbelianGroup(8)
    assert h1_formula(build_graph("K5"), 2, "P2") == AbelianGroup(12)
    assert h1_formula(build_graph("FigB3n3"), 3) == AbelianGroup(28)
    for m in (3, 4, 5):
        want = (m - 1) * (m - 2) // 2 + (m - 1)
        assert h1_formula(build_graph(f"Theta{m}"), 2) == AbelianGroup(want)
    # n = 1 degenerates to the graph's own homology
    assert h1_formula(build_graph("K4"), 1) == AbelianGroup(3)


def test_biconnected_decomposition():
    k33 = decomposition_tree(build_graph("K33"))
    assert (len(k33.blocks), k33.segment_blocks, k33.cut_vertices) == (1, 0, {})
    fig = build_graph("FigB3n3")
    tree = decomposition_tree(fig)
    assert len(tree.blocks) + tree.segment_blocks == 3
    # two blocks are circles: one leaf and no 2-cut
    circles = sum(1 for b in tree.blocks
                  if not b.two_cuts and [l.kind for l in b.leaves] == ["circle"])
    assert circles == 2
    a = next(v for v in fig.vertices if fig.valency(v) == 7)
    assert tree.cut_vertices == {a: 3}
    path = decomposition_tree(build_graph([("a", "b"), ("b", "c"), ("c", "d")]))
    assert (path.blocks, path.segment_blocks) == ([], 3)


def test_marked_decomposition_theta():
    for m in (3, 4, 5):
        g = _workable(build_graph(f"Theta{m}"))
        dec = marked_decomposition(g)
        assert len(dec.two_cuts) == 1 and dec.two_cuts[0][1] == m
        assert len(dec.leaves) == m
        assert all(l.kind == "circle" for l in dec.leaves)


def test_marked_decomposition_k4_and_k33():
    g = _workable(build_graph("K4"))
    dec = marked_decomposition(g)
    assert dec.two_cuts == []
    assert [l.kind for l in dec.leaves] == ["triconnected"]
    assert dec.leaves[0].planar
    g = _workable(build_graph("K33"))
    dec = marked_decomposition(g)
    assert [l.kind for l in dec.leaves] == ["triconnected"]
    assert not dec.leaves[0].planar


def test_doubled_edge_splits_off_circle():
    # K33 plus a parallel path at one edge: one 2-cut at its endpoints
    g = build_graph("K33")
    extra = list(g.edges) + [("p1", "a0", "m"), ("p2", "m", "b0")]
    gg = Graph(list(g.vertices) + ["m"], extra)
    tree = decomposition_tree(gg)
    assert len(tree.blocks) == 1
    dec = tree.blocks[0]
    assert len(dec.two_cuts) == 1
    cut, mu = dec.two_cuts[0]
    assert sorted(cut) == ["a0", "b0"] and mu == 3
    kinds = sorted(l.kind for l in dec.leaves)
    assert kinds == ["circle", "circle", "triconnected"]
    # cross-check the formula against the Morse route
    gs, _ = subdivide(gg, 2, "strict")
    t = choose_tree_and_order(gs, 2)
    h = homology(build_morse_complex(t, 2, "unordered"))[1]
    assert h == h1_formula(gg, 2)
    assert h == AbelianGroup(6, (2,))


def test_beta2_values():
    assert beta2_formula(build_graph("K33"), "P2") == 1
    assert beta2_formula(build_graph("K5"), "P2") == 1
    assert beta2_formula(build_graph("K33"), "B2") == 0
    assert beta2_formula(build_graph("K4"), "B2") == 0
    assert beta2_formula(build_graph("Dumbbell"), "B2") == 1
    assert beta2_formula(build_graph("Dumbbell"), "P2") == 2


def test_beta2_subdivision_invariant():
    g = build_graph("Dumbbell")
    gs, _ = subdivide(g, 3, "uniform")
    for flavor in ("B2", "P2"):
        assert beta2_formula(g, flavor) == beta2_formula(gs, flavor)


def test_characterizations():
    def classify(name):
        g = build_graph(name)
        return classify_beta1_characterizations(g, decomposition_tree(g))

    k4 = classify("K4")
    assert k4["planar"] and k4["plus_one_holds"] and k4["case"] == (0, 0, 1)
    th = classify("Theta3")
    assert th["case"] == (0, 1, 0)
    ce = classify("FigCounterEx")
    assert not ce["planar"] and ce["plus_one_holds"]
    assert not ce["planar_characterization_applies"]
    k33 = classify("K33")
    assert k33["equality_holds"] and k33["nonplanar_simple_triconnected"]


def test_two_cut_lemma_identity():
    # rank H1(B2 Theta_m) + 1 = sum of circle ranks + (m-1)(m-2)/2 + ...
    for m in (3, 4, 5):
        g = build_graph(f"Theta{m}")
        lhs = h1_formula(g, 2).rank + 1
        rhs = m * 1 + (m - 1) * (m - 2) // 2  # m circles contribute Z each
        assert lhs == rhs


def test_invariants_subdivision_independent():
    for name in ("K33", "Theta4", "FigB3n3", "Dumbbell"):
        g = build_graph(name)
        gs, _ = subdivide(g, 3, "uniform")
        b1 = invariant_bundle(g, 2)
        b2 = invariant_bundle(gs, 2)
        assert (b1.beta1, b1.n1, b1.n2, b1.n3, b1.n3prime) == \
            (b2.beta1, b2.n1, b2.n2, b2.n3, b2.n3prime)


def test_additivity_at_cut_vertex():
    # wedge two triangles at a vertex: H1(B_n) = sum over pieces + N_cut part
    g = build_graph("w a\na w2\nw2 b\nb w\nw c\nc w3\nw3 d\nd w")
    # two squares sharing vertex w
    b = invariant_bundle(g, 2)
    assert b.n1 == N_cut(2, 2, 4)
    assert h1_formula(g, 2).rank == 2 * 1 + N_cut(2, 2, 4)

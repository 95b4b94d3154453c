import pytest

from graphbraids.graphs import Graph, GraphError, build_graph, subdivide, betti1
from graphbraids.trees import choose_tree_and_order
from graphbraids.morse import build_morse_complex
from graphbraids.homology import homology, AbelianGroup
from graphbraids.decompose import (N_cut, invariant_bundle, h1_formula,
                                   beta2_formula, is_planar,
                                   biconnected_decomposition,
                                   marked_decomposition, decomposition_tree,
                                   classify_beta1_characterizations, _workable,
                                   _subgraph)


def test_n_cut_examples():
    assert N_cut(3, 3, 7) == 23
    assert N_cut(5, 2, 2) == 0
    assert N_cut(2, 2, 3) == 1
    with pytest.raises(GraphError):
        N_cut(2, 3, 2)


def test_planarity():
    assert is_planar(build_graph("K4"))
    assert not is_planar(build_graph("K5"))
    assert not is_planar(build_graph("K33"))
    assert is_planar(build_graph("Theta4"))


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
    blocks, cuts = biconnected_decomposition(build_graph("K33"))
    assert len(blocks) == 1 and cuts == {}
    fig = build_graph("FigB3n3")
    blocks, cuts = biconnected_decomposition(fig)
    assert len(blocks) == 3
    circles = sum(1 for b in blocks
                  if all(b.valency(v) == 2 for v in b.vertices))
    assert circles == 2
    a = next(v for v in fig.vertices if fig.valency(v) == 7)
    assert cuts == {a: 3}
    path = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
    blocks, cuts = biconnected_decomposition(path)
    assert all(len(b.edges) <= 2 for b in blocks)


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
    k4 = classify_beta1_characterizations(build_graph("K4"))
    assert k4["planar"] and k4["plus_one_holds"] and k4["case"] == (0, 0, 1)
    th = classify_beta1_characterizations(build_graph("Theta3"))
    assert th["case"] == (0, 1, 0)
    ce = classify_beta1_characterizations(build_graph("FigCounterEx"))
    assert not ce["planar"] and ce["plus_one_holds"]
    assert not ce["planar_characterization_applies"]
    k33 = classify_beta1_characterizations(build_graph("K33"))
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

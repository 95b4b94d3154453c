"""The acceptance suite: one test per criterion, each printing a verdict
line.  Run with `pytest tests/test_acceptance.py -s` to see the lines."""

import time
from collections import Counter

import pytest

from graphbraids.graphs import build_graph, subdivide, betti1
from graphbraids.trees import choose_tree_and_order
from graphbraids.fixtures import (k33_pinned_tree, k5_pinned_tree,
                                  theta4_pinned_tree, fig_b3n3_tree)
from graphbraids.morse import build_morse_complex
from graphbraids.homology import AbelianGroup, homology
from graphbraids.closedforms import check_closed_forms, classify_1cells
from graphbraids.decompose import (h1_formula, beta2_formula, N_cut, is_planar,
                                   invariant_bundle)
from graphbraids.intlinalg import smith_normal_form
from graphbraids.present import raw_presentation, simplify, commutator_form
from graphbraids.corpus import corpus
from reference import (assert_chain_complex, exponent_sums, quadratic_genus,
                       reference_undetermined_block)


def _verdict(num, text):
    print(f"[acceptance {num:>2}] PASS: {text}")


def _both_routes(tree, graph, n, flavor):
    mc = build_morse_complex(tree, n, flavor)
    h = homology(mc)
    f = h1_formula(graph, n, "P2" if flavor == "ordered" else "B")
    assert (h[1].rank, h[1].torsion) == (f.rank, f.torsion), (h[1], f)
    return mc, h


def test_criterion_01_b2_k33():
    t0 = time.monotonic()
    mc, h = _both_routes(k33_pinned_tree(), build_graph("K33"), 2, "unordered")
    assert h[1] == AbelianGroup(4, (2,))
    dt = time.monotonic() - t0
    assert dt < 1.0, f"{dt:.2f}s"
    _verdict(1, f"H1(B2 K33) = Z^4 + Z_2 by both routes in {dt:.2f}s")


def test_criterion_02_p2_k33():
    t0 = time.monotonic()
    mc, h = _both_routes(k33_pinned_tree(), build_graph("K33"), 2, "ordered")
    assert h[1] == AbelianGroup(8)
    dt = time.monotonic() - t0
    assert dt < 1.0, f"{dt:.2f}s"
    _verdict(2, f"H1(P2 K33) = Z^8 by both routes in {dt:.2f}s")


def test_criterion_03_b4_k5():
    t0 = time.monotonic()
    tree = k5_pinned_tree()
    assert tree.nv == 25
    mc, h = _both_routes(tree, build_graph("K5"), 4, "unordered")
    assert h[1] == AbelianGroup(6, (2,))
    dt = time.monotonic() - t0
    assert dt < 300, f"{dt:.1f}s"
    _verdict(3, f"H1(B4 K5) = Z^6 + Z_2 by both routes on 25 vertices in {dt:.1f}s")


def test_criterion_04_p2_k5():
    t0 = time.monotonic()
    gs, _ = subdivide(build_graph("K5"), 2, "strict")
    tree = choose_tree_and_order(gs, 2)
    mc, h = _both_routes(tree, build_graph("K5"), 2, "ordered")
    assert h[1] == AbelianGroup(12)
    dt = time.monotonic() - t0
    assert dt < 30, f"{dt:.1f}s"
    _verdict(4, f"H1(P2 K5) = Z^12 by both routes in {dt:.1f}s")


def test_criterion_05_fig_b3n3():
    g = build_graph("FigB3n3")
    assert N_cut(3, 3, 7) == 23
    tree = fig_b3n3_tree()
    mc, h = _both_routes(tree, g, 3, "unordered")
    assert h[1] == AbelianGroup(28)
    tags = classify_1cells(mc)
    free = [c for c, tag in tags.items() if tag == "free"]
    assert len(free) == 28
    # census: the 14 tree-edge cells listed in the example, verbatim
    tree_forms = sorted(mc.name_of(c) for c in free
                        if mc.names[c].terms[0].kind == "tree")
    assert tree_forms == [
        "A_2(1,0,0,0)", "A_2(1,1,0,0)", "A_2(2,0,0,0)",
        "A_3(0,1,0,0)", "A_3(0,2,0,0)", "A_3(1,0,0,0)", "A_3(1,1,0,0)",
        "A_3(2,0,0,0)",
        "A_4(0,0,1,0)", "A_4(0,1,0,0)", "A_4(0,2,0,0)", "A_4(1,0,0,0)",
        "A_4(1,1,0,0)", "A_4(2,0,0,0)"]
    # the 14 deleted-edge cells: one bare cell for each of the four deleted
    # edges and the five listed vectors for each of the two at the wedge
    by_edge = {}
    for c in free:
        nm = mc.names[c]
        if nm.terms[0].kind == "deleted":
            by_edge.setdefault(nm.terms[0].edge, []).append(nm.terms[0].vec)
    assert len(by_edge) == 4
    vector_profiles = sorted(
        sorted(v for v in vecs if sum(v) and len(v) == 4)
        for vecs in by_edge.values())
    assert vector_profiles[-2:] == [
        sorted([(1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0),
                (0, 2, 0, 0)])] * 2
    assert sum(len(v) for v in vector_profiles[:2]) == 0  # two bare-only
    _verdict(5, "H1(B3 FigB3n3) = Z^28; 28-cell census matches; "
                "N_cut(3,3,7) = 23")


def test_criterion_06_k4_and_thetas():
    gs, _ = subdivide(build_graph("K4"), 2, "strict")
    tree = choose_tree_and_order(gs, 2)
    mc, h = _both_routes(tree, build_graph("K4"), 2, "unordered")
    assert h[1] == AbelianGroup(4)
    for m in (3, 4, 5):
        g = build_graph(f"Theta{m}")
        gs, _ = subdivide(g, 2, "strict")
        tree = choose_tree_and_order(gs, 2)
        mc, h = _both_routes(tree, g, 2, "unordered")
        assert h[1] == AbelianGroup((m - 1) * (m - 2) // 2 + (m - 1))
    _verdict(6, "H1(B2 K4) = Z^4 and H1(B2 Theta_m) matches the closed "
                "form for m = 3, 4, 5")


def test_criterion_07_b3_theta4_surface():
    tree = theta4_pinned_tree()
    mc = build_morse_complex(tree, 3, "unordered")
    check_closed_forms(mc)
    assert [len(mc.critical[d]) for d in (0, 1, 2)] == [1, 8, 3]
    assert mc.euler_characteristic() == -4
    h = homology(mc)
    assert h[1] == AbelianGroup(6) and h[2] == AbelianGroup(1)
    pres = simplify(raw_presentation(mc), mc)
    assert len(pres.generators) == 6 and len(pres.relators) == 1
    rel = pres.relators[0]
    assert exponent_sums(rel) == {}
    assert quadratic_genus(rel) == 3       # a product of exactly 3 commutators
    assert commutator_form(rel) is None    # and not of fewer
    _verdict(7, "B3 Theta4: cells (1,8,3), chi = -4, H1 = Z^6, H2 = Z, "
                "presentation = 6 generators / 1 genus-3 relator")


def test_criterion_08_d3_theta4():
    tree = theta4_pinned_tree()
    mc = build_morse_complex(tree, 3, "ordered")
    assert mc.euler_characteristic() == -24
    h = homology(mc)
    assert h[1] == AbelianGroup(26) and h[2] == AbelianGroup(1)
    assert all(not g.torsion for g in h.values())
    _verdict(8, "D3 Theta4: chi = -24, H1 = Z^26, H2 = Z, torsion-free")


def test_criterion_09_undetermined_block():
    tree = k5_pinned_tree()
    mc = build_morse_complex(tree, 4, "unordered")
    rows, labels, cols = reference_undetermined_block(mc)
    assert [mc.name_of(c) for c in cols] == \
        ["C_3(1,0,0)", "C_3(0,1,0)", "C_2(1,0,0)", "B_3(1,0,0)",
         "B_3(0,1,0)", "B_2(1,0,0)", "A_2(1,0)"]
    expected = [
        [0, 0, -1, 0, -1, 0, 0],
        [0, 0, 0, 1, -1, 0, 0],
        [-1, 0, 0, 0, -1, 0, 0],
        [0, -1, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 1, 0, -1],
        [0, 0, 0, -1, 0, 0, -1],
        [0, 0, 0, 0, 0, -1, -1],
    ]
    assert sorted(rows) == sorted(expected)   # row order free; signs match
    assert smith_normal_form(rows).diag == [1, 1, 1, 1, 1, 1, 2]
    _verdict(9, "undetermined block of (K5, n=4) reproduces the 7x7 matrix; "
                "SNF = (1,...,1,2)")


def test_criterion_10_beta2():
    assert beta2_formula(build_graph("K33"), "P2") == 1
    assert beta2_formula(build_graph("K5"), "P2") == 1
    # direct ordered computations
    for name in ("K33", "K5"):
        gs, _ = subdivide(build_graph(name), 2, "strict")
        tree = choose_tree_and_order(gs, 2)
        mc = build_morse_complex(tree, 2, "ordered")
        assert homology(mc)[2] == AbelianGroup(1)
    # direct unordered beta2(B2 K33) = 0; the derivation-consistent B2
    # formula agrees (the printed "+2" would give 2, which is wrong)
    mc = build_morse_complex(k33_pinned_tree(), 2, "unordered")
    assert homology(mc)[2].rank == 0
    assert beta2_formula(build_graph("K33"), "B2") == 0
    _verdict(10, "beta2(P2 K33) = beta2(P2 K5) = 1 by formula and directly; "
                 "beta2(B2 K33) = 0 (corrected B2 formula)")


def test_criterion_11_property_suite():
    t0 = time.monotonic()
    graphs = corpus(seed=20260808, count=50, max_vertices=8, max_extra=6)
    assert len(graphs) >= 50
    n_biconnected = 0
    for i, g in enumerate(graphs):
        assert len(g.essential_vertices()) <= 8
        assert betti1(g) <= 6
        planar = is_planar(g)
        h_by = {}
        for n, flavor in ((2, "unordered"), (3, "unordered"), (2, "ordered")):
            gs, _ = subdivide(g, n, "strict" if n == 2 else "auto")
            tree = choose_tree_and_order(gs, n)
            mc = build_morse_complex(tree, n, flavor)
            check_closed_forms(mc)
            assert_chain_complex(mc)
            assert mc.euler_characteristic() == mc.full_euler_characteristic()
            h = homology(mc)
            f = h1_formula(g, n, "P2" if flavor == "ordered" else "B")
            assert (h[1].rank, h[1].torsion) == (f.rank, f.torsion), \
                (i, n, flavor)
            assert all(d == 2 for d in h[1].torsion)
            if planar or flavor == "ordered":
                assert not h[1].torsion, (i, n, flavor)
            h_by[(n, flavor)] = h[1]
        # biconnected graphs: H1(B_n) independent of n; so is the block shape
        from graphbraids.decompose import _workable
        from graphbraids.graphs import blocks, cut_vertices
        work = _workable(g)
        if not cut_vertices(work, blocks(work)) and len(g.vertices) > 1:
            n_biconnected += 1
            assert h_by[(2, "unordered")] == h_by[(3, "unordered")], i
        # subdivision invariance of the Morse route on a sample
        if i % 10 == 0:
            gs, _ = subdivide(g, 2, "strict")
            finer, _ = subdivide(gs, 2, 2)
            tree = choose_tree_and_order(finer, 2)
            mc = build_morse_complex(tree, 2, "unordered")
            assert homology(mc)[1] == h_by[(2, "unordered")], i
    assert n_biconnected >= 5
    dt = time.monotonic() - t0
    assert dt < 600, f"{dt:.0f}s"
    _verdict(11, f"property suite over {len(graphs)} graphs "
                 f"({n_biconnected} biconnected) in {dt:.0f}s")


def test_criterion_11b_block_independent_of_braid_index():
    # column count and torsion of the undetermined block match for n = 2, 3
    gs2, _ = subdivide(build_graph("K33"), 2, "strict")
    t2 = choose_tree_and_order(gs2, 2)
    gs3, _ = subdivide(build_graph("K33"), 3, "auto")
    t3 = choose_tree_and_order(gs3, 3)
    shapes = []
    for t, n in ((t2, 2), (t3, 3)):
        mc = build_morse_complex(t, n, "unordered")
        rows, _, cols = reference_undetermined_block(mc)
        torsion = [x for x in smith_normal_form(rows).diag if x > 1]
        shapes.append((len(cols), torsion))
    assert shapes[0] == shapes[1]
    _verdict(11, "undetermined block shape and torsion independent of the "
                 "braid index on a biconnected fixture (supplement)")


def test_criterion_12_presentation_suite():
    fixtures = []
    fixtures.append(("B2 K33", k33_pinned_tree(), 2, "unordered", False))
    fixtures.append(("P2 K33", k33_pinned_tree(), 2, "ordered", False))
    fixtures.append(("B4 K5", k5_pinned_tree(), 4, "unordered", False))
    gs, _ = subdivide(build_graph("K5"), 2, "strict")
    fixtures.append(("P2 K5*", choose_tree_and_order(gs, 2), 2, "ordered",
                     True))
    fixtures.append(("B3 Fig", fig_b3n3_tree(), 3, "unordered", False))
    gs, _ = subdivide(build_graph("K4"), 2, "strict")
    fixtures.append(("B2 K4", choose_tree_and_order(gs, 2), 2, "unordered",
                     True))
    fixtures.append(("B3 Th4", theta4_pinned_tree(), 3, "unordered", True))
    for label, tree, n, flavor, zero_sums in fixtures:
        mc = build_morse_complex(tree, n, flavor)
        h1 = homology(mc)[1]
        pres = raw_presentation(mc)
        assert pres.abelianization() == h1, label

        def audit(p, h1=h1, label=label):
            assert p.abelianization() == h1, f"{label}: drifted mid-Tietze"

        pres = simplify(pres, mc, audit=audit)
        assert pres.abelianization() == h1, label
        if zero_sums:
            # commutator-related: planar unordered cases and all pure cases
            for r in pres.relators:
                assert exponent_sums(r) == {}, label
    # planar n = 2 fixtures: beta1 generators, beta2 relators, commutators
    for name in ("K4", "Theta3", "Theta4", "FigB3n3"):
        g = build_graph(name)
        gs, _ = subdivide(g, 2, "strict")
        for flavor, fl in (("unordered", "B"), ("ordered", "P2")):
            tree = choose_tree_and_order(gs, 2)
            mc = build_morse_complex(tree, 2, flavor)
            pres = simplify(raw_presentation(mc), mc)
            assert len(pres.generators) == h1_formula(g, 2, fl).rank, \
                (name, flavor)
            assert len(pres.relators) == beta2_formula(
                g, "B2" if fl == "B" else "P2"), (name, flavor)
            assert all(commutator_form(r) is not None for r in pres.relators)
            for r in pres.relators:
                assert exponent_sums(r) == {}
    _verdict(12, "presentation suite: abelianization stable under every "
                 "Tietze move; commutator-related in the planar and pure cases; "
                 "planar n=2 fixtures minimal")

from collections import Counter
from itertools import permutations
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from graphbraids import cells as C
from graphbraids.cells import (enumerate_cells, critical_cells,
                               estimate_cell_count, euler_characteristic,
                               boundary, phi, phi_inverse, format_cell,
                               perm_cycles, CellError)
from graphbraids.corpus import corpus
from graphbraids.fixtures import (PINNED_TREES, k33_pinned_tree,
                                  k5_pinned_tree, theta4_pinned_tree,
                                  fig_b3n3_tree)
from graphbraids.graphs import build_graph, subdivide
from graphbraids.trees import choose_tree_and_order
from reference import (classify, matching, parse_cell, random_ordered_tree,
                       reference_boundary, reference_classify,
                       reference_critical_cells, reference_euler_characteristic)


def test_cell_counts_k33():
    t = k33_pinned_tree()
    cells = enumerate_cells(t, 2, "unordered")
    assert {d: len(v) for d, v in cells.items()} == {0: 15, 1: 36, 2: 18}
    cells_o = enumerate_cells(t, 2, "ordered")
    assert {d: len(v) for d, v in cells_o.items()} == {0: 30, 1: 72, 2: 36}


def test_n1_cells_are_graph():
    t = k33_pinned_tree()
    cells = enumerate_cells(t, 1, "unordered")
    assert len(cells[0]) == 6 and len(cells[1]) == 9


def test_enumeration_cap():
    t = k33_pinned_tree()
    with pytest.raises(CellError, match="cap"):
        enumerate_cells(t, 2, "unordered", cap=10)


def classified_critical_cells(t, n, flavor):
    return {d: [c for c in cs if classify(t, c).kind == "critical"]
            for d, cs in enumerate_cells(t, n, flavor).items()}


def labellings(by_dim):
    """Each unordered cell's orbit of ordered cells, in the order
    enumerate_cells lists them."""
    return {d: [p for c in cs for p in permutations(c)]
            for d, cs in by_dim.items()}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3),
       st.sampled_from(["unordered", "ordered"]))
def test_critical_cells_match_classification_on_corpus(seed, n, flavor):
    g = corpus(seed, 1)[0]
    gs, _ = subdivide(g, n, "strict" if n == 2 else "auto")
    t = choose_tree_and_order(gs, n)
    got = critical_cells(t, n, flavor)
    if flavor == "ordered":
        got = labellings(got)
    want = classified_critical_cells(t, n, flavor)
    assert sorted(got) == sorted(want)  # empty dimensions included
    assert got == want


def test_critical_cells_match_classification_on_random_trees():
    # about half of these trees fail T2, and a tree edge's blocking sibling
    # is what generation prunes on; the whole complex is enumerated and
    # classified, so trees whose complex passes 30,000 cells are left out
    compared = Counter()
    for seed in range(60):
        t = random_ordered_tree(seed)
        for n in range(1, 5):
            for flavor in ("unordered", "ordered"):
                size = estimate_cell_count(t, n)
                if flavor == "ordered":
                    size *= factorial(n)
                if size > 30_000:
                    continue
                got = critical_cells(t, n, flavor)
                if flavor == "ordered":
                    got = labellings(got)
                want = classified_critical_cells(t, n, flavor)
                assert got == want, (seed, n, flavor)
                compared[n, flavor] += 1
    assert compared[4, "unordered"] >= 50 and compared[4, "ordered"] >= 30


def test_critical_cells_reach_the_top_degree_of_the_complex():
    # complex_dimension gives critical_cells its keys: the most disjoint
    # edges, at most n, that leave n - d vertices free.  A top degree read
    # without the free vertices is too high exactly on small trees at large
    # n, whose whole complexes are small
    compared = 0
    for seed in range(200):
        t = random_ordered_tree(seed)
        for n in range(2, 6):
            if estimate_cell_count(t, n) > 20_000:
                continue
            top = max(enumerate_cells(t, n), default=-1)
            assert max(critical_cells(t, n), default=-1) == top, (seed, n)
            compared += 1
    assert compared >= 400


def test_critical_cells_match_classification_k5():
    t = k5_pinned_tree()
    got = critical_cells(t, 4, "unordered")
    assert got == classified_critical_cells(t, 4, "unordered")
    assert sorted(got) == [0, 1, 2, 3, 4]
    assert sum(len(cs) for cs in got.values()) == 396


def assert_generated_as_the_reference(t, n, flavor, cap=C.CAP):
    """The same cells in the same per-degree order, or the same refusal."""
    try:
        want = reference_critical_cells(t, n, flavor, cap)
    except CellError as exc:
        with pytest.raises(CellError) as got:
            critical_cells(t, n, flavor, cap)
        assert str(got.value) == str(exc), (n, flavor, cap)
        return
    got = critical_cells(t, n, flavor, cap)
    assert list(got.items()) == list(want.items()), (n, flavor, cap)


def test_critical_cell_cap_counts_ordered_cells():
    # the cap counts items: n = 2 per cell, n * n! = 4 per ordered orbit
    t = k33_pinned_tree()
    assert sum(len(cs) for cs in critical_cells(t, 2, cap=22).values()) == 11
    with pytest.raises(CellError, match="cap"):
        critical_cells(t, 2, cap=21)
    ordered = labellings(critical_cells(t, 2, "ordered", cap=44))
    assert sum(len(cs) for cs in ordered.values()) == 22
    with pytest.raises(CellError, match="cap"):
        critical_cells(t, 2, "ordered", cap=43)
    for cap in (21, 22, 43, 44):
        for flavor in ("unordered", "ordered"):
            assert_generated_as_the_reference(t, 2, flavor, cap)


def test_critical_cells_equal_the_reference_on_random_trees():
    for seed in range(150):
        t = random_ordered_tree(seed)
        for n in range(6):
            for flavor in ("unordered", "ordered"):
                assert_generated_as_the_reference(t, n, flavor)


@pytest.mark.parametrize("key", sorted(PINNED_TREES))
def test_critical_cells_equal_the_reference_on_pinned_trees(key):
    t = PINNED_TREES[key]()
    for n in range(6):
        for flavor in ("unordered", "ordered"):
            assert_generated_as_the_reference(t, n, flavor)


def test_suitably_subdivided_input_over_the_cap_is_refused_before_any_search(
        monkeypatch):
    # |chi(UD_200)| of K(1,3) is about 20,000 cells of 200 items each
    gs, _ = subdivide(build_graph("K(1,3)"), 200, "auto")
    t = choose_tree_and_order(gs, 200)
    monkeypatch.setattr(C, "complex_dimension", None)  # the search calls it
    with pytest.raises(CellError, match=r"cap of 1000000 items \(200 per cell"):
        critical_cells(t, 200)


def test_gal_series_does_not_refuse_a_graph_that_is_not_suitably_subdivided():
    # chi(UD_20) of K5 is -5,721,342, but the pinned tree's graph has
    # segments too short for n = 20, and 9,622 critical cells
    got = critical_cells(k5_pinned_tree(), 20)
    assert [len(got[d]) for d in sorted(got)] == [126, 1350, 3742, 3416,
                                                   940, 48]


@pytest.mark.parametrize("subdivided", [False, True])
def test_gal_series_by_valency_equals_the_per_vertex_loop(subdivided):
    for g in corpus(7, 40):
        if subdivided:
            g, _ = subdivide(g, 3, "auto")
        t = SimpleNamespace(graph=g)
        for n in range(9):
            for flavor in ("unordered", "ordered"):
                assert (euler_characteristic(t, n, flavor)
                        == reference_euler_characteristic(t, n, flavor))


def test_gal_series_matches_cell_counts():
    for t, n in [(k33_pinned_tree(), 2), (theta4_pinned_tree(), 3),
                 (fig_b3n3_tree(), 3)]:
        for flavor in ("unordered", "ordered"):
            cells = enumerate_cells(t, n, flavor)
            chi = sum((-1) ** d * len(cs) for d, cs in cells.items())
            assert euler_characteristic(t, n, flavor) == chi


def test_classification_examples():
    t = k33_pinned_tree()
    assert classify(t, parse_cell("{1,4}")[0]).kind == "redundant"
    assert classify(t, parse_cell("{0-1,4}")[0]).kind == "collapsible"
    assert classify(t, parse_cell("{0,1}")[0]).kind == "critical"
    assert classify(t, parse_cell("{2-4,3}")[0]).kind == "critical"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3),
       st.sampled_from(["unordered", "ordered"]))
def test_classify_matches_reference_on_corpus(seed, n, flavor):
    g = corpus(seed, 1)[0]
    gs, _ = subdivide(g, n, "strict" if n == 2 else "auto")
    t = choose_tree_and_order(gs, n)
    for cs in enumerate_cells(t, n, flavor).values():
        for cell in cs:
            got, want = classify(t, cell), reference_classify(t, cell)
            assert (got.kind, got.witness, got.unblocked) == \
                (want.kind, want.witness, want.unblocked)
            if got.kind == "redundant":
                assert sorted(got.occupied) == sorted(
                    x for it in cell for x in C.closure_vertices(it))


def test_matching_examples():
    t = k33_pinned_tree()
    c = parse_cell("{1,4}")[0]
    assert format_cell(matching(t, c)) == "{0-1,4}"
    assert matching(t, parse_cell("{0,1}")[0]) is None
    # W restricted to redundant cells is injective into collapsible cells
    cells = enumerate_cells(t, 2, "unordered")
    images = {}
    for d, cs in cells.items():
        for cell in cs:
            w = matching(t, cell)
            if w is None:
                continue
            assert classify(t, w).kind == "collapsible"
            assert w not in images
            images[w] = cell
    # every collapsible cell is matched
    n_collapsible = sum(1 for cs in cells.values() for cell in cs
                        if classify(t, cell).kind == "collapsible")
    assert n_collapsible == len(images)


def test_boundary_example_and_single_edge():
    t = k33_pinned_tree()
    c = parse_cell("{0-3,1-5}")[0]
    chain = {format_cell(f): s for f, s in boundary(c)}
    assert chain == {"{1-5,3}": -1, "{1-5,0}": 1, "{0-3,5}": 1, "{0-3,1}": -1}
    c = parse_cell("{0-1,4}")[0]
    assert {format_cell(f): s for f, s in boundary(c)} == \
        {"{0,4}": 1, "{1,4}": -1}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_boundary_matches_reference_on_random_trees(seed):
    # unordered faces are spliced into place, not sorted
    t = random_ordered_tree(seed)
    for n in (1, 2, 3):
        for flavor in ("unordered", "ordered"):
            ordered = flavor == "ordered"
            for cs in enumerate_cells(t, n, flavor).values():
                for cell in cs:
                    assert boundary(cell, ordered) == \
                        reference_boundary(cell, ordered), cell


def test_boundary_squares_to_zero():
    for t, n, flavor in [(k33_pinned_tree(), 2, "unordered"),
                         (k33_pinned_tree(), 2, "ordered"),
                         (theta4_pinned_tree(), 3, "unordered"),
                         (theta4_pinned_tree(), 3, "ordered")]:
        cells = enumerate_cells(t, n, flavor)
        ordered = flavor == "ordered"
        for d in sorted(cells):
            if d < 2:
                continue
            for cell in cells[d]:
                acc = Counter()
                for f, s in boundary(cell, ordered):
                    for f2, s2 in boundary(f, ordered):
                        acc[f2] += s * s2
                assert all(v == 0 for v in acc.values())


def test_phi_examples_and_roundtrip():
    c, o = parse_cell("(1-3,2)")
    assert o is True
    sc, sg = phi(c)
    assert perm_cycles(sg) == "id"
    c, _ = parse_cell("(4,3-5)")
    sc, sg = phi(c)
    assert sc == ((3, 5), (4, -1)) and perm_cycles(sg) == "(1,2)"
    t = theta4_pinned_tree()
    cells_o = enumerate_cells(t, 3, "ordered")
    for d, cs in cells_o.items():
        for cell in cs[:40]:
            sc, sg = phi(cell)
            assert phi_inverse(sc, sg) == cell
            # ordered classification agrees with the unordered projection
            assert classify(t, cell).kind == classify(t, sc).kind


def test_ordered_counts_are_factorial_multiples():
    import math
    t = theta4_pinned_tree()
    u = enumerate_cells(t, 3, "unordered")
    o = enumerate_cells(t, 3, "ordered")
    for d in u:
        assert len(o[d]) == math.factorial(3) * len(u[d])


def test_critical_zero_cells():
    t = theta4_pinned_tree()
    u = enumerate_cells(t, 3, "unordered")
    crit0 = [c for c in u[0] if classify(t, c).kind == "critical"]
    assert crit0 == [tuple(C.vertex(i) for i in range(3))]
    o = enumerate_cells(t, 3, "ordered")
    crit0o = [c for c in o[0] if classify(t, c).kind == "critical"]
    assert len(crit0o) == 6  # n!


def test_parse_format_roundtrip():
    for text in ["{0-3,1-5}", "{0,1}", "(4,3-5)", "(1-3,2)"]:
        cell, ordered = parse_cell(text)
        assert parse_cell(format_cell(cell, ordered)) == (cell, ordered)
    with pytest.raises(CellError):
        parse_cell("0-3,1")

from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from graphbraids import cells as C
from graphbraids.cells import parse_cell, format_cell, phi, vertex
from graphbraids.corpus import corpus
from graphbraids.fixtures import (k33_pinned_tree, k5_pinned_tree,
                                  theta4_pinned_tree, fig_b3n3_tree,
                                  pinned_tree)
from graphbraids.graphs import build_graph, subdivide
from graphbraids.homology import homology
from graphbraids.trees import choose_tree_and_order
from graphbraids.morse import (Reducer, morse_boundary, build_morse_complex,
                               fast_morse_boundary, name_critical_cell,
                               materialize_name, format_name, bare_fill,
                               MorseError, cell_sort_key)
from reference import ReferenceReducer, dense_boundaries, per_labelling_complex


def chain_by_name(mc, chain):
    return {mc.name_of(c): v for c, v in chain.items()}


def chain_by_cell(chain, ordered=False):
    return {format_cell(c, ordered): v for c, v in chain.items()}


# ---------------------------------------------------------------------------
# the warm-up reductions on K33

def test_reduce_examples_k33():
    t = k33_pinned_tree()
    red = Reducer(t)
    c = parse_cell("{1-5,3}")[0]
    assert chain_by_cell(red.reduce_cell(c)) == {"{1-5,2}": 1}
    c = parse_cell("{0-3,5}")[0]
    assert chain_by_cell(red.reduce_cell(c)) == {"{2-4,3}": 1, "{0-3,1}": 1}
    crit = parse_cell("{2-4,3}")[0]
    assert red.reduce_cell(crit) == {crit: 1}


def test_reduce_shortcut_equals_naive():
    t = k33_pinned_tree()
    red, naive = Reducer(t), ReferenceReducer(t)
    moves = []
    shortcut = red._shortcut_move

    def counted(cell, cls):
        moves.append(shortcut(cell, cls))
        return moves[-1]

    red._shortcut_move = counted
    for s in ("{0-3,1-5}", "{0-4,1-5}", "{0-4,3-5}"):
        c = parse_cell(s)[0]
        assert morse_boundary(red, c) == naive.morse_boundary(c)
    assert any(m is not None for m in moves)  # the shortcut move was taken


def test_morse_boundary_k33():
    t = k33_pinned_tree()
    red = Reducer(t)
    c = parse_cell("{0-3,1-5}")[0]
    assert chain_by_cell(morse_boundary(red, c)) == \
        {"{1-5,2}": -1, "{1-5,0}": 1, "{2-4,3}": 1}


def test_morse_boundary_ordered_k33():
    t = k33_pinned_tree()
    red = Reducer(t, ordered=True)
    c = parse_cell("(0-3,1-5)")[0]
    assert chain_by_cell(morse_boundary(red, c), True) == \
        {"(2,1-5)": -1, "(0,1-5)": 1, "(3,2-4)": 1}
    # subscript rule: the sigma-copy is the id-copy with subscripts flipped
    c_sigma = parse_cell("(1-5,0-3)")[0]
    out = chain_by_cell(morse_boundary(red, c_sigma), True)
    assert out == {"(1-5,2)": -1, "(1-5,0)": 1, "(2-4,3)": 1}
    # R((1,3)_sigma) = (0,1)_sigma
    assert chain_by_cell(red.reduce_cell(((3, -1), (1, -1))), True) == \
        {"(1,0)": 1}


def test_critical_counts():
    cases = [
        (k33_pinned_tree(), 2, "unordered", {0: 1, 1: 7, 2: 3}),
        (k33_pinned_tree(), 2, "ordered", {0: 2, 1: 14, 2: 6}),
        (theta4_pinned_tree(), 3, "unordered", {0: 1, 1: 8, 2: 3}),
    ]
    for t, n, flavor, want in cases:
        mc = build_morse_complex(t, n, flavor)
        got = {d: len(v) for d, v in mc.critical.items() if v}
        assert got == want
        mc.validate_chain_complex()


def test_corrupt_boundary_raises():
    mc = build_morse_complex(k33_pinned_tree(), 2, "unordered")
    d2 = mc.boundaries[2]
    j = next(j for row in d2 for j in row)
    row = mc.boundaries[1][j]
    row[0] = row.get(0, 0) + 1
    with pytest.raises(MorseError, match="d o d"):
        mc.validate_chain_complex()


def test_missing_matched_face_raises(monkeypatch):
    from graphbraids import cells
    monkeypatch.setattr(cells, "boundary", lambda cell, ordered=False: [])
    t = k33_pinned_tree()
    red = Reducer(t)
    # the end 3 of edge 0-3 sits between vertex 4 and its parent 2, so no
    # shortcut move applies and the matched cell's boundary is read
    cell = parse_cell("{0-3,4}")[0]
    assert red._shortcut_move(cell, cells.classify(t, cell)) is None
    with pytest.raises(MorseError, match="matched face"):
        red.reduce_cell(cell)


@pytest.mark.parametrize("make,n", [(k33_pinned_tree, 2),
                                    (theta4_pinned_tree, 3)])
@pytest.mark.parametrize("flavor", ["unordered", "ordered"])
def test_each_reduced_cell_is_classified_once(monkeypatch, make, n, flavor):
    from graphbraids import cells
    t = make()
    mc = build_morse_complex(t, n, flavor)
    calls = []
    classify = cells.classify
    monkeypatch.setattr(cells, "classify",
                        lambda t, cell: calls.append(cell) or classify(t, cell))
    red = Reducer(t, ordered=flavor == "ordered")
    for cell in mc.critical[2]:
        morse_boundary(red, cell)
    assert len(calls) == len(red.memo) > 0


def test_k33_critical_cells_known_values():
    t = k33_pinned_tree()
    mc = build_morse_complex(t, 2, "unordered")
    ones = {format_cell(c) for c in mc.critical[1]}
    assert ones == {"{0-3,1}", "{0-4,1}", "{0-4,5}", "{1-5,0}", "{1-5,2}",
                    "{2-4,3}", "{3-5,0}"}
    twos = {format_cell(c) for c in mc.critical[2]}
    assert twos == {"{0-3,1-5}", "{0-4,1-5}", "{0-4,3-5}"}


def test_euler_characteristic_preserved():
    for t, n, flavor in [(k33_pinned_tree(), 2, "unordered"),
                         (k33_pinned_tree(), 2, "ordered"),
                         (theta4_pinned_tree(), 3, "unordered"),
                         (theta4_pinned_tree(), 3, "ordered"),
                         (fig_b3n3_tree(), 3, "unordered")]:
        mc = build_morse_complex(t, n, flavor)
        assert mc.euler_characteristic() == mc.full_euler_characteristic()


def test_theta4_counts_and_chi():
    t = theta4_pinned_tree()
    mc = build_morse_complex(t, 3, "unordered", path="both")
    assert [len(mc.critical[d]) for d in (0, 1, 2)] == [1, 8, 3]
    assert mc.euler_characteristic() == -4
    mco = build_morse_complex(t, 3, "ordered")
    assert mco.euler_characteristic() == -24


# ---------------------------------------------------------------------------
# the closed formulas on the K5 tree (worked examples)

def test_fast_boundary_worked_example_tree_edge():
    # boundary of B_3(1,0,1) u d_2 = B_3(1,0,1) - B_3(1,1,1) + B_3(0,1,1)
    t = k5_pinned_tree()
    cell = tuple(sorted([(11, 16), (0, 15), vertex(12), vertex(17)]))
    nm = name_critical_cell(t, cell)
    assert format_name(t, nm) == "B_3(1,0,1) ∪ d_2"
    out = fast_morse_boundary(t, cell)
    mc_names = {}
    for c, v in out.items():
        mc_names[format_name(t, name_critical_cell(t, c), c)] = v
    assert mc_names == {"B_3(1,0,1)": 1, "B_3(1,1,1)": -1, "B_3(0,1,1)": 1}
    assert out == morse_boundary(Reducer(t), cell)


def test_fast_boundary_worked_example_two_deleted():
    # boundary of d_6(0,1) u d_4 = d_6(0,1) - d_6(0,2) + wedge(d_6, d_4)
    t = k5_pinned_tree()
    cell = tuple(sorted([(6, 20), (3, 13), vertex(9), vertex(0)]))
    nm = name_critical_cell(t, cell)
    assert format_name(t, nm) == "d_6(0,1) ∪ d_4"
    out = fast_morse_boundary(t, cell)
    names = {format_name(t, name_critical_cell(t, c), c): v
             for c, v in out.items()}
    assert names == {"d_6(0,1)": 1, "d_6(0,2)": -1, "B_3(1,0,0)": 1}
    assert out == morse_boundary(Reducer(t), cell)


def test_fast_zero_cases():
    t = k5_pinned_tree()
    # two tree edges always die
    cell = tuple(sorted([(6, 9), (11, 16), vertex(7), vertex(12)]))
    assert fast_morse_boundary(t, cell) == {}
    # a deleted edge not separated by the tree edge's vertex dies too
    cell = tuple(sorted([(18, 23), (0, 8), vertex(19), vertex(21)]))
    assert fast_morse_boundary(t, cell) == {}
    assert morse_boundary(Reducer(t), cell) == {}


def test_fast_matches_generic_everywhere_k5():
    t = k5_pinned_tree()
    build_morse_complex(t, 4, "unordered", path="both")


def test_fast_requires_conditions():
    t = k33_pinned_tree()  # T1/T2 fail here
    with pytest.raises(MorseError):
        build_morse_complex(t, 2, "unordered", path="fast")
    with pytest.raises(MorseError):
        build_morse_complex(theta4_pinned_tree(), 3, "ordered", path="fast")


def test_fast_ordered_n2():
    gs, _ = subdivide(build_graph("K33"), 2, "strict")
    t = choose_tree_and_order(gs, 2)
    build_morse_complex(t, 2, "ordered", path="both")
    gs5, _ = subdivide(build_graph("K5"), 2, "strict")
    t5 = choose_tree_and_order(gs5, 2)
    build_morse_complex(t5, 2, "ordered", path="both")


def test_dependence_on_lower_vector():
    # boundary of A_k(a) u d'(b) is independent of b
    t = k5_pinned_tree()
    red = Reducer(t)
    with_b = tuple(sorted([(6, 20), (3, 13), vertex(9), vertex(4)]))
    without = tuple(sorted([(6, 20), (3, 13), vertex(9), vertex(0)]))
    nm = name_critical_cell(t, with_b)
    assert nm.terms[1].vec != nm.terms[0].vec or True
    a = morse_boundary(red, with_b)
    b = morse_boundary(red, without)
    assert a == b


def test_leading_coefficient():
    # when the boundary is nonzero its largest summand is the size-(s+1)
    # cell over the same edge with coefficient -1
    for t, n in [(k5_pinned_tree(), 4), (theta4_pinned_tree(), 3)]:
        mc = build_morse_complex(t, n, "unordered")
        for row, c2 in zip(dense_boundaries(mc)[2], mc.critical[2]):
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            lead = min(nz)
            assert row[lead] == -1
            name2 = name_critical_cell(t, c2)
            name1 = name_critical_cell(t, mc.critical[1][lead])
            hi = name2.terms[0]
            assert name1.terms[0].edge == hi.edge
            assert sum(name1.terms[0].vec) == sum(hi.vec) + 1


def test_staircase_sum_tail_property():
    # the staircase reduction only depends on the vector entries above the
    # target branch: bold_A(a, l) = bold_A(b, l) whenever a_m = b_m for m > l
    from graphbraids.morse import bold_A
    from itertools import product
    t = k5_pinned_tree()
    n = 4
    for a_vertex in (11, 18):
        mu = t.branch_count(a_vertex)
        vecs = [v for v in product(range(3), repeat=mu) if 1 <= sum(v) <= n - 2]
        for ell in range(1, mu + 1):
            for a in vecs:
                for b in vecs:
                    if a[ell:] == b[ell:]:
                        assert bold_A(t, a_vertex, a, ell, n) == \
                            bold_A(t, a_vertex, b, ell, n), (a, b, ell)


def test_name_roundtrip():
    for t, n in [(k5_pinned_tree(), 4), (theta4_pinned_tree(), 3),
                 (fig_b3n3_tree(), 3)]:
        mc = build_morse_complex(t, n, "unordered")
        for d in (1, 2):
            for c in mc.critical.get(d, ()):
                nm = name_critical_cell(t, c)
                if nm is not None and nm.canonical:
                    assert materialize_name(t, nm) == c


def test_bare_fill_skips_closures():
    t = k5_pinned_tree()
    cell = bare_fill(t, [(0, 15), (6, 20)], 2)
    assert cell == tuple(sorted([(0, 15), (6, 20), vertex(1), vertex(2)]))


def test_reversed_order_is_descending():
    t = k5_pinned_tree()
    mc = build_morse_complex(t, 4, "unordered")
    keys = [cell_sort_key(t, c) for c in mc.critical[1]]
    assert keys == sorted(keys, reverse=True)


# ---------------------------------------------------------------------------
# the ordered reduction: D_n -> UD_n is an n!-sheeted covering, and the
# ordered reducer keeps one memo entry per orbit of relabellings

def _tree(g, n):
    gs, _ = subdivide(g, n, "strict" if n == 2 else "auto")
    return choose_tree_and_order(gs, n)


def _push_forward(chain):
    """Sum the coefficients of an ordered chain over each unordered cell."""
    out: dict = {}
    for c, x in chain.items():
        sc = phi(c)[0]
        out[sc] = out.get(sc, 0) + x
    return {c: x for c, x in out.items() if x}


def _ordered_critical(t, n):
    """The ordered critical cells: each unordered one's n! labellings."""
    return {d: [p for c in cs for p in permutations(c)]
            for d, cs in C.critical_cells(t, n, "ordered").items()}


def _check_covering(t, n):
    """The ordered Morse boundary pushes forward to the unordered one on
    every critical cell, and rank H_d(B_n) <= rank H_d(P_n) by transfer."""
    ordered, unordered = Reducer(t, ordered=True), Reducer(t)
    for cs in _ordered_critical(t, n).values():
        for c in cs:
            assert _push_forward(morse_boundary(ordered, c)) == \
                morse_boundary(unordered, phi(c)[0])
    h_p = homology(build_morse_complex(t, n, "ordered"))
    h_b = homology(build_morse_complex(t, n, "unordered"))
    assert h_b.keys() == h_p.keys()
    assert all(h_b[d].rank <= h_p[d].rank for d in h_b)


@pytest.mark.parametrize("name,n", [("K33", 2), ("K33", 3), ("K33", 4),
                                    ("Theta4", 3)])
def test_ordered_boundary_covers_unordered(name, n):
    t = pinned_tree(name, n) or _tree(build_graph(name), n)
    _check_covering(t, n)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_ordered_boundary_covers_unordered_on_corpus(seed, n):
    g = corpus(seed, 1)[0]
    assume(n < 4 or len(g.edges) <= 8)
    _check_covering(_tree(g, n), n)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_ordered_boundary_matches_reference_walk_on_corpus(seed, n):
    t = _tree(corpus(seed, 1)[0], n)
    red, ref = Reducer(t, ordered=True), ReferenceReducer(t, ordered=True)
    for cs in _ordered_critical(t, n).values():
        for c in cs:
            assert morse_boundary(red, c) == ref.morse_boundary(c)
    # one memo entry per orbit, under its sorted representative
    assert all(phi(k)[0] == k for k in red.memo)


# ---------------------------------------------------------------------------
# names and basis order: built once per orbit, equal to the per-labelling ones

def _check_orbit_names(t, n):
    mc = build_morse_complex(t, n, "ordered")
    for d, cs in _ordered_critical(t, n).items():
        for c in cs:
            assert mc.names[c] == name_critical_cell(t, *phi(c))
        cs.sort(key=lambda c: cell_sort_key(t, *phi(c)), reverse=True)
        assert mc.critical[d] == cs


@pytest.mark.parametrize("name,n", [("K33", 2), ("K33", 3), ("K33", 4),
                                    ("Theta4", 3)])
def test_ordered_names_per_orbit(name, n):
    _check_orbit_names(pinned_tree(name, n) or _tree(build_graph(name), n), n)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_ordered_names_per_orbit_on_corpus(seed, n):
    _check_orbit_names(_tree(corpus(seed, 1)[0], n), n)


# ---------------------------------------------------------------------------
# the ordered basis is the unordered one expanded orbit by orbit

def _check_ordered_basis_expands_unordered(t, n):
    po = build_morse_complex(t, n, "ordered")
    bo = build_morse_complex(t, n, "unordered")
    sigmas = list(permutations(range(1, n + 1)))
    assert po.critical.keys() == bo.critical.keys()
    for d, cs in bo.critical.items():
        assert po.critical[d] == [C.phi_inverse(c, s) for c in cs
                                  for s in sigmas]
        for c in cs:
            name = bo.names[c]
            for s in sigmas:
                got = po.names[C.phi_inverse(c, s)]
                assert got == (name and replace(name, sigma=s))


@pytest.mark.parametrize("name,n", [("K33", 2), ("K33", 3), ("K33", 4),
                                    ("Theta4", 3)])
def test_ordered_basis_expands_unordered(name, n):
    t = pinned_tree(name, n) or _tree(build_graph(name), n)
    _check_ordered_basis_expands_unordered(t, n)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_ordered_basis_expands_unordered_on_corpus(seed, n):
    _check_ordered_basis_expands_unordered(_tree(corpus(seed, 1)[0], n), n)


# ---------------------------------------------------------------------------
# one reduction per orbit: every labelling's row and relator are its orbit
# representative's, relabelled by index arithmetic

def _check_per_labelling(t, n):
    mc = build_morse_complex(t, n, "ordered")
    critical, names, boundaries, relators = per_labelling_complex(t, n)
    assert mc.critical == critical
    assert mc.names == names
    assert dense_boundaries(mc) == boundaries
    assert mc.relators == relators


@pytest.mark.parametrize("name,n", [("K33", 2), ("K33", 3), ("K33", 4),
                                    ("K(3,4)", 2), ("K(3,4)", 3),
                                    ("Theta4", 3)])
def test_ordered_build_matches_per_labelling_walk(name, n):
    _check_per_labelling(pinned_tree(name, n) or _tree(build_graph(name), n),
                         n)


POINT = {"vertices": ["a"], "edges": []}
SEGMENT = {"vertices": ["a", "b"], "edges": [["e", "a", "b"]]}
CIRCLE = {"vertices": ["a", "b", "c"],
          "edges": [["x", "a", "b"], ["y", "b", "c"], ["z", "c", "a"]]}


@pytest.mark.parametrize("graph,n", [
    ("K33", 1), (POINT, 1), (POINT, 2), (POINT, 3), (SEGMENT, 1),
    (SEGMENT, 2), (SEGMENT, 3), (CIRCLE, 1), (CIRCLE, 2), (CIRCLE, 3)],
    ids=["K33-n1", "point-n1", "point-n2", "point-n3", "segment-n1",
         "segment-n2", "segment-n3", "circle-n1", "circle-n2", "circle-n3"])
def test_ordered_build_matches_per_labelling_walk_degenerate(graph, n):
    _check_per_labelling(_tree(build_graph(graph), n), n)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_ordered_build_matches_per_labelling_walk_on_corpus(seed, n):
    _check_per_labelling(_tree(corpus(seed, 1)[0], n), n)


def test_both_checks_every_labelling(monkeypatch):
    from graphbraids import morse
    t = _tree(build_graph("K33"), 2)
    mc = build_morse_complex(t, 2, "ordered", path="both")
    target = mc.critical[2][-1]
    assert phi(target)[1] != (1, 2)  # not the orbit's representative
    fast_for = morse._fast_for

    def corrupted(t, cell, ordered):
        out = dict(fast_for(t, cell, ordered))
        if cell == target:
            g = mc.critical[1][0]
            out[g] = out.get(g, 0) + 1
        return out

    monkeypatch.setattr(morse, "_fast_for", corrupted)
    with pytest.raises(MorseError, match="fast/generic disagree"):
        build_morse_complex(t, 2, "ordered", path="both")


def test_derived_column_outside_basis_raises(monkeypatch):
    from graphbraids import morse
    monkeypatch.setattr(morse, "_product_table",
                        lambda sigmas: [[10 ** 9] * len(sigmas)] * len(sigmas))
    with pytest.raises(MorseError, match="falls outside the critical 0-cells"):
        build_morse_complex(k33_pinned_tree(), 2, "ordered")


def test_derived_column_at_the_basis_width_raises(monkeypatch):
    # K33 n=2 ordered has two critical 0-cells, so column 2 is one past them
    from graphbraids import morse
    monkeypatch.setattr(morse, "_product_table",
                        lambda sigmas: [[2] * len(sigmas)] * len(sigmas))
    with pytest.raises(MorseError, match="falls outside the critical 0-cells"):
        build_morse_complex(k33_pinned_tree(), 2, "ordered")


@pytest.mark.parametrize("name,n,flavor", [("K33", 2, "unordered"),
                                           ("K33", 3, "ordered"),
                                           ("K(3,4)", 2, "ordered")])
def test_boundary_rows_are_sparse(name, n, flavor):
    # one row per cell, no zero entry, every column a cell one degree down
    mc = build_morse_complex(_tree(build_graph(name), n), n, flavor)
    for d, rows in mc.boundaries.items():
        assert len(rows) == len(mc.critical[d])
        width = len(mc.critical[d - 1])
        for row in rows:
            assert all(x and 0 <= j < width for j, x in row.items())
    assert any(mc.boundaries.values())


def test_colliding_labellings_raise(monkeypatch):
    monkeypatch.setattr(C, "phi_inverse", lambda cell, sigma: tuple(cell))
    with pytest.raises(MorseError, match="are not distinct"):
        build_morse_complex(k33_pinned_tree(), 2, "ordered")

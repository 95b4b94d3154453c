from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from graphbraids.corpus import corpus
from graphbraids.fixtures import (PINNED_TREES, k33_pinned_tree, k5_pinned_tree,
                                  theta4_pinned_tree, fig_b3n3_tree)
from graphbraids.graphs import build_graph, subdivide
from graphbraids.trees import choose_tree_and_order
from graphbraids.morse import build_morse_complex
from graphbraids.homology import AbelianGroup, homology
from graphbraids.closedforms import (check_closed_forms, classify_1cells,
                                     separating_families, wedge_cell)
from graphbraids.intlinalg import (smith_normal_form, kernel_basis,
                                   kernel_coordinates)
from graphbraids.morse import MorseError

from reference import (dense_boundaries, parse_cell, per_matrix_homology,
                       random_ordered_tree, reference_classify_1cells,
                       reference_separating_families,
                       reference_undetermined_block, reference_wedge_cell,
                       relative_h1_rank)


def test_abelian_group_canonical():
    g = AbelianGroup.from_presentation(3, [[2, 0, 0], [0, 3, 0]])
    assert (g.rank, g.torsion) == (1, (6,))
    assert str(AbelianGroup(4, (2,))) == "Z^4 + Z_2"
    assert str(AbelianGroup(0)) == "0"


def reference_homology(mc):
    """Homology the long way: an integer basis of ker d_d from a row
    echelon of [d_d | I], im d_(d+1) rewritten in kernel coordinates, and a
    Smith form for the quotient."""
    out = {}
    boundaries = dense_boundaries(mc)
    for d in sorted(set(mc.critical) | {0, 1, 2}):
        nd = len(mc.critical.get(d, ()))
        lower = boundaries.get(d)
        upper = boundaries.get(d + 1, [])
        if nd == 0:
            out[d] = AbelianGroup(0)
            continue
        if not lower or not mc.critical.get(d - 1):
            out[d] = (AbelianGroup.from_presentation(nd, upper) if upper
                      else AbelianGroup(nd))
            continue
        basis, snf = kernel_basis(lower)
        coords = [kernel_coordinates(snf, row) for row in upper]
        out[d] = (AbelianGroup.from_presentation(len(basis), coords) if coords
                  else AbelianGroup(len(basis)))
    return out


def _corpus_complex(seed, n, flavor):
    g = corpus(seed, 1)[0]
    gs, _ = subdivide(g, n, "strict" if n == 2 else "auto")
    return build_morse_complex(choose_tree_and_order(gs, n), n, flavor)


@pytest.mark.parametrize("flavor", ["unordered", "ordered"])
def test_homology_matches_kernel_reference(flavor):
    complexes = [build_morse_complex(k33_pinned_tree(), 2, flavor),
                 build_morse_complex(theta4_pinned_tree(), 3, flavor)]
    if flavor == "unordered":
        complexes.append(build_morse_complex(k5_pinned_tree(), 4, flavor))
    complexes += [_corpus_complex(seed, n, flavor)
                  for seed in (1, 2, 3) for n in (1, 2, 3)]
    for mc in complexes:
        assert homology(mc) == reference_homology(mc)


# the top-down pass drops the rows of d_d at the pivot columns of d_(d+1);
# the reference takes one Smith form of each whole matrix instead

@pytest.mark.parametrize("flavor", ["unordered", "ordered"])
def test_top_down_homology_matches_per_matrix_smith_forms(flavor):
    for seed in range(8):
        for n in (1, 2, 3):
            mc = _corpus_complex(seed, n, flavor)
            assert homology(mc) == per_matrix_homology(mc)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3),
       st.sampled_from(["unordered", "ordered"]))
def test_top_down_homology_matches_per_matrix_smith_forms_on_corpus(seed, n,
                                                                    flavor):
    mc = _corpus_complex(seed, n, flavor)
    assert homology(mc) == per_matrix_homology(mc)


def test_top_down_homology_matches_per_matrix_smith_forms_k33_n4_ordered():
    t = choose_tree_and_order(subdivide(build_graph("K33"), 4, "auto")[0], 4)
    mc = build_morse_complex(t, 4, "ordered")
    h = homology(mc)
    assert h == per_matrix_homology(mc)
    assert sum((-1) ** d * g.rank for d, g in h.items()) == \
        mc.full_euler_characteristic()


def test_a_pivot_column_outside_the_lower_rows_raises():
    # d2 of K33 n=2 has unit pivots; with d1 cut to one row, they name rows
    # that d1 does not have
    mc = build_morse_complex(k33_pinned_tree(), 2, "unordered")
    assert any(j > 0 for row in mc.boundaries[2] for j in row)
    mc.boundaries[1] = mc.boundaries[1][:1]
    with pytest.raises(MorseError, match="is not a row of d_1"):
        homology(mc)


def test_a_negative_free_rank_raises():
    # every 1-cell bounds the one 0-cell, which is then left out of the basis
    mc = build_morse_complex(k33_pinned_tree(), 2, "unordered")
    mc.boundaries[1] = [{0: 1}] * len(mc.critical[1])
    mc.critical[0] = []
    with pytest.raises(MorseError, match="rank H_0 comes out negative"):
        homology(mc)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4),
       st.sampled_from(["unordered", "ordered"]))
def test_homology_euler_characteristic_matches_gal_series(seed, n, flavor):
    mc = _corpus_complex(seed, n, flavor)
    h = homology(mc)
    assert sum((-1) ** d * g.rank for d, g in h.items()) == \
        mc.full_euler_characteristic()


def test_h1_values_on_pinned_trees():
    cases = [
        (k33_pinned_tree(), 2, "unordered", (4, (2,))),
        (k33_pinned_tree(), 2, "ordered", (8, ())),
        (theta4_pinned_tree(), 3, "unordered", (6, ())),
        (theta4_pinned_tree(), 3, "ordered", (26, ())),
        (k5_pinned_tree(), 4, "unordered", (6, (2,))),
        (fig_b3n3_tree(), 3, "unordered", (28, ())),
    ]
    for t, n, flavor, (rank, torsion) in cases:
        h = homology(build_morse_complex(t, n, flavor))
        assert (h[1].rank, h[1].torsion) == (rank, torsion)
        assert h[0] == AbelianGroup(1)


def test_h2_values():
    assert homology(build_morse_complex(theta4_pinned_tree(), 3,
                                        "unordered"))[2] == AbelianGroup(1)
    assert homology(build_morse_complex(theta4_pinned_tree(), 3,
                                        "ordered"))[2] == AbelianGroup(1)
    assert homology(build_morse_complex(k33_pinned_tree(), 2,
                                        "unordered"))[2] == AbelianGroup(0)
    assert homology(build_morse_complex(k33_pinned_tree(), 2,
                                        "ordered"))[2] == AbelianGroup(1)
    # Abrams: UD_2 of K5 and of K33 is a closed non-orientable surface and
    # D_2 its orientable double cover (K5: Z^6 + Z_2, then Z^12 and Z)
    for name in ("K5", "K33"):
        g, _ = subdivide(build_graph(name), 2, "strict")
        t = choose_tree_and_order(g, 2)
        mc = build_morse_complex(t, 2, "unordered")
        h = homology(mc)
        assert h[2] == AbelianGroup(0)
        assert h[1] == AbelianGroup(1 - mc.euler_characteristic(), (2,))
        mc = build_morse_complex(t, 2, "ordered")
        h = homology(mc)
        assert h[2] == AbelianGroup(1)
        assert h[1] == AbelianGroup(2 - mc.euler_characteristic())


def test_relative_trick():
    # H1(M, M^0) = H1(P2) + Z for the ordered flavor at n = 2
    for t in (k33_pinned_tree(),):
        mc = build_morse_complex(t, 2, "ordered")
        assert relative_h1_rank(mc) == homology(mc)[1].rank + 1


def test_ordered_matrix_k33_known_values():
    """The full 6x14 degree-2 matrix of the ordered K33 complex, in the
    cell listing order of the worked example."""
    t = k33_pinned_tree()
    mc = build_morse_complex(t, 2, "ordered")
    cols_text = ["{0-3,1}", "{0-4,1}", "{0-4,5}", "{1-5,0}", "{1-5,2}",
                 "{2-4,3}", "{3-5,0}"]
    rows_text = ["{0-3,1-5}", "{0-4,1-5}", "{0-4,3-5}"]

    def ordered_pair(text):
        sc = parse_cell(text)[0]
        ident = tuple(sc)
        sigma = (sc[1], sc[0])
        return ident, sigma

    col_cells = []
    for txt in cols_text:
        for cell in ordered_pair(txt):
            col_cells.append(cell)
    row_cells = []
    for txt in rows_text:
        for cell in ordered_pair(txt):
            row_cells.append(cell)
    idx1 = mc.index[1]
    idx2 = mc.index[2]
    want = [
        [0, 0, 0, 0, 0, 0, 1, 0, 0, -1, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 1, 0, 0, 0],
        [0, 0, -1, 0, 1, 0, 1, 0, 0, -1, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 1, 0, 1, -1, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, -1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0],
    ]
    got = []
    d2 = dense_boundaries(mc)[2]
    for rc in row_cells:
        row = d2[idx2[rc]]
        got.append([row[idx1[cc]] for cc in col_cells])
    assert got == want


def test_k5_census_known_values():
    t = k5_pinned_tree()
    mc = build_morse_complex(t, 4, "unordered")
    tags = classify_1cells(mc)
    counts = Counter(tags.values())
    assert counts["free"] == 6 and counts["separating"] == 7
    sep_names = sorted(mc.name_of(c) for c, tag in tags.items()
                       if tag == "separating")
    assert sep_names == ["A_2(1,0)", "B_2(1,0,0)", "B_3(0,1,0)",
                         "B_3(1,0,0)", "C_2(1,0,0)", "C_3(0,1,0)",
                         "C_3(1,0,0)"]
    free_edges = {mc.names[c].terms[0].kind for c, tag in tags.items()
                  if tag == "free"}
    assert free_edges == {"deleted"}


def test_undetermined_block_known_values():
    t = k5_pinned_tree()
    mc = build_morse_complex(t, 4, "unordered")
    rows, labels, cols = reference_undetermined_block(mc)
    assert [mc.name_of(c) for c in cols] == \
        ["C_3(1,0,0)", "C_3(0,1,0)", "C_2(1,0,0)", "B_3(1,0,0)",
         "B_3(0,1,0)", "B_2(1,0,0)", "A_2(1,0)"]
    assert rows == [
        [0, 0, -1, 0, -1, 0, 0],
        [0, 0, 0, 1, -1, 0, 0],
        [-1, 0, 0, 0, -1, 0, 0],
        [0, -1, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 1, 0, -1],
        [0, 0, 0, -1, 0, 0, -1],
        [0, 0, 0, 0, 0, -1, -1],
    ]
    assert smith_normal_form(rows).diag == [1, 1, 1, 1, 1, 1, 2]


def test_ordered_block_p2_k5():
    # the ordered undetermined block on the 25-vertex tree: 14 x 14 of rank
    # 13 with unit factors only, and the worked subscript difference
    from graphbraids.morse import Reducer, morse_boundary
    from graphbraids.cells import phi_inverse
    t = k5_pinned_tree()
    mc = build_morse_complex(t, 2, "ordered")
    check_closed_forms(mc)
    assert homology(mc)[1] == AbelianGroup(12)
    tags = Counter(classify_1cells(mc).values())
    assert tags["free"] == 12 and tags["separating"] == 14
    rows, labels, cols = reference_undetermined_block(mc)
    s = smith_normal_form(rows)
    assert (len(rows), len(cols), s.rank) == (14, 14, 13)
    assert s.diag == [1] * 13
    red = Reducer(t, ordered=True)
    d6, d5, d2 = (6, 20), (3, 22), (0, 15)
    a = morse_boundary(red, phi_inverse(tuple(sorted((d5, d6))), (1, 2)))
    b = morse_boundary(red, phi_inverse(tuple(sorted((d2, d6))), (1, 2)))
    diff = dict(a)
    for c, v in b.items():
        diff[c] = diff.get(c, 0) - v
        if not diff[c]:
            del diff[c]
    assert {mc.name_of(c): v for c, v in diff.items()} == \
        {"C_2(1,0,0)_id": -1, "B_3(0,1,0)_(1,2)": -1}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_separating_families_match_reference_on_random_trees(seed):
    # larger corpus graphs, so that about one tree in eight has a family
    t = random_ordered_tree(seed, max_vertices=8, max_extra=12)
    assert separating_families(t) == reference_separating_families(t)


def test_random_trees_have_separating_families():
    trees = [random_ordered_tree(s, max_vertices=8, max_extra=12)
             for s in range(200)]
    assert sum(bool(separating_families(t)) for t in trees) >= 15


def test_pivotal_test_skips_the_base_side_of_the_census():
    # a tree failing T2: vertex 1 separates d_2 only on its base side,
    # branch 0, which the blocked-vertex vector of d_1(1) does not hold, so
    # d_1(1) is free; reading branch 0 as vec[-1] made it pivotal.  With no
    # critical 2-cell, no relator could eliminate a pivotal cell anyway.
    t = random_ordered_tree(105)
    assert t.sep_classes[1] == {0: [(2, 5)]}
    mc = build_morse_complex(t, 2, "unordered")
    assert not mc.critical.get(2)
    tags = {mc.name_of(c): tag for c, tag in classify_1cells(mc).items()}
    assert tags == {"d_1(1)": "free", "A_2(1,0)": "free", "d_2": "free",
                    "d_1": "free"}


# n = 4 often gives a critical cell with a blocked vertex outside the
# subtree of its edge's tau, which fits no standard form
CENSUS_SETTINGS = ((1, "unordered"), (2, "unordered"), (3, "unordered"),
                   (4, "unordered"), (1, "ordered"), (2, "ordered"))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_census_matches_reference_on_random_trees(seed):
    # about half of these trees fail T2, so some cells fit no standard form
    # and are free; about one seed in eight has a cell whose shape alone
    # would read pivotal
    t = random_ordered_tree(seed)
    for n, flavor in CENSUS_SETTINGS:
        mc = build_morse_complex(t, n, flavor)
        assert classify_1cells(mc) == reference_classify_1cells(mc)


@pytest.mark.parametrize("key", sorted(PINNED_TREES))
@pytest.mark.parametrize("flavor", ["unordered", "ordered"])
def test_census_matches_reference_on_pinned_trees(key, flavor):
    n = 2 if flavor == "ordered" else key[1]
    mc = build_morse_complex(PINNED_TREES[key](), n, flavor)
    assert classify_1cells(mc) == reference_classify_1cells(mc)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(
    [(2, "unordered"), (2, "ordered"), (3, "unordered")]))
def test_census_matches_reference_on_corpus(seed, setting):
    n, flavor = setting
    gs, _ = subdivide(corpus(seed, 1)[0], n, "strict" if n == 2 else "auto")
    mc = build_morse_complex(choose_tree_and_order(gs, n), n, flavor)
    assert classify_1cells(mc) == reference_classify_1cells(mc)


@pytest.mark.parametrize("key", sorted(PINNED_TREES))
def test_separating_families_match_reference_on_pinned_trees(key):
    t = PINNED_TREES[key]()
    assert separating_families(t) == reference_separating_families(t)


def _wedge_outcome(build, t, d, dp, s0, strict):
    try:
        return build(t, d, dp, s0, strict)
    except MorseError as exc:
        return f"raises: {exc}"


def wedges_against_reference(t) -> Counter:
    """Compare `wedge_cell` with its name-built oracle on every ordered
    pair of distinct deleted edges, every prefix length up to the vertex
    count and both ``strict`` values; count the outcomes by kind."""
    kinds = Counter()
    for d in t.deleted:
        for dp in t.deleted:
            if d == dp:
                continue
            for s0 in range(t.nv + 1):
                for strict in (True, False):
                    got = _wedge_outcome(wedge_cell, t, d, dp, s0, strict)
                    want = _wedge_outcome(reference_wedge_cell, t, d, dp, s0,
                                          strict)
                    assert got == want, (d, dp, s0, strict)
                    kinds[got if isinstance(got, str) or got is None
                          else "cell"] += 1
    return kinds


@pytest.mark.parametrize("key", sorted(PINNED_TREES))
def test_wedge_cells_match_reference_on_pinned_trees(key):
    kinds = wedges_against_reference(PINNED_TREES[key]())
    assert kinds["cell"] and kinds[None]


def test_wedge_cells_match_reference_on_random_trees():
    # trees failing T2 give pairs whose meet is one of the initial
    # vertices, and a long prefix collides with the meet
    kinds = Counter()
    for seed in range(100):
        kinds += wedges_against_reference(random_ordered_tree(seed))
    assert set(kinds) == {"cell", None,
                          "raises: wedge undefined: one initial vertex is an "
                          "ancestor of the other",
                          "raises: wedge cell failed to materialize"}


def test_block_empty_when_no_separating():
    t = fig_b3n3_tree()
    mc = build_morse_complex(t, 3, "unordered")
    rows, labels, cols = reference_undetermined_block(mc)
    assert rows == [] and cols == []


@pytest.mark.parametrize("flavor", ["unordered", "ordered"])
@pytest.mark.parametrize("name", ["K4", "K5", "K33", "Theta4"])
def test_block_empty_at_one_point(name, flavor):
    # D_1 has no 2-cells, so no family cell exists to fill
    gs, _ = subdivide(build_graph(name), 1, "auto")
    mc = build_morse_complex(choose_tree_and_order(gs, 1), 1, flavor)
    tags = classify_1cells(mc)
    rows, labels, cols = reference_undetermined_block(mc)
    assert rows == [] and labels == []
    assert cols == [c for c in mc.critical[1] if tags[c] == "separating"]


PRISM = ("a1 a2\na2 a3\na3 a1\nb1 b2\nb2 b3\nb3 b1\n"
         "a1 b1\na2 b2\na3 b3")


def test_planar_block_rows_have_two_opposite_entries():
    # under the T4 construction, nonzero type-(3) rows carry opposite signs
    gs, _ = subdivide(build_graph(PRISM), 2, "strict")
    t = choose_tree_and_order(gs, 2, "planar")
    mc = build_morse_complex(t, 2, "unordered")
    rows, labels, cols = reference_undetermined_block(mc)
    nonzero = [row for row in rows if any(row)]
    assert nonzero
    for row in nonzero:
        assert sorted(x for x in row if x) == [-1, 1]


def test_classification_requires_supported_flavor():
    t = theta4_pinned_tree()
    mc = build_morse_complex(t, 3, "ordered")
    with pytest.raises(ValueError):
        classify_1cells(mc)


def test_tags_consistent_with_matrix():
    # pivotal = leading summand of some boundary row; free = untouched
    t = k5_pinned_tree()
    mc = build_morse_complex(t, 4, "unordered")
    tags = classify_1cells(mc)
    leading = set()
    touched = set()
    for row in dense_boundaries(mc)[2]:
        nz = [j for j, x in enumerate(row) if x]
        if nz:
            leading.add(mc.critical[1][min(nz)])
            touched.update(mc.critical[1][j] for j in nz)
    for cell, tag in tags.items():
        if tag == "pivotal":
            assert cell in leading
        if tag == "free":
            assert cell not in leading
    for cell in mc.critical[1]:
        if cell not in touched:
            assert tags[cell] == "free"

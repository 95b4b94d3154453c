import importlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from graphbraids.cells import parse_cell
from graphbraids.corpus import corpus
from graphbraids.fixtures import (k33_pinned_tree, k5_pinned_tree,
                                  theta4_pinned_tree, fig_b3n3_tree)
from graphbraids.graphs import build_graph, subdivide
from graphbraids.trees import choose_tree_and_order
from graphbraids.morse import build_morse_complex
from graphbraids.homology import (AbelianGroup, homology, classify_1cells,
                                  undetermined_block)
from graphbraids.intlinalg import (smith_normal_form, kernel_basis,
                                   kernel_coordinates)
from graphbraids.morse import MorseError

from reference import dense_boundaries, per_matrix_homology, relative_h1_rank


def test_abelian_group_canonical():
    g = AbelianGroup.from_presentation(3, [[2, 0, 0], [0, 3, 0]])
    assert (g.rank, g.torsion) == (1, (6,))
    assert str(AbelianGroup(4, (2,))) == "Z^4 + Z_2"
    assert str(AbelianGroup(0)) == "0"


def reference_homology(mc):
    """Homology the long way: an integer basis of ker d_d from the Smith
    form with transforms, im d_(d+1) rewritten in kernel coordinates, and a
    second Smith form for the quotient."""
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
    rows, labels, cols = undetermined_block(mc)
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
    mc = build_morse_complex(t, 2, "ordered", path="both")
    assert homology(mc)[1] == AbelianGroup(12)
    tags = Counter(classify_1cells(mc).values())
    assert tags["free"] == 12 and tags["separating"] == 14
    rows, labels, cols = undetermined_block(mc)
    s = smith_normal_form(rows)
    assert (len(rows), len(cols), s.rank) == (14, 14, 13)
    assert not s.torsion()
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


def test_block_empty_when_no_separating():
    t = fig_b3n3_tree()
    mc = build_morse_complex(t, 3, "unordered")
    rows, labels, cols = undetermined_block(mc)
    assert rows == [] and cols == []


PRISM = ("a1 a2\na2 a3\na3 a1\nb1 b2\nb2 b3\nb3 b1\n"
         "a1 b1\na2 b2\na3 b3")


def test_planar_block_rows_have_two_opposite_entries():
    # under the T4 construction, nonzero type-(3) rows carry opposite signs
    gs, _ = subdivide(build_graph(PRISM), 2, "strict")
    t = choose_tree_and_order(gs, 2, "planar")
    mc = build_morse_complex(t, 2, "unordered")
    rows, labels, cols = undetermined_block(mc)
    nonzero = [row for row in rows if any(row)]
    assert nonzero
    for row in nonzero:
        assert sorted(x for x in row if x) == [-1, 1]


def test_classification_requires_supported_flavor():
    t = theta4_pinned_tree()
    mc = build_morse_complex(t, 3, "ordered")
    with pytest.raises(ValueError):
        classify_1cells(mc)


def test_block_row_leaking_outside_separating_columns_raises(monkeypatch):
    from graphbraids.morse import MorseError
    # the module, not the function the package re-exports under its name
    H = importlib.import_module("graphbraids.homology")
    mc = build_morse_complex(k5_pinned_tree(), 4, "unordered")
    tags = classify_1cells(mc)
    free = next(c for c, tag in tags.items() if tag == "free")
    # every block row then carries a free 1-cell, outside the block's columns
    monkeypatch.setattr(H, "_chain_sub", lambda a, b: {free: 1})
    with pytest.raises(MorseError, match="leaks outside separating columns"):
        undetermined_block(mc)


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

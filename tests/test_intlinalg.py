import random

from hypothesis import given, settings, strategies as st

from graphbraids.intlinalg import (smith_normal_form, identity, kernel_basis,
                                   kernel_coordinates, rank, unit_pivots,
                                   densify)

from reference import mat_mul, naive_invariant_factors


def sparse(m):
    return [{j: x for j, x in enumerate(r) if x} for r in m]


# the 3x7 degree-2 boundary matrix of the two-strand K33 complex
K33_3x7 = [
    [0, 0, 0, 1, -1, 1, 0],
    [0, -1, 1, 1, -1, 0, 0],
    [0, -1, 1, 0, 0, 1, 0],
]


def test_known_matrix_factors():
    assert smith_normal_form(K33_3x7).diag == [1, 1, 2]


def test_zero_and_empty():
    assert smith_normal_form([[0, 0], [0, 0]]).diag == []
    assert smith_normal_form([]).diag == []


def test_divisibility_chain():
    m = [[2, 0], [0, 3]]
    assert smith_normal_form(m).diag == [1, 6]


def test_transforms_reconstruct():
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        s = smith_normal_form(m, transforms=True)
        d = mat_mul(mat_mul(s.U, m), s.V)
        assert [d[i][i] for i in range(min(rows, cols)) if d[i][i]] == s.diag
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        assert mat_mul(s.U, s.Uinv) == identity(rows)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=6, max_size=6),
                min_size=6, max_size=6))
def test_snf_matches_naive_oracle(m):
    assert smith_normal_form(m).diag == naive_invariant_factors(m)


# mostly zeros, then units, then a few larger entries: the shape of a Morse
# boundary matrix, where unit elimination leaves a small core
SPARSE_ENTRY = st.sampled_from([0] * 8 + [1, -1] * 3 + [2, -2, 3])


@st.composite
def sparse_matrices(draw):
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    return [draw(st.lists(SPARSE_ENTRY, min_size=cols, max_size=cols))
            for _ in range(rows)]


@st.composite
def dependent_matrices(draw):
    """Unit-heavy matrices up to 10 x 10 whose later rows are integer
    combinations of the first ones, so that rows wait for pivots made after
    them and cores of 2s and 3s are common, in a shuffled row order."""
    cols = draw(st.integers(1, 10))
    base = draw(st.integers(1, 6))
    rows = [draw(st.lists(SPARSE_ENTRY, min_size=cols, max_size=cols))
            for _ in range(base)]
    for _ in range(draw(st.integers(0, 10 - base))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=base,
                               max_size=base))
        rows.append([sum(c * r[j] for c, r in zip(coeffs, rows))
                     for j in range(cols)])
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_matrices(), dependent_matrices()))
def test_unit_pivots_and_core_smith_form_match_naive_oracle(m):
    pivots, core = unit_pivots(sparse(m))
    for j, row in pivots.items():
        assert row[j] in (1, -1)
        assert all(j not in r for r in core)
    diag = [1] * len(pivots) + smith_normal_form(densify(core)).diag
    assert diag == naive_invariant_factors(m)


def test_unit_pivots_take_the_lowest_unit_column_from_the_last_row():
    # the last row is taken first and pivots on its lowest +-1 column, 1;
    # the first row is cleared of column 1 and pivots on column 0
    rows = [{0: 1, 1: 2}, {1: -1, 2: 1, 3: 2}]
    pivots, core = unit_pivots(rows)
    assert list(pivots) == [1, 0] and core == []
    assert pivots[0] == {0: 1, 2: 2, 3: 4}
    assert rows == [{0: 1, 1: 2}, {1: -1, 2: 1, 3: 2}]  # inputs untouched


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_sparse_snf_matches_naive_oracle(m):
    s = smith_normal_form(m)
    assert s.diag == naive_invariant_factors(m)
    assert (s.rows, s.cols) == (len(m), len(m[0]))
    assert rank(m) == s.rank


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_unit_elimination_leaves_no_unit_in_the_core(m):
    # every unit, also one that fill-in creates, is taken as a pivot
    pivots, core = unit_pivots(sparse(m))
    assert all(x not in (1, -1) for row in core for x in row.values())
    assert len(pivots) + len(core) <= len(m)


def test_all_unit_matrices():
    assert smith_normal_form([[1, 0, 0], [0, -1, 0], [0, 0, 1]]).diag == [1, 1, 1]
    assert smith_normal_form([[1, 1, 1], [1, 1, 1], [-1, -1, -1]]).diag == [1]
    assert smith_normal_form([[0, -1], [1, 0], [1, 1]]).diag == [1, 1]


def test_no_unit_matrix_takes_the_dense_path():
    m = [[2, 4], [6, 8]]
    assert unit_pivots(sparse(m)) == ({}, sparse(m))
    assert smith_normal_form(m).diag == [2, 4]
    assert smith_normal_form([[6, 10, 15]]).diag == [1]


def test_zero_rows_and_columns():
    m = [[0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 4]]
    s = smith_normal_form(m)
    assert s.diag == [2, 4] and (s.rows, s.cols) == (4, 4)
    assert smith_normal_form([[0, 0, 0], [0, 1, 0]]).diag == [1]
    assert smith_normal_form([[], []]).diag == []


def test_unit_elimination_leaves_a_non_unit_core():
    m = [[1, 1], [1, -1]]
    pivots, core = unit_pivots(sparse(m))
    assert len(pivots) == 1
    assert [abs(x) for row in core for x in row.values()] == [2]
    assert smith_normal_form(m).diag == [1, 2]


def test_kernel_basis_and_coordinates():
    rng = random.Random(3)
    for _ in range(15):
        rows, cols = rng.randint(2, 6), rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        basis, snf = kernel_basis(m)
        assert len(basis) == rows - rank(m)
        for b in basis:
            prod = [sum(b[i] * m[i][j] for i in range(rows)) for j in range(cols)]
            assert all(x == 0 for x in prod)
            coords = kernel_coordinates(snf, b)
            rec = [sum(c * basis[k][i] for k, c in enumerate(coords))
                   for i in range(rows)]
            assert rec == list(b)

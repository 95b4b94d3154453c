import random

from hypothesis import given, settings, strategies as st

from graphbraids.intlinalg import (smith_normal_form, naive_invariant_factors,
                                   mat_mul, identity, kernel_basis,
                                   kernel_coordinates, rank, _eliminate_units)

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
    units, core = _eliminate_units(m)
    assert all(x not in (1, -1) for row in core for x in row)
    assert units + len(core) <= len(m)


def test_all_unit_matrices():
    assert smith_normal_form([[1, 0, 0], [0, -1, 0], [0, 0, 1]]).diag == [1, 1, 1]
    assert smith_normal_form([[1, 1, 1], [1, 1, 1], [-1, -1, -1]]).diag == [1]
    assert smith_normal_form([[0, -1], [1, 0], [1, 1]]).diag == [1, 1]


def test_no_unit_matrix_takes_the_dense_path():
    m = [[2, 4], [6, 8]]
    assert _eliminate_units(m) == (0, m)
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
    units, core = _eliminate_units(m)
    assert units == 1 and [abs(x) for row in core for x in row] == [2]
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

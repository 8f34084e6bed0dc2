"""Exact linear algebra: determinants, characteristic polynomials, inverses,
rational rank and nullspace."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filicert import DimensionMismatch, NotAUnit, RationalMatrix, ScalarMatrix, Scalar
from filicert import linalg
from filicert.linalg import span_basis
from filicert.scalar import ALPHA, ONE, T, ZERO, as_scalar

from helpers import (counted_eliminations, dense, dense_apply, eval_poly_at_matrix,
                     inverse_unit, laplace_det,
                     matmul, matrices, nonzero_scalars, patterned_matrices, poly_from_roots,
                     primitive, rand_scalar,
                     rand_scalar_matrix, rand_unit_triangular, rank, rational_matrix,
                     reference_char_poly, reference_cyclic_components, reference_nullspace,
                     reference_rref, scalar_matrix, sparse, vectors)


def basis_column(n, i):
    return tuple(ONE if k == i - 1 else ZERO for k in range(n))


# -- matrix application --------------------------------------------------------

def test_identity_apply():
    m = ScalarMatrix.identity(4)
    v = (T, T ** 2, ONE, ZERO)
    assert m.apply(v) == v


def test_certificate_matrix_first_column(tables):
    g = tables["mu17"].g
    column = g.apply(basis_column(8, 1))
    p1 = Scalar.term(Fraction(-2, 5), 1) * (T ** 4 - 1)
    p3 = Scalar.term(Fraction(-1, 4), 1) * (T ** 3 - 1)
    assert column == (T, ZERO, p1, ZERO, ZERO, p3, ZERO, ZERO)


def test_diagonal_apply():
    m = ScalarMatrix.diagonal([T, T ** 2])
    assert m.apply((ONE, ONE)) == (T, T ** 2)


def test_apply_distributes_over_addition():
    rng = random.Random(3)
    for _ in range(20):
        m = rand_scalar_matrix(rng, 3, max_terms=2)
        u = tuple(rand_scalar(rng) for _ in range(3))
        v = tuple(rand_scalar(rng) for _ in range(3))
        left = m.apply(tuple(a + b for a, b in zip(u, v)))
        right = tuple(a + b for a, b in zip(m.apply(u), m.apply(v)))
        assert left == right


@settings(max_examples=50)
@given(st.data(), st.integers(1, 8))
def test_apply_matches_the_dense_product(data, n):
    """The sparse column sum equals the dense row-by-vector products, for
    matrices that are in general not diagonal; so does the matrix product."""
    m, v = data.draw(matrices(n)), data.draw(vectors(n))
    assert m.apply(v) == dense_apply(m, v)
    other = data.draw(matrices(n))
    assert matmul(m, other).rows == tuple(zip(*(dense_apply(m, other.column(c))
                                           for c in range(n))))


def test_nonzero_columns_are_a_cache_outside_the_fields(tables):
    g = tables["mu08"].g
    fresh = ScalarMatrix(g.rows)
    before = repr(fresh)
    assert "nonzero_columns" not in vars(fresh)
    fresh.apply(basis_column(8, 1))
    assert fresh.nonzero_columns[0] == tuple((r, g.rows[r][0]) for r in range(8)
                                             if not g.rows[r][0].is_zero())
    assert (repr(fresh), fresh) == (before, g)


# -- determinants ----------------------------------------------------------------

def test_det_of_triangular_certificate(tables):
    assert tables["mu17"].g.det() == T ** 29


def test_det_identity():
    assert ScalarMatrix.identity(8).det() == ONE


def test_det_of_dense_certificate_against_laplace(tables):
    g = tables["mu08"].g
    det = g.det()
    assert det == laplace_det(g)
    assert det == T ** 36   # single unit term c*t^k with c = 1, k = 36


def test_det_is_multiplicative():
    rng = random.Random(11)
    for _ in range(12):
        a = rand_scalar_matrix(rng, 4, max_terms=2, max_alpha=1)
        b = rand_scalar_matrix(rng, 4, max_terms=2, max_alpha=1)
        assert matmul(a, b).det() == a.det() * b.det()


def test_det_matches_laplace_on_random_matrices():
    rng = random.Random(13)
    for _ in range(10):
        m = rand_scalar_matrix(rng, 4, max_terms=2, max_alpha=1)
        assert m.det() == laplace_det(m)


# -- characteristic polynomials ----------------------------------------------------

def test_char_poly_of_diagonal():
    m = ScalarMatrix.diagonal([T, T ** 2])
    assert m.char_poly() == poly_from_roots([T, T ** 2])


def test_char_poly_of_zero_matrix():
    m = scalar_matrix([[0, 0], [0, 0]])
    assert m.char_poly() == (ZERO, ZERO, ONE)


@pytest.mark.parametrize("n", range(5))
def test_char_poly_has_n_plus_1_coefficients_ending_in_one(n):
    """n + 1 coefficients, x^k at index k, the last ONE; det is (-1)^n times
    the first.  The zero matrix's polynomial is x^n."""
    rng = random.Random(500 + n)
    zero = ScalarMatrix(tuple((ZERO,) * n for _ in range(n)))
    assert zero.char_poly() == (ZERO,) * n + (ONE,)
    for m in [zero] + [rand_scalar_matrix(rng, n, max_terms=2, max_alpha=1) for _ in range(4)]:
        poly = m.char_poly()
        assert type(poly) is tuple and len(poly) == n + 1 and poly[-1] == ONE
        assert m.det() == (-1) ** n * poly[0]


def test_char_poly_of_dense_certificate_block(tables):
    data = tables["mu08"]
    block = data.g.submatrix(range(1, 8), range(1, 8))
    expected = poly_from_roots([T ** d for d in (2, 3, 4, 5, 6, 7, 10)])
    assert block.char_poly() == expected


def _with_cells(m: ScalarMatrix, cells) -> ScalarMatrix:
    """m with the given {(row, col): Scalar} entries, 0-based."""
    return ScalarMatrix(tuple(tuple(cells.get((i, j), x) for j, x in enumerate(row))
                              for i, row in enumerate(m.rows)))


@settings(max_examples=120)
@given(st.data(), st.integers(1, 6))
def test_char_poly_matches_the_berkowitz_run_on_unscaled_entries(data, n):
    """char_poly runs Berkowitz on L*A, L the lcm of the denominators, and
    divides the coefficient of x^k by L^(n-k); the oracle runs it on A, dense
    and with no early stop.  Entries mix int and Fraction coefficients, alpha
    and negative t-powers, in sparse and in dense matrices.  Lower triangular
    matrices end every Toeplitz column at once (zero work vector), one cell
    above the diagonal lets some columns run on, and zero rows end them at a
    zero row part.  No returned coefficient stores a zero term."""
    dense = st.lists(vectors(n), min_size=n, max_size=n).map(
        lambda rows: ScalarMatrix(tuple(rows)))
    m = data.draw(st.one_of(matrices(n), dense))
    shape = data.draw(st.sampled_from(("any", "lower", "lower plus one")))
    above = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if shape != "any":
        m = _with_cells(m, dict.fromkeys(above, ZERO))
    if shape == "lower plus one" and above:
        m = _with_cells(m, {data.draw(st.sampled_from(above)): data.draw(nonzero_scalars)})
    for r in data.draw(st.sets(st.integers(0, n - 1), max_size=n)):
        m = _with_cells(m, {(r, j): ZERO for j in range(n)})
    poly = m.char_poly()
    assert poly == reference_char_poly(m)
    assert all(c for s in poly for c in s._terms.values())


def with_a_cycle(m: ScalarMatrix, value) -> ScalarMatrix:
    """m with `value` mirrored onto the first nonzero cell above its
    diagonal, or below it, closing a cycle of the pattern through it."""
    i, j = next((i, j) for lower in (False, True) for i in range(m.n) for j in range(m.n)
                if (i > j if lower else i < j) and not m.rows[i][j].is_zero())
    return _with_cells(m, {(j, i): as_scalar(value)})


def test_berkowitz_runs_on_int_coefficients(tables, monkeypatch):
    """Every coefficient of the Berkowitz input inside char_poly is an int,
    also for the certificates' Fraction entries: an integral Fraction would
    keep the cost of Fraction arithmetic.  Berkowitz runs once per cyclic
    component, so never on a certificate, which is triangular up to a
    permutation, and once on each certificate with a cycle closed by a
    Fraction entry."""
    inputs = []
    berkowitz = linalg._berkowitz

    def recorded(rows):
        inputs.append(rows)
        return berkowitz(rows)

    monkeypatch.setattr(linalg, "_berkowitz", recorded)
    certificates = [data.g for data in tables.values()]
    matrices_seen = certificates + [with_a_cycle(g, Fraction(1, 3) * T) for g in certificates]
    matrices_seen += [scalar_matrix([[Fraction(1, 2), Fraction(3, 8)], [T, 5]])]
    for m in matrices_seen:
        assert m.char_poly() == reference_char_poly(m)
    components = [[m.submatrix(c, c) for c in reference_cyclic_components(m)]
                  for m in matrices_seen]
    assert [len(c) for c in components] == [0] * len(certificates) + [1] * (len(certificates) + 1)
    assert len(inputs) == sum(map(len, components))
    assert any(type(c) is not int for blocks in components for m in blocks
               for row in m.rows for s in row for c in s._terms.values())
    assert all(type(c) is int for rows in inputs
               for row in rows for s in row for c in s._terms.values())


def test_char_poly_takes_int_entries_as_they_are(monkeypatch):
    """With L = 1 there is no scaling pass: Berkowitz reads the rows of the
    matrix itself."""
    inputs = []
    berkowitz = linalg._berkowitz
    monkeypatch.setattr(linalg, "_berkowitz", lambda rows: inputs.append(rows) or berkowitz(rows))
    m = scalar_matrix([[1, T], [3 * T ** -2, 5]])
    assert m.char_poly() == reference_char_poly(m)
    assert len(inputs) == 1 and inputs[0] is m.rows


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 8))
def test_component_wise_char_poly_and_det_match_the_oracle(data, n):
    """char_poly and det, products over the components of the off-diagonal
    pattern, against dense Berkowitz on the whole matrix; the cyclic
    components against a depth-first search, the roots against the
    diagonal entries of the other indices.  Acyclic and cyclic patterns,
    repeated, zero and non-monomial diagonal entries, Fraction and alpha
    coefficients."""
    m = data.draw(patterned_matrices(n))
    expected = reference_char_poly(m)
    assert m.char_poly() == expected
    assert m.det() == (-1) ** n * expected[0]
    cyclic = linalg._cyclic_components(m.rows)
    assert cyclic == reference_cyclic_components(m)
    inside = {k for component in cyclic for k in component}
    roots, polys = m.char_factors()
    assert roots == [m.rows[k][k] for k in range(n) if k not in inside]
    assert polys == [reference_char_poly(m.submatrix(c, c)) for c in cyclic]


def test_a_cycle_runs_berkowitz_on_its_component_only(monkeypatch):
    """Upper triangular but for a 2-cycle between indices 1 and 2: the
    factors are x - 3, x - t and the component's polynomial, whose entries
    are cleared of their denominator 2 for Berkowitz alone."""
    inputs = []
    berkowitz = linalg._berkowitz
    monkeypatch.setattr(linalg, "_berkowitz", lambda rows: inputs.append(rows) or berkowitz(rows))
    half = Fraction(1, 2)
    m = scalar_matrix([[3, 1, T, 0], [0, T, half, ALPHA], [0, T ** -1, 1, 5], [0, 0, 0, T]])
    roots, polys = m.char_factors()
    assert roots == [3, T]
    assert polys == [(T - half * T ** -1, -ONE - T, ONE)]
    assert inputs == [((2 * T, ONE), (2 * T ** -1, 2 * ONE))]
    assert m.char_poly() == reference_char_poly(m)
    assert m.det() == 3 * T * (T - half * T ** -1)


def test_cayley_hamilton_on_random_rational_matrices():
    rng = random.Random(17)
    for _ in range(40):
        m = scalar_matrix(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
             for _ in range(4)])
        result = eval_poly_at_matrix(m.char_poly(), m)
        assert all(entry.is_zero() for row in result.rows for entry in row)


# -- inverses -------------------------------------------------------------------------

def test_inverse_of_monomial_diagonal():
    m = ScalarMatrix.diagonal([T, T ** 2])
    inv = inverse_unit(m)
    assert inv.rows[0][0] == Scalar.t_power(-1)
    assert inv.rows[1][1] == Scalar.t_power(-2)


def test_inverse_of_certificate_is_two_sided(tables):
    g = tables["mu17"].g
    inv = inverse_unit(g)
    identity = ScalarMatrix.identity(8)
    assert matmul(inv, g).rows == identity.rows
    assert matmul(g, inv).rows == identity.rows


def test_inverse_rejects_non_unit_determinant():
    m = ScalarMatrix.diagonal([T - 1, ONE])
    with pytest.raises(NotAUnit):
        inverse_unit(m)


def test_inverse_rejects_singular():
    m = scalar_matrix([[1, 1], [1, 1]])
    with pytest.raises(NotAUnit):
        inverse_unit(m)


def test_inverse_on_random_unit_matrices():
    rng = random.Random(19)
    identity3 = ScalarMatrix.identity(3)
    for _ in range(15):
        m = rand_unit_triangular(rng, 3)
        inv = inverse_unit(m)
        assert matmul(m, inv).rows == identity3.rows
        assert matmul(inv, m).rows == identity3.rows


def test_inverse_of_dense_certificate(tables):
    g = tables["mu08"].g
    inv = inverse_unit(g)
    assert matmul(g, inv).rows == ScalarMatrix.identity(8).rows


def test_inverse_handles_zero_leading_pivot():
    m = scalar_matrix([[0, 1], [1, 0]])
    assert matmul(inverse_unit(m), m).rows == ScalarMatrix.identity(2).rows


# -- rational rank and nullspace -------------------------------------------------------

def test_nullspace_of_identity_is_empty():
    assert rational_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).nullspace() == []


def test_nullspace_of_sum_constraint():
    m = rational_matrix([[1, 1]])
    assert m.nullspace() == [(1, -1)]


def test_rank_of_zero_matrix():
    assert rank(rational_matrix([[0] * 4 for _ in range(4)])) == 0


def test_rank_of_identity():
    assert rank(rational_matrix(
        [[1 if i == j else 0 for j in range(8)] for i in range(8)])) == 8


def test_nullspace_vectors_annihilate():
    rng = random.Random(23)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)]
                for _ in range(3)]
        m = rational_matrix(rows)
        basis = m.nullspace()
        assert len(basis) == 5 - rank(m)
        for vec in basis:
            for row in rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0


def test_rank_against_row_space():
    rng = random.Random(29)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(5)]
        m = rational_matrix(rows)
        assert rank(m) == len(m.row_space_basis())


def test_derived_algebra_span_of_catalog_entry(tables):
    mu = tables["mu11"].mu
    vectors = []
    for (i, j) in mu.pairs():
        column = mu.bracket(i, j)
        vectors.append(tuple(entry.constant_value() for entry in column))
    assert len(span_basis(map(sparse, vectors))) == 6


# -- the sparse integer kernel against the Fraction Gauss-Jordan oracle -------------

def sparse_rows(rng, n_rows, n_cols, density=0.3):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density
             else Fraction(0) for _ in range(n_cols)] for _ in range(n_rows)]


def awkward_rows(rng, rows):
    """The rows with zero rows, duplicates and rescaled copies mixed in."""
    n_cols = len(rows[0])
    out = list(rows)
    for _ in range(rng.randint(1, 3)):
        out.insert(rng.randrange(len(out) + 1), [Fraction(0)] * n_cols)
        source = rng.choice(rows)
        factor = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        out.insert(rng.randrange(len(out) + 1), list(source))
        out.insert(rng.randrange(len(out) + 1), [factor * x for x in source])
    return out


def random_shapes(seed):
    """(rows, n_cols): single rows, wide, tall and square shapes, some with
    zero columns, all with zero, duplicate and rescaled rows."""
    rng = random.Random(seed)
    for n_rows, n_cols in [(1, 1), (1, 6), (2, 9), (3, 12), (5, 5), (8, 8),
                           (12, 4), (20, 6), (30, 16), (40, 25)] * 3:
        rows = sparse_rows(rng, n_rows, n_cols, rng.choice([0.15, 0.3, 0.6]))
        for c in rng.sample(range(n_cols), rng.randint(0, n_cols // 3)):
            for row in rows:
                row[c] = Fraction(0)
        yield awkward_rows(rng, rows), n_cols


def is_primitive_integral(vector):
    ints = [x.numerator for x in vector]
    content = 0
    for v in ints:
        content = gcd(content, v)
    return (all(x.denominator == 1 for x in vector) and content == 1
            and next(v for v in ints if v) > 0)


def test_nullspace_equals_the_reference_basis():
    for rows, n_cols in random_shapes(31):
        assert rational_matrix(rows).nullspace() == reference_nullspace(rows, n_cols)


def test_row_space_basis_is_the_primitive_reference_rref():
    for rows, _ in random_shapes(37):
        expected = [primitive(row) for _, row in reference_rref(rows)]
        basis = rational_matrix(rows).row_space_basis()
        assert [dense(row, len(rows[0])) for row in basis] == expected


def test_span_basis_ignores_row_order_and_repetition():
    rng = random.Random(41)
    for dense_rows, _ in random_shapes(43):
        rows = [sparse(row) for row in dense_rows]
        basis = span_basis(rows)
        shuffled = rows + rng.sample(rows, len(rows) // 2)
        rng.shuffle(shuffled)
        assert span_basis(shuffled) == basis
        assert span_basis(dict(row) for row in reversed(rows)) == basis


def test_kernel_outputs_are_primitive_integer_vectors():
    for rows, n_cols in random_shapes(47):
        matrix = rational_matrix(rows)
        row_spaces = matrix.row_space_basis() + span_basis(matrix.rows)
        for vector in matrix.nullspace() + [dense(row, n_cols) for row in row_spaces]:
            assert all(type(x) is int for x in vector), vector
            assert is_primitive_integral(vector), vector


def test_kernel_accepts_integer_rows():
    rows = ({0: 2, 1: 4}, {0: 1, 1: 2, 2: 1}, {2: 3})
    assert span_basis(rows) == [{0: 1, 1: 2}, {2: 1}]
    assert RationalMatrix(rows, 3).nullspace() == [(2, -1, 0)]
    assert RationalMatrix(rows, 4).nullspace() == [(2, -1, 0, 0), (0, 0, 0, 1)]
    assert RationalMatrix((), 2).nullspace() == [(1, 0), (0, 1)]
    with pytest.raises(DimensionMismatch):
        RationalMatrix(rows, 2)


@st.composite
def int_rows(draw):
    """(dense int rows, width): no rows at a given width, zero rows, and rows
    repeated, in any order."""
    n_cols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n_cols, max_size=n_cols),
                         max_size=6))
    rows += [[0] * n_cols] * draw(st.integers(0, 2))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return draw(st.permutations(rows)), n_cols


@settings(max_examples=200)
@given(int_rows())
def test_sparse_kernel_equals_the_dense_oracles(case):
    rows, n_cols = case
    echelon = reference_rref(rows)
    expected = [primitive(row) for _, row in echelon]
    inputs = [sparse(row) for row in rows]
    copies = [dict(row) for row in inputs]
    pivots = linalg._rref(inputs)
    assert sorted(pivots) == [c for c, _ in echelon]
    assert [dense(pivots[c], n_cols) for c in sorted(pivots)] == expected
    assert [dense(row, n_cols) for row in span_basis(inputs)] == expected
    assert inputs == copies
    assert rational_matrix(rows, n_cols).nullspace() == reference_nullspace(rows, n_cols)


# -- sparsest rows first, unit rows by deletion -----------------------------------

def assert_kernel_matches_the_oracles(rows, n_cols):
    """`_rref`, `span_basis` and `nullspace` of the sparse int rows against
    the Fraction oracles, with the input rows left unchanged."""
    copies = [dict(row) for row in rows]
    dense_rows = [dense(row, n_cols) for row in rows]
    echelon = reference_rref(dense_rows)
    expected = [primitive(row) for _, row in echelon]
    pivots = linalg._rref(rows)
    assert sorted(pivots) == [c for c, _ in echelon]
    assert [dense(pivots[c], n_cols) for c in sorted(pivots)] == expected
    assert [dense(row, n_cols) for row in span_basis(rows)] == expected
    assert RationalMatrix(tuple(rows), n_cols).nullspace() == \
        reference_nullspace(dense_rows, n_cols)
    assert rows == copies
    return pivots


def test_a_unit_row_reduces_a_later_row_by_deletion(monkeypatch):
    calls = counted_eliminations(monkeypatch)
    rows = [{1: -3}, {0: 2, 1: 4, 2: 6}]
    assert linalg._rref(rows) == {1: {1: 1}, 0: {0: 1, 2: 3}}
    assert calls == []
    assert_kernel_matches_the_oracles(rows, 3)


def test_a_unit_row_after_a_pivot_row_holding_its_column(monkeypatch):
    calls = counted_eliminations(monkeypatch)
    rows = [{0: 2, 1: 4}, {1: -3}]
    assert linalg._rref(rows) == {0: {0: 1}, 1: {1: 1}}
    assert calls == []
    assert_kernel_matches_the_oracles(rows, 2)


def test_a_unit_remainder_clears_the_earlier_pivot_rows_by_deletion(monkeypatch):
    """The second row reduces to {1: 1}; deleting column 1 from the first
    pivot row leaves {0: 2, 2: 4}, which must be normalized to {0: 1, 2: 2}."""
    calls = counted_eliminations(monkeypatch)
    rows = [{0: 2, 1: 1, 2: 4}, {0: 2, 1: 2, 2: 4}]
    assert linalg._rref(rows) == {0: {0: 1, 2: 2}, 1: {1: 1}}
    assert calls == [0]
    assert_kernel_matches_the_oracles(rows, 3)


def test_rows_with_explicit_zero_entries(monkeypatch):
    """The derivation system stores cancelled entries as explicit zeros, so a
    row's length is not its nonzero count."""
    calls = counted_eliminations(monkeypatch)
    rows = [{0: 3, 1: 6, 2: 0, 3: 9}, {0: 0, 1: 0, 2: 0, 3: -2}, {0: 0, 2: 5, 3: 0},
            {0: 0, 1: 0}]
    assert linalg._rref(rows) == {3: {3: 1}, 2: {2: 1}, 0: {0: 1, 1: 2}}
    assert calls == []
    assert_kernel_matches_the_oracles(rows, 4)


def test_rows_given_longest_first_match_the_oracles():
    """Random rows with many unit rows and explicit zeros, given longest
    first and shortest first: the oracles' RREF both times."""
    rng = random.Random(53)
    for _ in range(40):
        n_cols = rng.randint(1, 12)
        rows = []
        for _ in range(rng.randint(1, 14)):
            columns = rng.sample(range(n_cols), min(rng.choice([1, 1, 2, 4, 12]), n_cols))
            rows.append({c: rng.choice([-6, -2, -1, 0, 1, 3, 4]) for c in columns})
        rows.sort(key=len, reverse=True)
        pivots = assert_kernel_matches_the_oracles(rows, n_cols)
        assert assert_kernel_matches_the_oracles(rows[::-1], n_cols) == pivots

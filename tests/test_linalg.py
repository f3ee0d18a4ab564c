"""Exact and floating determinants and linear solves."""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from bimop import (DimensionMismatch, Matrix, NotSquare, Singular, det, format_scalar,
                   parse_scalar, solve)
from bimop.linalg import ExactLU, FloatLU, int_from_decimal
from bimop.mopcore import moment_matrix


def cofactor_det(m):
    """Reference determinant by cofactor expansion; shares no code with det."""
    n = m.rows
    if n == 0:
        return F(1)
    if n == 1:
        return m.data[0][0]
    total = F(0)
    for j in range(n):
        minor = Matrix.from_rows([row[:j] + row[j + 1:] for row in m.data[1:]])
        sign = F(-1) ** j
        total += sign * m.data[0][j] * cofactor_det(minor)
    return total


def matvec(m, x):
    """m x; shares no code with linalg."""
    return [sum(a * b for a, b in zip(row, x)) for row in m.data]


def test_det_identity():
    identity = Matrix.from_rows([[F(int(i == j)) for j in range(3)] for i in range(3)])
    assert det(identity) == 1


def test_det_rank_deficient():
    m = Matrix.from_rows([[F(1), F(2)], [F(2), F(4)]])
    assert det(m) == 0


def test_det_hankel_laguerre():
    # relative moments of x e^{-x}: 1, 2, 6
    m = Matrix.from_rows([[F(1), F(2)], [F(2), F(6)]])
    assert det(m) == 2


def test_det_zero_by_zero_is_one():
    assert det(Matrix(0, 0, [])) == 1


def test_det_requires_square():
    with pytest.raises(NotSquare):
        det(Matrix.from_rows([[F(1), F(2)]]))


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(DimensionMismatch, match="ragged rows"):
        Matrix.from_rows([[F(1)], [F(1), F(2)]])


fractions = st.builds(F, st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=1, max_value=9))


@st.composite
def square_matrices(draw, size=st.integers(min_value=1, max_value=6)):
    """Rational square matrices, some with a zero leading pivot or rank-deficient.

    "zero-pivot" zeroes the leading (k+1)-minor (row k proportional to row 0
    on the leading k + 1 columns; for k = 0 the corner entry), so
    elimination must swap rows at step k.  "rank-deficient" makes one row a
    combination of two others.
    """
    n = draw(size)
    rows = draw(st.lists(st.lists(fractions, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    shape = draw(st.sampled_from(["plain", "zero-pivot", "rank-deficient"]))
    if shape == "zero-pivot":
        k = draw(st.integers(min_value=0, max_value=n - 1))
        c = draw(fractions)
        rows[k][:k + 1] = [c * v for v in rows[0][:k + 1]] if k else [F(0)]
    elif shape == "rank-deficient" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        l = draw(st.sampled_from([k for k in range(n) if k != i]))
        a, b = draw(fractions), draw(fractions)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[l])]
    return Matrix.from_rows(rows)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_det_matches_cofactor_expansion(m):
    assert det(m) == cofactor_det(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(square_matrices(st.just(n)),
                        st.lists(fractions, min_size=n, max_size=n))))
def test_solve_satisfies_system(case):
    """solve with m and with m^t, and Singular (det 0) exactly when det = 0."""
    m, rhs = case
    singular = cofactor_det(m) == 0
    for a in (m, m.transpose()):
        if singular:
            with pytest.raises(Singular) as err:
                solve(a, rhs)
            assert err.value.det == 0
        else:
            assert matvec(a, solve(a, rhs)) == list(rhs)


def gauss_jordan(rows, rhs):
    """x with rows x = rhs by Gauss-Jordan over Fractions, None when singular;
    shares no code with linalg."""
    n = len(rows)
    aug = [list(row) + [v] for row, v in zip(rows, rhs)]
    for k in range(n):
        p = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if p is None:
            return None
        aug[k], aug[p] = aug[p], aug[k]
        aug[k] = [v / aug[k][k] for v in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[k])]
    return [row[n] for row in aug]


def check_factorisation(m, order, rhs):
    """ExactLU(m, order) against cofactor expansion and Gauss-Jordan.

    Block B_s of ExactLU(m, order) is the first s rows of m on the columns
    order[:s], kept in their order in m.  det(s) is det(B_s); type1(s) is
    the c with B_s c = e_{s-1} and, for s < n, type2(s) the y with
    B_s^t y = -(row s of m on B_s's columns), as a Gauss-Jordan solve gives
    them; a singular block yields None.  With rhs as a rider row, the same
    factors give the same dets and type2(n) is the y with m^t y = -rhs.
    ``solve`` with m and m^t holds, and raises Singular when det(m) = 0."""
    n = len(order)
    lu = ExactLU(m, order)
    ridden = ExactLU(Matrix.from_rows(m.data + [rhs]), order)
    for s in range(n + 1):
        cols = sorted(order[:s])
        block = [[row[c] for c in cols] for row in m.data[:s]]
        assert lu.det(s) == cofactor_det(Matrix.from_rows(block))
        assert ridden.det(s) == lu.det(s)
        if not s:
            continue
        regular = lu.det(s) != 0
        got = lu.type1(s)
        assert got == gauss_jordan(block, [F(0)] * (s - 1) + [F(1)])
        assert (got is not None) == regular
        transposed = [list(col) for col in zip(*block)]
        below = m.data[s] if s < n else rhs
        got = ridden.type2(s)
        assert got == gauss_jordan(transposed, [-below[c] for c in cols])
        assert (got is not None) == regular
        if s < n:
            assert lu.type2(s) == got
        if regular:
            assert all(type(v) is F for v in got)
    assert lu.det() == lu.det(n) == ridden.det()
    for a in (m, m.transpose()):
        if lu.det():
            assert matvec(a, solve(a, rhs)) == rhs
        else:
            with pytest.raises(Singular) as err:
                solve(a, rhs)
            assert err.value.det == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(square_matrices(st.just(n)), st.permutations(range(n)),
                        st.lists(fractions, min_size=n, max_size=n))))
def test_leading_blocks_of_one_factorisation(case):
    check_factorisation(*case)


@st.composite
def contented_cases(draw):
    """A square_matrices matrix with column j multiplied by an integer in
    1..12 and, sometimes, one column zeroed, so that the columns of its
    cleared integers have a content above 1; a column order and a rhs
    multiplied by an integer in 1..12."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(square_matrices(st.just(n)))
    factors = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=n, max_size=n))
    if draw(st.booleans()):
        factors[draw(st.integers(min_value=0, max_value=n - 1))] = 0
    rows = [[v * f for v, f in zip(row, factors)] for row in m.data]
    g = draw(st.integers(min_value=1, max_value=12))
    return (Matrix.from_rows(rows), draw(st.permutations(range(n))),
            [g * v for v in draw(st.lists(fractions, min_size=n, max_size=n))])


@settings(max_examples=80, deadline=None)
@given(contented_cases())
def test_column_content_is_divided_out_and_read_back(case):
    """Columns with common integer factors, which ExactLU divides out before
    the elimination: every read-out still matches cofactor expansion and
    Gauss-Jordan, and a zero column makes every block holding it singular."""
    check_factorisation(*case)


def test_column_content_shrinks_the_pivots_of_the_pair_system(duo):
    """The content pass is what keeps the last pivot of M_(20,20) small: 648
    bits with it, 1500 bits without."""
    lu = ExactLU(moment_matrix(duo, (20, 20)))
    assert lu.lu[-1][-1].bit_length() < 1000


def test_solve_singular_carries_zero_det():
    m = Matrix.from_rows([[F(1), F(1)], [F(1), F(1)]])
    with pytest.raises(Singular) as err:
        solve(m, [F(1), F(2)])
    assert err.value.det == 0


def test_float_det_and_solve():
    m = Matrix.from_rows([[2.0, 0.0], [0.0, 3.0]])
    assert det(m) == pytest.approx(6.0)
    x = solve(m, [4.0, 9.0])
    assert x == pytest.approx([2.0, 3.0])


def test_float_singular_detection():
    m = Matrix.from_rows([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(Singular):
        solve(m, [1.0, 1.0])


@pytest.mark.parametrize("one", [F(1), 1.0], ids=["exact", "float"])
def test_solve_checks_shapes_before_the_kernel(one):
    """NotSquare, then DimensionMismatch, then Singular with a det of m's
    scalar type."""
    with pytest.raises(NotSquare):
        solve(Matrix.from_rows([[one, one]]), [one, one, one])
    with pytest.raises(DimensionMismatch):
        solve(Matrix.from_rows([[one, one], [one, one]]), [one])
    with pytest.raises(Singular) as err:
        solve(Matrix.from_rows([[one, one], [one, one]]), [one, one])
    assert err.value.det == 0 and type(err.value.det) is type(one)


floats = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def float_cases(draw):
    """A 1-7 square float matrix, plain or singular by construction, and a rhs.

    "duplicate-row" repeats a row and "zero-column" zeroes a column; both
    stay exactly singular under elimination, whatever the rounding.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    rows = draw(st.lists(st.lists(floats, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["plain", "duplicate-row", "zero-column"]))
    singular = shape == "zero-column" or (shape == "duplicate-row" and n > 1)
    if shape == "duplicate-row" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i] = list(rows[j])
    elif shape == "zero-column":
        c = draw(st.integers(min_value=0, max_value=n - 1))
        for row in rows:
            row[c] = 0.0
    rhs = draw(st.lists(floats, min_size=n, max_size=n))
    return Matrix.from_rows(rows), rhs, singular


@settings(max_examples=80, deadline=None)
@given(float_cases())
# 5e-324 / 2 rounds to 0.0: the residual is the underflow, not a pivoting error
@example((Matrix.from_rows([[2.0]]), [5e-324], False))
def test_float_lu_against_exact_lu(case):
    """FloatLU judged by ExactLU on the same matrix converted exactly.

    det within 1e-10 of the scale (sqrt(n) max|m|)^n of any det of that
    size; solves with m (``linalg.solve``) and m^t (-rhs as the rider row,
    ``type2``) with an exact residual within 1e-10 of |m| |x| + |rhs|
    (backward stability of partial pivoting), plus n |m| times the least
    subnormal for results that underflow; Singular with det 0.0, and no
    Type II, exactly when the factorisation stops.  A rider changes neither
    the factorisation nor its det.
    """
    m, rhs, singular = case
    n = m.rows
    exact = Matrix.from_rows([[F(v) for v in row] for row in m.data])
    lu = FloatLU(m)
    by_row = FloatLU(Matrix(n + 1, n, m.data + [[-b for b in rhs]]))
    big = max([1.0] + [abs(v) for row in m.data for v in row])
    got = lu.det()
    assert type(got) is float
    assert abs(F(got) - ExactLU(exact).det()) <= F(1e-10) * F(n ** 0.5 * big) ** n
    assert (by_row.lu, by_row.perm, by_row.det()) == (lu.lu, lu.perm, got)
    if singular:
        assert not lu.sign
    if not lu.sign:
        assert got == 0.0
        with pytest.raises(Singular) as err:
            solve(m, rhs)
        assert type(err.value.det) is float and err.value.det == 0.0
        assert by_row.type2(n) is None
        return
    norm = max(sum(abs(v) for v in row) for row in m.data)
    norm_t = max(sum(abs(row[j]) for row in m.data) for j in range(n))
    for a, size, solve_ in ((exact, norm, lambda: solve(m, rhs)),
                            (exact.transpose(), norm_t, lambda: by_row.type2(n))):
        x = solve_()
        residual = [F(b) - v for b, v in zip(rhs, matvec(a, [F(v) for v in x]))]
        # exact, so that a bound near the underflow range is not rounded to 0
        bound = (F(1e-10) * (F(size) * max(abs(F(v)) for v in x) + max(abs(F(b)) for b in rhs))
                 + n * F(size) * F(2) ** -1074)
        assert max(abs(r) for r in residual) <= bound


def test_transpose_matvec():
    """transpose, and the matvec the solve tests judge by."""
    m = Matrix.from_rows([[F(1), F(2)], [F(3), F(4)]])
    assert m.transpose().data == [[F(1), F(3)], [F(2), F(4)]]
    assert matvec(m, [F(1), F(1)]) == [F(3), F(7)]


def test_format_scalar():
    assert format_scalar(F(3, 2)) == "3/2"
    assert format_scalar(F(4)) == "4"
    assert format_scalar(0.5) == 0.5


def test_parse_scalar_decimal_exact():
    assert parse_scalar("2.2") == F(11, 5)
    assert parse_scalar("-3/4") == F(-3, 4)
    assert parse_scalar(7) == F(7)


@pytest.mark.parametrize("digits", [1, 599, 600, 601, 4300, 4301, 9000])
def test_numbers_of_any_size_print_and_parse(digits):
    """format_scalar and parse_scalar convert integers and "p/q" of any
    length, past Python's int/str digit limit (4300 by default), without
    changing that limit; the expected strings are built without str()."""
    limit = sys.get_int_max_str_digits()
    sevens = (10 ** digits - 1) // 9 * 7
    text = "7" * digits
    power = f"1{'0' * (digits - 1)}1"
    assert format_scalar(F(-sevens)) == "-" + text
    assert format_scalar(F(10 ** digits)) == "1" + "0" * digits
    assert format_scalar(F(sevens, 10 ** digits + 1)) == f"{text}/{power}"
    assert parse_scalar(text) == parse_scalar(sevens) == sevens
    assert parse_scalar(f" -{text}/{power} ") == F(-sevens, 10 ** digits + 1)
    assert int_from_decimal("-" + text) == -sevens
    assert int_from_decimal("0" * digits + "1") == 1
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("text", ["1" * 5000 + "x", "1." + "1" * 5000, "", "True"])
def test_parse_scalar_rejects_what_is_no_literal(text):
    with pytest.raises(ValueError):
        parse_scalar(text)

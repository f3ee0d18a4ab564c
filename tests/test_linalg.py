"""Exact and floating determinants and linear solves."""

import math
import sys
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from bimop import (BiPoly, DimensionMismatch, Matrix, NotSquare, Singular, ValidationError,
                   det, format_scalar, inner, parse_scalar, solve, type1_pairing)
from bimop.linalg import FLOAT_TOL, ExactLU, FloatLU, int_from_decimal, rational_parts
from bimop import mopcore
from bimop.mopcore import moment_matrix
from bimop.relations import gram_pattern_holds
from conftest import make_pair_system


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


def denoted(form):
    """The rationals a read-out (numerators, denominator) denotes, after
    checking that it is cleared: integers over a denominator > 0 with
    gcd(denominator, *numerators) = 1.  None stays None."""
    if form is None:
        return None
    nums, den = form
    assert all(type(v) is int for v in nums) and type(den) is int
    assert den > 0
    assert math.gcd(den, *nums) == 1
    return [F(v, den) for v in nums]


def parts(rows):
    """Rows of rationals as the integer parts (a, b) ExactLU reads, in
    lowest terms."""
    return [[F(v).as_integer_ratio() for v in row] for row in rows]


def check_factorisation(m, order, rhs, rows=None):
    """ExactLU of m and order against cofactor expansion and Gauss-Jordan.

    ExactLU reads m and the rider row rhs as ``rows`` of integer parts,
    by default ``parts`` of them.  Block B_s of the factorisation is the
    first s rows of m on the columns order[:s], kept in their order in m.
    det(s) is det(B_s); type1(s) is the c with B_s c = e_{s-1} and, for
    s < n, type2(s) the y with B_s^t y = -(row s of m on B_s's columns), as
    a Gauss-Jordan solve gives them, each as its cleared form
    (``denoted``); a singular block yields None.  With rhs as a rider row,
    the same factors give the same dets and type2(n) is the y with
    m^t y = -rhs.  ``solve`` with m and m^t holds, returns Fractions, and
    raises Singular when det(m) = 0."""
    n = len(order)
    rows = parts(m.data + [rhs]) if rows is None else rows
    lu = ExactLU(rows[:-1], order)
    ridden = ExactLU(rows, order)
    for s in range(n + 1):
        cols = sorted(order[:s])
        block = [[row[c] for c in cols] for row in m.data[:s]]
        assert F(*lu.det(s)) == cofactor_det(Matrix.from_rows(block))
        assert F(*ridden.det(s)) == F(*lu.det(s))
        if not s:
            continue
        regular = lu.det(s)[0] != 0
        got = denoted(lu.type1(s))
        assert got == gauss_jordan(block, [F(0)] * (s - 1) + [F(1)])
        assert (got is not None) == regular
        transposed = [list(col) for col in zip(*block)]
        below = m.data[s] if s < n else rhs
        got = denoted(ridden.type2(s))
        assert got == gauss_jordan(transposed, [-below[c] for c in cols])
        assert (got is not None) == regular
        if s < n:
            assert denoted(lu.type2(s)) == got
    assert F(*lu.det()) == F(*lu.det(n)) == F(*ridden.det())
    for a in (m, m.transpose()):
        if lu.det()[0]:
            x = solve(a, rhs)
            assert matvec(a, x) == rhs
            assert all(type(v) is F for v in x)
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


@st.composite
def scaled_integer_cases(draw):
    """A square_matrices matrix and a rhs, the rider row, whose rows ExactLU
    reads as integer rows over random positive scales: row i is the
    integer row N_i over D_i in 1..12, each entry the parts (N_ij, D_i),
    not in lowest terms.  N_i is the row cleared over its denominators and
    then multiplied by f_i, 1 for every row but one, whose f_i in 2..12
    forces a row content above 1.  Returns the rationals the parts denote
    (m, rhs), a column order, the parts, and the forced row and f."""
    n = draw(st.integers(min_value=1, max_value=6))
    data = draw(square_matrices(st.just(n))).data
    data.append(draw(st.lists(fractions, min_size=n, max_size=n)))
    forced = draw(st.integers(min_value=0, max_value=n))
    f = draw(st.integers(min_value=2, max_value=12))
    rows, denoted_rows = [], []
    for i, row in enumerate(data):
        d = math.lcm(*[v.denominator for v in row])
        scale = draw(st.integers(min_value=1, max_value=12))
        ints = [int(v * d) * (f if i == forced else 1) for v in row]
        rows.append([(a, scale) for a in ints])
        denoted_rows.append([F(a, scale) for a in ints])
    return (Matrix.from_rows(denoted_rows[:-1]), draw(st.permutations(range(n))),
            denoted_rows[-1], rows, forced, f)


@settings(max_examples=80, deadline=None)
@given(scaled_integer_cases())
def test_integer_rows_over_scales_with_a_row_content(case):
    """ExactLU on integer rows over random positive scales, one row's
    integers sharing a factor: every read-out still matches cofactor
    expansion and Gauss-Jordan on the rationals the rows denote, and the
    forced factor is in that row's content."""
    m, order, rhs, rows, forced, f = case
    check_factorisation(m, order, rhs, rows)
    if any(a for a, _ in rows[forced]):
        assert ExactLU(rows, order).rowcontent[forced] % f == 0


def reference_bareiss(a, pivots):
    """The Bareiss loop over the integer rows a, in place, with row pivoting
    on the first ``pivots`` columns: the first nonzero entry of column k
    among rows k..pivots-1 becomes the pivot, and every row below it is
    updated over all the columns after k, (piv a - f t) // (previous pivot),
    leaving f, its multiplier, in column k.  Returns (perm, k): row k of a
    is row perm[k] of the input, and k pivots were found.  Shares no code
    with linalg."""
    perm = list(range(len(a)))
    prev = 1
    for k in range(pivots):
        p = next((i for i in range(k, pivots) if a[i][k]), None)
        if p is None:
            return perm, k
        a[k], a[p] = a[p], a[k]
        perm[k], perm[p] = perm[p], perm[k]
        piv, top = a[k][k], a[k][k + 1:]
        for row in a[k + 1:]:
            f = row[k]
            row[k + 1:] = [(piv * x - f * t) // prev for x, t in zip(row[k + 1:], top)]
        prev = piv
    return perm, pivots


def reference_solve(rows):
    """x with rows[:, :-1] x = rows[:, -1], square rows of Fractions, by
    clearing each row over the lcm of its denominators, the Bareiss loop
    and a back pass; None when singular.  Also the det of rows[:, :-1]."""
    s = len(rows)
    a, scale = [], 1
    for row in rows:
        d = math.lcm(*[v.denominator for v in row])
        a.append([int(v * d) for v in row])
        scale *= d
    perm, found = reference_bareiss(a, s)
    if found < s:
        return None, F(0)
    inversions = sum(perm[i] > perm[j] for i in range(s) for j in range(i + 1, s))
    x = [F(0)] * s
    for k in range(s - 1, -1, -1):
        x[k] = (a[k][s] - sum(a[k][l] * x[l] for l in range(k + 1, s))) / F(a[k][k])
    return x, F((-1) ** inversions * (a[s - 1][s - 1] if s else 1), scale)


@st.composite
def part_rows(draw):
    """Rows of integer parts (a, b) as ExactLU reads them: n in 1..6 columns,
    n rows and sometimes a rider row; negative entries, parts not in lowest
    terms (both multiplied by 1..4), sometimes a zero row and a zero column;
    and a column order."""
    n = draw(st.integers(min_value=1, max_value=6))
    count = n + draw(st.integers(min_value=0, max_value=1))
    small = st.integers(min_value=-7, max_value=7)
    rows = []
    for _ in range(count):
        row = []
        for _ in range(n):
            a, b, c = draw(small), draw(st.integers(1, 6)), draw(st.integers(1, 4))
            row.append((a * c, b * c))
        rows.append(row)
    if draw(st.booleans()):
        i = draw(st.integers(0, count - 1))
        rows[i] = [(0, b) for _, b in rows[i]]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = (0, row[j][1])
    return rows, draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(part_rows())
def test_exact_lu_against_a_reference_bareiss(case):
    """ExactLU against the Bareiss loop it replaces, over the test's own
    cleared integers: det(s), type1(s) and type2(s) of every block agree
    with a Bareiss solve of the block (``reference_solve``), with and
    without the rider row.  On ExactLU's own integer matrix A the same loop
    gives its perm, its pivots and its multipliers, and each row of the
    Bareiss loop is tau times ExactLU's primitive row, tau 0 for a zero
    row."""
    rows, order = case
    n = len(order)
    m = [[F(a, b) for a, b in row] for row in rows]
    rider = len(rows) > n
    lus = [ExactLU(rows, order)] + ([ExactLU(rows[:-1], order)] if rider else [])
    for s in range(n + 1):
        cols = sorted(order[:s])
        block = [[m[i][c] for c in cols] for i in range(s)]
        c, d = reference_solve([row + [F(int(i == s - 1))] for i, row in enumerate(block)])
        for lu in lus:
            assert F(*lu.det(s)) == d
            if s:
                assert denoted(lu.type1(s)) == c
        if s < len(rows):
            below = [-m[s][c] for c in cols]
            y, d = reference_solve([[block[i][j] for i in range(s)] + [below[j]]
                                    for j in range(s)])
            assert denoted(lus[0].type2(s)) == y
            if rider and s < n:
                assert denoted(lus[1].type2(s)) == y
    for lu in lus:
        a = [[F(a, b) * lu.scale[i] / lu.rowcontent[i] / lu.content[k]
              for k, (a, b) in enumerate(row[c] for c in lu.order)]
             for i, row in enumerate(rows[:len(lu.lu)])]
        assert all(v.denominator == 1 for row in a for v in row)
        a = [[int(v) for v in row] for row in a]
        perm, found = reference_bareiss(a, n)
        assert found == len(lu.pivots)
        assert perm == lu.perm
        for i, row in enumerate(a):
            k = min(i, found)
            assert row[:k] == lu.lu[i][:k]
            # past a stop a row may still hold its content: its primitive
            # row is it over its gcd, which is 1 for a pivot row
            g = math.gcd(*lu.lu[i][k:])
            assert row[k:] == [lu.tau[i] * v // (g or 1) for v in lu.lu[i][k:]]
            assert lu.tau[i] or not any(row[k:])
            if i < found:
                assert g == 1
                assert row[i] == lu.pivots[i]


def test_the_primitive_rows_stay_small_on_the_pair_system(duo):
    """U, kept primitive, is far smaller than the Bareiss minors: on
    M_(20,20) of the pair system with its rider row, as the solvers
    factorise it, every entry of U has under 64 bits (45 here; the Bareiss
    U had 551)."""
    lu = ExactLU(mopcore._moment_rows(duo, (20, 20), range(41)))
    assert max(abs(v) for k, row in enumerate(lu.lu[:40]) for v in row[k:]).bit_length() < 64


def test_column_content_shrinks_the_pivots_of_the_pair_system(duo):
    """The content passes are what keep the last pivot of M_(20,20) small:
    551 bits with row and column content, 648 with column content alone,
    1500 bits without either."""
    lu = ExactLU(parts(moment_matrix(duo, (20, 20)).data))
    assert lu.pivots[-1].bit_length() < 1000


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
    """NotSquare, then DimensionMismatch, then Singular with the exact det
    Fraction(0): float entries are solved as the rationals they denote."""
    with pytest.raises(NotSquare):
        solve(Matrix.from_rows([[one, one]]), [one, one, one])
    with pytest.raises(DimensionMismatch):
        solve(Matrix.from_rows([[one, one], [one, one]]), [one])
    # The shape checks come before any entry is read.
    with pytest.raises(NotSquare):
        solve(Matrix.from_rows([[one, one]]), [float("nan"), "x"])
    for bad in (float("nan"), float("inf"), "x"):
        with pytest.raises(DimensionMismatch):
            solve(Matrix.from_rows([[one, one], [one, one]]), [bad])
    with pytest.raises(Singular) as err:
        solve(Matrix.from_rows([[one, one], [one, one]]), [one, one])
    assert err.value.det == 0 and type(err.value.det) is F


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

    Solves with m (Type I, M c = e_{n-1}) and m^t (-rhs as the rider row,
    ``type2``) with an exact residual within 1e-10 of |m| |x| + |b|
    (backward stability of partial pivoting), plus n |m| times the least
    subnormal for results that underflow; no Type I or Type II exactly
    when the factorisation stops, which it does on every singular case,
    where exact ``solve`` raises Singular with det Fraction(0).  A rider
    changes not the factorisation.  Type I and Type II read out as
    ``ExactLU``'s do, values over one denominator, here 1.0.
    """
    m, rhs, singular = case
    n = m.rows
    exact = Matrix.from_rows([[F(v) for v in row] for row in m.data])
    lu = FloatLU(rational_parts(m.data))
    by_row = FloatLU(rational_parts(m.data + [[-b for b in rhs]]))
    assert (by_row.lu, by_row.perm, by_row.stopped) == (lu.lu, lu.perm, lu.stopped)
    if singular:
        assert lu.stopped
        with pytest.raises(Singular) as err:
            solve(m, rhs)
        assert (err.value.det, type(err.value.det)) == (0, F)
    if lu.stopped:
        assert by_row.type2(n) is None and lu.type1(n) is None
        return
    unit = [0.0] * (n - 1) + [1.0]
    c, d = lu.type1(n)
    assert (d, type(d)) == (1.0, float)
    y, d = by_row.type2(n)
    assert (d, type(d)) == (1.0, float)
    norm = max(sum(abs(v) for v in row) for row in m.data)
    norm_t = max(sum(abs(row[j]) for row in m.data) for j in range(n))
    for a, size, b, x in ((exact, norm, unit, c), (exact.transpose(), norm_t, rhs, y)):
        residual = [F(v) - w for v, w in zip(b, matvec(a, [F(v) for v in x]))]
        # exact, so that a bound near the underflow range is not rounded to 0
        bound = (F(1e-10) * (F(size) * max(abs(F(v)) for v in x) + max(abs(F(v)) for v in b))
                 + n * F(size) * F(2) ** -1074)
        assert max(abs(r) for r in residual) <= bound


@settings(max_examples=60, deadline=None)
@given(float_cases())
def test_float_det_and_solve_are_exact(case):
    """det and solve read float entries as the rationals they denote: each
    answers in Fractions what it answers for the Fraction matrix, and
    Singular carries Fraction(0) exactly when that matrix is singular."""
    m, rhs, _ = case
    exact = Matrix.from_rows([[F(v) for v in row] for row in m.data])
    got = det(m)
    assert (got, type(got)) == (det(exact), F)
    if not got:
        with pytest.raises(Singular) as err:
            solve(m, rhs)
        assert (err.value.det, type(err.value.det)) == (0, F)
        return
    x = solve(m, rhs)
    assert x == solve(exact, [F(b) for b in rhs])
    assert all(type(v) is F for v in x) and matvec(exact, x) == [F(b) for b in rhs]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_nan_or_infinite_entry_is_invalid(bad):
    """nan and inf denote no rational: det and solve raise ValidationError
    for one in m or in rhs, and so, with the same message, do the pairings
    for one in a polynomial's coefficients, on an exact and a float
    system."""
    m = Matrix.from_rows([[1.0, bad], [0.0, 1.0]])
    identity = Matrix.from_rows([[1.0, 0.0], [0.0, 1.0]])
    p = BiPoly((1.0, bad))
    calls = [lambda: det(m), lambda: solve(m, [1.0, 1.0]),
             lambda: solve(identity, [bad, 1.0])]
    for sys_ in (make_pair_system(), make_pair_system("float64")):
        calls += [partial(inner, sys_, 1, p, BiPoly((F(1),))),
                  partial(inner, sys_, 2, BiPoly((F(1),)), p),
                  partial(type1_pairing, sys_, p, (1, 1)),
                  partial(gram_pattern_holds, sys_, (1, 1), p)]
    for call in calls:
        with pytest.raises(ValidationError,
                           match="^a nan or infinite entry denotes no rational$"):
            call()


def test_float_lu_pivots_on_the_first_of_tied_magnitudes():
    """Column (2, -2) pivots on row 0, and so does (-2, 2); a tie (3, -3)
    in rows 1 and 2 pivots on row 1, at step 0 and at step 1.  Each perm
    is even: the identity, or the 3-cycle of two swaps."""
    for rows in ([[2.0, 1.0], [-2.0, 3.0]], [[-2.0, 1.0], [2.0, 3.0]]):
        lu = FloatLU(rational_parts(rows))
        assert (lu.perm, lu.stopped) == ([0, 1], False)
    lu = FloatLU(rational_parts([[1.0, 0.0, 0.0], [3.0, 1.0, 0.0], [-3.0, 0.0, 2.0]]))
    assert (lu.perm, lu.stopped) == ([1, 2, 0], False)
    lu = FloatLU(rational_parts([[4.0, 0.0, 0.0], [0.0, 3.0, 1.0], [0.0, -3.0, 2.0]]))
    assert (lu.perm, lu.stopped) == ([0, 1, 2], False)


def test_float_lu_stops_on_an_all_zero_column():
    for rows in ([[0.0, 1.0], [0.0, 2.0]], [[1.0, 2.0, 0.0], [2.0, 4.0, 1.0], [3.0, 6.0, 2.0]]):
        lu = FloatLU(rational_parts(rows))
        assert lu.stopped
        assert lu.type1(len(rows)) is None


def reference_float_lu(rows):
    """Partial pivoting written out: the first row of largest |entry| in
    column k, strictly larger replacing it; (lu, perm, stopped)."""
    a = [list(row) for row in rows]
    n = len(a)
    scale = max([1.0] + [abs(v) for row in a for v in row])
    perm = list(range(n))
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(a[i][k]) > abs(a[p][k]):
                p = i
        if abs(a[p][k]) <= FLOAT_TOL * scale:
            return a, perm, True
        if p != k:
            a[k], a[p] = a[p], a[k]
            perm[k], perm[p] = perm[p], perm[k]
        for i in range(k + 1, n):
            f = a[i][k] = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return a, perm, False


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 1e-13]),
                                min_size=n, max_size=n), min_size=n, max_size=n)))
def test_float_lu_matches_the_reference_pivoting_under_ties(rows):
    """The entry 1e-13 makes small nonzero pivots, at or below the
    threshold."""
    lu = FloatLU(rational_parts(rows))
    assert (lu.lu, lu.perm, lu.stopped) == reference_float_lu(rows)


@pytest.mark.parametrize("eps, stops", [(1e-13, True), (1e-11, False)])
def test_float_lu_stops_on_a_small_nonzero_pivot(eps, stops):
    """The second pivot of [[1, 1], [1, 1 + eps]] is about eps, nonzero:
    FloatLU stops when it is at most FLOAT_TOL times the largest entry."""
    lu = FloatLU(rational_parts([[1.0, 1.0], [1.0, 1.0 + eps]]))
    assert lu.lu[1][1] != 0.0
    assert lu.stopped is stops
    assert (lu.type1(2) is None) is stops


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

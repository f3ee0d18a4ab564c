"""Moment matrices, normality, and the Type I / Type II solvers."""

import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bimop import (
    BiPoly,
    DimensionMismatch,
    EmptyIndex,
    IndexOutOfRange,
    Jacobi,
    Laguerre,
    MeasureSystem,
    MomentTable,
    NotNormal,
    PathInvalid,
    ProductSystem,
    TableExhausted,
    TableMeasure,
    TensorMeasure,
    UniMeasureSystem,
    UniPoly,
    ValidationError,
    biorth,
    canonical_path,
    inner,
    is_normal,
    moment_matrix,
    nnr_type1,
    nnr_type2,
    normality,
    pair,
    params,
    poly_to_json,
    product_poly,
    solve_path,
    type1,
    type1_pairing,
    type2,
    uni_moment_matrix,
    uni_normality,
    uni_type1,
    uni_type2,
    unpair,
)
from bimop import linalg, mopcore, multiindex, relations
from bimop.errors import FrozenInstanceError
from conftest import (make_pair_system, make_product_system, make_uni_pair_system, make_xsystem,
                      make_ysystem, poly, times, uni_inner)


def trimmed(coeffs):
    """coeffs as a tuple without trailing zeros."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def direct_condition(sys_, j, p, t, s):
    """Independent re-summation of <p, x^t y^s>_j straight from moments."""
    total = 0
    for z, c in enumerate(p.coeffs):
        if c == 0:
            continue
        u, v = unpair(z)
        total += c * sys_.moment(j, u + t, v + s)
    return total


def kernel_det(sys_, n):
    """det(M_n) by ``ExactLU`` on M_n alone, with no rider row, on an exact
    system."""
    return F(*linalg.ExactLU(mopcore._moment_rows(sys_, n, range(sum(n)))).det())


# ---------------------------------------------------------------------------
# BiPoly basics


def test_bipoly_trim_and_top(duo):
    """A sum is trimmed of its trailing zeros (``combine``), and its top
    term, the first of ``terms``, sits at position len(coeffs) - 1: y, of
    degree 1."""
    p = mopcore.combine(duo, [(F(1), ([[1, 0, 2, 0]], 1))])
    assert p.coeffs == (F(1), F(0), F(2))
    assert p.terms() == [(0, 1, F(2)), (0, 0, F(1))]
    assert unpair(len(p.coeffs) - 1) == (0, 1)


def test_bipoly_pretty():
    p = poly({(2, 1): F(1), (1, 0): F(-3, 2), (0, 0): F(1)})
    assert p.pretty() == "x^2*y - 3/2*x + 1"
    assert BiPoly(()).pretty() == "0"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=1, max_size=12))
def test_shift_moves_top_position(duo, coeffs):
    """x*p and y*p move the top position z = pair(t, s) of p's cleared
    integers to pair(t + 1, s) = z + t + s + 1 and pair(t, s + 1) =
    z + t + s + 2 (``shifted``)."""
    p = BiPoly(trimmed(F(c) for c in coeffs))
    if p.is_zero():
        return
    (ints,), _ = mopcore.cleared(duo, (p,))
    z = len(ints) - 1
    deg = sum(unpair(z))
    assert len(mopcore.shifted(ints, multiindex.shift_x)) - 1 == z + deg + 1
    assert len(mopcore.shifted(ints, multiindex.shift_y)) - 1 == z + deg + 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(-6, 6),
                          st.fractions(min_value=-6, max_value=6, max_denominator=12)),
                max_size=10))
def test_shifted_cleared_form_is_the_cleared_product(duo, coeffs):
    """x*p and y*p have one rule: ``shifted`` of p's cleared integers, over
    the same d, is the cleared form of x*p and y*p by the exponent map
    (``times``), the zero polynomial included."""
    p = BiPoly(trimmed(coeffs))
    (ints,), d = mopcore.cleared(duo, (p,))
    for shift, xp in ((multiindex.shift_x, times(p, 1, 0)), (multiindex.shift_y, times(p, 0, 1))):
        assert ([mopcore.shifted(ints, shift)], d) == mopcore.cleared(duo, (xp,))


# ---------------------------------------------------------------------------
# Moment matrices and normality


def test_moment_matrix_block_shapes(duo):
    mm = moment_matrix(duo, (1, 2))
    assert (mm.rows, mm.cols) == (3, 3)
    # block 1 is column 0; block 2 is columns 1..2
    for k in range(3):
        t, s = unpair(k)
        assert mm.data[k][0] == duo.moment(1, t, s)
        for l in range(2):
            lt, ls = unpair(l)
            assert mm.data[k][1 + l] == duo.moment(2, t + lt, s + ls)


def short_table_system():
    """The pair system's moments of total degree <= 4 for measure 1 and
    <= 3 for measure 2, as tables."""
    pair_ = make_pair_system()
    return MeasureSystem(measures=tuple(
        TableMeasure({(t, s): pair_.moment(j, t, s) for t in range(top + 1)
                      for s in range(top + 1 - t)}) for j, top in ((1, 4), (2, 3))))


def table_message(call, sys_, n):
    with pytest.raises(TableExhausted) as err:
        call(sys_, n)
    return str(err.value)


@pytest.mark.parametrize("call", [normality, moment_matrix])
def test_m_n_reads_its_moments_column_by_column(call):
    """M_(4,4) lacks (4, 0) of measure 2 at row 3 (e_3 + e_3, block 2) and
    (5, 0) of measure 1 at row 6 (e_6 + e_3, block 1).  Columns are read
    one by one, block 1 first, so the first missing moment is (5, 0)."""
    assert table_message(call, short_table_system(), (4, 4)) == \
        "no moment for (t, s) = (5, 0)"


def test_type2_reads_the_rider_row_after_m_n():
    """M_(3,3) fits the table; row 6 does not, and its first missing moment
    on M's columns is (4, 0) = e_6 + e_1 of measure 2, before (3, 1) =
    e_6 + e_2.  normality answers and type2 names that moment, whichever
    runs first."""
    for first in (normality, type2):
        sys_ = short_table_system()
        if first is type2:
            assert table_message(type2, sys_, (3, 3)) == "no moment for (t, s) = (4, 0)"
        assert normality(sys_, (3, 3)).normal
        assert table_message(type2, sys_, (3, 3)) == "no moment for (t, s) = (4, 0)"


def test_zero_index_is_vacuously_normal(duo):
    v = normality(duo, (0, 0))
    assert v.normal is True
    assert v.det == 1
    assert type2(duo, (0, 0)).coeffs == (F(1),)


@pytest.mark.parametrize("make", [make_pair_system, make_xsystem])
def test_float_zero_index_has_a_float_det(make):
    v = normality(make("float64"), (0, 0))
    assert v.normal is True
    assert type(v.det) is float and v.det == 1.0


@pytest.mark.parametrize("mode", ["exact", "float64"])
@pytest.mark.parametrize("make", [make_pair_system, make_xsystem])
def test_moment_matrix_det_is_normality_det(make, mode):
    """ExactLU run on moment_matrix(s, n) alone gives normality's det, whose
    factorisation carried the Type II row as a rider: the rider changes the
    det in neither value nor type, the empty M of the zero index included.
    A float system's det is that of its exact twin's M_n, rounded once."""
    for total in range(5):
        for a in range(total + 1):
            n = (a, total - a)
            sys_ = make(mode)
            got = normality(sys_, n).det
            want = kernel_det(sys_.exact_system, n)
            want = want if sys_.exact else float(want)
            assert (got, type(got)) == (want, type(want)), n


def test_quad_normality_examples(quad):
    assert normality(quad, (3, 3, 3, 3)).det == 0
    assert not is_normal(quad, (3, 3, 3, 3))
    assert normality(quad, (4, 3, 3, 2)).det != 0
    assert is_normal(quad, (4, 3, 3, 2))


def float_lu_coeffs(sys_, n):
    """The coefficients of n's Type II and Type I polynomials straight from
    ``FloatLU`` on M_n, with row |n| of the moments as its rider row."""
    m = moment_matrix(sys_, n)
    rider, = mopcore._moment_rows(sys_, n, [sum(n)])
    rider = [a / b for a, b in rider]
    lu = linalg.FloatLU(linalg.rational_parts(m.data + [rider]))
    (y, _), (c, _) = lu.type2(sum(n)), lu.type1(sum(n))
    ends = list(itertools.accumulate(n))
    blocks = [trimmed(c[end - nj:end]) for nj, end in zip(n, ends)]
    return [tuple(y) + (1.0,)] + blocks


@pytest.mark.parametrize("make, n", [(make_pair_system, (1, 1)), (make_pair_system, (2, 1)),
                                     (make_pair_system, (3, 3)), (make_xsystem, (1, 1)),
                                     (make_xsystem, (2, 1)), (make_xsystem, (1, 2))])
def test_both_kernels_read_one_row_list(make, n):
    """The rows ``_factorise`` hands either kernel, M_n's moment parts with
    row |n| as the rider, are one list: FloatLU's Type I and Type II of it
    match ExactLU's within 1e-12 of each vector's largest entry, at indices
    where M_n is well conditioned."""
    rows = mopcore._moment_rows(make("float64"), n, range(sum(n) + 1))
    exact, approx = linalg.ExactLU(rows), linalg.FloatLU(rows)
    assert not approx.stopped
    for read in ("type1", "type2"):
        (want, d), (got, one) = getattr(exact, read)(sum(n)), getattr(approx, read)(sum(n))
        want = [F(v, d) for v in want]
        assert one == 1.0 and len(got) == len(want) == sum(n)
        size = max(abs(v) for v in want)
        assert all(abs(F(g) - w) <= F(1e-12) * size for g, w in zip(got, want)), (n, read)


def hexes(coeffs):
    return [[c.hex() for c in p] for p in coeffs]


def test_the_float_tol_only_hands_solves_to_the_twin():
    """FloatLU stops at its one threshold, FLOAT_TOL, on the pair system's
    (19, 19) and (17, 2) and the x system's (6, 1), and completes on (10,
    10) and (2, 1); all five are exactly normal.  The threshold decides no
    verdict: each index's normality is its exact twin's, det rounded once.
    Where FloatLU stops, type2 and type1 (uni_type2 and uni_type1 on the x
    system) are the twin's coefficients rounded once; where it completes,
    they are FloatLU's own, which differ from them."""
    pair, xs = make_pair_system("float64"), make_xsystem("float64")
    cases = ((pair, (19, 19), True), (pair, (17, 2), True), (pair, (10, 10), False),
             (xs, (6, 1), True), (xs, (2, 1), False))
    for sys_, n, stops in cases:
        got, want = normality(sys_, n), normality(sys_.exact_system, n)
        assert got.normal is want.normal is True
        assert got.det.hex() == float(want.det).hex()
        m = moment_matrix(sys_, n)
        assert linalg.FloatLU(linalg.rational_parts(m.data)).stopped is stops

        def coeffs(s):
            if isinstance(s, UniMeasureSystem):
                return [p.coeffs for p in (uni_type2(s, n), *uni_type1(s, n))]
            return [p.coeffs for p in (type2(s, n), *type1(s, n).polys)]

        got = coeffs(sys_)
        assert all(type(c) is float for p in got for c in p)
        twin = [tuple(float(c) for c in p) for p in coeffs(sys_.exact_system)]
        assert hexes(got) == hexes(twin if stops else float_lu_coeffs(sys_, n)), n
        assert (hexes(got) == hexes(twin)) is stops, n


def test_product_poly_multiplies_the_rounded_twin_where_float_lu_stops():
    """product_poly on float systems multiplies its factors' coefficients:
    P_(6,1)'s, where FloatLU stops, are the exact twin's rounded once, and
    P_(2,1)'s are FloatLU's own."""
    xs = make_xsystem("float64")
    px = [float(c) for c in uni_type2(xs.exact_system, (6, 1)).coeffs]
    py = float_lu_coeffs(xs, (2, 1))[0]
    want = {pair(t, s): (a * b).hex() for t, a in enumerate(px) for s, b in enumerate(py)}
    got = product_poly(ProductSystem.build(xs, xs), (6, 1), (2, 1))
    assert {pair(t, s): c.hex() for t, s, c in got.terms()} == want


def test_dense_past_the_float_range_raises_the_rounded_error():
    """A form whose coefficient / d exceeds float64 is invalid input on a
    float system, with the error every rounded report value raises."""
    with pytest.raises(ValidationError) as rounded:
        mopcore._rounded(F(10 ** 400, 3))
    with pytest.raises(ValidationError) as dense:
        mopcore._dense(make_pair_system("float64"), [[1, 10 ** 400]], 3)
    assert str(dense.value) == str(rounded.value)
    assert "float64 range" in str(dense.value)
    poly, = mopcore._dense(make_pair_system(), [[1, 10 ** 400]], 3)
    assert poly.coeffs == (F(1, 3), F(10 ** 400, 3))


def test_equivalence_of_solvers_and_det(duo):
    # type2 succeeds iff type1 succeeds iff det(M_n) != 0
    for total in range(1, 11):
        for i in range(total + 1):
            n = (i, total - i)
            ok = is_normal(duo, n)
            if ok:
                type2(duo, n)
                type1(duo, n)
            else:
                with pytest.raises(NotNormal):
                    type2(duo, n)
                with pytest.raises(NotNormal):
                    type1(duo, n)


SYSTEMS = {
    "pair": make_pair_system,
    "quad": lambda: make_product_system().bivariate,
    "x": make_xsystem,
    "pair-float": lambda: make_pair_system("float64"),
    "x-float": lambda: make_xsystem("float64"),
}


@pytest.mark.parametrize("system, n, prefix", [
    pytest.param("pair", (3, 4), "", id="n0"),
    pytest.param("quad", (3, 3, 3, 3), "", id="n1"),
    pytest.param("x", (3, 4), "uni_", id="uni"),
    pytest.param("pair-float", (3, 4), "", id="float"),
    pytest.param("x-float", (3, 4), "uni_", id="uni-float"),
])
@pytest.mark.parametrize("first", ["normality", "type2", "type1"])
def test_one_moment_matrix_per_exact_index(builds, system, n, prefix, first):
    """normality, type2 and type1 of one index share one M_n per system: an
    exact system builds one; a float system builds one for its FloatLU and
    its exact twin one for normality, and for a solve FloatLU hands over.

    The univariate entry points (prefix "uni_") run the same solver.
    """
    sys_ = SYSTEMS[system]()
    calls = [first] + [c for c in ("normality", "type2", "type1") if c != first]
    for call in calls * 2:
        try:
            getattr(mopcore, prefix + call)(sys_, n)
        except NotNormal as exc:
            assert n == (3, 3, 3, 3) and exc.det == 0
    modes = ["exact"] if sys_.exact else ["exact", "float64"]
    assert sorted(builds) == [(mode, n) for mode in modes]


# ---------------------------------------------------------------------------
# Path solves: every index of a neighbour path from one factorisation


def solved(sys_, n):
    """det, Type II and Type I of n; None for a polynomial n has none of."""
    d = normality(sys_, n).det
    if d == 0:
        for call in (type2, type1):
            with pytest.raises(NotNormal) as err:
                call(sys_, n)
            assert err.value.det == 0
        return d, None, None
    return d, type2(sys_, n), type1(sys_, n) if sum(n) else None


@st.composite
def neighbour_paths(draw, r, reach):
    """A start index with components up to 3, then up to reach random steps."""
    steps = [tuple(draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)))]
    for j in draw(st.lists(st.integers(0, r - 1), max_size=reach)):
        n = steps[-1]
        steps.append(n[:j] + (n[j] + 1,) + n[j + 1:])
    return steps


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_path_solve_matches_per_index(data):
    """Path and per-index det, Type II and Type I are equal, non-normal steps
    included: (5, 10) and (10, 5) for the pair, (1, 1, 0, 0) for the quad."""
    for make, r, reach in ((make_pair_system, 2, 16),
                           (lambda: make_product_system().bivariate, 4, 8)):
        steps = data.draw(neighbour_paths(r, reach))
        path_sys, index_sys = make(), make()
        solve_path(path_sys, steps)
        assert set(steps) <= set(path_sys._index_cache)
        for n in steps:
            assert solved(path_sys, n) == solved(index_sys, n)


def test_canonical_path_through_non_normal_indices():
    """(0, 0) -> (20, 22) raises the first component first, through the
    non-normal (20, 8) and (20, 9); one factorisation solves all 43 indices."""
    steps = canonical_path([(0, 0), (20, 22)]).steps
    path_sys, index_sys = make_pair_system(), make_pair_system()
    solve_path(path_sys, steps)
    got = [solved(path_sys, n) for n in steps]
    assert got == [solved(index_sys, n) for n in steps]
    assert [n for n, (d, _, _) in zip(steps, got) if d == 0] == [(20, 8), (20, 9)]


def direct_moment_matrix(sys_, n):
    """M_n straight from sys.moment: row k, column (j, l) is m^{(j)}_{e_k + e_l}."""
    rows = []
    for k in range(sum(n)):
        kt, ks = unpair(k)
        row = []
        for j, nj in enumerate(n, start=1):
            for l in range(nj):
                lt, ls = unpair(l)
                row.append(sys_.moment(j, kt + lt, ks + ls))
        rows.append(row)
    return rows


def fraction_rank(rows):
    """Rank by Gaussian elimination over Fractions."""
    rows = [list(row) for row in rows]
    rank = 0
    for k in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][k] != 0), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][k] / rows[rank][k]
            rows[i] = [v - f * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def assert_defining_conditions(sys_, n):
    """Type II of n is monic with <P, x^{e_l}>_j = 0 for l < n_j, and its
    Type I coefficients c solve M_n c = e_last, both judged from the
    moments; when n is not normal, M_n is rank-deficient and both raise."""
    size = sum(n)
    rows = direct_moment_matrix(sys_, n)
    if normality(sys_, n).det == 0:
        assert fraction_rank(rows) < size
        for call in (type2, type1):
            with pytest.raises(NotNormal):
                call(sys_, n)
        return
    p = type2(sys_, n)
    assert len(p.coeffs) == size + 1 and p.coeffs[-1] == 1
    for j, nj in enumerate(n, start=1):
        for l in range(nj):
            assert direct_condition(sys_, j, p, *unpair(l)) == 0
    if not size:
        return
    c = []
    for nj, a in zip(n, type1(sys_, n).polys):
        c += list(a.coeffs) + [0] * (nj - len(a.coeffs))
    assert [sum(a * b for a, b in zip(row, c)) for row in rows] == [0] * (size - 1) + [1]


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_path_solutions_meet_their_defining_conditions(data):
    """Every index a random neighbour path solves has the Type II and Type I
    its moment conditions define, on the pair and the quad system."""
    for make, r, reach in ((make_pair_system, 2, 16),
                           (lambda: make_product_system().bivariate, 4, 8)):
        steps = data.draw(neighbour_paths(r, reach))
        sys_ = make()
        solve_path(sys_, steps)
        assert set(steps) <= set(sys_._index_cache)
        for n in steps:
            assert_defining_conditions(sys_, n)


def test_canonical_path_solutions_meet_their_defining_conditions():
    """The same on (0, 0) -> (20, 22), whose non-normal (20, 8) and (20, 9)
    make the factorisation swap rows."""
    steps = canonical_path([(0, 0), (20, 22)]).steps
    sys_ = make_pair_system()
    solve_path(sys_, steps)
    assert set(steps) <= set(sys_._index_cache)
    for n in steps:
        assert_defining_conditions(sys_, n)


def test_inner_path_indices_run_no_substitution(monkeypatch):
    """No index of a 17-index path, its last included, runs a substitution:
    every nonzero index reads its Type I and its Type II with one back pass
    each on the path's one factorisation (32 passes), since the last
    index's Type II row rides the elimination as M_(8,8)'s 17th row.  With the last index solved
    alone first, the path reads the other 15 (30 passes)."""
    calls, built = [], []
    back, factor = linalg._back, mopcore.ExactLU

    def spy(lu, b):
        calls.append(len(b))
        return back(lu, b)

    def factor_spy(rows, order=None):
        built.append((len(rows), len(rows[0])))
        return factor(rows, order)

    monkeypatch.setattr(linalg, "_back", spy)
    monkeypatch.setattr(mopcore, "ExactLU", factor_spy)
    steps = canonical_path([(0, 0), (8, 8)]).steps
    assert len(steps) == 17
    solve_path(make_pair_system(), steps)
    assert built == [(17, 16)]
    assert len(calls) == 32
    assert sorted(calls) == sorted(2 * [sum(n) for n in steps[1:]])
    sys_ = make_pair_system()
    type2(sys_, steps[-1])
    calls.clear()
    solve_path(sys_, steps)
    assert set(steps) <= set(sys_._index_cache)
    assert len(calls) == 30
    assert sorted(calls) == sorted(2 * [sum(n) for n in steps[1:-1]])


def test_normal_path_builds_one_moment_matrix(builds):
    sys_ = make_pair_system()
    steps = canonical_path([(0, 0), (4, 4), (9, 4)]).steps
    solve_path(sys_, steps)
    assert all(solved(sys_, n)[0] != 0 for n in steps)
    assert builds == [("exact", (9, 4))]


@pytest.mark.parametrize("make, bound", [
    pytest.param(make_xsystem, 1400, id="univariate"),
    pytest.param(make_pair_system, 560, id="pair"),
])
def test_row_content_keeps_the_last_pivot_small(monkeypatch, make, bound):
    """Row content, divided out before column content, shrinks every
    Bareiss integer: the last pivot of M_(20,20) has at most 1400 bits on
    the univariate Laguerre(1), Laguerre(11/5) system (3602 with column
    content alone) and at most 560 on the pair system (648)."""
    factors = []
    factor = mopcore.ExactLU

    def spy(*args):
        factors.append(factor(*args))
        return factors[-1]

    monkeypatch.setattr(mopcore, "ExactLU", spy)
    type2(make(), (20, 20))
    lu, = factors
    assert lu.pivots[39].bit_length() <= bound


def test_moment_parts_not_in_lowest_terms():
    """A tensor measure multiplies its families' parts, and Jacobi(1)'s,
    (2, k + 2), are not in lowest terms either, so the parts ExactLU reads
    carry common factors.  Every index up to modulus 6 has the normality,
    Type II and Type I that a TableMeasure system holding the reduced
    moments gives."""
    measures = (TensorMeasure(Jacobi(1), Laguerre(F(1, 2))),
                TensorMeasure(Laguerre(1), Jacobi(F(1, 3))))
    tensor = MeasureSystem(measures)
    assert measures[0].moment_parts(0, 0) == (2, 2)
    assert measures[1].moment_parts(1, 0) == (8, 4)
    table = MeasureSystem(tuple(
        TableMeasure({(t, s): m.moment(t, s) for t in range(13) for s in range(13 - t)})
        for m in measures))
    indices = [(a, total - a) for total in range(7) for a in range(total + 1)]
    got = [solved(tensor, n) for n in indices]
    assert got == [solved(table, n) for n in indices]
    assert sum(d != 0 for d, _, _ in got) > 20


def test_path_solve_leaves_float_mode_alone():
    steps = canonical_path([(0, 0), (3, 3)]).steps
    path_sys, index_sys = make_pair_system("float64"), make_pair_system("float64")
    solve_path(path_sys, steps)
    assert not path_sys._index_cache
    for n in steps[1:]:
        for call in (type2, type1):
            got, want = call(path_sys, n), call(index_sys, n)
            polys = zip(got.polys, want.polys) if call is type1 else [(got, want)]
            for p, q in polys:
                assert [c.hex() for c in p.coeffs] == [c.hex() for c in q.coeffs]


def test_path_solve_rejects_non_neighbour_steps(duo):
    with pytest.raises(PathInvalid):
        solve_path(duo, [(1, 1), (2, 2)])


@pytest.mark.parametrize("end", [6, 7])
def test_short_table_path_raises_as_per_index(end):
    """Moments up to total degree 4: M_(6) fits but its Type II right-hand
    side does not; M_(7) does not fit, so a path to (7,) solves nothing."""
    pair = make_pair_system()
    table = {(t, s): pair.moment(1, t, s) for t in range(5) for s in range(5 - t)}
    steps = [(k,) for k in range(end + 1)]
    path_sys, index_sys = (MeasureSystem(measures=(TableMeasure(table),)) for _ in "ab")
    solve_path(path_sys, steps)
    assert len(path_sys._index_cache) == (end + 1 if end == 6 else 0)

    def outcome(call, sys_, n):
        try:
            return repr(call(sys_, n))
        except (TableExhausted, EmptyIndex) as exc:
            return f"{type(exc).__name__}: {exc}"

    for n in steps:
        for call in (normality, type2, type1):
            assert outcome(call, path_sys, n) == outcome(call, index_sys, n)
    assert outcome(type2, path_sys, (6,)).startswith("TableExhausted")
    if end == 7:
        assert outcome(normality, path_sys, (7,)).startswith("TableExhausted")


def test_float_digits_pinned():
    """float.hex() of float Type II/I coefficients, as summed left to right
    (Python's own float sum() compensates from 3.12 on)."""
    sys_ = make_pair_system("float64")
    assert type2(sys_, (0, 5)).coeffs[0].hex() == "0x1.7c28f5c28f587p+4"
    assert type2(sys_, (0, 6)).coeffs[0].hex() == "-0x1.178d4fdf3b6fdp+6"
    assert type2(sys_, (0, 7)).coeffs[0].hex() == "-0x1.d916872b02089p+5"
    assert type1(sys_, (0, 4)).polys[1].coeffs[0].hex() == "0x1.000000000002fp-1"


def normwise_error(got, want):
    """max |got - want| / max |want| over one coefficient vector."""
    return (max(abs(g - float(w)) for g, w in zip(got, want))
            / max(abs(float(w)) for w in want))


def type1_vector(aset, n):
    """The Type I coefficients of n, block j padded to n_j entries."""
    out = []
    for p, nj in zip(aset.polys, n):
        out += list(p.coeffs) + [0] * (nj - len(p.coeffs))
    return out


def test_pair_float_matches_exact():
    """Float Type II and Type I of the pair system within 1e-8 normwise of
    exact at moduli 5-22, a = mod/2 +- 2; an index exact calls not normal
    raises NotNormal in float too."""
    exact, approx = make_pair_system(), make_pair_system("float64")
    for mod in range(5, 23):
        for a in range(mod // 2 - 2, mod // 2 + 3):
            n = (a, mod - a)
            if not normality(exact, n).normal:
                for call in (type2, type1):
                    with pytest.raises(NotNormal):
                        call(approx, n)
                continue
            got, want = type2(approx, n).coeffs, type2(exact, n).coeffs
            assert len(got) == len(want)
            assert normwise_error(got, want) <= 1e-8
            got, want = type1_vector(type1(approx, n), n), type1_vector(type1(exact, n), n)
            assert normwise_error(got, want) <= 1e-8


def test_float_type2_raises_where_type1_does():
    """Type II and Type I come from one float factorisation of M_n, or from
    the exact twin where it stops, so at moduli 35-40 (a = mod/2 +- 2) one
    raises NotNormal exactly when the other does, and neither raises at an
    exactly normal index."""
    exact = make_pair_system()
    for mod in range(35, 41):
        for a in range(mod // 2 - 2, mod // 2 + 3):
            raised = []
            for call in (type2, type1):
                try:
                    call(make_pair_system("float64"), (a, mod - a))
                except NotNormal as exc:
                    assert exc.det == 0.0
                    raised.append(call)
            assert raised in ([], [type2, type1])
            assert not (raised and normality(exact, (a, mod - a)).normal)


def _pair_band(mods):
    """Pair indices (a, mod - a), a = mod/2 +- 2, for each modulus of mods."""
    return [(a, mod - a) for mod in mods for a in range(mod // 2 - 2, mod // 2 + 3)]


def _grid(r, bound, top=None):
    """Every r-index of modulus <= bound, its components <= top (default bound)."""
    top = bound if top is None else top
    return [n for n in itertools.product(range(top + 1), repeat=r) if sum(n) <= bound]


@pytest.mark.parametrize("make, indices", [
    pytest.param(make_pair_system, _grid(2, 20), id="pair-grid"),
    pytest.param(make_xsystem, _grid(2, 20), id="laguerre-grid"),
    pytest.param(lambda mode="exact": UniMeasureSystem(
        families=(Jacobi(F(1, 2)), Jacobi(F(6, 5))), mode=mode),
        _grid(2, 20) + [(11, 11), (12, 12), (14, 14)], id="jacobi-grid"),
    pytest.param(make_pair_system, _pair_band(range(35, 41)), id="pair-35-40"),
    pytest.param(lambda mode="exact": make_product_system(mode).bivariate, _grid(4, 8, 4),
                 id="quad-grid"),
])
def test_float_normality_and_solves_follow_the_exact_verdict(make, indices):
    """One normality rule in both scalar modes.  Float normality is the
    exact verdict, never False or None where exact says normal, with the
    float det float(exact det) bit for bit, or ValidationError where that
    det is past the float64 range (M_(0,20) of the Laguerre system) or
    nonzero and rounds to 0.0 (M_(12,12) and M_(14,14) of the Jacobi
    system); float type2 and type1 raise NotNormal, det 0.0, exactly where
    exact does, and return polynomials of floats everywhere else."""
    exact, approx = make(), make("float64")
    normal = 0
    for n in indices:
        want = normality(exact, n)
        try:
            det = float(want.det)
        except OverflowError:
            det = None
        if det is None or (want.det and not det):
            with pytest.raises(ValidationError, match="float64 range"):
                normality(approx, n)
        else:
            got = normality(approx, n)
            assert got.normal is want.normal, n
            assert type(got.det) is float and got.det.hex() == det.hex(), n
        normal += want.normal
        if not sum(n):
            continue
        for call in (type2, type1):
            if want.normal:
                result = call(approx, n)
                polys = result.polys if call is type1 else (result,)
                assert all(type(c) is float for p in polys for c in p.coeffs), n
            else:
                with pytest.raises(NotNormal) as err:
                    call(approx, n)
                assert type(err.value.det) is float and err.value.det == 0.0
    assert normal > len(indices) // 2


# ---------------------------------------------------------------------------
# Type II


def test_type2_single_measure_linear():
    sys_ = MeasureSystem(measures=(TensorMeasure(Laguerre(F(1)), Laguerre(F(1))),))
    p = type2(sys_, (1,))
    assert p.coeffs == (F(-2), F(1))


def test_type2_orthogonality_oracle(duo):
    for n in [(1, 0), (2, 1), (3, 2), (2, 4), (4, 4)]:
        p = type2(duo, n)
        assert len(p.coeffs) - 1 == sum(n)
        assert p.coeffs[-1] == 1
        for j, nj in enumerate(n, start=1):
            for l in range(nj):
                t, s = unpair(l)
                assert direct_condition(duo, j, p, t, s) == 0


def test_type2_not_normal_carries_det(quad):
    with pytest.raises(NotNormal) as err:
        type2(quad, (3, 3, 3, 3))
    assert err.value.det == 0


def test_type2_uniqueness_under_permuted_elimination(duo):
    # re-solve the defining system with a shuffled elimination order
    rng = random.Random(7)
    for n in [(2, 2), (3, 1), (1, 4)]:
        p = type2(duo, n)
        mm = moment_matrix(duo, n)
        size = sum(n)
        # build rhs directly: b_l = m^{(j)}_{unpair(|n|)+unpair(l)} per block
        top = unpair(size)
        rhs = []
        for j, nj in enumerate(n, start=1):
            for l in range(nj):
                lt, ls = unpair(l)
                rhs.append(duo.moment(j, top[0] + lt, top[1] + ls))
        aug = [list(r) + [-rhs[k]] for k, r in
               enumerate(mm.transpose().data)]
        order = list(range(size))
        rng.shuffle(order)
        # Gaussian elimination with the shuffled pivot preference
        cols = list(range(size))
        used = []
        for col in cols:
            piv = next(i for i in order if i not in used and aug[i][col] != 0)
            used.append(piv)
            for i in range(size):
                if i != piv and aug[i][col] != 0:
                    f = aug[i][col] / aug[piv][col]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[piv])]
        coeffs = [None] * size
        for col, piv in zip(cols, used):
            coeffs[col] = aug[piv][size] / aug[piv][col]
        assert tuple(coeffs) == p.coeffs[:size]


# ---------------------------------------------------------------------------
# Type I


def test_type1_conditions_oracle(duo):
    for n in [(1, 0), (1, 1), (2, 3), (4, 2)]:
        aset = type1(duo, n)
        size = sum(n)
        for z in range(size):
            t, s = unpair(z)
            total = sum(direct_condition(duo, j, a, t, s)
                        for j, a in enumerate(aset.polys, start=1))
            assert total == (1 if z == size - 1 else 0)


def test_type1_shapes_three_measures():
    sys_ = MeasureSystem(measures=(
        TensorMeasure(Laguerre(F(1)), Laguerre(F(1, 2))),
        TensorMeasure(Laguerre(F(2)), Laguerre(F(3, 2))),
        TensorMeasure(Laguerre(F(3)), Laguerre(F(5, 2)))))
    aset = type1(sys_, (2, 4, 1))
    assert len(aset.polys[0].coeffs) <= 2
    assert len(aset.polys[1].coeffs) <= 4
    assert len(aset.polys[2].coeffs) - 1 == 0


def test_type1_zero_component_gives_zero_poly(duo):
    aset = type1(duo, (2, 0))
    assert aset.polys[1].is_zero()


def test_type1_empty_index(duo):
    with pytest.raises(EmptyIndex):
        type1(duo, (0, 0))


class Scaled:
    """A measure times the constant c: every moment times c."""

    def __init__(self, base, c):
        self.base, self.c = base, c

    def moment(self, t, s):
        return self.c * self.base.moment(t, s)


# Per-measure factors: one measure, both by integers, both by mixed factors.
SCALINGS = [(F(1), F(7, 3)), (F(6), F(10)), (F(7, 3), F(6))]
SCALING_INDICES = [(2, 1), (1, 3), (2, 2), (4, 3), (3, 5), (6, 6)]
# (1, 0) (1, 1) (1, 2) (1, 3) (2, 3) ... (6, 3) (6, 4) (6, 5) (6, 6)
SCALING_PATH = canonical_path([(1, 0), (1, 3), (6, 3), (6, 6)]).steps


def test_scaling_covariance(duo):
    """Scaling measure j by c_j leaves Type II as it is and divides Type I's
    component j by c_j (the measures module docstring), so the Type I
    pairing is unchanged; det(M_n), whose n_j columns of measure j are
    scaled by c_j, gains prod_j c_j^{n_j}.  Checked index by index, and on
    every index of a neighbour path that ``solve_path`` reads from the
    leading blocks of one factorisation."""
    p = type2(duo, (1, 1))
    for factors in SCALINGS:
        def scaled():
            return MeasureSystem(measures=tuple(
                Scaled(m, c) for m, c in zip(duo.measures, factors)))
        by_path = scaled()
        solve_path(by_path, SCALING_PATH)
        for sys_, indices in ((scaled(), SCALING_INDICES), (by_path, SCALING_PATH)):
            for n in indices:
                volume = math.prod(c ** nj for c, nj in zip(factors, n))
                assert normality(sys_, n).det == normality(duo, n).det * volume
                assert type2(sys_, n).coeffs == type2(duo, n).coeffs
                for a, b, c in zip(type1(duo, n).polys, type1(sys_, n).polys, factors):
                    assert b.coeffs == tuple(v / c for v in a.coeffs)
                assert type1_pairing(sys_, p, n) == type1_pairing(duo, p, n)


class MomentOnly:
    """A univariate family that gives only ``moment(k)``."""

    def __init__(self, family):
        self.family = family

    def moment(self, k):
        return self.family.moment(k)


def _outcome(call):
    try:
        return repr(call())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("mode", ["exact", "float64"])
def test_measures_with_only_moment_answer_as_their_built_in_twins(mode):
    """A measure or family that gives only ``moment`` (the protocol) reads
    as its built-in twin: ``Scaled`` by 1 and tensors of ``MomentOnly``
    families in a bivariate system, ``MomentOnly`` families in a univariate
    one.  normality, type2 and type1 print the same, floats to the bit, and
    a float64 moment past the range raises the same error."""
    families = (Laguerre(F(11, 5)), Jacobi(F(-1, 2)), MomentTable([F(k + 1, k + 2)
                                                                   for k in range(12)]))
    built = MeasureSystem(tuple(TensorMeasure(x, y) for x, y in zip(families, families[1:])),
                          mode=mode)
    twins = [MeasureSystem(tuple(Scaled(m, 1) for m in built.measures), mode=mode),
             MeasureSystem(tuple(TensorMeasure(MomentOnly(m.x), MomentOnly(m.y))
                                 for m in built.measures), mode=mode)]
    indices = list(itertools.product(range(5), repeat=2))
    for n in indices:
        for fn in (normality, type2, type1):
            want = _outcome(lambda: fn(built, n))
            assert [_outcome(lambda: fn(twin, n)) for twin in twins] == [want, want]
    uni = UniMeasureSystem(families, mode=mode)
    twin = UniMeasureSystem(tuple(map(MomentOnly, families)), mode=mode)
    for n in itertools.product(range(4), repeat=3):
        for fn in (uni_normality, uni_type2, uni_type1):
            assert _outcome(lambda: fn(twin, n)) == _outcome(lambda: fn(uni, n))
    if mode == "float64":
        huge = Laguerre(10 ** 120)
        reads = [(UniMeasureSystem((huge,), mode=mode), (1, 3)),
                 (MeasureSystem((TensorMeasure(huge, Laguerre(1)),), mode=mode), (1, 3, 0))]
        reads += [(UniMeasureSystem((MomentOnly(huge),), mode=mode), (1, 3)),
                  (MeasureSystem((Scaled(TensorMeasure(huge, Laguerre(1)), 1),), mode=mode),
                   (1, 3, 0)),
                  (MeasureSystem((TensorMeasure(MomentOnly(huge), Laguerre(1)),), mode=mode),
                   (1, 3, 0))]
        errors = [_outcome(lambda: sys_.moment(*order)) for sys_, order in reads]
        assert errors[2:] == [errors[0], errors[1], errors[1]]
        assert errors[0].startswith("ValidationError: measure 1: the moment of order 3 ")


# ---------------------------------------------------------------------------
# Pairings and evaluation


def test_inner_trivial(duo, duo_float):
    """inner checks its measure index before any pairing: with the zero
    polynomial on either side, j outside 1..r raises, on an exact system
    and on a float one."""
    one = BiPoly((F(1),))
    x = poly({(1, 0): F(1)})
    y = poly({(0, 1): F(1)})
    assert inner(duo, 1, one, one) == duo.moment(1, 0, 0) == 1
    assert inner(duo, 2, x, y) == duo.moment(2, 1, 1)
    zero = BiPoly(())
    for sys_ in (duo, duo_float):
        for j in (0, 3, -1):
            for p, q in ((zero, one), (one, zero), (zero, zero), (one, one)):
                with pytest.raises(IndexOutOfRange, match=rf"^measure index {j} not in 1\.\.2$"):
                    inner(sys_, j, p, q)


def naive_inner(sys_, j, p, q):
    """<p, q>_j summed pair by pair straight from sys_.moment."""
    total = 0
    for u, cu in enumerate(p.coeffs):
        if cu == 0:
            continue
        ut, us = unpair(u)
        for v, cv in enumerate(q.coeffs):
            if cv == 0:
                continue
            vt, vs = unpair(v)
            total += cu * cv * sys_.moment(j, ut + vt, us + vs)
    return total


def naive_pairing(sys_, p, m):
    total = 0
    for j, a in enumerate(type1(sys_, m).polys, start=1):
        total += naive_inner(sys_, j, p, a)
    return total


# Normal indices of the two- and four-measure systems, by r.
PAIRING_INDICES = {2: [(1, 0), (1, 1), (2, 1), (1, 2), (3, 2)],
                   4: [(1, 0, 0, 0), (1, 1, 1, 0), (0, 1, 1, 1), (2, 1, 1, 1)]}
RATIONAL_POLYS = st.lists(
    st.one_of(st.integers(-6, 6),
              st.fractions(min_value=-6, max_value=6, max_denominator=12)),
    max_size=10).map(lambda c: BiPoly(trimmed(c)))
FLOAT_POLYS = st.lists(st.floats(-6, 6), max_size=10).map(lambda c: BiPoly(trimmed(c)))
FLOAT_SYSTEMS = (make_pair_system("float64"), make_product_system("float64").bivariate)


@settings(max_examples=60, deadline=None)
@given(p=RATIONAL_POLYS, q=RATIONAL_POLYS, data=st.data())
def test_inner_and_pairing_match_naive_sum(duo, quad, p, q, data):
    for sys_ in (duo, quad):
        for j in range(1, sys_.r + 1):
            got = inner(sys_, j, p, q)
            assert isinstance(got, F)
            assert got == naive_inner(sys_, j, p, q)
        m = data.draw(st.sampled_from(PAIRING_INDICES[sys_.r]))
        got = type1_pairing(sys_, p, m)
        assert isinstance(got, F)
        assert got == naive_pairing(sys_, p, m)


def test_inner_matches_naive_sum_on_solved_polys(duo):
    """The verifiers' pairings: x*P_n and y*P_n against Type I sets."""
    for n, m in [((2, 2), (3, 3)), ((3, 2), (4, 4)), ((3, 4), (5, 5))]:
        pn = type2(duo, n)
        for xp in (times(pn, 1, 0), times(pn, 0, 1)):
            assert type1_pairing(duo, xp, m) == naive_pairing(duo, xp, m)
            for j, a in enumerate(type1(duo, m).polys, start=1):
                assert inner(duo, j, a, xp) == naive_inner(duo, j, a, xp)


def rationals(p):
    """p with each coefficient the Fraction it denotes."""
    return BiPoly(tuple(F(c) for c in p.coeffs))


@settings(max_examples=60, deadline=None)
@given(p=FLOAT_POLYS, q=FLOAT_POLYS, data=st.data())
def test_float_inner_keeps_pairwise_summation(p, q, data):
    """A float pairing is the exact pairing of the rationals the float
    coefficients denote, summed pair by pair on exact moments, rounded once
    to float: equal bit for bit."""
    for sys_, exact in zip(FLOAT_SYSTEMS, (make_pair_system(), make_product_system().bivariate)):
        for j in range(1, sys_.r + 1):
            got = inner(sys_, j, p, q)
            assert type(got) is float
            assert got.hex() == float(naive_inner(exact, j, rationals(p), rationals(q))).hex()
        m = data.draw(st.sampled_from(PAIRING_INDICES[sys_.r]))
        got = type1_pairing(sys_, p, m)
        assert type(got) is float
        assert got.hex() == float(naive_pairing(exact, rationals(p), m)).hex()


def x_power(k):
    """x^k as a UniPoly."""
    return UniPoly((0,) * k + (1,))


@pytest.mark.parametrize("mode", ["exact", "float64"])
def test_univariate_pairings_read_powers_of_x(mode):
    """On a univariate system position k is x^k in the pairings, as in M_n:
    for k, l in 0..6, inner(x^k, x^l) under measure j is family j's moment
    of order k + l (inner(1, x^3) under Laguerre(1) is 24, not m_2 = 6),
    and type1_pairing(x^k, m) is the sum of <x^k, A_{m,j}>_j from the
    families' moments: 0 for k < |m| - 1 and 1 for k = |m| - 1.  A float
    system answers the exact value rounded once."""
    sys_ = make_uni_pair_system(mode)
    exact = sys_.exact_system

    def rounded(value):
        return value if sys_.exact else float(value)

    assert inner(sys_, 1, x_power(0), x_power(3)) == rounded(F(24))
    for k in range(7):
        for l in range(7):
            for j in (1, 2):
                want = exact.families[j - 1].moment(k + l)
                assert inner(sys_, j, x_power(k), x_power(l)) == rounded(want)
        for m in itertools.product(range(4), repeat=2):
            if not sum(m):
                continue
            want = sum(uni_inner(exact, j, x_power(k).coeffs, a.coeffs)
                       for j, a in enumerate(uni_type1(exact, m), start=1))
            if k <= sum(m) - 1:
                assert want == (k == sum(m) - 1)
            assert type1_pairing(sys_, x_power(k), m) == rounded(want)


@pytest.mark.parametrize("mode", ["exact", "float64"])
def test_pairings_refuse_a_polynomial_of_the_other_kind(mode):
    """A BiPoly's position 2 is y, a UniPoly's is x^2: a polynomial of the
    other kind than the system's would be paired at the wrong monomials
    (on the pair system <x^2, 1>_1 is m(2, 0) = 6, not m(0, 1) = 33/10),
    so inner, type1_pairing and gram_pattern_holds raise ValidationError
    where it enters."""
    bi, uni = make_pair_system(mode), make_uni_pair_system(mode)
    assert inner(bi.exact_system, 1, poly({(2, 0): 1}), BiPoly((1,))) == 6
    for sys_, wrong, right in ((bi, UniPoly((0, 0, 1)), BiPoly((1,))),
                               (uni, BiPoly((0, 0, 1)), UniPoly((1,)))):
        message = (f"^a {type(sys_).__name__} pairs {type(right).__name__} polynomials, "
                   f"not {type(wrong).__name__}$")
        for call in (lambda: inner(sys_, 1, wrong, right),
                     lambda: inner(sys_, 1, right, wrong),
                     lambda: type1_pairing(sys_, wrong, (1, 1)),
                     lambda: relations.gram_pattern_holds(sys_, (1, 1), wrong)):
            with pytest.raises(ValidationError, match=message):
                call()


def test_inner_reports_first_missing_table_moment():
    """The first moment the pairs reach is the one reported missing.

    With p = x + y and q = 1 + y^2 the pairs reach (1,0), (1,2), (0,1),
    (0,3); of the missing (1,2) and (0,1), (1,2) comes first, although
    (0,1) is first by Cantor position and by (t, s).
    """
    table = {(t, s): F(t + 1, s + 1) for t in range(4) for s in range(4)
             if (t, s) not in ((1, 2), (0, 1))}
    sys_ = MeasureSystem(measures=(TableMeasure(table),))
    p = BiPoly((0, F(1), F(1)))
    q = BiPoly((1, 0, 0, 0, 0, F(1)))
    with pytest.raises(TableExhausted) as want:
        naive_inner(sys_, 1, p, q)
    with pytest.raises(TableExhausted) as got:
        inner(sys_, 1, p, q)
    assert str(got.value) == str(want.value) == "no moment for (t, s) = (1, 2)"


@settings(max_examples=40, deadline=None)
@given(p=RATIONAL_POLYS, qs=st.lists(RATIONAL_POLYS, min_size=1, max_size=4), data=st.data())
def test_one_row_set_matches_pairwise_sums(duo, quad, p, qs, data):
    """One row set paired against several q and several Type I sets in turn,
    each as its cleared form, gives every pair-by-pair sum exactly, zero
    polynomials included."""
    for sys_ in (duo, quad):
        for pp in (p, BiPoly(())):
            pair = mopcore.moment_rows(sys_, mopcore.cleared(sys_, (pp,)))
            for q in qs + [BiPoly(())]:
                j = data.draw(st.integers(1, sys_.r))
                got = pair(mopcore.cleared(sys_, (q,)), j)
                assert isinstance(got, F)
                assert got == naive_inner(sys_, j, pp, q)
                m = data.draw(st.sampled_from(PAIRING_INDICES[sys_.r]))
                got = pair(mopcore.cleared(sys_, type1(sys_, m).polys))
                assert isinstance(got, F)
                assert got == naive_pairing(sys_, pp, m)
                assert repr(pair(mopcore.type1_form(sys_, m))) == repr(got)
            got = pair(mopcore.cleared(sys_, qs[:sys_.r]))
            assert isinstance(got, F)
            assert got == sum(naive_inner(sys_, j, pp, q)
                              for j, q in enumerate(qs[:sys_.r], start=1))


def test_rows_read_no_moment_for_a_zero_coefficient():
    """A moment missing only where q has a zero coefficient is never read,
    and a row set shared by several pairings names the same first missing
    moment as a pair-by-pair sum.

    p = x + y.  q1 = 1 + y^2 has zero coefficients at y and x^2, whose
    pairings with p would need the missing (0,2) and (3,0).  q2 = 1 + y + x^2
    then reaches, p's terms outer, (1,0) (row filled), (1,1), (3,0): (3,0)
    is named, although (0,2) comes first by Cantor position and by (t, s).
    """
    table = {(t, s): F(t + 1, s + 1) for t in range(5) for s in range(5)
             if (t, s) not in ((0, 2), (3, 0))}
    sys_ = MeasureSystem(measures=(TableMeasure(table),))
    p = BiPoly((0, 1, 1))
    q1 = BiPoly((1, 0, 0, 0, 0, 1))
    q2 = BiPoly((1, 0, 1, 1))
    pair = mopcore.moment_rows(sys_, mopcore.cleared(sys_, (p,)))
    assert pair(mopcore.cleared(sys_, (q1,))) == naive_inner(sys_, 1, p, q1)
    with pytest.raises(TableExhausted) as want:
        naive_inner(sys_, 1, p, q2)
    with pytest.raises(TableExhausted) as got:
        pair(mopcore.cleared(sys_, (q2,)))
    assert str(got.value) == str(want.value) == "no moment for (t, s) = (3, 0)"
    # The failed pairing left no row entry behind.
    with pytest.raises(TableExhausted):
        pair(mopcore.cleared(sys_, (q2,)))
    assert pair(mopcore.cleared(sys_, (q1,))) == naive_inner(sys_, 1, p, q1)


def solved_poly(sys_, m, k):
    """Polynomial k of index m: 0 zero, 1 P_m, 2 x*P_m, 3 y*P_m, 3 + j A_{m,j}."""
    if k == 0:
        return BiPoly(())
    if k <= 3:
        p = type2(sys_, m)
        return (p, times(p, 1, 0), times(p, 0, 1))[k - 1]
    return type1(sys_, m).polys[k - 4]


def solved_form(sys_, m, k):
    """solved_poly's polynomial k as a cleared form: P_m and A_{m,j} by
    their cached forms, the others cleared."""
    if k == 1:
        return mopcore.type2_form(sys_, m)
    if k > 3:
        blocks, d = mopcore.type1_form(sys_, m)
        return [blocks[k - 4]], d
    return mopcore.cleared(sys_, (solved_poly(sys_, m, k),))


def residual_chain(terms):
    """p_0 - a_1 p_1 - a_2 p_2 - ... for terms (1, p_0), (-a_1, p_1), ...,
    the reference for combine: each c * p added to the sum Fraction by
    Fraction, position by position, and the sum trimmed."""
    acc = [F(0)] * max((len(p.coeffs) for _, p in terms), default=0)
    for c, p in terms:
        for z, a in enumerate(p.coeffs):
            acc[z] += c * a
    return BiPoly(trimmed(acc))


COMBINE_WEIGHTS = st.one_of(st.sampled_from([F(1), F(-1), F(0)]),
                            st.fractions(min_value=-6, max_value=6, max_denominator=40))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_combine_matches_the_residual_chain(duo, quad, data):
    """combine of cleared forms equals the positionwise sum of their
    weighted polynomials, as Fractions; Type II and Type I polynomials with
    rational weights, zero polynomials, zero weights and empty sums
    included.  Cached forms in place of P_m and A_{m,j} give the sum of the
    cleared public polynomials, to the repr."""
    for sys_ in (duo, quad):
        picks = data.draw(st.lists(st.tuples(
            st.sampled_from(PAIRING_INDICES[sys_.r]),
            st.integers(0, 3 + sys_.r), COMBINE_WEIGHTS), max_size=6))
        exact_terms = [(c, solved_poly(sys_, m, k)) for m, k, c in picks]
        form_terms = [(c, solved_form(sys_, m, k)) for m, k, c in picks]
        got = mopcore.combine(sys_, form_terms)
        assert got == residual_chain(exact_terms)
        assert all(isinstance(c, F) for c in got.coeffs)
        cleared_terms = [(c, mopcore.cleared(sys_, (p,))) for c, p in exact_terms]
        assert repr(mopcore.combine(sys_, cleared_terms)) == repr(got)


def test_combine_sums_cleared_forms_without_clearing(duo, monkeypatch):
    """combine sums the forms it is given and clears nothing itself: no
    ``cleared`` call, and a sum whose value is not zero."""
    terms = [(1, times(type2(duo, (2, 2)), 0, 1)), (F(-3, 7), type2(duo, (3, 2))),
             (F(5, 2), type1(duo, (2, 3)).polys[1]), (F(1, 3), BiPoly(()))]
    forms = [(c, mopcore.cleared(duo, (p,))) for c, p in terms]
    calls = []
    clear = mopcore.cleared
    monkeypatch.setattr(mopcore, "cleared",
                        lambda sys_, polys: calls.append(polys) or clear(sys_, polys))
    got = mopcore.combine(duo, forms)
    assert calls == []
    assert got == residual_chain(terms) and not got.is_zero()
    assert mopcore.combine(duo, []) == BiPoly(())


def test_moment_rows_on_a_float_system_names_the_mode():
    """moment_rows pairs exact moments; a float system is invalid input
    that names its mode, before any moment is read."""
    approx = make_pair_system("float64")
    with pytest.raises(ValidationError, match="moment_rows needs an exact system, "
                                              "not mode 'float64'"):
        mopcore.moment_rows(approx, BiPoly((0.5, 1.0)))
    assert not approx._moment_cache


def test_combine_on_a_float_system_names_the_mode():
    """combine sums with rational weights on an exact system; a float
    system is invalid input that names its mode."""
    approx = make_pair_system("float64")
    with pytest.raises(ValidationError, match="combine needs an exact system, "
                                              "not mode 'float64'"):
        mopcore.combine(approx, [(0.5, type2(approx, (1, 1)))])


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _table_system():
    """The moments 1 / ((t + 1)(s + 1)) of the unit square, t, s < 6."""
    return MeasureSystem(measures=(TableMeasure(
        {(t, s): F(1, (t + 1) * (s + 1)) for t in range(6) for s in range(6)}),))


CLEARED_GRIDS = [
    pytest.param(make_pair_system, list(itertools.product(range(9), repeat=2)), id="pair"),
    pytest.param(lambda: make_product_system().bivariate,
                 list(itertools.product(range(4), repeat=4)), id="quad"),
    pytest.param(lambda: UniMeasureSystem(families=(Laguerre(1), Jacobi(F(1, 2)))),
                 list(itertools.product(range(7), repeat=2)), id="uni"),
    pytest.param(_table_system, [(k,) for k in range(12)], id="table"),
]


@pytest.mark.parametrize("make, indices", CLEARED_GRIDS)
def test_cached_forms_are_the_cleared_public_polynomials(make, indices):
    """On a fresh exact system, each index's cached Type II and Type I
    equal ``cleared`` of the public polynomials, which leave the
    cache as it was: one cleared form per polynomial.  Where the public
    call raises (NotNormal, a rider's TableExhausted, EmptyIndex for the
    zero index's Type I), the form raises the same error.  The grids hold
    the zero index and indices with n_j = 0."""
    sys_ = make()
    for n in indices:
        forms = [_outcome(lambda: mopcore.type2_form(sys_, n)),
                 _outcome(lambda: mopcore.type1_form(sys_, n))]
        entry = sys_._index_cache.get(n)
        held = entry and (entry.type2, entry.type1)
        cleared = [_outcome(lambda: mopcore.cleared(sys_, (type2(sys_, n),))),
                   _outcome(lambda: mopcore.cleared(sys_, type1(sys_, n).polys))]
        assert forms == cleared, n
        if entry:
            assert entry.type2 is held[0] and entry.type1 is held[1]


def test_verifiers_raise_what_the_public_reads_raise(quad):
    """A verifier that reads a cached form raises what ``type2`` or
    ``type1`` raises for that index, at the same point: NotNormal for a
    singular M_n, a rider's TableExhausted and EmptyIndex."""
    pair = make_pair_system()
    short = MeasureSystem(measures=(TableMeasure(
        {(t, s): pair.moment(1, t, s) for t in range(5) for s in range(5 - t)}),))
    cases = [(quad, (0, 0, 1, 1), (1, 0, 1, 1), type2, (0, 0, 1, 1)),
             (quad, (1, 0, 0, 0), (0, 0, 1, 1), type1, (0, 0, 1, 1)),
             (pair, (1, 1), (0, 0), type1, (0, 0)),
             (short, (6,), (1,), type2, (6,))]
    for sys_, n, m, call, bad in cases:
        fresh = MeasureSystem(measures=sys_.measures)
        want = _outcome(lambda: call(fresh, bad))
        assert want.split(":")[0] in ("NotNormal", "TableExhausted", "EmptyIndex")
        got = _outcome(lambda: biorth(MeasureSystem(measures=sys_.measures), n, m))
        assert got == want, (n, m)


@pytest.mark.parametrize("call", [
    normality, type2, type1, moment_matrix,
    pytest.param(lambda sys_, n: params(n), id="params"),
    pytest.param(lambda sys_, n: nnr_type2(sys_, n, "x"), id="nnr_type2"),
    pytest.param(lambda sys_, n: nnr_type1(sys_, n, "x"), id="nnr_type1"),
])
@pytest.mark.parametrize("n", [(3, -1), (1, -1), (-3, 1), (-9, 1)])
def test_negative_index_component_is_out_of_range(duo, duo_float, call, n):
    for sys_ in (duo, duo_float):
        with pytest.raises(IndexOutOfRange, match=re.escape(f"index {n} has a negative")):
            call(sys_, n)


@pytest.mark.parametrize("call", [normality, type2, type1, moment_matrix])
@pytest.mark.parametrize("n", [(1, 2, 3), (4,)])
def test_index_of_the_wrong_length_is_a_dimension_mismatch(duo, duo_float, call, n):
    for sys_ in (duo, duo_float):
        with pytest.raises(DimensionMismatch, match=f"index length {len(n)} != r = 2"):
            call(sys_, n)


# ---------------------------------------------------------------------------
# Univariate solvers


def test_uni_type2_paper_values():
    ys = make_ysystem()
    assert uni_type2(ys, (1, 0)).coeffs == (F(-33, 10), F(1))
    xs = make_xsystem()
    assert uni_type2(xs, (0, 1)).coeffs == (F(-16, 5), F(1))


def test_uni_type2_orthogonality():
    xs = make_xsystem()
    for n in [(2, 1), (1, 3), (2, 2), (0, 3), (3, 0)]:
        p = uni_type2(xs, n)
        assert len(p.coeffs) - 1 == sum(n)
        for j, nj in enumerate(n, start=1):
            for k in range(nj):
                total = sum(c * xs.moment(j, i + k) for i, c in enumerate(p.coeffs))
                assert total == 0


def test_uni_type1_conditions():
    xs = make_xsystem()
    for n in [(1, 1), (2, 1), (2, 3), (0, 3), (3, 0)]:
        polys = uni_type1(xs, n)
        size = sum(n)
        for k in range(size):
            total = sum(sum(c * xs.moment(j, i + k) for i, c in enumerate(a.coeffs))
                        for j, a in enumerate(polys, start=1))
            assert total == (1 if k == size - 1 else 0)


def test_uni_moment_matrix_is_the_transpose_of_m_n():
    """Block j of M_n^t has rows m^{(j)}_{k+l}, k < n_j, l < |n|."""
    xs = make_xsystem()
    for n in ((0, 0), (2, 0), (1, 3), (3, 2)):
        got = uni_moment_matrix(xs, n)
        assert got.data == moment_matrix(xs, n).transpose().data
        assert got.data == [[xs.moment(j, k + l) for l in range(sum(n))]
                            for j, nj in enumerate(n, start=1) for k in range(nj)]


def test_uni_normality():
    assert uni_normality(make_xsystem(), (2, 2)).normal


@pytest.mark.parametrize("first", ["uni_normality", "uni_type2"])
def test_uni_short_table_normality_without_type2(first):
    """A table with m_0..m_2 fills M_(2) but not the Type II right-hand side."""
    xs = UniMeasureSystem(families=(MomentTable([F(1), F(1), F(2)]),))
    if first == "uni_type2":
        with pytest.raises(TableExhausted):
            uni_type2(xs, (2,))
    v = uni_normality(xs, (2,))
    assert v.normal and v.det == 1
    with pytest.raises(TableExhausted):
        uni_type2(xs, (2,))
    assert uni_type1(xs, (2,))[0].coeffs == (F(-1), F(1))


@pytest.mark.parametrize("make", [make_xsystem, make_ysystem])
def test_uni_float_matches_exact(make):
    """Float Type II/I within 1e-8 of exact, relative to the largest coefficient."""
    exact, approx = make(), make("float64")
    for a in range(7):
        for b in range(7 - a):
            n = (a, b)
            if not sum(n):
                continue
            pairs = [(uni_type2(exact, n), uni_type2(approx, n))]
            pairs += zip(uni_type1(exact, n), uni_type1(approx, n))
            for want, got in pairs:
                scale = max((abs(float(c)) for c in want.coeffs), default=0.0)
                assert len(got.coeffs) == len(want.coeffs)
                assert all(abs(g - float(w)) <= 1e-8 * scale
                           for g, w in zip(got.coeffs, want.coeffs))


@pytest.mark.parametrize("make", [make_pair_system, make_xsystem])
def test_systems_are_frozen(make):
    sys_ = make()
    with pytest.raises(FrozenInstanceError):
        sys_.mode = "float64"


# ---------------------------------------------------------------------------
# Serialization


def test_poly_to_json_descending():
    p = poly({(1, 1): F(1), (0, 0): F(-22, 5)})
    doc = poly_to_json(p)
    assert doc == {"terms": [{"t": 1, "s": 1, "c": "1"},
                             {"t": 0, "s": 0, "c": "-22/5"}]}

"""Products of univariate Type II polynomials as bivariate polynomials."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bimop import (
    BadV,
    DivisionByZeroFactor,
    Jacobi,
    Laguerre,
    MomentTable,
    NotNormal,
    ProductSystem,
    SchemaError,
    SurplusNegative,
    UniMeasureSystem,
    ValidationError,
    candidate_vs,
    det_factor_check,
    find_v,
    normality,
    pair,
    product_poly,
    tilde_v,
    type2,
    unpair,
    verify_product,
)
from conftest import make_product_system, make_xsystem, make_ysystem


def test_tilde_v_examples():
    assert tilde_v((0, 1), (1, 0)) == (2, 0, 4, 1)
    assert tilde_v((1, 1), (1, 1)) == (4, 4, 4, 4)
    assert tilde_v((0, 0), (0, 0)) == (0, 0, 0, 0)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12)),
       st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12)))
def test_tilde_v_dominates_pairing(n, m):
    assert sum(tilde_v(n, m)) >= pair(sum(n), sum(m))


def test_find_v_examples():
    v = find_v((0, 1), (1, 0))
    assert v == (2, 0, 1, 1)
    assert sum(v) == pair(1, 1) == 4
    with pytest.raises(SurplusNegative):
        find_v((2, 2), (0,))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)),
       st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)))
def test_find_v_postconditions(n, m):
    v = find_v(n, m)
    tv = tilde_v(n, m)
    assert all(a <= b for a, b in zip(v, tv))
    assert sum(v) == pair(sum(n), sum(m))


def test_candidate_vs_contains_greedy_choice():
    cands = candidate_vs((0, 1), (1, 0))
    assert (2, 0, 1, 1) in cands
    assert (1, 0, 2, 1) in cands
    assert cands == sorted(cands)
    for v in cands:
        assert sum(v) == 4


def test_product_poly_example(psys):
    r = product_poly(psys, (0, 1), (1, 0))
    # (x - 16/5)(y - 33/10)
    assert r[pair(1, 1)] == 1
    assert r[pair(0, 1)] == F(-16, 5)
    assert r[pair(1, 0)] == F(-33, 10)
    assert r[pair(0, 0)] == F(264, 25)


def test_product_poly_trivial(psys):
    assert product_poly(psys, (0, 0), (0, 0)).coeffs == (F(1),)


def test_product_poly_with_a_zero_coefficient():
    """The moments of dx/2 on [-1, 1] give P_2 = x^2 - 1/3, whose x term
    is zero: R = (x^2 - 1/3)(y - 2) has no x term either."""
    xs = UniMeasureSystem(families=(MomentTable([1, 0, F(1, 3), 0, F(1, 5), 0, F(1, 7),
                                                 0, F(1, 9)]),))
    ps = ProductSystem.build(xs, UniMeasureSystem(families=(Laguerre(1),)))
    r = product_poly(ps, (2,), (1,))
    assert r.terms() == [(2, 1, 1), (2, 0, -2), (0, 1, F(-1, 3)), (0, 0, F(2, 3))]
    assert verify_product(ps, (2,), (1,), find_v((2,), (1,)))


@pytest.mark.parametrize("ysystem, message", [
    pytest.param(lambda: make_ysystem("float64"),
                 "mode: x system 'exact' != y system 'float64'; "
                 "a product system needs one mode", id="mode"),
])
def test_build_needs_one_mode_and_one_tol(ysystem, message):
    """The bivariate system has one scalar mode, so the two univariate
    systems must share theirs; no system has a tol of its own."""
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        ProductSystem.build(make_xsystem(), ysystem())


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)),
       st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)))
def test_product_poly_multidegree(n, m):
    from conftest import make_product_system
    ps = make_product_system()
    r = product_poly(ps, n, m)
    assert r.mdeg == (sum(n), sum(m))


def test_verify_product_both_choices(psys):
    assert verify_product(psys, (0, 1), (1, 0), (1, 0, 2, 1))
    assert verify_product(psys, (0, 1), (1, 0), (2, 0, 1, 1))


def test_verify_product_float_both_choices():
    from conftest import make_product_system
    ps = make_product_system("float64")
    assert verify_product(ps, (0, 1), (1, 0), (1, 0, 2, 1)) is True
    assert verify_product(ps, (0, 1), (1, 0), (2, 0, 1, 1)) is True


def test_verify_product_rejects_bad_v(psys):
    with pytest.raises(BadV):
        verify_product(psys, (0, 1), (1, 0), (3, 0, 1, 0))
    with pytest.raises(BadV):
        verify_product(psys, (0, 1), (1, 0), (2, 0, 1, 0))


def test_verify_product_not_normal(psys):
    with pytest.raises(NotNormal):
        verify_product(psys, (1, 1), (1, 1), (3, 3, 3, 3))


def test_verify_product_larger_example(psys):
    assert verify_product(psys, (1, 1), (1, 1), (4, 3, 3, 2))


def test_v_independence_exhaustive(psys):
    polys = set()
    for v in candidate_vs((0, 1), (1, 0)):
        try:
            polys.add(type2(psys.bivariate, v).coeffs)
        except NotNormal:
            continue
    assert len(polys) == 1


def test_orthogonality_transfer(psys):
    # <R, x^t y^s>_{(i,j)} = 0 when t < n_i or s < m_j
    n, m = (1, 2), (2, 1)
    r = product_poly(psys, n, m)
    biv = psys.bivariate
    for i in range(2):
        for j in range(2):
            meas = 2 * i + j + 1
            for t in range(sum(n) + 1):
                for s in range(sum(m) + 1):
                    if t >= n[i] and s >= m[j]:
                        continue
                    total = 0
                    for z, c in enumerate(r.coeffs):
                        u, v = unpair(z)
                        total += c * biv.moment(meas, u + t, v + s)
                    assert total == 0


def test_det_factor_check_first_example(psys):
    fc = det_factor_check(psys, (0, 3, 1, 1),
                          x_factors=[(2, 1), (1, 1)],
                          y_factors=[(0, 1), (1, 1), (0, 2)])
    assert not fc.indeterminate
    assert fc.ratio != 0


def test_det_factor_check_second_example(psys):
    fc = det_factor_check(psys, (2, 0, 1, 1),
                          x_factors=[(0, 1), (2, 1)],
                          y_factors=[(1, 0), (1, 0), (1, 1)],
                          x_moments=[(2, 0)], y_moments=[(1, 0), (1, 0)])
    assert not fc.indeterminate
    assert fc.ratio != 0


def test_det_factor_check_reads_the_rounded_exact_dets():
    """FloatLU stops on M_v, v = (2, 4, 9, 1), and on the x factor's
    M_(6,1), both exactly regular, but its threshold decides no det: the
    check reads the exact dets of M_v and of the x factor, each rounded
    once, and their ratio is the exact ratio rounded once, finite and
    nonzero."""
    from bimop import linalg, moment_matrix
    from conftest import make_product_system
    ps = make_product_system("float64")
    v = (2, 4, 9, 1)
    for sys_, n in ((ps.bivariate, v), (ps.xsystem, (6, 1))):
        assert linalg.FloatLU(linalg.rational_parts(moment_matrix(sys_, n).data)).stopped
    fc = det_factor_check(ps, v, x_factors=[(6, 1)])
    num = normality(ps.bivariate.exact_system, v).det
    den = normality(ps.xsystem.exact_system, (6, 1)).det
    assert fc.numerator.hex() == float(num).hex() and num != 0
    assert fc.denominator.hex() == float(den).hex() and den != 0
    assert fc.ratio == float(num / den) != 0.0 and not fc.indeterminate


def test_det_factor_check_indeterminate():
    from bimop import MomentTable, ProductSystem, UniMeasureSystem
    zsys = UniMeasureSystem(families=(MomentTable([F(0)]),))
    ps0 = ProductSystem.build(zsys, zsys)
    fc = det_factor_check(ps0, (1,), x_moments=[(1, 0)])
    assert fc.indeterminate
    assert fc.ratio is None


def test_det_factor_check_division_by_zero():
    from bimop import MomentTable, ProductSystem, UniMeasureSystem
    xs = UniMeasureSystem(families=(MomentTable([F(1), F(0)]),))
    ys = UniMeasureSystem(families=(MomentTable([F(1), F(1)]),))
    ps0 = ProductSystem.build(xs, ys)
    with pytest.raises(DivisionByZeroFactor):
        det_factor_check(ps0, (1,), x_moments=[(1, 1)])


def jacobi_product(mode):
    """Jacobi(1/2), Jacobi(6/5) x Jacobi(1/3), Jacobi(7/4): the det of the x
    system's M_(8,8) is about 1.6e-151."""
    return ProductSystem.build(
        UniMeasureSystem(families=(Jacobi(F(1, 2)), Jacobi(F(6, 5))), mode=mode),
        UniMeasureSystem(families=(Jacobi(F(1, 3)), Jacobi(F(7, 4))), mode=mode))


def test_float_det_factor_check_does_not_multiply_rounded_dets():
    """Three x factors (8, 8): their float product, about 4.5e-453, would
    underflow to 0.0 and report a vanishing factor.  The check multiplies
    exact dets; the exact ratio, about 1.9e450, is past the float64 range,
    which is invalid input.  With two factors the ratio is the exact one
    rounded once, not the quotient of two rounded values."""
    exact, fl = jacobi_product("exact"), jacobi_product("float64")
    v = (0, 0, 1, 2)
    with pytest.raises(ValidationError, match="float64 range"):
        det_factor_check(fl, v, x_factors=[(8, 8)] * 3)
    assert 10 ** 450 < abs(det_factor_check(exact, v, x_factors=[(8, 8)] * 3).ratio) < 10 ** 451
    want = det_factor_check(exact, v, x_factors=[(8, 8)] * 2).ratio
    got = det_factor_check(fl, v, x_factors=[(8, 8)] * 2).ratio
    assert got.hex() == float(want).hex() == (-3.0576354712351907e+299).hex()


def test_a_float_factor_check_never_rounds_a_factor_to_zero():
    """At v = (0, 6, 6, 2) with the x factor (8, 8) and the y factor (9, 9)
    the exact denominator, about 7.3e-343, is nonzero and rounds to 0.0,
    while the ratio, about 2.5e298, is finite.  A float report of
    denominator 0.0 beside indeterminate False would contradict itself:
    it is invalid input, as a value past the float64 range is."""
    v, factors = (0, 6, 6, 2), {"x_factors": [(8, 8)], "y_factors": [(9, 9)]}
    exact = det_factor_check(jacobi_product("exact"), v, **factors)
    assert not exact.indeterminate and float(exact.denominator) == 0.0
    assert 10 ** 298 < abs(exact.ratio) < 10 ** 299
    with pytest.raises(ValidationError, match="^a reported value is nonzero but below "
                                              "the float64 range; use exact mode$"):
        det_factor_check(jacobi_product("float64"), v, **factors)


@pytest.mark.parametrize("make", [make_product_system, jacobi_product],
                         ids=["laguerre", "jacobi"])
def test_float_det_factor_check_is_the_exact_report_rounded_once(make):
    """At find_v's v for every pair of 2-indices with entries <= 2, with
    the factors n and m, n twice and two moments, or none: the float
    report is the exact one with each value rounded once (floats
    throughout, denominator 1.0 with no factor), or the same error."""
    exact, fl = make("exact"), make("float64")

    def report(ps, *args, **kwargs):
        try:
            fc = det_factor_check(ps, *args, **kwargs)
        except DivisionByZeroFactor as exc:
            return str(exc)
        return [fc.indeterminate] + [None if x is None else float(x)
                                     for x in (fc.ratio, fc.numerator, fc.denominator)]

    grid = [(a, b) for a in range(3) for b in range(3)]
    for n in grid:
        for m in grid:
            v = find_v(n, m)
            for kwargs in ({"x_factors": [n], "y_factors": [m]},
                           {"x_factors": [n, n], "y_factors": [m],
                            "x_moments": [(1, 1)], "y_moments": [(2, 3)]},
                           {}):
                want = report(exact, v, **kwargs)
                assert report(fl, v, **kwargs) == want, (n, m, kwargs)
                fc = det_factor_check(fl, v, **kwargs)
                values = (fc.numerator, fc.denominator) + ((fc.ratio,) if fc.ratio is not None
                                                           else ())
                assert all(type(x) is float for x in values)
                if not kwargs:
                    assert fc.denominator == 1.0

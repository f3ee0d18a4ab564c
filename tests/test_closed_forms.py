"""Type II polynomials of the classical families against their closed forms.

With distinct exponents whose differences are not integers, the Laguerre
and Jacobi families give the classical multiple orthogonal polynomials
(Aptekarev, Branquinho & Van Assche, Trans. AMS 355 (2003)): multiple
Laguerre of the first kind, weights x^alpha_j e^-x, and Jacobi-Pineiro
with beta = 0, weights x^a_j on [0, 1].  Their Rodrigues formulas give
each coefficient as a short sum, because x^-a D^k x^(k+a) maps x^m to
(m + a + 1)_k x^m.  The oracles below use only ``fractions`` and ``math``;
they never call bimop, so they check the elimination at sizes the
Fraction Gauss-Jordan oracles cannot reach.
"""

import math
from fractions import Fraction as F
from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bimop import (Jacobi, Laguerre, ProductSystem, UniMeasureSystem, candidate_vs, normality,
                   type2, uni_type2)


def _rising(x, k):
    """The Pochhammer symbol (x)_k = x (x + 1) ... (x + k - 1)."""
    return math.prod((x + i for i in range(k)), start=F(1))


def _monic(coeffs):
    return [c / coeffs[-1] for c in coeffs]


def laguerre_oracle(alphas, n):
    """Monic multiple Laguerre I polynomial of index n, ascending powers:
    the coefficient of x^k is proportional to
    sum_{m <= k} (-1)^m / (m! (k - m)!) prod_j (m + alpha_j + 1)_{n_j}."""
    return _monic([sum(F((-1) ** m, math.factorial(m) * math.factorial(k - m))
                       * math.prod(_rising(m + a + 1, nj) for a, nj in zip(alphas, n))
                       for m in range(k + 1))
                   for k in range(sum(n) + 1)])


def jacobi_oracle(exponents, n):
    """Monic Jacobi-Pineiro polynomial (beta = 0) of index n, ascending
    powers: the coefficient of x^m is proportional to
    (-1)^m C(|n|, m) prod_j (m + a_j + 1)_{n_j}."""
    return _monic([(-1) ** m * math.comb(sum(n), m)
                   * math.prod(_rising(m + a + 1, nj) for a, nj in zip(exponents, n))
                   for m in range(sum(n) + 1)])


FAMILIES = {"laguerre": (Laguerre, laguerre_oracle), "jacobi": (Jacobi, jacobi_oracle)}
LAGUERRE = (F(1), F(23, 10))
JACOBI = (F(1, 2), F(7, 3))


def _system(family, exponents):
    return UniMeasureSystem(families=tuple(FAMILIES[family][0](a) for a in exponents))


def test_the_oracles_are_the_known_low_degree_polynomials():
    """Degree 1: x - (alpha + 1) for x^alpha e^-x, x - (a + 1)/(a + 2) for
    x^a on [0, 1]: the moment ratios m_1 / m_0."""
    assert laguerre_oracle([F(3)], [1]) == [F(-4), F(1)]
    assert jacobi_oracle([F(1, 2)], [1]) == [F(-3, 5), F(1)]
    # the square of the Legendre-type case a = 0 on [0, 1]: x^2 - x + 1/6
    assert jacobi_oracle([F(0)], [2]) == [F(1, 6), F(-1), F(1)]


def test_uni_type2_matches_the_closed_forms_on_a_grid():
    for family, exponents in (("laguerre", LAGUERRE), ("jacobi", JACOBI)):
        sys_ = _system(family, exponents)
        oracle = FAMILIES[family][1]
        for n in product(range(7), repeat=2):
            assert list(uni_type2(sys_, n).coeffs) == oracle(exponents, n), (family, n)


def test_uni_type2_matches_the_closed_forms_at_20_20():
    """At (20, 20) and at (40, 40), the size ROADMAP aim 1 asks for."""
    for family, exponents in (("laguerre", LAGUERRE), ("jacobi", JACOBI)):
        for n in ((20, 20), (40, 40)):
            got = uni_type2(_system(family, exponents), n)
            assert list(got.coeffs) == FAMILIES[family][1](exponents, n), (family, n)


exponent = st.fractions(min_value=0, max_value=5, max_denominator=12)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), exponent, exponent,
       st.tuples(st.integers(0, 5), st.integers(0, 5)))
def test_uni_type2_matches_the_closed_forms_on_perfect_systems(family, a, b, n):
    """Exponents whose difference is not an integer give a perfect system:
    every index is normal."""
    assume((a - b).denominator != 1)
    got = uni_type2(_system(family, (a, b)), n)
    assert list(got.coeffs) == FAMILIES[family][1]((a, b), n)


def test_bivariate_type2_is_the_product_of_closed_forms():
    """Laguerre(1, 23/10) x Jacobi(1/2, 7/3): at every normal v of
    candidate_vs(n, m), the Type II polynomial of v is P_n(x) P_m(y) (the
    product construction), its coefficient of x^t y^s at Cantor position
    (t + s)(t + s + 1)/2 + s."""
    ys = UniMeasureSystem(families=tuple(Jacobi(a) for a in JACOBI))
    xs = UniMeasureSystem(families=tuple(Laguerre(a) for a in LAGUERRE))
    biv = ProductSystem.build(xs, ys).bivariate
    checked = 0
    for n, m in (((1, 1), (1, 0)), ((2, 1), (1, 1)), ((2, 2), (2, 1))):
        px, py = laguerre_oracle(LAGUERRE, n), jacobi_oracle(JACOBI, m)
        want = {(t + s) * (t + s + 1) // 2 + s: cx * cy
                for (t, cx), (s, cy) in product(enumerate(px), enumerate(py))}
        want = [want.get(z, 0) for z in range(max(want) + 1)]
        for v in candidate_vs(n, m):
            if normality(biv, v).normal:
                assert list(type2(biv, v).coeffs) == want, (n, m, v)
                checked += 1
    assert checked == 36

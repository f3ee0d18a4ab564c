"""Products of univariate Type II polynomials as bivariate Type II objects.

A pair of univariate systems (r1 measures in x, r2 in y) induces a bivariate
tensor system of r1*r2 measures, ordered (i, j) row-major.  The product of
the two univariate Type II polynomials is the bivariate Type II polynomial
of any admissible multi-index v <= v~ with |v| = pair(|n|, |m|).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import multiindex as mi
from .errors import BadV, DivisionByZeroFactor, SchemaError, SurplusNegative
from .linalg import Scalar
from .measures import MeasureSystem, TensorMeasure, UniMeasureSystem
from .mopcore import BiPoly, normality, on_exact_system, type2, uni_type2
from .record import Record


class ProductSystem(Record):
    """Two univariate systems plus their induced bivariate tensor system."""

    xsystem: UniMeasureSystem
    ysystem: UniMeasureSystem
    bivariate: MeasureSystem

    @classmethod
    def build(cls, xsystem: UniMeasureSystem, ysystem: UniMeasureSystem) -> "ProductSystem":
        """The product of two systems of one scalar mode."""
        if xsystem.mode != ysystem.mode:
            raise SchemaError("mode", f"x system {xsystem.mode!r} != y system "
                                      f"{ysystem.mode!r}; a product system needs one mode")
        measures = tuple(TensorMeasure(fx, fy)
                         for fx in xsystem.families for fy in ysystem.families)
        biv = MeasureSystem(measures=measures, mode=xsystem.mode)
        return cls(xsystem=xsystem, ysystem=ysystem, bivariate=biv)

    @property
    def exact(self) -> bool:
        return self.bivariate.exact

    @property
    def exact_system(self) -> "ProductSystem":
        """The product of the systems' ``exact_system``; verifiers judge on it."""
        return ProductSystem(self.xsystem.exact_system, self.ysystem.exact_system,
                             self.bivariate.exact_system)


def tilde_v(n: Sequence[int], m: Sequence[int]) -> Tuple[int, ...]:
    """Componentwise pairing bound: entry (i, j) is pair(n_i, m_j), row-major."""
    return tuple(mi.pair(ni, mj) for ni in n for mj in m)


def find_v(n: Sequence[int], m: Sequence[int]) -> Tuple[int, ...]:
    """Deterministic v <= tilde_v with |v| = pair(|n|, |m|).

    The surplus is removed one unit at a time from the currently largest
    component, ties broken towards the later component.  Existence is
    guaranteed for 2x2 systems; other shapes are attempted best-effort.
    """
    tv = list(tilde_v(n, m))
    target = mi.pair(sum(n), sum(m))
    surplus = sum(tv) - target
    if surplus < 0:
        raise SurplusNegative(f"|tilde_v| = {sum(tv)} < pair(|n|, |m|) = {target}")
    while surplus > 0:
        big = max(tv)
        pick = max(i for i, v in enumerate(tv) if v == big)
        tv[pick] -= 1
        surplus -= 1
    return tuple(tv)


def candidate_vs(n: Sequence[int], m: Sequence[int]) -> List[Tuple[int, ...]]:
    """All v <= tilde_v with |v| = pair(|n|, |m|), ascending lexicographic."""
    tv = tilde_v(n, m)
    target = mi.pair(sum(n), sum(m))
    out: List[Tuple[int, ...]] = []

    def rec(prefix: List[int], remaining: int, pos: int):
        if pos == len(tv):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        if remaining > sum(tv[pos:]):
            return
        for v in range(min(tv[pos], remaining) + 1):
            rec(prefix + [v], remaining - v, pos + 1)

    rec([], target, 0)
    return out


def product_poly(ps: ProductSystem, n: Sequence[int], m: Sequence[int]) -> BiPoly:
    """R(x, y) = P_n(x) P_m(y), re-indexed by Cantor position."""
    px = uni_type2(ps.xsystem, n)
    py = uni_type2(ps.ysystem, m)
    top = mi.pair(sum(n), sum(m))
    coeffs: List[Scalar] = [0] * (top + 1)
    for t, cx in enumerate(px.coeffs):
        if cx == 0:
            continue
        for s, cy in enumerate(py.coeffs):
            if cy != 0:
                coeffs[mi.pair(t, s)] = cx * cy
    return BiPoly.from_coeffs(coeffs)


@on_exact_system
def verify_product(ps: ProductSystem, n: Sequence[int], m: Sequence[int],
                   v: Sequence[int]) -> bool:
    """True iff the bivariate Type II polynomial of v equals P_n(x) P_m(y),
    judged on the exact product system (``ProductSystem.exact_system``) in
    both scalar modes."""
    v = tuple(v)
    tv = tilde_v(n, m)
    if len(v) != len(tv) or not mi.leq(v, tv):
        raise BadV(f"v = {v} is not componentwise <= tilde_v = {tv}")
    if sum(v) != mi.pair(sum(n), sum(m)):
        raise BadV(f"|v| = {sum(v)} != pair(|n|, |m|) = {mi.pair(sum(n), sum(m))}")
    return type2(ps.bivariate, v) == product_poly(ps, n, m)


class FactorCheck(Record):
    """Ratio det(M_v) / (product of univariate determinants and moments)."""

    ratio: Optional[Scalar]
    numerator: Scalar
    denominator: Scalar
    indeterminate: bool


@on_exact_system
def det_factor_check(ps: ProductSystem, v: Sequence[int],
                     x_factors: Sequence[Sequence[int]] = (),
                     y_factors: Sequence[Sequence[int]] = (),
                     x_moments: Sequence[Tuple[int, int]] = (),
                     y_moments: Sequence[Tuple[int, int]] = ()) -> FactorCheck:
    """Proportionality check of det(M_v) against univariate determinants.

    Factors are univariate multi-indices per axis; moments are (measure,
    order) pairs multiplied into the denominator.  A finite nonzero ratio
    confirms proportionality; the constant itself is reported, not asserted.
    The check is judged on the exact product system
    (``ProductSystem.exact_system``) in both scalar modes, so a float
    system's verdict is the exact one; its report is the exact one with each
    value rounded once to float (a value past the float64 range, or a
    nonzero one that rounds to 0.0, is invalid input).
    """
    num = normality(ps.bivariate, v).det
    den = Fraction(1)
    for f in x_factors:
        den *= normality(ps.xsystem, f).det
    for f in y_factors:
        den *= normality(ps.ysystem, f).det
    for j, k in x_moments:
        den *= ps.xsystem.moment(j, k)
    for j, k in y_moments:
        den *= ps.ysystem.moment(j, k)
    if den == 0:
        if num == 0:
            return FactorCheck(ratio=None, numerator=num, denominator=den,
                               indeterminate=True)
        raise DivisionByZeroFactor("a univariate factor vanishes while det(M_v) does not")
    return FactorCheck(ratio=num / den, numerator=num, denominator=den,
                       indeterminate=False)

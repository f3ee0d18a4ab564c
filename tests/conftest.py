"""Shared fixtures: the Laguerre measure systems used across the suite."""

from fractions import Fraction as F

import pytest

from bimop import (
    BiPoly,
    Jacobi,
    Laguerre,
    MeasureSystem,
    ProductSystem,
    TensorMeasure,
    UniMeasureSystem,
    mopcore,
    pair,
    unpair,
)

# Exponents of the four Laguerre weights: x^1, x^{11/5} in x and
# y^{23/10}, y^{17/5} in y.
X_ALPHAS = (F(1), F(11, 5))
Y_ALPHAS = (F(23, 10), F(17, 5))

# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def poly(terms):
    """The BiPoly of {(t, s): c}: c at Cantor position pair(t, s), 0 at
    every other position up to the last nonzero c."""
    coeffs = {pair(t, s): c for (t, s), c in terms.items() if c}
    out = [0] * (max(coeffs, default=-1) + 1)
    for z, c in coeffs.items():
        out[z] = c
    return BiPoly(tuple(out))


def times(p, dt, ds):
    """p * x^dt y^ds by the exponent map (t, s) -> (t + dt, s + ds), each
    position read through unpair and written through pair: the tests' own
    rule, independent of ``mopcore.shifted``."""
    terms = {}
    for z, c in enumerate(p.coeffs):
        t, s = unpair(z)
        terms[t + dt, s + ds] = c
    return poly(terms)


def make_xsystem(mode="exact"):
    return UniMeasureSystem(families=tuple(Laguerre(a) for a in X_ALPHAS), mode=mode)


def make_ysystem(mode="exact"):
    return UniMeasureSystem(families=tuple(Laguerre(a) for a in Y_ALPHAS), mode=mode)


def make_product_system(mode="exact"):
    return ProductSystem.build(make_xsystem(mode), make_ysystem(mode))


def make_uni_pair_system(mode="exact"):
    """Two univariate measures: x e^{-x} on [0, inf) and Jacobi(1/2)."""
    return UniMeasureSystem(families=(Laguerre(F(1)), Jacobi(F(1, 2))), mode=mode)


def uni_inner(sys_, j, p, q):
    """<p, q>_j for the power-basis coefficients p and q of a univariate
    system (coefficient k multiplies x^k), summed pair by pair from family
    j's own ``moment``."""
    family = sys_.families[j - 1]
    return sum(F(a) * F(b) * family.moment(k + l)
               for k, a in enumerate(p) for l, b in enumerate(q) if a and b)


def make_pair_system(mode="exact"):
    """Two tensor measures: (x e^{-x}) x (y^{23/10} e^{-y}) and its sibling."""
    return MeasureSystem(measures=(
        TensorMeasure(Laguerre(X_ALPHAS[0]), Laguerre(Y_ALPHAS[0])),
        TensorMeasure(Laguerre(X_ALPHAS[1]), Laguerre(Y_ALPHAS[1]))), mode=mode)


@pytest.fixture(scope="session")
def psys():
    return make_product_system()


@pytest.fixture(scope="session")
def quad():
    """The four-measure tensor system (mu_i x phi_j, row-major)."""
    return make_product_system().bivariate


@pytest.fixture(scope="session")
def duo():
    return make_pair_system()


@pytest.fixture()
def duo_float():
    return make_pair_system(mode="float64")


@pytest.fixture()
def builds(monkeypatch):
    """The (mode, index) of each M_n that mopcore builds during the test:
    each ``_moment_rows`` read of M_n's rows, its rider row (row |n|)
    apart."""
    built = []
    read = mopcore._moment_rows

    def spy(system, index, ks):
        if sum(index) not in ks:
            built.append((system.mode, tuple(index)))
        return read(system, index, ks)

    monkeypatch.setattr(mopcore, "_moment_rows", spy)
    return built

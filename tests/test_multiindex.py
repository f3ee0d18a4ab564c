"""Pairing calculus, index parameters, and neighbour paths."""

import pytest
from hypothesis import given, strategies as st

from bimop import (
    BiPoly,
    IndexOutOfRange,
    NotComparable,
    Path,
    PathInvalid,
    candidate_vs,
    canonical_path,
    find_v,
    pair,
    params,
    tilde_v,
    unpair,
    validate_chain,
)
from bimop.multiindex import is_neighbour_step, leq, modulus, shift_x, shift_y


def test_pair_first_positions():
    # the monomial order 1, x, y, x^2, xy, y^2, x^3, ...
    order = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0)]
    for z, (t, s) in enumerate(order):
        assert pair(t, s) == z
        assert unpair(z) == (t, s)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: pair(3, -1), id="pair"),
    pytest.param(lambda: BiPoly.monomial(2, -1), id="monomial"),
    pytest.param(lambda: tilde_v((1, -1), (0, 1)), id="tilde_v"),
    pytest.param(lambda: find_v((1, -1), (0, 1)), id="find_v"),
    pytest.param(lambda: candidate_vs((1, -1), (0, 1)), id="candidate_vs"),
])
def test_a_negative_exponent_has_no_position(call):
    """A negative exponent names no monomial: IndexOutOfRange, not the
    position of another one (pair(3, -1) would be 2, the position of y)."""
    with pytest.raises(IndexOutOfRange, match="negative component"):
        call()


@given(st.integers(min_value=0, max_value=10**6))
def test_unpair_roundtrip(z):
    t, s = unpair(z)
    assert pair(t, s) == z


@given(st.integers(min_value=0, max_value=10**4), st.integers(min_value=0, max_value=10**4))
def test_pair_roundtrip(t, s):
    assert unpair(pair(t, s)) == (t, s)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6))
def test_params_decomposition(n):
    p = params(tuple(n))
    d, k = p.degree, p.remainder
    assert 0 <= k <= d
    assert p.modulus == d * (d + 1) // 2 + k
    assert p.multidegree == (d - k, k)


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_shift_laws(t, s):
    # multiplying a monomial by x or y moves its position by deg+1 or deg+2
    z = pair(t, s)
    assert shift_x(t, s) == pair(t + 1, s) == z + (t + s) + 1
    assert shift_y(t, s) == pair(t, s + 1) == z + (t + s) + 2


def test_leq_componentwise():
    assert leq((1, 2), (1, 3))
    assert not leq((2, 2), (1, 3))
    assert leq((0, 0, 0), (0, 0, 0))


def test_neighbour_step():
    assert is_neighbour_step((1, 2), (1, 3))
    assert not is_neighbour_step((1, 2), (2, 3))
    assert not is_neighbour_step((1, 3), (1, 2))
    assert not is_neighbour_step((1,), (1, 1))


def test_path_validity_and_lookup():
    p = Path(((0, 0), (1, 0), (1, 1), (2, 1)))
    assert p.is_valid()
    assert p.start_modulus == 0
    assert p.end_modulus == 3
    assert p.at_modulus(2) == (1, 1)
    with pytest.raises(PathInvalid):
        p.at_modulus(4)


def test_path_with_gap_is_invalid():
    assert not Path(((0, 0), (2, 0))).is_valid()
    assert not Path(((1, 1), (1, 0))).is_valid()
    assert not Path(()).is_valid()
    assert not Path(((0, 0), (0, 0, 1))).is_valid()


def test_canonical_path_raises_first_component_first():
    p = canonical_path([(0, 0), (2, 1)])
    assert p.steps == ((0, 0), (1, 0), (2, 0), (2, 1))


def test_canonical_path_through_waypoints():
    p = canonical_path([(1, 3), (6, 8), (9, 10)])
    assert p.is_valid()
    assert p.at_modulus(4) == (1, 3)
    assert p.at_modulus(14) == (6, 8)
    assert p.at_modulus(19) == (9, 10)


def test_canonical_path_incomparable_waypoints():
    with pytest.raises(NotComparable):
        canonical_path([(2, 0), (1, 3)])
    with pytest.raises(NotComparable, match="at least one waypoint"):
        canonical_path([])


def test_validate_chain():
    # degree-2 chain: moduli 3, 4, 5 and componentwise ascending
    assert validate_chain([(1, 2), (1, 3), (2, 3)], 2)
    assert not validate_chain([(1, 2), (2, 3)], 2)
    assert not validate_chain([(1, 2), (3, 1), (3, 2)], 2)
    # a chain has at least one index
    assert not validate_chain([], -1)
    assert validate_chain([(0, 0)], 0)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_modulus_is_sum(a, b):
    assert modulus((a, b)) == a + b

"""Cantor-pairing index calculus, multi-index parameters and neighbour paths.

Multi-indices are plain tuples of naturals.  The pairing function orders the
bivariate monomial basis {1, x, y, x^2, xy, y^2, ...}: position z holds the
monomial x^t y^s with pair(t, s) = z.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from .errors import IndexOutOfRange, NotComparable, PathInvalid
from .record import Record

MultiIndex = Tuple[int, ...]


def pair(t: int, s: int) -> int:
    """Position of the monomial x^t y^s in the graded reverse lex basis;
    IndexOutOfRange for a negative exponent, which names no monomial."""
    if t < 0 or s < 0:
        raise IndexOutOfRange(f"exponent ({t}, {s}) has a negative component")
    return (t + s) * (t + s + 1) // 2 + s


def unpair(z: int) -> Tuple[int, int]:
    """Inverse of pair, via exact integer square root (never floating point);
    IndexOutOfRange for a negative position, which names no monomial."""
    try:
        w = (math.isqrt(8 * z + 1) - 1) // 2
    except ValueError:
        raise IndexOutOfRange(f"position {z} is negative") from None
    s = z - w * (w + 1) // 2
    return w - s, s


def modulus(n: Sequence[int]) -> int:
    return sum(n)


class IndexParams(Record):
    """Modulus, multidegree, degree and remainder of a multi-index."""

    modulus: int
    multidegree: Tuple[int, int]
    degree: int
    remainder: int


def natural_index(n: Sequence[int]) -> MultiIndex:
    """n as a tuple, after checking it has no negative component."""
    key = tuple(n)
    if key and min(key) < 0:
        raise IndexOutOfRange(f"index {key} has a negative component")
    return key


def params(n: Sequence[int]) -> IndexParams:
    """Degree/remainder decomposition |n| = d(d+1)/2 + k, with multidegree (d-k, k)."""
    mod = sum(natural_index(n))
    l, m = unpair(mod)
    return IndexParams(modulus=mod, multidegree=(l, m), degree=l + m, remainder=m)


def shift_x(l: int, m: int) -> int:
    """Basis position of x * (x^l y^m); equals pair(l, m) + l + m + 1."""
    return pair(l, m) + l + m + 1


def shift_y(l: int, m: int) -> int:
    """Basis position of y * (x^l y^m); equals pair(l, m) + l + m + 2."""
    return pair(l, m) + l + m + 2


def leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise comparison; False also when lengths differ."""
    return len(a) == len(b) and all(x <= y for x, y in zip(a, b))


def is_neighbour_step(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff b = a + e_j for exactly one component j."""
    if len(a) != len(b):
        return False
    diffs = [y - x for x, y in zip(a, b)]
    return sum(diffs) == 1 and all(d in (0, 1) for d in diffs)


class Path(Record):
    """A sequence of neighbour multi-indices with modulus increasing by one."""

    steps: Tuple[MultiIndex, ...]

    def is_valid(self) -> bool:
        if not self.steps:
            return False
        return all(
            is_neighbour_step(a, b) for a, b in zip(self.steps, self.steps[1:])
        )

    def at_modulus(self, k: int) -> MultiIndex:
        """Path entry of modulus k; raises PathInvalid when out of range."""
        base = modulus(self.steps[0])
        if not base <= k < base + len(self.steps):
            raise PathInvalid(f"no path entry of modulus {k}")
        return self.steps[k - base]

    @property
    def start_modulus(self) -> int:
        return modulus(self.steps[0])

    @property
    def end_modulus(self) -> int:
        return modulus(self.steps[-1])


def canonical_path(waypoints: Sequence[Sequence[int]]) -> Path:
    """Neighbour path visiting all waypoints.

    Between consecutive waypoints, components are raised in ascending
    component order (component 1 to its target first, then component 2, ...).
    Any valid path is accepted by the verifiers; this one is only a
    deterministic default.
    """
    if not waypoints:
        raise NotComparable("at least one waypoint required")
    steps = [tuple(waypoints[0])]
    for target in waypoints[1:]:
        current = list(steps[-1])
        if not leq(current, target):
            raise NotComparable(f"waypoint {tuple(target)} is not >= {tuple(current)}")
        for j in range(len(current)):
            while current[j] < target[j]:
                current[j] += 1
                steps.append(tuple(current))
    return Path(steps=tuple(steps))


def validate_chain(indices: Sequence[Sequence[int]], d: int) -> bool:
    """True iff the indices form a valid degree-d chain.

    Requires d+1 >= 1 indices with |n_k| = d(d+1)/2 + k and consecutive
    neighbour steps.
    """
    if not indices or len(indices) != d + 1:
        return False
    base = d * (d + 1) // 2
    if any(modulus(n) != base + k for k, n in enumerate(indices)):
        return False
    return all(is_neighbour_step(a, b) for a, b in zip(indices, indices[1:]))

"""Moment providers: built-in univariate families, tensor products, raw tables.

Built-in families store moments relative to m_0 (the Gamma(alpha+1) factor of
the Laguerre family is divided out), which keeps every moment rational for
rational exponents.  Type II polynomials are invariant under per-measure
scaling and Type I polynomials scale by the inverse factor, so nothing of
substance depends on this normalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

from .errors import (
    IndexOutOfRange,
    NegativeAlpha,
    SchemaError,
    TableExhausted,
    ValidationError,
)
from .linalg import (FLOAT_RESIDUAL_TOL, FLOAT_TOL, Scalar, format_scalar, int_from_decimal,
                     parse_scalar)

EXACT = "exact"
FLOAT64 = "float64"


class Laguerre:
    """Laguerre-type weight x^alpha e^{-x} on [0, inf), alpha >= 0 rational.

    Relative moments m_k = prod_{i=1..k} (alpha + i), so m_0 = 1.
    """

    def __init__(self, alpha):
        alpha = Fraction(alpha)
        if alpha < 0:
            raise NegativeAlpha(f"laguerre alpha must be >= 0, got {format_scalar(alpha)}")
        self.alpha = alpha

    def moment(self, k: int) -> Fraction:
        m = Fraction(1)
        for i in range(1, k + 1):
            m *= self.alpha + i
        return m


class Jacobi:
    """Jacobi-type weight x^a on [0, 1], a > -1 rational.

    Moments normalized to m_0 = 1: m_k = (a + 1) / (a + k + 1).
    """

    def __init__(self, a):
        a = Fraction(a)
        if a <= -1:
            raise NegativeAlpha(f"jacobi exponent must be > -1, got {format_scalar(a)}")
        self.a = a

    def moment(self, k: int) -> Fraction:
        return (self.a + 1) / (self.a + k + 1)


class MomentTable:
    """Explicit univariate moment sequence."""

    def __init__(self, moments: Sequence):
        self.moments = [Fraction(m) for m in moments]

    def moment(self, k: int) -> Fraction:
        if k >= len(self.moments):
            raise TableExhausted(f"moment table of length {len(self.moments)} has no order {k}")
        return self.moments[k]


if TYPE_CHECKING:
    # Annotations only.  A runtime Union of bimop classes stays in typing's
    # cache and keeps each re-imported copy of this module alive.
    UnivariateFamily = Union[Laguerre, Jacobi, MomentTable]


class TensorMeasure:
    """Bivariate measure with factoring moments m_{(t,s)} = m^x_t * m^y_s."""

    def __init__(self, x: UnivariateFamily, y: UnivariateFamily):
        self.x = x
        self.y = y

    def moment(self, t: int, s: int) -> Fraction:
        return self.x.moment(t) * self.y.moment(s)


class TableMeasure:
    """Bivariate measure given by a raw (t, s) -> moment map."""

    def __init__(self, moments: Dict[Tuple[int, int], Fraction]):
        self.moments = {k: Fraction(v) for k, v in moments.items()}

    def moment(self, t: int, s: int) -> Fraction:
        try:
            return self.moments[(t, s)]
        except KeyError:
            raise TableExhausted(f"no moment for (t, s) = ({t}, {s})") from None


if TYPE_CHECKING:
    BivariateMeasure = Union[TensorMeasure, TableMeasure]


def _check_mode(mode) -> str:
    """The one check of a scalar mode, a document's "scalar" or a system's mode."""
    if mode not in (EXACT, FLOAT64):
        raise SchemaError("$.scalar", f"expected 'exact' or 'float64', got {mode!r}")
    return mode


class _ScalarMode:
    """Scalar mode shared by the measure systems: exact rationals or float64,
    and the float singularity tolerance, a number >= 0.  A system needs at
    least one measure; ``r`` counts them."""

    mode: str
    tol: float

    def __post_init__(self):
        if not self.r:
            raise SchemaError("$.measures", "at least one measure required")
        _check_mode(self.mode)
        if not self.tol >= 0:
            raise SchemaError("tol", f"expected a number >= 0, got {self.tol!r}")

    @property
    def exact(self) -> bool:
        return self.mode == EXACT

    def is_zero(self, value, scale=1) -> bool:
        """value == 0 in exact mode; in float mode
        |value| <= FLOAT_RESIDUAL_TOL * max(1, |scale|)."""
        if self.exact:
            return value == 0
        return abs(float(value)) <= FLOAT_RESIDUAL_TOL * max(1.0, abs(float(scale)))

    def magnitude(self, polys) -> Scalar:
        """The scale ``is_zero`` judges a sum of polys' coefficients by: in
        float mode max(1, their largest |coefficient|), in exact mode 1,
        which it ignores, so no coefficient is ever converted to float."""
        return 1 if self.exact else max([1.0] + [abs(c) for p in polys for c in p.coeffs])

    def zero(self) -> Scalar:
        return Fraction(0) if self.exact else 0.0

    def one(self) -> Scalar:
        return Fraction(1) if self.exact else 1.0

    @staticmethod
    def _float_moment(value: Fraction, j: int, order) -> float:
        """An exact moment as a float64.  One past the float range is invalid
        input that names its measure and order."""
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"measure {j}: the moment of order {order} exceeds "
                                  "the float64 range; use exact mode") from None


@dataclass(frozen=True)
class MeasureSystem(_ScalarMode):
    """A system of r bivariate measures sharing one scalar mode.

    The system is frozen.  Moments are cached; the mopcore module caches
    each index's determinant, Type II and Type I polynomials in
    ``_index_cache``.
    """

    measures: Tuple[BivariateMeasure, ...]
    mode: str = EXACT
    tol: float = FLOAT_TOL
    _moment_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _index_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def r(self) -> int:
        return len(self.measures)

    def moment(self, j: int, t: int, s: int) -> Scalar:
        """Moment m^{(j)}_{(t,s)}; j is 1-based."""
        # The cache is read first; the arguments are checked on a miss only,
        # and a bad one is never cached.
        try:
            return self._moment_cache[j, t, s]
        except KeyError:
            pass
        if not 1 <= j <= self.r:
            raise IndexOutOfRange(f"measure index {j} not in 1..{self.r}")
        value = self.measures[j - 1].moment(t, s)
        if not self.exact:
            value = self._float_moment(value, j, (t, s))
        self._moment_cache[j, t, s] = value
        return value


@dataclass(frozen=True)
class UniMeasureSystem(_ScalarMode):
    """A system of r univariate measures, used by the product construction."""

    families: Tuple[UnivariateFamily, ...]
    mode: str = EXACT
    tol: float = FLOAT_TOL
    _moment_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _index_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def r(self) -> int:
        return len(self.families)

    def moment(self, j: int, k: int, s: int = 0) -> Scalar:
        """Moment m^{(j)}_k; j is 1-based.  The power of y, s, must be 0."""
        # The cache is read first; the arguments are checked on a miss only,
        # and a bad one is never cached.
        try:
            return self._moment_cache[j, k, s]
        except KeyError:
            pass
        if not 1 <= j <= self.r:
            raise IndexOutOfRange(f"measure index {j} not in 1..{self.r}")
        if s:
            raise IndexOutOfRange(f"univariate measures have no moment of y^{s}")
        value = self.families[j - 1].moment(k)
        if not self.exact:
            value = self._float_moment(value, j, k)
        self._moment_cache[j, k, s] = value
        return value


def _parse_family(obj, path: str) -> UnivariateFamily:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    family = obj.get("family")
    if family == "laguerre":
        if "alpha" not in obj:
            raise SchemaError(path + ".alpha", "missing")
        return Laguerre(_parse_exponent(obj["alpha"], path + ".alpha"))
    if family == "jacobi":
        if "a" not in obj:
            raise SchemaError(path + ".a", "missing")
        return Jacobi(_parse_exponent(obj["a"], path + ".a"))
    if family == "table":
        moments = obj.get("moments")
        if not isinstance(moments, list) or not moments:
            raise SchemaError(path + ".moments", "expected a non-empty list")
        return MomentTable([_parse_exponent(m, f"{path}.moments[{i}]")
                            for i, m in enumerate(moments)])
    raise SchemaError(path + ".family", f"unknown family {family!r}")


def _parse_exponent(value, path: str) -> Fraction:
    # Decimal strings convert exactly ("3.4" -> 17/5); binary float parse
    # is deliberately rejected for exponents.
    if isinstance(value, float):
        raise SchemaError(path, "give exponents as strings or integers, not floats")
    try:
        return parse_scalar(value)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(path, f"not a rational literal: {value!r}") from None


def _parse_measure(obj, path: str) -> BivariateMeasure:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    kind = obj.get("kind")
    if kind == "tensor":
        if "x" not in obj or "y" not in obj:
            raise SchemaError(path, "tensor measure needs 'x' and 'y'")
        return TensorMeasure(_parse_family(obj["x"], path + ".x"),
                             _parse_family(obj["y"], path + ".y"))
    if kind == "table":
        entries = obj.get("moments")
        if not isinstance(entries, list) or not entries:
            raise SchemaError(path + ".moments", "expected a non-empty list")
        table = {}
        for i, e in enumerate(entries):
            epath = f"{path}.moments[{i}]"
            if not isinstance(e, dict) or not {"t", "s", "value"} <= set(e):
                raise SchemaError(epath, "expected {t, s, value}")
            if not all(type(e[k]) is int and e[k] >= 0 for k in "ts"):
                raise SchemaError(epath, "t and s must be naturals")
            table[(e["t"], e["s"])] = _parse_exponent(e["value"], epath + ".value")
        return TableMeasure(table)
    raise SchemaError(path + ".kind", f"unknown measure kind {kind!r}")


def read_json(text: str):
    """The JSON document of a config, its integers of any size."""
    try:
        return json.loads(text, parse_int=int_from_decimal)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None


def parse_config(text: str, mode: Optional[str] = None, tol: float = FLOAT_TOL) -> MeasureSystem:
    """Build a MeasureSystem from a JSON config document.

    mode, when given, replaces the document's "scalar" mode; tol is the
    float singularity tolerance.
    """
    doc = read_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected an object")
    scalar = _check_mode(doc.get("scalar", EXACT))
    measures = doc.get("measures")
    if not isinstance(measures, list) or not measures:
        raise SchemaError("$.measures", "expected a non-empty list")
    parsed = tuple(_parse_measure(m, f"$.measures[{i}]") for i, m in enumerate(measures))
    return MeasureSystem(measures=parsed, mode=mode or scalar, tol=tol)


def parse_uni_config(doc, path: str = "$", mode: str = EXACT,
                     tol: float = FLOAT_TOL) -> UniMeasureSystem:
    """Build a univariate system from a list of family objects."""
    if not isinstance(doc, list) or not doc:
        raise SchemaError(path, "expected a non-empty list of families")
    families = tuple(_parse_family(f, f"{path}[{i}]") for i, f in enumerate(doc))
    return UniMeasureSystem(families=families, mode=mode, tol=tol)

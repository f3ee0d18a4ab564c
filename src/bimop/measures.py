"""Moment providers: built-in univariate families, tensor products, raw tables.

Built-in families store moments relative to m_0 (the Gamma(alpha+1) factor of
the Laguerre family is divided out), which keeps every moment rational for
rational exponents.  Type II polynomials are invariant under per-measure
scaling and Type I polynomials scale by the inverse factor, so nothing of
substance depends on this normalization.

A family or measure needs only ``moment``, which returns a rational.  The
built-in ones also answer ``moment_parts``, the same moment as (numerator,
denominator) integers, so a tensor measure multiplies integers, not
necessarily in lowest terms; their ``moment`` is one function, ``_moment``.
A system caches each distinct moment it reads as those parts, in both
scalar modes, through one cached read for both kinds of system,
``_ScalarMode._moment_parts``; each system class states only its order
check and its source (``_source``).  ``mopcore`` builds M_n from the parts,
and ``moment`` makes one Fraction, or one correctly rounded int division in
float mode, of them on request.  ``_reader`` is the one place that adapts a
source with only ``moment``.  A built-in family's order is natural: a
negative one raises ``IndexOutOfRange``, as the systems do, and a tensor
measure passes it on.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple, Union

from .errors import (
    IndexOutOfRange,
    NegativeAlpha,
    SchemaError,
    TableExhausted,
    ValidationError,
)
from .linalg import Scalar, format_scalar, int_from_decimal, parse_scalar
from .record import Record

EXACT = "exact"
FLOAT64 = "float64"


def _moment(source, *order) -> Fraction:
    """A built-in family's or measure's ``moment``: its ``moment_parts`` of
    that order as one Fraction."""
    return Fraction(*source.moment_parts(*order))


class Laguerre:
    """Laguerre-type weight x^alpha e^{-x} on [0, inf), alpha >= 0 rational.

    Relative moments m_k = prod_{i=1..k} (alpha + i), so m_0 = 1.  With
    alpha = p/q in lowest terms, m_k = N_k / q^k, N_k = N_{k-1} (p + k q),
    in lowest terms too: each p + k q is prime to q.  The instance keeps the
    prefix (N_0, 1), (N_1, q), ... it has computed and extends it as far as
    a read needs, so every moment costs two integer products once, in any
    order of reads.
    """

    def __init__(self, alpha):
        alpha = Fraction(alpha)
        if alpha < 0:
            raise NegativeAlpha(f"laguerre alpha must be >= 0, got {format_scalar(alpha)}")
        self.alpha = alpha
        self._step = alpha.numerator, alpha.denominator
        self._parts = [(1, 1)]

    moment = _moment

    def moment_parts(self, k: int) -> Tuple[int, int]:
        parts = self._parts
        if len(parts) <= _natural(k):
            p, q = self._step
            n, d = parts[-1]
            for i in range(len(parts), k + 1):
                n, d = n * (p + i * q), d * q
                parts.append((n, d))
        return parts[k]


class Jacobi:
    """Jacobi-type weight x^a on [0, 1], a > -1 rational.

    Moments normalized to m_0 = 1: m_k = (a + 1) / (a + k + 1).
    """

    def __init__(self, a):
        a = Fraction(a)
        if a <= -1:
            raise NegativeAlpha(f"jacobi exponent must be > -1, got {format_scalar(a)}")
        self.a = a

    moment = _moment

    def moment_parts(self, k: int) -> Tuple[int, int]:
        # a = p/q: (a + 1) / (a + k + 1) = (p + q) / (p + (k + 1) q).
        p, q = self.a.numerator, self.a.denominator
        return p + q, p + (_natural(k) + 1) * q


class MomentTable:
    """Explicit univariate moment sequence."""

    def __init__(self, moments: Sequence):
        self._parts = [_split(m) for m in moments]

    moment = _moment

    def moment_parts(self, k: int) -> Tuple[int, int]:
        if _natural(k) >= len(self._parts):
            raise TableExhausted(f"moment table of length {len(self._parts)} has no order {k}")
        return self._parts[k]


if TYPE_CHECKING:
    # Annotations only.  A runtime Union of bimop classes stays in typing's
    # cache and keeps each re-imported copy of this module alive.
    UnivariateFamily = Union[Laguerre, Jacobi, MomentTable]


class TensorMeasure:
    """Bivariate measure with factoring moments m_{(t,s)} = m^x_t * m^y_s."""

    def __init__(self, x: UnivariateFamily, y: UnivariateFamily):
        self.x = x
        self.y = y
        self._x, self._y = _reader(x), _reader(y)

    moment = _moment

    def moment_parts(self, t: int, s: int) -> Tuple[int, int]:
        a, b = self._x(t)
        c, d = self._y(s)
        return a * c, b * d


class TableMeasure:
    """Bivariate measure given by a raw (t, s) -> moment map."""

    def __init__(self, moments: Dict[Tuple[int, int], Fraction]):
        self._parts = {k: _split(v) for k, v in moments.items()}

    moment = _moment

    def moment_parts(self, t: int, s: int) -> Tuple[int, int]:
        try:
            return self._parts[t, s]
        except KeyError:
            raise TableExhausted(f"no moment for (t, s) = ({t}, {s})") from None


if TYPE_CHECKING:
    BivariateMeasure = Union[TensorMeasure, TableMeasure]


def _natural(k: int) -> int:
    """k, the order of a family's moment, after checking it is natural."""
    if k < 0:
        raise IndexOutOfRange(f"moment order {k} is negative")
    return k


def _split(value) -> Tuple[int, int]:
    """A rational as (numerator, denominator) integers in lowest terms."""
    value = Fraction(value)
    return value.numerator, value.denominator


def _reader(source) -> Callable[..., Tuple[int, int]]:
    """How the systems and tensor measures read a family's or measure's
    moments, as (numerator, denominator) integers: its ``moment_parts``, or,
    for a source that gives only ``moment``, its moments split."""
    try:
        return source.moment_parts
    except AttributeError:
        return lambda *order: _split(source.moment(*order))


def _check_mode(mode) -> str:
    """The one check of a scalar mode, a document's "scalar" or a system's mode."""
    if mode not in (EXACT, FLOAT64):
        raise SchemaError("$.scalar", f"expected 'exact' or 'float64', got {mode!r}")
    return mode


class _ScalarMode:
    """Scalar mode shared by the measure systems: exact rationals or float64.
    A system needs at least one measure; ``r`` counts them.  Both kinds of
    system read their moments through one cached read, ``_moment_parts``."""

    mode: str

    def __post_init__(self):
        if not self.r:
            raise SchemaError("$.measures", "at least one measure required")
        _check_mode(self.mode)

    @property
    def exact(self) -> bool:
        return self.mode == EXACT

    @property
    def exact_system(self):
        """The system in exact mode: an exact system itself; for a float
        system the same measures in exact mode, built at the first read and
        kept, like the caches, outside ``repr``, ``==`` and ``hash``.  The
        verifiers judge on it."""
        if not (self.exact or self._twin):
            fields = {k: v for k, v in vars(self).items() if not k.startswith("_")}
            self._twin[EXACT] = type(self)(**{**fields, "mode": EXACT})
        return self._twin.get(EXACT, self)

    def _check_measure(self, j: int) -> None:
        """The one check of a measure index: j in 1..r."""
        if not 1 <= j <= self.r:
            raise IndexOutOfRange(f"measure index {j} not in 1..{self.r}")

    def _moment_parts(self, j: int, t: int, s: int = 0) -> Tuple[int, int]:
        """The cached integer parts a, b of the moment of x^t y^s under
        measure j, 1-based, as the class's ``_source`` reads them after its
        order check.  A float system checks that a / b (int division rounds
        correctly, so it is float(Fraction(a, b)) to the bit) lies within
        the float range: one past it is invalid input that names its
        measure and order."""
        # The cache is read first; the arguments are checked on a miss only,
        # and a bad one is never cached.
        try:
            return self._moment_cache[j, t, s]
        except KeyError:
            pass
        self._check_measure(j)
        parts, order = self._source(j, t, s)
        if not self.exact:
            a, b = parts
            try:
                a / b
            except OverflowError:
                raise ValidationError(f"measure {j}: the moment of order {order} exceeds "
                                      "the float64 range; use exact mode") from None
        self._moment_cache[j, t, s] = parts
        return parts

    def _scalar(self, parts: Tuple[int, int]) -> Scalar:
        """The moment of parts a, b as one Fraction, or as the float64 a / b."""
        a, b = parts
        return Fraction(a, b) if self.exact else a / b


class MeasureSystem(_ScalarMode, Record):
    """A system of r bivariate measures sharing one scalar mode.

    The system is frozen.  Moments are cached as integer parts
    (``_moment_parts``); the mopcore module caches each index's
    determinant, Type II and Type I polynomials in ``_index_cache``;
    ``_twin`` keeps a float system's ``exact_system``.  Each instance has
    its own caches, outside ``repr``, ``==`` and ``hash``.
    """

    measures: Tuple[BivariateMeasure, ...]
    mode: str = EXACT
    _moment_cache: dict = {}
    _index_cache: dict = {}
    _twin: dict = {}

    @property
    def r(self) -> int:
        return len(self.measures)

    def moment(self, j: int, t: int, s: int) -> Scalar:
        """Moment m^{(j)}_{(t,s)}; j is 1-based, t and s natural."""
        return self._scalar(self._moment_parts(j, t, s))

    def _source(self, j: int, t: int, s: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """The parts of m^{(j)}_{(t,s)} as measure j reads them, and their
        order (t, s), after checking it is natural."""
        if t < 0 or s < 0:
            raise IndexOutOfRange(f"moment order ({t}, {s}) has a negative component")
        return _reader(self.measures[j - 1])(t, s), (t, s)


class UniMeasureSystem(_ScalarMode, Record):
    """A system of r univariate measures, used by the product construction."""

    families: Tuple[UnivariateFamily, ...]
    mode: str = EXACT
    _moment_cache: dict = {}
    _index_cache: dict = {}
    _twin: dict = {}

    @property
    def r(self) -> int:
        return len(self.families)

    def moment(self, j: int, k: int, s: int = 0) -> Scalar:
        """Moment m^{(j)}_k; j is 1-based, k natural.  The power of y, s, must be 0."""
        return self._scalar(self._moment_parts(j, k, s))

    def _source(self, j: int, k: int, s: int) -> Tuple[Tuple[int, int], int]:
        """The parts of m^{(j)}_k as family j reads them, and their order k,
        after checking k is natural and s is 0."""
        _natural(k)
        if s:
            raise IndexOutOfRange(f"univariate measures have no moment of y^{s}")
        return _reader(self.families[j - 1])(k), k


def _parse_family(obj, path: str) -> UnivariateFamily:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    family = obj.get("family")
    if family == "laguerre":
        if "alpha" not in obj:
            raise SchemaError(path + ".alpha", "missing")
        return Laguerre(_parse_rational(obj["alpha"], path + ".alpha"))
    if family == "jacobi":
        if "a" not in obj:
            raise SchemaError(path + ".a", "missing")
        return Jacobi(_parse_rational(obj["a"], path + ".a"))
    if family == "table":
        moments = obj.get("moments")
        if not isinstance(moments, list) or not moments:
            raise SchemaError(path + ".moments", "expected a non-empty list")
        return MomentTable([_parse_rational(m, f"{path}.moments[{i}]")
                            for i, m in enumerate(moments)])
    raise SchemaError(path + ".family", f"unknown family {family!r}")


def _parse_rational(value, path: str) -> Fraction:
    # Decimal strings convert exactly ("3.4" -> 17/5); a JSON float is
    # rejected, for an exponent and a moment value alike.
    if isinstance(value, float):
        raise SchemaError(path, "give rationals as strings or integers, not floats")
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
            table[(e["t"], e["s"])] = _parse_rational(e["value"], epath + ".value")
        return TableMeasure(table)
    raise SchemaError(path + ".kind", f"unknown measure kind {kind!r}")


def read_json(text: str):
    """The JSON document of a config, its integers of any size."""
    try:
        return json.loads(text, parse_int=int_from_decimal)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None


def _config_mode(doc: dict, mode: Optional[str]) -> str:
    """mode when given, else the document's "scalar", which is checked either way."""
    scalar = _check_mode(doc.get("scalar", EXACT))
    return mode or scalar


def parse_config(text: str, mode: Optional[str] = None) -> MeasureSystem:
    """Build a MeasureSystem from a JSON config document.

    mode, when given, replaces the document's "scalar" mode.
    """
    doc = read_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected an object")
    mode = _config_mode(doc, mode)
    measures = doc.get("measures")
    if not isinstance(measures, list) or not measures:
        raise SchemaError("$.measures", "expected a non-empty list")
    parsed = tuple(_parse_measure(m, f"$.measures[{i}]") for i, m in enumerate(measures))
    return MeasureSystem(measures=parsed, mode=mode)


def parse_product_config(text: str, mode: Optional[str] = None
                         ) -> Tuple[UniMeasureSystem, UniMeasureSystem]:
    """The x and y univariate systems of a product config document
    ``{"scalar": ..., "x": [families], "y": [families]}``; mode as for
    parse_config."""
    doc = read_json(text)
    if not isinstance(doc, dict) or "x" not in doc or "y" not in doc:
        raise SchemaError("$", "product config needs 'x' and 'y' family lists")
    mode = _config_mode(doc, mode)
    return parse_uni_config(doc["x"], "$.x", mode), parse_uni_config(doc["y"], "$.y", mode)


def parse_uni_config(doc, path: str = "$", mode: str = EXACT) -> UniMeasureSystem:
    """Build a univariate system from a list of family objects."""
    if not isinstance(doc, list) or not doc:
        raise SchemaError(path, "expected a non-empty list of families")
    families = tuple(_parse_family(f, f"{path}[{i}]") for i, f in enumerate(doc))
    return UniMeasureSystem(families=families, mode=mode)

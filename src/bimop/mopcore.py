"""Polynomials, moment matrices, normality tests and Type I/II solvers.

The polynomials handed out are records of dense coefficients and do no
arithmetic: a ``BiPoly``'s coeffs[z] multiplies x^t y^s with pair(t, s) = z,
a ``UniPoly``'s coeffs[k] multiplies x^k.  Inner products are bilinear
extensions through moments; quadrature is never used, so unbounded
supports are exact.  Pairings and sums are exact in both scalar
modes: a float system's verifiers, ``inner`` and ``type1_pairing`` among
them, run on its exact twin (``on_exact_system``).  They run on cleared
polynomials, integers over one denominator.  Type I and Type II leave
either kernel as values over one denominator, exact ones cleared and float
ones over 1.0, and are cached in that form (``type2_form``,
``type1_form``); ``type2``/``type1`` make Fractions or floats of them on
request (``_dense``).
Cleared forms are the only currency of pairings, sums and shifts: x*P and
y*P are one shift of a form's integers (``shifted``), and a caller's
polynomial is cleared once, where it enters (``cleared``: in ``inner``,
``type1_pairing`` and ``relations.gram_pattern_holds``), and must be of
the system's kind.  Pairings go through moment rows (``moment_rows``):
each integer pairing
<P, x^{e_l}>_j a form needs is computed once, over one denominator,
however many forms it is paired against; ``inner`` and
``type1_pairing`` are one-shot uses.  Sums go through ``combine``, which
makes each coefficient one Fraction.  Univariate systems run through the
same solver and the same pairings over the power basis: ``_basis`` is the
one basis rule, and M_n and every pairing read their moment products
through one reader (``_products``), in the system's basis.

Normality has one rule in both scalar modes: det(M_n) != 0, decided by
``ExactLU``; a float system asks its exact twin and rounds the det once.
``_factorise`` builds M_n once, as the integer parts (a, b) of its moments
that the system's moment cache holds (``_moment_rows``), and hands that one
list of rows to whichever kernel runs: ``ExactLU`` clears the rows with
their row and column content, and ``FloatLU`` divides each entry once.  It
reads each index's Type I and Type II from that factorisation with the
same calls in both scalar modes (``type1``, ``type2``), and an exact
index's det.  Where ``FloatLU`` stops, the exact twin decides (``_form``),
and its cleared form is rounded once.  Row |n| of the moments, the
right-hand side of n's Type II system, lies outside M_n, so it rides the
factorisation as M's rider row.
Exact solves go by neighbour path (``solve_path``): every M_n on a path is a
leading block of the last one, so one factorisation solves the whole path,
and a verifier that solves a path a step past its own top (``nnr_type2``)
leaves the next verifier on that path nothing to factorise.  Each index on
the path reads its Type I from the path's U and its Type II from the path's
L: row |n| of the path's M is that Type II's right-hand side, already
eliminated.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple, Type, Union

from . import multiindex as mi
from .errors import (
    DimensionMismatch,
    EmptyIndex,
    NotNormal,
    PathInvalid,
    TableExhausted,
    ValidationError,
)
from .linalg import ExactLU, FloatLU, Matrix, Scalar, format_scalar, rational_parts
from .measures import MeasureSystem, UniMeasureSystem
from .record import Record

if TYPE_CHECKING:
    System = Union[MeasureSystem, UniMeasureSystem]


class BiPoly(Record):
    """Bivariate polynomial, dense by Cantor position."""

    coeffs: Tuple[Scalar, ...]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def terms(self) -> List[Tuple[int, int, Scalar]]:
        """Nonzero (t, s, coefficient) triples, descending Cantor position."""
        out = []
        for z in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[z] != 0:
                t, s = mi.unpair(z)
                out.append((t, s, self.coeffs[z]))
        return out

    def pretty(self) -> str:
        """Render as sorted monomial string like "x^2*y - 3/2*x + 1"."""
        if not self.coeffs or self.is_zero():
            return "0"
        parts = []
        for t, s, c in self.terms():
            mono = "*".join(p for p in (_power("x", t), _power("y", s)) if p)
            cstr = str(format_scalar(c if c > 0 else -c))
            if mono and cstr == "1":
                body = mono
            elif mono:
                body = f"{cstr}*{mono}"
            else:
                body = cstr
            parts.append(("- " if c < 0 else "+ ") + body)
        first = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([first] + parts[1:])


def _power(var: str, e: int) -> str:
    if e == 0:
        return ""
    return var if e == 1 else f"{var}^{e}"


class UniPoly(Record):
    """Univariate polynomial, coefficients by ascending power."""

    coeffs: Tuple[Scalar, ...]


class TypeISet(Record):
    """The r Type I polynomials (A_{n,1}, ..., A_{n,r}) of one multi-index."""

    polys: Tuple[BiPoly, ...]


class Normality(Record):
    """Normality verdict: normal is det != 0, decided exactly in both scalar
    modes; a float system's det is the exact det rounded once."""

    normal: bool
    det: Scalar


def _univariate_exponent(k: int) -> Tuple[int, int]:
    return k, 0


def _basis(sys: System) -> Tuple[Callable[[int], Tuple[int, int]], Type]:
    """Exponent (t, s) of each basis position, and the polynomial type.

    Bivariate systems use the Cantor-ordered basis 1, x, y, x^2, ...;
    univariate ones the power basis, whose position k is x^k y^0.
    """
    if isinstance(sys, UniMeasureSystem):
        return _univariate_exponent, UniPoly
    return mi.unpair, BiPoly


def _index(sys: System, n: Sequence[int]) -> Tuple[int, ...]:
    """n as a tuple, after checking it is a multi-index of naturals of length r."""
    key = tuple(n)
    if len(key) != sys.r:
        raise DimensionMismatch(f"index length {len(key)} != r = {sys.r}")
    return mi.natural_index(key)


def moment_matrix(sys: System, n: Sequence[int]) -> Matrix:
    """M_n: entry (k, l) of block j is m^{(j)}_{e_k+e_l}, e_k = exponent(k);
    ``normality`` gives its det."""
    n = _index(sys, n)
    scalar = sys._scalar
    return Matrix.from_rows([[scalar(v) for v in row]
                             for row in _moment_rows(sys, n, range(sum(n)))])


def _moment_rows(sys: System, n: Tuple[int, ...],
                 ks: Sequence[int]) -> List[List[Tuple[int, int]]]:
    """Rows ks of the moments on M_n's columns, as the integer parts (a, b)
    the system's moment cache holds; row |n| is minus the right-hand side
    of n's Type II system.  Moments are read column by column, block 1
    first (``_products``), so a short table names the first moment missing
    in that order."""
    exponent, _ = _basis(sys)
    exponents = [exponent(k) for k in ks]
    rows: List[List[Tuple[int, int]]] = [[] for _ in exponents]
    for j, nj in enumerate(n, start=1):
        parts = _products(sys, j, list(map(exponent, range(nj))), exponents)
        for i, row in enumerate(rows):
            row += parts[i::len(rows)]
    return rows


def _products(sys: System, j: int, outer: Sequence[Tuple[int, int]],
              inner: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The cached parts of m^{(j)}_{a+b} for the exponents a in outer and b
    in inner, outer first: the one read of moment products, for M_n and
    for every pairing, which take the exponent of each basis position
    from ``_basis``."""
    read = sys._moment_parts
    return [read(j, t + u, s + v) for t, s in outer for u, v in inner]


#: The cleared form of 1, the zero index's Type II.
_ONE = ([[1]], 1)


class _Solved:
    """Cached results of one index: det(M_n), on an exact system only;
    type2 and type1 None where the kernel gave no solution (M_n singular,
    or ``FloatLU`` stopped), type2 the TableExhausted its right-hand side
    raised, else what ``type2_form`` and ``type1_form`` return."""

    __slots__ = ("det", "type2", "type1")

    def __init__(self, det: Scalar):
        self.det, self.type2, self.type1 = det, None, None


def _solved(sys: System, key: Tuple[int, ...]) -> _Solved:
    """The cache entry of an index; the first call solves it as a one-step
    path.  Systems are frozen, so the key needs no scalar mode."""
    if key not in sys._index_cache:
        _factorise(sys, [key])
    return sys._index_cache[key]


def solve_path(sys: System, steps: Sequence[Sequence[int]]) -> None:
    """Solve the indices of a neighbour path that are not yet cached, from
    one factorisation, for normality, type2 and type1 to read."""
    # Float mode solves nothing here (a magnitude pivot may come from below a
    # leading block, so the block's factors are not its own), nor does a
    # table too short for the last index: indices are then solved on request.
    keys = [_index(sys, n) for n in steps]
    if not mi.Path(tuple(keys)).is_valid():
        raise PathInvalid("not a neighbour path")
    if sys.exact and not sys._index_cache.keys() >= set(keys):
        try:
            _factorise(sys, keys)
        except TableExhausted:
            pass


def _factorise(sys: System, steps: List[Tuple[int, ...]]) -> None:
    # Each step of a path adds one column and one row to M_n.  With the
    # columns of the last index's M in the order the steps added them, the
    # M of every index on the path is a leading block of it (Gauss-Borel):
    # one ExactLU gives every index its det, Type I and Type II, whose row
    # of moments is already eliminated (``ExactLU.type1``/``type2``); the
    # last index's row rides the factorisation as M's rider row.  A float
    # path has one step, so its one FloatLU serves M_n alone, for Type I and
    # Type II: the exact twin gives a float system its verdicts.  Both
    # kernels answer (values, d), so the cache holds one form in both modes.
    last = steps[-1]
    size = sum(last)
    offsets = [0, *accumulate(last)]
    order = [offsets[j] + l for j, nj in enumerate(steps[0]) for l in range(nj)]
    order += [offsets[j] + a[j] for a, b in zip(steps, steps[1:])
              for j in range(len(a)) if a[j] != b[j]]
    rows = _moment_rows(sys, last, range(size))
    missing = None
    try:
        rows += _moment_rows(sys, last, [size])
    except TableExhausted as exc:
        # The last index's row needs moments of order |n|, which a table
        # may lack; its type2 then raises on request, normality still works.
        missing = exc.with_traceback(None)
    lu = ExactLU(rows, order) if sys.exact else FloatLU(rows)
    for key in steps:
        if key in sys._index_cache:
            continue
        s = sum(key)
        entry = sys._index_cache[key] = _Solved(Fraction(*lu.det(s)) if sys.exact else None)
        c = lu.type1(s) if s else None
        if c is None:
            continue
        if key == last and missing is not None:
            entry.type2 = missing
        else:
            y, d = lu.type2(s)
            entry.type2 = [y + [d]], d
        entry.type1 = _blocks(c[0], key), c[1]


def _blocks(c: Sequence[Scalar], n: Tuple[int, ...]) -> List[List[Scalar]]:
    """c cut into blocks of the sizes n, each without trailing zeros."""
    out, i = [], 0
    for nj in n:
        block = list(c[i:i + nj])
        while block and not block[-1]:
            block.pop()
        out.append(block)
        i += nj
    return out


def _dense(sys: System, blocks: Sequence[Sequence[Scalar]], d: Scalar) -> list:
    """The polynomials of a form ([coefficients, ...], d): each block of
    coefficients / d, one Fraction each on an exact system and one float
    each on a float one (``_float``)."""
    poly = _basis(sys)[1]
    div = Fraction if sys.exact else _float
    out = []
    for coeffs in blocks:
        terms = []
        for a in coeffs:
            terms.append(div(a, d))
        out.append(poly(tuple(terms)))
    return out


def on_exact_system(verifier):
    """verifier(sys, ...) run on ``sys.exact_system``, so its verdict is
    exact in both scalar modes.  On a float system each Fraction of the
    result, and the det of a NotNormal it raises, is rounded once to the
    nearest float, and documents keep float types."""
    @functools.wraps(verifier)
    def run(sys, *args, **kwargs):
        if sys.exact:
            return verifier(sys, *args, **kwargs)
        try:
            return _rounded(verifier(sys.exact_system, *args, **kwargs))
        except NotNormal as exc:
            raise NotNormal(exc.index, _rounded(exc.det)) from None
    return run


def _rounded(value, report: bool = False):
    """value with each Fraction in it rounded to the nearest float: records,
    lists, tuples and dicts are rebuilt around the rounded values.  A value
    past the float64 range is invalid input, and so is a nonzero value of a
    record (a report such as ``Normality``) that rounds to 0.0: next to the
    record's exact verdict it would read as a vanishing det, factor or
    residual."""
    if isinstance(value, Fraction):
        rounded = _float(value.numerator, value.denominator)
        if report and value and not rounded:
            raise ValidationError("a reported value is nonzero but below the float64 "
                                  "range; use exact mode")
        return rounded
    if isinstance(value, Record):
        return type(value)(**{k: _rounded(v, True) for k, v in vars(value).items()})
    if isinstance(value, (list, tuple)):
        return type(value)([_rounded(v, report) for v in value])
    if isinstance(value, dict):
        return {k: _rounded(v, report) for k, v in value.items()}
    return value


def _float(a: Scalar, d: Scalar) -> float:
    """a / d as a float: rounded once for integers (int division rounds
    correctly), exact for d = 1.0.  A value past the float64 range is
    invalid input."""
    try:
        return a / d
    except OverflowError:
        raise ValidationError("a reported value exceeds the float64 range; "
                              "use exact mode") from None


@on_exact_system
def normality(sys: System, n: Sequence[int]) -> Normality:
    """Normality of n: det(M_n) != 0, decided by ``ExactLU`` in both scalar
    modes.

    The 0x0 matrix has det 1, so the zero index is vacuously normal.  A
    float system answers its exact twin's verdict (``on_exact_system``)
    with the det rounded once to float; a det past the float64 range, or
    a nonzero one that rounds to 0.0, is invalid input.  ``FloatLU`` plays
    no part.
    """
    d = _solved(sys, _index(sys, n)).det
    return Normality(d != 0, d)


def is_normal(sys: MeasureSystem, n: Sequence[int]) -> bool:
    return normality(sys, n).normal


def type2_form(sys: System, n: Sequence[int]):
    """n's Type II as ([coefficients], d), in the form ``_form`` gives."""
    key = _index(sys, n)
    if not sum(key):
        return _ONE
    return _form(sys, key, "type2")


def type2(sys: System, n: Sequence[int]) -> BiPoly:
    """Monic Type II polynomial of the multi-index n.

    Solves M_n^t c = -b for the lower coefficients; the leading coefficient
    sits at position |n|.
    """
    p, = _dense(sys, *type2_form(sys, n))
    return p


def type1_form(sys: System, n: Sequence[int]):
    """n's Type I polynomials as ([coefficients, ...], d), in the form
    ``_form`` gives."""
    key = _index(sys, n)
    if not sum(key):
        raise EmptyIndex("Type I polynomials are undefined for the zero index")
    return _form(sys, key, "type1")


def _form(sys: System, key: Tuple[int, ...], field: str):
    """The cached form field of a nonzero index, ([coefficients, ...], d):
    cleared integers on an exact system, and on a float one ``FloatLU``'s
    floats over 1.0.  Where the kernel gave none, exact M_n is singular:
    NotNormal.  Where ``FloatLU`` stopped the exact twin decides
    (``on_exact_system``): NotNormal, its det rounded, only if M_n is
    singular, else the twin's cleared form, which ``_dense`` rounds once."""
    entry = _solved(sys, key)
    form = getattr(entry, field)
    if form is None:
        if sys.exact:
            raise NotNormal(key, entry.det)
        return on_exact_system(_form)(sys, key, field)
    if isinstance(form, TableExhausted):
        raise TableExhausted(*form.args)
    return form


def type1(sys: System, n: Sequence[int]) -> TypeISet:
    """The r Type I polynomials of the multi-index n.

    Solves M_n c = (0, ..., 0, 1)^t; block j of the solution holds the
    coefficients of A_{n,j} at positions 0..n_j - 1.  Components with
    n_j = 0 yield the zero polynomial.
    """
    return TypeISet(tuple(_dense(sys, *type1_form(sys, n))))


def moment_rows(sys: System, form) -> Callable[..., Scalar]:
    """pair(forms, j=1) = sum_i <p, q_i>_{j+i}: the polynomial p of a cleared
    form ([P], d_p) paired against the polynomials q_i of many cleared forms
    ([Q_1, ...], d_q), on an exact system (a float one raises
    ValidationError; pair on its ``exact_system``).  Positions are those
    of the system's basis (``_basis``): Cantor positions on a bivariate
    system, powers of x on a univariate one.

    It keeps moment rows for p = P/d_p: row j maps basis position l to the
    integer <P, x^{e_l}>_j * L, where L is one denominator shared by every
    row.  The moments come as the integer parts the system's moment cache
    holds, through M_n's reader (``_products``).  A pairing fills the
    positions its forms need and no other, then takes dot products with
    their integer coefficients and returns one fraction over all j.  Forms
    come from ``type2_form``, ``type1_form``, ``shifted`` or ``cleared``.
    """
    _exact_only(sys, "moment_rows")
    rows: dict = {}
    scale = 1
    (coeffs,), dp = form
    exponent = _basis(sys)[0]
    p_at = [u for u, a in enumerate(coeffs) if a]
    p_coeffs = [coeffs[u] for u in p_at]
    p_exponents = list(map(exponent, p_at))

    def pair(form, j=1):
        nonlocal scale
        q_terms, dq = form
        total = 0
        for coeffs in q_terms:
            row = rows.setdefault(j, {})
            need = []
            for l, b in enumerate(coeffs):
                if b and l not in row:
                    need.append(l)
            if need:
                # Every moment is read before any row changes, in the order
                # the pairs first reach them (p's terms outer), so a missing
                # table moment raises on the same exponent as a pair-by-pair
                # sum would.
                moments = _products(sys, j, p_exponents, list(map(exponent, need)))
                lcm = math.lcm(scale, *[den for _, den in moments])
                if lcm != scale:
                    grow = lcm // scale
                    total *= grow
                    for other in rows.values():
                        for l in other:
                            other[l] *= grow
                    scale = lcm
                row.update(dict.fromkeys(need, 0))
                reads = iter(moments)
                for a in p_coeffs:
                    for l in need:
                        num, den = next(reads)
                        row[l] += a * num * (lcm // den)
            for l, b in enumerate(coeffs):
                if b:
                    total += b * row[l]
            j += 1
        return Fraction(total, dp * dq * scale)
    return pair


@on_exact_system
def inner(sys: System, j: int, p: Union[BiPoly, UniPoly],
          q: Union[BiPoly, UniPoly]) -> Scalar:
    """Moment-bilinear inner product <p, q>_j (no quadrature).

    It pairs the rationals the coefficients denote, float ones included,
    exactly (``cleared``, ``moment_rows``): one Fraction, rounded once on a
    float system.  p and q are of the system's kind: ``BiPoly`` on a
    ``MeasureSystem``, ``UniPoly`` on a ``UniMeasureSystem``; the other
    kind raises ValidationError.  j is checked first, so a zero polynomial
    does not hide a measure index outside 1..r.
    """
    sys._check_measure(j)
    return moment_rows(sys, cleared(sys, (p,)))(cleared(sys, (q,)), j)


def combine(sys: System, terms: Sequence[tuple]) -> BiPoly:
    """The polynomial sum of c * p over the (c, ([P], d)) pairs of terms,
    p = P/d a cleared form and c rational, on an exact system.

    It puts all P over the lcm of their d and every c over the lcm of
    theirs, sums the integers by basis position and makes each coefficient
    one Fraction.
    """
    _exact_only(sys, "combine")
    lcm = den = 1
    size = 0
    for c, ((coeffs,), dp) in terms:
        lcm = math.lcm(lcm, c.denominator)
        den = math.lcm(den, dp)
        size = max(size, len(coeffs))
    acc = [0] * size
    for c, ((coeffs,), dp) in terms:
        k = c.numerator * (lcm // c.denominator) * (den // dp)
        for z, a in enumerate(coeffs):
            acc[z] += k * a
    while acc and not acc[-1]:
        acc.pop()
    den *= lcm
    out = []
    for a in acc:
        out.append(Fraction(a, den))
    return BiPoly(tuple(out))


def _exact_only(sys: System, name: str) -> None:
    if not sys.exact:
        raise ValidationError(f"{name} needs an exact system, not mode {sys.mode!r}")


def cleared(sys: System,
            polys: Sequence[Union[BiPoly, UniPoly]]) -> Tuple[List[List[int]], int]:
    """The cleared form ([N_1, ...], d) of polys: the coefficients of each
    polynomial as integers over one d, polys[i] = sum_z N_i[z] x^{e_z} / d.
    A coefficient is the rational it denotes, a float one included
    (``rational_parts``).  A caller's polynomial is cleared once, where it
    enters a pairing, and must be of the system's kind (``_basis``): a
    polynomial of the other kind, whose positions name other monomials,
    raises ValidationError."""
    kind = _basis(sys)[1]
    for q in polys:
        if not isinstance(q, kind):
            raise ValidationError(f"a {type(sys).__name__} pairs {kind.__name__} "
                                  f"polynomials, not {type(q).__name__}")
    ratios = rational_parts([q.coeffs for q in polys])
    d = math.lcm(*[b for q in ratios for _, b in q])
    return [[a * (d // b) for a, b in q] for q in ratios], d


def shifted(coeffs: Sequence[int], shift: Callable[[int, int], int]) -> List[int]:
    """The integers of a cleared form multiplied by x (shift ``mi.shift_x``)
    or y (``mi.shift_y``): the integer at position pair(t, s) moves to
    shift(t, s), and every other position holds 0."""
    if not coeffs:
        return []
    out = [0] * (shift(*mi.unpair(len(coeffs) - 1)) + 1)
    for z, c in enumerate(coeffs):
        if c:
            out[shift(*mi.unpair(z))] = c
    return out


@on_exact_system
def type1_pairing(sys: System, p: Union[BiPoly, UniPoly], m: Sequence[int]) -> Scalar:
    """Biorthogonality pairing <p, Q_m> = sum_j <p, A_{m,j}>_j.

    Computed purely from moments; weights are never evaluated.  p is
    paired as the rationals its coefficients denote (``cleared``), and is
    of the system's kind, as in ``inner``.
    """
    return moment_rows(sys, cleared(sys, (p,)))(type1_form(sys, m))


def uni_moment_matrix(sys1d: UniMeasureSystem, n: Sequence[int]) -> Matrix:
    """Univariate block matrix M_n^t: block j has rows m^{(j)}_{k+l}, k < n_j."""
    return moment_matrix(sys1d, n).transpose()


def uni_type2(sys1d: UniMeasureSystem, n: Sequence[int]) -> UniPoly:
    """Monic univariate Type II polynomial of degree |n|."""
    return type2(sys1d, n)


def uni_type1(sys1d: UniMeasureSystem, n: Sequence[int]) -> Tuple[UniPoly, ...]:
    """Univariate Type I polynomials (A_{n,1}, ..., A_{n,r})."""
    return type1(sys1d, n).polys


def uni_normality(sys1d: UniMeasureSystem, n: Sequence[int]) -> Normality:
    """Normality of a univariate index, by the same rule as ``normality``."""
    return normality(sys1d, n)


def poly_to_json(p: BiPoly) -> dict:
    """Polynomial JSON form, terms sorted by descending Cantor position."""
    return {"terms": [{"t": t, "s": s, "c": format_scalar(c)} for t, s, c in p.terms()]}

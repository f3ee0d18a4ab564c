"""Dense matrices, the two elimination kernels, and exact det and solve.

Exact mode runs one fraction-free (Bareiss) LU over the integers,
``ExactLU``.  Its rows arrive as integer parts (a, b) of rationals, never
as Fractions: it clears each row over the lcm of its denominators, divides
it by its content (the gcd of its cleared entries) and then each column by
its content.  Float mode runs one partial-pivot LU, ``FloatLU``, on float
rows; it stops at a pivot at or below one relative threshold,
``FLOAT_TOL``.  ``FloatLU`` serves ``mopcore``'s float Type I and Type II
alone.  ``det`` and ``solve`` are exact in both modes: they hand
``ExactLU`` the parts of the rationals the entries denote, floats included
(``as_integer_ratio``).

Both kernels take M with at most one rider row, an extra row that is never
a pivot, and answer the same questions: ``type1`` (M c = e_{n-1}) and
``type2`` (M^t y = -(the rider row)), each as values over one denominator:
exact solutions as integers (``_cleared``), float ones over 1.0; ``ExactLU``
also answers ``det``, as integers (a, b).  ``ExactLU`` eliminates the rider
with M, and its factors serve every leading block B_s of M (Gauss-Borel):
B_s's Type I solution is one back pass on U, and its Type II solution,
B_s^t y = -(row s of M), is one back pass on L^t of the Bareiss multipliers
the elimination left in row s, the rider row for s = n.  ``FloatLU`` factors
M alone, so it serves M only.

Decimal conversion of integers (``int_to_decimal``, ``int_from_decimal``)
splits by powers 10^(2^k), so numbers of any size print and parse without
Python's limit on int/str conversion and without changing it.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import reduce
from typing import List, Optional, Sequence, Tuple, Union

from .errors import DimensionMismatch, NotSquare, Singular, ValidationError
from .record import Record

Scalar = Union[Fraction, float, int]

#: |pivot| <= FLOAT_TOL * max(1, max |entry|) stops a float factorisation.
FLOAT_TOL = 1e-12

#: Integers that str() and int() convert directly under any setting of
#: Python's int/str digit limit (640 digits at the lowest).
_DIRECT_DIGITS = 600
_DIRECT_BITS = 1990
_RATIONAL = re.compile(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*")


class Matrix(Record):
    """Dense row-major matrix."""

    rows: int
    cols: int
    data: List[List[Scalar]]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        data = [list(r) for r in rows]
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise DimensionMismatch("ragged rows")
        return cls(rows=len(data), cols=ncols, data=data)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])


class ExactLU:
    """One fraction-free LU factorisation of an exact square matrix M, and
    of at most one rider row: an extra row of M, eliminated with it but
    never a pivot.

    M arrives as rows of integer parts: entry (i, k) is a / b, b > 0, not
    necessarily in lowest terms.  The columns of M are taken in ``order``
    (default: as they stand).  Row i is cleared over the lcm D[i] of its
    b and divided by its content g[i], the gcd of its cleared entries (1 for
    a zero row); column k is then divided by its content G[k], the gcd of
    its entries over every row (1 for a zero column), giving the integer
    matrix A = (D / g) M[:, order] G^-1.  A minor of A is the same minor of
    M[:, order] times its rows' D / g over its columns' G, so the contents
    shrink every Bareiss integer and change no pivot choice: scaling rows
    and columns by positive integers keeps every zero.  A row's content over
    all of M's columns divides its content over any leading block's, so one
    pass serves every B_s.  Bareiss elimination with row pivoting then
    factors P A in place, its pivots taken from the square part: on and
    above the diagonal ``lu`` holds the integer U (row k as it stood when it
    became the pivot row, so U[k][k] is the leading (k+1)-minor of P A),
    below it the integer multipliers of L.  Every division, in the
    elimination and in the back passes, is exact.

    Every leading block B_s, the first s rows of M on the columns order[:s]
    kept in their order in M, shares these factors: ``det(s)`` is
    det(B_s), and ``type1(s)`` and ``type2(s)`` read B_s's Type I and Type
    II solutions from them with one back pass each (Gauss-Borel: a column
    of U^-1, a row of L^-1); the Type II of B_n reads the rider row.  Each
    read-out folds the scales D, g and G back in and answers integers.
    ``det()`` and ``signs`` describe the square part.
    """

    def __init__(self, rows: Sequence[Sequence[Tuple[int, int]]],
                 order: Optional[Sequence[int]] = None):
        n = len(rows[0]) if rows else 0
        #: column k of A is column order[k] of M
        self.order = list(range(n)) if order is None else list(order)
        #: scale[i] = D[i] and rowcontent[i] = g[i]: row i of A is row i of
        #: D[i] M / g[i] over the column contents
        self.scale: List[int] = []
        self.rowcontent: List[int] = []
        lu = []
        for row in rows:
            # Star-unpack lists, not generators: a generator's argument tuple
            # is resized, and the resized tuples pile up on the free lists.
            d = math.lcm(*[b for _, b in row])
            cleared = [a * (d // b) for a, b in row]
            g = math.gcd(*cleared) or 1
            self.scale.append(d)
            self.rowcontent.append(g)
            lu.append([cleared[c] // g for c in self.order])
        #: content[k]: the gcd of column k of (D / g) M[:, order], 1 for a
        #: zero column
        self.content = [math.gcd(*col) or 1 for col in zip(*lu)]
        lu = [[v // g for v, g in zip(row, self.content)] for row in lu]
        #: row k of P A is row perm[k] of A
        self.perm = list(range(len(rows)))
        #: signs[s]: the sign of the row and column permutations of B_s, or 0
        #: when B_s is singular
        self.signs = [1]
        sign = prev = 1
        last = -1
        for k in range(n):
            p = next((i for i in range(k, n) if lu[i][k]), None)
            if p is None:
                break
            if p != k:
                lu[k], lu[p] = lu[p], lu[k]
                self.perm[k], self.perm[p] = self.perm[p], self.perm[k]
                sign = -sign
            # column k of A passes the earlier columns that follow it in M
            if sum(map(self.order[k].__lt__, self.order[:k])) % 2:
                sign = -sign
            # B_{k+1} is regular iff its own rows gave the first k + 1 pivots:
            # the first nonzero entry is searched among them first
            last = max(last, self.perm[k])
            self.signs.append(sign if last == k else 0)
            top = lu[k][k + 1:]
            piv = lu[k][k]
            for row in lu[k + 1:]:
                f = row[k]
                row[k + 1:] = [(piv * a - f * t) // prev for a, t in zip(row[k + 1:], top)]
            prev = piv
        self.signs += [0] * (n + 1 - len(self.signs))
        self.lu = lu
        #: lu^t, the compact factorisation of (P A)^t
        self.lut = list(zip(*lu))

    def det(self, s: Optional[int] = None) -> Tuple[int, int]:
        """det(B_s) = signs[s] U[s-1][s-1] prod(G[:s]) prod(g[:s]) /
        prod(D[:s]), by default det(M), as integers (a, b), b > 0: a / b."""
        s = len(self.order) if s is None else s
        if not s:
            return 1, 1
        return (self.signs[s] * self.lu[s - 1][s - 1] * math.prod(self.content[:s])
                * math.prod(self.rowcontent[:s]), math.prod(self.scale[:s]))

    def type1(self, s: int) -> Optional[Tuple[List[int], int]]:
        """c with B_s c = e_{s-1}, for s >= 1, as its cleared form
        (``_cleared``); None when B_s is singular.

        A_s G_s c = (D / g)[s-1] P e_{s-1}, which is zero but at the
        position k of row s - 1.  That row, the block's last, moves only
        when it becomes the pivot of a column in which the block's rows it
        passes are zero, so the block's multipliers below it in column k are
        zero and the forward pass only scales its entry, to D[s-1]
        U[k-1][k-1] over g[s-1].  Only the back pass on U runs, and gives
        G c (in the order of A's columns) as z / (q g[s-1]).
        """
        if not self.signs[s]:
            return None
        lu = self.lu
        k = self.perm.index(s - 1)
        b = [0] * s
        b[k] = self.scale[s - 1] * (lu[k - 1][k - 1] if k else 1)
        z, q = _back(lu, b)
        g = math.lcm(*self.content[:s])
        # z is in the order of A's columns; c in the order of M's
        c = []
        for j in sorted(range(s), key=self.order.__getitem__):
            c.append(z[j] * (g // self.content[j]))
        return _cleared(c, q * g * self.rowcontent[s - 1])

    def type2(self, s: int) -> Optional[Tuple[List[int], int]]:
        """y with B_s^t y = -(row s of M on B_s's columns), for s < n or,
        with a rider row, s = n, as its cleared form (``_cleared``); None
        when B_s is singular.

        The forward pass of a solve with A_s^t would replay the
        elimination on row s of A; the elimination already did, and left
        that row's Bareiss multipliers in lu: when B_s is regular, row s
        gave none of its first s pivots (a rider row gives none at all).
        Only the back pass on L^t runs.  With S = D / g, B_s^t = G_s A_s^t
        S_s^-1 and row s of M on B_s's columns is (row s of A) G_s / S[s],
        so G_s cancels and A_s^t (S_s^-1 y) = -(row s of A) / S[s], the
        system the factors of A solve: y = -S P^t w / S[s], each y[i] scaled
        by D[i] / g[i].
        """
        if not self.signs[s]:
            return None
        w, q = _back(self.lut, self.lu[self.perm.index(s)][:s])
        g = math.lcm(*self.rowcontent[:s])
        f = self.rowcontent[s]
        y = [0] * s
        for k, i in enumerate(self.perm[:s]):
            y[i] = -w[k] * self.scale[i] * (g // self.rowcontent[i] * f)
        return _cleared(y, q * self.scale[s] * g)


def _cleared(nums: List[int], den: int) -> Tuple[List[int], int]:
    """nums / den, den != 0, cleared: (numerators, d) over the least d > 0,
    so gcd(d, *numerators) = 1."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    for i, v in enumerate(nums):
        nums[i] = v // g
    return nums, den // g


def _back(lu: Sequence[Sequence[int]], b: List[int]) -> Tuple[List[int], int]:
    """Back pass on the leading len(b) block of a compact factorisation,
    after the forward pass: (x, d), d the block's last pivot and x = d *
    solution, an integer vector by Cramer's rule."""
    n = len(b)
    d = lu[n - 1][n - 1] if n else 1
    x = [0] * n
    for k in range(n - 1, -1, -1):
        row = lu[k]
        x[k] = (d * b[k] - sum(map(operator.mul, row[k + 1:n], x[k + 1:]))) // row[k]
    return x, d


class FloatLU:
    """One partial-pivot LU factorisation P M = L U of a square binary64 M,
    and of at most one rider row, an extra row of M split off before the
    factorisation; ``mopcore._factorise`` alone runs it, for a float
    system's Type I and Type II.

    Step k pivots on the first largest |entry| of column k and stops when it
    is at most ``FLOAT_TOL`` * max(1, max |entry of M|): ``stopped`` is then
    True and the read-outs are None.  A stop is no verdict on M; ``mopcore``
    hands the stopped solve to the system's exact twin, which decides
    normality.
    ``lu`` holds U and, below it, L's multipliers; row k of P M is row
    perm[k] of M.  The pivot search and that threshold read M's own entries,
    never the rider's.  Sums run left to right (``reduce``: ``sum()``
    compensates from Python 3.12 on).

    The read-outs are ``ExactLU``'s, in its form (values, d), here with d =
    1.0.  A pivot may come from below a leading block, so the factors are
    M's and not its leading blocks': s, where a read-out takes it, is n, the
    size of M.  ``type1(s)`` solves M c = e_{n-1} and ``type2(s)`` M^t y =
    -(the rider row).
    """

    def __init__(self, m: Matrix):
        n = m.cols
        a = [[float(v) for v in row] for row in m.data]
        #: the rider row, or None
        self.rider = a.pop() if m.rows > n else None
        scale = max([1.0] + [abs(v) for row in a for v in row])
        self.perm = list(range(n))
        #: whether a pivot fell to the threshold, leaving no read-out
        self.stopped = False
        for k in range(n):
            column = [abs(row[k]) for row in a[k:]]
            big = max(column)
            if big <= FLOAT_TOL * scale:
                self.stopped = True
                break
            p = k + column.index(big)
            if p != k:
                a[k], a[p] = a[p], a[k]
                self.perm[k], self.perm[p] = self.perm[p], self.perm[k]
            for i in range(k + 1, n):
                f = a[i][k] = a[i][k] / a[k][k]
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
        self.lu = a

    def type1(self, s: int) -> Optional[Tuple[List[float], float]]:
        """(c, 1.0) with M c = e_{n-1}: L z = P e_{n-1}, then U c = z; None
        when the factorisation stopped."""
        if self.stopped:
            return None
        lu, n = self.lu, len(self.lu)
        c = [0.0] * n
        c[self.perm.index(n - 1)] = 1.0
        for k in range(n):
            for i in range(k + 1, n):
                c[i] -= lu[i][k] * c[k]
        for k in range(n - 1, -1, -1):
            c[k] = (c[k] - reduce(operator.add, (lu[k][j] * c[j] for j in range(k + 1, n)),
                                  0.0)) / lu[k][k]
        return c, 1.0

    def type2(self, s: int) -> Optional[Tuple[List[float], float]]:
        """(y, 1.0) with M^t y = -(the rider row): U^t z = -rider, L^t w = z,
        then y = P^t w; None when the factorisation stopped."""
        if self.stopped:
            return None
        lu, n = self.lu, len(self.lu)
        z = [0.0] * n
        for k in range(n):
            z[k] = (-self.rider[k] - reduce(operator.add, (lu[j][k] * z[j] for j in range(k)),
                                            0.0)) / lu[k][k]
        for k in range(n - 1, -1, -1):
            z[k] -= reduce(operator.add, (lu[j][k] * z[j] for j in range(k + 1, n)), 0.0)
        y = [0.0] * n
        for k, i in enumerate(self.perm):
            y[i] = z[k]
        return y, 1.0


def _parts(m: Matrix,
           rhs: Optional[Sequence[Scalar]] = None) -> List[List[Tuple[int, int]]]:
    """m^t, with -rhs as its rider row when rhs is given, as integer parts
    (a, b): the rationals the entries denote, floats included
    (``as_integer_ratio``, as ``mopcore.cleared`` reads them).  The shape
    checks come first: NotSquare, then DimensionMismatch for an rhs without
    one entry per row.  A nan or infinite entry denotes no rational:
    invalid input."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    rows = m.transpose().data
    if rhs is not None:
        if len(rhs) != m.rows:
            raise DimensionMismatch(f"rhs length {len(rhs)} != {m.rows}")
        rows.append([-v for v in rhs])
    try:
        return [[v.as_integer_ratio() for v in row] for row in rows]
    except (ValueError, OverflowError):
        raise ValidationError("a nan or infinite entry denotes no rational") from None


def det(m: Matrix) -> Fraction:
    """det(m) = det(m^t) by ``ExactLU``, exact for float entries too; the
    0x0 matrix has det 1."""
    return Fraction(*ExactLU(_parts(m)).det())


def solve(m: Matrix, rhs: Sequence[Scalar]) -> List[Fraction]:
    """The x with m x = rhs, exact: ``ExactLU``'s Type II of m^t with -rhs
    as the rider row, float entries read as the rationals they denote.

    Raises Singular (carrying the det, Fraction(0)) when no unique solution
    exists.
    """
    x = ExactLU(_parts(m, rhs)).type2(m.rows)
    if x is None:
        raise Singular(Fraction(0))
    nums, d = x
    return [Fraction(v, d) for v in nums]


def int_to_decimal(v: int) -> str:
    """str(v) for an int of any size: v = hi 10^(2^k) + lo, with 10^(2^k) <=
    |v|, down to pieces that str() converts."""
    if v.bit_length() <= _DIRECT_BITS:
        return str(v)
    if v < 0:
        return "-" + int_to_decimal(-v)
    # 10^(2^k) <= 10^((bits - 1) * 3 // 10) <= 2^(bits - 1) <= v, so hi >= 1
    k = ((v.bit_length() - 1) * 3 // 10).bit_length() - 1
    hi, lo = divmod(v, 10 ** (1 << k))
    return int_to_decimal(hi) + int_to_decimal(lo).zfill(1 << k)


def int_from_decimal(text: str) -> int:
    """int(text) for a signed decimal integer of any length: the last 2^k
    digits and the rest, 2^k < their number, down to pieces that int()
    converts."""
    if len(text) <= _DIRECT_DIGITS:
        return int(text)
    digits = text[1:] if text[0] in "+-" else text
    if not digits.isdecimal():
        raise ValueError(f"not a decimal integer: {text[:20]}... ({len(text)} characters)")
    k = (len(digits) - 1).bit_length() - 1
    v = int_from_decimal(digits[:-(1 << k)]) * 10 ** (1 << k) + int_from_decimal(digits[-(1 << k):])
    return -v if text[0] == "-" else v


def format_scalar(v: Scalar) -> Union[str, float]:
    """Rationals serialize as "p/q" (or "p" when q = 1); floats stay floats."""
    if isinstance(v, float):
        return v
    f = Fraction(v)
    p = int_to_decimal(f.numerator)
    return p if f.denominator == 1 else f"{p}/{int_to_decimal(f.denominator)}"


def parse_scalar(text: Union[str, int]) -> Fraction:
    """Exact parse of an int, or of "p/q", integer, or decimal strings like
    "2.2" -> 11/5; integers and "p/q" parse at any length."""
    if type(text) is int:
        return Fraction(text)
    try:
        return Fraction(str(text))
    except ValueError:
        match = _RATIONAL.fullmatch(str(text))
        if match is None:
            raise
        p, q = match.groups()
        return Fraction(int_from_decimal(p), int_from_decimal(q or "1"))

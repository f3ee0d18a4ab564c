"""Dense matrices over exact rationals or binary64, with determinant and solve.

Exact mode clears each row's denominators, divides each column of the
cleared integers by its content (the gcd of its entries) and runs one
fraction-free (Bareiss) LU over the integers, ``ExactLU``; float mode runs
one partial-pivot LU, ``FloatLU``, with a configurable singularity
tolerance.  ``det`` and ``solve`` pick the kernel by the entries.

Both kernels take M with at most one rider row, an extra row that is never
a pivot, and answer the same questions: ``det``, ``normal``, ``type1`` (M c
= e_{n-1}) and ``type2`` (M^t y = -(the rider row)).  ``ExactLU`` eliminates
the rider with M, and its factors serve every leading block B_s of M
(Gauss-Borel): B_s's Type I solution is one back pass on U, and its Type
II solution, B_s^t y = -(row s of M), is one back pass on L^t of the
Bareiss multipliers the elimination left in row s, the rider row for s =
n.  ``FloatLU`` factors M alone, so it serves M only.

Decimal conversion of integers (``int_to_decimal``, ``int_from_decimal``)
splits by powers 10^(2^k), so numbers of any size print and parse without
Python's limit on int/str conversion and without changing it.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import List, Optional, Sequence, Tuple, Union

from .errors import DimensionMismatch, NotSquare, Singular

Scalar = Union[Fraction, float, int]

#: |pivot| <= FLOAT_TOL * max(1, max |entry|) declares a float matrix singular.
FLOAT_TOL = 1e-12

#: Float normality is indeterminate when |det| / Hadamard bound falls inside
#: this band; below it the matrix is declared singular, above it regular.
FLOAT_DET_LOW = 1e-12
FLOAT_DET_HIGH = 1e-6

#: Residual tolerance for float-mode verdicts, relative to the largest
#: coefficient involved.
FLOAT_RESIDUAL_TOL = 1e-9

#: Integers that str() and int() convert directly under any setting of
#: Python's int/str digit limit (640 digits at the lowest).
_DIRECT_DIGITS = 600
_DIRECT_BITS = 1990
_RATIONAL = re.compile(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*")


@dataclass
class Matrix:
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

    def is_exact(self) -> bool:
        return not any(isinstance(v, float) for row in self.data for v in row)


class ExactLU:
    """One fraction-free LU factorisation of an exact square matrix M, and
    of at most one rider row: an extra row of M, eliminated with it but
    never a pivot.

    The columns of M are taken in ``order`` (default: as they stand);
    row i is scaled by the lcm D[i] of its
    denominators and column k is divided by its content G[k], the gcd of
    its cleared entries over every row (1 for a zero column), giving the
    integer matrix A = D M[:, order] G^-1.  A minor of A is the same minor
    of D M[:, order] over its columns' contents, so the contents shrink
    every Bareiss integer and change no pivot choice.  Bareiss elimination
    with row pivoting then factors P A in place, its pivots taken from the
    square part: on and above the diagonal ``lu`` holds the integer U (row
    k as it stood when it became the pivot row, so U[k][k] is the leading
    (k+1)-minor of P A), below it the integer multipliers of L.  Every
    division, in the elimination and in the back passes, is exact.

    Every leading block B_s, the first s rows of M on the columns order[:s]
    kept in their order in M, shares these factors: ``det(s)`` is
    det(B_s), and ``type1(s)`` and ``type2(s)`` read B_s's Type I and Type
    II solutions from them with one back pass each (Gauss-Borel: a column
    of U^-1, a row of L^-1); the Type II of B_n reads the rider row.
    ``det()`` and ``signs`` describe the square part.
    """

    def __init__(self, m: Matrix, order: Optional[Sequence[int]] = None):
        n = m.cols
        #: column k of A is column order[k] of M
        self.order = list(range(n)) if order is None else list(order)
        self.scale: List[int] = []
        lu = []
        for row in m.data:
            # Star-unpack lists, not generators: a generator's argument tuple
            # is resized, and the resized tuples pile up on the free lists.
            d = math.lcm(*[v.denominator for v in row])
            self.scale.append(d)
            lu.append([row[c].numerator * (d // row[c].denominator) for c in self.order])
        #: content[k]: the gcd of column k of D M[:, order], 1 for a zero column
        self.content = [math.gcd(*col) or 1 for col in zip(*lu)]
        lu = [[v // g for v, g in zip(row, self.content)] for row in lu]
        #: row k of P A is row perm[k] of A
        self.perm = list(range(m.rows))
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

    def det(self, s: Optional[int] = None) -> Fraction:
        """det(B_s) = signs[s] U[s-1][s-1] prod(G[:s]) / prod(D[:s]), by
        default det(M)."""
        s = len(self.order) if s is None else s
        if not s:
            return Fraction(1)
        return Fraction(self.signs[s] * self.lu[s - 1][s - 1] * math.prod(self.content[:s]),
                        math.prod(self.scale[:s]))

    def normal(self, s: int) -> bool:
        """Whether B_s is regular."""
        return self.signs[s] != 0

    def type1(self, s: int) -> Optional[List[Fraction]]:
        """c with B_s c = e_{s-1}, for s >= 1; None when B_s is singular.

        P D e_{s-1} is zero but at the position k of row s - 1.  That row,
        the block's last, moves only when it becomes the pivot of a column
        in which the block's rows it passes are zero, so the block's
        multipliers below it in column k are zero and the forward pass only
        scales its entry, to D[s-1] U[k-1][k-1].  Only the back pass on U
        runs, and gives G c (in the order of A's columns) as z / q.
        """
        if not self.signs[s]:
            return None
        lu = self.lu
        k = self.perm.index(s - 1)
        b = [0] * s
        b[k] = self.scale[s - 1] * (lu[k - 1][k - 1] if k else 1)
        z, q = _back(lu, b)
        # z is in the order of A's columns; c in the order of M's
        c = []
        for j in sorted(range(s), key=self.order.__getitem__):
            c.append(Fraction(z[j], q * self.content[j]))
        return c

    def type2(self, s: int) -> Optional[List[Fraction]]:
        """y with B_s^t y = -(row s of M on B_s's columns), for s < n or,
        with a rider row, s = n; None when B_s is singular.

        The forward pass of a solve with A_s^t would replay the
        elimination on row s of A; the elimination already did, and left
        that row's Bareiss multipliers in lu: when B_s is regular, row s
        gave none of its first s pivots (a rider row gives none at all).
        Only the back pass on L^t runs; y = -D P^t w / D[s].  The contents
        need no read-out: B_s^t = G_s A_s^t D_s^-1 and row s of M on B_s's
        columns is (row s of A) G_s / D[s], so G_s cancels and
        A_s^t (D_s^-1 y) = -(row s of A) / D[s], the system the factors of A
        solve.
        """
        if not self.signs[s]:
            return None
        w, q = _back(self.lut, self.lu[self.perm.index(s)][:s])
        q *= self.scale[s]
        y = [Fraction(0)] * s
        for k, i in enumerate(self.perm[:s]):
            y[i] = Fraction(-w[k] * self.scale[i], q)
        return y


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
    factorisation.

    Step k pivots on the first largest |entry| of column k and stops, M
    singular, when it is at most tol * max(1, max |entry of M|).  ``lu`` holds
    U and, below it, L's multipliers; row k of P M is row perm[k] of M.  The
    pivot search, that threshold and the Hadamard bound of ``normal`` read
    M's own entries, never the rider's.  Sums run left to right (``reduce``:
    ``sum()`` compensates from Python 3.12 on).

    The read-outs are ``ExactLU``'s.  A pivot may come from below a leading
    block, so the factors are M's and not its leading blocks': s, where a
    read-out takes it, is n, the size of M.  ``type1(s)`` solves M c =
    e_{n-1} and ``type2(s)`` M^t y = -(the rider row).
    """

    def __init__(self, m: Matrix, tol: float = FLOAT_TOL):
        n = m.cols
        a = [[float(v) for v in row] for row in m.data]
        #: the rider row, or None
        self.rider = a.pop() if m.rows > n else None
        scale = max([1.0] + [abs(v) for row in a for v in row])
        #: the Hadamard bound of M, prod_i max(1, |row i|)
        self.bound = 1.0
        for row in a:
            self.bound *= max(1.0, reduce(operator.add, (v * v for v in row), 0.0) ** 0.5)
        self.perm = list(range(n))
        #: det(P), or 0 when M is singular
        self.sign = 1
        for k in range(n):
            p = max(range(k, n), key=lambda i: abs(a[i][k]))
            if abs(a[p][k]) <= tol * scale:
                self.sign = 0
                break
            if p != k:
                a[k], a[p] = a[p], a[k]
                self.perm[k], self.perm[p] = self.perm[p], self.perm[k]
                self.sign = -self.sign
            for i in range(k + 1, n):
                f = a[i][k] = a[i][k] / a[k][k]
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
        self.lu = a

    def det(self, s: Optional[int] = None) -> float:
        """det(P) times the pivots' product, taken left to right; 0.0 when singular."""
        if not self.sign:
            return 0.0
        return self.sign * reduce(operator.mul, [row[k] for k, row in enumerate(self.lu)], 1.0)

    def normal(self, s: int) -> Optional[bool]:
        """False, None (indeterminate) or True as |det| falls below
        FLOAT_DET_LOW, between it and FLOAT_DET_HIGH, or above, times the
        Hadamard bound of M."""
        d = abs(self.det())
        if d <= FLOAT_DET_LOW * self.bound:
            return False
        return None if d < FLOAT_DET_HIGH * self.bound else True

    def type1(self, s: int) -> Optional[List[float]]:
        """c with M c = e_{n-1}; None when the factorisation stopped."""
        if not self.sign:
            return None
        b = [0.0] * len(self.lu)
        b[self.perm.index(len(b) - 1)] = 1.0
        return self._solve(b)

    def type2(self, s: int) -> Optional[List[float]]:
        """y with M^t y = -(the rider row): U^t z = -rider, L^t w = z, then
        y = P^t w; None when the factorisation stopped."""
        if not self.sign:
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
        return y

    def _solve(self, b: List[float]) -> List[float]:
        """x with M x = P^t b: L y = b, then U x = y."""
        lu, n = self.lu, len(b)
        for k in range(n):
            for i in range(k + 1, n):
                b[i] -= lu[i][k] * b[k]
        x = [0.0] * n
        for k in range(n - 1, -1, -1):
            x[k] = (b[k] - reduce(operator.add, (lu[k][j] * x[j] for j in range(k + 1, n)),
                                  0.0)) / lu[k][k]
        return x


def _check_square(m: Matrix) -> None:
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")


def det(m: Matrix) -> Scalar:
    """Determinant by ``ExactLU`` or ``FloatLU``; the 0x0 matrix has det 1."""
    _check_square(m)
    return (ExactLU(m) if m.is_exact() else FloatLU(m)).det()


def solve(m: Matrix, rhs: Sequence[Scalar]) -> List[Scalar]:
    """Solve m x = rhs by the kernel of m's entries; exact in rational mode.

    Exact mode reads x as the Type II solution of m^t with -rhs as the
    rider row; float mode factors m and substitutes the permuted rhs.
    Raises Singular (carrying the determinant value, 0 of m's scalar type)
    when no unique solution exists.
    """
    _check_square(m)
    if len(rhs) != m.rows:
        raise DimensionMismatch(f"rhs length {len(rhs)} != {m.rows}")
    if m.is_exact():
        rider = [-Fraction(v) for v in rhs]
        x = ExactLU(Matrix(m.rows + 1, m.cols, m.transpose().data + [rider])).type2(m.rows)
        if x is None:
            raise Singular(Fraction(0))
        return x
    lu = FloatLU(m)
    if not lu.sign:
        raise Singular(0.0)
    return lu._solve([float(rhs[i]) for i in lu.perm])


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

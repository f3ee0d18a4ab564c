"""Independent exact oracle for the benchmark.

Nothing here imports bimop.  Moments are re-derived from the family
formulas, block moment systems are re-assembled from the Cantor ordering,
and determinants and solves use a local integer Bareiss elimination, so a
defect in bimop's kernels cannot hide itself in the checks.

Run as a script to rebuild the stored normality tables:

    python3 perfbench/oracle.py

The tables (tables/*.json) list the non-normal indices of the two-measure
README system and of the four-measure product system over a fixed index
universe.  The workload generator uses them to pick all-normal paths and
normal product indices, and the checks use them to judge NotNormal outcomes.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from math import isqrt, lcm
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_DIR = os.path.join(HERE, "tables")

# The README config: the two-measure Laguerre system of the test suite.
PAIR_CONFIG = {"scalar": "exact", "measures": [
    {"kind": "tensor", "x": {"family": "laguerre", "alpha": 1},
     "y": {"family": "laguerre", "alpha": "2.3"}},
    {"kind": "tensor", "x": {"family": "laguerre", "alpha": "2.2"},
     "y": {"family": "laguerre", "alpha": "3.4"}}]}

# Product config: univariate x and y systems whose tensor products, ordered
# (i, j) row-major, form the four-measure system QUAD_CONFIG.
PRODUCT_CONFIG = {"scalar": "exact",
                  "x": [{"family": "laguerre", "alpha": 1},
                        {"family": "laguerre", "alpha": "2.2"}],
                  "y": [{"family": "laguerre", "alpha": "2.3"},
                        {"family": "laguerre", "alpha": "3.4"}]}

QUAD_CONFIG = {"scalar": "exact", "measures": [
    {"kind": "tensor", "x": fx, "y": fy}
    for fx in PRODUCT_CONFIG["x"] for fy in PRODUCT_CONFIG["y"]]}

# Index universes covered by the stored tables.
PAIR_TABLE_MAX = 48
QUAD_TABLE_FULL = 15           # every 4-index up to this modulus
QUAD_TABLE_MODULI = range(16, 49, 2)  # plus sampled 4-indices at these
QUAD_TABLE_SAMPLES = 150


def unpair(z: int) -> Tuple[int, int]:
    w = (isqrt(8 * z + 1) - 1) // 2
    s = z - w * (w + 1) // 2
    return w - s, s


def pair(t: int, s: int) -> int:
    return (t + s) * (t + s + 1) // 2 + s


class Family:
    """Univariate moments m_k from a config family object."""

    def __init__(self, doc):
        kind = doc["family"]
        self.moments: List[Fraction] = [Fraction(1)]
        if kind == "laguerre":
            a = Fraction(str(doc["alpha"]))
            self._next = lambda k, prev: prev * (a + k)
        elif kind == "jacobi":
            a = Fraction(str(doc["a"]))
            self._next = lambda k, prev: (a + 1) / (a + k + 1)
        else:
            raise ValueError(f"unsupported family {kind!r}")

    def moment(self, k: int) -> Fraction:
        ms = self.moments
        while len(ms) <= k:
            ms.append(self._next(len(ms), ms[-1]))
        return ms[k]


def bareiss(rows: List[List[int]], ncols: int) -> Tuple[int, List[List[int]]]:
    """Fraction-free elimination on the first ncols columns, in place.

    Returns (det, rows) where rows is upper triangular in those columns and
    any further columns were carried along; det is 0 when singular.
    """
    n = len(rows)
    width = len(rows[0]) if rows else 0
    sign, prev = 1, 1
    for k in range(ncols):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0, rows
        rk = rows[k]
        akk = rk[k]
        for i in range(k + 1, n):
            ri = rows[i]
            aik = ri[k]
            for j in range(k + 1, width):
                ri[j] = (ri[j] * akk - aik * rk[j]) // prev
            ri[k] = 0
        prev = akk
    return sign * (rows[n - 1][n - 1] if n else 1), rows


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[int]], List[int]]:
    out, scales = [], []
    for row in rows:
        s = 1
        for v in row:
            s = lcm(s, v.denominator)
        out.append([v.numerator * (s // v.denominator) for v in row])
        scales.append(s)
    return out, scales


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    if not rows:
        return Fraction(1)
    ints, scales = _integer_rows(rows)
    d, _ = bareiss(ints, len(ints))
    den = 1
    for s in scales:
        den *= s
    return Fraction(d, den)


def solve(aug: Sequence[Sequence[Fraction]]) -> Optional[List[Fraction]]:
    """Solve the square system given as augmented rows [A | b]; None if singular."""
    n = len(aug)
    ints, _ = _integer_rows(aug)
    d, u = bareiss(ints, n)
    if d == 0:
        return None
    x: List[Fraction] = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        row = u[k]
        s = Fraction(row[n]) - sum(row[j] * x[j] for j in range(k + 1, n))
        x[k] = s / row[k]
    return x


def _residual_zero(rows: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> bool:
    """True iff A x = b exactly for augmented rows [A | b], in integers."""
    q = 1
    for v in x:
        q = lcm(q, v.denominator)
    xs = [v.numerator * (q // v.denominator) for v in x]
    ints, _ = _integer_rows(rows)
    for row in ints:
        if sum(a * b for a, b in zip(row, xs)) != row[-1] * q:
            return False
    return True


class System:
    """r bivariate tensor measures from a measure config document."""

    def __init__(self, doc):
        self.fams = [(Family(m["x"]), Family(m["y"])) for m in doc["measures"]]
        self.r = len(self.fams)
        self._cache: Dict[Tuple[int, int, int], Fraction] = {}
        self._normal: Dict[Tuple[int, ...], bool] = {}

    def moment(self, j: int, t: int, s: int) -> Fraction:
        key = (j, t, s)
        v = self._cache.get(key)
        if v is None:
            fx, fy = self.fams[j]
            v = self._cache[key] = fx.moment(t) * fy.moment(s)
        return v

    def _columns(self, n):
        return [(j, unpair(l)) for j, nj in enumerate(n) for l in range(nj)]

    def matrix(self, n) -> List[List[Fraction]]:
        """M_n: row k is the monomial unpair(k), column (j, l) block j."""
        cols = self._columns(n)
        out = []
        for k in range(sum(n)):
            kt, ks = unpair(k)
            out.append([self.moment(j, kt + lt, ks + ls) for j, (lt, ls) in cols])
        return out

    def type2_rows(self, n) -> List[List[Fraction]]:
        """Orthogonality conditions of the monic P_n, augmented with -b."""
        size = sum(n)
        top = unpair(size)
        rows = []
        for j, (lt, ls) in self._columns(n):
            row = [self.moment(j, kt + lt, ks + ls) for kt, ks in map(unpair, range(size))]
            row.append(-self.moment(j, top[0] + lt, top[1] + ls))
            rows.append(row)
        return rows

    def type1_rows(self, n) -> List[List[Fraction]]:
        size = sum(n)
        return [row + [Fraction(int(k == size - 1))]
                for k, row in enumerate(self.matrix(n))]

    def det(self, n) -> Fraction:
        return det(self.matrix(n))

    def normal(self, n) -> bool:
        key = tuple(n)
        v = self._normal.get(key)
        if v is None:
            v = self._normal[key] = self.det(key) != 0
        return v

    def type2(self, n) -> Optional[List[Fraction]]:
        """Coefficients of the monic Type II polynomial; None if not normal."""
        if sum(n) == 0:
            return [Fraction(1)]
        c = solve(self.type2_rows(n))
        return None if c is None else c + [Fraction(1)]

    def type1(self, n) -> Optional[List[List[Fraction]]]:
        """Per-measure Type I coefficient blocks; None if not normal."""
        c = solve(self.type1_rows(n))
        if c is None:
            return None
        out, offset = [], 0
        for nj in n:
            out.append(c[offset:offset + nj])
            offset += nj
        return out

    def type2_ok(self, n, coeffs: Sequence[Fraction]) -> bool:
        """Exact check of a claimed monic Type II polynomial."""
        size = sum(n)
        if len(coeffs) != size + 1 or coeffs[size] != 1:
            return False
        return _residual_zero(self.type2_rows(n), coeffs[:size])

    def type1_ok(self, n, blocks: Sequence[Sequence[Fraction]]) -> bool:
        """Exact check of claimed Type I blocks (block j has < n_j entries)."""
        if len(blocks) != len(n) or any(len(b) > nj for b, nj in zip(blocks, n)):
            return False
        flat = []
        for b, nj in zip(blocks, n):
            flat.extend(list(b) + [Fraction(0)] * (nj - len(b)))
        return _residual_zero(self.type1_rows(n), flat)


    def pairing(self, n, m) -> Optional[Fraction]:
        """<P_n, Q_m> = sum_j <P_n, A_{m,j}>_j; None if n or m is not normal."""
        p, blocks = self.type2(n), self.type1(m)
        if p is None or blocks is None:
            return None
        total = Fraction(0)
        for j, block in enumerate(blocks):
            for l, a in enumerate(block):
                lt, ls = unpair(l)
                for z, c in enumerate(p):
                    zt, zs = unpair(z)
                    total += c * a * self.moment(j, zt + lt, zs + ls)
        return total


class UniSystem:
    """Univariate system for the product construction."""

    def __init__(self, docs):
        self.fams = [Family(d) for d in docs]

    def type2(self, n) -> Optional[List[Fraction]]:
        size = sum(n)
        if size == 0:
            return [Fraction(1)]
        rows = [[f.moment(k + l) for l in range(size)] + [-f.moment(size + k)]
                for f, nj in zip(self.fams, n) for k in range(nj)]
        c = solve(rows)
        return None if c is None else c + [Fraction(1)]


def product_poly(x: UniSystem, y: UniSystem, n, m) -> Optional[List[Fraction]]:
    """Coefficients, by Cantor position, of P_n(x) P_m(y)."""
    px, py = x.type2(n), y.type2(m)
    if px is None or py is None:
        return None
    out = [Fraction(0)] * (pair(sum(n), sum(m)) + 1)
    for t, cx in enumerate(px):
        for s, cy in enumerate(py):
            out[pair(t, s)] += cx * cy
    return out


def rel_error(approx: Sequence[float], exact: Sequence[Fraction]) -> float:
    """Normwise relative error max|a - e| / max(1, max|e|)."""
    if len(approx) != len(exact):
        return float("inf")
    scale = max([1.0] + [abs(float(e)) for e in exact])
    err = max([0.0] + [abs(float(a) - float(e)) for a, e in zip(approx, exact)])
    return err / scale


class NormalityTable:
    """Stored non-normal indices of a fixed system over a fixed universe."""

    def __init__(self, name: str):
        with open(os.path.join(TABLE_DIR, f"{name}.json")) as fh:
            doc = json.load(fh)
        self.config = doc["config"]
        self.full_to = doc["full_to_modulus"]
        self.covered = {tuple(n) for n in doc["extra"]}
        self.nonnormal = {tuple(n) for n in doc["nonnormal"]}
        self.by_modulus: Dict[int, List[Tuple[int, ...]]] = {}
        for n in doc["extra"]:
            self.by_modulus.setdefault(sum(n), []).append(tuple(n))

    def is_normal(self, n) -> bool:
        n = tuple(n)
        if sum(n) > self.full_to and n not in self.covered:
            raise KeyError(f"{n} is outside the stored table")
        return n not in self.nonnormal


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def sampled_compositions(total: int, count: int, rng, parts: int = 4):
    """Distinct uniformly drawn compositions (stars and bars), in draw order."""
    out = {}
    for _ in range(count):
        cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
        bounds = [0] + cuts + [total]
        out.setdefault(tuple(b - a for a, b in zip(bounds, bounds[1:])), None)
    return list(out)


def build_tables(out_dir: str = TABLE_DIR) -> None:
    os.makedirs(out_dir, exist_ok=True)
    pair_sys = System(PAIR_CONFIG)
    bad = [n for mod in range(PAIR_TABLE_MAX + 1)
           for n in compositions(mod, 2) if not pair_sys.normal(n)]
    _write(out_dir, "pair", PAIR_CONFIG, PAIR_TABLE_MAX, [], bad)

    quad_sys = System(QUAD_CONFIG)
    # Normal 4-indices are sparse and unbalanced beyond small moduli, so the
    # larger moduli are covered by a fixed sample of compositions.
    rng = random.Random("quad-table")
    extra = [n for mod in QUAD_TABLE_MODULI
             for n in sampled_compositions(mod, QUAD_TABLE_SAMPLES, rng)]
    universe = [n for mod in range(QUAD_TABLE_FULL + 1)
                for n in compositions(mod, 4)] + extra
    bad = [n for n in universe if not quad_sys.normal(n)]
    _write(out_dir, "quad", QUAD_CONFIG, QUAD_TABLE_FULL, extra, bad)


def _write(out_dir, name, config, full_to, extra, bad):
    doc = {"config": config, "full_to_modulus": full_to,
           "extra": [list(n) for n in extra],
           "nonnormal": [list(n) for n in bad]}
    with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{name}: {len(bad)} non-normal indices", file=sys.stderr)


if __name__ == "__main__":
    build_tables()

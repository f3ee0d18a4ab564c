"""Structural theorems as executable checks: biorthogonality, polynomial
vectors, and the nearest-neighbour recurrences.

Recurrences are verified, never used as constructors: every polynomial on a
path is solved from its moment matrix, the recurrence coefficients are
computed as biorthogonality pairings, and the residual of the claimed
identity is compared to zero coefficientwise.  Every verifier runs on the
system's exact twin (``mopcore.on_exact_system``), so each verdict is an
exact identity in both scalar modes; a float system gets the exact values
rounded to float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import multiindex as mi
from .errors import ChainInvalid, EmptyIndex, IndexTooSmall, PathInvalid
from .linalg import Matrix, Scalar, format_scalar
from .measures import MeasureSystem
from .mopcore import (BiPoly, _index, cleared, combine, moment_rows, on_exact_system,
                      shifted, solve_path, type1, type1_form, type2, type2_form)
from .record import Record


class BiorthResult(Record):
    """One pairing <P_n, Q_m> with the branch of the biorthogonality law.

    matches is None on the unconstrained branch, else whether the exact
    pairing equals the law's value; a float system reports that pairing
    rounded to float.
    """

    value: Scalar
    expected: Optional[int]
    label: str
    matches: Optional[bool]


def biorth(sys: MeasureSystem, n: Sequence[int], m: Sequence[int]) -> BiorthResult:
    """Pairing <P_n, Q_m> plus the predicted case of the biorthogonality law."""
    return biorth_row(sys, n, [m])[0]


@on_exact_system
def biorth_row(sys: MeasureSystem, n: Sequence[int],
               ms: Sequence[Sequence[int]]) -> List[BiorthResult]:
    """``biorth(sys, n, m)`` for each m of ms, P_n's moment rows built once.

    P_n is read before the first Q_m, as one ``biorth`` call would read
    them; an empty ms reads nothing.  Both are read in the form the
    pairing takes (``type2_form``, ``type1_form``).
    """
    n, ms = tuple(n), [tuple(m) for m in ms]
    if not ms:
        return []
    pair = moment_rows(sys, type2_form(sys, n))
    out = []
    for m in ms:
        value = pair(type1_form(sys, m))
        if mi.leq(m, n):
            expected, label = 0, "m<=n"
        elif sum(n) <= sum(m) - 2:
            expected, label = 0, "|n|<=|m|-2"
        elif sum(n) == sum(m) - 1:
            expected, label = 1, "|n|=|m|-1"
        else:
            expected, label = None, "unconstrained"
        matches = None if expected is None else value == expected
        out.append(BiorthResult(value, expected, label, matches))
    return out


class BiorthMatrixResult(Record):
    matrix: Matrix
    case: str
    matches: Optional[bool]


def _chain(chain: Sequence[Sequence[int]], name: str = "",
           d: Optional[int] = None) -> Tuple[List[Tuple[int, ...]], int]:
    """The chain's indices as tuples and its degree d, one less than their
    number unless d is given; ChainInvalid unless they form a valid
    degree-d chain."""
    chain = [tuple(c) for c in chain]
    if d is None and not chain:
        raise ChainInvalid(f"{name}not a valid chain: it has no index")
    d = len(chain) - 1 if d is None else d
    if not mi.validate_chain(chain, d):
        raise ChainInvalid(f"{name}not a valid degree-{d} chain")
    return chain, d


@on_exact_system
def biorth_matrix(sys: MeasureSystem,
                  chain_n: Sequence[Sequence[int]],
                  chain_m: Sequence[Sequence[int]]) -> BiorthMatrixResult:
    """The (d+1) x (h+1) pairing matrix of two chains with its pattern verdict.

    Row k is ``biorth_row(sys, n_k, chain_m)``, so every entry is judged by
    the biorthogonality law; in each constrained case the law fixes every
    entry, and matches says whether all of them hold.
    """
    chain_n, d = _chain(chain_n, "first chain is ")
    chain_m, h = _chain(chain_m, "second chain is ")
    # Chains that join are solved as one neighbour path, others as one path
    # each.  chain_m is solved once P_{n_0} is read, so a bad index in it
    # raises after P_{n_0}'s own errors, in pairing order.
    joined = chain_n + chain_m
    solve_path(sys, joined if mi.Path(tuple(joined)).is_valid() else chain_n)
    type2_form(sys, chain_n[0])
    solve_path(sys, chain_m)
    rows = [biorth_row(sys, n, chain_m) for n in chain_n]

    if mi.leq(chain_m[-1], chain_n[0]):
        case = "zero (m_h <= n_0)"
    elif chain_m == chain_n:
        case = "shifted identity"
    elif h == d + 1:
        case = "unit bottom-left"
    elif h >= d + 2:
        case = "zero (h >= d+2)"
    else:
        case = "unconstrained"
    matches = None if case == "unconstrained" else all(res.matches for row in rows for res in row)
    b = Matrix.from_rows([[res.value for res in row] for row in rows])
    return BiorthMatrixResult(matrix=b, case=case, matches=matches)


class MOPV(Record):
    """Type II polynomial vector of one total degree with its index chain."""

    degree: int
    chain: Tuple[Tuple[int, ...], ...]
    polys: Tuple[BiPoly, ...]
    pattern_ok: bool

    def g_matrix(self, k: int) -> Matrix:
        """Coefficient matrix on the monomials of total degree k."""
        base = k * (k + 1) // 2
        return Matrix.from_rows([[p[base + m] for m in range(k + 1)] for p in self.polys])


class TypeIMOPV(Record):
    """Per-measure stacks of Type I polynomials along one index chain."""

    degree: int
    chain: Tuple[Tuple[int, ...], ...]
    rows: Tuple[Tuple[BiPoly, ...], ...]  # rows[j-1][k] = A_{n_k, j}
    pattern_ok: bool


@on_exact_system
def assemble_type2_vector(sys: MeasureSystem, chain: Sequence[Sequence[int]]) -> MOPV:
    """Solve the chain's Type II polynomials and verify the Gram pattern.

    Row k of the Gram matrix against the ordered monomials must open with
    n_{k,j} zeros for measure j.
    """
    chain, d = _chain(chain)
    polys = tuple(type2(sys, n) for n in chain)
    ok = all(gram_form_holds(sys, n, type2_form(sys, n)) for n in chain)
    return MOPV(degree=d, chain=tuple(chain), polys=polys, pattern_ok=ok)


@on_exact_system
def gram_pattern_holds(sys: MeasureSystem, n: Sequence[int], p: BiPoly) -> bool:
    """True iff <p, x^t y^s>_j vanishes for the first n_j monomials of each j
    (the Type II conditions of n).  p is judged exactly, as the rationals its
    coefficients denote, float ones included (``cleared``)."""
    return gram_form_holds(sys, n, cleared((p,)))


def gram_form_holds(sys: MeasureSystem, n: Sequence[int], form) -> bool:
    """``gram_pattern_holds`` for the polynomial of a cleared form ([P], d),
    on an exact system: P paired against each monomial's unit form.  A
    Type II polynomial is judged in its cached form (``type2_form``).  n is
    checked as every solver entry checks it (``mopcore._index``)."""
    n = _index(sys, n)
    pair = moment_rows(sys, form)
    return all(pair(([[0] * l + [1]], 1), j) == 0
               for j, nj in enumerate(n, start=1) for l in range(nj))


@on_exact_system
def assemble_type1_vectors(sys: MeasureSystem, chain: Sequence[Sequence[int]]) -> TypeIMOPV:
    """Solve the chain's Type I sets and verify the 0...0,1 row pattern."""
    chain, d = _chain(chain)
    sets = [type1(sys, n) for n in chain]
    r = sys.r
    ok = True
    for n in chain:
        size = sum(n)
        for l in range(size):
            total = moment_rows(sys, ([[0] * l + [1]], 1))(type1_form(sys, n))
            want = 1 if l == size - 1 else 0
            if total != want:
                ok = False
    rows = tuple(tuple(sets[k].polys[j] for k in range(d + 1)) for j in range(r))
    return TypeIMOPV(degree=d, chain=tuple(chain), rows=rows, pattern_ok=ok)


class NNRReport(Record):
    """Outcome of one recurrence check.

    coefficients holds (modulus, value) pairs; for the vector variants the
    per-degree matrices live in `matrices` instead and `residual` is the
    list of row residual polynomials.
    """

    variant: str
    path: mi.Path
    holds: bool
    coefficients: List[Tuple[int, Scalar]] = []
    residual: object = None
    vanishing_ok: Optional[bool] = None
    low_unit_ok: Optional[bool] = None
    matrices: Optional[Dict[int, Matrix]] = None

    def to_json(self) -> dict:
        doc = {
            "variant": self.variant,
            "holds": self.holds,
            "path": [list(step) for step in self.path.steps],
            "coefficients": [{"modulus": k, "value": format_scalar(v)}
                             for k, v in self.coefficients],
        }
        if isinstance(self.residual, BiPoly):
            doc["residual"] = self.residual.pretty()
        elif isinstance(self.residual, (list, tuple)):
            doc["residual"] = [p.pretty() for p in self.residual]
        if self.vanishing_ok is not None:
            doc["vanishing_ok"] = self.vanishing_ok
        if self.low_unit_ok is not None:
            doc["low_unit_ok"] = self.low_unit_ok
        if self.matrices is not None:
            doc["matrices"] = {str(h): [[format_scalar(v) for v in row] for row in m.data]
                               for h, m in self.matrices.items()}
        return doc


def _axis(axis: str):
    """The shift of an axis (``shifted``) and its top's offset above d_n: the
    expansion of x*P_n reaches modulus |n| + d_n + 1, that of y*P_n one more."""
    if axis not in ("x", "y"):
        raise PathInvalid(f"axis must be 'x' or 'y', got {axis!r}")
    return (mi.shift_x, 1) if axis == "x" else (mi.shift_y, 2)


def _expand(sys: MeasureSystem, shift, n: Tuple[int, ...], path: mi.Path, top: int,
            stop: int):
    """Type II expansion of xp = x*P_n or y*P_n (``shifted`` by shift) along
    a path up to modulus top.

    Returns the pairings a_i = <xp, Q_{m_{i+1}}> for i from the path's start
    up to stop - 1, skipping top, and the (c, form) terms of
    xp - P_{m_top} - sum a_i P_{m_i}, every polynomial a cleared form, as
    ``combine`` takes them.
    """
    (coeffs,), dp = type2_form(sys, n)
    xp = [shifted(coeffs, shift)], dp
    terms = [(1, xp), (-1, type2_form(sys, path.at_modulus(top)))]
    pair = moment_rows(sys, xp)
    coefficients = []
    for i in range(path.start_modulus, stop):
        if i == top:
            continue
        a = pair(type1_form(sys, path.at_modulus(i + 1)))
        coefficients.append((i, a))
        if a != 0:
            terms.append((-a, type2_form(sys, path.at_modulus(i))))
    return coefficients, terms


def _residuals(sys: MeasureSystem, sums):
    """Each term list summed by ``combine``, and whether every sum is zero."""
    residuals = [combine(sys, terms) for terms in sums]
    return residuals, not any(res.coeffs for res in residuals)


def _checked_path(path, waypoints, low: int, top: int,
                  entries: Sequence[Tuple[str, Tuple[int, ...]]]) -> mi.Path:
    """The caller's path, a Path or a sequence of indices, or by default the
    canonical path through waypoints; PathInvalid unless it is a neighbour
    path spanning moduli low..top whose entry of modulus |index| is index,
    for each (label, index) of entries."""
    if path is None:
        path = mi.canonical_path(waypoints)
    elif not isinstance(path, mi.Path):
        # tuple() of a list, not of a generator: a tuple built from a
        # generator is resized, and the resized tuples pile up on the free lists
        path = mi.Path(tuple([tuple(step) for step in path]))
    if not path.is_valid():
        raise PathInvalid("not a neighbour path")
    if path.start_modulus > low or path.end_modulus < top:
        raise PathInvalid(f"path must span moduli {low}..{top}")
    for label, index in entries:
        if path.at_modulus(sum(index)) != index:
            raise PathInvalid(f"path entry of modulus {sum(index)} must be {label}{index}")
    return path


@on_exact_system
def nnr_type2(sys: MeasureSystem, n: Sequence[int], axis: str,
              path=None, w: Optional[Sequence[int]] = None) -> NNRReport:
    """Check x*P_n (or y*P_n) against its nearest-neighbour expansion.

    Coefficients are the pairings <axis * P_n, Q_{m_{i+1}}>; the residual is
    axis*P_n - P_w - sum a_i P_{m_i}, compared to zero coefficientwise.
    Requires every n_j >= d_n + 1 so that v = n - (d_n + 1) stays natural.
    The whole path is solved by one factorisation.
    """
    shift, offset = _axis(axis)
    n = tuple(n)
    r = len(n)
    p = mi.params(n)
    d = p.degree
    if any(nj < d + 1 for nj in n):
        raise IndexTooSmall(f"need n_j >= d_n + 1 = {d + 1} for all components of {n}")
    v = tuple([nj - d - 1 for nj in n])
    bump = d + offset
    top = p.modulus + bump
    if path is None and w is None:
        w = (n[0] + bump,) + n[1:]
    path = _checked_path(path, [v, n, w], sum(v), top, [("v = ", v), ("", n)])
    w_top = path.at_modulus(top)
    if w is not None and tuple(w) != w_top:
        raise PathInvalid(f"path entry of modulus {top} is {w_top}, expected {tuple(w)}")

    solve_path(sys, path.steps)
    coefficients, terms = _expand(sys, shift, n, path, top, top)
    (residual,), zero = _residuals(sys, [terms])
    vanish_below = p.modulus - (d + 1) * r
    vanishing_ok = all(a == 0 for i, a in coefficients if i < vanish_below)
    return NNRReport(variant=f"{axis}P", path=path, holds=zero and vanishing_ok,
                     coefficients=coefficients, residual=residual,
                     vanishing_ok=vanishing_ok)


@on_exact_system
def nnr_type1(sys: MeasureSystem, n: Sequence[int], axis: str,
              path=None) -> NNRReport:
    """Check x*Q_n (or y*Q_n) against its nearest-neighbour expansion.

    Verifies the per-measure coefficient identity
    axis*A_{n,j} = sum a_k A_{m_k,j}, which is stronger than the summed
    function identity.  low_unit_ok reports whether the coefficient at the
    lowest modulus of the expansion is exactly 1; that claim only follows
    from the orthogonality conditions when the remainder k_n is >= 1 for
    axis x and >= 2 for axis y, so it does not gate `holds`.  The low term
    is dropped entirely when the low index is the zero index (Q there is 0).
    """
    shift, offset = _axis(axis)
    n = tuple(n)
    r = len(n)
    p = mi.params(n)
    d = p.degree
    if p.modulus == 0:
        raise EmptyIndex("Type I is undefined for the zero index")
    bump = d + offset
    low_mod = p.modulus - bump + 1
    if low_mod < 0:
        raise IndexTooSmall(f"modulus {p.modulus} too small for axis {axis}")
    top = p.modulus + bump * r
    end = tuple([nj + bump for nj in n])
    path = _checked_path(path, [(0,) * r, n, end], low_mod, top, [("", n), ("", end)])

    # Extend below the theorem's range down to the zero index; the extension
    # only feeds the vanishing and unit-coefficient checks, whose values are
    # path-independent.  A path that starts at modulus 0 is not extended, so
    # a negative component there is reported by the solve.
    steps = path.steps
    if path.start_modulus > 0:
        steps = mi.canonical_path([(0,) * r, steps[0]]).steps + steps[1:]
    full = mi.Path(steps)
    solve_path(sys, steps[:top + 1])

    blocks, da = type1_form(sys, n)
    xa = [([shifted(a, shift)], da) for a in blocks]
    pairs = [moment_rows(sys, a) for a in xa]

    coefficients = []
    for k in range(1, top + 1):
        # The cleared P is also the cleared form of the one-term (P,).
        pk = type2_form(sys, full.at_modulus(k - 1))
        coefficients.append((k, sum(pair(pk, j) for j, pair in enumerate(pairs, start=1))))
    by_mod = dict(coefficients)

    vanishing_ok = all(by_mod[k] == 0 for k in range(1, low_mod))
    low_unit_ok = None
    if low_mod >= 1:
        low_unit_ok = by_mod[low_mod] == 1

    # Residual of the expansion with the computed coefficients, measure by
    # measure; the unit-low-coefficient claim is reported separately because
    # it needs the remainder k_n >= 1 (axis x) or >= 2 (axis y) to follow
    # from the orthogonality conditions.
    sums = []
    for j in range(1, r + 1):
        terms = [(1, xa[j - 1])]
        for k in range(1, top + 1):
            a = by_mod[k]
            if a != 0:
                blocks, dk = type1_form(sys, full.at_modulus(k))
                terms.append((-a, ([blocks[j - 1]], dk)))
        sums.append(terms)
    residuals, zero = _residuals(sys, sums)
    return NNRReport(variant=f"{axis}Q", path=full, holds=zero and vanishing_ok,
                     coefficients=coefficients, residual=residuals,
                     vanishing_ok=vanishing_ok, low_unit_ok=low_unit_ok)


def default_vector_chains(chain: Sequence[Sequence[int]]):
    """Deterministic lower (degrees 0..d-1) and upper (degree d+1) chains."""
    chain, d = _chain(chain)
    r = len(chain[0])
    n0, nd = chain[0], chain[-1]
    u = tuple([c - (d + 1) for c in n0])
    waypoints = [(0,) * r]
    if all(c >= 0 for c in u):
        waypoints.append(u)
    waypoints.append(n0)
    ascent = mi.canonical_path(waypoints).steps[:-1]
    lower = [list(ascent[h * (h + 1) // 2: h * (h + 1) // 2 + h + 1]) for h in range(d)]
    top = (nd[0] + d + 2,) + nd[1:]
    upper = list(mi.canonical_path([nd, top]).steps[1:])
    return lower, upper


@on_exact_system
def nnr_vector(sys: MeasureSystem, chain: Sequence[Sequence[int]], axis: str,
               lower=None, upper=None) -> NNRReport:
    """Vector nearest-neighbour check for one degree-d polynomial vector.

    Stacks the scalar expansions of axis*P_{n_k} into matrices A_h and
    verifies both the residual and the forced leading selection matrix
    (identity columns into the degree d+1 vector).
    """
    shift, offset = _axis(axis)
    chain, d = _chain(chain)
    r = len(chain[0])
    if lower is None or upper is None:
        dflt_lower, dflt_upper = default_vector_chains(chain)
        lower = dflt_lower if lower is None else lower
        upper = dflt_upper if upper is None else upper
    lower = list(lower)
    if len(lower) != d:
        raise ChainInvalid(f"need lower chains for degrees 0..{d - 1}")
    lower = [_chain(ch, f"lower chain {h} is ", h)[0] for h, ch in enumerate(lower)]
    upper, _ = _chain(upper, "upper chain is ", d + 1)
    steps = tuple([x for ch in lower for x in ch]) + tuple(chain) + tuple(upper)
    gpath = mi.Path(steps)
    if not gpath.is_valid():
        raise ChainInvalid("chains do not concatenate into a neighbour path")

    n0 = chain[0]
    cutoff = sum(n0) - (d + 1) * r
    kk = max((h for h in range(d) if h * (h + 1) // 2 < cutoff), default=0)
    u = tuple([c - (d + 1) for c in n0])
    if cutoff > 0 and all(c >= 0 for c in u) and gpath.at_modulus(sum(u)) != u:
        raise ChainInvalid(f"required waypoint {u} missing from the path")

    bump = d + offset
    base = (d + 1) * (d + 2) // 2
    gtop = sum(chain[-1]) + bump
    solve_path(sys, steps[:gtop - gpath.start_modulus + 1])
    amats = {h: [[Fraction(0)] * (h + 1) for _ in range(d + 1)] for h in range(d + 2)}
    sums = []
    # Row k must hit entry row_top - base of the degree d+1 vector with a
    # unit coefficient and nothing above it; entries below it are genuine
    # expansion data and are reported, not forced to zero.
    leading_ok = True
    for k, nk in enumerate(chain):
        row_top = sum(nk) + bump
        amats[d + 1][k][row_top - base] = Fraction(1)
        coefficients, terms = _expand(sys, shift, nk, gpath, row_top, gtop)
        for i, a in coefficients:
            lt, ls = mi.unpair(i)
            amats[lt + ls][k][ls] = a
            if i > row_top and a != 0:
                leading_ok = False
        sums.append(terms)
    residuals, zero = _residuals(sys, sums)

    vanishing_ok = all(v == 0 for h in range(max(kk - 1, 0)) for row in amats[h] for v in row)
    matrices = {h: Matrix.from_rows(amats[h]) for h in range(d + 2)}
    return NNRReport(variant=f"vector-{axis}", path=gpath,
                     holds=leading_ok and vanishing_ok and zero,
                     residual=residuals, vanishing_ok=vanishing_ok,
                     low_unit_ok=leading_ok, matrices=matrices)

"""Biorthogonality, polynomial vectors, and the recurrence checks."""

import itertools
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from bimop import (
    BiPoly,
    ChainInvalid,
    DimensionMismatch,
    EmptyIndex,
    IndexOutOfRange,
    IndexTooSmall,
    Laguerre,
    MeasureSystem,
    NotNormal,
    PathInvalid,
    TensorMeasure,
    UniPoly,
    ValidationError,
    assemble_type1_vectors,
    assemble_type2_vector,
    biorth,
    biorth_matrix,
    biorth_row,
    canonical_path,
    default_vector_chains,
    nnr_type1,
    nnr_type2,
    nnr_vector,
    normality,
    params,
    type1,
    type1_pairing,
    type2,
    uni_type1,
    uni_type2,
    unpair,
)
from bimop import mopcore, relations
from conftest import make_pair_system, make_uni_pair_system, times, uni_inner

CHAIN_D2 = [(1, 2), (1, 3), (2, 3)]
UNI_GRID = list(itertools.product(range(4), repeat=2))


# ---------------------------------------------------------------------------
# Biorthogonality


def test_biorth_branches(duo):
    assert biorth(duo, (2, 2), (1, 2)).label == "m<=n"
    assert biorth(duo, (2, 2), (1, 2)).value == 0
    assert biorth(duo, (1, 1), (3, 2)).label == "|n|<=|m|-2"
    assert biorth(duo, (1, 1), (3, 2)).value == 0
    assert biorth(duo, (2, 2), (2, 3)).label == "|n|=|m|-1"
    assert biorth(duo, (2, 2), (2, 3)).value == 1
    assert biorth(duo, (3, 0), (1, 2)).label == "unconstrained"
    assert biorth(duo, (3, 0), (1, 2)).matches is None


def test_biorth_grid(duo):
    for i in range(6):
        for j in range(6 - i):
            for a in range(6):
                for b in range(6 - a):
                    if a + b == 0:
                        continue
                    res = biorth(duo, (i, j), (a, b))
                    assert res.matches is not False


def _pairing(sys_, p, qs):
    """sum_j <p, qs[j-1]>_j as one Fraction, term by term from sys.moment."""
    total = F(0)
    for j, q in enumerate(qs, start=1):
        for u, cu in enumerate(p.coeffs):
            for v, cv in enumerate(q.coeffs):
                (ut, us), (vt, vs) = unpair(u), unpair(v)
                total += F(cu) * F(cv) * sys_.moment(j, ut + vt, us + vs)
    return total


def _normal_indices(sys_, bound):
    out = [()]
    for _ in range(sys_.r):
        out = [t + (c,) for t in out for c in range(bound + 1)]
    return [n for n in out if sum(n) <= bound and normality(sys_, n).normal]


@pytest.mark.parametrize("system, bound", [("duo", 4), ("quad", 3)])
def test_biorth_row_against_a_direct_fraction_pairing(system, bound, request):
    """Each row value is <P_n, Q_m> summed from the moments, and its law holds."""
    sys_ = request.getfixturevalue(system)
    normal = _normal_indices(sys_, bound)
    ms = [m for m in normal if sum(m)]
    assert len(ms) >= 10
    for n in normal:
        row = biorth_row(sys_, n, ms)
        assert len(row) == len(ms)
        p = type2(sys_, n)
        for m, res in zip(ms, row):
            assert res.value == _pairing(sys_, p, type1(sys_, m).polys), (n, m)
            if res.label == "unconstrained":
                assert (res.expected, res.matches) == (None, None)
            else:
                assert res.matches is True and res.value == res.expected


def test_biorth_row_reads_p_n_first_and_nothing_for_no_m(quad):
    """P_n is read before any Q_m, so a non-normal n raises first; an empty
    row reads nothing, not even a non-normal P_n."""
    with pytest.raises(NotNormal) as err:
        biorth_row(quad, (3, 3, 3, 3), [(1, 0, 0, 0), (3, 3, 3, 3)])
    assert err.value.index == (3, 3, 3, 3)
    with pytest.raises(NotNormal) as err:
        biorth_row(quad, (1, 0, 0, 0), [(1, 0, 0, 0), (3, 3, 3, 3)])
    assert err.value.index == (3, 3, 3, 3)
    assert biorth_row(quad, (3, 3, 3, 3), []) == []


def test_biorth_float_matches_within_tolerance(duo_float):
    """A float system's pairing is judged exactly and reported as the exact
    value rounded to float: <P_(2,2), Q_(2,3)> = 1 exactly."""
    res = biorth(duo_float, (2, 2), (2, 3))
    assert type(res.value) is float and res.value == 1.0
    assert res.matches is True
    assert biorth(duo_float, (3, 0), (1, 2)).matches is None


def test_biorth_law_on_a_univariate_system():
    """On the univariate system Laguerre(1), Jacobi(1/2), biorth for every
    n and nonzero m <= (3, 3) gives <P_n, Q_m> as the families' moments
    give it, and the law holds on every constrained branch."""
    uni = make_uni_pair_system()
    constrained = 0
    for n in UNI_GRID:
        p = uni_type2(uni, n).coeffs
        for m in UNI_GRID:
            if not sum(m):
                continue
            res = biorth(uni, n, m)
            assert res.value == sum(uni_inner(uni, j, p, a.coeffs)
                                    for j, a in enumerate(uni_type1(uni, m), start=1))
            assert res.matches is not False, (n, m)
            constrained += res.matches is True
    # 240 pairs less the 50 where m is not <= n and |n| >= |m|
    assert constrained == 190


def test_biorth_matrix_same_chain(duo):
    res = biorth_matrix(duo, CHAIN_D2, CHAIN_D2)
    assert res.case == "shifted identity"
    assert res.matches
    assert res.matrix.data == [[F(0), F(1), F(0)],
                               [F(0), F(0), F(1)],
                               [F(0), F(0), F(0)]]


def test_biorth_matrix_low_second_chain(duo):
    res = biorth_matrix(duo, CHAIN_D2, [(0, 1), (1, 1)])
    assert res.case.startswith("zero")
    assert res.matches


def test_biorth_matrix_next_degree(duo):
    res = biorth_matrix(duo, CHAIN_D2, [(2, 4), (3, 4), (3, 5), (4, 5)])
    assert res.case == "unit bottom-left"
    assert res.matches
    assert res.matrix.data[2][0] == 1


def test_biorth_matrix_far_degree(duo):
    chain = [(3, 7), (4, 7), (4, 8), (5, 8), (5, 9)]
    res = biorth_matrix(duo, CHAIN_D2, chain)
    assert res.case == "zero (h >= d+2)"
    assert res.matches


def test_biorth_matrix_unconstrained(duo):
    """A second chain of lower degree whose top, (0, 2), is not <= the first
    chain's bottom, (2, 1), matches no law: no entry has an expected value."""
    res = biorth_matrix(duo, [(2, 1), (2, 2), (3, 2)], [(0, 1), (0, 2)])
    assert res.case == "unconstrained"
    assert res.matches is None


def _chains(d):
    """Every degree-d chain of two-component indices."""
    base = d * (d + 1) // 2
    out = [[(base - s, s)] for s in range(base + 1)]
    for _ in range(d):
        out = [c + [step] for c in out
               for step in ((c[-1][0] + 1, c[-1][1]), (c[-1][0], c[-1][1] + 1))]
    return out


def _pattern(case, d, h):
    """The (d+1) x (h+1) matrix of a constrained case, written out."""
    if case == "shifted identity":
        return [[1 if i == k + 1 else 0 for i in range(h + 1)] for k in range(d + 1)]
    if case == "unit bottom-left":
        return [[1 if (k, i) == (d, 0) else 0 for i in range(h + 1)] for k in range(d + 1)]
    assert case in ("zero (m_h <= n_0)", "zero (h >= d+2)")
    return [[0] * (h + 1) for _ in range(d + 1)]


def test_biorth_matrix_constrained_cases_hold_their_patterns():
    """Every pair of a chain of degree <= 2 and one of degree 1 to 3: a
    constrained case equals its pattern entry by entry, and the
    unconstrained case judges nothing."""
    sys_ = make_pair_system()
    calls = 0
    for d in range(3):
        for h in range(1, 4):
            for chain_n in _chains(d):
                for chain_m in _chains(h):
                    res = biorth_matrix(sys_, chain_n, chain_m)
                    calls += 1
                    if res.case == "unconstrained":
                        assert res.matches is None
                    else:
                        assert res.matches is True
                        assert res.matrix.data == _pattern(res.case, d, h)
    assert calls == 1596


def test_biorth_matrix_rejects_bad_chain(duo):
    with pytest.raises(ChainInvalid):
        biorth_matrix(duo, [(1, 2), (3, 2)], CHAIN_D2)
    with pytest.raises(ChainInvalid, match="second chain"):
        biorth_matrix(duo, CHAIN_D2, [(1, 2), (3, 2)])


# ---------------------------------------------------------------------------
# Polynomial vectors


def test_assemble_type2_vector(duo):
    mv = assemble_type2_vector(duo, CHAIN_D2)
    assert mv.degree == 2
    assert mv.pattern_ok
    # leading monomials are x^2, xy, y^2 in order
    for k, p in enumerate(mv.polys):
        assert unpair(len(p.coeffs) - 1) == (2 - k, k)


@pytest.mark.parametrize("assemble", [assemble_type2_vector, assemble_type1_vectors])
def test_assemble_rejects_bad_chain(duo, assemble):
    with pytest.raises(ChainInvalid, match="degree-1 chain"):
        assemble(duo, [(1, 2), (3, 2)])


@pytest.mark.parametrize("call, message", [
    pytest.param(assemble_type2_vector, "not a valid chain", id="assemble_type2_vector"),
    pytest.param(assemble_type1_vectors, "not a valid chain", id="assemble_type1_vectors"),
    pytest.param(lambda s, ch: nnr_vector(s, ch, "x"), "not a valid chain", id="nnr_vector"),
    pytest.param(lambda s, ch: default_vector_chains(ch), "not a valid chain",
                 id="default_vector_chains"),
    pytest.param(lambda s, ch: biorth_matrix(s, ch, CHAIN_D2), "first chain is not",
                 id="biorth_matrix-first"),
    pytest.param(lambda s, ch: biorth_matrix(s, CHAIN_D2, ch), "second chain is not",
                 id="biorth_matrix-second"),
])
def test_an_empty_chain_is_invalid(duo, call, message):
    """A chain has at least one index: there is no degree -1 chain."""
    with pytest.raises(ChainInvalid, match=f"^{message}.*: it has no index$"):
        call(duo, [])


@pytest.mark.parametrize("chain, message", [
    pytest.param([(1, 2), (3, 2)], "not a valid degree-1 chain", id="gap"),
    pytest.param([(9, 9)], "not a valid degree-0 chain", id="degree-0"),
])
def test_default_vector_chains_rejects_a_non_chain(chain, message):
    """The input is checked as a chain before lower and upper chains are
    drawn from it."""
    with pytest.raises(ChainInvalid, match=f"^{message}$"):
        default_vector_chains(chain)


def test_assemble_type2_vector_degree_zero(duo):
    mv = assemble_type2_vector(duo, [(0, 0)])
    assert mv.polys[0].coeffs == (F(1),)
    assert mv.pattern_ok


def test_assemble_type1_vectors(duo):
    tv = assemble_type1_vectors(duo, CHAIN_D2)
    assert tv.degree == 2
    assert tv.pattern_ok
    # first components 1, 1, 2 and second components 2, 3, 3 bound the rows
    for j in range(2):
        for k, n in enumerate(CHAIN_D2):
            a = tv.rows[j][k]
            if not a.is_zero():
                assert len(a.coeffs) - 1 <= n[j] - 1


@pytest.mark.parametrize("n", [(2, 2), (3, 1)])
def test_gram_pattern_fails_off_the_type2_polynomial(duo, n):
    """The Gram pattern holds for P_n and fails for P_n + 1, whose pairing
    with 1 under measure 1 is not zero.  On a float system P_n + 1 fails
    too; the True case is exact-only, as the float P_n is judged as the
    rationals it denotes."""
    def plus_one(p):
        return BiPoly((p.coeffs[0] + 1,) + p.coeffs[1:])

    p = type2(duo, n)
    assert relations.gram_pattern_holds(duo, n, p)
    assert not relations.gram_pattern_holds(duo, n, plus_one(p))
    approx = make_pair_system("float64")
    assert not relations.gram_pattern_holds(approx, n, plus_one(type2(approx, n)))


def test_gram_pattern_on_a_univariate_system():
    """Each P_n = uni_type2(n), n <= (3, 3), meets its Type II conditions
    by the families' moments, <P_n, x^l>_j = 0 for l < n_j, and
    gram_pattern_holds says so; P_n + 1 fails it for n nonzero.
    assemble_type2_vector reports the pattern on a univariate chain."""
    uni = make_uni_pair_system()
    for n in UNI_GRID:
        p = uni_type2(uni, n)
        assert all(uni_inner(uni, j, p.coeffs, (0,) * l + (1,)) == 0
                   for j, nj in enumerate(n, start=1) for l in range(nj))
        assert relations.gram_pattern_holds(uni, n, p)
        plus_one = UniPoly((p.coeffs[0] + 1,) + p.coeffs[1:])
        assert relations.gram_pattern_holds(uni, n, plus_one) == (not sum(n))
    vector = assemble_type2_vector(uni, CHAIN_D2)
    assert vector.pattern_ok
    assert vector.polys == tuple(uni_type2(uni, n) for n in CHAIN_D2)


@pytest.mark.parametrize("n, error", [((-3, 1), IndexOutOfRange), ((0,), DimensionMismatch),
                                      ((), DimensionMismatch), ((2,), DimensionMismatch)])
def test_gram_pattern_checks_its_index(duo, n, error):
    """gram_pattern_holds checks n as every solver entry does: a negative
    component, or a length other than r, raises and is never vacuously
    True."""
    with pytest.raises(error):
        relations.gram_pattern_holds(duo, n, type2(duo, (2, 1)))


def test_type1_pattern_fails_on_a_wrong_form(monkeypatch):
    """assemble_type1_vectors reports pattern_ok False when the Type I forms
    its check pairs are off: each d doubled halves the unit pairing.  The
    rows it reports are still the public Type I polynomials."""
    form = relations.type1_form

    def doubled(sys_, n):
        blocks, d = form(sys_, n)
        return blocks, 2 * d

    monkeypatch.setattr(relations, "type1_form", doubled)
    sys_ = make_pair_system()
    tv = assemble_type1_vectors(sys_, CHAIN_D2)
    assert not tv.pattern_ok
    for k, n in enumerate(CHAIN_D2):
        assert [tv.rows[j][k] for j in range(2)] == list(type1(sys_, n).polys)


# ---------------------------------------------------------------------------
# Scalar recurrences, Type II


@pytest.mark.parametrize("mode", ["exact", "float64"])
@pytest.mark.parametrize("call", [lambda s: nnr_type2(s, (6, 6), "x"),
                                  lambda s: nnr_type2(s, (6, 6), "y"),
                                  lambda s: nnr_type1(s, (2, 2), "x"),
                                  lambda s: nnr_vector(s, CHAIN_D2, "y")])
def test_recurrences_refuse_a_univariate_system(call, mode):
    """The recurrences' x/y shifts and index calculus are those of the
    Cantor basis, so each raises ValidationError on a univariate system,
    never a report."""
    with pytest.raises(ValidationError, match="^the recurrences need a bivariate system "):
        call(make_uni_pair_system(mode))


def test_nnr_type2_default(duo):
    rep = nnr_type2(duo, (4, 4), "x")
    assert rep.holds and rep.vanishing_ok
    rep = nnr_type2(duo, (4, 4), "y")
    assert rep.holds and rep.vanishing_ok


def test_nnr_type2_vanishing_range(duo):
    n = (6, 8)
    rep = nnr_type2(duo, n, "x")
    d = params(n).degree
    cutoff = sum(n) - (d + 1) * 2
    for modulus, value in rep.coefficients:
        if modulus < cutoff:
            assert value == 0


def test_nnr_type2_path_independence(duo):
    n, w = (4, 4), (8, 4)
    p1 = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3),
          (4, 4), (5, 4), (6, 4), (7, 4), (8, 4)]
    p2 = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4),
          (4, 4), (5, 4), (6, 4), (7, 4), (8, 4)]
    r1 = nnr_type2(duo, n, "x", path=p1, w=w)
    r2 = nnr_type2(duo, n, "x", path=p2, w=w)
    assert r1.holds and r2.holds
    assert r1.residual.is_zero() and r2.residual.is_zero()


def test_nnr_type2_precondition(duo):
    with pytest.raises(IndexTooSmall):
        nnr_type2(duo, (2, 2), "x")


def test_nnr_type2_rejects_an_unknown_axis(duo):
    with pytest.raises(PathInvalid, match="axis must be 'x' or 'y', got 'z'"):
        nnr_type2(duo, (6, 8), "z")


def test_nnr_type2_rejects_gap_path(duo):
    bad = [(1, 1), (3, 1), (4, 4), (5, 4), (6, 4)]
    with pytest.raises(PathInvalid, match="not a neighbour path"):
        nnr_type2(duo, (4, 4), "x", path=bad, w=(6, 4))


@pytest.mark.parametrize("path, w, message", [
    pytest.param(canonical_path([(1, 3), (6, 8), (10, 8)]).steps, None,
                 "must span moduli 4..19", id="span"),
    pytest.param(canonical_path([(2, 2), (6, 8), (11, 8)]).steps, None,
                 r"modulus 4 must be v = \(1, 3\)", id="v"),
    pytest.param(canonical_path([(1, 3), (7, 7), (11, 8)]).steps, None,
                 r"modulus 14 must be \(6, 8\)", id="n"),
    pytest.param(canonical_path([(1, 3), (6, 8), (11, 8)]).steps, (10, 9),
                 r"modulus 19 is \(11, 8\), expected \(10, 9\)", id="w"),
])
def test_nnr_type2_rejects_a_path_off_its_entries(duo, path, w, message):
    """(6, 8) on axis x: d = 4, v = (1, 3), top modulus 14 + 5 = 19."""
    with pytest.raises(PathInvalid, match=message):
        nnr_type2(duo, (6, 8), "x", path=path, w=w)


def test_nnr_type2_coefficient_alignment(duo):
    # a_{i} = <x P_n, Q_{m_{i+1}}> along the default path
    n = (4, 4)
    rep = nnr_type2(duo, n, "x")
    xp = times(type2(duo, n), 1, 0)
    for modulus, value in rep.coefficients:
        assert value == type1_pairing(duo, xp, rep.path.at_modulus(modulus + 1))


# ---------------------------------------------------------------------------
# Scalar recurrences, Type I


def test_nnr_type1_holds(duo):
    rep = nnr_type1(duo, (2, 2), "x")
    assert rep.holds and rep.vanishing_ok and rep.low_unit_ok
    # remainder 1 is too small for the y-axis unit-low-term claim; the
    # expansion itself still holds and the report says which is which
    rep = nnr_type1(duo, (2, 2), "y")
    assert rep.holds and rep.vanishing_ok
    assert rep.low_unit_ok is False
    # remainder 2 restores the y-axis claim
    rep = nnr_type1(duo, (2, 3), "y")
    assert rep.holds and rep.vanishing_ok and rep.low_unit_ok


def test_nnr_type1_default_path_starts_at_the_zero_index(duo):
    for modulus in range(1, 6):
        for n in [(a, modulus - a) for a in range(modulus + 1)]:
            d = params(n).degree
            for axis, offset in (("x", 1), ("y", 2)):
                end = tuple(c + d + offset for c in n)
                try:
                    rep = nnr_type1(duo, n, axis)
                except IndexTooSmall:
                    continue
                assert rep.path == canonical_path([(0, 0), n, end])


def test_nnr_type1_zero_index_convention(duo):
    # low modulus 0 is the zero index where Q vanishes; term is dropped
    rep = nnr_type1(duo, (1, 0), "x")
    assert rep.holds


def test_nnr_type1_empty_index(duo):
    with pytest.raises(EmptyIndex):
        nnr_type1(duo, (0, 0), "x")


@pytest.mark.parametrize("path, message", [
    pytest.param([(1, 1), (3, 1), (4, 1)], "not a neighbour path", id="gap"),
    pytest.param(canonical_path([(2, 1), (2, 2), (5, 5)]).steps, "must span moduli 2..10",
                 id="span"),
    pytest.param(canonical_path([(1, 1), (3, 1), (5, 5)]).steps,
                 r"modulus 4 must be \(2, 2\)", id="n"),
    pytest.param(canonical_path([(1, 1), (2, 2), (6, 4)]).steps,
                 r"modulus 10 must be \(5, 5\)", id="end"),
])
def test_nnr_type1_rejects_a_bad_path(duo, path, message):
    """(2, 2) on axis x: the expansion runs from modulus 2 to 10, at (5, 5)."""
    with pytest.raises(PathInvalid, match=message):
        nnr_type1(duo, (2, 2), "x", path=path)


def test_nnr_type1_too_small_for_y(duo):
    # axis y needs |n| - d - 1 >= 0
    with pytest.raises(IndexTooSmall):
        nnr_type1(duo, (1, 0), "y")


# ---------------------------------------------------------------------------
# Vector recurrence


def test_nnr_vector_holds(duo):
    for axis in ("x", "y"):
        rep = nnr_vector(duo, CHAIN_D2, axis)
        assert rep.holds
        assert rep.low_unit_ok
        assert all(res.is_zero() for res in rep.residual)


def test_nnr_vector_top_matrix_structure(duo):
    d = 2
    for axis, off in (("x", 0), ("y", 1)):
        rep = nnr_vector(duo, CHAIN_D2, axis)
        top = rep.matrices[d + 1]
        assert (top.rows, top.cols) == (d + 1, d + 2)
        for k in range(d + 1):
            assert top.data[k][k + off] == 1
            for i in range(k + off + 1, d + 2):
                assert top.data[k][i] == 0


def test_nnr_vector_leading_selection_fails_on_a_wrong_form(monkeypatch):
    """nnr_vector reports low_unit_ok False, and holds False, when a row's
    expansion has a nonzero entry above its unit: on axis y, the Q of the
    path's last index read as chain[0]'s gives row 0 a pairing past its
    target.  Unpatched, both are True."""
    sys_ = make_pair_system()
    rep = nnr_vector(sys_, CHAIN_D2, "y")
    assert rep.low_unit_ok and rep.holds
    last = rep.path.steps[-1]
    form = relations.type1_form

    def misread(sys_, n):
        return form(sys_, CHAIN_D2[0] if tuple(n) == last else n)

    monkeypatch.setattr(relations, "type1_form", misread)
    rep = nnr_vector(make_pair_system(), CHAIN_D2, "y")
    assert rep.low_unit_ok is False
    assert rep.holds is False


def test_nnr_vector_rows_match_scalar_expansion(duo):
    rep = nnr_vector(duo, CHAIN_D2, "x")
    path = rep.path
    for k, n in enumerate(CHAIN_D2):
        xp = times(type2(duo, n), 1, 0)
        # every matrix entry is the scalar pairing of row k's expansion
        for h, m in rep.matrices.items():
            if h > 3:
                continue
            base = h * (h + 1) // 2
            for i in range(m.cols):
                z = base + i
                if path.start_modulus <= z < path.end_modulus:
                    want = type1_pairing(duo, xp, path.at_modulus(z + 1))
                    if z == sum(n) + 3:
                        want = 1  # the row's own monic target
                    assert m.data[k][i] == want


def test_nnr_vector_rejects_bad_chain(duo):
    with pytest.raises(ChainInvalid):
        nnr_vector(duo, [(1, 1), (2, 1), (2, 2)], "x")


# A degree-5 chain, long enough for the waypoint u = n_0 - 6 = (2, 1) to
# bind, and lower chains that pass (3, 0) instead.
CHAIN_D5 = [(8, 7), (9, 7), (9, 8), (10, 8), (10, 9), (11, 9)]
ASCENT = canonical_path([(0, 0), (3, 0), (7, 7)]).steps


@pytest.mark.parametrize("chain, lower, upper, message", [
    pytest.param(CHAIN_D2, [[(0, 0)]], None, "need lower chains for degrees 0..1",
                 id="lower-count"),
    pytest.param(CHAIN_D2, [[(0, 0)], [(1, 0), (0, 2)]], None,
                 "lower chain 1 is not a valid degree-1 chain", id="lower-chain"),
    pytest.param(CHAIN_D2, None, [(3, 3), (4, 3), (5, 3)],
                 "upper chain is not a valid degree-3 chain", id="upper-chain"),
    pytest.param(CHAIN_D2, [[(0, 0)], []], None,
                 "lower chain 1 is not a valid degree-1 chain", id="empty-lower-chain"),
    pytest.param(CHAIN_D2, None, [], "upper chain is not a valid degree-3 chain",
                 id="empty-upper-chain"),
    pytest.param(CHAIN_D2, [[(0, 0)], [(1, 0), (2, 0)]], None,
                 "do not concatenate", id="concatenation"),
    pytest.param(CHAIN_D5, [list(ASCENT[h * (h + 1) // 2:h * (h + 1) // 2 + h + 1])
                            for h in range(5)],
                 [(12, 9), (13, 9), (14, 9), (15, 9), (16, 9), (17, 9), (18, 9)],
                 r"waypoint \(2, 1\) missing", id="waypoint"),
])
def test_nnr_vector_rejects_bad_chains(duo, chain, lower, upper, message):
    with pytest.raises(ChainInvalid, match=message):
        nnr_vector(duo, chain, "x", lower=lower, upper=upper)


def test_default_vector_chains_shape():
    lower, upper = default_vector_chains(CHAIN_D2)
    assert [len(ch) for ch in lower] == [1, 2]
    assert len(upper) == 4
    assert lower[0][0] == (0, 0)
    assert upper[0] == (3, 3)


@pytest.mark.parametrize("chain", [[(5, 5), (5, 6), (6, 6), (6, 7), (7, 7)], CHAIN_D5],
                         ids=["d4", "d5"])
def test_default_lower_chains_pass_the_waypoint(duo, chain):
    """For d >= 2r the default lower chains pass u = n_0 - (d + 1), which
    nnr_vector requires, and the recurrence holds on both axes.  For CHAIN_D5
    u = (2, 1), off the path that raises x first."""
    d = len(chain) - 1
    u = tuple(c - (d + 1) for c in chain[0])
    lower, _ = default_vector_chains(chain)
    assert u in [x for ch in lower for x in ch]
    for axis in "xy":
        assert nnr_vector(duo, chain, axis).holds


# ---------------------------------------------------------------------------
# One path solve per verifier


def _report(call, sys_):
    try:
        return repr(call(sys_))
    except NotNormal as exc:
        return f"NotNormal: {exc}"


@pytest.mark.parametrize("call", [
    pytest.param(lambda s: nnr_type2(s, (6, 8), "x"), id="xP"),
    pytest.param(lambda s: nnr_type2(s, (6, 8), "y"), id="yP"),
    pytest.param(lambda s: nnr_type2(s, (10, 6), "x"), id="xP-through-(10,5)"),
    pytest.param(lambda s: nnr_type2(s, (6, 8), "x", path=canonical_path([(1, 3), (6, 8), (14, 8)])),
                 id="xP-two-past-the-y-top"),
    pytest.param(lambda s: nnr_type1(s, (3, 4), "x"), id="xQ"),
    pytest.param(lambda s: nnr_type1(s, (2, 3), "y"), id="yQ"),
    pytest.param(lambda s: nnr_vector(s, CHAIN_D2, "y"), id="vector-y"),
    pytest.param(lambda s: biorth_matrix(s, CHAIN_D2, CHAIN_D2), id="biorth-same-chain"),
    pytest.param(lambda s: biorth_matrix(s, CHAIN_D2, [(2, 4), (3, 4), (3, 5), (4, 5)]),
                 id="biorth-joined-chains"),
])
def test_verifiers_solve_their_path_once(monkeypatch, builds, call):
    """A verifier builds one M_n for its path and reports what per-index
    solves report.

    The default path of (10, 6) on axis x passes the non-normal (10, 5),
    so both routes raise the same NotNormal.  A path running two steps past
    the y check's top is solved whole, with one M_n as well.
    """
    got = _report(call, make_pair_system())
    assert len(builds) == 1
    monkeypatch.setattr(relations, "solve_path", lambda sys_, steps: None)
    assert _report(call, make_pair_system()) == got
    assert len(builds) > 2


def test_biorth_matrix_solves_each_chain_once(monkeypatch, builds):
    """Chains that do not join into one path are solved as two paths."""
    far = [(3, 7), (4, 7), (4, 8), (5, 8), (5, 9)]
    got = biorth_matrix(make_pair_system(), CHAIN_D2, far)
    assert builds == [("exact", CHAIN_D2[-1]), ("exact", far[-1])]
    monkeypatch.setattr(relations, "solve_path", lambda sys_, steps: None)
    assert repr(biorth_matrix(make_pair_system(), CHAIN_D2, far)) == repr(got)


def test_verifiers_clear_no_polynomial(monkeypatch):
    """The verifiers pair and sum cached cleared forms, x*P and y*P shifted
    as integers (``shifted``): on a fresh exact system and on a fresh float
    one, nnr_type2 (both axes), nnr_type1, nnr_vector, biorth_matrix and
    assemble_type1_vectors make no ``cleared`` call, and every report
    holds."""
    calls = []
    clear = mopcore.cleared

    def spy(sys_, polys):
        calls.append(polys)
        return clear(sys_, polys)

    monkeypatch.setattr(mopcore, "cleared", spy)
    monkeypatch.setattr(relations, "cleared", spy)
    for mode in ("exact", "float64"):
        sys_ = make_pair_system(mode)
        reps = [nnr_type2(sys_, (6, 8), axis) for axis in "xy"]
        assert all(rep.holds and len(rep.coefficients) > 10 for rep in reps)
        assert all(nnr_type1(sys_, (2, 2), axis).holds for axis in "xy")
        assert all(nnr_vector(sys_, CHAIN_D2, axis).holds for axis in "xy")
        assert biorth_matrix(sys_, CHAIN_D2, CHAIN_D2).matches
        assert assemble_type1_vectors(sys_, CHAIN_D2).pattern_ok
    assert calls == []


def test_gram_checks_pair_the_cached_type2_form(monkeypatch):
    """assemble_type2_vector judges each P_n's Gram pattern on its cached
    cleared form (``type2_form``): on a fresh exact and a fresh float
    system, the degree-2 chain makes no ``cleared`` call.  A polynomial
    handed to gram_pattern_holds is cleared once, where it enters."""
    calls = []
    clear = mopcore.cleared

    def spy(sys_, polys):
        calls.append(polys)
        return clear(sys_, polys)

    monkeypatch.setattr(mopcore, "cleared", spy)
    monkeypatch.setattr(relations, "cleared", spy)
    for mode in ("exact", "float64"):
        assert assemble_type2_vector(make_pair_system(mode), CHAIN_D2).pattern_ok
    assert calls == []
    sys_ = make_pair_system()
    assert relations.gram_pattern_holds(sys_, CHAIN_D2[0], type2(sys_, CHAIN_D2[0]))
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["exact", "float64"])
def test_records_read_after_the_verifiers_equal_fresh_ones(mode):
    """type2 and type1 read after nnr_type2 (both axes), nnr_type1 and
    biorth_matrix have the reprs, or raise the errors, of the same reads
    made first on a fresh system, on every index the verifiers solved (a
    float system's verifiers solve on its exact twin)."""
    far = [(3, 7), (4, 7), (4, 8), (5, 8), (5, 9)]
    sys_ = make_pair_system(mode)
    for axis in "xy":
        nnr_type2(sys_, (6, 8), axis)
        nnr_type1(sys_, (2, 2), axis)
    biorth_matrix(sys_, CHAIN_D2, far)
    fresh = make_pair_system(mode)
    keys = list(sys_.exact_system._index_cache)
    assert len(keys) > 20
    for call in (type2, type1):
        got = [_outcome(lambda: call(sys_, n)) for n in keys]
        want = [_outcome(lambda: call(fresh, n)) for n in keys]
        assert got == want


def _outcome(call):
    try:
        return repr(call())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_nnr_type2_axes_share_one_factorisation(monkeypatch, builds):
    """On a path through |n| + d_n + 2 the x check solves that far, so the
    y check after it builds no M; both report what per-index solves report.
    An x check on a path that ends at its own top builds only that top's M."""
    n = (6, 8)
    d = params(n).degree
    v = tuple(nj - d - 1 for nj in n)
    long = canonical_path([v, n, (n[0] + d + 2, n[1])])
    short = canonical_path([v, n, (n[0] + d + 1, n[1])])
    sys_ = make_pair_system()
    got = [repr(nnr_type2(sys_, n, axis, path=long)) for axis in "xy"]
    assert builds == [("exact", long.steps[-1])]
    builds.clear()
    assert nnr_type2(make_pair_system(), n, "x", path=short).holds
    assert builds == [("exact", short.steps[-1])]
    monkeypatch.setattr(relations, "solve_path", lambda sys_, steps: None)
    sys_ = make_pair_system()
    assert [repr(nnr_type2(sys_, n, axis, path=long)) for axis in "xy"] == got


FLOAT_REPORTS = json.loads(
    (Path(__file__).parent / "data" / "float_nnr_reports.json").read_text())


@pytest.mark.parametrize("axis", "xy")
@pytest.mark.parametrize("name, call", [
    pytest.param("nnr_type2 (6, 8)", lambda s, a: nnr_type2(s, (6, 8), a), id="type2"),
    pytest.param("nnr_type1 (3, 4)", lambda s, a: nnr_type1(s, (3, 4), a), id="type1"),
    pytest.param("nnr_vector CHAIN_D2", lambda s, a: nnr_vector(s, CHAIN_D2, a), id="vector"),
])
def test_float_report_pinned(name, call, axis):
    """The whole JSON of a float report: path, coefficients, matrices and
    every residual digit, as JSON text (floats round-trip through it)."""
    doc = call(make_pair_system("float64"), axis).to_json()
    assert json.dumps(doc) == json.dumps(FLOAT_REPORTS[f"{name} {axis}"])


def test_float_nnr_type2_holds_where_exact_does():
    """A float system's recurrence checks are the exact ones: the x and y
    checks of (6, 8), (8, 6) and (8, 8) hold on both, with an exact zero
    residual, and the float report is the exact one rounded to float.  The
    float solves of (8, 8) once made its x check fail."""
    exact, approx = make_pair_system(), make_pair_system("float64")
    for n in ((6, 8), (8, 6), (8, 8)):
        for axis in "xy":
            want, got = nnr_type2(exact, n, axis), nnr_type2(approx, n, axis)
            assert want.holds and got.holds and got.residual.is_zero()
            assert got.coefficients == [(i, float(a)) for i, a in want.coefficients]
            assert all(type(a) is float for _, a in got.coefficients)


def make_huge_system():
    """Laguerre exponents near 10^120: the Type II coefficients of (4, 4)
    already pass the largest float, 1.8e308."""
    e = 10 ** 120
    return MeasureSystem(measures=(
        TensorMeasure(Laguerre(F(e)), Laguerre(F(5 * e + 1, 5))),
        TensorMeasure(Laguerre(F(3 * e + 1, 3)), Laguerre(F(7 * e + 1, 7)))))


@pytest.mark.parametrize("call", [
    pytest.param(lambda s: nnr_type2(s, (4, 4), "x"), id="xP"),
    pytest.param(lambda s: nnr_type2(s, (4, 4), "y"), id="yP"),
    pytest.param(lambda s: nnr_type2(s, (6, 8), "x"), id="xP-6-8"),
    pytest.param(lambda s: nnr_type1(s, (3, 3), "x"), id="xQ"),
    pytest.param(lambda s: nnr_vector(s, [(3, 3), (3, 4), (4, 4), (4, 5)], "x"),
                 id="vector"),
])
def test_exact_verifiers_never_convert_a_coefficient_to_float(call):
    """Exact mode judges zero by == 0 alone, so no coefficient, however
    large, is converted to float for a scale."""
    sys_ = make_huge_system()
    assert max(abs(c) for c in type2(sys_, (4, 4)).coeffs) > 10 ** 309
    rep = call(sys_)
    assert rep.holds and rep.vanishing_ok


def test_a_float_report_past_the_float_range_is_invalid_input():
    """A float system's report rounds each exact value to float; a value
    past the float64 range raises ValidationError, never OverflowError.  The
    Type II coefficients of (4, 4) pass 10^309, the x check of (4, 4) does
    not, and the exact system answers both."""
    chain = [(3, 3), (3, 4), (4, 4), (4, 5)]
    exact = make_huge_system()
    approx = MeasureSystem(exact.measures, mode="float64")
    with pytest.raises(ValidationError, match="^a reported value exceeds the float64 range; "
                                              "use exact mode$"):
        assemble_type2_vector(approx, chain)
    assert assemble_type2_vector(exact, chain).pattern_ok
    rep = nnr_type2(approx, (4, 4), "x")
    assert rep.holds and all(type(a) is float for _, a in rep.coefficients)

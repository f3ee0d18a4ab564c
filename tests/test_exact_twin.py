"""Float systems judge on their exact twin.

A float system's ``exact_system`` is the same measures in exact mode.  Every
verifier run on a float system must return exactly what it returns on the
exact system, with each Fraction of the result rounded once to the nearest
float, or raise the same error, a NotNormal with its det rounded the same
way.  The expected reports are flattened here, independently of bimop's own
rounding: each Fraction becomes the float ``float(Fraction)`` gives, every
other leaf stays as it is.
"""

import itertools
from fractions import Fraction as F

from bimop import (
    MeasureSystem,
    NotNormal,
    UniMeasureSystem,
    assemble_type1_vectors,
    assemble_type2_vector,
    biorth_matrix,
    biorth_row,
    candidate_vs,
    nnr_type1,
    nnr_type2,
    nnr_vector,
    type2,
    verify_product,
)
from bimop.record import Record
from conftest import make_pair_system, make_product_system, make_xsystem


def leaves(value, rounded, path=""):
    """(path, type name, text) of each leaf of a report: records by their
    instance fields, sequences and dicts by position and key.  With rounded,
    a Fraction leaf reads as the float nearest to it."""
    if isinstance(value, Record):
        for name, item in vars(value).items():
            yield from leaves(item, rounded, f"{path}.{name}")
    elif isinstance(value, (list, tuple)):
        yield path, type(value).__name__, len(value)
        for i, item in enumerate(value):
            yield from leaves(item, rounded, f"{path}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, rounded, f"{path}[{key!r}]")
    elif isinstance(value, float):
        yield path, "float", value.hex()
    elif isinstance(value, F) and rounded:
        yield path, "float", float(value).hex()
    else:
        yield path, type(value).__name__, repr(value)


def outcome(call, rounded=False):
    """The leaves of call()'s result, or its error's class and message; with
    rounded, a NotNormal's det reads as the float nearest to it."""
    try:
        result = call()
    except NotNormal as exc:
        return "NotNormal", str(NotNormal(exc.index, float(exc.det) if rounded else exc.det))
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return type(result).__name__, list(leaves(result, rounded))


def assert_rounded_twins(exact, approx, calls):
    """Each call on the float system gives the exact result rounded, or
    the exact call's error; returns how many results were compared."""
    compared = 0
    for call in calls:
        want = outcome(lambda: call(exact), rounded=True)
        got = outcome(lambda: call(approx))
        assert got == want
        compared += isinstance(want[1], list)
    return compared


def chains(d):
    """Every degree-d chain of 2-indices."""
    base = d * (d + 1) // 2
    out = [[(a, base - a)] for a in range(base + 1)]
    for _ in range(d):
        out = [ch + [(ch[-1][0] + (j == 0), ch[-1][1] + (j == 1))] for ch in out for j in range(2)]
    return out


def test_exact_system_is_the_same_measures_in_exact_mode():
    """An exact system is its own twin; a float system builds its twin once,
    the same measures in exact mode, with caches of its own, and
    keeps it outside ==, hash and repr."""
    for exact in (make_pair_system(), make_xsystem()):
        assert exact.exact_system is exact
    pair = make_pair_system().measures
    xs = make_xsystem().families
    for cls, sources in ((MeasureSystem, pair), (UniMeasureSystem, xs)):
        approx, fresh = cls(sources, "float64", 1e-3), cls(sources, "float64", 1e-3)
        twin = approx.exact_system
        assert approx.exact_system is twin and twin.exact_system is twin
        assert twin == cls(sources, "exact", 1e-3)
        assert twin._index_cache is not approx._index_cache
        assert twin._moment_cache is not approx._moment_cache
        assert approx == fresh and hash(approx) == hash(fresh) and repr(approx) == repr(fresh)
        assert not fresh._twin


def test_float_recurrences_are_the_rounded_exact_reports():
    """nnr_type2 and nnr_type1 on both axes for every index with components
    2-9 and modulus <= 16: 137 checks run, the rest raise IndexTooSmall or
    NotNormal in both modes."""
    indices = [n for n in itertools.product(range(2, 10), repeat=2) if sum(n) <= 16]
    calls = [lambda s, f=f, n=n, axis=axis: f(s, n, axis)
             for f in (nnr_type2, nnr_type1) for n in indices for axis in "xy"]
    exact, approx = make_pair_system(), make_pair_system("float64")
    assert assert_rounded_twins(exact, approx, calls) == 137
    assert all(nnr_type2(approx, n, "x").holds for n in ((6, 8), (8, 6), (8, 8)))


def test_float_vectors_and_biorth_matrices_are_the_rounded_exact_ones():
    """nnr_vector and both assemblers on every chain of degree <= 2, and
    biorth_matrix and biorth_row on every pair of such chains."""
    every = chains(0) + chains(1) + chains(2)
    calls = []
    for chain in every:
        calls += [lambda s, c=chain, axis=axis: nnr_vector(s, c, axis) for axis in "xy"]
        calls += [lambda s, c=chain: assemble_type2_vector(s, c),
                  lambda s, c=chain: assemble_type1_vectors(s, c)]
    for a, b in itertools.product(every, repeat=2):
        calls += [lambda s, a=a, b=b: biorth_matrix(s, a, b),
                  lambda s, a=a, b=b: biorth_row(s, a[0], b)]
    exact, approx = make_pair_system(), make_pair_system("float64")
    assert assert_rounded_twins(exact, approx, calls) > 400


def test_float_product_verdicts_are_the_exact_ones():
    """verify_product on every candidate v of small n and m."""
    exact, approx = make_product_system(), make_product_system("float64")
    calls = []
    for n, m in itertools.product([(0, 1), (1, 0), (1, 1), (2, 1)], [(0, 1), (1, 0), (1, 1)]):
        calls += [lambda ps, n=n, m=m, v=v: verify_product(ps, n, m, v)
                  for v in candidate_vs(n, m)]
    assert len(calls) > 100
    assert assert_rounded_twins(exact, approx, calls) > 50
    # The float system's own solves are left alone: its verdicts came from
    # the exact bivariate system.
    assert not approx.bivariate._index_cache


def test_float_constructions_are_left_to_float_mode():
    """The verifiers leave a float system's own caches empty; its type2 and
    type1 still solve in float64."""
    approx = make_pair_system("float64")
    nnr_type2(approx, (4, 4), "x")
    biorth_row(approx, (2, 2), [(2, 3)])
    assert not approx._index_cache and not approx._moment_cache
    assert all(type(c) is float for c in type2(approx, (2, 2)).coeffs)

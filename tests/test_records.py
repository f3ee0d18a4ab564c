"""bimop's records behave as the frozen dataclasses they replace.

Each record class has a twin declared here with ``dataclasses``: the same
fields, defaults and caches, written out by hand.  Built from the same
values, record and twin must give the same ``repr``, ``==``, ``!=`` and
``hash`` (or the same error), accept and refuse the same calls, and refuse
assignment and deletion with the same message.
"""

import dataclasses
from dataclasses import field, make_dataclass
from fractions import Fraction as F
from typing import Any

import pytest

from bimop import (
    BiPoly,
    Laguerre,
    Matrix,
    MeasureSystem,
    Normality,
    ProductSystem,
    TensorMeasure,
    UniMeasureSystem,
    UniPoly,
)
from bimop.errors import FrozenInstanceError, SchemaError
from bimop.measures import _ScalarMode
from bimop.mopcore import TypeISet
from bimop.multiindex import IndexParams, Path
from bimop.product import FactorCheck
from bimop.record import Record
from bimop.relations import MOPV, BiorthMatrixResult, BiorthResult, NNRReport, TypeIMOPV


def cache(name):
    return name, dict, field(default_factory=dict, repr=False, compare=False)


# The fields of each record, as the dataclass declarations had them.
SPECS = {
    Matrix: ["rows", "cols", "data"],
    MeasureSystem: ["measures", ("mode", str, "exact"),
                    cache("_moment_cache"), cache("_index_cache"), cache("_twin")],
    UniMeasureSystem: ["families", ("mode", str, "exact"),
                       cache("_moment_cache"), cache("_index_cache"), cache("_twin")],
    BiPoly: ["coeffs"],
    UniPoly: ["coeffs"],
    TypeISet: ["polys"],
    Normality: ["normal", "det"],
    IndexParams: ["modulus", "multidegree", "degree", "remainder"],
    Path: ["steps"],
    ProductSystem: ["xsystem", "ysystem", "bivariate"],
    FactorCheck: ["ratio", "numerator", "denominator", "indeterminate"],
    BiorthResult: ["value", "expected", "label", "matches"],
    BiorthMatrixResult: ["matrix", "case", "matches"],
    MOPV: ["degree", "chain", "polys", "pattern_ok"],
    TypeIMOPV: ["degree", "chain", "rows", "pattern_ok"],
    NNRReport: ["variant", "path", "holds",
                ("coefficients", list, field(default_factory=list)),
                ("residual", Any, None), ("vanishing_ok", Any, None),
                ("low_unit_ok", Any, None), ("matrices", Any, None)],
}
# The systems' twins share their scalar-mode base, measure count and lookup.
SYSTEMS = (MeasureSystem, UniMeasureSystem)
TWINS = {cls: make_dataclass(cls.__name__, [(s, Any) if isinstance(s, str) else s for s in spec],
                             bases=(_ScalarMode,) if cls in SYSTEMS else (),
                             namespace={k: vars(cls)[k]
                                        for k in ("r", "moment", "_source")
                                        if cls in SYSTEMS},
                             frozen=True)
         for cls, spec in SPECS.items()}

P = BiPoly((F(-1), F(0), F(1)))
Q = BiPoly((F(1, 2),))
STEPS = ((0, 0), (1, 0), (1, 1))
MEASURE = TensorMeasure(Laguerre(1), Laguerre(F(23, 10)))
XS, YS = UniMeasureSystem((Laguerre(1),)), UniMeasureSystem((Laguerre(F(11, 5)),))
BIV = MeasureSystem((MEASURE,))
M = Matrix(1, 2, [[F(1), F(2)]])

# Two different sets of field values per class, passed by position.
SAMPLES = {
    Matrix: [(1, 2, [[F(1), F(2)]]), (2, 1, [[F(1)], [F(2)]])],
    MeasureSystem: [((MEASURE,), "exact"), ((MEASURE,), "float64")],
    UniMeasureSystem: [((Laguerre(1),),), ((Laguerre(1), Laguerre(2)), "float64")],
    BiPoly: [((F(-1), F(0), F(1)),), ((F(1, 2),),)],
    UniPoly: [((F(-1), F(0), F(1)),), ((),)],
    TypeISet: [((P,),), ((P, Q),)],
    Normality: [(True, F(3)), (None, 0.5)],
    IndexParams: [(3, (1, 1), 2, 1), (1, (1, 0), 1, 0)],
    Path: [(STEPS,), (STEPS[:1],)],
    ProductSystem: [(XS, YS, BIV), (YS, XS, BIV)],
    FactorCheck: [(F(1), F(2), F(2), False), (None, 0, 0, True)],
    BiorthResult: [(F(0), 0, "m<=n", True), (F(1, 3), None, "unconstrained", None)],
    BiorthMatrixResult: [(M, "zero (m_h <= n_0)", True), (M, "unconstrained", None)],
    MOPV: [(1, STEPS[1:], (P, Q), True), (0, STEPS[:1], (Q,), False)],
    TypeIMOPV: [(1, STEPS[1:], ((P, Q),), True), (0, STEPS[:1], ((Q,),), False)],
    NNRReport: [("xP", Path(STEPS), True, [(1, F(2))], P, True, None, {1: M}),
                ("yQ", Path(STEPS), False)],
}
CLASSES = list(SPECS)


def outcome(f):
    """What f() gives: ("value", result) or ("raises", error class name)."""
    try:
        return "value", f()
    except TypeError as exc:
        return "raises", type(exc).__name__


def names(cls):
    return [f.name for f in dataclasses.fields(TWINS[cls])]


def required(cls):
    return sum(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
               for f in dataclasses.fields(TWINS[cls]))


def test_every_record_class_has_a_twin_and_samples():
    assert set(Record.__subclasses__()) == set(SPECS) == set(SAMPLES)
    assert len(CLASSES) == 16


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_eq_ne_and_hash_match_the_dataclass(cls):
    twin = TWINS[cls]
    a, b = SAMPLES[cls]
    for make in (cls, twin):
        assert make(*a) is not make(*a)
    for x, y in [(a, a), (a, b), (b, a), (b, b)]:
        assert repr(cls(*x)) == repr(twin(*x))
        assert (cls(*x) == cls(*y)) == (twin(*x) == twin(*y))
        assert (cls(*x) != cls(*y)) == (twin(*x) != twin(*y))
        assert outcome(lambda: hash(cls(*x))) == outcome(lambda: hash(twin(*x)))
    assert cls(*a) == cls(*a) and cls(*a) != cls(*b)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_another_class_is_never_equal(cls):
    a = SAMPLES[cls][0]
    others = [object(), None, a]
    others += [other(*SAMPLES[other][0]) for other in CLASSES if other is not cls]
    for other in others:
        assert (cls(*a) == other) is (TWINS[cls](*a) == other) is False
        assert (cls(*a) != other) is (TWINS[cls](*a) != other) is True
    assert cls(*a) != TWINS[cls](*a) and not TWINS[cls](*a) == cls(*a)
    # BiPoly and UniPoly of the same coefficients are not equal.
    assert BiPoly((F(1),)) != UniPoly((F(1),))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_by_position_keyword_and_default(cls):
    twin = TWINS[cls]
    for args in SAMPLES[cls]:
        keywords = dict(zip(names(cls), args))
        assert repr(cls(**keywords)) == repr(twin(**keywords)) == repr(cls(*args))
        assert cls(**keywords) == cls(*args)
        # The first field by position, the rest by keyword.
        rest = dict(list(keywords.items())[1:])
        assert repr(cls(args[0], **rest)) == repr(twin(args[0], **rest))
    fewest = SAMPLES[cls][0][:required(cls)]
    assert repr(cls(*fewest)) == repr(twin(*fewest))
    assert cls(*fewest) == cls(*fewest)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_a_missing_or_unknown_argument_is_a_type_error(cls):
    twin = TWINS[cls]
    args = SAMPLES[cls][0]
    full = len(names(cls))
    calls = [
        lambda make: make(),
        lambda make: make(*args[:required(cls) - 1]),
        lambda make: make(*args, unknown=1),
        lambda make: make(*args, **{names(cls)[0]: args[0]}),
        lambda make: make(*(args + (None,) * full)[:full + 1]),
    ]
    for call in calls:
        assert outcome(lambda: call(cls)) == outcome(lambda: call(twin)) == ("raises", "TypeError")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise_frozen_instance_error(cls):
    record, twin = cls(*SAMPLES[cls][0]), TWINS[cls](*SAMPLES[cls][0])
    assert issubclass(FrozenInstanceError, AttributeError)
    for name in names(cls)[:2] + ["not_a_field"]:
        for act in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
            with pytest.raises(FrozenInstanceError) as mine:
                act(record)
            with pytest.raises(dataclasses.FrozenInstanceError) as theirs:
                act(twin)
            assert str(mine.value) == str(theirs.value)
    assert repr(record) == repr(twin)


@pytest.mark.parametrize("cls", SYSTEMS, ids=lambda c: c.__name__)
def test_system_caches_are_per_instance_and_outside_repr_and_eq(cls):
    args = SAMPLES[cls][0]
    for make in (cls, TWINS[cls]):
        a, b = make(*args), make(*args)
        assert a._moment_cache is not b._moment_cache
        assert a._index_cache is not b._index_cache
        a.moment(1, 2, 0)
        assert a._moment_cache and not b._moment_cache
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_cache" not in repr(a)
    assert repr(cls(*args)) == repr(TWINS[cls](*args))


def test_nnr_reports_share_no_default_list():
    a, b = (NNRReport("xP", Path(STEPS), True) for _ in range(2))
    assert a.coefficients == b.coefficients == [] and a.coefficients is not b.coefficients


@pytest.mark.parametrize("cls", SYSTEMS, ids=lambda c: c.__name__)
def test_post_init_checks_run_on_every_call(cls):
    measures = SAMPLES[cls][0][0]
    for make in (cls, TWINS[cls]):
        for call in (lambda: make(()), lambda: make(measures, "exakt")):
            with pytest.raises(SchemaError):
                call()

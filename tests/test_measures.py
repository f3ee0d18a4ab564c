"""Moment providers: built-in families, tables, tensors, and config parsing."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest

from bimop import (
    IndexOutOfRange,
    Jacobi,
    Laguerre,
    MeasureSystem,
    MomentTable,
    NegativeAlpha,
    SchemaError,
    TableExhausted,
    TableMeasure,
    TensorMeasure,
    UniMeasureSystem,
    ValidationError,
    parse_config,
    parse_uni_config,
)
from conftest import make_xsystem


def test_laguerre_relative_moments():
    # m_k = prod_{i=1..k}(alpha + i), normalized so m_0 = 1
    lag = Laguerre(F(1))
    assert [lag.moment(k) for k in range(4)] == [1, 2, 6, 24]
    lag = Laguerre(F(11, 5))
    assert lag.moment(1) == F(16, 5)
    assert lag.moment(2) == F(16, 5) * F(21, 5)


def _product_moments(alpha, top):
    """m_0..m_top as prod_{i<=k} (alpha + i), each product formed afresh."""
    out = []
    for k in range(top + 1):
        m = F(1)
        for i in range(1, k + 1):
            m *= alpha + i
        out.append(m)
    return out


@pytest.mark.parametrize("alpha", [F(0), F(1), F(23, 10), F(10 ** 120)])
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_laguerre_moments_in_any_read_order(alpha, order):
    want = _product_moments(alpha, 60)
    ks = list(range(61))
    if order == "descending":
        ks.reverse()
    elif order == "shuffled":
        random.Random(str(alpha)).shuffle(ks)
    lag = Laguerre(alpha)
    assert [(k, lag.moment(k)) for k in ks] == [(k, want[k]) for k in ks]
    # Reading again, in the other direction, answers the same.
    assert [lag.moment(k) for k in reversed(ks)] == [want[k] for k in reversed(ks)]


def test_laguerre_instances_share_no_list():
    a, b = Laguerre(F(23, 10)), Laguerre(F(23, 10))
    a.moment(40)
    b.moment(3)
    lists = [[v for v in vars(lag).values() if isinstance(v, list)] for lag in (a, b)]
    assert lists[0] and lists[1]
    assert not any(x is y for x in lists[0] for y in lists[1])
    assert b.moment(40) == a.moment(40) == _product_moments(F(23, 10), 40)[40]


def test_laguerre_rejects_negative_alpha():
    with pytest.raises(NegativeAlpha):
        Laguerre(F(-1, 2))


def test_jacobi_moments():
    # on [0, 1] with weight x^a: m_k = (a+1)/(a+k+1)
    jac = Jacobi(F(0))
    assert [jac.moment(k) for k in range(4)] == [1, F(1, 2), F(1, 3), F(1, 4)]
    jac = Jacobi(F(1, 2))
    assert jac.moment(1) == F(3, 5)


def test_jacobi_rejects_small_a():
    with pytest.raises(NegativeAlpha):
        Jacobi(F(-3, 2))


def test_moment_table_exhaustion():
    tab = MomentTable([F(1), F(2)])
    assert tab.moment(1) == 2
    with pytest.raises(TableExhausted):
        tab.moment(2)


def test_tensor_measure_factors():
    t = TensorMeasure(Laguerre(F(1)), Laguerre(F(2)))
    assert t.moment(2, 1) == Laguerre(F(1)).moment(2) * Laguerre(F(2)).moment(1)


def test_table_measure():
    t = TableMeasure({(0, 0): F(1), (1, 0): F(3)})
    assert t.moment(1, 0) == 3
    with pytest.raises(TableExhausted):
        t.moment(0, 1)


def test_system_moment_lookup_and_cache(duo):
    assert duo.r == 2
    v = duo.moment(1, 2, 1)
    assert v == Laguerre(F(1)).moment(2) * Laguerre(F(23, 10)).moment(1)
    # The cache keeps the tensor's integer parts, 6 * 33 over 1 * 10, not
    # in lowest terms; each read makes the moment from them.
    assert duo._moment_cache[(1, 2, 1)] == (198, 10)
    assert duo._moment_parts(1, 2, 1) is duo._moment_cache[(1, 2, 1)]
    with pytest.raises(IndexOutOfRange):
        duo.moment(3, 0, 0)
    with pytest.raises(IndexOutOfRange):
        duo.moment(0, 0, 0)


def test_bad_measure_index_raises_with_warm_cache(duo):
    """The cache is read before j is checked; a bad j or s is never cached."""
    for j in (1, 2):
        duo.moment(j, 0, 0)
    for j in (0, 3, -1):
        with pytest.raises(IndexOutOfRange):
            duo.moment(j, 0, 0)
    xs = make_xsystem()
    for j in (1, 2):
        xs.moment(j, 0)
    for j, s in ((0, 0), (3, 0), (1, 1)):
        with pytest.raises(IndexOutOfRange):
            xs.moment(j, 0, s)


@pytest.mark.parametrize("mode", ["exact", "float64"])
def test_negative_moment_order_raises_and_is_not_cached(mode):
    """A system answers no negative order, and caches nothing for it; the
    measure index is still checked first."""
    table = UniMeasureSystem((MomentTable([1, 2, 3]),), mode=mode)
    lag = UniMeasureSystem((Laguerre(1),), mode=mode)
    pair = MeasureSystem((TensorMeasure(Laguerre(1), Laguerre(F(23, 10))),), mode=mode)
    cases = [(table, (1, -1), "moment order -1 is negative"),
             (lag, (1, -2), "moment order -2 is negative"),
             (pair, (1, -1, 2), r"moment order \(-1, 2\) has a negative component"),
             (pair, (1, 2, -1), r"moment order \(2, -1\) has a negative component"),
             (pair, (2, -1, 0), "measure index 2 not in 1..1")]
    for sys_, args, message in cases:
        sys_.moment(1, 0, 0)
        with pytest.raises(IndexOutOfRange, match=message):
            sys_.moment(*args)
        assert list(sys_._moment_cache) == [(1, 0, 0)]


@pytest.mark.parametrize("family", [
    pytest.param(MomentTable([1, 2, 3]), id="table"),
    pytest.param(Jacobi(F(1, 2)), id="jacobi-1/2"),
    pytest.param(Jacobi(0), id="jacobi-0"),
    pytest.param(Laguerre(1), id="laguerre"),
])
@pytest.mark.parametrize("k", [-1, -3])
def test_built_in_families_reject_a_negative_order(family, k):
    """A negative order is no moment: not a table's entry counted from its
    end, Jacobi's (a + 1) / (a + k + 1) (3 for a = 1/2 and k = -1, a zero
    division for a = 0) or Laguerre's empty product.  Every built-in family
    raises IndexOutOfRange, the systems' error, in moment and moment_parts,
    and a tensor measure passes it on from either axis."""
    tensor = TensorMeasure(family, family)
    calls = [lambda: family.moment(k), lambda: family.moment_parts(k),
             lambda: tensor.moment(k, 0), lambda: tensor.moment_parts(0, k)]
    for call in calls:
        with pytest.raises(IndexOutOfRange, match=f"moment order {k} is negative"):
            call()
    assert family.moment(0) == 1


# The moments of the uniform measure on [-1, 1/2]; the odd ones are negative.
UNIFORM = [(F(1, 2) ** (k + 1) - (-1) ** (k + 1)) / ((k + 1) * F(3, 2)) for k in range(81)]
# Each built-in family with its moments m_0..m_80, from the definitions.
FAMILIES = [
    (lambda: Laguerre(0), _product_moments(F(0), 80)),
    (lambda: Laguerre(F(23, 10)), _product_moments(F(23, 10), 80)),
    (lambda: Laguerre(F(1, 7)), _product_moments(F(1, 7), 80)),
    (lambda: Jacobi(F(-1, 2)), [F(1, 2) / (F(1, 2) + k) for k in range(81)]),
    (lambda: Jacobi(F(3, 2)), [F(5, 2) / (F(5, 2) + k) for k in range(81)]),
    (lambda: MomentTable(UNIFORM), UNIFORM),
]


@pytest.mark.parametrize("kind", range(len(FAMILIES)))
def test_moments_are_the_definitions_in_both_modes(kind):
    """Exact moments are the definitions, and each float64 moment is the
    double nearest to its exact moment, bit for bit; univariate orders
    0-80, and tensor orders t + s <= 80 with the next family as y."""
    family, want = FAMILIES[kind]
    partner, want_y = FAMILIES[(kind + 1) % len(FAMILIES)]
    orders = [(t, s) for t in range(81) for s in range(81 - t)]
    for mode in ("exact", "float64"):
        uni = UniMeasureSystem((family(),), mode=mode)
        tensor = MeasureSystem((TensorMeasure(family(), partner()),), mode=mode)
        got = [uni.moment(1, k) for k in range(81)]
        got_tensor = [tensor.moment(1, t, s) for t, s in orders]
        want_tensor = [want[t] * want_y[s] for t, s in orders]
        if mode == "exact":
            assert got == want
            assert got_tensor == want_tensor
            assert all(type(v) is F for v in got + got_tensor)
        else:
            assert [v.hex() for v in got] == [float(v).hex() for v in want]
            assert [v.hex() for v in got_tensor] == [float(v).hex() for v in want_tensor]


def test_float_moments_end_at_the_float_range():
    """Laguerre(10^120): m_2 (about 10^240) is a float64, m_3 is past the
    range, for a univariate and for a tensor system."""
    want = _product_moments(F(10 ** 120), 3)
    uni = UniMeasureSystem((Laguerre(10 ** 120),), mode="float64")
    tensor = MeasureSystem((TensorMeasure(Laguerre(10 ** 120), Laguerre(0)),), mode="float64")
    assert uni.moment(1, 2).hex() == tensor.moment(1, 2, 0).hex() == float(want[2]).hex()
    for read, order in ((lambda: uni.moment(1, 3), "3"), (lambda: tensor.moment(1, 3, 0), "(3, 0)")):
        with pytest.raises(ValidationError, match=rf"measure 1: the moment of order "
                                                  rf"{re.escape(order)} exceeds the float64"):
            read()


def test_float_mode_moments():
    sys_ = MeasureSystem(
        measures=(TensorMeasure(Laguerre(F(1)), Laguerre(F(1))),), mode="float64")
    assert isinstance(sys_.moment(1, 1, 1), float)
    assert not sys_.exact


def test_parse_config_roundtrip():
    text = """
    {"scalar": "exact", "measures": [
      {"kind": "tensor",
       "x": {"family": "laguerre", "alpha": 1},
       "y": {"family": "laguerre", "alpha": "2.3"}},
      {"kind": "table", "moments": [{"t": 0, "s": 0, "value": 1}]}
    ]}
    """
    sys_ = parse_config(text)
    assert sys_.r == 2
    assert sys_.moment(1, 0, 1) == Laguerre(F(23, 10)).moment(1)
    assert sys_.moment(2, 0, 0) == 1


def test_parse_config_mode_and_tol_override():
    """mode replaces the document's scalar mode; float mode has no tolerance
    to override, so tol is no parameter."""
    text = '{"scalar": "exact", "measures": [{"kind": "tensor", "x": {"family": "laguerre", "alpha": 1}, "y": {"family": "laguerre", "alpha": "2.3"}}]}'
    sys_ = parse_config(text, mode="float64")
    assert sys_.mode == "float64"
    with pytest.raises(TypeError):
        parse_config(text, mode="float64", tol=1e-6)
    assert sys_.moment(1, 1, 1) == float(F(2) * F(33, 10))
    assert parse_config(text).mode == "exact"


def test_parse_config_rejects_float_exponent():
    """A JSON float is no rational literal wherever a rational goes, a
    family's exponent or a moment value of either kind of table, and the
    message names rationals."""
    laguerre = {"family": "laguerre", "alpha": 1}
    cases = [({"kind": "tensor", "x": {"family": "laguerre", "alpha": 2.2}, "y": laguerre},
              "$.measures[0].x.alpha"),
             ({"kind": "tensor", "x": {"family": "jacobi", "a": 0.5}, "y": laguerre},
              "$.measures[0].x.a"),
             ({"kind": "tensor", "x": {"family": "table", "moments": [1, 0.5]}, "y": laguerre},
              "$.measures[0].x.moments[1]"),
             ({"kind": "table", "moments": [{"t": 0, "s": 0, "value": 1.5}]},
              "$.measures[0].moments[0].value")]
    for measure, path in cases:
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps({"measures": [measure]}))
        assert err.value.path == path
        assert str(err.value) == f"{path}: give rationals as strings or integers, not floats"


def test_parse_config_error_paths():
    with pytest.raises(SchemaError) as err:
        parse_config("not json")
    assert err.value.path == "$"
    with pytest.raises(SchemaError) as err:
        parse_config('{"measures": []}')
    assert err.value.path == "$.measures"
    with pytest.raises(SchemaError) as err:
        parse_config('{"measures": [{"kind": "mystery"}]}')
    assert err.value.path == "$.measures[0].kind"


def test_a_5000_digit_alpha_parses_as_an_integer_and_as_a_string():
    """Past Python's 4300-digit int/str limit, a JSON integer and the same
    digits as a string give the same system; a negative one is reported."""
    digits = "1" * 5000
    alpha = (10 ** 5000 - 1) // 9
    doc = ('{"measures": [{"kind": "tensor", "x": {"family": "laguerre", "alpha": %s},'
           ' "y": {"family": "jacobi", "a": %s}}]}')
    systems = [parse_config(doc % (a, a)) for a in (digits, f'"{digits}"', f'"{digits}/1"')]
    for sys_ in systems:
        tensor = sys_.measures[0]
        assert (tensor.x.alpha, tensor.y.a) == (alpha, alpha)
        assert sys_.moment(1, 2, 1) == (alpha + 1) ** 2
    with pytest.raises(NegativeAlpha):
        parse_config(doc % ("-" + digits, 1))


def test_parse_config_table_family():
    text = """{"measures": [{"kind": "tensor",
      "x": {"family": "table", "moments": [1, "1/2", "0.25"]},
      "y": {"family": "jacobi", "a": 0}}]}"""
    sys_ = parse_config(text)
    assert sys_.moment(1, 2, 1) == F(1, 4) * F(1, 2)
    with pytest.raises(TableExhausted):
        sys_.moment(1, 3, 0)


LAGUERRE = {"family": "laguerre", "alpha": 1}


def one_measure(measure):
    return json.dumps({"measures": [measure]})


@pytest.mark.parametrize("text, path", [
    pytest.param("[]", "$", id="document-not-an-object"),
    pytest.param('{"measures": {}}', "$.measures", id="measures-not-a-list"),
    pytest.param(one_measure([]), "$.measures[0]", id="measure-not-an-object"),
    pytest.param(one_measure({"kind": "tensor", "x": LAGUERRE}), "$.measures[0]",
                 id="tensor-without-y"),
    pytest.param(one_measure({"kind": "table", "moments": []}), "$.measures[0].moments",
                 id="table-without-moments"),
    pytest.param(one_measure({"kind": "table", "moments": [{"t": 0, "value": 1}]}),
                 "$.measures[0].moments[0]", id="table-entry-without-s"),
    pytest.param(one_measure({"kind": "table", "moments": [{"t": 0, "s": 0, "value": "x"}]}),
                 "$.measures[0].moments[0].value", id="table-value-not-rational"),
    pytest.param(one_measure({"kind": "tensor", "x": 1, "y": LAGUERRE}), "$.measures[0].x",
                 id="family-not-an-object"),
    pytest.param(one_measure({"kind": "tensor", "x": LAGUERRE, "y": {"family": "laguerre"}}),
                 "$.measures[0].y.alpha", id="laguerre-without-alpha"),
    pytest.param(one_measure({"kind": "tensor", "x": {"family": "jacobi"}, "y": LAGUERRE}),
                 "$.measures[0].x.a", id="jacobi-without-a"),
    pytest.param(one_measure({"kind": "tensor", "x": {"family": "table", "moments": []},
                              "y": LAGUERRE}), "$.measures[0].x.moments",
                 id="family-table-without-moments"),
    pytest.param(one_measure({"kind": "tensor", "x": {"family": "hermite"}, "y": LAGUERRE}),
                 "$.measures[0].x.family", id="unknown-family"),
    pytest.param(one_measure({"kind": "tensor", "x": {"family": "laguerre", "alpha": "1/0"},
                              "y": LAGUERRE}), "$.measures[0].x.alpha", id="zero-denominator"),
])
def test_parse_config_schema_errors(text, path):
    with pytest.raises(SchemaError) as err:
        parse_config(text)
    assert err.value.path == path


@pytest.mark.parametrize("t, s", [(-1, 0), (0, -2), (True, 0), (0, False), (1.0, 0)])
def test_table_measure_exponents_must_be_naturals(t, s):
    text = one_measure({"kind": "table", "moments": [{"t": t, "s": s, "value": 1}]})
    with pytest.raises(SchemaError, match="t and s must be naturals") as err:
        parse_config(text)
    assert err.value.path == "$.measures[0].moments[0]"


def test_parse_uni_config():
    sys_ = parse_uni_config([{"family": "laguerre", "alpha": 1},
                             {"family": "jacobi", "a": "0.5"}])
    assert sys_.r == 2
    assert sys_.moment(2, 1) == F(3, 5)
    with pytest.raises(SchemaError):
        parse_uni_config([])


def test_systems_reject_an_unknown_scalar_mode():
    for make in (lambda: MeasureSystem(measures=(TensorMeasure(Laguerre(1), Laguerre(1)),),
                                       mode="exakt"),
                 lambda: UniMeasureSystem(families=(Laguerre(1),), mode="exakt")):
        with pytest.raises(SchemaError) as err:
            make()
        assert err.value.path == "$.scalar"


def test_systems_need_a_measure():
    """The missing measure is reported first, before a bad mode."""
    for make in (lambda: MeasureSystem(measures=()), lambda: UniMeasureSystem(families=()),
                 lambda: MeasureSystem(measures=(), mode="exakt"),
                 lambda: UniMeasureSystem(families=(), mode="exakt")):
        with pytest.raises(SchemaError, match="at least one measure required") as err:
            make()
        assert err.value.path == "$.measures"


def test_float_moment_past_the_float_range_names_measure_and_order():
    """Float mode converts each moment once, on a cache miss; one past the
    float range is a ValidationError, and nothing is cached for it."""
    huge = Laguerre(10 ** 120)
    bi = MeasureSystem(measures=(TensorMeasure(Laguerre(1), Laguerre(1)),
                                 TensorMeasure(Laguerre(1), huge)), mode="float64")
    uni = UniMeasureSystem(families=(Laguerre(1), huge), mode="float64")
    for sys_, fits, past, order in [(bi, (2, 0, 2), (2, 0, 3), "(0, 3)"),
                                    (uni, (2, 2), (2, 3), "3")]:
        assert type(sys_.moment(*fits)) is float
        with pytest.raises(ValidationError) as err:
            sys_.moment(*past)
        assert str(err.value) == (f"measure 2: the moment of order {order} exceeds "
                                  "the float64 range; use exact mode")
        assert len(sys_._moment_cache) == 1
    exact = UniMeasureSystem(families=(huge,))
    assert exact.moment(1, 3) == (10 ** 120 + 1) * (10 ** 120 + 2) * (10 ** 120 + 3)


REIMPORT = """
import contextlib, gc, importlib, io, sys, weakref
old = weakref.ref(importlib.import_module("bimop.measures").Laguerre)
with contextlib.redirect_stdout(io.StringIO()):
    assert importlib.import_module("bimop.cli").run(["pair", "1", "2"]) == 0
for name in [m for m in sys.modules if m == "bimop" or m.startswith("bimop.")]:
    del sys.modules[name]
importlib.import_module("bimop")
gc.collect()
sys.exit(0 if old() is None else 1)
"""


def test_reimport_releases_previous_measures_module():
    """Nothing outside bimop (such as typing's cache, or the CLI parser built
    by a first ``cli.run``) keeps an old copy alive."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", REIMPORT], env=env).returncode == 0

"""List the outcomes of bimop's public calls, one line each, to pin them.

Each line is a label, a tab, then the outcome: the ``repr`` of the result,
or ``ErrorClass: message`` when the call raised.  Every section builds
fresh systems and runs in both scalar modes:

- ``normality``, ``type2`` and ``type1`` on the two-measure Laguerre system
  for every index <= (8, 8), on the four-measure product system for every
  index with entries <= 3, and on a one-measure moment table of 6 x 6
  moments for (k,), k < 12;
- ``uni_normality``, ``uni_type2`` and ``uni_type1`` on the univariate
  Laguerre(1), Jacobi(1/2) system for every index <= (6, 6);
- ``normality``, ``type2`` and ``type1`` for every index <= (5, 5) on the
  tensor measures Jacobi(-1/2) x Laguerre(1/7) and a moment table (with
  negative moments) x Jacobi(3/2), one system over every family kind;
- ``nnr_type2`` (default path, and w = n + 9 e_1) and ``nnr_type1`` for
  components 1-8 on both axes, as ``to_json()``; five or six bad paths for
  each of them, and one good path passed as a ``Path`` and as a list;
- ``nnr_vector`` with its default lower and upper chains on every chain of
  degree 1 or 2 and on the degree-3 chains from (2, 4), (3, 3) and (4, 2),
  and ``biorth_matrix`` on every pair of chains of degree <= 2;
- ``product_poly``, ``verify_product`` at ``find_v``'s v and
  ``det_factor_check`` (the factors n and m; n twice with a moment of each
  axis; no factor) for every pair n, m of 2-indices with entries <= 2, on
  the product of the two Laguerre pairs and on Jacobi(1/2), Jacobi(6/5) x
  Jacobi(1/3), Jacobi(7/4); on the latter also ``det_factor_check`` at v =
  (0, 0, 1, 2) with one, two and three x factors (8, 8), whose dets are
  about 1.6e-151 each; and one indeterminate check and one vanishing
  factor on moment tables;
- system construction with no measure, a bad mode, and both;
- ``linalg.det`` and ``linalg.solve`` on a few exact and float matrices:
  regular, singular, not square, with a wrong rhs length, one whose float
  LU stops though it is regular, and entries nan and inf;
- every CLI line of README.md, plain, with ``--float`` and with
  ``--pretty``, run in-process: exit code, stdout and stderr;
- the CLI's error paths, run the same way: each config command with no
  ``--config``, a missing config file, a config that is not JSON and a bad
  index text; each command that solves the index it is given on
  (0, 0, 1, 1), which is not normal for the four-measure product of the
  README families; and a product config without ``"y"``.  Argparse's own
  usage messages are left out: their wording moves between Python releases.

    python3 tools/outcomes.py          # print the listing
    python3 tools/outcomes.py --pin    # write tests/data/outcomes.txt

The pin holds "<digest>  <label>" per line, the digest the first 16 hex
digits of the sha256 of the outcome; ``tests/test_outcomes.py`` compares
it with a fresh listing.  Re-pinning changes what bimop promises to keep.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import re
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN = ROOT / "tests" / "data" / "outcomes.txt"
sys.path.insert(0, str(ROOT / "src"))

from bimop import (  # noqa: E402
    Jacobi,
    Matrix,
    Laguerre,
    MeasureSystem,
    MomentTable,
    ProductSystem,
    TableMeasure,
    TensorMeasure,
    UniMeasureSystem,
    biorth_matrix,
    canonical_path,
    det,
    det_factor_check,
    find_v,
    nnr_type1,
    nnr_type2,
    nnr_vector,
    normality,
    product_poly,
    solve,
    type1,
    type2,
    uni_normality,
    uni_type1,
    uni_type2,
    verify_product,
)
from bimop.cli import run  # noqa: E402

MODES = ("exact", "float64")
X_ALPHAS = (F(1), F(11, 5))
Y_ALPHAS = (F(23, 10), F(17, 5))


def pair_system(mode):
    return MeasureSystem(measures=tuple(TensorMeasure(Laguerre(a), Laguerre(b))
                                        for a, b in zip(X_ALPHAS, Y_ALPHAS)), mode=mode)


def quad_system(mode):
    return ProductSystem.build(
        UniMeasureSystem(families=tuple(map(Laguerre, X_ALPHAS)), mode=mode),
        UniMeasureSystem(families=tuple(map(Laguerre, Y_ALPHAS)), mode=mode)).bivariate


def table_system(mode):
    """The moments 1 / ((t + 1)(s + 1)) of the unit square, t, s < 6."""
    return MeasureSystem(measures=(TableMeasure(
        {(t, s): F(1, (t + 1) * (s + 1)) for t in range(6) for s in range(6)}),), mode=mode)


def mixed_system(mode):
    """Tensor measures over every family kind.  The table holds the moments
    of the uniform measure on [-1, 1/2], whose odd moments are negative."""
    table = MomentTable([(F(1, 2) ** (k + 1) - (-1) ** (k + 1)) / ((k + 1) * F(3, 2))
                         for k in range(16)])
    return MeasureSystem(measures=(TensorMeasure(Jacobi(F(-1, 2)), Laguerre(F(1, 7))),
                                   TensorMeasure(table, Jacobi(F(3, 2)))), mode=mode)


def uni_system(mode):
    return UniMeasureSystem(families=(Laguerre(1), Jacobi(F(1, 2))), mode=mode)


def product_systems(mode):
    """The product of the two Laguerre pairs, and Jacobi(1/2), Jacobi(6/5)
    x Jacobi(1/3), Jacobi(7/4)."""
    def build(xs, ys):
        return ProductSystem.build(UniMeasureSystem(families=xs, mode=mode),
                                   UniMeasureSystem(families=ys, mode=mode))
    return {"laguerre": build(tuple(map(Laguerre, X_ALPHAS)), tuple(map(Laguerre, Y_ALPHAS))),
            "jacobi": build((Jacobi(F(1, 2)), Jacobi(F(6, 5))),
                            (Jacobi(F(1, 3)), Jacobi(F(7, 4))))}


def outcome(call) -> str:
    """repr of call(), or "ErrorClass: message" when it raises."""
    try:
        return repr(call())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _text(n) -> str:
    return ",".join(map(str, n))


def _constructions(name, sys_, indices, fns=(normality, type2, type1)):
    for n in indices:
        for fn in fns:
            yield f"{name}.{fn.__name__}.{_text(n)}", lambda: fn(sys_, n)


def _document(check):
    return lambda: json.dumps(check().to_json())


def _recurrences(sys_):
    for n in itertools.product(range(1, 9), repeat=2):
        for axis in "xy":
            w = (n[0] + 9,) + n[1:]
            yield (f"nnr_type2.{_text(n)}.{axis}",
                   _document(lambda: nnr_type2(sys_, n, axis)))
            yield (f"nnr_type2.{_text(n)}.{axis}.w={_text(w)}",
                   _document(lambda: nnr_type2(sys_, n, axis, w=w)))
            yield (f"nnr_type1.{_text(n)}.{axis}",
                   _document(lambda: nnr_type1(sys_, n, axis)))


def _paths(sys_):
    """(6, 8) on x for nnr_type2, (2, 2) on x for nnr_type1: a gap, a short
    span, a wrong entry below the top, a wrong top and a start with a
    negative component; then a good path."""
    type2_paths = [
        ("gap", [(1, 3), (3, 3), (6, 8), (11, 8)], None),
        ("span", canonical_path([(1, 3), (6, 8), (10, 8)]).steps, None),
        ("v", canonical_path([(2, 2), (6, 8), (11, 8)]).steps, None),
        ("w", canonical_path([(1, 3), (6, 8), (11, 8)]).steps, (10, 9)),
        ("negative", ((-1, 3),) + canonical_path([(0, 3), (6, 8), (11, 8)]).steps, None),
    ]
    for tag, path, w in type2_paths:
        yield (f"nnr_type2.path.{tag}",
               _document(lambda: nnr_type2(sys_, (6, 8), "x", path=path, w=w)))
    type1_paths = [
        ("gap", [(1, 1), (3, 1), (4, 1)]),
        ("span", canonical_path([(2, 1), (2, 2), (5, 5)]).steps),
        ("n", canonical_path([(1, 1), (3, 1), (5, 5)]).steps),
        ("end", canonical_path([(1, 1), (2, 2), (6, 4)]).steps),
        ("negative0", ((1, -1),) + canonical_path([(1, 0), (2, 2), (5, 5)]).steps),
        ("negative1", ((2, -1),) + canonical_path([(2, 0), (2, 2), (5, 5)]).steps),
    ]
    for tag, path in type1_paths:
        yield (f"nnr_type1.path.{tag}",
               _document(lambda: nnr_type1(sys_, (2, 2), "x", path=path)))
    good2 = canonical_path([(0, 2), (6, 8), (11, 8)])
    good1 = canonical_path([(1, 1), (2, 2), (5, 5)])
    for kind, wrap in (("Path", lambda p: p), ("list", lambda p: [list(s) for s in p.steps])):
        yield (f"nnr_type2.path.{kind}",
               _document(lambda: nnr_type2(sys_, (6, 8), "y", path=wrap(good2))))
        yield (f"nnr_type1.path.{kind}",
               _document(lambda: nnr_type1(sys_, (2, 2), "y", path=wrap(good1))))


def _chains(r, d):
    """Every degree-d chain of r-indices."""
    base = d * (d + 1) // 2
    starts = [n for n in itertools.product(range(base + 1), repeat=r) if sum(n) == base]
    chains = [[n] for n in starts]
    for _ in range(d):
        chains = [ch + [tuple(c + (i == j) for i, c in enumerate(ch[-1]))]
                  for ch in chains for j in range(r)]
    return chains


def _vectors(sys_):
    chains = _chains(2, 1) + _chains(2, 2)
    chains += [ch for ch in _chains(2, 3) if min(ch[0]) >= 2]
    for chain in chains:
        for axis in "xy":
            yield (f"nnr_vector.{';'.join(map(_text, chain))}.{axis}",
                   _document(lambda: nnr_vector(sys_, chain, axis)))
    chains = _chains(2, 0) + _chains(2, 1) + _chains(2, 2)
    for a, b in itertools.product(chains, repeat=2):
        yield (f"biorth_matrix.{';'.join(map(_text, a))}|{';'.join(map(_text, b))}",
               lambda: biorth_matrix(sys_, a, b))


def _products(mode):
    for name, ps in product_systems(mode).items():
        for n, m in itertools.product(itertools.product(range(3), repeat=2), repeat=2):
            v = find_v(n, m)
            tag = f"product.{name}.{_text(n)}|{_text(m)}"
            yield f"{tag}.product_poly", lambda: product_poly(ps, n, m)
            yield f"{tag}.verify_product.{_text(v)}", lambda: verify_product(ps, n, m, v)
            yield (f"{tag}.det_factor_check.{_text(v)}",
                   lambda: det_factor_check(ps, v, x_factors=[n], y_factors=[m]))
            yield (f"{tag}.det_factor_check.{_text(v)}.moments",
                   lambda: det_factor_check(ps, v, x_factors=[n, n], y_factors=[m],
                                            x_moments=[(1, 1)], y_moments=[(2, 3)]))
            yield f"{tag}.det_factor_check.{_text(v)}.none", lambda: det_factor_check(ps, v)
    ps = product_systems(mode)["jacobi"]
    for k in (1, 2, 3):
        yield (f"product.jacobi.det_factor_check.0,0,1,2.x=8,8*{k}",
               lambda: det_factor_check(ps, (0, 0, 1, 2), x_factors=[(8, 8)] * k))
    zero = UniMeasureSystem(families=(MomentTable([F(0)]),), mode=mode)
    yield ("product.zero.det_factor_check.indeterminate",
           lambda: det_factor_check(ProductSystem.build(zero, zero), (1,), x_moments=[(1, 0)]))
    xs = UniMeasureSystem(families=(MomentTable([F(1), F(0)]),), mode=mode)
    ys = UniMeasureSystem(families=(MomentTable([F(1), F(1)]),), mode=mode)
    yield ("product.zero.det_factor_check.vanishing",
           lambda: det_factor_check(ProductSystem.build(xs, ys), (1,), x_moments=[(1, 1)]))


# (name, rows, rhs) for linalg.det and linalg.solve; "stops" is regular,
# though its float LU stops at its second pivot.
MATRICES = [
    ("exact.empty", [], []),
    ("exact.identity", [[F(1), F(0)], [F(0), F(1)]], [F(3), F(-2)]),
    ("exact.hankel", [[F(1), F(2)], [F(2), F(6)]], [F(1, 3), F(5)]),
    ("exact.singular", [[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)]),
    ("exact.wide", [[F(1), F(2)]], [F(1)]),
    ("exact.short-rhs", [[F(1), F(2)], [F(3), F(4)]], [F(1)]),
    ("float.diagonal", [[2.0, 0.0], [0.0, 3.0]], [4.0, 9.0]),
    ("float.tenths", [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 1.0]], [0.1, 0.2, 0.3]),
    ("float.singular", [[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]),
    ("float.stops", [[1.0, 1.0], [1.0, 1.0 + 1e-13]], [1.0, 2.0]),
    ("float.wide", [[1.0, 2.0]], [1.0]),
    ("float.mixed", [[F(1, 3), 0.5], [2, 0.25]], [1, 0.5]),
    ("float.nan", [[1.0, float("nan")], [0.0, 1.0]], [1.0, 1.0]),
    ("float.inf", [[1.0, 0.0], [float("inf"), 1.0]], [1.0, 1.0]),
]


def _linalg():
    for name, rows, rhs in MATRICES:
        yield f"linalg.det.{name}", lambda: det(Matrix.from_rows(rows))
        yield f"linalg.solve.{name}", lambda: solve(Matrix.from_rows(rows), rhs)


def _systems():
    measure = TensorMeasure(Laguerre(1), Laguerre(2))
    for cls, field, item in ((MeasureSystem, "measures", measure),
                             (UniMeasureSystem, "families", Laguerre(1))):
        for tag, items, mode in (("empty", (), "exact"), ("mode", (item,), "exakt"),
                                 ("empty+mode", (), "exakt")):
            yield f"{cls.__name__}.{tag}", lambda: cls(**{field: items, "mode": mode})


def _cli_lines(readme: str):
    block = re.search(r"```sh\n(bimop .*?)```", readme, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] + flags
            for line in block.splitlines() for flags in ([], ["--float"], ["--pretty"])]


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


# Each config command with good arguments for the README configs, and the
# flag of its first index (None: it takes none).
CONFIG_COMMANDS = [
    (["normal", "--index", "4,3"], "--index"),
    (["type2", "--index", "2,3"], "--index"),
    (["type1", "--index", "1,2"], "--index"),
    (["biorth", "--n", "2,2", "--m", "2,3"], "--n"),
    (["nnr", "--index", "6,8", "--axis", "x"], "--index"),
    (["nnr-q", "--index", "2,2", "--axis", "x"], "--index"),
    (["vector", "--chain", "1,2;1,3;2,3", "--axis", "y"], "--chain"),
    (["product", "--n", "0,1", "--m", "1,0"], "--n"),
    (["check"], None),
]
# (0, 0, 1, 1) is not normal for the four-measure product of the README
# families; nnr is left out, as it takes no index this small.
NOT_NORMAL = [
    ["normal", "--index", "0,0,1,1"],
    ["type2", "--index", "0,0,1,1"],
    ["type1", "--index", "0,0,1,1"],
    ["biorth", "--n", "0,0,1,1", "--m", "1,0,1,1"],
    ["nnr-q", "--index", "0,0,1,1", "--axis", "x"],
    ["vector", "--chain", "0,0,0,1;0,0,1,1", "--axis", "x"],
]


def _with_config(argv, config):
    return argv[:1] + ["--config", config] + argv[1:]


def _cli_errors():
    """Error paths of the CLI, for the files _cli_files writes in the cwd."""
    for argv, flag in CONFIG_COMMANDS:
        yield argv
        yield _with_config(argv, "missing.json")
        yield _with_config(argv, "text.json")
        if flag:
            bad = list(argv)
            bad[bad.index(flag) + 1] = "1,x"
            yield _with_config(bad, "prod.json" if argv[0] == "product" else "sys.json")
    for argv in NOT_NORMAL:
        yield _with_config(argv, "quad.json")
    yield _with_config(["product", "--n", "0,1", "--m", "1,0"], "x-only.json")


def _cli_files(doc):
    """The configs the CLI sections read, from the README's measure config."""
    xs, ys = [m["x"] for m in doc["measures"]], [m["y"] for m in doc["measures"]]
    quad = [{"kind": "tensor", "x": x, "y": y} for x in xs for y in ys]
    return {"sys.json": json.dumps(doc),
            "prod.json": json.dumps({"scalar": "exact", "x": xs, "y": ys}),
            "quad.json": json.dumps({"scalar": "exact", "measures": quad}),
            "text.json": "not json",
            "x-only.json": json.dumps({"x": []})}


def outcomes():
    """Every (label, outcome) of the listing, in order.

    The sections yield calls that read their loop variables, so each call
    runs before its section resumes."""
    for mode in MODES:
        sections = [("pair", pair_system(mode), itertools.product(range(9), repeat=2)),
                    ("quad", quad_system(mode), itertools.product(range(4), repeat=4)),
                    ("table", table_system(mode), ((k,) for k in range(12))),
                    ("mixed", mixed_system(mode), itertools.product(range(6), repeat=2))]
        for name, sys_, indices in sections:
            for label, call in _constructions(name, sys_, indices):
                yield f"{mode}.{label}", outcome(call)
        uni = _constructions("uni", uni_system(mode), itertools.product(range(7), repeat=2),
                             (uni_normality, uni_type2, uni_type1))
        for label, call in uni:
            yield f"{mode}.{label}", outcome(call)
        for section in (_recurrences, _paths, _vectors):
            for label, call in section(pair_system(mode)):
                yield f"{mode}.{label}", outcome(call)
        for label, call in _products(mode):
            yield f"{mode}.{label}", outcome(call)
    for label, call in _systems():
        yield label, outcome(call)
    for label, call in _linalg():
        yield label, outcome(call)

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    doc = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _cli_files(doc).items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            for argv in _cli_lines(readme) + list(_cli_errors()):
                yield "cli " + " ".join(argv), outcome(lambda: _cli(argv))
        finally:
            os.chdir(cwd)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--pin"]:
        PIN.write_text("".join(f"{digest(o)}  {label}\n" for label, o in outcomes()),
                       encoding="utf-8")
        return 0
    if argv:
        print("usage: python3 tools/outcomes.py [--pin]", file=sys.stderr)
        return 2
    for label, o in outcomes():
        print(f"{label}\t{o}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

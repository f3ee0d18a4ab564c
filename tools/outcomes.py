"""List the outcomes of bimop's public calls, one line each, to pin them.

Each line is a label, a tab, then the outcome: the ``repr`` of the result,
or ``ErrorClass: message`` when the call raised.  Every section builds
fresh systems and runs in both scalar modes:

- ``normality``, ``type2`` and ``type1`` on the two-measure Laguerre system
  for every index <= (8, 8), on the four-measure product system for every
  index with entries <= 3, and on a one-measure moment table of 6 x 6
  moments for (k,), k < 12;
- ``nnr_type2`` (default path, and w = n + 9 e_1) and ``nnr_type1`` for
  components 1-8 on both axes, as ``to_json()``; five or six bad paths for
  each of them, and one good path passed as a ``Path`` and as a list;
- ``nnr_vector`` with its default lower and upper chains on every chain of
  degree 1 or 2 and on the degree-3 chains from (2, 4), (3, 3) and (4, 2),
  and ``biorth_matrix`` on every pair of chains of degree <= 2;
- system construction with no measure, a bad mode, and both;
- every CLI line of README.md, plain, with ``--float`` and with
  ``--pretty``, run in-process: exit code, stdout and stderr.

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
    Laguerre,
    MeasureSystem,
    ProductSystem,
    TableMeasure,
    TensorMeasure,
    UniMeasureSystem,
    biorth_matrix,
    canonical_path,
    nnr_type1,
    nnr_type2,
    nnr_vector,
    normality,
    type1,
    type2,
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


def outcome(call) -> str:
    """repr of call(), or "ErrorClass: message" when it raises."""
    try:
        return repr(call())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _text(n) -> str:
    return ",".join(map(str, n))


def _constructions(name, sys_, indices):
    for n in indices:
        for fn in (normality, type2, type1):
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


def outcomes():
    """Every (label, outcome) of the listing, in order.

    The sections yield calls that read their loop variables, so each call
    runs before its section resumes."""
    for mode in MODES:
        sections = [("pair", pair_system(mode), itertools.product(range(9), repeat=2)),
                    ("quad", quad_system(mode), itertools.product(range(4), repeat=4)),
                    ("table", table_system(mode), ((k,) for k in range(12)))]
        for name, sys_, indices in sections:
            for label, call in _constructions(name, sys_, indices):
                yield f"{mode}.{label}", outcome(call)
        for section in (_recurrences, _paths, _vectors):
            for label, call in section(pair_system(mode)):
                yield f"{mode}.{label}", outcome(call)
    for label, call in _systems():
        yield label, outcome(call)

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    doc = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sys.json").write_text(json.dumps(doc))
        Path(tmp, "prod.json").write_text(json.dumps({
            "scalar": "exact", "x": [m["x"] for m in doc["measures"]],
            "y": [m["y"] for m in doc["measures"]]}))
        os.chdir(tmp)
        try:
            for argv in _cli_lines(readme):
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

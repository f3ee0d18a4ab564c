"""Command-line front end with JSON output.

Exit codes: 0 success, 2 not-normal index, 3 validation error (a usage
error included), 4 a verification command whose check does not hold.

The argument parser is built once per process, at the first ``run``, so
in-process callers that run many commands pay for it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from . import multiindex as mi
from . import relations
from .errors import BimopError, NotNormal, SchemaError
from .linalg import FLOAT_TOL, format_scalar
from .measures import (EXACT, FLOAT64, MeasureSystem, _check_mode, parse_config,
                       parse_uni_config, read_json)
from .mopcore import (
    BiPoly,
    normality,
    poly_to_json,
    type1,
    type2,
)
from .product import ProductSystem, find_v, product_poly, tilde_v, verify_product

EXIT_OK = 0
EXIT_NOT_NORMAL = 2
EXIT_INVALID = 3
EXIT_FAILED = 4


def _parse_index(text: str, flag: str = "--index") -> tuple:
    try:
        index = tuple(int(x) for x in text.split(","))
    except ValueError:
        index = None
    if index is None or min(index) < 0:
        raise SchemaError(flag, f"expected comma-separated naturals, got {text!r}")
    return index


def _parse_chain(text: str, flag: str) -> list:
    return [_parse_index(part, flag) for part in text.split(";") if part]


def _natural(value: int, name: str) -> int:
    if value < 0:
        raise SchemaError(name, f"expected a natural, got {value}")
    return value


def _read_config(args) -> str:
    """The text of the --config file, which JSON requires to be UTF-8."""
    if not args.config:
        raise SchemaError("--config", "a measure config is required for this command")
    with open(args.config, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError("$", f"not UTF-8: {exc}") from None


def _load_system(args) -> MeasureSystem:
    return parse_config(_read_config(args), mode=FLOAT64 if args.float_mode else None,
                        tol=args.tol)


def _load_product_system(args) -> ProductSystem:
    doc = read_json(_read_config(args))
    if not isinstance(doc, dict) or "x" not in doc or "y" not in doc:
        raise SchemaError("$", "product config needs 'x' and 'y' family lists")
    scalar = _check_mode(doc.get("scalar", EXACT))
    mode = FLOAT64 if args.float_mode else scalar
    xs = parse_uni_config(doc["x"], "$.x", mode, args.tol)
    ys = parse_uni_config(doc["y"], "$.y", mode, args.tol)
    return ProductSystem.build(xs, ys)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=False))


def _poly_doc(p: BiPoly, pretty: bool) -> dict:
    doc = poly_to_json(p)
    if pretty:
        doc["pretty"] = p.pretty()
    return doc


def cmd_pair(args) -> int:
    _emit({"pi": mi.pair(_natural(args.t, "t"), _natural(args.s, "s"))})
    return EXIT_OK


def cmd_unpair(args) -> int:
    t, s = mi.unpair(_natural(args.z, "z"))
    _emit({"t": t, "s": s})
    return EXIT_OK


def cmd_params(args) -> int:
    p = mi.params(_parse_index(args.index))
    _emit({"modulus": p.modulus, "multidegree": list(p.multidegree),
           "degree": p.degree, "remainder": p.remainder})
    return EXIT_OK


def cmd_normal(args) -> int:
    sys_ = _load_system(args)
    v = normality(sys_, _parse_index(args.index))
    _emit({"normal": v.normal, "det": format_scalar(v.det)})
    return EXIT_OK if v.normal else EXIT_NOT_NORMAL


def cmd_type2(args) -> int:
    sys_ = _load_system(args)
    p = type2(sys_, _parse_index(args.index))
    _emit(_poly_doc(p, args.pretty))
    return EXIT_OK


def cmd_type1(args) -> int:
    sys_ = _load_system(args)
    aset = type1(sys_, _parse_index(args.index))
    _emit({"polys": [_poly_doc(a, args.pretty) for a in aset.polys]})
    return EXIT_OK


def cmd_biorth(args) -> int:
    sys_ = _load_system(args)
    res = relations.biorth(sys_, _parse_index(args.n, "--n"),
                           _parse_index(args.m, "--m"))
    _emit({"value": format_scalar(res.value), "label": res.label,
           "expected": res.expected, "matches": res.matches})
    if res.matches is False:
        return EXIT_FAILED
    return EXIT_OK


def cmd_nnr(args) -> int:
    sys_ = _load_system(args)
    path = _parse_chain(args.path, "--path") if args.path else None
    w = _parse_index(args.w, "--w") if args.w else None
    report = relations.nnr_type2(sys_, _parse_index(args.index), args.axis,
                                 path=path, w=w)
    _emit(report.to_json())
    return EXIT_OK if report.holds else EXIT_FAILED


def cmd_nnr_q(args) -> int:
    sys_ = _load_system(args)
    path = _parse_chain(args.path, "--path") if args.path else None
    report = relations.nnr_type1(sys_, _parse_index(args.index), args.axis, path=path)
    _emit(report.to_json())
    return EXIT_OK if report.holds else EXIT_FAILED


def cmd_vector(args) -> int:
    sys_ = _load_system(args)
    report = relations.nnr_vector(sys_, _parse_chain(args.chain, "--chain"), args.axis)
    _emit(report.to_json())
    return EXIT_OK if report.holds else EXIT_FAILED


def cmd_product(args) -> int:
    ps = _load_product_system(args)
    n = _parse_index(args.n, "--n")
    m = _parse_index(args.m, "--m")
    tv = tilde_v(n, m)
    v = _parse_index(args.v, "--v") if args.v else find_v(n, m)
    match = verify_product(ps, n, m, v)
    doc = {"tilde_v": list(tv), "v": list(v), "match": match,
           "poly": _poly_doc(product_poly(ps, n, m), args.pretty)}
    _emit(doc)
    return EXIT_OK if match else EXIT_FAILED


def cmd_check(args) -> int:
    sys_ = _load_system(args)
    checks = []

    ok = all(mi.pair(*mi.unpair(z)) == z for z in range(2000))
    checks.append(("pairing-roundtrip", ok))

    r = sys_.r
    bound = 4 if r <= 2 else 3
    indices = _indices_up_to(r, bound)
    normal = [n for n in indices if normality(sys_, n).normal]
    orth_ok = all(relations.gram_pattern_holds(sys_, n, type2(sys_, n)) for n in normal)
    checks.append(("type2-orthogonality", orth_ok))

    ms = [m for m in normal if sum(m)]
    bi_ok = True
    for n in normal:
        if any(res.matches is False for res in relations.biorth_row(sys_, n, ms)):
            bi_ok = False
    checks.append(("biorthogonality-grid", bi_ok))

    if r <= 2:
        sample = None
        for c in range(1, 7):
            n = (c,) * r
            if all(nj >= mi.params(n).degree + 1 for nj in n) and normality(sys_, n).normal:
                sample = n
                break
        if sample is not None:
            rep = relations.nnr_type2(sys_, sample, "x")
            checks.append((f"nnr-x-{','.join(map(str, sample))}", rep.holds))

    _emit({"checks": [{"name": name, "pass": ok} for name, ok in checks],
           "ok": all(ok for _, ok in checks)})
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_FAILED


def _indices_up_to(r: int, bound: int) -> list:
    """Every r-index of modulus <= bound, in lexicographic order."""
    out = [()]
    for _ in range(r):
        out = [t + (c,) for t in out for c in range(bound - sum(t) + 1)]
    return out


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are invalid input (exit 3).

    Subparsers share the class, so an error in any command's arguments
    raises a SchemaError that names the argument where argparse does.
    """

    def error(self, message):
        head, sep, rest = message.partition(": ")
        if sep and head.startswith("argument "):
            raise SchemaError(head[len("argument "):], rest)
        raise SchemaError(self.prog, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="bimop", description="Bivariate multiple orthogonal polynomials")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="measure config JSON file")
            p.add_argument("--float", dest="float_mode", action="store_true",
                           help="switch to float64 scalar mode")
            p.add_argument("--tol", type=float, default=FLOAT_TOL,
                           help="float singularity tolerance override")
        p.add_argument("--pretty", action="store_true",
                       help="add human-readable polynomial strings")

    p = sub.add_parser("pair", help="Cantor pairing of (t, s)")
    p.add_argument("t", type=int)
    p.add_argument("s", type=int)
    common(p, config=False)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("unpair", help="inverse Cantor pairing")
    p.add_argument("z", type=int)
    common(p, config=False)
    p.set_defaults(func=cmd_unpair)

    p = sub.add_parser("params", help="modulus/multidegree/degree/remainder")
    p.add_argument("--index", required=True)
    common(p, config=False)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("normal", help="normality test det(M_n) != 0")
    p.add_argument("--index", required=True)
    common(p)
    p.set_defaults(func=cmd_normal)

    p = sub.add_parser("type2", help="bivariate Type II polynomial")
    p.add_argument("--index", required=True)
    common(p)
    p.set_defaults(func=cmd_type2)

    p = sub.add_parser("type1", help="bivariate Type I polynomials")
    p.add_argument("--index", required=True)
    common(p)
    p.set_defaults(func=cmd_type1)

    p = sub.add_parser("biorth", help="biorthogonality pairing <P_n, Q_m>")
    p.add_argument("--n", required=True)
    p.add_argument("--m", required=True)
    common(p)
    p.set_defaults(func=cmd_biorth)

    p = sub.add_parser("nnr", help="nearest-neighbour recurrence for x*P or y*P")
    p.add_argument("--index", required=True)
    p.add_argument("--axis", choices=["x", "y"], required=True)
    p.add_argument("--path", help="semicolon-separated multi-indices")
    p.add_argument("--w", help="target multi-index")
    common(p)
    p.set_defaults(func=cmd_nnr)

    p = sub.add_parser("nnr-q", help="nearest-neighbour recurrence for x*Q or y*Q")
    p.add_argument("--index", required=True)
    p.add_argument("--axis", choices=["x", "y"], required=True)
    p.add_argument("--path", help="semicolon-separated multi-indices")
    common(p)
    p.set_defaults(func=cmd_nnr_q)

    p = sub.add_parser("vector", help="vector nearest-neighbour recurrence")
    p.add_argument("--chain", required=True, help="semicolon-separated chain")
    p.add_argument("--axis", choices=["x", "y"], required=True)
    common(p)
    p.set_defaults(func=cmd_vector)

    p = sub.add_parser("product", help="product of univariate Type II polynomials")
    p.add_argument("--n", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--v", help="candidate bivariate multi-index")
    common(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("check", help="run the verification battery")
    common(p)
    p.set_defaults(func=cmd_check)

    return ap


def run(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NotNormal as exc:
        print(json.dumps({"error": str(exc), "det": format_scalar(exc.det)}),
              file=sys.stderr)
        return EXIT_NOT_NORMAL
    except BimopError as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}),
              file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()

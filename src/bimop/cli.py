"""Command-line front end with JSON output.

Exit codes: 0 success, 2 not-normal index, 3 validation error (a usage
error included), 4 a verification command whose check does not hold.

Each command is stated once, in ``COMMANDS``.  ``run`` parses the
arguments, loads the command's config, calls the command for its JSON
document and exit code, and prints the document.  The argument parser is
built once per process, at the first ``run``, so in-process callers that
run many commands pay for it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional, Tuple

from . import multiindex as mi
from . import relations
from .errors import BimopError, NotNormal, SchemaError
from .linalg import format_scalar
from .measures import FLOAT64, MeasureSystem, parse_config, parse_product_config
from .mopcore import (
    BiPoly,
    normality,
    poly_to_json,
    type1,
    type2,
    type2_form,
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


def _mode(args) -> Optional[str]:
    return FLOAT64 if args.float_mode else None


def _load_system(args) -> MeasureSystem:
    return parse_config(_read_config(args), _mode(args))


def _load_product_system(args) -> ProductSystem:
    return ProductSystem.build(*parse_product_config(_read_config(args), _mode(args)))


def _poly_doc(p: BiPoly, pretty: bool) -> dict:
    doc = poly_to_json(p)
    if pretty:
        doc["pretty"] = p.pretty()
    return doc


def _report(report: relations.NNRReport) -> Tuple[dict, int]:
    """A recurrence report's document; exit 0 if it holds, else 4."""
    return report.to_json(), EXIT_OK if report.holds else EXIT_FAILED


def cmd_pair(args, _) -> Tuple[dict, int]:
    return {"pi": mi.pair(_natural(args.t, "t"), _natural(args.s, "s"))}, EXIT_OK


def cmd_unpair(args, _) -> Tuple[dict, int]:
    t, s = mi.unpair(_natural(args.z, "z"))
    return {"t": t, "s": s}, EXIT_OK


def cmd_params(args, _) -> Tuple[dict, int]:
    p = mi.params(_parse_index(args.index))
    return {"modulus": p.modulus, "multidegree": list(p.multidegree),
            "degree": p.degree, "remainder": p.remainder}, EXIT_OK


def cmd_normal(args, sys_: MeasureSystem) -> Tuple[dict, int]:
    v = normality(sys_, _parse_index(args.index))
    return ({"normal": v.normal, "det": format_scalar(v.det)},
            EXIT_OK if v.normal else EXIT_NOT_NORMAL)


def cmd_type2(args, sys_: MeasureSystem) -> Tuple[dict, int]:
    return _poly_doc(type2(sys_, _parse_index(args.index)), args.pretty), EXIT_OK


def cmd_type1(args, sys_: MeasureSystem) -> Tuple[dict, int]:
    aset = type1(sys_, _parse_index(args.index))
    return {"polys": [_poly_doc(a, args.pretty) for a in aset.polys]}, EXIT_OK


def cmd_biorth(args, sys_: MeasureSystem) -> Tuple[dict, int]:
    res = relations.biorth(sys_, _parse_index(args.n, "--n"),
                           _parse_index(args.m, "--m"))
    return ({"value": format_scalar(res.value), "label": res.label,
             "expected": res.expected, "matches": res.matches},
            EXIT_FAILED if res.matches is False else EXIT_OK)


def cmd_nnr(args, sys_: MeasureSystem) -> Tuple[dict, int]:
    path = _parse_chain(args.path, "--path") if args.path else None
    w = _parse_index(args.w, "--w") if args.w else None
    return _report(relations.nnr_type2(sys_, _parse_index(args.index), args.axis,
                                       path=path, w=w))


def cmd_nnr_q(args, sys_: MeasureSystem) -> Tuple[dict, int]:
    path = _parse_chain(args.path, "--path") if args.path else None
    return _report(relations.nnr_type1(sys_, _parse_index(args.index), args.axis, path=path))


def cmd_vector(args, sys_: MeasureSystem) -> Tuple[dict, int]:
    return _report(relations.nnr_vector(sys_, _parse_chain(args.chain, "--chain"), args.axis))


def cmd_product(args, ps: ProductSystem) -> Tuple[dict, int]:
    n = _parse_index(args.n, "--n")
    m = _parse_index(args.m, "--m")
    tv = tilde_v(n, m)
    v = _parse_index(args.v, "--v") if args.v else find_v(n, m)
    match = verify_product(ps, n, m, v)
    return ({"tilde_v": list(tv), "v": list(v), "match": match,
             "poly": _poly_doc(product_poly(ps, n, m), args.pretty)},
            EXIT_OK if match else EXIT_FAILED)


def cmd_check(args, sys_: MeasureSystem) -> Tuple[dict, int]:
    # The whole battery, the choice of its indices included, runs on the
    # exact system, so a float config gets the exact config's document.
    sys_ = sys_.exact_system
    checks = []

    ok = all(mi.pair(*mi.unpair(z)) == z for z in range(2000))
    checks.append(("pairing-roundtrip", ok))

    r = sys_.r
    bound = 4 if r <= 2 else 3
    indices = _indices_up_to(r, bound)
    normal = [n for n in indices if normality(sys_, n).normal]
    orth_ok = all(relations.gram_form_holds(sys_, n, type2_form(sys_, n)) for n in normal)
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

    holds = all(ok for _, ok in checks)
    return ({"checks": [{"name": name, "pass": ok} for name, ok in checks], "ok": holds},
            EXIT_OK if holds else EXIT_FAILED)


def _indices_up_to(r: int, bound: int) -> list:
    """Every r-index of modulus <= bound, in lexicographic order."""
    out = [()]
    for _ in range(r):
        out = [t + (c,) for t in out for c in range(bound - sum(t) + 1)]
    return out


# Arguments are (name, add_argument keywords).  Every command takes
# --pretty; a command with a config loader also takes _CONFIG.
_INT = {"type": int}
_REQUIRED = {"required": True}
_INDEX = ("--index", _REQUIRED)
_N_M = (("--n", _REQUIRED), ("--m", _REQUIRED))
_AXIS = ("--axis", {"choices": ["x", "y"], "required": True})
_PATH = ("--path", {"help": "semicolon-separated multi-indices"})
_CONFIG = (("--config", {"help": "measure config JSON file"}),
           ("--float", {"dest": "float_mode", "action": "store_true",
                        "help": "switch to float64 scalar mode"}))
_PRETTY = ("--pretty", {"action": "store_true", "help": "add human-readable polynomial strings"})

# name, function, help, config loader, arguments
COMMANDS = (
    ("pair", cmd_pair, "Cantor pairing of (t, s)", None, (("t", _INT), ("s", _INT))),
    ("unpair", cmd_unpair, "inverse Cantor pairing", None, (("z", _INT),)),
    ("params", cmd_params, "modulus/multidegree/degree/remainder", None, (_INDEX,)),
    ("normal", cmd_normal, "normality test det(M_n) != 0", _load_system, (_INDEX,)),
    ("type2", cmd_type2, "bivariate Type II polynomial", _load_system, (_INDEX,)),
    ("type1", cmd_type1, "bivariate Type I polynomials", _load_system, (_INDEX,)),
    ("biorth", cmd_biorth, "biorthogonality pairing <P_n, Q_m>", _load_system, _N_M),
    ("nnr", cmd_nnr, "nearest-neighbour recurrence for x*P or y*P", _load_system,
     (_INDEX, _AXIS, _PATH, ("--w", {"help": "target multi-index"}))),
    ("nnr-q", cmd_nnr_q, "nearest-neighbour recurrence for x*Q or y*Q", _load_system,
     (_INDEX, _AXIS, _PATH)),
    ("vector", cmd_vector, "vector nearest-neighbour recurrence", _load_system,
     (("--chain", {"required": True, "help": "semicolon-separated chain"}), _AXIS)),
    ("product", cmd_product, "product of univariate Type II polynomials", _load_product_system,
     _N_M + (("--v", {"help": "candidate bivariate multi-index"}),)),
    ("check", cmd_check, "run the verification battery", _load_system, ()),
)


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
    for name, func, help_, loader, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_)
        for flag, options in arguments + (_CONFIG if loader else ()) + (_PRETTY,):
            p.add_argument(flag, **options)
        p.set_defaults(func=func, loader=loader)
    return ap


def run(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        system = args.loader(args) if args.loader else None
        doc, code = args.func(args, system)
        print(json.dumps(doc))
        return code
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

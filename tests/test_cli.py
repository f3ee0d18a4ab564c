"""Command-line interface: exit codes, JSON output, determinism."""

import io
import itertools
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bimop import Laguerre, normality, parse_config, parse_scalar
from bimop.cli import (EXIT_FAILED, EXIT_INVALID, EXIT_NOT_NORMAL, EXIT_OK,
                       _indices_up_to, build_parser, run)

DUO_CONFIG = {
    "scalar": "exact",
    "measures": [
        {"kind": "tensor", "x": {"family": "laguerre", "alpha": 1},
         "y": {"family": "laguerre", "alpha": "2.3"}},
        {"kind": "tensor", "x": {"family": "laguerre", "alpha": "2.2"},
         "y": {"family": "laguerre", "alpha": "3.4"}},
    ],
}

QUAD_CONFIG = {
    "scalar": "exact",
    "measures": [
        {"kind": "tensor", "x": {"family": "laguerre", "alpha": a},
         "y": {"family": "laguerre", "alpha": b}}
        for a in (1, "2.2") for b in ("2.3", "3.4")
    ],
}

PRODUCT_CONFIG = {
    "scalar": "exact",
    "x": [{"family": "laguerre", "alpha": 1},
          {"family": "laguerre", "alpha": "2.2"}],
    "y": [{"family": "laguerre", "alpha": "2.3"},
          {"family": "laguerre", "alpha": "3.4"}],
}


def cut_to_tables(doc, k):
    """doc with each Laguerre family replaced by a table of its first k moments."""
    def cut(family):
        lag = Laguerre(parse_scalar(str(family["alpha"])))
        return {"family": "table", "moments": [str(lag.moment(i)) for i in range(k)]}
    return dict(doc, measures=[dict(m, x=cut(m["x"]), y=cut(m["y"])) for m in doc["measures"]])


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    paths = {}
    for name, doc in [("duo", DUO_CONFIG), ("quad", QUAD_CONFIG),
                      ("product", PRODUCT_CONFIG),
                      ("duo-table6", cut_to_tables(DUO_CONFIG, 6)),
                      ("duo-table8", cut_to_tables(DUO_CONFIG, 8))]:
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_pair_unpair_params():
    code, out, _ = invoke(["pair", "1", "2"])
    assert code == EXIT_OK
    assert json.loads(out) == {"pi": 8}

    code, out, _ = invoke(["unpair", "8"])
    assert code == EXIT_OK
    assert json.loads(out) == {"t": 1, "s": 2}

    code, out, _ = invoke(["params", "--index", "6,2"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc == {"modulus": 8, "multidegree": [1, 2], "degree": 3,
                   "remainder": 2}


def test_normal_exit_codes(configs):
    code, out, _ = invoke(["normal", "--config", configs["quad"],
                           "--index", "4,3,3,2"])
    assert code == EXIT_OK
    assert json.loads(out)["normal"] is True

    code, out, _ = invoke(["normal", "--config", configs["quad"],
                           "--index", "3,3,3,3"])
    assert code == EXIT_NOT_NORMAL
    assert json.loads(out) == {"normal": False, "det": "0"}


def test_type2_pretty(configs):
    code, out, _ = invoke(["type2", "--config", configs["duo"],
                           "--index", "1,0", "--pretty"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["terms"][0] == {"t": 1, "s": 0, "c": "1"}
    assert doc["pretty"].startswith("x ")


def test_type2_not_normal_diagnostic(configs):
    code, out, err = invoke(["type2", "--config", configs["quad"],
                             "--index", "3,3,3,3"])
    assert code == EXIT_NOT_NORMAL
    assert out == ""
    assert json.loads(err)["det"] == "0"


def test_type1_shapes(configs):
    code, out, _ = invoke(["type1", "--config", configs["duo"],
                           "--index", "1,2"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["polys"]) == 2


def test_biorth(configs):
    code, out, _ = invoke(["biorth", "--config", configs["duo"],
                           "--n", "2,2", "--m", "2,3"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["value"] == "1"
    assert doc["matches"] is True


def test_biorth_float_within_tolerance(configs):
    code, out, _ = invoke(["biorth", "--config", configs["duo"], "--float",
                           "--n", "2,2", "--m", "2,3"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert isinstance(doc["value"], float)
    assert doc["matches"] is True


def test_check_battery_float(configs):
    code, out, _ = invoke(["check", "--config", configs["duo"], "--float"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ok"] is True
    assert {"name": "biorthogonality-grid", "pass": True} in doc["checks"]


def test_nnr_holds(configs):
    code, out, _ = invoke(["nnr", "--config", configs["duo"],
                           "--index", "6,8", "--axis", "x"])
    assert code == EXIT_OK
    assert json.loads(out)["holds"] is True


def test_nnr_q_holds(configs):
    code, out, _ = invoke(["nnr-q", "--config", configs["duo"],
                           "--index", "2,2", "--axis", "x"])
    assert code == EXIT_OK
    assert json.loads(out)["holds"] is True


def test_nnr_q_rejects_a_bad_path(configs):
    code, out, err = invoke(["nnr-q", "--config", configs["duo"], "--index", "2,2",
                             "--axis", "x", "--path", "1,1;3,1;4,1"])
    assert (code, out) == (EXIT_INVALID, "")
    assert json.loads(err) == {"error": "not a neighbour path", "kind": "PathInvalid"}


def test_vector_holds(configs):
    code, out, _ = invoke(["vector", "--config", configs["duo"],
                           "--chain", "1,2;1,3;2,3", "--axis", "y"])
    assert code == EXIT_OK
    assert json.loads(out)["holds"] is True


def test_product(configs):
    code, out, _ = invoke(["product", "--config", configs["product"],
                           "--n", "0,1", "--m", "1,0"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["tilde_v"] == [2, 0, 4, 1]
    assert doc["v"] == [2, 0, 1, 1]
    assert doc["match"] is True
    assert doc["poly"]["terms"][0] == {"t": 1, "s": 1, "c": "1"}


def test_product_explicit_v(configs):
    code, out, _ = invoke(["product", "--config", configs["product"],
                           "--n", "0,1", "--m", "1,0", "--v", "1,0,2,1"])
    assert code == EXIT_OK
    assert json.loads(out)["v"] == [1, 0, 2, 1]


def test_product_float(configs):
    code, out, _ = invoke(["product", "--config", configs["product"], "--float",
                           "--n", "0,1", "--m", "1,0"])
    assert code == EXIT_OK
    assert json.loads(out)["match"] is True


def test_check_battery(configs):
    code, out, _ = invoke(["check", "--config", configs["duo"]])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ok"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "pairing-roundtrip" in names
    assert "type2-orthogonality" in names
    assert "biorthogonality-grid" in names


def test_deterministic_output(configs):
    runs = [invoke(["type2", "--config", configs["duo"], "--index", "2,3"])
            for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [invoke(["check", "--config", configs["duo"]]) for _ in range(2)]
    assert runs[0] == runs[1]


def test_schema_error_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scalar": "exact", "measures": [
        {"kind": "tensor", "x": {"family": "laguerre"},
         "y": {"family": "laguerre", "alpha": 1}}]}))
    code, out, err = invoke(["normal", "--config", str(bad),
                             "--index", "1,0"])
    assert code == EXIT_INVALID
    assert out == ""
    assert json.loads(err)["kind"] == "SchemaError"


@pytest.mark.parametrize("command, doc, argv", [
    pytest.param("normal", DUO_CONFIG, ["--index", "1,0"], id="normal"),
    pytest.param("product", PRODUCT_CONFIG, ["--n", "0,1", "--m", "1,0"], id="product"),
])
@pytest.mark.parametrize("flags", [[], ["--float"]], ids=["exact", "float"])
def test_unknown_scalar_is_a_schema_error(tmp_path, command, doc, argv, flags):
    """A config's "scalar" is checked, with one message, also when --float
    replaces it."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(doc, scalar="exakt")))
    code, out, err = invoke([command, "--config", str(bad)] + flags + argv)
    assert (code, out) == (EXIT_INVALID, "")
    assert json.loads(err) == {
        "error": "$.scalar: expected 'exact' or 'float64', got 'exakt'",
        "kind": "SchemaError"}


@pytest.mark.parametrize("command, doc, argv", [
    pytest.param("normal", DUO_CONFIG, ["--index", "2,2"], id="normal"),
    pytest.param("type2", DUO_CONFIG, ["--index", "19,19"], id="type2"),
    pytest.param("product", PRODUCT_CONFIG, ["--n", "0,1", "--m", "1,0"], id="product"),
])
def test_tol_is_no_option(tmp_path, command, doc, argv):
    """FloatLU stops at one fixed threshold, so no config command takes --tol."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke([command, "--float", "--tol", "1e-3", "--config", str(path)] + argv)
    assert (code, out) == (EXIT_INVALID, "")
    assert json.loads(err) == {"error": "bimop: unrecognized arguments: --tol 1e-3",
                               "kind": "SchemaError"}


def test_missing_config_flag():
    """A missing --config is reported before the indices are read."""
    for argv in (["normal", "--index", "1,0"], ["normal", "--index", "1,x"],
                 ["product", "--n", "x", "--m", "1,0"]):
        code, out, err = invoke(argv)
        assert (code, out) == (EXIT_INVALID, "")
        assert json.loads(err) == {
            "error": "--config: a measure config is required for this command",
            "kind": "SchemaError"}


@pytest.mark.parametrize("argv", [
    pytest.param(["normal", "--index", "1,0"], id="normal"),
    pytest.param(["product", "--n", "0,1", "--m", "1,0"], id="product"),
])
def test_config_that_is_not_utf8_is_a_schema_error(tmp_path, argv):
    """JSON is UTF-8; other bytes are invalid input, whatever the locale."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = invoke([argv[0], "--config", str(bad)] + argv[1:])
    assert (code, out) == (EXIT_INVALID, "")
    doc = json.loads(err)
    assert doc["kind"] == "SchemaError" and doc["error"].startswith("$: not UTF-8")


@pytest.mark.parametrize("text, error", [
    pytest.param("{", "$: invalid JSON", id="invalid-json"),
    pytest.param('{"x": []}', "$: product config needs 'x' and 'y'", id="no-y"),
])
def test_product_config_schema_errors(tmp_path, text, error):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = invoke(["product", "--config", str(bad), "--n", "0,1", "--m", "1,0"])
    assert (code, out) == (EXIT_INVALID, "")
    assert json.loads(err)["error"].startswith(error)


def test_missing_config_file():
    code, _, err = invoke(["normal", "--config", "/nonexistent/cfg.json",
                           "--index", "1,0"])
    assert code == EXIT_INVALID
    assert "error" in json.loads(err)


def test_bad_index_text(configs):
    code, _, err = invoke(["normal", "--config", configs["duo"],
                           "--index", "1,x"])
    assert code == EXIT_INVALID
    assert json.loads(err)["kind"] == "SchemaError"


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["normal", "--index", "3,-1"], "--index", id="normal"),
    pytest.param(["params", "--index", "3,-1"], "--index", id="params"),
    pytest.param(["biorth", "--n", "2,2", "--m", "2,-3"], "--m", id="biorth"),
    pytest.param(["biorth", "--n", "2,2", "--m", "2,x"], "--m", id="biorth-text"),
    pytest.param(["nnr", "--index", "3,3", "--axis", "x", "--w", "6,-1"], "--w", id="nnr-w"),
    pytest.param(["vector", "--chain", "2,1;2,-2", "--axis", "x"], "--chain", id="vector"),
    pytest.param(["pair", "--", "-1", "2"], "t", id="pair"),
    pytest.param(["unpair", "--", "-5"], "z", id="unpair"),
])
def test_negative_components_rejected(configs, argv, flag):
    if argv[0] not in ("params", "pair", "unpair"):
        argv = [argv[0], "--config", configs["duo"]] + argv[1:]
    code, out, err = invoke(argv)
    assert code == EXIT_INVALID
    assert out == ""
    doc = json.loads(err)
    assert doc["kind"] == "SchemaError"
    assert doc["error"].startswith(f"{flag}: ")


@pytest.mark.parametrize("config, argv, kind", [
    pytest.param("duo", ["normal", "--index", "1,2,3"], "DimensionMismatch", id="index-length"),
    pytest.param("product", ["product", "--n", "2,2", "--m", "0"], "SurplusNegative",
                 id="surplus"),
    pytest.param("duo", ["vector", "--chain", "", "--axis", "x"], "ChainInvalid",
                 id="empty-chain"),
])
def test_invalid_library_input_exits_invalid(configs, config, argv, kind):
    """Input the library rejects exits 3 with the error's kind on stderr."""
    code, out, err = invoke([argv[0], "--config", configs[config]] + argv[1:])
    assert (code, out) == (EXIT_INVALID, "")
    assert json.loads(err)["kind"] == kind


def test_float_zero_index_det_is_a_float(configs):
    code, out, _ = invoke(["normal", "--config", configs["duo"], "--float",
                           "--index", "0,0"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc == {"normal": True, "det": 1.0}
    assert type(doc["det"]) is float


def test_float_mode(configs):
    code, out, _ = invoke(["normal", "--config", configs["duo"],
                           "--float", "--index", "2,2"])
    assert code == EXIT_OK
    assert json.loads(out)["normal"] is True


def huge_config(e):
    """Laguerre exponents near e."""
    return {
        "scalar": "exact",
        "measures": [
            {"kind": "tensor", "x": {"family": "laguerre", "alpha": str(e)},
             "y": {"family": "laguerre", "alpha": f"{5 * e + 1}/5"}},
            {"kind": "tensor", "x": {"family": "laguerre", "alpha": f"{3 * e + 1}/3"},
             "y": {"family": "laguerre", "alpha": f"{7 * e + 1}/7"}},
        ],
    }


# Laguerre exponents near 10^120: Type II coefficients pass 1.8e308.
HUGE_CONFIG = huge_config(10 ** 120)


@pytest.mark.parametrize("argv", [
    pytest.param(["nnr", "--index", "4,4", "--axis", "x"], id="nnr"),
    pytest.param(["vector", "--chain", "3,3;3,4;4,4;4,5", "--axis", "x"], id="vector"),
    pytest.param(["check"], id="check"),
])
def test_exact_checks_hold_past_the_float_range(tmp_path, argv):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_CONFIG))
    code, out, err = invoke([argv[0], "--config", str(path)] + argv[1:])
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert doc.get("holds", doc.get("ok")) is True


def test_float_checks_hold_where_their_float_solves_did_not(configs):
    """A float recurrence check judges the exact identity: (8, 8) on x once
    answered holds: false (exit 4), and (7, 9) on x once raised not-normal
    (exit 2) on an exactly normal index."""
    for argv in (["nnr", "--index", "8,8", "--axis", "x"],
                 ["nnr-q", "--index", "7,9", "--axis", "x"]):
        code, out, err = invoke([argv[0], "--config", configs["duo"], "--float"] + argv[1:])
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["holds"] is True
        assert all(type(c["value"]) is float for c in doc["coefficients"])


def test_float_reports_past_the_float_range(tmp_path):
    """nnr --float on HUGE_CONFIG reads no float moment and reports
    coefficients in range (exit 0).  With exponents near 10^400 the
    coefficients pass the float64 range: exit 3 with a ValidationError, and
    exact mode answers."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_CONFIG))
    argv = ["nnr", "--config", str(path), "--index", "4,4", "--axis", "x"]
    code, out, err = invoke(argv + ["--float"])
    assert (code, err) == (EXIT_OK, "") and json.loads(out)["holds"] is True
    path.write_text(json.dumps(huge_config(10 ** 400)))
    code, out, err = invoke(argv + ["--float"])
    assert (code, out) == (EXIT_INVALID, "")
    assert json.loads(err) == {
        "error": "a reported value exceeds the float64 range; use exact mode",
        "kind": "ValidationError"}
    code, out, err = invoke(argv)
    assert (code, err) == (EXIT_OK, "") and json.loads(out)["holds"] is True


def test_a_det_past_the_digit_limit_prints_and_parses_back(tmp_path):
    """det(M_(12,12)) of HUGE_CONFIG has more than Python's 4300-digit
    int/str limit; it prints, and parses back to the det normality holds."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_CONFIG))
    code, out, err = invoke(["normal", "--config", str(path), "--index", "12,12"])
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    want = normality(parse_config(json.dumps(HUGE_CONFIG)), (12, 12)).det
    assert doc["normal"] is True and len(doc["det"]) > 4300
    assert parse_scalar(doc["det"]) == want


def test_a_product_config_reads_a_5000_digit_integer(tmp_path):
    """Product configs go through the same JSON reader as measure configs,
    so an integer past the 4300-digit limit parses."""
    doc = dict(PRODUCT_CONFIG, x=[{"family": "laguerre", "alpha": 1},
                                  {"family": "jacobi", "a": 0}])
    path = tmp_path / "prod.json"
    path.write_text(json.dumps(doc).replace('"a": 0', '"a": ' + "1" * 5000))
    code, out, err = invoke(["product", "--config", str(path), "--n", "0,1", "--m", "1,0"])
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["match"] is True


@pytest.mark.parametrize("argv, want", [
    pytest.param(["pair", "1", "2"], EXIT_OK, id="ok"),
    pytest.param(["params", "--index", "1,x"], EXIT_INVALID, id="invalid"),
    pytest.param(["params"], EXIT_INVALID, id="usage"),
    pytest.param(["--help"], EXIT_OK, id="help"),
])
def test_module_entry_point_exits_with_the_run_code(argv, want):
    """``python -m bimop.cli`` runs ``main()``, which exits with run's code
    and prints what an in-process ``run`` prints."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "bimop.cli"] + argv, env=env,
                          capture_output=True, text=True)
    assert done.returncode == want
    if argv == ["--help"]:
        assert done.stdout.startswith("usage: bimop")
    else:
        assert (done.returncode, done.stdout, done.stderr) == invoke(argv)


# Each argument: option strings (or dest), required, choices, default, type
# name and help.
INDEX = (("--index",), True, None, None, None, None)
AXIS = (("--axis",), True, ["x", "y"], None, None, None)
PATH = (("--path",), False, None, None, None, "semicolon-separated multi-indices")
N_M = [(("--n",), True, None, None, None, None), (("--m",), True, None, None, None, None)]
CONFIG = [(("--config",), False, None, None, None, "measure config JSON file"),
          (("--float",), False, None, False, None, "switch to float64 scalar mode")]
PRETTY = (("--pretty",), False, None, False, None, "add human-readable polynomial strings")
PARSER = [
    ("pair", "Cantor pairing of (t, s)",
     [("t", True, None, None, "int", None), ("s", True, None, None, "int", None), PRETTY]),
    ("unpair", "inverse Cantor pairing", [("z", True, None, None, "int", None), PRETTY]),
    ("params", "modulus/multidegree/degree/remainder", [INDEX, PRETTY]),
    ("normal", "normality test det(M_n) != 0", [INDEX, *CONFIG, PRETTY]),
    ("type2", "bivariate Type II polynomial", [INDEX, *CONFIG, PRETTY]),
    ("type1", "bivariate Type I polynomials", [INDEX, *CONFIG, PRETTY]),
    ("biorth", "biorthogonality pairing <P_n, Q_m>", [*N_M, *CONFIG, PRETTY]),
    ("nnr", "nearest-neighbour recurrence for x*P or y*P",
     [INDEX, AXIS, PATH, (("--w",), False, None, None, None, "target multi-index"),
      *CONFIG, PRETTY]),
    ("nnr-q", "nearest-neighbour recurrence for x*Q or y*Q", [INDEX, AXIS, PATH, *CONFIG, PRETTY]),
    ("vector", "vector nearest-neighbour recurrence",
     [(("--chain",), True, None, None, None, "semicolon-separated chain"), AXIS,
      *CONFIG, PRETTY]),
    ("product", "product of univariate Type II polynomials",
     [*N_M, (("--v",), False, None, None, None, "candidate bivariate multi-index"),
      *CONFIG, PRETTY]),
    ("check", "run the verification battery", [*CONFIG, PRETTY]),
]


def test_the_parser_is_pinned():
    """Each command's name and help, and each of its arguments, in order;
    read from the parser, since --help wraps differently across Pythons."""
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    got = [(c.dest, c.help, [(tuple(a.option_strings) or a.dest, a.required, a.choices,
                              a.default, a.type and a.type.__name__, a.help)
                             for a in commands.choices[c.dest]._actions if a.dest != "help"])
           for c in commands._choices_actions]
    assert got == PARSER


@pytest.mark.parametrize("argv, name", [
    pytest.param(["params"], "--index", id="missing-index"),
    pytest.param(["nnr", "--index", "6,8"], "--axis", id="missing-axis"),
    pytest.param(["frob"], "command", id="unknown-command"),
    pytest.param(["pair", "x", "1"], "t", id="pair-text"),
    pytest.param(["nnr", "--index", "6,8", "--axis", "z"], "--axis", id="bad-choice"),
    pytest.param(["pair", "1", "2", "--float"], "--float", id="unknown-flag"),
    pytest.param([], "command", id="no-command"),
])
def test_usage_errors_are_invalid_input(argv, name):
    """A usage error exits 3 with a JSON SchemaError that names the
    argument, not argparse's exit 2, which is the not-normal code."""
    code, out, err = invoke(argv)
    assert (code, out) == (EXIT_INVALID, "")
    doc = json.loads(err)
    assert doc["kind"] == "SchemaError" and name in doc["error"]


def test_help_exits_zero():
    with pytest.raises(SystemExit) as done:
        invoke(["normal", "--help"])
    assert done.value.code == EXIT_OK


def test_exact_call_after_a_float_one_is_exact(configs):
    """The parser is built once per process; no flag of one call leaks into
    the next."""
    argv = ["normal", "--config", configs["duo"], "--index", "2,2"]
    exact = invoke(argv)
    code, out, _ = invoke(argv + ["--float"])
    assert code == EXIT_OK and type(json.loads(out)["det"]) is float
    assert invoke(argv) == exact
    det = json.loads(exact[1])["det"]
    assert type(det) is str and "." not in det


def _battery(checks, failed=()):
    """check's exit code, stdout and stderr for a battery that ran."""
    doc = {"checks": [{"name": name, "pass": name not in failed} for name in checks],
           "ok": not failed}
    return EXIT_FAILED if failed else EXIT_OK, json.dumps(doc) + "\n", ""


@pytest.mark.parametrize("config, flags, want", [
    pytest.param("duo", [], _battery(["pairing-roundtrip", "type2-orthogonality",
                                      "biorthogonality-grid", "nnr-x-4,4"]), id="duo-exact"),
    pytest.param("duo", ["--float"], _battery(["pairing-roundtrip", "type2-orthogonality",
                                               "biorthogonality-grid", "nnr-x-4,4"]),
                 id="duo-float"),
    pytest.param("quad", [], _battery(["pairing-roundtrip", "type2-orthogonality",
                                       "biorthogonality-grid"]), id="quad-exact"),
    pytest.param("quad", ["--float"], _battery(["pairing-roundtrip", "type2-orthogonality",
                                                "biorthogonality-grid"]), id="quad-float"),
    # Six moments are too few for the recurrence at (4, 4), eight are enough.
    # A table too short for the sample is invalid input, not a failed check.
    pytest.param("duo-table6", [], (EXIT_INVALID, "", json.dumps(
        {"error": "moment table of length 6 has no order 6", "kind": "TableExhausted"}) + "\n"),
                 id="duo-table6"),
    pytest.param("duo-table8", [], _battery(["pairing-roundtrip", "type2-orthogonality",
                                             "biorthogonality-grid", "nnr-x-4,4"]),
                 id="duo-table8"),
])
def test_check_documents_are_pinned(configs, config, flags, want):
    assert invoke(["check", "--config", configs[config]] + flags) == want


def test_check_indices_are_the_filtered_product_in_order():
    """check's grid holds every r-index of modulus <= bound, in the order of
    the full product, without building the product."""
    for r in range(1, 7):
        for bound in range(6):
            want = [t for t in itertools.product(range(bound + 1), repeat=r)
                    if sum(t) <= bound]
            assert _indices_up_to(r, bound) == want
    assert len(_indices_up_to(24, 3)) == 2925


def test_float_moment_past_the_float_range_is_invalid_input(tmp_path):
    """A float64 moment that overflows is invalid input naming the measure
    and the moment order where float mode reads float moments (type2);
    exact mode answers the same question.  Normality reads exact moments
    in both modes, so normal --float answers with the exact det rounded."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_CONFIG))
    argv = ["--config", str(path), "--index", "2,2"]
    code, out, err = invoke(["type2"] + argv + ["--float"])
    assert (code, out) == (EXIT_INVALID, "")
    assert json.loads(err) == {
        "error": "measure 1: the moment of order (3, 0) exceeds the float64 range; "
                 "use exact mode",
        "kind": "ValidationError"}
    code, out, err = invoke(["type2"] + argv)
    assert (code, err) == (EXIT_OK, "")
    code, out, err = invoke(["normal"] + argv)
    assert (code, err) == (EXIT_OK, "")
    exact = json.loads(out)
    assert exact["normal"] is True
    code, out, err = invoke(["normal"] + argv + ["--float"])
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out) == {"normal": True, "det": float(parse_scalar(exact["det"]))}


def test_float_answers_where_the_float_det_once_decided(configs):
    """On the README config float normality is the exact verdict with the
    exact det rounded once, so (10, 10), once a confident false, is normal;
    type2 --float at (19, 19), where FloatLU stops, answers with the exact
    Type II rounded once; nnr --float at (8, 8) holds."""
    duo = ["--config", configs["duo"]]
    code, out, err = invoke(["normal"] + duo + ["--index", "10,10"])
    exact = parse_scalar(json.loads(out)["det"])
    code, out, err = invoke(["normal"] + duo + ["--float", "--index", "10,10"])
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out) == {"normal": True, "det": float(exact)}
    code, out, err = invoke(["type2"] + duo + ["--index", "19,19"])
    want = [{**t, "c": float(parse_scalar(t["c"]))} for t in json.loads(out)["terms"]]
    code, out, err = invoke(["type2"] + duo + ["--float", "--index", "19,19"])
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["terms"] == want
    code, out, err = invoke(["nnr"] + duo + ["--float", "--index", "8,8", "--axis", "x"])
    assert (code, err) == (EXIT_OK, "") and json.loads(out)["holds"] is True


@pytest.mark.parametrize("argv", [
    pytest.param(["normal", "--index", "5,10"], id="normal"),
    pytest.param(["type2", "--index", "5,10"], id="type2"),
    pytest.param(["nnr-q", "--index", "1,7", "--axis", "x"], id="nnr-q"),
])
def test_a_float_not_normal_carries_a_float_det(configs, argv):
    """Every --float command that meets a singular M_n reports det 0.0, a
    float, as exact mode reports "0"; a verifier's NotNormal included."""
    for flags, det in (([], "0"), (["--float"], 0.0)):
        code, out, err = invoke(argv[:1] + ["--config", configs["duo"]] + argv[1:] + flags)
        assert code == EXIT_NOT_NORMAL
        doc = json.loads(out or err)
        assert doc["det"] == det and type(doc["det"]) is type(det)

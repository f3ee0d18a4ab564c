"""The README's examples print what their comments say."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from bimop.cli import EXIT_INVALID, EXIT_OK, run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _commented(lines):
    """(code, comment) of each line that ends in a two-space `# comment`."""
    return [tuple(part.strip() for part in line.split("  # ", 1))
            for line in lines if "  # " in line]


def test_python_example_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    want = [comment for _, comment in _commented(block.splitlines())]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(block, {})
    assert want and out.getvalue().splitlines() == want


def test_cli_examples_print_their_json_comments():
    """Each CLI line whose comment is a JSON document prints that document."""
    block = re.search(r"```sh\n(bimop .*?)```", README, re.S).group(1)
    examples = [(command, comment) for command, comment in _commented(block.splitlines())
                if comment.startswith("{")]
    assert len(examples) == 2
    for command, comment in examples:
        out = io.StringIO()
        with redirect_stdout(out):
            code = run(shlex.split(command)[1:])
        assert code == EXIT_OK
        assert out.getvalue().strip() == comment


def test_cli_config_examples_exit_ok(tmp_path, monkeypatch):
    """Every `bimop ... --config sys.json` line of the CLI block runs on the
    README's measure config and exits 0."""
    (tmp_path / "sys.json").write_text(re.search(r"```json\n(.*?)```", README, re.S).group(1))
    monkeypatch.chdir(tmp_path)
    block = re.search(r"```sh\n(bimop .*?)```", README, re.S).group(1)
    commands = [line for line in block.splitlines() if "--config sys.json" in line]
    assert len(commands) == 8
    for command in commands:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = run(shlex.split(command, comments=True)[1:])
        assert code == EXIT_OK, (command, err.getvalue())


def test_cli_lines_in_one_process_match_fresh_processes(tmp_path, monkeypatch):
    """Every CLI line of the README, plain, --float and --pretty, run in one
    process forwards then reversed, prints and exits as a fresh
    ``python -m bimop.cli`` process does."""
    doc = json.loads(re.search(r"```json\n(.*?)```", README, re.S).group(1))
    (tmp_path / "sys.json").write_text(json.dumps(doc))
    (tmp_path / "prod.json").write_text(json.dumps({
        "scalar": "exact", "x": [m["x"] for m in doc["measures"]],
        "y": [m["y"] for m in doc["measures"]]}))
    monkeypatch.chdir(tmp_path)
    block = re.search(r"```sh\n(bimop .*?)```", README, re.S).group(1)
    argvs = [shlex.split(line, comments=True)[1:] + flags
             for line in block.splitlines() for flags in ([], ["--float"], ["--pretty"])]
    assert len(argvs) == 36

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    fresh = {}
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "bimop.cli"] + argv, env=env,
                              capture_output=True, text=True)
        fresh[tuple(argv)] = (done.returncode, done.stdout, done.stderr)
    assert {EXIT_OK, EXIT_INVALID} <= {code for code, _, _ in fresh.values()}

    for argv in argvs + argvs[::-1]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(list(argv))
        assert (code, out.getvalue(), err.getvalue()) == fresh[tuple(argv)], argv

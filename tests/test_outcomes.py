"""Every outcome that ``tools/outcomes.py`` lists matches its pin.

The pin, ``tests/data/outcomes.txt``, holds a digest of each labelled
outcome: a result's repr, an error's class and message, or a CLI line's
exit code, stdout and stderr.  A change that keeps bimop's behaviour keeps
every digest; re-pinning with ``python3 tools/outcomes.py --pin`` is a
change of behaviour and is logged as one.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("outcomes", ROOT / "tools" / "outcomes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outcomes_match_the_pin():
    tool = _tool()
    pinned = {}
    for line in tool.PIN.read_text(encoding="utf-8").splitlines():
        digest, label = line.split("  ", 1)
        pinned[label] = digest
    fresh = {label: tool.digest(o) for label, o in tool.outcomes()}
    assert fresh.keys() == pinned.keys(), sorted(fresh.keys() ^ pinned.keys())[:20]
    differ = [label for label in pinned if fresh[label] != pinned[label]]
    assert not differ, f"{len(differ)} outcomes differ from the pin: {differ[:20]}"

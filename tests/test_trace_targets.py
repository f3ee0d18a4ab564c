"""Every name the benchmark's tracer patches is where the tracer looks.

``perfbench/spans.py`` wraps, by name, each function and method in its
``SPANS`` and ``COUNTS`` tables: a plain entry is read as an attribute of
``bimop.<module>``, and a ``Class.method`` entry from that class's own
``__dict__``, so a method moved to a base class breaks the traced run.
spans.py imports only the standard library, so it loads here by path.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]


def _spans():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(spans) -> list:
    """(module, attribute) of every SPANS and COUNTS entry."""
    out = [(mod, attr) for mod, attrs in spans.SPANS.items() for attr in attrs]
    return out + [(mod, attr) for mod, attr, _ in spans.COUNTS]


def _missing(targets: list, modules: dict) -> list:
    """The targets the tracer would not find: a module without the
    attribute, or a class whose own ``__dict__`` lacks the method."""
    out = []
    for mod, attr in targets:
        module = modules[mod]
        if "." in attr:
            cls, meth = attr.split(".")
            if meth not in vars(getattr(module, cls, object)):
                out.append(f"{mod}.{attr}")
        elif not hasattr(module, attr):
            out.append(f"{mod}.{attr}")
    return out


def test_every_traced_name_is_where_the_tracer_looks():
    targets = _targets(_spans())
    modules = {mod: importlib.import_module(f"bimop.{mod}") for mod, _ in targets}
    assert len(targets) > 30
    assert _missing(targets, modules) == []


def test_the_check_sees_an_inherited_method_and_a_missing_name():
    class Base:
        def moment(self):
            return 1

    class System(Base):
        pass

    class Family:
        def moment(self):
            return 2

    module = SimpleNamespace(System=System, Family=Family, parse=len)
    targets = [("m", "System.moment"), ("m", "Family.moment"), ("m", "parse"),
               ("m", "solve"), ("m", "Gone.moment")]
    assert _missing(targets, {"m": module}) == ["m.System.moment", "m.solve", "m.Gone.moment"]

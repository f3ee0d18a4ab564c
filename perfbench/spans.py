"""Traced mode: wrappers around bimop's public functions, for one run only.

``Tracer.install`` replaces each traced function wherever bimop's modules
hold a reference to it (``from .linalg import solve`` copies included), so
calls between layers pass through the wrappers.  Each wrapped call records a
span (name, start, end, parent span, job id, exception) in memory; hot
functions (``unpair``, the moment lookups) only count calls.  ``metrics``
derives the per-layer metrics from the spans and counts; the runner writes
the spans out when the run ends.

A layer's self time is its spans' time minus the time of their direct child
spans.  Counts and times are per job, so they compare across runs of any
length; times are scaled to the reference speed like the end-to-end ones.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# Spanned functions, by module; "Class.method" patches the class.
SPANS = {
    "linalg": ("det", "solve"),
    "measures": ("parse_config", "parse_uni_config"),
    "mopcore": ("moment_matrix", "normality", "type2", "type1", "inner",
                "type1_pairing", "uni_moment_matrix", "uni_type2", "uni_type1",
                "uni_normality"),
    "relations": ("biorth", "biorth_matrix", "assemble_type2_vector",
                  "assemble_type1_vectors", "nnr_type2", "nnr_type1", "nnr_vector"),
    "product": ("ProductSystem.build", "tilde_v", "find_v", "candidate_vs",
                "product_poly", "verify_product", "det_factor_check"),
    "cli": ("run",),
}

# Counted functions: (module, attribute, counter name).
COUNTS = (
    ("multiindex", "unpair", "unpair"),
    ("measures", "MeasureSystem.moment", "moment"),
    ("measures", "UniMeasureSystem.moment", "moment"),
    ("measures", "TensorMeasure.moment", "tensor_eval"),
    ("measures", "TableMeasure.moment", "table_eval"),
    ("measures", "Laguerre.moment", "family_eval"),
    ("measures", "Jacobi.moment", "family_eval"),
    ("measures", "MomentTable.moment", "family_eval"),
)

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "linalg.det.calls": ("1/job", "lower"),
    "linalg.det.self_s": ("s/job", "lower"),
    "linalg.solve.calls": ("1/job", "lower"),
    "linalg.solve.self_s": ("s/job", "lower"),
    "linalg.elim_order3": ("N3/job", "lower"),
    "linalg.eliminations_per_index": ("ratio", "lower"),
    "linalg.max_entry_bits": ("bits", "lower"),
    "measures.moment.calls": ("1/job", "lower"),
    "measures.moment.hit_ratio": ("ratio", "higher"),
    "measures.parse.self_s": ("s/job", "lower"),
    "mopcore.moment_matrix.calls": ("1/job", "lower"),
    "mopcore.moment_matrix.self_s": ("s/job", "lower"),
    "mopcore.normality.self_s": ("s/job", "lower"),
    "mopcore.type2.calls": ("1/job", "lower"),
    "mopcore.type2.hit_ratio": ("ratio", "higher"),
    "mopcore.type1.calls": ("1/job", "lower"),
    "mopcore.type1.hit_ratio": ("ratio", "higher"),
    "mopcore.singular.calls": ("1/job", "lower"),
    "mopcore.inner.calls": ("1/job", "lower"),
    "mopcore.inner.self_s": ("s/job", "lower"),
    "mopcore.uni.self_s": ("s/job", "lower"),
    "relations.verify.self_s": ("s/job", "lower"),
    "relations.pairings": ("1/job", "lower"),
    "product.self_s": ("s/job", "lower"),
    "cli.run.self_s": ("s/job", "lower"),
    "cli.stdout_bytes": ("B/job", "lower"),
    "multiindex.unpair.calls": ("1/job", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def _bits(value) -> int:
    if isinstance(value, list):
        return max((_bits(v) for v in value), default=0)
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


def patch(mod: str, attr: str, make, undo: list) -> None:
    """Replace bimop.<mod>.<attr> by make(original) wherever bimop refers to it.

    attr may be "Class.method".  Each replaced reference is appended to undo
    for ``unpatch``; a module the process never imported is left alone.
    """
    module = sys.modules.get(f"bimop.{mod}")
    if module is None:
        return
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[meth]
        undo.append((cls, meth, original))
        if isinstance(original, classmethod):
            setattr(cls, meth, classmethod(make(original.__func__)))
        else:
            setattr(cls, meth, make(original))
        return
    original = getattr(module, attr)
    wrapper = make(original)
    for name, other in list(sys.modules.items()):
        if name == "bimop" or name.startswith("bimop."):
            for key, value in list(vars(other).items()):
                if value is original:
                    undo.append((other, key, original))
                    setattr(other, key, wrapper)


def unpatch(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent, job, exception, data]
        self.spans = []
        self.counts = Counter()
        self.job = -1
        self._stack = []
        self._undo = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    # Installation -----------------------------------------------------
    def install(self) -> None:
        for mod, names in SPANS.items():
            for attr in names:
                patch(mod, attr, lambda fn, name=f"{mod}.{attr}": self._span(name, fn),
                      self._undo)
        for mod, attr, counter in COUNTS:
            patch(mod, attr, lambda fn, counter=counter: self._counter(counter, fn), self._undo)

    def uninstall(self) -> None:
        unpatch(self._undo)

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        elim = name in ("linalg.det", "linalg.solve")
        index = name == "mopcore.moment_matrix"

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None, None]
            if elim:
                rec[6] = (args[0].rows, 0)
            elif index:
                rec[6] = (id(args[0]), tuple(args[1]))
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                rec[5] = type(exc).__name__
                stack.pop()
                raise
            rec[2] = clock()
            stack.pop()
            if elim:
                rec[6] = (args[0].rows, _bits(result))
            return result
        return wrapper

    # Metrics ----------------------------------------------------------
    def metrics(self, jobs: int, overhead: float, slowdown: float) -> dict:
        """Per-layer metrics; times are divided by the run's mean slowdown."""
        spans = self.spans
        child = [0.0] * len(spans)
        has_matrix = [False] * len(spans)
        for name, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
                if name == "mopcore.moment_matrix":
                    has_matrix[parent] = True
        self_s = defaultdict(float)
        calls = Counter()
        for k, (name, t0, t1, *_rest) in enumerate(spans):
            self_s[name] += t1 - t0 - child[k]
            calls[name] += 1

        def group(prefix):
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        def hit_ratio(name):
            total = [k for k, s in enumerate(spans) if s[0] == name and s[5] is None]
            return sum(not has_matrix[k] for k in total) / len(total) if total else 0.0

        elim = [s[6] for s in spans if s[0] in ("linalg.det", "linalg.solve") and s[6]]
        indices = {(s[4],) + s[6] for s in spans if s[0] == "mopcore.moment_matrix" and s[6]}
        c = self.counts
        # A tensor evaluation makes two family evaluations; the remaining
        # family evaluations come from univariate systems.
        evaluations = c["table_eval"] + c["family_eval"] - c["tensor_eval"]
        singular = sum(1 for s in spans if s[0] in ("mopcore.type2", "mopcore.type1")
                       and s[5] == "NotNormal")
        per = 1.0 / jobs
        values = {
            "linalg.det.calls": calls["linalg.det"] * per,
            "linalg.det.self_s": self_s["linalg.det"] * per,
            "linalg.solve.calls": calls["linalg.solve"] * per,
            "linalg.solve.self_s": self_s["linalg.solve"] * per,
            "linalg.elim_order3": sum(n ** 3 for n, _ in elim) * per,
            "linalg.eliminations_per_index": len(elim) / len(indices) if indices else 0.0,
            "linalg.max_entry_bits": max((b for _, b in elim), default=0),
            "measures.moment.calls": c["moment"] * per,
            "measures.moment.hit_ratio": 1 - evaluations / c["moment"] if c["moment"] else 0.0,
            "measures.parse.self_s": (self_s["measures.parse_config"]
                                      + self_s["measures.parse_uni_config"]) * per,
            "mopcore.moment_matrix.calls": calls["mopcore.moment_matrix"] * per,
            "mopcore.moment_matrix.self_s": self_s["mopcore.moment_matrix"] * per,
            "mopcore.normality.self_s": self_s["mopcore.normality"] * per,
            "mopcore.type2.calls": calls["mopcore.type2"] * per,
            "mopcore.type2.hit_ratio": hit_ratio("mopcore.type2"),
            "mopcore.type1.calls": calls["mopcore.type1"] * per,
            "mopcore.type1.hit_ratio": hit_ratio("mopcore.type1"),
            "mopcore.singular.calls": singular * per,
            "mopcore.inner.calls": calls["mopcore.inner"] * per,
            "mopcore.inner.self_s": self_s["mopcore.inner"] * per,
            "mopcore.uni.self_s": group("mopcore.uni_") * per,
            "relations.verify.self_s": group("relations.") * per,
            "relations.pairings": calls["mopcore.type1_pairing"] * per,
            "product.self_s": group("product.") * per,
            "cli.run.self_s": self_s["cli.run"] * per,
            "cli.stdout_bytes": c["cli.stdout_bytes"] * per,
            "multiindex.unpair.calls": c["unpair"] * per,
            "trace.overhead": overhead,
        }
        for name, (unit, _) in PER_LAYER.items():
            if unit == "s/job":
                values[name] /= slowdown
        return values

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, job, exc, _ in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, job, exc]) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

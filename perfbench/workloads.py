"""The benchmark's four workloads: seeded inputs, jobs and their checks.

Every workload is a closed loop with one client in one process: the next job
starts only when the previous one has returned.  Every job builds a fresh
measure system (or, for the CLI, re-parses its config), so bimop's caches
start cold, as they do for a user's query or CLI call.

Inputs come from a ``random.Random`` seeded with the workload name and the
seed.  Jobs are laid out in rounds; every round holds the same strata (moduli,
systems, commands) in a seeded order with seeded indices, so any run of whole
rounds has the same mix.  The loop stops after the round in which the time is
up and at least ``min_jobs`` jobs have run, and cycles over the rounds when a
fast program exhausts them.

Checks call only the independent oracle (oracle.py), never bimop, and run
outside the timed loop.  The inputs are chosen so that bimop passes every
check.  The float calls that bimop gets wrong are kept apart as probes: each
run makes them once, outside the timed loop, and reports them on standard
error as a census of known defects.  The generator can be run alone to print
the input properties of a seed:

    python3 perfbench/workloads.py --workload construct --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from math import isqrt
from typing import Dict, List, Tuple

import oracle as O

FLOAT_REL_TOL = 1e-8
TRIES = 1000


def degree(mod: int) -> int:
    """d with d(d+1)/2 <= mod < (d+1)(d+2)/2."""
    return (isqrt(8 * mod + 1) - 1) // 2


def raised(outcome) -> bool:
    return isinstance(outcome, tuple) and outcome[:1] == ("raised",)


def attempt(fn, *args, **kwargs):
    """Call fn; an exception becomes the outcome ("raised", class name)."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every failure is an outcome the oracle judges
        return ("raised", type(exc).__name__)


def random_path(rng, start, target, normal, tries=200):
    """Random monotone neighbour path from start to target through normal indices."""
    moves = [j for j, (a, b) in enumerate(zip(start, target)) for _ in range(b - a)]
    if not normal(tuple(start)):
        return None
    for _ in range(tries):
        rng.shuffle(moves)
        cur = list(start)
        path = [tuple(cur)]
        for j in moves:
            cur[j] += 1
            if not normal(tuple(cur)):
                break
            path.append(tuple(cur))
        else:
            return path
    return None


def random_ascent(rng, start, length, normal, tries=200):
    """Random neighbour path of `length` steps up from start through normal indices."""
    if not normal(tuple(start)):
        return None
    for _ in range(tries):
        cur = list(start)
        path = [tuple(cur)]
        for _ in range(length):
            cur[rng.randrange(len(cur))] += 1
            if not normal(tuple(cur)):
                break
            path.append(tuple(cur))
        else:
            return path
    return None


def canonical(waypoints):
    """bimop's default neighbour path: raise components in ascending order."""
    steps = [tuple(waypoints[0])]
    for target in waypoints[1:]:
        cur = list(steps[-1])
        for j in range(len(cur)):
            while cur[j] < target[j]:
                cur[j] += 1
                steps.append(tuple(cur))
    return steps


def default_vector_path(chain):
    """Indices nnr_vector visits with its default lower and upper chains."""
    d, r = len(chain) - 1, len(chain[0])
    n0, nd = chain[0], chain[-1]
    u = tuple(c - (d + 1) for c in n0)
    waypoints = [(0,) * r] + ([u] if all(c >= 0 for c in u) else []) + [n0]
    upper = canonical([nd, (nd[0] + d + 2,) + tuple(nd[1:])])[1:]
    return canonical(waypoints)[:-1] + list(chain) + upper


def nnr_requests(n, steps, axis):
    """Solve requests of nnr_type2 in order, assuming nonzero coefficients."""
    d = degree(sum(n))
    top = sum(n) + (d + 1 if axis == "x" else d + 2)
    base = sum(steps[0])
    out = [("2", n), ("2", steps[top - base])]
    for i in range(base, top):
        out += [("1", steps[i + 1 - base]), ("2", steps[i - base])]
    return out


def cache_share(requests) -> Tuple[int, int]:
    """(requests served by an earlier identical request, all requests)."""
    return len(requests) - len(set(requests)), len(requests)


def histogram(values) -> Dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def zero_poly(p) -> bool:
    return all(c == 0 for c in p.coeffs)


def pad(blocks, n):
    out = []
    for b, nj in zip(blocks, n):
        out.extend(list(b) + [0] * (nj - len(b)))
    return out


class Workload:
    """One workload: generated rounds of jobs plus set-up, run and check."""

    name = ""
    rounds_count = 0
    min_jobs = 100

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.tracer = None
        self.tables = {"pair": O.NormalityTable("pair"), "quad": O.NormalityTable("quad")}
        self.oracles = {kind: O.System(t.config) for kind, t in self.tables.items()}
        self.memo: Dict[tuple, object] = {}
        self.rounds = [self.make_round(k) for k in range(self.rounds_count)]

    # Input generation -------------------------------------------------
    def make_round(self, k: int) -> list:
        raise NotImplementedError

    def pick_pair(self, mod: int, spread: int) -> Tuple[int, int]:
        lo, hi = max(mod // 2 - spread, 0), min(mod // 2 + spread, mod)
        choices = [(a, mod - a) for a in range(lo, hi + 1)
                   if self.tables["pair"].is_normal((a, mod - a))]
        return self.rng.choice(choices)

    def properties(self) -> dict:
        raise NotImplementedError

    def probes(self) -> list:
        """Jobs outside the timed inputs on which bimop is known to fail."""
        return []

    # Program side -----------------------------------------------------
    def setup(self) -> None:
        """Import bimop and build the workload's systems (timed as setup_s)."""
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError

    # Oracle side ------------------------------------------------------
    def check(self, job, outcome) -> List[bool]:
        """Whether each operation of the job passed."""
        raise NotImplementedError


class LibraryWorkload(Workload):
    """Jobs that call the bimop library on systems built from parameters."""

    mode = "exact"

    def setup(self) -> None:
        bm = importlib.import_module("bimop")
        self.bm = bm

        def factory(config):
            pairs = [(m["x"]["alpha"], m["y"]["alpha"]) for m in config["measures"]]
            alphas = [(Fraction(str(a)), Fraction(str(b))) for a, b in pairs]
            return lambda: bm.MeasureSystem(
                measures=tuple(bm.TensorMeasure(bm.Laguerre(a), bm.Laguerre(b))
                               for a, b in alphas), mode=self.mode)

        self.make = {"pair": factory(O.PAIR_CONFIG), "quad": factory(O.QUAD_CONFIG)}
        for make in self.make.values():
            make()


class Construct(LibraryWorkload):
    """normality, type2 and type1 of one index on a fresh exact system.

    Nearly all time goes into eliminating one large M_n three times (a
    Bareiss det and two Gaussian solves); no verifiers, no cache reuse.  One
    job in four is on the four-measure product system, one of those two on a
    non-normal index, where type2 and type1 must raise NotNormal.
    """

    name = "construct"
    # Duplicated strata put the median and the 90th percentile inside a
    # stratum, not on the edge between two, which keeps them steady.
    MODULI = (16, 20, 24, 28, 28, 34, 40, 40)
    rounds_count = 40

    def make_round(self, k):
        rng = self.rng
        quad_normal, quad_singular = rng.sample(range(len(self.MODULI)), 2)
        jobs = []
        for pos, mod in enumerate(self.MODULI):
            if pos in (quad_normal, quad_singular):
                table = self.tables["quad"]
                want = pos == quad_normal
                jobs.append(("quad", rng.choice([n for n in table.by_modulus[mod]
                                                 if table.is_normal(n) == want])))
            else:
                jobs.append(("pair", self.pick_pair(mod, mod // 6)))
        rng.shuffle(jobs)
        return jobs

    def properties(self):
        jobs = [j for r in self.rounds for j in r]
        bad = sum(not self.tables[kind].is_normal(n) for kind, n in jobs)
        return {"moduli": histogram(sum(n) for _, n in jobs),
                "systems": histogram(kind for kind, _ in jobs),
                "nonnormal_share": share(bad, len(jobs)),
                "cache_served_share": 0.0,
                "float_ge8_share": 0.0}

    def run(self, job):
        kind, n = job
        bm = self.bm
        sys_ = self.make[kind]()
        return (attempt(bm.normality, sys_, n), attempt(bm.type2, sys_, n),
                attempt(bm.type1, sys_, n))

    def check(self, job, outcome):
        kind, n = job
        osys = self.oracles[kind]
        normal = self.tables[kind].is_normal(n)
        verdict, p2, p1 = outcome
        ok_verdict = not raised(verdict) and verdict.normal is normal
        if normal:
            ok2 = not raised(p2) and osys.type2_ok(n, list(p2.coeffs))
            ok1 = not raised(p1) and osys.type1_ok(n, [a.coeffs for a in p1.polys])
        else:
            ok2 = p2 == ("raised", "NotNormal")
            ok1 = p1 == ("raised", "NotNormal")
        return [ok_verdict, ok2, ok1]


class Float(LibraryWorkload):
    """type2 and type1 in float64 mode, with normality at small moduli.

    Exercises the float branch of linalg and the conditioning band of
    mopcore.normality; jobs take milliseconds, so per-call overhead counts.
    A confident wrong verdict, a NotNormal on a normal index and a
    coefficient off by more than 1e-8 relative are failed operations.

    bimop's float mode gives a confident ``normal: False`` for every
    |n| >= 8, and some type2/type1 coefficients off by more than 1e-8 from
    modulus 23 up, so the timed jobs call normality only below modulus 8 and
    stop at modulus 22.  Those calls are the probes.
    """

    name = "float"
    mode = "float64"
    # Duplicated strata hold the median and the 90th percentile (see construct).
    MODULI = (5, 7, 10, 14, 16, 16, 18, 20, 22, 22)
    NORMALITY_BELOW = 8
    PROBE_MODULI = (8, 12, 16, 20, 24, 28, 32, 36, 40)
    CALLS = ("normality", "type2", "type1")
    rounds_count = 40

    def make_round(self, k):
        jobs = []
        for mod in self.MODULI:
            calls = self.CALLS if mod < self.NORMALITY_BELOW else self.CALLS[1:]
            jobs.append((self.pick_pair(mod, 2), calls))
        self.rng.shuffle(jobs)
        return jobs

    def probes(self):
        return [(self.pick_pair(mod, 2), self.CALLS) for mod in self.PROBE_MODULI]

    def properties(self):
        jobs = [j for r in self.rounds for j in r]
        return {"moduli": histogram(sum(n) for n, _ in jobs),
                "distinct_indices": len({n for n, _ in jobs}),
                "nonnormal_share": 0.0,
                "cache_served_share": 0.0,
                "float_ge8_share": share(sum(sum(n) >= 8 for n, _ in jobs), len(jobs))}

    def run(self, job):
        n, calls = job
        sys_ = self.make["pair"]()
        return tuple(attempt(getattr(self.bm, call), sys_, n) for call in calls)

    def check(self, job, outcome):
        n, calls = job
        exact2, exact1 = self.exact(n)
        oks = []
        for call, got in zip(calls, outcome):
            if raised(got):
                oks.append(False)
            elif call == "normality":
                oks.append(got.normal in (None, True))
            elif call == "type2":
                oks.append(O.rel_error(got.coeffs, exact2) <= FLOAT_REL_TOL)
            else:
                oks.append(O.rel_error(pad([a.coeffs for a in got.polys], n),
                                       pad(exact1, n)) <= FLOAT_REL_TOL)
        return oks

    def exact(self, n):
        if n not in self.memo:
            osys = self.oracles["pair"]
            self.memo[n] = (osys.type2(n), osys.type1(n))
        return self.memo[n]


class Recurrence(LibraryWorkload):
    """A verifier battery on one fresh two-measure system per job.

    nnr_type2 on both axes along one explicit seeded neighbour path through
    normal indices, then one of nnr_type1, nnr_vector or biorth_matrix on a
    seeded chain.  Many medium solves of neighbouring indices; the type2 and
    type1 caches serve the indices the checks share.
    """

    name = "recurrence"
    MODULI = (10, 12, 12, 14)
    EXTRAS = ("nnr_type1", "nnr_vector", "biorth_matrix")
    rounds_count = 40

    def make_round(self, k):
        jobs = []
        for pos, mod in enumerate(self.MODULI):
            n, steps = self.pick_nnr(mod)
            kind = self.EXTRAS[(k * len(self.MODULI) + pos) % len(self.EXTRAS)]
            jobs.append({"n": n, "path": steps, "extra": self.pick_extra(kind)})
        self.rng.shuffle(jobs)
        return jobs

    def normal(self, n):
        return self.tables["pair"].is_normal(n)

    def pick_nnr(self, mod):
        d = degree(mod)
        for _ in range(TRIES):
            a = self.rng.randint(d + 1, mod - d - 1)
            n = (a, mod - a)
            v = (a - d - 1, mod - a - d - 1)
            low = random_path(self.rng, v, n, self.normal)
            high = random_ascent(self.rng, n, d + 2, self.normal)
            if low and high:
                return n, tuple(low + high[1:])
        raise RuntimeError(f"no admissible input in {TRIES} draws")

    def pick_extra(self, kind):
        rng, normal = self.rng, self.normal
        for _ in range(TRIES):
            if kind == "nnr_type1":
                mod = rng.randint(4, 6)
                a = rng.randint(1, mod - 1)
                n, axis = (a, mod - a), rng.choice("xy")
                d = degree(mod)
                bump = d + 1 if axis == "x" else d + 2
                low = random_path(rng, (0, 0), n, normal)
                high = random_path(rng, n, (a + bump, mod - a + bump), normal)
                if low and high:
                    return (kind, n, axis, tuple(low + high[1:]))
            elif kind == "nnr_vector":
                d = rng.randint(2, 3)
                b = d * (d + 1) // 2
                steps = random_ascent(rng, (0, 0), b + 2 * d + 2, normal)
                if steps:
                    lower = [steps[h * (h + 1) // 2: h * (h + 1) // 2 + h + 1] for h in range(d)]
                    return (kind, steps[b:b + d + 1], rng.choice("xy"), lower,
                            steps[b + d + 1:])
            else:
                d = rng.randint(2, 3)
                b, b2 = d * (d + 1) // 2, (d + 1) * (d + 2) // 2
                steps = random_ascent(rng, (0, 0), b2 + d + 1, normal)
                if steps:
                    chain_n = steps[b:b + d + 1]
                    chain_m = chain_n if rng.random() < 0.5 else steps[b2:b2 + d + 2]
                    return (kind, chain_n, chain_m)
        raise RuntimeError(f"no admissible input in {TRIES} draws")

    def requests(self, job):
        out = nnr_requests(job["n"], job["path"], "x") + nnr_requests(job["n"], job["path"], "y")
        extra = job["extra"]
        if extra[0] == "biorth_matrix":
            out += [r for n in extra[1] for m in extra[2] for r in (("2", n), ("1", m))]
        else:
            steps = extra[3] if extra[0] == "nnr_type1" else (
                [x for ch in extra[3] for x in ch] + list(extra[1]) + list(extra[4]))
            out += [(kind, s) for s in steps for kind in ("2", "1") if sum(s)]
        return out

    def properties(self):
        jobs = [j for r in self.rounds for j in r]
        served = total = 0
        for job in jobs:
            s, t = cache_share(self.requests(job))
            served, total = served + s, total + t
        return {"moduli": histogram(sum(j["n"]) for j in jobs),
                "extras": histogram(j["extra"][0] for j in jobs),
                "path_lengths": histogram(len(j["path"]) for j in jobs),
                "nonnormal_share": 0.0,
                "cache_served_share": share(served, total),
                "float_ge8_share": 0.0}

    def run(self, job):
        bm = self.bm
        sys_ = self.make["pair"]()
        n, path = job["n"], job["path"]
        rx = attempt(bm.nnr_type2, sys_, n, "x", path=path)
        ry = attempt(bm.nnr_type2, sys_, n, "y", path=path)
        extra = job["extra"]
        if extra[0] == "nnr_type1":
            re = attempt(bm.nnr_type1, sys_, extra[1], extra[2], path=extra[3])
        elif extra[0] == "nnr_vector":
            re = attempt(bm.nnr_vector, sys_, extra[1], extra[2],
                         lower=extra[3], upper=extra[4])
        else:
            re = attempt(bm.biorth_matrix, sys_, extra[1], extra[2])
        return rx, ry, re

    def check(self, job, outcome):
        rx, ry, re = outcome
        kind = job["extra"][0]
        if kind == "biorth_matrix":
            ok_extra = not raised(re) and re.matches is True and \
                re.matrix.data == self.pattern(job["extra"][1], job["extra"][2])
        else:
            ok_extra = self.holds(re)
        return [self.holds(rx), self.holds(ry), ok_extra]

    @staticmethod
    def holds(report) -> bool:
        if raised(report) or report.holds is not True:
            return False
        residual = report.residual
        polys = residual if isinstance(residual, (list, tuple)) else [residual]
        return all(zero_poly(p) for p in polys)

    @staticmethod
    def pattern(chain_n, chain_m):
        """Biorthogonality law: shifted identity, or a unit bottom-left entry."""
        d, h = len(chain_n) - 1, len(chain_m) - 1
        if list(chain_m) == list(chain_n):
            return [[int(i == k + 1) for i in range(d + 1)] for k in range(d + 1)]
        return [[int((k, i) == (d, 0)) for i in range(h + 1)] for k in range(d + 1)]


class Cli(Workload):
    """In-process ``bimop.cli.run(argv)`` calls with captured output.

    A fixed mix of commands per round on the README config, the four-measure
    config, the product config and seeded Laguerre/Jacobi configs; five calls
    in eighteen use --float.  Each call re-parses its config and starts cold,
    so parsing, moment filling, matrix building and JSON writing weigh as much
    as elimination.

    The --float calls stay where bimop's float mode is right: ``normal``
    at moduli 2-4, ``type2`` on the README config, ``vector`` of degree 2.
    ``biorth`` and ``check`` run exact only.  The float calls bimop gets
    wrong are the probes.
    """

    name = "cli"
    rounds_count = 40
    SEEDED = 3

    def __init__(self, seed, workdir):
        self.configs = {"readme": O.PAIR_CONFIG, "quad": O.QUAD_CONFIG,
                        "product": O.PRODUCT_CONFIG}
        rng = random.Random(f"cli-configs:{seed}")
        for k in range(self.SEEDED):
            # Equal families on one axis for both measures make most indices
            # non-normal, so the two measures differ on each axis.
            xs, ys = self.two_families(rng), self.two_families(rng)
            self.configs[f"seeded{k}"] = {"scalar": "exact", "measures": [
                {"kind": "tensor", "x": x, "y": y} for x, y in zip(xs, ys)]}
        self.osys = {k: O.System(c) for k, c in self.configs.items() if "measures" in c}
        self.uni = (O.UniSystem(O.PRODUCT_CONFIG["x"]), O.UniSystem(O.PRODUCT_CONFIG["y"]))
        self.paths = {k: os.path.join(workdir, f"{k}.json") for k in self.configs}
        super().__init__(seed, workdir)

    @classmethod
    def two_families(cls, rng):
        for _ in range(TRIES):
            a, b = cls.family(rng), cls.family(rng)
            if a != b:
                return a, b
        raise RuntimeError(f"no admissible input in {TRIES} draws")

    @staticmethod
    def family(rng):
        if rng.random() < 0.5:
            return {"family": "laguerre", "alpha": str(rng.randint(5, 45) / 10)}
        return {"family": "jacobi", "a": str(rng.randint(-5, 30) / 10)}

    def write_configs(self):
        for key, doc in self.configs.items():
            with open(self.paths[key], "w") as fh:
                json.dump(doc, fh)

    def normal(self, key, n) -> bool:
        n = tuple(n)
        if key in ("readme", "quad"):
            table = self.tables["pair" if key == "readme" else "quad"]
            if sum(n) <= table.full_to:
                return table.is_normal(n)
        return self.osys[key].normal(n)

    def index(self, r, lo, hi):
        mod = self.rng.randint(lo, hi)
        cuts = sorted(self.rng.randint(0, mod) for _ in range(r - 1))
        bounds = [0] + cuts + [mod]
        return tuple(b - a for a, b in zip(bounds, bounds[1:]))

    def normal_index(self, key, r, lo, hi):
        for _ in range(TRIES):
            n = self.index(r, lo, hi)
            if self.normal(key, n):
                return n
        raise RuntimeError(f"no admissible input in {TRIES} draws")

    def call(self, command, key, float_mode, **meta):
        argv = [command, "--config", self.paths[key]]
        for flag in ("index", "n", "m", "v", "chain", "axis", "path"):
            if flag in meta:
                value = meta[flag]
                argv += [f"--{flag}", value if isinstance(value, str) else arg(value, flag)]
        if meta.get("pretty"):
            argv.append("--pretty")
        if float_mode:
            argv.append("--float")
        # Modulus of the index whose verdict or polynomial the call reports.
        main = meta.get("index") or meta.get("v") or meta.get("n") or \
            (meta["chain"][-1] if "chain" in meta else ())
        return {"argv": tuple(argv), "command": command, "config": key,
                "float": float_mode, "modulus": sum(main), **meta}

    def make_round(self, k):
        rng = self.rng
        pretty = lambda: rng.random() < 0.5
        seeded = lambda: f"seeded{rng.randrange(self.SEEDED)}"
        calls = [
            self.call("normal", "readme", False, index=self.index(2, 8, 14)),
            self.call("normal", "quad", False, index=self.index(4, 6, 10)),
            self.call("normal", "readme", True, index=self.index(2, 2, 4)),
            self.call("type2", "readme", False, index=self.index(2, 8, 14), pretty=pretty()),
            self.call("type2", seeded(), False, index=self.index(2, 6, 12)),
            self.call("type2", "readme", True, index=self.index(2, 6, 14)),
            self.call("type1", "readme", False, index=self.index(2, 8, 14), pretty=pretty()),
            self.call("type1", "quad", True, index=self.index(4, 6, 10)),
            self.biorth(False), self.biorth(False),
            self.nnr("readme"), self.nnr(seeded()), self.nnr_q(),
            self.vector(False, 2, 3), self.vector(True, 2, 2),
            self.product(False), self.product(True),
            self.call("check", ("readme", "quad")[k % 2], False),
        ]
        rng.shuffle(calls)
        return calls

    def probes(self):
        seeded = f"seeded{self.rng.randrange(self.SEEDED)}"
        return [self.call("normal", "readme", True, index=self.index(2, 5, 14)),
                self.call("type2", seeded, True, index=self.index(2, 6, 12)),
                self.biorth(True), self.vector(True, 3, 3),
                self.call("check", "readme", True)]

    def biorth(self, float_mode):
        n = self.normal_index("readme", 2, 2, 6)
        case = self.rng.choice(("m<=n", "next", "far"))
        for _ in range(TRIES):
            if case == "m<=n":
                m = tuple(self.rng.randint(0, c) for c in n)
            else:
                m = self.index(2, sum(n) + 1, sum(n) + 1 if case == "next" else sum(n) + 3)
            if sum(m) and self.normal("readme", m):
                return self.call("biorth", "readme", float_mode, n=n, m=m)
        raise RuntimeError(f"no admissible input in {TRIES} draws")

    def nnr(self, key):
        for _ in range(TRIES):
            mod = self.rng.choice((8, 9, 11))
            d = degree(mod)
            a = self.rng.randint(d + 1, mod - d - 1)
            n, axis = (a, mod - a), self.rng.choice("xy")
            v = (a - d - 1, mod - a - d - 1)
            norm = lambda x: self.normal(key, x)
            low = random_path(self.rng, v, n, norm)
            high = random_ascent(self.rng, n, d + 1 if axis == "x" else d + 2, norm)
            if low and high:
                return self.call("nnr", key, False, index=n, axis=axis,
                                 path=tuple(low + high[1:]))
        raise RuntimeError(f"no admissible input in {TRIES} draws")

    def nnr_q(self):
        norm = lambda x: self.normal("readme", x)
        for _ in range(TRIES):
            mod = self.rng.randint(3, 5)
            a = self.rng.randint(1, mod - 1)
            n, axis = (a, mod - a), self.rng.choice("xy")
            d = degree(mod)
            bump = d + 1 if axis == "x" else d + 2
            low = random_path(self.rng, (0, 0), n, norm)
            high = random_path(self.rng, n, (a + bump, mod - a + bump), norm)
            if low and high:
                return self.call("nnr-q", "readme", False, index=n, axis=axis,
                                 path=tuple(low + high[1:]))
        raise RuntimeError(f"no admissible input in {TRIES} draws")

    def vector(self, float_mode, lo, hi):
        norm = lambda x: self.normal("readme", x)
        for _ in range(TRIES):
            d = self.rng.randint(lo, hi)
            chain = random_ascent(self.rng, self.index(2, d * (d + 1) // 2, d * (d + 1) // 2),
                                  d, norm)
            if chain and all(norm(x) for x in default_vector_path(chain)):
                return self.call("vector", "readme", float_mode, chain=tuple(chain),
                                 axis=self.rng.choice("xy"))
        raise RuntimeError(f"no admissible input in {TRIES} draws")

    def product(self, float_mode):
        for _ in range(TRIES):
            total = self.rng.randint(2, 4)
            nm = self.rng.randint(1, total - 1)
            n, m = self.index(2, nm, nm), self.index(2, total - nm, total - nm)
            tv = tuple(O.pair(a, b) for a in n for b in m)
            target = O.pair(sum(n), sum(m))
            cands = [v for v in O.compositions(target, 4)
                     if all(x <= y for x, y in zip(v, tv)) and self.normal("quad", v)]
            if cands:
                return self.call("product", "product", float_mode, n=n, m=m,
                                 v=self.rng.choice(cands))
        raise RuntimeError(f"no admissible input in {TRIES} draws")

    def properties(self):
        calls = [c for r in self.rounds for c in r]
        floats = [c for c in calls if c["float"]]
        indexed = [c for c in calls if "index" in c and c["command"] in ("normal", "type2", "type1")]
        bad = sum(not self.normal(c["config"], c["index"]) for c in indexed)
        served = total = 0
        for c in calls:
            if c["command"] == "nnr":
                s, t = cache_share(nnr_requests(c["index"], c["path"], c["axis"]))
                served, total = served + s, total + t
        big = sum(c["modulus"] >= 8 for c in floats)
        return {"commands": histogram(c["command"] + ("+float" if c["float"] else "")
                                      for c in calls),
                "configs": histogram(c["config"] for c in calls),
                "moduli": histogram(c["modulus"] for c in calls),
                "float_share": share(len(floats), len(calls)),
                "nonnormal_share": share(bad, len(indexed)),
                "cache_served_share": share(served, total),
                "float_ge8_share": share(big, len(floats))}

    def setup(self):
        self.cli = importlib.import_module("bimop.cli")
        bm = importlib.import_module("bimop")
        for key, doc in self.configs.items():
            text = json.dumps(doc)
            if "measures" in doc:
                bm.parse_config(text)
            else:
                bm.parse_uni_config(doc["x"], "$.x")
                bm.parse_uni_config(doc["y"], "$.y")

    def run(self, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.run(list(job["argv"]))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaped exception is a failed call
                code = ("raised", type(exc).__name__)
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.count("cli.stdout_bytes", len(text.encode()))
        return code, text, err.getvalue()

    # Checks -----------------------------------------------------------
    def check(self, job, outcome):
        code, text, _ = outcome
        try:
            doc = json.loads(text) if text else None
            ok = getattr(self, "check_" + job["command"].replace("-", "_"))(job, code, doc)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        return [bool(ok)]

    def close(self, a, b) -> bool:
        return abs(float(a) - float(b)) <= FLOAT_REL_TOL * max(1.0, abs(float(b)))

    def check_normal(self, job, code, doc):
        key, n = job["config"], job["index"]
        truth = self.normal(key, n)
        if code != (0 if truth else 2) or doc["normal"] is not truth:
            return False
        return job["float"] or Fraction(doc["det"]) == self.exact(key, "det", n)

    def exact(self, key, what, n):
        k = (key, what, tuple(n))
        if k not in self.memo:
            self.memo[k] = getattr(self.osys[key], what)(n)
        return self.memo[k]

    def coeffs(self, poly_doc, length):
        out = [0] * length
        for term in poly_doc["terms"]:
            out[O.pair(term["t"], term["s"])] = term["c"]
        return out

    def scalars(self, values, float_mode):
        return [float(v) if float_mode else Fraction(v) for v in values]

    def check_type2(self, job, code, doc):
        key, n = job["config"], job["index"]
        if not self.normal(key, n):
            return code == 2
        if code != 0:
            return False
        got = self.scalars(self.coeffs(doc, sum(n) + 1), job["float"])
        if job["float"]:
            return O.rel_error(got, self.exact(key, "type2", n)) <= FLOAT_REL_TOL
        return self.osys[key].type2_ok(n, got)

    def check_type1(self, job, code, doc):
        key, n = job["config"], job["index"]
        if not self.normal(key, n):
            return code == 2
        if code != 0 or len(doc["polys"]) != len(n):
            return False
        blocks = [self.scalars(self.coeffs(p, nj), job["float"])
                  for p, nj in zip(doc["polys"], n)]
        if job["float"]:
            return O.rel_error(pad(blocks, n), pad(self.exact(key, "type1", n), n)) <= FLOAT_REL_TOL
        return self.osys[key].type1_ok(n, blocks)

    def check_biorth(self, job, code, doc):
        n, m = job["n"], job["m"]
        value = self.memo.get(("biorth", n, m))
        if value is None:
            value = self.memo[("biorth", n, m)] = self.osys["readme"].pairing(n, m)
        if all(a <= b for a, b in zip(m, n)) or sum(n) <= sum(m) - 2:
            expected = 0
        elif sum(n) == sum(m) - 1:
            expected = 1
        else:
            expected = None
        matches = None if expected is None else value == expected
        if code != (4 if matches is False else 0) or doc["matches"] is not matches:
            return False
        if job["float"]:
            return self.close(doc["value"], value)
        return Fraction(doc["value"]) == value

    def check_nnr(self, job, code, doc):
        if code != 0 or doc["holds"] is not True:
            return False
        residual = doc["residual"]
        residuals = residual if isinstance(residual, list) else [residual]
        return job["float"] or all(r == "0" for r in residuals)

    check_nnr_q = check_vector = check_nnr

    def check_product(self, job, code, doc):
        n, m, v = job["n"], job["m"], job["v"]
        key = ("product", n, m, v)
        if key not in self.memo:
            prod = O.product_poly(*self.uni, n, m)
            self.memo[key] = (prod, self.osys["quad"].type2(v) == prod)
        prod, match = self.memo[key]
        if code != (0 if match else 4) or doc["match"] is not match or doc["v"] != list(v):
            return False
        got = self.scalars(self.coeffs(doc["poly"], len(prod)), job["float"])
        if job["float"]:
            return O.rel_error(got, prod) <= FLOAT_REL_TOL
        return got == prod

    def check_check(self, job, code, doc):
        return code == 0 and doc["ok"] is True


def arg(value, flag) -> str:
    """CLI text of an index, or of a path or chain of indices."""
    if flag in ("path", "chain"):
        return ";".join(",".join(map(str, step)) for step in value)
    return ",".join(map(str, value))


WORKLOADS = {w.name: w for w in (Construct, Recurrence, Float, Cli)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="print the input properties of one seed")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload](args.seed, workdir=os.devnull)
    print(json.dumps(wl.properties(), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

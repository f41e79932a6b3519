"""The benchmark's workloads, run in a child process by bench/run.py.

    python3 bench/workloads.py --workload scan --seed 1 --seconds 50 --trace 0

Each workload is one client in a closed loop: the next op starts when the
previous one returns, in one process with no threads.  Ops come in cycles
whose mix is fixed and whose inputs come from the seed.  An untraced run
warms up on the first WARMUP_OPS ops of one cycle, then runs fresh cycles
while the next one still fits in --seconds and pools every op they time.
A traced run makes a fixed number of cycles twice, untraced and then
traced, so its counts repeat exactly for a seed.  Every output is checked
against bench/pinned.json or recomputed by bench/oracle.py.  The last line
printed is one JSON object that run.py reads.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import oracle  # noqa: E402
import tracing  # noqa: E402

import markoff  # noqa: E402
import numpy  # noqa: E402
import markoff.cli as cli  # noqa: E402
from markoff import descent, moves, orbits  # noqa: E402
from markoff.surfaces import Markoff11, Point3, make_cubic04  # noqa: E402

SCAN_SPHERE_ROWS = 40  # with 11 or 12 torus rows, about 52 cold ops per cycle
VERIFY_TRIALS = 100
MOVES_PER_RATE = 200_000
WARMUP_OPS = 10


@dataclass
class Op:
    """One library or CLI call and the check of its output, which returns
    None when the output is right and a reason when it is not."""

    label: str
    call: Callable
    check: Callable


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    extra: dict = field(default_factory=dict)

    def add(self, other):
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        for key, value in other.extra.items():
            self.extra.setdefault(key, []).append(value)


def run_ops(ops, tracer, tally, keep=None):
    """Run ops in order and return their times; checks run untimed."""
    perf = time.perf_counter
    times = []
    for op in ops:
        tally.attempted += 1
        out = reason = None
        t0 = perf()
        try:
            out = tracer.op(op.call) if tracer else op.call()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            reason = f"raised {exc!r}"
        times.append(perf() - t0)
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as exc:  # malformed output
                reason = f"unreadable output: {exc!r}"
        if reason is not None:
            _fail(tally, op, reason)
        if keep is not None:
            keep.append(out)
        del out  # so the next op's peak memory does not include this output
    return times


class Workload:
    """A cycle is a list of ops with a fixed mix, and `run_cycle` runs it."""

    def run_cycle(self, ops, tracer):
        tally = Tally()
        tally.latencies = run_ops(ops, tracer, tally)
        return tally


def _fail(tally, op, reason):
    tally.failed += 1
    print(f"FAILED {op.label}: {reason}", file=sys.stderr)


def cli_call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# scan: one `markoff scan` per parameter value, cold pass then warm pass


class Scan(Workload):
    """Torus k = -2..20 at box 1000 plus seeded sphere tuples at box 200.

    Enumeration dominates; the torus rows with k - 2 a square (and k = 2)
    carry 12k-25k exceptional points each and set the tail.  All 23 torus
    rows take about 11 s, so they are dealt into two halves of near-equal
    cost (in order of pinned exceptional count, ties in seeded order) and
    cycles alternate halves: every two cycles run each torus row once.  The
    sphere tuples are one from each of SCAN_SPHERE_ROWS equal strata of all
    2401 tuples ordered by box point count.  So every cycle has the same
    cost profile and the seed changes which rows carry it.  A cycle is a cold
    pass that fills a fresh cache file, then a warm pass that reruns the
    same calls against it and must print the same bytes; only cold calls
    are ops with latencies."""

    trace_cycles = 1

    def __init__(self, pinned, tiny):
        self.pinned = pinned["scan"]
        self.torus_ks = (-2, -1, 0) if tiny else oracle.TORUS_KS
        self.halves = []
        sphere = self.pinned["sphere"]
        keys = sorted(sphere, key=lambda key: (sphere[key][3], key))
        n = 3 if tiny else SCAN_SPHERE_ROWS
        self.strata = [keys[i * len(keys) // n:(i + 1) * len(keys) // n] for i in range(n)]

    def make_cycle(self, rng):
        if not self.halves:
            torus = self.pinned["torus"]
            order = sorted(self.torus_ks, key=lambda k: (-torus[str(k)][2], rng.random()))
            # deal A B B A A B B ..., so both halves get the same share of heavy rows
            self.halves = [[k for i, k in enumerate(order) if (i + 1) // 2 % 2 == half]
                           for half in (1, 0)]
        rows = [("11", (k,)) for k in self.halves.pop()]
        rows += [
            ("04", tuple(int(v) for v in rng.choice(stratum).split(",")))
            for stratum in self.strata
        ]
        rng.shuffle(rows)
        return rows

    def _op(self, kind, params, cache):
        box = self.pinned["torus_box" if kind == "11" else "sphere_box"]
        argv = ["scan", "--type", kind, "--k", ",".join(map(str, params)),
                "--box", str(box), "--cache", cache, "--jobs", "1"]
        table = "torus" if kind == "11" else "sphere"
        expected = self.pinned[table][",".join(map(str, params))][:3]

        def check(out):
            rc, text = out
            if rc not in (0, 2):
                return f"exit code {rc}"
            (row,) = json.loads(text)["rows"]
            got = [row["h_star_gamma_poly"], row["h_star_gamma_prime"], row["exceptional"]]
            if got != expected:
                return f"class numbers {got}, expected {expected}"
            reps = [tuple(p) for p in row["representatives"]]
            if len(reps) != expected[1]:
                return f"{len(reps)} representatives for class number {expected[1]}"
            for p in reps:
                if oracle.residual(kind, params, p) != 0 or oracle.height(p) > box:
                    return f"representative {p} is not a box point"
            return None

        return Op(f"scan {kind} {params}", lambda: cli_call(argv), check)

    def run_cycle(self, rows, tracer):
        tally = Tally()
        OUT.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="scan-", dir=OUT)
        try:
            cache = os.path.join(tmp, "cache.json")
            cold_ops = [self._op(kind, params, cache) for kind, params in rows]
            cold = []
            tally.latencies = run_ops(cold_ops, tracer, tally, keep=cold)
            warm_ops = [
                Op("warm " + op.label, op.call,
                   lambda out, first=first: None if out == first
                   else "warm output differs from the cold pass")
                for op, first in zip(cold_ops, cold)
            ]
            warm_s = sum(run_ops(warm_ops, tracer, tally))
            tally.extra = {
                "warm_scan_s": warm_s,
                "cache_bytes": os.path.getsize(cache),
                "output_bytes": sum(len(out[1].encode()) for out in cold if out),
                "caps_hit_rows": sum(_caps_hit(out) for out in cold),
            }
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return tally


def _caps_hit(out):
    """1 when a scan output's row says caps_hit; malformed outputs are
    already failed ops and count 0."""
    try:
        return int(json.loads(out[1])["rows"][0]["caps_hit"])
    except (TypeError, ValueError, KeyError, IndexError):
        return 0


# ---------------------------------------------------------------------------
# orbit-search: library queries that move, search and descend but never
# enumerate a box


class OrbitCase:
    def __init__(self, case):
        self.name = case["name"]
        self.kind = case["type"]
        self.params = tuple(case["params"])
        self.cap = case["cap"]
        self.roots = [tuple(r) for r in case["roots"]]
        self.size = case["size"]
        self.component = case["component"]
        self.exceptional = case["exceptional"]
        self.surface = cli.build_surface(self.kind, self.params)
        self.table = oracle.move_table(self.kind, self.params)

    def walk(self, rng, gens, i):
        """A seeded walk from root i that stays below the cap."""
        tokens = oracle.generator_tokens(self.kind, gens)
        p = self.roots[i]
        for _ in range(rng.randint(5, 40)):
            q = self.table[rng.choice(tokens)](p)
            if oracle.height(q) <= self.cap:
                p = q
        return Point3(*p)


class OrbitSearch(Workload):
    """A fixed mix per cycle: for every case and generator set, two
    `equivalent` queries (one between walks from one component) and one
    `orbit_bfs`; one `is_exceptional` per case; `reduce_compact` on one
    deep point per deep root; eight complex descents per surface family;
    and one `markoff verify` identity suite, the only caller of
    trace_algebra, which applies single moves to random points.  With that
    mix the median op falls inside the cluster of sparse `equivalent`
    queries rather than in the gap next to it, where it would jump between
    clusters from seed to seed."""

    trace_cycles = 3

    def __init__(self, pinned, tiny):
        self.cases = [OrbitCase(c) for c in pinned["orbit"]]
        self.deep = pinned["deep"]
        self.complex_per_family = 1 if tiny else 8
        self.verify_trials = 10 if tiny else VERIFY_TRIALS
        self.star = descent.AConfig(descent.INTEGER_STAR)

    def make_cycle(self, rng):
        ops = []
        for case in self.cases:
            for gens in oracle.GENS:
                ops.append(self._equivalent(rng, case, gens, same=True))
                ops.append(self._equivalent(rng, case, gens, same=False))
                ops.append(self._orbit_bfs(rng, case, gens))
            ops.append(self._is_exceptional(rng, case))
        ops += [self._deep(rng, d) for d in self.deep]
        for _ in range(self.complex_per_family):
            ops.append(self._complex_11(rng))
            ops.append(self._complex_04(rng))
        ops.append(self._verify(rng.randrange(10**6)))
        rng.shuffle(ops)
        return ops

    def _equivalent(self, rng, case, gens, same):
        comp = case.component[gens]
        i = rng.randrange(len(case.roots))
        if same:
            j = rng.choice([j for j, c in enumerate(comp) if c == comp[i]])
        else:
            j = rng.randrange(len(case.roots))
        p, q = case.walk(rng, gens, i), case.walk(rng, gens, j)
        expected = comp[i] == comp[j]
        caps = orbits.Caps(height=case.cap)

        def check(res):
            if res.equivalent != expected:
                return f"equivalent={res.equivalent}, expected {expected}"
            if expected and oracle.replay(case.table, str(res.word), p) != q:
                return "certificate word does not replay"
            if not expected and not res.exhausted:
                return "finite capped search not exhausted"
            return None

        return Op(f"equivalent {case.name} {gens} {p} {q}",
                  lambda: orbits.equivalent(case.surface, gens, p, q, caps), check)

    def _orbit_bfs(self, rng, case, gens):
        i = rng.randrange(len(case.roots))
        start = case.walk(rng, gens, i)
        expected = case.size[gens][i]
        picks = [rng.random() for _ in range(3)]

        def check(run):
            if len(run) != expected:
                return f"{len(run)} nodes, expected {expected}"
            points = run.points()
            for u in picks:
                p = points[int(u * len(points))]
                if oracle.replay(case.table, str(run.word_to(p)), start) != p:
                    return f"word to {p} does not replay"
            return None

        return Op(f"orbit_bfs {case.name} {gens} {start}",
                  lambda: orbits.orbit_bfs(case.surface, gens, start, cap_height=case.cap),
                  check)

    def _is_exceptional(self, rng, case):
        i = rng.randrange(len(case.roots))
        p = case.walk(rng, "gamma_prime", i)
        expected = case.exceptional[i]
        caps = orbits.Caps(height=case.cap)

        def check(res):
            if res.found != expected:
                return f"found={res.found}, expected {expected}"
            if expected and not oracle.has_two(oracle.replay(case.table, str(res.word), p)):
                return "witness word does not reach a +-2 coordinate"
            if not expected and not res.exhausted:
                return "finite capped search not exhausted"
            return None

        return Op(f"is_exceptional {case.name} {p}",
                  lambda: orbits.is_exceptional(case.surface, p, caps), check)

    def _deep(self, rng, deep):
        kind, params = deep["type"], tuple(deep["params"])
        p = Point3(*oracle.grow_deep(kind, params, deep["root"], rng.randint(*oracle.DEEP_DIGITS)))
        surface = cli.build_surface(kind, params)
        table = oracle.move_table(kind, params)
        want = tuple(deep["reduced"])

        def check(res):
            if res.status != deep["status"] or tuple(res.reduced) != want:
                return f"{res.status} {tuple(res.reduced)}, expected {deep['status']} {want}"
            if oracle.replay(table, str(res.word), p) != want:
                return "certificate word does not replay"
            return None

        return Op(f"reduce_compact {params} {oracle.digits(p)} digits",
                  lambda: descent.reduce_compact(surface, self.star, p), check)

    def _complex_11(self, rng):
        x = cmath.rect(rng.uniform(12, 16), rng.uniform(0, 2 * math.pi))
        y, z = (cmath.rect(rng.uniform(0.5, 2), rng.uniform(0, 2 * math.pi)) for _ in "yz")
        k = x * x + y * y + z * z - x * y * z - 2
        p = oracle.grow_complex(oracle.move_table("11", (k,))["Ta+"], (x, y, z), rng)
        bound = oracle.complex_bound_11(k)
        return self._complex_op("11", (k,), Markoff11(k), p,
                                lambda res: min(abs(v) for v in res.reduced) <= bound,
                                lambda s, q: descent.reduce_min_complex_11(s, q))

    def _complex_04(self, rng):
        ks = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        a, b, c, d = oracle.sphere_coefficients(*ks)
        x = cmath.rect(rng.uniform(50, 60), rng.uniform(0, 2 * math.pi))
        y = cmath.rect(rng.uniform(0.5, 3), rng.uniform(0, 2 * math.pi))
        q1, q0 = x * y - c, x * x + y * y - a * x - b * y - d
        z = (-q1 + cmath.sqrt(q1 * q1 - 4 * q0)) / 2
        p = oracle.grow_complex(oracle.move_table("04", ks)["T1+"], (x, y, z), rng)
        return self._complex_op("04", ks, make_cubic04(*ks), p,
                                lambda res: res.terminal_condition
                                == oracle.sphere_terminal((a, b, c, d), res.reduced),
                                lambda s, q: descent.reduce_min_complex_04(s, q))

    def _complex_op(self, kind, params, surface, p, stopped, reducer):
        table = oracle.move_table(kind, params)
        p = Point3(*p)

        def check(res):
            if res.status != descent.REDUCED or not stopped(res):
                return f"status {res.status} at {res.reduced}"
            replayed = oracle.replay(table, str(res.word), p)
            if max(abs(u - v) for u, v in zip(replayed, res.reduced)) > 1e-9 * oracle.height(p):
                return "certificate word does not replay"
            return None

        return Op(f"reduce_min_complex_{kind}", lambda: reducer(surface, p), check)

    def _verify(self, seed):
        """`markoff verify` with a seeded suite seed: matrix-level identities
        plus single moves applied to random points, no search."""
        argv = ["verify", "--trials", str(self.verify_trials), "--seed", str(seed)]

        def check(out):
            rc, text = out
            lines = text.splitlines()
            passed = [line for line in lines[:-1] if line.startswith("pass ")]
            if rc != 0 or not passed or len(passed) != len(lines) - 1:
                return f"exit code {rc}: {text!r}"
            if lines[-1] != f"{len(passed)}/{len(passed)} suites passed":
                return f"summary line {lines[-1]!r}"
            return None

        return Op(f"verify --seed {seed}", lambda: cli_call(argv), check)


WORKLOADS = {"scan": Scan, "orbit-search": OrbitSearch}


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload, rng, seconds):
    """Warm up, then run fresh cycles while the next one still fits in
    `seconds`, and pool the times of every op they run.  The host's speed
    drifts by 20-60% in spells of tens of seconds, longer than an op or a
    cycle, so a run steadies by averaging over as long a stretch as it can
    rather than by repeating ops; fresh cycles keep the inputs many."""
    total = Tally()
    warm = workload.run_cycle(workload.make_cycle(rng)[:WARMUP_OPS], None)
    warm.latencies, warm.extra = [], {}
    total.add(warm)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        total.add(workload.run_cycle(workload.make_cycle(rng), None))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    lat = total.latencies
    n = len(lat)
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s", n),
        "op_s_p50": (statistics.median(lat), "s", n),
        "op_s_p90": (_p90(lat), "s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    info = {}
    if "warm_scan_s" in total.extra:
        info["warm_scan_s"] = statistics.median(total.extra["warm_scan_s"])
    return total, metrics, info


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(workload, rng, seed, name):
    cycles = [workload.make_cycle(rng) for _ in range(workload.trace_cycles)]
    plain, traced = Tally(), Tally()
    for cycle in cycles:
        plain.add(workload.run_cycle(cycle, None))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for cycle in cycles:
            traced.add(workload.run_cycle(cycle, tracer))
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.tsv.gz"
    tracer.write(spans_path)
    print(f"spans: {len(tracer.span_start)} written to {spans_path.relative_to(ROOT)}")

    s = tracer.summary()
    extra = {key: sum(v) for key, v in traced.extra.items()}
    plain_warm = sum(plain.extra.get("warm_scan_s", [0.0]))

    def ratio(num, den):
        return s[num] / s[den] if s[den] else 0.0

    m = {}
    for layer in ("orbits.enumerate_points", "orbits.class_number", "orbits.equivalent",
                  "orbits.orbit_bfs", "orbits.is_exceptional", "descent.reduce_compact",
                  "descent.reduce_min_complex", "trace_algebra", "surfaces", "cli"):
        m[layer + ".calls"] = (s[layer + ".calls"], "count")
        m[layer + ".self_s"] = (s[layer + ".self_s"], "s")
    m["orbits.enumerate_points.yield"] = (
        ratio("orbits.enumerate_points.points", "orbits.enumerate_points.cells"), "ratio")
    m["orbits.class_number.caps_hit_rows"] = (s["orbits.class_number.caps_hit_rows"], "count")
    m["orbits.equivalent.hit_ratio"] = (
        ratio("orbits.equivalent.hits", "orbits.equivalent.calls"), "ratio")
    m["orbits.orbit_bfs.nodes"] = (s["orbits.orbit_bfs.nodes"], "count")
    m["descent.reduce_compact.steps"] = (s["descent.reduce_compact.steps"], "count")
    m["descent.reduce_min_complex.steps"] = (s["descent.reduce_min_complex.steps"], "count")
    for layer in ("moves.apply_move", "moves.apply_word", "moves.normalize_11"):
        m[layer + ".calls"] = (s[layer + ".calls"], "count")
    m.update(move_rates())
    m["cli.cache_bytes"] = (extra.get("cache_bytes", 0), "bytes")
    m["cli.output_bytes"] = (extra.get("output_bytes", 0), "bytes")
    m["cli.caps_hit_rows"] = (extra.get("caps_hit_rows", 0), "count")
    m["cli.warm_scan_s"] = (plain_warm, "s")
    m["trace.overhead_frac"] = (sum(traced.latencies) / sum(plain.latencies) - 1, "ratio")
    total = Tally()
    total.add(plain)
    total.add(traced)
    return total, {k: (v, unit, traced.attempted) for k, (v, unit) in m.items()}, {}


def move_rates():
    """Moves per second of `apply_move` in a loop over in-box points, per
    surface family and generator set; the median of three timings."""
    cases = (("11", Markoff11(-2), [(3, 3, 3), (3, 3, 6), (3, 6, 15), (1, 0, 0)]),
             ("04", make_cubic04(0, 1, 2, 3), [(-4, -6, -7), (3, 0, 0), (4, -6, 2)]))
    out = {}
    for kind, surface, points in cases:
        points = [Point3(*p) for p in points]
        for gens in oracle.GENS:
            gen_moves = moves.generators(kind, gens)
            reps = MOVES_PER_RATE // (len(points) * len(gen_moves))
            rates = []
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(reps):
                    for p in points:
                        for g in gen_moves:
                            moves.apply_move(surface, g, p)
                rates.append(reps * len(points) * len(gen_moves) / (time.perf_counter() - t0))
            out[f"moves.apply_move.moves_per_s.{kind}.{gens}"] = (statistics.median(rates), "1/s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args(argv)
    if not Path(markoff.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: markoff imported from {markoff.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(BENCH / "pinned.json", encoding="utf-8") as fh:
        pinned = json.load(fh)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}")
    rng = random.Random(f"{args.workload}/{args.seed}")
    workload = WORKLOADS[args.workload](pinned, args.tiny)
    if args.trace:
        total, metrics, info = per_layer(workload, rng, args.seed, args.workload)
    else:
        total, metrics, info = end_to_end(workload, rng, args.seconds)
    info["failed_frac"] = total.failed / total.attempted
    for key, value in info.items():
        print(f"{key}: {value}")
    print(json.dumps({
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

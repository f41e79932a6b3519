"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy criteria print
progress through the shared reporter; stated runtime budgets are asserted.
"""

import math
import random
import time

from markoff.surfaces import (
    Markoff11,
    Point3,
    boundary_trace_11,
    linf_height,
    make_cubic04,
    residual,
)
from markoff.moves import apply_move, generators
from markoff.trace_algebra import IDENTITY_SUITES, quad_to_04_point, random_quad
from markoff.descent import (
    CAP_HIT,
    REDUCED,
    ellipse_bound_04,
    reduce_min_complex_04,
    reduce_min_complex_11,
)
from markoff.orbits import (
    Caps,
    class_number,
    enumerate_points,
    equivalent,
    lines_cover_point,
    parabolic_lines_11,
)

from test_descent import blow_up, surface_point_04, surface_point_11
from test_orbits import _inbox_component_oracle


def report(name, ok, started, limit=None, detail=""):
    elapsed = time.perf_counter() - started
    line = f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.1f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, line
    if limit is not None:
        assert elapsed < limit, f"{name}: {elapsed:.1f}s exceeded {limit}s budget"


def test_c01_surface_invariance():
    started = time.perf_counter()
    rng = random.Random(101)
    trials = 10**5

    gens11 = generators("11", "gamma_prime") + generators("11", "gamma_poly")
    ok = True
    for _ in range(trials):
        p = Point3(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50))
        s = Markoff11(boundary_trace_11(p))
        m = gens11[rng.randrange(len(gens11))]
        if residual(s, apply_move(s, m, p)) != 0:
            ok = False
            break

    # four-holed sphere: random-walk points on 400 random surfaces
    gens04 = generators("04", "gamma_prime") + generators("04", "gamma_poly")
    bases = []
    while len(bases) < 400:
        s, p = quad_to_04_point(random_quad(rng, 6))
        bases.append((s, p))
    walkers = [p for _, p in bases]
    for i in range(trials):
        j = rng.randrange(len(bases))
        s, base = bases[j]
        p = walkers[j]
        m = gens04[rng.randrange(len(gens04))]
        q = apply_move(s, m, p)
        if residual(s, q) != 0:  # base points satisfy the equation exactly
            ok = False
            break
        walkers[j] = q if linf_height(q) < 10**9 else base
    report("criterion 1: surface invariance, 1e5 triples per type", ok, started, 10)


def _suites_pass(seed, runs):
    """Run registry suites by name, each on a fresh Random(seed)."""
    suites = dict(IDENTITY_SUITES)
    return all(suites[name](random.Random(seed), trials) for name, trials in runs)


def test_c02_trace_identity_suite():
    started = time.perf_counter()
    ok = _suites_pass(
        102, (("trace-product identity", 10**5), ("rank-3 trace relations", 10**5))
    )
    report("criterion 2: trace identities on 1e5 exact inputs", ok, started)


def test_c03_boundary_trace_law():
    started = time.perf_counter()
    ok = _suites_pass(
        103, (("commutator boundary law", 10**5), ("quad boundary residual", 10**4))
    )
    report("criterion 3: boundary-trace law and quad residuals", ok, started)


def test_c04_lift_descend_square():
    started = time.perf_counter()
    ok = _suites_pass(104, (("torus lift square", 10**4), ("sphere lift square", 10**4)))
    report("criterion 4: lift/descend commuting squares", ok, started)


def test_c05_twist_decomposition():
    started = time.perf_counter()
    ok = _suites_pass(
        105,
        (("torus twist decomposition", 10**4), ("sphere twist decomposition", 10**4)),
    )
    report("criterion 5: twist = Vieta/permutation decompositions", ok, started)


def test_c06_complex_descent_bound():
    started = time.perf_counter()
    rng = random.Random(106)
    ok = True
    cap_hits = 0
    for _ in range(10**3):
        s, p = surface_point_11(rng, kmax=100)
        q = blow_up(s, p, rng)
        r = reduce_min_complex_11(s, q, step_cap=10**4)
        if r.status == CAP_HIT:
            cap_hits += 1
        if r.status != REDUCED or min(abs(v) for v in r.reduced) > r.bound:
            ok = False
    for _ in range(10**3):
        s, p = surface_point_04(rng, kmax=100)
        q = blow_up(s, p, rng)
        r = reduce_min_complex_04(s, q, step_cap=10**4)
        if r.status == CAP_HIT:
            cap_hits += 1
        if r.status != REDUCED or r.terminal_condition not in (1, 2, 3, 4, 5):
            ok = False
    ok = ok and cap_hits == 0
    report(
        "criterion 6: complex descent bounds, 1e3 round trips per type",
        ok,
        started,
        60,
        detail=f"(cap hits: {cap_hits})",
    )


def test_c07_class_number_shadow():
    started = time.perf_counter()
    ok = True
    detail = []
    for k in range(-2, 21):
        s = Markoff11(k)
        counts = {}
        for B in (1000, 2000):
            oracle, _ = _inbox_component_oracle(s, "gamma_prime", B)
            rep = class_number(s, "gamma_prime", B)
            if rep.class_number_star != oracle:
                ok = False
                detail.append(f"k={k} B={B}: pipeline {rep.class_number_star} != oracle {oracle}")
            counts[B] = rep.class_number_star
        if counts[1000] != counts[2000]:
            ok = False
            detail.append(f"k={k}: unstable {counts}")
    report(
        "criterion 7: class numbers stable and oracle-exact, k in -2..20",
        ok,
        started,
        300,
        detail="; ".join(detail),
    )


def test_c08_markoff_sanity():
    started = time.perf_counter()
    s = Markoff11(-2)
    pts = enumerate_points(s, 3)
    ok = len(pts) == 5 and Point3(0, 0, 0) in pts and Point3(3, 3, 3) in pts
    res = equivalent(
        s, "gamma_prime", Point3(0, 0, 0), Point3(3, 3, 3),
        Caps(height=10**6, count=10**6),
    )
    ok = ok and not res.equivalent  # reported as no-within-caps
    report("criterion 8: Markoff surface sanity at k=-2", ok, started)


def test_c09_parabolic_lines():
    started = time.perf_counter()
    ok = True
    for k in range(-10, 51):
        s = Markoff11(k)
        rep = parabolic_lines_11(k)
        square = k - 2 >= 0 and math.isqrt(k - 2) ** 2 == k - 2
        if square != bool(rep.lines):
            ok = False
        hits = [
            p
            for p in enumerate_points(s, 200)
            if 2 in (abs(p.x), abs(p.y), abs(p.z))
        ]
        if square:
            if not all(lines_cover_point(rep, p) for p in hits):
                ok = False
        else:
            if hits:
                ok = False
    report("criterion 9: parabolic lines cover the exceptional box points", ok, started, 30)


def test_c10_ellipse_bound():
    started = time.perf_counter()
    rng = random.Random(110)
    ok = True
    checked = 0
    for _ in range(100):
        surface = make_cubic04(*(rng.randint(-5, 5) for _ in range(4)))
        for z0 in (-1, 0, 1):
            bound = ellipse_bound_04(surface, z0)
            search = int(bound) + 3
            for x in range(-search, search + 1):
                e = surface.c * z0 + surface.d - z0 * z0
                lin = z0 * x - surface.b
                disc = lin * lin - 4 * (x * x - surface.a * x - e)
                if disc < 0:
                    continue
                root = math.isqrt(disc)
                if root * root != disc:
                    continue
                for sign in ((root, -root) if root else (root,)):
                    num = -lin + sign
                    if num % 2 == 0:
                        y = num // 2
                        checked += 1
                        if residual(surface, Point3(x, y, z0)) != 0:
                            ok = False
                        if max(abs(x), abs(y)) > bound + 1e-9:
                            ok = False
    report(
        "criterion 10: ellipse bound dominates integer slices",
        ok,
        started,
        detail=f"({checked} solutions checked)",
    )

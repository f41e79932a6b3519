import functools
import itertools
import json
import math
import pathlib
import random
import time
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from markoff.surfaces import (
    DomainMismatch,
    Markoff11,
    MarkoffError,
    Point3,
    linf_height,
    make_cubic04,
    residual,
)
from markoff.moves import (
    GENERATOR_SETS,
    VIETA_MOVES,
    Move,
    MoveWord,
    _canon_11,
    _compile,
    apply_move,
    apply_word,
    concat_words,
    dehn_twist_04,
    generators,
    identity_word,
    inverse_move,
)
from markoff.trace_algebra import _SPHERE_TWIST_WORDS
from markoff.descent import (
    INTEGER_STAR,
    REAL_AWAY2,
    AConfig,
    reduce_compact,
    reduce_min_complex_04,
    reduce_min_complex_11,
)
from markoff import orbits
from markoff.orbits import (
    _CONJ,
    _G,
    _disc,
    _S3,
    _act,
    _arrangements,
    _compose,
    _forest_edges,
    _images,
    _locus,
    _orbit_size,
    _own_word,
    _root_heights,
    _search,
    _slice,
    _sorted3,
    _sphere_form,
    _square_values,
    _sweep,
    Caps,
    EquivalenceResult,
    class_number,
    enumerate_points,
    equivalent,
    is_exceptional,
    lines_cover_point,
    orbit_bfs,
    parabolic_lines_11,
)

MARKOFF = Markoff11(-2)
PINNED_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "pinned.json"


# --- enumeration ------------------------------------------------------------


def _naive_enumerate(surface, B):
    out = []
    for x in range(-B, B + 1):
        for y in range(-B, B + 1):
            for z in range(-B, B + 1):
                if residual(surface, Point3(x, y, z)) == 0:
                    out.append(Point3(x, y, z))
    return out


def test_enumerate_markoff_box3():
    pts = enumerate_points(MARKOFF, 3)
    assert pts == [
        Point3(-3, -3, 3),
        Point3(-3, 3, -3),
        Point3(0, 0, 0),
        Point3(3, -3, -3),
        Point3(3, 3, 3),
    ]
    assert all(p == Point3(0, 0, 0) or p.x * p.y * p.z > 0 for p in pts)


def test_enumerate_empty_box():
    assert enumerate_points(Markoff11(10**6 + 1), 0) == []
    assert enumerate_points(Markoff11(-2), 0) == [Point3(0, 0, 0)]


def test_enumerate_cubic04_small():
    pts = enumerate_points(make_cubic04(0, 0, 0, 0), 2)
    for p in [(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2)]:
        assert Point3(*p) in pts


@pytest.mark.parametrize("k", [-4, -2, 0, 2, 5, 18])
def test_enumerate_matches_naive_11(k):
    s = Markoff11(k)
    for B in (5, 11):
        assert enumerate_points(s, B) == sorted(_naive_enumerate(s, B))


@pytest.mark.parametrize("k", [-2, 6])
def test_enumerate_matches_naive_box30(k):
    s = Markoff11(k)
    assert enumerate_points(s, 30) == sorted(_naive_enumerate(s, 30))


@pytest.mark.parametrize("ks", [(0, 0, 0, 0), (1, 1, 1, 1), (2, 0, -1, 3), (-2, 1, 0, 2)])
def test_enumerate_matches_naive_04(ks):
    s = make_cubic04(*ks)
    assert enumerate_points(s, 7) == sorted(_naive_enumerate(s, 7))


@functools.lru_cache(maxsize=None)
def _scan_points(surface, B):
    """The plain O(B^2) scan, the oracle for enumerate_points: every (x, y)
    in the box, z from its monic quadratic with an exact square root."""
    if isinstance(surface, Markoff11):

        def coeffs(x, y):
            return -(x * y), x * x + y * y - 2 - surface.k

    else:
        a, b, c, d = surface.a, surface.b, surface.c, surface.d

        def coeffs(x, y):
            return x * y - c, x * x + y * y - a * x - b * y - d

    found = set()
    for x in range(-B, B + 1):
        for y in range(-B, B + 1):
            q1, q0 = coeffs(x, y)
            disc = q1 * q1 - 4 * q0
            if disc < 0:
                continue
            s = math.isqrt(disc)
            if s * s != disc:
                continue
            for num in (-q1 + s, -q1 - s):
                if num % 2 == 0 and abs(num // 2) <= B:
                    found.add(Point3(x, y, num // 2))
    return sorted(found)


BIG_CASES = [
    (Markoff11(2**30), 4),
    (Markoff11(2**40), 2),
    (make_cubic04(2**13, 3, -5, 7), 6),
    (make_cubic04(2**26, 1, 1, 1), 2),
    (make_cubic04(2, 2, 2, 2), 10),
    (Markoff11(2**140 + 2), 300),
    (Markoff11(2**140 + 2), 1000),
    (make_cubic04(2**40, 3, 5, 7), 300),
]
BIG_PARAMS = pytest.mark.parametrize(
    "surface, B",
    BIG_CASES,
    ids=["torus-2^30", "torus-2^40", "sphere-2^13", "sphere-2^26", "sphere-2222",
         "torus-2^140-300", "torus-2^140-1000", "sphere-2^40-300"],
)


@BIG_PARAMS
def test_enumerate_big_params_matches_scan(surface, B):
    # parameters far beyond 2^52 in the discriminants, and a +-2-rich sphere
    assert enumerate_points(surface, B) == _scan_points(surface, B)


SPHERE_GRID = [ks for ks in itertools.product(range(-3, 4), repeat=4) if list(ks) == sorted(ks)]


def test_enumerate_matches_scan_torus_grid():
    for k in range(-50, 51):
        s = Markoff11(k)
        assert enumerate_points(s, 60) == _scan_points(s, 60), k


def test_enumerate_matches_scan_sphere_grid():
    for ks in SPHERE_GRID:
        s = make_cubic04(*ks)
        assert enumerate_points(s, 24) == _scan_points(s, 24), ks


def _slice_pass(surface, axis, value, B):
    """The O(B) slice, the oracle for _slice on +-2: every w in [-B, B] on
    the next axis, t on the third from its monic quadratic."""
    s, gamma, d = _sphere_form(surface)
    j, l = (axis + 1) % 3, (axis + 2) % 3
    found = set()
    for w in range(-B, B + 1):
        q1 = s * value * w - gamma[l]
        q0 = w * w - gamma[j] * w + value * value - gamma[axis] * value - d
        disc = q1 * q1 - 4 * q0
        r = math.isqrt(disc) if disc >= 0 else -1
        if r >= 0 and r * r == disc:
            for t in ((r - q1) // 2, (-r - q1) // 2):
                if abs(t) <= B:
                    p = [value] * 3
                    p[j], p[l] = w, t
                    found.add(Point3(*p))
    return found


def _assert_locus_slices(surface, B):
    form = _sphere_form(surface)
    for axis in range(3):
        for e in (2, -2):
            got = list(_slice(form, axis, e, B))
            assert set(got) == _slice_pass(surface, axis, e, B), (surface, B, axis, e)
            assert len(got) == len(set(got))  # a double root is listed once
            assert all(residual(surface, p) == 0 for p in got)


def test_locus_slice_matches_pass_sphere_grid():
    # each small box puts other squares at its edge, the first or last r
    for ks in SPHERE_GRID:
        for B in (*range(2, 13), 24, 200):
            _assert_locus_slices(make_cubic04(*ks), B)


@pytest.mark.parametrize(
    "surface",
    [make_cubic04(-4, -4, -1, -1), make_cubic04(-4, -4, -3, 2)]
    + [Markoff11(k) for k in (-3, 0, 2, 3, 6, 7, 11, 38)],
    ids=repr,
)
def test_locus_slice_matches_pass_alpha_zero(surface):
    # b = c on the sphere, and every torus: the discriminant on x = +-2 is
    # constant, so the slice is lines (a square) or empty
    for B in (2, 24, 200):
        _assert_locus_slices(surface, B)


@BIG_PARAMS
def test_locus_slice_matches_pass_big_params(surface, B):
    # discriminants far beyond 2^52, where _slice lists the squares by r
    # on some slices and passes over w, being cheaper there, on others
    for box in (B, 200):
        _assert_locus_slices(surface, box)


def _square_values_pass(c2, c1, c0, bound):
    """Every w in [-bound, bound], the oracle for _square_values' pass."""
    found = []
    for w in range(-bound, bound + 1):
        disc = (c2 * w + c1) * w + c0
        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
            found.append((w, math.isqrt(disc)))
    return found


def _negative_c2_forms():
    """(c2, c1, c0) with c2 in {-3, -4}: the slices at 0 and +-1 of the
    pinned and big-parameter surfaces, small forms with their real roots at,
    next to and beyond the box edges, and big-int ones whose roots lie in
    or around the box, or are not real."""
    surfaces = [make_cubic04(*ks) for ks in SPHERE_GRID[::7]] + [Markoff11(k) for k in (-2, 3, 11)]
    surfaces += [s for s, _ in BIG_CASES]
    forms = {_disc(_sphere_form(s), axis, v)[2:] for s in surfaces
             for axis in range(3) for v in (-1, 0, 1)}
    for c2 in (-3, -4):
        forms |= {(c2, c1, c0) for c1 in range(-13, 14) for c0 in range(-30, 160, 7)}
        for r1, r2 in ((-5, 7), (0, 0), (-31, 31), (3, 2**70), (-2**90, -4), (2**64, 2**65)):
            for nudge in (-1, 0, 1, 2**40):  # roots off the integers, or not real
                forms.add((c2, -c2 * (r1 + r2), c2 * r1 * r2 + nudge))
        forms |= {(c2, 2**70 + 1, -2**139), (c2, 0, 2**140), (c2, -2**80, 7)}
    return sorted(forms)


def test_square_values_negative_c2_matches_pass():
    # for c2 < 0 the pass runs between the real roots only, where alone the
    # discriminant can be nonnegative; it must list what the full pass lists
    forms = _negative_c2_forms()
    assert {c2 for c2, _, _ in forms} == {-3, -4} and len(forms) > 1000
    for c2, c1, c0 in forms:
        for bound in (0, 1, 2, 7, 30, 200):
            assert list(_square_values(c2, c1, c0, bound)) == _square_values_pass(
                c2, c1, c0, bound), (c2, c1, c0, bound)
    # real roots within +-20, or none, in a box of 10^18: only the cut pass can finish
    for c2, c1, c0 in ((-4, 0, 400), (-3, 7, 290), (-4, 3, -1), (-3, 2**70, -2**139)):
        assert list(_square_values(c2, c1, c0, 10**18)) == _square_values_pass(c2, c1, c0, 20)


def _unlowered(surface, points):
    """Points with no coordinate +-2 at which no Vieta move lowers the height."""
    for p in points:
        h = linf_height(p)
        if 2 not in (abs(v) for v in p) and all(
            linf_height(apply_move(surface, Move("V", axis), p)) >= h for axis in range(3)
        ):
            yield p


def _assert_in_root_region(surface, B, points):
    heights = _root_heights(_sphere_form(surface), B)
    for p in _unlowered(surface, points):
        u = min(abs(v) for v in p)
        assert u < len(heights) and linf_height(p) <= heights[u], (surface, p, heights)


def test_root_region_holds_torus_minima():
    # the torus is symmetric under permutations and even sign changes, and
    # so are the root bounds, so scanning 0 <= x <= y <= |z| covers it
    B = 200
    for k in range(-50, 51):
        s = Markoff11(k)
        points = []
        for x in range(B + 1):
            for y in range(x, B + 1):
                q0 = x * x + y * y - 2 - k
                disc = x * x * y * y - 4 * q0
                r = math.isqrt(disc) if disc >= 0 else -1
                if r >= 0 and r * r == disc:
                    points += [
                        Point3(x, y, (x * y + sign) // 2)
                        for sign in (r, -r)
                        if y <= abs(x * y + sign) // 2 <= B
                    ]
        _assert_in_root_region(s, B, points)


def test_root_region_holds_sphere_minima():
    for ks in SPHERE_GRID:
        s = make_cubic04(*ks)
        _assert_in_root_region(s, 24, _scan_points(s, 24))


@pytest.mark.parametrize(
    "surface",
    [Markoff11(68), Markoff11(110), make_cubic04(-4, -4, -3, 3), make_cubic04(-5, -5, -4, 4)],
    ids=repr,
)
def test_root_region_binding_cases(surface):
    # minima the grids above never reach: opposite-sign roots on the largest
    # axis with a smallest coordinate of 3, and ties with a smallest
    # coordinate beyond the cubic range [3, M3]
    _assert_in_root_region(surface, 40, _scan_points(surface, 40))


@pytest.mark.parametrize("k", [2, 3, 6, 11, 18, 27])
def test_torus_locus_matches_parabolic_lines(k):
    # the box points with a coordinate +-2 are the in-box points of the
    # integral lines with x = +-2 and of their coordinate permutations
    lines = parabolic_lines_11(k).lines
    for B in (0, 1, 2, 3, 50, 1000):
        want = set()
        for line in lines:
            for t in range(-B, B + 1):  # t is the y coordinate
                p = line.point_at(t)
                if linf_height(p) <= B:
                    want.update(Point3(*q) for q in itertools.permutations(p))
        got = [p for p in enumerate_points(Markoff11(k), B) if 2 in p or -2 in p]
        assert set(got) == want, (k, B)


def _assert_counted_locus(surface, B):
    # the sweep against the listing: the locus count, then the points off
    # the locus, each once
    points = enumerate_points(surface, B)
    off = [p for p in points if 2 not in p and -2 not in p]
    count, seeded, components, quotient = _sweep(surface, B)
    swept = _images(quotient, itertools.chain(seeded, *components))
    assert (count, sorted(swept)) == (len(points) - len(off), off), B


@pytest.mark.parametrize("B", [0, 1, 2, 3, 1000, 2000])
def test_counted_locus_matches_listing_torus_grid(B):
    for k in range(-50, 51):
        _assert_counted_locus(Markoff11(k), B)


def test_counted_locus_matches_listing_pinned_sphere():
    # every sphere tuple of the benchmark's pinned answers, at its box
    scan = json.loads(PINNED_PATH.read_text())["scan"]
    for params in scan["sphere"]:
        _assert_counted_locus(make_cubic04(*map(int, params.split(","))), scan["sphere_box"])


@pytest.mark.parametrize("s", [2**70, 2**70 + 3])
def test_counted_locus_matches_listing_big_square_k(s):
    # k - 2 = s^2 beyond int64: the lines z = +-y +- s lie outside these boxes
    for B in (0, 2, 3, 100):
        _assert_counted_locus(Markoff11(s * s + 2), B)


@BIG_PARAMS
def test_counted_locus_matches_listing_big_params(surface, B):
    _assert_counted_locus(surface, B)


def test_counted_locus_holds_its_boundary_only(monkeypatch):
    # at k = 3 the box holds 767,976 locus points and 7,152 others, 298
    # G-orbits; the quotient holds those keys and the 179 keys of the
    # (x, +2) points whose move on x stays in the box, and nothing more
    held = []

    def spy(*args, **kwargs):
        result = _search(*args, **kwargs)
        held.append(len(kwargs["quotient"].keys))
        return result

    monkeypatch.setattr(orbits, "_search", spy)
    count, seeded, components, quotient = _sweep(Markoff11(3), 32000)
    assert (count, sum(map(_orbit_size, seeded)), components) == (767976, 7152, [])
    assert (len(seeded), max(held)) == (298, 477)


def _raw_sweep(surface, B):
    """The raw sweep, the oracle for _sweep: every box point off the +-2
    locus is a raw point, seeded from all six +-2 slices, with root passes
    on every (axis, +-u) slice."""
    form = _sphere_form(surface)
    if abs(form[2]) > 3 * B * B + B**3 + sum(map(abs, form[1])) * B:
        return 0, {}, []
    steps = _compile(surface, VIETA_MOVES)
    count, slices = _locus(form, B, set(itertools.product(range(3), (2, -2))))
    points, seeds = {}, []  # points: the boundary, then every point reached
    for (axis, _), near in slices.items():
        g, move = steps[axis]
        for p in near:
            q = move(surface, p)
            if abs(q[axis]) <= B:
                points[p] = None
                seeds.append((q, (p, g)))
    boundary = len(points)
    for q, edge in seeds:
        if 2 not in q and -2 not in q and q not in points:
            _search(surface, steps, q, B, math.inf, parents=points)
            points[q] = edge
    runs = [len(points)]
    roots = (p for u, r in enumerate(_root_heights(form, B)) if u != 2 and r >= 0
             for axis in range(3) for v in {u, -u} for p in _slice(form, axis, v, r))
    for p in roots:
        if 2 not in p and -2 not in p and p not in points:
            _search(surface, steps, p, B, math.inf, parents=points)
            runs.append(len(points))
    keys = list(points)
    seeded = dict(itertools.islice(points.items(), boundary, runs[0]))
    return count, seeded, [keys[a:b] for a, b in zip(runs, runs[1:])]


def _assert_sweep_matches_raw(surface, H, boxes):
    # the sweep at height H against the raw sweep, and both cut to each box
    # B <= H as a scan row above its box cuts them: the locus count, the
    # seeded points and the components merged by G (on the sphere, G is
    # trivial), each raw point charged the points it stands for
    count, seeded, components, quotient = _sweep(surface, H)
    raw_count, raw_seeded, raw_components = _raw_sweep(surface, H)
    assert count == raw_count, (surface, H)
    _forest_edges(surface, seeded)
    torus = quotient is not None
    assert torus == isinstance(surface, Markoff11)
    if not torus:
        assert seeded == raw_seeded
    charge = _orbit_size if torus else (lambda p: 1)
    canon = _canon_11 if torus else tuple
    merged = {}
    for c in raw_components:
        merged.setdefault(min(map(canon, c)), set()).update(c)
    assert len(components) == len(merged), (surface, H)
    for B in boxes:
        def cut(points):
            return [p for p in points if linf_height(p) <= B]

        assert sum(map(charge, cut(seeded))) == len(cut(raw_seeded)), (surface, H, B)
        assert set(_images(quotient, cut(seeded))) == set(cut(raw_seeded))
        for c in components:
            points = set(_images(quotient, cut(c)))
            assert sum(map(charge, cut(c))) == len(points), (surface, H, B)
            assert points == set(cut(merged[min(map(canon, c))])), (surface, H, B)


@pytest.mark.parametrize("B", [0, 1, 2, 3, 5, 30, 1000])
def test_sweep_quotient_matches_raw_torus_grid(B):
    for k in range(-200, 201):
        _assert_sweep_matches_raw(Markoff11(k), B, [B])


@pytest.mark.parametrize("B, H", [(0, 5), (3, 10), (5, 20), (30, 200), (100, 400), (1000, 1500)])
def test_sweep_quotient_matches_raw_cap_height(B, H):
    # a scan row above its box sweeps at the cap height and cuts to the box
    for k in range(-50, 51):
        _assert_sweep_matches_raw(Markoff11(k), H, [B, H])


@pytest.mark.parametrize("j", [0, 1, 3])
def test_sweep_quotient_matches_raw_big_k(j):
    # k = 2^70 + 2 + j^2, beyond int64; k - 2 is a square for j = 0
    for H in (0, 2, 3, 5, 50, 120):
        _assert_sweep_matches_raw(Markoff11(2**70 + 2 + j * j), H, [0, 3, H])


def test_sweep_matches_raw_sphere_grid():
    # the trivial group: the sweep is the raw one
    for ks in SPHERE_GRID[::3]:
        for B in (2, 5, 24):
            _assert_sweep_matches_raw(make_cubic04(*ks), B, [B])


def test_enumerate_requires_exact():
    with pytest.raises(DomainMismatch):
        enumerate_points(Markoff11(-2.0), 3)


def _assert_huge_box(s, B, small):
    # output-sensitive: far beyond any B^2 scan, inside a generous budget
    started = time.perf_counter()
    points = enumerate_points(s, B)
    elapsed = time.perf_counter() - started
    assert elapsed < 10, f"enumeration took {elapsed:.1f}s"
    assert points == sorted(set(points))
    found = set(points)
    for p in points:
        assert residual(s, p) == 0 and linf_height(p) <= B
        for axis in range(3):
            q = apply_move(s, Move("V", axis), p)
            assert linf_height(q) > B or q in found
    assert [p for p in points if linf_height(p) <= small] == enumerate_points(s, small)


@pytest.mark.parametrize("k, B", [(20, 10**6), (-2, 10**30)])
def test_enumerate_huge_box(k, B):
    _assert_huge_box(Markoff11(k), B, 1000)


def test_enumerate_huge_box_sphere():
    # the +-2 slices are listed from their squares, not by a pass over B
    _assert_huge_box(make_cubic04(0, 1, 2, 3), 10**6, 200)


def test_enumerate_provably_empty_box_is_fast():
    # |d| beyond what the form reaches on the box: no root pass runs
    started = time.perf_counter()
    for s, B in ((Markoff11(2**140 + 2), 300), (Markoff11(2**140 + 2), 1000),
                 (make_cubic04(2**40, 3, 5, 7), 300)):
        assert enumerate_points(s, B) == []
        locus, seeded, components, quotient = _sweep(s, B)
        assert (locus, seeded, components) == (0, {}, [])
        assert quotient is None or not quotient.keys
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("B", [2, 3, 10, 50])
def test_enumerate_empty_box_bound_is_tight(B):
    # x^2+y^2+z^2 - xyz = k + 2 reaches 3B^2 + B^3 at (B, B, -B), so the
    # emptiness bound must keep that k and may drop the next one
    k = 3 * B * B + B**3 - 2
    assert Point3(B, B, -B) in enumerate_points(Markoff11(k), B)
    assert enumerate_points(Markoff11(k + 1), B) == []
    if B <= 10:
        assert enumerate_points(Markoff11(k), B) == _scan_points(Markoff11(k), B)


# --- orbit BFS --------------------------------------------------------------


def test_orbit_bfs_fixed_point():
    run = orbit_bfs(MARKOFF, "gamma_poly", Point3(0, 0, 0), cap_height=1000)
    assert run.points() == [Point3(0, 0, 0)]
    assert not run.caps_hit


def test_orbit_bfs_markoff_tree():
    run = orbit_bfs(MARKOFF, "gamma_poly", Point3(3, 3, 3), cap_height=100)
    pts = set(run.points())
    for expected in [(3, 3, 6), (3, 6, 15), (6, 15, 87)]:
        assert Point3(*expected) in pts
    assert run.caps_hit  # the tree continues above height 100
    for p in run.points():
        assert apply_word(MARKOFF, run.word_to(p), Point3(3, 3, 3)) == p


def test_orbit_bfs_start_above_cap():
    run = orbit_bfs(MARKOFF, "gamma_prime", Point3(3, 6, 15), cap_height=2)
    assert run.points() == [Point3(3, 6, 15)]
    assert run.caps_hit


def test_orbit_bfs_rejects_off_surface():
    with pytest.raises(MarkoffError):
        orbit_bfs(MARKOFF, "gamma_prime", Point3(1, 1, 1), cap_height=10)


# --- equivalence ------------------------------------------------------------


def test_equivalent_reflexive():
    res = equivalent(MARKOFF, "gamma_prime", Point3(3, 3, 3), Point3(3, 3, 3))
    assert res.equivalent and res.word.moves == ()


def test_equivalent_markoff_pair():
    res = equivalent(
        MARKOFF, "gamma_prime", Point3(3, 3, 3), Point3(3, 6, 15), Caps(height=100)
    )
    assert res.equivalent
    assert apply_word(MARKOFF, res.word, Point3(3, 3, 3)) == Point3(3, 6, 15)


def test_equivalent_origin_vs_markoff():
    res = equivalent(
        MARKOFF, "gamma_prime", Point3(0, 0, 0), Point3(3, 3, 3), Caps(height=10**6)
    )
    assert not res.equivalent
    assert res.exhausted  # the origin orbit is a single point


def test_equivalent_respects_count_cap():
    res = equivalent(
        MARKOFF,
        "gamma_prime",
        Point3(3, 3, 3),
        Point3(6, 15, 87),
        Caps(height=10**9, count=10),
    )
    assert not res.equivalent and not res.exhausted


@pytest.mark.parametrize(
    "gens, p, q, visited",
    [
        ("gamma_prime", (-32, -6, -7), (-52, 6, 10), 9),
        ("gamma_poly", (-4, -48, -14), (-52, 6, 10), 3),
    ],
)
def test_equivalent_count_cap_fits_exactly(gens, p, q, visited):
    # both sides together visit `visited` points below height 60: a count
    # cap of that size holds them all, one less cuts the search short
    s = make_cubic04(0, 1, 2, 3)
    p, q = Point3(*p), Point3(*q)
    fits = equivalent(s, gens, p, q, Caps(60, visited))
    assert not fits.equivalent and fits.exhausted
    cut = equivalent(s, gens, p, q, Caps(60, visited - 1))
    assert not cut.equivalent and not cut.exhausted


# --- exceptional search -----------------------------------------------------


def test_is_exceptional_immediate():
    res = is_exceptional(Markoff11(6), Point3(2, 3, 1), Caps(height=100, count=10**4))
    assert res.found and res.word.moves == ()


def test_is_exceptional_one_step():
    # (1, 3, 1) on k = 6 reaches (1, -2, 1) by one Vieta move
    s = Markoff11(6)
    res = is_exceptional(s, Point3(1, 3, 1), Caps(height=100, count=10**4))
    assert res.found
    hit = apply_word(s, res.word, Point3(1, 3, 1))
    assert 2 in (abs(hit.x), abs(hit.y), abs(hit.z))


def test_is_exceptional_hit_at_count_cap():
    # the start fills the count cap; the child that answers the search is
    # still kept
    s = Markoff11(6)
    res = is_exceptional(s, Point3(1, 3, 1), Caps(height=100, count=1))
    assert res.found and str(res.word) == "Vx"
    assert apply_word(s, res.word, Point3(1, 3, 1)) == Point3(2, 3, 1)


@pytest.mark.parametrize("surface, p", [
    (Markoff11(6), Point3(1, 3, 1)),  # torus gamma_prime: the quotient search
    (make_cubic04(0, 0, 0, 0), Point3(-7, -3, -3)),  # sphere: the plain search
], ids=["torus-quotient", "sphere-plain"])
def test_is_exceptional_replays_its_witness(monkeypatch, surface, p):
    # a witness word that does not reach a +-2 coordinate is never returned
    assert is_exceptional(surface, p, Caps(height=100, count=10**4)).found
    monkeypatch.setattr(orbits.OrbitRun, "word_to",
                        lambda run, q: identity_word(run.surface.kind))
    with pytest.raises(MarkoffError, match="exceptional witness failed to replay"):
        is_exceptional(surface, p, Caps(height=100, count=10**4))


def _corrupt_search(on_path):
    # one tree edge of an exceptional search, on its path from the root to
    # its hit or off it, names a move that does not give its point
    def fault(monkeypatch):
        search = orbits._search

        def corrupted(surface, steps, start, *args, **kwargs):
            parents, hit, pruned, truncated = search(surface, steps, start, *args, **kwargs)
            path, q = set(), hit  # enumeration's searches have no hit
            while q is not None:
                path.add(q)
                q = parents[q][0]
            bad = [p for p in parents
                   if path and (p in path) == on_path and parents[p][0] is not None]
            if bad:
                parent, _ = parents[bad[0]]
                parents[bad[0]] = (parent,
                                   next(m for m, f in steps if f(surface, parent) != bad[0]))
            return parents, hit, pruned, truncated

        monkeypatch.setattr(orbits, "_search", corrupted)

    return fault


def _forest_child_first(monkeypatch):
    # a forest point placed before the parent of its edge, which is off the
    # locus: each edge still checks, but its chain need not end on the locus
    label = orbits._label_classes

    def child_first(*args):
        classes, forest, caps_hit = label(*args)
        p, edge = next((p, edge) for p, edge in forest.items() if edge[0] in forest)
        return classes, {p: edge, **forest}, caps_hit

    monkeypatch.setattr(orbits, "_label_classes", child_first)


@pytest.mark.parametrize("fault", [_corrupt_search(False), _corrupt_search(True),
                                   _forest_child_first],
                         ids=["off-path", "on-path", "child-first"])
def test_class_number_checks_each_witness_edge(monkeypatch, fault):
    # a forest that does not certify each witness is never handed out
    surface = Markoff11(3)  # k - 2 = 1: every box point is exceptional
    assert class_number(surface, "gamma_prime", 30).exceptional
    fault(monkeypatch)
    with pytest.raises(MarkoffError, match="exceptional witness failed to replay"):
        class_number(surface, "gamma_prime", 30)


def test_is_exceptional_origin():
    res = is_exceptional(MARKOFF, Point3(0, 0, 0), Caps(height=100, count=10**4))
    assert not res.found and res.exhausted


def test_is_exceptional_markoff_point_no_within_caps():
    res = is_exceptional(MARKOFF, Point3(3, 3, 3), Caps(height=60, count=10**4))
    assert not res.found
    assert res.pruned  # orbit continues above the cap


# --- class numbers ----------------------------------------------------------


def _inbox_component_oracle(surface, gens_name, B, cap=None):
    """Independent union-find over the raw move graph of the points of
    height at most cap (the box by default), no descent.

    Only components with a box point are returned; one counts iff no
    member has a coordinate +-2.
    """
    pts = enumerate_points(surface, B if cap is None else cap)
    index = {p: i for i, p in enumerate(pts)}
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    gens = generators(surface.kind, gens_name)
    for p, i in index.items():
        for g in gens:
            q = apply_move(surface, g, p)
            j = index.get(q)
            if j is not None:
                parent[find(i)] = find(j)
    classes = {}
    for p, i in index.items():
        classes.setdefault(find(i), []).append(p)
    classes = {
        root: members
        for root, members in classes.items()
        if any(max(abs(v) for v in p) <= B for p in members)
    }
    good = sum(
        1
        for members in classes.values()
        if not any(2 in (abs(v) for v in p) for p in members)
    )
    return good, len(classes)


def test_class_number_markoff():
    report = class_number(MARKOFF, "gamma_prime", 100)
    assert report.class_number_star == 2
    reps = [p for p, _ in report.representatives]
    assert Point3(0, 0, 0) in reps
    assert Point3(3, 3, 3) in reps
    assert report.exceptional == ()
    sizes = dict(report.representatives)
    assert sizes[Point3(0, 0, 0)] == 1


def test_class_number_empty_box():
    report = class_number(Markoff11(7), "gamma_prime", 1)
    assert report.class_number_star == 0
    assert report.representatives == ()
    assert report.exceptional == ()


def test_class_number_exceptional_accounting():
    # k = 6 has integral parabolic lines; every box point sits in a component
    # touching a +-2 coordinate, classes plus exceptional partition the box,
    # and each witness is freely reduced: no move is followed by its inverse
    s = Markoff11(6)
    B = 60
    pts = enumerate_points(s, B)
    for gens in GENERATOR_SETS:
        report = class_number(s, gens, B)
        counted = sum(n for _, n in report.representatives) + len(report.exceptional)
        assert counted == len(pts)
        for p, word in report.exceptional:
            hit = apply_word(s, word, p)
            assert any(v in (2, -2) for v in hit)
            assert all(b != inverse_move(a) for a, b in zip(word.moves, word.moves[1:])), p
        oracle_good, _ = _inbox_component_oracle(s, gens, B)
        assert report.class_number_star == oracle_good


@pytest.mark.parametrize("k", [-2, -1, 0, 2, 3, 5, 6])
@pytest.mark.parametrize("gens", ["gamma_prime", "gamma_poly"])
def test_class_number_matches_inbox_oracle(k, gens):
    s = Markoff11(k)
    B = 40
    report = class_number(s, gens, B)
    oracle_good, _ = _inbox_component_oracle(s, gens, B)
    assert report.class_number_star == oracle_good


@pytest.mark.parametrize("gens", ["gamma_prime", "gamma_poly"])
@pytest.mark.parametrize("ks", [(1, 1, 1, 1), (0, 0, 0, 0), (2, 0, -1, 3)])
def test_class_number_04_oracle(ks, gens):
    s = make_cubic04(*ks)
    report = class_number(s, gens, 20)
    oracle_good, _ = _inbox_component_oracle(s, gens, 20)
    assert report.class_number_star == oracle_good


@pytest.mark.parametrize(
    "surface",
    [Markoff11(k) for k in (-2, -1, 0, 2, 3, 5, 6, 11)]
    + [make_cubic04(*ks) for ks in ((1, 1, 1, 1), (0, 0, 0, 0), (2, 0, -1, 3))],
    ids=repr,
)
@pytest.mark.parametrize("gens", ["gamma_prime", "gamma_poly"])
def test_class_number_cap_above_box_matches_oracle(surface, gens):
    # components of the height-80 graph that meet the box: classes may merge
    # through points outside the box
    report = class_number(surface, gens, 20, Caps(height=80))
    oracle_good, _ = _inbox_component_oracle(surface, gens, 20, cap=80)
    assert report.class_number_star == oracle_good
    assert not report.caps_hit
    counted = sum(n for _, n in report.representatives) + len(report.exceptional)
    assert counted == len(enumerate_points(surface, 20))
    for p, word in report.exceptional:
        assert any(v in (2, -2) for v in apply_word(surface, word, p))


@pytest.mark.parametrize(
    "surface, gens, B",
    [
        (Markoff11(-2), "gamma_poly", 25),
        (make_cubic04(1, 1, 1, 1), "gamma_prime", 200),
        (make_cubic04(1, 1, 1, 1), "gamma_poly", 200),
        (make_cubic04(0, 0, 0, 0), "gamma_prime", 200),
        (make_cubic04(0, 0, 0, 0), "gamma_poly", 200),
    ],
    ids=repr,
)
def test_class_number_exhausted_search_no_caps_hit(surface, gens, B):
    # every search ends inside the box, so no cap fired; classes of equal
    # height that are not equivalent are a correct answer, not a capped one
    report = class_number(surface, gens, B)
    assert not report.caps_hit
    oracle_good, _ = _inbox_component_oracle(surface, gens, B)
    assert report.class_number_star == oracle_good


def test_class_number_count_cap_sets_caps_hit():
    report = class_number(MARKOFF, "gamma_prime", 30, Caps(height=30, count=2))
    assert report.caps_hit
    counted = sum(n for _, n in report.representatives) + len(report.exceptional)
    assert counted == len(enumerate_points(MARKOFF, 30))


def test_class_number_count_cap_keeps_hits():
    # k - 2 = 4: every box point is one move from a point already labelled
    # or with a coordinate +-2, so a count cap of 1 cuts no search short
    s = Markoff11(6)
    capped = class_number(s, "gamma_prime", 20, Caps(20, count=1))
    full = class_number(s, "gamma_prime", 20)
    assert (capped.class_number_star, len(capped.exceptional), capped.caps_hit) == (0, 480, False)
    assert capped == full


def test_class_number_small_scale_stability():
    for k in (-2, 0, 5):
        a = class_number(Markoff11(k), "gamma_prime", 50).class_number_star
        b = class_number(Markoff11(k), "gamma_prime", 100).class_number_star
        assert a == b


# --- parabolic lines --------------------------------------------------------


def test_parabolic_lines_k6():
    report = parabolic_lines_11(6)
    assert report.square_root == 2
    assert len(report.lines) == 4
    # (2, 3, 1) sits on the line t -> (2, t, t - 2) at t = 3
    line = report.lines[0]
    assert line.point_at(3) == Point3(2, 3, 1)
    assert residual(Markoff11(6), Point3(2, 3, 1)) == 0
    assert lines_cover_point(report, Point3(2, 3, 1))


def test_parabolic_lines_k2_deduplicated():
    report = parabolic_lines_11(2)
    assert report.square_root == 0
    assert len(report.lines) == 2


def test_parabolic_lines_no_integral():
    assert parabolic_lines_11(1).lines == ()
    assert parabolic_lines_11(1).note != ""
    assert parabolic_lines_11(7).lines == ()  # k - 2 = 5 is not a square


def test_parabolic_lines_validity():
    # residual vanishes identically in t: check five integer values per line
    for k in (2, 3, 6, 11, 18):
        s = Markoff11(k)
        report = parabolic_lines_11(k)
        for line in report.lines:
            for t in (-7, -1, 0, 3, 12):
                assert residual(s, line.point_at(t)) == 0


def test_parabolic_lines_cover_box_points():
    for k in (2, 3, 6, 11):
        s = Markoff11(k)
        report = parabolic_lines_11(k)
        for p in enumerate_points(s, 25):
            if any(v in (2, -2) for v in p):
                assert lines_cover_point(report, p)


def test_no_exceptional_points_for_nonsquare_k():
    for k in (-2, 0, 4, 7, 13):
        assert parabolic_lines_11(k).lines == ()
        for p in enumerate_points(Markoff11(k), 25):
            assert not any(v in (2, -2) for v in p)


def test_representatives_pairwise_inequivalent():
    # class partition soundness: representatives never merge at the run caps
    for k in (-2, 0, 5):
        s = Markoff11(k)
        report = class_number(s, "gamma_prime", 60)
        reps = [p for p, _ in report.representatives]
        caps = Caps(height=60)
        for i, p in enumerate(reps):
            for q in reps[i + 1 :]:
                assert not equivalent(s, "gamma_prime", p, q, caps).equivalent


def test_class_number_04_exceptional_accounting():
    # boundary parameters 2,2,2,2 put many +-2 coordinates in the box
    s = make_cubic04(2, 2, 2, 2)
    B = 25
    report = class_number(s, "gamma_prime", B)
    pts = enumerate_points(s, B)
    counted = sum(n for _, n in report.representatives) + len(report.exceptional)
    assert counted == len(pts)
    assert report.exceptional  # the locus is inhabited here
    for p, word in report.exceptional:
        hit = apply_word(s, word, p)
        assert any(v in (2, -2) for v in hit)
    oracle_good, _ = _inbox_component_oracle(s, "gamma_prime", B)
    assert report.class_number_star == oracle_good


@st.composite
def _small_surfaces(draw):
    if draw(st.booleans()):
        return Markoff11(draw(st.integers(-10, 40)))
    return make_cubic04(*(draw(st.integers(-4, 4)) for _ in range(4)))


@settings(deadline=None, max_examples=80)
@given(_small_surfaces(), st.integers(0, 12), st.sampled_from(["gamma_prime", "gamma_poly"]))
def test_property_exceptional_witnesses_replay(s, B, gens):
    report = class_number(s, gens, B)
    pts = enumerate_points(s, B)
    listed = [p for p, _ in report.exceptional]
    assert listed == sorted(set(listed)) and set(listed) <= set(pts)
    assert len(listed) + sum(n for _, n in report.representatives) == len(pts)
    for p, word in report.exceptional:
        hit = apply_word(s, word, p)
        assert residual(s, hit) == 0 and (2 in hit or -2 in hit)


def test_class_number_golden_box100():
    # frozen from an oracle-verified run: (k, h*_gamma_poly, h*_gamma_prime,
    # exceptional count under gamma_prime) at box 100
    golden = [
        (-2, 3, 2, 0),
        (-1, 1, 1, 0),
        (0, 1, 1, 0),
        (1, 0, 0, 0),
        (2, 0, 0, 1370),
        (3, 0, 0, 2664),
        (4, 0, 0, 0),
        (5, 0, 0, 0),
        (6, 0, 0, 2640),
    ]
    for k, h_poly, h_prime, n_exc in golden:
        s = Markoff11(k)
        prime = class_number(s, "gamma_prime", 100)
        poly = class_number(s, "gamma_poly", 100)
        assert (poly.class_number_star, prime.class_number_star) == (h_poly, h_prime)
        assert len(prime.exceptional) == n_exc


# --- the searches against their Point3-building form --------------------------


def _oracle_steps(surface, gens):
    """(move, function) pairs whose functions return Point3."""
    return tuple((g, lambda surface, p, g=g: apply_move(surface, g, p)) for g in gens)


def _oracle_search(surface, steps, start, cap_height, cap_count, stop=None, parents=None):
    """orbits._search as it was when every child was built as a Point3 and
    tested against the height cap with max(abs(...))."""
    if parents is None:
        parents = {}
    parents[start] = (None, None)
    queue = deque((start,))
    pruned = False
    while queue:
        node = queue.popleft()
        for g, f in steps:
            child = f(surface, node)
            if child in parents:
                continue
            x, y, z = child
            if max(abs(x), abs(y), abs(z)) > cap_height:
                pruned = True
                continue
            if stop is not None and stop(child):
                parents[child] = (node, g)
                return parents, child, pruned, False
            if len(parents) >= cap_count:
                return parents, None, pruned, True
            parents[child] = (node, g)
            queue.append(child)
    return parents, None, pruned, False


def _oracle_word(parents, kind, target):
    moves = []
    while parents[target][0] is not None:
        target, move = parents[target]
        moves.append(move)
    return MoveWord(kind, tuple(reversed(moves)))


def _oracle_equivalent(surface, gens, p, q, caps):
    """orbits.equivalent's bidirectional loop on Point3 children, with a new
    point counted before it goes in and a meet not counted."""
    steps = _oracle_steps(surface, gens)
    kind = surface.kind
    if p == q:
        return EquivalenceResult(True, identity_word(kind), True, False)
    sides = ({"parents": {p: (None, None)}, "frontier": [p]},
             {"parents": {q: (None, None)}, "frontier": [q]})
    pruned = False
    while sides[0]["frontier"] and sides[1]["frontier"]:
        side = sides[0] if len(sides[0]["frontier"]) <= len(sides[1]["frontier"]) else sides[1]
        other = sides[1] if side is sides[0] else sides[0]
        seen, other_seen = side["parents"], other["parents"]
        new_frontier = []
        for node in side["frontier"]:
            for g, f in steps:
                child = f(surface, node)
                if child in seen:
                    continue
                x, y, z = child
                if max(abs(x), abs(y), abs(z)) > caps.height:
                    pruned = True
                    continue
                if child not in other_seen and len(seen) + len(other_seen) >= caps.count:
                    return EquivalenceResult(False, None, False, pruned)
                seen[child] = (node, g)
                if child in other_seen:
                    w_p = _oracle_word(sides[0]["parents"], kind, child)
                    w_q = _oracle_word(sides[1]["parents"], kind, child)
                    return EquivalenceResult(
                        True, concat_words(w_p, w_q.inverse()), False, pruned)
                new_frontier.append(child)
        side["frontier"] = new_frontier
    return EquivalenceResult(False, None, True, pruned)


def _has_two(p):
    return 2 in p or -2 in p


def _assert_search_matches(surface, gens, start, cap_height, cap_count, stop=None, parents=None):
    got = _search(surface, _compile(surface, gens), start, cap_height, cap_count, stop,
                  None if parents is None else dict(parents))
    want = _oracle_search(surface, _oracle_steps(surface, gens), start, cap_height,
                          cap_count, stop, None if parents is None else dict(parents))
    assert list(got[0].items()) == list(want[0].items())
    assert got[1:] == want[1:]
    assert all(type(p) is Point3 for p in got[0])
    assert got[1] is None or type(got[1]) is Point3
    return got


def _differential_cases():
    """(surface, generator set, start, height cap): both surfaces, both named
    generator sets and powered twists, over small and big-int parameters."""
    torus_powers = (Move("T11", "a", 2), Move("T11", "a", -2), Move("T11", "b", 3),
                    Move("T11", "ab", -1))
    sphere_powers = (Move("T04", 1, 2), Move("T04", 2, -3), Move("T04", 3, 1))
    surfaces = [(Markoff11(-2), 30), (Markoff11(6), 12), (Markoff11(3), 10),
                (make_cubic04(0, 1, 2, 3), 25), (make_cubic04(1, 1, 1, 1), 8),
                (Markoff11(2**30), 4), (Markoff11(2**40), 2), (make_cubic04(2**13, 3, -5, 7), 6),
                (make_cubic04(2**26, 1, 1, 1), 2), (make_cubic04(2, 2, 2, 2), 10)]
    for surface, B in surfaces:
        powers = torus_powers if isinstance(surface, Markoff11) else sphere_powers
        points = enumerate_points(surface, B)
        starts = points[:: max(1, len(points) // 4)]
        for gens in ("gamma_prime", "gamma_poly", powers):
            gens = generators(surface.kind, gens) if isinstance(gens, str) else gens
            for start in starts:
                yield surface, gens, start, B


def test_search_matches_point3_oracle():
    for surface, gens, start, B in _differential_cases():
        full = _assert_search_matches(surface, gens, start, B, 10**6)
        n = len(full[0])
        for count in (n, n - 1, 1):  # the count cap fits exactly, or is hit
            _assert_search_matches(surface, gens, start, B, count)
        _assert_search_matches(surface, gens, start, B, 10**6, _has_two)
        last = list(full[0])[-1]
        _assert_search_matches(surface, gens, start, B, 10**6, lambda q: q == last)
        # the stop point arrives with the count cap full
        _assert_search_matches(surface, gens, start, B, n - 1, lambda q: q == last)
        # a start above the height cap, and a map passed in
        _assert_search_matches(surface, gens, start, linf_height(start) - 1, 10**6)
        _assert_search_matches(surface, gens, start, B, 10**6, parents=dict.fromkeys(
            list(full[0])[n // 2:], (None, None)))


def _beyond_int64(surface, p):
    """p moved up the Vieta tree until its height passes 2^80."""
    while linf_height(p) <= 2**80:
        p = max((apply_move(surface, Move("V", axis), p) for axis in range(3)), key=linf_height)
    return p


# a torus whose parameter is beyond int64 too: k = x^2 + y^2 + z^2 - xyz - 2
_X, _Y, _Z = 3, 5, 2**35
BIG_STARTS = ((Markoff11(-2), Point3(3, 3, 3)), (make_cubic04(0, 1, 2, 3), Point3(-4, -48, -14)),
              (Markoff11(_X * _X + _Y * _Y + _Z * _Z - _X * _Y * _Z - 2), Point3(_X, _Y, _Z)))


def test_search_matches_point3_oracle_beyond_int64():
    # starts and height caps far beyond int64, until the count cap stops
    # the search
    for surface, p in BIG_STARTS:
        start = _beyond_int64(surface, p)
        for gens in GENERATOR_SETS:
            gens = generators(surface.kind, gens)
            got = _assert_search_matches(surface, gens, start, 10**60, 600)
            assert got[3] and sum(linf_height(q) > 2**64 for q in got[0]) > 300
            _assert_search_matches(surface, gens, start, 10**60, 600,
                                   lambda q: linf_height(q) < 2**40)
            _assert_search_matches(surface, gens, start, 2**80, 600)


def _torus_prime(surface, gens):
    """True when equivalent searches the quotient by the 24 symmetries."""
    return isinstance(surface, Markoff11) and set(gens) == set(generators("11", "gamma_prime"))


def _assert_equivalent_true(surface, gens, p, q, caps, got):
    """The quotient mode's equivalent against the plain oracle: a True
    replays, a False with exhausted agrees with the oracle without a count
    cap, and so does every answer whose count cap does not bind."""
    if got.equivalent:
        assert apply_word(surface, got.word, p) == q
    if got.equivalent or got.exhausted or caps.count >= 10**6:
        free = _oracle_equivalent(surface, gens, p, q, Caps(caps.height, 10**9))
        assert got.equivalent == free.equivalent
        assert got.equivalent or got.exhausted == free.exhausted


def test_equivalent_matches_point3_oracle():
    # exact equality with the plain search, but on torus gamma_prime, whose
    # quotient search meets elsewhere and counts points by G-orbit: there
    # every answer must be true
    for surface, gens, start, B in _differential_cases():
        orbit = list(_search(surface, _compile(surface, gens), start, B, 10**6)[0])
        others = enumerate_points(surface, B)
        targets = {orbit[-1], orbit[len(orbit) // 2], others[0], others[-1]}
        for q in sorted(targets):
            for caps in [Caps(B, 10**6), Caps(linf_height(start) - 1, 10**6)] + [
                    Caps(B, count) for count in range(1, 12)]:
                got = equivalent(surface, gens, start, q, caps)
                if _torus_prime(surface, gens):
                    _assert_equivalent_true(surface, gens, start, q, caps, got)
                else:
                    assert got == _oracle_equivalent(surface, gens, start, q, caps)
    for surface, p in BIG_STARTS:
        p = _beyond_int64(surface, p)
        for gens in GENERATOR_SETS:
            gens = generators(surface.kind, gens)
            orbit = list(_search(surface, _compile(surface, gens), p, 10**60, 200)[0])
            for q in (orbit[-1], orbit[-7], _beyond_int64(surface, orbit[-1])):
                for count in (50, 200, 400):
                    caps = Caps(10**60, count)
                    got = equivalent(surface, gens, p, q, caps)
                    if _torus_prime(surface, gens):
                        _assert_equivalent_true(surface, gens, p, q, caps, got)
                    else:
                        assert got == _oracle_equivalent(surface, gens, p, q, caps)


# --- torus gamma_prime: the quotient by the 24 symmetries --------------------


def _torus_prime_cases():
    """(surface, start, height cap): the torus starts of _differential_cases,
    each also above its height cap, and BIG_STARTS' tori from beyond int64
    with height caps that hold whole orbits of 5,000 to 30,000 points: the
    Markoff surface from a height of 2^115, and k near 2^70 from 2^110 (also
    above the cap) and from (3, 5, 2^35) at 10^30."""
    prime = generators("11", "gamma_prime")
    for surface, gens, start, B in _differential_cases():
        if isinstance(surface, Markoff11) and gens == prime:
            yield surface, start, B
            yield surface, start, linf_height(start) - 1
    markoff, big_k = (surface for surface, _ in BIG_STARTS if isinstance(surface, Markoff11))
    start = _beyond_int64(markoff, Point3(3, 3, 3))
    yield markoff, start, linf_height(start)
    start = _beyond_int64(big_k, Point3(_X, _Y, _Z))
    yield big_k, start, linf_height(start)
    yield big_k, start, linf_height(start) - 1
    yield big_k, Point3(_X, _Y, _Z), 10**30


def _assert_quotient_search(surface, start, cap_height, full, cap_count):
    """orbit_bfs and is_exceptional on torus gamma_prime against the plain
    oracle search full: the same answers when the count cap does not bind,
    true ones when it does, and every word replays and is at most two
    moves longer than the walk to its key's raw point."""
    free = cap_count >= len(full[0])
    run = orbit_bfs(surface, "gamma_prime", start, cap_height, cap_count)
    points = run.points()
    assert len(points) == len(set(points)) == len(run)
    assert all(type(p) is Point3 for p in points)
    assert run.word_to(start).moves == ()
    for p in points[:: max(1, len(points) // 40)] + points[-3:]:
        assert apply_word(surface, run.word_to(p), start) == p
    words = run.words()
    assert list(words.items()) == [(p, run.word_to(p)) for p in points]
    walked = {raw: len(orbits._walk(run.parents, raw)) for raw in run.parents}
    quotient = run.quotient
    for p, word in words.items():
        raw = p if quotient is None else quotient.keys[quotient.canon(p)]
        assert len(word.moves) <= walked[raw] + 2
    if free:
        assert set(points) == set(full[0]) and run.caps_hit == full[2]
    else:  # a key goes in with its whole orbit while fewer points are held
        assert set(points) <= set(full[0]) and len(points) < cap_count + 24
        assert run.caps_hit or set(points) == set(full[0])

    res = is_exceptional(surface, start, Caps(cap_height, cap_count))
    if res.found:
        assert _has_two(apply_word(surface, res.word, start))
    if res.found or res.exhausted or free:
        assert res.found == (_has_two(start) or any(map(_has_two, full[0])))
    if not res.found and free:
        assert res.exhausted and res.pruned == full[2]


def test_quotient_search_matches_plain_search():
    steps = _oracle_steps(MARKOFF, generators("11", "gamma_prime"))
    for surface, start, cap_height in _torus_prime_cases():
        full = _oracle_search(surface, steps, start, cap_height, 10**9)
        n = len(full[0])
        # from no binding to the start alone; fewer counts on the big orbits
        counts = (10**9, n, n - 1, n // 2, 13, 1) if n < 5000 else (10**9, n - 1, 13)
        for count in counts:
            _assert_quotient_search(surface, start, cap_height, full, count)


def test_orbit_size_closed_form():
    # the closed form against the 24 images of at most one permutation then
    # at most one even sign change, on small points and on big-int ties and
    # zeros
    perms = [()] + [(Move("P", s),) for s in itertools.permutations(range(3)) if s != (0, 1, 2)]
    signs = [()] + [(Move("S", (i, j)),) for i, j in ((0, 1), (1, 2), (0, 2))]
    big = 2**70
    points = itertools.chain(itertools.product(range(-4, 5), repeat=3),
                             itertools.product((0, big, -big, big + 1, -big - 1), repeat=3))
    for p in map(Point3._make, points):
        images = {apply_word(MARKOFF, MoveWord("11", a + b), p) for a in perms for b in signs}
        assert _orbit_size(p) == len(images), p


def test_orbit_run_words_walk_the_parents():
    # one tree type in every mode: parents maps each point the search put
    # in to (parent, move), every parent is a Point3, every word replays, a
    # word does not depend on the words asked before it, and each key's raw
    # point is in the tree with a word of the mode's moves alone: Vieta
    # moves in the G mode, twists in the S3 mode, whose words hold twists
    # only.  word_to raises KeyError for a point the run does not hold, in
    # the plain mode too, and on the sphere words() agrees with word_to
    surface, start = Markoff11(3), Point3(-2, -1, 0)
    far = next(p for p in enumerate_points(surface, 200) if linf_height(p) > 100)
    sphere = make_cubic04(0, 1, 2, 3)
    run = orbit_bfs(sphere, "gamma_prime", Point3(4, 0, 2), 300)
    assert run.quotient is None and len(run) == 114
    assert list(run.words().items()) == [(p, run.word_to(p)) for p in run.points()]
    # only the three rotations keep this component: it holds the key of
    # (-30, 2, -27), not the point
    rotations = orbit_bfs(Markoff11(11), "gamma_poly", Point3(-30, -27, 2), 30)
    assert len(rotations.quotient.group) == 3
    for run, p in ((run, Point3(0, 0, 0)), (rotations, Point3(-30, 2, -27)),
                   *((orbit_bfs(surface, gens, start, 100), far) for gens in GENERATOR_SETS)):
        with pytest.raises(KeyError):
            run.word_to(p)
    for gens, full, kind in (("gamma_prime", _G, "V"), ("gamma_poly", _S3, "T11")):
        run = orbit_bfs(surface, gens, start, 100)
        quotient = run.quotient
        assert quotient.full == full and set(quotient.group) == set(full)
        points = run.points()
        assert len(points) >= 500
        forward = [run.word_to(p) for p in points]
        for p, word in zip(points, forward):
            assert apply_word(surface, word, start) == p
            assert gens == "gamma_prime" or all(m.kind == kind for m in word.moves)
        fresh = orbit_bfs(surface, gens, start, 100)
        assert [fresh.word_to(p) for p in reversed(points)] == forward[::-1]
        parents = list(run.parents.values())
        assert [parent for parent, _ in parents].count(None) == 1
        assert all(type(parent) is Point3 for parent, _ in parents[1:])
        assert list(quotient.keys.values()) == list(run.parents)  # one raw point per key
        for raw, (parent, g) in run.parents.items():
            assert parent is None or apply_move(surface, g, parent) == raw
            assert quotient.keys[quotient.canon(raw)] == raw
            assert all(m.kind == kind for m in run.word_to(raw).moves)


# --- torus gamma_poly: the quotient by the six permutations -------------------


def test_symmetry_tables():
    # composing symmetries is acting twice, each h of G conjugates each
    # Vieta move V to the Vieta move _CONJ[h][V], each h of S3 also each
    # twist t to the twist _CONJ[h][t], and each h's own word acts as h, on
    # small and big-int points
    twists = generators("11", "gamma_poly")
    big = 2**70
    points = [*itertools.product((-3, 0, 2, 5), repeat=3), (big, -3, big + 7), (7, big, -big)]
    for a, b in itertools.product(_G, repeat=2):
        assert all(_act(_compose(a, b), p) == _act(a, _act(b, p)) for p in points[::7])
    assert list(_CONJ) == list(_G)
    for h in _G:
        row = _CONJ[h]
        moves = VIETA_MOVES + (twists if h in _S3 else ())
        assert list(row) == list(moves)  # the twist rows are the S3 ones
        assert sorted(map(row.get, VIETA_MOVES)) == sorted(VIETA_MOVES)
        if h in _S3:
            assert sorted(map(row.get, twists)) == sorted(twists)
        for m, p in itertools.product(moves, points):
            moved = apply_move(MARKOFF, m, p)
            assert apply_move(MARKOFF, row[m], _act(h, p)) == _act(h, moved)
        assert len(_own_word(h)) <= 2
        for p in points:
            assert apply_word(MARKOFF, MoveWord("11", _own_word(h)), p) == _act(h, p)


def _torus_poly_cases():
    """(surface, start, height cap): the gamma_poly torus starts of
    _differential_cases, each also above its height cap, starts of torus k
    in [-2, 29] at box 30, many of whose components are kept by the three
    rotations only, and BIG_STARTS' tori from beyond int64 with
    height caps that hold whole orbits of 500 to 7,000 points: the Markoff
    surface from a height of 2^115, and k near 2^70 from 2^110 (also above
    the cap) and from (3, 5, 2^35) at 10^30."""
    poly = generators("11", "gamma_poly")
    for surface, gens, start, B in _differential_cases():
        if isinstance(surface, Markoff11) and gens == poly:
            yield surface, start, B
            yield surface, start, linf_height(start) - 1
    for k in range(-2, 30):
        surface = Markoff11(k)
        for start in enumerate_points(surface, 30)[::23]:
            yield surface, start, 30
    markoff, big_k = (surface for surface, _ in BIG_STARTS if isinstance(surface, Markoff11))
    start = _beyond_int64(markoff, Point3(3, 3, 3))
    yield markoff, start, linf_height(start)
    start = _beyond_int64(big_k, Point3(_X, _Y, _Z))
    yield big_k, start, linf_height(start)
    yield big_k, start, linf_height(start) - 1
    yield big_k, Point3(_X, _Y, _Z), 10**30


def _assert_poly_quotient_search(surface, start, cap_height, full, cap_count):
    """orbit_bfs on torus gamma_poly against the plain oracle search full:
    a subset of its component of fewer than cap_count + 6 points, all of
    it with caps_hit equal to full's pruned flag unless a key was refused,
    and caps_hit whenever one was; every sampled word replays and holds
    twists only."""
    run = orbit_bfs(surface, "gamma_poly", start, cap_height, cap_count)
    points = run.points()
    assert len(points) == len(set(points)) == len(run) < cap_count + 6
    assert all(type(p) is Point3 for p in points)
    assert set(points) <= set(full[0])
    assert run.caps_hit == (full[2] or set(points) != set(full[0]))
    assert run.word_to(start).moves == ()
    for p in points[:: max(1, len(points) // 40)] + points[-3:]:
        word = run.word_to(p)
        assert apply_word(surface, word, start) == p
        assert all(m.kind == "T11" for m in word.moves)
    assert list(run.words().items()) == [(p, run.word_to(p)) for p in points]
    return run


def test_poly_quotient_search_matches_plain_search():
    steps = _oracle_steps(MARKOFF, generators("11", "gamma_poly"))
    groups = set()
    for surface, start, cap_height in _torus_poly_cases():
        full = _oracle_search(surface, steps, start, cap_height, 10**9)
        n = len(full[0])
        for count in (10**9, n, n - 1, 13, 1):  # free, then binding
            run = _assert_poly_quotient_search(surface, start, cap_height, full, count)
            if count == 10**9:
                assert set(run.points()) == set(full[0]) and run.caps_hit == full[2]
                assert (run.quotient is None) == (linf_height(start) > cap_height)
                groups.add(run.quotient and len(run.quotient.group))
    # plain, a fixed point, components kept by the three rotations only or by all six
    assert groups == {None, 1, 3, 6}


def _all_twists_settled(monkeypatch):
    """Make every quotient of _steps keep all its steps once its group is complete."""
    real = orbits._steps

    def steps(*args):
        steps, quotients = real(*args)
        for quotient in quotients:
            if quotient is not None:
                quotient.settled = steps
        return steps, quotients

    monkeypatch.setattr(orbits, "_steps", steps)


def test_settled_twists_match_all_six_twists(monkeypatch):
    # once its S3 group is complete, a level expands each raw point by the
    # first twist per Vieta axis in the caller's order: Ta+ (Vy), Ta- (Vz)
    # and Tb- (Vx) by default, Tab- (Vy), Tab+ (Vx) and Tb+ (Vz) reversed.
    # All six twists at every level give the same parents, the same group
    # words and the same caps_hit, free and binding, in either order
    twists = generators("11", "gamma_poly")
    kept = {twists: [twists[i] for i in (0, 1, 3)], twists[::-1]: [twists[i] for i in (5, 4, 2)]}
    cases = []
    for surface, start, cap_height in _torus_poly_cases():
        n = len(orbit_bfs(surface, twists, start, cap_height))
        for count, gens in itertools.product((10**9, n, n - 1, 13, 1), kept):
            cases.append((surface, gens, start, cap_height, count))
    settled = [orbit_bfs(*case) for case in cases]
    for run, (_, gens, *_) in zip(settled, cases):
        assert run.quotient is None or [g for g, _ in run.quotient.settled] == kept[gens]
    assert sum(run.quotient is not None and not run.quotient.learning for run in settled) > 100
    _all_twists_settled(monkeypatch)
    for run, case in zip(settled, cases):
        full = orbit_bfs(*case)
        assert list(run.parents.items()) == list(full.parents.items()), case
        assert run.caps_hit == full.caps_hit, case
        if run.quotient is not None:
            assert list(run.quotient.group.items()) == list(full.quotient.group.items()), case


def test_settled_search_makes_each_child_once(monkeypatch):
    # a count of move calls, not a time, so it cannot flake: the torus_dense
    # gamma_poly search (k=3, cap 500) makes fewer than 3.5 children per raw
    # point, where running all six twists at every level makes 6
    calls = []
    real = orbits._compile

    def counted(surface, gens):
        def count(f):
            return lambda s, p: calls.append(None) or f(s, p)
        return tuple((g, count(f)) for g, f in real(surface, gens))

    monkeypatch.setattr(orbits, "_compile", counted)
    surface, start = Markoff11(3), Point3(-2, -1, 0)
    run = orbit_bfs(surface, "gamma_poly", start, 500)
    assert len(run.quotient.group) == 6 and len(run.parents) == 2146
    assert len(calls) < 3.5 * len(run.parents)
    calls.clear()
    _all_twists_settled(monkeypatch)
    assert len(orbit_bfs(surface, "gamma_poly", start, 500).parents) == 2146
    assert len(calls) >= 6 * 2146


def test_quotient_keys_match_sorted_forms():
    # the compare-swap keys and the charges counted by comparisons against
    # the sorted() and set() forms they replaced, on ties, zeros and
    # +-2^70 points
    big = 2**70
    for p in itertools.product((0, 1, -1, 2, -3, big, -big, big + 1, -big - 1), repeat=3):
        a, b, c = sorted(map(abs, p))
        assert _canon_11(p) == ((a, b, -c) if p[0] * p[1] * p[2] < 0 else (a, b, c)), p
        assert _sorted3(p) == tuple(sorted(p)), p
        assert _arrangements(p) == (0, 1, 3, 6)[len(set(p))], p
        assert _orbit_size(p) == (0, 1, 3, 6)[len({abs(v) for v in p})] * (4, 4, 2, 1)[p.count(0)]


def test_sphere_twist_middle_point_within_its_ends():
    # a sphere twist is two Vieta moves, and its middle point takes each
    # coordinate from one of its ends (T1+: (x, y', z) between (x, y, z) and
    # (x, y', z')), so it is within every height cap that both ends are
    # within; on random and big-int points, on the surface and off it
    rng = random.Random(26)
    starts = [(surface, q) for surface, p in BIG_STARTS if not isinstance(surface, Markoff11)
              for q in (p, _beyond_int64(surface, p))]
    for params in ((0, 1, 2, 3), (-2, -2, -2, -2), (3, -1, 0, 2)):
        surface = make_cubic04(*params)
        starts += [(surface, p) for p in enumerate_points(surface, 20)]
    for scale in (10, 1000, 2**70):
        for _ in range(100):
            surface = make_cubic04(*(rng.randint(-scale, scale) for _ in range(4)))
            starts.append((surface, Point3(*(rng.randint(-scale, scale) for _ in range(3)))))
    for surface, p in starts:
        for index, word in _SPHERE_TWIST_WORDS.items():
            for direction, (first, second) in ((1, word.moves), (-1, word.moves[::-1])):
                middle = apply_move(surface, first, p)
                end = apply_move(surface, second, middle)
                assert end == dehn_twist_04(surface, index, direction, p)
                assert all(m in (a, b) for m, a, b in zip(middle, p, end))
                assert linf_height(middle) <= max(linf_height(p), linf_height(end))


def _off_locus(surface, B):
    # the locus count, and the box points off the locus, seeded ones first,
    # each raw point of the sweep expanded to the points it stands for
    locus, seeded, components, quotient = _sweep(surface, B)
    seeded = _images(quotient, seeded)
    return locus, seeded, [*seeded, *_images(quotient, itertools.chain(*components))]


def _sphere_poly_by_search(surface, B):
    # a served sphere gamma_poly row as the twist searches of _label_classes
    # label it, the reference the in-box walk is checked against; and
    # whether a locus-seeded cluster holds a class
    locus, seeded, off = _off_locus(surface, B)
    classes, forest, caps_hit = orbits._label_classes(surface, "gamma_poly", B, Caps(B, 10**6), off)
    assert not caps_hit
    positive = any(m in seeded for members in classes for m in members)
    return (locus + len(forest), orbits._representatives(classes, False)), positive


# locus-seeded clusters that give a class: two one-point classes, one;
# attachment points of both Vieta parities; a fixed point with a locus leaf
PARITY_PINNED = [((-10, 1, 2, -10), 20, 2, 28), ((1, -3, -4, 4), 5, 3, 2),
                 ((4, 5, -4, -3), 20, 26, 0), ((52, 3, -6, -2), 24, 3, 9)]


def _sphere_parity_cases():
    pinned = json.loads(PINNED_PATH.read_text())["scan"]["sphere"]
    cases = [(tuple(map(int, key.split(","))), B) for B in (2, 3, 7) for key in pinned]
    rng = random.Random(27)
    cases += [(tuple(rng.randint(-30, 30) for _ in range(4)), B)
              for B in (3, 5, 8, 10, 20) for _ in range(500)]
    cases += [(surface.params, B) for surface, B in BIG_CASES if not isinstance(surface, Markoff11)]
    return cases + [(params, B) for params, B, _, _ in PARITY_PINNED]


def test_sphere_parity_labels_match_twist_searches():
    # the in-box walk against the twist searches of _label_classes, on the
    # benchmark's pinned tuples at small boxes, a random grid, the big-int
    # spheres and the pinned clusters; some clusters must give a class
    positive = 0
    for params, B in _sphere_parity_cases():
        surface = make_cubic04(*params)
        want, cluster_class = _sphere_poly_by_search(surface, B)
        assert orbits._scan_labels(surface, B, B)["gamma_poly"] == want, (params, B)
        positive += cluster_class
    assert positive >= 15


@pytest.mark.parametrize("params, B, exceptional, classes", PARITY_PINNED)
def test_sphere_parity_labels_pinned_clusters(params, B, exceptional, classes):
    surface = make_cubic04(*params)
    row = orbits._scan_labels(surface, B, B)["gamma_poly"]
    assert (row[0], len(row[1])) == (exceptional, classes)
    assert row == _sphere_poly_by_search(surface, B)[0]


def test_sphere_parity_labels_count_their_moves(monkeypatch):
    # exact counts, so they cannot flake: a row labels gamma_poly with 6
    # twists per point it walks, every point off the locus at the cap
    # height on the sphere and every root component point on the torus,
    # and with no Vieta move; the sweeps' moves are not counted
    calls, counting = Counter(), [True]
    real_compile, real_sweep = orbits._compile, orbits._sweep

    def counted(surface, gens):
        def count(g, f):
            def call(s, p):
                calls[g.kind] += counting[0]
                return f(s, p)
            return call
        return tuple((g, count(g, f)) for g, f in real_compile(surface, gens))

    def sweep(surface, B):
        counting[0] = False
        result = real_sweep(surface, B)
        counting[0] = True
        return result

    monkeypatch.setattr(orbits, "_compile", counted)
    monkeypatch.setattr(orbits, "_sweep", sweep)
    rows = [(make_cubic04(*params), B) for params, B, _, _ in PARITY_PINNED]
    rows += [(Markoff11(k), B) for k in (-2, 3, 8) for B in (20, 100)]
    for surface, B in rows:
        twist = "T11" if isinstance(surface, Markoff11) else "T04"
        for H in (B, 4 * B):
            _, seeded, off = _off_locus(surface, H)
            points = len(off) - len(seeded) if twist == "T11" else len(off)
            calls.clear()
            orbits._scan_labels(surface, B, H)
            assert calls == Counter({twist: 6 * points}), (surface.params, B, H)


# --- the library hands out Point3 ---------------------------------------------


def test_points_handed_out_are_point3():
    surfaces = (Markoff11(-2), Markoff11(6), make_cubic04(0, 1, 2, 3), make_cubic04(1, 1, 1, 1))
    for surface in surfaces:
        points = enumerate_points(surface, 20)
        assert points and all(type(p) is Point3 for p in points)
        for gens, start in itertools.product(GENERATOR_SETS, (points[len(points) // 2],
                                                               tuple(points[-1]))):
            run = orbit_bfs(surface, gens, start, cap_height=40)
            for p, (parent, _) in run.parents.items():
                assert type(p) is Point3 and (parent is None or type(parent) is Point3)
            report = class_number(surface, gens, 20)
            for p, _ in report.representatives + report.exceptional:
                assert type(p) is Point3
            word = run.word_to(list(run.parents)[-1])
            for p in (run.start, tuple(run.start)):
                assert type(apply_word(surface, word, p)) is Point3
                assert type(apply_word(surface, identity_word(surface.kind), p)) is Point3
    star = AConfig(INTEGER_STAR)
    starts = [Point3(3, 3, 3), Point3(6, 15, 87), (6, 15, 87), Point3(0, 0, 0)]
    for p in starts:
        for step_cap in (0, 1, 10**4):
            reduced = reduce_compact(MARKOFF, star, p, step_cap).reduced
            assert type(reduced) is Point3
    assert type(reduce_compact(Markoff11(6), star, Point3(1, 3, 1)).reduced) is Point3
    sphere = make_cubic04(0, 1, 2, 3)
    assert type(reduce_compact(sphere, star, Point3(-52, 6, 10)).reduced) is Point3
    far = Point3(1299, 15, 87)  # on MARKOFF, with every coordinate above B(-2) = 8
    approx = tuple(complex(v) for v in far)
    assert type(reduce_compact(MARKOFF, AConfig(REAL_AWAY2), approx).reduced) is Point3
    for p in (approx, (1 + 0j, 2 + 0j, 3 + 0j)):
        assert type(reduce_min_complex_11(Markoff11(-2.0 + 0j), p).reduced) is Point3
    w = MoveWord("04", (Move("T04", 1, 3), Move("T04", 2, 3)))
    q = apply_word(sphere, w, Point3(-52, 6, 10))
    for p in (tuple(complex(v) for v in q), (1 + 0j, 2 + 0j, 3 + 0j)):
        res = reduce_min_complex_04(make_cubic04(0j, 1 + 0j, 2 + 0j, 3 + 0j), p)
        assert type(res.reduced) is Point3

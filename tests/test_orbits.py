import functools
import itertools
import math
import time

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
from markoff.moves import apply_move, apply_word, generators, vieta
from markoff.orbits import (
    _root_heights,
    _slice,
    _sphere_form,
    Caps,
    class_number,
    enumerate_points,
    equivalent,
    is_exceptional,
    lines_cover_point,
    orbit_bfs,
    parabolic_lines_11,
)

MARKOFF = Markoff11(-2)


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


BIG_PARAMS = pytest.mark.parametrize(
    "surface, B",
    [
        (Markoff11(2**30), 4),
        (Markoff11(2**40), 2),
        (make_cubic04(2**13, 3, -5, 7), 6),
        (make_cubic04(2**26, 1, 1, 1), 2),
        (make_cubic04(2, 2, 2, 2), 10),
    ],
    ids=["torus-2^30", "torus-2^40", "sphere-2^13", "sphere-2^26", "sphere-2222"],
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


def _unlowered(surface, points):
    """Points with no coordinate +-2 at which no Vieta move lowers the height."""
    for p in points:
        h = linf_height(p)
        if 2 not in (abs(v) for v in p) and all(
            linf_height(apply_move(surface, vieta(axis), p)) >= h for axis in range(3)
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
            q = apply_move(s, vieta(axis), p)
            assert linf_height(q) > B or q in found
    assert [p for p in points if linf_height(p) <= small] == enumerate_points(s, small)


@pytest.mark.parametrize("k, B", [(20, 10**6), (-2, 10**30)])
def test_enumerate_huge_box(k, B):
    _assert_huge_box(Markoff11(k), B, 1000)


def test_enumerate_huge_box_sphere():
    # the +-2 slices are listed from their squares, not by a pass over B
    _assert_huge_box(make_cubic04(0, 1, 2, 3), 10**6, 200)


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
    # touching a +-2 coordinate, classes plus exceptional partition the box
    s = Markoff11(6)
    B = 60
    report = class_number(s, "gamma_prime", B)
    pts = enumerate_points(s, B)
    counted = sum(n for _, n in report.representatives) + len(report.exceptional)
    assert counted == len(pts)
    for p, word in report.exceptional:
        hit = apply_word(s, word, p)
        assert any(v in (2, -2) for v in hit)
    oracle_good, _ = _inbox_component_oracle(s, "gamma_prime", B)
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

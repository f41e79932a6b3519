import cmath
import itertools
import math
import random

import pytest

from markoff import descent
from markoff.surfaces import (
    DomainMismatch,
    Markoff11,
    MarkoffError,
    NonFiniteScalar,
    Point3,
    boundary_trace_11,
    linf_height,
    make_cubic04,
    on_surface,
    residual,
)
from markoff.moves import (
    Move,
    apply_move,
    apply_word,
    generators,
    normalize_11,
)
from markoff.orbits import enumerate_points
from markoff.descent import (
    AConfig,
    APPROX_DECREASE,
    CAP_HIT,
    COMPLEX_AWAY_INTERVAL,
    EXCEPTIONAL_HIT,
    INTEGER_STAR,
    REAL_AWAY2,
    REDUCED,
    ellipse_bound_04,
    min_bound_11,
    reduce_compact,
    reduce_min_complex_04,
    reduce_min_complex_11,
    sphere_terminal_condition,
)

STAR = AConfig(INTEGER_STAR)


def surface_point_11(rng, kmax=100):
    """Random complex torus surface point with Height(k) <= kmax."""
    k = complex(rng.uniform(-kmax, kmax), rng.uniform(-kmax / 2, kmax / 2))
    if abs(k) > kmax:
        k *= kmax / abs(k)
    x = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
    y = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
    disc = cmath.sqrt((x * y) ** 2 - 4 * (x * x + y * y - 2 - k))
    z = (x * y + disc) / 2
    return Markoff11(k), Point3(x, y, z)


def surface_point_04(rng, kmax=100):
    ks = [complex(rng.uniform(-5, 5), rng.uniform(-2, 2)) for _ in range(4)]
    s = make_cubic04(*ks)
    assert max(abs(v) for v in s.params) <= kmax
    x = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
    y = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
    q1 = x * y - s.c
    q0 = x * x + y * y - s.a * x - s.b * y - s.d
    z = (-q1 + cmath.sqrt(q1 * q1 - 4 * q0)) / 2
    return s, Point3(x, y, z)


def blow_up(surface, p, rng, target=1e6, cap=1e8, max_steps=50):
    """Push a point outward with random polynomial twists, magnitude-capped."""
    gens = generators(surface.kind, "gamma_poly")
    for _ in range(max_steps):
        if linf_height(p) >= target:
            break
        q = apply_move(surface, rng.choice(gens), p)
        if linf_height(q) <= cap:
            p = q
    return p


def test_reduce_min_11_zero_point():
    s = Markoff11(-2.0)
    r = reduce_min_complex_11(s, Point3(0j, 0j, 0j))
    assert r.status == REDUCED
    assert r.reduced == Point3(0j, 0j, 0j)
    assert r.steps == 0 and r.word.moves == ()


def test_reduce_min_11_small_point_unchanged():
    # any point with min modulus <= 8 is already terminal
    s = Markoff11(50.0)
    p = Point3(7.5 + 0j, 100.0 + 0j, 200.0 + 0j)
    r = reduce_min_complex_11(s, p)
    assert r.status == REDUCED and r.reduced == p


def test_min_bound_11_values():
    assert min_bound_11(-2) == 8.0
    assert min_bound_11(100) == 8.0  # both root terms still below 8
    assert min_bound_11(10**6) == pytest.approx((4 * (2 + 10**6)) ** (1 / 3))


def test_reduce_min_11_round_trip():
    # blown-up float points drift past on_surface's tolerance, and the
    # reducer still descends them with a word that replays exactly
    rng = random.Random(0)
    drifted = 0
    for _ in range(60):
        s, p = surface_point_11(rng)
        q = blow_up(s, p, rng)
        r = reduce_min_complex_11(s, q)
        assert r.status == REDUCED
        assert min(abs(v) for v in r.reduced) <= r.bound
        assert apply_word(s, r.word, q) == r.reduced
        drifted += r.steps > 0 and not on_surface(s, q)
    assert drifted > 0


def test_reduce_min_11_residual_drift():
    # per-step float rounding in a Vieta move scales with the coordinate
    # magnitudes, so the 1e-6*(1+|k|) per-step budget pins this check to
    # moderately blown-up points
    rng = random.Random(42)
    for _ in range(60):
        s, p = surface_point_11(rng)
        q = blow_up(s, p, rng, target=1e3, cap=1e4)
        r = reduce_min_complex_11(s, q)
        drift = 1e-6 * (1 + abs(s.k))
        base = abs(residual(s, q))
        cur = q
        for i, m in enumerate(r.word.moves, start=1):
            cur = apply_move(s, m, cur)
            assert abs(residual(s, cur)) <= base + drift * i


def test_reduce_min_11_cap_hit():
    rng = random.Random(1)
    s, p = surface_point_11(rng)
    q = blow_up(s, p, rng)
    assert min(abs(v) for v in q) > min_bound_11(s.k)
    r = reduce_min_complex_11(s, q, step_cap=0)
    assert r.status == CAP_HIT and r.reduced == q


def test_reduce_min_11_rejects_exact_and_nonfinite():
    with pytest.raises(DomainMismatch):
        reduce_min_complex_11(Markoff11(-2.0), Point3(3, 3, 3))
    with pytest.raises(NonFiniteScalar):
        reduce_min_complex_11(Markoff11(-2.0), Point3(complex("inf"), 0j, 0j))


def test_reduce_min_04_immediate_conditions():
    s = make_cubic04(0.0, 0.0, 0.0, 0.0)
    r = reduce_min_complex_04(s, Point3(2.0 + 0j, 0j, 0j))
    assert r.status == REDUCED and r.terminal_condition == 1
    assert r.reduced == Point3(2.0 + 0j, 0j, 0j)
    # with a large |d|, a point clearing conditions (1)-(4) still fires (5):
    # min 49 > 48, pairwise products > 48, but |xyz| <= 48*|d|
    huge_d = make_cubic04(0.0, 0.0, 0.0, 100.0)  # d = -9996
    big = Point3(49.0 + 0j, 49.0 + 0j, 49.0 + 0j)
    assert sphere_terminal_condition(huge_d, big) == 5


def test_reduce_min_04_round_trip():
    # as on the torus, drifted inputs still reduce with exact words
    rng = random.Random(2)
    conditions = set()
    drifted = 0
    for _ in range(60):
        s, p = surface_point_04(rng)
        q = blow_up(s, p, rng)
        r = reduce_min_complex_04(s, q)
        assert r.status == REDUCED
        assert r.terminal_condition in (1, 2, 3, 4, 5)
        conditions.add(r.terminal_condition)
        assert sphere_terminal_condition(s, r.reduced) == r.terminal_condition
        assert apply_word(s, r.word, q) == r.reduced
        drifted += r.steps > 0 and not on_surface(s, q)
    assert 1 in conditions  # the generic outcome shows up
    assert drifted > 0


def _relabel_vieta(monkeypatch):
    # each Vieta step still runs on its own axis but is recorded as the next
    # axis's move, so the word no longer gives the descent's point
    compiled = descent._compile

    def relabelled(surface, gens):
        steps = compiled(surface, gens)
        return tuple((steps[(i + 1) % 3][0], f) for i, (_, f) in enumerate(steps))

    monkeypatch.setattr(descent, "_compile", relabelled)


def _extra_normal_move(monkeypatch):
    # the canonical form's word carries one sign change too many
    normalize = descent.normalize_11

    def wrong(p):
        q, word = normalize(p)
        return q, word._replace(moves=word.moves + (Move("S", (0, 1)),))

    monkeypatch.setattr(descent, "normalize_11", wrong)


def _blown_up(surface_point, seed):
    rng = random.Random(seed)
    s, p = surface_point(rng)
    return s, blow_up(s, p, rng)


@pytest.mark.parametrize("reduce, fault", [
    (lambda: reduce_compact(Markoff11(-2), STAR, Point3(3, 6, 15)), _relabel_vieta),
    (lambda: reduce_compact(make_cubic04(-2, 1, 3, 3), STAR, Point3(3, -47, 17)), _relabel_vieta),
    (lambda: reduce_compact(Markoff11(-2.0), AConfig(REAL_AWAY2), Point3(3.0, 6.0, 15.0)),
     _relabel_vieta),
    (lambda: reduce_min_complex_11(*_blown_up(surface_point_11, 10)), _relabel_vieta),
    (lambda: reduce_min_complex_04(*_blown_up(surface_point_04, 16)), _relabel_vieta),
    (lambda: reduce_compact(Markoff11(-2), STAR, Point3(3, 6, 15)), _extra_normal_move),
], ids=["compact-torus", "compact-sphere", "compact-approx", "min-11", "min-04", "normal-form"])
def test_reducers_check_their_words(monkeypatch, reduce, fault):
    # a word that does not replay from the input to the reduced point is
    # never handed out
    assert reduce().steps > 0
    fault(monkeypatch)
    with pytest.raises(MarkoffError, match="descent certificate failed to replay"):
        reduce()


def test_reduce_compact_markoff_chain():
    s = Markoff11(-2)
    r = reduce_compact(s, STAR, Point3(3, 6, 15))
    assert r.status == REDUCED
    assert r.reduced == Point3(3, 3, 3)
    assert len(r.word.moves) == 2 and r.steps == 2
    assert apply_word(s, r.word, Point3(3, 6, 15)) == r.reduced


def test_reduce_compact_fixed_point():
    s = Markoff11(-2)
    r = reduce_compact(s, STAR, Point3(3, 3, 3))
    assert r.status == REDUCED and r.reduced == Point3(3, 3, 3) and r.steps == 0


def test_reduce_compact_exceptional_hit():
    s = Markoff11(6)
    r = reduce_compact(s, STAR, Point3(2, 3, 1))
    assert r.status == EXCEPTIONAL_HIT
    assert r.exceptional_axis == 0 and r.exceptional_value == 2
    assert r.word.moves == ()


def test_reduce_compact_cap_hit():
    s = Markoff11(-2)
    r = reduce_compact(s, STAR, Point3(3, 6, 15), step_cap=1)
    assert r.status == CAP_HIT and r.steps == 1


def test_reduce_compact_monotone_and_local_min():
    rng = random.Random(3)
    for _ in range(400):
        p = Point3(*(rng.randint(-40, 40) for _ in range(3)))
        s = Markoff11(boundary_trace_11(p))
        r = reduce_compact(s, STAR, p)
        # sup norm strictly decreases at every step and the word replays
        cur = p
        heights = [linf_height(cur)]
        for m in r.word.moves[: r.steps]:
            cur = apply_word(s, type(r.word)(s.kind, (m,)), cur)
            heights.append(linf_height(cur))
        assert all(b < a for a, b in zip(heights, heights[1:]))
        assert r.steps <= linf_height(p)
        assert apply_word(s, r.word, p) == r.reduced
        assert residual(s, r.reduced) == residual(s, p)
        if r.status == REDUCED:
            # no Vieta image strictly below the local minimum
            base = min(linf_height(apply_move(s, Move("V", a), r.reduced)) for a in range(3))
            assert base >= linf_height(r.reduced)
            assert normalize_11(r.reduced)[0] == r.reduced


def test_reduce_compact_04_greedy():
    rng = random.Random(4)
    for _ in range(200):
        s = make_cubic04(*(rng.randint(-4, 4) for _ in range(4)))
        p = Point3(*(rng.randint(-30, 30) for _ in range(3)))
        r = reduce_compact(s, STAR, p)
        assert apply_word(s, r.word, p) == r.reduced
        assert residual(s, r.reduced) == residual(s, p)
        if r.status == REDUCED:
            base = min(linf_height(apply_move(s, Move("V", a), r.reduced)) for a in range(3))
            assert base >= linf_height(r.reduced)


def test_reduce_compact_real_mode():
    s = Markoff11(-2.0)
    r = reduce_compact(s, AConfig(REAL_AWAY2), Point3(3.0, 6.0, 15.0))
    assert r.status == REDUCED
    assert r.reduced == Point3(3.0, 3.0, 3.0)


def test_reduce_compact_complex_mode():
    rng = random.Random(5)
    s, p = surface_point_11(rng, kmax=10)
    q = blow_up(s, p, rng, target=1e4, cap=1e6)
    r = reduce_compact(s, AConfig(COMPLEX_AWAY_INTERVAL), q)
    assert r.status == REDUCED
    assert linf_height(r.reduced) <= linf_height(q)
    assert apply_word(s, r.word, q) == r.reduced


def test_reduce_compact_domain_checks():
    with pytest.raises(DomainMismatch):
        reduce_compact(Markoff11(-2), STAR, Point3(3.0, 3.0, 3.0))
    with pytest.raises(DomainMismatch):
        reduce_compact(Markoff11(-2.0), AConfig(REAL_AWAY2), Point3(3, 3, 3))


def test_aconfig_validation():
    with pytest.raises(ValueError):
        AConfig("star")


# --- differential: the shared descent loop against the loops it replaced ---


def exceptional_axis(p):
    """The first axis whose coordinate is +-2, if any."""
    for axis in range(3):
        if p[axis] == 2 or p[axis] == -2:
            return axis
    return None


def _max_axis(p):
    """The axis of largest modulus; ties go to z, then y, then x."""
    best = 2
    for axis in (1, 0):
        if abs(p[axis]) > abs(p[best]):
            best = axis
    return best


def _coordinate_shrinks(p, q):
    """The moved coordinate stays finite and strictly drops in modulus."""
    axis = _max_axis(p)
    return cmath.isfinite(complex(q[axis])) and abs(q[axis]) < abs(p[axis])


def _point_descend(surface, p, step_cap, stop, shrinks):
    """The former shared loop, whose rules read whole points: stop(p),
    the step cap, then shrinks(p, q) for the step q on _max_axis(p).
    Returns (point, moves, "stop" | "cap" | "stall")."""
    moves = []
    while True:
        if stop(p):
            return p, moves, "stop"
        if len(moves) >= step_cap:
            return p, moves, "cap"
        move = Move("V", _max_axis(p))
        q = apply_move(surface, move, p)
        if not shrinks(p, q):
            return p, moves, "stall"
        moves.append(move)
        p = q


def _point_reduce_compact(surface, cfg, p, step_cap):
    """The former reduce_compact on _point_descend, as a DescentResult's
    (reduced, moves, steps, status, exceptional_axis, exceptional_value,
    terminal_condition)."""
    star = cfg.mode == INTEGER_STAR
    factor = 1 if star else 1 - APPROX_DECREASE
    q, moves, outcome = _point_descend(
        surface, p, step_cap,
        lambda r: star and exceptional_axis(r) is not None,
        lambda r, s: linf_height(s) < linf_height(r) * factor,
    )
    steps = len(moves)
    axis = exceptional_axis(q) if outcome == "stop" else None
    if outcome == "stall" and star and isinstance(surface, Markoff11):
        q, normal = normalize_11(q)
        moves.extend(normal.moves)
    status = {"stop": EXCEPTIONAL_HIT, "cap": CAP_HIT, "stall": REDUCED}[outcome]
    return q, tuple(moves), steps, status, axis, None if axis is None else q[axis], None


def _point_reduce_min_11(surface, p, step_cap):
    """The former reduce_min_complex_11 on _point_descend."""
    bound = min_bound_11(surface.k)
    q, moves, outcome = _point_descend(
        surface, p, step_cap, lambda r: min(abs(v) for v in r) <= bound, _coordinate_shrinks
    )
    status = REDUCED if outcome == "stop" else CAP_HIT
    return q, tuple(moves), len(moves), status, None, None, None


def _point_reduce_min_04(surface, p, step_cap):
    """The former reduce_min_complex_04 on _point_descend, which tests the
    stopping conditions again at the end point."""
    q, moves, _ = _point_descend(
        surface, p, step_cap,
        lambda r: sphere_terminal_condition(surface, r) is not None, _coordinate_shrinks,
    )
    cond = sphere_terminal_condition(surface, q)
    status = CAP_HIT if cond is None else REDUCED
    return q, tuple(moves), len(moves), status, None, None, cond


def _outcome(r):
    return (r.reduced, r.word.moves, r.steps, r.status, r.exceptional_axis,
            r.exceptional_value, r.terminal_condition)


def _probe_reduce_compact(surface, cfg, p, step_cap):
    """The former reduce_compact loop: probe all three Vieta moves and take
    the lowest image, the first in z, y, x order on ties."""
    star = cfg.mode == INTEGER_STAR
    moves = []

    def result(point, status, axis=None):
        value = None if axis is None else point[axis]
        return (point, tuple(moves), len(moves), status, axis, value)

    if star and exceptional_axis(p) is not None:
        return result(p, EXCEPTIONAL_HIT, exceptional_axis(p))
    while True:
        if len(moves) >= step_cap:
            return result(p, CAP_HIT)
        cur = linf_height(p)
        best_axis, best_height = None, None
        for axis in (2, 1, 0):
            h = linf_height(apply_move(surface, Move("V", axis), p))
            if best_height is None or h < best_height:
                best_axis, best_height = axis, h
        if not (best_height < (cur if star else cur * (1 - APPROX_DECREASE))):
            break
        moves.append(Move("V", best_axis))
        p = apply_move(surface, moves[-1], p)
        if star and exceptional_axis(p) is not None:
            return result(p, EXCEPTIONAL_HIT, exceptional_axis(p))
    steps = len(moves)
    if star and isinstance(surface, Markoff11):
        p, word = normalize_11(p)
        moves.extend(word.moves)
    return (p, tuple(moves), steps, REDUCED, None, None)


def _sorting_reduce_min_11(surface, p, step_cap):
    """The former reduce_min_complex_11 loop: sort the coordinates by
    modulus with a permutation move, then apply the Vieta move on z."""
    bound = min_bound_11(surface.k)
    moves, steps = [], 0
    while min(abs(v) for v in p) > bound:
        if steps >= step_cap:
            return p, tuple(moves), steps, CAP_HIT
        order = sorted(range(3), key=lambda i: abs(p[i]))
        if order != [0, 1, 2]:
            moves.append(Move("P", tuple(order)))
            p = apply_move(surface, moves[-1], p)
        x, y, z = p
        znew = x * y - z
        if not cmath.isfinite(complex(znew)) or abs(znew) >= abs(z):
            return p, tuple(moves), steps, CAP_HIT
        moves.append(Move("V", 2))
        p = Point3(x, y, znew)
        steps += 1
    return p, tuple(moves), steps, REDUCED


DIFF_CAPS = (0, 1, 3, 10**4)


def _check_compact(surface, cfg, p):
    """reduce_compact against both former loops at every cap; returns the
    uncapped result."""
    for cap in DIFF_CAPS:
        r = reduce_compact(surface, cfg, p, cap)
        assert _outcome(r) == _point_reduce_compact(surface, cfg, p, cap), (surface, p, cap)
        assert _outcome(r)[:6] == _probe_reduce_compact(surface, cfg, p, cap), (surface, p, cap)
        assert apply_word(surface, r.word, p) == r.reduced
    return r


def _check_min_04(surface, p):
    for cap in DIFF_CAPS:
        r = reduce_min_complex_04(surface, p, cap)
        assert _outcome(r) == _point_reduce_min_04(surface, p, cap), (surface, p, cap)
        assert apply_word(surface, r.word, p) == r.reduced
    return r


def _check_min_11(surface, p):
    for cap in DIFF_CAPS:
        r = reduce_min_complex_11(surface, p, cap)
        assert _outcome(r) == _point_reduce_min_11(surface, p, cap), (surface, p, cap)
        reduced, moves, steps, status = _sorting_reduce_min_11(surface, p, cap)
        assert (r.status, r.steps) == (status, steps), (surface, p, cap)
        assert sorted(map(abs, r.reduced)) == sorted(map(abs, reduced))
        assert len(r.word.moves) == sum(1 for m in moves if m.kind == "V")
        assert all(m.kind == "V" for m in r.word.moves)
        assert apply_word(surface, r.word, p) == r.reduced
    return r


def _twisted(surface, p, move, digits):
    """Apply one Dehn twist until some coordinate has `digits` digits, or
    give up after 1000 twists (a twist fixing a small coordinate can stay
    bounded)."""
    for _ in range(1000):
        if linf_height(p) >= 10 ** (digits - 1):
            break
        p = apply_move(surface, move, p)
    return p


def test_reduce_compact_matches_probe_torus_grid():
    r = range(-8, 9)
    for p in itertools.product(r, r, r):
        p = Point3(*p)
        _check_compact(Markoff11(boundary_trace_11(p)), STAR, p)


def test_reduce_compact_matches_probe_sphere_grid():
    for ks in itertools.combinations_with_replacement(range(-2, 3), 4):
        s = make_cubic04(*ks)
        for p in enumerate_points(s, 40):
            _check_compact(s, STAR, p)


def test_reduce_compact_matches_probe_beyond_int64():
    rng = random.Random(7)
    cases = [(Markoff11(k), Point3(*p)) for k, p in ((-2, (3, 3, 3)), (20, (-4, 1, 1)),
                                                     (12, (3, -1, 1)), (7, (5, 4, 11)))]
    cases += [(make_cubic04(*ks), p) for ks in ((0, 1, 2, 3), (2, 0, -1, 3), (-2, 1, 3, 3))
              for p in enumerate_points(make_cubic04(*ks), 8)[:3]]
    seen = 0
    for s, root in cases:
        moves = [Move("T11", c, e) for c in ("a", "b", "ab") for e in (1, -1)] \
            if s.kind == "11" else [Move("T04", i, e) for i in (1, 2, 3) for e in (1, -1)]
        for move in rng.sample(moves, 3):
            p = _twisted(s, root, move, rng.randint(20, 60))
            if linf_height(p) > 2**63:
                seen += 1
                _check_compact(s, STAR, p)
    assert seen >= 20


def test_reduce_compact_matches_probe_approx():
    rng = random.Random(8)
    for mode in (REAL_AWAY2, COMPLEX_AWAY_INTERVAL):
        for p in ((3.0, 6.0, 15.0), (3.0, 3.0, 3.0), (1.0, 2.5, 7.25), (-4.0, 1.0, 1.0)):
            p = Point3(*p)
            _check_compact(Markoff11(boundary_trace_11(p)), AConfig(mode), p)
    for _ in range(40):
        s, p = surface_point_11(rng, kmax=10)
        _check_compact(s, AConfig(COMPLEX_AWAY_INTERVAL), blow_up(s, p, rng, 1e4, 1e6))
        s, p = surface_point_04(rng)
        _check_compact(s, AConfig(COMPLEX_AWAY_INTERVAL), blow_up(s, p, rng, 1e4, 1e6))


def test_reduce_min_11_matches_sorting_loop():
    rng = random.Random(9)
    for _ in range(200):
        s, p = surface_point_11(rng)
        _check_min_11(s, blow_up(s, p, rng))
        _check_min_11(s, p)


def test_descent_loops_agree_on_ties():
    # |y| = |z| = h: the move on z keeps |y| = h, so the sup-norm descent
    # stalls at once; so do the complex reducers, which test the moved
    # coordinate alone, for |x*y - z| >= 7h once every modulus is above 8
    spheres = [make_cubic04(*ks) for ks in ((0, 1, 2, 3), (-2, 1, 3, 3))]
    for p in ((1, 5, 5), (5, 1, 5), (5, 5, 1), (-7, 7, 3), (4, -4, -4), (9, 3, -9), (6, 6, 6)):
        p = Point3(*p)
        for s in (Markoff11(boundary_trace_11(p)), *spheres):
            r = _check_compact(s, STAR, p)
            assert (r.status, r.steps) == (REDUCED, 0)
        q = Point3(*map(float, p))
        for mode in (REAL_AWAY2, COMPLEX_AWAY_INTERVAL):
            assert _check_compact(Markoff11(boundary_trace_11(q)), AConfig(mode), q).steps == 0
    # moduli 20 or 60, then 50 or 100 twice, exact in floating point
    for p in ((20 + 0j, 50j, -30 + 40j), (30 + 40j, 20j, 50 + 0j), (50j, 50 + 0j, 50 + 0j)):
        p, q = Point3(*p), Point3(*(3 * v for v in p))
        torus, sphere = Markoff11(3.5 - 1j), make_cubic04(0.5, 1j, 0.0, -1.0)
        assert (_check_min_11(torus, p).status, _check_min_04(sphere, q).status) == (CAP_HIT,) * 2
        for s, point in ((torus, p), (sphere, q)):
            assert _check_compact(s, AConfig(COMPLEX_AWAY_INTERVAL), point).steps == 0
    # fixed points of the move on z, whose moved modulus does not drop
    torus, p = Markoff11(-2.0), Point3(10 + 0j, 10j, 50j)
    sphere, q = make_cubic04(0.0, 0.0, 0.0, 0.0), Point3(49 + 0j, 49 + 0j, -1200.5 + 0j)
    assert (_check_min_11(torus, p).status, _check_min_04(sphere, q).status) == (CAP_HIT,) * 2


def _walk_up(surface, p, rng, top):
    """Vieta moves, each on a random axis whose image has a larger sup-norm,
    until the sup-norm passes top (digits grow like Fibonacci numbers)."""
    while linf_height(p) <= top:
        ups = [q for q in (apply_move(surface, Move("V", axis), p) for axis in range(3))
               if linf_height(q) > linf_height(p)]
        if not ups:
            break
        p = rng.choice(ups)
    return p


def test_descent_loops_agree_on_locus_hits():
    # a +-2 coordinate stops the descent at its start, or in the middle of a
    # run down from a point walked up from the locus, at any size
    for p in ((2, 7, 30), (7, -2, 30), (30, 7, 2), (-2, -2, 9)):
        p = Point3(*p)
        for s in (Markoff11(boundary_trace_11(p)), make_cubic04(0, 1, 2, 3)):
            r = _check_compact(s, STAR, p)
            assert (r.status, r.steps) == (EXCEPTIONAL_HIT, 0)
    rng = random.Random(11)
    middle = big = 0
    for s in (Markoff11(6), Markoff11(-2), Markoff11(20), make_cubic04(0, 1, 2, 3),
              make_cubic04(-2, 1, 3, 3)):
        locus = [p for p in enumerate_points(s, 30) if exceptional_axis(p) is not None]
        for p in rng.sample(locus, min(8, len(locus))):
            for top in (10**2, 10**6, 10**30):
                q = _walk_up(s, p, rng, top)
                r = _check_compact(s, STAR, q)
                middle += r.status == EXCEPTIONAL_HIT and r.steps > 0
                big += r.status == EXCEPTIONAL_HIT and linf_height(q) > 2**63
    assert middle >= 40 and big >= 10


def test_descent_loops_agree_on_drifting_complex():
    rng = random.Random(12)
    for _ in range(40):
        s, p = surface_point_11(rng)
        q = blow_up(s, p, rng)
        _check_min_11(s, q)
        _check_compact(s, AConfig(COMPLEX_AWAY_INTERVAL), q)
        s, p = surface_point_04(rng)
        q = blow_up(s, p, rng)
        _check_min_04(s, q)
        _check_compact(s, AConfig(COMPLEX_AWAY_INTERVAL), q)


def test_descent_loops_agree_on_non_finite_steps():
    # a first step whose product overflows: to inf, to nan + inf*j and to
    # inf + nan*j; each is a stall, at the input
    big = 1e200 * (1 + 1j)
    torus, sphere = Markoff11(-2.0), make_cubic04(0.0, 0.0, 0.0, 0.0)
    for p in ((1e200 + 0j, 1e200 + 0j, 1e300 + 0j), (big, big, 1e300 + 0j),
              (big, big.conjugate(), 1e300 + 0j)):
        p = Point3(*p)
        for s in (torus, sphere):
            assert not cmath.isfinite(apply_move(s, Move("V", 2), p).z)
        assert _check_min_11(torus, p).status == CAP_HIT
        assert _check_min_04(sphere, p).status == CAP_HIT
        for s in (torus, sphere):
            r = _check_compact(s, AConfig(COMPLEX_AWAY_INTERVAL), p)
            assert (r.status, r.steps) == (REDUCED, 0)
    p = Point3(1e200, 1e200, 1e300)
    assert _check_compact(Markoff11(-2.0), AConfig(REAL_AWAY2), p).steps == 0


# --- ellipse bound ----------------------------------------------------------


def test_ellipse_bound_circle():
    s = make_cubic04(0, 0, 0, 0)
    assert ellipse_bound_04(s, 0) == pytest.approx(2.0)


@pytest.mark.parametrize("k4, expected", [(0, 2.0), (1, math.sqrt(3)), (3, 0.0)])
def test_ellipse_bound_centered_circle(k4, expected):
    # a = b = 0 and z0 = 0 leaves x^2 + y^2 = d
    s = make_cubic04(0, 0, 0, k4)
    assert ellipse_bound_04(s, 0) == pytest.approx(expected)


def test_ellipse_bound_rejects_large_z0():
    s = make_cubic04(0, 0, 0, 0)
    with pytest.raises(ValueError):
        ellipse_bound_04(s, 2)
    with pytest.raises(ValueError):
        ellipse_bound_04(s, -2.5)


def _integer_slice_solutions(surface, z0, search):
    """Brute-force integer (x, y) with (x, y, z0) on the surface."""
    sols = []
    for x in range(-search, search + 1):
        # y^2 + (z0*x - b) y + (x^2 - a x - e) = 0
        e = surface.c * z0 + surface.d - z0 * z0
        lin = z0 * x - surface.b
        disc = lin * lin - 4 * (x * x - surface.a * x - e)
        if disc < 0:
            continue
        s = math.isqrt(disc)
        if s * s != disc:
            continue
        for sign in ((s, -s) if s else (s,)):
            num = -lin + sign
            if num % 2 == 0:
                sols.append((x, num // 2))
    return sols


def test_ellipse_bound_dominates_brute_force():
    rng = random.Random(6)
    for _ in range(150):
        surface = make_cubic04(*(rng.randint(-5, 5) for _ in range(4)))
        assert max(abs(v) for v in (surface.a, surface.b, surface.c)) <= 50
        for z0 in (-1, 0, 1):
            bound = ellipse_bound_04(surface, z0)
            search = int(bound) + 3
            for x, y in _integer_slice_solutions(surface, z0, search):
                assert residual(surface, Point3(x, y, z0)) == 0
                assert max(abs(x), abs(y)) <= bound + 1e-9

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from markoff.surfaces import (
    Cubic04,
    Markoff11,
    MoveMismatch,
    Point3,
    boundary_trace_11,
    linf_height,
    make_cubic04,
    residual,
)
from markoff import moves
from markoff.moves import (
    Move,
    MoveWord,
    _compile,
    apply_move,
    apply_word,
    concat_words,
    dehn_twist_04,
    dehn_twist_11,
    generators,
    identity_word,
    inverse_move,
    normalize_11,
    parse_word,
)
from markoff.orbits import equivalent, orbit_bfs

ZEROS04 = make_cubic04(0, 0, 0, 0)
BIG = 2**70


def random_point(rng, lo=-50, hi=50):
    return Point3(*(rng.randint(lo, hi) for _ in range(3)))


def markoff_through(p):
    return Markoff11(boundary_trace_11(p))


def test_vieta_markoff_example():
    s = Markoff11(-2)
    q = apply_move(s, Move("V", 2), Point3(3, 3, 3))
    assert q == Point3(3, 3, 6)
    assert residual(s, q) == 0


def test_vieta_is_involution():
    rng = random.Random(0)
    for _ in range(300):
        p = random_point(rng)
        s = markoff_through(p)
        for axis in range(3):
            assert apply_move(s, Move("V", axis), apply_move(s, Move("V", axis), p)) == p
        s04 = make_cubic04(*(rng.randint(-5, 5) for _ in range(4)))
        for axis in range(3):
            assert apply_move(s04, Move("V", axis), apply_move(s04, Move("V", axis), p)) == p


def test_vieta_cubic04_example():
    q = apply_move(ZEROS04, Move("V", 2), Point3(0, 0, 2))
    assert q == Point3(0, 0, -2)
    assert residual(ZEROS04, q) == 0


def test_sign_and_permutation_are_involutions():
    rng = random.Random(5)
    s = Markoff11(0)
    for _ in range(100):
        p = random_point(rng)
        for m in parse_word("Sxy Syz Sxz Pxy Pyz Pxz", "11").moves:
            assert apply_move(s, m, apply_move(s, m, p)) == p


def test_move_surface_mismatch():
    with pytest.raises(MoveMismatch):
        apply_move(ZEROS04, Move("P", (1, 0, 2)), Point3(0, 0, 0))
    with pytest.raises(MoveMismatch):
        apply_move(ZEROS04, Move("T11", "a"), Point3(0, 0, 0))
    with pytest.raises(MoveMismatch):
        apply_move(Markoff11(0), Move("T04", 1), Point3(0, 0, 0))
    with pytest.raises(MoveMismatch):
        apply_word(Markoff11(0), identity_word("04"), Point3(0, 0, 0))


def test_dehn_twist_11_examples():
    assert dehn_twist_11("a", 1, Point3(3, 3, 3)) == Point3(3, 3, 6)
    assert dehn_twist_11("a", 1, Point3(0, 0, 0)) == Point3(0, 0, 0)


def test_dehn_twist_11_builds_no_surface(monkeypatch):
    # one module-level torus serves every call, and its results are
    # apply_move's on any torus, since torus moves do not read k
    def no_surface(k):
        raise AssertionError("dehn_twist_11 built a surface")

    monkeypatch.setattr(moves, "Markoff11", no_surface)
    p = Point3(5, -7, 2**70)
    for which in ("a", "b", "ab"):
        for direction, power in ((1, 1), (3, 1), (-1, -1), (-2, -1)):
            q = dehn_twist_11(which, direction, p)
            assert type(q) is Point3
            assert q == apply_move(Markoff11(-2), Move("T11", which, power), p)
            assert q == apply_move(Markoff11(2**80), Move("T11", which, power), p)


def test_dehn_twist_11_inverse_contract():
    rng = random.Random(1)
    for _ in range(300):
        p = random_point(rng)
        for which in ("a", "b", "ab"):
            assert dehn_twist_11(which, -1, dehn_twist_11(which, 1, p)) == p
            assert dehn_twist_11(which, 1, dehn_twist_11(which, -1, p)) == p


def test_dehn_twist_04_examples():
    assert dehn_twist_04(ZEROS04, 1, 1, Point3(2, 0, 0)) == Point3(2, 0, 0)
    assert dehn_twist_04(ZEROS04, 1, 1, Point3(0, 0, 2)) == Point3(0, 0, -2)


def test_dehn_twist_04_inverse_contract():
    rng = random.Random(2)
    for _ in range(200):
        s = make_cubic04(*(rng.randint(-6, 6) for _ in range(4)))
        p = random_point(rng)
        for index in (1, 2, 3):
            assert dehn_twist_04(s, index, -1, dehn_twist_04(s, index, 1, p)) == p


def test_twist_decomposition_11():
    # twist a = Vieta(z) after swap(y,z); twist b = Vieta(x) after swap(x,z);
    # twist ab = Vieta(y) after swap(x,y)
    rng = random.Random(3)
    s = Markoff11(0)
    words = {
        "a": (Move("P", (0, 2, 1)), Move("V", 2)),
        "b": (Move("P", (2, 1, 0)), Move("V", 0)),
        "ab": (Move("P", (1, 0, 2)), Move("V", 1)),
    }
    for _ in range(1000):
        p = random_point(rng)
        for which, moves in words.items():
            q = p
            for m in moves:
                q = apply_move(s, m, q)
            assert q == dehn_twist_11(which, 1, p)


def test_twist_decomposition_04():
    rng = random.Random(4)
    for _ in range(1000):
        s = make_cubic04(*(rng.randint(-6, 6) for _ in range(4)))
        p = random_point(rng)
        for index, axes in ((1, (1, 2)), (2, (2, 0)), (3, (0, 1))):
            q = p
            for axis in axes:
                q = apply_move(s, Move("V", axis), q)
            assert q == dehn_twist_04(s, index, 1, p)


def test_apply_word_examples():
    s = Markoff11(-2)
    p = Point3(3, 3, 3)
    assert apply_word(s, identity_word("11"), p) == p
    w = MoveWord("11", (Move("V", 2), Move("P", (0, 2, 1))))
    assert apply_word(s, w, p) == Point3(3, 6, 3)


def test_word_inverse_contract():
    rng = random.Random(6)
    gens = generators("11", "gamma_prime") + generators("11", "gamma_poly")
    for _ in range(200):
        p = random_point(rng, -20, 20)
        s = markoff_through(p)
        moves = tuple(rng.choice(gens) for _ in range(rng.randint(0, 12)))
        w = MoveWord("11", moves)
        assert apply_word(s, w.inverse(), apply_word(s, w, p)) == p
    for _ in range(200):
        s = make_cubic04(*(rng.randint(-5, 5) for _ in range(4)))
        p = random_point(rng, -20, 20)
        gens04 = generators("04", "gamma_prime") + generators("04", "gamma_poly")
        moves = tuple(rng.choice(gens04) for _ in range(rng.randint(0, 12)))
        w = MoveWord("04", moves)
        assert apply_word(s, w.inverse(), apply_word(s, w, p)) == p


def test_twist_powers_compose_additively():
    rng = random.Random(8)
    s = Markoff11(-2)
    for _ in range(50):
        p = random_point(rng, -5, 5)
        n = rng.randint(1, 4)
        stepwise = p
        for _ in range(n):
            stepwise = apply_move(s, Move("T11", "b", 1), stepwise)
        assert apply_move(s, Move("T11", "b", n), p) == stepwise


def test_word_serialization_round_trip():
    s = Markoff11(-2)
    text = "Vz Pyz Ta+ Ta+ Sxy"
    w = parse_word(text, "11")
    assert str(w) == text
    p = Point3(3, 3, 3)
    assert residual(s, apply_word(s, w, p)) == 0
    # power-2 twist expands to two unit tokens and parses back equivalently
    w2 = MoveWord("11", (Move("T11", "a", 2),))
    assert str(w2) == "Ta+ Ta+"
    assert apply_word(s, parse_word(str(w2), "11"), p) == apply_word(s, w2, p)
    w3 = MoveWord("04", (Move("T04", 3, -2), Move("V", 0)))
    assert str(w3) == "T3- T3- Vx"
    assert parse_word(str(w3), "04").moves == (
        Move("T04", 3, -1),
        Move("T04", 3, -1),
        Move("V", 0),
    )


def _unit_moves(kind):
    """Every unit move defined on a surface type, as Move values."""
    if kind == "04":
        return tuple(Move("V", axis) for axis in range(3)) + tuple(
            Move("T04", index, power) for index in (1, 2, 3) for power in (1, -1))
    return (
        tuple(Move("V", axis) for axis in range(3))
        + tuple(Move("P", s) for s in itertools.permutations(range(3)) if s != (0, 1, 2))
        + tuple(Move("S", (i, j)) for i, j in ((0, 1), (1, 2), (0, 2)))
        + tuple(Move("T11", c, power) for c in ("a", "b", "ab") for power in (1, -1))
    )


@pytest.mark.parametrize("kind, surface", [
    ("11", Markoff11(BIG + 3)), ("04", make_cubic04(BIG, -3, 5, BIG // 2)),
])
def test_unit_tokens_parse_back_and_inverse_undoes(kind, surface):
    units = _unit_moves(kind)
    tokens = [str(MoveWord(kind, (m,))) for m in units]
    assert len(set(tokens)) == len(units) == {"11": 17, "04": 9}[kind]
    assert all(len(t.split()) == 1 for t in tokens)
    assert parse_word(" ".join(tokens), kind).moves == units
    rng = random.Random(14)
    for m in units:
        for _ in range(20):
            p = Point3(*(rng.randint(-BIG, BIG) for _ in range(3)))
            assert apply_move(surface, inverse_move(m), apply_move(surface, m, p)) == p


@pytest.mark.parametrize("token, kind", [
    ("Pxy", "04"), ("Pxyz", "04"), ("Sxz", "04"), ("Ta+", "04"), ("Tab-", "04"),
    ("T1+", "11"), ("T3-", "11"), ("Vw", "11"), ("T4+", "04"), ("Ta", "11"),
])
def test_parse_word_rejects_tokens_of_other_surface(token, kind):
    with pytest.raises(ValueError, match="unparseable move token"):
        parse_word(f"Vx {token}", kind)


def test_concat_words():
    w1 = MoveWord("11", (Move("V", 0),))
    w2 = MoveWord("11", (Move("V", 1),))
    assert concat_words(w1, w2).moves == (Move("V", 0), Move("V", 1))
    with pytest.raises(MoveMismatch):
        concat_words(w1, MoveWord("04", ()))


# --- normalize_11 -----------------------------------------------------------


def _orbit24(p):
    """The images of p under the 24 permutations and even sign changes."""
    return {
        Point3(*(p[i] * s for i, s in zip(perm, signs)))
        for perm in itertools.permutations(range(3))
        for signs in itertools.product((1, -1), repeat=3)
        if signs.count(-1) % 2 == 0
    }


def _normal_key(q):
    return (
        0 if abs(q[0]) <= abs(q[1]) <= abs(q[2]) else 1,
        sum(1 for v in q if v < 0),
        tuple(1 if v < 0 else 0 for v in q),
        tuple(q),
    )


def _oracle_normalize(p):
    """Independent brute force over the 24 permutation/even-sign images."""
    return min(_orbit24(p), key=_normal_key)


def test_normalize_examples():
    assert normalize_11(Point3(3, -3, -6))[0] == Point3(3, 3, 6)
    assert normalize_11(Point3(0, 0, 0))[0] == Point3(0, 0, 0)
    assert normalize_11(Point3(-6, 3, 3))[0] == Point3(3, 3, -6)
    assert normalize_11(Point3(0, 0, 0))[1].moves == ()


def test_normalize_matches_brute_force_oracle():
    rng = random.Random(9)
    for _ in range(2000):
        p = random_point(rng, -9, 9)
        assert normalize_11(p)[0] == _oracle_normalize(p)


def _normalize_cases():
    yield from (Point3(*v) for v in itertools.product(range(-4, 5), repeat=3))
    values = (0, 1, -1, BIG, -BIG, BIG + 1, -BIG - 1)
    yield from (Point3(*v) for v in itertools.product(values, repeat=3))


def _shortest_word_length(p, form):
    """Fewest moves, a permutation then an even sign change, taking p to form."""
    return min(
        (perm != (0, 1, 2)) + (signs != (1, 1, 1))
        for perm in itertools.permutations(range(3))
        for signs in itertools.product((1, -1), repeat=3)
        if signs.count(-1) % 2 == 0
        and Point3(*(p[i] * s for i, s in zip(perm, signs))) == form
    )


def test_normalize_closed_form_matches_oracle():
    s = Markoff11(0)  # the symmetries ignore k
    for p in _normalize_cases():
        form, word = normalize_11(p)
        assert form == _oracle_normalize(p) and type(form) is Point3, p
        assert apply_word(s, word, p) == form, p
        assert [m.kind for m in word.moves] in ([], ["P"], ["S"], ["P", "S"]), p
        assert len(word.moves) == _shortest_word_length(p, form), p


def test_normalize_word_achieves_form():
    rng = random.Random(10)
    for _ in range(500):
        p = random_point(rng)
        s = markoff_through(p)
        form, word = normalize_11(p)
        assert apply_word(s, word, p) == form


def test_normalize_idempotent_and_orbit_constant():
    rng = random.Random(11)
    s = Markoff11(0)
    group = [Move("P", (1, 0, 2)), Move("P", (0, 2, 1)), Move("P", (2, 1, 0)),
             Move("S", (0, 1)), Move("S", (1, 2)), Move("S", (0, 2))]
    for _ in range(500):
        p = random_point(rng)
        form, _ = normalize_11(p)
        assert normalize_11(form)[0] == form
        q = p
        for _ in range(rng.randint(1, 6)):
            q = apply_move(s, rng.choice(group), q)
        assert normalize_11(q)[0] == form


def test_generator_sets():
    # the sets as Move values, in their fixed order
    vietas = tuple(Move("V", axis) for axis in range(3))
    pairs = ((0, 1), (1, 2), (0, 2))
    assert generators("11", "gamma_prime") == vietas + (
        Move("P", (1, 0, 2)), Move("P", (0, 2, 1)), Move("P", (2, 1, 0))
    ) + tuple(Move("S", pair) for pair in pairs)
    assert generators("04", "gamma_prime") == vietas
    assert generators("11", "gamma_poly") == tuple(
        Move("T11", curve, power) for curve in ("a", "b", "ab") for power in (1, -1))
    assert generators("04", "gamma_poly") == tuple(
        Move("T04", index, power) for index in (1, 2, 3) for power in (1, -1))
    with pytest.raises(ValueError, match="unknown generator set 'gamma'"):
        generators("11", "gamma")


# --- the move tables against the former dispatch ------------------------------


def _oracle_twist_11(which, direction, p):
    x, y, z = p
    if which == "a":
        return Point3(x, z, x * z - y) if direction > 0 else Point3(x, x * y - z, y)
    if which == "b":
        return Point3(x * y - z, y, x) if direction > 0 else Point3(z, y, y * z - x)
    if which == "ab":
        return Point3(y, y * z - x, z) if direction > 0 else Point3(x * z - y, x, z)
    raise ValueError(f"unknown torus twist curve {which!r}")


def _oracle_twist_04(surface, index, direction, p):
    a, b, c = surface.a, surface.b, surface.c
    x, y, z = p
    if index == 1:
        if direction > 0:
            y1 = b - x * z - y
            return Point3(x, y1, c - x * y1 - z)
        z1 = c - x * y - z
        return Point3(x, b - x * z1 - y, z1)
    if index == 2:
        if direction > 0:
            z1 = c - x * y - z
            return Point3(a - y * z1 - x, y, z1)
        x1 = a - y * z - x
        return Point3(x1, y, c - x1 * y - z)
    if index == 3:
        if direction > 0:
            x1 = a - y * z - x
            return Point3(x1, b - x1 * z - y, z)
        y1 = b - x * z - y
        return Point3(a - y1 * z - x, y1, z)
    raise ValueError(f"unknown sphere twist index {index!r}")


def _oracle_apply_move(surface, m, p):
    """apply_move as it was before the move tables: an if-chain on m.kind."""
    kind = m.kind
    if kind == "V":
        x, y, z = p
        axis = m.arg
        if isinstance(surface, Markoff11):
            if axis == 0:
                return Point3(y * z - x, y, z)
            if axis == 1:
                return Point3(x, x * z - y, z)
            return Point3(x, y, x * y - z)
        if axis == 0:
            return Point3(surface.a - y * z - x, y, z)
        if axis == 1:
            return Point3(x, surface.b - x * z - y, z)
        return Point3(x, y, surface.c - x * y - z)
    if kind == "P":
        if not isinstance(surface, Markoff11):
            raise MoveMismatch("permutations act only on the torus surface")
        s = m.arg
        return Point3(p[s[0]], p[s[1]], p[s[2]])
    if kind == "S":
        if not isinstance(surface, Markoff11):
            raise MoveMismatch("sign changes act only on the torus surface")
        i, j = m.arg
        q = list(p)
        q[i] = -q[i]
        q[j] = -q[j]
        return Point3(*q)
    if kind == "T11":
        if not isinstance(surface, Markoff11):
            raise MoveMismatch("torus twists act only on the torus surface")
        direction = 1 if m.power > 0 else -1
        for _ in range(abs(m.power)):
            p = _oracle_twist_11(m.arg, direction, p)
        return p
    if kind == "T04":
        if not isinstance(surface, Cubic04):
            raise MoveMismatch("sphere twists act only on the four-holed sphere")
        direction = 1 if m.power > 0 else -1
        for _ in range(abs(m.power)):
            p = _oracle_twist_04(surface, m.arg, direction, p)
        return p
    raise ValueError(f"unknown move kind {kind!r}")


_DIFF_MOVES = (
    generators("11", "gamma_prime") + generators("11", "gamma_poly")
    + generators("04", "gamma_prime") + generators("04", "gamma_poly")
    + (Move("P", (2, 0, 1)), Move("P", (1, 2, 0)))
    + tuple(Move("T11", c, n) for c in ("a", "b", "ab") for n in (1, -1, 2, -2, 3, -3))
    + tuple(Move("T04", i, n) for i in (1, 2, 3) for n in (1, -1, 2, -2, 3, -3))
    + (Move("X", 0),)
)


def _diff_cases():
    rng = random.Random(12)
    exact = [Markoff11(BIG + 3), Markoff11(-2), make_cubic04(BIG, -3, 5, BIG // 2),
             make_cubic04(1, 2, 3, 4)]
    approx = [Markoff11(1.5 + 0.5j), make_cubic04(0.5j, 1.25, -2.0 + 1j, 3.0)]
    for surface in exact:
        for _ in range(25):
            yield surface, Point3(*(rng.randint(-BIG, BIG) for _ in range(3)))
    for surface in approx:
        for _ in range(25):
            yield surface, Point3(*(complex(rng.uniform(-9, 9), rng.uniform(-9, 9))
                                    for _ in range(3)))


def _outcome(fn):
    try:
        return fn()
    except (MoveMismatch, ValueError) as exc:
        return type(exc), str(exc)


def test_move_tables_match_if_chain_oracle():
    for surface, p in _diff_cases():
        for m in _DIFF_MOVES:
            want = _outcome(lambda: _oracle_apply_move(surface, m, p))
            got = _outcome(lambda: apply_move(surface, m, p))
            assert got == want, (surface, m, p)
            if isinstance(want, Point3):
                assert type(got) is Point3


def test_move_tables_mismatch_and_unknown_errors():
    torus, sphere, p = Markoff11(-2), make_cubic04(1, 2, 3, 4), Point3(3, 3, 3)
    for m in generators("11", "gamma_prime")[3:] + generators("11", "gamma_poly"):
        with pytest.raises(MoveMismatch):
            apply_move(sphere, m, p)
    for m in generators("04", "gamma_poly"):
        with pytest.raises(MoveMismatch):
            apply_move(torus, m, p)
    for surface in (torus, sphere):
        with pytest.raises(ValueError, match="unknown move kind"):
            apply_move(surface, Move("X", 0), p)
        with pytest.raises(ValueError, match="unknown argument 3 of move kind 'V'"):
            apply_move(surface, Move("V", 3), p)
    with pytest.raises(ValueError, match="^unknown argument 'c' of move kind 'T11'$"):
        dehn_twist_11("c", 1, p)
    with pytest.raises(ValueError, match="^unknown argument 4 of move kind 'T04'$"):
        dehn_twist_04(sphere, 4, 1, p)


@pytest.mark.parametrize("m, message", [
    (Move("V", 7), "unknown argument 7 of move kind 'V'"),
    (Move("P", (0, 1, 2)), "unknown argument (0, 1, 2) of move kind 'P'"),
    (Move("S", (1, 0)), "unknown argument (1, 0) of move kind 'S'"),
    (Move("T11", "c"), "unknown argument 'c' of move kind 'T11'"),
    (Move("T04", 4), "unknown argument 4 of move kind 'T04'"),
    (Move("X", 0), "unknown move kind 'X'"),
    (Move("T11", "a", 0), "twist power must be nonzero"),
    (Move("T04", 1, 0), "twist power must be nonzero"),
    (Move("P", [1, 0, 2]), "unknown argument [1, 0, 2] of move kind 'P'"),
    (Move("P", (1, 0, 2)), MoveMismatch("permutations act only on the torus surface")),
    (Move("T04", 1), MoveMismatch("sphere twists act only on the four-holed sphere")),
])
def test_malformed_move_raises_one_error_everywhere(m, message):
    # applying, compiling and serializing check a move in one place, also
    # against the surface type: a MoveMismatch case runs on the other surface
    error = message if isinstance(message, MoveMismatch) else ValueError(message)
    sphere = (m.kind == "T04") != isinstance(error, MoveMismatch)
    surface = make_cubic04(1, 2, 3, 4) if sphere else Markoff11(-2)
    word, p = MoveWord(surface.kind, (m,)), Point3(3, 3, 3)
    for call in (lambda: apply_move(surface, m, p), lambda: apply_word(surface, word, p),
                 lambda: _compile(surface, (m,)), lambda: str(word)):
        with pytest.raises(type(error)) as excinfo:
            call()
        assert type(excinfo.value) is type(error) and str(excinfo.value) == str(error)


def test_dehn_twists_match_oracle():
    rng = random.Random(13)
    sphere = make_cubic04(BIG, -3, 5, 7)
    for _ in range(50):
        p = Point3(*(rng.randint(-BIG, BIG) for _ in range(3)))
        for direction in (1, -1):
            for which in ("a", "b", "ab"):
                q = dehn_twist_11(which, direction, p)
                assert q == _oracle_twist_11(which, direction, p) and type(q) is Point3
            for index in (1, 2, 3):
                q = dehn_twist_04(sphere, index, direction, p)
                assert q == _oracle_twist_04(sphere, index, direction, p)


def _oracle_bfs(surface, gens, start, cap_height):
    seen = {start}
    queue = deque([start])
    pruned = False
    while queue:
        node = queue.popleft()
        for g in gens:
            child = _oracle_apply_move(surface, g, node)
            if child in seen:
                continue
            if linf_height(child) > cap_height:
                pruned = True
                continue
            seen.add(child)
            queue.append(child)
    return seen, pruned


def test_search_with_twist_powers_matches_oracle_bfs():
    s = Markoff11(-2)
    gens = (Move("T11", "a", 2), Move("T11", "a", -2), Move("T11", "b", 3))
    for start in (Point3(3, 3, 3), Point3(3, 6, 15)):
        for cap in (10**3, 10**6):
            run = orbit_bfs(s, gens, start, cap_height=cap)
            seen, pruned = _oracle_bfs(s, gens, start, cap)
            assert set(run.points()) == seen and run.caps_hit == pruned
            for q in run.points():
                assert apply_word(s, run.word_to(q), start) == q
    run = orbit_bfs(s, gens[:2], Point3(3, 3, 3), cap_height=10**6)
    for q in run.points():
        res = equivalent(s, gens[:2], Point3(3, 3, 3), q)
        assert res.equivalent and apply_word(s, res.word, Point3(3, 3, 3)) == q
    far = Point3(6, 3, 3)  # twists on a fix x
    assert far not in run.parents
    assert not equivalent(s, gens[:2], Point3(3, 3, 3), far).equivalent


def test_search_with_torus_only_generator_on_sphere_raises():
    sphere = make_cubic04(0, 0, 0, 0)
    p, q = Point3(2, 0, 0), Point3(0, 2, 0)
    for m in (Move("P", (1, 0, 2)), Move("S", (0, 1)), Move("T11", "a")):
        with pytest.raises(MoveMismatch):
            orbit_bfs(sphere, (Move("V", 0), m), p, cap_height=10)
        with pytest.raises(MoveMismatch):
            equivalent(sphere, (Move("V", 0), m), p, q)
        with pytest.raises(MoveMismatch):  # also when p == q needs no move
            equivalent(sphere, (Move("V", 0), m), p, p)


# --- properties ---------------------------------------------------------------

_ints = st.one_of(st.integers(-50, 50), st.integers(-BIG, BIG))


@st.composite
def _surfaces(draw):
    if draw(st.booleans()):
        return Markoff11(draw(_ints))
    return make_cubic04(*(draw(_ints) for _ in range(4)))


def _unit_and_powered_moves(kind):
    units = generators(kind, "gamma_prime") + generators(kind, "gamma_poly")
    if kind == "11":
        powered = tuple(Move("T11", c, n) for c in ("a", "b", "ab") for n in (2, -2, 3))
        return units + (Move("P", (2, 0, 1)), Move("P", (1, 2, 0))) + powered
    return units + tuple(Move("T04", i, n) for i in (1, 2, 3) for n in (2, -3))


@st.composite
def _words(draw, kind):
    moves = draw(st.lists(st.sampled_from(_unit_and_powered_moves(kind)), max_size=8))
    return MoveWord(kind, tuple(moves))


_points = st.builds(Point3, _ints, _ints, _ints)
_property = settings(deadline=None, max_examples=150)


@_property
@given(st.data())
def test_property_word_inverse_replays(data):
    s = data.draw(_surfaces())
    w = data.draw(_words(s.kind))
    p = data.draw(_points)
    assert apply_word(s, w.inverse(), apply_word(s, w, p)) == p


def _expand_powers(w):
    moves = []
    for m in w.moves:
        if m.kind in ("T11", "T04"):
            moves.extend([m._replace(power=1 if m.power > 0 else -1)] * abs(m.power))
        else:
            moves.append(m)
    return MoveWord(w.surface_kind, tuple(moves))


@_property
@given(st.data())
def test_property_parse_word_round_trip(data):
    kind = data.draw(st.sampled_from(("11", "04")))
    w = data.draw(_words(kind))
    assert parse_word(str(w), kind) == _expand_powers(w)


@_property
@given(_surfaces(), _points)
def test_property_residual_invariant_under_generators(s, p):
    r = residual(s, p)
    for m in _unit_and_powered_moves(s.kind):
        assert residual(s, apply_move(s, m, p)) == r


@_property
@given(_points)
def test_property_normalize_idempotent_and_orbit_minimal(p):
    form, word = normalize_11(p)
    orbit = _orbit24(p)
    assert normalize_11(form)[0] == form
    assert form in orbit
    assert all(_normal_key(form) <= _normal_key(q) for q in orbit)
    assert apply_word(Markoff11(0), word, p) == form  # symmetries ignore k

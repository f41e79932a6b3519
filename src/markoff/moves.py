"""The elementary move group acting on points of the two cubic surfaces.

Generators come in two flavours per surface type:

* "gamma_prime": Vieta involutions, and (torus case only) coordinate
  transpositions and even sign changes.  On the torus the Vieta move on the
  z-axis is z -> x*y - z; on the four-holed sphere it is z -> c - x*y - z
  (and cyclically for the other axes, reading the matching coefficient).
* "gamma_poly": the polynomial Dehn-twist maps and their inverses.  On the
  torus these are

      twist a : (x, y, z) -> (x, z, x*z - y)
      twist b : (x, y, z) -> (x*y - z, y, x)
      twist ab: (x, y, z) -> (y, y*z - x, z)

  and on the four-holed sphere the three composites of two Vieta
  involutions (index 1 fixes x, index 2 fixes y, index 3 fixes z).

Words of moves are descent certificates.  They serialize to a compact
token string, one token per generator, e.g. "Vz Pyz Ta+ Ta+ Sxy":

    Vx Vy Vz           Vieta involution on an axis
    Pxy Pyz Pxz        transposition of two coordinates
    Pxyz Pxzy          3-cycles (x->y->z->x resp. x->z->y->x)
    Sxy Syz Sxz        even sign change of a coordinate pair
    Ta+ Tb- Tab+ ...   torus Dehn twists (sign = direction)
    T1+ T2- T3+ ...    four-holed sphere Dehn twists

Twist powers compose additively; serialization expands a power-n twist to
|n| unit tokens, and parsing returns unit-power moves.

Each unit move is one plain function f(surface, p) returning a plain
3-tuple, kept in a table per surface class; it is the only place the move
arithmetic is written.  apply_move, apply_word and the two dehn_twist
functions read that table and return Point3.  The searches of orbits and
the descent loop of descent apply moves many times: they fetch their
generators' tuple-valued functions once, through _compile, and build a
Point3 only for the points they keep.
"""

from __future__ import annotations

from typing import NamedTuple

from .surfaces import (
    Cubic04,
    DomainMismatch,
    EXACT,
    Markoff11,
    MoveMismatch,
    Point3,
    Surface,
    point_domain,
)

AXES = "xyz"

# sigma acts by new[i] = p[sigma[i]]
_PERM_TOKENS = {
    (1, 0, 2): "Pxy",
    (0, 2, 1): "Pyz",
    (2, 1, 0): "Pxz",
    (2, 0, 1): "Pxyz",
    (1, 2, 0): "Pxzy",
}
_TOKEN_PERMS = {tok: sigma for sigma, tok in _PERM_TOKENS.items()}
_PERM_INVERSE = {
    (1, 0, 2): (1, 0, 2),
    (0, 2, 1): (0, 2, 1),
    (2, 1, 0): (2, 1, 0),
    (2, 0, 1): (1, 2, 0),
    (1, 2, 0): (2, 0, 1),
}

_SIGN_TOKENS = {(0, 1): "Sxy", (1, 2): "Syz", (0, 2): "Sxz"}
_TOKEN_SIGNS = {tok: pair for pair, tok in _SIGN_TOKENS.items()}

TWIST_CURVES_11 = ("a", "b", "ab")
TWIST_INDICES_04 = (1, 2, 3)


class Move(NamedTuple):
    """One generator: kind is 'V', 'P', 'S', 'T11' or 'T04'."""

    kind: str
    arg: object
    power: int = 1


class MoveWord(NamedTuple):
    """An ordered word of moves tagged with its surface type ('11'/'04')."""

    surface_kind: str
    moves: tuple

    def __str__(self) -> str:
        return word_to_text(self)

    def inverse(self) -> "MoveWord":
        inv = tuple(inverse_move(m) for m in reversed(self.moves))
        return MoveWord(self.surface_kind, inv)


def vieta(axis: int) -> Move:
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
    return Move("V", axis)


def permute(sigma) -> Move:
    sigma = tuple(sigma)
    if sorted(sigma) != [0, 1, 2]:
        raise ValueError(f"not a permutation of (0, 1, 2): {sigma!r}")
    if sigma == (0, 1, 2):
        raise ValueError("identity permutation is not a move")
    return Move("P", sigma)


def transposition(i: int, j: int) -> Move:
    sigma = [0, 1, 2]
    sigma[i], sigma[j] = sigma[j], sigma[i]
    return permute(sigma)


def even_sign(i: int, j: int) -> Move:
    pair = (min(i, j), max(i, j))
    if pair not in _SIGN_TOKENS:
        raise ValueError(f"invalid sign-change pair {(i, j)!r}")
    return Move("S", pair)


def twist11(curve: str, power: int = 1) -> Move:
    if curve not in TWIST_CURVES_11:
        raise ValueError(f"curve must be one of {TWIST_CURVES_11}, got {curve!r}")
    if power == 0:
        raise ValueError("twist power must be nonzero")
    return Move("T11", curve, power)


def twist04(index: int, power: int = 1) -> Move:
    if index not in TWIST_INDICES_04:
        raise ValueError(f"index must be 1, 2 or 3, got {index!r}")
    if power == 0:
        raise ValueError("twist power must be nonzero")
    return Move("T04", index, power)


def inverse_move(m: Move) -> Move:
    if m.kind in ("V", "S"):
        return m
    if m.kind == "P":
        return Move("P", _PERM_INVERSE[m.arg])
    return Move(m.kind, m.arg, -m.power)


# ---------------------------------------------------------------------------
# move arithmetic: one plain function f(surface, p) per unit move
#
# Results are plain tuples, which hash and compare equal to the Point3 of
# the same coordinates.  Callers that return a point build it with
# tuple.__new__, which skips the Python-level Point3.__new__ of the
# NamedTuple and gives an equal Point3.

_new = tuple.__new__


def _vx11(s, p):
    x, y, z = p
    return y * z - x, y, z


def _vy11(s, p):
    x, y, z = p
    return x, x * z - y, z


def _vz11(s, p):
    x, y, z = p
    return x, y, x * y - z


def _vx04(s, p):
    x, y, z = p
    return s.a - y * z - x, y, z


def _vy04(s, p):
    x, y, z = p
    return x, s.b - x * z - y, z


def _vz04(s, p):
    x, y, z = p
    return x, y, s.c - x * y - z


def _pxy(s, p):
    x, y, z = p
    return y, x, z


def _pyz(s, p):
    x, y, z = p
    return x, z, y


def _pxz(s, p):
    x, y, z = p
    return z, y, x


def _pxyz(s, p):
    x, y, z = p
    return z, x, y


def _pxzy(s, p):
    x, y, z = p
    return y, z, x


def _sxy(s, p):
    x, y, z = p
    return -x, -y, z


def _syz(s, p):
    x, y, z = p
    return x, -y, -z


def _sxz(s, p):
    x, y, z = p
    return -x, y, -z


def _ta_fwd(s, p):
    x, y, z = p
    return x, z, x * z - y


def _ta_inv(s, p):
    x, y, z = p
    return x, x * y - z, y


def _tb_fwd(s, p):
    x, y, z = p
    return x * y - z, y, x


def _tb_inv(s, p):
    x, y, z = p
    return z, y, y * z - x


def _tab_fwd(s, p):
    x, y, z = p
    return y, y * z - x, z


def _tab_inv(s, p):
    x, y, z = p
    return x * z - y, x, z


# Each sphere twist is two Vieta involutions: index 1 fixes x, 2 fixes y
# and 3 fixes z.


def _t1_fwd(s, p):
    x, y, z = p
    y1 = s.b - x * z - y
    return x, y1, s.c - x * y1 - z


def _t1_inv(s, p):
    x, y, z = p
    z1 = s.c - x * y - z
    return x, s.b - x * z1 - y, z1


def _t2_fwd(s, p):
    x, y, z = p
    z1 = s.c - x * y - z
    return s.a - y * z1 - x, y, z1


def _t2_inv(s, p):
    x, y, z = p
    x1 = s.a - y * z - x
    return x1, y, s.c - x1 * y - z


def _t3_fwd(s, p):
    x, y, z = p
    x1 = s.a - y * z - x
    return x1, s.b - x1 * z - y, z


def _t3_inv(s, p):
    x, y, z = p
    y1 = s.b - x * z - y
    return s.a - y1 * z - x, y1, z


_TORUS_MOVES = {
    Move("V", 0): _vx11, Move("V", 1): _vy11, Move("V", 2): _vz11,
    Move("P", (1, 0, 2)): _pxy, Move("P", (0, 2, 1)): _pyz, Move("P", (2, 1, 0)): _pxz,
    Move("P", (2, 0, 1)): _pxyz, Move("P", (1, 2, 0)): _pxzy,
    Move("S", (0, 1)): _sxy, Move("S", (1, 2)): _syz, Move("S", (0, 2)): _sxz,
    Move("T11", "a", 1): _ta_fwd, Move("T11", "a", -1): _ta_inv,
    Move("T11", "b", 1): _tb_fwd, Move("T11", "b", -1): _tb_inv,
    Move("T11", "ab", 1): _tab_fwd, Move("T11", "ab", -1): _tab_inv,
}
_SPHERE_MOVES = {
    Move("V", 0): _vx04, Move("V", 1): _vy04, Move("V", 2): _vz04,
    Move("T04", 1, 1): _t1_fwd, Move("T04", 1, -1): _t1_inv,
    Move("T04", 2, 1): _t2_fwd, Move("T04", 2, -1): _t2_inv,
    Move("T04", 3, 1): _t3_fwd, Move("T04", 3, -1): _t3_inv,
}
_MOVE_TABLES = {Markoff11: _TORUS_MOVES, Cubic04: _SPHERE_MOVES}

# kinds defined on one surface class only, with the error raised elsewhere
_SURFACE_ONLY = {
    "P": (Markoff11, "permutations act only on the torus surface"),
    "S": (Markoff11, "sign changes act only on the torus surface"),
    "T11": (Markoff11, "torus twists act only on the torus surface"),
    "T04": (Cubic04, "sphere twists act only on the four-holed sphere"),
}
_ARG_NAMES = {
    "V": "Vieta axis",
    "P": "permutation",
    "S": "sign-change pair",
    "T11": "torus twist curve",
    "T04": "sphere twist index",
}


def _raw_move(surface: Surface, m: Move):
    """The tuple-valued function f with Point3(*f(surface, p)) ==
    apply_move(surface, m, p).

    A unit move comes straight from the table of the surface's class; a
    twist of power n repeats its unit twist |n| times (involutions and
    permutations ignore the power).  Raises MoveMismatch for a move not
    defined on the surface and ValueError for an unknown move.
    """
    f = _MOVE_TABLES.get(type(surface), {}).get(m)
    if f is not None:
        return f
    kind = m.kind
    if kind not in _ARG_NAMES:
        raise ValueError(f"unknown move kind {kind!r}")
    only = _SURFACE_ONLY.get(kind)
    if only is not None and not isinstance(surface, only[0]):
        raise MoveMismatch(only[1])
    twist = kind in ("T11", "T04")
    unit_power = (1 if m.power > 0 else -1) if twist else 1
    table = _TORUS_MOVES if isinstance(surface, Markoff11) else _SPHERE_MOVES
    unit = table.get(Move(kind, m.arg, unit_power))
    if unit is None:
        raise ValueError(f"unknown {_ARG_NAMES[kind]} {m.arg!r}")
    if not twist or m.power in (1, -1):
        return unit
    n = abs(m.power)

    def repeated(surface, p):
        for _ in range(n):
            p = unit(surface, p)
        return p

    return repeated


def _compile(surface: Surface, gens) -> tuple:
    """(move, tuple-valued function) pairs for a generator-set name or a
    sequence of moves, so a loop that applies moves many times calls each
    function directly instead of going through apply_move."""
    if isinstance(gens, str):
        gens = generators(surface.kind, gens)
    return tuple((g, _raw_move(surface, g)) for g in gens)


def apply_move(surface: Surface, m: Move, p: Point3) -> Point3:
    """Apply one move; raises MoveMismatch if it is undefined on the surface."""
    try:
        f = _MOVE_TABLES[type(surface)][m]
    except KeyError:
        f = _raw_move(surface, m)
    return _new(Point3, f(surface, p))


def dehn_twist_11(which: str, direction: int, p: Point3) -> Point3:
    """One torus Dehn twist (direction +1) or its inverse (-1)."""
    f = _TORUS_MOVES.get(Move("T11", which, 1 if direction > 0 else -1))
    if f is None:
        raise ValueError(f"unknown torus twist curve {which!r}")
    return _new(Point3, f(None, p))  # torus moves read nothing from the surface


def dehn_twist_04(surface: Cubic04, index: int, direction: int, p: Point3) -> Point3:
    """One four-holed sphere Dehn twist; each is two Vieta involutions."""
    f = _SPHERE_MOVES.get(Move("T04", index, 1 if direction > 0 else -1))
    if f is None:
        raise ValueError(f"unknown sphere twist index {index!r}")
    return _new(Point3, f(surface, p))


def apply_word(surface: Surface, w: MoveWord, p: Point3) -> Point3:
    """Left-to-right application of a move word.

    The surface's move table is looked up once per word, the moves run on
    plain tuples, and one Point3 is built at the end.
    """
    if w.surface_kind != surface.kind:
        raise MoveMismatch(
            f"word tagged for surface type {w.surface_kind}, got {surface.kind}"
        )
    table = _MOVE_TABLES.get(type(surface), {})
    for m in w.moves:
        f = table.get(m)
        if f is None:
            f = _raw_move(surface, m)
        p = f(surface, p)
    return _new(Point3, p)


def _move_tokens(m: Move):
    if m.kind == "V":
        yield "V" + AXES[m.arg]
    elif m.kind == "P":
        yield _PERM_TOKENS[m.arg]
    elif m.kind == "S":
        yield _SIGN_TOKENS[m.arg]
    elif m.kind == "T11":
        tok = "T" + m.arg + ("+" if m.power > 0 else "-")
        for _ in range(abs(m.power)):
            yield tok
    elif m.kind == "T04":
        tok = "T" + str(m.arg) + ("+" if m.power > 0 else "-")
        for _ in range(abs(m.power)):
            yield tok
    else:
        raise ValueError(f"unknown move kind {m.kind!r}")


def word_to_text(w: MoveWord) -> str:
    return " ".join(tok for m in w.moves for tok in _move_tokens(m))


def _parse_token(tok: str, surface_kind: str) -> Move:
    if tok.startswith("V") and len(tok) == 2 and tok[1] in AXES:
        return vieta(AXES.index(tok[1]))
    if tok in _TOKEN_PERMS:
        return Move("P", _TOKEN_PERMS[tok])
    if tok in _TOKEN_SIGNS:
        return Move("S", _TOKEN_SIGNS[tok])
    if tok.startswith("T") and tok[-1] in "+-":
        power = 1 if tok[-1] == "+" else -1
        name = tok[1:-1]
        if surface_kind == "11" and name in TWIST_CURVES_11:
            return Move("T11", name, power)
        if surface_kind == "04" and name in ("1", "2", "3"):
            return Move("T04", int(name), power)
    raise ValueError(f"unparseable move token {tok!r} for surface type {surface_kind}")


def parse_word(text: str, surface_kind: str) -> MoveWord:
    """Inverse of str(word); twist powers come back as unit moves."""
    moves = tuple(_parse_token(tok, surface_kind) for tok in text.split())
    return MoveWord(surface_kind, moves)


def concat_words(w1: MoveWord, w2: MoveWord) -> MoveWord:
    if w1.surface_kind != w2.surface_kind:
        raise MoveMismatch("cannot concatenate words for different surface types")
    return MoveWord(w1.surface_kind, w1.moves + w2.moves)


def identity_word(surface_kind: str) -> MoveWord:
    return MoveWord(surface_kind, ())


# The 24-element group of coordinate permutations and even sign changes,
# enumerated once as (word, action) pairs.  Sign patterns with an even
# number of minus signs are exactly: none, or one even_sign move.
_SIGN_ELEMENTS = (((), (1, 1, 1)),) + tuple(
    ((Move("S", pair),), tuple(-1 if i in pair else 1 for i in range(3)))
    for pair in ((0, 1), (1, 2), (0, 2))
)
_PERM_ELEMENTS = (((), (0, 1, 2)),) + tuple(
    ((Move("P", sigma),), sigma) for sigma in _PERM_TOKENS
)


def normalize_11(p: Point3) -> tuple:
    """Canonical representative of p under permutations and even sign changes.

    Chosen as the minimum over all 24 group images of the key
    (is-unsorted-by-modulus, number of negatives, negative positions,
    coordinates), which realizes: |x| <= |y| <= |z|, at most one negative
    coordinate, a negative coordinate (if any) placed last, remaining ties
    broken by lexicographic order.  Returns (canonical point, word).
    """
    if point_domain(p) != EXACT:
        raise DomainMismatch("normalize_11 requires an exact point")
    best = None
    best_word = None
    best_key = None
    for perm_word, sigma in _PERM_ELEMENTS:
        q0 = (p[sigma[0]], p[sigma[1]], p[sigma[2]])
        for sign_word, signs in _SIGN_ELEMENTS:
            q = (q0[0] * signs[0], q0[1] * signs[1], q0[2] * signs[2])
            word = perm_word + sign_word
            key = (
                0 if abs(q[0]) <= abs(q[1]) <= abs(q[2]) else 1,
                sum(1 for v in q if v < 0),
                tuple(1 if v < 0 else 0 for v in q),
                q,
                len(word),
            )
            if best_key is None or key < best_key:
                best_key = key
                best = q
                best_word = word
    return Point3(*best), MoveWord("11", best_word)


VIETA_MOVES = (Move("V", 0), Move("V", 1), Move("V", 2))


# the generator sets, by (surface kind, name): "gamma_prime" is the Vieta
# involutions, plus the transpositions and even sign changes on the torus;
# "gamma_poly" is the Dehn twists and their inverses
_GENERATORS = {
    ("11", "gamma_prime"): VIETA_MOVES + (
        Move("P", (1, 0, 2)), Move("P", (0, 2, 1)), Move("P", (2, 1, 0)),
        Move("S", (0, 1)), Move("S", (1, 2)), Move("S", (0, 2)),
    ),
    ("04", "gamma_prime"): VIETA_MOVES,
    ("11", "gamma_poly"): tuple(
        Move("T11", curve, power) for curve in TWIST_CURVES_11 for power in (1, -1)
    ),
    ("04", "gamma_poly"): tuple(
        Move("T04", index, power) for index in TWIST_INDICES_04 for power in (1, -1)
    ),
}

GENERATOR_SETS = ("gamma_prime", "gamma_poly")


def generators(surface_kind: str, name: str) -> tuple:
    try:
        return _GENERATORS[surface_kind, name]
    except KeyError:
        raise ValueError(f"unknown generator set {name!r}") from None

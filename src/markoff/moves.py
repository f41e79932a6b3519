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

A move is a Move value, written directly or parsed from its token.
Each unit move is one row of the registry _UNITS: its token, its Move and
its plain function f(surface, p) on each surface class, returning a plain
3-tuple.  The row is the only place the move is named and its arithmetic
written; the move tables, the token maps and the twist generator sets
derive from it.  A move that is not a row, or is not defined on the
surface type, is checked in one place, _unit, so apply_move, apply_word,
_compile and str(word) reject the same moves with the same error.
apply_move, apply_word and the two dehn_twist functions read the tables
and return Point3.  The searches of orbits and the descent loop of
descent apply moves many times: they fetch their generators' tuple-valued
functions once, through _compile, and build a Point3 only for the points
they keep.
"""

from __future__ import annotations

from collections import namedtuple

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


class Move(namedtuple("Move", "kind arg power", defaults=(1,))):
    """One generator: kind is 'V', 'P', 'S', 'T11' or 'T04'."""

    __slots__ = ()


class MoveWord(namedtuple("MoveWord", "surface_kind moves")):
    """An ordered word of moves tagged with its surface type ('11'/'04')."""

    __slots__ = ()

    def __str__(self) -> str:
        return word_to_text(self)

    def inverse(self) -> "MoveWord":
        inv = tuple(inverse_move(m) for m in reversed(self.moves))
        return MoveWord(self.surface_kind, inv)


def inverse_move(m: Move) -> Move:
    if m.kind in ("V", "S"):
        return m
    if m.kind == "P":
        return Move("P", tuple(m.arg.index(i) for i in range(3)))
    return Move(m.kind, m.arg, -m.power)


# ---------------------------------------------------------------------------
# move arithmetic: one plain function f(surface, p) per unit move
#
# Results are plain tuples, which hash and compare equal to the Point3 of
# the same coordinates.  Callers that return a point build it with
# tuple.__new__, which skips the Python-level Point3.__new__ of the
# namedtuple and gives an equal Point3.

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


# The registry: one row (token, move, torus function, sphere function) per
# unit move, None where the move is undefined.  Twists of other powers and
# every word are built from these rows.
_UNITS = (
    ("Vx", Move("V", 0), _vx11, _vx04),
    ("Vy", Move("V", 1), _vy11, _vy04),
    ("Vz", Move("V", 2), _vz11, _vz04),
    ("Pxy", Move("P", (1, 0, 2)), _pxy, None),
    ("Pyz", Move("P", (0, 2, 1)), _pyz, None),
    ("Pxz", Move("P", (2, 1, 0)), _pxz, None),
    ("Pxyz", Move("P", (2, 0, 1)), _pxyz, None),
    ("Pxzy", Move("P", (1, 2, 0)), _pxzy, None),
    ("Sxy", Move("S", (0, 1)), _sxy, None),
    ("Syz", Move("S", (1, 2)), _syz, None),
    ("Sxz", Move("S", (0, 2)), _sxz, None),
    ("Ta+", Move("T11", "a", 1), _ta_fwd, None),
    ("Ta-", Move("T11", "a", -1), _ta_inv, None),
    ("Tb+", Move("T11", "b", 1), _tb_fwd, None),
    ("Tb-", Move("T11", "b", -1), _tb_inv, None),
    ("Tab+", Move("T11", "ab", 1), _tab_fwd, None),
    ("Tab-", Move("T11", "ab", -1), _tab_inv, None),
    ("T1+", Move("T04", 1, 1), None, _t1_fwd),
    ("T1-", Move("T04", 1, -1), None, _t1_inv),
    ("T2+", Move("T04", 2, 1), None, _t2_fwd),
    ("T2-", Move("T04", 2, -1), None, _t2_inv),
    ("T3+", Move("T04", 3, 1), None, _t3_fwd),
    ("T3-", Move("T04", 3, -1), None, _t3_inv),
)
_TORUS_MOVES = {m: f for _, m, f, _ in _UNITS if f is not None}
_SPHERE_MOVES = {m: f for _, m, _, f in _UNITS if f is not None}
_MOVE_TABLES = {Markoff11: _TORUS_MOVES, Cubic04: _SPHERE_MOVES}
_TOKENS = {m: tok for tok, m, _, _ in _UNITS}
_PARSE = {
    "11": {tok: m for tok, m, f, _ in _UNITS if f is not None},
    "04": {tok: m for tok, m, _, f in _UNITS if f is not None},
}
_TEXT = {kind: {m: tok for tok, m in table.items()} for kind, table in _PARSE.items()}
_KINDS = {m.kind for _, m, _, _ in _UNITS}

# kinds defined on one surface type only, with the error raised elsewhere
_SURFACE_ONLY = {
    "P": ("11", "permutations act only on the torus surface"),
    "S": ("11", "sign changes act only on the torus surface"),
    "T11": ("11", "torus twists act only on the torus surface"),
    "T04": ("04", "sphere twists act only on the four-holed sphere"),
}


def _unit(m: Move, surface_kind: str) -> tuple:
    """(unit move, repeat count) of m on a surface of type surface_kind: a
    twist of power n is its unit twist |n| times; involutions and
    permutations ignore the power.  The one check of a move: raises
    ValueError for an unknown kind, then MoveMismatch for a kind not defined
    on the surface type, then ValueError for an argument no row of _UNITS
    has (an unhashable one included) and for a twist of power 0.  Callers
    reach it from a failed table lookup, which is no part of the error.
    """
    if m.kind not in _KINDS:
        raise ValueError(f"unknown move kind {m.kind!r}") from None
    only = _SURFACE_ONLY.get(m.kind)
    if only is not None and only[0] != surface_kind:
        raise MoveMismatch(only[1]) from None
    twist = m.kind in ("T11", "T04")
    unit = m._replace(power=-1 if twist and m.power < 0 else 1)
    try:
        known = unit in _TOKENS
    except TypeError:  # an unhashable argument
        known = False
    if not known:
        raise ValueError(f"unknown argument {m.arg!r} of move kind {m.kind!r}") from None
    if twist and m.power == 0:
        raise ValueError("twist power must be nonzero") from None
    return unit, abs(m.power) if twist else 1


def _raw_move(surface: Surface, m: Move):
    """The tuple-valued function f with Point3(*f(surface, p)) ==
    apply_move(surface, m, p).

    A unit move comes straight from the table of the surface's class, any
    other move, or one that does not hash, from its unit move (see _unit).
    """
    try:
        return _MOVE_TABLES[type(surface)][m]
    except (KeyError, TypeError):
        pass
    unit, n = _unit(m, surface.kind)
    f = (_TORUS_MOVES if isinstance(surface, Markoff11) else _SPHERE_MOVES)[unit]
    if n == 1:
        return f

    def repeated(surface, p):
        for _ in range(n):
            p = f(surface, p)
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
    return _new(Point3, _raw_move(surface, m)(surface, p))


_TORUS = Markoff11(0)  # torus moves read nothing from the surface, so any k serves


def dehn_twist_11(which: str, direction: int, p: Point3) -> Point3:
    """One torus Dehn twist (direction +1) or its inverse (-1)."""
    return apply_move(_TORUS, _new(Move, ("T11", which, 1 if direction > 0 else -1)), p)


def dehn_twist_04(surface: Cubic04, index: int, direction: int, p: Point3) -> Point3:
    """One four-holed sphere Dehn twist; each is two Vieta involutions."""
    return apply_move(surface, _new(Move, ("T04", index, 1 if direction > 0 else -1)), p)


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
        try:
            f = table[m]
        except (KeyError, TypeError):
            f = _raw_move(surface, m)
        p = f(surface, p)
    return _new(Point3, p)


def word_to_text(w: MoveWord) -> str:
    """The tokens of w's moves; a move not defined on w's surface type
    raises the error apply_word raises for it."""
    table = _TEXT.get(w.surface_kind, {})
    tokens = []
    for m in w.moves:
        try:
            tokens.append(table[m])
        except (KeyError, TypeError):  # a twist power, or a move to reject
            unit, n = _unit(m, w.surface_kind)
            tokens += [_TOKENS[unit]] * n
    return " ".join(tokens)


def parse_word(text: str, surface_kind: str) -> MoveWord:
    """Inverse of str(word); twist powers come back as unit moves, and a
    token of a move undefined on the surface type is a ValueError."""
    table = _PARSE.get(surface_kind, {})
    moves = []
    for tok in text.split():
        if tok not in table:
            raise ValueError(f"unparseable move token {tok!r} for surface type {surface_kind}")
        moves.append(table[tok])
    return MoveWord(surface_kind, tuple(moves))


def concat_words(w1: MoveWord, w2: MoveWord) -> MoveWord:
    if w1.surface_kind != w2.surface_kind:
        raise MoveMismatch("cannot concatenate words for different surface types")
    return MoveWord(w1.surface_kind, w1.moves + w2.moves)


def identity_word(surface_kind: str) -> MoveWord:
    return MoveWord(surface_kind, ())


def normalize_11(p: Point3) -> tuple:
    """Canonical representative of p under permutations and even sign changes.

    The canonical point has |x| <= |y| <= |z| and a minus on z iff xyz < 0:
    the least of the 24 group images under the key (is-unsorted-by-modulus,
    number of negatives, negative positions, coordinates).  Its word is at
    most one permutation, then at most one sign change, and no longer than
    any other word to that point.  The permutation sorts the axes stably by
    modulus, and when xyz < 0 puts a coordinate equal to -max|p| last among
    equal moduli; the sign change flips the coordinates whose sign is wrong
    (a lone one pairs with a zero coordinate).  Returns (canonical point,
    word).
    """
    if point_domain(p) != EXACT:
        raise DomainMismatch("normalize_11 requires an exact point")
    odd = p[0] * p[1] * p[2] < 0
    low = -max(abs(v) for v in p)
    sigma = tuple(sorted(range(3), key=lambda i: (abs(p[i]), odd and p[i] == low)))
    q = [p[i] for i in sigma]
    word = () if sigma == (0, 1, 2) else (Move("P", sigma),)
    flip = [i for i in range(3) if (q[i] < 0) != (odd and i == 2)]
    if len(flip) == 1:
        flip.append(q.index(0))
    if flip:
        word += (Move("S", tuple(sorted(flip))),)
    return _new(Point3, _canon_11(p)), MoveWord("11", word)


def _canon_11(p) -> tuple:
    """normalize_11(p)'s point, with no word, as a plain tuple; compare-swaps sort it."""
    x, y, z = p
    a, b, c = abs(x), abs(y), abs(z)
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
        if a > b:
            a, b = b, a
    return (a, b, -c) if x * y * z < 0 else (a, b, c)


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
    ("11", "gamma_poly"): tuple(m for m in _TORUS_MOVES if m.kind == "T11"),
    ("04", "gamma_poly"): tuple(m for m in _SPHERE_MOVES if m.kind == "T04"),
}

GENERATOR_SETS = ("gamma_prime", "gamma_poly")


def generators(surface_kind: str, name: str) -> tuple:
    try:
        return _GENERATORS[surface_kind, name]
    except KeyError:
        raise ValueError(f"unknown generator set {name!r}") from None

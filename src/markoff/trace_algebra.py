"""Exact 2x2 matrix algebra: the representation-level ground truth.

Everything downstream of this module is a polynomial shadow of identities
that hold for determinant-one 2x2 matrices.  Here we keep the matrices
themselves: trace identities, Fricke coordinates (tr A, tr B, tr AB),
the two defining relations of the rank-3 free group trace ring, boundary
data of four-holed sphere representations, and matrix-level lifts of the
Dehn twists that must descend to the polynomial maps in `moves`.

Inverses are adjugates (swap diagonal, negate off-diagonal), so all of
this is exact over the integers.

Twist lift conventions, frozen after checking the commuting square
fricke o lift == twist o fricke on random exact inputs:

    torus, curve a : (A, B) -> (A, A B)        inverse (A, A^-1 B)
    torus, curve b : (A, B) -> (A B^-1, B)     inverse (A B, B)
    torus, curve ab: (A, B) -> (B^-1, B A B)   inverse (A B A, A^-1)

    sphere, index 1: conjugate (C1, C2) by D = C1 C2 (inverse: by D^-1)
    sphere, index 2: conjugate (C2, C3) by D = C2 C3 (inverse: by D^-1)
    sphere, index 3: the index-1 lift transported by the braid move
                     (C1, C2, C3, C4) -> (C1, C3, C3^-1 C2 C3, C4), which
                     brings the pair with product C1 C3 adjacent

Each lift preserves the defining product relation and all boundary
traces, and the direction signs below are the ones that make the
commuting square hold with `dehn_twist_11` / `dehn_twist_04` direction +1.

`IDENTITY_SUITES` is the one registry of randomized cross-checks: the
trace identities, the boundary-trace laws, both commuting squares, the
twist = Vieta/permutation decompositions of `moves` and residual
invariance under every generator.  Each entry is (name, suite) with
suite(rng, trials) -> bool.  `markoff verify` runs every suite and the
acceptance tests run them by name at their own seeds and trial counts.
"""

from __future__ import annotations

from collections import namedtuple

from .surfaces import (
    Markoff11,
    Point3,
    RelationViolation,
    Scalar,
    boundary_trace_11,
    common_domain,
    make_cubic04,
    residual,
)
from .moves import (
    _TORUS,
    apply_move,
    apply_word,
    dehn_twist_04,
    dehn_twist_11,
    generators,
    parse_word,
)

DET_TOL = 1e-9


class Mat2(namedtuple("Mat2", "m11 m12 m21 m22")):
    """A 2x2 matrix (m11, m12, m21, m22), normally of determinant one."""

    __slots__ = ()


IDENTITY = Mat2(1, 0, 0, 1)

# The two standard unipotent generators of SL2(Z).
UNIPOTENT_UPPER = Mat2(1, 1, 0, 1)
UNIPOTENT_LOWER = Mat2(1, 0, 1, 1)


_new = tuple.__new__  # builds a namedtuple without its Python-level __new__


def mat_mul(m: Mat2, n: Mat2) -> Mat2:
    a, b, c, d = m
    e, f, g, h = n
    return _new(Mat2, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))


def mat_inv(m: Mat2) -> Mat2:
    """Adjugate inverse; exact, valid only for determinant one."""
    a, b, c, d = m
    return _new(Mat2, (d, -b, -c, a))


def mat_trace(m: Mat2) -> Scalar:
    return m.m11 + m.m22


def mat_det(m: Mat2) -> Scalar:
    return m.m11 * m.m22 - m.m12 * m.m21


def check_sl2(m: Mat2) -> Mat2:
    """Validate det(m) = 1 (exactly, or within DET_TOL in the approx domain)."""
    d = mat_det(m)
    if common_domain(m) == "exact":
        ok = d == 1
    else:
        ok = abs(d - 1) <= DET_TOL
    if not ok:
        raise RelationViolation(f"matrix has determinant {d!r}, expected 1")
    return m


class Pair(namedtuple("Pair", "A B")):
    """A torus representation: monodromies (A, B) of the two core loops."""

    __slots__ = ()


class Quad(namedtuple("Quad", "C1 C2 C3 C4")):
    """A four-holed sphere representation: boundary monodromies with
    C1*C2*C3*C4 = identity."""

    __slots__ = ()


def make_pair(A: Mat2, B: Mat2) -> Pair:
    return _new(Pair, (check_sl2(A), check_sl2(B)))


def make_quad(C1: Mat2, C2: Mat2, C3: Mat2, C4: Mat2 | None = None) -> Quad:
    """Build a quad; C4 defaults to (C1 C2 C3)^-1.  Validates the relation."""
    for m in (C1, C2, C3):
        check_sl2(m)
    c12 = mat_mul(C1, C2)
    if C4 is None:
        C4 = mat_inv(mat_mul(c12, C3))
    else:
        check_sl2(C4)
    prod = mat_mul(c12, mat_mul(C3, C4))
    if common_domain(prod) == "exact":
        ok = prod == IDENTITY
    else:
        ok = all(abs(u - v) <= DET_TOL for u, v in zip(prod, IDENTITY))
    if not ok:
        raise RelationViolation("C1*C2*C3*C4 is not the identity")
    return _new(Quad, (C1, C2, C3, C4))


def _trace_mul(m: Mat2, n: Mat2) -> Scalar:
    """tr(m n), the diagonal of mat_mul(m, n) summed as mat_trace sums it."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g) + (c * f + d * h)


def trace_product_identity(A: Mat2, B: Mat2) -> Scalar:
    """tr(A)tr(B) - tr(AB) - tr(AB^-1); identically zero on SL2."""
    return mat_trace(A) * mat_trace(B) - _trace_mul(A, B) - _trace_mul(A, mat_inv(B))


def fricke_coords(A: Mat2, B: Mat2) -> Point3:
    """(tr A, tr B, tr AB), the coordinates of the torus trace surface."""
    return _new(Point3, (mat_trace(A), mat_trace(B), _trace_mul(A, B)))


def commutator_trace(A: Mat2, B: Mat2) -> Scalar:
    """tr(A B A^-1 B^-1): equals boundary_trace_11(fricke_coords(A, B))."""
    return _trace_mul(mat_mul(A, B), mat_mul(mat_inv(A), mat_inv(B)))


def f3_relations(A1: Mat2, A2: Mat2, A3: Mat2) -> tuple:
    """Residuals of the two defining relations of the rank-3 trace ring.

    In the nine trace coordinates t_i = tr A_i, t_ij = tr A_i A_j,
    t_123 = tr A_1 A_2 A_3, t_132 = tr A_1 A_3 A_2:

      r1 = t123 + t132 - (t12 t3 + t13 t2 + t23 t1 - t1 t2 t3)
      r2 = t123 * t132 - { (t1^2 + t2^2 + t3^2) + (t12^2 + t23^2 + t13^2)
             - (t1 t2 t12 + t2 t3 t23 + t1 t3 t13) + t12 t23 t13 - 4 }

    Both vanish for every SL2 triple.
    """
    t1, t2, t3 = mat_trace(A1), mat_trace(A2), mat_trace(A3)
    t12, t23, t13 = _trace_mul(A1, A2), _trace_mul(A2, A3), _trace_mul(A1, A3)
    t123 = _trace_mul(mat_mul(A1, A2), A3)
    t132 = _trace_mul(mat_mul(A1, A3), A2)
    r1 = t123 + t132 - (t12 * t3 + t13 * t2 + t23 * t1 - t1 * t2 * t3)
    r2 = t123 * t132 - (
        (t1 * t1 + t2 * t2 + t3 * t3)
        + (t12 * t12 + t23 * t23 + t13 * t13)
        - (t1 * t2 * t12 + t2 * t3 * t23 + t1 * t3 * t13)
        + t12 * t23 * t13
        - 4
    )
    return r1, r2


def quad_to_04_point(q: Quad) -> tuple:
    """Surface with parameters k_i = tr C_i and the point
    (tr C1C2, tr C2C3, tr C1C3); the point always satisfies residual 0."""
    return make_cubic04(*map(mat_trace, q)), _quad_point(q)


def _quad_point(q: Quad) -> Point3:
    """quad_to_04_point(q)'s point alone."""
    C1, C2, C3, _ = q
    return _new(Point3, (_trace_mul(C1, C2), _trace_mul(C2, C3), _trace_mul(C1, C3)))


def lift_twist_11(which: str, pair: Pair, direction: int = 1) -> Pair:
    """Matrix-level torus Dehn twist; descends to dehn_twist_11."""
    A, B = pair
    if which == "a":
        if direction > 0:
            return _new(Pair, (A, mat_mul(A, B)))
        return _new(Pair, (A, mat_mul(mat_inv(A), B)))
    if which == "b":
        if direction > 0:
            return _new(Pair, (mat_mul(A, mat_inv(B)), B))
        return _new(Pair, (mat_mul(A, B), B))
    if which == "ab":
        if direction > 0:
            return _new(Pair, (mat_inv(B), mat_mul(mat_mul(B, A), B)))
        return _new(Pair, (mat_mul(mat_mul(A, B), A), mat_inv(A)))
    raise ValueError(f"unknown torus twist curve {which!r}")


def _conjugate(D: Mat2, m: Mat2) -> Mat2:
    """D m D^-1, with D^-1 the adjugate of D."""
    p, q, r, s = D
    a, b, c, d = m
    u, v, w, x = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d  # D m
    return _new(Mat2, (u * s - v * r, v * p - u * q, w * s - x * r, x * p - w * q))


def _lift_04_adjacent(first: int, q: Quad, direction: int) -> Quad:
    """Conjugate the adjacent pair (C_first, C_first+1) by its product."""
    ms = list(q)
    D = mat_mul(ms[first], ms[first + 1])
    if direction < 0:
        D = mat_inv(D)
    ms[first] = _conjugate(D, ms[first])
    ms[first + 1] = _conjugate(D, ms[first + 1])
    return _new(Quad, ms)


def _braid_23(q: Quad) -> Quad:
    """(C1, C2, C3, C4) -> (C1, C2 C3 C2^-1, C2, C4); preserves the relation."""
    return _new(Quad, (q.C1, _conjugate(q.C2, q.C3), q.C2, q.C4))


def _braid_23_inv(q: Quad) -> Quad:
    return _new(Quad, (q.C1, q.C3, _conjugate(mat_inv(q.C3), q.C2), q.C4))


def lift_twist_04(index: int, q: Quad, direction: int = 1) -> Quad:
    """Matrix-level four-holed sphere Dehn twist; descends to dehn_twist_04.

    Indices 1 and 2 conjugate the adjacent boundary pair (C1, C2)
    resp. (C2, C3) by its product.  Index 3 is the index-1 lift
    transported by the braid move, so that it twists along the curve with
    trace tr C1C3.  Direction signs are the frozen empirical conventions.
    """
    if index == 1:
        return _lift_04_adjacent(0, q, direction)
    if index == 2:
        return _lift_04_adjacent(1, q, direction)
    if index == 3:
        return _braid_23(_lift_04_adjacent(0, _braid_23_inv(q), direction))
    raise ValueError(f"unknown sphere twist index {index!r}")


def random_sl2(rng, max_len: int = 10) -> Mat2:
    """Random exact SL2(Z) matrix: a bounded word in UNIPOTENT_UPPER,
    UNIPOTENT_LOWER and their inverses (draws 0-3), each step a right
    multiplication, which adds one column to the other or subtracts it.
    Its draws, randint(0, max_len) then randrange(4) a step, copy CPython's
    Random._randbelow_with_getrandbits, which a test guards: randrange(n)
    is getrandbits(n.bit_length()) drawn again while >= n."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    a, b, c, d = IDENTITY
    bits, n = rng.getrandbits, max_len + 1
    while (length := bits(n.bit_length())) >= n:
        pass
    for _ in range(length):
        while (step := bits(3)) > 3:
            pass
        if step == 0:
            b, d = b + a, d + c
        elif step == 1:
            a, c = a + b, c + d
        elif step == 2:
            b, d = b - a, d - c
        else:
            a, c = a - b, c - d
    return _new(Mat2, (a, b, c, d))


def random_quad(rng, max_len: int = 8) -> Quad:
    """Random exact quad with C4 forced by the product relation."""
    return make_quad(
        random_sl2(rng, max_len), random_sl2(rng, max_len), random_sl2(rng, max_len)
    )


# ---------------------------------------------------------------------------
# identity suites
#
# One trial of each check draws its own inputs from `rng` and says whether
# the identity held.  All draws come from one fixed distribution: SL2 and
# quad words of length at most 6, points in [-100, 100]^3 and sphere
# parameters in [-8, 8].


def _sl2(rng) -> Mat2:
    return random_sl2(rng, 6)


def _quad(rng) -> Quad:
    return random_quad(rng, 6)


def _point(rng) -> Point3:
    return _new(Point3, (rng.randint(-100, 100), rng.randint(-100, 100), rng.randint(-100, 100)))


def _trace_identity(rng) -> bool:
    return trace_product_identity(_sl2(rng), _sl2(rng)) == 0


def _rank3_relations(rng) -> bool:
    return f3_relations(_sl2(rng), _sl2(rng), _sl2(rng)) == (0, 0)


def _commutator_law(rng) -> bool:
    a, b = _sl2(rng), _sl2(rng)
    return commutator_trace(a, b) == boundary_trace_11(fricke_coords(a, b))


def _quad_residual(rng) -> bool:
    surface, p = quad_to_04_point(_quad(rng))
    return residual(surface, p) == 0


def _torus_lift_square(rng) -> bool:
    pair = make_pair(_sl2(rng), _sl2(rng))
    p = fricke_coords(*pair)
    return all(
        fricke_coords(*lift_twist_11(which, pair, d)) == dehn_twist_11(which, d, p)
        for which in ("a", "b", "ab")
        for d in (1, -1)
    )


def _sphere_lift_square(rng) -> bool:
    quad = _quad(rng)
    surface, p = quad_to_04_point(quad)
    return all(
        _quad_point(lift_twist_04(index, quad, d)) == dehn_twist_04(surface, index, d, p)
        for index in (1, 2, 3)
        for d in (1, -1)
    )


# Each twist as a move word: a transposition then a Vieta move on the
# torus, two Vieta moves on the sphere.
_TORUS_TWIST_WORDS = {
    which: parse_word(text, "11")
    for which, text in (("a", "Pyz Vz"), ("b", "Pxz Vx"), ("ab", "Pxy Vy"))
}
_SPHERE_TWIST_WORDS = {
    index: parse_word(text, "04")
    for index, text in ((1, "Vy Vz"), (2, "Vz Vx"), (3, "Vx Vy"))
}


def _torus_twist_decomposition(rng) -> bool:
    p = _point(rng)
    return all(
        apply_word(_TORUS, word, p) == dehn_twist_11(which, 1, p)
        for which, word in _TORUS_TWIST_WORDS.items()
    )


def _sphere_twist_decomposition(rng) -> bool:
    surface = make_cubic04(*(rng.randint(-8, 8) for _ in range(4)))
    p = _point(rng)
    return all(
        apply_word(surface, word, p) == dehn_twist_04(surface, index, 1, p)
        for index, word in _SPHERE_TWIST_WORDS.items()
    )


def _move_invariance(rng) -> bool:
    p = _point(rng)
    torus = Markoff11(boundary_trace_11(p))
    gens = generators("11", rng.choice(("gamma_prime", "gamma_poly")))
    if residual(torus, apply_move(torus, rng.choice(gens), p)) != 0:
        return False
    sphere, q = quad_to_04_point(_quad(rng))
    gens = generators("04", rng.choice(("gamma_prime", "gamma_poly")))
    return residual(sphere, apply_move(sphere, rng.choice(gens), q)) == 0


def _trials(check):
    def suite(rng, trials: int) -> bool:
        return all(check(rng) for _ in range(trials))

    return suite


# (name, suite(rng, trials) -> bool): True iff every trial held.  Run by
# `markoff verify` and by acceptance criteria 2-5.
IDENTITY_SUITES = tuple(
    (name, _trials(check))
    for name, check in (
        ("trace-product identity", _trace_identity),
        ("rank-3 trace relations", _rank3_relations),
        ("commutator boundary law", _commutator_law),
        ("quad boundary residual", _quad_residual),
        ("torus lift square", _torus_lift_square),
        ("sphere lift square", _sphere_lift_square),
        ("torus twist decomposition", _torus_twist_decomposition),
        ("sphere twist decomposition", _sphere_twist_decomposition),
        ("move invariance", _move_invariance),
    )
)

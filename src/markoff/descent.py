"""Reduction algorithms on the cubic surfaces.

Every reducer is one step repeated: the Vieta involution on the axis of
largest coordinate modulus (ties broken in the fixed order z, y, x), as in
Markoff's descent.  _descend runs it and checks, at each point, in this
order: a stopping rule, the step cap, and whether the step shrinks; it
reads each point's three moduli once and hands them to both rules, so a
step costs its move and one abs.  The three public reducers differ only
in those rules and in how they read the outcome; each returns a move-word certificate that is replayed before it
is returned, and a capped run is a first-class cap_hit outcome, never an
exception.  The reducers do not check on_surface: points grown by float
twists drift past its tolerance and still descend with exact words.

* reduce_min_complex_11: complex descent on the torus surface driving the
  smallest coordinate modulus below an explicit bound.  Whenever the
  minimum exceeds

      B(k) = max(8, (8*(2+|k|))**(1/4), (4*(2+|k|))**(1/3)),

  the Vieta move on the largest-modulus axis strictly shrinks that
  coordinate (the threshold 8 and the two root terms fall out of the case
  analysis of the shrink-failure configuration |x| <= |y| <= |z| <=
  |x*y - z|), so the descent terminates with min <= B(k).  The result is
  not sorted and the word holds Vieta moves only.

* reduce_min_complex_04: the four-holed sphere analogue.  Terminates when
  one of five conditions holds with C = 48, a documented over-approximation
  of the constants arising case by case (threshold 8, factors up to
  4*max{...} and a /6):

      (1) min(|x|, |y|, |z|) <= C
      (2) |y*z| <= C * max(1, |a|)
      (3) |x*z| <= C * max(1, |b|)
      (4) |x*y| <= C * max(1, |c|)
      (5) |x*y*z| <= C * max(1, |d|)

  In both complex reducers a step that does not shrink the moved
  coordinate, or makes it non-finite, is a numerical stall: a capped run.

* reduce_compact: greedy descent of the sup-norm, stopping at a local
  minimum of the three Vieta moves.  Only the move on a unique largest
  coordinate can lower the sup-norm, so the largest-coordinate step is
  the greedy one.  In integer-star mode any visited coordinate equal to
  +2 or -2 stops the reduction with an exceptional hit; otherwise strict
  integer decrease guarantees termination.  Exact torus results are put
  in canonical form (sorted moduli, at most one trailing negative) before
  returning.
"""

from __future__ import annotations

import cmath

from .surfaces import (
    APPROX,
    Cubic04,
    DomainMismatch,
    EXACT,
    Markoff11,
    MarkoffError,
    NonFiniteScalar,
    Point3,
    Surface,
    _Frozen,
    point_domain,
)
from .moves import VIETA_MOVES, MoveWord, _compile, _new, apply_word, normalize_11

REDUCED = "reduced"
CAP_HIT = "cap_hit"
EXCEPTIONAL_HIT = "exceptional_hit"

REAL_AWAY2 = "real_away2"
COMPLEX_AWAY_INTERVAL = "complex_away_interval"
INTEGER_STAR = "integer_star"

DEFAULT_STEP_CAP = 10**4

# Relative shrink required to count as progress in the approx domain.
APPROX_DECREASE = 1e-6

SPHERE_DESCENT_C = 48

class AConfig(_Frozen):
    """Which trace set A the compact reduction targets: integer_star is
    A = Z minus {+2, -2} on exact points (a visited coordinate +-2 stops
    the descent), real_away2 is R away from +-2 and complex_away_interval
    is C away from [-2, 2] on approx points.  The two approx modes run the
    same descent, which stops once a step lowers the height by less than
    the relative APPROX_DECREASE.
    """

    def __init__(self, mode: str):
        if mode not in (REAL_AWAY2, COMPLEX_AWAY_INTERVAL, INTEGER_STAR):
            raise ValueError(f"unknown mode {mode!r}")
        vars(self)["mode"] = mode


class DescentResult(_Frozen):
    def __init__(self, reduced: Point3, word: MoveWord, steps: int, status: str,
                 exceptional_axis: int | None = None, exceptional_value: int | None = None,
                 terminal_condition: int | None = None, bound: float | None = None):
        vars(self).update(reduced=reduced, word=word, steps=steps, status=status,
                          exceptional_axis=exceptional_axis, exceptional_value=exceptional_value,
                          terminal_condition=terminal_condition, bound=bound)


def min_bound_11(k) -> float:
    """The explicit descent target B(k) for the torus surface."""
    t = 2 + abs(k)
    return max(8.0, (8 * t) ** 0.25, (4 * t) ** (1 / 3))


def _require_finite_approx(p: Point3) -> None:
    if point_domain(p) != APPROX:
        raise DomainMismatch("complex descent requires an approx-domain point")
    for v in p:
        if not cmath.isfinite(complex(v)):
            raise NonFiniteScalar(f"non-finite coordinate {v!r}")


def _descend(surface: Surface, p: Point3, step_cap: int, stop, shrinks):
    """Apply the Vieta move on the largest-modulus axis while it shrinks.

    mods holds the moduli of p's coordinates.  A step changes only its
    moved coordinate, so it takes one abs, and the rules read mods instead
    of the point.  At each point, in this order: a stop(p, mods) that is
    not None ends the run, step_cap moves end it, and a step q on the axis
    of largest modulus h (ties go to z, then y, then x) ends it at p unless
    shrinks(mods, axis, h), with mods now q's.  The other two moduli are
    at most h and unchanged, so linf_height(q) < linf_height(p) iff all
    three of q's moduli are below h.  A non-finite coordinate has modulus
    inf or nan, which is below nothing, so its step stalls.

    Returns (point, moves, the last stop value); a run that did not stop
    with fewer than step_cap moves stalled.  The moves run on plain
    tuples; only the returned point is built as a Point3.
    """
    steps = _compile(surface, VIETA_MOVES)
    moves = []
    mods = [abs(v) for v in p]
    while True:
        answer = stop(p, mods)
        if answer is not None or len(moves) >= step_cap:
            break
        axis, h = 2, mods[2]
        if mods[1] > h:
            axis, h = 1, mods[1]
        if mods[0] > h:
            axis, h = 0, mods[0]
        m, f = steps[axis]
        q = f(surface, p)
        mods[axis] = abs(q[axis])
        if not shrinks(mods, axis, h):
            break
        moves.append(m)
        p = q
    return _new(Point3, p), moves, answer


def _certified(surface: Surface, p: Point3, q: Point3, moves, *fields, **named) -> DescentResult:
    """The DescentResult from p to q, once the word of moves replays from p to q."""
    word = MoveWord(surface.kind, tuple(moves))
    if apply_word(surface, word, p) != q:
        raise MarkoffError("descent certificate failed to replay")
    return DescentResult(q, word, *fields, **named)


def reduce_min_complex_11(
    surface: Markoff11, p: Point3, step_cap: int = DEFAULT_STEP_CAP
) -> DescentResult:
    """Drive min(|x|,|y|,|z|) below B(k) on a torus surface point."""
    _require_finite_approx(p)
    bound = min_bound_11(surface.k)
    q, moves, reduced = _descend(
        surface, p, step_cap, lambda r, mods: True if min(mods) <= bound else None,
        lambda mods, axis, h: mods[axis] < h,
    )
    status = CAP_HIT if reduced is None else REDUCED
    return _certified(surface, p, q, moves, len(moves), status, bound=bound)


def sphere_terminal_condition(surface: Cubic04, p: Point3) -> int | None:
    """First of the five stopping conditions satisfied at p, if any."""
    x, y, z = p
    c = SPHERE_DESCENT_C
    if min(abs(x), abs(y), abs(z)) <= c:
        return 1
    if abs(y * z) <= c * max(1, abs(surface.a)):
        return 2
    if abs(x * z) <= c * max(1, abs(surface.b)):
        return 3
    if abs(x * y) <= c * max(1, abs(surface.c)):
        return 4
    if abs(x * y * z) <= c * max(1, abs(surface.d)):
        return 5
    return None


def reduce_min_complex_04(
    surface: Cubic04, p: Point3, step_cap: int = DEFAULT_STEP_CAP
) -> DescentResult:
    """Vieta descent on a four-holed sphere point until a stopping
    condition (1)-(5) fires; the result records which one."""
    _require_finite_approx(p)
    q, moves, cond = _descend(
        surface, p, step_cap, lambda r, mods: sphere_terminal_condition(surface, r),
        lambda mods, axis, h: mods[axis] < h,
    )
    status = CAP_HIT if cond is None else REDUCED
    return _certified(surface, p, q, moves, len(moves), status, terminal_condition=cond)


def reduce_compact(surface: Surface, cfg: AConfig, p: Point3,
                   step_cap: int = DEFAULT_STEP_CAP) -> DescentResult:
    """Greedy sup-norm reduction to a local minimum of the Vieta moves."""
    domain = point_domain(p)
    star = cfg.mode == INTEGER_STAR
    if star and (domain != EXACT or surface.domain != EXACT):
        raise DomainMismatch("integer_star mode requires the exact domain")
    if not star and domain != APPROX:
        raise DomainMismatch(f"{cfg.mode} mode requires the approx domain")
    factor = 1 if star else 1 - APPROX_DECREASE

    def shrinks(mods, axis, h):  # the sup-norm falls below h * factor
        limit = h * factor
        return mods[0] < limit and mods[1] < limit and mods[2] < limit

    q, moves, axis = _descend(  # an exact modulus is 2 iff its coordinate is +-2
        surface, p, step_cap, lambda r, mods: mods.index(2) if star and 2 in mods else None,
        shrinks,
    )
    steps = len(moves)
    status = EXCEPTIONAL_HIT if axis is not None else CAP_HIT if steps >= step_cap else REDUCED
    if status == REDUCED and star and isinstance(surface, Markoff11):
        q, normal = normalize_11(q)
        moves.extend(normal.moves)
    value = None if axis is None else q[axis]
    return _certified(surface, p, q, moves, steps, status, axis, value)


def ellipse_bound_04(surface: Cubic04, z0) -> float:
    """Finite M with max(|x|, |y|) <= M on the real slice z = z0, |z0| < 2.

    The slice is the conic x^2 + y^2 + z0*x*y = a*x + b*y + e with
    e = c*z0 + d - z0^2, an ellipse (possibly degenerate) since the
    quadratic part is positive definite for |z0| < 2.  M comes from the
    exact x- and y-extremes of the conic; an empty slice returns 0.
    """
    coeffs = []
    for v in (surface.a, surface.b, surface.c, surface.d):
        if isinstance(v, complex):
            if v.imag != 0:
                raise ValueError("ellipse bound requires real coefficients")
            v = v.real
        coeffs.append(v)
    a, b, c, d = coeffs
    if isinstance(z0, complex):
        if z0.imag != 0:
            raise ValueError("z0 must be real")
        z0 = z0.real
    if abs(z0) >= 2:
        raise ValueError(f"|z0| must be < 2, got {z0!r}")
    e = c * z0 + d - z0 * z0
    lead = 1 - z0 * z0 / 4

    def axis_bound(u, v):
        # extremes of the first coordinate: lead*t^2 + (v*z0/2 - u)*t - (v^2/4 + e) = 0
        lin = v * z0 / 2 - u
        disc = lin * lin + 4 * lead * (v * v / 4 + e)
        if disc < 0:
            return None
        return (abs(lin) + disc**0.5) / (2 * lead)

    bx = axis_bound(a, b)
    by = axis_bound(b, a)
    if bx is None and by is None:
        return 0.0
    return float(max(v for v in (bx, by) if v is not None))

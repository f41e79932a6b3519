"""Integer points, orbit search, class numbers, and the exceptional locus.

All state-space computations here are cap-relative: breadth-first searches
prune at a sup-norm height cap and a visited-count cap, every negative
answer means "not within the caps", and reports carry a caps_hit flag.
Every positive answer (equivalence, exceptional hit) is certified by a
move word that is replayed before being returned.

A class count labels the enumerated box points of an exact surface by
connected component of the move graph capped at the box height (or at a
higher height cap, when one is given).  One BFS per unlabelled point does
it, and the same search serves orbit_bfs and is_exceptional.  Box points
with a coordinate equal to +2 or -2 are exceptional from the start and are
never expanded; a search that reaches one (or any point with such a
coordinate) marks every box point it reached exceptional, with a replayed
witness word, since a component is exceptional iff some trace in it hits
+-2.  Any other search has found a whole component, which is one class.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .surfaces import (
    DomainMismatch,
    EXACT,
    Markoff11,
    MarkoffError,
    Point3,
    Surface,
    linf_height,
    on_surface,
    residual,
)
from .moves import (
    MoveWord,
    apply_move,
    apply_word,
    concat_words,
    generators,
    identity_word,
    normalize_11,
    transposition,
)
from .descent import exceptional_axis


class Caps(NamedTuple):
    """Search caps: sup-norm height, visited-point count, descent steps."""

    height: int = 10**6
    count: int = 10**6
    steps: int = 10**4


DEFAULT_CAPS = Caps()


def _resolve_gens(surface: Surface, gens):
    if isinstance(gens, str):
        return generators(surface.kind, gens)
    return tuple(gens)


def _require_exact(surface: Surface, p: Point3 | None = None) -> None:
    if surface.domain != EXACT:
        raise DomainMismatch("this operation requires an exact integer surface")
    if p is not None and any(not isinstance(v, int) for v in p):
        raise DomainMismatch("this operation requires an exact integer point")


def _require_on_surface(surface: Surface, p: Point3) -> None:
    if not on_surface(surface, p):
        raise MarkoffError(f"point {tuple(p)} is not on the surface (residual "
                           f"{residual(surface, p)})")


# ---------------------------------------------------------------------------
# integer point enumeration


def _quadratic_in_z(surface: Surface):
    """Coefficients (q1, q0) of z^2 + q1(x,y) z + q0(x,y) = 0 on the surface."""
    if isinstance(surface, Markoff11):
        k = surface.k

        def coeffs(x, y):
            return -(x * y), x * x + y * y - 2 - k

    else:
        a, b, c, d = surface.a, surface.b, surface.c, surface.d

        def coeffs(x, y):
            return x * y - c, x * x + y * y - a * x - b * y - d

    return coeffs


def _enumeration_fits_int64(surface: Surface, B: int) -> bool:
    coeffs = _quadratic_in_z(surface)
    corners = [coeffs(sx * B, sy * B) for sx in (-1, 1) for sy in (-1, 1)]
    worst_q1 = max(abs(q1) for q1, _ in corners)
    # |q0| peaks at a box corner except for the interior dip of the convex
    # quadratic part, bounded by the vertex value
    worst_q0 = max(abs(q0) for _, q0 in corners)
    if isinstance(surface, Markoff11):
        dip = abs(coeffs(0, 0)[1])
    else:
        dip = surface.a**2 // 4 + surface.b**2 // 4 + abs(surface.d) + 2
    # float sqrt is trusted below 2^52; keep the whole discriminant there
    return worst_q1 * worst_q1 + 4 * (worst_q0 + dip) < 2**52


def enumerate_points(surface: Surface, B: int) -> list:
    """All integer surface points with sup-norm at most B.

    Iterates (x, y) and solves the quadratic in z with an exact integer
    square-root test; returns a duplicate-free lexicographically sorted
    list.  Dispatches to a vectorized scan when the discriminants fit
    comfortably in 64-bit arithmetic.
    """
    _require_exact(surface)
    if B < 0:
        raise ValueError("box bound must be nonnegative")
    if _enumeration_fits_int64(surface, B):
        points = _enumerate_vec(surface, B)
    else:
        points = _enumerate_slow(surface, B)
    return sorted(points)


def _enumerate_slow(surface: Surface, B: int):
    coeffs = _quadratic_in_z(surface)
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
            for sign in ((s, -s) if s else (s,)):
                num = -q1 + sign
                if num % 2 == 0:
                    z = num // 2
                    if abs(z) <= B:
                        found.add(Point3(x, y, z))
    return found


def _enumerate_vec(surface: Surface, B: int):
    if isinstance(surface, Markoff11):
        a = b = c = 0
        d = 2 + surface.k  # z^2 - xy z + (x^2+y^2) - d with d = 2+k
        markoff = True
    else:
        a, b, c, d = surface.a, surface.b, surface.c, surface.d
        markoff = False
    ys = np.arange(-B, B + 1, dtype=np.int64)
    ys2 = ys * ys
    found = set()
    for x in range(-B, B + 1):
        if markoff:
            q1 = -x * ys
            q0 = x * x + ys2 - d
        else:
            q1 = x * ys - c
            q0 = x * x + ys2 - a * x - b * ys - d
        disc = q1 * q1 - 4 * q0
        nonneg = disc >= 0
        if not nonneg.any():
            continue
        dv = disc[nonneg]
        r = np.rint(np.sqrt(dv.astype(np.float64))).astype(np.int64)
        square = np.zeros(len(dv), dtype=bool)
        s = np.zeros(len(dv), dtype=np.int64)
        for dr in (-1, 0, 1):
            cand = r + dr
            hit = (cand >= 0) & (cand * cand == dv)
            s = np.where(hit, cand, s)
            square |= hit
        if not square.any():
            continue
        yv = ys[nonneg][square]
        q1v = q1[nonneg][square]
        sv = s[square]
        for y, q1i, si in zip(yv.tolist(), q1v.tolist(), sv.tolist()):
            for sign in ((si, -si) if si else (si,)):
                num = -q1i + sign
                if num % 2 == 0:
                    z = num // 2
                    if abs(z) <= B:
                        found.add(Point3(x, y, z))
    return found


# ---------------------------------------------------------------------------
# breadth-first orbit machinery


def _search(surface: Surface, gens, start: Point3, cap_height, cap_count, stop=None):
    """BFS closure of start; returns (parents, hit, pruned, truncated).

    parents maps point -> (parent point, move); the start is always kept,
    even above the height cap.  The search ends early at the first
    inserted point for which stop is true, returned as hit (else None).
    """
    parents = {start: (None, None)}
    queue = deque((start,))
    pruned = False
    while queue:
        node = queue.popleft()
        for g in gens:
            child = apply_move(surface, g, node)
            if child in parents:
                continue
            if linf_height(child) > cap_height:
                pruned = True
                continue
            if len(parents) >= cap_count:
                return parents, None, pruned, True
            parents[child] = (node, g)
            if stop is not None and stop(child):
                return parents, child, pruned, False
            queue.append(child)
    return parents, None, pruned, False


def _word_from_parents(parents, surface_kind: str, target: Point3) -> MoveWord:
    moves = []
    node = target
    while True:
        parent, move = parents[node]
        if parent is None:
            break
        moves.append(move)
        node = parent
    return MoveWord(surface_kind, tuple(reversed(moves)))


@dataclass(frozen=True)
class OrbitRun:
    """Result of a capped orbit BFS with one certificate word per point."""

    surface: Surface
    start: Point3
    parents: dict
    caps_hit: bool

    def points(self):
        return list(self.parents)

    def word_to(self, p: Point3) -> MoveWord:
        return _word_from_parents(self.parents, self.surface.kind, p)

    def __len__(self):
        return len(self.parents)


def orbit_bfs(
    surface: Surface, gens, start: Point3, cap_height: int, cap_count: int = 10**6
) -> OrbitRun:
    """Breadth-first closure of start under the generators, pruning any
    point of sup-norm above cap_height."""
    _require_exact(surface, start)
    _require_on_surface(surface, start)
    gens = _resolve_gens(surface, gens)
    parents, _, pruned, truncated = _search(surface, gens, start, cap_height, cap_count)
    return OrbitRun(surface, start, parents, pruned or truncated)


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of a capped equivalence search.

    equivalent=True comes with a verified connecting word.  False means
    "no within caps"; exhausted tells whether the capped search space was
    fully explored (pruned tells whether the height cap cut anything off,
    i.e. whether the true orbits may extend beyond it).
    """

    equivalent: bool
    word: Optional[MoveWord]
    exhausted: bool
    pruned: bool


def equivalent(
    surface: Surface, gens, p: Point3, q: Point3, caps: Caps = DEFAULT_CAPS
) -> EquivalenceResult:
    """Bidirectional meet-in-the-middle search for a word sending p to q."""
    _require_exact(surface, p)
    _require_exact(surface, q)
    _require_on_surface(surface, p)
    _require_on_surface(surface, q)
    gens = _resolve_gens(surface, gens)
    kind = surface.kind
    if p == q:
        return EquivalenceResult(True, identity_word(kind), True, False)

    sides = (
        {"parents": {p: (None, None)}, "frontier": [p]},
        {"parents": {q: (None, None)}, "frontier": [q]},
    )
    pruned = False

    def finish(meet: Point3) -> EquivalenceResult:
        w_p = _word_from_parents(sides[0]["parents"], kind, meet)
        w_q = _word_from_parents(sides[1]["parents"], kind, meet)
        word = concat_words(w_p, w_q.inverse())
        if apply_word(surface, word, p) != q:  # pragma: no cover - safety net
            raise MarkoffError("equivalence certificate failed to replay")
        return EquivalenceResult(True, word, False, pruned)

    while sides[0]["frontier"] and sides[1]["frontier"]:
        side = sides[0] if len(sides[0]["frontier"]) <= len(sides[1]["frontier"]) else sides[1]
        other = sides[1] if side is sides[0] else sides[0]
        new_frontier = []
        for node in side["frontier"]:
            for g in gens:
                child = apply_move(surface, g, node)
                if child in side["parents"]:
                    continue
                if linf_height(child) > caps.height:
                    pruned = True
                    continue
                side["parents"][child] = (node, g)
                if child in other["parents"]:
                    return finish(child)
                if len(sides[0]["parents"]) + len(sides[1]["parents"]) >= caps.count:
                    return EquivalenceResult(False, None, False, pruned)
                new_frontier.append(child)
        side["frontier"] = new_frontier
    # one side ran out of new points: definitive for the capped graph
    return EquivalenceResult(False, None, True, pruned)


@dataclass(frozen=True)
class ExceptionalSearch:
    """Semi-decision for membership in the exceptional locus."""

    found: bool
    word: Optional[MoveWord]
    exhausted: bool
    pruned: bool


def is_exceptional(surface: Surface, p: Point3, caps: Caps = DEFAULT_CAPS) -> ExceptionalSearch:
    """Search the orbit of p under the elementary moves for a coordinate
    equal to +2 or -2.  A hit is certified; a miss is cap-relative."""
    _require_exact(surface, p)
    _require_on_surface(surface, p)
    if exceptional_axis(p) is not None:
        return ExceptionalSearch(True, identity_word(surface.kind), False, False)
    gens = generators(surface.kind, "gamma_prime")
    parents, hit, pruned, truncated = _search(
        surface, gens, p, caps.height, caps.count,
        stop=lambda q: exceptional_axis(q) is not None,
    )
    if hit is None:
        return ExceptionalSearch(False, None, not truncated, pruned)
    word = _word_from_parents(parents, surface.kind, hit)
    return ExceptionalSearch(True, word, False, pruned)


# ---------------------------------------------------------------------------
# class numbers


@dataclass(frozen=True)
class OrbitReport:
    """Classes of box points under a generator set, with certificates."""

    surface: Surface
    generators: str
    box: int
    representatives: tuple  # ((Point3, in-box orbit size), ...)
    exceptional: tuple  # ((Point3, witness word to a +-2 coordinate), ...)
    class_number_star: int
    caps_hit: bool


def class_number(
    surface: Surface, gens_name: str, B: int, caps: Optional[Caps] = None
) -> OrbitReport:
    """Label the box points by connected component of the move graph
    capped at height max(caps.height, B), and count the nondegenerate
    components.

    A component containing a coordinate +-2 goes to the exceptional list,
    one replayed witness word per box point; caps_hit is set only when a
    search was truncated by caps.count.
    """
    _require_exact(surface)
    if caps is None:
        caps = Caps(height=B)
    cap_height = max(caps.height, B)
    gens = generators(surface.kind, gens_name)
    kind = surface.kind
    points = enumerate_points(surface, B)

    identity = identity_word(kind)
    # box point -> index into classes, or its witness word once exceptional
    label = {p: identity for p in points if exceptional_axis(p) is not None}

    def stop(q):
        return q in label or exceptional_axis(q) is not None

    classes = []
    caps_hit = False
    for p in points:
        if p in label:
            continue
        parents, hit, _, truncated = _search(surface, gens, p, cap_height, caps.count, stop)
        caps_hit = caps_hit or truncated
        reached = [m for m in parents if m not in label and linf_height(m) <= B]
        mark = len(classes) if hit is None else label.get(hit, identity)
        if isinstance(mark, int):  # a new class, or one cut short by caps.count
            if mark == len(classes):
                classes.append([])
            classes[mark].extend(reached)
            label.update(dict.fromkeys(reached, mark))
            continue
        # mark is the witness word of hit; extend it back to each reached point
        to_hit = concat_words(_word_from_parents(parents, kind, hit), mark)
        for m in reached:
            word = concat_words(_word_from_parents(parents, kind, m).inverse(), to_hit)
            if exceptional_axis(apply_word(surface, word, m)) is None:
                raise MarkoffError("exceptional witness failed to replay")
            label[m] = word

    # the 24 torus symmetries are gamma_prime moves that keep the height,
    # so there the canonical form of a lowest member is itself a member
    canonical = isinstance(surface, Markoff11) and gens_name == "gamma_prime"
    reps = []
    for members in classes:
        low = min(linf_height(m) for m in members)
        lows = [m for m in members if linf_height(m) == low]
        rep = min(normalize_11(m)[0] for m in lows) if canonical else min(lows)
        reps.append((rep, len(members)))
    reps.sort(key=lambda r: (linf_height(r[0]), r[0]))
    exceptional = sorted(e for e in label.items() if not isinstance(e[1], int))

    return OrbitReport(
        surface=surface,
        generators=gens_name,
        box=B,
        representatives=tuple(reps),
        exceptional=tuple(exceptional),
        class_number_star=len(reps),
        caps_hit=caps_hit,
    )


# ---------------------------------------------------------------------------
# parabolic lines on the torus surface


@dataclass(frozen=True)
class ParabolicLine:
    """An affine line t -> origin + t*direction inside the surface, lying
    in the locus where the fixed coordinate equals +2 or -2."""

    axis: int
    value: int
    origin: Point3
    direction: Point3
    integral: bool

    def point_at(self, t):
        return Point3(
            self.origin.x + t * self.direction.x,
            self.origin.y + t * self.direction.y,
            self.origin.z + t * self.direction.z,
        )

    def contains(self, p: Point3) -> bool:
        t = p.y - self.origin.y  # the y-slot of every returned line is t
        return self.point_at(t) == p


@dataclass(frozen=True)
class LineReport:
    k: int
    square_root: Optional[int]  # s >= 0 with k - 2 = s^2, when integral
    lines: tuple
    note: str


def parabolic_lines_11(k: int) -> LineReport:
    """Integral affine lines sweeping the exceptional locus of the torus
    surface with parameter k.

    With x fixed at +2 the equation collapses to (y - z)^2 = k - 2, and at
    -2 to (y + z)^2 = k - 2, so integral lines exist exactly when k - 2 is
    a perfect square s^2:

        t -> (2, t, t - s)    t -> (2, t, t + s)
        t -> (-2, t, -t + s)  t -> (-2, t, -t - s)

    (two lines when s = 0).  Lines with the +-2 coordinate on the y or z
    axis are the coordinate permutations of these; `lines_cover_point`
    checks membership up to that symmetry.  For non-square k - 2 the list
    is empty and the note records that only non-integral lines exist.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainMismatch("parabolic lines require an exact integer k")
    disc = k - 2
    if disc < 0:
        return LineReport(
            k, None, (), "k - 2 < 0: lines exist only over the complex numbers"
        )
    s = math.isqrt(disc)
    if s * s != disc:
        return LineReport(
            k, None, (), "k - 2 is not a perfect square: lines are irrational"
        )
    lines = [
        ParabolicLine(0, 2, Point3(2, 0, -s), Point3(0, 1, 1), True),
        ParabolicLine(0, -2, Point3(-2, 0, s), Point3(0, 1, -1), True),
    ]
    if s != 0:
        lines.insert(1, ParabolicLine(0, 2, Point3(2, 0, s), Point3(0, 1, 1), True))
        lines.append(ParabolicLine(0, -2, Point3(-2, 0, -s), Point3(0, 1, -1), True))
    return LineReport(k, s, tuple(lines), "")


def lines_cover_point(report: LineReport, p: Point3) -> bool:
    """True if some coordinate permutation of p putting its +-2 coordinate
    first lies on one of the returned lines."""
    for axis in range(3):
        if p[axis] not in (2, -2):
            continue
        if axis == 0:
            q = p
        else:
            sigma = transposition(0, axis).arg
            q = Point3(p[sigma[0]], p[sigma[1]], p[sigma[2]])
        if any(line.contains(q) for line in report.lines):
            return True
    return False

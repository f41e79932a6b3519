"""Integer points, orbit search, class numbers, and the exceptional locus.

All state-space computations here are cap-relative: breadth-first searches
prune at a sup-norm height cap and a visited-count cap, every negative
answer means "not within the caps", and reports carry a caps_hit flag.
Every positive answer (equivalence, exceptional hit) is certified by a
move word that is replayed before being returned; the words of a whole
search tree (OrbitRun.words, class witnesses) are certified edge by edge.

Every search grows by one primitive, _expand, which adds one BFS level
under both caps.  _search is a loop of levels from one start (it serves
enumeration, orbit_bfs, is_exceptional and class counts), and equivalent
grows a tree from each end, one level of the smaller frontier at a time.
A child that answers the search (a stop hit, or a meet of the two trees)
is kept even when the count cap is full; the count cap refuses only a
child that would merely grow the search.

On the torus the searches run on a quotient by coordinate symmetries
(_steps, _Quotient): each child is keyed by its image under a group of
them, one raw point is held per key, and only raw points are expanded.
parents maps each raw point to (raw parent, move), so a word to a raw
point walks the parents back, with no replay search.
- G mode (torus gamma_prime: orbit_bfs, equivalent, is_exceptional).  The
  group G of the 24 permutations and even sign changes is made of
  gamma_prime words (_own_word), conjugates Vieta moves to Vieta moves
  (_CONJ) and keeps the height.  So the search applies the Vieta moves
  only, and a key (_canon_11) stands for its whole G-orbit.
- S3 mode (torus gamma_poly: orbit_bfs).  The six permutations conjugate
  twists to twists (_CONJ) and keep the height, so they permute the
  components of the capped twist graph, but they are not twists.  A key
  is the sorted point.  When a child's key is held with another raw point
  r, the h with child = h.r keeps the component C, and the h found
  generate what is needed of its stabilizer: C = <H>.{raw points}, since a
  twist t of h.r is h.t'(r) with t' = h^-1 t h a twist, and t'(r) was
  generated from r.  So orbit_bfs returns with the group known.  Once it
  is all of S3, each level runs one twist per Vieta axis (_steps).
The group holds for each h a word W_h from the start to h.start, h's own
word in the G mode and a twist word built when h is found in the S3 mode;
the word to h.r is W_h, then the walk to r conjugated by h.
The count cap still counts points, and each key is charged the points its
full group makes of it: |G.key|, which it holds, in the G mode, and its
distinct permutations (6, 3 or 1) in the S3 mode, an upper bound, as the
stabilizer may be smaller.  A key goes in while fewer than cap_count
points are charged, so a run holds fewer than cap_count + 24 (G) or
cap_count + 6 (S3) points, and caps_hit is set whenever a key is refused.
A start above the height cap, which stands for itself alone, searches
plainly, and so does equivalent with gamma_poly: a meet of two S3 keys
decides nothing until the stabilizer is known.

Box points are enumerated by descent read backwards (_sweep): each box
point off the +-2 locus is reached by in-box Vieta moves from a move off
the locus or from a root (_root_heights), with no scan of the B^2 grid.

A class count labels the box points of an exact surface by connected
component of the move graph capped at the box height (or a higher height
cap); a component is exceptional iff some trace in it hits +-2.  The
exceptional points form a forest rooted on the +-2 locus, certified by
one check (_forest_edges).  class_number grows it by one _search per
unlabelled point (_label_classes), under both caps, with witness words.  A
scan row reads it off the sweep at the cap height and walks each
component of the capped twist graph once for gamma_poly (_inbox_classes),
then cuts both to the box (_scan_labels).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .surfaces import (
    DomainMismatch,
    EXACT,
    Markoff11,
    MarkoffError,
    Point3,
    Surface,
    _Frozen,
    linf_height,
    on_surface,
    residual,
)
from .moves import (
    VIETA_MOVES,
    Move,
    MoveWord,
    _canon_11,
    _compile,
    _new,
    _raw_move,
    apply_word,
    concat_words,
    generators,
    identity_word,
    inverse_move,
)


class Caps(namedtuple("Caps", "height count", defaults=(10**6, 10**6))):
    """Search caps: sup-norm height and visited-point count."""

    __slots__ = ()


DEFAULT_CAPS = Caps()


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

def _sphere_form(surface: Surface) -> tuple:
    """(s, (a, b, c), d) with the surface x^2+y^2+z^2 + s*xyz = ax+by+cz+d."""
    if isinstance(surface, Markoff11):
        return -1, (0, 0, 0), surface.k + 2
    return 1, (surface.a, surface.b, surface.c), surface.d


def _square_values(c2: int, c1: int, c0: int, bound: int):
    """(w, r) for every |w| <= bound at which c2*w^2 + c1*w + c0 = r^2 with
    r >= 0, for a form that is not a constant (_slice lists those).  A
    linear form (c2 = 0) is solved from the squares it can take, which are
    the r^2 within |c1|*bound of c0: w = (r^2 - c0)/c1 when that is exact.
    That costs O(sqrt(|c1|*bound)) steps, and the pass over every w runs
    only where it is cheaper."""
    ws = range(-bound, bound + 1)
    if c2 < 0:  # the form is nonnegative only between its real roots
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            return
        r, n = math.isqrt(disc), -2 * c2  # the roots' floor and ceiling are exact
        ws = range(max(-bound, -((r - c1) // n)), min(bound, (r + c1) // n) + 1)
    elif c2 == 0:
        low, high = c0 - abs(c1) * bound, c0 + abs(c1) * bound
        r_low = math.isqrt(low - 1) + 1 if low > 0 else 0
        r_high = math.isqrt(high) if high >= 0 else -1
        if r_high - r_low < 2 * bound:
            for r in range(r_low, r_high + 1):
                w, rem = divmod(r * r - c0, c1)
                if rem == 0:
                    yield w, r
            return
    for w in ws:
        disc = (c2 * w + c1) * w + c0
        if disc >= 0:
            r = math.isqrt(disc)
            if r * r == disc:
                yield w, r


def _disc(form: tuple, axis: int, value: int) -> tuple:
    """(slope, g_l, c2, c1, c0) of the slice at `value` on `axis`: a point's
    third coordinate t solves t^2 + (slope*w - g_l)*t + ... = 0, whose
    discriminant is c2*w^2 + c1*w + c0 in its second coordinate, w."""
    s, gamma, d = form
    slope, g_j, g_l = s * value, gamma[(axis + 1) % 3], gamma[(axis + 2) % 3]
    rest = value * value - gamma[axis] * value - d
    # (slope*w - g_l)^2 - 4*(w^2 - g_j*w + rest), expanded in w
    return slope, g_l, value * value - 4, 4 * g_j - 2 * slope * g_l, g_l * g_l - 4 * rest


def _lines(form: tuple, axis: int, value: int, bound: int):
    """The slice at `value` on `axis` as its integral lines t = a - m*w,
    [(a, m, ws), ...] with m = slope/2 = +-1 and ws the range of w at which
    |w| and |t| are at most bound, or None when it is not lines.  It is
    lines when value is +-2 and the discriminant is a constant c0; a square
    c0 = r^2 gives a = (g_l +- r)/2, exact since c0 = g_l^2 (mod 4), and one
    line when r = 0; any other c0 gives none."""
    slope, g_l, c2, c1, c0 = _disc(form, axis, value)
    if c2 or c1:
        return None
    r, m = math.isqrt(max(c0, 0)), slope // 2
    return [(a, m, range(max(-bound, m * a - bound), min(bound, m * a + bound) + 1))
            for a in dict.fromkeys(((g_l + m * r) // 2, (g_l - m * r) // 2)) if r * r == c0]


def _line_points(axis: int, value: int, a: int, m: int, ws: range):
    """The points of the line t = a - m*w on the slice at `value` on `axis`
    for w in ws, w on the next axis and t on the one after."""
    cols = [itertools.repeat(value)] * 3
    cols[(axis + 1) % 3], cols[(axis + 2) % 3] = ws, range(a - m * ws.start, a - m * ws.stop, -m)
    return map(_new, itertools.repeat(Point3), zip(*cols))


def _slice(form: tuple, axis: int, value: int, bound: int):
    """Surface points with `value` on `axis` and both other coordinates of
    modulus at most bound.  The third coordinate t solves a monic quadratic
    whose discriminant is a quadratic in the second one, w; it is linear
    when value is +-2, so those slices cost O(sqrt(bound)) steps, or their
    output when they are lines (_lines)."""
    slope, g_l, c2, c1, c0 = _disc(form, axis, value)
    if c2 == c1 == 0:
        for a, m, ws in _lines(form, axis, value, bound):
            yield from _line_points(axis, value, a, m, ws)
        return
    j, l = (axis + 1) % 3, (axis + 2) % 3
    square = _square_values(c2, c1, c0, bound)
    p = [value, value, value]  # copied into each Point3, so reused
    low = -bound
    for w, r in square:
        # disc = q1^2 (mod 4) for q1 = slope*w - g_l, so both roots are
        # exact and differ by r; r = 0 is one double root
        t = (r - slope * w + g_l) // 2
        p[j] = w
        if low <= t <= bound:
            p[l] = t
            yield _new(Point3, p)
        if r:
            t -= r
            if low <= t <= bound:
                p[l] = t
                yield _new(Point3, p)


def _largest_root(p2: int, p1: int, p0: int) -> int:
    """Floor of the upper real root of p2*t^2 - p1*t = p0 (p2 >= 1), which
    bounds every integer t with p2*t^2 - p1*t <= p0; -1 if no root is real."""
    disc = p1 * p1 + 4 * p2 * p0
    if disc < 0:
        return -1
    return (p1 + math.isqrt(disc)) // (2 * p2)


def _root_heights(form: tuple, B: int) -> list:
    """heights[u] bounds the sup-norm of every box point with no coordinate
    +-2 at which no Vieta move lowers the sup-norm and whose smallest
    coordinate modulus is u; -1 means there is none, and there is none
    with u >= len(heights).  All bounds are capped at B.

    Proof.  Flipping the sign of x turns the torus x^2+y^2+z^2-xyz = k+2
    into x^2+y^2+z^2+xyz = k+2 and keeps every modulus and every Vieta
    move, so take s = +1.  Permute the axes together with (a, b, c) so
    that u = |x| <= v = |y| <= |z| = h, with u != 2.  Let A, P and S be the
    largest, the sum of the two largest and the sum of |a|, |b|, |c|;
    q = floor(A^2/4) and e = A*u - u^2 + d, so ax - x^2 + d <= e and
    |b|v - v^2 <= q.  z and z' = c - xy - z are the roots of
    f(t) = t^2 + (xy - c)t + Q with Q = x^2 + y^2 - ax - by - d = z*z'.

    (T) v = h, the tie in which the move on z may shrink z but keeps h.
      Then y = m*z with m = +-1 and (2 + mx)h^2 = ax - x^2 + (mb + c)z + d.
      mx >= -1: h^2 - P*h <= e, and (2 + u)h^2 - P*h <= e when u >= 2
        (then mx = u).  So u <= 1, or u <= h with 3h^2 - P*h <= q + d.
      mx <= -3: (u - 2)h^2 <= u^2 + |a|u + (|b| + |c|)h - d.     (T')
    (N) v < h.  The move on z keeps h only if |z'| >= h, so z' != 0.
      zz' < 0: |z'| = h + |c - xy| and |c - xy| >= max(0, u^2 - A), so
        h^2 + max(0, u^2 - A)h <= -Q <= e + q; with h >= u,
        2u^2 - A*u <= q + d.
      zz' > 0: z and z' lie beyond h on the side of one sign n, so
        c - xy = z + z' = n(|z| + |z'|) has modulus >= 2h, and
        0 <= f(n*v) = v^2 - |c - xy|v + Q.  Hence
            2hv <= |c - xy|v <= u^2 + 2v^2 + A*u + A*v - d.       (1)
        u <= 1: 2h <= |c - xy| <= |c| + v <= |c| + h - 1, so h <= A - 1.
        u >= 3: |c - xy| >= uv - |c| turns (1) into
            (u - 2)v^2 <= u^2 + |a|u + (|b| + |c|)v - d,            (N')
        and (1) bounds h by (2v^2 + A*v + C)/(2v), C = u^2 + A*u - d,
        which is convex or increasing in v > 0, so its largest value
        for u <= v <= V is at v = u or at v = V, the largest v (N')
        allows with A for |a| and P for |b| + |c|; (T') gives h <= V.
    In (T') and (N') use u^2 <= v^2 and |a|u <= |a|v (h for v in (T')):
    (u - 3)v^2 <= S*v + max(0, -d), so (u - 3)u <= S + max(0, -d)/u, that
    is g(u) = u^2(u - 3) - S*u - max(0, -d) <= 0.  g(u)/u increases for
    u >= 3, so those u form a range [3, M3].  Every other case has
    u <= M0 = max(2, largest u with 2u^2 - A*u <= q + d, largest h with
    3h^2 - P*h <= q + d).
    """
    _, gamma, d = form
    low, mid, top = sorted(abs(g) for g in gamma)
    A, P, S = top, mid + top, low + mid + top
    q = A * A // 4
    neg = max(0, -d)
    M0 = max(2, _largest_root(2, A, q + d), _largest_root(3, P, q + d))
    heights = []
    u = 0
    while u <= B:
        cubic = u >= 3 and u * u * (u - 3) <= S * u + neg
        if u > M0 and not cubic:
            break
        e = A * u - u * u + d
        r = max(
            A - 1 if u <= 1 else -1,
            _largest_root(1, -max(0, u * u - A), e + q),
            _largest_root(1 if u <= 1 else 2 + u, P, e),
        )
        if cubic:
            C = u * u + A * u - d
            V = _largest_root(u - 2, P, C)
            if V >= u:
                r = max(r, V, *((2 * v * v + A * v + C) // (2 * v) for v in (u, V)))
        heights.append(min(r, B) if r >= u else -1)
        u += 1
    return heights


def _sweep(surface: Surface, B: int) -> tuple:
    """(locus, seeded, components) for the box of bound B: the count of box
    points with a coordinate +-2, {point: (parent, move)} over the points
    off it joined to it by in-box Vieta moves (a seed's parent is its locus
    point), and the other box points, one in-box Vieta component per list.

    A Vieta move that strictly lowers the sup-norm stays in the box, so
    greedy descent from any box point ends, inside the box, at a point
    with a coordinate +-2 or at a point no Vieta move lowers.  Read
    backwards, every box point off the +-2 locus is reached by in-box Vieta
    moves off the locus from a seed: the in-box image of a locus point
    under the move on its +-2 axis, the one move that can leave the locus,
    or a box point of the root region of _root_heights, whose bounds depend
    on the parameters and not on B.  One _search from each seed off the
    locus and not yet reached gives the closure, the locus seeds first.
    The searches share one visited map, which holds from the start the
    boundary of the locus: the locus points whose move on their +-2 axis
    stays in the box.  So no point is expanded twice, no search walks the
    locus, and each search adds one contiguous run to the map: after the
    locus seeds', a root's run is a whole component that misses the locus.

    That move sets the +-2 coordinate to gamma - s*w*t -+ 2 from the other
    two, w and t, so a boundary point has min(|w|, |t|) <= R below.  A +-2
    slice that is lines (_lines) is counted from the w-spans of its lines,
    and only those O(sqrt(B)) points of each line are listed; any other
    +-2 slice is listed whole by _slice, in O(sqrt(B)) steps.  A point with
    +-2 on two axes is counted on the first.  So the work tracks the points
    off the locus and sqrt(B), not B^2.
    """
    _require_exact(surface)
    if B < 0:
        raise ValueError("box bound must be nonnegative")
    form = _sphere_form(surface)
    # |x^2+y^2+z^2 + s*xyz - ax-by-cz| is at most this on the box, so a
    # larger |d| leaves it empty
    if abs(form[2]) > 3 * B * B + B**3 + sum(map(abs, form[1])) * B:
        return 0, {}, []
    steps = _compile(surface, VIETA_MOVES)
    R = math.isqrt(B + 2 + max(map(abs, form[1])))  # |w*t| > B + 2 + |gamma| beyond it
    # _slice bounds the two free coordinates; the +-2 one is in the box iff B >= 2
    slices = list(itertools.product(range(3), (2, -2))) if B >= 2 else []
    count, points, seeds = 0, {}, []  # points: the boundary, then every point reached
    for axis, value in slices:
        lines = _lines(form, axis, value, B)
        if lines is None:
            near = list(_slice(form, axis, value, B))
            count += len(near)
        else:
            near = []
            for a, m, ws in lines:
                count += len(ws)
                for c in (0, m * a):  # |w| <= R, then |t| = |m*a - w| <= R
                    near += _line_points(axis, value, a, m,
                                         range(max(ws.start, c - R), min(ws.stop, c + R + 1)))
        # near holds each point with +-2 on two axes (R >= 2); count it on the first
        count -= sum(2 in p[:axis] or -2 in p[:axis] for p in set(near))
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


def enumerate_points(surface: Surface, B: int) -> list:
    """All integer surface points with sup-norm at most B, sorted and
    duplicate-free: _sweep's points and the +-2 slices, listed by _slice."""
    _, seeded, components = _sweep(surface, B)
    slices = itertools.product(range(3), (2, -2)) if B >= 2 else ()
    locus = (p for axis, value in slices for p in _slice(_sphere_form(surface), axis, value, B))
    return sorted({*locus, *seeded, *itertools.chain.from_iterable(components)})


# ---------------------------------------------------------------------------
# breadth-first orbit machinery


def _expand(surface, steps, frontier, parents, cap_height, room, stop, quotient):
    """One BFS level: the children of the frontier points under the
    (move, function) pairs of _compile, in order; returns (next frontier,
    hit, pruned, truncated, room).  parents maps each point that went in to
    (parent, move), the frontiers hold those points, and room is the number
    of points that may still go in.  A child's key is itself, held in
    parents, or in a quotient search quotient.canon(child), held in
    quotient.keys.

    A child whose key is held is skipped; while the quotient's group may
    still grow, one that is not its key's raw point goes to quotient.learn
    first; once it is complete, a level runs quotient.settled (_steps).
    One above the height cap is pruned.  The first child whose key stop
    (None: never) accepts goes in and ends the level as hit, even when room
    is spent; any other goes in only while room is positive, and takes the
    points its key stands for.  The move functions return plain tuples,
    equal to the Point3 keys in lookups; a child becomes a Point3 only when
    inserted."""
    children = []
    pruned = False
    low = -cap_height
    if quotient is None:
        canon, held, learning = None, parents, False
    else:
        canon, held, learning = quotient.canon, quotient.keys, quotient.learning
        steps = steps if learning else quotient.settled
    for node in frontier:
        for g, f in steps:
            child = f(surface, node)
            key = child if canon is None else canon(child)
            if key in held:
                if learning and held[key] != child:
                    learning = quotient.learn(parents, node, g, child, key)
                continue
            x, y, z = child
            if not (low <= x <= cap_height and low <= y <= cap_height
                    and low <= z <= cap_height):
                pruned = True
                continue
            hit = stop is not None and stop(key)
            if not hit and room <= 0:
                return children, None, pruned, True, room
            child = _new(Point3, child)
            parents[child] = (node, g)
            if canon is not None:
                held[key] = child
            if hit:
                return children, child, pruned, False, room
            room -= 1 if canon is None else quotient.charge(key)
            children.append(child)
    return children, None, pruned, False, room


def _plant(parents, quotient, start) -> int:
    """Put start in as a root; returns the points its key stands for."""
    parents[start] = (None, None)
    if quotient is None:
        return 1
    key = quotient.canon(start)
    quotient.keys[key] = start
    return quotient.charge(key)


def _search(surface: Surface, steps, start: Point3, cap_height, cap_count, stop=None,
            parents=None, quotient=None):
    """BFS closure of start by _expand levels; returns (parents, hit,
    pruned, truncated).  The start is always kept, even above the height
    cap, and is not passed to stop; the hit, the first child stop accepts,
    is kept even when the count cap is full.  A parents map passed in is
    extended in place: its points count as reached, so they are never
    expanded, and cap_count counts them too.  A quotient search switches
    to its settled steps at the first level after its group is complete.
    """
    if parents is None:
        parents = {}
    start = _new(Point3, start)
    charge = _plant(parents, quotient, start)
    room = cap_count - (len(parents) if quotient is None else charge)
    frontier, pruned = [start], False
    while frontier:
        frontier, hit, cut, truncated, room = _expand(
            surface, steps, frontier, parents, cap_height, room, stop, quotient)
        pruned = pruned or cut
        if hit is not None or truncated:
            return parents, hit, pruned, truncated
    return parents, None, pruned, False


def _orbit_size(p) -> int:
    """|G.p|: the distinct arrangements of the moduli times 4 sign patterns,
    or 2^(nonzero coordinates) when one is 0."""
    x, y, z = abs(p[0]), abs(p[1]), abs(p[2])
    n = 1 if x == y == z else 3 if x == y or y == z or x == z else 6
    return n * (4, 4, 2, 1)[p.count(0)]


def _arrangements(p) -> int:
    """|S3.p|: the distinct arrangements of p's coordinates."""
    x, y, z = p
    return 1 if x == y == z else 3 if x == y or y == z or x == z else 6


def _sorted3(p) -> tuple:
    """p's coordinates in increasing order: its key under S3."""
    x, y, z = p
    if x > y:
        x, y = y, x
    if y > z:
        y, z = z, y
        if x > y:
            x, y = y, x
    return x, y, z


# A symmetry h = (sigma, signs) acts by (h.p)[i] = signs[i] * p[sigma[i]]:
# G is the 24 permutations and even sign changes, S3 the six permutations
# (the symmetries of G whose signs are the first, all +1).
_EVEN_SIGNS = ((1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1))
_G = tuple(itertools.product(itertools.permutations(range(3)), _EVEN_SIGNS))
_S3 = _G[::4]


def _act(h, p) -> tuple:
    (i, j, k), (a, b, c) = h
    return a * p[i], b * p[j], c * p[k]


def _compose(a, b) -> tuple:
    """The symmetry that acts as b, then a."""
    ((i, j, k), e), (t, f) = a, b
    return (t[i], t[j], t[k]), (e[0] * f[i], e[1] * f[j], e[2] * f[k])


def _conjugates() -> dict:
    """h -> {move t: h t h^-1}, over the Vieta moves for the h of G and the
    twists too for the h of S3.  Each is a move of t's kind: h.V(p) changes
    the coordinate h moves V's axis to, by the Vieta rule as h's signs are
    even; a twist is a Vieta move then a transposition whose support holds
    the move's axis (Ta+ = Vy.Pyz, Tb+ = Vz.Pxz, Tab+ = Vx.Pxy, read left
    to right, and their inverses), a shape a permutation keeps.  So the t'
    with t'(h.p) = h.t(p) at one point p whose move images differ is the one."""
    torus, p = Markoff11(0), (2, 3, 7)
    vieta, twists = _compile(torus, VIETA_MOVES), _compile(torus, "gamma_poly")
    return {h: {g: next(t for t, f_t in moves if f_t(torus, _act(h, p)) == _act(h, f(torus, p)))
                for g, f in moves}
            for h in _G for moves in [vieta + twists if h in _S3 else vieta]}


def _own_word(h) -> tuple:
    """The gamma_prime word that acts as h: its permutation, then its sign change."""
    sigma, signs = h
    flips = tuple(i for i in range(3) if signs[i] < 0)
    return (Move("P", sigma),) * (sigma != (0, 1, 2)) + (Move("S", flips),) * bool(flips)


_CONJ = _conjugates()


class _Quotient:
    """The keys of a quotient search and the symmetries they stand for.

    canon maps a point to its key, an image of it under the group full, and
    charge(key) is the number of points full makes of the key.  keys maps
    each key held to the raw point it went in with.  group maps each
    symmetry h known to keep the component searched to its word W_h (from
    learn, or _own_word), and gens lists the h found by edges.  learning is
    true while group is not all of full; the points held are then group's
    images of the raw points, else full's of the keys, and _expand runs settled.
    """

    def __init__(self, canon, charge, full, group, settled):
        self.canon, self.charge, self.full, self.group = canon, charge, full, group
        self.settled, self.keys, self.gens = settled, {}, []
        self.learning = len(group) < len(full)

    def learn(self, parents, node, g, child, key) -> bool:
        """The child g(node) has key but is not its raw point r, so the h
        with child = h.r keeps the component.  Unless group already takes r
        to child, add such an h with W_h = w_node + g + conj_h(w_r)^-1 (w:
        walks in parents) and close group under products by the generators
        so found, with W_ab = W_a + conj_a(W_b) (_join).  Returns learning."""
        raw, group = self.keys[key], self.group
        if any(_act(h, raw) == child for h in group):
            return True
        h = next(h for h in self.full if _act(h, raw) == child)
        group[h] = _join((*_walk(parents, node), g),
                         tuple(inverse_move(_CONJ[h][m]) for m in reversed(_walk(parents, raw))))
        self.gens.append(h)
        todo = list(group)
        while todo:
            a = todo.pop()
            for b in self.gens:
                c = _compose(a, b)
                if c not in group:
                    group[c] = _join(group[a], tuple(_CONJ[a][m] for m in group[b]))
                    todo.append(c)
        self.learning = len(group) < len(self.full)
        return self.learning

    def orbit(self, key, raw) -> dict:
        """The points held under key, in order."""
        p, group = (raw, self.group) if self.learning else (key, self.full)
        return dict.fromkeys(_new(Point3, (a * p[i], b * p[j], c * p[k]))
                             for (i, j, k), (a, b, c) in group)

    def __len__(self):
        if not self.learning:
            return sum(map(self.charge, self.keys))
        return sum(len(self.orbit(key, raw)) for key, raw in self.keys.items())


def _join(head: tuple, tail: tuple) -> tuple:
    """head + tail with the inverse pairs at the seam cancelled, so two
    reduced words (a tree walk is one) join to a reduced word."""
    n = 0
    while n < min(len(head), len(tail)) and tail[n] == inverse_move(head[-1 - n]):
        n += 1
    return head[:len(head) - n] + tail[n:]


_PRIME_11 = frozenset(generators("11", "gamma_prime"))
_POLY_11 = frozenset(generators("11", "gamma_poly"))
# shared: a G quotient's group is all of G and never learns; shortest words last for _extend
_G_GROUP = {h: _own_word(h) for h in sorted(_G, key=lambda h: -len(_own_word(h)))}


def _walk(parents: dict, p) -> tuple:
    """The moves of the tree path from the root to p, which parents holds."""
    back = []
    p, g = parents[p]
    while p is not None:
        back.append(g)
        p, g = parents[p]
    return tuple(reversed(back))


def _steps(surface: Surface, gens, cap_height, *ends) -> tuple:
    """(steps, one quotient per end): the Vieta moves and a G quotient
    for torus gamma_prime, the twists and an S3 quotient for torus
    gamma_poly from one end, else _compile(surface, gens) and Nones.  A
    meet of two S3 keys decides nothing until the stabilizer is known, and
    an end above the height cap, which stands for itself alone, searches
    plainly.  The settled steps, run once the group is complete, are the
    Vieta moves, or the first twist in steps per Vieta axis, told apart by
    their keys at (2, 3, 7).

    Proof that the S3 search is unchanged.  A twist is a Vieta move then a
    transposition, so the twists t, then t', on one axis make children
    t(p) and s.t(p) of one key and one height.  With the group complete, a
    held key needs no learn, so t' would skip s.t(p), its key held before
    t ran or by t; or prune it, as t pruned t(p); or never run, as t(p)
    ended the level as a hit (stop reads keys) or a refusal."""
    steps = _compile(surface, gens)
    if isinstance(surface, Markoff11) and max(map(linf_height, ends)) <= cap_height:
        moves = {g for g, _ in steps}
        if moves == _PRIME_11:
            vieta = _compile(surface, VIETA_MOVES)
            return vieta, [_Quotient(_canon_11, _orbit_size, _G, _G_GROUP, vieta) for _ in ends]
        if moves == _POLY_11 and len(ends) == 1:
            axes = {_sorted3(f(surface, (2, 3, 7))): (g, f) for g, f in reversed(steps)}
            return steps, [_Quotient(_sorted3, _arrangements, _S3, {_S3[0]: ()},
                                     sorted(axes.values(), key=steps.index))]
    return steps, [None] * len(ends)


def _tree_edges(surface: Surface, parents: dict, error: str) -> dict:
    """parents, {point: (parent, move)}, once each edge is checked by applying
    its move to the parent, or MarkoffError(error); each move's function is
    looked up once."""
    moves = {}
    for p, (parent, g) in parents.items():
        if parent is not None:
            f = moves.get(g) or moves.setdefault(g, _raw_move(surface, g))
            if f(surface, parent) != p:
                raise MarkoffError(error)
    return parents


class OrbitRun(_Frozen):
    """Result of a capped orbit BFS with one certificate word per point.

    parents maps each point the search put in to (parent, move), and the
    walk back to the root (_walk) is a word to it.  quotient is None in a
    plain search.  In a quotient search (_Quotient) the word to p is built
    from the walk w_r to the raw point r of its key (_extend): W_h +
    conj_h(w_r) for the h with p = h.r, with W_h the word the quotient's
    group holds for h and conj_h the move map _CONJ[h]."""

    def __init__(self, surface: Surface, start: Point3, parents: dict, caps_hit: bool,
                 quotient: _Quotient | None = None):
        vars(self).update(surface=surface, start=start, parents=parents, caps_hit=caps_hit,
                          quotient=quotient)

    def points(self):
        if self.quotient is None:
            return list(self.parents)
        orbit = self.quotient.orbit
        return [q for key, raw in self.quotient.keys.items() for q in orbit(key, raw)]

    def _extend(self, raw, w, p) -> tuple:
        """The moves to p from the moves w to the raw point of p's key, by the
        last h that fits; a KeyError unless the run holds p."""
        if p == raw:
            return w
        group = self.quotient.group
        for h in reversed(group):
            if _act(h, raw) == p:
                return group[h] + tuple(map(_CONJ[h].__getitem__, w))
        raise KeyError(p)

    def words(self) -> dict:
        """{point: word_to(point)} in points() order, certified with no
        replay per word: each tree edge is checked once, each W_h is
        replayed once from the start, and _CONJ's identities carry the
        rest.  A failed check raises MarkoffError."""
        surface, start, quotient = self.surface, self.start, self.quotient
        error = "orbit certificate failed to replay"
        walks = {}
        for p, (parent, g) in _tree_edges(surface, self.parents, error).items():
            walks[p] = () if parent is None else walks[parent] + (g,)
        for h, head in ({} if quotient is None else quotient.group).items():
            if apply_word(surface, MoveWord(surface.kind, head), start) != _act(h, start):
                raise MarkoffError(error)
        words = {}
        for p in self.points():
            raw = p if quotient is None else quotient.keys[quotient.canon(p)]
            words[p] = MoveWord(surface.kind, self._extend(raw, walks[raw], p))
        return words

    def word_to(self, p: Point3) -> MoveWord:
        quotient = self.quotient
        raw = p if quotient is None else quotient.keys[quotient.canon(p)]
        return MoveWord(self.surface.kind, self._extend(raw, _walk(self.parents, raw), p))

    def __len__(self):
        return len(self.parents) if self.quotient is None else len(self.quotient)


def orbit_bfs(
    surface: Surface, gens, start: Point3, cap_height: int, cap_count: int = 10**6
) -> OrbitRun:
    """Breadth-first closure of start under the generators, pruning any
    point of sup-norm above cap_height."""
    _require_exact(surface, start)
    _require_on_surface(surface, start)
    steps, (quotient,) = _steps(surface, gens, cap_height, start)
    parents, _, pruned, truncated = _search(surface, steps, start, cap_height, cap_count,
                                            quotient=quotient)
    return OrbitRun(surface, start, parents, pruned or truncated, quotient)


class EquivalenceResult(_Frozen):
    """Outcome of a capped equivalence search.

    equivalent=True comes with a verified connecting word.  False means
    "no within caps"; exhausted tells whether the capped search space was
    fully explored (pruned tells whether the height cap cut anything off,
    i.e. whether the true orbits may extend beyond it).
    """

    def __init__(self, equivalent: bool, word: MoveWord | None, exhausted: bool, pruned: bool):
        vars(self).update(equivalent=equivalent, word=word, exhausted=exhausted, pruned=pruned)


def equivalent(
    surface: Surface, gens, p: Point3, q: Point3, caps: Caps = DEFAULT_CAPS
) -> EquivalenceResult:
    """Bidirectional meet-in-the-middle search for a word sending p to q."""
    _require_exact(surface, p)
    _require_exact(surface, q)
    _require_on_surface(surface, p)
    _require_on_surface(surface, q)
    # compiled before the p == q answer, so a foreign generator always raises
    steps, quotients = _steps(surface, gens, caps.height, p, q)
    runs = [OrbitRun(surface, end, {}, False, quotient)
            for end, quotient in zip((p, q), quotients)]
    room = caps.count - sum(_plant(run.parents, run.quotient, run.start) for run in runs)
    held = [run.parents if run.quotient is None else run.quotient.keys for run in runs]
    (q_key,) = held[1]
    if q_key in held[0]:  # p == q, or one G-orbit in the quotient mode
        return EquivalenceResult(True, runs[0].word_to(q), p == q, False)

    # a BFS tree from each end; the smaller frontier grows by one level, a
    # child the other tree holds is a meet, and both trees share the count cap
    frontiers = [[p], [q]]
    pruned = False
    while frontiers[0] and frontiers[1]:
        i = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        frontiers[i], meet, cut, truncated, room = _expand(
            surface, steps, frontiers[i], runs[i].parents, caps.height, room,
            held[1 - i].__contains__, runs[i].quotient,
        )
        pruned = pruned or cut
        if truncated:
            return EquivalenceResult(False, None, False, pruned)
        if meet is not None:
            word = concat_words(runs[0].word_to(meet), runs[1].word_to(meet).inverse())
            if apply_word(surface, word, p) != q:  # pragma: no cover - safety net
                raise MarkoffError("equivalence certificate failed to replay")
            return EquivalenceResult(True, word, False, pruned)
    # one side ran out of new points: definitive for the capped graph
    return EquivalenceResult(False, None, True, pruned)


class ExceptionalSearch(_Frozen):
    """Semi-decision for membership in the exceptional locus."""

    def __init__(self, found: bool, word: MoveWord | None, exhausted: bool, pruned: bool):
        vars(self).update(found=found, word=word, exhausted=exhausted, pruned=pruned)


def is_exceptional(surface: Surface, p: Point3, caps: Caps = DEFAULT_CAPS) -> ExceptionalSearch:
    """Search the orbit of p under the elementary moves for a coordinate
    equal to +2 or -2.  A hit is certified; a miss is cap-relative."""
    _require_exact(surface, p)
    _require_on_surface(surface, p)
    if 2 in p or -2 in p:
        return ExceptionalSearch(True, identity_word(surface.kind), False, False)
    steps, (quotient,) = _steps(surface, "gamma_prime", caps.height, p)
    parents, hit, pruned, truncated = _search(
        surface, steps, p, caps.height, caps.count, stop=lambda q: 2 in q or -2 in q,
        quotient=quotient,
    )
    if hit is None:
        return ExceptionalSearch(False, None, not truncated, pruned)
    word = OrbitRun(surface, p, parents, False, quotient).word_to(hit)
    q = apply_word(surface, word, p)
    if not (2 in q or -2 in q):
        raise MarkoffError("exceptional witness failed to replay")
    return ExceptionalSearch(True, word, False, pruned)


# ---------------------------------------------------------------------------
# class numbers


class OrbitReport(_Frozen):
    """Box point classes under a generator set: representatives holds (Point3,
    in-box orbit size) and exceptional (Point3, witness word to a +-2 coordinate)."""

    def __init__(self, surface: Surface, generators: str, box: int, representatives: tuple,
                 exceptional: tuple, class_number_star: int, caps_hit: bool):
        vars(self).update(surface=surface, generators=generators, box=box,
                          representatives=representatives, exceptional=exceptional,
                          class_number_star=class_number_star, caps_hit=caps_hit)


def class_number(
    surface: Surface, gens_name: str, B: int, caps: Caps | None = None
) -> OrbitReport:
    """Label the box points by connected component of the move graph
    capped at height max(caps.height, B), and count the nondegenerate
    components.

    A component containing a coordinate +-2 goes to the exceptional list,
    one certified witness word per box point; caps_hit is set only when a
    search was truncated by caps.count.
    """
    if caps is None:
        caps = Caps(height=B)
    points = enumerate_points(surface, B)
    classes, forest, caps_hit = _label_classes(surface, gens_name, B, caps, points)
    witness = {}
    for p, (parent, g) in _forest_edges(surface, forest).items():
        witness[p] = (inverse_move(g),) + witness.get(parent, ())
    # walking the sorted points sorts the exceptional ones
    exceptional = tuple((p, MoveWord(surface.kind, witness.get(p, ()))) for p in points
                        if p in witness or 2 in p or -2 in p)
    reps = _representatives(classes, isinstance(surface, Markoff11) and gens_name == "gamma_prime")
    return OrbitReport(surface, gens_name, B, reps, exceptional, len(reps), caps_hit)


def _label_classes(surface: Surface, gens_name: str, B: int, caps: Caps, points) -> tuple:
    """(class member lists, forest, caps_hit) for the box points given, so
    a caller that needs both generator sets enumerates the box once.  A
    search stops at a box point labelled before or at the locus; one that
    hits the forest or the locus joins the forest with the edges of its
    path to the hit turned round, each move inverted.  A point above the
    box keeps the edge it first went in with and stops no search, as its
    witness may be longer than the path the search would find."""
    cap_height = max(caps.height, B)
    steps = _compile(surface, gens_name)
    label, classes, forest, caps_hit = {}, [], {}, False  # label: box point -> class index

    def stop(q):
        return q in label or (q in forest and linf_height(q) <= B) or 2 in q or -2 in q

    for p in points:
        if stop(p):
            continue
        parents, hit, _, truncated = _search(surface, steps, p, cap_height, caps.count, stop)
        caps_hit = caps_hit or truncated
        if hit is None or hit in label:  # a new class, or one it joins
            mark = len(classes) if hit is None else label[hit]
            if mark == len(classes):
                classes.append([])
            reached = [m for m in parents if m != hit and linf_height(m) <= B]
            classes[mark].extend(reached)
            label.update(dict.fromkeys(reached, mark))
            continue
        node, (parent, g) = hit, parents[hit]
        while parent is not None:
            forest.setdefault(parent, (node, inverse_move(g)))
            node, (parent, g) = parent, parents[parent]
        for m, edge in parents.items():
            if m != hit:
                forest.setdefault(m, edge)
    return classes, forest, caps_hit


def _forest_edges(surface: Surface, forest: dict) -> dict:
    """_tree_edges of a forest whose every parent is a +-2 point or went in
    before its child, so every chain of edges ends on the locus; else
    MarkoffError."""
    error, held = "exceptional witness failed to replay", set()
    for p, (parent, _) in forest.items():
        if parent not in held and (parent is None or 2 not in parent and -2 not in parent):
            raise MarkoffError(error)
        held.add(p)
    return _tree_edges(surface, forest, error)


def _representatives(classes, canonical: bool) -> tuple:
    """((representative, size), ...) of the member lists, by height, then
    point: each list's least lowest member, or with canonical the least
    _canon_11 form of one, on the torus a member too, since its 24
    symmetries are gamma_prime moves that keep the height."""
    reps = []
    for members in classes:
        heights = list(map(linf_height, members))
        low = min(heights)
        lows = [m for m, h in zip(members, heights) if h == low]
        reps.append((low, _new(Point3, min(map(_canon_11, lows))) if canonical else min(lows),
                     len(members)))
    reps.sort(key=lambda r: r[:2])
    return tuple(r[1:] for r in reps)


def _scan_labels(surface: Surface, B: int, H: int) -> dict:
    """{generator set: (exceptional box points, representatives)}, as
    class_number reports them at cap height H, for a scan row.

    A set's classes are the components of its move graph capped at height
    max(H, B) with no +-2 point, cut to the box, so _sweep at that height
    labels the row: for gamma_prime its locus-seeded points are the
    exceptional forest, which _forest_edges checks, and its root
    components the classes, merged by G on the torus; gamma_poly's classes
    are walked by _inbox_classes.  Above the box, the seeded points and
    every class are cut to the box, a class left with no box point is
    dropped, and the box's locus is counted by _sweep at B.

    On the torus the seeded points are exceptional under gamma_poly too, so
    only the root components are walked.  A capped gamma_prime path is a
    capped Vieta path then a symmetry of G, which normalizes the Vieta
    moves and keeps the height and the locus.  Each twist is a Vieta move
    then a transposition, one per Vieta axis
    (trace_algebra._TORUS_TWIST_WORDS).  Walk a Vieta path q_0 ... q_n by
    twists, holding s_j.q_j for a permutation s_j: the twist on s_j's image
    of the next move's axis passes through s_j.q_(j+1), at q_(j+1)'s
    height, so every step stays under the cap, and the walk ends at
    s_n.q_n, on the locus with q_n.  Conversely a twist is a gamma_prime
    word whose middle point has an endpoint's height, so a twist walk from
    a root component stays among the root components.
    """
    H = max(H, B)
    locus, seeded, components = _sweep(surface, H)
    off = [*seeded, *itertools.chain.from_iterable(components)]
    torus = isinstance(surface, Markoff11)
    classes = _inbox_classes(surface, "gamma_poly", off[len(seeded):] if torus else off, H)
    seeded = _forest_edges(surface, seeded)
    if H > B:
        locus, seeded, off = _sweep(surface, B)[0], _cut(seeded, B), _cut(off, B)
        components = [c for c in (_cut(c, B) for c in components) if c]
        classes = [c for c in (_cut(c, B) for c in classes) if c]
    runs = itertools.groupby(_representatives(components, torus), lambda r: r[0])
    prime = tuple((rep, sum(size for _, size in run)) for rep, run in runs)
    return {"gamma_prime": (locus + len(seeded), prime),
            "gamma_poly": (locus + len(off) - sum(map(len, classes)),
                           _representatives(classes, False))}


def _cut(points, B: int) -> list:
    """The points of sup-norm at most B."""
    return [p for p in points if linf_height(p) <= B]


def _inbox_classes(surface: Surface, gens_name: str, points, B: int) -> list:
    """The member lists of the components of the in-box move graph of
    gens_name among the box points off the +-2 locus that no in-box move
    joins to a locus point: one BFS from each of the points given that no
    earlier one reached."""
    steps, low = _compile(surface, gens_name), -B
    reached, classes = set(), []
    for root in points:
        if root in reached:
            continue
        reached.add(root)
        members, touched = [root], False
        for p in members:
            for _, f in steps:
                q = f(surface, p)
                x, y, z = q
                if not (low <= x <= B and low <= y <= B and low <= z <= B):
                    continue
                if 2 in q or -2 in q:
                    touched = True
                elif q not in reached:
                    reached.add(q)
                    members.append(_new(Point3, q))
        if not touched:
            classes.append(members)
    return classes


# ---------------------------------------------------------------------------
# parabolic lines on the torus surface


class ParabolicLine(_Frozen):
    """An affine line t -> origin + t*direction inside the surface, lying
    in the locus where the fixed coordinate equals +2 or -2."""

    def __init__(self, axis: int, value: int, origin: Point3, direction: Point3, integral: bool):
        vars(self).update(axis=axis, value=value, origin=origin, direction=direction,
                          integral=integral)

    def point_at(self, t):
        return Point3(
            self.origin.x + t * self.direction.x,
            self.origin.y + t * self.direction.y,
            self.origin.z + t * self.direction.z,
        )

    def contains(self, p: Point3) -> bool:
        t = p.y - self.origin.y  # the y-slot of every returned line is t
        return self.point_at(t) == p


class LineReport(_Frozen):
    """square_root is the s >= 0 with k - 2 = s^2, when k - 2 is a square."""

    def __init__(self, k: int, square_root: int | None, lines: tuple, note: str):
        vars(self).update(k=k, square_root=square_root, lines=lines, note=note)


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
    form = _sphere_form(Markoff11(k))
    lines = tuple(ParabolicLine(0, value, Point3(value, 0, a), Point3(0, 1, -m), True)
                  for value in (2, -2) for a, m, _ in _lines(form, 0, value, 0))
    if lines:
        return LineReport(k, math.isqrt(k - 2), lines, "")
    if k < 2:
        return LineReport(k, None, (), "k - 2 < 0: lines exist only over the complex numbers")
    return LineReport(k, None, (), "k - 2 is not a perfect square: lines are irrational")


def lines_cover_point(report: LineReport, p: Point3) -> bool:
    """True if some coordinate permutation of p putting its +-2 coordinate
    first lies on one of the returned lines."""
    for axis in range(3):
        if p[axis] not in (2, -2):
            continue
        q = list(p)
        q[0], q[axis] = q[axis], q[0]
        if any(line.contains(Point3(*q)) for line in report.lines):
            return True
    return False

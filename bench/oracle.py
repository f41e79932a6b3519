"""Independent oracles for the benchmark, and the command that pins their answers.

Nothing here imports `markoff`.  The moves are written from the formulas
in the package documentation (Vieta involutions, coordinate permutations,
even sign changes, and Dehn twists as composites of those), the box points
come from a plain integer scan, and class numbers are the connected
components of the in-box move graph found by union-find.

    python3 bench/oracle.py          # rewrite bench/pinned.json

Regeneration scans every four-holed-sphere tuple with entries in -3..3 at
box 200 and the torus rows k = -2..20 at box 1000, which takes several
minutes on one core.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections import deque

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")

TORUS_KS = tuple(range(-2, 21))
TORUS_BOX = 1000
SPHERE_ENTRIES = tuple(range(-3, 4))
SPHERE_BOX = 200
GENS = ("gamma_prime", "gamma_poly")

# Orbit-search cases: (name, surface type, parameters, height cap).  The
# dense torus case k=3 is all exceptional points on the lines x = +-2; the
# sparse ones have a few hundred points below the cap.
ORBIT_CASES = (
    ("torus_dense", "11", (3,), 500),
    ("torus_markoff", "11", (-2,), 2000),
    ("torus_k20", "11", (20,), 2000),
    ("sphere", "04", (0, 1, 2, 3), 300),
)
ROOT_BOX = 30  # roots of the orbit cases are the surface points in this box

# Deep points are grown from these roots by one Dehn twist that keeps the
# first coordinate fixed, so their digit counts grow linearly with depth
# (random Vieta words grow them like Fibonacci numbers instead).  A deep
# point has a seeded digit count in DEEP_DIGITS, always beyond int64.
DEEP_ROOTS = (
    ("11", (-2,), (3, 3, 3)),
    ("11", (20,), (-4, 1, 1)),
    ("11", (12,), (3, -1, 1)),
    ("04", (0, 1, 2, 3), (-4, -6, -7)),
    ("04", (2, 0, -1, 3), (7, -4, 6)),
    ("04", (-2, 1, 3, 3), (3, 1, 1)),
)
DEEP_DIGITS = (20, 150)
DEEP_MAX_DIGITS = 160


# ---------------------------------------------------------------------------
# surfaces and moves


def sphere_coefficients(k1, k2, k3, k4):
    return (
        k1 * k2 + k3 * k4,
        k1 * k4 + k2 * k3,
        k1 * k3 + k2 * k4,
        4 - (k1 * k1 + k2 * k2 + k3 * k3 + k4 * k4) - k1 * k2 * k3 * k4,
    )


def residual(kind, params, p):
    x, y, z = p
    if kind == "11":
        return x * x + y * y + z * z - x * y * z - 2 - params[0]
    a, b, c, d = sphere_coefficients(*params)
    return x * x + y * y + z * z + x * y * z - a * x - b * y - c * z - d


def _perm(sigma):
    return lambda p: (p[sigma[0]], p[sigma[1]], p[sigma[2]])


def _sign(i, j):
    def move(p):
        q = list(p)
        q[i], q[j] = -q[i], -q[j]
        return tuple(q)

    return move


def _then(*fs):
    def move(p):
        for f in fs:
            p = f(p)
        return p

    return move


def move_table(kind, params):
    """Token -> function on coordinate tuples, for every move token."""
    if kind == "11":
        vx = lambda p: (p[1] * p[2] - p[0], p[1], p[2])  # noqa: E731
        vy = lambda p: (p[0], p[0] * p[2] - p[1], p[2])  # noqa: E731
        vz = lambda p: (p[0], p[1], p[0] * p[1] - p[2])  # noqa: E731
        perms = {
            "Pxy": (1, 0, 2), "Pyz": (0, 2, 1), "Pxz": (2, 1, 0),
            "Pxyz": (2, 0, 1), "Pxzy": (1, 2, 0),
        }
        table = {"Vx": vx, "Vy": vy, "Vz": vz}
        table.update({tok: _perm(s) for tok, s in perms.items()})
        table.update({"Sxy": _sign(0, 1), "Syz": _sign(1, 2), "Sxz": _sign(0, 2)})
        # a twist is a transposition followed by a Vieta move; the inverse
        # runs the two involutions in the other order
        for curve, perm, vieta in (("a", "Pyz", vz), ("b", "Pxz", vx), ("ab", "Pxy", vy)):
            table["T" + curve + "+"] = _then(table[perm], vieta)
            table["T" + curve + "-"] = _then(vieta, table[perm])
        return table
    a, b, c, _ = sphere_coefficients(*params)
    vx = lambda p: (a - p[1] * p[2] - p[0], p[1], p[2])  # noqa: E731
    vy = lambda p: (p[0], b - p[0] * p[2] - p[1], p[2])  # noqa: E731
    vz = lambda p: (p[0], p[1], c - p[0] * p[1] - p[2])  # noqa: E731
    table = {"Vx": vx, "Vy": vy, "Vz": vz}
    for index, (f, g) in (("1", (vy, vz)), ("2", (vz, vx)), ("3", (vx, vy))):
        table["T" + index + "+"] = _then(f, g)
        table["T" + index + "-"] = _then(g, f)
    return table


def generator_tokens(kind, gens):
    if gens == "gamma_prime":
        if kind == "11":
            return ("Vx", "Vy", "Vz", "Pxy", "Pyz", "Pxz", "Sxy", "Syz", "Sxz")
        return ("Vx", "Vy", "Vz")
    if kind == "11":
        return ("Ta+", "Ta-", "Tb+", "Tb-", "Tab+", "Tab-")
    return ("T1+", "T1-", "T2+", "T2-", "T3+", "T3-")


def replay(table, word_text, p):
    """Apply a serialized move word; KeyError on an unknown token."""
    for tok in word_text.split():
        p = table[tok](p)
    return p


def height(p):
    return max(abs(v) for v in p)


def has_two(p):
    return any(v == 2 or v == -2 for v in p)


# ---------------------------------------------------------------------------
# box points and in-box components


def box_points(kind, params, B):
    """All integer points of sup-norm <= B, by solving the quadratic in z."""
    if kind == "11":
        k = params[0]
        coeffs = lambda x, y: (-x * y, x * x + y * y - 2 - k)  # noqa: E731
    else:
        a, b, c, d = sphere_coefficients(*params)
        coeffs = lambda x, y: (x * y - c, x * x + y * y - a * x - b * y - d)  # noqa: E731
    found = []
    for x in range(-B, B + 1):
        for y in range(-B, B + 1):
            q1, q0 = coeffs(x, y)
            disc = q1 * q1 - 4 * q0
            if disc < 0:
                continue
            s = math.isqrt(disc)
            if s * s != disc:
                continue
            for num in {-q1 + s, -q1 - s}:
                if num % 2 == 0 and abs(num // 2) <= B:
                    found.append((x, y, num // 2))
    return found


def scan_row(kind, params, B):
    """[class number under gamma_poly, class number under gamma_prime,
    exceptional points under gamma_prime, box points].

    A class is a connected component of the move graph on the box points;
    it is exceptional when a member has a coordinate equal to +-2, and the
    class number counts the others.
    """
    pts = box_points(kind, params, B)
    table = move_table(kind, params)
    index = {p: i for i, p in enumerate(pts)}
    out = {}
    for gens in GENS:
        parent = list(range(len(pts)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        moves = [table[t] for t in generator_tokens(kind, gens)]
        for p, i in index.items():
            for move in moves:
                j = index.get(move(p))
                if j is not None:
                    parent[find(i)] = find(j)
        members = {}
        for p, i in index.items():
            members.setdefault(find(i), []).append(p)
        bad = [m for m in members.values() if any(has_two(p) for p in m)]
        out[gens] = (len(members) - len(bad), sum(len(m) for m in bad))
    return [out["gamma_poly"][0], out["gamma_prime"][0], out["gamma_prime"][1], len(pts)]


def component(kind, params, gens, start, cap):
    """The in-cap component of start under a generator set."""
    table = move_table(kind, params)
    moves = [table[t] for t in generator_tokens(kind, gens)]
    seen = {start}
    queue = deque((start,))
    while queue:
        p = queue.popleft()
        for move in moves:
            q = move(p)
            if q not in seen and height(q) <= cap:
                seen.add(q)
                queue.append(q)
    return seen


# ---------------------------------------------------------------------------
# greedy reduction


def canonical_11(p):
    """The torus normal form: the least image of p under coordinate
    permutations and even sign changes, keyed on (moduli unsorted, number
    of negatives, negative positions, coordinates)."""
    best = None
    for sigma in itertools.permutations(range(3)):
        q0 = tuple(p[i] for i in sigma)
        for signs in ((1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1)):
            q = tuple(v * s for v, s in zip(q0, signs))
            key = (
                0 if abs(q[0]) <= abs(q[1]) <= abs(q[2]) else 1,
                sum(v < 0 for v in q),
                tuple(int(v < 0) for v in q),
                q,
            )
            if best is None or key < best:
                best = key
    return best[3]


def greedy_reduce(kind, params, p):
    """(status, point): descend the sup-norm by Vieta moves, trying z, y, x
    and keeping the first strict minimum, until no move lowers it or a
    coordinate equals +-2."""
    table = move_table(kind, params)
    vietas = (table["Vz"], table["Vy"], table["Vx"])
    while not has_two(p):
        best = min((move(p) for move in vietas), key=height)
        if height(best) >= height(p):
            return "reduced", canonical_11(p) if kind == "11" else p
        p = best
    return "exceptional_hit", p


def digits(p):
    return len(str(height(p)))


def grow_deep(kind, params, root, min_digits):
    """Apply the twist fixing the first coordinate until some coordinate
    has at least min_digits digits."""
    move = move_table(kind, params)["Ta+" if kind == "11" else "T1+"]
    p = tuple(root)
    while digits(p) < min_digits:
        p = move(p)
    if digits(p) > DEEP_MAX_DIGITS:
        raise ValueError(f"deep point has {digits(p)} digits")
    return p


def grow_complex(move, p, rng):
    """Apply one twist until the largest modulus passes a seeded 10^4..10^7.

    Much larger floats drift off the surface: at modulus M the residual
    carries rounding error near M^2 * 1e-16, which acts like a change of k
    and can stall the descent above its bound."""
    target = 10 ** rng.uniform(4, 7)
    while height(p) < target:
        p = move(p)
    return p


def complex_bound_11(k):
    """B(k) = max(8, (8(2+|k|))^(1/4), (4(2+|k|))^(1/3)), the torus descent target."""
    t = 2 + abs(k)
    return max(8.0, (8 * t) ** 0.25, (4 * t) ** (1 / 3))


def sphere_terminal(coeffs, p, C=48):
    """The first of the five sphere stopping conditions that holds at p."""
    a, b, c, d = coeffs
    x, y, z = p
    tests = (
        min(abs(x), abs(y), abs(z)) <= C,
        abs(y * z) <= C * max(1, abs(a)),
        abs(x * z) <= C * max(1, abs(b)),
        abs(x * y) <= C * max(1, abs(c)),
        abs(x * y * z) <= C * max(1, abs(d)),
    )
    return next((i + 1 for i, hit in enumerate(tests) if hit), None)


# ---------------------------------------------------------------------------
# regeneration


def regenerate():
    scan = {"torus_box": TORUS_BOX, "sphere_box": SPHERE_BOX, "torus": {}, "sphere": {}}
    for k in TORUS_KS:
        scan["torus"][str(k)] = scan_row("11", (k,), TORUS_BOX)
        print("torus", k, scan["torus"][str(k)], flush=True)
    for ks in itertools.product(SPHERE_ENTRIES, repeat=4):
        scan["sphere"][",".join(map(str, ks))] = scan_row("04", ks, SPHERE_BOX)
    print("sphere tuples", len(scan["sphere"]), flush=True)

    orbit = []
    for name, kind, params, cap in ORBIT_CASES:
        roots = sorted(box_points(kind, params, ROOT_BOX), key=lambda p: (height(p), p))
        case = {"name": name, "type": kind, "params": list(params), "cap": cap,
                "roots": [list(r) for r in roots], "size": {}, "component": {},
                "exceptional": []}
        for gens in GENS:
            comp_of = {}
            sizes = []
            for r in roots:
                if r not in comp_of:
                    comp = component(kind, params, gens, r, cap)
                    info = (len(set(comp_of.values())), len(comp), any(map(has_two, comp)))
                    for q in comp:
                        comp_of[q] = info
                sizes.append(comp_of[r][1])
            case["size"][gens] = sizes
            case["component"][gens] = [comp_of[r][0] for r in roots]
            if gens == "gamma_prime":
                case["exceptional"] = [comp_of[r][2] for r in roots]
        orbit.append(case)
        print("orbit", name, len(roots), flush=True)

    deep = []
    lo, hi = DEEP_DIGITS
    for kind, params, root in DEEP_ROOTS:
        if residual(kind, params, root) != 0:
            raise ValueError(f"deep root {root} is not on surface {params}")
        expected = {greedy_reduce(kind, params, grow_deep(kind, params, root, d))
                    for d in range(lo, hi + 1)}
        if len(expected) != 1:
            raise ValueError(f"deep points from {root} reduce to {expected}")
        status, point = expected.pop()
        deep.append({"type": kind, "params": list(params), "root": list(root),
                     "status": status, "reduced": list(point)})
        print("deep", params, root, status, point, flush=True)

    doc = {"scan": scan, "orbit": orbit, "deep": deep}
    with open(PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    regenerate()

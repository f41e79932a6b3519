"""Algebraic-expansion checks: the move and trace laws hold as polynomial
identities, not merely on sampled inputs.  sympy is the independent engine."""

import sympy as sp

from markoff.surfaces import Cubic04, Markoff11, Point3, boundary_trace_11
from markoff.moves import (
    VIETA_MOVES,
    Move,
    MoveWord,
    apply_move,
    apply_word,
    dehn_twist_04,
    dehn_twist_11,
    generators,
)
from markoff.orbits import _CONJ, _G, _S3, _act, _own_word
from markoff.trace_algebra import (
    Mat2,
    commutator_trace,
    f3_relations,
    fricke_coords,
    mat_inv,
    mat_mul,
    mat_trace,
    trace_product_identity,
)

X, Y, Z, K = sp.symbols("x y z k")
K1, K2, K3, K4 = sp.symbols("k1 k2 k3 k4")
P = Point3(X, Y, Z)

A_ENTRIES = sp.symbols("a1 b1 c1 d1")
B_ENTRIES = sp.symbols("a2 b2 c2 d2")
C_ENTRIES = sp.symbols("a3 b3 c3 d3")
MA, MB, MC = Mat2(*A_ENTRIES), Mat2(*B_ENTRIES), Mat2(*C_ENTRIES)


def _det(m):
    return m.m11 * m.m22 - m.m12 * m.m21


def _sphere():
    a = K1 * K2 + K3 * K4
    b = K1 * K4 + K2 * K3
    c = K1 * K3 + K2 * K4
    d = 4 - (K1**2 + K2**2 + K3**2 + K4**2) - K1 * K2 * K3 * K4
    return Cubic04(K1, K2, K3, K4, a, b, c, d)


def _res11(q):
    return q[0] ** 2 + q[1] ** 2 + q[2] ** 2 - q[0] * q[1] * q[2] - 2 - K


def _res04(s, q):
    return (
        q[0] ** 2 + q[1] ** 2 + q[2] ** 2 + q[0] * q[1] * q[2]
        - s.a * q[0] - s.b * q[1] - s.c * q[2] - s.d
    )


def test_torus_generators_preserve_residual_identically():
    s = Markoff11(K)
    for m in generators("11", "gamma_prime") + generators("11", "gamma_poly"):
        q = apply_move(s, m, P)
        assert sp.expand(_res11(q) - _res11(P)) == 0


def test_permutations_conjugate_twists_identically():
    # h.t(p) = _CONJ[h][t](h.p) for all 36 pairs of a permutation h and a
    # twist t, as polynomials: the S3 quotient's words W_h + conj_h(w) rest
    # on it, and _CONJ picks each entry at one point only
    s = Markoff11(K)
    for h in _S3:
        for t in generators("11", "gamma_poly"):
            lhs = _act(h, apply_move(s, t, P))
            rhs = apply_move(s, _CONJ[h][t], _act(h, P))
            assert all(sp.expand(u - v) == 0 for u, v in zip(lhs, rhs)), (h, t)


def test_g_symmetries_conjugate_vieta_moves_identically():
    # h.V(p) = _CONJ[h][V](h.p) for all 72 pairs of a symmetry h of G and a
    # Vieta move V, and h's own word acts as h, as polynomials: the G
    # quotient's words W_h + conj_h(w) rest on both, and _CONJ picks each
    # entry at one point only
    s = Markoff11(K)
    for h in _G:
        for v in VIETA_MOVES:
            lhs = _act(h, apply_move(s, v, P))
            rhs = apply_move(s, _CONJ[h][v], _act(h, P))
            assert all(sp.expand(u - w) == 0 for u, w in zip(lhs, rhs)), (h, v)
        assert apply_word(s, MoveWord("11", _own_word(h)), P) == _act(h, P), h


def test_sphere_generators_preserve_residual_identically():
    s = _sphere()
    for m in generators("04", "gamma_prime") + generators("04", "gamma_poly"):
        q = apply_move(s, m, P)
        assert sp.expand(_res04(s, q) - _res04(s, P)) == 0


def test_twist_inverses_are_polynomial_identities():
    s = _sphere()
    for which in ("a", "b", "ab"):
        assert dehn_twist_11(which, -1, dehn_twist_11(which, 1, P)) == P
    for index in (1, 2, 3):
        r = dehn_twist_04(s, index, -1, dehn_twist_04(s, index, 1, P))
        assert all(sp.expand(u - v) == 0 for u, v in zip(r, P))


def test_sphere_twists_decompose_into_vietas_identically():
    s = _sphere()
    for index, axes in ((1, (1, 2)), (2, (2, 0)), (3, (0, 1))):
        q = P
        for axis in axes:
            q = apply_move(s, Move("V", axis), q)
        t = dehn_twist_04(s, index, 1, P)
        assert all(sp.expand(u - v) == 0 for u, v in zip(q, t))


def test_trace_laws_mod_determinant_one():
    det_a, det_b = _det(MA), _det(MB)
    law = commutator_trace(MA, MB) * det_a * det_b - boundary_trace_11(
        fricke_coords(MA, MB)
    )
    assert sp.expand(sp.reduced(sp.expand(law), [det_a - 1, det_b - 1])[1]) == 0
    tpi = sp.expand(trace_product_identity(MA, MB))
    assert sp.expand(sp.reduced(tpi, [det_a - 1, det_b - 1])[1]) == 0


def test_rank3_relations_and_quad_boundary_mod_determinant_one():
    gens = [_det(MA) - 1, _det(MB) - 1, _det(MC) - 1]
    ordering = A_ENTRIES + B_ENTRIES + C_ENTRIES
    g = sp.groebner(gens, *ordering, order="grevlex")
    r1, r2 = f3_relations(MA, MB, MC)
    assert g.reduce(sp.expand(r1))[1] == 0
    assert g.reduce(sp.expand(r2))[1] == 0

    # boundary data of the quad (C1, C2, C3, (C1 C2 C3)^-1) satisfies the
    # four-holed sphere equation identically
    c4 = mat_inv(mat_mul(mat_mul(MA, MB), MC))
    t = [mat_trace(m) for m in (MA, MB, MC, c4)]
    a = t[0] * t[1] + t[2] * t[3]
    b = t[0] * t[3] + t[1] * t[2]
    c = t[0] * t[2] + t[1] * t[3]
    d = 4 - sum(v * v for v in t) - t[0] * t[1] * t[2] * t[3]
    px = mat_trace(mat_mul(MA, MB))
    py = mat_trace(mat_mul(MB, MC))
    pz = mat_trace(mat_mul(MA, MC))
    resid = px**2 + py**2 + pz**2 + px * py * pz - a * px - b * py - c * pz - d
    assert g.reduce(sp.expand(resid))[1] == 0

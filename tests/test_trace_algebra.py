import random

import pytest

from markoff.surfaces import (
    DomainMismatch,
    Point3,
    RelationViolation,
    boundary_trace_11,
    common_domain,
    residual,
    scalar_domain,
)
from markoff.moves import dehn_twist_04, dehn_twist_11
from markoff.trace_algebra import (
    IDENTITY,
    Mat2,
    Quad,
    UNIPOTENT_LOWER,
    UNIPOTENT_UPPER,
    _conjugate,
    _point,
    _quad_point,
    _trace_mul,
    check_sl2,
    commutator_trace,
    f3_relations,
    fricke_coords,
    lift_twist_04,
    lift_twist_11,
    make_pair,
    make_quad,
    mat_det,
    mat_inv,
    mat_mul,
    mat_trace,
    quad_to_04_point,
    random_quad,
    random_sl2,
    trace_product_identity,
)

A0 = UNIPOTENT_UPPER  # [[1,1],[0,1]]
B0 = UNIPOTENT_LOWER  # [[1,0],[1,1]]


def test_mat_basics():
    assert mat_mul(A0, B0) == Mat2(2, 1, 1, 1)
    assert mat_det(A0) == 1
    assert mat_mul(A0, mat_inv(A0)) == IDENTITY
    assert mat_trace(IDENTITY) == 2


def test_random_sl2_has_det_one():
    rng = random.Random(0)
    for _ in range(500):
        assert mat_det(random_sl2(rng)) == 1


def test_trace_product_identity_examples():
    assert trace_product_identity(IDENTITY, IDENTITY) == 0
    assert trace_product_identity(A0, B0) == 0
    # A = B reduces to tr(A)^2 - tr(A^2) - 2 = 0
    rng = random.Random(1)
    for _ in range(300):
        a = random_sl2(rng)
        assert mat_trace(a) ** 2 - mat_trace(mat_mul(a, a)) - 2 == 0
        assert trace_product_identity(a, a) == 0


def test_trace_product_identity_random():
    rng = random.Random(2)
    for _ in range(2000):
        assert trace_product_identity(random_sl2(rng), random_sl2(rng)) == 0


def test_fricke_examples():
    assert fricke_coords(IDENTITY, IDENTITY) == Point3(2, 2, 2)
    assert fricke_coords(A0, B0) == Point3(2, 2, 3)
    rng = random.Random(3)
    for _ in range(200):
        a = random_sl2(rng)
        assert fricke_coords(a, mat_inv(a)) == Point3(
            mat_trace(a), mat_trace(a), 2
        )


def test_commutator_examples():
    assert commutator_trace(IDENTITY, IDENTITY) == 2
    comm = mat_mul(mat_mul(A0, B0), mat_mul(mat_inv(A0), mat_inv(B0)))
    assert comm == Mat2(3, -1, 1, 0)
    assert commutator_trace(A0, B0) == 3
    assert boundary_trace_11(Point3(2, 2, 3)) == 3
    rng = random.Random(4)
    for _ in range(200):
        a = random_sl2(rng)
        assert commutator_trace(a, IDENTITY) == 2


def test_commutator_equals_boundary_trace():
    rng = random.Random(5)
    for _ in range(2000):
        a = random_sl2(rng)
        b = random_sl2(rng)
        assert commutator_trace(a, b) == boundary_trace_11(fricke_coords(a, b))


def test_f3_relations_identity_case():
    assert f3_relations(IDENTITY, IDENTITY, IDENTITY) == (0, 0)


def test_f3_relations_degenerate_case():
    rng = random.Random(6)
    for _ in range(200):
        assert f3_relations(random_sl2(rng), IDENTITY, IDENTITY) == (0, 0)


def test_f3_relations_random():
    rng = random.Random(7)
    for _ in range(2000):
        r1, r2 = f3_relations(random_sl2(rng), random_sl2(rng), random_sl2(rng))
        assert r1 == 0 and r2 == 0


def test_make_quad_validates_relation():
    with pytest.raises(RelationViolation):
        make_quad(A0, B0, A0, A0)
    with pytest.raises(RelationViolation):
        make_pair(Mat2(2, 0, 0, 2), IDENTITY)


def test_quad_to_04_point_identity():
    surface, p = quad_to_04_point(make_quad(IDENTITY, IDENTITY, IDENTITY))
    assert surface.params == (2, 2, 2, 2)
    assert p == Point3(2, 2, 2)
    assert residual(surface, p) == 0


def test_quad_to_04_point_explicit():
    c3 = Mat2(0, -1, 1, 0)
    quad = make_quad(A0, B0, c3)
    surface, p = quad_to_04_point(quad)
    assert residual(surface, p) == 0


def test_quad_to_04_point_random():
    rng = random.Random(8)
    for _ in range(1000):
        surface, p = quad_to_04_point(random_quad(rng))
        assert residual(surface, p) == 0


def test_lift_twist_11_worked_example():
    pair = make_pair(A0, B0)
    lifted = lift_twist_11("a", pair, 1)
    assert lifted == (A0, mat_mul(A0, B0))
    assert fricke_coords(*lifted) == Point3(2, 3, 4)
    assert dehn_twist_11("a", 1, Point3(2, 2, 3)) == Point3(2, 3, 4)


def test_lift_twist_11_identity_twist():
    pair = make_pair(IDENTITY, B0)
    assert lift_twist_11("a", pair, 1) == pair


def test_lift_twist_11_inverse_contract():
    rng = random.Random(9)
    for _ in range(300):
        pair = make_pair(random_sl2(rng), random_sl2(rng))
        for which in ("a", "b", "ab"):
            assert lift_twist_11(which, lift_twist_11(which, pair, 1), -1) == pair
            assert lift_twist_11(which, lift_twist_11(which, pair, -1), 1) == pair


def test_lift_twist_11_commuting_square():
    rng = random.Random(10)
    for _ in range(1000):
        pair = make_pair(random_sl2(rng), random_sl2(rng))
        p = fricke_coords(*pair)
        for which in ("a", "b", "ab"):
            for direction in (1, -1):
                lifted = lift_twist_11(which, pair, direction)
                assert fricke_coords(*lifted) == dehn_twist_11(which, direction, p)


def test_lift_twist_04_identity_quad():
    quad = make_quad(IDENTITY, IDENTITY, IDENTITY)
    for index in (1, 2, 3):
        assert lift_twist_04(index, quad, 1) == quad


def test_lift_twist_04_preserves_x_trace():
    rng = random.Random(11)
    for _ in range(300):
        q = random_quad(rng)
        q2 = lift_twist_04(1, q, 1)
        assert mat_trace(mat_mul(q2.C1, q2.C2)) == mat_trace(mat_mul(q.C1, q.C2))


def test_lift_twist_04_preserves_boundary_and_relation():
    rng = random.Random(12)
    for _ in range(300):
        q = random_quad(rng)
        for index in (1, 2, 3):
            q2 = lift_twist_04(index, q, 1)
            make_quad(*q2)  # raises if the product relation broke
            assert [mat_trace(m) for m in q2] == [mat_trace(m) for m in q]


def test_lift_twist_04_commuting_square():
    rng = random.Random(13)
    for _ in range(500):
        quad = random_quad(rng)
        surface, p = quad_to_04_point(quad)
        for index in (1, 2, 3):
            for direction in (1, -1):
                lifted = lift_twist_04(index, quad, direction)
                assert quad_to_04_point(lifted)[1] == dehn_twist_04(
                    surface, index, direction, p
                )


def test_lift_twist_04_inverse_contract():
    rng = random.Random(14)
    for _ in range(200):
        quad = random_quad(rng)
        for index in (1, 2, 3):
            assert lift_twist_04(index, lift_twist_04(index, quad, 1), -1) == quad


def test_check_sl2_approx_tolerance():
    check_sl2(Mat2(1.0, 0.0, 0.0, 1.0 + 1e-12))
    with pytest.raises(RelationViolation):
        check_sl2(Mat2(1.0, 0.0, 0.0, 1.0 + 1e-6))


# ---------------------------------------------------------------------------
# the exact fast paths against the generic formulas they replaced

_UNIPOTENTS = (UNIPOTENT_UPPER, UNIPOTENT_LOWER, mat_inv(UNIPOTENT_UPPER), mat_inv(UNIPOTENT_LOWER))


def _reference_sl2(rng, max_len):
    """random_sl2 as a generic loop: one mat_mul by the drawn unipotent a step."""
    m = IDENTITY
    for _ in range(rng.randint(0, max_len)):
        m = mat_mul(m, _UNIPOTENTS[rng.randrange(4)])
    return m


def _reference_quad(rng, max_len):
    c1, c2, c3 = (_reference_sl2(rng, max_len) for _ in range(3))
    return Quad(c1, c2, c3, mat_inv(mat_mul(mat_mul(c1, c2), c3)))


@pytest.mark.parametrize("max_len", [0, 1, 6, 10])
def test_random_draws_match_reference_loop(max_len):
    # the same matrices from the same draws, leaving the same generator state
    for seed in range(200):
        fast, slow = random.Random(seed), random.Random(seed)
        m = random_sl2(fast, max_len)
        assert type(m) is Mat2 and m == _reference_sl2(slow, max_len), seed
        assert fast.getstate() == slow.getstate()
        q = random_quad(fast, max_len)
        assert type(q) is Quad and q == _reference_quad(slow, max_len), seed
        assert fast.getstate() == slow.getstate()
        p = _point(fast)
        assert type(p) is Point3 and p == Point3(*(slow.randint(-100, 100) for _ in range(3)))
        assert fast.getstate() == slow.getstate()


def _matrices(rng, kind, n):
    """n matrices of one scalar kind, of any determinant: ints beyond
    int64, floats and complex numbers."""
    draw = {
        "bigint": lambda: rng.randint(-2**90, 2**90),
        "float": lambda: rng.uniform(-1e3, 1e3),
        "complex": lambda: complex(rng.uniform(-50, 50), rng.uniform(-50, 50)),
    }[kind]
    return [Mat2(draw(), draw(), draw(), draw()) for _ in range(n)]


@pytest.mark.parametrize("kind", ["bigint", "float", "complex"])
def test_direct_traces_match_generic_products(kind):
    # equal to the last bit: each trace sums the diagonal in mat_trace's order
    rng = random.Random(21)
    for _ in range(300):
        a, b, c = _matrices(rng, kind, 3)
        assert _trace_mul(a, b) == mat_trace(mat_mul(a, b))
        assert _conjugate(a, b) == mat_mul(mat_mul(a, b), mat_inv(a))
        assert fricke_coords(a, b) == (mat_trace(a), mat_trace(b), mat_trace(mat_mul(a, b)))
        assert trace_product_identity(a, b) == (
            mat_trace(a) * mat_trace(b)
            - mat_trace(mat_mul(a, b))
            - mat_trace(mat_mul(a, mat_inv(b)))
        )
        assert commutator_trace(a, b) == mat_trace(
            mat_mul(mat_mul(a, b), mat_mul(mat_inv(a), mat_inv(b)))
        )
        d = Mat2(1, 2, 3, 4)
        q = Quad(a, b, c, d)
        assert _quad_point(q) == tuple(
            mat_trace(mat_mul(u, v)) for u, v in ((a, b), (b, c), (a, c))
        )
        t1, t2, t3 = mat_trace(a), mat_trace(b), mat_trace(c)
        t12, t23, t13 = (mat_trace(mat_mul(u, v)) for u, v in ((a, b), (b, c), (a, c)))
        t123 = mat_trace(mat_mul(mat_mul(a, b), c))
        t132 = mat_trace(mat_mul(mat_mul(a, c), b))
        assert f3_relations(a, b, c) == (
            t123 + t132 - (t12 * t3 + t13 * t2 + t23 * t1 - t1 * t2 * t3),
            t123 * t132 - (
                (t1 * t1 + t2 * t2 + t3 * t3)
                + (t12 * t12 + t23 * t23 + t13 * t13)
                - (t1 * t2 * t12 + t2 * t3 * t23 + t1 * t3 * t13)
                + t12 * t23 * t13
                - 4
            ),
        )


def _conjugated(q, first, D):
    ms = list(q)
    for i in (first, first + 1):
        ms[i] = mat_mul(mat_mul(D, ms[i]), mat_inv(D))
    return Quad(*ms)


def test_lift_twist_04_matches_generic_conjugation():
    rng = random.Random(22)
    for _ in range(300):
        q = random_quad(rng, 6)
        for index, first in ((1, 0), (2, 1)):
            D = mat_mul(q[first], q[first + 1])
            assert lift_twist_04(index, q, 1) == _conjugated(q, first, D)
            assert lift_twist_04(index, q, -1) == _conjugated(q, first, mat_inv(D))


def _common_domain_oracle(values):
    """common_domain as it classified every value one by one."""
    domains = {scalar_domain(v) for v in values}
    if len(domains) != 1:
        raise DomainMismatch(f"mixed scalar domains in {tuple(values)!r}")
    return domains.pop()


class _Int(int):
    pass


def _outcome(f, values):
    try:
        return "ok", f(values)
    except Exception as exc:  # the type and text must match too
        return type(exc), str(exc)


@pytest.mark.parametrize("values", [
    (), [], (1,), (1, 2, 3), [4, -5], Point3(1, 2, 3), Mat2(2**70, -2**90, 0, 1),
    (True,), (1, False), (False, 2.0), (_Int(3), 4), (_Int(3),), (5, _Int(6)),
    (1.0, 2.5), (1.0, 2), (2, 1.5), (1j, 2.0), (1, 2j), (float("nan"),), (1, float("inf")),
    (1.0, complex(float("inf"), 0)), ("1", 2), (None,), (1, 2, None), (2.0, "x"),
], ids=repr)
def test_common_domain_matches_oracle(values):
    assert _outcome(common_domain, values) == _outcome(_common_domain_oracle, values)


def test_check_sl2_and_make_quad_keep_their_checks():
    with pytest.raises(TypeError):
        check_sl2(Mat2(True, 0, 0, 1))
    with pytest.raises(DomainMismatch):
        check_sl2(Mat2(1, 0, 0, 1.0))
    with pytest.raises(RelationViolation):
        check_sl2(Mat2(2**70, 1, 1, 0))
    with pytest.raises(RelationViolation):
        make_quad(A0, B0, A0, A0)
    c3 = Mat2(0.0, -1.0, 1.0, 0.0)
    q = make_quad(Mat2(1.0, 1.0, 0.0, 1.0), Mat2(1.0, 0.0, 1.0, 1.0), c3)
    assert type(q) is Quad and make_quad(*q) == q

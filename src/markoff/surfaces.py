"""Cubic surface models in trace coordinates, with their scalar domains.

Two families of affine cubic surfaces in coordinates (x, y, z):

    one-holed torus     x^2 + y^2 + z^2 - x*y*z - 2 = k
    four-holed sphere   x^2 + y^2 + z^2 + x*y*z = a*x + b*y + c*z + d

For the four-holed sphere the coefficients derive from the four boundary
parameters (k1, k2, k3, k4):

    a = k1*k2 + k3*k4
    b = k1*k4 + k2*k3
    c = k1*k3 + k2*k4
    d = 4 - (k1^2 + k2^2 + k3^2 + k4^2) - k1*k2*k3*k4

Scalars live in one of two domains: exact (arbitrary-precision Python int)
or approximate (Python float/complex with finite components; reals are
complex numbers with zero imaginary part).  Points and surface parameters
are homogeneous in one domain; mixing the two raises DomainMismatch.
"""

from __future__ import annotations

import cmath
from collections import namedtuple

Scalar = int | float | complex

EXACT = "exact"
APPROX = "approx"

# |residual| <= ON_SURFACE_TOL * (1 + Height(params)) counts as "on surface"
# in the approximate domain.
ON_SURFACE_TOL = 1e-9


class MarkoffError(Exception):
    """Base class for errors raised by this package."""


class DomainMismatch(MarkoffError):
    """Exact and approximate scalars were mixed in one object or call."""


class NonFiniteScalar(MarkoffError):
    """A NaN or infinity entered the approximate domain."""


class MoveMismatch(MarkoffError):
    """A move was applied to a surface type it is not defined on."""


class RelationViolation(MarkoffError):
    """A representation tuple fails its defining product relation."""


class Point3(namedtuple("Point3", "x y z")):
    """A point (x, y, z) in trace coordinates."""

    __slots__ = ()


def scalar_domain(v: Scalar) -> str:
    """Classify a scalar as exact or approximate, rejecting NaN/inf."""
    if isinstance(v, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(v, int):
        return EXACT
    if isinstance(v, (float, complex)):
        if not cmath.isfinite(complex(v)):
            raise NonFiniteScalar(f"non-finite scalar {v!r}")
        return APPROX
    raise TypeError(f"unsupported scalar type {type(v).__name__}")


def common_domain(values) -> str:
    """Domain shared by all values; DomainMismatch if they disagree."""
    if not isinstance(values, tuple):
        values = tuple(values)
    for v in values:  # all plain ints, the common case, at once
        if type(v) is not int:
            break
    else:
        if values:
            return EXACT
    domains = {scalar_domain(v) for v in values}
    if len(domains) != 1:
        raise DomainMismatch(f"mixed scalar domains in {tuple(values)!r}")
    return domains.pop()


def point_domain(p: Point3) -> str:
    return common_domain(p)


class _Frozen:
    """Base of the immutable value types: a subclass's __init__ puts its fields,
    in order, in the instance dict, so defining it runs no generated code and a
    field reads as fast as a plain attribute; eq, hash, repr and _replace use them."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in vars(self).items())})"

    def _replace(self, **changes):
        """A copy with the named fields changed, as a namedtuple's _replace."""
        return type(self)(**{**vars(self), **changes})


class Markoff11(_Frozen):
    """The one-holed torus surface x^2+y^2+z^2-xyz-2 = k."""

    kind = "11"

    def __init__(self, k: Scalar):
        vars(self)["k"] = k

    @property
    def params(self) -> tuple:
        return (self.k,)

    @property
    def domain(self) -> str:
        return scalar_domain(self.k)


class Cubic04(_Frozen):
    """The four-holed sphere surface x^2+y^2+z^2+xyz = ax+by+cz+d.

    Built through make_cubic04 so that (a, b, c, d) are always the derived
    values; they are cached here because every move on this surface reads
    them.
    """

    kind = "04"

    def __init__(self, k1: Scalar, k2: Scalar, k3: Scalar, k4: Scalar,
                 a: Scalar, b: Scalar, c: Scalar, d: Scalar):
        vars(self).update(k1=k1, k2=k2, k3=k3, k4=k4, a=a, b=b, c=c, d=d)

    @property
    def params(self) -> tuple:
        return (self.k1, self.k2, self.k3, self.k4)

    @property
    def domain(self) -> str:
        return common_domain(self.params)


Surface = Markoff11 | Cubic04


def cubic04_coefficients(k1: Scalar, k2: Scalar, k3: Scalar, k4: Scalar) -> tuple:
    """The (a, b, c, d) coefficients determined by boundary parameters."""
    a = k1 * k2 + k3 * k4
    b = k1 * k4 + k2 * k3
    c = k1 * k3 + k2 * k4
    d = 4 - (k1 * k1 + k2 * k2 + k3 * k3 + k4 * k4) - k1 * k2 * k3 * k4
    return a, b, c, d


def make_cubic04(k1: Scalar, k2: Scalar, k3: Scalar, k4: Scalar) -> Cubic04:
    """Build a four-holed sphere surface from its boundary parameters."""
    common_domain((k1, k2, k3, k4))
    a, b, c, d = cubic04_coefficients(k1, k2, k3, k4)
    return Cubic04(k1, k2, k3, k4, a, b, c, d)


def _check_domains(surface: Surface, p: Point3) -> None:
    if surface.domain != point_domain(p):
        raise DomainMismatch(
            f"surface domain {surface.domain} vs point domain {point_domain(p)}"
        )


def residual(surface: Surface, p: Point3) -> Scalar:
    """LHS - RHS of the defining equation; zero iff p lies on the surface."""
    _check_domains(surface, p)
    x, y, z = p
    if isinstance(surface, Markoff11):
        return x * x + y * y + z * z - x * y * z - 2 - surface.k
    return (
        x * x + y * y + z * z + x * y * z
        - surface.a * x - surface.b * y - surface.c * z - surface.d
    )


def boundary_trace_11(p: Point3) -> Scalar:
    """The boundary (commutator) trace x^2+y^2+z^2-xyz-2 of a torus point."""
    x, y, z = p
    return x * x + y * y + z * z - x * y * z - 2


def linf_height(p: Point3) -> Scalar:
    """max(|x|, |y|, |z|), using the complex modulus in the approx domain."""
    x, y, z = p
    return max(abs(x), abs(y), abs(z))


def height(params) -> Scalar:
    """Height of a parameter tuple: max(1, |k_1|, ..., |k_n|)."""
    return max(1, *(abs(v) for v in params))


def on_surface(surface: Surface, p: Point3) -> bool:
    """Exact domain: residual == 0.  Approx domain: |residual| within
    1e-9 * (1 + max |parameter|)."""
    r = residual(surface, p)
    if surface.domain == EXACT:
        return r == 0
    return abs(r) <= ON_SURFACE_TOL * (1 + max(abs(v) for v in surface.params))

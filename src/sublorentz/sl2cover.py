"""The universal cover of SL2(R) as an executable group.

Elements are pairs (c, w) in R x C.  The projection onto SU(1,1),

    (c, w)  |->  [[exp(ic) sqrt(1+|w|^2), w], [conj(w), exp(-ic) sqrt(1+|w|^2)]],

is a group homomorphism; the angle coordinate c is unbounded (no wrapping),
which is what distinguishes the cover from the matrix group.  The group law
is implemented directly in (c, w) coordinates; the arctangent correction in
the angle component stays on the principal branch because its denominator is
provably positive, and free of cancellation (see :func:`multiply`).  A power
g^k is taken in closed form on the projection, by Cayley-Hamilton, and lifted
to the cover on the principal branch as well (see :func:`power`).

Tangent vectors carry coordinates (xi, zeta) in R x C.  Both kinds of value
have a named tuple, and any plain (c, w) or (xi, zeta) pair is accepted where
one is expected; :func:`push_forward`, the inner call of the cover model's RK4
step, returns a plain pair.  The module keeps the formulas of this group
only: the differential of left translation (:func:`push_forward`), the angle
1-form dc (:func:`time_form`) and the norm-to-angle growth ratio with its uniform
linear bound (:func:`growth_ratio`, :func:`growth_bound_constants`), which
support the existence certificate on this group.  Its Lie algebra
:data:`ALGEBRA`, a :class:`~sublorentz.liealg3.LieAlgebra3` on the basis
(xi, Re zeta, Im zeta), is the reference the cover frame is tested against.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .liealg3 import ZERO_TOL, LieAlgebra3


class CoverElement(NamedTuple):
    c: float
    w: complex


class TangentVector(NamedTuple):
    xi: float
    zeta: complex

    def norm(self) -> float:
        """Euclidean norm of (xi, zeta) in R x C ~ R^3, with no squares to underflow or overflow."""
        return math.hypot(self.xi, abs(self.zeta))


IDENTITY = CoverElement(0.0, 0j)

#: The Lie algebra on the basis (xi, Re zeta, Im zeta), read off the
#: commutator under the projection differential.
ALGEBRA = LieAlgebra3((0.0, 0.0, 2.0), (0.0, -2.0, 0.0), (-2.0, 0.0, 0.0))


def _radius(a: float) -> float:
    """sqrt(1 + a^2) for a = |w|, and a itself where a^2 overflows: the float root rounds to a there."""
    try:
        return math.sqrt(1.0 + a ** 2)
    except OverflowError:
        return a


def multiply(g1: CoverElement, g2: CoverElement) -> CoverElement:
    """Group product in cover coordinates.

    The angle correction is arctan(Im z / (r1 r2 + Re z)) with
    z = w1 conj(w2) exp(-i(c1+c2)) and r_i = sqrt(1+|w_i|^2).  Since
    r1 r2 > |w1||w2| >= |z|, the denominator is strictly positive and the
    principal branch is globally correct.  Where Re z < 0 the sum cancels and
    is taken as (1 + |w1|^2 + |w2|^2 + (Im z)^2) / (r1 r2 - Re z) instead.
    Where a square or a sum in that quotient overflows, it is taken on the
    values scaled by a power of two 2^-e (both of its sides by 2^-2e), which
    rounds as the unscaled quotient would wherever the scaled terms stay
    normal.  A denominator that is not a positive float is an overflow
    (OverflowError, as the group models' other overflows are).
    """
    s = g1.c + g2.c
    z = g1.w * g2.w.conjugate() * cmath.exp(-1j * s)
    a1, a2 = abs(g1.w), abs(g2.w)
    r1, r2 = _radius(a1), _radius(a2)
    if z.real >= 0.0:
        den = r1 * r2 + z.real
    else:
        try:
            den = (1.0 + a1 ** 2 + a2 ** 2 + z.imag ** 2) / (r1 * r2 - z.real)
        except OverflowError:
            den = math.nan
        if not den < math.inf:
            e = -math.frexp(max(r1, r2, abs(z.imag)))[1]
            b1, b2, q1, q2, y = (math.ldexp(t, e) for t in (a1, a2, r1, r2, z.imag))
            den = ((math.ldexp(1.0, 2 * e) + b1 ** 2 + b2 ** 2 + y ** 2)
                   / (q1 * q2 - math.ldexp(z.real, 2 * e)))
    if not 0.0 < den < math.inf:
        raise OverflowError("the arctangent denominator of the product is out of float range")
    c = s + math.atan2(z.imag, den)
    w = g2.w * r1 * cmath.exp(1j * g1.c) + g1.w * r2 * cmath.exp(-1j * g2.c)
    return CoverElement(c, w)


def power(g: CoverElement, k: int) -> CoverElement:
    """g^k for an integer k >= 1 in closed form: O(1) scalar work whatever k is.

    The centre (m pi, 0), m = round(c / pi), is factored out first: g = (m pi, 0) h with
    h = (c - m pi, (-1)^m w), so |c_h| <= pi/2 and the half trace tau = r cos c_h of h's
    projection A is >= 0, r = sqrt(1 + |w|^2).  As det A = 1, Cayley-Hamilton gives
    A^k = U_(k-1)(tau) A - U_(k-2)(tau) I with Chebyshev polynomials of the second kind,
    so w_k = U_(k-1) w_h and a_k = T_k(tau) + i U_(k-1) Im a_h.  With 1 - tau taken without
    cancellation as 2 sin^2(c_h/2) - |w|^2 cos c_h / (r + 1), h is elliptic (tau < 1,
    T_k = cos k theta, U_(k-1) = sin k theta / sin theta, theta of the sign of c_h),
    hyperbolic (tau > 1, the same with cosh and sinh) or parabolic (tau = 1, T_k = 1,
    U_(k-1) = k).  The angle of h^k is k theta (theta = 0 off the elliptic branch) plus the
    principal argument of a_k exp(-ik theta), whose real part is positive: it is
    cos^2 k theta + rho sin^2 k theta with rho = Im a_h / sin theta >= 1 on the elliptic
    branch and T_k(tau) >= 1 off it.  That part lifts continuously along the one-parameter
    subgroup through h, so the principal branch is the cover's.  A result that is not
    finite is an overflow (OverflowError, as :func:`multiply`'s overflows are).
    """
    if k == 1:
        return g
    c, w = g
    if not math.isfinite(c):  # round() would raise ValueError on a nan
        raise OverflowError("the angle of the element is not finite")
    m = round(c / math.pi)
    c -= m * math.pi
    if m & 1:
        w = -w
    a = abs(w)
    r = math.hypot(1.0, a)
    cos, sin = math.cos(c), math.sin(c)
    tau = r * cos
    d = 2.0 * math.sin(0.5 * c) ** 2 - a * (a / (r + 1.0)) * cos  # 1 - tau
    im = r * sin
    if d > 0.0:  # elliptic: A is conjugate to a rotation by theta
        s = math.copysign(math.sqrt(d * (1.0 + tau)), c)  # sin theta
        kt = k * math.atan2(s, tau)  # k theta
        f, ck = math.sin(kt), math.cos(kt)
        # rho - 1 = (rho^2 - 1) / (rho + 1), with rho^2 - 1 = |w|^2 / sin^2 theta
        rho1 = a * (a / (s * (im + s)))
        angle = kt + math.atan2(f * ck * rho1, 1.0 + rho1 * f * f)
    elif d < 0.0:  # hyperbolic
        s = math.sqrt(-d * (1.0 + tau))  # sinh sigma
        ks = k * math.asinh(s)  # k sigma
        f = math.sinh(ks)
        angle = math.atan(math.tanh(ks) * (im / s))
    else:  # parabolic
        s, f = 1.0, float(k)
        angle = math.atan(f * im)
    # w_k = U_(k-1) w_h as f (w_h / sin theta): |w_h| >= |sinh sigma| off the elliptic branch,
    # so no factor overflows where w_k does not
    c, w = k * m * math.pi + angle, (-f if k * m & 1 else f) * (w / s)
    if not (math.isfinite(c) and cmath.isfinite(w)):
        raise OverflowError("the power is out of float range")
    return CoverElement(c, w)


def inverse(g: CoverElement) -> CoverElement:
    """Group inverse; in these coordinates simply (c, w) -> (-c, -w)."""
    return CoverElement(-g.c, -g.w)


def project(g: CoverElement) -> np.ndarray:
    """The 2x2 complex matrix in SU(1,1) covering g; unit determinant by construction."""
    z = cmath.exp(1j * g.c) * _radius(abs(g.w))
    return np.array([[z, g.w], [g.w.conjugate(), z.conjugate()]])


def push_forward(base: CoverElement, v: TangentVector) -> tuple[float, complex]:
    """Differential of left translation by ``base``, applied to an identity vector, as a plain pair.

    exp(-ic) is the conjugate of exp(ic) to the bit, except at c = -0.0, where
    both carry a +0.0 sine: at a zero angle it is taken afresh.
    """
    (c, w), (xi, zeta) = base, v
    r = math.sqrt(1.0 + abs(w) ** 2)
    e = cmath.exp(1j * c)
    f = e.conjugate() if c else cmath.exp(-1j * c)
    return xi + (w * zeta.conjugate() * f).imag / r, zeta * r * e - 1j * w * xi


def time_form(base: CoverElement, v: TangentVector) -> float:
    """The angle 1-form dc on a tangent (xi, zeta) pair at ``base``: its first component."""
    del base  # the form has constant coefficients in these coordinates
    return v[0]


def growth_bound_constants(eta: float) -> tuple[float, float]:
    """Sharp constants (A, B) of the linear bound ratio <= A + B |w|.

    They come from the uniform envelope of
    (sqrt(1+|w|^2) +- |w|/sqrt(eta+1)) / sqrt(1+|w|^2), whose infimum and
    supremum over |w| in [0, inf) are C1 = 1 - 1/sqrt(eta+1) and
    C2 = 1 + 1/sqrt(eta+1).
    """
    if not eta > 0.0:
        raise ValueError("the growth bound needs eta > 0")
    inv = 1.0 / math.sqrt(eta + 1.0)
    c1 = 1.0 - inv
    c2 = 1.0 + inv
    return (inv + c2) / c1, (inv + 1.0) / c1


def growth_ratio(base: CoverElement, u: TangentVector, eta: float) -> float:
    """|v| / dc(v) for v the push-forward of an identity cone vector u.

    ``u`` must be finite, nonzero and lie in the closed cone
    {xi >= sqrt(eta+1) |zeta|} of a finite parameter ``eta > 0`` (up to
    ``ZERO_TOL``), and the angle component of its push-forward must be
    positive, so that the ratio is finite.  That holds for every nonzero vector
    of the exact cone; one that passes the cone test only within ``ZERO_TOL``
    (as (0, 1e-13) does), or whose angle component rounds away on the
    boundary, is a ``ValueError``.  The ratio satisfies
    ratio <= A + B |w(base)| with (A, B) from :func:`growth_bound_constants`.
    """
    if not eta > 0.0:
        raise ValueError("the growth ratio needs eta > 0")
    if not all(map(math.isfinite, (eta, u.xi, u.zeta.real, u.zeta.imag))):
        raise ValueError("eta and u must be finite")
    if not u.xi >= math.sqrt(eta + 1.0) * math.hypot(u.zeta.real, u.zeta.imag) - ZERO_TOL:
        raise ValueError("u is outside the admissible cone for this eta")
    if not (u.xi or u.zeta):
        raise ValueError("u must be nonzero")
    v = TangentVector(*push_forward(base, u))
    tau = v.xi
    if not tau > 0.0:
        raise ValueError("u is on the boundary of the admissible cone to within ZERO_TOL, "
                         "and its push-forward has no positive angle component")
    return v.norm() / tau

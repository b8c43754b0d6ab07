"""Planar segment cones in 3-space and their duals.

The admissible cone of a contact structure lies in the contact plane, so the
package has one cone shape, :class:`SegmentCone`: the planar cone
{a u1 + b u2 : a >= 0, |b| <= h a} with finite half-width ``h``.  It contains
no line.  The default structure cone is the segment cone with u1 = X1,
u2 = X2, i.e. {(x1, x2, 0) : |x2| <= x1}.

Vectors and covectors are float triples (:func:`_vec3`).  A cone builds once
what its questions need: its unit normal, the inverse of its frame
(u1, u2, normal) and its extreme rays u1 +- h u2, which must be finite.
Questions are decided in closed form on the rays, with one left-to-right dot
(:func:`_dot`) and ``math.hypot`` lengths; numpy only checks inputs, inverts
the frame and takes a subspace's SVD.

Exact-zero comparisons use ``ZERO_TOL``: the independence test of a segment
cone's generators is relative to their lengths; the membership and duality
tests are absolute (the distance off a segment cone's plane is scaled by
max(1, largest |v_i|)), so their inputs are expected to be of order one.
Unit vectors are taken on the vector scaled by a power of two
(:func:`_split`), and dual membership decides on the covector so scaled
against the margin scaled alike, so huge or tiny inputs neither overflow nor
underflow.  The tolerance pair below is the one the whole package uses; this
module imports nothing from the package, so every other module can take it
from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Exact-zero comparisons.
ZERO_TOL = 1e-12
#: Numerical-rank cutoff on singular values and eigenvalues.
RANK_TOL = 1e-10

Vec3 = tuple[float, float, float]


def _dot(a, b) -> float:
    """The products summed left to right from 0.0: a BLAS dot's floats without fused multiply-adds."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _cross(a, b) -> Vec3:
    """The cross product a x b, each component a difference of two products (``numpy.cross``'s floats)."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _split(v) -> tuple[tuple[float, ...], int]:
    """A finite vector v as (s, e) with v = s 2^e, s's largest |component| in [1/2, 1) (a zero v gives e = 0).

    A power of two rounds no bit, so a unit vector, a sign or a ratio of lengths
    taken on s is that of v, and no square overflows or underflows on the way.
    """
    e = math.frexp(max(map(abs, v)))[1]
    return tuple(math.ldexp(x, -e) for x in v), e


def _unit(v) -> tuple[float, ...]:
    """v / |v| for a finite nonzero vector v, taken on its :func:`_split` part."""
    s = _split(v)[0]
    length = math.hypot(*s)
    return tuple(x / length for x in s)


def _vec3(x) -> Vec3:
    v = np.asarray(x, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite components")
    return tuple(v.tolist())


@dataclass(frozen=True)
class SegmentCone:
    u1: Vec3
    u2: Vec3
    half_width: float = 1.0
    #: Unit normal of the carrier plane, the rows of the inverse of the frame (u1, u2, normal),
    #: and the extreme rays.
    _normal: Vec3 = field(init=False, repr=False, compare=False)
    _frame_inv: tuple[Vec3, Vec3, Vec3] = field(init=False, repr=False, compare=False)
    _rays: tuple[Vec3, Vec3] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u1, u2, h = _vec3(self.u1), _vec3(self.u2), float(self.half_width)
        # on the generators scaled by powers of two, which change neither the test
        # nor the unit normal; the test is relative to the generators' scale, so a
        # cone of small generators stays a cone
        s1, s2 = _split(u1)[0], _split(u2)[0]
        n = _cross(s1, s2)
        length = math.hypot(*n)
        if length <= ZERO_TOL * math.hypot(*s1) * math.hypot(*s2):
            raise ValueError("u1 and u2 must be linearly independent")
        if not math.isfinite(h):
            raise ValueError(f"half_width must be finite, got {h!r}")
        if h < 0.0:
            raise ValueError("half_width must be >= 0")
        rays = (tuple(a + h * b for a, b in zip(u1, u2)), tuple(a - h * b for a, b in zip(u1, u2)))
        if not all(map(math.isfinite, rays[0] + rays[1])):
            raise ValueError(f"the extreme rays u1 +- h u2 of a segment cone of half-width {h!r} "
                             "are not finite")
        normal = tuple(x / length for x in n)
        frame_inv = tuple(map(tuple, np.linalg.inv(np.column_stack([u1, u2, normal])).tolist()))
        for name, value in zip(("u1", "u2", "half_width", "_normal", "_frame_inv", "_rays"),
                               (u1, u2, h, normal, frame_inv, rays)):
            object.__setattr__(self, name, value)

    def rays(self) -> tuple[Vec3, Vec3]:
        """Extreme rays u1 +- h u2 of the closed cone."""
        return self._rays


#: The default admissible cone {(x1, x2, 0) : |x2| <= x1}.
DEFAULT_CONE = SegmentCone((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def contains(cone: SegmentCone, v, strict: bool = False) -> bool:
    """Membership in the closed cone; with ``strict``, in its relative interior."""
    v = _vec3(v)
    a, b, c = (_dot(row, v) for row in cone._frame_inv)
    if abs(c) > ZERO_TOL * max(1.0, *map(abs, v)):
        return False
    h = cone.half_width
    if strict:
        return a > ZERO_TOL and abs(b) < h * a - ZERO_TOL
    return a >= -ZERO_TOL and abs(b) <= h * a + ZERO_TOL


def dual_contains(cone: SegmentCone, p, strict: bool = False) -> bool:
    """Dual-cone membership: p nonnegative on the cone; strictly positive with ``strict``.

    Decided in closed form on the two extreme rays, taken on p 2^-e
    (:func:`_split`) against the margin ``ZERO_TOL`` 2^-e, which is the answer
    on p itself wherever its products are finite.
    """
    s, e = _split(_vec3(p))
    tol = math.ldexp(ZERO_TOL, -e)
    values = [_dot(s, r) for r in cone._rays]
    return all(v > tol for v in values) if strict else all(v >= -tol for v in values)


def _subspace(subspace) -> tuple[list, list, list]:
    """Basis rows U, and rows of an orthonormal basis of their span and of its annihilator, from one SVD."""
    U = np.asarray(subspace, dtype=float)
    if U.size == 0:
        return [], [], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    U = U.reshape(-1, 3)
    k = U.shape[0]
    if k > 3:
        raise ValueError("at most three basis vectors in 3-space")
    _, s, vt = np.linalg.svd(U)
    if int(np.sum(s > RANK_TOL * max(1.0, s[0]))) != k:
        raise ValueError("subspace basis vectors are linearly dependent")
    return U.tolist(), vt[:k].tolist(), vt[k:].tolist()


def cone_subspace_trivial(cone: SegmentCone, subspace) -> bool:
    """True iff the cone meets the given subspace only at the origin."""
    U, B, A = _subspace(subspace)
    k = len(U)
    if k == 0:
        return True
    if k == 3:
        return False
    if all(abs(_dot(s, cone._normal)) <= RANK_TOL * math.hypot(*s) for s in (_split(u)[0] for u in U)):
        # the subspace lies in the carrier plane (tested on rows scaled by powers of two, so that
        # no product of a long row overflows); a plane of it holds the cone
        if k == 2:
            return False
        d = B[0]
    elif k == 1:
        return True
    else:
        # the line where the subspace's plane meets the carrier plane
        d = _unit(_cross(A[0], cone._normal))
    return not (contains(cone, d) or contains(cone, [-x for x in d]))


def find_interior_dual_in_annihilator(cone: SegmentCone, subspace) -> Optional[Vec3]:
    """A covector strictly positive on the punctured cone and vanishing on the subspace.

    Returns ``None`` when no such covector exists.  The construction is direct
    (no reliance on the primal intersection test): the annihilator is
    parametrized by an orthonormal basis and the strict dual inequalities are
    solved on it in closed form.
    """
    B = _subspace(subspace)[2]
    m = len(B)
    if m == 0:
        return None
    r1, r2 = cone._rays
    if m == 3:
        return _unit([x + y for x, y in zip(_unit(r1), _unit(r2))])
    if m == 1:
        b = B[0]
        t1, t2 = _dot(b, r1), _dot(b, r2)
        for sign in (1.0, -1.0):
            if sign * t1 > ZERO_TOL and sign * t2 > ZERO_TOL:
                return tuple(sign * x for x in b)
        return None
    # the rays' coordinates in the annihilator's basis, and their unit vectors
    a1, a2 = [_dot(b, r1) for b in B], [_dot(b, r2) for b in B]
    ray_scale = max(1.0, math.hypot(*r1), math.hypot(*r2))
    if math.hypot(*a1) <= ZERO_TOL * ray_scale or math.hypot(*a2) <= ZERO_TOL * ray_scale:
        return None
    c1, c2 = _unit(a1), _unit(a2)
    if _dot(c1, c2) <= -1.0 + ZERO_TOL:  # the cosine of a1 and a2
        return None
    y0, y1 = c1[0] + c2[0], c1[1] + c2[1]
    p = _unit([y0 * x + y1 * z for x, z in zip(*B)])
    return p if _dot(p, r1) > ZERO_TOL and _dot(p, r2) > ZERO_TOL else None

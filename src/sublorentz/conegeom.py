"""Planar segment cones in 3-space and their duals.

The admissible cone of a contact structure lies in the contact plane, so the
package has one cone shape, :class:`SegmentCone`: the planar cone
{a u1 + b u2 : a >= 0, |b| <= h a} with finite half-width ``h``.  It contains
no line.  The default structure cone is the segment cone with u1 = X1,
u2 = X2, i.e. {(x1, x2, 0) : |x2| <= x1}.

Vectors and covectors are float triples (:func:`_vec3`).  A cone builds once
what its questions need: its unit normal, its extreme rays u1 +- h u2, which
must be finite, and their unit vectors.  A subspace is its dimension and one
unit vector (:func:`_subspace`).  Questions are decided in closed form on unit
vectors, with cross products (:func:`_cross`), one left-to-right dot
(:func:`_dot`) and ``math.hypot`` lengths; numpy only checks inputs.

Exact-zero comparisons use ``ZERO_TOL`` and rank tests ``RANK_TOL``, both on
unit vectors taken on the vector scaled by a power of two (:func:`_split`), so
no answer but dual membership depends on the scale of a vector, a subspace row
or the generators, and nothing overflows or underflows.  Dual membership keeps
an absolute margin, scaled by the covector's power of two.  The tolerance pair
below is the one the whole package uses; this module imports nothing from the
package, so every other module can take it from here.
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
    #: Unit normal of the carrier plane n = u1 x u2 / |u1 x u2|, the extreme rays and their unit vectors.
    _normal: Vec3 = field(init=False, repr=False, compare=False)
    _rays: tuple[Vec3, Vec3] = field(init=False, repr=False, compare=False)
    _unit_rays: tuple[Vec3, Vec3] = field(init=False, repr=False, compare=False)

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
        for name, value in zip(("u1", "u2", "half_width", "_normal", "_rays", "_unit_rays"),
                               (u1, u2, h, normal, rays, tuple(map(_unit, rays)))):
            object.__setattr__(self, name, value)

    def rays(self) -> tuple[Vec3, Vec3]:
        """Extreme rays u1 +- h u2 of the closed cone."""
        return self._rays


#: The default admissible cone {(x1, x2, 0) : |x2| <= x1}.
DEFAULT_CONE = SegmentCone((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def contains(cone: SegmentCone, v) -> bool:
    """Membership in the closed cone, decided on v's unit vector v' (the zero vector is in it).

    With n the unit normal and r1', r2' the unit rays, |v'.n| <= ``ZERO_TOL``, (r2' x v').n,
    (v' x r1').n and v'.(r1' + r2') >= -``ZERO_TOL``; the last keeps out -u1 at half-width 0.
    """
    v = _vec3(v)
    if not any(v):
        return True
    v, n, (r1, r2) = _unit(v), cone._normal, cone._unit_rays
    return (abs(_dot(v, n)) <= ZERO_TOL and _dot(_cross(r2, v), n) >= -ZERO_TOL
            and _dot(_cross(v, r1), n) >= -ZERO_TOL and _dot(v, [a + b for a, b in zip(r1, r2)]) >= -ZERO_TOL)


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


def _subspace(subspace) -> tuple[int, Optional[Vec3]]:
    """(k, d): the dimension of the span of basis rows, and d its unit direction (k = 1), its unit
    normal (k = 2) or ``None``.  Taken as unit rows, the row, their cross or their triple product
    must be above ``RANK_TOL``; a zero row stays zero and a non-finite one turns NaN, so either fails.
    """
    rows = np.asarray(subspace, dtype=float).reshape(-1, 3).tolist()
    k = len(rows)
    if k > 3:
        raise ValueError("at most three basis vectors in 3-space")
    if k == 0:
        return 0, None
    units = [_unit(r) if any(r) else r for r in rows]
    d = units[0] if k == 1 else _cross(units[0], units[1])
    if not (math.hypot(*d) if k < 3 else abs(_dot(d, units[2]))) > RANK_TOL:
        raise ValueError("subspace basis vectors are linearly dependent")
    return k, (d if k == 1 else _unit(d) if k == 2 else None)


def cone_subspace_trivial(cone: SegmentCone, subspace) -> bool:
    """True iff the cone meets the given subspace only at the origin."""
    k, d = _subspace(subspace)
    if k in (0, 3):
        return k == 0
    if k == 2:
        # the line where the subspace's plane meets the carrier plane; none where they are one plane,
        # which holds the cone
        d = _cross(d, cone._normal)
        if math.hypot(*d) <= RANK_TOL:
            return False
    return not (contains(cone, d) or contains(cone, [-x for x in d]))


def find_interior_dual_in_annihilator(cone: SegmentCone, subspace) -> Optional[Vec3]:
    """A unit covector strictly positive on the punctured cone and vanishing on the subspace.

    Returns ``None`` when no such covector exists.  It is built directly on the subspace's
    unit vector d and the cone's unit rays r': +-d for a plane; for a line, the bisector of
    the rays projected off it, d x (r' x d), none where a projection is zero; for {0}, the
    rays' bisector.  It must exceed ``ZERO_TOL`` on both r', the only tolerance on it.
    """
    k, d = _subspace(subspace)
    r1, r2 = cone._unit_rays
    if k == 3:
        return None
    if k == 2:
        p = d if _dot(d, r1) > 0.0 else tuple(-x for x in d)
    else:
        c1, c2 = r1, r2
        if k == 1:
            c1, c2 = _cross(d, _cross(r1, d)), _cross(d, _cross(r2, d))
            if not (any(c1) and any(c2)):  # a ray on the line
                return None
            c1, c2 = _unit(c1), _unit(c2)
        s = [x + y for x, y in zip(c1, c2)]
        if not any(s):  # opposite projected rays: the line runs through the cone
            return None
        p = _unit(s)
    return p if _dot(p, r1) > ZERO_TOL and _dot(p, r2) > ZERO_TOL else None

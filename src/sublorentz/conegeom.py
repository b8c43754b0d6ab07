"""Closed convex acute cones in 3-space and their duals.

Two cone shapes are supported:

* :class:`SegmentCone`: the planar cone {a u1 + b u2 : a >= 0, |b| <= h a}
  with half-width ``h`` (``h = math.inf`` produces the half-plane a >= 0,
  which contains the line through u2 and is therefore not acute; it exists
  so that degenerate configurations are constructible and detectable).
  The default structure cone is the segment cone with u1 = X1, u2 = X2,
  i.e. {(x1, x2, 0) : |x2| <= x1}.

* :class:`CircularCone`: the solid cone {v : v.axis >= sqrt(eta+1) |v_perp|}
  around a spatial axis; ``eta = 0`` is the widest member of the family.

All membership and duality questions are decided in closed form on the
extreme rays (segment) or by axis/transverse decomposition (circular); a
segment cone computes its plane normal and the inverse of its frame
(u1, u2, normal) once, at construction.  A cone is acute unless it is a
half-plane, so :func:`acute` reads that off the shape.  A subspace is given
by basis rows; one full SVD of them checks their independence and gives an
orthonormal basis of the span and one of its annihilator.  Covectors, such
as the annihilator witnesses, are plain float triples paired with vectors by
the dot product.

Exact-zero comparisons use ``ZERO_TOL``: the independence test of a segment
cone's generators is relative to their lengths; the membership and duality
tests are absolute (the distance off a segment cone's plane is scaled by
max(1, largest |v_i|)), so their inputs are expected to be of order one.
The lengths of a circular cone's axis, of subspace rows, of the transverse
parts in circular membership, of a segment cone's generators and normal and
of the rays and ray coordinates in a segment cone's annihilator witness are
taken after scaling by a power of two (:func:`_scaled`, :func:`_length`), so
huge or tiny ones neither overflow nor underflow.
The tolerance pair below is the one the whole package uses; this module
imports nothing from the package, so every other module can take it from
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

#: Exact-zero comparisons.
ZERO_TOL = 1e-12
#: Numerical-rank cutoff on singular values and eigenvalues.
RANK_TOL = 1e-10


def _scaled(v: np.ndarray) -> np.ndarray:
    """Each row of v (the last axis) divided by the power of two of its largest |component|.

    A power of two rounds no bit, so a unit vector, a sign or a ratio of
    lengths taken on the result is that of v, and no square overflows or
    underflows on the way.  A zero row stays zero.
    """
    return np.ldexp(v, -np.frexp(np.max(np.abs(v), axis=-1, keepdims=True))[1])


def _split(v: np.ndarray) -> tuple[np.ndarray, int]:
    """A finite vector v as (s, e) with v = s 2^e, s :func:`_scaled` (a zero v gives e = 0)."""
    e = math.frexp(max(map(abs, v.tolist())))[1]
    return np.ldexp(v, -e), e


def _length(v: np.ndarray) -> float:
    """The Euclidean length of a finite vector, taken on its :func:`_split` part and scaled back.

    It is the float of ``np.linalg.norm(v)``, the square root of ``v.dot(v)``,
    wherever that neither overflows nor underflows.
    """
    s, e = _split(v)
    return math.ldexp(math.sqrt(s.dot(s)), e)


def _vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite components")
    return v


@dataclass(frozen=True)
class SegmentCone:
    u1: tuple[float, float, float]
    u2: tuple[float, float, float]
    half_width: float = 1.0
    #: Unit normal of the carrier plane and the inverse of the frame (u1, u2, normal).
    _normal: np.ndarray = field(init=False, repr=False, compare=False)
    _frame_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u1 = _vec3(self.u1)
        u2 = _vec3(self.u2)
        object.__setattr__(self, "u1", tuple(u1))
        object.__setattr__(self, "u2", tuple(u2))
        object.__setattr__(self, "half_width", float(self.half_width))
        # on the generators scaled by powers of two, which change neither the test
        # nor the unit normal; the test is relative to the generators' scale, so a
        # cone of small generators stays a cone
        s1, s2 = _split(u1)[0], _split(u2)[0]
        n = np.cross(s1, s2)
        length = math.sqrt(n.dot(n))
        if length <= ZERO_TOL * math.sqrt(s1.dot(s1)) * math.sqrt(s2.dot(s2)):
            raise ValueError("u1 and u2 must be linearly independent")
        if not (self.half_width >= 0.0):
            raise ValueError("half_width must be >= 0 (math.inf allowed)")
        n = n / length
        object.__setattr__(self, "_normal", n)
        object.__setattr__(self, "_frame_inv", np.linalg.inv(np.column_stack([u1, u2, n])))

    def rays(self) -> tuple[np.ndarray, np.ndarray]:
        """Extreme rays u1 +- h u2 of the closed cone (finite half-width only)."""
        if math.isinf(self.half_width):
            raise ValueError("a half-plane cone has no extreme ray pair")
        u1, u2 = np.asarray(self.u1), np.asarray(self.u2)
        return u1 + self.half_width * u2, u1 - self.half_width * u2


@dataclass(frozen=True)
class CircularCone:
    axis: tuple[float, float, float]
    eta: float = 0.0

    def __post_init__(self):
        a = _vec3(self.axis)
        if not np.any(a):
            raise ValueError("axis must be nonzero")
        object.__setattr__(self, "axis", tuple(a))
        object.__setattr__(self, "eta", float(self.eta))
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta!r}")
        if self.eta < 0.0:
            raise ValueError("eta must be >= 0")

    def unit_axis(self) -> np.ndarray:
        a = _scaled(np.asarray(self.axis))
        return a / np.linalg.norm(a)

    def aperture(self) -> float:
        """The slope bound sqrt(eta + 1) of the membership inequality."""
        return math.sqrt(self.eta + 1.0)


SolidCone = Union[SegmentCone, CircularCone]

#: The default admissible cone {(x1, x2, 0) : |x2| <= x1}.
DEFAULT_CONE = SegmentCone((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def contains(cone: SolidCone, v, strict: bool = False) -> bool:
    """Membership in the closed cone; with ``strict``, in its relative interior."""
    v = _vec3(v)
    if isinstance(cone, SegmentCone):
        a, b, c = (cone._frame_inv @ v).tolist()
        scale = max(1.0, float(np.max(np.abs(v))))
        if abs(c) > ZERO_TOL * scale:
            return False
        h = cone.half_width
        if strict:
            if a <= ZERO_TOL:
                return False
            return True if math.isinf(h) else abs(b) < h * a - ZERO_TOL
        if a < -ZERO_TOL:
            return False
        return True if math.isinf(h) else abs(b) <= h * a + ZERO_TOL
    ahat = cone.unit_axis()
    xi = float(np.dot(v, ahat))
    zeta = v - xi * ahat
    bound = cone.aperture() * _length(zeta)
    if strict:
        return xi > bound + ZERO_TOL
    return xi >= bound - ZERO_TOL


def acute(cone: SolidCone) -> bool:
    """True iff the cone contains no line: every circular cone, and a segment cone of finite half-width."""
    return isinstance(cone, CircularCone) or not math.isinf(cone.half_width)


def _require_acute(cone: SolidCone) -> None:
    if not acute(cone):
        raise ValueError("cone is not acute (it contains a line)")


def dual_contains(cone: SolidCone, p, strict: bool = False) -> bool:
    """Dual-cone membership: p nonnegative on the cone; strictly positive with ``strict``.

    Decided in closed form: on the two extreme rays for a segment cone, and by
    axis/transverse comparison for a circular cone.
    """
    def decide(p: np.ndarray, tol: float) -> bool:
        if isinstance(cone, SegmentCone):
            values, bound = [float(np.dot(p, r)) for r in cone.rays()], 0.0
        else:
            ahat = cone.unit_axis()
            values = [float(np.dot(p, ahat))]
            bound = _length(p - values[0] * ahat) / cone.aperture()
        return all(v > bound + tol for v in values) if strict else all(v >= bound - tol for v in values)

    _require_acute(cone)
    p = _vec3(p)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return decide(p, ZERO_TOL)
    except ArithmeticError:  # a raw product overflows: decide on p 2^-e against the margin ZERO_TOL 2^-e
        s, e = _split(p)
        return decide(s, math.ldexp(ZERO_TOL, -e))


def _subspace(subspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis rows U, an orthonormal basis of their span and one of its annihilator, from one SVD."""
    U = np.asarray(subspace, dtype=float)
    if U.size == 0:
        return np.zeros((0, 3)), np.zeros((0, 3)), np.eye(3)
    U = U.reshape(-1, 3)
    k = U.shape[0]
    if k > 3:
        raise ValueError("at most three basis vectors in 3-space")
    _, s, vt = np.linalg.svd(U)
    if int(np.sum(s > RANK_TOL * max(1.0, s[0]))) != k:
        raise ValueError("subspace basis vectors are linearly dependent")
    return U, vt[:k], vt[k:]


def cone_subspace_trivial(cone: SolidCone, subspace) -> bool:
    """True iff the cone meets the given subspace only at the origin."""
    _require_acute(cone)
    U, B, A = _subspace(subspace)
    k = U.shape[0]
    if k == 0:
        return True
    if k == 3:
        return False
    # rows scaled by powers of two, so that no square of a long row overflows
    Us = _scaled(U)
    if isinstance(cone, CircularCone):
        if k == 2:
            # plane vs solid circular cone: sign of the restricted quadratic form
            ahat = cone.unit_axis()
            alpha2 = cone.aperture() ** 2
            Q = alpha2 * (np.eye(3) - np.outer(ahat, ahat)) - np.outer(ahat, ahat)
            return float(np.min(np.linalg.eigvalsh(B @ Q @ B.T))) > ZERO_TOL
        d = B[0]
    elif np.all(np.abs(Us @ cone._normal) <= RANK_TOL * np.linalg.norm(Us, axis=1)):
        # the subspace lies in the carrier plane; a plane of it holds the cone
        if k == 2:
            return False
        d = B[0]
    elif k == 1:
        return True
    else:
        # the line where the subspace's plane meets the carrier plane
        d = np.cross(A[0], cone._normal)
        d = d / np.linalg.norm(d)
    return not (contains(cone, d) or contains(cone, -d))


def find_interior_dual_in_annihilator(cone: SolidCone, subspace) -> Optional[tuple[float, float, float]]:
    """A covector strictly positive on the punctured cone and vanishing on the subspace.

    Returns ``None`` when no such covector exists.  The construction is direct
    (no reliance on the primal intersection test): the annihilator is
    parametrized by an orthonormal basis and the strict dual inequalities are
    solved on it in closed form.
    """
    _require_acute(cone)
    B = _subspace(subspace)[2]
    m = B.shape[0]
    if m == 0:
        return None

    if isinstance(cone, SegmentCone):
        r1, r2 = cone.rays()
        if m == 3:
            p = r1 / _length(r1) + r2 / _length(r2)
            return tuple((p / np.linalg.norm(p)).tolist())
        if m == 1:
            b = B[0]
            t1, t2 = float(np.dot(b, r1)), float(np.dot(b, r2))
            for sign in (1.0, -1.0):
                if sign * t1 > ZERO_TOL and sign * t2 > ZERO_TOL:
                    return tuple((sign * b).tolist())
            return None
        a1 = np.array([np.dot(B[0], r1), np.dot(B[1], r1)])
        a2 = np.array([np.dot(B[0], r2), np.dot(B[1], r2)])
        (s1, e1), (s2, e2) = _split(a1), _split(a2)
        l1, l2 = math.sqrt(s1.dot(s1)), math.sqrt(s2.dot(s2))
        n1, n2 = math.ldexp(l1, e1), math.ldexp(l2, e2)
        ray_scale = max(1.0, _length(r1), _length(r2))
        if n1 <= ZERO_TOL * ray_scale or n2 <= ZERO_TOL * ray_scale:
            return None
        if float(s1.dot(s2)) / (l1 * l2) <= -1.0 + ZERO_TOL:  # the cosine of a1 and a2
            return None
        y = a1 / n1 + a2 / n2
        p = y[0] * B[0] + y[1] * B[1]
        p = p / np.linalg.norm(p)
        if np.dot(p, r1) > ZERO_TOL and np.dot(p, r2) > ZERO_TOL:
            return tuple(p.tolist())
        return None

    ahat = cone.unit_axis()
    inv_alpha = 1.0 / cone.aperture()
    if m == 3:
        return tuple(ahat.tolist())
    if m == 1:
        b = B[0]
        pi = float(np.dot(b, ahat))
        rho = math.sqrt(max(0.0, 1.0 - pi * pi))
        if abs(pi) > inv_alpha * rho + ZERO_TOL:
            return tuple((math.copysign(1.0, pi) * b).tolist())
        return None
    proj = B.T @ (B @ ahat)
    np_ = float(np.linalg.norm(proj))
    if np_ <= ZERO_TOL:
        return None
    p = proj / np_
    rho = math.sqrt(max(0.0, 1.0 - np_ * np_))
    if np_ > inv_alpha * rho + ZERO_TOL:
        return tuple(p.tolist())
    return None


def cone_to_json(cone: SolidCone) -> dict:
    if isinstance(cone, SegmentCone):
        out = {"kind": "segment", "u1": list(cone.u1), "u2": list(cone.u2)}
        if cone.half_width != 1.0:
            out["half_width"] = cone.half_width
        return out
    return {"kind": "circular", "axis": list(cone.axis), "eta": cone.eta}


def cone_from_json(data: dict) -> SolidCone:
    if not isinstance(data, dict):
        raise ValueError("a cone must be a JSON object")
    kind = data.get("kind")

    def required(key: str) -> tuple:
        if key not in data:
            raise ValueError(f"a {kind} cone needs the key {key!r}")
        return tuple(data[key])

    if kind == "segment":
        return SegmentCone(required("u1"), required("u2"), data.get("half_width", 1.0))
    if kind == "circular":
        return CircularCone(required("axis"), data.get("eta", 0.0))
    raise ValueError(f"unknown cone kind {kind!r}")

"""Desk-scale numerical evidence for the existence verdicts.

Admissible curves are piecewise-constant control curves: a uniform time step
``dt`` and a sequence of identity-frame control vectors, each inside the
structure's cone.  Trajectories are produced by left-translating one-parameter
subgroup steps, on one of three concrete group realizations:

* a simply connected semidirect product R x| R^2 for the solvable rows,
  with exact exponential steps (the angle-like factor coordinate is tracked
  separately so that rotation-type actions do not wrap); the 2x2
  exponential and its integral are evaluated in closed form on the
  eigenvalues, with a series branch where they nearly coincide, and each
  element carries the exponential of its own action, so a product is 2x2
  arithmetic;
* unit quaternions for the su2 row, as (w, x, y, z) tuples of floats;
* cover coordinates (c, w) for the sl2-type rows, in a frame read off the
  closed-form Killing axes, with classical RK4 steps on plain floats whose
  four stages all use the left translation of :mod:`sublorentz.sl2cover`.

All three models carry states and frames as plain tuples of Python floats (and
complex numbers on the cover), and a product is scalar arithmetic with no
array built.  Every model answers one protocol: ``identity()``,
``exp(u, h)``, ``multiply(x, y)``, ``run(u, k, dt)``, ``run_rows(u, k, dt)``,
``power(x, k)`` and ``coords(x)``; ``step`` is the one group operation a
row costs (a product on the exact models, an RK4 row ``step(x, u, dt)`` on
the cover).  The dynamics are
left-invariant, so a run of k equal rows from ``x`` ends at ``x`` times the
element ``run(u, k, dt)`` that the run reaches from the identity, one product
whatever k is, and its j-th row is ``x`` times ``run(u, j, dt)``.  On the
semidirect model that element is the exact exponential exp(k dt u); on the
cover it is Phi^k, Phi being one RK4 row from the identity, raised to k in
closed form by ``sl2cover.power``; on the quaternion model it is k steps
folded from the identity, so the su2 witness's loop block keeps the floats,
and the closure error, that it is checked against.  ``power(x, k)`` raises
an element to a repeat count the model's own way.  A curve
(:class:`ControlCurve`) is its runs of equal rows, each checked and measured
once; :func:`integrate` computes the endpoint alone, and its trajectory is
sampled when first read.  A length sums count times row value over the runs,
left to right in plain float arithmetic, so it costs O(runs) and does not
depend on how an interpreter's ``sum`` rounds.

On top of integration the module provides the generalized length functional,
a calibration-based upper bound on lengths into a target (solvable rows with
an existence witness), a multi-start penalty search for near-longest curves,
and the loop construction that exhibits unbounded lengths on the su2 row as a
loop block, a repeat count and a base curve.  The search scores candidates
per run of equal rows, a constant one straight from its (r, b) pair (one run
element and no product) and a one-row move from the runs of the kept
candidate, and its endpoint error is a plain sum of squares on Python floats.
On the semidirect model an element's first coordinate t is a homomorphism
G -> R, and so is q1 where the derived subalgebra is a line (rows 1 and 2*):
together they read the image in G/[G,G].  A candidate's endpoint coordinate
is its runs' h (g . u) summed in the products' order, with no exponential,
and the distance of those coordinates to the target's is a lower bound on
its endpoint error that holds in floats.  A grid candidate or a descent
move that this bound shows can neither become the best nor be kept is
counted but not stepped, and no output byte changes.
Its random restarts draw from ``random.Random``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
import operator
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from . import sl2cover
from .conegeom import DEFAULT_CONE, ZERO_TOL, SegmentCone, _dot, _vec3, contains
from .existence import witness_is_valid
from .liealg3 import (_EYE, SL2_CASES, SU2_CASE, LieAlgebra3, SubLorentzCase, from_case,
                      killing_axes, su2_loop_period)
from .sl2cover import CoverElement

DEFAULT_SEED = 1729

ENDPOINT_TOL = 1e-4

#: Most control rows a solve (``--steps``) or one su2 loop block
#: (``--steps-per-loop``) may have.  Work and memory grow linearly in the row
#: count: a solve holds one (r, b) pair and at most one run per row, and steps
#: at most every row per evaluation, and a loop block (one run) is stepped row
#: by row and printed.
MAX_STEPS = 10_000


# ---------------------------------------------------------------------------
# anti-norms

def _lorentzian(u) -> float:
    return math.sqrt(max(u[0] * u[0] - u[1] * u[1], 0.0))


@dataclass(frozen=True)
class AntiNorm:
    """Nonnegative concave positively 1-homogeneous functional on the cone, and its name.

    ``fn`` takes one control row, a list or an array of three floats, and
    returns its value; the default is the Lorentzian sqrt(max(u0^2 - u1^2, 0)).
    ``fn`` must be concave on the cone's cross-section, for the calibration
    constant is found by a golden-section search that relies on it: the
    Lorentzian is concave on |u1| <= u0, which holds on ``DEFAULT_CONE``.
    """

    fn: Callable[[Sequence[float]], float] = _lorentzian
    name: str = "lorentzian"

    def __call__(self, u) -> float:
        return float(self.fn(u))


LORENTZIAN = AntiNorm()


# ---------------------------------------------------------------------------
# closed-form 2x2 exponential and its integral

# Below this |(sigma h)^2| the eigenvalues count as confluent: the divided
# difference in the integral is summed as a series in (sigma h)^2, which is
# truncated after (sigma h)^4 (the next term is below 2e-15 relative).
_CONFLUENT_W2 = 1e-4

_MOMENTS_AT_ZERO = tuple(1.0 / (j + 1) for j in range(6))


def _moments(mu: float, n: int) -> Sequence[float]:
    """M_j = integral_0^1 t^j e^(mu t) dt for j < n <= 6."""
    if mu == 0.0:
        return _MOMENTS_AT_ZERO[:n]
    e = math.exp(mu)
    if abs(mu) >= 0.25:
        # upward, M_j = (e^mu - j M_(j-1)) / mu: amplifies errors by j / |mu|,
        # which only reaches the terms carrying powers of (sigma h)^2
        out = [math.expm1(mu) / mu]
        for j in range(1, n):
            out.append((e - j * out[-1]) / mu)
        return out
    # downward, M_(j-1) = (e^mu - mu M_j) / j: shrinks the error of the crude
    # start value by |mu| / j < 1 / (4 j) per step, below 1e-16 after 13 steps
    out = [0.0] * n
    m = e / (n + 13)
    for j in range(n + 12, 0, -1):
        m = (e - mu * m) / j
        if j <= n:
            out[j - 1] = m
    return out


def _g(z: float) -> float:
    return math.expm1(z) / z if z else 1.0


def _exp_flow(A: tuple, h: float) -> tuple[tuple, tuple]:
    """Return (expm(h A), integral_0^h expm(s A) ds) for A = (a11, a12, a21, a22).

    Both are row-major 4-tuples of floats.  With h A = mu I + Y, Y traceless
    and Y^2 = w2 I (w2 = (sigma h)^2, negative on the rotation type),
    expm(h A) = e^mu (cosh(w) I + sinhc(w) Y) and the integral is
    h (alpha I + beta Y), alpha and beta being the mean and divided
    difference of g(z) = expm1(z) / z over the eigenvalues mu +- w of h A.
    """
    a11, a12, a21, a22 = A
    mu = 0.5 * (a11 + a22) * h
    y11, y12, y21 = 0.5 * (a11 - a22) * h, a12 * h, a21 * h
    w2 = y11 * y11 + y12 * y21
    if w2 == 0.0:
        # A scalar or m I + nilpotent: the series below reduces to its first term
        ch = shc = 1.0
        alpha, beta = _moments(mu, 2)
    elif abs(w2) < _CONFLUENT_W2:
        ch = 1.0 + w2 / 2.0 * (1.0 + w2 / 12.0 * (1.0 + w2 / 30.0))
        shc = 1.0 + w2 / 6.0 * (1.0 + w2 / 20.0 * (1.0 + w2 / 42.0))
        M = _moments(mu, 6)
        alpha = M[0] + w2 * (M[2] / 2.0 + w2 * M[4] / 24.0)
        beta = M[1] + w2 * (M[3] / 6.0 + w2 * M[5] / 120.0)
    elif w2 > 0.0:
        w = math.sqrt(w2)
        ch, shc = math.cosh(w), math.sinh(w) / w
        gp, gm = _g(mu + w), _g(mu - w)
        alpha, beta = 0.5 * (gp + gm), (gp - gm) / (2.0 * w)
    else:
        th = math.sqrt(-w2)
        if not math.isfinite(th):
            raise OverflowError("the exponential's rotation angle is not finite")
        ch, sn = math.cos(th), math.sin(th)
        shc = sn / th
        # expm1(mu + i th), accurate for small mu and th
        half = math.sin(0.5 * th)
        g = complex(math.expm1(mu) * ch - 2.0 * half * half, math.exp(mu) * sn) / complex(mu, th)
        alpha, beta = g.real, g.imag / th
    e = math.exp(mu)
    es = e * shc
    E = (e * ch + es * y11, es * y12, es * y21, e * ch - es * y11)
    S = (h * (alpha + beta * y11), h * beta * y12, h * beta * y21, h * (alpha - beta * y11))
    return E, S


# ---------------------------------------------------------------------------
# group models

class SemidirectModel:
    """Simply connected group R x| R^2 realizing a solvable case algebra.

    The algebra must be a solvable row of the contact layout, one whose
    derived subalgebra (:meth:`LieAlgebra3.derived_subalgebra`) has k = 1 or
    2 rows (which model a row gets is decided by its id).  The algebra is
    split as span{W} + I with I a two-dimensional abelian ideal whose leading
    k directions are those rows:

    * k = 1 (rows 1 and 2*): X3 is central, the derived row is y = (b1, b2, 1)
      normalized, and I = span{y, z} with z proportional to (b1, b2, -|b|^2),
      which commutes with y and is orthogonal to it (X1 where b = 0);
    * k = 2: I is the derived plane, abelian because M^2 = 0.

    W = I0 x I1, so the frame (W, I0, I1) is orthonormal and its inverse is
    its transpose.  ad_W maps I into its derived directions and acts on I
    through the row-major 2x2 ``_act``, whose other rows are exact zeros.
    Elements are triples (t, q, E): q a pair of floats and E = expm(t _act)
    a row-major 4-tuple, carried with the element so that the product
    (t1, q1, E1)(t2, q2, E2) = (t1 + t2, q1 + E1 q2, E1 E2) makes no
    transcendental call.  ``coords`` and ``log`` read only (t, q).
    Exponentials of algebra vectors are available in closed form, so
    constant-control steps are exact: a row u over a duration h reaches
    exp(h u), and a step is one product.  A run of k equal rows is
    therefore one exponential over k dt.
    """

    def __init__(self, algebra: LieAlgebra3):
        try:
            derived = tuple(map(tuple, algebra.derived_subalgebra()))
        except ValueError:  # a table outside the contact layout
            derived = _EYE
        k = len(derived)
        if k == 3:
            raise ValueError(f"the semidirect model of {algebra.label} does not apply: its bracket table "
                             "is not a solvable row of the contact layout")
        if k == 1:
            (b1, b2, _), nb = algebra.b12, math.hypot(algebra.b12[0], algebra.b12[1])
            n = math.hypot(nb, 1.0)
            h0, h1 = (b1 / nb, b2 / nb) if nb else (1.0, 0.0)
            frame = ((-h1, h0, 0.0), *derived, (h0 / n, h1 / n, -nb / n))
        else:
            frame = ((derived[0][1], 0.0 - derived[0][0], 0.0), *derived)
        self._frame, self._derived = frame, k
        images = [algebra.bracket(frame[0], ideal) for ideal in frame[1:]]
        imgs = [[_dot(row, image) for row in frame] for image in images]
        if not all(map(math.isfinite, itertools.chain(*imgs))):
            raise ValueError(f"the semidirect model of {algebra.label} does not apply: its bracket "
                             "images are out of float range")
        # its rows past the k derived directions are zero up to rounding
        self._act = tuple(imgs[j][1 + i] if i < k else 0.0 for i in range(2) for j in range(2))

    def identity(self):
        return (0.0, (0.0, 0.0), (1.0, 0.0, 0.0, 1.0))

    def unsplit(self, a: float, v) -> tuple:
        return tuple(_dot(column, (a, v[0], v[1])) for column in zip(*self._frame))

    def _flow(self, a: float, h: float) -> tuple[tuple, tuple]:
        p, q, r, s = self._act
        E, S = _exp_flow((a * p, a * q, a * r, a * s), h)
        if r == s == 0.0 and p:
            # the second rows are exact, not e^mu (cosh w - sinh w), which cancels (row 2*)
            return (E[0], E[1], 0.0, 1.0), (S[0], S[1], 0.0, h)
        return E, S

    def exp(self, u, time: float = 1.0):
        # the split inline, in its float order: the search takes one exponential per candidate
        u0, u1, u2 = u
        (f0, f1, f2), (g0, g1, g2), (h0, h1, h2) = self._frame
        a, v0, v1 = f0 * u0 + f1 * u1 + f2 * u2, g0 * u0 + g1 * u1 + g2 * u2, h0 * u0 + h1 * u1 + h2 * u2
        E, S = self._flow(a, time)
        return (time * a, (S[0] * v0 + S[1] * v1, S[2] * v0 + S[3] * v1), E)

    def step(self, x, y):
        """The product x y: a row over a duration h reaches exp(h u), so a step is one product."""
        t, (p0, p1), (e0, e1, e2, e3) = x
        s, (q0, q1), (f0, f1, f2, f3) = y
        return (t + s, (p0 + (e0 * q0 + e1 * q1), p1 + (e2 * q0 + e3 * q1)),
                (e0 * f0 + e1 * f2, e0 * f1 + e1 * f3, e2 * f0 + e3 * f2, e2 * f1 + e3 * f3))

    def multiply(self, x, y):
        # the product is the step, looked up at each call, where a tracer may have replaced it
        return self.step(x, y)

    def run(self, u, k: int, dt: float):
        """The element that a run of k rows u reaches from the identity: exp(k dt u)."""
        return self.exp(u, k * dt)

    def run_rows(self, u, k: int, dt: float) -> list:
        """``run(u, j, dt)`` for j = 1..k."""
        return [self.exp(u, j * dt) for j in range(1, k + 1)]

    def power(self, x, k: int):
        return _power(self, x, k)

    def homomorphism(self, p, x) -> float:
        """F(x), F: G -> R the homomorphism whose differential is the covector ``p``
        annihilating the derived subalgebra: as (t, q) = (0, q)(t, 0), F(t, q) is
        p(W) t + p(I) q, where the k derived directions of I weigh nothing."""
        pw, *pi = (_dot(p, row) for row in self._frame)
        k = self._derived
        return pw * x[0] + _dot(pi[k:], x[1][k:])

    def log(self, x) -> tuple:
        a = x[0]
        _, S = self._flow(a, 1.0)
        det = S[0] * S[3] - S[1] * S[2]
        if abs(det) < ZERO_TOL:
            raise ValueError("logarithm is singular at this element")
        q0, q1 = x[1]
        return self.unsplit(a, ((S[3] * q0 - S[1] * q1) / det, (S[0] * q1 - S[2] * q0) / det))

    def coords(self, x) -> tuple:
        return (x[0], x[1][0], x[1][1])


class QuaternionModel:
    """Unit quaternions realizing the su2 case algebra, as plain (w, x, y, z) float 4-tuples.

    The case generators map to scaled imaginary units; scaling factors are
    fixed by the case parameters so that commutators reproduce the case
    bracket table exactly.  A row u over a duration h reaches exp(h u), so a
    step is one product, and a run's element is its k steps folded from the
    identity, in the order the su2 witness's closure error is measured in.
    """

    def __init__(self, case: SubLorentzCase):
        if case.case_id != SU2_CASE:
            raise ValueError("quaternion model applies to case 9 only")
        k, x = case.kappa, case.chi
        alpha = math.sqrt(-(k + x)) / 2.0
        beta = math.sqrt(k - x) / 2.0
        self.scales = (alpha, beta, 2.0 * alpha * beta)
        #: Parameter time after which exp(t X1) returns to the identity.
        self.period = su2_loop_period(case)

    def identity(self):
        return (1.0, 0.0, 0.0, 0.0)

    def exp(self, u, time: float = 1.0):
        v = [time * (s * float(c)) for s, c in zip(self.scales, u)]
        theta = math.sqrt(_dot(v, v))  # an overflow is inf
        if theta == 0.0:
            return (1.0, 0.0, 0.0, 0.0)
        if not math.isfinite(theta):
            raise OverflowError("the exponential's rotation angle is not finite")
        f = math.sin(theta) / theta
        return (math.cos(theta), f * v[0], f * v[1], f * v[2])

    def multiply(self, q, r):
        w1, x1, y1, z1 = q
        w2, x2, y2, z2 = r
        return (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    # a row over a duration h reaches exp(h u), so a step is one product
    step = multiply

    def run(self, u, k: int, dt: float):
        """The element that a run of k rows u reaches from the identity: k steps folded from it."""
        return reduce(self.step, itertools.repeat(self.exp(u, dt), k), self.identity())

    def run_rows(self, u, k: int, dt: float) -> list:
        """``run(u, j, dt)`` for j = 1..k: the partial products of those steps."""
        return list(itertools.accumulate(itertools.repeat(self.exp(u, dt), k), self.step,
                                         initial=self.identity()))[1:]

    def power(self, x, k: int):
        # rounding moves x off the unit sphere, and powering would raise its norm to k
        norm = math.sqrt(_dot(x, x))
        return _power(self, tuple(c / norm for c in x), k)

    def coords(self, x) -> tuple:
        return tuple(x)


def sl2_cover_frame(algebra: LieAlgebra3) -> tuple:
    """Isomorphism matrix sending case coordinates onto cover coordinates, as three rows.

    With P the rows T, S1, S2 of :func:`~sublorentz.liealg3.killing_axes`,
    F = diag(-1, 1, 1) P K / 8 inverts their column matrix and maps (x1, x2, x3)
    to (xi, Re zeta, Im zeta), continuously in the row's parameters.  T is
    negated when X1's angle -K(T, X1)/8 would be negative, then S2 when
    S2 K [T, S1] = +-16 is, as su(1,1) has [T, S1] = 2 S2.
    """
    K = algebra.killing_form()  # symmetric, so its rows are its columns
    T, S1, S2 = killing_axes(K)[1]
    if _dot(T, K[0]) > 0.0:
        T = [-t for t in T]
    if _dot([_dot(S2, col) for col in K], algebra.bracket(T, S1)) < 0.0:
        S2 = [-t for t in S2]
    return tuple(tuple(_dot(row, col) / 8.0 for col in K) for row in ([-t for t in T], S1, S2))


class CoverModel:
    """Cover coordinates (c, w) with RK4 steps of the left-invariant dynamics.

    ``step(x, u, dt)`` advances ``x`` over one row u of duration dt: it takes
    u's cover coordinates (the rows of ``frame`` times u) as a plain
    (xi, zeta) pair, then one classical RK4 step on plain floats whose four
    stage velocities all come from ``sl2cover.push_forward``, each stage
    base passed as a plain (c, w) pair and each velocity returned as a plain
    (xi, zeta) pair.
    ``frame`` maps identity-frame control coordinates to cover coordinates;
    the identity frame is used for controls given directly as (xi, zeta).

    The dynamics are left-invariant, so a run of k equal rows is one
    element: the RK4 row Phi from the identity, raised to k in closed form by
    ``sl2cover.power`` (Cayley-Hamilton on Phi's projection to SU(1,1)).  A
    run then costs one RK4 row and O(1) scalar work, not k RK4 rows, and its
    j-th rows cost O(1) each.
    """

    def __init__(self, frame: Sequence[Sequence[float]] = _EYE):
        self.frame = tuple(tuple(map(float, row)) for row in frame)

    def identity(self):
        return sl2cover.IDENTITY

    def multiply(self, x, y):
        return sl2cover.multiply(x, y)

    def step(self, x, u, dt: float):
        # the control's cover coordinates v: the three frame dots inline, each summed from 0.0 left
        # to right as _dot sums; then each float operation in the order of
        # s + dt/6 (k1 + 2 k2 + 2 k3 + k4) on arrays.  The push-forward is looked up on its module
        # at each call, where a tracer may have replaced it
        push = sl2cover.push_forward
        u0, u1, u2 = u
        (f0, f1, f2), (g0, g1, g2), (h0, h1, h2) = self.frame
        v = (0.0 + f0 * u0 + f1 * u1 + f2 * u2,
             complex(0.0 + g0 * u0 + g1 * u1 + g2 * u2, 0.0 + h0 * u0 + h1 * u1 + h2 * u2))
        c, w = x
        p, q = w.real, w.imag
        a1, z = push(x, v)
        h = 0.5 * dt
        r1, i1 = z.real, z.imag
        a2, z = push((c + h * a1, complex(p + h * r1, q + h * i1)), v)
        r2, i2 = z.real, z.imag
        a3, z = push((c + h * a2, complex(p + h * r2, q + h * i2)), v)
        r3, i3 = z.real, z.imag
        a4, z = push((c + dt * a3, complex(p + dt * r3, q + dt * i3)), v)
        h = dt / 6.0
        return CoverElement(c + h * (((a1 + 2.0 * a2) + 2.0 * a3) + a4),
                            complex(p + h * (((r1 + 2.0 * r2) + 2.0 * r3) + z.real),
                                    q + h * (((i1 + 2.0 * i2) + 2.0 * i3) + z.imag)))

    def run(self, u, k: int, dt: float):
        """The element that a run of k rows u reaches from the identity: Phi^k, Phi the RK4 row
        from the identity, its power in closed form (``sl2cover.power``)."""
        return sl2cover.power(self.step(sl2cover.IDENTITY, u, dt), k)

    def run_rows(self, u, k: int, dt: float) -> list:
        """``run(u, j, dt)`` for j = 1..k, from one RK4 row."""
        phi = self.step(sl2cover.IDENTITY, u, dt)
        return [sl2cover.power(phi, j) for j in range(1, k + 1)]

    def power(self, x, k: int):
        return sl2cover.power(x, k)

    def coords(self, x) -> tuple:
        return (x.c, x.w.real, x.w.imag)


# ---------------------------------------------------------------------------
# structures and curves

@dataclass(frozen=True, eq=False)
class CaseStructure:
    """A row's algebra bundled with its cone, anti-norm and concrete group model."""

    algebra: LieAlgebra3
    cone: SegmentCone
    anti_norm: AntiNorm
    model: object


def build_structure(case: SubLorentzCase, anti_norm: AntiNorm = LORENTZIAN,
                    cone: Optional[SegmentCone] = None) -> CaseStructure:
    """Structure of a classification row on its simply connected group."""
    algebra = from_case(case)
    cone = DEFAULT_CONE if cone is None else cone
    if case.case_id == SU2_CASE:
        model: object = QuaternionModel(case)
    elif case.case_id in SL2_CASES:
        model = CoverModel(sl2_cover_frame(algebra))
    else:
        model = SemidirectModel(algebra)
    return CaseStructure(algebra, cone, anti_norm, model)


@dataclass(frozen=True, eq=False, init=False)
class ControlCurve:
    """Uniform-step admissible curve: ``repeat`` traversals of the loop block, then the rows after it.

    ``loop_runs`` and ``runs`` hold (row, count) runs of identity-frame cone controls, a row
    being a tuple of three floats.  ``ControlCurve(dt, controls, structure)`` finds the runs
    of an (N, 3) array once, with no loop block.  Rows share a run where their bits are equal,
    so :meth:`to_json` keeps signed zeros; :func:`_merged` joins runs whose rows compare equal.
    """

    dt: float
    runs: tuple
    structure: CaseStructure
    loop_runs: tuple = ()
    repeat: int = 1

    def __init__(self, dt: float, controls, structure: CaseStructure):
        rows = np.atleast_2d(np.asarray(controls, dtype=float))
        if rows.shape[1] != 3:
            raise ValueError("controls must be N x 3")
        values, bits = rows.tolist(), np.ascontiguousarray(rows).view(np.int64).tolist()
        self._fill(dt, tuple((tuple(values[s]), k) for s, _, k in _runs(bits)), structure, (), 1)

    @classmethod
    def from_runs(cls, dt: float, runs, structure: CaseStructure, loop_runs=(), repeat=1) -> ControlCurve:
        """``repeat`` traversals of the (row, count) runs ``loop_runs``, then the runs ``runs``."""
        runs, loop_runs = tuple(runs), tuple(loop_runs)
        if not all(isinstance(k, numbers.Integral) and k >= 1 for _, k in loop_runs + runs):
            raise ValueError("a run's count must be a positive integer")
        if not all(isinstance(u, (tuple, list, np.ndarray)) and len(u) == 3 and all(
                isinstance(t, numbers.Real) and not isinstance(t, bool) for t in u) for u, _ in loop_runs + runs):
            raise ValueError("a run's row must be three real numbers")
        return cls.__new__(cls)._fill(dt, runs, structure, loop_runs, repeat)

    def _fill(self, dt, runs: tuple, structure: CaseStructure, loop_runs: tuple, repeat) -> ControlCurve:
        if not float(dt) > 0.0:
            raise ValueError("dt must be positive")
        if not isinstance(repeat, numbers.Integral) or repeat < 0:
            raise ValueError("repeat must be a nonnegative integer")
        self.__dict__.update(dt=float(dt), runs=runs, structure=structure, loop_runs=loop_runs,
                             repeat=int(repeat))  # the fields of a frozen dataclass, set once
        return self

    @property
    def loop(self) -> ControlCurve:
        """The loop block as a curve of its own, traversed once."""
        return ControlCurve.from_runs(self.dt, self.loop_runs, self.structure)

    def to_json(self) -> dict:
        """dt and the rows (the block's once); with a block, its row count and the repeat count."""
        out = {"dt": self.dt, "controls": [list(u) for u, k in self.loop_runs + self.runs for _ in range(k)]}
        if self.loop_runs:
            out.update(loop_rows=sum(k for _, k in self.loop_runs), repeat=self.repeat)
        return out


@dataclass(frozen=True, eq=False)
class IntegrationResult:
    """The endpoint of ``curve`` from the identity; its trajectory is sampled when first read."""

    endpoint: object
    curve: ControlCurve

    @cached_property
    def trajectory(self) -> np.ndarray:
        """(N+1) x d coordinate samples: the identity, then those :func:`_endpoint` takes."""
        model = self.curve.structure.model
        states = [model.identity()]
        _endpoint(self.curve, states)
        return np.array([model.coords(x) for x in states])


def _runs(rows: list):
    """(index of its first row, the row, its length) for each run of equal rows in a row list."""
    start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or rows[i] != rows[start]:
            yield start, rows[start], i - start
            start = i


def _merged(runs) -> list:
    """(row, count) runs with neighbours whose rows compare equal joined, as :func:`_runs` finds them."""
    return [(u, sum(k for _, k in run)) for u, run in itertools.groupby(runs, operator.itemgetter(0))]


def _advance(model, x, runs, dt: float, samples: Optional[list] = None):
    """The state ``x`` stepped through the (row, count) ``runs``; with a list ``samples``, the
    state after each row is appended to it.

    A run of k rows from ``x_s`` is one product, ``multiply(x_s, run(u, k, dt))``, and its j-th
    row is ``multiply(x_s, run(u, j, dt))``.
    """
    multiply = model.multiply
    for u, k in runs:
        if samples is None:
            x = multiply(x, model.run(u, k, dt))
        else:
            start = x
            for element in model.run_rows(u, k, dt):
                x = multiply(start, element)
                samples.append(x)
    return x


def _power(model, x, k: int):
    """x^k for k >= 1 by binary powering: O(log k) products through ``model.multiply``, the
    first factor taken as it is rather than multiplied onto the identity.  It is ``power`` on
    the semidirect and quaternion models; the cover's is the closed form ``sl2cover.power``."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else model.multiply(out, x)
        k >>= 1
        if not k:
            return out
        x = model.multiply(x, x)


def _endpoint(curve: ControlCurve, samples: Optional[list] = None):
    """The endpoint of ``curve`` from the identity; with a list ``samples``, the state after
    each row is appended to it.

    A block repeated once is stepped with the rows after it, so that a run across them is
    one run, as in the expanded curve.  A block repeated more than once is stepped (and
    sampled) once, its endpoint raised to the repeat count by the model's ``power``, and the
    rows after it stepped from that power.  A power that overflows comes out non-finite
    (an ``OverflowError`` on the cover).
    """
    model, dt = curve.structure.model, curve.dt
    x = model.identity()
    if curve.repeat == 1:
        return _advance(model, x, _merged(curve.loop_runs + curve.runs), dt, samples)
    if curve.repeat > 1:
        x = model.power(_advance(model, x, _merged(curve.loop_runs), dt, samples), curve.repeat)
        if samples is not None:
            samples.append(x)
    return _advance(model, x, _merged(curve.runs), dt, samples)


def integrate(curve: ControlCurve) -> IntegrationResult:
    """Integrate a curve from the identity; rejects controls outside the cone.  Equal rows
    get equal answers, so each run is checked once, and only the endpoint is computed here."""
    first = 0
    for u, k in curve.loop_runs + curve.runs:
        if not any(u):  # exactly zero: a norm's square underflows on tiny nonzero rows
            raise ValueError(f"control {first} is zero")
        if not contains(curve.structure.cone, u):
            raise ValueError(f"control {first} lies outside the admissible cone")
        first += k
    return IntegrationResult(_endpoint(curve), curve)


def _total(values) -> float:
    """The floats (a length's one per run, a distance's squares) summed left to right from 0.0 in
    plain float arithmetic: numpy's pairwise sum and Python 3.12's compensated ``sum`` round otherwise."""
    total = 0.0
    for v in values:
        total += v
    return total


def _length(nu: AntiNorm, runs, dt: float) -> float:
    """count * nu(row) summed in run order times dt, over (row, count) runs of equal rows: one
    value and one rounding per run, so k equal rows round once where k additions would k times."""
    return _total(k * nu(u) for u, k in runs) * dt


def length(curve: ControlCurve) -> float:
    """Generalized length: sum of anti-norm values of the controls times dt, that is
    repeat * length(loop block) + length(the rows after it), each summed per run by :func:`_length`."""
    nu, dt = curve.structure.anti_norm, curve.dt
    return curve.repeat * _length(nu, _merged(curve.loop_runs), dt) + _length(nu, _merged(curve.runs), dt)


def target_from_exp2(structure: CaseStructure, abc: Sequence[float]):
    """Group element exp(a X1) exp(b X2) exp(c X3) for three finite numbers (a, b, c)."""
    model = structure.model
    if isinstance(model, CoverModel):
        raise TypeError("this model takes targets in its own coordinates, not exponential ones")
    if len(abc) != 3 or not all(isinstance(t, numbers.Real) and not isinstance(t, bool) and math.isfinite(t)
                                for t in abc):
        raise ValueError(f"a target in exponential coordinates is three finite numbers, got {list(abc)}")
    try:
        x = model.identity()
        for amount, basis_vec in zip(abc, _EYE):
            if amount != 0.0:  # a zero factor is the identity
                x = model.multiply(x, model.exp(basis_vec, float(amount)))
        if not all(map(math.isfinite, model.coords(x))):  # it overflowed without raising
            raise OverflowError
    except OverflowError:
        raise ValueError(f"the target {list(abc)} is out of float range: its exponential overflows") from None
    return x


# ---------------------------------------------------------------------------
# calibration upper bound

def _section_ratio_max(cone: SegmentCone, nu: AntiNorm, p) -> float:
    """max over the cross-section u1 + s u2, |s| <= h of nu(v) / (p . v), by golden section.

    nu is concave and p . v positive and affine in s, so the ratio is quasi-concave on
    [-h, h] (its superlevel sets are intervals) and flat only at its maximum: each step
    keeps the maximizer in the interval it keeps, so no grid need bracket it first.  The
    endpoint values cover a maximum at an end of the section.
    """
    (a0, a1, a2), (b0, b1, b2) = cone.u1, cone.u2
    p0, p1, p2 = map(float, p)
    h = cone.half_width

    def ratio(s: float) -> float:
        v = [a0 + s * b0, a1 + s * b1, a2 + s * b2]
        return nu(v) / (p0 * v[0] + p1 * v[1] + p2 * v[2])

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -h, h
    c1, c2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = ratio(c1), ratio(c2)
    for _ in range(80):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + phi * (b - a)
            f2 = ratio(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - phi * (b - a)
            f1 = ratio(c1)
    return max(f1, f2, ratio(-h), ratio(h))


def distance_upper_bound(structure: CaseStructure, target, witness) -> float:
    """Upper bound on the length of any admissible curve from the identity to ``target``.

    ``witness`` must be a strict dual covector p annihilating the derived
    subalgebra (an existence certificate of a solvable row).  Such a p is the
    differential of a homomorphism F: G -> R, so an admissible curve u(t) to
    the target has F(target) = integral of p . u dt.  The bound is
    c_max * F(target), where c_max bounds the anti-norm against p on the cone
    cross-section, and F is evaluated in closed form on the model.
    """
    model = structure.model
    if not isinstance(model, SemidirectModel):
        raise TypeError("the calibration bound applies to the solvable (semidirect) models")
    p = _vec3(witness)
    if not witness_is_valid(structure.algebra, structure.cone, p):
        raise ValueError("witness is not a certificate: it must be strictly positive on the "
                         "punctured cone and annihilate the derived subalgebra")
    return _section_ratio_max(structure.cone, structure.anti_norm, p) * model.homomorphism(p, target)


# ---------------------------------------------------------------------------
# near-longest search

@dataclass(frozen=True, eq=False)
class SolveResult:
    found: bool
    curve: Optional[ControlCurve]
    length: float
    endpoint_error: float
    evaluations: int
    upper_bound: Optional[float] = None
    #: the evaluations whose candidate was stepped to its endpoint; not in :meth:`to_json`
    rollouts: int = 0

    def to_json(self) -> dict:
        out = {
            "found": self.found,
            "length": self.length if self.found else None,
            "endpoint_error": self.endpoint_error if self.found else None,
            "evaluations": self.evaluations,
            "upper_bound": self.upper_bound,
        }
        out["gap"] = (self.upper_bound - self.length) if (self.found and self.upper_bound is not None) else None
        out["curve"] = self.curve.to_json() if self.curve is not None else None
        return out


class _BudgetExhausted(Exception):
    pass


def _distance(a, b) -> float:
    """Euclidean distance of two coordinate tuples: the squared differences summed left to
    right in plain float arithmetic, so that no BLAS kernel (or its fused multiply-adds)
    decides how it rounds.  Overflow gives inf or nan."""
    return math.sqrt(_total(d * d for d in map(operator.sub, a, b)))


_B_MAX = 1.0 - 1e-9
_R_MIN = 1e-7


def _b_max(cone: SegmentCone) -> float:
    """The clamp on b that keeps the search's rows [r, r b, 0] inside a cone of u1 along +X1 and u2
    along X2: ``_B_MAX`` min(1, h |u2[1]| / u1[0]), which is ``_B_MAX`` on the default cone."""
    (a, a2, a3), (c1, c, c3) = cone.u1, cone.u2
    if a > 0.0 and a2 == a3 == c1 == c3 == 0.0:
        return _B_MAX * min(1.0, cone.half_width * abs(c) / a)
    raise ValueError("the search proposes controls [r, r b, 0], so it needs a segment cone whose u1 is "
                     "a positive multiple of X1 and whose u2 is a multiple of X2")


def _control(r: float, b: float, b_max: float) -> list:
    """The control row [r, r b, 0] of a pair (r, b): r clamped below at ``_R_MIN``, b to +-``b_max``."""
    # max/min's floats (NaN and signed zeros too; numpy's clip's for finite entries); r b keeps a zero b's sign
    r = _R_MIN if _R_MIN > r else r
    b = -b_max if -b_max > b else b
    return [r, r * (b_max if b_max < b else b), 0.0]


class _Search:
    """Scores candidates theta: flat lists [r0, b0, r1, b1, ...] of one (r, b) pair
    per row, each made a control row by :func:`_control` with b clamped by :func:`_b_max`,
    or one pair [r, b] that all rows share, which is one run of n rows from the identity.

    Other candidates go per maximal run of rows that compare equal, a run's row
    being the control of the pair at its first.  A descent's start is found for
    its runs once; :meth:`keep` makes it, or a later move, the kept candidate.
    A move of one row splits its run into at most three pieces, or joins the
    row to a neighbour, stepped from the kept start state of the first run it
    touches.  A run is one element, ``run(u, k, dt)`` composed onto its start
    state (a run from the identity is its element, with no product), so an
    element is specific to its run's count.  A piece keeps its run's value,
    and a run left whole its element; a run of the last candidate with the
    same start, row and count lends its element, and its end state if it
    started from the same state.  Lengths sum count * value per run, as
    :func:`length` does, and scores are the floats of :func:`integrate` and
    :func:`length` on the curve afresh, up to a zero's sign; an overflowing
    exponential, RK4 row or product, or a non-finite endpoint, scores inf error.
    Each candidate counts as one evaluation of the budget, also one that is
    not stepped (see ``_descend`` and :meth:`rollout`): before any step, a
    candidate's length, and on the semidirect model a lower bound lb on its
    endpoint error read off its endpoint's image in G/[G,G] (t, and q1 on
    rows 1 and 2*), can show that it neither becomes the best nor is kept.
    ``rollouts`` counts those stepped.
    """

    # Feasible candidates are ranked by length minus a multiple of the endpoint
    # error so that an exact hit always beats a ball-edge curve whose extra
    # length is only an artifact of ending elsewhere (the achievable trade-off
    # is O(1) length per unit of endpoint displacement; 10 dominates it).
    ERR_WEIGHT = 10.0

    def __init__(self, structure: CaseStructure, target, n_steps: int, budget: int):
        self.model = structure.model
        self.b_max = _b_max(structure.cone)
        self.nu = structure.anti_norm
        self.n = n_steps
        self.dt = 1.0 / n_steps
        self.budget, self.evals = budget, 0
        #: candidates stepped to their endpoint, out of ``evals``
        self.rollouts = 0
        self.tcoords = self.model.coords(target)
        #: (coordinate index, frame row g) of each homomorphism G -> R that is a coordinate of
        #: the model's elements: a row u's exponential over h has that coordinate h (g . u).  On
        #: the semidirect model t, and q1 where the derived subalgebra is a line (rows 1 and 2*),
        #: so G/[G,G] is the plane of both; none on the cover and quaternion models, whose
        #: algebras (sl2, su2) are perfect
        self._homs: tuple = ()
        if isinstance(self.model, SemidirectModel):
            frame = self.model._frame
            self._homs = ((0, frame[0]), (2, frame[2])) if self.model._derived == 1 else ((0, frame[0]),)
        self.best: Optional[tuple[float, list, float]] = None
        self.best_rank = -math.inf  # that of ``best``, which a candidate must beat to replace it
        # the kept candidate: runs (start, row, count, element, row value, start state), none once
        # it overflowed, and score; the last candidate to keep, and its runs by start
        self._runs: list = []
        self._score = (math.nan, math.inf)
        self._cand, self._last = None, {}

    def expand(self, theta: list) -> list:
        """A copy of theta with one pair per row: a single pair is repeated n times."""
        return theta * self.n if len(theta) == 2 else theta[:]

    def _error(self, x) -> float:
        coords, target = self.model.coords(x), self.tcoords
        if len(target) == 3:  # _distance's floats written out: 0.0 + d0^2 is d0^2
            (c0, c1, c2), (t0, t1, t2) = coords, target
            d0, d1, d2 = c0 - t0, c1 - t1, c2 - t2
            err = math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
        else:
            err = _distance(coords, target)
        return err if math.isfinite(err) else math.inf

    def rollout(self, theta: list, row: Optional[int] = None, mu: float = 0.0,
                bar: Optional[float] = None, cap: float = math.inf) -> tuple[float, float]:
        """(length, endpoint error) of theta, the candidate :meth:`keep` then keeps; with
        ``row``, theta is the kept candidate with the pair of that row moved.

        A candidate is ruled out before it is stepped when it cannot become the best and its
        caller would not keep it, as a lower bound lb on its endpoint error e shows: its rank
        ell - 10 e is at most ell - 10 lb, and its score ell - mu e^2 at most ell - mu lb^2.
        That is when lb is above ``ENDPOINT_TOL`` or ell - 10 lb is at most the best rank, and
        either ell - mu lb^2 is at most ``bar`` (a descent's move) or lb is above ``cap`` (the
        grid's third least error so far).  It is then (ell, lb), and :meth:`keep` cannot keep
        it.  lb = 0 rules out a move whose length is at most the bar and the best rank.  On the
        semidirect model lb is the distance in G/[G,G]: sqrt(d_t^2), d_t = t - the target's t,
        t the endpoint's first coordinate, and on rows 1 and 2* sqrt(d_t^2 + d_q1^2), q1 its
        third.  Each is summed from the start state's over the runs' h (g . u), or a kept
        run's element's, in the order of the rollout's products with no exponential, so lb is
        at most ``_error``'s sqrt(d_t^2 + d_q0^2 + d_q1^2), as rounding is monotone."""
        self._cand = None
        model, runs, dt, b_max = self.model, self._runs, self.dt, self.b_max
        if len(theta) == 2:
            u, n = _control(theta[0], theta[1], b_max), self.n
            ell, new = n * self.nu(u) * dt, None
        elif row is None or not runs:
            j0, j1 = 0, len(runs)
            rows = [_control(r, b, b_max) for r, b in zip(theta[::2], theta[1::2])]
            new = [(s, u, k, None, self.nu(u), None) for s, u, k in _runs(rows)]
        else:
            i = row
            j0 = j = bisect.bisect_right(runs, i, key=operator.itemgetter(0)) - 1
            s, w, k, _, value, _ = runs[j]
            u = _control(theta[2 * i], theta[2 * i + 1], b_max)
            if u == w:
                return self._score
            right = i + 1 == s + k and j + 1 < len(runs) and runs[j + 1][1] == u  # the row joins the next run
            count = 1 + runs[j + 1][2] if right else 1
            if i == s and j and runs[j - 1][1] == u:  # the row joins the run before it
                j0 = j - 1
                s0, w0, k0, _, v, _ = runs[j0]
                new = [(s0, w0, k0 + count, None, v, None)]
            else:
                v = self.nu(u)
                new = [(s, w, i - s, None, value, None)] if i > s else []
                new.append((i, u, count, None, v, None))
            j1 = j + 1 + right
            if not right and i + 1 < s + k:
                after = _control(theta[2 * i + 2], theta[2 * i + 3], b_max)
                new.append((i + 1, after, s + k - i - 1, None, value, None))
        if new is not None:
            rest = runs[j1:]
            ell = _total(k * v for _, _, k, _, v, _ in itertools.chain(runs[:j0], new, rest)) * dt
            x = runs[j0][5] if runs else model.identity()
        if bar is not None and ell <= bar and ell <= self.best_rank:
            return ell, 0.0
        if self._homs and (bar is not None or cap < math.inf):
            ss = 0.0
            for c, (g0, g1, g2) in self._homs:
                if new is None:
                    y = n * dt * (g0 * u[0] + g1 * u[1] + g2 * u[2])
                else:  # from the start state's coordinate, each run's as the products sum them
                    y = x[1][c - 1] if c else x[0]
                    for _, w, k, _, _, _ in new:
                        y += k * dt * (g0 * w[0] + g1 * w[1] + g2 * w[2])
                    for run in rest:
                        y += run[3][1][c - 1] if c else run[3][0]
                d = y - self.tcoords[c]
                ss += d * d
            lb = math.sqrt(ss)
            if (lb > ENDPOINT_TOL or ell - self.ERR_WEIGHT * lb <= self.best_rank) and (
                    (bar is not None and ell - mu * lb * lb <= bar) or lb > cap):
                return ell, lb
        self.rollouts += 1
        if new is None:
            self._cand = (0, None, None)  # kept, a single pair leaves no runs to move from
            try:
                return ell, self._error(model.run(u, n, dt))
            except OverflowError:
                return ell, math.inf
        last, out = self._last, []
        try:
            for s, u, k, inc, value, _ in itertools.chain(new, rest):
                old = last.get(s, (None,) * 6)  # the last candidate's run here lends its element
                if inc is None:
                    inc = old[3] if old[1] == u and old[2] == k else model.run(u, k, dt)
                out.append((s, u, k, inc, value, x))
                if old[5] is x and old[1] == u and old[2] == k and s + k in last:  # and its end, from this state
                    x = last[s + k][5]
                else:
                    x = inc if s == 0 else model.multiply(x, inc)
            score = ell, self._error(x)
        except OverflowError:
            out, score = None, (ell, math.inf)
        self._last = {run[0]: run for run in out} if out else {}
        self._cand = (j0, out, score)
        return score

    def keep(self) -> None:
        """Make the last candidate scored the kept one."""
        if self._cand is not None:
            j0, out, self._score = self._cand
            self._runs = [] if out is None else self._runs[:j0] + out

    def count(self) -> None:
        """Count one evaluation; past the budget, end the search."""
        if self.evals >= self.budget:
            raise _BudgetExhausted
        self.evals += 1

    def score(self, theta: list, mu: float, row: Optional[int] = None, bar: Optional[float] = None,
              cap: float = math.inf) -> float:
        """The value length - mu error^2 of theta (see :meth:`rollout`), which may replace the
        best.  A candidate ruled out scores with its error's lower bound in place of its error:
        at most ``bar``, or with ``last`` recording an error above ``cap``, and never the best."""
        self.count()
        ell, err = self.rollout(theta, row, mu, bar, cap)
        self.last = (ell, err)
        if err <= ENDPOINT_TOL and math.isfinite(ell):
            rank = ell - self.ERR_WEIGHT * err
            if rank > self.best_rank:
                self.best, self.best_rank = (ell, self.expand(theta), err), rank
        return ell - mu * err * err

    def _descend(self, x: list, mu: float, step: float, margin: float, floor: float,
                 box: int) -> list:
        # Pattern search within ``box`` evaluations: move each entry of the list x
        # in turn by +step then -step and keep the first move that beats the
        # current value by more than ``margin``; halve the step after a sweep with
        # no improvement and stop once it is below ``floor``.  A move is made on x
        # in place, scored from the kept candidate, and undone when it is not kept.
        # Every move counts as one evaluation, but two kinds are not stepped, as
        # neither can pay nor become the best:
        # * a move in ``failed``, the (entry, value) moves that did not pay from the
        #   current point, which would score as it did.  Once a move pays, ``failed``
        #   holds the point just left, which scores below the new current.  Values
        #   that compare equal give control rows that compare equal (a zero b's sign
        #   only signs r b = 0), which the rollout already scores alike (its u == w);
        # * a move that cannot become the best and whose score is at most the bar
        #   current + margin by a bound known before any step: its length, less
        #   mu lb^2 where the model gives an error bound lb (see rollout).
        used = 1
        current = self.score(x, mu)
        self.keep()
        failed: set = set()
        while used < box:
            improved = False
            for i in range(len(x)):
                xi = x[i]
                for delta in (step, -step):
                    if used >= box:
                        return x
                    used += 1
                    move = (i, xi + delta)
                    if move in failed:
                        self.count()
                        continue
                    x[i] = move[1]
                    bar = current + margin
                    val = self.score(x, mu, i >> 1, bar)
                    if val > bar:
                        current, improved = val, True
                        self.keep()
                        failed = {(i, xi)}
                        break
                    failed.add(move)
                    x[i] = xi
            if not improved:
                step *= 0.5
                if step < floor:
                    break
        return x

    def coordinate_descent(self, theta: list, mu: float, box: int) -> list:
        return self._descend(self.expand(theta), mu, 0.25, 1e-14, 1e-8, box)

    def constant_descent(self, rb: list, mu: float, box: int) -> list:
        return self._descend(list(rb), mu, 0.2, 1e-16, 1e-10, box)


def _grid(lo: float, hi: float, n: int) -> list:
    """The n floats of ``numpy.linspace(lo, hi, n)``: point i is i step + lo, and the last is hi."""
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def maximize(structure: CaseStructure, target, n_steps: int = 24, budget: int = 10000,
             seed: int = DEFAULT_SEED) -> SolveResult:
    """Penalty-augmented multi-start search for a near-longest admissible curve.

    The candidate stream (initial guesses, constant-control sweep and
    refinements, penalty-escalated coordinate descents, random restarts) is a
    fixed deterministic sequence for a given seed; the budget only truncates
    it, so the set of evaluated candidates grows with the budget and the
    reported best length is nondecreasing in it.  Every candidate of the stream
    is one evaluation, also one that is not stepped because it would change
    neither the search's path nor the best (``rollouts`` counts those stepped):
    a descent move whose length, less mu lb^2, is at most the descent's bar,
    and a grid candidate whose error bound lb is above the third least grid
    error so far, which is ranked by lb and so stays out of the grid's first
    three (lb being the semidirect model's distance in G/[G,G] of
    :meth:`_Search.rollout`, 0 on the cover and quaternion models, whose
    algebras are perfect).  A curve counts as reaching the target when its endpoint is
    within 1e-4 of it in group coordinates; if no candidate gets that close the
    result is marked not found.  A candidate far enough out overflows in floats
    and scores as infeasible.  The candidates are control rows [r, r b, 0], with
    b clamped so that they stay inside the structure's cone; a cone that holds
    no such clamp is a ``ValueError`` (see :func:`_b_max`), and so, after it, is a
    target within 1e-4 of the identity in group coordinates, which the search cannot
    tell from the identity.
    """
    search = _Search(structure, target, n_steps, budget)
    model = structure.model
    if _distance(search.tcoords, model.coords(model.identity())) <= ENDPOINT_TOL:
        raise ValueError(f"the target is within the endpoint tolerance {ENDPOINT_TOL:g} of the identity, "
                         "so the search cannot tell a curve to it from one to the identity")

    log_theta = log_u = None
    if isinstance(model, SemidirectModel):
        try:
            log_u = model.log(target)
        except (ValueError, TypeError, OverflowError):
            pass
    if log_u is not None and log_u[0] > 0.0 and abs(log_u[2]) < 1e-9:
        r0 = max(log_u[0], _R_MIN)
        log_theta = [r0, min(max(log_u[1] / r0, -search.b_max), search.b_max)]

    try:
        if log_theta is not None:
            search.score(log_theta, 1e8)

        # constant-control sweep over the compact slab, ranked by endpoint error.  A candidate
        # whose error bound is above the third least error so far cannot be among the first
        # three: where it cannot become the best either, it is ranked by that bound unstepped
        r_hi = 3.0 if log_u is None else max(2.5, 2.5 * math.sqrt(_dot(log_u, log_u)))
        grid: list[tuple[float, list]] = []
        least = [math.inf] * 3
        for r in _grid(0.15, r_hi, 12):
            for b in _grid(-0.95, 0.95, 13):
                search.score([r, b], 1e4, cap=least[2])
                err = search.last[1]
                grid.append((err, [r, b]))
                if err < least[2]:
                    bisect.insort(least, err)
                    least.pop()
        grid.sort(key=lambda t: t[0])

        refined: list[list] = []
        for _, rb in grid[:3]:
            rb = search.constant_descent(rb, 1e5, box=250)
            rb = search.constant_descent(rb, 1e9, box=250)
            refined.append(rb)

        full_starts: list[list] = []
        if search.best is not None:
            full_starts.append(search.best[1])
        if log_theta is not None:
            full_starts.append(log_theta)
        full_starts.extend(refined[:1])
        for theta in full_starts:
            for mu, box in ((1e5, 1200), (1e7, 1200)):
                theta = search.coordinate_descent(theta, mu, box)

        rng, r_top = random.Random(seed), min(r_hi, 2.0)
        while True:
            theta = [v for _ in range(n_steps) for v in (rng.uniform(0.2, r_top), rng.uniform(-0.8, 0.8))]
            for mu, box in ((1e4, 250), (1e6, 250), (1e8, 300)):
                theta = search.coordinate_descent(theta, mu, box)
    except _BudgetExhausted:
        pass

    if search.best is None:
        return SolveResult(False, None, float("nan"), float("inf"), search.evals, rollouts=search.rollouts)
    ell, theta, err = search.best
    curve = ControlCurve(search.dt, [_control(r, b, search.b_max) for r, b in zip(theta[::2], theta[1::2])], structure)
    return SolveResult(True, curve, ell, err, search.evals, rollouts=search.rollouts)


# ---------------------------------------------------------------------------
# unbounded-length construction on su2

def su2_unbounded_witness(structure: CaseStructure, demanded_length: float,
                          base_curve: Optional[ControlCurve] = None,
                          steps_per_loop: int = 64) -> ControlCurve:
    """Admissible curve to the base endpoint of length at least ``demanded_length``.

    Prepends whole traversals of the closed timelike loop exp(t X1) (which
    returns to the identity after one period) to the base curve; each loop
    adds its fixed length, so any demanded length is reached while the
    endpoint stays that of the base curve.  The traversals are a repeat
    count of a block of one run, so the curve's size does not grow with the demand.
    """
    if not 0.0 < demanded_length < math.inf:
        raise ValueError("demanded length must be positive and finite")
    if steps_per_loop < 1:
        raise ValueError("steps per loop must be >= 1")
    if steps_per_loop > MAX_STEPS:
        raise ValueError(f"steps per loop must be <= {MAX_STEPS}")
    model = structure.model
    if not isinstance(model, QuaternionModel):
        raise ValueError("the loop construction applies to the su2 structure (case 9)")
    period = model.period
    dt = base_curve.dt if base_curve is not None else period / steps_per_loop
    m = max(1, int(math.ceil(period / dt)))
    loop_runs = (((period / (m * dt), 0.0, 0.0), m),)  # one run of m equal rows
    nu = structure.anti_norm
    loop_len = _length(nu, loop_runs, dt)
    runs, base_len = (), 0.0
    if base_curve is not None:
        if base_curve.loop_runs:
            raise ValueError("the base curve must have no loop block")
        runs, base_len = base_curve.runs, _length(nu, _merged(base_curve.runs), dt)
    loops = (demanded_length - base_len) / loop_len
    if not math.isfinite(loops):
        raise ValueError(f"demanded length {demanded_length:g} needs too many loops of "
                         f"length {loop_len:g} to count")
    k = max(0, int(math.ceil(loops)))
    # the quotient may round down; grow k by at least one unit in the last place of float(k)
    while k * loop_len + base_len < demanded_length:
        k += max(1, k >> 52)
    if not math.isfinite(k * loop_len + base_len):
        raise ValueError(f"demanded length {demanded_length:g} gives a witness of infinite length")
    return ControlCurve.from_runs(dt, runs, structure, loop_runs, k)

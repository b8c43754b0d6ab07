"""Cone membership, duals and subspace questions, on plain floats and at the ends of float range.

Hypothesis draws part of its examples from the literals of the modules loaded so far, so the
examples a test tries depend on which test files ran before it, even with ``derandomize=True``.
A test whose premise holds only for some draws states that premise with ``assume``, so that
it passes alone as it does in the full suite.
"""

import decimal
import itertools
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sublorentz.conegeom import (
    DEFAULT_CONE,
    SegmentCone,
    cone_subspace_trivial,
    contains,
    dual_contains,
    find_interior_dual_in_annihilator,
)


def section_directions(cone: SegmentCone, n: int) -> np.ndarray:
    u1, u2 = np.asarray(cone.u1), np.asarray(cone.u2)
    s = np.linspace(-cone.half_width, cone.half_width, n)
    return u1[None, :] + s[:, None] * u2[None, :]


# -- membership -------------------------------------------------------------

def test_contains_examples():
    # an interior vector keeps its neighbours in the plane, a boundary vector does not, and
    # the zero vector is in the closed cone while the tiniest vector is decided on its direction
    assert contains(DEFAULT_CONE, (1, 0.5, 0))
    assert all(contains(DEFAULT_CONE, (1, 0.5 + t, 0)) for t in (-1e-3, 1e-3))
    assert contains(DEFAULT_CONE, (1, 1, 0))
    assert not contains(DEFAULT_CONE, (1, 1 + 1e-9, 0))
    assert not contains(DEFAULT_CONE, (1, 0, 0.1))
    assert contains(DEFAULT_CONE, (0, 0, 0))
    assert not contains(DEFAULT_CONE, (-5e-324, 0, 0)) and contains(DEFAULT_CONE, (5e-324, 0, 0))


def test_default_cone_matches_inequality_description():
    # {(x1, x2, x3) : x2^2 <= x1^2, x1 >= 0, x3 = 0} up to closure
    rng = np.random.default_rng(8)
    for _ in range(500):
        v = rng.uniform(-2, 2, size=3)
        if min(abs(v[0] - abs(v[1])), abs(v[0]), abs(v[2])) < 1e-6:
            continue
        described = (v[1] ** 2 <= v[0] ** 2) and v[0] >= 0.0 and v[2] == 0.0
        if abs(v[2]) > 1e-6:
            described = False
        assert contains(DEFAULT_CONE, v) == described


def test_acute():
    # a segment cone holds no line: it takes v but not -v, down to the width 0 of the ray
    # through u1, and the half-plane of infinite width cannot be built
    for v in ((1, 0, 0), (1, 1, 0), (1, -1, 0)):
        assert contains(DEFAULT_CONE, v) and not contains(DEFAULT_CONE, tuple(-x for x in v))
    ray = SegmentCone((1, 0.5, 0), (0, 1, 0.3), half_width=0.0)
    assert contains(ray, (2, 1, 0)) and not contains(ray, (-2, -1, 0))
    assert not contains(ray, (0, 1, 0.3)) and not contains(ray, (0, -1, -0.3))


@pytest.mark.parametrize("h", [math.nan, math.inf, "nan", "inf", -math.inf])
def test_segment_cone_rejects_a_non_finite_half_width(h):
    # a cone of infinite width is a half-plane, which holds a line and has no extreme rays
    with pytest.raises(ValueError, match="half_width must be finite"):
        SegmentCone((1, 0, 0), (0, 1, 0), h)


def test_segment_cone_rejects_a_negative_half_width():
    with pytest.raises(ValueError, match="half_width must be >= 0"):
        SegmentCone((1, 0, 0), (0, 1, 0), -0.5)


def test_degenerate_cone_rejected_by_dual_operations():
    # the half-plane, whose dual is a ray, is refused as it is built, before an operation answers on it
    for operation, argument in ((dual_contains, (1, 0, 0)), (cone_subspace_trivial, [(0, 0, 1)]),
                                (find_interior_dual_in_annihilator, [(0, 0, 1)])):
        with pytest.raises(ValueError, match="half_width must be finite"):
            operation(SegmentCone((1, 0, 0), (0, 1, 0), half_width=math.inf), argument)


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e6])
def test_segment_cone_constructs_at_every_scale(scale):
    cone = SegmentCone((scale, 0, 0), (0, scale, 0))
    assert cone.u1 == (scale, 0.0, 0.0) and cone.u2 == (0.0, scale, 0.0)


@pytest.mark.parametrize("u1,u2", [
    ((1, 0, 0), (2, 0, 0)),
    ((1e-6, 0, 0), (-3e-6, 0, 0)),
    ((1e6, 1e6, 0), (1e6, 1e6, 0)),
    ((0, 0, 0), (0, 1, 0)),
    ((1e-9, 0, 0), (0, 0, 0)),
])
def test_segment_cone_rejects_parallel_or_zero_generators(u1, u2):
    with pytest.raises(ValueError, match="linearly independent"):
        SegmentCone(u1, u2)


def test_a_segment_cone_whose_extreme_rays_overflow_is_rejected():
    with pytest.raises(ValueError, match=r"the extreme rays u1 \+- h u2 of a segment cone of half-width 1e\+308 "
                                         "are not finite"):
        SegmentCone((1, 0, 0), (0, 2, 0), 1e308)
    assert SegmentCone((1, 0, 0), (0, 1, 0), 1e308).rays() == ((1.0, 1e308, 0.0), (1.0, -1e308, 0.0))


def test_dependent_basis_rejected():
    with pytest.raises(ValueError, match="dependent"):
        cone_subspace_trivial(DEFAULT_CONE, [(1, 0, 0), (2, 0, 0)])


# -- duality ----------------------------------------------------------------

def test_dual_contains_examples():
    assert dual_contains(DEFAULT_CONE, (1, 0, 0), strict=True)
    assert dual_contains(DEFAULT_CONE, (1, 0, 5), strict=True)
    assert dual_contains(DEFAULT_CONE, (1, 1, 0))
    assert not dual_contains(DEFAULT_CONE, (1, 1, 0), strict=True)
    # (1,1,0) vanishes exactly on the extreme ray (1,-1,0)
    assert abs(np.dot([1, 1, 0], [1, -1, 0])) == 0.0


def _raw_dual_contains(cone, p, strict: bool) -> tuple[bool, bool]:
    """(the answer of the raw float formula of dual_contains, whether its values are finite):
    p on the extreme rays against ZERO_TOL."""
    from sublorentz.conegeom import ZERO_TOL

    p = np.asarray(p, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        d = [float(np.dot(p, r)) for r in cone.rays()]
    answer = all(v > ZERO_TOL for v in d) if strict else all(v >= -ZERO_TOL for v in d)
    return answer, all(map(math.isfinite, d))


def _exact_dual_contains(cone, p, strict: bool) -> bool:
    """Dual membership on the exact rationals of p and the cone's floats, without a margin."""
    d = [sum(Fraction(float(a)) * Fraction(float(b)) for a, b in zip(p, r)) for r in cone.rays()]
    return all(v > 0 for v in d) if strict else all(v >= 0 for v in d)


DUAL_GRID_CONES = (DEFAULT_CONE, SegmentCone((1.0, 1.0, 1.0), (1.0, -1.0, 0.5), 0.5))


def test_dual_contains_keeps_every_finite_answer_and_decides_overflowing_ones():
    # a grid of covectors from tiny to the largest floats, on two segment cones; 1.7e308 and
    # the float below it leave a margin far below ZERO_TOL once scaled, which must still count
    values = (0.0, 1.0, -1.0, 3.5, -2.0, 1e-300, 1e150, -1e200, 1.7e308, math.nextafter(1.7e308, 0.0), -1.7e308,
              8.9e307)
    overflowed = 0
    for cone in DUAL_GRID_CONES:
        for p in itertools.product(values, repeat=3):
            for strict in (False, True):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = dual_contains(cone, p, strict=strict)
                old, finite = _raw_dual_contains(cone, p, strict)
                if finite:
                    assert got == old, (cone, p, strict)
                else:
                    overflowed += 1
                    assert got == _exact_dual_contains(cone, p, strict), (cone, p, strict)
    assert overflowed > 0


def test_strict_dual_positive_on_sampled_directions():
    p = np.array([1.0, 0.3, 2.0])
    assert dual_contains(DEFAULT_CONE, p, strict=True)
    vals = section_directions(DEFAULT_CONE, 10**4) @ p
    assert np.all(vals > 0)


def test_boundary_dual_minimum_vanishes_under_refinement():
    # p vanishes on the extreme ray at s = -1; approach it from grids that
    # stop short of the endpoint and watch the sampled minimum decay to zero
    p = np.array([1.0, 1.0, 0.0])
    u1, u2 = np.asarray(DEFAULT_CONE.u1), np.asarray(DEFAULT_CONE.u2)
    mins = []
    for n in (10, 100, 10000):
        s = np.linspace(-1.0 + 1.0 / n, 1.0, n)
        vals = (u1[None, :] + s[:, None] * u2[None, :]) @ p
        mins.append(float(vals.min()))
    assert mins[0] > mins[1] > mins[2] > 0.0
    assert mins[2] < 1e-3


def test_dual_members_nonnegative_on_generators():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.normal(size=3)
        if dual_contains(DEFAULT_CONE, p):
            vals = section_directions(DEFAULT_CONE, 501) @ p
            assert np.min(vals) >= -1e-12


# -- cone/subspace intersection ----------------------------------------------

def test_cone_subspace_trivial_examples():
    assert cone_subspace_trivial(DEFAULT_CONE, [(0, 0, 1)])
    assert not cone_subspace_trivial(DEFAULT_CONE, [(1, -1, 0)])
    assert contains(DEFAULT_CONE, (1, -1, 0))
    assert cone_subspace_trivial(DEFAULT_CONE, [(0, 1, 0)])
    assert cone_subspace_trivial(DEFAULT_CONE, np.zeros((0, 3)))
    assert not cone_subspace_trivial(DEFAULT_CONE, np.eye(3))


def test_cone_subspace_trivial_boundary_plane():
    # plane through the boundary ray (1,1,0): intersection is that ray
    assert not cone_subspace_trivial(DEFAULT_CONE, [(1, 1, 0), (0, 0, 1)])


# -- annihilator witnesses -----------------------------------------------------

def test_witness_for_central_derived_line():
    w = find_interior_dual_in_annihilator(DEFAULT_CONE, [(0, 0, 1)])
    assert w is not None
    assert isinstance(w, tuple) and len(w) == 3 and all(type(t) is float for t in w)
    assert dual_contains(DEFAULT_CONE, w, strict=True)
    assert abs(np.dot(w, (0, 0, 1))) <= 1e-12
    # the axis covector is one admissible witness
    assert dual_contains(DEFAULT_CONE, (1, 0, 0), strict=True)


def test_witness_absent_when_annihilator_is_the_spacelike_axis():
    # derived subalgebra spanning the first and third axes forces any
    # annihilating covector onto the second axis, which misses the open dual
    assert not dual_contains(DEFAULT_CONE, (0, 1, 0), strict=True)
    assert not dual_contains(DEFAULT_CONE, (0, -1, 0), strict=True)
    assert find_interior_dual_in_annihilator(DEFAULT_CONE, [(1, 0, 0), (0, 0, 1)]) is None
    # whereas annihilating the plane of the last two axes leaves the timelike
    # axis covector available (the cone misses that plane)
    assert cone_subspace_trivial(DEFAULT_CONE, [(0, 1, 0), (0, 0, 1)])
    w = find_interior_dual_in_annihilator(DEFAULT_CONE, [(0, 1, 0), (0, 0, 1)])
    assert w is not None and dual_contains(DEFAULT_CONE, w, strict=True)


def test_witness_for_trivial_subspace():
    w = find_interior_dual_in_annihilator(DEFAULT_CONE, np.zeros((0, 3)))
    assert w is not None and dual_contains(DEFAULT_CONE, w, strict=True)


def test_witness_none_on_boundary_tangent_plane():
    # excluded from the randomized sweep; pinned here explicitly
    assert find_interior_dual_in_annihilator(DEFAULT_CONE, [(1, 1, 0), (0, 0, 1)]) is None
    assert find_interior_dual_in_annihilator(DEFAULT_CONE, [(1, -1, 0)]) is None


def _random_instance(rng):
    while True:
        u1 = rng.normal(size=3)
        u1 /= np.linalg.norm(u1)
        u2 = rng.normal(size=3)
        u2 /= np.linalg.norm(u2)
        if abs(np.dot(u1, u2)) > 0.95:
            continue
        h = rng.uniform(0.2, 2.0)
        cone = SegmentCone(tuple(u1), tuple(u2), h)
        k = 2 if rng.random() < 0.7 else 1
        U = rng.normal(size=(k, 3))
        sv = np.linalg.svd(U, compute_uv=False)
        if sv[-1] < 1e-3 * sv[0]:
            continue
        n = np.cross(u1, u2)
        n /= np.linalg.norm(n)
        dots = U @ n
        if k == 1:
            if abs(dots[0]) / np.linalg.norm(U[0]) < 1e-8:
                continue
            return cone, U
        # in-plane line of the 2-plane; exclude near-tangency to the cone boundary
        _, _, vt = np.linalg.svd(dots.reshape(1, -1), full_matrices=True)
        d = vt[1] @ U
        if np.linalg.norm(d) < 1e-8:
            continue
        Minv = np.linalg.inv(np.column_stack([u1, u2, n]))
        a, b, _ = Minv @ d
        scale = max(1.0, np.linalg.norm(d))
        if abs(h * abs(a) - abs(b)) < 1e-8 * scale:
            continue
        return cone, U


def test_primal_dual_equivalence_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        cone, U = _random_instance(rng)
        primal = cone_subspace_trivial(cone, U)
        witness = find_interior_dual_in_annihilator(cone, U)
        assert primal == (witness is not None)
        if witness is not None:
            assert dual_contains(cone, witness, strict=True)
            assert float(np.max(np.abs(U @ np.asarray(witness)))) <= 1e-10


_coord = st.floats(-1.0, 1.0, allow_nan=False)
_row = st.tuples(_coord, _coord, _coord)
_WITNESS_CONES = (
    DEFAULT_CONE,
    SegmentCone((1.0, 0.2, -0.3), (0.1, 1.0, 0.4), 0.6),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cone=st.sampled_from(_WITNESS_CONES), rows=st.lists(_row, min_size=1, max_size=2),
       mix=st.tuples(_row, _row))
def test_witness_depends_on_the_subspace_not_its_basis(cone, rows, mix):
    # U and M U span the same subspace for an invertible M, so the witness is
    # the same covector (or absent for both)
    U = np.array(rows)
    k = U.shape[0]
    M = np.array(mix)[:k, :k]
    for A in (U, M):
        s = np.linalg.svd(A, compute_uv=False)
        assume(s[-1] > 0.05 * s[0] and s[0] > 0.1)
    w1 = find_interior_dual_in_annihilator(cone, U)
    w2 = find_interior_dual_in_annihilator(cone, M @ U)
    assert (w1 is None) == (w2 is None)
    if w1 is not None:
        assert np.max(np.abs(np.subtract(w1, w2))) <= 1e-12


def test_projection_of_generators_stays_acute():
    rng = np.random.default_rng(7)
    for _ in range(50):
        cone, U = _random_instance(rng)
        if not cone_subspace_trivial(cone, U):
            continue
        Uo = U / np.linalg.norm(U, axis=1, keepdims=True)
        q, _ = np.linalg.qr(Uo.T, mode="complete")
        basis = q[:, :U.shape[0]]
        proj = np.eye(3) - basis @ basis.T
        dirs = section_directions(cone, 200) @ proj.T
        norms = np.linalg.norm(dirs, axis=1)
        assert np.all(norms > 1e-9)
        unit = dirs / norms[:, None]
        gram = unit @ unit.T
        assert float(np.min(gram)) > -1.0 + 1e-9


# -- huge and tiny inputs -------------------------------------------------------

def _cone_answers(cone, p, rows) -> tuple:
    """Every cone question on one covector and one subspace, with numpy warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return (dual_contains(cone, p), dual_contains(cone, p, strict=True),
                cone_subspace_trivial(cone, rows), find_interior_dual_in_annihilator(cone, rows))


@pytest.mark.parametrize("cone", [DEFAULT_CONE, SegmentCone((1.0, 0.0, 0.0), (0.0, 1.0, 1.0), 0.5)])
@pytest.mark.parametrize("long,short", [([1e300, 1, 0], [1, 0, 0]), ([0, 1e300, 0], [0, 1, 0]),
                                        ([1e300, 0, 1e300], [1, 0, 1])])
def test_a_long_subspace_row_answers_as_its_direction(cone, long, short):
    assert _cone_answers(cone, (1, 0, 0), [long]) == _cone_answers(cone, (1, 0, 0), [short])


@pytest.mark.parametrize("h", [0.0, 1.0])
@pytest.mark.parametrize("long,short", [((1e300, 1e300, 0), (1, 1, 0)), ((2e300, 1e300, 0), (2, 1, 0)),
                                        ((1e300, 0, -1e300), (1, 0, -1)), ((0, 1e300, 0), (0, 1, 0))])
def test_a_long_vector_or_covector_answers_as_its_direction(h, long, short):
    # membership is decided on the vector's unit vector, and dual membership on the
    # covector scaled by a power of two
    cone = SegmentCone((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), h)

    def answers(v):
        return [contains(cone, v)] + [dual_contains(cone, v, strict) for strict in (False, True)]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert answers(long) == answers(short)


@pytest.mark.parametrize("scale", [1e300, 1.5e308, 1e-300])
def test_a_segment_cone_of_huge_or_tiny_generators_builds_with_the_unit_normal(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cone = SegmentCone((scale, 0, 0), (0, scale, 0))
        tilted = SegmentCone((scale, 0, 0), (0, scale, scale))
    assert cone._normal == (0.0, 0.0, 1.0)
    assert np.max(np.abs(np.subtract(tilted._normal, SegmentCone((1, 0, 0), (0, 1, 1))._normal))) <= 2e-16


@pytest.mark.parametrize("rows", [[], [[0, 0, 1]], [[1, -1, 0]], [[0, 0, 1], [1, 2, 0]]])
def test_a_segment_cone_of_generators_1e300_answers_as_the_unit_one(rows):
    cone = SegmentCone((1e300, 0, 0), (0, 1e300, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in ((1, 0, 0), (0, 1, 0), (1, -0.5, 0.3), (1, 2, 0)):
            assert [dual_contains(cone, p, strict) for strict in (False, True)] == \
                [dual_contains(DEFAULT_CONE, p, strict) for strict in (False, True)]
        assert find_interior_dual_in_annihilator(cone, rows) == find_interior_dual_in_annihilator(DEFAULT_CONE, rows)


def test_a_segment_cone_of_generators_1e300_meets_a_subspace_as_the_unit_one():
    # membership is decided on unit vectors, so the line through X2 misses the cone at every scale
    cone = SegmentCone((1e300, 0, 0), (0, 1e300, 0))
    assert cone_subspace_trivial(cone, [[0, 1, 0]]) and cone_subspace_trivial(DEFAULT_CONE, [[0, 1, 0]])
    assert not contains(cone, (0, 1, 0)) and contains(cone, (1, 1, 0))


def test_a_subspace_row_of_any_length_is_a_line():
    # independence is decided on unit rows, so a short row is a line, not a dependent basis
    for rows in ([[0, 0, 1e-200]], [[0, 0, 5e-324]], [[1e-200, 0, 0], [0, 0, 1e200]]):
        long = [[math.copysign(1.0, x) if x else 0.0 for x in row] for row in rows]
        assert cone_subspace_trivial(DEFAULT_CONE, rows) == cone_subspace_trivial(DEFAULT_CONE, long)
        assert find_interior_dual_in_annihilator(DEFAULT_CONE, rows) == \
            find_interior_dual_in_annihilator(DEFAULT_CONE, long)
    assert find_interior_dual_in_annihilator(DEFAULT_CONE, [[0, 0, 1e-200]]) == (1.0, 0.0, 0.0)
    for rows in ([[0, 0, 0]], [[1, 0, 0], [1e-200, 0, 0]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]):
        with pytest.raises(ValueError, match="subspace basis vectors are linearly dependent"):
            cone_subspace_trivial(DEFAULT_CONE, rows)
    with pytest.raises(ValueError, match="at most three basis vectors in 3-space"):
        cone_subspace_trivial(DEFAULT_CONE, np.eye(4)[:, :3])


def _answer(f, *args):
    """What f answers, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def _normal(x: float) -> bool:
    return 2.2250738585072014e-308 <= abs(x) < math.inf


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cone=st.sampled_from(_WITNESS_CONES + (SegmentCone((1.0, 0.5, 0.0), (0.0, 1.0, 0.3), 0.0),)),
       v=_row, rows=st.lists(_row, min_size=1, max_size=2),
       exps=st.tuples(*[st.integers(-1000, 1000)] * 4))
def test_cone_answers_do_not_change_when_inputs_are_scaled_by_powers_of_two(cone, v, rows, exps):
    # v, each subspace row and both generators are scaled by their own power of two, which
    # keeps every nonzero component, and each of the scaled rays u1 +- h u2, normal
    ev, eg, *er = exps
    scale = lambda x, e: tuple(math.ldexp(t, e) for t in x)
    h, u1, u2 = cone.half_width, scale(cone.u1, eg), scale(cone.u2, eg)
    rays = [a + s * h * b for a, b in zip(u1, u2) for s in (1.0, -1.0)] + [h * b for b in u2]
    vectors = [(v, ev), *zip(rows, er), (u1 + u2 + tuple(rays), 0)]
    assume(all(_normal(t) and _normal(math.ldexp(t, e)) for x, e in vectors for t in x if t))
    scaled_v, scaled_rows = scale(v, ev), [scale(r, e) for r, e in zip(rows, er)]
    big = SegmentCone(u1, u2, h)
    assert contains(big, scaled_v) == contains(cone, v)
    for f in (cone_subspace_trivial, find_interior_dual_in_annihilator):
        assert _answer(f, big, scaled_rows) == _answer(f, cone, rows)


_ordinary = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


def _within_ulps(got: float, exact: Fraction, ulps: int) -> bool:
    """|got - exact| <= ulps units in the last place of got, decided on rationals."""
    return abs(Fraction(got) - exact) <= ulps * Fraction(math.ulp(got))


def _unit_to_within_ulps(v, ulps: int) -> bool:
    """The exact length of the float vector v is within ulps units in the last place of 1."""
    squares = sum(Fraction(x) ** 2 for x in v)
    lo, hi = (1 - ulps * Fraction(math.ulp(1.0))) ** 2, (1 + ulps * Fraction(math.ulp(1.0))) ** 2
    return lo <= squares <= hi


@settings(max_examples=300, deadline=None, derandomize=True)
@given(u1=st.tuples(_ordinary, _ordinary, _ordinary), u2=st.tuples(_ordinary, _ordinary, _ordinary))
def test_a_segment_cone_normal_is_the_unit_cross_product_to_within_two_ulps(u1, u2):
    # the cross product's floats are numpy's, and its length in 60 decimal digits stands in for the exact one
    n = np.cross(u1, u2)
    if np.linalg.norm(n) <= 1e-12 * np.linalg.norm(u1) * np.linalg.norm(u2):
        with pytest.raises(ValueError, match="linearly independent"):
            SegmentCone(u1, u2)
    else:
        normal = SegmentCone(u1, u2)._normal
        assert all(type(x) is float for x in normal)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            length = sum(Decimal(x) ** 2 for x in n.tolist()).sqrt()
            exact = [Fraction(Decimal(x) / length) for x in n.tolist()]
        assert all(_within_ulps(x, e, 2) for x, e in zip(normal, exact)), (normal, exact)
        assert _unit_to_within_ulps(normal, 2)

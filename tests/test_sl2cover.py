import cmath
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from sublorentz.sl2cover import (
    ALGEBRA,
    IDENTITY,
    CoverElement,
    TangentVector,
    growth_bound_constants,
    growth_ratio,
    inverse,
    multiply,
    power,
    project,
    push_forward,
    time_form,
)


def random_element(rng, c_max=5.0, w_max=5.0) -> CoverElement:
    return CoverElement(rng.uniform(-c_max, c_max),
                        complex(rng.uniform(-w_max, w_max), rng.uniform(-w_max, w_max)))


# -- projection ----------------------------------------------------------------

def test_project_examples():
    assert np.allclose(project(IDENTITY), np.eye(2))
    c = 0.8
    assert np.allclose(project(CoverElement(c, 0)), np.diag([cmath.exp(1j * c), cmath.exp(-1j * c)]))
    m = project(CoverElement(0.0, 1.0))
    assert np.allclose(m, [[math.sqrt(2), 1.0], [1.0, math.sqrt(2)]])


def test_project_unit_determinant_and_deck_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        g = random_element(rng)
        m = project(g)
        assert abs(np.linalg.det(m) - 1.0) <= 1e-12
        shifted = project(CoverElement(g.c + 2 * math.pi, g.w))
        assert np.max(np.abs(shifted - m)) <= 1e-12 * max(1.0, np.max(np.abs(m)))


def test_project_where_the_square_of_w_overflows():
    # sqrt(1 + |w|^2) rounds to |w| there, and the matrix is still in float range
    m = project(CoverElement(0.0, 1e200))
    assert m.tolist() == [[1e200, 1e200], [1e200, 1e200]]


# -- group law -------------------------------------------------------------------

def reference_multiply(g1, g2):
    """The product with r_i = sqrt(1 + |w_i|^2) taken on the squares, valid where they are finite."""
    s = g1.c + g2.c
    z = g1.w * g2.w.conjugate() * cmath.exp(-1j * s)
    n1, n2 = abs(g1.w) ** 2, abs(g2.w) ** 2
    r1, r2 = math.sqrt(1.0 + n1), math.sqrt(1.0 + n2)
    den = r1 * r2 + z.real if z.real >= 0.0 else (1.0 + n1 + n2 + z.imag ** 2) / (r1 * r2 - z.real)
    if not 0.0 < den < math.inf:
        raise ArithmeticError
    return (s + math.atan2(z.imag, den),
            g2.w * r1 * cmath.exp(1j * g1.c) + g1.w * r2 * cmath.exp(-1j * g2.c))


def decimal_angle(g1, g2):
    """s + atan2(Im z, den) with the denominator taken in 60-digit decimals on the same floats,
    or None where z or that denominator is out of float range."""
    s = g1.c + g2.c
    z = g1.w * g2.w.conjugate() * cmath.exp(-1j * s)
    if not cmath.isfinite(z):
        return None
    with localcontext() as ctx:
        ctx.prec = 60
        n1, n2 = Decimal(abs(g1.w)) ** 2, Decimal(abs(g2.w)) ** 2
        r1r2 = ((1 + n1) * (1 + n2)).sqrt()
        zr, zi = Decimal(z.real), Decimal(z.imag)
        den = float(r1r2 + zr if zr >= 0 else (1 + n1 + n2 + zi ** 2) / (r1r2 - zr))
    return s + math.atan2(z.imag, den) if 0.0 < den < math.inf else None


def assert_angle_matches_decimal(g1, g2):
    want = decimal_angle(g1, g2)
    if want is None:
        with pytest.raises(ArithmeticError):
            multiply(g1, g2)
    else:
        got = multiply(g1, g2).c
        assert abs(got - want) <= 4e-16 * (abs(g1.c + g2.c) + math.pi), (g1, g2, got, want)


def test_multiply_and_project_keep_their_floats_where_the_square_of_w_is_finite():
    rng = np.random.default_rng(29)
    for _ in range(2000):
        g1, g2 = (CoverElement(rng.uniform(-10.0, 10.0),
                               complex(*(rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-300, 154, 2))))
                  for _ in range(2))
        try:
            want = reference_multiply(g1, g2)
        except ArithmeticError:  # a square overflows here; the product scales its quotient instead
            assert_angle_matches_decimal(g1, g2)
            continue
        got = multiply(g1, g2)
        assert (got.c, got.w) == want
        z = cmath.exp(1j * g1.c) * math.sqrt(1.0 + abs(g1.w) ** 2)
        assert project(g1).tolist() == [[z, g1.w], [g1.w.conjugate(), z.conjugate()]]


@pytest.mark.parametrize("g1, g2, w", [
    # |w1|^2 overflows in the quotient; w is 1.4e154 (sqrt(2) - 1)
    (CoverElement(0.0, 1.4e154), CoverElement(0.0, -1.0), 5.7989898732233315e153),
    (CoverElement(0.3, 1e200), CoverElement(-0.2, -1e-150), None),
    # every square is finite, and their sum overflows
    (CoverElement(0.0, 1.3e154), CoverElement(0.0, complex(-0.7, 0.7)), None),
    # (Im z)^2 overflows
    (CoverElement(1.0, complex(3e100, -1e154)), CoverElement(-2.0, complex(-1e60, 5e60)), None),
], ids=["w1 squared", "w1 squared, small w2", "sum of squares", "Im z squared"])
def test_a_quotient_whose_squares_overflow_is_taken_on_scaled_values(g1, g2, w):
    assert decimal_angle(g1, g2) is not None
    assert_angle_matches_decimal(g1, g2)
    assert cmath.isfinite(multiply(g1, g2).w)
    if w is not None:
        assert abs(multiply(g1, g2).w - w) <= 1e-12 * w


@pytest.mark.parametrize("w", [1.4e154, complex(-3e200, 4e200), 1e308])
def test_a_product_with_the_identity_where_the_square_of_w_overflows(w):
    g = CoverElement(0.5, w)
    assert multiply(g, IDENTITY) == g
    assert multiply(IDENTITY, g) == g


def test_identity_and_rotation_accumulation():
    g = CoverElement(1.3, complex(0.4, -2.0))
    prod = multiply(g, IDENTITY)
    assert prod.c == g.c and prod.w == g.w
    third = CoverElement(math.pi / 3, 0)
    double = multiply(third, third)
    assert np.isclose(double.c, 2 * math.pi / 3) and double.w == 0
    # six steps pass far beyond pi: the cover does not wrap
    acc = IDENTITY
    for _ in range(6):
        acc = multiply(acc, third)
    assert np.isclose(acc.c, 2 * math.pi)


def test_multiply_against_continuity_matched_lift():
    rng = np.random.default_rng(7)
    for _ in range(200):
        g1, g2 = random_element(rng, 3, 3), random_element(rng, 3, 3)
        prod = multiply(g1, g2)
        m = project(g1) @ project(g2)
        w = m[0, 1]
        phase = cmath.phase(m[0, 0])
        base = g1.c + g2.c
        lifted_c = base + math.remainder(phase - base, 2 * math.pi)
        assert abs(prod.c - lifted_c) <= 1e-9
        assert abs(prod.w - w) <= 1e-9


def test_inverse_laws():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = random_element(rng)
        inv = inverse(g)
        assert inv.c == -g.c and inv.w == -g.w
        prod = multiply(g, inv)
        assert abs(prod.c) <= 1e-12 and abs(prod.w) <= 1e-12
        assert np.max(np.abs(project(inv) - np.linalg.inv(project(g)))) <= 1e-12 * (1 + abs(g.w) ** 2)


def test_an_element_times_its_inverse_is_the_identity_at_large_w():
    # r1 r2 + Re z cancels to nothing in floats once |w| passes about 1e8
    rng = np.random.default_rng(17)
    for e in range(8, 151):
        g = CoverElement(float(rng.uniform(-5, 5)), 10.0 ** e * cmath.exp(1j * float(rng.uniform(-4, 4))))
        for prod in (multiply(g, inverse(g)), multiply(inverse(g), g)):
            assert prod == IDENTITY, (e, prod)
    with pytest.raises(ArithmeticError):
        multiply(CoverElement(0.0, 1e200), CoverElement(0.0, -1e200))


def test_associativity_and_homomorphism_samples():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g1, g2, g3 = (random_element(rng) for _ in range(3))
        a = multiply(multiply(g1, g2), g3)
        b = multiply(g1, multiply(g2, g3))
        assert abs(a.c - b.c) <= 1e-9 and abs(a.w - b.w) <= 1e-9
        m = project(multiply(g1, g2)) - project(g1) @ project(g2)
        assert np.max(np.abs(m)) <= 1e-9


def test_a_power_that_is_not_finite_is_an_overflow_error():
    # as a product's overflow is: the search scores an OverflowError as an infinite error
    for g in (CoverElement(math.inf, 0j), CoverElement(math.nan, 0j), CoverElement(0.0, complex(math.inf, 0.0)),
              CoverElement(0.0, complex(math.nan, 0.0)), CoverElement(0.5, 1e300 + 0j)):
        with pytest.raises(OverflowError):
            power(g, 2)


# -- push-forward -----------------------------------------------------------------

def test_push_forward_examples():
    v = TangentVector(1.2, complex(0.3, -0.4))
    out = TangentVector(*push_forward(IDENTITY, v))
    assert out.xi == v.xi and out.zeta == v.zeta

    c = 0.9
    rotated = TangentVector(*push_forward(CoverElement(c, 0), TangentVector(1.0, 1.0)))
    assert np.isclose(rotated.xi, 1.0)
    assert abs(rotated.zeta - cmath.exp(1j * c)) <= 1e-15

    w = complex(2.0, 1.0)
    out2 = TangentVector(*push_forward(CoverElement(0.0, w), TangentVector(1.0, 0.0)))
    assert np.isclose(out2.xi, 1.0)
    assert abs(out2.zeta - (-1j * w)) <= 1e-15


def test_push_forward_matches_central_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(100):
        base = random_element(rng, 3, 3)
        xi = rng.uniform(-2, 2)
        zeta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        plus = multiply(base, CoverElement(h * xi, h * zeta))
        minus = multiply(base, CoverElement(-h * xi, -h * zeta))
        fd_xi = (plus.c - minus.c) / (2 * h)
        fd_zeta = (plus.w - minus.w) / (2 * h)
        out = TangentVector(*push_forward(base, TangentVector(xi, zeta)))
        scale = max(1.0, abs(out.xi), abs(out.zeta))
        assert abs(fd_xi - out.xi) / scale <= 1e-6
        assert abs(fd_zeta - out.zeta) / scale <= 1e-6


def test_push_forward_linear_in_vector():
    base = CoverElement(0.7, complex(1.0, -0.5))
    v1 = TangentVector(0.4, complex(0.2, 0.9))
    v2 = TangentVector(-1.1, complex(0.5, 0.1))
    lhs = TangentVector(*push_forward(base, TangentVector(v1.xi + 2 * v2.xi, v1.zeta + 2 * v2.zeta)))
    a = TangentVector(*push_forward(base, v1))
    b = TangentVector(*push_forward(base, v2))
    assert abs(lhs.xi - (a.xi + 2 * b.xi)) <= 1e-12
    assert abs(lhs.zeta - (a.zeta + 2 * b.zeta)) <= 1e-12


def _two_exponential_push_forward(base, v):
    """The push-forward with exp(-ic) and exp(ic) each taken by its own ``cmath.exp``."""
    (c, w), (xi, zeta) = base, v
    r = math.sqrt(1.0 + abs(w) ** 2)
    return (xi + (w * zeta.conjugate() * cmath.exp(-1j * c)).imag / r,
            zeta * r * cmath.exp(1j * c) - 1j * w * xi)


def _reals(bound):
    return hs.one_of(hs.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]), hs.floats(-bound, bound))


def _complexes(bound):
    return hs.builds(complex, _reals(bound), _reals(bound))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(hs.one_of(hs.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e15, -1e15, 1e300]), _reals(1e300)),
       _complexes(1e50), _reals(1e50), _complexes(1e50))
@example(-0.0, complex(1.0, -1.0), -0.0, 0j)  # the conjugate of exp(ic) alone gives xi = -0.0 here
def test_push_forward_matches_the_two_exponential_formula_bit_for_bit(c, w, xi, zeta):
    def bits(pair):
        a, z = pair
        return a.hex(), z.real.hex(), z.imag.hex()

    got = push_forward(CoverElement(c, w), TangentVector(xi, zeta))
    assert type(got) is tuple
    assert bits(got) == bits(_two_exponential_push_forward((c, w), (xi, zeta)))


# -- the angle form and its growth bound --------------------------------------------

def test_time_form_values():
    assert time_form(IDENTITY, TangentVector(1.0, complex(0.3, 9.0))) == 1.0
    pushed = push_forward(CoverElement(0.0, 3.0), TangentVector(1.0, 0.0))
    assert np.isclose(time_form(CoverElement(0.0, 3.0), pushed), 1.0)


def test_time_form_positive_on_pushed_cone():
    rng = np.random.default_rng(17)
    eta = 0.5
    for _ in range(300):
        base = random_element(rng)
        zeta = complex(rng.normal(), rng.normal())
        xi = math.sqrt(eta + 1.0) * abs(zeta) * (1.0 + abs(rng.normal()))
        pushed = push_forward(base, TangentVector(xi, zeta))
        assert time_form(base, pushed) > 0.0


def test_growth_ratio_basics():
    A, B = growth_bound_constants(1.0)
    assert np.isclose(A, (1 / math.sqrt(2) + 1 + 1 / math.sqrt(2)) / (1 - 1 / math.sqrt(2)))
    assert growth_ratio(IDENTITY, TangentVector(1.0, 0.0), 1.0) == 1.0 <= A


def test_growth_ratio_bound_sweep():
    rng = np.random.default_rng(23)
    eta = 1.0
    A, B = growth_bound_constants(eta)
    for _ in range(300):
        base = random_element(rng)
        zeta = complex(rng.normal(), rng.normal())
        xi = math.sqrt(eta + 1.0) * abs(zeta) * (1.0 + abs(rng.normal()))
        ratio = growth_ratio(base, TangentVector(xi, zeta), eta)
        assert ratio <= A + B * abs(base.w)


def test_growth_ratio_linear_along_boundary_ray():
    eta = 1.0
    A, B = growth_bound_constants(eta)
    u = TangentVector(1.0, 1.0 / math.sqrt(eta + 1.0))  # growth_ratio refuses a vector outside the cone
    for wmag in (10.0, 100.0, 1000.0):
        base = CoverElement(0.4, complex(wmag, 0.0))
        assert growth_ratio(base, u, eta) <= A + B * wmag


def test_growth_ratio_rejections():
    with pytest.raises(ValueError, match="outside"):
        growth_ratio(IDENTITY, TangentVector(1.0, 2.0), 1.0)
    with pytest.raises(ValueError, match="eta > 0"):
        growth_ratio(IDENTITY, TangentVector(1.0, 0.0), 0.0)
    with pytest.raises(ValueError, match="nonzero"):
        growth_ratio(IDENTITY, TangentVector(0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="nonzero"):
        growth_ratio(IDENTITY, TangentVector(-0.0, complex(0.0, -0.0)), 1.0)
    # inside the cone only within ZERO_TOL, with a pushed angle component that is not positive
    for u in (TangentVector(0.0, 1e-13j), TangentVector(0.0, 1e-13 + 0j), TangentVector(-1e-13, 0j)):
        with pytest.raises(ValueError, match="no positive angle component"):
            growth_ratio(IDENTITY, u, 1.0)


def _outside_the_solid_cone(xi: float, zeta: complex, eta: float) -> bool:
    """The reference test that u = (xi, zeta) is refused by the closed solid cone
    {xi >= sqrt(eta+1) |zeta|} of axis (1, 0, 0): a parameter eta that is not finite and > 0 or a
    vector that is not finite is refused; otherwise the axial part (a dot product with the axis
    summed from 0.0) is compared with the aperture times the length of the transverse part, less
    ZERO_TOL."""
    v = (xi, zeta.real, zeta.imag)
    if not eta > 0.0 or not math.isfinite(eta) or not all(map(math.isfinite, v)):
        return True
    axial = 0.0
    for x, a in zip(v, (1.0, 0.0, 0.0)):
        axial += x * a
    transverse = math.hypot(*(x - axial * a for x, a in zip(v, (1.0, 0.0, 0.0))))
    return not axial >= math.sqrt(eta + 1.0) * transverse - 1e-12


def test_growth_ratio_refuses_exactly_the_vectors_outside_its_solid_cone():
    # a boundary grid: signed zeros, values at the tolerance and on the cone's boundary, the
    # ends of float range and non-finite inputs
    root2 = math.sqrt(2.0)
    xis = [0.0, -0.0, 1e-12, -1e-12, 2e-12, 1.0, -1.0, root2, math.nextafter(root2, 0.0), 1e300, 1.7e308,
           math.inf, -math.inf, math.nan]
    parts = [0.0, -0.0, 1e-12, -1e-12, 1.0, -1.0, 1.0 / root2, 1e300, 1.7e308, math.inf, math.nan]
    etas = [-1.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 3.0, 1e300, 1.7976931348623157e308, math.inf, math.nan]
    seen = set()
    for xi in xis:
        for re in parts:
            for im in parts:
                for eta in etas:
                    u = TangentVector(xi, complex(re, im))
                    try:
                        growth_ratio(IDENTITY, u, eta)
                        refused = False
                    except ValueError as exc:
                        # past the cone test: the zero vector and a pushed angle form that is not positive
                        refused = not ("nonzero" in str(exc) or "no positive angle component" in str(exc))
                    assert refused == _outside_the_solid_cone(xi, complex(re, im), eta), (u, eta)
                    seen.add(refused)
    assert seen == {False, True}


@pytest.mark.parametrize("tiny", [1e-170, 5e-324])
def test_growth_ratio_of_a_tiny_nonzero_vector(tiny):
    # |u|^2 underflows to 0; at the identity the push-forward is u, whose ratio is 1
    assert growth_ratio(IDENTITY, TangentVector(tiny, 0j), 1.0) == 1.0


def test_algebra_bracket_is_antisymmetric_and_jacobi():
    rng = np.random.default_rng(2)
    a, b, c = rng.normal(size=(3, 3))
    bracket = lambda v, w: np.asarray(ALGEBRA.bracket(v, w))
    assert np.max(np.abs(bracket(a, b) + bracket(b, a))) <= 1e-12
    j1 = bracket(bracket(a, b), c)
    j2 = bracket(bracket(b, c), a)
    j3 = bracket(bracket(c, a), b)
    assert np.max(np.abs(j1 + j2 + j3)) <= 1e-10


def _exp(v):
    """exp(v) up to O(|v|^2): cover coordinates are exponential coordinates to first order."""
    return CoverElement(v[0], complex(v[1], v[2]))


def test_algebra_matches_the_group_commutator():
    # g h g^-1 h^-1 = exp(t^2 [X, Y] + O(t^3)) for g = exp(tX), h = exp(tY)
    rng = np.random.default_rng(31)
    t = 1e-5
    for _ in range(20):
        x, y = rng.normal(size=(2, 3))
        g, h = _exp(t * x), _exp(t * y)
        comm = multiply(multiply(g, h), multiply(inverse(g), inverse(h)))
        got = np.array([comm.c, comm.w.real, comm.w.imag]) / t**2
        assert np.allclose(got, ALGEBRA.bracket(x, y), rtol=0.0, atol=1e-3)

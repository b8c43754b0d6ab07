import cmath
import decimal
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from sublorentz.conegeom import DEFAULT_CONE, SegmentCone, contains
from sublorentz.existence import check_case
from sublorentz.liealg3 import CASE_IDS, SL2_CASES, LieAlgebra3, SubLorentzCase, from_case, killing_axes
from sublorentz.oracle import sample_case
from sublorentz import longarc, sl2cover
from sublorentz.longarc import (
    ENDPOINT_TOL,
    LORENTZIAN,
    MAX_STEPS,
    AntiNorm,
    CaseStructure,
    ControlCurve,
    CoverModel,
    QuaternionModel,
    SemidirectModel,
    build_structure,
    distance_upper_bound,
    integrate,
    length,
    maximize,
    sl2_cover_frame,
    _CONFLUENT_W2,
    _exp_flow,
    _B_MAX,
    _R_MIN,
    _Search,
    _distance,
    _power,
    _advance,
    su2_unbounded_witness,
    target_from_exp2,
)
from sublorentz.sl2cover import CoverElement, TangentVector, push_forward

HEIS = SubLorentzCase("1", kappa=0.0)
SU2 = SubLorentzCase("9", kappa=0.0, chi=-1.0)
SL2 = SubLorentzCase("10", kappa=-2.0, chi=-1.0)


def constant_curve(structure, u, n=16, total=1.0) -> ControlCurve:
    return ControlCurve(total / n, np.tile(np.asarray(u, dtype=float), (n, 1)), structure)


# -- closed-form 2x2 exponential ---------------------------------------------------

def reference_exp_flow(A, h):
    """(expm(h A), integral_0^h expm(s A) ds) by Taylor series with argument halving."""
    A = np.array(A, dtype=float).reshape(2, 2)
    norm = abs(h) * float(np.abs(A).sum())
    halvings = int(math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    hs_ = h / 2 ** halvings
    X = hs_ * A
    E, S, P = np.eye(2), hs_ * np.eye(2), np.eye(2)
    for k in range(1, 30):
        P = P @ X / k
        E = E + P
        S = S + hs_ * P / (k + 1)
    for _ in range(halvings):
        S = S + E @ S
        E = E @ E
    return E, S


_coef = hs.floats(-2.0, 2.0)
_off = hs.builds(lambda sign, mag: sign * mag, hs.sampled_from([-1.0, 1.0]), hs.floats(0.5, 2.0))
_time = hs.builds(lambda sign, mag: sign * mag, hs.sampled_from([-1.0, 1.0]), hs.floats(0.01, 2.0))


@hs.composite
def flow_inputs(draw):
    """(branch, A, h) with A = m I + N, N = [[d, b], [c, -d]], N^2 = sigma^2 I."""
    branch = draw(hs.sampled_from(
        ["nilpotent", "scalar", "real", "rotation", "jordan", "near-confluent"]))
    m, d, b, h = draw(_coef), draw(_coef), draw(_off), draw(_time)
    if branch == "nilpotent":
        return branch, (0.0, b, 0.0, 0.0), h
    if branch == "scalar":
        return branch, (m, 0.0, 0.0, m), h
    if branch == "jordan":
        return branch, (m, b, 0.0, m), h
    if branch == "near-confluent":
        # |sigma h| from 1e-9 to 1e-2, on both sides of sigma^2 = 0
        w = 10.0 ** draw(hs.floats(-9.0, -2.0))
        sigma2 = draw(hs.sampled_from([-1.0, 1.0])) * (w / h) ** 2
    else:
        sigma = draw(hs.floats(0.1, 2.0))
        sigma2 = sigma * sigma if branch == "real" else -sigma * sigma
    c = (sigma2 - d * d) / b
    return branch, (m + d, b, c, m - d), h


@settings(max_examples=400, deadline=None)
@given(flow_inputs())
def test_closed_form_exponential_matches_series(inputs):
    _, A, h = inputs
    E, S = _exp_flow(A, h)
    E_ref, S_ref = reference_exp_flow(A, h)
    for got, want in ((E, E_ref), (S, S_ref)):
        got = np.array(got).reshape(2, 2)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


ROUND_TRIP_CASES = (
    HEIS,
    SubLorentzCase("3", tau=2.0, variant=1),
    SubLorentzCase("3", tau=2.0, variant=2),
    SubLorentzCase("12", kappa=-1.0, chi=-1.0),
    SubLorentzCase("12", kappa=1.0, chi=-1.0),
    SubLorentzCase("13", kappa=5.6, chi=-0.8),
)
_algebra_vector = hs.lists(hs.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array)


@pytest.mark.parametrize("cid", ["4", "7"])
@pytest.mark.parametrize("tau", [-1e30, -1e4, 1e4, 1e300])
def test_the_semidirect_invariants_are_relative_to_the_brackets(cid, tau):
    # the bracket images scale with tau; the model still splits off the abelian ideal
    alg = from_case(SubLorentzCase(cid, tau=tau))
    model = SemidirectModel(alg)
    assert all(map(math.isfinite, model._act))


@pytest.mark.parametrize("cid,variant", [("4", 1), ("4", 2), ("7", 1), ("7", 2)])
def test_rows_4_and_7_split_off_an_exact_abelian_ideal_at_every_tau(cid, variant):
    # the ideal is read off the layout table, so its bracket residual stays at rounding
    # relative to the largest bracket image at every decade of tau
    for tau in (sign * 10.0 ** e for e in range(301) for sign in (1.0, -1.0)):
        if cid == "4" and abs(tau) <= 2.0:
            continue
        alg = from_case(SubLorentzCase(cid, tau=tau, variant=variant))
        model = SemidirectModel(alg)
        assert all(map(math.isfinite, model._act))
        w, i0, i1 = (model.unsplit(a, (b, c)) for a, b, c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        images = [np.asarray(alg.bracket(w, i0)), np.asarray(alg.bracket(w, i1))]
        scale = max(float(np.max(np.abs(v))) for v in images)
        residual = max(float(np.max(np.abs(alg.bracket(i0, i1)))), *(abs(float(w @ v)) for v in images))
        assert residual <= 4 * np.finfo(float).eps * scale, (tau, residual, scale)


@pytest.mark.parametrize("alg", [LieAlgebra3((0, 0, 0), (0, 0, 0), (0, 0, 0), label="abelian"),
                                 from_case(SubLorentzCase("10", kappa=-2.0, chi=-1.0)),
                                 from_case(SubLorentzCase("6", kappa=1e-9))],
                         ids=["abelian", "row-10", "row-6-small-kappa"])
def test_a_table_that_is_not_a_solvable_layout_row_is_a_named_error(alg):
    with pytest.raises(ValueError, match=f"the semidirect model of {alg.label} does not apply"):
        SemidirectModel(alg)


@settings(max_examples=60, deadline=None)
@given(hs.sampled_from(ROUND_TRIP_CASES), _algebra_vector)
def test_semidirect_log_round_trips(case, u):
    model = build_structure(case).model
    assert np.max(np.abs(model.log(model.exp(u)) - u)) <= 1e-12


def _split(model: SemidirectModel, u) -> tuple[float, tuple[float, float]]:
    """(a, (v0, v1)), the frame coordinates of u in the float order of ``SemidirectModel.exp``."""
    a, v0, v1 = (r[0] * u[0] + r[1] * u[1] + r[2] * u[2] for r in model._frame)
    return a, (v0, v1)


@pytest.mark.parametrize("case", [HEIS, SubLorentzCase("2*", kappa=-1.0, tau=1.5)], ids=lambda c: c.case_id)
def test_the_fixed_ideal_direction_has_exact_rows(case):
    # ad_W maps the ideal into its first, derived direction, so the second is fixed
    model = build_structure(case).model
    assert model._act[2:] == (0.0, 0.0)
    rng = np.random.default_rng(5)
    for u, h in zip(rng.uniform(-2.0, 2.0, (200, 3)).tolist(), rng.uniform(-40.0, 40.0, 200).tolist()):
        a, (_, v1) = _split(model, u)
        E, S = model._flow(a, h)
        x = model.exp(u, h)
        assert (E[2:], S[2:], x[2][2:], x[1][1]) == ((0.0, 1.0), (0.0, h), (0.0, 1.0), h * v1)


# (case, dt) whose exponential of the row (1, 0.3, 0) takes each branch of _exp_flow
CARRIED_E_BRANCHES = {
    "nilpotent": (HEIS, 1e-3),
    "confluent series": (SubLorentzCase("12", kappa=-1.0, chi=-1.0), 1e-4),
    "w2 > 0": (SubLorentzCase("3", tau=2.0, variant=1), 0.02),
    "w2 < 0": (SubLorentzCase("12", kappa=-1.0, chi=-1.0), 0.02),
}


@pytest.mark.parametrize("branch", sorted(CARRIED_E_BRANCHES))
def test_carried_exponential_tracks_the_closed_form(branch):
    case, dt = CARRIED_E_BRANCHES[branch]
    model = build_structure(case).model
    u = [1.0, 0.3, 0.0]
    a, _ = _split(model, u)
    p, q, r, s = (a * entry for entry in model._act)
    y11, y12, y21 = 0.5 * (p - s) * dt, q * dt, r * dt
    w2 = y11 * y11 + y12 * y21
    assert {"nilpotent": w2 == 0.0, "confluent series": 0.0 < abs(w2) < _CONFLUENT_W2,
            "w2 > 0": w2 >= _CONFLUENT_W2, "w2 < 0": w2 <= -_CONFLUENT_W2}[branch]
    # 10 000 products carry E; _advance would take the run's exponential once, over 10 000 dt
    inc = model.exp(u, dt)
    states = list(itertools.accumulate([inc] * 10_000, model.step, initial=model.identity()))[1:]
    # the reference is taken at the exact multiple k tau of the row's own t increment, so
    # that the rounding of the running sum t (the same as before E was carried) stays out
    tau = Fraction(states[0][0])
    worst = 0.0
    for k, (_, _, E) in enumerate(states, 1):
        want, _ = _exp_flow(model._act, float(k * tau))
        worst = max(worst, max(abs(x - y) for x, y in zip(E, want)) / max(map(abs, want)))
    assert worst <= 1e-12


def stepwise_endpoint(model, controls, dt) -> np.ndarray:
    """(t, q) by q <- q + expm(t action) q_row and t <- t + t_row, evaluating expm(t action) every row."""
    t, q0, q1 = 0.0, 0.0, 0.0
    for u in controls:
        s, (r0, r1), _ = model.exp(u, dt)
        E, _ = _exp_flow(model._act, t)
        t, q0, q1 = t + s, q0 + (E[0] * r0 + E[1] * r1), q1 + (E[2] * r0 + E[3] * r1)
    return np.array([t, q0, q1])


@hs.composite
def curve_rows(draw):
    """Up to 8 runs of up to 5 equal cone rows (r, r b, 0)."""
    runs = draw(hs.lists(hs.tuples(hs.floats(0.2, 2.0), hs.floats(-0.9, 0.9), hs.integers(1, 5)),
                         min_size=1, max_size=8))
    return np.array([[r, r * b, 0.0] for r, b, count in runs for _ in range(count)])


@settings(max_examples=60, deadline=None)
@given(hs.sampled_from(ROUND_TRIP_CASES), hs.floats(0.01, 0.5), curve_rows())
def test_semidirect_endpoint_matches_the_stepwise_formula(case, dt, rows):
    st = build_structure(case)
    got = st.model.coords(integrate(ControlCurve(dt, rows, st)).endpoint)
    want = stepwise_endpoint(st.model, rows, dt)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


# -- integration ------------------------------------------------------------------

def _flat(x) -> list:
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (tuple, list, np.ndarray)):
        return [v for y in x for v in _flat(y)]
    return [float(x)]


@settings(max_examples=40, deadline=None)
@given(hs.sampled_from([HEIS, SubLorentzCase("12", kappa=-1.0, chi=-1.0), SU2, SL2]),
       hs.floats(0.01, 0.5), curve_rows())
def test_sampled_rows_follow_each_models_run_shape(case, dt, rows):
    # a run from x_s reaches x_s exp(j dt u) at its j-th row on the semidirect model,
    # x_s Phi^j on the cover, Phi the RK4 row from the identity and its power in closed
    # form, and x_s times j steps folded from the identity on the quaternion model
    model = build_structure(case).model
    x = model.identity()
    want = []
    for u, run in itertools.groupby(rows.tolist()):
        start, folded = x, model.identity()
        phi = model.step(model.identity(), u, dt) if isinstance(model, CoverModel) else None
        for j in range(1, len(list(run)) + 1):
            if isinstance(model, SemidirectModel):
                x = model.multiply(start, model.exp(u, j * dt))
            elif isinstance(model, CoverModel):
                x = model.multiply(start, sl2cover.power(phi, j))
            else:
                folded = model.step(folded, model.exp(u, dt))
                x = model.multiply(start, folded)
            want.append(x)
    got = []
    runs = [(u, len(list(run))) for u, run in itertools.groupby(rows.tolist())]
    _advance(model, model.identity(), runs, dt, got)
    assert [_flat(state) for state in got] == [_flat(state) for state in want]


def test_heisenberg_constant_control_is_one_parameter_subgroup():
    st = build_structure(HEIS)
    for total in (1.0, 2.5):
        curve = constant_curve(st, (1.0, 0.0, 0.0), n=32, total=total)
        end = integrate(curve).endpoint
        direct = st.model.exp(np.array([1.0, 0.0, 0.0]), total)
        assert np.allclose(st.model.coords(end), st.model.coords(direct), atol=1e-12)


def test_su2_constant_control_closes_after_one_period():
    st = build_structure(SU2)
    period = st.model.period
    curve = constant_curve(st, (1.0, 0.0, 0.0), n=64, total=period)
    end = integrate(curve).endpoint
    assert np.linalg.norm(np.subtract(st.model.coords(end), st.model.coords(st.model.identity()))) <= 1e-12


def test_cover_pure_rotation_matches_multiply_iteration():
    st = CaseStructure(sl2cover.ALGEBRA, DEFAULT_CONE, LORENTZIAN, CoverModel())
    xi, total, n = 0.8, 1.5, 24
    curve = constant_curve(st, (xi, 0.0, 0.0), n=n, total=total)
    end = integrate(curve).endpoint
    assert np.isclose(end.c, xi * total, atol=1e-12) and abs(end.w) <= 1e-12
    acc = st.model.identity()
    for _ in range(n):
        acc = st.model.multiply(acc, CoverElement(xi * total / n, 0))
    assert np.isclose(end.c, acc.c, atol=1e-12)


def test_integrate_rejects_bad_controls():
    st = build_structure(HEIS)
    with pytest.raises(ValueError, match="outside"):
        integrate(ControlCurve(0.1, [[1.0, 2.0, 0.0]], st))
    with pytest.raises(ValueError, match="outside"):
        integrate(ControlCurve(0.1, [[1.0, 0.0, 0.5]], st))
    with pytest.raises(ValueError, match="zero"):
        integrate(ControlCurve(0.1, [[0.0, 0.0, 0.0]], st))
    with pytest.raises(ValueError, match="control 1 is zero"):
        integrate(ControlCurve(0.1, [[1.0, 0.2, 0.0], [-0.0, 0.0, -0.0]], st))


@pytest.mark.parametrize("tiny", [1e-170, 5e-324])
def test_a_tiny_nonzero_control_is_not_called_zero(tiny):
    # the square of its norm underflows to 0, the row itself does not
    st = build_structure(HEIS)
    curve = ControlCurve(0.1, [[tiny, 0.0, 0.0], [1.0, 0.2, 0.0]], st)
    res = integrate(curve)
    assert len(res.trajectory) == 3 and np.isfinite(res.trajectory).all()


def test_trajectory_samples_every_step():
    st = build_structure(HEIS)
    res = integrate(constant_curve(st, (1.0, 0.2, 0.0), n=10))
    assert res.trajectory.shape == (11, 3)
    assert np.allclose(res.trajectory[0], st.model.coords(st.model.identity()))


# -- length -----------------------------------------------------------------------

def test_length_of_unit_timelike_control():
    st = build_structure(HEIS)
    assert np.isclose(length(constant_curve(st, (1, 0, 0), total=2.0)), 2.0)


def test_length_vanishes_on_null_boundary_controls():
    st = build_structure(HEIS)
    curve = constant_curve(st, (1.0, 1.0, 0.0))
    assert length(curve) == 0.0


def test_reparametrization_invariance():
    st = build_structure(HEIS)
    rng = np.random.default_rng(4)
    controls = np.column_stack([rng.uniform(0.5, 1.5, 12),
                                rng.uniform(-0.4, 0.4, 12),
                                np.zeros(12)])
    controls[:, 1] *= controls[:, 0]
    base = ControlCurve(0.1, controls, st)
    lam = 3.7
    scaled = ControlCurve(0.1 / lam, lam * controls, st)
    assert np.allclose(st.model.coords(integrate(base).endpoint),
                       st.model.coords(integrate(scaled).endpoint), atol=1e-10)
    assert abs(length(base) - length(scaled)) <= 1e-10


def test_exact_models_are_insensitive_to_step_refinement():
    # exponential steps: repeating each control on a halved step is exact
    for case in (HEIS, SU2):
        st = build_structure(case)
        controls = np.array([[1.0, 0.3, 0.0], [0.8, -0.5, 0.0], [1.2, 0.0, 0.0]])
        coarse = ControlCurve(0.25, controls, st)
        fine = ControlCurve(0.125, np.repeat(controls, 2, axis=0), st)
        a = st.model.coords(integrate(coarse).endpoint)
        b = st.model.coords(integrate(fine).endpoint)
        assert np.allclose(a, b, atol=1e-12)


def test_cover_integrator_is_fourth_order():
    st = build_structure(SL2)
    n = 8
    profile = np.column_stack([
        1.0 + 0.3 * np.sin(2 * np.pi * np.arange(n) / n),
        0.4 * np.cos(2 * np.pi * np.arange(n) / n),
        np.zeros(n),
    ])
    profile[:, 1] *= profile[:, 0] * 0.9

    def endpoint(refine: int) -> np.ndarray:
        controls = np.repeat(profile, refine, axis=0)
        curve = ControlCurve(1.0 / (n * refine), controls, st)
        return np.array(st.model.coords(integrate(curve).endpoint))

    ref = endpoint(16)
    e1 = np.linalg.norm(endpoint(1) - ref)
    e2 = np.linalg.norm(endpoint(2) - ref)
    assert e1 / e2 >= 12.0


def plain_dot(a, b) -> float:
    """The products summed left to right from 0.0 on Python floats, as a BLAS dot without
    fused multiply-adds rounds them."""
    total = 0.0
    for x, y in zip(a, b):
        total += float(x) * float(y)
    return total


def reference_cover_step(frame, x, u, dt):
    """The cover RK4 step in array form: four push-forwards on (c, Re w, Im w) arrays."""
    def velocity(s, u_cov):
        v = TangentVector(*push_forward(CoverElement(s[0], complex(s[1], s[2])),
                                        TangentVector(u_cov[0], complex(u_cov[1], u_cov[2]))))
        return np.array([v.xi, v.zeta.real, v.zeta.imag])

    u_cov = [plain_dot(row, u) for row in frame]
    s = np.array([x.c, x.w.real, x.w.imag])
    k1 = velocity(s, u_cov)
    k2 = velocity(s + 0.5 * dt * k1, u_cov)
    k3 = velocity(s + 0.5 * dt * k2, u_cov)
    k4 = velocity(s + dt * k3, u_cov)
    s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return CoverElement(s[0], complex(s[1], s[2]))


COVER_FRAMES = {"identity": np.eye(3), "row 10": build_structure(SL2).model.frame}


@hs.composite
def cover_step_inputs(draw):
    """An element with |c|, |w| <= 5, a cone control (r, r b, 0) and dt = 1/n."""
    x = CoverElement(draw(hs.floats(-5.0, 5.0)),
                     cmath.rect(draw(hs.floats(0.0, 5.0)), draw(hs.floats(-math.pi, math.pi))))
    r = draw(hs.floats(1e-3, 3.0))
    b = draw(hs.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    return x, (r, r * b, 0.0), 1.0 / draw(hs.integers(1, 64))


def _bits(x):
    return x.c.hex(), x.w.real.hex(), x.w.imag.hex()


@settings(max_examples=400, deadline=None)
@given(hs.sampled_from(sorted(COVER_FRAMES)), cover_step_inputs())
def test_cover_step_matches_array_form_bit_for_bit(frame, inputs):
    x, u, dt = inputs
    model = CoverModel(COVER_FRAMES[frame])
    assert _bits(model.step(x, u, dt)) == _bits(reference_cover_step(model.frame, x, u, dt))


def test_a_powered_cover_run_stays_within_rk4_error_of_a_fine_reference():
    # a constant run of n rows over unit time, Phi^n with Phi the RK4 row from the identity,
    # against 4 096 RK4 rows folded from the identity; the controls are those of the bench's
    # solve-cover probes, (r, r b, 0) with r in [0.6, 1.2] and |b| <= 0.5, on rows 10, 19 and 2.
    # The deviation is RK4's own: it falls by about 2^4 per halving of the step
    rng = np.random.default_rng(2024)
    worst = {8: 0.0, 16: 0.0, 32: 0.0}
    for row in ("10", "19", "2"):
        for draw in range(30):
            st = build_structure(sample_case(row, rng, draw))
            r, b = rng.uniform(0.6, 1.2), rng.uniform(-0.5, 0.5)
            u = (r, r * b, 0.0)
            x = st.model.identity()
            for _ in range(4096):
                x = st.model.step(x, u, 1.0 / 4096)
            for n in worst:
                result = integrate(constant_curve(st, u, n=n))
                end = st.model.coords(result.endpoint)
                assert list(result.trajectory[-1]) == list(end)
                worst[n] = max(worst[n], _distance(end, st.model.coords(x)))
    assert worst[8] <= 1e-5 and worst[16] <= 1e-6 and worst[32] <= 1e-7, worst
    assert worst[16] <= worst[8] / 8.0 and worst[32] <= worst[16] / 8.0, worst


def test_an_overflowing_cover_run_is_an_overflow_error():
    # a power of Phi whose product leaves float range raises OverflowError, as an exponential
    # or an RK4 row that overflows does, and the search scores it as an infinite error
    st = build_structure(SL2)
    with pytest.raises(OverflowError):
        integrate(constant_curve(st, (1e10, 5e9, 0.0)))
    ell, err = _Search(st, st.model.identity(), 16, budget=1).rollout([1e10, 0.5])
    assert math.isfinite(ell) and err == math.inf


@hs.composite
def cover_run_rows(draw):
    """An RK4 row Phi from the identity on row 10, 19 or 2 (``sample_case``): a cone
    control (r, r b, 0) with r <= 6 and |b| < 1, over one of 1 to 64 rows."""
    case = sample_case(draw(hs.sampled_from(["10", "19", "2"])),
                       np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1))), draw(hs.integers(0, 1)))
    model = build_structure(case).model
    r = draw(hs.floats(1e-3, 6.0))
    b = draw(hs.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    return model.step(sl2cover.IDENTITY, (r, r * b, 0.0), 1.0 / draw(hs.integers(1, 64)))


@hs.composite
def central_elements(draw):
    """An element at angle +-3, -7 or pi with |w| <= 5: past pi/2, so its power factors out
    the centre; its half trace r cos c is <= -1 at pi, and at +-3 once |w| >= 0.15."""
    return CoverElement(draw(hs.sampled_from([3.0, -3.0, -7.0, math.pi])),
                        cmath.rect(draw(hs.floats(0.0, 5.0)), draw(hs.floats(-math.pi, math.pi))))


@settings(max_examples=400, deadline=None)
@given(hs.one_of(cover_run_rows(), central_elements()),
       hs.one_of(hs.integers(1, 40), hs.sampled_from([1000, 10000])))
def test_the_closed_form_cover_power_matches_binary_powering(g, k):
    # where binary powering stays finite, the closed form agrees with it to 2e-13 k relative,
    # the angle on its own as well (a lift off by a turn would show there, not beside a
    # large |w|); where it overflows or goes non-finite, the closed form raises OverflowError
    try:
        want = _power(CoverModel(), g, k)
        finite = math.isfinite(want.c) and cmath.isfinite(want.w)
    except OverflowError:
        finite = False
    if not finite:
        with pytest.raises(OverflowError):
            sl2cover.power(g, k)
        return
    got = sl2cover.power(g, k)
    assert abs(got.c - want.c) <= 2e-13 * k * max(1.0, abs(want.c)), (got, want)
    assert max(abs(got.c - want.c), abs(got.w - want.w)) <= 2e-13 * k * max(1.0, abs(want.c), abs(want.w)), (got, want)


def reference_quaternion_exp(scales, u, time):
    """The quaternion exponential in array form, its angle the square root of a plain sum of squares."""
    v = time * (np.array(scales) * np.asarray(u, dtype=float))
    theta = math.sqrt(plain_dot(v, v))
    if theta == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.concatenate([[math.cos(theta)], math.sin(theta) / theta * v])


def reference_quaternion_multiply(q, r):
    """The quaternion product in array form."""
    w1, x1, y1, z1 = q
    w2, x2, y2, z2 = r
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def reference_quaternion_power(x, k):
    out = np.array([1.0, 0.0, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing power comes out non-finite
        while k:
            if k & 1:
                out = reference_quaternion_multiply(out, x)
            k >>= 1
            if k:
                x = reference_quaternion_multiply(x, x)
    return out


def _quaternion_bits(x):
    assert type(x) is tuple and len(x) == 4 and all(type(c) is float for c in x)
    return [c.hex() for c in x]


def test_a_huge_su2_target_is_the_named_error_without_a_warning():
    # the dot product inside np.linalg.norm overflows: the angle is inf, not a RuntimeWarning
    st = build_structure(SU2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for abc in ((1e200, 0, 0), (0, -1e160, 0), (1e155, 1e155, 1e155)):
            with pytest.raises(ValueError, match="out of float range"):
                target_from_exp2(st, abc)


def test_quaternion_model_matches_array_form_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(200):
        chi = -(10.0 ** rng.uniform(-3, 3))
        model = QuaternionModel(SubLorentzCase("9", kappa=float(-chi * rng.uniform(-0.99, 0.99)), chi=chi))
        assert type(model.scales) is tuple
        for u, t in [((0.0, 0.0, 0.0), 0.7), ((1.0, -0.0, 0.0), 0.0)] + [
                ((rng.uniform(-1, 1, 3) * 10.0 ** rng.uniform(-3, 3)).tolist(), 10.0 ** rng.uniform(-3, 1))
                for _ in range(8)]:
            assert _quaternion_bits(model.exp(u, t)) == [c.hex() for c in reference_quaternion_exp(
                model.scales, u, t).tolist()]
        x, want = model.identity(), np.array([1.0, 0.0, 0.0, 0.0])
        for _ in range(int(rng.integers(1, 64))):
            u, dt = rng.uniform(-1, 1, 3).tolist(), float(10.0 ** rng.uniform(-3, 0))
            x = model.step(x, model.exp(u, dt))
            want = reference_quaternion_multiply(want, reference_quaternion_exp(model.scales, u, dt))
            assert _quaternion_bits(x) == [c.hex() for c in want.tolist()]
        # unit, grown and shrunk bases, so that some powers overflow or underflow
        k = int(10.0 ** rng.uniform(0, 15))
        for scale in (1.0, 1.5, 0.5):
            base = tuple(scale * c for c in x)
            assert _quaternion_bits(_power(model, base, k)) == [
                c.hex() for c in reference_quaternion_power(np.array(base), k).tolist()]


@pytest.mark.parametrize("demand, steps", [(10.0, 64), (1e6, 7), (1e12, 300), (1e15, 1), (1e300, 64)])
def test_the_powered_witness_endpoint_matches_array_form_bit_for_bit(demand, steps):
    st = build_structure(SubLorentzCase("9", kappa=0.3, chi=-1.7))
    curve = su2_unbounded_witness(st, demand, steps_per_loop=steps)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    for u in curve.loop.to_json()["controls"]:
        x = reference_quaternion_multiply(x, reference_quaternion_exp(st.model.scales, u, curve.dt))
    # one traversal is stepped as it is; more are powered from the renormalized block endpoint
    want = x if curve.repeat == 1 else reference_quaternion_power(x / math.sqrt(plain_dot(x, x)), curve.repeat)
    assert _quaternion_bits(integrate(curve).endpoint) == [c.hex() for c in want.tolist()]


# -- anti-norms ---------------------------------------------------------------------

EDGE = AntiNorm(lambda u: u[0] - abs(u[1]), "edge")
LORENTZIAN_3D = AntiNorm(lambda u: math.sqrt(max(u[0] ** 2 - u[1] ** 2 - u[2] ** 2, 0.0)), "lorentzian-3d")


def test_anti_norm_homogeneity_and_superadditivity():
    rng = np.random.default_rng(9)
    for nu in (LORENTZIAN, EDGE):
        for _ in range(200):
            r1, r2 = rng.uniform(0.1, 2.0, 2)
            b1, b2 = rng.uniform(-1.0, 1.0, 2)
            v = np.array([r1, r1 * b1, 0.0])
            w = np.array([r2, r2 * b2, 0.0])
            lam = rng.uniform(0.1, 5.0)
            assert abs(nu(lam * v) - lam * nu(v)) <= 1e-10 * max(1.0, nu(v))
            assert nu(v + w) >= nu(v) + nu(w) - 1e-10


def test_anti_norm_gives_one_float_on_a_list_row_and_an_array_row():
    rng = np.random.default_rng(3)
    U = np.column_stack([rng.uniform(0.1, 2.0, 50), rng.uniform(-2.0, 2.0, 50),
                         rng.uniform(-1.0, 1.0, 50)])
    for nu in (LORENTZIAN, EDGE, LORENTZIAN_3D):
        for row in U:
            got = (nu(row.tolist()), nu(row))
            assert [type(v) for v in got] == [float, float]
            assert got[0].hex() == got[1].hex()


def test_length_sums_one_value_per_run_in_run_order():
    # rows drawn from a small pool, so that equal rows merge into runs and split them,
    # and a zero second entry of either sign, which compares equal across runs: a run of
    # k rows adds k nu(row) once, the value of its first row, the runs summed left to right
    rng = np.random.default_rng(5)
    pool = [[1.0, 0.2, 0.0], [0.7, -0.35, 0.0], [0.3, 0.0, 0.0], [0.3, -0.0, 0.0], [1e-170, 0.0, 0.0]]
    for nu in (LORENTZIAN, EDGE):
        st = build_structure(HEIS, anti_norm=nu)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            rows = [pool[i] for i in rng.integers(0, len(pool), n)]
            curve = ControlCurve(1.0 / n, rows, st)
            want = 0.0
            for u, run in itertools.groupby(rows):
                want += len(list(run)) * nu(u)
            assert length(curve).hex() == (want * curve.dt).hex()


_run_pairs = hs.lists(hs.tuples(hs.tuples(hs.floats(0.2, 2.0), hs.floats(-0.9, 0.9)), hs.integers(1, 10_000)),
                      max_size=6)


@settings(max_examples=200, deadline=None)
@given(hs.sampled_from([HEIS, SubLorentzCase("12", kappa=-1.0, chi=-1.0), SL2, SU2]), hs.floats(1e-4, 1.0),
       _run_pairs.filter(bool), _run_pairs, hs.integers(0, 1000))
def test_a_length_is_within_one_rounding_per_run_of_the_exact_sum(case, dt, runs, loop_runs, repeat):
    # count * value per run rounds once per run, so the error does not grow with the row count:
    # within (runs + 2) units of 2^-53 relative of the exact sum of every row's value times dt
    st = build_structure(case)
    nu = st.anti_norm
    rows = [(tuple(_controls(rb)[0].tolist()), k) for rb, k in runs]
    loop_rows = [(tuple(_controls(rb)[0].tolist()), k) for rb, k in loop_runs]
    curve = ControlCurve.from_runs(dt, rows, st, loop_rows, repeat)
    exact = Fraction(0)
    for block, times in ((loop_rows, repeat), (rows, 1)):
        exact += times * sum(k * Fraction(nu(u)) for u, k in block)
    exact *= Fraction(curve.dt)
    merged = len(longarc._merged(loop_rows)) + len(longarc._merged(rows))
    assert abs(Fraction(length(curve)) - exact) <= (merged + 2) * Fraction(1, 2 ** 53) * exact


# -- calibration constant -------------------------------------------------------------

def reference_section_ratio_max(cone, nu, p) -> float:
    """The largest ratio nu(v) / (p . v) on the cone's cross-section by a 4 001-point grid,
    then golden section between the grid neighbours of its best point."""
    u1, u2 = np.asarray(cone.u1), np.asarray(cone.u2)
    h = cone.half_width

    def ratio(s):
        v = u1 + s * u2
        return nu(v) / float(np.dot(p, v))

    grid = np.linspace(-h, h, 4001)
    vals = [ratio(s) for s in grid.tolist()]
    i = int(np.argmax(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
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
    return max(vals[i], f1, f2)


def _exists_witnesses():
    """The witnesses of the exists verdicts, six draws per classification row."""
    rng = np.random.default_rng(7)
    out = []
    for cid in CASE_IDS:
        for n in range(6):
            verdict = check_case(sample_case(cid, rng, n))
            if verdict.witness is not None:
                out.append(np.array(verdict.witness))
    return out


def test_c_max_matches_a_dense_grid_reference_on_the_verdict_witnesses():
    witnesses = _exists_witnesses()
    assert len(witnesses) >= 30
    for nu in (LORENTZIAN, EDGE):
        for p in witnesses:
            got = longarc._section_ratio_max(DEFAULT_CONE, nu, p)
            want = reference_section_ratio_max(DEFAULT_CONE, nu, p)
            assert abs(got - want) <= 1e-15 * want, (nu.name, p)


def test_c_max_matches_a_dense_grid_reference_on_random_cones():
    # segment cones inside the light cone |x2| < x1, with a covector positive on them
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 40:
        m, h = rng.uniform(-0.9, 0.9), rng.uniform(0.01, 2.0)
        d = rng.uniform(0.2, 1.0) * (1.0 - abs(m)) / h  # so that |m +- h d| < 1
        cone = SegmentCone((1.0, m, rng.normal()), (0.0, d, rng.normal()), h)
        p = np.array([1.0, rng.uniform(-1.0, 1.0), rng.normal()])
        if min(float(p @ r) for r in cone.rays()) <= 0.0:
            continue
        for nu in (LORENTZIAN, EDGE):
            got = longarc._section_ratio_max(cone, nu, p)
            want = reference_section_ratio_max(cone, nu, p)
            assert abs(got - want) <= 1e-15 * want, (nu.name, cone, p)
        checked += 1


def test_the_heisenberg_c_max_is_exactly_one():
    p = np.array(check_case(HEIS).witness)
    st = build_structure(HEIS)
    for nu in (LORENTZIAN, EDGE):
        assert longarc._section_ratio_max(st.cone, nu, p) == 1.0


# -- calibration bound ----------------------------------------------------------------

def test_distance_upper_bound_heisenberg():
    st = build_structure(HEIS)
    p = np.array([1.0, 0.0, 0.0])
    for total in (1.0, 2.0):
        target = target_from_exp2(st, (total, 0.0, 0.0))
        assert abs(distance_upper_bound(st, target, p) - total) <= 1e-9


def test_distance_upper_bound_tilted_witness_shrinks_null_bound():
    st = build_structure(HEIS)
    target = st.model.exp(np.array([1.0, 1.0, 0.0]), 1.0)
    p = np.array([1.0, -0.99, 0.0])
    assert distance_upper_bound(st, target, p) < 0.1


def test_distance_upper_bound_rejects_bad_witnesses():
    st = build_structure(HEIS)
    target = target_from_exp2(st, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="strictly positive"):
        distance_upper_bound(st, target, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="annihilate"):
        distance_upper_bound(st, target, np.array([1.0, 0.0, 0.5]))
    st10 = build_structure(SL2)
    with pytest.raises(TypeError, match="solvable"):
        distance_upper_bound(st10, CoverElement(1.0, 0), np.array([1.0, 0.0, 0.0]))


EXISTS_SOLVABLE = (
    HEIS,
    SubLorentzCase("2*", kappa=-1.0, tau=1.5),
    SubLorentzCase("11", kappa=1.0, chi=1.0),
    SubLorentzCase("12", kappa=-1.0, chi=-1.0),
    SubLorentzCase("13", kappa=7.0, chi=-1.0),
    SubLorentzCase("14", kappa=2.0, chi=-1.0),
    SubLorentzCase("15", kappa=2.0, chi=1.0),
)


@pytest.mark.parametrize("case", EXISTS_SOLVABLE, ids=lambda c: c.case_id)
def test_the_bound_is_the_witness_homomorphism_at_an_exponential_target(case):
    # F(exp(a X1) exp(b X2) exp(c X3)) = a p1 + b p2 + c p3 for the homomorphism F of differential p
    st = build_structure(case)
    p = np.array(check_case(case).witness)
    c_max = longarc._section_ratio_max(st.cone, st.anti_norm, p)
    rng = np.random.default_rng(19)
    answered = 0
    for scale in (0.1, 1.0, 10.0, 30.0, 100.0):
        for abc in (scale * rng.uniform(-1.0, 1.0, (40, 3))).tolist():
            try:
                target = target_from_exp2(st, abc)
            except ValueError:  # its exponential overflows
                continue
            got = distance_upper_bound(st, target, p)
            # relative to the Cauchy-Schwarz size of the dot product
            size = c_max * float(np.linalg.norm(p)) * math.hypot(*abc)
            assert abs(got - c_max * float(np.dot(abc, p))) <= 1e-12 * size, (abc, got)
            answered += 1
    assert answered >= 100


@pytest.mark.parametrize("case", EXISTS_SOLVABLE, ids=lambda c: c.case_id)
def test_the_bound_is_the_witness_integral_along_an_admissible_curve(case):
    # F(endpoint) = integral of p . u dt along the curve that reaches it
    st = build_structure(case)
    p = np.array(check_case(case).witness)
    c_max = longarc._section_ratio_max(st.cone, st.anti_norm, p)
    rng = np.random.default_rng(23)
    for _ in range(40):
        r, b = rng.uniform(0.0, 40.0, 8), rng.uniform(-1.0, 1.0, 8)
        rows = np.column_stack([r, r * b, np.zeros(8)])
        target = integrate(ControlCurve(0.125, rows, st)).endpoint
        want = c_max * sum(0.125 * float(p @ u) for u in rows)
        assert abs(distance_upper_bound(st, target, p) - want) <= 1e-12 * want


# -- solver -----------------------------------------------------------------------------

# r below _R_MIN and b beyond +-_B_MAX are clamped; a zero b keeps its sign in r b
_theta_r = hs.one_of(hs.floats(0.05, 2.0), hs.sampled_from([_R_MIN, 1e-9, 0.0, -0.0, -0.5]))
_theta_rows = hs.tuples(
    _theta_r, hs.one_of(hs.floats(-0.95, 0.95), hs.sampled_from([_B_MAX, -_B_MAX, 1.0, -1.5, 3.0, 0.0, -0.0])))


def _controls(pairs) -> np.ndarray:
    """The control rows [r, r b, 0] of (r, b) pairs: r clamped below at _R_MIN, b to +-_B_MAX."""
    theta = np.array(pairs, dtype=float).reshape(-1, 2)
    r, b = np.clip(theta[:, 0], _R_MIN, None), np.clip(theta[:, 1], -_B_MAX, _B_MAX)
    return np.column_stack([r, r * b, np.zeros(len(theta))])


def _fresh_score(st, search, pairs) -> tuple:
    """(length, endpoint error) hex of the curve of the (r, b) ``pairs``, built and integrated afresh;
    an exponential that overflows, or an endpoint that is not finite, is an endpoint error of inf."""
    curve = ControlCurve(search.dt, _controls(pairs), st)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            err = _distance(st.model.coords(integrate(curve).endpoint), search.tcoords)
        except OverflowError:
            err = math.inf
        return length(curve).hex(), (err if math.isfinite(err) else math.inf).hex()


def _search(structure, n: int) -> _Search:
    return _Search(structure, integrate(constant_curve(structure, (1.0, 0.2, 0.0), n=4)).endpoint, n, budget=1)


def _listed(pairs) -> list:
    """A flat theta list [r0, b0, r1, b1, ...] of Python floats from (r, b) pairs."""
    return np.asarray(pairs, dtype=float).ravel().tolist()


def _hex(score) -> tuple:
    return tuple(v.hex() for v in score)


@hs.composite
def runs_of_pairs(draw, n: int):
    """n rows (r, b) from two drawn pairs and one r with b = +-0.0, so that equal rows
    form runs and some rows differ only in the sign of a zero b."""
    r = draw(_theta_r)
    pool = [draw(_theta_rows), draw(_theta_rows), (r, 0.0), (r, -0.0)]
    return np.array(draw(hs.lists(hs.sampled_from(pool), min_size=n, max_size=n)))


def _moved_row(data, pairs: np.ndarray) -> tuple[int, tuple]:
    """A row and its new pair: a drawn one (r below _R_MIN and b at or beyond +-_B_MAX
    among them), one that overflows, a neighbour's (joining its run, or both neighbours'
    where they are equal), or the same pair with the sign of a zero b flipped."""
    n = len(pairs)
    same = [i for i in range(1, n - 1) if (_controls(pairs[i - 1]) == _controls(pairs[i + 1])).all()]
    kind = data.draw(hs.sampled_from(["drawn", "overflows", "neighbour", "both neighbours", "zero b"]))
    i = data.draw(hs.sampled_from(same) if kind == "both neighbours" and same else hs.integers(0, n - 1))
    if kind == "drawn":
        return i, data.draw(_theta_rows)
    if kind == "overflows":
        return i, (1e154, 0.5)
    if kind in ("neighbour", "both neighbours"):
        return i, tuple(pairs[data.draw(hs.sampled_from(sorted({max(i - 1, 0), min(i + 1, n - 1)})))])
    r, b = pairs[i]
    return i, (r, -b if b == 0.0 else 0.0)


@settings(max_examples=200, deadline=None)
@given(hs.sampled_from([(SubLorentzCase("12", kappa=-1.0, chi=-1.0), LORENTZIAN), (SL2, LORENTZIAN),
                        (SU2, LORENTZIAN), (HEIS, EDGE)]),
       hs.integers(1, 8), hs.data())
def test_rollout_matches_a_fresh_length_and_integration(structure_args, n, data):
    # a kept theta, then one-row moves (each kept or not), constant candidates and fresh
    # thetas: every score is that of integrating the candidate's curve afresh, also after
    # the kept candidate itself overflowed
    st = build_structure(*structure_args)
    search = _search(st, n)
    kept = data.draw(runs_of_pairs(n))
    assert _hex(search.rollout(_listed(kept))) == _fresh_score(st, search, kept)
    search.keep()
    for kind in data.draw(hs.lists(hs.sampled_from(["move"] * 4 + ["constant", "fresh"]), min_size=1, max_size=10)):
        if kind == "move":
            i, pair = _moved_row(data, kept)
            theta = kept.copy()
            theta[i] = pair
            got = search.rollout(_listed(theta), i)
        elif kind == "constant":
            pair = data.draw(hs.one_of(_theta_rows, hs.just((1e154, 0.5))))
            theta = np.tile(pair, (n, 1))
            got = search.rollout(list(pair))
        else:
            theta = data.draw(runs_of_pairs(n))
            got = search.rollout(_listed(theta))
        assert _hex(got) == _fresh_score(st, search, theta), kind
        if data.draw(hs.booleans()):
            search.keep()
            kept = theta


@settings(max_examples=150, deadline=None)
@given(hs.sampled_from([(SubLorentzCase("12", kappa=-1.0, chi=-1.0), LORENTZIAN), (SL2, LORENTZIAN),
                        (SU2, LORENTZIAN), (HEIS, EDGE)]),
       hs.integers(1, 8), hs.lists(hs.tuples(_theta_rows, hs.booleans()), min_size=1, max_size=8))
def test_a_constant_candidate_scores_as_its_full_theta(structure_args, n, moves):
    # a pair [r, b], scored as a move of the kept pair of a constant descent, scores as the
    # same candidate of n equal rows walked afresh, and as its curve integrated afresh
    st = build_structure(*structure_args)
    pairs, walked = _search(st, n), _search(st, n)
    pairs.rollout(list(moves[0][0]))
    pairs.keep()
    for rb, keep in moves:
        got = pairs.rollout(list(rb), 0)
        assert _hex(got) == _hex(walked.rollout(list(rb) * n)) == _fresh_score(st, pairs, [rb] * n)
        if keep:
            pairs.keep()


@settings(max_examples=200, deadline=None)
@given(hs.sampled_from([(SubLorentzCase("12", kappa=-1.0, chi=-1.0), LORENTZIAN), (SL2, LORENTZIAN),
                        (SU2, LORENTZIAN), (HEIS, EDGE)]),
       hs.integers(1, 8), hs.floats(0.5, 1.5), hs.floats(0.5, 1.5), hs.sampled_from([1e4, 1e6, 1e8]),
       hs.data())
def test_a_candidate_that_its_length_rules_out_could_not_pay(structure_args, n, bar_scale, rank_scale, mu, data):
    # a candidate that its length, less mu lb^2 on the semidirect rows, rules out is not
    # stepped: it is (length, lb) with lb at most its error, it scores at most the bar,
    # stepped in full its score is at most the bar and it cannot become the best, and
    # keep() leaves the kept candidate as it was.  A move that was stepped, scored again
    # from the same kept candidate after others, gives the same floats
    st = build_structure(*structure_args)
    search = _search(st, n)
    search.budget = math.inf
    kept = data.draw(runs_of_pairs(n))
    ell, _ = search.rollout(_listed(kept))
    search.keep()
    bar, search.best_rank = ell * bar_scale, ell * rank_scale
    stepped = []
    for kind in data.draw(hs.lists(hs.sampled_from(["move"] * 4 + ["constant"]), min_size=1, max_size=10)):
        if kind == "move":
            i, pair = _moved_row(data, kept)
            theta = kept.copy()
            theta[i] = pair
            args = (_listed(theta), i)
        else:
            pair = data.draw(_theta_rows)
            theta = np.tile(pair, (n, 1))
            args = (list(pair), None)
        rank, rollouts = search.best_rank, search.rollouts
        got = search.rollout(*args, mu, bar)
        fresh = _fresh_score(st, search, theta)
        if search.rollouts == rollouts and got is not search._score:  # not the kept score of an unmoved row
            full, err = (float.fromhex(h) for h in fresh)
            lb = got[1]
            assert got[0].hex() == fresh[0] and 0.0 <= lb <= err
            assert search.score(args[0], mu, args[1], bar) == got[0] - mu * lb * lb <= bar
            assert search.last == got and search.best_rank == rank and search.rollouts == rollouts
            assert full - mu * err * err <= bar
            assert err > ENDPOINT_TOL or full - _Search.ERR_WEIGHT * err <= rank
            if not isinstance(st.model, SemidirectModel):
                assert lb == 0.0
        else:
            assert _hex(got) == fresh, kind
            stepped.append((args, got))
        if data.draw(hs.booleans()):
            if search.rollouts > rollouts:
                # before the kept candidate changes, the others again, then this one to keep
                for again, score in stepped[-2::-1] + stepped[-1:]:
                    assert _hex(search.rollout(*again)) == _hex(score)
                kept, stepped = theta, []
            search.keep()
    for again, score in stepped[::-1]:
        assert _hex(search.rollout(*again)) == _hex(score)


@settings(max_examples=200, deadline=None)
@given(hs.sampled_from(["1", "2*", "3", "12", "13", "7"]), hs.integers(0, 2**32 - 1), hs.integers(1, 8),
       hs.data())
def test_the_error_bound_is_the_endpoints_t_and_at_most_its_error(cid, seed, n, data):
    # ruled out whatever its bound (best rank inf, cap -1), a candidate is (length, lb) with no
    # step.  lb is the distance in G/[G,G]: sqrt(d_t^2), d_t = t - the target's t, t the first
    # coordinate of its curve's endpoint integrated afresh, and on rows 1 and 2*, whose derived
    # subalgebra is a line, sqrt(d_t^2 + d_q1^2), q1 the third coordinate, bit for bit: against
    # the target and against the zero target.  lb is at most the error stepped in full.  Moves
    # are drawn from a kept candidate, which each stepped candidate may become
    st = build_structure(sample_case(cid, np.random.default_rng(seed), 0))
    search = _search(st, n)
    target, zero = search.tcoords, (0.0, 0.0, 0.0)
    with_q1 = st.model._derived == 1
    assert with_q1 == (cid in ("1", "2*"))
    kept = data.draw(runs_of_pairs(n))
    search.rollout(_listed(kept))
    search.keep()
    for kind in data.draw(hs.lists(hs.sampled_from(["move"] * 3 + ["constant"]), min_size=1, max_size=8)):
        if kind == "move":
            i, pair = _moved_row(data, kept)
            theta = kept.copy()
            theta[i] = pair
            args = (_listed(theta), i)
        else:
            pair = data.draw(_theta_rows)
            theta = np.tile(pair, (n, 1))
            args = (list(pair), None)
        search.best_rank, rollouts, bounds = math.inf, search.rollouts, []
        for search.tcoords in (target, zero):
            bounds.append(search.rollout(*args, cap=-1.0))
        search.tcoords, search.best_rank = target, -math.inf
        if bounds[0] is search._score:  # the move leaves its row as it was: the kept score
            continue
        full, err = search.rollout(*args)
        assert search.rollouts == rollouts + 1
        assert all(ell == full for ell, _ in bounds) and bounds[0][1] <= err
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                t, _, q1 = st.model.coords(integrate(ControlCurve(search.dt, _controls(theta), st)).endpoint)
            except OverflowError:
                assert err == math.inf
            else:
                want = []
                for t_target, _, q1_target in (target, zero):
                    d_t, d_q1 = t - t_target, q1 - q1_target
                    want.append(math.sqrt(d_t * d_t + d_q1 * d_q1) if with_q1 else math.sqrt(d_t * d_t))
                assert [lb.hex() for _, lb in bounds] == [lb.hex() for lb in want]
        if data.draw(hs.booleans()):
            search.keep()
            kept = theta


def _counted(monkeypatch, cls, name) -> list:
    """The list that collects the arguments of every call of ``cls.name`` from now on."""
    calls = []
    original = getattr(cls, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _distinct_theta(n: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    return np.column_stack([rng.uniform(0.5, 1.5, n), rng.uniform(-0.5, 0.5, n)])


def test_a_semidirect_run_is_one_exponential_and_one_step(monkeypatch):
    st = build_structure(HEIS)
    target = target_from_exp2(st, (1.0, 0.0, 0.0))
    exps = _counted(monkeypatch, SemidirectModel, "exp")
    steps = _counted(monkeypatch, SemidirectModel, "step")
    values = _counted(monkeypatch, AntiNorm, "__call__")
    search = _Search(st, target, 32, budget=1)
    # a run from the identity ends at its exponential, with no product
    search.rollout(_listed(np.full((32, 2), [0.9, 0.1])))
    assert (len(exps), len(steps)) == (1, 0)
    # a later run is one exponential and one product
    exps.clear()
    search.rollout(_listed(np.repeat([[1.1, -0.2], [0.8, 0.3]], 16, axis=0)))
    assert (len(exps), len(steps)) == (2, 1)

    # a one-row move takes one value, and one exponential for each piece whose count is new:
    # inside a run of four equal rows, the run's head (if the moved row is not its first),
    # the moved row and the run's tail (if it is not its last); the other runs keep theirs.
    # A second move of the same row takes the head's and the tail's exponentials from the
    # first, and the head's end state, so it takes no product for the head either.
    for base, run in ((_distinct_theta(32), 1), (np.repeat(_distinct_theta(8), 4, axis=0), 4)):
        search.rollout(_listed(base))
        search.keep()
        for i in range(32):
            o = i % run
            for pair, incs, again in (([2.0, 0.7], 1 + (o > 0) + (o < run - 1), False),
                                      ([2.1, 0.7], 1, o > 0 and i >= run)):
                changed = base.copy()
                changed[i] = pair
                exps.clear()
                values.clear()
                steps.clear()
                search.rollout(_listed(changed), i)
                # one product for each piece and each later run, but none from row 0
                runs_on = (o > 0) + 1 + (o < run - 1) + 32 // run - i // run - 1
                assert (len(exps), len(values), len(steps)) == (incs, 1, runs_on - (i < run) - again), (i, pair)


def test_a_constant_candidate_is_one_run_without_the_row_walk(monkeypatch):
    st = build_structure(HEIS)
    target = target_from_exp2(st, (1.0, 0.0, 0.0))
    exps = _counted(monkeypatch, SemidirectModel, "exp")
    steps = _counted(monkeypatch, SemidirectModel, "step")
    values = _counted(monkeypatch, AntiNorm, "__call__")
    walks = _counted(monkeypatch, longarc, "_runs")
    controls = _counted(monkeypatch, longarc, "_control")
    search = _Search(st, target, 32, budget=1)
    # scored alone, or as the moves of a constant descent: one control row, no run walk
    for rb, row in (([0.9, 0.1], None), ([1.1, -0.2], 0), ([1.1, 0.3], 0)):
        for calls in (exps, steps, values, controls):
            calls.clear()
        search.rollout(rb, row)
        search.keep()
        assert (len(exps), len(steps), len(values), len(controls), len(walks)) == (1, 0, 1, 1, 0)


def test_a_move_sums_one_value_per_run_not_per_row(monkeypatch):
    # at 10 000 rows, a candidate of two runs moved in one row sums at most its runs + 2
    # values (a row inside a run splits it in three), and a constant candidate sums none
    st = build_structure(HEIS)
    n = 10_000
    summed, total = [], longarc._total

    def spied(values):
        values = list(values)
        summed.append(len(values))
        return total(values)

    monkeypatch.setattr(longarc, "_total", spied)
    search = _Search(st, target_from_exp2(st, (1.0, 0.0, 0.0)), n, budget=1)
    theta = _listed(np.repeat([[0.9, 0.1], [1.1, -0.2]], n // 2, axis=0))
    search.rollout(theta)
    search.keep()
    for i in (0, 1, n // 4, n // 2 - 1, n // 2, n - 2, n - 1):
        for pair in ([1.3, 0.4], [1.1, -0.2] if i < n // 2 else [0.9, 0.1]):  # a new row, or the other run's
            moved = theta[:]
            moved[2 * i:2 * i + 2] = pair
            summed.clear()
            ell, _ = search.rollout(moved, i)
            assert summed and max(summed) <= 2 + 2, (i, summed)
            assert ell.hex() == length(ControlCurve(search.dt, _controls(np.reshape(moved, (-1, 2))), st)).hex()
    summed.clear()
    ell, _ = search.rollout([0.9, 0.1])
    assert not summed and ell == n * LORENTZIAN(_controls([0.9, 0.1])[0]) * search.dt


def test_a_cover_move_takes_one_rk4_row_per_new_piece(monkeypatch):
    # a move takes one RK4 row, its element's Phi, for each piece whose element is new:
    # inside a run of four equal rows, the run's head (if the moved row is not its first),
    # the moved row and the run's tail (if it is not its last); the later runs keep theirs.
    # A second move of the same row takes the head's and the tail's elements from the first
    st = build_structure(SL2)
    target = integrate(constant_curve(st, (1.0, 0.2, 0.0), n=4)).endpoint
    n = 16
    steps = _counted(monkeypatch, CoverModel, "step")
    pushes = _counted(monkeypatch, sl2cover, "push_forward")
    search = _Search(st, target, n, budget=1)
    for base, run in ((_distinct_theta(n), 1), (np.repeat(_distinct_theta(4), 4, axis=0), 4)):
        search.rollout(_listed(base))
        search.keep()
        for i in range(n):
            o = i % run
            changed = base.copy()
            for pair, rows in (([2.0, 0.7], 1 + (o > 0) + (o < run - 1)), ([2.1, 0.7], 1)):
                changed[i] = pair
                steps.clear()
                pushes.clear()
                search.rollout(_listed(changed), i)
                assert (len(steps), len(pushes)) == (rows, 4 * rows), (i, pair)


def test_a_cover_step_takes_four_push_forwards(monkeypatch):
    st = build_structure(SL2)
    target = integrate(constant_curve(st, (1.0, 0.2, 0.0), n=4)).endpoint
    pushes = _counted(monkeypatch, sl2cover, "push_forward")
    steps = _counted(monkeypatch, CoverModel, "step")
    model = st.model
    model.step(model.identity(), (0.9, 0.18, 0.0), 1.0 / 16)
    assert (len(steps), len(pushes)) == (1, 4)
    # a constant candidate of 16 rows is one run: one RK4 row from the identity, then powers
    search = _Search(st, target, 16, budget=1)
    for rb in ([0.9, 0.1], [1.1, -0.2]):
        steps.clear()
        pushes.clear()
        search.rollout(rb)
        assert (len(steps), len(pushes)) == (1, 4)


@pytest.mark.parametrize("case", [HEIS, SL2])
def test_an_identical_candidate_takes_no_step_and_keeps_the_last_score(monkeypatch, case):
    # a move that leaves its row's control as it was (the same pair, r clamped again, b
    # clamped again, a zero b's sign flipped) returns the kept score with no exponential,
    # no run element and no step, inside a run as well as on a run of one row (the cover
    # model takes no exponential: its run is one RK4 step from the identity)
    st = build_structure(case)
    target = integrate(constant_curve(st, (1.0, 0.2, 0.0), n=4)).endpoint
    incs = _counted(monkeypatch, type(st.model), "exp") if isinstance(st.model, SemidirectModel) else []
    elements = _counted(monkeypatch, type(st.model), "run")
    steps = _counted(monkeypatch, type(st.model), "step")
    search = _Search(st, target, 16, budget=1)
    rows = _distinct_theta(16)
    rows[[0, 4, 8]] = [[1e-9, 0.3], [1.0, 1.5], [0.9, 0.0]]
    same = [(0, [0.0, 0.3]), (1, [0.0, 0.3]), (4, [1.0, 3.0]), (5, [1.0, 3.0]), (8, [0.9, -0.0]),
            (10, [0.9, -0.0]), (3, None), (15, None)]
    for theta in (np.full((16, 2), [0.9, 0.1]), rows, np.repeat(rows[::4], 4, axis=0)):
        score = search.rollout(_listed(theta))
        search.keep()
        incs.clear()
        elements.clear()
        steps.clear()
        checked = 0
        for i, pair in same:
            if pair is None or (_controls(pair) == _controls(theta[i])).all():
                moved = theta.copy()
                moved[i] = theta[i] if pair is None else pair
                assert search.rollout(_listed(moved), i) == score
                checked += 1
        assert (len(incs), len(elements), len(steps)) == (0, 0, 0) and checked >= 2


def test_after_an_overflowing_candidate_the_last_one_still_scores_as_afresh():
    st = build_structure(SubLorentzCase("3", kappa=0.5))
    search = _search(st, 8)
    good = _distinct_theta(8)
    far = good.copy()
    far[3, 0] = 5000.0  # the exponential of this row overflows
    assert _hex(search.rollout(_listed(good))) == _fresh_score(st, search, good)
    search.keep()
    # a move whose exponential overflows leaves the kept candidate as it was
    ell, err = search.rollout(_listed(far), 3)
    assert math.isfinite(ell) and err == math.inf
    for i in range(8):
        moved = good.copy()
        moved[i] = [1.3, -0.4]
        assert _hex(search.rollout(_listed(moved), i)) == _fresh_score(st, search, moved)
    # moves from a kept candidate that overflowed, kept or not
    search.rollout(_listed(far))
    search.keep()
    for i in (5, 0, 3):
        moved = far.copy()
        moved[i] = [1.3, -0.4]
        assert _hex(search.rollout(_listed(moved), i)) == _fresh_score(st, search, moved)
    # the last move mends the overflowing row: kept, it is stepped from its runs again
    search.keep()
    moved[6] = [0.7, 0.2]
    score = search.rollout(_listed(moved), 6)
    assert math.isfinite(score[1]) and _hex(score) == _fresh_score(st, search, moved)


def test_an_overflowing_rotation_angle_scores_as_infeasible():
    # row 12 is of rotation type: the angle of [1e154, 0.5]'s exponential is inf, whose
    # cosine raised ValueError instead of OverflowError, which the rollout catches
    st = build_structure(SubLorentzCase("12", kappa=-1.0, chi=-1.0))
    search = _Search(st, target_from_exp2(st, (1, 0, 0)), 2, budget=1)
    ell, err = search.rollout([1e154, 0.5])
    assert math.isfinite(ell) and err == math.inf
    with pytest.raises(OverflowError):
        _exp_flow((0.0, 1.0, -1.0, 0.0), 1e308 * 10.0)
    with pytest.raises(OverflowError):
        build_structure(SU2).model.exp([1e308, 0.0, 0.0], 1e10)


def test_the_endpoint_error_is_a_plain_sum_of_squares():
    # on this vector a fused multiply-add chain, as a BLAS dot kernel may take
    # d0^2 + d1^2 + d2^2, rounds one unit in the last place below the plain sum
    # of the rounded squares, and their square roots differ too
    d = (-0.731, 0.695, 0.528)
    squares = [Fraction(v) ** 2 for v in d]
    plain = fused = float(squares[0])
    for sq in squares[1:]:
        plain += float(sq)
        fused = float(Fraction(fused) + sq)
    assert math.sqrt(plain) != math.sqrt(fused)
    assert _distance(d, (0.0, 0.0, 0.0)).hex() == math.sqrt(plain).hex()
    assert _distance((0.0, 0.0, 0.0), d).hex() == math.sqrt(plain).hex()
    # the search writes the sum out on three coordinates: it has _distance's bits on every
    # model, and on su2's four coordinates, and it is inf where the distance is not finite
    elements = {"semidirect": lambda c: (c[0], (c[1], c[2]), (1.0, 0.0, 0.0, 1.0)),
                "cover": lambda c: CoverElement(c[0], complex(c[1], c[2])), "su2": tuple}
    rng = np.random.default_rng(11)
    for case, kind in ((HEIS, "semidirect"), (SubLorentzCase("12", kappa=-1.0, chi=-1.0), "semidirect"),
                       (SL2, "cover"), (SU2, "su2")):
        st = build_structure(case)
        search = _search(st, 4)
        dim = len(search.tcoords)
        draws = [rng.normal(size=dim) * 10.0 ** rng.uniform(-9, 3, size=dim) for _ in range(300)]
        for coords in [np.zeros(dim), d + (0.0,) * (dim - 3)] + draws:
            for target in (search.tcoords, (0.0,) * dim):
                search.tcoords = target
                x = elements[kind](coords.tolist() if isinstance(coords, np.ndarray) else coords)
                assert search._error(x).hex() == _distance(st.model.coords(x), target).hex()
        for coords in ([1e200, -1e200] + [0.0] * (dim - 2), [math.inf] + [0.0] * (dim - 1),
                       [math.nan] + [0.0] * (dim - 1), [0.0] * (dim - 1) + [-math.inf]):
            x = elements[kind](coords)
            assert not math.isfinite(_distance(st.model.coords(x), search.tcoords))
            assert search._error(x) == math.inf


# maximize on 8 steps to the endpoint of 8 equal rows of a control: a row 19 input whose
# length reads otherwise when the cover frame or its products take fused multiply-adds, and
# a row 3 input whose length does when the logarithm's start or the grid range takes them
_KERNEL_PROBE = """
import json
from sublorentz.liealg3 import SubLorentzCase
from sublorentz.longarc import ControlCurve, build_structure, integrate, maximize
out = []
for case, u, budget, seed in (
        (SubLorentzCase("19", kappa=0.4648247756055284, chi=0.7394083751846701),
         [0.6970462835283949, -0.07529927905985247, 0.0], 800, 1509563077),
        (SubLorentzCase("3", tau=2.0, variant=1), [1.026544826966286, 0.0014677137658417744, 0.0], 400, 779176820)):
    st = build_structure(case)
    res = maximize(st, integrate(ControlCurve(1.0 / 8, [u] * 8, st)).endpoint, n_steps=8, budget=budget, seed=seed)
    out.append((res.length.hex(), res.endpoint_error.hex()))
print(json.dumps(out))
"""


def _under_both_kernels(probe: str) -> list[str]:
    """What ``probe`` prints in a child interpreter under the host's default BLAS kernel, then under
    Prescott's, which has no fused multiply-add where an AVX2 or AVX-512 host picks ones that do."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                                                      env.get("PYTHONPATH")]))
    return [subprocess.run([sys.executable, "-c", probe], env=e, capture_output=True, text=True, check=True)
            .stdout for e in (env, {**env, "OPENBLAS_CORETYPE": "Prescott"})]


_X86_64_ONLY = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                                  reason="OPENBLAS_CORETYPE names x86-64 kernels")


@_X86_64_ONLY
def test_solve_floats_do_not_depend_on_the_blas_kernel():
    out = _under_both_kernels(_KERNEL_PROBE)
    assert out[0] == out[1]
    assert len(json.loads(out[0])) == 2


# the Killing forms of seeded draws of rows 6, 8 and 19, and a row 19 cover frame: numpy's
# matrix products took fused multiply-adds on some kernels and read otherwise on these
_KILLING_PROBE = """
import numpy as np
from sublorentz.liealg3 import SubLorentzCase, from_case
from sublorentz.longarc import sl2_cover_frame
from sublorentz.oracle import sample_case
rng = np.random.default_rng(1729)
for cid in ("6", "8", "19"):
    for i in range(60):
        print(cid, i, np.array(from_case(sample_case(cid, rng, i)).killing_form()).tobytes().hex())
frame = sl2_cover_frame(from_case(SubLorentzCase("19", kappa=1.1905580696825613, chi=-0.7963636471793467)))
print([[x.hex() for x in row] for row in frame])
"""


@_X86_64_ONLY
def test_the_killing_form_and_the_cover_frame_do_not_depend_on_the_blas_kernel():
    out = _under_both_kernels(_KILLING_PROBE)
    assert out[0] == out[1]
    assert len(out[0].splitlines()) == 181


@settings(max_examples=300, deadline=None)
@given(hs.one_of(hs.floats(2.5, 1.7976931348623157e308), hs.just(math.inf)))
def test_the_grid_has_the_floats_of_numpy_linspace(r_hi):
    # over the range of r_hi, whose largest values overflow the product numpy takes for the last point
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, n in ((0.15, r_hi, 12), (-0.95, 0.95, 13)):
            assert [v.hex() for v in longarc._grid(lo, hi, n)] == [v.hex() for v in np.linspace(lo, hi, n).tolist()]


def _dot_error_bound(a, b) -> Fraction:
    """gamma_3 sum |a_i b_i|: the forward error bound of a three-term dot product summed in floats."""
    u = Fraction(1, 2 ** 53)
    return 3 * u / (1 - 3 * u) * sum(abs(Fraction(x) * Fraction(y)) for x, y in zip(a, b))


def test_the_quaternion_angle_is_accurate():
    # theta = sqrt(v . v) on Python floats, against the square root of the exact sum in 40 digits
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(2000):
        v = (rng.uniform(-1, 1, 3) * 10.0 ** rng.uniform(-2, 2, 3) * 10.0 ** rng.uniform(-100, 100)).tolist()
        theta = math.sqrt(longarc._dot(v, v))
        with decimal.localcontext(decimal.Context(prec=40)):
            exact = sum(Fraction(c) ** 2 for c in v)
            want = (decimal.Decimal(exact.numerator) / decimal.Decimal(exact.denominator)).sqrt()
            worst = max(worst, float(abs(decimal.Decimal(theta) - want) / want))
    # half of gamma_3 for the sum of squares, plus the root's own rounding, in units of 2^-53
    assert worst <= 2.5 * 2.0 ** -53, worst


def test_the_cover_frame_is_accurate():
    # F = diag(-1, 1, 1) P K / 8, entry by entry against the exact products of the same axes and form
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        for cid in sorted(SL2_CASES):
            for n in range(20):
                alg = from_case(sample_case(cid, rng, n))
                F = sl2_cover_frame(alg)
                assert type(F) is tuple and all(type(c) is float for row in F for c in row)
                K = alg.killing_form()
                T, S1, S2 = killing_axes(K)[1]
                exact = lambda a, b: sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))
                if exact(T, K[0]) > 0:
                    T = [-t for t in T]
                if exact([exact(S2, col) for col in K], alg.bracket(T, S1)) < 0:
                    S2 = [-t for t in S2]
                for got, row in zip(F, ([-t for t in T], S1, S2)):
                    for g, col in zip(got, K):
                        assert abs(Fraction(g) - exact(row, col) / 8) <= _dot_error_bound(row, col) / 8


@pytest.mark.parametrize("case", ROUND_TRIP_CASES + (SubLorentzCase("2*", kappa=-1.0, tau=1.5),
                                                     SubLorentzCase("7", tau=1e9)), ids=lambda c: c.case_id)
def test_unsplit_is_accurate(case):
    # the transposed frame times (a, v0, v1), against the exact products of the same frame
    model = build_structure(case).model
    columns = list(zip(*model._frame))
    rng = np.random.default_rng(47)
    for a, v0, v1 in (rng.uniform(-1, 1, (200, 3)) * 10.0 ** rng.uniform(-5, 5, (200, 3))).tolist():
        got = model.unsplit(a, (v0, v1))
        assert type(got) is tuple and all(type(c) is float for c in got)
        for g, col in zip(got, columns):
            exact = sum(Fraction(x) * Fraction(y) for x, y in zip(col, (a, v0, v1)))
            assert abs(Fraction(g) - exact) <= _dot_error_bound(col, (a, v0, v1))


def test_a_non_finite_endpoint_scores_an_error_of_inf():
    # the Heisenberg exponential makes no transcendental call, so a huge control
    # overflows in the arithmetic of the product instead of raising
    st = build_structure(HEIS)
    search = _Search(st, target_from_exp2(st, (1.0, 0.0, 0.0)), 2, budget=1)
    for theta in ([1e200, 0.5], [1e200, 0.5, 1e200, -0.5]):
        curve = ControlCurve(search.dt, _controls(theta * (4 // len(theta))), st)
        coords = st.model.coords(integrate(curve).endpoint)
        assert not all(map(math.isfinite, coords))
        assert math.isnan(_distance(coords, search.tcoords))
        assert search.rollout(theta)[1] == math.inf
    # as a move of one row of a kept candidate that scored finite
    assert search.rollout([0.9, 0.1, 0.9, 0.1])[1] < math.inf
    search.keep()
    assert search.rollout([0.9, 0.1, 1e200, -0.5], 1)[1] == math.inf


@pytest.mark.parametrize("case", [HEIS, SubLorentzCase("12", kappa=-1.0, chi=-1.0), SL2])
def test_the_result_curve_has_the_reported_length_and_endpoint_error(case):
    # the best candidate is kept as its full theta, whichever kind it was
    st = build_structure(case)
    rows = [[1.0, 0.2, 0.0], [0.8, -0.3, 0.0], [1.1, 0.5, 0.0], [0.9, 0.0, 0.0]]
    target = integrate(ControlCurve(0.25, rows, st)).endpoint
    res = maximize(st, target, n_steps=8, budget=2000, seed=3)
    assert res.found and len(np.unique(res.curve.to_json()["controls"], axis=0)) > 1
    err = _distance(st.model.coords(integrate(res.curve).endpoint), st.model.coords(target))
    assert (length(res.curve).hex(), err.hex()) == (res.length.hex(), res.endpoint_error.hex())


def test_maximize_heisenberg_recovers_straight_arc():
    st = build_structure(HEIS)
    target = target_from_exp2(st, (1.0, 0.0, 0.0))
    res = maximize(st, target, n_steps=32, budget=3000, seed=11)
    assert res.found
    bound = distance_upper_bound(st, target, np.array(check_case(HEIS).witness))
    assert 0.98 <= res.length <= bound + 1e-9
    assert res.endpoint_error <= 1e-4
    for u in res.curve.to_json()["controls"]:
        assert u[0] > 0 and abs(u[1]) <= u[0]


def test_maximize_null_target_len_near_zero():
    st = build_structure(HEIS)
    target = st.model.exp(np.array([1.0, 1.0, 0.0]), 1.0)
    res = maximize(st, target, n_steps=16, budget=2000, seed=11)
    assert res.found and res.length <= 0.02


def test_maximize_reports_not_found_for_unattainable_target():
    st = build_structure(HEIS)
    # downward drift in the third coordinate cannot be produced by cone controls
    target = (0.0, np.array([-1.0, 0.0]))
    res = maximize(st, target, n_steps=8, budget=600, seed=11)
    assert not res.found


def test_maximize_monotone_in_budget():
    st = build_structure(HEIS)
    target = target_from_exp2(st, (1.0, 0.0, 0.0))
    lengths = [maximize(st, target, n_steps=16, budget=b, seed=3).length
               for b in (400, 1200, 2500)]
    assert all(lengths[i] <= lengths[i + 1] + 1e-12 for i in range(len(lengths) - 1))


def test_maximize_recovers_cover_probe():
    st = build_structure(SL2)
    probe = constant_curve(st, (1.0, 0.3, 0.0), n=24)
    target = integrate(probe).endpoint
    res = maximize(st, target, n_steps=24, budget=3000, seed=5)
    assert res.found
    assert res.length >= 0.98 * length(probe)


@pytest.mark.parametrize("n_steps", [1, 2, 3])
def test_a_coarse_cover_solve_ends_in_its_result(n_steps):
    # at one to three rows over unit time an RK4 row's angle passes pi/2, so the power of
    # a run factors out the centre; the search still ends in its result, and a found
    # curve integrates to the endpoint error it reports
    st = build_structure(SL2)
    target = CoverElement(0.7775644, 0.0812746 + 0j)
    res = maximize(st, target, n_steps=n_steps, budget=300, seed=longarc.DEFAULT_SEED)
    if res.found:
        end = integrate(res.curve).endpoint
        assert _distance(st.model.coords(end), st.model.coords(target)) == res.endpoint_error


def test_solver_respects_subcone_structures():
    narrow = build_structure(HEIS, cone=SegmentCone((1, 0, 0), (0, 1, 0), 0.5))
    target = target_from_exp2(narrow, (1.0, 0.0, 0.0))
    res = maximize(narrow, target, n_steps=8, budget=800, seed=2)
    assert res.found
    for u in res.curve.to_json()["controls"]:
        assert abs(u[1]) <= 0.5 * u[0] + 1e-12


def test_the_search_proposes_no_row_outside_a_narrow_cone(monkeypatch):
    # the target of the constant control (1, 0.8, 0), off the axis and outside the cone
    # |x2| <= x1 / 2: no admissible curve reaches it, and no candidate leaves the cone
    narrow = build_structure(HEIS, cone=SegmentCone((1, 0, 0), (0, 1, 0), 0.5))
    target = integrate(ControlCurve(1 / 8, [(1.0, 0.8, 0.0)] * 8, build_structure(HEIS))).endpoint
    control, rows = longarc._control, []

    def recorded(*args):
        rows.append(control(*args))
        return rows[-1]

    monkeypatch.setattr(longarc, "_control", recorded)
    res = maximize(narrow, target, n_steps=8, budget=800, seed=2)
    assert rows and all(contains(narrow.cone, u) for u in rows)
    assert not res.found and res.curve is None


def test_the_search_needs_a_cone_that_holds_its_controls():
    # the clamp on b is _B_MAX itself on the default cone, so no default-cone solve moves
    assert longarc._b_max(DEFAULT_CONE) == _B_MAX
    assert longarc._b_max(SegmentCone((2, 0, 0), (0, -0.5, 0), 3.0)) == _B_MAX * 0.75
    cover = build_structure(SL2, cone=SegmentCone((1, 0, 0), (0, 0, 1)))
    tilted = build_structure(HEIS, cone=SegmentCone((1, 0.1, 0), (0, 1, 0), 0.5))
    for st in (cover, tilted):
        with pytest.raises(ValueError, match="needs a segment cone whose u1 is a positive multiple of X1"):
            maximize(st, st.model.identity(), n_steps=4, budget=10)


def reference_descend(self, x, mu, step, margin, floor, box):
    """The descent loop that scores every move in full: no move is skipped as already
    failed, and none is ruled out by its length."""
    used = 1
    current = self.score(x, mu)
    self.keep()
    while used < box:
        improved = False
        for i in range(len(x)):
            xi = x[i]
            for delta in (step, -step):
                if used >= box:
                    return x
                x[i] = xi + delta
                val = self.score(x, mu, i >> 1)
                used += 1
                if val > current + margin:
                    current, improved = val, True
                    self.keep()
                    break
                x[i] = xi
        if not improved:
            step *= 0.5
            if step < floor:
                break
    return x


# rows 1, 3, 12, 13 (semidirect), 19, 2 and both branches of 10 (cover)
_DESCENT_ROWS = [("1", 0, 4, 6000), ("3", 0, 4, 6000), ("12", 0, 4, 6000), ("13", 0, 4, 6000),
                 ("19", 0, 4, 2500), ("2", 0, 4, 2500), ("10", 0, 4, 2500), ("10", 1, 4, 2500)]


def _probe_target(st, rng, n: int, runs: int):
    """The endpoint of n rows in one or two runs of drawn cone controls (r, r b, 0)."""
    rows = [[r, r * b, 0.0] for r, b in zip(rng.uniform(0.6, 1.2, 2), rng.uniform(-0.5, 0.5, 2))]
    head = n // 2 if runs == 2 else n
    return integrate(ControlCurve(1.0 / n, [rows[0]] * head + [rows[1]] * (n - head), st)).endpoint


def _spied_solve(monkeypatch, st, target, n: int, budget: int, seed: int, bound=True):
    """maximize, with the numbers of the evaluations that were counted without a rollout
    (skipped), those whose rollout ruled them out before any step (pruned), each with its
    kind, the grid's or the descents', and the search's path: the start and arguments of each
    descent, the constant descents' starts being the grid's first three.  With ``bound``
    False the search reads no homomorphism coordinate, so its error bound is 0 and only the
    length rules out; with ``bound`` "t" it reads the endpoint's t alone."""
    counted, rolled, pruned, path = [], set(), {}, []
    count, rollout, descend, init = _Search.count, _Search.rollout, _Search._descend, _Search.__init__

    def spy_count(self):
        count(self)
        counted.append(self.evals)

    def spy_rollout(self, theta, row=None, mu=0.0, bar=None, cap=math.inf):
        rolled.add(self.evals)
        rollouts = self.rollouts
        out = rollout(self, theta, row, mu, bar, cap)
        if self.rollouts == rollouts and out is not self._score:  # not the kept score of an unmoved row
            pruned[self.evals] = "grid" if bar is None else "descents"
        return out

    def spy_descend(self, x, *args):
        path.append((list(x), args))
        return descend(self, x, *args)

    def init_with_a_cut_bound(self, *args):
        init(self, *args)
        self._homs = self._homs[:1] if bound == "t" else ()

    with monkeypatch.context() as m:
        m.setattr(_Search, "count", spy_count)
        m.setattr(_Search, "rollout", spy_rollout)
        m.setattr(_Search, "_descend", spy_descend)
        if bound is not True:
            m.setattr(_Search, "__init__", init_with_a_cut_bound)
        res = maximize(st, target, n_steps=n, budget=budget, seed=seed)
    return res, [e for e in counted if e not in rolled], pruned, path


@pytest.mark.parametrize("cid, index, n, budget", _DESCENT_ROWS)
def test_the_descents_give_the_bytes_of_the_loop_that_scores_every_move(monkeypatch, cid, index, n, budget):
    # skipping failed moves and moves that their length rules out changes no accepted
    # move, no best and no count: the result's bytes and evaluations are those of the loop
    # that rolls every candidate out, also for budgets that end on a skipped candidate and
    # on a pruned one
    kinds = set()
    for seed, runs in ((3, 2), (11, 1)):
        rng = np.random.default_rng(seed)
        st = build_structure(sample_case(cid, rng, index))
        target = _probe_target(st, rng, n, runs)
        res, skipped, pruned, _ = _spied_solve(monkeypatch, st, target, n, budget, seed)
        assert 0 < res.rollouts <= res.evaluations - len(skipped) - len(pruned)
        budgets = [budget] + [evals[len(evals) // 2] for evals in (skipped, sorted(pruned)) if evals]
        kinds.update(kind for kind, evals in (("skipped", skipped), ("pruned", pruned)) if evals)
        for b in budgets:
            got = maximize(st, target, n_steps=n, budget=b, seed=seed)
            with monkeypatch.context() as m:
                m.setattr(_Search, "_descend", reference_descend)
                want = maximize(st, target, n_steps=n, budget=b, seed=seed)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json()), (seed, b)
            assert got.evaluations == want.evaluations == b
    assert kinds == {"skipped", "pruned"}


@pytest.mark.parametrize("cid", ["1", "2*", "3", "12", "13"])
def test_the_error_bound_rules_out_candidates_without_changing_a_byte(monkeypatch, cid):
    # ruling grid candidates and descent moves out by the error bound changes no byte, no
    # count and no descent's start: those of the search with the bound off, for budgets that
    # end inside the grid (at 60, and at 157, where it ends after the log start), on a
    # candidate of each kind that only the bound rules out, and at the full budget.  The
    # target of one run is found from the log start, that of two runs is not found at all
    rng = np.random.default_rng(5)
    st = build_structure(sample_case(cid, rng, 0))
    n, budget, seed = 8, 1600, 7
    for runs in (1, 2):
        target = _probe_target(st, rng, n, runs)
        _, _, pruned, _ = _spied_solve(monkeypatch, st, target, n, budget, seed)
        _, _, by_length, _ = _spied_solve(monkeypatch, st, target, n, budget, seed, bound=False)
        assert by_length.items() <= pruned.items()
        by_bound = {kind: sorted(e for e, k in pruned.items() if k == kind and e not in by_length)
                    for kind in ("grid", "descents")}
        assert by_bound["grid"] and by_bound["descents"]
        for b in [60, 157] + [evals[len(evals) // 2] for evals in by_bound.values()] + [budget]:
            got, _, _, path = _spied_solve(monkeypatch, st, target, n, b, seed)
            want, _, _, want_path = _spied_solve(monkeypatch, st, target, n, b, seed, bound=False)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json()) and path == want_path, (runs, b)
            assert got.evaluations == want.evaluations == b and got.rollouts <= want.rollouts
        assert got.found == (runs == 1) and len(path) > 3 and got.rollouts < want.rollouts


@pytest.mark.parametrize("cid", ["1", "2*"])
def test_the_q1_term_of_the_bound_rules_out_more_without_changing_a_byte(monkeypatch, cid):
    # on rows 1 and 2* the bound reads t and q1, the coordinates of G/[G,G]: it changes no byte,
    # no count and no descent's start against the bound cut to t, for a budget that ends inside
    # the grid, one that ends on a candidate that only the q1 term rules out, and the full
    # budget, and it steps fewer candidates
    rng = np.random.default_rng(5)
    st = build_structure(sample_case(cid, rng, 0))
    n, budget, seed = 8, 1600, 7
    for runs in (1, 2):
        target = _probe_target(st, rng, n, runs)
        _, _, pruned, _ = _spied_solve(monkeypatch, st, target, n, budget, seed)
        _, _, by_t, _ = _spied_solve(monkeypatch, st, target, n, budget, seed, bound="t")
        assert by_t.items() <= pruned.items()
        by_q1 = sorted(e for e in pruned if e not in by_t)
        assert by_q1
        for b in (60, by_q1[len(by_q1) // 2], budget):
            got, _, _, path = _spied_solve(monkeypatch, st, target, n, b, seed)
            want, _, _, want_path = _spied_solve(monkeypatch, st, target, n, b, seed, bound="t")
            assert json.dumps(got.to_json()) == json.dumps(want.to_json()) and path == want_path, (runs, b)
            assert got.evaluations == want.evaluations == b and got.rollouts <= want.rollouts
        assert got.rollouts < want.rollouts


def test_the_heisenberg_cli_solve_steps_at_most_a_fifth_of_its_candidates():
    # the same solve: the endpoint's t and q1, which G/[G,G] reads, rule out most grid
    # candidates and moves before any step
    st = build_structure(HEIS)
    res = maximize(st, target_from_exp2(st, (1.0, 0.0, 0.0)), n_steps=32, budget=10000)
    assert res.evaluations == 10000 and 0 < res.rollouts <= 2000


def test_the_heisenberg_cli_solve_steps_at_most_half_its_candidates():
    # the solve of `sublorentz solve --case 1 --kappa 0 --target [1,0,0] --steps 32 --budget
    # 10000`: most of its moves are ruled out by their length or failed from the same point
    st = build_structure(HEIS)
    res = maximize(st, target_from_exp2(st, (1.0, 0.0, 0.0)), n_steps=32, budget=10000)
    assert res.evaluations == 10000 and 0 < res.rollouts <= 0.5 * res.evaluations
    assert "rollouts" not in res.to_json()


# -- unbounded-length loops --------------------------------------------------------------

def test_su2_witness_reaches_demanded_lengths():
    st = build_structure(SU2)
    for demand in (10.0, 100.0):
        curve = su2_unbounded_witness(st, demand)
        assert length(curve) >= demand
        end = integrate(curve).endpoint
        err = np.linalg.norm(np.subtract(st.model.coords(end), st.model.coords(st.model.identity())))
        assert err <= 1e-8


def test_su2_witness_preserves_base_endpoint():
    st = build_structure(SU2)
    base = constant_curve(st, (1.0, 0.2, 0.0), n=20, total=0.7)
    base_end = st.model.coords(integrate(base).endpoint)
    curve = su2_unbounded_witness(st, 25.0, base_curve=base)
    assert length(curve) >= 25.0
    end = st.model.coords(integrate(curve).endpoint)
    assert np.linalg.norm(np.subtract(end, base_end)) <= 1e-8


def test_su2_witness_length_reaches_demand_with_a_base():
    st = build_structure(SU2)
    # demand = 2 loops + base, each summed per run (a row-by-row sum came out one unit in
    # the last place short of it, at 25.532741228718308)
    base = ControlCurve(0.2, [[1.0, 0.0, 0.0]] * 2, st)
    loop_len = length(su2_unbounded_witness(st, 1.0, base_curve=base).loop)
    demand = 2 * loop_len + length(base)
    assert demand == 25.532741228718344
    assert length(su2_unbounded_witness(st, demand, base_curve=base)) >= demand
    rng = np.random.default_rng(6)
    for dt in np.linspace(0.05, 0.9, 12):
        for n_base in (1, 2, 3, 5, 8):
            rows = np.column_stack([rng.uniform(0.5, 2.0, n_base), rng.uniform(-0.4, 0.4, n_base),
                                    np.zeros(n_base)])
            base = ControlCurve(float(dt), rows, st)
            loop_len = length(su2_unbounded_witness(st, 1.0, base_curve=base).loop)
            for j in range(1, 8):
                demand = j * loop_len + length(base)
                # and one or two units in the last place above, where the quotient rounds down
                for d in (demand, np.nextafter(demand, math.inf), demand + 2 * math.ulp(demand)):
                    curve = su2_unbounded_witness(st, float(d), base_curve=base)
                    assert length(curve) >= d
                    assert curve.repeat <= j + 1


def looped(loop: ControlCurve, repeat: int, base=None) -> ControlCurve:
    """``repeat`` traversals of the curve ``loop``, then the optional ``base`` curve."""
    return ControlCurve.from_runs(loop.dt, () if base is None else base.runs, loop.structure, loop.runs, repeat)


def _expanded(curve: ControlCurve) -> ControlCurve:
    rows = curve.loop.to_json()["controls"] * curve.repeat
    rows += ControlCurve.from_runs(curve.dt, curve.runs, curve.structure).to_json()["controls"]
    return ControlCurve(curve.dt, rows, curve.structure)


def _cone_rows(n: int):
    return hs.lists(hs.tuples(hs.floats(0.2, 2.0), hs.floats(-0.9, 0.9)), min_size=n, max_size=8).map(
        lambda rb: np.array([[r, r * b, 0.0] for r, b in rb]))


@settings(max_examples=60, deadline=None)
@given(hs.sampled_from([SU2, HEIS, SubLorentzCase("9", kappa=0.3, chi=-2.0)]), hs.floats(0.01, 0.5),
       _cone_rows(1), hs.integers(1, 5), hs.one_of(hs.none(), _cone_rows(1)))
def test_looped_curve_matches_its_expanded_rows(case, dt, loop_rows, repeat, base_rows):
    st = build_structure(case)
    base = None if base_rows is None else ControlCurve(dt, base_rows, st)
    curve = looped(ControlCurve(dt, loop_rows, st), repeat, base)
    flat = _expanded(curve)
    got, want = integrate(curve), integrate(flat)
    assert np.allclose(st.model.coords(got.endpoint), st.model.coords(want.endpoint), rtol=0.0, atol=1e-12)
    assert np.array_equal(got.trajectory[-1], st.model.coords(got.endpoint))
    if repeat == 1:
        assert np.array_equal(got.trajectory, want.trajectory)
    assert abs(length(curve) - length(flat)) <= 1e-12 * max(1.0, length(flat))


@pytest.mark.parametrize("case,u", [(HEIS, (1.0, 0.4, 0.0)), (SU2, (1.0, -0.3, 0.0)), (SL2, (0.9, 0.18, 0.0))])
def test_plain_curve_runs_as_a_loop_repeated_once(case, u):
    st = build_structure(case)
    rows = np.array(u) * np.linspace(0.5, 1.5, 9)[:, None]
    curve = ControlCurve(0.1, rows, st)
    got, want = integrate(curve), integrate(looped(curve, 1))
    assert np.array_equal(st.model.coords(got.endpoint), st.model.coords(want.endpoint))
    assert np.array_equal(got.trajectory, want.trajectory)
    x = st.model.identity()
    for row, sample in zip(rows, got.trajectory[1:]):
        # a cover run of one row is the RK4 row from the identity, translated to x
        x = (st.model.multiply(x, st.model.step(st.model.identity(), row, 0.1)) if case is SL2
             else st.model.step(x, st.model.exp(row, 0.1)))
        assert np.array_equal(sample, st.model.coords(x))
    assert length(curve) == length(looped(curve, 1))


def test_looped_curve_checks_every_encoded_row():
    st = build_structure(HEIS)
    loop = ControlCurve(0.1, [[1.0, 0.0, 0.0]] * 3, st)
    with pytest.raises(ValueError, match="control 4 lies outside"):
        integrate(looped(loop, 2, ControlCurve(0.1, [[1.0, 0.5, 0.0], [1.0, 2.0, 0.0]], st)))
    with pytest.raises(ValueError, match="control 1 is zero"):
        integrate(looped(ControlCurve(0.1, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], st), 3))
    with pytest.raises(ValueError, match="nonnegative"):
        looped(loop, -1)


@pytest.mark.parametrize("case", [HEIS, SU2, SL2])
def test_a_run_count_that_is_not_a_positive_integer_is_a_named_error(case):
    st = build_structure(case)
    for count in (-2, 0, 2.5, 2.0, None):
        bad = (((1.0, 0.0, 0.0), count),)
        for runs, loop_runs in ((bad, ()), ((), bad)):
            with pytest.raises(ValueError, match="a run's count must be a positive integer"):
                ControlCurve.from_runs(0.1, runs, st, loop_runs, 2)
    curve = ControlCurve.from_runs(0.1, (((1.0, 0.0, 0.0), np.int64(2)),), st, (((1.0, 0.5, 0.0), 1),), 2)
    assert len(integrate(curve).trajectory) == 5  # the identity, the block's row, its square and two rows


@pytest.mark.parametrize("case", [HEIS, SU2, SL2])
def test_a_run_row_that_is_not_three_real_numbers_is_a_named_error(case):
    st = build_structure(case)
    for row in ((1.0, 0.0), (1.0, 0.0, 0.0, 0.0), 1.0, None, "1,0", ("1", 0.0, 0.0), (1.0, None, 0.0),
                (True, 0.0, 0.0), (1.0, 1j, 0.0), np.ones((3, 1)), {1.0: 0, 0.0: 1, 2.0: 2}):
        bad = ((row, 2),)
        for runs, loop_runs in ((bad, ()), ((), bad)):
            with pytest.raises(ValueError, match="a run's row must be three real numbers"):
                ControlCurve.from_runs(0.1, runs, st, loop_runs, 2)
    # a list, an array, integers and numpy floats are rows
    for row in ([1.0, 0.5, 0.0], np.array([1.0, 0.5, 0.0]), (1, 0, 0), (np.float64(1.0), np.int64(0), 0.0)):
        curve = ControlCurve.from_runs(0.1, ((row, 2),), st, ((row, 1),), 2)
        assert len(integrate(curve).trajectory) == 5  # the identity, the block's row, its square and two rows


@pytest.mark.parametrize("loop_runs", [(((1.2, 0.5, 0.0), 4),), (((1.0, 0.3, 0.0), 3), ((0.8, -0.2, 0.0), 2))])
@pytest.mark.parametrize("k", [2, 3, 7, 39, 1000])
def test_a_repeated_cover_block_is_raised_by_the_closed_form_power(loop_runs, k):
    st, dt, u = build_structure(SL2), 0.1, (0.9, 0.1, 0.0)
    curve = ControlCurve.from_runs(dt, ((u, 2),), st, loop_runs, k)
    block = integrate(curve.loop).endpoint
    want = st.model.multiply(sl2cover.power(block, k), st.model.run(u, 2, dt))
    assert [v.hex() for v in _flat(integrate(curve).endpoint)] == [v.hex() for v in _flat(want)]


def _coord_bits(coords) -> list:
    return [float(c).hex() for c in coords]


def test_a_witness_curve_is_its_runs(monkeypatch):
    calls = {"contains": 0, "nu": 0}
    real_contains = longarc.contains

    def counted_contains(cone, v, strict=False):
        calls["contains"] += 1
        return real_contains(cone, v, strict)

    def counted_nu(u):
        calls["nu"] += 1
        return LORENTZIAN(u)

    monkeypatch.setattr(longarc, "contains", counted_contains)
    st = build_structure(SU2, anti_norm=AntiNorm(counted_nu, "counted"))
    curve = su2_unbounded_witness(st, 1e6, steps_per_loop=MAX_STEPS)
    assert len(curve.loop_runs) == 1 and curve.loop_runs[0][1] == MAX_STEPS and curve.runs == ()
    row = curve.loop_runs[0][0]
    base = ControlCurve(curve.dt, [[1.0, 0.2, 0.0]] * 3 + [[1.0, -0.1, 0.0], [1.0, 0.2, 0.0]], st)
    with_base = su2_unbounded_witness(st, 1e6, base_curve=base)
    assert with_base.loop_runs == curve.loop_runs and with_base.runs == base.runs and len(base.runs) == 3
    # integrate and length each take one value per run: a cone check and an anti-norm value
    for c, runs in ((curve, 1), (with_base, 4)):
        calls.update(contains=0, nu=0)
        integrate(c)
        length(c)
        assert calls == {"contains": runs, "nu": runs}
    data = curve.to_json()
    assert data["loop_rows"] == len(data["controls"]) == MAX_STEPS
    assert data["controls"] == [list(row)] * MAX_STEPS
    assert np.array_equal(curve.loop.to_json()["controls"], np.tile(row, (MAX_STEPS, 1)))


def test_equal_rows_keep_their_bits_in_a_curve():
    # rows that differ only in the sign of a zero compare equal: they are stepped and
    # measured as one run, and each is printed as it was given
    st = build_structure(HEIS)
    rows = [[1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.1, 0.0]]
    curve = ControlCurve(0.25, rows, st)
    assert json.dumps(curve.to_json()["controls"]) == json.dumps(rows)
    assert curve.to_json()["controls"] == rows
    assert [k for _, k in curve.runs] == [1, 1, 1, 1]
    assert [k for _, k in longarc._merged(curve.runs)] == [3, 1]
    joined = ControlCurve(0.25, [[1.0, 0.0, 0.0]] * 3 + [[0.5, 0.1, 0.0]], st)
    ends = [st.model.coords(integrate(c).endpoint) for c in (curve, joined)]
    assert _coord_bits(ends[0]) == _coord_bits(ends[1])
    assert length(curve).hex() == length(joined).hex()


@pytest.mark.parametrize("case", [HEIS, SU2, SL2])
@pytest.mark.parametrize("repeat", [0, 1, 3])
@pytest.mark.parametrize("with_base", [False, True])
def test_the_trajectory_ends_at_the_endpoint_to_the_bit(case, repeat, with_base):
    st = build_structure(case)
    loop = ControlCurve(0.1, [[1.0, 0.2, 0.0]] * 3 + [[0.8, -0.1, 0.0]] * 2, st)
    # the base starts with the block's last row, so that with repeat 1 a run crosses into it
    base = ControlCurve(0.1, [[0.8, -0.1, 0.0], [1.0, 0.3, 0.0]], st) if with_base else None
    curve = looped(loop, repeat, base)
    rows = 1 + (5 if repeat == 1 else 6 if repeat > 1 else 0) + (2 if with_base else 0)
    for trajectory_first in (True, False):
        res = integrate(curve)
        if trajectory_first:
            trajectory = res.trajectory
        end = st.model.coords(res.endpoint)
        if not trajectory_first:
            trajectory = res.trajectory
        assert res.trajectory is trajectory and trajectory.shape == (rows, len(end))
        assert _coord_bits(trajectory[-1].tolist()) == _coord_bits(end)


def test_su2_witness_powered_endpoint_stays_on_the_unit_sphere():
    st = build_structure(SU2)
    identity = st.model.coords(st.model.identity())
    for demand in (1e6, 1e9, 1e12):
        curve = su2_unbounded_witness(st, demand)
        end = st.model.coords(integrate(curve).endpoint)
        assert abs(np.linalg.norm(end) - 1.0) <= 1e-12
        assert np.linalg.norm(np.subtract(end, identity)) <= ENDPOINT_TOL


def test_su2_witness_rejections():
    st = build_structure(SU2)
    with pytest.raises(ValueError, match="positive"):
        su2_unbounded_witness(st, 0.0)
    with pytest.raises(ValueError, match=f"steps per loop must be <= {MAX_STEPS}"):
        su2_unbounded_witness(st, 10.0, steps_per_loop=MAX_STEPS + 1)
    assert len(su2_unbounded_witness(st, 10.0, steps_per_loop=MAX_STEPS).loop.to_json()["controls"]) >= MAX_STEPS
    with pytest.raises(ValueError, match="case 9"):
        su2_unbounded_witness(build_structure(HEIS), 5.0)


# -- plumbing -----------------------------------------------------------------------------

def _python_floats(x) -> bool:
    """True iff x is a float, or a tuple or list of them at any depth; numpy.float64 subclasses
    float, so the type is compared exactly."""
    if isinstance(x, (tuple, list)):
        return all(map(_python_floats, x))
    return type(x) is float


def test_the_algebra_answers_in_python_floats_and_each_model_steps_in_one_part():
    rng = np.random.default_rng(40)
    for cid in CASE_IDS:
        for i in range(2):
            alg = from_case(sample_case(cid, rng, i))
            K = alg.killing_form()
            results = [alg.bracket(*rng.normal(size=(2, 3))), alg.bracket(*rng.normal(size=(2, 3)).tolist()),
                       K, alg.derived_subalgebra()] + ([killing_axes(K)] if cid in SL2_CASES else [])
            for result in results:
                assert isinstance(result, (tuple, list)) and _python_floats(result), (cid, result)
    for case in (HEIS, SU2, SL2):
        assert not hasattr(build_structure(case).model, "increment")


def test_curve_json_shape():
    st = build_structure(HEIS)
    curve = constant_curve(st, (1.0, 0.5, 0.0), n=3)
    data = curve.to_json()
    assert set(data) == {"dt", "controls"}
    assert len(data["controls"]) == 3 and len(data["controls"][0]) == 3
    data = looped(curve, 7, constant_curve(st, (1.0, 0.0, 0.0), n=2, total=2 / 3)).to_json()
    assert list(data) == ["dt", "controls", "loop_rows", "repeat"]
    assert data["loop_rows"] == 3 and data["repeat"] == 7
    assert data["controls"] == [[1.0, 0.5, 0.0]] * 3 + [[1.0, 0.0, 0.0]] * 2


def test_curve_json_rows_are_the_floats_of_each_row():
    st = build_structure(HEIS)
    rows = [[1.0, -0.0, 0.0], [5e-324, -5e-324, 2.2250738585072014e-308], [1e-310, 0.1, 1.0 / 3.0],
            [1.7e308, -1.7e308, 0.0]]
    curve = ControlCurve(0.25, rows, st)
    want = [list(map(float, row)) for row in rows]
    got = curve.to_json()["controls"]
    assert all(type(c) is float for row in got for c in row)
    assert json.dumps(got) == json.dumps(want)
    assert json.dumps(got) == ("[[1.0, -0.0, 0.0], [5e-324, -5e-324, 2.2250738585072014e-308], "
                               "[1e-310, 0.1, 0.3333333333333333], [1.7e+308, -1.7e+308, 0.0]]")


def test_sl2_cover_frame_maps_killing_form_to_normal_form():
    from sublorentz.liealg3 import from_case

    for case in (SL2, SubLorentzCase("2", kappa=1.5), SubLorentzCase("19", kappa=0.3, chi=1.0)):
        alg = from_case(case)
        F = sl2_cover_frame(alg)
        K = alg.killing_form()
        pulled = np.linalg.inv(F).T @ K @ np.linalg.inv(F)
        assert np.allclose(pulled, np.diag([-8.0, 8.0, 8.0]), atol=1e-9)


def test_sl2_cover_frame_maps_the_brackets_and_follows_the_axis_rule():
    # F [x, y] = [F x, F y] in su(1,1) on every basis pair, and X3 goes onto the
    # xi axis when it is timelike (K33 < 0), onto the Im zeta axis otherwise
    eye = np.eye(3)
    pairs = [(eye[i], eye[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for cid in sorted(SL2_CASES):
            for n in range(40):
                alg = from_case(sample_case(cid, rng, n))
                F = np.array(sl2_cover_frame(alg))
                got = np.array([sl2cover.ALGEBRA.bracket(F @ x, F @ y) for x, y in pairs])
                want = np.array([F @ alg.bracket(x, y) for x, y in pairs])
                assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want)), (cid, n)
                axis = 0 if alg.killing_form()[2][2] < 0.0 else 2
                assert F[:, 2].tolist().count(0.0) == 2 and F[axis, 2] != 0.0, (cid, n, F)


@pytest.mark.parametrize("kappa", [0.0, 2.0, -2.0])
def test_sl2_cover_frame_is_continuous_in_the_row_parameters(kappa):
    # row 10 at chi = 1: two Killing eigenvalues are equal at kappa = 0 and cross at kappa = +-2
    d = 1e-6
    near = [np.array(sl2_cover_frame(from_case(SubLorentzCase("10", kappa=kappa + s * d, chi=1.0)))) for s in (-1, 1)]
    assert np.max(np.abs(near[1] - near[0])) <= 2e-6

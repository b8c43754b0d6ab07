"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np

from sublorentz.cli import EXIT_OK, main
from sublorentz.conegeom import (
    SegmentCone,
    cone_subspace_trivial,
    find_interior_dual_in_annihilator,
)
from sublorentz.existence import Outcome, check_case
from sublorentz.liealg3 import SubLorentzCase, from_case
from sublorentz.longarc import (
    LORENTZIAN,
    AntiNorm,
    ControlCurve,
    build_structure,
    distance_upper_bound,
    integrate,
    length,
    maximize,
    _section_ratio_max,
    su2_unbounded_witness,
    target_from_exp2,
)
from sublorentz.oracle import sample_case
from sublorentz.sl2cover import (
    IDENTITY,
    CoverElement,
    TangentVector,
    growth_bound_constants,
    growth_ratio,
    inverse,
    multiply,
    project,
    push_forward,
    time_form,
)

SEED = 20260808


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: verdict table reproduction -----------------------------------

def test_criterion_1_table_reproduction(capsys):
    t0 = time.monotonic()
    code = main(["table", "--samples", "5", "--seed", str(SEED)])
    elapsed = time.monotonic() - t0
    table = json.loads(capsys.readouterr().out)
    mismatches = [
        (row["case"], d["params"], d["outcome"], d["expected"])
        for row in table["rows"] for d in row["draws"] if not d["match"]
    ]
    ok = code == EXIT_OK and table["all_match"] and not mismatches and elapsed < 5.0
    report(1, ok, f"20 rows x 5 draws, {len(mismatches)} mismatches, {elapsed:.2f}s")


# -- criterion 2: primal/dual equivalence with a sampled oracle -------------------

def _section_min_dist(cone: SegmentCone, U: np.ndarray) -> float:
    """Exact minimum distance from the cone cross-section to span(U)."""
    u1, u2 = np.asarray(cone.u1), np.asarray(cone.u2)
    h = cone.half_width
    q, _ = np.linalg.qr(U.T)
    G = q[:, : U.shape[0]]
    P = np.eye(3) - G @ G.T
    alpha = float(u2 @ P @ u2)
    beta = 2.0 * float(u1 @ P @ u2)
    gamma = float(u1 @ P @ u1)
    cands = [-h, h]
    if alpha > 0.0:
        cands.append(min(h, max(-h, -beta / (2.0 * alpha))))
    val = min(alpha * s * s + beta * s + gamma for s in cands)
    return math.sqrt(max(val, 0.0))


def _equivalence_instance(rng):
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
        else:
            _, _, vt = np.linalg.svd(dots.reshape(1, -1), full_matrices=True)
            d = vt[1] @ U
            if np.linalg.norm(d) < 1e-8:
                continue
            a, b, _ = np.linalg.inv(np.column_stack([u1, u2, n])) @ d
            # tangency margin of the in-plane line against the cone boundary
            if abs(h * abs(a) - abs(b)) < 1e-8 * max(1.0, np.linalg.norm(d)):
                continue
        # near-touching non-intersecting configurations sit below the sampled
        # oracle's grid resolution; they are excluded here and their behavior is
        # pinned by the explicit boundary unit tests instead
        gap = _section_min_dist(cone, U)
        spacing = 2.0 * h / (10**4 - 1)
        if 1e-9 < gap < 60.0 * spacing:
            continue
        return cone, U


def _sampled_oracle(cone: SegmentCone, U: np.ndarray, n_points: int = 10**4):
    u1, u2 = np.asarray(cone.u1), np.asarray(cone.u2)
    h = cone.half_width
    s = np.linspace(-h, h, n_points)
    V = u1[None, :] + s[:, None] * u2[None, :]
    q, _ = np.linalg.qr(U.T)
    G = q[:, : U.shape[0]]
    dist = np.linalg.norm(V - (V @ G) @ G.T, axis=1)
    dmin = float(dist.min())
    spacing = 2.0 * h / (n_points - 1)
    tau = 3.0 * spacing * float(np.linalg.norm(u2)) + 1e-12
    return dmin > tau, dmin, tau


def test_criterion_2_primal_dual_equivalence():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    disagreements = 0
    ambiguous = 0
    for _ in range(1000):
        cone, U = _equivalence_instance(rng)
        primal = cone_subspace_trivial(cone, U)
        dual = find_interior_dual_in_annihilator(cone, U) is not None
        oracle, dmin, tau = _sampled_oracle(cone, U)
        if tau < dmin < 10.0 * tau:
            ambiguous += 1
        if not (primal == dual == oracle):
            disagreements += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and ambiguous == 0 and elapsed < 10.0
    report(2, ok, f"1000 instances, {disagreements} disagreements, "
                  f"{ambiguous} oracle-ambiguous, {elapsed:.2f}s")


# -- criterion 3: Killing closed forms -------------------------------------------

def _closed_form_killing(case: SubLorentzCase) -> np.ndarray:
    k, x = case.kappa, case.chi
    cid = case.case_id
    if cid == "2":
        return np.diag([2 * k, -2 * k, 2 * k * k])
    if cid in ("6", "8"):
        s = 1.0 if cid == "6" else -1.0
        return np.array([[2 * (k - s), -2.0, 0.0],
                         [-2.0, -2 * (k + s), 0.0],
                         [0.0, 0.0, 2 * k * k]])
    if cid == "10":
        return np.diag([2 * (k + x), -2 * (k - x), 2 * (k * k - x * x)])
    if cid == "19":
        return np.array([[2 * k, -2 * x, 0.0],
                         [-2 * x, -2 * k, 0.0],
                         [0.0, 0.0, 2 * (k * k + x * x)]])
    raise AssertionError(cid)


def test_criterion_3_killing_closed_forms():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for cid in ("2", "6", "8", "10", "19"):
        for i in range(100):
            case = sample_case(cid, rng, i)
            err = float(np.max(np.abs(from_case(case).killing_form() - _closed_form_killing(case))))
            worst = max(worst, err)
    report(3, worst <= 1e-12, f"5 rows x 100 draws, max entry error {worst:.2e}")


# -- criterion 4: cover group axioms ----------------------------------------------

def test_criterion_4_cover_group_axioms():
    rng = np.random.default_rng(SEED + 2)

    def rand_g():
        return CoverElement(rng.uniform(-5, 5),
                            complex(rng.uniform(-5, 5), rng.uniform(-5, 5)))

    worst_assoc = worst_homo = worst_inv = 0.0
    for _ in range(1000):
        g1, g2, g3 = rand_g(), rand_g(), rand_g()
        a = multiply(multiply(g1, g2), g3)
        b = multiply(g1, multiply(g2, g3))
        worst_assoc = max(worst_assoc, abs(a.c - b.c), abs(a.w - b.w))
        homo = project(multiply(g1, g2)) - project(g1) @ project(g2)
        worst_homo = max(worst_homo, float(np.max(np.abs(homo))))
        prod = multiply(g1, inverse(g1))
        worst_inv = max(worst_inv, abs(prod.c), abs(prod.w))
    ok = worst_assoc <= 1e-9 and worst_homo <= 1e-9 and worst_inv <= 1e-12
    report(4, ok, f"assoc {worst_assoc:.2e}, homo {worst_homo:.2e}, inverse {worst_inv:.2e}")


# -- criterion 5: push-forward vs finite differences --------------------------------

def test_criterion_5_pushforward_finite_differences():
    rng = np.random.default_rng(SEED + 3)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        base = CoverElement(rng.uniform(-3, 3), complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        xi = rng.uniform(-2, 2)
        zeta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        plus = multiply(base, CoverElement(h * xi, h * zeta))
        minus = multiply(base, CoverElement(-h * xi, -h * zeta))
        out = TangentVector(*push_forward(base, TangentVector(xi, zeta)))
        scale = max(1.0, abs(out.xi), abs(out.zeta))
        err = max(abs((plus.c - minus.c) / (2 * h) - out.xi),
                  abs((plus.w - minus.w) / (2 * h) - out.zeta)) / scale
        worst = max(worst, err)
    report(5, worst <= 1e-6, f"100 points, max relative error {worst:.2e}")


# -- criterion 6: positivity and linear growth of the angle form ----------------------

def test_criterion_6_growth_bound():
    eta = 1.0
    c1 = 1.0 - 2 ** -0.5
    c2 = 1.0 + 2 ** -0.5
    A = (1.0 / c1) * (2 ** -0.5 + c2)
    B = (1.0 / c1) * (2 ** -0.5 + 1.0)
    got_A, got_B = growth_bound_constants(eta)
    assert abs(got_A - A) <= 1e-12 and abs(got_B - B) <= 1e-12

    rng = np.random.default_rng(SEED + 4)
    violations = 0
    for _ in range(1000):
        base = CoverElement(rng.uniform(-4, 4), complex(rng.uniform(-5, 5), rng.uniform(-5, 5)))
        zeta = complex(rng.normal(), rng.normal())
        xi = math.sqrt(eta + 1.0) * abs(zeta) * (1.0 + abs(rng.normal()))
        if xi == 0.0:
            xi = 1.0
        u = TangentVector(xi, zeta)
        tau = time_form(base, push_forward(base, u))
        ratio = growth_ratio(base, u, eta)
        if not (tau > 0.0 and ratio <= A + B * abs(base.w)):
            violations += 1
    report(6, violations == 0, f"1000 points at eta=1, {violations} violations")


# -- criterion 7: solver against the calibration bound --------------------------------

def test_criterion_7_solver_vs_bound():
    t0 = time.monotonic()
    heis = SubLorentzCase("1", kappa=0.0)
    st = build_structure(heis)
    target = target_from_exp2(st, (1.0, 0.0, 0.0))
    res = maximize(st, target, n_steps=32, budget=10000, seed=SEED)
    witness = np.array(check_case(heis).witness)
    bound = distance_upper_bound(st, target, witness)
    ok = res.found and 0.98 <= res.length <= 1.0 + 1e-9 and abs(bound - 1.0) <= 1e-9

    sound = True
    exists_cases = [
        heis,
        SubLorentzCase("2*", kappa=1.0, tau=0.5),
        SubLorentzCase("11", kappa=1.2, chi=1.2),
        SubLorentzCase("12", kappa=-0.8, chi=-0.8),
        SubLorentzCase("13", kappa=7.0, chi=-1.0),
        SubLorentzCase("14", kappa=2.0, chi=-1.0),
        SubLorentzCase("15", kappa=8.0, chi=-1.0),
    ]
    for case in exists_cases:
        s = build_structure(case)
        probe = ControlCurve(1 / 16, np.tile([0.9, -0.2, 0.0], (16, 1)), s)
        tgt = integrate(probe).endpoint
        r = maximize(s, tgt, n_steps=16, budget=2500, seed=SEED)
        b = distance_upper_bound(s, tgt, np.array(check_case(case).witness))
        if not (r.found and r.length <= b + 1e-6):
            sound = False
    elapsed = time.monotonic() - t0
    ok = ok and sound and elapsed < 60.0
    report(7, ok, f"best {res.length:.6f} in [0.98, 1], bound {bound:.9f}, "
                  f"soundness over {len(exists_cases)} cases: {sound}, {elapsed:.1f}s")


# -- criterion 8: unbounded lengths on the su2 row --------------------------------------

def test_criterion_8_su2_divergence():
    t0 = time.monotonic()
    st = build_structure(SubLorentzCase("9", kappa=0.0, chi=-1.0))
    idc = st.model.coords(st.model.identity())
    ok = True
    details = []
    for demand in (10.0, 100.0, 1000.0):
        curve = su2_unbounded_witness(st, demand)
        ell = length(curve)
        err = float(np.linalg.norm(np.subtract(st.model.coords(integrate(curve).endpoint), idc)))
        details.append(f"L>={demand:g}: {ell:.1f} (err {err:.1e})")
        ok = ok and ell >= demand and err <= 1e-8
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(8, ok, "; ".join(details) + f", {elapsed:.2f}s")


# -- criterion 9: lengths stay below the calibration bound of their own anti-norm --------

def test_criterion_9_anti_norm_independence():
    # the annihilator certificate does not depend on the anti-norm, so on every
    # exists row with a witness the calibration bound computed with an anti-norm
    # must hold for the lengths the search finds under that same anti-norm.  The
    # bound is c_max F(target), and only c_max, the anti-norm's largest ratio to
    # the witness on the cone section, depends on the anti-norm; row 2*'s tilted
    # witness gives different c_max under the two anti-norms, so a bound computed
    # under the wrong one would show in the ratio of the two bounds
    edge = AntiNorm(lambda u: u[0] - abs(u[1]), "edge")
    ok = True
    bites = False
    details = []
    for case in (SubLorentzCase("1", kappa=0.0), SubLorentzCase("12", kappa=-0.8, chi=-0.8),
                 SubLorentzCase("13", kappa=7.0, chi=-1.0), SubLorentzCase("2*", kappa=-1.0, tau=1.5)):
        verdict = check_case(case)
        ok = ok and verdict.outcome is Outcome.EXISTS and verdict.witness is not None
        p = np.array(verdict.witness)
        bounds, c_max = [], []
        for nu in (LORENTZIAN, edge):
            st = build_structure(case, anti_norm=nu)
            probe = ControlCurve(1 / 16, np.tile([0.9, -0.2, 0.0], (16, 1)), st)
            tgt = integrate(probe).endpoint
            r = maximize(st, tgt, n_steps=16, budget=2500, seed=SEED)
            b = distance_upper_bound(st, tgt, p)
            ok = ok and r.found and length(probe) - 1e-6 <= r.length <= b + 1e-6
            bounds.append(b)
            c_max.append(_section_ratio_max(st.cone, nu, p))
            details.append(f"row {case.case_id} {nu.name}: {r.length:.6f} <= {b:.6f}")
        ratio = c_max[0] / c_max[1]
        ok = ok and abs(bounds[0] / bounds[1] - ratio) <= 1e-9 * ratio
        bites = bites or abs(ratio - 1.0) > 1e-3
    ok = ok and bites
    report(9, ok, "; ".join(details))

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sublorentz.cli import EXIT_OK, main
from sublorentz.conegeom import ZERO_TOL, DEFAULT_CONE, SegmentCone, dual_contains
from sublorentz.existence import (
    Outcome,
    Verdict,
    check_case,
    check_solvable,
    killing_containment,
    witness_is_valid,
)
from sublorentz.liealg3 import CASE_IDS, SL2_CASES, SU2_CASE, LieAlgebra3, SubLorentzCase, from_case
from sublorentz.longarc import build_structure, sl2_cover_frame
from sublorentz.oracle import expected_outcome, sample_case


def test_heisenberg_exists_with_axis_witness():
    alg = from_case(SubLorentzCase("1", kappa=0.0))
    verdict = check_solvable(alg)
    assert verdict.outcome == Outcome.EXISTS
    assert witness_is_valid(alg, DEFAULT_CONE, verdict.witness)
    assert witness_is_valid(alg, DEFAULT_CONE, (1.0, 0.0, 0.0))


def test_case_2star_witness_matches_tilted_axis_form():
    tau = 0.7
    alg = from_case(SubLorentzCase("2*", kappa=1.0, tau=tau))
    verdict = check_solvable(alg)
    assert verdict.outcome == Outcome.EXISTS
    assert witness_is_valid(alg, DEFAULT_CONE, verdict.witness)
    # the covector (1, 0, -tau) is a valid certificate for this row
    assert witness_is_valid(alg, DEFAULT_CONE, (1.0, 0.0, -tau))


@pytest.mark.parametrize("cid,kwargs", [
    ("3", dict(tau=2.0)), ("4", dict(tau=3.0)), ("5", dict(tau=1.0)), ("7", dict(tau=-0.4)),
])
@pytest.mark.parametrize("variant", [1, 2])
def test_boundary_kernel_rows_are_inconclusive(cid, kwargs, variant):
    case = SubLorentzCase(cid, variant=variant, **kwargs)
    assert check_case(case).outcome == Outcome.INCONCLUSIVE


@pytest.mark.parametrize("cid,tau", [("4", 3e11), ("7", 2e11)])
@pytest.mark.parametrize("variant", [1, 2])
def test_rows_4_and_7_at_a_large_tau_are_inconclusive(cid, tau, variant):
    # the derived subalgebra is the plane of (1, +-1, 0) and X3 at every tau, read off the layout
    # exactly, and its annihilator vanishes on a ray of the cone
    case = SubLorentzCase(cid, tau=tau, variant=variant)
    s = 1.0 / math.sqrt(2.0)
    assert from_case(case).derived_subalgebra() == [[s, s if variant == 1 else -s, 0.0], [0.0, 0.0, 1.0]]
    verdict = check_case(case)
    assert (verdict.outcome, verdict.witness) == (Outcome.INCONCLUSIVE, None)


def _check(capsys, argv) -> dict:
    assert main(["check", *argv]) == EXIT_OK
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv", [["--case", "11", "--kappa", "-1e-11", "--chi", "1e-11"],
                                  ["--case", "12", "--kappa", "1e-11", "--chi", "-1e-11"],
                                  ["--case", "16", "--kappa", "-7e-11", "--chi", "-1e-11"],
                                  ["--case", "17", "--kappa", "-3e-11", "--chi", "-1e-11"],
                                  ["--case", "18", "--kappa", "-9e-11", "--chi", "-1e-11"]],
                         ids=lambda argv: argv[1])
def test_small_rows_keep_their_derived_plane_and_are_inconclusive(capsys, argv):
    # at 1e-11 the rows of M are far below RANK_TOL but not zero: the derived subalgebra is still
    # the plane of M's row and X3, and no covector positive on the cone annihilates it
    out = _check(capsys, argv)
    assert (out["outcome"], out["witness"]) == ("inconclusive", None)


def test_row_2star_at_a_large_tau_exists_with_a_valid_witness(capsys):
    # the derived line y = (tau, sqrt(kappa + tau^2), 1) lies at a sine of about 1/(sqrt(2) tau) off a
    # ray of the cone, below RANK_TOL but not on the ray, so a covector positive on the cone annihilates it
    out = _check(capsys, ["--case", "2*", "--kappa", "1", "--tau", "3e11"])
    assert out["outcome"] == "exists"
    assert witness_is_valid(from_case(SubLorentzCase("2*", kappa=1.0, tau=3e11)), DEFAULT_CONE, out["witness"])


def test_killing_containment_branches():
    assert killing_containment(from_case(SubLorentzCase("10", kappa=-2.0, chi=-1.0)))
    assert not killing_containment(from_case(SubLorentzCase("10", kappa=2.0, chi=-1.0)))
    assert not killing_containment(from_case(SubLorentzCase("10", kappa=0.5, chi=2.0)))
    for k in (1.5, -1.5):
        assert not killing_containment(from_case(SubLorentzCase("2", kappa=k)))
        assert not killing_containment(from_case(SubLorentzCase("6", kappa=k)))
        assert not killing_containment(from_case(SubLorentzCase("8", kappa=k)))
    for k, x in ((0.7, 1.0), (-1.0, -0.5)):
        assert not killing_containment(from_case(SubLorentzCase("19", kappa=k, chi=x)))


def test_killing_containment_section_values():
    # kappa=-2, chi=-1: restriction is 2 s^2 - 6, strictly negative on [-1, 1]
    alg = from_case(SubLorentzCase("10", kappa=-2.0, chi=-1.0))
    verdict = check_case(SubLorentzCase("10", kappa=-2.0, chi=-1.0))
    assert verdict.certificate == {"section_max": -4.0}
    assert killing_containment(alg, SegmentCone((1, 0, 0), (0, 1, 0), 0.5))
    # the certificate is what killing_containment returns; no containment is None
    assert killing_containment(alg) == -4.0
    assert killing_containment(from_case(SubLorentzCase("10", kappa=2.0, chi=-1.0))) is None


def test_one_killing_form_per_verdict(monkeypatch):
    calls = []
    killing_form = LieAlgebra3.killing_form

    def counted(self):
        calls.append(self)
        return killing_form(self)

    monkeypatch.setattr(LieAlgebra3, "killing_form", counted)
    for k in (-2.0, 2.0):  # exists and inconclusive
        calls.clear()
        check_case(SubLorentzCase("10", kappa=k, chi=-1.0))
        assert len(calls) == 1, k
    calls.clear()
    build_structure(SubLorentzCase("10", kappa=-2.0, chi=-1.0))
    assert len(calls) == 1


@pytest.mark.parametrize("cid", ["2", "10", "19"])
def test_sl2_verdicts_do_not_change_when_parameters_are_rescaled(cid):
    # (kappa, chi) -> s (kappa, chi) stays inside these rows' admissible sets;
    # the Killing signature test and the containment threshold are relative
    # to the form's own scale, so neither the outcome nor the absence of an
    # error may depend on s
    for seed in (1729, 9241, 1):
        rng = np.random.default_rng(seed)
        for i in range(4):
            case = sample_case(cid, rng, i)
            want = check_case(case).outcome
            for s in np.logspace(-6, 6, 13):
                scaled = SubLorentzCase(cid, kappa=case.kappa * s,
                                        chi=None if case.chi is None else case.chi * s)
                assert check_case(scaled).outcome == want, (case, s)


def test_killing_containment_endpoint_cancellation_is_not_containment():
    # rows 6/8 hit an exact zero of the Killing quadratic at a section endpoint
    # through cancellation; rounding noise there must not flip the verdict
    for k in (-1.4345218017857115, -1.1, 1.3, 2.7, -3.9):
        for cid in ("6", "8"):
            assert not killing_containment(from_case(SubLorentzCase(cid, kappa=k)))
            assert check_case(SubLorentzCase(cid, kappa=k)).outcome == Outcome.INCONCLUSIVE


def test_killing_containment_rejects_degenerate():
    # both users of the Killing eigenbasis reject a degenerate form the same way
    for decide in (killing_containment, sl2_cover_frame):
        with pytest.raises(ValueError, match="one negative direction"):
            decide(from_case(SubLorentzCase("1", kappa=0.0)))


def test_killing_containment_needs_a_finite_segment_cone():
    # the half-plane of infinite width is refused where it would be built, before any containment test
    alg = from_case(SubLorentzCase("10", kappa=-2.0, chi=-1.0))
    with pytest.raises(ValueError, match="half_width must be finite"):
        killing_containment(alg, SegmentCone((1, 0, 0), (0, 1, 0), math.inf))


def test_check_case_table_rows():
    assert check_case(SubLorentzCase("9", kappa=0.3, chi=-1.0)).outcome == Outcome.INFINITE_DISTANCE
    v9 = check_case(SubLorentzCase("9", kappa=0.0, chi=-1.0))
    assert v9.loop is not None and v9.loop["period"] > 0

    assert check_case(SubLorentzCase("10", kappa=-2.0, chi=-1.0)).outcome == Outcome.EXISTS
    assert check_case(SubLorentzCase("10", kappa=2.0, chi=-1.0)).outcome == Outcome.INCONCLUSIVE

    assert check_case(SubLorentzCase("11", kappa=1.0, chi=1.0)).outcome == Outcome.EXISTS
    assert check_case(SubLorentzCase("11", kappa=-1.0, chi=1.0)).outcome == Outcome.INCONCLUSIVE
    assert check_case(SubLorentzCase("12", kappa=-1.0, chi=-1.0)).outcome == Outcome.EXISTS
    assert check_case(SubLorentzCase("12", kappa=1.0, chi=-1.0)).outcome == Outcome.INCONCLUSIVE

    assert check_case(SubLorentzCase("14", kappa=2.0, chi=-1.0)).outcome == Outcome.EXISTS
    for cid, k in (("16", -7.0), ("17", -3.0), ("18", -8.0)):
        assert check_case(SubLorentzCase(cid, kappa=k, chi=-1.0)).outcome == Outcome.INCONCLUSIVE


def test_verdicts_match_reference_over_samples(capsys):
    rng = np.random.default_rng(99)
    for cid in CASE_IDS:
        for i in range(3):
            case = sample_case(cid, rng, i)
            assert check_case(case).outcome == expected_outcome(case), case
    # the table command's draws at the two benchmark seeds and eight more
    for seed in (1729, 9241, *range(1, 9)):
        code = main(["table", "--samples", "20", "--seed", str(seed)])
        table = json.loads(capsys.readouterr().out)
        misses = [(row["case"], d["params"]) for row in table["rows"] for d in row["draws"]
                  if not d["match"]]
        assert code == EXIT_OK and table["all_match"] and not misses, (seed, misses)


@pytest.mark.parametrize("cid,x", [("11", 1.7), ("11", 300.0), ("12", -0.4), ("12", -1.7)])
def test_oracle_agrees_with_the_verdict_where_chi_is_within_tolerance_of_kappa(cid, x):
    # chi = +-kappa is decided by the predicate from_case uses to pick the row's branch
    for sign in (1.0, -1.0):
        for d in (0.0, 0.9e-12, -0.9e-12):
            case = SubLorentzCase(cid, kappa=sign * x * (1.0 + d), chi=x)
            want = Outcome.EXISTS if sign > 0 else Outcome.INCONCLUSIVE
            assert check_case(case).outcome == expected_outcome(case) == want, case


def test_every_exists_witness_is_valid():
    rng = np.random.default_rng(123)
    for cid in CASE_IDS:
        for i in range(4):
            case = sample_case(cid, rng, i)
            verdict = check_case(case)
            if verdict.witness is not None:
                assert witness_is_valid(from_case(case), DEFAULT_CONE, verdict.witness)


@pytest.mark.parametrize("cid,k,x", [("13", 7.0, -1.0), ("14", 2.0, -1.0), ("15", 9.0, -1.0),
                                     ("16", -7.0, -1.0), ("17", -2.0, -1.0), ("18", -9.0, -1.0)])
def test_square_root_sign_does_not_change_verdict(cid, k, x):
    # the square root sits in [X1, X2] = b1 X1 + b2 X2 + X3; flip its sign there
    alg = from_case(SubLorentzCase(cid, kappa=k, chi=x))
    b1, b2, _ = alg.b12
    flipped = LieAlgebra3((-b1, -b2, 1.0), alg.b13, alg.b23)
    assert check_solvable(alg).outcome == check_solvable(flipped).outcome


@pytest.mark.parametrize("case", [
    SubLorentzCase("1", kappa=0.0),
    SubLorentzCase("2*", kappa=1.0, tau=0.3),
    SubLorentzCase("13", kappa=7.0, chi=-1.0),
    SubLorentzCase("10", kappa=-2.0, chi=-1.0),
])
def test_exists_is_monotone_under_cone_shrinking(case):
    assert check_case(case).outcome == Outcome.EXISTS
    for h in (0.5, 0.25, 0.05):
        subcone = SegmentCone((1, 0, 0), (0, 1, 0), h)
        assert check_case(case, subcone).outcome == Outcome.EXISTS


def test_verdict_json_round_trip():
    for case in (SubLorentzCase("1", kappa=0.0),
                 SubLorentzCase("9", kappa=0.0, chi=-1.0),
                 SubLorentzCase("10", kappa=-2.0, chi=-1.0),
                 SubLorentzCase("19", kappa=0.3, chi=1.0)):
        verdict = check_case(case)
        data = verdict.to_json()
        assert set(data) >= {"case", "params", "outcome", "witness", "rationale"}
        # every field of the verdict reads back from its JSON
        witness = tuple(data["witness"]) if data["witness"] is not None else None
        assert Verdict(Outcome(data["outcome"]), data["rationale"], witness, data.get("loop"),
                       data.get("certificate"), data["case"], data["params"] or None) == verdict


def test_every_sampled_witness_is_a_float_unit_covector_that_certifies_its_row():
    # 50 draws of every solvable row at seeds 1-10, each witness a unit covector to within
    # 3 ulps of 1, its squares summed exactly: every witness is a unit vector that conegeom
    # normalizes, and each is within one
    ulp = Fraction(math.ulp(1.0))
    checked = 0
    for seed in range(1, 11):
        rng = np.random.default_rng(seed)
        for cid in CASE_IDS:
            for i in range(50):
                case = sample_case(cid, rng, i)
                if cid in SL2_CASES or cid == SU2_CASE:
                    continue
                verdict = check_case(case)
                if verdict.witness is None:
                    continue
                p = verdict.witness
                assert all(type(x) is float for x in p), (case, p)
                assert (1 - 3 * ulp) ** 2 <= sum(Fraction(x) ** 2 for x in p) <= (1 + 3 * ulp) ** 2, (case, p)
                derived = from_case(case).derived_subalgebra()
                assert all(abs(float(row @ np.asarray(p))) <= ZERO_TOL for row in derived), (case, p)
                assert dual_contains(DEFAULT_CONE, p, strict=True), (case, p)
                checked += 1
    assert checked >= 3000

"""Reference verdicts of the classification table and admissible parameter draws.

:func:`expected_outcome` states the table's verdict for one parameter point
without computing one; :func:`sample_case` draws admissible points of a row
from bounded boxes.  The ``table`` command, the tests and the benchmark
compare :func:`~sublorentz.existence.check_case` against this reference.
"""

from __future__ import annotations

import math

import numpy as np

from .existence import Outcome
from .liealg3 import SubLorentzCase, _close


def _signed(rng, lo: float, hi: float) -> float:
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


def sample_case(case_id: str, rng: np.random.Generator, draw_index: int = 0) -> SubLorentzCase:
    """One admissible parameter draw for a table row.

    Distributions are uniform over bounded admissible boxes; rows with a
    conditional verdict alternate between their branches across draw indices.
    """
    alternate = draw_index % 2 == 1
    if case_id == "1":
        return SubLorentzCase("1", kappa=0.0)
    if case_id in ("2", "2*"):
        k = _signed(rng, 0.3, 3.0)
        if case_id == "2":
            return SubLorentzCase("2", kappa=k)
        t = _signed(rng, math.sqrt(max(-k, 0.0)) + 0.1, math.sqrt(max(-k, 0.0)) + 1.5)
        return SubLorentzCase("2*", kappa=k, tau=t)
    variant = int(rng.integers(1, 3))
    if case_id == "3":
        return SubLorentzCase("3", tau=2.0, variant=variant)
    if case_id == "4":
        return SubLorentzCase("4", tau=_signed(rng, 2.1, 5.0), variant=variant)
    if case_id == "5":
        return SubLorentzCase("5", tau=float(rng.uniform(-1.9, 1.9)), variant=variant)
    if case_id in ("6", "8"):
        return SubLorentzCase(case_id, kappa=_signed(rng, 0.3, 3.0))
    if case_id == "7":
        return SubLorentzCase("7", tau=float(rng.uniform(-3.0, 3.0)), variant=variant)
    if case_id == "9":
        x = -float(rng.uniform(0.5, 3.0))
        k = float(rng.uniform(-0.9, 0.9)) * (-x)
        return SubLorentzCase("9", kappa=k, chi=x)
    if case_id == "10":
        if not alternate:
            x = -float(rng.uniform(0.3, 1.5))
            k = x - float(rng.uniform(0.1, 2.0))
        else:
            x = float(rng.uniform(0.3, 1.5))
            k = _signed(rng, 0.2, 3.0)
            while abs(abs(k) - x) < 1e-6:
                k = _signed(rng, 0.2, 3.0)
        return SubLorentzCase("10", kappa=k, chi=x)
    if case_id in ("11", "12"):
        mag = float(rng.uniform(0.3, 3.0))
        x = mag if case_id == "11" else -mag
        k = x if not alternate else -x
        return SubLorentzCase(case_id, kappa=k, chi=x)
    if case_id in ("13", "14", "15", "16", "17", "18"):
        x = -float(rng.uniform(0.3, 2.0))
        if case_id == "13":
            k = -7.0 * x
        elif case_id == "14":
            k = x + float(rng.uniform(0.05, 0.95)) * (-8.0 * x)
        elif case_id == "15":
            k = -7.0 * x + float(rng.uniform(0.1, 3.0))
        elif case_id == "16":
            k = 7.0 * x
        elif case_id == "17":
            k = float(rng.uniform(7.0 * x, -x))
        else:
            k = 7.0 * x - float(rng.uniform(0.1, 3.0))
        return SubLorentzCase(case_id, kappa=k, chi=x)
    # case 19
    return SubLorentzCase("19", kappa=float(rng.uniform(-3.0, 3.0)), chi=_signed(rng, 0.3, 2.0))


def expected_outcome(case: SubLorentzCase) -> Outcome:
    """Reference verdict of the classification table for one parameter point."""
    cid = case.case_id
    if cid in ("1", "2*", "13", "14", "15"):
        return Outcome.EXISTS
    if cid == "9":
        return Outcome.INFINITE_DISTANCE
    if cid == "10":
        if case.kappa < case.chi < 0.0:
            return Outcome.EXISTS
        return Outcome.INCONCLUSIVE
    if cid in ("11", "12"):
        # the predicate from_case uses to choose the row's branch
        if _close(case.chi, case.kappa):
            return Outcome.EXISTS
        return Outcome.INCONCLUSIVE
    return Outcome.INCONCLUSIVE

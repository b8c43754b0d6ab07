"""Existence verdicts for longest admissible arcs on the classified structures.

Each classification row is mapped to one of three outcomes:

* ``EXISTS``: a certificate guarantees that every attainable point is reached
  by a length-maximizing admissible arc.  Two certificate mechanisms are
  implemented: a strictly cone-positive covector annihilating the derived
  subalgebra (valid on the simply connected solvable groups), and strict
  containment of the admissible cone inside the open negativity cone of the
  Killing form (valid on the universal cover of the sl2-type groups).
* ``INFINITE_DISTANCE``: closed timelike loops through every point make the
  supremum of lengths infinite (the su2 row).
* ``INCONCLUSIVE``: neither certificate applies; nothing is claimed.

Verdicts depend only on the cone, never on the anti-norm.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Optional

from .conegeom import DEFAULT_CONE, ZERO_TOL, SegmentCone, _dot, _vec3, dual_contains, find_interior_dual_in_annihilator
from .liealg3 import (SL2_CASES, SU2_CASE, LieAlgebra3, SubLorentzCase, from_case,
                      killing_axes, su2_loop_period)


class Outcome(enum.Enum):
    EXISTS = "exists"
    INFINITE_DISTANCE = "infinite-distance"
    INCONCLUSIVE = "inconclusive"


#: Rationale tags attached to verdicts.
RATIONALE_ANNIHILATOR = "annihilator-witness"
RATIONALE_KILLING = "killing-containment"
RATIONALE_LOOP = "closed-timelike-loop"
RATIONALE_NONE = "not-applicable"


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    rationale: str
    witness: Optional[tuple[float, float, float]] = None
    loop: Optional[dict] = None
    certificate: Optional[dict] = None
    case_id: Optional[str] = None
    params: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "case": self.case_id,
            "params": self.params or {},
            "outcome": self.outcome.value,
            "witness": list(self.witness) if self.witness is not None else None,
            "rationale": self.rationale,
        }
        if self.loop is not None:
            out["loop"] = self.loop
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def check_solvable(algebra: LieAlgebra3, cone: SegmentCone = DEFAULT_CONE) -> Verdict:
    """Certificate search for groups admitting a translation-invariant calibration.

    Looks for a covector that is strictly positive on the punctured cone and
    annihilates the derived subalgebra.  Success proves existence of longest
    arcs to every attainable point on the simply connected group; failure is
    reported as inconclusive.
    """
    derived = algebra.derived_subalgebra()
    witness = find_interior_dual_in_annihilator(cone, derived)
    if witness is None:
        return Verdict(Outcome.INCONCLUSIVE, RATIONALE_NONE)
    return Verdict(Outcome.EXISTS, RATIONALE_ANNIHILATOR, witness=witness)


def killing_containment(algebra: LieAlgebra3, cone: SegmentCone = DEFAULT_CONE) -> Optional[float]:
    """Certificate that the punctured cone lies in the open negativity cone of the Killing form.

    Requires a nondegenerate Killing form with exactly one negative direction;
    anything else is rejected.
    Returns the maximum of the Killing quadratic over the cone cross-section
    u1 + s u2, |s| <= h, when containment holds (then strictly negative) and
    ``None`` otherwise.  The restriction is a quadratic in s; the maximum is
    attained at an endpoint or at the interior vertex of a downward parabola,
    so it is evaluated exactly.  Containment is strict: a zero of the Killing
    quadratic on the cross-section is not containment.  Several rows produce
    an exact zero at a cross-section endpoint through cancellation, so values
    within 1e-12 of zero (relative to the Killing scale) count as zero.
    """
    K = algebra.killing_form()
    _, _, scale = killing_axes(K)
    # u K v as (u K) . v; K is symmetric, so (u K)_j is its row j dotted with u
    u1, u2 = cone.u1, cone.u2
    u1K, u2K = [_dot(u1, row) for row in K], [_dot(u2, row) for row in K]
    k11, k12, k22 = _dot(u1K, u1), _dot(u1K, u2), _dot(u2K, u2)
    h = cone.half_width
    best = max(k11 - 2.0 * h * k12 + h * h * k22, k11 + 2.0 * h * k12 + h * h * k22)
    if k22 < 0.0:
        s_star = -k12 / k22
        if -h < s_star < h:
            best = max(best, k11 + 2.0 * s_star * k12 + s_star * s_star * k22)
    w = max(1.0, h)
    return best if best < -ZERO_TOL * scale * w * w else None


def _loop_description(case: SubLorentzCase) -> dict:
    # one-parameter subgroup of X1; it closes after the stated parameter time
    return {"control": [1.0, 0.0, 0.0], "period": su2_loop_period(case)}


def check_case(case: SubLorentzCase, cone: SegmentCone = DEFAULT_CONE) -> Verdict:
    """Verdict for one classification row at one admissible parameter point."""
    algebra = from_case(case)
    cid = case.case_id
    if cid == SU2_CASE:
        base = Verdict(Outcome.INFINITE_DISTANCE, RATIONALE_LOOP, loop=_loop_description(case))
    elif cid in SL2_CASES:
        section_max = killing_containment(algebra, cone)
        if section_max is None:
            base = Verdict(Outcome.INCONCLUSIVE, RATIONALE_NONE)
        else:
            base = Verdict(Outcome.EXISTS, RATIONALE_KILLING, certificate={"section_max": section_max})
    else:
        base = check_solvable(algebra, cone)
    return dataclasses.replace(base, case_id=cid, params=case.params())


def witness_is_valid(algebra: LieAlgebra3, cone: SegmentCone, witness) -> bool:
    """Check a covector certificate: strict dual membership plus annihilation."""
    p = _vec3(witness)
    return dual_contains(cone, p, strict=True) and all(
        abs(_dot(row, p)) <= ZERO_TOL for row in algebra.derived_subalgebra())

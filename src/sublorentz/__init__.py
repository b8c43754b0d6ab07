"""Longest-arc existence analysis for left-invariant cone structures on 3D Lie groups.

The package decides, row by row of the classification of left-invariant
three-dimensional contact cone structures of Lorentzian signature, whether
length-maximizing admissible curves exist to every attainable point, and
cross-checks the verdicts with a desk-scale numerical solver on concrete
realizations of the groups (including the universal cover of SL2(R)).
"""

from .conegeom import (
    DEFAULT_CONE,
    SegmentCone,
    cone_subspace_trivial,
    contains,
    dual_contains,
    find_interior_dual_in_annihilator,
)
from .existence import (
    Outcome,
    Verdict,
    check_case,
    check_solvable,
    killing_containment,
    witness_is_valid,
)
from .liealg3 import (
    CASE_IDS,
    CASE_LABELS,
    LieAlgebra3,
    SubLorentzCase,
    from_case,
)
from .longarc import (
    DEFAULT_SEED,
    LORENTZIAN,
    AntiNorm,
    CaseStructure,
    ControlCurve,
    build_structure,
    distance_upper_bound,
    integrate,
    length,
    maximize,
    su2_unbounded_witness,
    target_from_exp2,
)
from .sl2cover import (
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

__version__ = "0.1.0"

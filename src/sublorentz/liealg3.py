"""Three-dimensional real Lie algebras given by structure constants.

An algebra is stored as its bracket table over a fixed ordered basis
(X1, X2, X3); only the pairs (1,2), (1,3), (2,3) are kept, everything else
follows by antisymmetry.  Algebras are built from one family of
constructors: :func:`from_case` realizes one row of the classification table
of left-invariant cone structures (rows ``"1"`` .. ``"19"`` plus ``"2*"``)
through the normalized contact bracket layout

    [X1, X3] = c X1 + a12 X2
    [X2, X3] = a21 X1 - c X2
    [X1, X2] = b1 X1 + b2 X2 + X3

Each row gives its five coefficients (c, a12, a21, b1, b2) in terms of its
parameters, and the bracket table is built from them directly, so every row
algebra is in this layout by construction.

Every result is plain Python floats, and no caller converts one: the
bracket is a tuple of three, evaluated from the three table rows in the
fixed order of operations given in :meth:`LieAlgebra3.bracket`, and the
Jacobi check at construction is built from it.  The Killing form
trace(ad_Xi ad_Xj) is a tuple of rows read off the table rows, its sums in
the fixed order given in :meth:`LieAlgebra3.killing_form`, so none of its
floats goes through BLAS.  :func:`killing_axes` reads the Killing
eigenvalues and axes (tuples) off the layout's K13 = K23 = 0 in closed
form.  The derived subalgebra's orthonormal rows come from one SVD, as lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conegeom import RANK_TOL, ZERO_TOL, _vec3

#: Row identifiers of the classification table, in display order.
CASE_IDS = (
    "1", "2", "2*", "3", "4", "5", "6", "7", "8", "9", "10",
    "11", "12", "13", "14", "15", "16", "17", "18", "19",
)

#: Algebra label printed in the classification table for each row.
CASE_LABELS = {
    "1": "L(3,1)", "2": "L(3,5)", "2*": "L(3,-1)", "3": "L(3,3)",
    "4": "L(3,2,eta)", "5": "L(3,4,eta)", "6": "L(3,5)", "7": "L(3,2,eta)",
    "8": "L(3,5)", "9": "L(3,6)", "10": "L(3,5)", "11": "L(3,2,-1)",
    "12": "L(3,4,0)", "13": "L(3,3)", "14": "L(3,2,eta)", "15": "L(3,4,eta)",
    "16": "L(3,3)", "17": "L(3,2,eta)", "18": "L(3,4,eta)", "19": "L(3,5)",
}

#: Rows whose algebra is sl2 (nondegenerate Killing form of index 1).
SL2_CASES = frozenset({"2", "6", "8", "10", "19"})

#: Row whose group is SU2 (compact; carries closed timelike loops).
SU2_CASE = "9"

#: The basis X1, X2, X3 as coordinate rows.
_EYE = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


@dataclass(frozen=True)
class LieAlgebra3:
    """A 3D real Lie algebra: bracket values on basis pairs (1,2), (1,3), (2,3)."""

    b12: tuple[float, float, float]
    b13: tuple[float, float, float]
    b23: tuple[float, float, float]
    label: str = ""

    def __post_init__(self):
        try:
            for name in ("b12", "b13", "b23"):
                object.__setattr__(self, name, _vec3(getattr(self, name)))
        except ValueError:  # a row's constants overflow, such as sqrt(kappa + tau^2) on row 2*
            raise ValueError(f"the structure constants of {self.label} are out of float range") from None
        defect = self.jacobi_defect()
        if not defect <= ZERO_TOL:  # NaN included: double brackets past the float range give inf - inf
            detail = f"defect {defect:.3e}" if math.isfinite(defect) else f"non-finite defect {defect}"
            raise ValueError(f"structure constants violate the Jacobi identity ({detail})")

    def bracket(self, v, w) -> tuple[float, float, float]:
        """Bilinear antisymmetric extension of the basis bracket table.

        Evaluated on Python floats: the coefficient t_ij = v_i w_j - v_j w_i
        of each basis pair times its table row, summed per component as
        ((0 + t12 b12) + t13 b13) + t23 b23.  The leading 0.0 turns a sum of
        zeros into +0.0.
        """
        v1, v2, v3 = _vec3(v)
        w1, w2, w3 = _vec3(w)
        t12 = v1 * w2 - v2 * w1
        t13 = v1 * w3 - v3 * w1
        t23 = v2 * w3 - v3 * w2
        return tuple(0.0 + t12 * p + t13 * q + t23 * r for p, q, r in zip(self.b12, self.b13, self.b23))

    def jacobi_defect(self) -> float:
        """Largest |[[Xi, Xj], Xk] + [[Xj, Xk], Xi] + [[Xk, Xi], Xj]| entry, each summed left to right.

        NaN, as numpy's max gives it, when an entry is NaN: products past the
        float range are inf, and inf - inf is NaN.
        """
        e1, e2, e3 = _EYE
        defects = [abs(a + b + c) for a, b, c in zip(self.bracket(self.bracket(e1, e2), e3),
                                                     self.bracket(self.bracket(e2, e3), e1),
                                                     self.bracket(self.bracket(e3, e1), e2))]
        return next((d for d in defects if d != d), max(defects))

    def derived_subalgebra(self) -> list[list[float]]:
        """Orthonormal basis (rows) of the span of all basis brackets."""
        _, s, vt = np.linalg.svd([self.b12, self.b13, self.b23])
        return vt[:int((s > RANK_TOL).sum())].tolist()

    def killing_form(self) -> tuple[tuple[float, float, float], ...]:
        """Symmetric matrix K[i,j] = trace(ad_Xi ad_Xj), as rows of Python floats off the table rows.

        Column l of ad_Xi is [Xi, Xl]: a table row, its negation 0.0 - t, or zero.  Each diagonal
        entry of ad_Xi ad_Xj, then the trace, is summed from 0.0 left to right; K is 0.5 (K + K^T).
        """
        rows, zero = {(0, 1): self.b12, (0, 2): self.b13, (1, 2): self.b23}, (0.0, 0.0, 0.0)
        ads = [[rows.get((i, l)) or tuple(0.0 - t for t in rows.get((l, i), zero)) for l in range(3)]
               for i in range(3)]  # ads[i][l][m] = ad_Xi[m][l]
        diag = lambda a, b, m: 0.0 + a[0][m] * b[m][0] + a[1][m] * b[m][1] + a[2][m] * b[m][2]
        K = [[0.0 + diag(a, b, 0) + diag(a, b, 1) + diag(a, b, 2) for b in ads] for a in ads]
        K = tuple(tuple(0.5 * (K[i][j] + K[j][i]) for j in range(3)) for i in range(3))
        if not all(map(math.isfinite, K[0] + K[1] + K[2])):  # products past the float range are inf
            raise ValueError(f"the Killing form of {self.label} is out of float range: its entries overflow")
        return K


def killing_axes(K) -> tuple[tuple[float, float, float], tuple[tuple[float, float, float], ...], float]:
    """Ascending eigenvalues, axes and scale of an index-1 Killing form of the contact layout.

    With K13 = K23 = 0 the eigenvalues are K33 and m +- r, m = (K11 + K22)/2,
    r = hypot((K11 - K22)/2, K12) (K11 and K22 when K12 = 0).  It raises unless
    one is below -RANK_TOL * scale and the other two above it, the scale being
    the largest |eigenvalue|.  The axes (rows, timelike first, of Killing norms
    -8, 8, 8) follow the row, not the eigenvalue order: X3, X1, X2 - (K12/K11) X1
    when K33 < 0, else the block's negative and positive eigenvectors, then X3.
    """
    (k11, k12, k13), (_, k22, k23), (_, _, k33) = K
    if not (k13 == 0.0 and k23 == 0.0):
        raise ValueError("the Killing form is not in the contact layout: K13 and K23 must be 0")
    if k12 == 0.0:  # a diagonal block: its eigenvalues and eigenvectors exactly
        (lo, hi), (cos, sin) = sorted((k11, k22)), ((1.0, 0.0) if k11 > k22 else (0.0, 1.0))
    else:
        m, d = 0.5 * k11 + 0.5 * k22, 0.5 * k11 - 0.5 * k22
        r, half = math.hypot(d, k12), 0.5 * math.atan2(k12, d)
        lo, hi, cos, sin = m - r, m + r, math.cos(half), math.sin(half)
    evals = tuple(sorted((lo, hi, k33)))
    scale = max(-evals[0], evals[2])
    if not (evals[0] < -RANK_TOL * scale and evals[1] > RANK_TOL * scale):
        raise ValueError("Killing form is not nondegenerate with one negative direction")
    if k33 < 0.0:
        q, t, s1 = k12 / k11, math.sqrt(8.0 / -k33), math.sqrt(8.0 / k11)
        s2 = math.sqrt(8.0 / (k22 - q * k12))
        return evals, ((0.0, 0.0, t), (s1, 0.0, 0.0), (-q * s2, s2, 0.0)), scale
    t, s1, s2 = math.sqrt(8.0 / -lo), math.sqrt(8.0 / hi), math.sqrt(8.0 / k33)
    return evals, ((-sin * t, cos * t, 0.0), (cos * s1, sin * s1, 0.0), (0.0, 0.0, s2)), scale


def _is_zero(x: Optional[float]) -> bool:
    return x is None or abs(x) <= ZERO_TOL


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ZERO_TOL * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class SubLorentzCase:
    """One admissible parameter point of a classification-table row.

    ``case_id`` is one of :data:`CASE_IDS`.  ``kappa``, ``tau``, ``chi`` are
    the row parameters where the row lists them; ``variant`` selects between
    the two canonical coefficient patterns of rows 3, 4, 5 and 7.  Row side
    conditions are checked at construction and violations are rejected with
    the offending condition named.
    """

    case_id: str
    kappa: Optional[float] = None
    tau: Optional[float] = None
    chi: Optional[float] = None
    variant: int = 1

    def __post_init__(self):
        cid = self.case_id
        if cid not in CASE_IDS:
            raise ValueError(f"unknown case id {cid!r}; expected one of {', '.join(CASE_IDS)}")
        for name in ("kappa", "tau", "chi"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")
        if self.variant not in (1, 2):
            raise ValueError("variant must be 1 or 2")
        if self.variant == 2 and cid not in ("3", "4", "5", "7"):
            raise ValueError(f"case {cid} has a single canonical pattern; variant must be 1")
        k, t, x = self.kappa, self.tau, self.chi
        need = lambda name, val: self._require(val is not None, f"case {cid} requires {name}")
        if cid == "1":
            # exactly: from_case ignores kappa here, so a tiny one would be echoed but not used
            self._require(k is None or k == 0.0, "case 1 requires kappa = 0")
        elif cid in ("2", "2*"):
            need("kappa", k)
            self._require(not _is_zero(k), f"case {cid} requires kappa != 0")
            if cid == "2*":
                t0 = 0.0 if t is None else t
                self._require(k + t0 * t0 >= -ZERO_TOL,
                              "case 2* requires kappa + tau^2 >= 0 (real structure constants)")
        elif cid == "3":
            t0 = 2.0 if t is None else t
            self._require(_close(t0, 2.0), "case 3 requires tau = 2")
        elif cid == "4":
            need("tau", t)
            self._require(abs(t) > 2.0, "case 4 requires |tau| > 2")
        elif cid == "5":
            need("tau", t)
            self._require(abs(t) < 2.0, "case 5 requires |tau| < 2")
        elif cid in ("6", "8"):
            need("kappa", k)
            self._require(not _is_zero(k), f"case {cid} requires kappa != 0")
        elif cid == "7":
            need("tau", t)
        elif cid in ("9", "10"):
            need("kappa", k); need("chi", x)
            self._require(not _is_zero(x), f"case {cid} requires chi != 0")
            if cid == "9":
                self._require(abs(k) < -x, "case 9 requires |kappa| < -chi")
            else:
                self._require(abs(k) > -x, "case 10 requires |kappa| > -chi")
                self._require(not _close(x, k) and not _close(x, -k),
                              "case 10 requires chi != +-kappa")
        elif cid in ("11", "12"):
            need("kappa", k); need("chi", x)
            self._require(_close(x, k) or _close(x, -k), f"case {cid} requires chi = +-kappa")
            if cid == "11":
                self._require(x > ZERO_TOL, "case 11 requires chi = +-kappa > 0")
            else:
                self._require(x < -ZERO_TOL, "case 12 requires chi = +-kappa < 0")
        elif cid in ("13", "14", "15"):
            need("kappa", k); need("chi", x)
            self._require(not _is_zero(x), f"case {cid} requires chi != 0")
            self._require(k - x >= -ZERO_TOL,
                          f"case {cid} requires kappa >= chi (real structure constants)")
            if cid == "13":
                self._require(_close(k, -7.0 * x), "case 13 requires kappa = -7 chi")
            elif cid == "14":
                self._require(k < -7.0 * x, "case 14 requires kappa < -7 chi")
            else:
                self._require(k > -7.0 * x, "case 15 requires kappa > -7 chi")
        elif cid in ("16", "17", "18"):
            need("kappa", k); need("chi", x)
            self._require(not _is_zero(x), f"case {cid} requires chi != 0")
            self._require(-k - x >= -ZERO_TOL,
                          f"case {cid} requires kappa <= -chi (real structure constants)")
            if cid == "16":
                self._require(_close(k, 7.0 * x), "case 16 requires kappa = 7 chi")
            elif cid == "17":
                self._require(k > 7.0 * x, "case 17 requires kappa > 7 chi")
            else:
                self._require(k < 7.0 * x, "case 18 requires kappa < 7 chi")
        elif cid == "19":
            need("kappa", k); need("chi", x)
            self._require(not _is_zero(x), "case 19 requires chi != 0")

    @staticmethod
    def _require(cond: bool, message: str) -> None:
        if not cond:
            raise ValueError(message)

    @property
    def label(self) -> str:
        return CASE_LABELS[self.case_id]

    def params(self) -> dict:
        out: dict = {}
        if self.kappa is not None:
            out["kappa"] = float(self.kappa)
        if self.tau is not None:
            out["tau"] = float(self.tau)
        if self.chi is not None:
            out["chi"] = float(self.chi)
        if self.case_id in ("3", "4", "5", "7"):
            out["variant"] = self.variant
        return out


def su2_loop_period(case: SubLorentzCase) -> float:
    """Parameter time after which exp(t X1) returns to the identity on the su2 row."""
    return 4.0 * math.pi / math.sqrt(-(case.kappa + case.chi))


def from_case(case: SubLorentzCase) -> LieAlgebra3:
    """Lie algebra of a classification-table row at its parameter point.

    The row gives the five coefficients (c, a12, a21, b1, b2) of the contact
    layout, and the bracket table is built from them directly.
    """
    cid, k, t, x = case.case_id, case.kappa, case.tau, case.chi
    if cid == "1":
        c, a12, a21, b1, b2 = 0.0, 0.0, 0.0, 0.0, 0.0
    elif cid == "2":
        c, a12, a21, b1, b2 = 0.0, k, k, 0.0, 0.0
    elif cid == "2*":
        t0 = 0.0 if t is None else t
        c, a12, a21, b1, b2 = 0.0, 0.0, 0.0, t0, math.sqrt(max(k + t0 * t0, 0.0))
    elif cid in ("3", "4", "5", "7"):
        t0 = 2.0 if (cid == "3" and t is None) else t
        if case.variant == 1:
            c, a12, a21, b1, b2 = 1.0, 1.0, -1.0, t0, t0
        else:
            c, a12, a21, b1, b2 = 1.0, -1.0, 1.0, t0, -t0
    elif cid in ("6", "8"):
        s = 1.0 if cid == "6" else -1.0
        c, a12, a21, b1, b2 = 1.0, k - s, k + s, 0.0, 0.0
    elif cid in ("9", "10"):
        c, a12, a21, b1, b2 = 0.0, k + x, k - x, 0.0, 0.0
    elif cid in ("11", "12"):
        if _close(x, k):
            c, a12, a21, b1, b2 = 0.0, 2.0 * x, 0.0, 0.0, 0.0
        else:
            c, a12, a21, b1, b2 = 0.0, 0.0, -2.0 * x, 0.0, 0.0
    elif cid in ("13", "14", "15"):
        c, a12, a21, b1, b2 = 0.0, 2.0 * x, 0.0, 0.0, math.sqrt(max(k - x, 0.0))
    elif cid in ("16", "17", "18"):
        c, a12, a21, b1, b2 = 0.0, 0.0, -2.0 * x, math.sqrt(max(-k - x, 0.0)), 0.0
    else:  # case 19
        c, a12, a21, b1, b2 = x, k, k, 0.0, 0.0
    # -c would make a zero c into -0.0; 0.0 - c keeps it +0.0
    return LieAlgebra3((b1, b2, 1.0), (c, a12, 0.0), (a21, 0.0 - c, 0.0), label=f"case-{cid}")

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sublorentz import sl2cover
from sublorentz.liealg3 import CASE_IDS, SL2_CASES, LieAlgebra3, SubLorentzCase, from_case, killing_axes
from sublorentz.oracle import sample_case

finite = st.floats(min_value=-5, max_value=5, allow_nan=False)


ABELIAN = LieAlgebra3((0, 0, 0), (0, 0, 0), (0, 0, 0))


def heisenberg():
    return from_case(SubLorentzCase("1", kappa=0.0))


def test_heisenberg_brackets():
    alg = heisenberg()
    assert np.allclose(alg.bracket([1, 0, 0], [0, 1, 0]), [0, 0, 1])
    assert np.allclose(alg.bracket([1, 0, 0], [0, 0, 1]), 0)
    assert np.allclose(alg.bracket([0, 1, 0], [0, 0, 1]), 0)


def test_case10_bracket_read_off_layout():
    # independent oracle: expand the normalized layout by hand for kappa=-2, chi=-1
    alg = from_case(SubLorentzCase("10", kappa=-2.0, chi=-1.0))
    c, a12 = 0.0, (-2.0) + (-1.0)
    assert np.allclose(alg.bracket([1, 0, 0], [0, 0, 1]), [c, a12, 0.0])
    assert np.allclose(alg.bracket([1, 0, 0], [0, 0, 1]), [0.0, -3.0, 0.0])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(v=st.tuples(finite, finite, finite), w=st.tuples(finite, finite, finite), lam=finite)
def test_bracket_antisymmetric_bilinear(v, w, lam):
    alg = from_case(SubLorentzCase("10", kappa=-2.0, chi=-1.0))
    bracket = lambda v, w: np.asarray(alg.bracket(v, w))
    v, w = np.asarray(v), np.asarray(w)
    assert np.allclose(bracket(v, w), -bracket(w, v), atol=1e-12)
    assert np.allclose(bracket(v, v), 0.0, atol=1e-12)
    assert np.allclose(bracket(lam * v, w), lam * bracket(v, w), atol=1e-9)


def test_jacobi_defect_across_all_cases():
    rng = np.random.default_rng(42)
    for cid in CASE_IDS:
        for i in range(100):
            alg = from_case(sample_case(cid, rng, i))
            assert alg.jacobi_defect() <= 1e-12


def test_jacobi_violation_rejected():
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebra3(b12=(1, 0, 0), b13=(0, 0, 1), b23=(0, 0, 0))
    # a table row moved off a valid algebra by far more than the tolerance
    alg = from_case(SubLorentzCase("10", kappa=-2.0, chi=-1.0))
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebra3(alg.b12, (alg.b13[0] + 1e-6, *alg.b13[1:]), alg.b23)


# -- the float bracket against the array formula, bit for bit ---------------

def _reference_bracket(alg, v, w) -> np.ndarray:
    v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
    out = np.zeros(3)
    for (i, j), b in (((0, 1), alg.b12), ((0, 2), alg.b13), ((1, 2), alg.b23)):
        out += (v[i] * w[j] - v[j] * w[i]) * np.asarray(b)
    return out


def _unchecked(b12, b13, b23) -> LieAlgebra3:
    # the bracket formula holds for any table, so this one skips the Jacobi check
    alg = object.__new__(LieAlgebra3)
    for name, row in (("b12", b12), ("b13", b13), ("b23", b23), ("label", "")):
        object.__setattr__(alg, name, row)
    return alg


# signed zeros often, so that the sign of every zero sum is pinned
_entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))
_triple = st.tuples(_entry, _entry, _entry)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=st.tuples(_triple, _triple, _triple), v=_triple, w=_triple)
def test_bracket_matches_the_array_formula_bit_for_bit(table, v, w):
    alg = _unchecked(*table)
    got, want = np.asarray(alg.bracket(v, w)), _reference_bracket(alg, v, w)
    assert got.dtype == want.dtype and got.shape == want.shape == (3,)
    assert got.tobytes() == want.tobytes()


def _reference_jacobi_defect(alg) -> float:
    """The Jacobi defect as an array formula: the three double brackets added as arrays, then
    the largest |entry|, NaN when an entry is."""
    eye = np.eye(3)
    bracket = lambda v, w: np.array(alg.bracket(v, w))
    with np.errstate(over="ignore", invalid="ignore"):  # inf + -inf is NaN here, as in the float sum
        j = (bracket(bracket(eye[0], eye[1]), eye[2])
             + bracket(bracket(eye[1], eye[2]), eye[0])
             + bracket(bracket(eye[2], eye[0]), eye[1]))
        return float(np.max(np.abs(j)))


# entries up to 1e308, so that products overflow to inf and some sums are inf - inf = NaN
_huge = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308]),
                  st.floats(-1e308, 1e308), st.floats(-1e3, 1e3))
_huge_triple = st.tuples(_huge, _huge, _huge)
_row_algebra = st.tuples(st.sampled_from(CASE_IDS), st.integers(0, 2**32 - 1), st.integers(0, 99)).map(
    lambda d: from_case(sample_case(d[0], np.random.default_rng(d[1]), d[2])))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(alg=st.one_of(st.tuples(_huge_triple, _huge_triple, _huge_triple).map(lambda t: _unchecked(*t)),
                     st.just(sl2cover.ALGEBRA), _row_algebra))
@example(alg=_unchecked((0.0, 0.0, 1e308), (1e308, 0.0, 0.0), (0.0, 1e308, 0.0)))
@example(alg=_unchecked((1e308, 1e308, 1.0), (1e308, -1e308, 0.0), (1e308, 1e308, 0.0)))
def test_jacobi_defect_matches_the_array_formula_bit_for_bit(alg):
    got, want = alg.jacobi_defect(), _reference_jacobi_defect(alg)
    assert type(got) is float
    assert struct.pack("<d", got) == struct.pack("<d", want), (got, want)


@pytest.mark.parametrize("table, shown", [
    # double brackets past the float range: inf - inf in a sum makes the defect NaN
    (((1e308, 1e308, 1.0), (1e308, -1e308, 0.0), (1e308, 1e308, 0.0)), "nan"),
    (((0.0, 0.0, 1e308), (1e308, 0.0, 0.0), (0.0, 1e308, 0.0)), "inf"),
])
def test_a_table_whose_jacobi_defect_is_not_finite_is_rejected(table, shown):
    defect = _unchecked(*table).jacobi_defect()
    assert not math.isfinite(defect) and str(defect) == shown
    with pytest.raises(ValueError, match=rf"Jacobi identity \(non-finite defect {shown}\)"):
        LieAlgebra3(*table)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_bracket_rejects_non_finite_vectors(bad):
    alg = heisenberg()
    for v, w in (([bad, 0, 0], [0, 1, 0]), ([1, 0, 0], [0, bad, 0])):
        with pytest.raises(ValueError, match="non-finite"):
            alg.bracket(v, w)


def _structure_constant(alg, k, i, l) -> float:
    """C^k_il, component k of [Xi, Xl], off the table."""
    rows = {(0, 1): alg.b12, (0, 2): alg.b13, (1, 2): alg.b23}
    if i == l:
        return 0.0
    return rows[i, l][k] if i < l else -rows[l, i][k]


def _closed_form_killing(alg) -> tuple[np.ndarray, np.ndarray]:
    """K[i,j] = sum over k, l of C^k_il C^l_jk off the table, with the sum of |terms| per entry."""
    C = lambda k, i, l: _structure_constant(alg, k, i, l)
    terms = np.array([[[C(k, i, l) * C(l, j, k) for k in range(3) for l in range(3)]
                       for j in range(3)] for i in range(3)])
    return np.array([[math.fsum(t) for t in row] for row in terms]), np.abs(terms).sum(axis=2)


def _exact_killing(alg, i, j) -> tuple[Fraction, Fraction]:
    """The exact sum over k, l of C^k_il C^l_jk, and the exact sum of its terms' magnitudes."""
    C = lambda k, i, l: Fraction(_structure_constant(alg, k, i, l))
    terms = [C(k, i, l) * C(l, j, k) for k in range(3) for l in range(3)]
    return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))


# a term passes one product, two sums into its diagonal entry, two into the trace and the
# symmetrizing sum: six roundings of unit 2^-53, plus the nine products' underflow
_GAMMA6, _UNDERFLOW = Fraction(6, 2**53 - 6), 9 * Fraction(2) ** -1074


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=st.tuples(_triple, _triple, _triple))
@example(table=(sl2cover.ALGEBRA.b12, sl2cover.ALGEBRA.b13, sl2cover.ALGEBRA.b23))
def test_killing_form_is_bitwise_symmetric_and_within_the_summation_bound_of_the_exact_sum(table):
    alg = _unchecked(*table)
    K = np.asarray(alg.killing_form())
    assert K.shape == (3, 3) and K.tobytes() == np.ascontiguousarray(K.T).tobytes()
    for i in range(3):
        for j in range(3):
            exact, size = _exact_killing(alg, i, j)
            assert abs(Fraction(K[i, j]) - exact) <= _GAMMA6 * size + _UNDERFLOW, (i, j, K[i, j], float(exact))


def test_killing_form_is_symmetric_and_matches_the_closed_form():
    rng = np.random.default_rng(8)
    for cid in CASE_IDS:
        for i in range(20):
            alg = from_case(sample_case(cid, rng, i))
            K = np.asarray(alg.killing_form())
            assert np.array_equal(K, K.T)
            want, size = _closed_form_killing(alg)
            assert np.all(np.abs(K - want) <= 1e-15 * size.max())


def test_killing_axes_match_an_eigvalsh_reference_on_the_sl2_rows():
    rng = np.random.default_rng(21)
    for cid in sorted(SL2_CASES):
        for i in range(40):
            K = from_case(sample_case(cid, rng, i)).killing_form()
            evals, axes, scale = killing_axes(K)
            K, axes = np.asarray(K), np.asarray(axes)
            want = np.linalg.eigvalsh(K)
            assert scale == max(-evals[0], evals[2])
            assert np.all(np.abs(np.array(evals) - want) <= 1e-14 * scale), (cid, evals, want)
            # Killing norms (-8, 8, 8), timelike first
            assert np.allclose(axes @ K @ axes.T, np.diag([-8.0, 8.0, 8.0]), rtol=0.0, atol=1e-13)


def test_killing_axes_follow_the_row_not_the_eigenvalue_order():
    # row 10 at chi = 1: X3 is timelike for |kappa| < 1, spacelike and last otherwise,
    # where K11 and K33 cross at kappa = 2 without the axes swapping
    for kappa, timelike_x3 in ((0.0, True), (0.5, True), (1.999, False), (2.001, False), (-2.0, False)):
        _, axes, _ = killing_axes(from_case(SubLorentzCase("10", kappa=kappa, chi=1.0)).killing_form())
        t, s1, s2 = np.asarray(axes)
        if timelike_x3:
            assert t[:2].tolist() == [0.0, 0.0] and s1[1:].tolist() == [0.0, 0.0] and s2[2] == 0.0
        else:
            assert t[2] == 0.0 and s1[2] == 0.0 and s2[:2].tolist() == [0.0, 0.0]


def test_killing_axes_need_the_contact_layout():
    K = np.diag([-2.0, 2.0, 2.0])
    K[0, 2] = K[2, 0] = 0.5
    with pytest.raises(ValueError, match="not in the contact layout"):
        killing_axes(K)


def test_derived_subalgebra_dimensions():
    assert heisenberg().derived_subalgebra() == [[0.0, 0.0, 1.0]]
    # the abelian table has no X3 in [X1, X2], so it is not in the contact layout
    with pytest.raises(ValueError, match="the bracket table is not in the contact layout"):
        ABELIAN.derived_subalgebra()
    assert len(from_case(SubLorentzCase("10", kappa=-2.0, chi=-1.0)).derived_subalgebra()) == 3


#: The dimension of each row's derived subalgebra [g, g] = span{y, rows of M}: 1 + rank M.
_DERIVED_DIMENSION = {**dict.fromkeys(("1", "2*"), 1),
                      **dict.fromkeys(("3", "4", "5", "7", "11", "12", "13", "14", "15", "16", "17", "18"), 2),
                      **dict.fromkeys(("2", "6", "8", "9", "10", "19"), 3)}


def test_every_row_has_its_derived_dimension_at_every_scale():
    # six draws of each row with kappa, tau and chi scaled by 10^e wherever the row stays admissible:
    # the dimension is read off the layout exactly, so small brackets (rows 11, 12 and 16-18 at
    # 1e-11) keep their plane and large ones (rows 4 and 7 at tau = 1e11) do not fold it to a line
    rng = np.random.default_rng(44)
    scales = {cid: set() for cid in CASE_IDS}
    for cid in CASE_IDS:
        for i in range(6):
            case = sample_case(cid, rng, i)
            for e in range(-12, 40):
                scaled = [None if v is None else v * 10.0 ** e for v in (case.kappa, case.tau, case.chi)]
                try:
                    scaled_case = SubLorentzCase(cid, *scaled, variant=case.variant)
                except ValueError:  # the row's side conditions fail at this scale
                    continue
                assert len(from_case(scaled_case).derived_subalgebra()) == _DERIVED_DIMENSION[cid], scaled_case
                scales[cid].add(e)
    assert all(scales.values())
    assert all(-11 in scales[cid] for cid in ("11", "12", "16", "17", "18"))
    assert all(11 in scales[cid] for cid in ("2*", "4", "7"))


def _layout_rows(alg) -> np.ndarray:
    """[X1, X3], [X2, X3], [X1, X2] read back through the bracket."""
    e1, e2, e3 = np.eye(3)
    return np.array([alg.bracket(e1, e3), alg.bracket(e2, e3), alg.bracket(e1, e2)])


def test_row_bracket_table_examples():
    # (b12, b13, b23) = ((b1, b2, 1), (c, a12, 0), (a21, -c, 0))
    alg = heisenberg()
    assert (alg.b12, alg.b13, alg.b23) == ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    alg = from_case(SubLorentzCase("11", kappa=1.0, chi=1.0))
    assert (alg.b12, alg.b13, alg.b23) == ((0.0, 0.0, 1.0), (0.0, 2.0, 0.0), (0.0, 0.0, 0.0))

    for cid, k, x in [("13", 7.0, -1.0), ("14", 2.0, -1.0), ("15", 8.0, -1.0)]:
        alg = from_case(SubLorentzCase(cid, kappa=k, chi=x))
        assert alg.b13 == (0.0, 2 * x, 0.0) and alg.b23 == (0.0, 0.0, 0.0)
        assert alg.b12[0] == 0 and np.isclose(alg.b12[1] ** 2, k - x) and alg.b12[2] == 1.0

    alg = from_case(SubLorentzCase("19", kappa=0.5, chi=-1.5))
    assert (alg.b12, alg.b13, alg.b23) == ((0.0, 0.0, 1.0), (-1.5, 0.5, 0.0), (0.5, 1.5, 0.0))


def test_every_row_is_in_the_contact_layout():
    # the row's table is the bracket of the basis pairs, in the layout
    # [X1,X3] = c X1 + a12 X2, [X2,X3] = a21 X1 - c X2, [X1,X2] = b1 X1 + b2 X2 + X3,
    # and a zero c gives a +0.0 entry -c
    rng = np.random.default_rng(5)
    for cid in CASE_IDS:
        for i in range(10):
            alg = from_case(sample_case(cid, rng, i))
            rows = _layout_rows(alg)
            assert rows.tobytes() == np.array([alg.b13, alg.b23, alg.b12]).tobytes()
            assert alg.b12[2] == 1.0 and alg.b13[2] == 0.0 and alg.b23[2] == 0.0
            assert alg.b23[1] == -alg.b13[0]
            if alg.b13[0] == 0.0:
                assert math.copysign(1.0, alg.b23[1]) == 1.0


def test_kernel_and_derived_are_mutual_annihilators():
    rng = np.random.default_rng(5)
    for cid in CASE_IDS:
        alg = from_case(sample_case(cid, rng, 0))
        _, s, vt = np.linalg.svd(_layout_rows(alg))
        kernel = vt[(s > 1e-10).sum():]
        derived = np.asarray(alg.derived_subalgebra())
        assert kernel.shape[0] + derived.shape[0] == 3
        if kernel.shape[0] and derived.shape[0]:
            assert np.max(np.abs(kernel @ derived.T)) <= 1e-10


def test_killing_form_spot_values():
    k, x = -2.0, -1.0
    K = from_case(SubLorentzCase("10", kappa=k, chi=x)).killing_form()
    assert np.allclose(K, np.diag([2 * (k + x), -2 * (k - x), 2 * (k * k - x * x)]), atol=1e-12)

    # the su2 row: negative definite
    k, x = 0.5, -2.0
    K = from_case(SubLorentzCase("9", kappa=k, chi=x)).killing_form()
    assert np.allclose(K, np.diag([2 * (k + x), -2 * (k - x), 2 * (k * k - x * x)]), atol=1e-12)
    assert np.all(np.linalg.eigvalsh(K) < 0.0)

    assert np.allclose(ABELIAN.killing_form(), 0.0)


def test_killing_form_symmetric_and_invariant():
    rng = np.random.default_rng(11)
    alg = from_case(SubLorentzCase("19", kappa=0.7, chi=-1.3))
    K = np.asarray(alg.killing_form())
    assert np.max(np.abs(K - K.T)) == 0.0
    for _ in range(50):
        u, v, w = rng.normal(size=(3, 3))
        lhs = np.asarray(alg.bracket(u, v)) @ K @ w + v @ K @ np.asarray(alg.bracket(u, w))
        assert abs(lhs) <= 1e-10 * max(1.0, np.abs(K).max())


@pytest.mark.parametrize("kwargs,message", [
    (dict(case_id="9", kappa=2.0, chi=-1.0), "case 9 requires"),
    (dict(case_id="10", kappa=1.0, chi=1.0), "case 10 requires chi"),
    (dict(case_id="10", kappa=0.5, chi=-1.0), "case 10 requires"),
    (dict(case_id="2", kappa=0.0), "kappa != 0"),
    (dict(case_id="4", tau=1.0), "case 4 requires"),
    (dict(case_id="5", tau=3.0), "case 5 requires"),
    (dict(case_id="11", kappa=-1.0, chi=-1.0), "case 11 requires"),
    (dict(case_id="13", kappa=5.0, chi=-1.0), "case 13 requires"),
    (dict(case_id="15", kappa=1.0, chi=2.0), "case 15 requires kappa >= chi"),
    (dict(case_id="2*", kappa=-4.0, tau=1.0), "case 2\\* requires kappa \\+ tau"),
    (dict(case_id="42", kappa=1.0), "unknown case id"),
    (dict(case_id="10", kappa=float("nan"), chi=-1.0), "kappa must be finite"),
    (dict(case_id="10", kappa=float("inf"), chi=-1.0), "kappa must be finite"),
    (dict(case_id="4", tau=float("-inf")), "tau must be finite"),
    (dict(case_id="19", kappa=1.0, chi=float("nan")), "chi must be finite"),
])
def test_case_constraint_violations(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SubLorentzCase(**kwargs)


def test_structure_matrix_round_trip():
    # the structure matrix has the coordinates of [X1,X3], [X2,X3], [X1,X2] as its
    # rows; an algebra built from those rows reads the same matrix back
    A = _layout_rows(from_case(SubLorentzCase("6", kappa=1.5)))
    alg = LieAlgebra3(b12=tuple(A[2]), b13=tuple(A[0]), b23=tuple(A[1]))
    assert np.array_equal(_layout_rows(alg), A)
    assert A.tobytes() == np.array([alg.b13, alg.b23, alg.b12]).tobytes()

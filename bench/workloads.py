"""The four workloads: seeded inputs, one timed request each, and its check.

Every request goes through the package's public functions, and the
benchmark calls them through module attributes (``sl.check_case``, not a
name bound with ``from ... import``) so that the tracer's replacements are
the ones called.  The package only ever sees the generated inputs; the seed
stays here.

A round is the fixed list of inputs a seed generates.  A run repeats rounds
until its time is up, so every round does identical work and per-request
call counts are exact.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

import sublorentz as sl
from sublorentz import cli, longarc

WITNESS_ENDPOINT_TOL = 1e-8
BOUND_SLACK = 1e-6

# The constant-control sweep and descents take the first 1000 to 1300
# evaluations of a solve, whatever the budget; then per-step coordinate
# descents follow, whose rollouts reuse their unchanged prefix and miss the
# exponential cache more often.  Where that boundary falls depends on the
# target, so seeded probes stop before it (a budget across it would make the
# cost per evaluation depend on the seed), and one fixed anchor solve per
# workload runs past it.  The anchor stops before the random restarts, the
# only phase that uses the solver seed, so it does the same work for every
# seed.
PROBE_STEPS = 8
ANCHOR_BUDGET = 1600



@dataclass
class Result:
    """What one request produced: its output document and the work it did."""

    text: str
    work: float
    value: object = None
    evaluations: int = 0
    step_slots: int = 0
    controls: int = 0


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """``n`` draws from [lo, hi], one from each of ``n`` equal bins, in random order."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return lo + (hi - lo) * rng.permutation(u)


def _solver_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# verdict-sweep

class VerdictSweep:
    """Verdicts for sampled parameter points of all 20 classification rows."""

    name = "verdict-sweep"
    draws_per_row = 60
    exercised = (
        "liealg3.from_case", "liealg3.LieAlgebra3.killing_form", "liealg3.LieAlgebra3.bracket",
        "conegeom.find_interior_dual_in_annihilator", "existence.check_case",
        "existence.check_solvable", "existence.killing_containment", "cli.expected_outcome",
    )
    once_per_request = ("liealg3.from_case", "existence.check_case", "cli.expected_outcome")

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [cli.sample_case(cid, rng, i)
                for cid in sl.CASE_IDS for i in range(self.draws_per_row)]

    def label(self, case) -> str:
        return case.case_id

    def request(self, case) -> Result:
        verdict = sl.check_case(case)
        return Result(json.dumps(verdict.to_json()), 1.0, value=verdict)

    def check(self, case, result: Result) -> tuple[Optional[str], float]:
        if result.value.outcome != cli.expected_outcome(case):
            return "oracle-mismatch", 0.0
        return None, 1.0


# ---------------------------------------------------------------------------
# solve-solvable and solve-cover

@dataclass
class SolveInput:
    case: sl.SubLorentzCase
    target: object
    n_steps: int
    budget: int
    seed: int
    known_length: float


def _probe(case, control, n_steps: int, budget: int, seed: int) -> SolveInput:
    """Solve input whose target is the endpoint of a constant admissible control."""
    st = sl.build_structure(case)
    probe = sl.ControlCurve(1.0 / n_steps, np.tile(control, (n_steps, 1)), st)
    return SolveInput(case, sl.integrate(probe).endpoint, n_steps, budget, seed, sl.length(probe))


def _probe_inputs(rng, rows, n_steps, budget) -> list[SolveInput]:
    """Targets reached by constant probe controls (r, r b, 0), one per entry of ``rows``.

    Each entry is a (row, draw index) pair for ``cli.sample_case``; the draw
    index picks the branch of rows with a conditional verdict.
    """
    k = len(rows)
    rs = _strata(rng, k, 0.6, 1.2)
    bs = _strata(rng, k, -0.5, 0.5)
    return [_probe(cli.sample_case(cid, rng, index), [rs[j], rs[j] * bs[j], 0.0],
                   n_steps, budget, _solver_seed(rng))
            for j, (cid, index) in enumerate(rows)]


class _Solve:
    once_per_request = ("longarc.maximize", "longarc.build_structure")

    def label(self, inp: SolveInput) -> str:
        return inp.case.case_id

    def request(self, inp: SolveInput) -> Result:
        # the steps of ``cli.cmd_solve``: search, then certificate and bound, then trajectory
        st = sl.build_structure(inp.case)
        res = sl.maximize(st, inp.target, n_steps=inp.n_steps, budget=inp.budget, seed=inp.seed)
        verdict = sl.check_case(inp.case)
        bound = None
        if verdict.witness is not None:
            bound = sl.distance_upper_bound(st, inp.target, np.asarray(verdict.witness))
        payload = res.to_json()
        payload["upper_bound"] = bound
        payload["gap"] = (bound - res.length) if (bound is not None and res.found) else None
        payload["case"] = inp.case.case_id
        payload["params"] = inp.case.params()
        payload["target"] = [float(t) for t in st.model.coords(inp.target)]
        if res.found:
            payload["trajectory"] = [list(map(float, row)) for row in sl.integrate(res.curve).trajectory]
        return Result(json.dumps(payload), float(res.evaluations), value=(res, bound),
                      evaluations=res.evaluations, step_slots=res.evaluations * inp.n_steps,
                      controls=inp.n_steps if res.found else 0)

    def check(self, inp: SolveInput, result: Result) -> tuple[Optional[str], float]:
        res, bound = result.value
        if not res.found:
            return "not-found", 0.0
        quality = res.length / inp.known_length
        if res.endpoint_error > longarc.ENDPOINT_TOL:
            return "endpoint-error", quality
        if bound is not None and res.length > bound + BOUND_SLACK:
            return "above-bound", quality
        return None, quality


class SolveSolvable(_Solve):
    """Semidirect rows: the Heisenberg straight-arc solve plus probe targets."""

    name = "solve-solvable"
    # six cheap probes and two dear solves (row 3 and the anchor), so that
    # the median request lies inside the cheap group rather than at its edge
    rows = (("12", 0), ("13", 0), ("3", 0), ("12", 0), ("13", 0), ("12", 0), ("13", 0))
    # a semidirect probe is found at the first evaluation, from the logarithm
    probe_budget = 400
    exercised = (
        "longarc.SemidirectModel.step", "longarc.SemidirectModel.exp", "longarc.maximize",
        "longarc.distance_upper_bound", "longarc.integrate", "longarc.AntiNorm.__call__",
        "conegeom.contains", "existence.check_case", "longarc.build_structure",
    )

    def make_inputs(self, seed: int) -> list[SolveInput]:
        # anchor: the Heisenberg solve of the ROADMAP baseline, target exp(X1)
        # = [1, 0, 0], reached by the straight arc of length 1
        rng = np.random.default_rng(seed)
        anchor = _probe(sl.SubLorentzCase("1", kappa=0.0), [1.0, 0.0, 0.0], 32, ANCHOR_BUDGET,
                        _solver_seed(rng))
        return [anchor] + _probe_inputs(rng, self.rows, PROBE_STEPS, self.probe_budget)


class SolveCover(_Solve):
    """sl2 rows on the cover model, with probe targets in cover coordinates."""

    name = "solve-cover"
    rows = (("10", 0), ("10", 1), ("19", 0), ("2", 0)) * 2
    # At 400 evaluations, 3 of 82 probes on the branch chi > 0 of row 10
    # (seeds 7 and 20-59) were not found, all with |kappa| close to chi; at
    # 800, 1 of 204 (seeds 0-99, 1729, 9241).
    probe_budget = 800
    exercised = (
        "longarc.CoverModel.step", "sl2cover.push_forward", "longarc.maximize",
        "longarc.integrate", "longarc.AntiNorm.__call__", "conegeom.contains",
        "existence.check_case", "existence.killing_containment", "longarc.build_structure",
    )

    def make_inputs(self, seed: int) -> list[SolveInput]:
        # anchor: the sl2 solve of the ROADMAP baseline, row 10 at 16 steps
        rng = np.random.default_rng(seed)
        anchor = _probe(sl.SubLorentzCase("10", kappa=-2.0, chi=-1.0), [0.9, 0.18, 0.0], 16,
                        ANCHOR_BUDGET, _solver_seed(rng))
        return [anchor] + _probe_inputs(rng, self.rows, PROBE_STEPS, self.probe_budget)


# ---------------------------------------------------------------------------
# loop-witness

@dataclass
class WitnessInput:
    args: object
    demanded: float


class LoopWitness:
    """``cli.cmd_witness`` on the su2 row at (kappa, chi, demanded length) points."""

    name = "loop-witness"
    periods = tuple(4.0 * np.pi / np.sqrt(s) for s in np.linspace(0.6, 3.0, 8))
    demands = (10.0, 30.0, 100.0, 300.0, 1000.0)
    exercised = (
        "longarc.QuaternionModel.step", "longarc.integrate", "longarc.length",
        "longarc.su2_unbounded_witness", "conegeom.contains", "cli.cmd_witness",
        "longarc.AntiNorm.__call__",
    )
    once_per_request = ("cli.cmd_witness", "longarc.su2_unbounded_witness", "longarc.integrate")

    def make_inputs(self, seed: int) -> list[WitnessInput]:
        # A request integrates 64 controls per loop and ceil(demand / period)
        # loops, with period 4 pi / sqrt(-(kappa + chi)).  Periods and demands
        # form a fixed grid, so every seed asks for the same amount of work;
        # the seed splits each period's kappa + chi between kappa and chi.
        rng = np.random.default_rng(seed)
        parser = cli.make_parser()
        out = []
        for period in self.periods:
            s = (4.0 * np.pi / period) ** 2
            u = float(rng.uniform(-0.5, 0.5))
            chi = -float(s) / (1.0 - u)
            kappa = u * -chi
            for demand in self.demands:
                args = parser.parse_args(["witness", "--case", "9", f"--kappa={kappa!r}",
                                          f"--chi={chi!r}", f"--length={demand!r}"])
                out.append(WitnessInput(args, demand))
        return out

    def label(self, inp: WitnessInput) -> str:
        return f"{inp.args.kappa + inp.args.chi:.4g}:{inp.demanded:g}"

    def request(self, inp: WitnessInput) -> Result:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.cmd_witness(inp.args)
        return Result(buf.getvalue(), inp.demanded, value=code)

    def check(self, inp: WitnessInput, result: Result) -> tuple[Optional[str], float]:
        if result.value != cli.EXIT_OK:
            return "exit-code", 0.0
        payload = json.loads(result.text)
        result.controls = len(payload["curve"]["controls"])  # read here, outside the timed request
        quality = inp.demanded / payload["length"]
        if payload["length"] < inp.demanded:
            return "too-short", quality
        if payload["endpoint_error"] > WITNESS_ENDPOINT_TOL:
            return "loop-not-closed", quality
        return None, quality


WORKLOADS = {w.name: w for w in (VerdictSweep(), SolveSolvable(), SolveCover(), LoopWitness())}

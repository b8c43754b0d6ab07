"""Command-line front end.

Subcommands:

* ``table``     reproduce the classification verdict table over sampled
                admissible parameters (exit 2 on any disagreement with the
                reference verdicts);
* ``check``     verdict for a single case (JSON);
* ``solve``     near-longest curve search with the calibration upper bound;
* ``witness``   unbounded-length loop construction for case 9.

All output is deterministic for a fixed seed (default 1729).  Exit codes:
0 success / agreement, 1 usage or constraint error, 2 verdict mismatch,
3 solver target not found.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import re
import sys
from typing import Optional, Sequence

import numpy as np

from .existence import check_case
from .liealg3 import CASE_IDS, CASE_LABELS, SL2_CASES, SU2_CASE, SubLorentzCase
from .longarc import (
    DEFAULT_SEED,
    ENDPOINT_TOL,
    MAX_STEPS,
    build_structure,
    distance_upper_bound,
    integrate,
    length,
    maximize,
    su2_unbounded_witness,
    target_from_exp2,
)
from .oracle import expected_outcome, sample_case
from .sl2cover import CoverElement

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_NOT_FOUND = 3


# ---------------------------------------------------------------------------
# the verdict table

def _row_draws(cid: str, rng, samples: int):
    """Each sampled draw of one row, decided as it is read against the reference verdict."""
    for i in range(samples):
        case = sample_case(cid, rng, i)
        outcome, want = check_case(case).outcome, expected_outcome(case)
        yield {"params": case.params(), "outcome": outcome.value, "expected": want.value, "match": outcome == want}


def _write_table(rows, samples: int, seed: int, text: bool, write) -> bool:
    """Write the table draw by draw, as text or as one JSON object (seed, samples, rows of case,
    label and draws, all_match); True iff every draw matches its reference verdict."""
    all_match = True
    write(f"# classification verdicts (seed={seed}, samples={samples})\n" if text
          else f'{{"seed": {seed}, "samples": {samples}, "rows": [')
    for n, (cid, draws) in enumerate(rows):
        # a JSON row is its object up to the open list of its draws
        write(f"{cid:>3}  {CASE_LABELS[cid]:<12} " if text
              else (", " if n else "") + json.dumps({"case": cid, "label": CASE_LABELS[cid], "draws": []})[:-2])
        for i, d in enumerate(draws):
            all_match = all_match and d["match"]
            mark = "" if d["match"] else " [MISMATCH expected " + d["expected"] + "]"
            sep = ("; " if text else ", ") if i else ""
            write(sep + (f"({_format_params(d['params'])})->{d['outcome']}{mark}" if text else json.dumps(d)))
        write("\n" if text else "]}")
    write(f"agreement: {'ok' if all_match else 'MISMATCH'}\n" if text
          else f'], "all_match": {json.dumps(all_match)}}}\n')
    return all_match


def _format_params(params: dict) -> str:
    return ",".join(f"{k}={v!r}" for k, v in sorted(params.items()))


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option looks like a number, so a token such as "-2e-8" is a
        # value; argparse's own pattern only takes plain negatives such as
        # "-2", "-0.5" and "-.5" as values
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _case_from_args(args) -> SubLorentzCase:
    return SubLorentzCase(
        case_id=args.case,
        kappa=args.kappa,
        tau=args.tau,
        chi=args.chi,
        variant=args.variant,
    )


def _add_case_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", required=True, choices=CASE_IDS)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--chi", type=float, default=None)
    p.add_argument("--variant", type=int, default=1, choices=(1, 2))


def make_parser() -> _Parser:
    parser = _Parser(prog="sublorentz",
                     description="Longest-arc existence verdicts and desk-scale solver.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", parents=[common],
                             help="verdicts for every classification row")
    p_table.add_argument("--samples", type=int, default=1)
    p_table.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_check = sub.add_parser("check", parents=[common], help="verdict for a single case")
    _add_case_arguments(p_check)
    # the two commands with a text rendering
    for p in (p_table, p_check):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_solve = sub.add_parser("solve", parents=[common], help="near-longest curve search")
    _add_case_arguments(p_solve)
    p_solve.add_argument("--target", required=True,
                         help='JSON: [a,b,c] exponential coordinates, or {"c":..,"w":[..]} for sl2 rows')
    p_solve.add_argument("--steps", type=int, default=24)
    p_solve.add_argument("--budget", type=int, default=10000)
    p_solve.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_wit = sub.add_parser("witness", parents=[common],
                           help="unbounded-length loop curve on case 9")
    _add_case_arguments(p_wit)
    p_wit.add_argument("--length", type=float, required=True, dest="demanded_length")
    p_wit.add_argument("--steps-per-loop", type=int, default=64)

    return parser


# ---------------------------------------------------------------------------
# command bodies

def cmd_table(args) -> int:
    if args.samples < 1:
        raise ValueError("samples must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    # each draw is written as it is decided, so memory does not grow with --samples; the rows
    # share one generator, so each row's draws are read before the next row's
    rng = np.random.default_rng(args.seed)
    rows = ((cid, _row_draws(cid, rng, args.samples)) for cid in CASE_IDS)
    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        all_match = _write_table(rows, args.samples, args.seed, args.format == "text", fh.write)
    return EXIT_OK if all_match else EXIT_MISMATCH


def cmd_check(args) -> int:
    case = _case_from_args(args)
    verdict = check_case(case)
    payload = verdict.to_json()
    if args.format == "text":
        _emit(f"case {case.case_id} ({_format_params(case.params())}): "
              f"{verdict.outcome.value} via {verdict.rationale}\n", args.out)
    else:
        _emit(json.dumps(payload) + "\n", args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    if args.steps > MAX_STEPS:
        raise ValueError(f"steps must be <= {MAX_STEPS}")
    if args.budget < 0:
        raise ValueError("budget must be >= 0")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    case = _case_from_args(args)
    if case.case_id == "9":
        raise ValueError("case 9 has infinite distance to every attainable point; "
                         "use `sublorentz witness --case 9 ...` for arbitrarily long admissible curves")
    structure = build_structure(case)
    target_spec = json.loads(args.target)
    if isinstance(target_spec, dict) and case.case_id in SL2_CASES:
        w = target_spec.get("w")
        values = [target_spec.get("c"), *w] if isinstance(w, list) and len(w) == 2 else []
        if not values or not all(isinstance(t, (int, float)) and not isinstance(t, bool) and math.isfinite(t)
                                 for t in values):
            raise ValueError('a cover target is {"c": c, "w": [re, im]} with finite numbers')
        target = CoverElement(values[0], complex(values[1], values[2]))
    elif isinstance(target_spec, list):
        target = target_from_exp2(structure, target_spec)
    else:
        raise ValueError('the target is [a, b, c], or {"c": c, "w": [re, im]} on an sl2 row')
    result = maximize(structure, target, n_steps=args.steps, budget=args.budget, seed=args.seed)
    bound = None
    verdict = check_case(case)
    if verdict.witness is not None:
        bound = distance_upper_bound(structure, target, verdict.witness)
    payload = dataclasses.replace(result, upper_bound=bound).to_json()
    payload["case"] = case.case_id
    payload["params"] = case.params()
    payload["target"] = target_spec
    if result.found:
        payload["trajectory"] = integrate(result.curve).trajectory.tolist()
    _emit(json.dumps(payload) + "\n", args.out)
    return EXIT_OK if result.found else EXIT_NOT_FOUND


def cmd_witness(args) -> int:
    case = _case_from_args(args)
    if case.case_id != SU2_CASE:
        # named before the structure is built, whose Killing form may overflow on this row
        raise ValueError(f"the loop construction applies to the su2 structure (case {SU2_CASE}), "
                         f"not to case {case.case_id}")
    structure = build_structure(case)
    curve = su2_unbounded_witness(structure, args.demanded_length,
                                  steps_per_loop=args.steps_per_loop)
    result = integrate(curve)
    model = structure.model
    d = [a - b for a, b in zip(model.coords(result.endpoint), model.coords(model.identity()))]
    if not all(map(math.isfinite, d)):
        raise ValueError(f"demanded length {args.demanded_length:g} is too long: the powered loop "
                         "endpoint is not finite")
    endpoint_error = math.hypot(*d)  # scaled inside, so a huge finite endpoint does not overflow
    if endpoint_error > ENDPOINT_TOL:
        raise ValueError(f"demanded length {args.demanded_length:g} is too long: the powered loop "
                         f"endpoint is {endpoint_error:.3g} from the identity, above {ENDPOINT_TOL:g}")
    payload = {
        "case": case.case_id,
        "params": case.params(),
        "length": length(curve),
        "endpoint_error": endpoint_error,
        "curve": curve.to_json(),
    }
    _emit(json.dumps(payload) + "\n", args.out)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {"table": cmd_table, "check": cmd_check, "solve": cmd_solve, "witness": cmd_witness}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()  # a reader that left early fails here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:  # such as `table | head`: what is left goes to devnull, as Python's docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except (ValueError, TypeError, OverflowError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

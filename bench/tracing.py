"""Spans around the public functions of the package, installed from outside.

The package is not edited: ``Tracer.install`` replaces each declared function
or method with a wrapper that records one span per call.  Modules such as
``existence``, ``longarc`` and ``cli`` bind names like ``from_case`` or
``contains`` with ``from ... import``, so a module-level function is replaced
under every name that any loaded ``sublorentz`` module binds to it; methods
are replaced on their class.  ``stale_bindings`` reports any binding the
replacement missed.

A span records its name, start, end, parent span and request id.  Spans are
kept in memory in typed arrays and turned into per-layer figures when the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from stats import self_times

PACKAGE = "sublorentz"

#: Public names that get a span, as ``module.qualname`` under the package.
#: Private helpers (``_exp_and_int``, ``_expm2``, the float-keyed caches) are
#: left alone on purpose: they are expected to disappear.
SPANS = (
    "liealg3.from_case",
    "liealg3.LieAlgebra3.killing_form",
    "liealg3.LieAlgebra3.bracket",
    "conegeom.contains",
    "conegeom.find_interior_dual_in_annihilator",
    "existence.check_case",
    "existence.check_solvable",
    "existence.killing_containment",
    "sl2cover.push_forward",
    "longarc.AntiNorm.__call__",
    "longarc.SemidirectModel.exp",
    "longarc.SemidirectModel.step",
    "longarc.CoverModel.step",
    "longarc.QuaternionModel.step",
    "longarc.build_structure",
    "longarc.integrate",
    "longarc.length",
    "longarc.distance_upper_bound",
    "longarc.maximize",
    "longarc.su2_unbounded_witness",
    "cli.expected_outcome",
    "cli.cmd_witness",
)

#: Root span the benchmark opens around each request it times.
REQUEST = "bench.request"

#: Per-call time metrics, by span: (suffix, unit, seconds-to-unit factor).
#: Spans not listed report microseconds.
TIME_UNITS = {
    "longarc.maximize": ("self_s", "s", 1.0),
    "longarc.distance_upper_bound": ("self_ms", "ms", 1e3),
    "longarc.su2_unbounded_witness": ("self_ms", "ms", 1e3),
    "cli.cmd_witness": ("self_ms", "ms", 1e3),
}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        suffix, unit, _ = TIME_UNITS.get(span, ("self_us", "us", 1e6))
        units[f"{span}.{suffix}"] = unit
    units.update({
        "longarc.steps_per_eval": "ratio",
        "longarc.AntiNorm.calls_per_eval": "count",
        "longarc.integrate.us_per_control": "us",
        "cli.output_bytes": "bytes",
        "trace_overhead_ratio": "ratio",
    })
    return units


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans for ``SPANS`` while installed."""

    def __init__(self, spans=SPANS):
        self.names = [REQUEST, *spans]
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request_id = 0
        self._stack = [-1]
        self._originals: dict[str, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, nid: int):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    @contextmanager
    def request_span(self):
        """Root span of one request; spans opened inside carry its id."""
        self.request_id += 1
        i = self._open(0)
        try:
            yield
        finally:
            self._close(i)

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        importlib.import_module(PACKAGE)
        modules = _package_modules()
        for nid, span in enumerate(self.names[1:], start=1):
            modname, _, qualname = span.partition(".")
            module = importlib.import_module(f"{PACKAGE}.{modname}")
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(original, nid))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(original, nid)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, wrapper)
            self._originals[span] = original

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def stale_bindings(self) -> list[str]:
        """``module.name`` bindings that still point at an unwrapped original."""
        originals = {id(fn): span for span, fn in self._originals.items()}
        stale = []
        for m in _package_modules():
            for key, value in vars(m).items():
                if id(value) in originals:
                    stale.append(f"{m.__name__}.{key} ({originals[id(value)]})")
        return stale

    # -- summaries ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total self seconds and total inclusive seconds."""
        a = self.arrays()
        own = np.asarray(self_times(a["parent"].tolist(), a["start"].tolist(), a["end"].tolist()))
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        incl_s = np.bincount(a["name_id"], weights=a["end"] - a["start"], minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
                for i, name in enumerate(self.names)}

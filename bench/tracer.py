"""Spans around shellwave's public functions, recorded from outside the package.

While installed, every public function of the six modules (and the
``solve_ivp`` name that ``shellwave.modelsys`` calls) is replaced, in every
shellwave module namespace that holds it, by a wrapper that records a span.
``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

PACKAGE = "shellwave"
LAYERS = ("lattice", "lp", "modelsys", "energies", "gronwall", "cli")


class Span(NamedTuple):
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    op: int | None  # operation id the worker set when the call began
    l_max: int | None  # of the first Lattice argument, if any
    note: object  # nfev of a solve, (fallback, extracted) degrees of an extraction


def _l_max(args, kwargs, lattice_type):
    for a in (*args, *kwargs.values()):
        if isinstance(a, lattice_type):
            return a.l_max
    return None


def _note(name, result):
    if name == "modelsys.solve_ivp":
        return int(result.nfev)
    if name == "modelsys.extract_asymptotic_data":
        data, diag = result
        return (int(diag["ill_conditioned_degrees"]), data.O_field.lattice.l_max + 1)
    return None


class Tracer:
    """Keeps spans in memory; the caller writes them out when the run ends."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, lattice_type):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = self.op
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, op,
                                  _l_max(args, kwargs, lattice_type), None)
            note = _note(name, result)
            if note is not None:
                spans[idx] = spans[idx]._replace(note=note)
            return result

        return traced

    def install(self):
        """Rebind every traced name in every loaded shellwave module."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        lattice_type = importlib.import_module(f"{PACKAGE}.lattice").Lattice
        targets = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn, lattice_type))
        solve = sys.modules[f"{PACKAGE}.modelsys"].solve_ivp
        targets[id(solve)] = (solve, self._wrap("modelsys.solve_ivp", solve, lattice_type))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ------------------------------------------------------------ metrics

# Per-layer metrics taken as the inclusive time of the listed functions.
_INCLUSIVE = {
    "energies.budget_s": ("energies.forcing_energy_first", "energies.forcing_energy_second"),
    "energies.blowup_s": ("energies.singular_blowup_check",),
    "modelsys.propagator_s": ("modelsys.fundamental_matrices", "modelsys.forced_profile",
                              "modelsys.data_to_state_maps"),
    "modelsys.integrate_s": ("modelsys.integrate",),
    "modelsys.split_s": ("modelsys.split_singular_component",),
    "modelsys.epsilon_s": ("modelsys.epsilon_construction_check",),
    "modelsys.scalar_run_s": ("modelsys.constant_mode_run",),
    "modelsys.seed_extract_s": ("modelsys.seed_state", "modelsys.extract_asymptotic_data"),
    "modelsys.solve_s": ("modelsys.solve_ivp",),
    "gronwall.saturate_s": ("gronwall.saturate_recursion",),
    "lp.poincare_s": ("lp.verify_refined_poincare",),
    "lp.props_s": ("lp.check_lp_properties",),
}
# Per-layer metrics taken as the self time of one function.
_SELF = {
    "energies.contraction_s": "energies.verify_theorem_ratio",
    "gronwall.majorant_s": "gronwall.gronwall_like_bound",
}
# Per-layer metrics counting calls of one function.
_COUNT = {
    "modelsys.solves": "modelsys.solve_ivp",
    "gronwall.instances": "gronwall.gronwall_like_bound",
    "lp.defect_calls": "lp.refined_poincare_defect",
}

# Round-off allowance for the self-time checks, in seconds.
_EPS = 1e-9


def span_metrics(spans, first, wall):
    """Per-layer metrics of spans[first:], recorded during ``wall`` seconds.

    Returns (metrics, problems); ``problems`` lists failed self-checks: a
    negative self time, or self times summing to more than the wall time.
    """
    seg = spans[first:]
    self_t = [s.end - s.start for s in seg]
    for s in seg:
        if s.parent >= first:
            self_t[s.parent - first] -= s.end - s.start
    inclusive = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for s, st in zip(seg, self_t):
        inclusive[s.name] += s.end - s.start
        own[s.name] += st
        calls[s.name] += 1

    m = {}
    for metric, names in _INCLUSIVE.items():
        m[metric] = sum(inclusive[n] for n in names)
    for metric, name in _SELF.items():
        m[metric] = own[name]
    for metric, name in _COUNT.items():
        m[metric] = calls[name]
    for layer in LAYERS:
        m[f"{layer}.calls"] = sum(c for n, c in calls.items() if n.split(".")[0] == layer)
        m[f"{layer}.self_s"] = sum(t for n, t in own.items() if n.split(".")[0] == layer)
    m["modelsys.rhs_evals"] = sum(s.note for s in seg if s.name == "modelsys.solve_ivp")
    fallback = extracted = 0
    for s in seg:
        if s.name == "modelsys.extract_asymptotic_data" and s.note is not None:
            fallback += s.note[0]
            extracted += s.note[1]
    m["modelsys.extract_fallback_frac"] = fallback / extracted if extracted else 0.0
    # Share of the pass inside spans of the five computing layers.  Time that
    # cli spends itself (its private helpers, bundle I/O) is not covered.
    m["trace.coverage"] = sum(st for s, st in zip(seg, self_t) if s.name.split(".")[0] != "cli") / wall
    total_self = sum(self_t)

    problems = []
    worst = min(self_t, default=0.0)
    if worst < -_EPS:
        problems.append(f"negative self time {worst:.3e} s")
    if total_self > wall + _EPS:
        problems.append(f"self times sum to {total_self:.6f} s, more than the wall {wall:.6f} s")
    return m, problems

"""Span tracing from outside the program, and the per-layer metrics.

Every public function of a layer module is wrapped at every module that
binds it by name (``from .spectrum import solve_spectrum`` makes
``dynamics.solve_spectrum`` a second binding), so calls are seen whichever
way they are made. A few public methods that per-layer metrics need are
wrapped on their class. The stepper ``propagate._run`` is wrapped too, and
its ``on_step`` hook is chained to take one timestamp per step: that is the
only way to split step cost between held and ramped fields without
touching the program.

A span is [name, start, end, parent, note]. Each traced round starts a
fresh list in memory; the last one is written out at the end. A span's self time is its duration minus
that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List

LAYERS = ("core", "spectrum", "elements", "cqes", "dynamics", "propagate",
          "validation", "cli")

# Public methods traced on their classes: (module, class, method).
METHODS = (
    ("spectrum", "PendularSpectrum", "wavefunction"),
    ("core", "Wavefunction", "expectation_cos"),
    ("core", "Wavefunction", "expectation_cos2"),
    ("core", "Wavefunction", "expectation_kinetic"),
    ("core", "Wavefunction", "expectation_potential"),
    ("core", "Wavefunction", "expectation_energy"),
)

OBSERVABLE_SPANS = tuple(f"core.Wavefunction.{m}" for _, c, m in METHODS
                         if c == "Wavefunction")
GRID_STATE_SPANS = ("cqes.aligned_grid_state",
                    "spectrum.PendularSpectrum.wavefunction")


def _solve_note(args, kwargs, result):
    return (result.n_states, 2 * result.j_max + 1)


def _pairs(labels) -> int:
    counts = defaultdict(int)
    for lab in labels:
        counts[lab] += 1
    return sum(n * (n - 1) // 2 for n in counts.values())


def _switch_on_evolution_note(args, kwargs, result):
    spectrum, tau_grid = args[0], args[2]
    return _pairs(spectrum.labels) * len(tau_grid)


def _switch_off_evolution_note(args, kwargs, result):
    # band_sum builds exp(+-i*tau x freq) for offsets 1 and 2: complex
    # (n_tau x (2*j_max + 1 - offset)) matrices, two per band
    coeffs, tau_grid = args[0], args[1]
    width = 2 * coeffs.j_max + 1
    return sum(2 * 16 * len(tau_grid) * (width - off) for off in (1, 2))


def _propagate_note(args, kwargs, result):
    return len(result.tau_samples)


NOTES = {
    "spectrum.solve_spectrum": _solve_note,
    "dynamics.switch_on_evolution": _switch_on_evolution_note,
    "dynamics.switch_off_evolution": _switch_off_evolution_note,
    "propagate.propagate": _propagate_note,
}


class Tracer:
    def __init__(self, package):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches = []          # (owner, attribute, original, wrapper)
        self._collect(package)

    # -- installation ------------------------------------------------------

    def _collect(self, package) -> None:
        # by module path: the package rebinds the name "propagate" to the
        # function of that name
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in LAYERS}
        originals: Dict[int, str] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = f"{layer}.{name}"
        stepper = modules["propagate"]._run
        originals[id(stepper)] = "propagate._run"
        wrappers = {}
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                span = originals.get(id(obj))
                if span is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = (self._wrap_stepper(obj)
                                         if obj is stepper
                                         else self._wrap(span, obj))
                self._patches.append((mod, attr, obj, wrappers[id(obj)]))
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = vars(cls)[method]
            self._patches.append(
                (cls, method, fn,
                 self._wrap(f"{layer}.{cls_name}.{method}", fn)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def _wrap_stepper(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(amps, grid, schedule, duration, nsteps, on_step=None):
            stamps: List[float] = []
            stamp = stamps.append

            def timed_step(i, psi):
                if on_step is not None:
                    on_step(i, psi)
                stamp(perf_counter())

            span = self._open("propagate._run")
            span[1] = perf_counter()
            try:
                return fn(amps, grid, schedule, duration, nsteps, timed_step)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                span[4] = (schedule, duration, nsteps, stamps)

        return traced


def dump(spans: List[list], path: str) -> None:
    """Write spans as JSON lines of name, start, end, parent index."""
    with open(path, "w") as fh:
        for name, start, end, parent, _ in spans:
            fh.write(json.dumps([name, start, end, parent]) + "\n")


# --------------------------------------------------------------------------
# per-layer metrics of one traced round

PER_LAYER_UNITS = {
    "spectrum.solves": "count",
    "spectrum.solve_self_s": "s",
    "spectrum.build_s": "s",
    "spectrum.basis_rows": "count",
    "spectrum.kept_ratio": "ratio",
    "spectrum.crossing_scan_self_s": "s",
    "cqes.grid_states": "count",
    "cqes.grid_states_per_solve": "ratio",
    "cqes.grid_state_s": "s",
    "cqes.switch_on_overlap_self_s": "s",
    "cqes.switch_off_overlap_self_s": "s",
    "dynamics.time_average_self_s": "s",
    "dynamics.topology_map_self_s": "s",
    "dynamics.populations_self_s": "s",
    "dynamics.switch_on_evolution_self_s": "s",
    "dynamics.switch_off_evolution_self_s": "s",
    "dynamics.coherence_terms": "count",
    "dynamics.phase_matrix_mb": "MB",
    "propagate.steps": "count",
    "propagate.hold_us_per_step": "us",
    "propagate.ramp_us_per_step": "us",
    "propagate.snapshots": "count",
    "core.observables_s": "s",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "cli.us_per_row": "us",
    "trace.overhead_s": "s",
}


def _step_split(note) -> tuple:
    """(hold steps, hold seconds, ramp steps, ramp seconds) of one _run.

    Step i lasts from stamp i-1 to stamp i, so the first step, which also
    carries the stepper's set-up, is left out. A hold step sees the same midpoint fields as the step before it, so
    the stepper reuses its potential phase; any other step is a ramp step.
    """
    schedule, duration, nsteps, stamps = note
    dtau = duration / nsteps
    out = [0, 0.0, 0, 0.0]
    last = schedule.fields_at(0.5 * dtau)
    for i in range(1, len(stamps)):
        fields = schedule.fields_at((i + 0.5) * dtau)
        slot = 0 if fields == last else 2
        out[slot] += 1
        out[slot + 1] += stamps[i] - stamps[i - 1]
        last = fields
    return tuple(out)


def round_metrics(spans: List[list], rows: int, nbytes: int) -> Dict[str, float]:
    """Per-layer metrics of the spans of one round."""
    child = [0.0] * len(spans)
    names = [s[0] for s in spans]
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    incl = defaultdict(float)
    self_t = defaultdict(float)
    count = defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        incl[name] += end - start
        self_t[name] += end - start - child[i]
        count[name] += 1

    def top_level(group) -> float:
        return sum(s[2] - s[1] for s in spans
                   if s[0] in group and (s[3] < 0 or names[s[3]] not in group))

    solves = [s[4] for s in spans if s[0] == "spectrum.solve_spectrum"]
    kept = sum(n for n, _ in solves)
    computed = sum(rows_ for _, rows_ in solves)
    hold = [0, 0.0, 0, 0.0]
    steps = 0
    for s in spans:
        if s[0] == "propagate._run":
            steps += s[4][2]
            for k, v in enumerate(_step_split(s[4])):
                hold[k] += v
    grid_states = count["cqes.aligned_grid_state"]
    cli_self = self_t["cli.main"]
    return {
        "spectrum.solves": len(solves),
        "spectrum.solve_self_s": self_t["spectrum.solve_spectrum"],
        "spectrum.build_s": incl["spectrum.build_hamiltonian"],
        "spectrum.basis_rows": computed,
        "spectrum.kept_ratio": kept / computed if computed else 0.0,
        "spectrum.crossing_scan_self_s": self_t["spectrum.crossing_scan"],
        "cqes.grid_states": grid_states,
        "cqes.grid_states_per_solve": grid_states / len(solves) if solves else 0.0,
        "cqes.grid_state_s": top_level(GRID_STATE_SPANS),
        "cqes.switch_on_overlap_self_s":
            self_t["cqes.quadrature_switch_on_coefficients"],
        "cqes.switch_off_overlap_self_s":
            self_t["cqes.quadrature_switch_off_coefficients"],
        "dynamics.time_average_self_s":
            self_t["dynamics.time_averaged_orientation"],
        "dynamics.topology_map_self_s": self_t["dynamics.topology_map"],
        "dynamics.populations_self_s":
            self_t["dynamics.switch_on_populations"]
            + self_t["dynamics.switch_off_populations"],
        "dynamics.switch_on_evolution_self_s":
            self_t["dynamics.switch_on_evolution"],
        "dynamics.switch_off_evolution_self_s":
            self_t["dynamics.switch_off_evolution"],
        "dynamics.coherence_terms": sum(
            s[4] for s in spans if s[0] == "dynamics.switch_on_evolution"),
        "dynamics.phase_matrix_mb": max(
            [s[4] for s in spans if s[0] == "dynamics.switch_off_evolution"],
            default=0) / 1e6,
        "propagate.steps": steps,
        "propagate.hold_us_per_step": 1e6 * hold[1] / hold[0] if hold[0] else 0.0,
        "propagate.ramp_us_per_step": 1e6 * hold[3] / hold[2] if hold[2] else 0.0,
        "propagate.snapshots": sum(
            s[4] for s in spans if s[0] == "propagate.propagate"),
        "core.observables_s": top_level(OBSERVABLE_SPANS),
        "cli.self_s": cli_self,
        "cli.rows_written": rows,
        "cli.bytes_written": nbytes,
        "cli.us_per_row": 1e6 * cli_self / rows if rows else 0.0,
    }


def best_metrics(per_round: List[Dict[str, float]]) -> Dict[str, float]:
    """Per metric, the smallest value over rounds. Counts are the same in
    every round; times take the round least slowed by the host."""
    return {k: min(r[k] for r in per_round) for k in per_round[0]}

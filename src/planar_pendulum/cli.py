"""Command-line driver.

Commands map one-to-one onto library operations and own every file
format. CSV bodies are deterministic (header row, then rows with floats
at 15 significant digits, newline line endings); every run writes a
manifest JSON next to the primary output listing the resolved
configuration, library version, and a checksum per output file.

Flags have a JSON config-file mirror (--config): file keys use the long
option names without the leading dashes, explicit flags override file
values, unknown keys are rejected with the offending line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .core import (
    InteractionParams,
    Wavefunction,
    free_rotor_wavefunction,
    make_grid,
)
from .cqes import (
    aligned_grid_state,
    switch_off_coefficients,
    switch_on_coefficients,
)
from .dynamics import (
    make_tau_grid,
    switch_off_evolution,
    switch_off_populations,
    switch_on_evolution,
    switch_on_populations,
    topology_map,
)
from .propagate import Profile, PulseSchedule, Segment, propagate
from .spectrum import crossing_scan, solve_spectrum
from .validation import run_all

COMMANDS = ("spectrum", "crossings", "switch-off", "switch-on", "propagate",
            "topology-map", "validate")


class ConfigError(Exception):
    """Invalid configuration; carries a file:line reference when known."""

    def __init__(self, message: str, source: Optional[str] = None):
        super().__init__(message)
        self.source = source

    def render(self) -> str:
        if self.source:
            return f"error: {self.source}: {self}"
        return f"error: {self}"


def parse_range(text: str) -> np.ndarray:
    """start:stop:step, endpoints inclusive within half a step."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range {text!r} must be start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"range {text!r} has non-numeric parts") from None
    if step <= 0:
        raise ConfigError(f"range {text!r}: step must be > 0")
    if stop < start - 0.5 * step:
        raise ConfigError(f"range {text!r} is empty (stop < start)")
    count = int(math.floor((stop - start + 0.5 * step) / step)) + 1
    return start + step * np.arange(count)


def _axis_points(scalar, range_text, name: str) -> np.ndarray:
    if scalar is not None and range_text is not None:
        raise ConfigError(f"give either --{name} or --{name}-range, not both")
    if range_text is not None:
        return parse_range(str(range_text))
    if scalar is not None:
        return np.array([float(scalar)])
    raise ConfigError(f"missing --{name} or --{name}-range")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.15g" % float(value)
    return str(value)


def _write_csv(path: str, columns: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json_table(path: str, columns: Sequence[str],
                      rows: Sequence[Sequence]) -> None:
    def keep(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return int(v)
        return float(v)

    body = {
        "columns": list(columns),
        "rows": [[keep(v) for v in row] for row in rows],
    }
    with open(path, "w") as fh:
        json.dump(body, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(primary: str, command: str, resolved: Dict,
                    outputs: List[str]) -> str:
    stem, _ = os.path.splitext(primary)
    path = stem + ".manifest.json"
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(resolved.items()) if v is not None},
        "version": __version__,
        "outputs": [
            {"path": p, "sha256": _sha256(p), "bytes": os.path.getsize(p)}
            for p in outputs
        ],
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# --------------------------------------------------------------------------
# configuration plumbing


_NUMBER_LIKE = re.compile(r"^-(\d|\.\d)")


def _preprocess_argv(argv: List[str]) -> List[str]:
    """Join flag/value pairs whose value starts with '-' (numbers, ranges).

    argparse would otherwise read "-40:0:0.1" as an option string.
    """
    out: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok.startswith("--") and "=" not in tok and i + 1 < len(argv)
                and _NUMBER_LIKE.match(argv[i + 1])):
            out.append(tok + "=" + argv[i + 1])
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def _key_line(raw_text: str, key: str) -> Optional[int]:
    pat = re.compile(r'"%s"\s*:' % re.escape(key))
    for lineno, line in enumerate(raw_text.splitlines(), start=1):
        if pat.search(line):
            return lineno
    return None


def _load_config(path: str, command: str,
                 known: Sequence[str]) -> Dict:
    try:
        raw = open(path).read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", source=path) from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}",
                          source=f"{path}:{exc.lineno}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object", source=path)
    for key in data:
        if key == "command":
            if data[key] != command:
                line = _key_line(raw, key)
                raise ConfigError(
                    f"config is for command {data[key]!r}, invoked {command!r}",
                    source=f"{path}:{line}" if line else path)
            continue
        if key not in known:
            line = _key_line(raw, key)
            raise ConfigError(f"unknown key {key!r} for command {command!r}",
                              source=f"{path}:{line}" if line else path)
    return data


def _resolve(args: argparse.Namespace, keys: Sequence[str],
             defaults: Dict) -> Dict:
    """defaults < config file < explicit flags."""
    resolved = dict(defaults)
    command = args.command
    if getattr(args, "config", None):
        file_values = _load_config(args.config, command, list(keys))
        for k, v in file_values.items():
            if k != "command":
                resolved[k] = v
    for key in keys:
        attr = key.replace("-", "_")
        val = getattr(args, attr, None)
        if val is not None:
            resolved[key] = val
    return resolved


def _resolve_threads(resolved: Dict) -> Optional[int]:
    """--threads, else PLANAR_PENDULUM_THREADS, else None; must be >= 1."""
    source, text = "--threads", resolved.get("threads")
    if text is None:
        source = "PLANAR_PENDULUM_THREADS"
        text = os.environ.get(source) or None
    if text is None:
        return None
    try:
        threads = int(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{source}={text!r} is not an integer") from None
    if threads < 1:
        raise ConfigError(f"{source}={threads} must be >= 1")
    return threads


# --------------------------------------------------------------------------
# command handlers: each returns (columns, rows, extra_outputs)


def _scan_points(resolved: Dict) -> List[Tuple[float, float]]:
    etas = _axis_points(resolved.get("eta"), resolved.get("eta-range"), "eta")
    zetas = _axis_points(resolved.get("zeta"), resolved.get("zeta-range"),
                         "zeta")
    return [(float(e), float(z)) for z in zetas for e in etas]


def _run_spectrum(resolved: Dict):
    n_states = int(resolved["n-states"])
    j_max = int(resolved["j-max"])
    rows = []
    for eta, zeta in _scan_points(resolved):
        spec = solve_spectrum(InteractionParams(eta, zeta), n_states, j_max)
        for n in range(spec.n_states):
            rows.append((eta, zeta, n, str(spec.labels[n]),
                         float(spec.energies[n])))
    return ["eta", "zeta", "n", "symmetry", "energy"], rows, {}


def _run_crossings(resolved: Dict):
    if resolved.get("eta-range") is None:
        raise ConfigError("crossings needs --eta-range as the search window")
    window = parse_range(str(resolved["eta-range"]))
    zetas = _axis_points(resolved.get("zeta"), resolved.get("zeta-range"),
                         "zeta")
    pair = resolved["pair"]
    if pair is None or len(pair) != 2:
        raise ConfigError("crossings needs --pair N M (adjacent states)")
    pair = (int(pair[0]), int(pair[1]))
    rows = []
    for zeta in zetas:
        records = crossing_scan(
            float(zeta), (float(window[0]), float(window[-1])), pair,
            resolution=int(resolved["resolution"]),
            j_max=int(resolved["j-max"]),
            eta_tol=float(resolved["eta-tol"]))
        for r in records:
            rows.append((float(zeta), r.state_pair[0], r.state_pair[1],
                         r.eta_at_crossing, r.kappa, r.kind, r.min_gap))
    return (["zeta", "n_low", "n_high", "eta_cross", "kappa", "kind",
             "min_gap"], rows, {})


def _run_switch_off(resolved: Dict):
    n0 = int(resolved["n0"])
    j_max = int(resolved["j-max"])
    rows = []
    series_rows = []
    for eta, zeta in _scan_points(resolved):
        spec = solve_spectrum(InteractionParams(eta, zeta),
                              max(n0 + 1, 4), j_max)
        for rec in switch_off_populations(spec, n0, j_max):
            rows.append((eta, zeta, n0, rec.index, rec.probability))
        if resolved.get("tau-max") is not None:
            coeffs = switch_off_coefficients(spec, n0, j_max)
            tau = make_tau_grid(float(resolved["tau-max"]),
                                int(resolved["samples-per-period"]))
            ev = switch_off_evolution(coeffs, tau)
            for i, t in enumerate(tau):
                series_rows.append((eta, zeta, n0, float(t),
                                    ev["cos"].values[i], ev["cos2"].values[i],
                                    ev["J2"].values[i]))
    extras = {}
    if series_rows:
        extras["series"] = (["eta", "zeta", "n0", "tau", "cos", "cos2", "J2"],
                            series_rows)
    return ["eta", "zeta", "n0", "J", "probability"], rows, extras


def _run_switch_on(resolved: Dict):
    j0 = int(resolved["j0"])
    j_max = int(resolved["j-max"])
    n_states = int(resolved["n-states"])
    rows = []
    series_rows = []
    for eta, zeta in _scan_points(resolved):
        spec = solve_spectrum(InteractionParams(eta, zeta), n_states, j_max)
        for rec in switch_on_populations(spec, j0):
            label, n = rec.index
            rows.append((eta, zeta, j0, n, str(label), rec.probability))
        if resolved.get("tau-max") is not None:
            coeffs = switch_on_coefficients(spec, j0)
            tau = make_tau_grid(float(resolved["tau-max"]),
                                int(resolved["samples-per-period"]))
            ser, _ = switch_on_evolution(spec, coeffs, tau)
            for i, t in enumerate(tau):
                series_rows.append((eta, zeta, j0, float(t),
                                    ser["cos"].values[i], ser["cos2"].values[i],
                                    ser["J2"].values[i],
                                    ser["energy"].values[i]))
    extras = {}
    if series_rows:
        extras["series"] = (["eta", "zeta", "j0", "tau", "cos", "cos2", "J2",
                             "energy"], series_rows)
    return ["eta", "zeta", "j0", "n", "symmetry", "probability"], rows, extras


def _profile_from_json(obj, where: str) -> Profile:
    if not isinstance(obj, dict) or "profile" not in obj:
        raise ConfigError(f"{where}: profile must be an object with a "
                          "'profile' kind")
    kind = obj["profile"]
    if kind == "constant":
        if "value" not in obj:
            raise ConfigError(f"{where}: constant profile needs 'value'")
        v = float(obj["value"])
        return Profile("constant", v, v)
    if kind in ("linear", "smooth_cosine"):
        try:
            return Profile(kind, float(obj["from"]), float(obj["to"]))
        except KeyError as exc:
            raise ConfigError(f"{where}: {kind} profile needs "
                              f"'from' and 'to'") from exc
    raise ConfigError(f"{where}: unknown profile kind {kind!r}")


def _schedule_from_config(obj) -> PulseSchedule:
    if not isinstance(obj, dict) or "segments" not in obj:
        raise ConfigError("schedule must be an object with 'segments'")
    segments = []
    for i, seg in enumerate(obj["segments"]):
        where = f"schedule.segments[{i}]"
        if "duration" not in seg:
            raise ConfigError(f"{where}: missing 'duration'")
        segments.append(Segment(
            float(seg["duration"]),
            _profile_from_json(seg.get("eta"), where + ".eta"),
            _profile_from_json(seg.get("zeta"), where + ".zeta")))
    return PulseSchedule(segments)


def _run_propagate(resolved: Dict):
    ramp_flags = [resolved.get(k) is not None for k in
                  ("eta-to", "zeta-to", "ramp-duration")]
    if any(ramp_flags) and not all(ramp_flags):
        raise ConfigError("a ramp needs --eta-to, --zeta-to and "
                          "--ramp-duration together")
    if all(ramp_flags):
        schedule = PulseSchedule.switch(
            float(resolved.get("eta-from") or 0.0),
            float(resolved.get("zeta-from") or 0.0),
            float(resolved["eta-to"]), float(resolved["zeta-to"]),
            float(resolved["ramp-duration"]),
            float(resolved.get("hold-duration") or 0.0),
            shape=str(resolved.get("shape") or "smooth_cosine"))
    elif resolved.get("schedule") is not None:
        schedule = _schedule_from_config(resolved["schedule"])
    else:
        raise ConfigError("propagate needs ramp flags (--eta-to, --zeta-to, "
                          "--ramp-duration) or a 'schedule' in the config")

    grid = make_grid(int(resolved["grid-points"]))
    if resolved.get("n0") is not None and resolved.get("j0") is not None:
        raise ConfigError("give either --j0 or --n0, not both")
    if resolved.get("n0") is not None:
        eta0, zeta0 = schedule.fields_at(0.0)
        n0 = int(resolved["n0"])
        spec = solve_spectrum(InteractionParams(eta0, zeta0), n0 + 1,
                              int(resolved["j-max"]))
        psi0 = Wavefunction(grid,
                            aligned_grid_state(spec, n0, grid).astype(complex),
                            normalize=False)
    else:
        psi0 = free_rotor_wavefunction(int(resolved.get("j0") or 0), grid)

    duration = (float(resolved["tau-end"])
                if resolved.get("tau-end") is not None else None)
    traj = propagate(psi0, schedule, dtau=float(resolved["dtau"]),
                     sample_stride=(int(resolved["sample-stride"])
                                    if resolved.get("sample-stride") is not None
                                    else None),
                     duration=duration)
    rows = []
    for i, t in enumerate(traj.tau_samples):
        eta_t, zeta_t = schedule.fields_at(float(t))
        rows.append((float(t), eta_t, zeta_t,
                     traj.observables["cos"].values[i],
                     traj.observables["cos2"].values[i],
                     traj.observables["J2"].values[i],
                     traj.observables["energy"].values[i],
                     traj.states[i].norm()))
    return (["tau", "eta", "zeta", "cos", "cos2", "J2", "energy", "norm"],
            rows, {})


def _run_topology_map(resolved: Dict):
    if resolved.get("eta-range") is None or resolved.get("zeta-range") is None:
        raise ConfigError("topology-map needs --eta-range and --zeta-range")
    etas = parse_range(str(resolved["eta-range"]))
    zetas = parse_range(str(resolved["zeta-range"]))
    if len(etas) < 16 or len(zetas) < 16:
        raise ConfigError("topology-map needs at least 16 points per axis")
    tmap = topology_map(
        (float(zetas[0]), float(zetas[-1])),
        (float(etas[0]), float(etas[-1])),
        int(resolved["j0"]), float(resolved["tau-tilde"]),
        (len(etas), len(zetas)),
        n_states=int(resolved["n-states"]), j_max=int(resolved["j-max"]),
        threads=_resolve_threads(resolved))
    rows = []
    for i, eta in enumerate(tmap.eta_values):
        for k, zeta in enumerate(tmap.zeta_values):
            rows.append((float(eta), float(zeta), float(tmap.values[i, k])))
    overlays = {
        "well_boundary": {
            "description": "single/double-well boundary |eta| = 2*zeta",
            "zeta": [float(z) for z in tmap.zeta_values],
            "eta": [float(e) for e in tmap.well_boundary],
        },
        "kappa_loci": {
            str(k): {
                "parity": "odd" if k % 2 else "even",
                "zeta": [float(z) for z in tmap.zeta_values],
                "eta": [float(e) for e in curve],
            }
            for k, curve in sorted(tmap.kappa_loci.items())
        },
    }
    return ["eta", "zeta", "avg_cos"], rows, {"overlays": overlays}


def _run_validate(resolved: Dict) -> int:
    names = None
    if resolved.get("checks"):
        names = [s.strip() for s in str(resolved["checks"]).split(",")
                 if s.strip()]
    def show(res):
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{mark}] {res.name:24s} {res.detail} ({res.seconds:.2f}s)",
              flush=True)
    results = run_all(names=names, progress=show)
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# --------------------------------------------------------------------------
# parser


_COMMON = {
    "config": dict(type=str, help="JSON config file mirroring the flags"),
    "output": dict(type=str, help="primary output path"),
    "format": dict(type=str, choices=("csv", "json"),
                   help="output format (default csv)"),
    "threads": dict(type=int, help="topology-map: >= 1, else ignored; "
                    "single-threaded (fallback: PLANAR_PENDULUM_THREADS)"),
    "j-max": dict(type=int, help="free-rotor basis cutoff (default 64)"),
}

_FIELD_FLAGS = {
    "eta": dict(type=float, help="orienting strength (eta <= 0)"),
    "eta-range": dict(type=str, metavar="START:STOP:STEP",
                      help="inclusive eta scan range"),
    "zeta": dict(type=float, help="aligning strength (zeta >= 0)"),
    "zeta-range": dict(type=str, metavar="START:STOP:STEP",
                       help="inclusive zeta scan range"),
}

_COMMAND_FLAGS: Dict[str, Dict[str, Dict]] = {
    "spectrum": {**_FIELD_FLAGS,
                 "n-states": dict(type=int, help="states per point (default 9)")},
    "crossings": {**_FIELD_FLAGS,
                  "pair": dict(type=int, nargs=2, metavar=("N", "M"),
                               help="adjacent state pair to track"),
                  "resolution": dict(type=int,
                                     help="coarse scan points (default 200)"),
                  "eta-tol": dict(type=float,
                                  help="refinement tolerance (default 1e-9)")},
    "switch-off": {**_FIELD_FLAGS,
                   "n0": dict(type=int, help="initial pendular state (default 0)"),
                   "tau-max": dict(type=float,
                                   help="also emit evolution series up to tau"),
                   "samples-per-period": dict(type=int,
                                              help="series sampling (default 512)")},
    "switch-on": {**_FIELD_FLAGS,
                  "j0": dict(type=int, help="initial rotor state (default 0)"),
                  "n-states": dict(type=int,
                                   help="pendular states per point (default 20)"),
                  "tau-max": dict(type=float,
                                  help="also emit evolution series up to tau"),
                  "samples-per-period": dict(type=int,
                                             help="series sampling (default 512)")},
    "propagate": {"j0": dict(type=int, help="start from free-rotor state J0"),
                  "n0": dict(type=int,
                             help="start from eigenstate n0 of the initial fields"),
                  "eta-from": dict(type=float, help="ramp start eta (default 0)"),
                  "zeta-from": dict(type=float, help="ramp start zeta (default 0)"),
                  "eta-to": dict(type=float, help="ramp target eta"),
                  "zeta-to": dict(type=float, help="ramp target zeta"),
                  "ramp-duration": dict(type=float, help="ramp length in tau"),
                  "hold-duration": dict(type=float,
                                        help="hold after the ramp (default 0)"),
                  "shape": dict(type=str, choices=("linear", "smooth_cosine"),
                                help="ramp profile (default smooth_cosine)"),
                  "dtau": dict(type=float, help="time step (default 1e-3)"),
                  "tau-end": dict(type=float,
                                  help="propagation window override"),
                  "sample-stride": dict(type=int,
                                        help="steps between snapshots"),
                  "grid-points": dict(type=int,
                                      help="angular grid size (default 512)")},
    "topology-map": {"eta-range": dict(type=str, metavar="START:STOP:STEP",
                                       help="eta axis (>= 16 points)"),
                     "zeta-range": dict(type=str, metavar="START:STOP:STEP",
                                        help="zeta axis (>= 16 points)"),
                     "j0": dict(type=int, help="initial rotor state (default 1)"),
                     "tau-tilde": dict(type=float,
                                       help="averaging window (default 4*pi)"),
                     "n-states": dict(type=int,
                                      help="states per point (default 20)")},
    "validate": {"checks": dict(type=str,
                                help="comma-separated subset of check names")},
}

_DEFAULTS: Dict[str, Dict] = {
    "spectrum": {"n-states": 9, "j-max": 64},
    "crossings": {"resolution": 200, "eta-tol": 1e-9, "j-max": 64},
    "switch-off": {"n0": 0, "j-max": 64, "samples-per-period": 512},
    "switch-on": {"j0": 0, "n-states": 20, "j-max": 64,
                  "samples-per-period": 512},
    "propagate": {"dtau": 1e-3, "j-max": 64, "grid-points": 512},
    "topology-map": {"j0": 1, "tau-tilde": 4.0 * math.pi, "n-states": 20,
                     "j-max": 64},
    "validate": {},
}

_RUNNERS = {
    "spectrum": _run_spectrum,
    "crossings": _run_crossings,
    "switch-off": _run_switch_off,
    "switch-on": _run_switch_on,
    "propagate": _run_propagate,
    "topology-map": _run_topology_map,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planar-pendulum",
        description="Spectra and switch dynamics of the planar pendular rotor")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        for name, spec in {**_COMMON, **_COMMAND_FLAGS[command]}.items():
            p.add_argument(f"--{name}", default=None, **spec)
    return parser


def _config_keys(command: str) -> List[str]:
    keys = list(_COMMON) + list(_COMMAND_FLAGS[command])
    if command == "propagate":
        keys.append("schedule")
    return keys


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_preprocess_argv(list(argv)))
    command = args.command
    try:
        resolved = _resolve(args, _config_keys(command), _DEFAULTS[command])
        if command == "validate":
            return _run_validate(resolved)
        columns, rows, extras = _RUNNERS[command](resolved)
    except ConfigError as exc:
        print(exc.render(), file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {command}: {exc}", file=sys.stderr)
        return 1

    fmt = resolved.get("format") or "csv"
    ext = ".csv" if fmt == "csv" else ".json"
    primary = resolved.get("output") or f"{command}{ext}"
    outputs = []
    writer = _write_csv if fmt == "csv" else _write_json_table
    writer(primary, columns, rows)
    outputs.append(primary)
    stem, pext = os.path.splitext(primary)
    for name, extra in extras.items():
        if name == "overlays":
            path = f"{stem}_overlays.json"
            with open(path, "w") as fh:
                json.dump(extra, fh, indent=1, sort_keys=True)
                fh.write("\n")
        else:
            path = f"{stem}_{name}{pext or ext}"
            writer(path, extra[0], extra[1])
        outputs.append(path)
    manifest = _write_manifest(primary, command, resolved, outputs)
    for p in outputs + [manifest]:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver.

Commands map one-to-one onto library operations and own every file
format. CSV bodies are deterministic (header row, then rows with floats
at 15 significant digits, newline line endings); every run writes a
manifest JSON next to the primary output listing the resolved
configuration (every default included), library version, and a checksum
per output file.

Each option is declared once, in OPTIONS, with its default (the library's
own where it has one). A JSON config file (--config) is read as the flags
its keys name, ahead of the command line: file values are typed and
checked like flags (exit 2), explicit flags override them, and refused
values and unknown keys are reported with the offending file:line.
propagate's 'schedule' is the one key without a flag; it excludes the
inline ramp flags.

The manifest also carries 'diagnostics' for every command but validate:
how close the run came to its numerical limits, each key folded over the
run by one rule (see core.Limits).

Scans over several (eta, zeta) points (spectrum, switch-on, switch-off,
topology-map) solve them in stacks (solve_stacks) and write their rows in
scan order; solve_spectrum serves only propagate's --n0 start state.

Building the parser loads only this module and core, which holds every
default the option table shows. Each runner imports its command's modules
in its body: spectrum and crossings load spectrum; switch-off, switch-on
and topology-map load dynamics (with cqes, elements and spectrum); and
propagate loads propagate (with dynamics and its imports). validate alone
loads validation and the twins.

The --tau-max series reach the writers as Blocks, not rows: one per point,
a prefix (eta, zeta, j0 or n0) and float arrays; propagate's trajectory is
one Block with an empty prefix. The CSV writer formats the prefix and each
bitwise-constant column once per block, and the varying cells through one
format string per run of at most BLOCK_ROWS rows; the JSON writer writes a
block's rows. Other tables stay rows: the mixed ones (spectrum labels,
crossing kinds) and the short ones. Either way a table's bytes are the
ones its rows would write cell by cell through _fmt (CSV) or json (JSON).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from itertools import chain, repeat
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List,
                    NamedTuple, Optional, Sequence, Tuple)

import numpy as np

from . import __version__
from .core import (
    CROSSING_RESOLUTION,
    DEFAULT_DTAU,
    DEFAULT_GRID_POINTS,
    J_MAX_CAP,
    SAMPLES_PER_PERIOD,
    TAIL_TOL,
    InteractionParams,
    Limits,
    SymmetryLabel,
    make_grid,
)

if TYPE_CHECKING:
    from .propagate import Profile, PulseSchedule


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
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"range {text!r} has non-finite parts")
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
        return parse_range(range_text)
    if scalar is not None:
        return np.array([scalar])
    raise ConfigError(f"missing --{name} or --{name}-range")


def _fmt(value) -> str:
    """The text of one CSV cell, through the conversion of its type."""
    return _conversion(type(value)) % (value,)


def _conversion(kind: type) -> str:
    """The %-conversion of a CSV cell of type kind: bools (numpy's too)
    and text as str, integers as %d and floats as %.15g."""
    if issubclass(kind, bool):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    if issubclass(kind, (float, np.floating)):
        return "%.15g"
    return "%s"


BLOCK_ROWS = 512


class Block(NamedTuple):
    """Rows (*prefix, columns[0][i], columns[1][i], ...), i = 0, 1, ...:
    one point's series; the columns are one or more float64 arrays of one
    length, not zero."""
    prefix: Tuple
    columns: Tuple[np.ndarray, ...]


class Blocks(list):
    """A table body given as Blocks, not rows (see _write_block)."""


def _write_block(fh, block: Block) -> None:
    """block's rows as _fmt writes their cells, by runs of at most
    BLOCK_ROWS rows, each through one (line * m) % values.

    line is one row with the prefix and each bitwise-constant column
    (compared as int64, so mixed 0.0/-0.0 and NaN payloads stay per cell)
    formatted once, and '%.15g' for each varying cell; values are the
    run's varying cells, row by row."""
    n = len(block.columns[0])
    texts = [_fmt(v).replace("%", "%%") for v in block.prefix]
    varying = []
    for col in block.columns:
        col = np.asarray(col, dtype=np.float64)
        bits = col.view(np.int64)
        if (bits == bits[0]).all():
            texts.append(_fmt(float(col[0])))
        else:
            texts.append("%.15g")
            varying.append(col)
    line = ",".join(texts) + "\n"
    for start in range(0, n, BLOCK_ROWS):
        run = [col[start:start + BLOCK_ROWS] for col in varying]
        values = tuple(np.stack(run, axis=1).ravel().tolist()) if run else ()
        fh.write(line * min(BLOCK_ROWS, n - start) % values)


def _block_rows(block: Block) -> Iterable[Tuple]:
    """block's rows, read from .tolist() columns."""
    return zip(*map(repeat, block.prefix),
               *(col.tolist() for col in block.columns))


def _write_csv(path: str, columns: Sequence[str],
               rows: Iterable[Sequence]) -> None:
    """A header line, then the rows, each cell as _fmt writes it. Rows
    stream through one format string per run of rows with the same value
    types (one per table when every column keeps its type); Blocks are
    written block by block (_write_block), the varying cells of at most
    BLOCK_ROWS rows through one format string."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        if isinstance(rows, Blocks):
            for block in rows:
                _write_block(fh, block)
            return
        kinds, line = None, ""
        for row in rows:
            # a list: tuple(map(...)) is resized from a larger tuple on
            # every row and leaves up to 2000 of them on the interpreter's
            # tuple free list (about 0.2 MB of peak RSS)
            row_kinds = list(map(type, row))
            if row_kinds != kinds:
                kinds = row_kinds
                line = ",".join(map(_conversion, kinds)) + "\n"
            fh.write(line % tuple(row))


def _write_json_table(path: str, columns: Sequence[str],
                      rows: Iterable[Sequence]) -> None:
    """{"columns": [...], "rows": [[...], ...]}, one row per line, each
    through json's C encoder; floats keep their exact repr. Blocks are
    written as their rows (_block_rows)."""
    if isinstance(rows, Blocks):
        rows = chain.from_iterable(map(_block_rows, rows))
    dumps = json.JSONEncoder().encode
    with open(path, "w") as fh:
        fh.write('{"columns": ' + dumps(list(columns)) + ', "rows": [')
        sep = "\n"
        for row in rows:
            fh.write(sep + dumps(list(row)))
            sep = ",\n"
        fh.write("\n]}\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(stem: str, args: argparse.Namespace,
                    outputs: List[str], limits: Limits) -> str:
    path = stem + ".manifest.json"
    manifest = {
        "command": args.command,
        "config": {dest.replace("_", "-"): v for dest, v in vars(args).items()
                   if v is not None and dest != "command"},
        "version": __version__,
        "outputs": [
            {"path": p, "sha256": _sha256(p), "bytes": os.path.getsize(p)}
            for p in outputs
        ],
    }
    if limits:
        manifest["diagnostics"] = limits
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


def _load_config(path: str, command: str, known: Sequence[str]
                 ) -> Tuple[Dict, Callable[[str], str]]:
    """The file's keys, each known, and source(key): 'file:line' of it."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", source=path) from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}",
                          source=f"{path}:{exc.lineno}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object", source=path)

    def source(key: str) -> str:
        line = _key_line(raw, key)
        return f"{path}:{line}" if line else path

    for key in data:
        if key == "command":
            if data[key] != command:
                raise ConfigError(
                    f"config is for command {data[key]!r}, invoked {command!r}",
                    source=source(key))
        elif key not in known:
            raise ConfigError(f"unknown key {key!r} for command {command!r}",
                              source=source(key))
    return data, source


def _file_flags(data: Dict) -> List[str]:
    """Config-file keys as the flags they mirror: --key=value, or a list
    as the values of one flag; null leaves the flag out. Other JSON values
    keep their JSON spelling (_flag_text), so 2.7 or true fails an int
    flag as it would on the command line."""
    flags: List[str] = []
    for key, value in data.items():
        if key in ("command", "schedule") or value is None:
            continue
        if isinstance(value, list):
            flags += [f"--{key}", *map(_flag_text, value)]
        else:
            flags.append(f"--{key}={_flag_text(value)}")
    return flags


def _flag_text(value) -> str:
    """A config value as flag text: a string as is, else its JSON."""
    return value if isinstance(value, str) else json.dumps(value)


def _with_config(parser: argparse.ArgumentParser, argv: List[str],
                 args: argparse.Namespace) -> argparse.Namespace:
    """Parse again with the file's flags ahead of argv's: defaults < file
    < explicit flags. propagate's 'schedule' has no flag; it is kept aside."""
    command = args.command
    known = list(OPTIONS[command])
    if command == "propagate":
        known.append("schedule")
    data, source = _load_config(args.config, command, known)
    # each value alone through a copy of the command's parser that raises,
    # so that a refused value is a usage error (exit 2) naming file:line;
    # the copy has no defaults, so what it parses was given
    probe = argparse.ArgumentParser(prog=f"{parser.prog} {command}",
                                    exit_on_error=False)
    for name, spec in OPTIONS[command].items():
        probe.add_argument(f"--{name}",
                           **dict(spec, default=argparse.SUPPRESS))
    for key, value in data.items():
        try:
            _, extra = probe.parse_known_args(_file_flags({key: value}))
        except argparse.ArgumentError as exc:
            probe.error(f"{source(key)}: {exc}")
        if extra:
            probe.error(f"{source(key)}: argument --{key}: "
                        f"unexpected values {extra}")
    at = argv.index(command) + 1
    args = parser.parse_args([*argv[:at], *_file_flags(data), *argv[at:]])
    args.schedule = data.get("schedule")
    if args.schedule is not None:          # refused with its file:line
        try:
            _schedule_from_config(args.schedule)
            given = vars(probe.parse_known_args(
                [*_file_flags(data), *argv[at:]])[0])
            ramp = [f"--{name}" for name in RAMP_FLAGS
                    if name.replace("-", "_") in given]
            if ramp:
                raise ConfigError("give either a 'schedule' or ramp flags, "
                                  f"not both (given: {', '.join(ramp)})")
        except ConfigError as exc:
            raise ConfigError(str(exc), source=source("schedule")) from None
    return args


def _cutoff(text: str) -> Optional[int]:
    """--j-max: an integer, or 'auto' (None) for the automatic cutoff."""
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}") from None


# --------------------------------------------------------------------------
# command handlers: each takes the parsed options and returns
# (columns, rows, extra_outputs)


def _scan_points(args: argparse.Namespace) -> List[Tuple[float, float]]:
    etas = _axis_points(args.eta, args.eta_range, "eta")
    zetas = _axis_points(args.zeta, args.zeta_range, "zeta")
    return [(float(e), float(z)) for z in zetas for e in etas]


_LABEL_TEXT = (str(SymmetryLabel.A1), str(SymmetryLabel.A2))


def _stacked_scan(args: argparse.Namespace, limits: Limits, n_states: int):
    """Yield (stack, points) for the scan points of spectrum, switch-on
    or switch-off, n_states states each, solved in stacks (solve_stacks):
    points[p] is the scan position, eta, zeta and state labels of the
    stack's point p."""
    from .spectrum import solve_stacks

    points = _scan_points(args)
    params = [InteractionParams(eta, zeta) for eta, zeta in points]
    for stack in solve_stacks(params, n_states, args.j_max):
        limits.solved(stack)
        yield stack, [(i, *points[i], [_LABEL_TEXT[o] for o in odd])
                      for i, odd in zip(stack.index.tolist(),
                                        stack.odd.tolist())]


def _in_scan_order(per_point: Dict[int, List]) -> List:
    return list(chain.from_iterable(per_point[i] for i in sorted(per_point)))


def _run_spectrum(args: argparse.Namespace, limits: Limits):
    rows = {}
    for stack, points in _stacked_scan(args, limits, args.n_states):
        for (i, eta, zeta, labels), energies in zip(points,
                                                    stack.energies.tolist()):
            rows[i] = [(eta, zeta, n, lab, e)
                       for n, (lab, e) in enumerate(zip(labels, energies))]
    return (["eta", "zeta", "n", "symmetry", "energy"], _in_scan_order(rows),
            {})


def _run_crossings(args: argparse.Namespace, limits: Limits):
    from .spectrum import crossing_scan

    if args.eta_range is None:
        raise ConfigError("crossings needs --eta-range as the search window")
    window = parse_range(args.eta_range)
    zetas = _axis_points(args.zeta, args.zeta_range, "zeta")
    if args.pair is None:
        raise ConfigError("crossings needs --pair N M (adjacent states)")
    rows = []
    for zeta in zetas:
        records = crossing_scan(
            float(zeta), (float(window[0]), float(window[-1])),
            tuple(args.pair), resolution=args.resolution, j_max=args.j_max)
        limits.note(j_max=records.j_max, basis_tail=records.basis_tail,
                    tail_bound=records.tail_bound, cut_gap=records.cut_gap)
        for r in records:
            limits.note(basis_tail=r.basis_tail)
            rows.append((float(zeta), r.state_pair[0], r.state_pair[1],
                         r.eta_at_crossing, r.kappa, r.kind, r.min_gap))
    return (["zeta", "n_low", "n_high", "eta_cross", "kappa", "kind",
             "min_gap"], rows, {})


def _series_block(point: Tuple, tau: np.ndarray, series: Dict,
                  names: Sequence[str]) -> Block:
    """Rows point + (tau, series values...) as one Block."""
    return Block(point, (tau, *(series[name].values for name in names)))


def _run_switch_off(args: argparse.Namespace, limits: Limits):
    from .cqes import switch_off_coefficients
    from .dynamics import (make_tau_grid, switch_off_evolution,
                           switch_off_populations)

    n0 = args.n0
    tau = (None if args.tau_max is None
           else make_tau_grid(args.tau_max, args.samples_per_period))
    rows, series = {}, {}
    for stack, points in _stacked_scan(args, limits, max(n0 + 1, 4)):
        for p, (i, eta, zeta, _) in enumerate(points):
            spec = stack.spectrum(p)
            rows[i] = [(eta, zeta, n0, rec.index, rec.probability)
                       for rec in switch_off_populations(spec, n0)]
            if tau is not None:
                ev = switch_off_evolution(switch_off_coefficients(spec, n0),
                                          tau)
                series[i] = [_series_block((eta, zeta, n0), tau, ev,
                                           ("cos", "cos2", "J2"))]
    extras = {}
    if series:
        extras["series"] = (["eta", "zeta", "n0", "tau", "cos", "cos2", "J2"],
                            Blocks(_in_scan_order(series)))
    return (["eta", "zeta", "n0", "J", "probability"], _in_scan_order(rows),
            extras)


def _run_switch_on(args: argparse.Namespace, limits: Limits):
    from .cqes import SwitchCoefficients, _switch_on_column
    from .dynamics import (_population_deficit, make_tau_grid,
                           switch_on_evolution)

    j0 = args.j0
    tau = (None if args.tau_max is None
           else make_tau_grid(args.tau_max, args.samples_per_period))
    rows, series = {}, {}
    for stack, points in _stacked_scan(args, limits, args.n_states):
        column = _switch_on_column(stack.coefficients, stack.odd, j0)
        limits.note(population_deficit=_population_deficit(column))
        for p, ((i, eta, zeta, labels), probs) in enumerate(
                zip(points, (np.abs(column) ** 2).tolist())):
            rows[i] = [(eta, zeta, j0, n, lab, prob)
                       for n, (lab, prob) in enumerate(zip(labels, probs))]
            if tau is not None:
                ser = switch_on_evolution(
                    stack.spectrum(p),
                    SwitchCoefficients("switch_on", column[p]), tau)
                series[i] = [_series_block(
                    (eta, zeta, j0), tau, ser, ("cos", "cos2", "J2", "energy"))]
    extras = {}
    if series:
        extras["series"] = (["eta", "zeta", "j0", "tau", "cos", "cos2", "J2",
                             "energy"], Blocks(_in_scan_order(series)))
    return (["eta", "zeta", "j0", "n", "symmetry", "probability"],
            _in_scan_order(rows), extras)


def _number(value, where: str) -> float:
    """A schedule number, read as a float flag reads _flag_text(value)."""
    try:
        return float(_flag_text(value))
    except ValueError:
        raise ConfigError(f"{where} must be a number, got "
                          f"{_flag_text(value)}") from None


def _profile_from_json(obj, where: str) -> Profile:
    from .propagate import Profile

    if not isinstance(obj, dict) or "profile" not in obj:
        raise ConfigError(f"{where}: profile must be an object with a "
                          "'profile' kind")
    kind = obj["profile"]
    if kind == "constant":
        if "value" not in obj:
            raise ConfigError(f"{where}: constant profile needs 'value'")
        v = _number(obj["value"], f"{where}.value")
        return Profile("constant", v, v)
    if kind in ("linear", "smooth_cosine"):
        if "from" not in obj or "to" not in obj:
            raise ConfigError(f"{where}: {kind} profile needs "
                              f"'from' and 'to'")
        return Profile(kind, _number(obj["from"], f"{where}.from"),
                       _number(obj["to"], f"{where}.to"))
    raise ConfigError(f"{where}: unknown profile kind {kind!r}")


def _schedule_from_config(obj) -> PulseSchedule:
    from .propagate import PulseSchedule, Segment

    if not isinstance(obj, dict) or not isinstance(obj.get("segments"), list):
        raise ConfigError("schedule must be an object with a list of "
                          "'segments'")
    segments = []
    for i, seg in enumerate(obj["segments"]):
        where = f"schedule.segments[{i}]"
        if not isinstance(seg, dict):
            raise ConfigError(f"{where}: segment must be an object")
        if "duration" not in seg:
            raise ConfigError(f"{where}: missing 'duration'")
        segments.append(Segment(
            _number(seg["duration"], f"{where}.duration"),
            _profile_from_json(seg.get("eta"), where + ".eta"),
            _profile_from_json(seg.get("zeta"), where + ".zeta")))
    return PulseSchedule(segments)


RAMP_FLAGS = ("eta-from", "zeta-from", "eta-to", "zeta-to", "ramp-duration",
              "hold-duration", "shape")


def _run_propagate(args: argparse.Namespace, limits: Limits):
    from .propagate import PulseSchedule, propagate
    from .spectrum import solve_spectrum

    ramp = (args.eta_to, args.zeta_to, args.ramp_duration)
    if any(v is not None for v in ramp) and None in ramp:
        raise ConfigError("a ramp needs --eta-to, --zeta-to and "
                          "--ramp-duration together")
    if None not in ramp:
        schedule = PulseSchedule.switch(
            args.eta_from, args.zeta_from, args.eta_to, args.zeta_to,
            args.ramp_duration, args.hold_duration, shape=args.shape)
    elif getattr(args, "schedule", None) is not None:
        schedule = _schedule_from_config(args.schedule)
    else:
        raise ConfigError("propagate needs ramp flags (--eta-to, --zeta-to, "
                          "--ramp-duration) or a 'schedule' in the config")

    # make_grid checks --grid-points; the start is a signed-J row over its
    # band n/2 - 1, and holds nothing past the grid_tail limit n/4
    limit = make_grid(args.grid_points).max_band_limit
    band = args.grid_points // 2 - 1
    if args.n0 is not None and args.j0 is not None:
        raise ConfigError("give either --j0 or --n0, not both")
    if args.n0 is not None:
        if args.n0 < 0:
            raise ValueError(f"n0 must be >= 0, got {args.n0}")
        eta0, zeta0 = schedule.fields_at(0.0)
        spec = solve_spectrum(InteractionParams(eta0, zeta0), args.n0 + 1,
                              args.j_max)
        limits.solved(spec)
        if spec.j_max > limit:
            raise ValueError("grid too coarse for this basis size")
        start = spec.free_rotor_coefficients(args.n0, band)
    else:
        j0 = 0 if args.j0 is None else args.j0
        if abs(j0) > limit:
            raise ValueError(
                f"|j|={abs(j0)} exceeds the grid band limit {limit}")
        start = np.eye(1, 2 * band + 1, band + j0, dtype=complex)[0]

    traj = propagate(start, schedule, dtau=args.dtau,
                     sample_stride=args.sample_stride, duration=args.tau_end)
    limits.note(norm_drift=traj.norm_drift, grid_tail=traj.grid_tail)
    for window, edge in traj.ramp_limits:
        limits.note(ramp_j_max=window, ramp_tail=edge)
    for cutoff, tail in traj.hold_limits:
        limits.note(hold_j_max=cutoff, hold_tail=tail)
    series = ("cos", "cos2", "J2", "energy")
    columns = [traj.tau_samples, *traj.fields.T,
               *(traj.observables[k].values for k in series), traj.norms]
    return (["tau", "eta", "zeta", *series, "norm"],
            Blocks([Block((), tuple(columns))]), {})


def _run_topology_map(args: argparse.Namespace, limits: Limits):
    from .dynamics import topology_map

    if args.eta_range is None or args.zeta_range is None:
        raise ConfigError("topology-map needs --eta-range and --zeta-range")
    etas = parse_range(args.eta_range)
    zetas = parse_range(args.zeta_range)
    if len(etas) < 16 or len(zetas) < 16:
        raise ConfigError("topology-map needs at least 16 points per axis")
    tmap = topology_map(
        (float(zetas[0]), float(zetas[-1])),
        (float(etas[0]), float(etas[-1])),
        args.j0, args.tau_tilde, (len(etas), len(zetas)),
        n_states=args.n_states, j_max=args.j_max)
    limits.note(**tmap.limits)
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


def _run_validate(args: argparse.Namespace) -> int:
    from .validation import run_all     # the check battery and its twins

    names = None
    if args.checks:
        names = [s.strip() for s in args.checks.split(",") if s.strip()]
    def show(res):
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{mark}] {res.name:24s} {res.detail} ({res.seconds:.2f}s)",
              flush=True)
    results = run_all(names=names, progress=show)
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# --------------------------------------------------------------------------
# options: per command, the add_argument spec of each --name with its
# default and help; the names are the config-file keys too


_EVERY = {
    "config": dict(help="JSON config file whose keys are these flag names"),
    "threads": dict(type=int, help="accepted and ignored; the BLAS thread "
                    "count follows the environment (OPENBLAS_NUM_THREADS, "
                    "OMP_NUM_THREADS)"),
}
_WRITER = {
    **_EVERY,
    "output": dict(help="primary output path (default {command}.{format})"),
    "format": dict(choices=("csv", "json"), default="csv", help="encoding"),
    "j-max": dict(type=_cutoff, help="basis cutoff, refused if its basis tail "
                  f"is above {TAIL_TOL:g}; default auto: chosen per point and "
                  f"grown up to {J_MAX_CAP} until the tail is below that"),
}
_RANGE = dict(metavar="START:STOP:STEP")
_ZETA = {"zeta": dict(type=float, help="aligning strength (zeta >= 0)"),
         "zeta-range": dict(_RANGE, help="inclusive zeta scan range")}
_FIELDS = {"eta": dict(type=float, help="orienting strength (eta <= 0)"),
           "eta-range": dict(_RANGE, help="inclusive eta scan range"),
           **_ZETA}
_SERIES = {"tau-max": dict(type=float, help="also emit series up to tau"),
           "samples-per-period": dict(type=int, default=SAMPLES_PER_PERIOD,
                                      help="series sampling")}

OPTIONS: Dict[str, Dict[str, Dict]] = {
    "spectrum": {**_WRITER, **_FIELDS,
                 "n-states": dict(type=int, default=9, help="states per point")},
    "crossings": {**_WRITER, **_ZETA,
                  "eta-range": dict(_RANGE, help="eta window: its first and "
                                    "last points; --resolution sets the scan"),
                  "pair": dict(type=int, nargs=2, metavar=("N", "M"),
                               help="adjacent state pair to track"),
                  "resolution": dict(type=int, default=CROSSING_RESOLUTION,
                                     help="coarse scan points (>= 8), each "
                                     "solved with eigenvectors; a minimum is "
                                     "bracketed where the gap slope turns "
                                     ">= 0")},
    "switch-off": {**_WRITER, **_FIELDS, **_SERIES,
                   "n0": dict(type=int, default=0, help="initial pendular state")},
    "switch-on": {**_WRITER, **_FIELDS, **_SERIES,
                  "j0": dict(type=int, default=0, help="initial rotor state"),
                  "n-states": dict(type=int, default=20,
                                   help="pendular states per point")},
    "propagate": {**_WRITER,
                  # no default: "not given" must differ from 0 beside --n0
                  "j0": dict(type=int, help="start from free-rotor state J0 "
                             "(0 without --n0)"),
                  "n0": dict(type=int,
                             help="start from eigenstate n0 of the initial fields"),
                  "eta-from": dict(type=float, default=0.0, help="ramp start eta"),
                  "zeta-from": dict(type=float, default=0.0,
                                    help="ramp start zeta"),
                  "eta-to": dict(type=float, help="ramp target eta"),
                  "zeta-to": dict(type=float, help="ramp target zeta"),
                  "ramp-duration": dict(type=float, help="ramp length in tau"),
                  "hold-duration": dict(type=float, default=0.0,
                                        help="hold after the ramp"),
                  "shape": dict(choices=("linear", "smooth_cosine"),
                                default="smooth_cosine", help="ramp profile"),
                  "dtau": dict(type=float, default=DEFAULT_DTAU, help="time step"),
                  "tau-end": dict(type=float, help="propagation window override"),
                  "sample-stride": dict(type=int, help="steps between snapshots"),
                  "grid-points": dict(type=int, default=DEFAULT_GRID_POINTS,
                                      help="angular grid size")},
    "topology-map": {**_WRITER,
                     "eta-range": dict(_RANGE, help="eta axis (>= 16 points)"),
                     "zeta-range": dict(_RANGE, help="zeta axis (>= 16 points)"),
                     "j0": dict(type=int, default=1, help="initial rotor state"),
                     "tau-tilde": dict(type=float, default=4.0 * math.pi,
                                       help="averaging window"),
                     "n-states": dict(type=int, default=20,
                                      help="states per point")},
    "validate": {**_EVERY,
                 "checks": dict(help="comma-separated subset of check names")},
}

_RUNNERS = {
    "spectrum": _run_spectrum,
    "crossings": _run_crossings,
    "switch-off": _run_switch_off,
    "switch-on": _run_switch_on,
    "propagate": _run_propagate,
    "topology-map": _run_topology_map,
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser. Every command has its subparser, but with a
    command named only its options are added: argv naming that command
    parses, fails and prints help as with them all."""
    parser = argparse.ArgumentParser(
        prog="planar-pendulum",
        description="Spectra and switch dynamics of the planar pendular rotor")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in OPTIONS.items():
        subparser = sub.add_parser(name)
        if command in (None, name):
            _add_options(subparser, options)
    return parser


def _add_options(parser: argparse.ArgumentParser,
                 options: Dict[str, Dict]) -> None:
    for name, spec in options.items():
        if spec.get("default") is not None:
            spec = dict(spec, help=spec["help"] + " (default %(default)s)")
        parser.add_argument(f"--{name}", **spec)


def main(argv: Optional[List[str]] = None) -> int:
    argv = _preprocess_argv(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser(argv[0] if argv and argv[0] in OPTIONS else None)
    args = parser.parse_args(argv)
    command = args.command
    try:
        if args.config:
            args = _with_config(parser, argv, args)
        if command == "validate":
            return _run_validate(args)
        limits = Limits()
        columns, rows, extras = _RUNNERS[command](args, limits)
    except ConfigError as exc:
        print(exc.render(), file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {command}: {exc}", file=sys.stderr)
        return 1

    ext = "." + args.format
    primary = args.output or f"{command}{ext}"
    writer = _write_csv if args.format == "csv" else _write_json_table
    writer(primary, columns, rows)
    outputs = [primary]
    # the stem names the manifest and the extras: the output without its
    # format's extension, or the whole name, so that run.1 and run.2 do
    # not share run.manifest.json
    root, pext = os.path.splitext(primary)
    stem = root if pext == ext else primary
    for name, extra in extras.items():
        if name == "overlays":
            path = f"{stem}_overlays.json"
            with open(path, "w") as fh:
                json.dump(extra, fh, indent=1, sort_keys=True)
                fh.write("\n")
        else:
            path = f"{stem}_{name}{ext}"
            writer(path, extra[0], extra[1])
        outputs.append(path)
    manifest = _write_manifest(stem, args, outputs, limits)
    for p in outputs + [manifest]:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())

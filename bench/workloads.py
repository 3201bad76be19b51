"""The benchmark's workloads: the CLI argument lists of one round, built
from the seed, and the checks of their outputs.

Every workload keeps the same number of operations and the same sizes
(grid points, tau samples, steps) for every seed; the seed moves only the
field points, so run-to-run spread reflects the machine, not the input.
Checks compare against the full-basis oracle in ``oracle.py`` or against
properties the method must have, never against stored outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

import oracle

# 32*pi = 16 periods at 512 samples per period: tau index shifts of 512,
# 256 and 128 are exactly 2*pi, pi and pi/2.
TAU_MAX = repr(32.0 * math.pi)
SHIFT_2PI, SHIFT_PI, SHIFT_HALF_PI = 512, 256, 128

J_MAX = 64           # the program's default cutoff; the oracle spans the same space
DEEP_M = 256         # oracle cutoff for zeta = 200000
PROPAGATE_M = 48     # oracle cutoff for the propagations (tail checked)
TAU_TILDE = 4.0 * math.pi
MAP_STRIPS = 3


@dataclass
class Op:
    label: str
    argv: List[str]
    output: str


@dataclass
class Checks:
    errors: List[str] = field(default_factory=list)
    failed_ops: List[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok

    def close(self, label: str, what: str, got, want, tol: float) -> bool:
        diff = float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))
        return self.expect(diff <= tol,
                           f"{label}: {what} differs by {diff:.3e} (tol {tol:.1e})")


@dataclass
class Workload:
    name: str
    ops: List[Op]
    # check(checks, run_cli): run_cli(argv) -> exit code, for extra runs
    check: Callable[[Checks, Callable[[List[str]], int]], None]


def energy_tol(e) -> float:
    return 1e-9 * max(1.0, float(np.max(np.abs(e))))


def _fmt(x: float) -> str:
    return repr(float(x))


def _stem(path: str) -> str:
    return os.path.splitext(path)[0]


def read_table(path: str) -> Tuple[List[str], List[List[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_numeric(path: str) -> Dict[str, np.ndarray]:
    header, rows = read_table(path)
    data = np.array(rows, dtype=float)
    return {name: data[:, i] for i, name in enumerate(header)}


def check_manifest(checks: Checks, op: Op) -> None:
    """Every listed output exists with the recorded SHA-256 and size."""
    path = _stem(op.output) + ".manifest.json"
    if not checks.expect(os.path.isfile(path), f"{op.label}: no manifest"):
        return
    with open(path) as fh:
        manifest = json.load(fh)
    checks.expect(manifest["outputs"][0]["path"] == op.output,
                  f"{op.label}: manifest does not list the primary output first")
    for entry in manifest["outputs"]:
        with open(entry["path"], "rb") as fh:
            body = fh.read()
        checks.expect(hashlib.sha256(body).hexdigest() == entry["sha256"]
                      and len(body) == entry["bytes"],
                      f"{op.label}: manifest entry {entry['path']} does not "
                      "match the file")


def _axis(start: float, step: float, count: int) -> str:
    """An inclusive CLI range of exactly count points."""
    stop = round(start + (count - 1) * step, 6)
    return f"{_fmt(start)}:{_fmt(stop)}:{_fmt(step)}"


def _oracle_kept_sets(spec: oracle.Spectrum, n: int) -> List[np.ndarray]:
    """The lowest n oracle states, plus the alternative when a near-
    degenerate pair straddles the cut (either member may be kept)."""
    base = np.arange(n)
    sets = [base]
    if abs(spec.energies[n] - spec.energies[n - 1]) <= energy_tol(spec.energies[n]):
        alt = base.copy()
        alt[-1] = n
        sets.append(alt)
    return sets


def _group_points(rows: List[List[str]], header: List[str]) -> Dict:
    ie, iz = header.index("eta"), header.index("zeta")
    points: Dict[Tuple[str, str], List[List[str]]] = {}
    for row in rows:
        points.setdefault((row[ie], row[iz]), []).append(row)
    return points


def check_spectrum_point(checks: Checks, label: str, eta: float, zeta: float,
                         energies: np.ndarray, labels: List[str],
                         m_max: int = J_MAX) -> bool:
    spec = oracle.solve(eta, zeta, m_max)
    idx = oracle.matching_states(spec, labels)
    n = len(energies)
    tol = energy_tol(energies)
    ok = checks.close(label, f"energies at ({eta}, {zeta}) by label",
                      energies, spec.energies[idx], tol)
    return ok and checks.close(label, f"energy order at ({eta}, {zeta})",
                               np.sort(energies), spec.energies[:n], tol)


# --------------------------------------------------------------------------
# scan


def scan(seed: int, out: str) -> Workload:
    rng = random.Random(seed)
    ops: List[Op] = []

    j0 = rng.choice((1, 2))
    map_eta = round(-35.0 + 2.0 * rng.random(), 3)
    map_zeta = round(5.0 + 2.0 * rng.random(), 3)
    # a 20 x 48 map as three 20 x 16 strips along zeta (16 points is the
    # shortest axis the CLI takes), so that no single call runs long
    # between two calibrations (see run.py)
    for k in range(MAP_STRIPS):
        path = f"{out}/map_{k}.csv"
        ops.append(Op(f"topology-map-{k}", [
            "topology-map", "--eta-range", _axis(map_eta, 1.6, 20),
            "--zeta-range", _axis(round(map_zeta + 11.2 * k, 3), 0.7, 16),
            "--j0", str(j0), "--output", path], path))

    for k in range(3):
        zeta = round(rng.uniform(8.0, 60.0), 3)
        path = f"{out}/spectrum_{k}.csv"
        ops.append(Op(f"spectrum-{k}", [
            "spectrum", "--eta-range", "-20:0:0.5", "--zeta", _fmt(zeta),
            "--n-states", "9", "--output", path], path))

    crossings = []
    for kappa in (1, 2, 3):
        for k in range(2):
            zeta = round(rng.uniform(9.0, 49.0), 3)
            root = math.sqrt(zeta)
            lo = round(-(kappa + 0.4) * root, 4)
            hi = round(-(kappa - 0.4) * root, 4)
            step = round((hi - lo) / 40.0, 6)
            path = f"{out}/crossings_{kappa}_{k}.csv"
            crossings.append((kappa, zeta, lo, hi, path))
            ops.append(Op(f"crossings-k{kappa}-{k}", [
                "crossings", "--zeta", _fmt(zeta),
                "--eta-range", f"{_fmt(lo)}:{_fmt(hi)}:{_fmt(step)}",
                "--pair", str(kappa), str(kappa + 1), "--output", path], path))

    on_j0 = rng.choice((1, 2))
    on_eta = round(-20.0 + 2.0 * rng.random(), 3)
    on_zeta = round(10.0 + 2.0 * rng.random(), 3)
    ops.append(Op("switch-on-scan", [
        "switch-on", "--eta-range", _axis(on_eta, 1.8, 10),
        "--zeta-range", _axis(on_zeta, 2.0, 10), "--j0", str(on_j0),
        "--output", f"{out}/populations.csv"], f"{out}/populations.csv"))

    # Known to fail its check: the fixed j_max = 64 cutoff of
    # spectrum.solve_spectrum has no convergence guard at this depth.
    ops.append(Op("spectrum-deep-well", [
        "spectrum", "--eta", "0", "--zeta", "200000", "--n-states", "4",
        "--output", f"{out}/deep.csv"], f"{out}/deep.csv"))

    def check(checks: Checks, run_cli) -> None:
        # topology map: window averages at seeded points
        strips = [read_numeric(f"{out}/map_{k}.csv") for k in range(MAP_STRIPS)]
        checks.expect(all(len(d["eta"]) == 320 for d in strips),
                      "topology-map: a strip is not 20x16 rows")
        data = {name: np.concatenate([d[name] for d in strips])
                for name in strips[0]}
        checks.expect(len(np.unique(data["zeta"])) == 48,
                      "topology-map: strips do not cover 48 zeta values")
        checks.expect(float(np.max(np.abs(data["avg_cos"]))) <= 1.0,
                      "topology-map: |avg_cos| > 1")
        for i in rng.sample(range(len(data["eta"])), 12):
            eta, zeta = float(data["eta"][i]), float(data["zeta"][i])
            spec = oracle.solve(eta, zeta, J_MAX)
            want = [oracle.window_average(spec, j0, kept, TAU_TILDE)
                    for kept in _oracle_kept_sets(spec, 20)]
            diff = min(abs(w - data["avg_cos"][i]) for w in want)
            checks.expect(diff <= 1e-10, f"topology-map: avg_cos at ({eta}, "
                          f"{zeta}) differs from the oracle by {diff:.3e}")

        # spectrum scans: energies and labels at seeded points
        for k in range(3):
            header, rows = read_table(f"{out}/spectrum_{k}.csv")
            points = _group_points(rows, header)
            checks.expect(len(points) == 41 and len(rows) == 41 * 9,
                          f"spectrum-{k}: wrong row count")
            for key in rng.sample(sorted(points), 3):
                block = points[key]
                check_spectrum_point(
                    checks, f"spectrum-{k}", float(key[0]), float(key[1]),
                    np.array([float(r[4]) for r in block]),
                    [r[3] for r in block])

        # crossings: kind by kappa parity, eta_c and min_gap against the oracle
        for kappa, zeta, lo, hi, path in crossings:
            label = f"crossings kappa={kappa} zeta={zeta}"
            header, rows = read_table(path)
            if not checks.expect(len(rows) == 1, f"{label}: {len(rows)} rows"):
                continue
            row = dict(zip(header, rows[0]))
            kind = "genuine" if kappa % 2 else "avoided"
            checks.expect(int(row["kappa"]) == kappa and row["kind"] == kind,
                          f"{label}: reported kappa {row['kappa']} kind {row['kind']}")
            eta_c, gap = float(row["eta_cross"]), float(row["min_gap"])
            o_eta, o_gap, o_kind = oracle.locate_crossing(
                zeta, lo, hi, (kappa, kappa + 1), J_MAX)
            checks.expect(o_kind == kind, f"{label}: oracle finds {o_kind}")
            if kind == "genuine":
                checks.close(label, "eta_c", eta_c, o_eta, 1e-8)
                spec = oracle.solve(eta_c, zeta, J_MAX)
                at_c = spec.energies[kappa + 1] - spec.energies[kappa]
                checks.close(label, "min_gap at eta_c", gap, at_c, 1e-9)
                checks.expect(gap < 1e-6, f"{label}: genuine gap {gap:.3e}")
            else:
                checks.close(label, "eta_c", eta_c, o_eta, 1e-5)
                checks.close(label, "min_gap", gap, o_gap, 1e-10 * max(1.0, o_gap))

        # switch-on population scan: populations against the oracle
        header, rows = read_table(f"{out}/populations.csv")
        points = _group_points(rows, header)
        checks.expect(len(points) == 100 and len(rows) == 2000,
                      "switch-on-scan: wrong row count")
        for key in rng.sample(sorted(points), 6):
            block = points[key]
            spec = oracle.solve(float(key[0]), float(key[1]), J_MAX)
            idx = oracle.matching_states(spec, [r[4] for r in block])
            want = oracle.switch_on_coefficients(spec, on_j0, idx) ** 2
            checks.close("switch-on-scan", f"populations at {key}",
                         [float(r[5]) for r in block], want, 1e-10)

        # the deep well counts as a failed operation, not as a wrong check
        header, rows = read_table(f"{out}/deep.csv")
        deep = Checks()
        check_spectrum_point(deep, "spectrum-deep-well", 0.0, 200000.0,
                             np.array([float(r[4]) for r in rows]),
                             [r[3] for r in rows], DEEP_M)
        if deep.errors:
            checks.failed_ops.append("spectrum-deep-well: " + deep.errors[0])

    return Workload("scan", ops, check)


# --------------------------------------------------------------------------
# series


def series(seed: int, out: str) -> Workload:
    rng = random.Random(seed)

    def point() -> Tuple[float, float]:
        return round(-rng.uniform(2.0, 20.0), 3), round(rng.uniform(10.0, 40.0), 3)

    on_points = [(-10.0, 25.0, 1)] + [(*point(), rng.choice((1, 2)))
                                      for _ in range(2)]
    off_points = [(-10.0, 25.0, rng.choice((0, 1, 2)))] + [
        (*point(), rng.choice((0, 1, 2))) for _ in range(2)]
    ops: List[Op] = []
    for k, (eta, zeta, j0) in enumerate(on_points):
        path = f"{out}/on_{k}.csv"
        ops.append(Op(f"switch-on-{k}", [
            "switch-on", "--eta", _fmt(eta), "--zeta", _fmt(zeta), "--j0",
            str(j0), "--tau-max", TAU_MAX, "--output", path], path))
    for k, (eta, zeta, n0) in enumerate(off_points):
        path = f"{out}/off_{k}.csv"
        ops.append(Op(f"switch-off-{k}", [
            "switch-off", "--eta", _fmt(eta), "--zeta", _fmt(zeta), "--n0",
            str(n0), "--tau-max", TAU_MAX, "--output", path], path))

    def check_tau(checks: Checks, label: str, tau: np.ndarray) -> None:
        checks.expect(len(tau) == 16 * 512 + 1, f"{label}: {len(tau)} tau samples")
        checks.close(label, "tau grid", tau,
                     np.arange(len(tau)) * (float(TAU_MAX) / (len(tau) - 1)), 1e-12)

    def check(checks: Checks, run_cli) -> None:
        for k, (eta, zeta, j0) in enumerate(on_points):
            label = f"switch-on-{k}"
            header, rows = read_table(f"{out}/on_{k}.csv")
            spec = oracle.solve(eta, zeta, J_MAX)
            kept = oracle.matching_states(spec, [r[4] for r in rows])
            checks.close(label, "populations", [float(r[5]) for r in rows],
                         oracle.switch_on_coefficients(spec, j0, kept) ** 2, 1e-10)
            ser = read_numeric(f"{out}/on_{k}_series.csv")
            check_tau(checks, label, ser["tau"])
            exact = j0 * j0 - 0.5 * zeta
            tail = oracle.switch_on_energy_tail(spec, j0, kept)
            checks.close(label, "energy + truncated tail vs J0^2 - zeta/2",
                         ser["energy"] + tail, exact, energy_tol(exact))
            picks = sorted(rng.sample(range(len(ser["tau"])), 64))
            want = oracle.switch_on_series(spec, j0, kept, ser["tau"][picks])
            checks.close(label, "energy", ser["energy"], want["energy"],
                         energy_tol(exact))
            checks.close(label, "cos series", ser["cos"][picks], want["cos"], 1e-9)
            checks.close(label, "cos2 series", ser["cos2"][picks], want["cos2"], 1e-9)
            checks.close(label, "J2 series", ser["J2"][picks], want["J2"],
                         1e-9 * max(1.0, zeta))
        for k, (eta, zeta, n0) in enumerate(off_points):
            label = f"switch-off-{k}"
            data = read_numeric(f"{out}/off_{k}.csv")
            spec = oracle.solve(eta, zeta, J_MAX)
            checks.close(label, "populations", data["probability"],
                         oracle.switch_off_probabilities(spec, n0, J_MAX), 1e-10)
            ser = read_numeric(f"{out}/off_{k}_series.csv")
            check_tau(checks, label, ser["tau"])
            cos, cos2, j2 = ser["cos"], ser["cos2"], ser["J2"]
            checks.close(label, "cos 2pi period", cos[SHIFT_2PI:], cos[:-SHIFT_2PI], 1e-10)
            checks.close(label, "cos sign flip at pi", cos[SHIFT_PI:], -cos[:-SHIFT_PI], 1e-10)
            checks.close(label, "cos2 pi/2 period", cos2[SHIFT_HALF_PI:],
                         cos2[:-SHIFT_HALF_PI], 1e-10)
            checks.close(label, "constant J2", j2, j2[0], 1e-10 * max(1.0, j2[0]))
            picks = sorted(rng.sample(range(len(ser["tau"])), 64))
            want = oracle.free_series(spec.vectors[:, n0], J_MAX, ser["tau"][picks])
            checks.close(label, "cos series", cos[picks], want["cos"], 1e-9)
            checks.close(label, "cos2 series", cos2[picks], want["cos2"], 1e-9)
            checks.close(label, "J2", j2[picks], want["J2"], 1e-9 * max(1.0, j2[0]))

    return Workload("series", ops, check)


# --------------------------------------------------------------------------
# propagate


def _profile(kind: str, start: float, end: float) -> Callable[[float], float]:
    if kind == "linear":
        return lambda s: start + (end - start) * s
    return lambda s: start + (end - start) * 0.5 * (1.0 - math.cos(math.pi * s))


def _segments(eta0, zeta0, eta1, zeta1, ramp, hold, shape):
    """The README ramp: ramp between two field points, then hold."""
    f_eta, f_zeta = _profile(shape, eta0, eta1), _profile(shape, zeta0, zeta1)
    segs = [(0.0, ramp, lambda t: (f_eta(t / ramp), f_zeta(t / ramp)), False)]
    if hold > 0:
        segs.append((ramp, ramp + hold, lambda t: (eta1, zeta1), True))
    return segs


def propagate(seed: int, out: str) -> Workload:
    rng = random.Random(seed)

    def target(lo: float = 6.0) -> Tuple[float, float]:
        return round(-rng.uniform(lo, 14.0), 3), round(rng.uniform(16.0, 34.0), 3)

    runs = []       # (label, argv tail, start, segments)
    eta, zeta = target()
    j0 = rng.choice((0, 1, 2))
    runs.append(("ramp-hold", [
        "--j0", str(j0), "--eta-to", _fmt(eta), "--zeta-to", _fmt(zeta),
        "--ramp-duration", "0.0628", "--hold-duration", "6.2832"],
        ("j0", j0, 0.0, 0.0), _segments(0, 0, eta, zeta, 0.0628, 6.2832,
                                         "smooth_cosine")))
    eta, zeta = target()
    j0 = rng.choice((0, 1, 2))
    runs.append(("slow-ramp", [
        "--j0", str(j0), "--eta-to", _fmt(eta), "--zeta-to", _fmt(zeta),
        "--ramp-duration", "6.284", "--shape", "smooth_cosine"],
        ("j0", j0, 0.0, 0.0), _segments(0, 0, eta, zeta, 6.284, 0.0,
                                         "smooth_cosine")))
    eta0, zeta0 = target(lo=8.0)
    eta, zeta = target()
    n0 = rng.choice((0, 1, 2))
    runs.append(("eigenstate-start", [
        "--n0", str(n0), "--eta-from", _fmt(eta0), "--zeta-from", _fmt(zeta0),
        "--eta-to", _fmt(eta), "--zeta-to", _fmt(zeta), "--ramp-duration", "1.0",
        "--hold-duration", "2.0", "--shape", "linear"],
        ("n0", n0, eta0, zeta0), _segments(eta0, zeta0, eta, zeta, 1.0, 2.0,
                                           "linear")))

    # dtau 1e-3 and 2e-3 share every snapshot time: step counts are even
    # and the stride halves with the step.
    ops = [Op(label, ["propagate", *tail, "--dtau", "0.001",
                      "--sample-stride", "20", "--output", f"{out}/{label}.csv"],
              f"{out}/{label}.csv")
           for label, tail, _, _ in runs]

    def check(checks: Checks, run_cli: Callable[[List[str]], int]) -> None:
        m = PROPAGATE_M
        for (label, tail, start, segs), op in zip(runs, ops):
            fine = read_numeric(op.output)
            checks.close(label, "norm", fine["norm"], 1.0, 1e-10)
            checks.close(label, "end time", fine["tau"][-1], segs[-1][1], 1e-12)
            coarse_path = f"{out}/check/{label}_2dtau.csv"
            rc = run_cli(["propagate", *tail, "--dtau", "0.002",
                          "--sample-stride", "10", "--output", coarse_path])
            if not checks.expect(rc == 0, f"{label}: 2*dtau run exited {rc}"):
                continue
            coarse = read_numeric(coarse_path)
            if not checks.close(label, "2*dtau snapshot times", coarse["tau"],
                                fine["tau"], 1e-12):
                continue
            kind, index, eta0, zeta0 = start
            psi0 = np.zeros(2 * m + 1, complex)
            if kind == "j0":
                psi0[m + index] = 1.0
            else:
                psi0 = oracle.solve(eta0, zeta0, m).vectors[:, index].astype(complex)
            coarse_ref, tail = oracle.trajectory(psi0, segs, fine["tau"], m, 0.01, 16)
            ref, _ = oracle.trajectory(psi0, segs, fine["tau"], m, 0.005, 32)
            checks.expect(tail < 1e-20, f"{label}: oracle basis too small "
                          f"(edge weight {tail:.1e})")
            prog = np.stack([fine["cos"], fine["cos2"]], axis=1)
            error = float(np.max(np.abs(prog - ref[:, :2])))
            richardson = float(np.max(np.abs(
                prog - np.stack([coarse["cos"], coarse["cos2"]], axis=1))))
            # Strang splitting is second order: e(2h) = 4 e(h), so the
            # 2*dtau difference is 3 e(h); allow twice the estimate e(h)
            tol = 2.0 * richardson / 3.0
            # the Magnus integrator is fourth order: halving its substep
            # cuts the error 16-fold, so ref's own error is |ref - coarse|/15
            oracle_error = float(np.max(np.abs(ref - coarse_ref))) / 15.0
            checks.expect(oracle_error <= 0.05 * tol,
                          f"{label}: oracle not converged ({oracle_error:.2e} "
                          f"against tol {tol:.2e})")
            checks.expect(error <= tol + oracle_error,
                          f"{label}: cos/cos2 differ from the full-basis "
                          f"evolution by {error:.3e} (tol {tol:.3e})")

    return Workload("propagate", ops, check)


WORKLOADS = {"scan": scan, "series": series, "propagate": propagate}

#!/usr/bin/env python3
"""Benchmark of the planar-pendulum CLI on its three paths.

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src. One
process runs one workload: it repeats whole rounds of the workload's CLI
calls through ``planar_pendulum.cli.main`` until --seconds have passed,
timing set-up in fresh child processes between rounds, then checks the
last round's outputs against the full-basis oracle (see workloads.py).
A fixed calibration kernel runs before the first operation of each round
and after every operation; times are reported relative to it (see
``calibrate``).
Every CLI call gets --threads 1 and BLAS is pinned to one thread below, so
the load is one busy program thread whatever the core count.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics of the traced ones (see
tracing.py). The last output line is one JSON object.
"""

import os

# Pin the BLAS and OpenMP pools before numpy is loaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

SETUP_SAMPLES = 7
# Times are reported in seconds of a host on which one calibrate() takes
# CAL_REF_S wall and CPU seconds (about its time on the reference host of
# README.md): an operation's time is divided by the mean of the two
# calibrations around it and multiplied by CAL_REF_S.
CAL_REF_S = 0.020
SETUP_CODE = ("import time\n"
              "import planar_pendulum.cli as cli\n"
              "cli.build_parser()\n"
              "print(repr(time.monotonic()))\n")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


_rng = np.random.default_rng(0)
_sym = _rng.standard_normal((129, 129))
CAL_INPUTS = {"matrix": _sym + _sym.T,
              "tau": np.linspace(0.0, 100.0, 4097),
              "freqs": np.arange(33.0) ** 2,
              "small": _rng.standard_normal(9),
              "floats": _rng.standard_normal(1500).tolist()}


def calibrate() -> tuple:
    """(wall, CPU) seconds of a fixed piece of work that runs no program
    code: an interpreter loop, small numpy calls, LAPACK eigh, a cos over
    an outer product and float formatting, the kinds of work the workloads
    spend their time on.

    The host's speed drifts by a quarter in phases of seconds to minutes
    (README.md), in wall and CPU time alike. Timed between operations, this
    kernel follows the drift, and an operation's time over the mean of the
    calibrations on either side of it does not."""
    inp = CAL_INPUTS
    w0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(30000):
        acc += (i * i) % 7
    small = inp["small"]
    for _ in range(600):
        small = np.sqrt(np.abs(small * 0.5 + 1.0))
    for _ in range(4):
        np.linalg.eigh(inp["matrix"])
    float(np.cos(np.outer(inp["tau"], inp["freqs"])).sum())
    vals = inp["floats"]
    "\n".join(",".join(repr(v) for v in vals[i:i + 6])
              for i in range(0, len(vals), 6))
    return time.perf_counter() - w0, time.process_time() - c0


def measure_setup() -> tuple:
    """(raw, calibrated) seconds from spawning a fresh interpreter to the
    package being imported and the CLI parser built (CLOCK_MONOTONIC is
    shared by all processes, so the child's reading can be set against the
    parent's). The calibrated figure divides by the mean wall time of a
    calibration on either side."""
    before = calibrate()[0]
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    raw = float(proc.stdout.split()[-1]) - t0
    after = calibrate()[0]
    return raw, raw * CAL_REF_S / (0.5 * (before + after))


def digest_outputs(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def output_volume(out: Path) -> tuple:
    """(CSV data rows, bytes) of every file one round writes."""
    rows = nbytes = 0
    for p in sorted(out.iterdir()):
        if p.is_file():
            nbytes += p.stat().st_size
            if p.suffix == ".csv":
                with open(p) as fh:
                    rows += sum(1 for _ in fh) - 1
    return rows, nbytes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "series", "propagate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "planar_pendulum" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import planar_pendulum
    from planar_pendulum import cli

    import tracing
    import workloads

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    (out / "check").mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(out))

    def run_cli(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([*argv, "--threads", "1"])

    tracer = tracing.Tracer(planar_pendulum) if args.trace else None
    walls, traced_walls, traced_rounds, setups = [], [], [], []
    # per untraced round and operation: raw wall and CPU seconds, and both
    # over the mean of the calibrations on either side
    op_walls, op_cpus, rel_walls, rel_cpus, cal_rounds = [], [], [], [], []
    exit_codes = set()
    first_digest = None
    identical = True
    start = time.perf_counter()
    while True:
        traced = tracer is not None and (len(walls) + len(traced_walls)) % 2 == 1
        if traced:
            tracer.spans = []
            tracer.install()
        r0 = time.perf_counter()
        cals, walls_k, cpus_k = [calibrate()], [], []
        for op in workload.ops:
            w0, c0 = time.perf_counter(), time.process_time()
            exit_codes.add(run_cli(op.argv))
            c1, w1 = time.process_time(), time.perf_counter()
            cals.append(calibrate())
            walls_k.append(w1 - w0)
            cpus_k.append(c1 - c0)
        r1 = time.perf_counter()
        if not traced:
            cal = np.array(cals)
            around = 0.5 * (cal[:-1] + cal[1:])
            op_walls.append(walls_k)
            op_cpus.append(cpus_k)
            rel_walls.append(np.array(walls_k) / around[:, 0])
            rel_cpus.append(np.array(cpus_k) / around[:, 1])
            cal_rounds.append(cals)
        if traced:
            tracer.uninstall()
            traced_walls.append(r1 - r0)
            traced_rounds.append(tracer.spans)
        else:
            walls.append(r1 - r0)
        digest = digest_outputs(out)
        first_digest = first_digest or digest
        identical = identical and digest == first_digest
        elapsed = time.perf_counter() - start
        # set-up samples are spread over the run, between rounds
        if len(setups) < SETUP_SAMPLES * min(1.0, elapsed / args.seconds):
            setups.append(measure_setup())
        if elapsed >= args.seconds and (tracer is None or traced_walls):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_SAMPLES:
        setups.append(measure_setup())

    checks = workloads.Checks()
    try:
        for op in workload.ops:
            workloads.check_manifest(checks, op)
        workload.check(checks, run_cli)
    except Exception:  # a check that cannot run counts as failed, not as a crash
        traceback.print_exc()
        checks.errors.append("a check raised; see the traceback above")
    checks.expect(identical, "outputs differ between rounds")
    checks.expect(exit_codes == {0}, f"CLI exit codes {sorted(exit_codes)}")

    rounds = len(walls) + len(traced_walls)
    attempted = rounds * len(workload.ops)
    failed = rounds * len(checks.failed_ops)
    for message in checks.failed_ops:
        print(f"failed operation: {message}", file=sys.stderr)
    for message in checks.errors:
        print(f"check failed: {message}", file=sys.stderr)

    if tracer is None:
        # per operation the median over rounds of its calibrated time,
        # summed over the operations of one round
        values = {
            "wall_s": CAL_REF_S * float(np.median(rel_walls, axis=0).sum()),
            "cpu_s": CAL_REF_S * float(np.median(rel_cpus, axis=0).sum()),
            "setup_s": statistics.median(rel for _, rel in setups),
            "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
        (OUT / f"{args.workload}.rounds.json").write_text(json.dumps({
            "ops": [op.label for op in workload.ops], "wall_s": op_walls,
            "cpu_s": op_cpus, "calibration_wall_cpu_s": cal_rounds,
            "setup_raw_calibrated_s": setups}))
        print("uncalibrated: wall_s {:.6g} cpu_s {:.6g} setup_s {:.6g} "
              "(per operation the median over rounds, summed)".format(
                  float(np.median(op_walls, axis=0).sum()),
                  float(np.median(op_cpus, axis=0).sum()),
                  statistics.median(raw for raw, _ in setups)))
    else:
        rows, nbytes = output_volume(out)
        values = tracing.best_metrics(
            [tracing.round_metrics(spans, rows, nbytes) for spans in traced_rounds])
        values["trace.overhead_s"] = min(traced_walls) - min(walls)
        units = tracing.PER_LAYER_UNITS
        tracing.dump(traced_rounds[-1], str(OUT / f"{args.workload}.spans.jsonl"))

    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print("round walls untraced " + " ".join(f"{w:.4f}" for w in walls)
          + (" traced " + " ".join(f"{w:.4f}" for w in traced_walls)
             if traced_walls else ""))
    print(f"rounds {rounds} attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": not checks.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

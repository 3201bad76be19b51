"""Integration of the rotor TDSE under a pulse schedule.

Ramps take split-operator steps on the angular grid (_run): half potential
kick, full kinetic rotation in the wavenumber representation, half
potential kick, with the fields sampled at the step midpoint so smooth
time dependence keeps second order. The step is exactly unitary up to
rounding, so norm drift is a diagnostic and is never corrected.

Holds are evolved exactly (_exact_hold): each maximal run of steps lying
wholly inside a constant segment, or past the schedule's end, projects the
grid state onto the two parity sectors, takes one eigh per sector at the
hold fields and applies exp(-i E_n t) at each snapshot time. Its cutoff is
guarded like solve_stacks's: discarded grid amplitudes and an all-time
bound on the basis tail must be <= TAIL_TOL. _run alone remains the grid
twin that validate and the tests check propagate against.

The requested dtau is snapped to an exact divisor of the propagation
window (dtau_eff = duration / round(duration / dtau)); without this the
leftover fraction of a step turns into a spurious first-order phase error
that buries the genuine splitting error.

NaN and inf are absorbing under the FFT and under the unit-modulus
kicks, so the stepper checks finiteness every FINITE_CHECK_STEPS steps and
after the last one: a non-finite state still raises before it is returned.

Each snapshot is measured once (Trajectory). propagate warns only when a
snapshot's top-of-grid weight, measured there, exceeds TAIL_TOL.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import AngularGrid, InteractionParams, Wavefunction, grid_moments
from .dynamics import ExpectationSeries
from .spectrum import (
    TAIL_ROWS,
    TAIL_TOL,
    _auto_j_max,
    _hamiltonian_stack,
    _round_up8,
    _signed_expansion,
)

DEFAULT_DTAU = 1e-3
_NORM_TOL = 1e-10
_EXACT_REGIME = 1e-12
FINITE_CHECK_STEPS = 64
# Snapshots are measured, and a hold's evaluated, this many at a time (a
# hold's go back to the grid one array each, as _run's do): blocks of many
# states would raise the peak resident memory; small ones reuse it.
_HOLD_CHUNK = 16

PROFILE_KINDS = ("constant", "linear", "smooth_cosine")


@dataclass(frozen=True)
class Profile:
    """Scalar field shape over one segment, parameterized by s in [0, 1]."""

    kind: str
    start: float
    end: float

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        for name in ("start", "end"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{self.kind} profile {name} must be "
                                 f"finite, got {value}")
        if self.kind == "constant" and self.start != self.end:
            raise ValueError("constant profile needs equal endpoints")

    def value(self, s: float) -> float:
        if self.kind == "constant":
            return self.start
        if self.kind == "linear":
            return self.start + (self.end - self.start) * s
        return self.start + (self.end - self.start) * 0.5 * (1.0 - math.cos(math.pi * s))


def constant(value: float) -> Profile:
    return Profile("constant", value, value)


def linear(start: float, end: float) -> Profile:
    return Profile("linear", start, end)


def smooth_cosine(start: float, end: float) -> Profile:
    return Profile("smooth_cosine", start, end)


@dataclass(frozen=True)
class Segment:
    duration: float
    eta: Profile
    zeta: Profile

    def __post_init__(self):
        if not (self.duration >= 0 and math.isfinite(self.duration)):
            raise ValueError("segment duration must be finite and >= 0")


class PulseSchedule:
    """Ordered field segments; evaluation is right-continuous at breaks."""

    def __init__(self, segments: Sequence[Segment]):
        if not segments:
            raise ValueError("schedule needs at least one segment")
        self.segments: Tuple[Segment, ...] = tuple(segments)
        bounds = np.cumsum([s.duration for s in self.segments])
        self._ends = bounds
        self.total_duration = float(bounds[-1])

    @classmethod
    def frozen(cls, eta: float, zeta: float, duration: float) -> "PulseSchedule":
        return cls([Segment(duration, constant(eta), constant(zeta))])

    @classmethod
    def switch(cls, eta_from: float, zeta_from: float, eta_to: float,
               zeta_to: float, ramp_duration: float, hold_duration: float,
               shape: str = "smooth_cosine") -> "PulseSchedule":
        """Ramp between two field points, then hold the target."""
        maker = {"linear": linear, "smooth_cosine": smooth_cosine}.get(shape)
        if maker is None:
            raise ValueError(f"ramp shape must be linear or smooth_cosine, "
                             f"not {shape!r}")
        if not hold_duration >= 0:
            raise ValueError(f"hold_duration must be >= 0, got {hold_duration}")
        segs = [Segment(ramp_duration, maker(eta_from, eta_to),
                        maker(zeta_from, zeta_to))]
        if hold_duration > 0:
            segs.append(Segment(hold_duration, constant(eta_to),
                                constant(zeta_to)))
        return cls(segs)

    def fields_at(self, tau: float) -> Tuple[float, float]:
        """(eta, zeta) at time tau; clamped to the schedule's span."""
        if tau <= 0:
            seg = self.segments[0]
            return seg.eta.value(0.0), seg.zeta.value(0.0)
        start = 0.0
        for seg, end in zip(self.segments, self._ends):
            # strict inequality keeps boundary values right-continuous
            if tau < end and seg.duration > 0:
                s = (tau - start) / seg.duration
                return seg.eta.value(s), seg.zeta.value(s)
            start = end
        seg = self.segments[-1]
        return seg.eta.value(1.0), seg.zeta.value(1.0)

    def step_fields(self, dtau: float, nsteps: int
                    ) -> Iterator[Tuple[float, float]]:
        """fields_at((i + 0.5) * dtau) for i in range(nsteps), in one pass.

        The midpoints rise, so the segments are walked once. A constant
        segment, and the clamped span past the end, yield one tuple for
        all of their steps without evaluating a profile.
        """
        ends = self._ends.tolist()
        i = 0
        for seg, start, end in zip(self.segments, [0.0, *ends[:-1]], ends):
            if seg.duration == 0:
                continue
            held = None
            if seg.eta.kind == seg.zeta.kind == "constant":
                held = (seg.eta.start, seg.zeta.start)
            while i < nsteps:
                tau = (i + 0.5) * dtau
                if not tau < end:
                    break
                if held is None:
                    s = (tau - start) / seg.duration
                    yield seg.eta.value(s), seg.zeta.value(s)
                else:
                    yield held
                i += 1
        seg = self.segments[-1]
        held = (seg.eta.value(1.0), seg.zeta.value(1.0))
        for _ in range(i, nsteps):
            yield held


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one propagation, their (eta, zeta) fields and the
    (cutoff, tail certificate) of each exact hold. Each snapshot is measured
    once, by grid_moments: norms (each within 1e-10 of 1), norm_drift, the
    cos, cos2, J2 and energy series, and grid_tail, the largest tail."""

    tau_samples: np.ndarray
    states: Tuple[Wavefunction, ...]
    fields: np.ndarray
    hold_limits: Tuple[Tuple[int, float], ...] = ()
    norms: np.ndarray = field(init=False)
    observables: Dict[str, ExpectationSeries] = field(init=False)
    norm_drift: float = field(init=False)
    grid_tail: float = field(init=False)

    def __post_init__(self):
        grid = self.states[0].grid
        chunks = [grid_moments(np.stack([w.amplitudes for w in
                                         self.states[i:i + _HOLD_CHUNK]]), grid)
                  for i in range(0, len(self.states), _HOLD_CHUNK)]
        norms, cos, cos2, j2, tail = map(np.concatenate, zip(*chunks))
        drift = np.abs(norms - 1.0)
        taus = self.tau_samples
        for t, d in zip(taus, drift):
            if not d <= _NORM_TOL:          # NaN fails too
                raise RuntimeError(
                    f"snapshot at tau={t:.6g} has norm drift {d:.3e}")
        eta, zeta = self.fields.T
        series = {"cos": cos, "cos2": cos2, "J2": j2,
                  "energy": j2 - eta * cos - zeta * cos2}
        observables = {k: ExpectationSeries(taus, v, k)
                       for k, v in series.items()}
        for name, value in (("norms", norms), ("observables", observables),
                            ("norm_drift", float(drift.max())),
                            ("grid_tail", float(tail.max()))):
            object.__setattr__(self, name, value)

    @property
    def final_state(self) -> Wavefunction:
        return self.states[-1]


def _kick_writer(grid: AngularGrid, dtau: float
                 ) -> Callable[[float, float], np.ndarray]:
    """(eta, zeta) -> the half-step kick exp(-i dtau V / 2) on the grid.

    V(theta_k) = V(theta_{n-k}), so the phase is computed on k = 0..n/2
    only, with cos and sin written straight into the real and imaginary
    parts, and mirrored onto k = n/2+1..n-1. Every call overwrites and
    returns the same array.
    """
    n = grid.n_points
    half = n // 2 + 1
    cos_half = grid.cos_theta[:half]
    phase = np.empty(half)
    kick = np.empty(n, dtype=complex)
    kick_re, kick_im = kick.real[:half], kick.imag[:half]
    mirror_to, mirror_from = kick[half:], kick[n // 2 - 1:0:-1]

    def write(eta: float, zeta: float) -> np.ndarray:
        # -dtau V / 2 = (dtau / 2) cos(theta) (eta + zeta cos(theta))
        np.multiply(cos_half, 0.5 * dtau * zeta, out=phase)
        np.add(phase, 0.5 * dtau * eta, out=phase)
        np.multiply(phase, cos_half, out=phase)
        np.cos(phase, out=kick_re)
        np.sin(phase, out=kick_im)
        mirror_to[...] = mirror_from
        return kick

    return write


def _run(amps: np.ndarray, grid: AngularGrid, schedule: PulseSchedule,
         duration: float, nsteps: int,
         on_step: Optional[Callable[[int, np.ndarray], None]] = None
         ) -> np.ndarray:
    """Core Strang loop; mutates and returns a working copy of amps.

    on_step(i, psi) sees the state after each full step i = 1..nsteps; on
    a step that is checked for finiteness, the check comes after it.
    """
    dtau = duration / nsteps
    exp_kinetic = np.exp(-1j * grid.wavenumbers ** 2 * dtau)
    write_kick = _kick_writer(grid, dtau)
    psi = np.array(amps, dtype=complex)
    buf = np.empty_like(psi)
    kick = None
    last_fields: Optional[Tuple[float, float]] = None
    checked = 0
    for i, fields in enumerate(schedule.step_fields(dtau, nsteps), start=1):
        if fields != last_fields:
            kick = write_kick(*fields)
            last_fields = fields
        psi *= kick
        np.fft.fft(psi, out=buf)
        buf *= exp_kinetic
        np.fft.ifft(buf, out=psi)
        psi *= kick
        if on_step is not None:
            on_step(i, psi)
        if i % FINITE_CHECK_STEPS == 0 or i == nsteps:
            if not np.isfinite(psi).all():
                raise RuntimeError(
                    f"non-finite amplitudes within steps {checked + 1}-{i} "
                    f"(tau {checked * dtau:.6g} to {i * dtau:.6g})")
            checked = i
    return psi


class _FromStep:
    """The schedule as _run sees it from step `first` on: step i of the
    view is step first + i of the schedule at the same dtau. _run reads
    step_fields; fields_at is kept for readers of the schedule a _run call
    was given, such as the per-step split of bench/tracing.py."""

    def __init__(self, schedule: PulseSchedule, first: int, dtau: float):
        self.schedule, self.first, self.offset = schedule, first, first * dtau

    def step_fields(self, dtau: float, nsteps: int
                    ) -> Iterator[Tuple[float, float]]:
        return islice(self.schedule.step_fields(dtau, self.first + nsteps),
                      self.first, None)

    def fields_at(self, tau: float) -> Tuple[float, float]:
        return self.schedule.fields_at(tau + self.offset)


def _hold_runs(schedule: PulseSchedule, dtau: float, nsteps: int
               ) -> List[Tuple[int, int, Tuple[float, float]]]:
    """(first, last, fields) of each maximal run of steps first+1..last
    (step i spans [(i-1)*dtau, i*dtau]) that lies wholly inside a constant
    segment or past the schedule's end, in time order. A step that touches
    a ramp belongs to none."""
    spans, start = [], 0.0
    for seg, end in zip(schedule.segments, schedule._ends.tolist()):
        if seg.duration > 0 and seg.eta.kind == seg.zeta.kind == "constant":
            spans.append((start, end, (seg.eta.start, seg.zeta.start)))
        start = end
    seg = schedule.segments[-1]
    spans.append((start, math.inf, (seg.eta.value(1.0), seg.zeta.value(1.0))))
    runs: List[Tuple[int, int, Tuple[float, float]]] = []
    for lo, hi, fields in spans:
        first = math.ceil(lo / dtau)        # the first step boundary >= lo
        while first * dtau < lo:
            first += 1
        while first > 0 and (first - 1) * dtau >= lo:
            first -= 1
        last = nsteps                       # the last step boundary <= hi
        if hi < nsteps * dtau:
            last = math.floor(hi / dtau)
            while last * dtau > hi:
                last -= 1
            while (last + 1) * dtau <= hi:
                last += 1
        if last <= first:
            continue
        if runs and runs[-1][1] == first and runs[-1][2] == fields:
            first = runs.pop()[0]
        runs.append((first, last, fields))
    return runs


def _sectors(amps: np.ndarray, grid: AngularGrid
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Parity-sector coefficients of a grid state and its grid weight.

    Returns the rows (even, odd), each of length n/2 over J = 0..n/2 - 1
    with odd slot 0 zero: the inverse of spectrum._signed_expansion,
    a_0 = c_0, a_J = (c_J + c_-J)/sqrt(2), b_J = i*(c_J - c_-J)/sqrt(2), from
    Wavefunction.free_rotor_coefficients. The weight at J is
    max(|c_J|, |c_-J|); its last entry, J = n/2, is the Nyquist amplitude.
    """
    band = grid.n_points // 2 - 1
    c = Wavefunction(grid, amps, normalize=False).free_rotor_coefficients(band)
    pos, neg = c[band + 1:], c[band - 1::-1]        # c_J and c_-J, J >= 1
    rows = np.zeros((2, band + 1), dtype=complex)
    rows[0, 0] = c[band]
    rows[0, 1:] = (pos + neg) / math.sqrt(2.0)
    rows[1, 1:] = 1j * (pos - neg) / math.sqrt(2.0)
    nyquist = (abs(amps[::2].sum() - amps[1::2].sum()) * grid.dtheta
               / math.sqrt(2.0 * np.pi))
    weight = np.concatenate([[abs(c[band])], np.maximum(abs(pos), abs(neg)),
                             [nyquist]])
    return rows, weight


def _grid_states(rows: np.ndarray, grid: AngularGrid) -> List[np.ndarray]:
    """Grid amplitudes of sector rows (S, 2, j_max + 1), (even, odd) as
    _sectors returns them: _signed_expansion of each row, summed, then one
    inverse FFT per state into an array of its own."""
    j_max = rows.shape[-1] - 1
    n = grid.n_points
    signed = _signed_expansion(rows, np.array([False, True]), j_max).sum(-2)
    index = np.arange(-j_max, j_max + 1) % n
    states = []
    for coeffs in signed:
        amps = np.zeros(n, dtype=complex)
        amps[index] = coeffs
        np.fft.ifft(amps, out=amps)
        amps *= n / math.sqrt(2.0 * np.pi)
        states.append(amps)
    return states


def _exact_hold(amps: np.ndarray, grid: AngularGrid,
                fields: Tuple[float, float], times: np.ndarray
                ) -> Tuple[List[np.ndarray], int, float]:
    """The grid states at times t after the start of a hold at constant
    fields, evolved exactly: one eigh per parity sector, then
    exp(-i E_n t), then one inverse FFT per state. Returns the states
    (one array each), the cutoff and the tail certificate.

    The cutoff starts at _auto_j_max of the fields, raised to cover the
    state's own extent (its last grid amplitude > TAIL_TOL) and TAIL_ROWS
    more. It must discard no grid amplitude > TAIL_TOL, and the certificate
    max over the last TAIL_ROWS rows J of sum_n |d_n| |V_Jn|, which bounds
    |psi_J(t)| at every t, must be <= TAIL_TOL. Otherwise it grows by a
    quarter (to a multiple of 8) up to the grid's band n/2 - 1, past which
    it raises RuntimeError.
    """
    eta, zeta = fields
    band = grid.n_points // 2 - 1
    rows, weight = _sectors(amps, grid)
    # the last J above TAIL_TOL; a unit state always has one
    extent = int(np.flatnonzero(weight > TAIL_TOL)[-1])
    # the guess depends on |eta| and the well depth only
    guess = _auto_j_max(InteractionParams(-abs(eta), abs(zeta)), 1)
    j_max = max(guess, _round_up8(extent + TAIL_ROWS))
    while True:
        j_max = min(j_max, band)
        discarded = float(weight[j_max + 1:].max())
        tail = math.inf
        if j_max >= 8 and discarded <= TAIL_TOL:
            tail, sectors = 0.0, []
            for odd in (False, True):
                h = _hamiltonian_stack(np.array([eta]), np.array([zeta]),
                                       j_max, odd)[0]
                w, v = np.linalg.eigh(h)
                d = v.T @ rows[int(odd), int(odd):j_max + 1]
                tail = max(tail, float((abs(v[-TAIL_ROWS:]) @ abs(d)).max()))
                sectors.append((w, v, d))
        if tail <= TAIL_TOL:
            break
        if j_max == band:
            reason = (f"discarded grid amplitude {discarded:.1e}"
                      if discarded > TAIL_TOL else f"basis tail bound {tail:.1e}")
            raise RuntimeError(
                f"hold at eta={eta}, zeta={zeta}: {reason} > {TAIL_TOL:.0e} "
                f"at the grid's band j_max={band}; use more grid points")
        j_max = _round_up8(1.25 * j_max)
    states: List[np.ndarray] = []
    for start in range(0, len(times), _HOLD_CHUNK):
        t = times[start:start + _HOLD_CHUNK]
        chunk = np.zeros((len(t), 2, j_max + 1), dtype=complex)
        for odd, (w, v, d) in enumerate(sectors):
            chunk[:, odd, odd:] = (np.exp(-1j * np.multiply.outer(t, w)) * d) @ v.T
        states.extend(_grid_states(chunk, grid))
    return states, j_max, tail


def propagate(psi0: Wavefunction, schedule: PulseSchedule,
              dtau: float = DEFAULT_DTAU,
              sample_stride: Optional[int] = None,
              duration: Optional[float] = None) -> Trajectory:
    """Integrate the TDSE over the schedule and record strided snapshots.

    duration defaults to the schedule's span; a longer duration holds the
    final field values. The first and last instants are always sampled.
    Steps that touch a ramp take Strang steps on the grid (_run); each run
    of steps inside a hold is evolved exactly (_exact_hold), on the same
    step and snapshot times. Warns if a snapshot's grid_tail > TAIL_TOL.
    """
    if not (math.isfinite(dtau) and dtau > 0):
        raise ValueError(f"dtau must be finite and > 0, got {dtau}")
    if not abs(psi0.norm() - 1.0) <= _NORM_TOL:     # NaN fails too
        raise ValueError("initial state must be unit-normalized")
    if duration is None:
        duration = schedule.total_duration
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"propagation window must be finite and > 0, "
                         f"got {duration}")
    grid = psi0.grid
    nsteps = max(1, round(duration / dtau))
    if sample_stride is None:
        sample_stride = max(1, math.ceil(nsteps / 512))
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    dtau_eff = duration / nsteps

    def tau_at(i: int) -> float:        # step nsteps ends at duration exactly
        return duration if i == nsteps else i * dtau_eff

    taus: List[float] = [0.0]
    snaps: List[np.ndarray] = [np.array(psi0.amplitudes, dtype=complex)]

    def on_step(i: int, psi: np.ndarray) -> None:
        if i % sample_stride == 0 or i == nsteps:
            taus.append(tau_at(i))
            snaps.append(psi.copy())

    psi = snaps[0]
    done = 0
    hold_limits = []
    for first, last, fields in [*_hold_runs(schedule, dtau_eff, nsteps),
                                (nsteps, nsteps, None)]:
        if first > done:
            psi = _run(psi, grid, _FromStep(schedule, done, dtau_eff),
                       (first - done) * dtau_eff, first - done,
                       lambda i, p, done=done: on_step(done + i, p))
        if last > first:
            # the steps on_step would sample, then the hold's last one
            steps = list(range(first + sample_stride - first % sample_stride,
                               last + 1, sample_stride))
            if last == nsteps and steps[-1:] != [last]:
                steps.append(last)
            ends = steps if steps[-1:] == [last] else steps + [last]
            states, j_max, tail = _exact_hold(
                psi, grid, fields, (np.array(ends) - first) * dtau_eff)
            taus.extend(tau_at(i) for i in steps)
            snaps.extend(states[:len(steps)])
            psi = states[-1]
            hold_limits.append((j_max, tail))
        done = last

    traj = Trajectory(
        tau_samples=np.array(taus),
        states=tuple(Wavefunction(grid, a, normalize=False) for a in snaps),
        fields=np.array([schedule.fields_at(t) for t in taus]),
        hold_limits=tuple(hold_limits))
    if traj.grid_tail > TAIL_TOL:
        warnings.warn(f"top-of-grid weight {traj.grid_tail:.1e} (at |J| > "
                      f"{grid.max_band_limit}) > {TAIL_TOL:.0e}; use more "
                      "grid points", RuntimeWarning, stacklevel=2)
    return traj


@dataclass(frozen=True)
class AccuracyReport:
    """Self-convergence result from runs at dtau, dtau/2, dtau/4."""

    order: Optional[float]
    regime: str                 # "measured" or "exact"
    coarse_difference: float
    fine_difference: float

    def __str__(self) -> str:
        if self.regime == "exact":
            return (f"exact regime (differences {self.coarse_difference:.2e}, "
                    f"{self.fine_difference:.2e})")
        return (f"order {self.order:.3f} (differences "
                f"{self.coarse_difference:.2e}, {self.fine_difference:.2e})")


def second_order_accuracy_check(psi0: Wavefunction, schedule: PulseSchedule,
                                tau_end: Optional[float] = None,
                                dtau: float = DEFAULT_DTAU) -> AccuracyReport:
    """Richardson self-convergence of the splitting over [0, tau_end].

    Three runs at dtau, dtau/2, dtau/4; the L2 self-differences D1, D2
    give the observed global order log2(D1/D2). A smooth schedule sits at
    2; differences below 1e-12 report the exact regime instead of a
    meaningless exponent ratio.
    """
    if tau_end is None:
        tau_end = schedule.total_duration
    if tau_end <= 0:
        raise ValueError("tau_end must be > 0")
    if not abs(psi0.norm() - 1.0) <= _NORM_TOL:     # NaN fails too
        raise ValueError("initial state must be unit-normalized")
    grid = psi0.grid
    base = max(1, round(tau_end / dtau))
    finals = [
        _run(psi0.amplitudes, grid, schedule, tau_end, base * k)
        for k in (1, 2, 4)
    ]
    d1, d2 = grid_moments(np.diff(finals, axis=0), grid).norm.tolist()
    if d1 < _EXACT_REGIME and d2 < _EXACT_REGIME:
        return AccuracyReport(order=None, regime="exact",
                              coarse_difference=d1, fine_difference=d2)
    if d2 == 0.0:
        return AccuracyReport(order=math.inf, regime="measured",
                              coarse_difference=d1, fine_difference=d2)
    return AccuracyReport(order=math.log2(d1 / d2), regime="measured",
                          coarse_difference=d1, fine_difference=d2)

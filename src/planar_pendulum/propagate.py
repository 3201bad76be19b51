"""Split-operator integration of the rotor TDSE under a pulse schedule.

Strang stepping: half potential kick, full kinetic rotation in the
wavenumber representation, half potential kick, with the fields sampled
at the step midpoint so smooth time dependence keeps second order. The
step is exactly unitary up to rounding, so norm drift is a diagnostic
and is never corrected.

The requested dtau is snapped to an exact divisor of the propagation
window (dtau_eff = duration / round(duration / dtau)); without this the
leftover fraction of a step turns into a spurious first-order phase error
that buries the genuine splitting error.

NaN and inf are absorbing under the FFT and under the unit-modulus
kicks, so the stepper checks finiteness every FINITE_CHECK_STEPS steps and
after the last one: a non-finite state still raises before it is returned.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import AngularGrid, Wavefunction
from .dynamics import ExpectationSeries

DEFAULT_DTAU = 1e-3
STABILITY_PHASE_LIMIT = 0.1
_NORM_TOL = 1e-10
_EXACT_REGIME = 1e-12
FINITE_CHECK_STEPS = 64

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
    tau_samples: np.ndarray
    states: Tuple[Wavefunction, ...]
    observables: Dict[str, ExpectationSeries]

    def __post_init__(self):
        for t, wf in zip(self.tau_samples, self.states):
            drift = abs(wf.norm() - 1.0)
            if not drift <= _NORM_TOL:      # NaN fails too
                raise RuntimeError(
                    f"snapshot at tau={t:.6g} has norm drift {drift:.3e}")

    @property
    def final_state(self) -> Wavefunction:
        return self.states[-1]


def _stability_check(grid: AngularGrid, dtau: float) -> None:
    eps_max = (grid.n_points // 2) ** 2
    if dtau * eps_max >= STABILITY_PHASE_LIMIT:
        warnings.warn(
            f"kinetic phase per step dtau*eps_max = {dtau * eps_max:.3g} "
            f">= {STABILITY_PHASE_LIMIT}; top-of-grid components are not "
            "resolved (harmless if they are unpopulated)",
            RuntimeWarning, stacklevel=3)


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


def propagate(psi0: Wavefunction, schedule: PulseSchedule,
              dtau: float = DEFAULT_DTAU,
              sample_stride: Optional[int] = None,
              duration: Optional[float] = None) -> Trajectory:
    """Integrate the TDSE over the schedule and record strided snapshots.

    duration defaults to the schedule's span; a longer duration holds the
    final field values. The first and last instants are always sampled.
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
    _stability_check(grid, dtau)
    nsteps = max(1, round(duration / dtau))
    if sample_stride is None:
        sample_stride = max(1, math.ceil(nsteps / 512))
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    dtau_eff = duration / nsteps

    taus: List[float] = [0.0]
    snaps: List[np.ndarray] = [np.array(psi0.amplitudes, dtype=complex)]

    def on_step(i: int, psi: np.ndarray) -> None:
        if i % sample_stride == 0 or i == nsteps:
            taus.append(i * dtau_eff)
            snaps.append(psi.copy())

    final = _run(psi0.amplitudes, grid, schedule, duration, nsteps, on_step)
    if taus[-1] != duration:           # only if the last step wasn't sampled
        taus.append(duration)
        snaps.append(final.copy())

    states = tuple(Wavefunction(grid, a, normalize=False) for a in snaps)
    tau_arr = np.array(taus)
    cos_v = np.array([w.expectation_cos() for w in states])
    cos2_v = np.array([w.expectation_cos2() for w in states])
    j2_v = np.array([w.expectation_kinetic() for w in states])
    energy_v = np.array([
        j2 - fields[0] * cv - fields[1] * c2v
        for j2, cv, c2v, fields in zip(
            j2_v, cos_v, cos2_v, (schedule.fields_at(t) for t in tau_arr))
    ])
    observables = {
        "cos": ExpectationSeries(tau_arr, cos_v, "cos"),
        "cos2": ExpectationSeries(tau_arr, cos2_v, "cos2"),
        "J2": ExpectationSeries(tau_arr, j2_v, "J2"),
        "energy": ExpectationSeries(tau_arr, energy_v, "energy"),
    }
    return Trajectory(tau_samples=tau_arr, states=states,
                      observables=observables)


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
    scale = math.sqrt(grid.dtheta)
    d1 = float(np.linalg.norm(finals[0] - finals[1])) * scale
    d2 = float(np.linalg.norm(finals[1] - finals[2])) * scale
    if d1 < _EXACT_REGIME and d2 < _EXACT_REGIME:
        return AccuracyReport(order=None, regime="exact",
                              coarse_difference=d1, fine_difference=d2)
    if d2 == 0.0:
        return AccuracyReport(order=math.inf, regime="measured",
                              coarse_difference=d1, fine_difference=d2)
    return AccuracyReport(order=math.log2(d1 / d2), regime="measured",
                          coarse_difference=d1, fine_difference=d2)

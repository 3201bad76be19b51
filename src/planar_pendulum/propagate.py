"""Integration of the rotor TDSE under a pulse schedule.

From the one FFT of psi0 on, the state is a row of signed-J free-rotor
coefficients c_J, J = -j..j, as wide as its window (a start with more than
TAIL_TOL on the grid's Nyquist mode, which no window holds, is refused).
Ramps take Strang steps in that basis (_ramp) with midpoint fields,
evaluated _FIELD_STEPS steps at a time; a potential kick exp(-i dtau V / 2)
is a convolution with its Fourier taps, a half-grid cosine sum of the kick
minus 1 (_kick_taps), and between reads the second half kick of a step and
the first of the next are one (Feit, Fleck & Steiger, J. Comput. Phys. 47,
412 (1982)). Holds are evolved exactly (_exact_hold): one eigh per parity
sector, then exp(-i E_n t). Both guard their cutoff at TAIL_TOL up to the
grid's band, and a ramp's window grows to hold its kick taps, merged or
half; truncation is the only departure from unitarity, so norm drift is
a diagnostic and is never corrected. Snapshots are measured by
band sums (Trajectory) and go to the grid, one inverse FFT each, only when
read as states. The twin that validate and the tests check propagate
against is the same Strang step on the grid (_run): a pointwise kick, an
FFT, the kinetic phase, an inverse FFT and the kick again; it shares no
code with the basis steps.

dtau is snapped to an exact divisor of the window (dtau_eff = duration /
round(duration / dtau)), or the leftover fraction of a step would add a
first-order phase error. NaN and inf persist through the kicks and the
kinetic phase, so the steppers check finiteness every FINITE_CHECK_STEPS
steps and after the last one, and raise before returning such a state.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import groupby, islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (DEFAULT_DTAU, AngularGrid, GridMoments, InteractionParams,
                   Wavefunction)
from .dynamics import ExpectationSeries
from .spectrum import (
    TAIL_ROWS,
    TAIL_TOL,
    _auto_j_max,
    _hamiltonian_stack,
    _round_up8,
    _signed_expansion,
)

_NORM_TOL = 1e-10
FINITE_CHECK_STEPS = 64
# A ramp evaluates its midpoint fields this many steps at a time: bounded,
# so a long ramp holds a fixed number of them, and a whole number of check
# blocks, so each block lies within one evaluation.
_FIELD_STEPS = 16 * FINITE_CHECK_STEPS
# Snapshots are measured, and a hold's evaluated, this many at a time: many
# would raise the peak resident memory; small blocks reuse it.
_HOLD_CHUNK = 16
# Kick taps below this are dropped: a few ulps of the kick's unit modulus.
_TAP_FLOOR = 4.0 * np.finfo(float).eps

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

    def value(self, s):
        """The field at s, a float or an array of them (a constant profile
        gives its float for either)."""
        if self.kind == "constant":
            return self.start
        if self.kind == "linear":
            return self.start + (self.end - self.start) * s
        return self.start + (self.end - self.start) * 0.5 * (1.0 - np.cos(np.pi * s))


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
        ends = np.cumsum([s.duration for s in self.segments])
        # (start, end) of each segment; a zero-duration one has start == end
        self.spans = np.column_stack([np.r_[0.0, ends[:-1]], ends])
        self.total_duration = float(ends[-1])

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

    def fields(self, taus) -> np.ndarray:
        """(eta, zeta) rows (n, 2) at the times taus (n,): each in the
        segment whose span holds it (the breaks are right-continuous), at
        s = (tau - start) / duration; the first segment at s = 0 for
        tau <= 0 and the last at s = 1 past the end. One Profile.value call
        per field and segment reached."""
        taus = np.asarray(taus, dtype=float)
        starts, ends = self.spans.T
        k = np.searchsorted(ends, taus, side="right")
        before = taus <= 0
        inside = ~before & (k < len(ends))
        s = np.where(before, 0.0, 1.0)      # the clamped times' s
        k = np.where(before, 0, np.minimum(k, len(ends) - 1))
        out = np.empty((len(taus), 2))
        for i in set(k.tolist()):
            seg, at = self.segments[i], k == i
            within = at & inside
            s[within] = (taus[within] - starts[i]) / seg.duration
            out[at, 0], out[at, 1] = seg.eta.value(s[at]), seg.zeta.value(s[at])
        return out

    def fields_at(self, tau: float) -> Tuple[float, float]:
        """(eta, zeta) at time tau, as floats: fields([tau])."""
        eta, zeta = self.fields([tau])[0].tolist()
        return eta, zeta


def _band_moments(c: np.ndarray, limit: int) -> GridMoments:
    """Norm, <cos>, <cos^2>, <J^2> and tail (the largest |c_J| with
    |J| > limit) of each signed row of c (S, 2j + 1) by band sums over its
    interleaved real and imaginary parts: norm^2 = sum |c_J|^2, <cos> =
    Re sum conj(c_J) c_(J+1), <cos^2> = (norm^2 + Re sum conj(c_J) c_(J+2))
    / 2, <J^2> = sum J^2 |c_J|^2. A block gives its rows' bits."""
    v = c.view(float)
    sq = v * v
    norm2 = sq.sum(-1)
    cos = (v[:, :-2] * v[:, 2:]).sum(-1)
    cos2 = 0.5 * norm2 + 0.5 * (v[:, :-4] * v[:, 4:]).sum(-1)
    js = np.arange(c.shape[-1]) - c.shape[-1] // 2
    j2 = (sq * np.repeat(js * js, 2)).sum(-1)
    tail = np.abs(c[:, abs(js) > limit]).max(-1, initial=0.0)
    return GridMoments(np.sqrt(norm2), cos, cos2, j2, tail)


def _grid_amplitudes(c: np.ndarray, grid: AngularGrid) -> np.ndarray:
    """Grid amplitudes of a signed row over J = -j..j, j < n/2."""
    n, j = grid.n_points, len(c) // 2
    amps = np.zeros(n, dtype=complex)
    amps[np.arange(-j, j + 1) % n] = c
    return np.fft.ifft(amps) * (n / math.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one propagation as complex signed-J coefficient rows
    on a grid, their (eta, zeta) fields, and the (cutoff, tail bound) of
    each exact hold and (window, largest edge weight) of each ramp. Each
    snapshot is measured once, by _band_moments on up to _HOLD_CHUNK rows
    of one width at a time: norms (each within 1e-10 of 1), norm_drift,
    the cos, cos2, J2 and energy series, and grid_tail, the largest |c_J|
    with |J| > n/4. states and final_state go to the grid when read."""

    tau_samples: np.ndarray
    coefficients: Tuple[np.ndarray, ...]
    grid: AngularGrid
    fields: np.ndarray
    hold_limits: Tuple[Tuple[int, float], ...] = ()
    ramp_limits: Tuple[Tuple[int, float], ...] = ()
    norms: np.ndarray = field(init=False)
    observables: Dict[str, ExpectationSeries] = field(init=False)
    norm_drift: float = field(init=False)
    grid_tail: float = field(init=False)

    def __post_init__(self):
        limit, chunks = self.grid.max_band_limit, []
        for _, rows in groupby(self.coefficients, len):
            while chunk := list(islice(rows, _HOLD_CHUNK)):
                chunks.append(_band_moments(np.stack(chunk), limit))
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

    @cached_property
    def states(self) -> Tuple[Wavefunction, ...]:
        return tuple(Wavefunction(self.grid, _grid_amplitudes(c, self.grid),
                                  normalize=False) for c in self.coefficients)

    @cached_property
    def final_state(self) -> Wavefunction:
        return Wavefunction(self.grid, _grid_amplitudes(
            self.coefficients[-1], self.grid), normalize=False)


def _run(amps: np.ndarray, grid: AngularGrid, schedule: PulseSchedule,
         duration: float, nsteps: int,
         on_step: Optional[Callable[[int, np.ndarray], None]] = None
         ) -> np.ndarray:
    """The grid twin: nsteps Strang steps on the grid from a copy of amps,
    each a half kick exp(-i dtau V / 2) at the step's midpoint fields, the
    kinetic phase between an FFT and its inverse, and a half kick.

    on_step(i, psi) sees the state after each full step i = 1..nsteps; on
    a step that is checked for finiteness, the check comes after it.
    """
    dtau = duration / nsteps
    exp_kinetic = np.exp(-1j * grid.wavenumbers ** 2 * dtau)
    cos = grid.cos_theta
    psi = np.array(amps, dtype=complex)
    kick = last_fields = None
    for checked in range(0, nsteps, FINITE_CHECK_STEPS):
        block = schedule.fields((np.arange(
            checked, min(checked + FINITE_CHECK_STEPS, nsteps)) + 0.5) * dtau)
        for i, fields in enumerate(block.tolist(), start=checked + 1):
            if fields != last_fields:
                # -dtau V / 2 = (dtau / 2) cos(theta) (eta + zeta cos(theta))
                eta, zeta = last_fields = fields
                kick = np.exp(0.5j * dtau * cos * (eta + zeta * cos))
            psi = kick * np.fft.ifft(exp_kinetic * np.fft.fft(kick * psi))
            if on_step is not None:
                on_step(i, psi)
        if not np.isfinite(psi).all():
            raise RuntimeError(
                f"non-finite amplitudes within steps {checked + 1}-{i} "
                f"(tau {checked * dtau:.6g} to {i * dtau:.6g})")
    return psi


def _hold_runs(schedule: PulseSchedule, dtau: float, nsteps: int
               ) -> List[Tuple[int, int, Tuple[float, float]]]:
    """(first, last, fields) of each maximal run of steps first+1..last
    (step i spans [(i-1)*dtau, i*dtau]) that lies wholly inside a constant
    segment or past the schedule's end, in time order. A step that touches
    a ramp belongs to none."""
    spans = [(lo, hi, (seg.eta.start, seg.zeta.start)) for seg, (lo, hi)
             in zip(schedule.segments, schedule.spans.tolist())
             if seg.duration > 0 and seg.eta.kind == seg.zeta.kind == "constant"]
    spans.append((schedule.total_duration, math.inf,
                  schedule.fields_at(math.inf)))
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


def _weight(c: np.ndarray) -> np.ndarray:
    """max(|c_J|, |c_-J|), J = 0..j, of a signed row over J = -j..j."""
    j = len(c) // 2
    return np.maximum(abs(c[j:]), abs(c[j::-1]))


def _coefficients(amps: np.ndarray, grid: AngularGrid
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Free-rotor coefficients c_J of a grid state, J = 1 - n/2..n/2 - 1,
    by one FFT, and their _weight, then the Nyquist amplitude."""
    n = grid.n_points
    ft = np.fft.fft(amps) * grid.dtheta / math.sqrt(2.0 * np.pi)
    c = ft[np.arange(1 - n // 2, n // 2) % n]
    return c, np.append(_weight(c), abs(ft[n // 2]))


def _first_cutoff(weight: np.ndarray, eta: float, zeta: float) -> int:
    """The cutoff a hold or a ramp tries first: _auto_j_max of the field
    magnitudes (the guess depends on |eta| and the well depth only), raised
    to the state's own extent (its last weight > TAIL_TOL; a unit state
    always has one) and TAIL_ROWS more, then up to a multiple of 8 (the
    ramp window's and the hold's growth rule keeps that step)."""
    extent = int(np.flatnonzero(weight > TAIL_TOL)[-1])
    guess = _auto_j_max(InteractionParams(-abs(eta), abs(zeta)), 1)
    return _round_up8(max(guess, extent + TAIL_ROWS))


def _sectors(c: np.ndarray) -> np.ndarray:
    """Parity-sector rows (even, odd), J = 0..j, of a signed row over
    J = -j..j, the inverse of spectrum._signed_expansion: a_0 = c_0,
    a_J = (c_J + c_-J)/sqrt(2), b_J = i*(c_J - c_-J)/sqrt(2), b_0 = 0."""
    j = len(c) // 2
    pos, neg = c[j:], c[j::-1]                      # c_J and c_-J, J >= 0
    rows = np.stack([pos + neg, 1j * (pos - neg)]) / math.sqrt(2.0)
    rows[0, 0] = c[j]
    return rows


def _exact_hold(coeffs: np.ndarray, fields: Tuple[float, float],
                times: np.ndarray) -> Tuple[List[np.ndarray], int, float]:
    """The states (signed rows over J = -j_max..j_max) at times t into a
    hold at constant fields from the signed row coeffs over the grid's
    band, evolved exactly by one eigh per parity sector and exp(-i E_n t);
    with j_max and the tail certificate. j_max starts at _first_cutoff; it
    must discard no amplitude > TAIL_TOL, and the certificate (max over
    the last TAIL_ROWS rows J of sum_n |d_n| |V_Jn|, which bounds |psi_J|)
    <= TAIL_TOL, or it grows by a quarter (to a multiple of 8) up to the
    band, past which it raises RuntimeError."""
    eta, zeta = fields
    band = len(coeffs) // 2
    rows, weight = _sectors(coeffs), _weight(coeffs)
    j_max = _first_cutoff(weight, eta, zeta)
    while True:
        j_max = min(j_max, band)
        discarded = float(weight[j_max + 1:].max(initial=0.0))
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
        states.extend(_signed_expansion(chunk, np.array([False, True]),
                                        j_max).sum(-2))
    return states, j_max, tail


def _field_bound(schedule: PulseSchedule, lo: float, hi: float
                 ) -> Tuple[float, float]:
    """Bounds on |eta| and |zeta| at the times in (lo, hi): each profile is
    monotone, so the endpoints of the segments that overlap it, and the
    final fields if it reaches past the schedule's end."""
    fields = [schedule.fields_at(hi)] if hi > schedule.total_duration else []
    for seg, (start, end) in zip(schedule.segments, schedule.spans.tolist()):
        if seg.duration > 0 and start < hi and end > lo:
            fields += [(seg.eta.start, seg.zeta.start),
                       (seg.eta.end, seg.zeta.end)]
    eta, zeta = np.abs(fields).max(axis=0)
    return float(eta), float(zeta)


@lru_cache(maxsize=None)
def _tap_grid(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """The rows cos(theta_k) and cos(theta_k)^2, and the weights w_kp =
    c_k cos(2 pi p k / M) / M (c_k = 1 at k = 0 and M/2, else 2), over
    theta_k = 2 pi k / M, k, p = 0..M/2; the arguments are reduced as pk
    mod M. Read-only: every call with M returns the same arrays."""
    k = np.arange(m // 2 + 1)
    cos = np.cos(2.0 * np.pi * k / m)
    weights = np.cos(2.0 * np.pi * (np.multiply.outer(k, k) % m) / m) * (2.0 / m)
    weights[[0, -1]] *= 0.5
    grid = np.stack([cos, cos * cos])
    for a in (grid, weights):
        a.setflags(write=False)
    return grid, weights


def _kick_taps(fields: Sequence[Tuple[float, float]], dtau: float,
               limit: int) -> np.ndarray:
    """Fourier taps t_p, p = -w..w, of the half-step kick exp(-i dtau V / 2)
    at each row (eta, zeta) of fields, so that the kicked state has the
    coefficients (t * c)_J = sum_p t_p c_(J-p). V is linear in the fields:
    the row (eta_i + eta_j, zeta_i + zeta_j) gives two half kicks in one.

    The kick's phase phi_k on an M-point grid is even in k, so each tap is
    a cosine sum over the half grid k = 0..M/2, t_p = delta_p0 + sum_k w_kp
    (exp(i phi_k) - 1), with exp(i phi) - 1 = -2 sin(phi/2)^2 + i sin(phi)
    and the weights of _tap_grid: one real matmul for all rows. The
    weights of each p sum to delta_p0, so the 1 leaves the sum exactly and
    the taps stay within a few ulps of an M-point FFT of the kick; a sum
    of the kick itself loses more, and raised ramps' norm drift up to 43
    times. The taps of p = 0..M/2 are mirrored, so t_-p is t_p. M starts
    at 64 and doubles while a tap at |p| >= M/4 is above _TAP_FLOOR, so
    the aliased taps t_(p -+ M) are below it too; w is the last |p| with a
    tap above it. M stops doubling once M/4 > limit, the widest half-width
    the caller can use, and then w > limit if the taps are wider."""
    # -dtau V / 4 = (dtau / 4) (eta cos(theta) + zeta cos(theta)^2)
    quarter = 0.25 * dtau * np.asarray(fields, dtype=float)
    rows = len(quarter)
    m = 64
    while True:
        grid, weights = _tap_grid(m)
        parts = np.empty((2 * rows, m // 2 + 1))
        np.matmul(quarter, grid, out=parts[:rows])       # phi / 2
        np.multiply(parts[:rows], 2.0, out=parts[rows:])  # phi
        np.sin(parts, out=parts)
        parts[:rows] *= parts[:rows]
        parts[:rows] *= -2.0
        sums = parts @ weights
        taps = np.empty((rows, m // 2 + 1), dtype=complex)
        taps.real, taps.imag = sums[:rows], sums[rows:]
        taps.real[:, 0] += 1.0
        w = int(np.flatnonzero(np.abs(taps).max(axis=0) > _TAP_FLOOR)[-1])
        if w < m // 4 or m // 4 > limit:
            return np.concatenate([taps[:, w:0:-1], taps[:, :w + 1]], axis=1)
        m *= 2


def _ramp(coeffs: np.ndarray, schedule: PulseSchedule, first: int,
          ends: Sequence[int], dtau: float
          ) -> Tuple[List[np.ndarray], int, float]:
    """The states (signed rows over J = -j_max..j_max) after steps ends[0]
    < ... < ends[-1] of the Strang steps first + 1..ends[-1] at dtau, from
    the signed row coeffs over the grid's band; with the window j_max and
    the largest edge weight checked.

    A step convolves the coefficients with the kick taps of its midpoint
    fields, multiplies them by exp(-i J^2 dtau) and convolves them again;
    the second convolution and the next step's first are one, with merged
    taps, except after a step in ends or a checked one, and in blocks of
    FINITE_CHECK_STEPS steps at the band. Each block takes one _kick_taps
    call, for its split steps' half kicks and its merged ones, indexed by
    a tap row per step. The midpoint fields are evaluated _FIELD_STEPS
    steps at a time, and a restart within those steps reuses them. The
    window starts at _first_cutoff of the ramp's largest fields, capped at
    the band. A block's taps, half or merged, must fit in the window, and
    after the block the state must be finite (else RuntimeError) and the
    largest |c_J| on its outer TAIL_ROWS slots <= TAIL_TOL; otherwise the
    window grows by a quarter (to a multiple of 8, and at least to the
    taps) and the ramp restarts. At the band, taps wider than it or a norm
    drift above _NORM_TOL raise RuntimeError."""
    band = len(coeffs) // 2
    last = ends[-1]
    j_max = min(band, _first_cutoff(
        _weight(coeffs), *_field_bound(schedule, first * dtau, last * dtau)))
    fields_from, fields = first, np.empty((0, 2))
    while True:
        c = coeffs[band - j_max:band + j_max + 1]
        kinetic = np.exp(-1j * np.arange(-j_max, j_max + 1) ** 2 * dtau)
        snaps: List[np.ndarray] = []
        tail, step, width = 0.0, first, 0
        while step < last:
            n = min(FINITE_CHECK_STEPS, last - step)
            if not fields_from <= step < fields_from + len(fields):
                fields_from = step
                fields = schedule.fields((np.arange(
                    step, min(step + _FIELD_STEPS, last)) + 0.5) * dtau)
            block = fields[step - fields_from:][:n]
            shot = np.zeros(n, dtype=bool)
            shot[np.array(ends[bisect_right(ends, step):
                               bisect_right(ends, step + n)], dtype=int)
                 - step - 1] = True
            # split the snapshot steps and the last one; every step at the band
            split = shot.copy() if j_max < band else np.ones(n, dtype=bool)
            split[-1] = True
            # the half kicks of the split steps and of the steps after them,
            # then the merged kicks of the others (not the last)
            own = split.copy()
            own[1:] |= split[:-1]
            own[0] = True
            halves, merged = np.flatnonzero(own), np.flatnonzero(~split)
            taps = _kick_taps(np.concatenate([
                block[halves], block[merged] + block[merged + 1]]), dtau, band)
            width = len(taps[0]) // 2
            if width > j_max == band:
                raise RuntimeError(
                    f"ramp kick taps reach |p| = {width} within tau "
                    f"{step * dtau:.6g} to {(step + n) * dtau:.6g}, "
                    f"past the grid's band j_max={band}; use more grid "
                    "points or a smaller dtau")
            if width > j_max:
                break
            # step k's tap row after its kinetic phase; a split step's
            # next half kick is the row after it
            row = np.where(split, np.cumsum(own),
                           len(halves) + np.cumsum(~split)) - 1
            # each convolve returns a new array, so c can be kept as is
            c = np.convolve(c, taps[0], "same")
            for k, r, cut, snap in zip(range(n), row.tolist(),
                                       split.tolist(), shot.tolist()):
                c *= kinetic
                c = np.convolve(c, taps[r], "same")
                if cut:
                    if snap:
                        snaps.append(c)
                    if k + 1 < n:
                        c = np.convolve(c, taps[r + 1], "same")
            checked, step = step, step + n
            if not np.isfinite(c).all():
                raise RuntimeError(
                    f"non-finite amplitudes within steps {checked + 1}-{step} "
                    f"(tau {checked * dtau:.6g} to {step * dtau:.6g})")
            edge = max(float(abs(c[:TAIL_ROWS]).max()),
                       float(abs(c[-TAIL_ROWS:]).max()))
            tail = max(tail, edge)
            if edge > TAIL_TOL and j_max < band:
                break
            if j_max == band:
                drift = abs(math.sqrt(float(np.vdot(c, c).real)) - 1.0)
                if not drift <= _NORM_TOL:
                    raise RuntimeError(
                        f"ramp within tau {checked * dtau:.6g} to "
                        f"{step * dtau:.6g}: norm drift {drift:.1e} > "
                        f"{_NORM_TOL:.0e} at the grid's band j_max={band}; "
                        "use more grid points")
        else:
            return snaps, j_max, tail
        j_max = min(band, max(_round_up8(1.25 * j_max), width))


def propagate(psi0: Wavefunction, schedule: PulseSchedule,
              dtau: float = DEFAULT_DTAU,
              sample_stride: Optional[int] = None,
              duration: Optional[float] = None) -> Trajectory:
    """Integrate the TDSE over the schedule and record strided snapshots.

    duration defaults to the schedule's span; a longer duration holds the
    final field values. The first and last instants are always sampled.
    A grid amplitude > TAIL_TOL at psi0's Nyquist mode raises RuntimeError.
    Steps that touch a ramp take Strang steps in the basis (_ramp); each
    run of steps inside a hold is evolved exactly (_exact_hold), on the
    same step and snapshot times. Warns if grid_tail > TAIL_TOL.
    """
    if not (math.isfinite(dtau) and dtau > 0):
        raise ValueError(f"dtau must be finite and > 0, got {dtau}")
    grid = psi0.grid
    coeffs, weight = _coefficients(psi0.amplitudes, grid)
    norm = math.sqrt(float(np.vdot(coeffs, coeffs).real) + weight[-1] ** 2)
    if not abs(norm - 1.0) <= _NORM_TOL:     # NaN fails too
        raise ValueError("initial state must be unit-normalized")
    if duration is None:
        duration = schedule.total_duration
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"propagation window must be finite and > 0, "
                         f"got {duration}")
    nsteps = max(1, round(duration / dtau))
    if sample_stride is None:
        sample_stride = max(1, math.ceil(nsteps / 512))
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    dtau_eff = duration / nsteps
    band = len(coeffs) // 2
    if weight[-1] > TAIL_TOL:
        raise RuntimeError(f"initial state: grid amplitude {weight[-1]:.1e} > "
                           f"{TAIL_TOL:.0e} at the Nyquist mode |J| = "
                           f"{band + 1}, past the grid's band j_max={band}")

    def tau_at(i: int) -> float:        # step nsteps ends at duration exactly
        return duration if i == nsteps else i * dtau_eff

    taus: List[float] = [0.0]
    snaps: List[np.ndarray] = [coeffs]
    psi, done = coeffs, 0
    limits: Dict[str, List[Tuple[int, float]]] = {"ramp": [], "hold": []}
    for first, last, fields in [*_hold_runs(schedule, dtau_eff, nsteps),
                                (nsteps, nsteps, None)]:
        for kind, lo, hi in (("ramp", done, first), ("hold", first, last)):
            if hi <= lo:
                continue
            # the sampled steps i (i % sample_stride == 0 or i == nsteps),
            # then the run's last one
            steps = list(range(lo + sample_stride - lo % sample_stride,
                               hi + 1, sample_stride))
            if hi == nsteps and steps[-1:] != [hi]:
                steps.append(hi)
            ends = steps if steps[-1:] == [hi] else steps + [hi]
            if kind == "ramp":
                states, j_max, tail = _ramp(psi, schedule, lo, ends, dtau_eff)
            else:
                states, j_max, tail = _exact_hold(
                    psi, fields, (np.array(ends) - lo) * dtau_eff)
            taus.extend(tau_at(i) for i in steps)
            snaps.extend(states[:len(steps)])
            psi = np.pad(states[-1], band - len(states[-1]) // 2)
            limits[kind].append((j_max, tail))
        done = last

    traj = Trajectory(
        tau_samples=np.array(taus), coefficients=tuple(snaps), grid=grid,
        fields=schedule.fields(taus),
        hold_limits=tuple(limits["hold"]), ramp_limits=tuple(limits["ramp"]))
    if traj.grid_tail > TAIL_TOL:
        warnings.warn(f"top-of-grid weight {traj.grid_tail:.1e} (at |J| > "
                      f"{grid.max_band_limit}) > {TAIL_TOL:.0e}; use more "
                      "grid points", RuntimeWarning, stacklevel=2)
    return traj

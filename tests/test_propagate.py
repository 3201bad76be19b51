"""Propagator: schedules, basis ramps and exact holds against the grid twin,
accuracy regimes, cross-validation."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_pendulum import (
    InteractionParams,
    Profile,
    PulseSchedule,
    Segment,
    SymmetryLabel,
    Wavefunction,
    free_rotor_wavefunction,
    make_grid,
    propagate,
    solve_spectrum,
)
from planar_pendulum.cli import main
from planar_pendulum.propagate import (
    FINITE_CHECK_STEPS,
    Trajectory,
    _band_moments,
    _coefficients,
    _first_cutoff,
    _grid_amplitudes,
    _hold_runs,
    _kick_taps,
    _kick_writer,
    _run,
    _sectors,
    constant,
    linear,
    smooth_cosine,
)
from planar_pendulum.spectrum import _signed_expansion
from planar_pendulum.twins import second_order_accuracy_check
from planar_pendulum.validation import RAMP_TWIN_CASES, ramp_twin_deviations

TWO_PI = 2.0 * math.pi


def test_profile_shapes():
    lin = linear(0.0, -10.0)
    assert lin.value(0.0) == 0.0
    assert lin.value(0.5) == -5.0
    assert lin.value(1.0) == -10.0
    sc = smooth_cosine(0.0, -10.0)
    assert sc.value(0.5) == pytest.approx(-5.0, abs=1e-12)
    assert sc.value(0.25) == pytest.approx(-10.0 * (1 - math.cos(math.pi / 4)) / 2)
    # zero slope at both ends distinguishes the smooth ramp
    eps = 1e-6
    assert abs(sc.value(eps) - sc.value(0.0)) < 1e-10
    assert abs(sc.value(1.0) - sc.value(1.0 - eps)) < 1e-10
    with pytest.raises(ValueError):
        Profile("constant", 1.0, 2.0)


def test_schedule_fields_lookup():
    sch = PulseSchedule.switch(0.0, 0.0, -10.0, 25.0,
                               ramp_duration=1.0, hold_duration=2.0,
                               shape="linear")
    assert sch.total_duration == pytest.approx(3.0)
    assert sch.fields_at(0.0) == (0.0, 0.0)
    assert sch.fields_at(0.5) == (pytest.approx(-5.0), pytest.approx(12.5))
    assert sch.fields_at(1.7) == (pytest.approx(-10.0), pytest.approx(25.0))
    # clamped outside the span
    assert sch.fields_at(-1.0) == (0.0, 0.0)
    assert sch.fields_at(9.0) == (pytest.approx(-10.0), pytest.approx(25.0))


def test_frozen_schedule_factory():
    sch = PulseSchedule.frozen(-7.0, 25.0, duration=5.0)
    assert sch.total_duration == 5.0
    assert sch.fields_at(2.5) == (-7.0, 25.0)


def test_step_count_divides_duration_exactly():
    g = make_grid(64)
    psi = free_rotor_wavefunction(0, g)
    sch = PulseSchedule.frozen(0.0, 0.0, duration=1.0)
    traj = propagate(psi, sch, dtau=3e-4)
    assert traj.tau_samples[-1] == pytest.approx(1.0, abs=1e-12)


def test_requires_normalized_input():
    g = make_grid(64)
    psi = Wavefunction(g, np.ones(64, dtype=complex), normalize=False)
    with pytest.raises(ValueError):
        propagate(psi, PulseSchedule.frozen(0.0, 0.0, 1.0), dtau=1e-2)


def test_free_rotor_revival_phase():
    g = make_grid()
    psi = free_rotor_wavefunction(1, g)
    traj = propagate(psi, PulseSchedule.frozen(0.0, 0.0, TWO_PI), dtau=1e-3)
    overlap = complex(np.vdot(psi.amplitudes, traj.final_state.amplitudes)
                      * g.dtheta)
    assert abs(overlap - 1.0) < 1e-8


def test_eigenstate_is_stationary():
    g = make_grid()
    spec = solve_spectrum(InteractionParams(-7.0, 25.0), 1)
    psi = spec.wavefunction(0, g)
    traj = propagate(psi, PulseSchedule.frozen(-7.0, 25.0, 1.0), dtau=1e-3)
    overlap = complex(np.vdot(psi.amplitudes, traj.final_state.amplitudes)
                      * g.dtheta)
    assert abs(abs(overlap) - 1.0) < 1e-8


def test_norm_drift_ten_thousand_steps():
    g = make_grid()
    psi = free_rotor_wavefunction(1, g)
    sch = PulseSchedule.frozen(-10.0, 25.0, duration=10.0)
    traj = propagate(psi, sch, dtau=1e-3, sample_stride=10000)
    assert abs(traj.final_state.norm() - 1.0) < 1e-10


def test_norm_drift_ten_thousand_steps_grid_twin():
    g = make_grid()
    psi = free_rotor_wavefunction(1, g)
    sch = PulseSchedule.frozen(-10.0, 25.0, duration=10.0)
    final = _run(psi.amplitudes, g, sch, 10.0, 10000)
    assert abs(Wavefunction(g, final, normalize=False).norm() - 1.0) < 1e-10


def test_matches_spectral_evolution_weak_field():
    """Independent route: eigenphase evolution on 30 states."""
    g = make_grid()
    params = InteractionParams(-0.1, 0.25)
    psi0 = free_rotor_wavefunction(1, g)
    spec = solve_spectrum(params, 30)
    basis = np.stack([spec.wavefunction(n, g).amplitudes.real
                      for n in range(30)])
    amps0 = basis @ psi0.amplitudes * g.dtheta
    phased = amps0 * np.exp(-1j * spec.energies * TWO_PI)
    ref = phased @ basis

    traj = propagate(psi0, PulseSchedule.frozen(-0.1, 0.25, TWO_PI), dtau=1e-3)
    err = math.sqrt(float(np.sum(np.abs(traj.final_state.amplitudes - ref) ** 2)
                          * g.dtheta))
    assert err < 1e-7


def test_matches_spectral_evolution_weak_field_grid_twin():
    g = make_grid()
    params = InteractionParams(-0.1, 0.25)
    psi0 = free_rotor_wavefunction(1, g)
    spec = solve_spectrum(params, 30)
    basis = np.stack([spec.wavefunction(n, g).amplitudes.real
                      for n in range(30)])
    amps0 = basis @ psi0.amplitudes * g.dtheta
    ref = (amps0 * np.exp(-1j * spec.energies * TWO_PI)) @ basis
    final = _run(psi0.amplitudes, g, PulseSchedule.frozen(-0.1, 0.25, TWO_PI),
                 TWO_PI, round(TWO_PI / 1e-3))
    err = math.sqrt(float(np.sum(np.abs(final - ref) ** 2) * g.dtheta))
    assert err < 1e-7


def test_second_order_smooth_schedule():
    g = make_grid()
    psi = free_rotor_wavefunction(1, g)
    rep = second_order_accuracy_check(
        psi, PulseSchedule.frozen(-10.0, 25.0, TWO_PI),
        dtau=TWO_PI / 1571)
    assert rep.regime == "measured"
    assert rep.order == pytest.approx(2.0, abs=0.1)


def test_exact_regime_free_rotor():
    g = make_grid()
    psi = free_rotor_wavefunction(2, g)
    rep = second_order_accuracy_check(
        psi, PulseSchedule.frozen(0.0, 0.0, TWO_PI), dtau=1e-2)
    assert rep.regime == "exact"
    assert rep.order is None


@pytest.mark.parametrize("base", [1000, 1201])
def test_discontinuous_schedule_order_degrades(base):
    """A field jump inside the window caps convergence near first order.

    Jump-offset aliasing makes the measured exponent erratic across step
    counts, so two fixed counts are pinned; both sit well below 2 and
    above 0.
    """
    g = make_grid()
    psi = free_rotor_wavefunction(1, g)
    sch = PulseSchedule([Segment(2.0, constant(0.0), constant(0.0)),
                         Segment(TWO_PI - 2.0, constant(-10.0), constant(25.0))])
    rep = second_order_accuracy_check(psi, sch, dtau=TWO_PI / base)
    assert rep.regime == "measured"
    assert 0.4 < rep.order < 1.6


README_RAMP = PulseSchedule.switch(0.0, 0.0, -10.0, 25.0, 0.0628, 6.2832)


def test_coarse_step_on_frozen_fields_does_not_warn():
    """dtau alone says nothing about the top of the grid, and a frozen
    schedule takes no grid step at all."""
    g = make_grid()
    psi = free_rotor_wavefunction(0, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = propagate(psi, PulseSchedule.frozen(0.0, 0.0, 0.5), dtau=0.1)
    assert traj.grid_tail <= 1e-14


def test_readme_ramp_is_resolved_without_a_warning():
    g = make_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = propagate(free_rotor_wavefunction(1, g), README_RAMP)
    assert traj.grid_tail <= 1e-14


@pytest.mark.parametrize("points", [32, 64])
def test_coarse_grid_ramp_warns_once_with_its_top_of_grid_weight(points):
    # measured: 2.1e-3 at 32 points, 6.0e-9 at 64
    g = make_grid(points)
    sch = PulseSchedule.switch(0.0, 0.0, -10.0, 25.0, 1.0, 0.0)
    with pytest.warns(RuntimeWarning) as record:
        traj = propagate(free_rotor_wavefunction(1, g), sch)
    assert len(record) == 1
    assert traj.grid_tail > 1e-12
    assert f"top-of-grid weight {traj.grid_tail:.1e}" in str(record[0].message)


@pytest.mark.parametrize("schedule,stride,count", [
    pytest.param(README_RAMP, None, 490, id="readme-ramp"),
    pytest.param(PulseSchedule.frozen(-10.0, 25.0, 1.0), None, 501,
                 id="hold-only"),
    pytest.param(README_RAMP, 20, 319, id="not-a-multiple-of-16"),
])
def test_chunked_measurements_match_the_per_state_methods(schedule, stride,
                                                          count):
    """Snapshots are measured by band sums on their coefficients, a chunk
    of rows of one width at a time: the chunks give the bits of the same
    sums taken one row at a time. The grid methods on the states, each
    materialized by an inverse FFT, agree within 4e-15 on norm, cos and
    cos2 and within 7e-14 on J2 (measured over these 1310 rows and 786
    rows of three runs like the bench's: at most 4.4e-16 and 7.1e-15)."""
    g = make_grid()
    traj = propagate(free_rotor_wavefunction(1, g), schedule,
                     sample_stride=stride)
    assert len(traj.coefficients) == len(traj.states) == count
    sums, tails = [], []
    for c in traj.coefficients:
        j = len(c) // 2
        v = c.view(float)
        norm2 = np.sum(v * v)
        sums.append((math.sqrt(norm2), np.sum(v[:-2] * v[2:]),
                     0.5 * norm2 + 0.5 * np.sum(v[:-4] * v[4:]),
                     np.sum(v * v * np.repeat(np.arange(-j, j + 1) ** 2, 2))))
        tails.append(np.abs(c[np.abs(np.arange(-j, j + 1)) > 128]).max(
            initial=0.0))
    norm, cos, cos2, j2 = np.array(sums).T
    fields = np.array([schedule.fields_at(t) for t in traj.tau_samples])
    assert np.array_equal(traj.fields, fields)
    assert np.array_equal(traj.norms, norm)
    for name, values in (("cos", cos), ("cos2", cos2), ("J2", j2),
                         ("energy", j2 - fields[:, 0] * cos
                          - fields[:, 1] * cos2)):
        assert np.array_equal(traj.observables[name].values, values), name
    assert traj.norm_drift == np.abs(norm - 1.0).max()
    assert traj.grid_tail == max(tails)
    on_grid = np.array([(w.norm(), w.expectation_cos(), w.expectation_cos2(),
                         w.expectation_kinetic()) for w in traj.states]).T
    gaps = np.abs(np.array([norm, cos, cos2, j2]) - on_grid).max(axis=1)
    assert np.all(gaps <= [4e-15, 4e-15, 4e-15, 7e-14]), gaps


def test_observable_sampling():
    g = make_grid()
    psi = free_rotor_wavefunction(0, g)
    sch = PulseSchedule.switch(0.0, 0.0, -10.0, 25.0,
                               ramp_duration=0.2, hold_duration=0.3)
    traj = propagate(psi, sch, dtau=1e-3)
    assert traj.tau_samples[0] == 0.0
    assert traj.tau_samples[-1] == pytest.approx(0.5)
    for name in ("cos", "cos2", "J2", "energy"):
        assert len(traj.observables[name].values) == len(traj.tau_samples)
    assert traj.observables["J2"].values[0] == pytest.approx(0.0, abs=1e-10)


def _nan_state(g):
    amps = free_rotor_wavefunction(1, g).amplitudes.copy()
    amps[3] = np.nan
    return Wavefunction(g, amps, normalize=False)


def test_nan_initial_state_is_refused():
    g = make_grid(64)
    sch = PulseSchedule.frozen(-1.0, 2.0, 0.1)
    with pytest.raises(ValueError, match="unit-normalized"):
        propagate(_nan_state(g), sch, dtau=1e-2)
    with pytest.raises(ValueError, match="unit-normalized"):
        second_order_accuracy_check(_nan_state(g), sch, dtau=1e-2)


def test_nan_snapshot_is_refused():
    g = make_grid(64)
    with pytest.raises(RuntimeError, match="norm drift nan"):
        Trajectory(tau_samples=np.array([0.0]),
                   coefficients=(_coefficients(_nan_state(g).amplitudes, g)[0],),
                   grid=g, fields=np.zeros((1, 2)))


@pytest.mark.parametrize("make,name", [
    pytest.param(lambda: PulseSchedule.frozen(math.nan, 25.0, 1.0), "start",
                 id="frozen-nan"),
    pytest.param(lambda: linear(0.0, math.inf), "end", id="linear-to-inf"),
    pytest.param(lambda: smooth_cosine(-math.inf, 0.0), "start",
                 id="smooth-from-minus-inf"),
])
def test_profile_refuses_non_finite_endpoints(make, name):
    with pytest.raises(ValueError, match=f"profile {name} must be finite"):
        make()


def test_on_step_sees_every_full_step():
    """on_step(i, psi) runs once per step i = 1..nsteps with the state
    after that step: the state a shorter run of the same steps returns."""
    g = make_grid(64)
    psi0 = free_rotor_wavefunction(1, g).amplitudes
    sch = PulseSchedule([Segment(0.05, linear(0.0, -10.0), linear(0.0, 25.0)),
                         Segment(0.1, constant(-10.0), constant(25.0))])
    nsteps, dtau = 150, 2.0 ** -10
    seen = []
    final = _run(psi0, g, sch, nsteps * dtau, nsteps,
                 lambda i, psi: seen.append((i, psi.copy())))
    assert [i for i, _ in seen] == list(range(1, nsteps + 1))
    assert np.array_equal(seen[-1][1], final)
    for i in (1, 2, FINITE_CHECK_STEPS, 97, nsteps - 1):
        assert np.array_equal(seen[i - 1][1], _run(psi0, g, sch, i * dtau, i))


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(-40.0, 0.0), zeta=st.floats(0.0, 80.0),
       dtau=st.floats(1e-5, 1e-2), n_points=st.sampled_from([8, 256, 512]))
def test_half_grid_kick_matches_full_grid(eta, zeta, dtau, n_points):
    g = make_grid(n_points)
    cos_t = np.cos(g.theta)
    v = -eta * cos_t - zeta * cos_t ** 2
    kick = _kick_writer(g, dtau)(eta, zeta)
    assert np.max(np.abs(kick - np.exp(-0.5j * dtau * v))) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(eta=st.floats(-120.0, 120.0), zeta=st.floats(-200.0, 200.0),
       dtau=st.floats(1e-5, 0.1), seed=st.integers(0, 3))
def test_kick_taps_convolve_as_the_grid_kick_multiplies(eta, zeta, dtau,
                                                        seed):
    """On a window with room for the taps, convolving a band-limited
    state's coefficients with them gives the coefficients of the grid
    kick's product, the kick of _run."""
    g = make_grid(512)
    (taps,) = _kick_taps([(eta, zeta)], dtau, 255)
    window = 24 + len(taps) // 2
    amps = _band_limited_state(g, 24, seed)
    c, _ = _coefficients(amps, g)
    kicked = np.convolve(c[255 - window:256 + window], taps, "same")
    product = amps * _kick_writer(g, dtau)(eta, zeta)
    assert np.max(np.abs(kicked - Wavefunction(g, product, normalize=False)
                         .free_rotor_coefficients(window))) <= 1e-14


@pytest.mark.parametrize("bad_step", [1, 63, FINITE_CHECK_STEPS,
                                      FINITE_CHECK_STEPS + 6, 99, 100])
def test_nan_between_checks_still_raises(bad_step):
    g = make_grid(64)
    psi0 = free_rotor_wavefunction(1, g).amplitudes
    sch = PulseSchedule.frozen(-10.0, 25.0, 0.1)

    def poison(i, psi):
        if i == bad_step:
            psi[5] = np.nan

    with pytest.raises(RuntimeError, match="non-finite amplitudes"):
        _run(psi0, g, sch, 0.1, 100, poison)


_ZERO_DURATION = [Segment(0.0, constant(-3.0), constant(4.0)),
                  Segment(0.3, linear(0.0, -10.0), smooth_cosine(0.0, 25.0)),
                  Segment(0.0, constant(-1.0), constant(1.0)),
                  Segment(0.2, constant(-10.0), constant(25.0)),
                  Segment(0.0, constant(-2.0), constant(2.0))]
# 0.375 and 0.625 are the midpoints of steps 1 and 2 at dtau = 0.25; the
# fields jump there, so the side a break belongs to shows
_BREAKS_ON_MIDPOINTS = [
    Segment(0.375, constant(-2.0), constant(4.0)),
    Segment(0.25, linear(-1.0, -5.0), constant(9.0)),
    Segment(0.875, smooth_cosine(-6.0, 0.0), linear(8.0, 1.0))]


def _profile_value(profile, s):
    """Profile.value on one float, by math.cos."""
    if profile.kind == "constant":
        return profile.start
    if profile.kind == "linear":
        return profile.start + (profile.end - profile.start) * s
    return profile.start + (profile.end - profile.start) * 0.5 * (1.0 - math.cos(math.pi * s))


def _scalar_fields_at(schedule, tau):
    """(eta, zeta) at one time by a walk over the segments: the reference
    that PulseSchedule.fields is checked against."""
    if tau <= 0:
        seg = schedule.segments[0]
        return _profile_value(seg.eta, 0.0), _profile_value(seg.zeta, 0.0)
    start = 0.0
    for seg, end in zip(schedule.segments,
                        np.cumsum([s.duration for s in schedule.segments])):
        # strict inequality keeps boundary values right-continuous
        if tau < end and seg.duration > 0:
            s = (tau - start) / seg.duration
            return _profile_value(seg.eta, s), _profile_value(seg.zeta, s)
        start = end
    seg = schedule.segments[-1]
    return _profile_value(seg.eta, 1.0), _profile_value(seg.zeta, 1.0)


@pytest.mark.parametrize("segments,dtau,nsteps", [
    pytest.param(_ZERO_DURATION, 1e-2, 50, id="zero-duration-segments"),
    pytest.param(_BREAKS_ON_MIDPOINTS, 0.25, 6, id="breaks-on-midpoints"),
    pytest.param([Segment(0.1, smooth_cosine(0.0, -7.0),
                          smooth_cosine(0.0, 16.0))],
                 1e-2, 35, id="past-the-span"),
    pytest.param([Segment(0.1, constant(-7.0), constant(16.0)),
                  Segment(0.1, linear(-7.0, -2.0), linear(16.0, 3.0))],
                 3e-3, 120, id="hold-ramp-past-the-span"),
    pytest.param([Segment(0.0, linear(-1.0, -3.0), smooth_cosine(2.0, 5.0)),
                  Segment(0.15, smooth_cosine(-3.0, -9.0), linear(5.0, 20.0)),
                  Segment(0.0, smooth_cosine(-4.0, 0.0), linear(1.0, 7.0))],
                 1e-2, 20, id="zero-duration-ramps-first-and-last"),
])
def test_fields_match_the_segment_walk(segments, dtau, nsteps):
    """fields at the step midpoints, at tau < 0 and tau = 0, exactly on
    every break and past the span equals the scalar walk bit for bit."""
    sch = PulseSchedule(segments)
    taus = np.concatenate([(np.arange(nsteps) + 0.5) * dtau,
                           [-1.0, -0.0, 0.0], sch.spans.ravel(),
                           [1.5 * sch.total_duration + 1.0]])
    assert np.array_equal(sch.fields(taus),
                          [_scalar_fields_at(sch, t) for t in taus.tolist()])
    for t in taus.tolist():
        fields = sch.fields_at(t)
        assert fields == _scalar_fields_at(sch, t)
        assert all(type(f) is float for f in fields)


# --------------------------------------------------------------------------
# exact holds against the grid twin


def _grid_twin(psi0, schedule, dtau, stride, duration):
    """Snapshot times and (cos, cos2) rows of an all-grid run: every step a
    Strang step of _run, sampled as propagate samples."""
    nsteps = max(1, round(duration / dtau))
    dtau_eff = duration / nsteps
    taus, snaps = [0.0], [psi0.amplitudes.copy()]

    def on_step(i, psi):
        if i % stride == 0 or i == nsteps:
            taus.append(i * dtau_eff)
            snaps.append(psi.copy())

    final = _run(psi0.amplitudes, psi0.grid, schedule, duration, nsteps, on_step)
    if taus[-1] != duration:
        taus.append(duration)
        snaps.append(final.copy())
    states = [Wavefunction(psi0.grid, a, normalize=False) for a in snaps]
    return np.array(taus), np.array([(w.expectation_cos(), w.expectation_cos2())
                                     for w in states])


def _cos_rows(traj):
    return np.stack([traj.observables["cos"].values,
                     traj.observables["cos2"].values], axis=1)


_HOLD_BETWEEN_RAMPS = [
    Segment(0.5, linear(0.0, -8.0), linear(0.0, 16.0)),
    Segment(1.0, constant(-8.0), constant(16.0)),
    Segment(0.5, smooth_cosine(-8.0, -12.0), smooth_cosine(16.0, 30.0))]


@pytest.mark.parametrize("j0,segments,duration", [
    pytest.param(1, PulseSchedule.switch(0.0, 0.0, -10.0, 25.0, 0.0628,
                                         6.2832).segments, None,
                 id="readme-ramp"),
    pytest.param(0, _ZERO_DURATION, None, id="zero-duration-segments"),
    pytest.param(1, _HOLD_BETWEEN_RAMPS, None, id="hold-between-ramps"),
    pytest.param(2, [Segment(0.3, smooth_cosine(0.0, -7.0),
                             smooth_cosine(0.0, 16.0))], 2.0,
                 id="tau-end-past-the-span"),
])
def test_exact_holds_match_the_grid_twin(j0, segments, duration):
    """Same snapshot times as an all-grid run, bit for bit; cos and cos2
    within twice the step-doubling error estimates of both routes (each
    second order in its grid steps: the dtau run is off by 4/3 of its
    difference from the dtau/2 run)."""
    g = make_grid()
    psi0 = free_rotor_wavefunction(j0, g)
    sch = PulseSchedule(segments)
    window = sch.total_duration if duration is None else duration
    stride = math.ceil(round(window / 1e-3) / 512)
    prop = [propagate(psi0, sch, dtau=1e-3 / k, sample_stride=k * stride,
                      duration=duration) for k in (1, 2)]
    assert prop[0].hold_limits
    taus, twin = _grid_twin(psi0, sch, 1e-3, stride, window)
    _, twin_half = _grid_twin(psi0, sch, 5e-4, 2 * stride, window)
    assert np.array_equal(prop[0].tau_samples, taus)
    rows = _cos_rows(prop[0])
    estimate = 4.0 / 3.0 * (np.abs(twin - twin_half).max()
                            + np.abs(rows - _cos_rows(prop[1])).max())
    assert np.abs(rows - twin).max() <= 2.0 * estimate


@pytest.mark.parametrize("segments,dtau,nsteps", [
    pytest.param(_ZERO_DURATION, 1e-2, 60, id="zero-duration-segments"),
    pytest.param(_BREAKS_ON_MIDPOINTS, 0.25, 6, id="breaks-on-midpoints"),
    pytest.param(_HOLD_BETWEEN_RAMPS, 0.03, 80, id="hold-between-ramps"),
])
def test_hold_runs_are_the_steps_without_a_ramp(segments, dtau, nsteps):
    """A step is in a hold run iff it lies in a constant segment or past
    the end, and then its midpoint fields are the run's."""
    sch = PulseSchedule(segments)
    fields = [tuple(f) for f in
              sch.fields((np.arange(nsteps) + 0.5) * dtau).tolist()]
    held = [None] * nsteps
    for first, last, hold in _hold_runs(sch, dtau, nsteps):
        for i in range(first, last):
            assert held[i] is None and fields[i] == hold
            held[i] = hold
    ramps = [(lo, hi) for seg, (lo, hi) in zip(sch.segments, sch.spans.tolist())
             if seg.duration > 0 and "constant" not in (seg.eta.kind, seg.zeta.kind)]
    for i in range(nsteps):
        touches = any(i * dtau < hi and (i + 1) * dtau > lo for lo, hi in ramps)
        jumps = any(i * dtau < end < (i + 1) * dtau
                    for end in sch.spans[:, 1].tolist())
        assert (held[i] is None) == (touches or jumps)


def _band_limited_state(g, j_top, seed):
    rng = np.random.default_rng(seed)
    spec = np.zeros(g.n_points, dtype=complex)
    js = np.arange(-j_top, j_top + 1) % g.n_points
    spec[js] = rng.normal(size=len(js)) + 1j * rng.normal(size=len(js))
    amps = np.fft.ifft(spec)
    return amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)) * g.dtheta)


def test_sector_round_trip_is_exact():
    g = make_grid(64)
    for seed in range(4):
        amps = _band_limited_state(g, 24, seed)
        c, weight = _coefficients(amps, g)
        rows = _sectors(c)
        signed = _signed_expansion(rows, np.array([False, True]), 31).sum(0)
        assert np.max(np.abs(_grid_amplitudes(signed, g) - amps)) <= 1e-15
        assert weight[-1] <= 1e-15          # no Nyquist amplitude
        assert np.max(np.abs(signed - Wavefunction(
            g, amps, normalize=False).free_rotor_coefficients(31))) <= 1e-15


def test_sectors_follow_the_spectrum_convention():
    """An eigenstate's grid amplitudes project onto its own sector's
    coefficient row, odd sine rows included, and nothing else."""
    g = make_grid(128)
    spec = solve_spectrum(InteractionParams(-3.0, 5.0), 6)
    for n, label in enumerate(spec.labels):
        rows = _sectors(_coefficients(spec.wavefunction(n, g).amplitudes, g)[0])
        odd = int(label is SymmetryLabel.A2)
        assert np.max(np.abs(rows[odd, :spec.j_max + 1]
                             - spec.coefficients[n])) <= 1e-15
        assert np.max(np.abs(rows[odd, spec.j_max + 1:])) <= 1e-15
        assert np.max(np.abs(rows[1 - odd])) <= 1e-15
        signed = _signed_expansion(rows[:, :spec.j_max + 1],
                                   np.array([False, True]), spec.j_max).sum(0)
        back = _grid_amplitudes(signed, g)
        assert np.max(np.abs(back - spec.wavefunction(n, g).amplitudes)) <= 1e-15


def test_hold_beyond_the_grid_band_exits_one(tmp_path, monkeypatch, capsys):
    # the (-10, 25) hold needs a cutoff near 32; 32 points give a band of 15
    monkeypatch.chdir(tmp_path)
    assert main(["propagate", "--j0", "0", "--eta-to", "-10",
                 "--zeta-to", "25", "--ramp-duration", "0.1",
                 "--hold-duration", "0.2", "--grid-points", "32",
                 "--output", "p.csv"]) == 1
    assert "grid's band j_max=15" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("points,message", [
    pytest.param(16, "ramp kick taps reach |p| = 8 within tau 0.192 to "
                 "0.256, past the grid's band j_max=7", id="taps"),
    pytest.param(24, "ramp within tau 0.704 to 0.768: norm drift 2.5e-10 > "
                 "1e-10 at the grid's band j_max=11", id="norm"),
])
def test_ramp_past_the_grid_band_exits_one(points, message, tmp_path,
                                           monkeypatch, capsys):
    # the ramp to (-10, 25) needs a window past these bands: its kick taps
    # are wider than 7, and a window of 11 loses weight off its edge (the
    # grid stepper ran both on, aliased, with top-of-grid weights of
    # 8.8e-2 and 1.9e-2)
    monkeypatch.chdir(tmp_path)
    assert main(["propagate", "--j0", "1", "--eta-to", "-10",
                 "--zeta-to", "25", "--ramp-duration", "1.0",
                 "--grid-points", str(points), "--output", "p.csv"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("timing", [["--ramp-duration", "3.8212"],
                                    ["--ramp-duration", "0.0628",
                                     "--hold-duration", "3.7584"]])
def test_the_last_snapshot_is_written_once_at_the_duration(tmp_path,
                                                           monkeypatch,
                                                           timing):
    # nsteps * dtau_eff misses these durations by an ulp; the last step
    # was recorded there and then again at the duration
    monkeypatch.chdir(tmp_path)
    assert main(["propagate", "--j0", "1", "--eta-to", "-10", "--zeta-to",
                 "25", *timing, "--sample-stride", "500",
                 "--output", "p.csv"]) == 0
    taus = [float(line.split(",")[0]) for line in
            (tmp_path / "p.csv").read_text().splitlines()[1:]]
    assert all(a < b for a, b in zip(taus, taus[1:]))
    assert taus[-1] == 3.8212


# --------------------------------------------------------------------------
# basis ramps against the grid twin


@pytest.mark.parametrize("eta,zeta,ramp", RAMP_TWIN_CASES)
def test_basis_ramp_matches_the_grid_twin(eta, zeta, ramp):
    """validate's ramp-twin cases at every snapshot: the times of an
    all-grid run bit for bit, and cos, cos2 and the final norm within
    1e-10 of it (measured: up to 9.7e-14)."""
    g = make_grid()
    psi0 = free_rotor_wavefunction(1, g)
    sch = PulseSchedule.switch(0.0, 0.0, eta, zeta, ramp, 0.0)
    traj = propagate(psi0, sch, sample_stride=7)
    taus, twin = _grid_twin(psi0, sch, 1e-3, 7, ramp)
    assert np.array_equal(traj.tau_samples, taus)
    assert np.abs(_cos_rows(traj) - twin).max() < 1e-10
    assert max(ramp_twin_deviations(eta, zeta, ramp)) < 1e-10


def test_a_wide_start_grows_the_ramp_window(tmp_path, monkeypatch):
    """J0 = 40 reaches past its first window (48) within the ramp: the edge
    check finds weight above 1e-12 there, and the ramp is taken again on a
    wider window, which holds it."""
    monkeypatch.chdir(tmp_path)
    assert main(["propagate", "--j0", "40", "--eta-to", "-10", "--zeta-to",
                 "25", "--ramp-duration", "1.0", "--output", "p.csv"]) == 0
    diagnostics = json.loads((tmp_path / "p.manifest.json").read_text())[
        "diagnostics"]
    g = make_grid()
    _, weight = _coefficients(free_rotor_wavefunction(40, g).amplitudes, g)
    assert diagnostics["ramp_j_max"] > _first_cutoff(weight, -10.0, 25.0)
    assert 0 < diagnostics["ramp_tail"] <= 1e-12
    assert diagnostics["norm_drift"] <= 1e-10


@pytest.mark.parametrize("points,tail", [(32, "2.1e-03"), (64, "6.0e-09")])
def test_a_coarse_grid_caps_the_ramp_window_at_its_band(points, tail):
    """The window stops at the band n/2 - 1 and the ramp runs on; the
    snapshots' top-of-grid weight is the one the grid stepper leaves."""
    g = make_grid(points)
    sch = PulseSchedule.switch(0.0, 0.0, -10.0, 25.0, 1.0, 0.0)
    with pytest.warns(RuntimeWarning, match=f"top-of-grid weight {tail} "):
        traj = propagate(free_rotor_wavefunction(1, g), sch)
    assert [j_max for j_max, _ in traj.ramp_limits] == [points // 2 - 1]


def test_a_ramp_reads_its_fields_per_block(monkeypatch):
    """The bench's slow ramp, 6284 steps on one window, evaluates each
    profile once per FINITE_CHECK_STEPS block, once for the snapshots and
    once for the fields past the span: at most 202 Profile.value calls,
    not one per step and field (13,204)."""
    calls = []
    value = Profile.value
    monkeypatch.setattr(Profile, "value",
                        lambda self, s: calls.append(s) or value(self, s))
    sch = PulseSchedule.switch(0.0, 0.0, -10.0, 25.0, 6.284, 0.0)
    traj = propagate(free_rotor_wavefunction(1, make_grid()), sch,
                     dtau=1e-3, sample_stride=20)
    assert len(traj.tau_samples) == 6284 // 20 + 2
    assert len(calls) <= 2 * (math.ceil(6284 / FINITE_CHECK_STEPS) + 2)


def _split_steps(psi0, schedule, dtau, stride, duration, j_max):
    """Snapshot times and signed rows of Strang steps taken one at a time,
    each with both of its half kicks, on the window |J| <= j_max, sampled
    as propagate samples."""
    nsteps = max(1, round(duration / dtau))
    dtau_eff = duration / nsteps
    c, _ = _coefficients(psi0.amplitudes, psi0.grid)
    band = len(c) // 2
    c = c[band - j_max:band + j_max + 1]
    kinetic = np.exp(-1j * np.arange(-j_max, j_max + 1) ** 2 * dtau_eff)
    taus, rows = [0.0], [c]
    midpoints = (np.arange(nsteps) + 0.5) * dtau_eff
    for i, fields in enumerate(schedule.fields(midpoints), 1):
        (taps,) = _kick_taps([fields], dtau_eff, band)
        c = np.convolve(np.convolve(c, taps, "same") * kinetic, taps, "same")
        if i % stride == 0 or i == nsteps:
            taus.append(duration if i == nsteps else i * dtau_eff)
            rows.append(c)
    return np.array(taus), np.stack(rows)


@settings(max_examples=40, deadline=None)
@given(eta=st.floats(-20.0, 0.0), zeta=st.floats(0.0, 40.0),
       shape=st.sampled_from(["linear", "smooth_cosine"]),
       dtau=st.floats(5e-4, 5e-3), stride=st.integers(2, 50),
       duration=st.floats(0.05, 0.4))
def test_fused_kicks_match_the_split_steps(eta, zeta, shape, dtau, stride,
                                           duration):
    """Between snapshots and checks, a ramp merges the second half kick of
    a step with the first of the next. At every snapshot, the times of an
    unmerged run of the same steps agree bit for bit, and cos, cos2, norm
    and J2 (relative to max(1, J2)) within 1e-13 (measured over 151 random
    cases: at most 6.1e-15, 1.0e-14, 6.3e-15 and 2.1e-14)."""
    g = make_grid()
    psi0 = free_rotor_wavefunction(1, g)
    sch = PulseSchedule.switch(0.0, 0.0, eta, zeta, duration, 0.0,
                               shape=shape)
    fused = propagate(psi0, sch, dtau=dtau, sample_stride=stride)
    ((j_max, _),) = fused.ramp_limits
    taus, rows = _split_steps(psi0, sch, dtau, stride, duration, j_max)
    assert np.array_equal(fused.tau_samples, taus)
    norm, cos, cos2, j2, _ = _band_moments(rows, g.max_band_limit)
    for values, name in ((cos, "cos"), (cos2, "cos2")):
        assert np.abs(fused.observables[name].values - values).max() <= 1e-13
    assert np.abs(fused.norms - norm).max() <= 1e-13
    # a half kick leaves |psi(theta)|^2 as it is, but not <J^2>
    assert np.all(np.abs(fused.observables["J2"].values - j2)
                  <= 1e-13 * np.maximum(1.0, j2))


@pytest.mark.parametrize("schedule", [
    pytest.param(PulseSchedule.switch(0.0, 0.0, -2.0, 3.0, 0.1, 0.0),
                 id="ramp"),
    pytest.param(PulseSchedule.frozen(-2.0, 3.0, 0.1), id="hold")])
def test_a_start_at_the_nyquist_mode_is_refused(schedule):
    """No window or cutoff holds the Nyquist mode J = n/2, so a start with
    grid amplitude there above 1e-12 is refused before the first step, by
    a ramp as by a hold (a ramp used to drop it silently)."""
    g = make_grid()
    nyquist = 1e-6 * np.cos(g.n_points // 2 * g.theta) / math.sqrt(TWO_PI)
    psi0 = Wavefunction(g, free_rotor_wavefunction(1, g).amplitudes + nyquist,
                        normalize=False)
    with pytest.raises(RuntimeError, match=(
            r"initial state: grid amplitude 1\.0e-06 > 1e-12 at the Nyquist "
            r"mode \|J\| = 256, past the grid's band j_max=255")):
        propagate(psi0, schedule)

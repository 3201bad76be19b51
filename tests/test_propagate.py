"""Grid propagator: schedules, accuracy regimes, cross-validation."""

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
    Wavefunction,
    free_rotor_wavefunction,
    make_grid,
    propagate,
    second_order_accuracy_check,
    solve_spectrum,
)
from planar_pendulum.propagate import (
    FINITE_CHECK_STEPS,
    Trajectory,
    _kick_writer,
    _run,
    constant,
    linear,
    smooth_cosine,
)

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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        traj = propagate(psi, sch, dtau=1e-3, sample_stride=10000)
    assert abs(traj.final_state.norm() - 1.0) < 1e-10


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


def test_second_order_smooth_schedule():
    g = make_grid()
    psi = free_rotor_wavefunction(1, g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = second_order_accuracy_check(psi, sch, dtau=TWO_PI / base)
    assert rep.regime == "measured"
    assert 0.4 < rep.order < 1.6


def test_stability_warning_on_coarse_step():
    g = make_grid()
    psi = free_rotor_wavefunction(0, g)
    with pytest.warns(RuntimeWarning):
        propagate(psi, PulseSchedule.frozen(0.0, 0.0, 0.5), dtau=0.1)


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
        Trajectory(tau_samples=np.array([0.0]), states=(_nan_state(g),),
                   observables={})


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


@pytest.mark.parametrize("segments,dtau,nsteps", [
    pytest.param(_ZERO_DURATION, 1e-2, 50, id="zero-duration-segments"),
    pytest.param(_BREAKS_ON_MIDPOINTS, 0.25, 6, id="breaks-on-midpoints"),
    pytest.param([Segment(0.1, smooth_cosine(0.0, -7.0),
                          smooth_cosine(0.0, 16.0))],
                 1e-2, 35, id="past-the-span"),
    pytest.param([Segment(0.1, constant(-7.0), constant(16.0)),
                  Segment(0.1, linear(-7.0, -2.0), linear(16.0, 3.0))],
                 3e-3, 120, id="hold-ramp-past-the-span"),
])
def test_step_fields_are_midpoint_lookups(segments, dtau, nsteps):
    sch = PulseSchedule(segments)
    assert list(sch.step_fields(dtau, nsteps)) == [
        sch.fields_at((i + 0.5) * dtau) for i in range(nsteps)]

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planar_pendulum import (
    InteractionParams,
    SymmetryLabel,
    Wavefunction,
    free_rotor_wavefunction,
    make_grid,
    potential_shape,
    topological_index,
)
from planar_pendulum.core import grid_moments


def test_params_reject_wrong_signs():
    with pytest.raises(ValueError):
        InteractionParams(0.5, 25.0)
    with pytest.raises(ValueError):
        InteractionParams(-1.0, -0.1)


def test_potential_endpoints():
    p = InteractionParams(-7.0, 25.0)
    # V = -eta*cos - zeta*cos^2: theta=0 gives -eta-zeta, theta=pi eta-zeta
    assert p.potential(np.array([0.0]))[0] == pytest.approx(7.0 - 25.0)
    assert p.potential(np.array([np.pi]))[0] == pytest.approx(-7.0 - 25.0)


def test_potential_shape_regimes():
    dw = potential_shape(InteractionParams(-4.0, 10.0))
    assert dw.kind == "double-well"
    assert dw.theta_barrier == pytest.approx(math.acos(0.2), abs=1e-12)
    assert dw.v_barrier == pytest.approx(16.0 / 40.0, abs=1e-12)

    assert potential_shape(InteractionParams(-21.0, 10.0)).kind == "single-well"
    assert potential_shape(InteractionParams(-20.0, 10.0)).kind == "boundary"


def test_topological_index_parity():
    even = topological_index(InteractionParams(-10.0, 25.0))
    assert even.is_integer and even.nearest_integer == 2
    assert even.parity == "even"
    odd = topological_index(InteractionParams(-15.0, 25.0))
    assert odd.is_integer and odd.nearest_integer == 3
    assert odd.parity == "odd"
    frac = topological_index(InteractionParams(-10.3, 25.0))
    assert not frac.is_integer


def test_grid_layout():
    g = make_grid(256)
    assert g.theta.shape == (256,)
    assert g.dtheta == pytest.approx(2.0 * np.pi / 256)
    assert g.theta[0] == 0.0
    # FFT wavenumber convention: 0, 1, ..., n/2-1, -n/2, ..., -1
    assert g.wavenumbers[1] == 1.0
    assert g.wavenumbers[-1] == -1.0
    assert g.max_band_limit == 64


@pytest.mark.parametrize("j", [0, 1, 3, -2])
def test_free_rotor_state_expectations(j):
    g = make_grid()
    psi = free_rotor_wavefunction(j, g)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    assert psi.expectation_kinetic() == pytest.approx(j * j, abs=1e-10)
    assert psi.expectation_cos() == pytest.approx(0.0, abs=1e-12)
    assert psi.expectation_cos2() == pytest.approx(0.5, abs=1e-12)


def test_free_rotor_coefficients_single_spike():
    g = make_grid()
    c = free_rotor_wavefunction(2, g).free_rotor_coefficients(8)
    spike = np.zeros(17)
    spike[8 + 2] = 1.0
    assert np.abs(np.abs(c) - spike).max() < 1e-12


def test_grid_tail_is_the_largest_amplitude_beyond_the_band_limit():
    g = make_grid(64)
    inside = free_rotor_wavefunction(16, g).amplitudes      # |J| = n/4
    beyond = np.exp(-17j * g.theta) / math.sqrt(2.0 * np.pi)
    rows = np.stack([inside, 0.8 * inside + 0.6 * beyond])
    moments = grid_moments(rows, g)
    assert moments.tail[0] <= 1e-14
    assert moments.tail[1] == pytest.approx(0.6, abs=1e-14)
    assert moments.j2[1] == pytest.approx(0.64 * 256 + 0.36 * 289, abs=1e-10)
    assert np.array_equal(moments.norm, [
        math.sqrt(float(np.sum(np.abs(a) ** 2)) * g.dtheta) for a in rows])


@settings(max_examples=25, deadline=None)
@given(eta=st.floats(-20.0, 0.0), zeta=st.floats(0.0, 30.0),
       seed=st.integers(0, 2**31 - 1))
def test_energy_partition_property(eta, zeta, seed):
    """<H> = <J^2> + <V> for arbitrary normalized states."""
    params = InteractionParams(eta, zeta)
    g = make_grid(128)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=128) + 1j * rng.normal(size=128)
    psi = Wavefunction(g, amps, normalize=True)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    total = psi.expectation_kinetic() + psi.expectation_potential(params)
    assert psi.expectation_energy(params) == pytest.approx(total, abs=1e-9)
    assert -1.0 <= psi.expectation_cos() <= 1.0
    assert 0.0 <= psi.expectation_cos2() <= 1.0


def test_symmetry_label_str():
    assert str(SymmetryLabel.A1) == "A1"
    assert str(SymmetryLabel.A2) == "A2"

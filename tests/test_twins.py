"""The exact basis routes against their grid-quadrature twins."""

import numpy as np
from hypothesis import given, settings, strategies as st

from planar_pendulum import (
    InteractionParams,
    SymmetryLabel,
    make_grid,
    quadrature_element_matrix,
    quadrature_switch_off_coefficients,
    quadrature_switch_on_coefficients,
    sector_element_matrix,
    solve_spectrum,
    switch_off_coefficients,
    switch_on_coefficients,
)
from planar_pendulum.spectrum import _ALIGN_FLOOR, _pi_probe_weights

N_STATES = 8

# the topology-map window plus its eta = 0 and zeta = 0 edges
ETAS = st.one_of(st.just(0.0), st.floats(-35.0, 0.0))
ZETAS = st.one_of(st.just(0.0), st.floats(5.0, 40.0))


def _grid_pi_probe(spec, n, grid):
    # value at theta = pi (even states) or its central-difference slope
    # (odd states), as the grid sign rule used to evaluate it; the floor
    # scale is the one solve_spectrum applies to the exact probe
    f = spec.wavefunction(n, grid).amplitudes.real
    mid = grid.n_points // 2
    value, slope = _pi_probe_weights(spec.j_max + 1)
    if spec.labels[n] is SymmetryLabel.A1:
        probe, weights = f[mid], value
    else:
        probe = (f[mid + 1] - f[mid - 1]) / (2.0 * grid.dtheta)
        weights = slope
    return probe, float(np.abs(spec.coefficients[n]) @ np.abs(weights))


@settings(max_examples=25, deadline=None)
@given(eta=ETAS, zeta=ZETAS)
def test_basis_routes_equal_grid_twins(eta, zeta):
    spec = solve_spectrum(InteractionParams(eta, zeta), N_STATES)
    for op in ("cos", "cos2"):
        exact = sector_element_matrix(spec, op)
        twin = quadrature_element_matrix(spec, op)
        assert np.abs(exact - twin).max() < 1e-12

    for j0 in (0, 1, -1, 2, -2):
        on = switch_on_coefficients(spec, j0).c
        assert np.abs(on - quadrature_switch_on_coefficients(spec, j0).c
                      ).max() < 1e-12
    for n0 in (0, 1, 2):
        off = switch_off_coefficients(spec, n0).c
        assert np.abs(off - quadrature_switch_off_coefficients(spec, n0).c
                      ).max() < 1e-12

    grid = make_grid(512)
    for n in range(N_STATES):
        probe, scale = _grid_pi_probe(spec, n, grid)
        if abs(probe) > _ALIGN_FLOOR * scale:
            assert probe > 0, f"state {n} is not pi-aligned"

"""Algebraic eigenstates and the two switch-coefficient routes."""

import math

import numpy as np
import pytest

from planar_pendulum import (
    InteractionParams,
    SymmetryLabel,
    crossing_scan,
    make_grid,
    solve_spectrum,
)
from planar_pendulum.twins import (
    algebraic_ansatz,
    algebraic_sector_size,
    analytic_switch_off_coefficients,
    analytic_switch_on_coefficient,
    quadrature_switch_off_coefficients,
    quadrature_switch_on_coefficients,
    reconstruct_ansatz,
    reconstruct_from_free_rotor,
)


def _algebraic_spectrum(kappa, zeta=25.0, extra=2):
    eta = -kappa * math.sqrt(zeta)
    return solve_spectrum(InteractionParams(eta, zeta), kappa + extra)


def _distance(ans, spec, grid):
    """L2 grid distance between the ansatz state and solver state ans.n."""
    gap = (reconstruct_ansatz(ans, grid).amplitudes.real
           - spec.wavefunction(ans.n, grid).amplitudes.real)
    return float(np.linalg.norm(gap)) * math.sqrt(grid.dtheta)


def test_sector_sizes():
    assert algebraic_sector_size(1, SymmetryLabel.A1) == 1
    assert algebraic_sector_size(1, SymmetryLabel.A2) == 0
    assert algebraic_sector_size(3, SymmetryLabel.A1) == 2
    assert algebraic_sector_size(3, SymmetryLabel.A2) == 1
    assert algebraic_sector_size(5, SymmetryLabel.A1) == 3
    assert algebraic_sector_size(5, SymmetryLabel.A2) == 2


@pytest.mark.parametrize("zeta", [16.0, 25.0])
def test_unit_index_ground_is_pure_exponential(zeta):
    """At kappa=1 the ground state is exp(-sqrt(zeta)*cos(theta)) exactly."""
    spec = _algebraic_spectrum(1, zeta)
    grid = make_grid()
    ans = algebraic_ansatz(spec.params)[0]
    assert _distance(ans, spec, grid) < 1e-10
    assert ans.ell_max == 0                    # single-term polynomial

    f = spec.wavefunction(0, grid).amplitudes.real
    envelope = np.exp(-math.sqrt(zeta) * np.cos(grid.theta))
    ratio = f / envelope
    assert ratio.max() / ratio.min() - 1.0 < 1e-8


def test_index_three_ansatz_degrees():
    spec = _algebraic_spectrum(3)
    grid = make_grid()
    degrees = {}
    for n in range(3):
        ans = algebraic_ansatz(spec.params)[n]
        assert _distance(ans, spec, grid) < 1e-8
        degrees.setdefault(str(spec.labels[n]), []).append(ans.ell_max)
    assert sorted(degrees["A1"]) == [1, 1]
    assert degrees["A2"] == [0]


def test_reconstruct_ansatz_matches_eigenstate():
    spec = _algebraic_spectrum(3)
    grid = make_grid()
    for n in range(3):
        wf = reconstruct_ansatz(algebraic_ansatz(spec.params)[n], grid)
        target = spec.wavefunction(n, grid).amplitudes.real
        assert np.abs(wf.amplitudes.real - target).max() < 1e-7


@pytest.mark.parametrize("kappa", [1, 3])
def test_switch_off_two_routes_agree(kappa):
    spec = _algebraic_spectrum(kappa)
    grid = make_grid()
    for n in range(kappa):
        ca = analytic_switch_off_coefficients(algebraic_ansatz(spec.params)[n])
        cq = quadrature_switch_off_coefficients(spec, n, grid=grid)
        assert np.abs(ca.c - cq.c).max() < 1e-8


def test_switch_off_symmetries_exact():
    spec = _algebraic_spectrum(3)
    jm = 64
    for n in range(3):
        co = analytic_switch_off_coefficients(algebraic_ansatz(spec.params)[n],
                                              j_max=jm)
        c = co.c
        if spec.labels[n] is SymmetryLabel.A1:
            assert np.all(c[jm + 1:] == c[:jm][::-1])      # mirror, bit-exact
            assert np.all(c.imag == 0.0)
        else:
            assert np.all(c[jm + 1:] == -c[:jm][::-1])
            assert np.all(c.real == 0.0)
            assert c[jm] == 0.0                            # J = 0 component


def test_parseval_and_tail():
    spec = _algebraic_spectrum(1)
    co = analytic_switch_off_coefficients(algebraic_ansatz(spec.params)[0],
                                          j_max=64)
    assert abs(co.parseval() - 1.0) < 1e-8
    for j in range(55, 65):
        assert abs(co.coefficient(j)) < 1e-10
        assert abs(co.coefficient(-j)) < 1e-10


def test_switch_on_conjugation_rule():
    spec = _algebraic_spectrum(3)
    grid = make_grid()
    for n in range(3):
        ans = algebraic_ansatz(spec.params)[n]
        off = analytic_switch_off_coefficients(ans)
        for j0 in (0, 1, 2, 5):
            on = analytic_switch_on_coefficient(ans, j0)
            expect = off.coefficient(j0)
            if spec.labels[n] is SymmetryLabel.A2:
                expect = expect.conjugate()
            # routes truncate the Bessel table at different depths, so
            # agreement is to rounding rather than bit-exact
            assert abs(on - expect) <= 1e-13 * max(1.0, abs(expect))
            # independent route: grid overlap of exp(i*j0*theta)
            cq = quadrature_switch_on_coefficients(spec, j0, grid)
            assert abs(on - cq.c[n]) < 1e-8


def test_switch_on_from_j0_zero_misses_odd_sector():
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 12)
    c = quadrature_switch_on_coefficients(spec, 0)
    for n in range(12):
        if spec.labels[n] is SymmetryLabel.A2:
            assert abs(c.c[n]) < 1e-12


def test_reconstruction_roundtrip():
    spec = _algebraic_spectrum(1)
    grid = make_grid()
    co = analytic_switch_off_coefficients(algebraic_ansatz(spec.params)[0])
    wf = reconstruct_from_free_rotor(co, grid)
    target = spec.wavefunction(0, grid).amplitudes.real
    assert np.abs(wf.amplitudes.real - target).max() < 1e-7
    assert np.abs(wf.amplitudes.imag).max() < 1e-10


@pytest.mark.parametrize("kappa", [1, 3, 5, 7])
@pytest.mark.parametrize("zeta", [4.0, 25.0, 100.0])
def test_recurrence_is_the_lowest_block_of_the_solver(kappa, zeta):
    """The recurrence is an exact oracle: its kappa states are states
    0..kappa-1 of solve_spectrum, in energy and in label."""
    states = algebraic_ansatz(InteractionParams(-kappa * math.sqrt(zeta), zeta))
    spec = _algebraic_spectrum(kappa, zeta)
    assert [s.n for s in states] == list(range(kappa))
    for s in states:
        e = float(spec.energies[s.n])
        assert abs(s.energy - e) <= 1e-11 * max(1.0, abs(e))
        assert s.gamma is spec.labels[s.n]
    for gamma in (SymmetryLabel.A1, SymmetryLabel.A2):
        count = sum(s.gamma is gamma for s in states)
        assert count == algebraic_sector_size(kappa, gamma)


@pytest.mark.parametrize("kappa", [3, 5])
def test_states_above_the_block_are_doublets(kappa):
    spec = _algebraic_spectrum(kappa, 25.0, extra=12)
    for n in range(kappa, kappa + 12, 2):
        e_lo, e_hi = spec.energies[n], spec.energies[n + 1]
        assert abs(e_hi - e_lo) <= 1e-10 * max(1.0, abs(e_lo))
        assert {spec.labels[n], spec.labels[n + 1]} == {SymmetryLabel.A1,
                                                        SymmetryLabel.A2}


@pytest.mark.parametrize("eta,zeta", [(-10.0, 25.0),     # kappa = 2
                                      (-7.0, 25.0),      # kappa = 1.4
                                      (-5.0, 0.0)])      # kappa undefined
def test_recurrence_needs_odd_integer_index(eta, zeta):
    with pytest.raises(ValueError):
        algebraic_ansatz(InteractionParams(eta, zeta))


@pytest.mark.parametrize("kappa,pair", [(1, (1, 2)), (3, (3, 4))])
@pytest.mark.parametrize("zeta", [16.0, 25.0, 36.0])
def test_genuine_crossings_sit_on_the_qes_locus(kappa, pair, zeta):
    """Above the block every level is an exact doublet at eta = -kappa*a,
    so a genuine crossing found by bisection sits on that line."""
    center = -kappa * math.sqrt(zeta)
    recs = crossing_scan(zeta, (center - 2.0, center + 2.0), pair,
                         resolution=41)
    assert len(recs) == 1 and recs[0].kind == "genuine"
    assert abs(recs[0].eta_at_crossing - center) <= 1e-9

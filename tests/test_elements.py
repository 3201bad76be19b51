"""Bessel machinery, closed-form integrals, and matrix-element routes."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from planar_pendulum import (
    BesselTable,
    InteractionParams,
    SymmetryLabel,
    algebraic_ansatz,
    analytic_cos2_element,
    analytic_cos_element,
    ansatz_norm_integral,
    exp_cos_integral,
    hellmann_feynman_residual,
    kinetic_identity_residual,
    make_grid,
    modified_bessel_i,
    quadrature_element_matrix,
    reconstruct_ansatz,
    sector_element_matrix,
    solve_spectrum,
)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(0, 40),
       x=st.floats(1e-3, 600.0, allow_nan=False, allow_infinity=False))
def test_bessel_matches_scipy(order, x):
    ours = modified_bessel_i(order, x)
    ref = float(scipy.special.iv(order, x))
    assert ours == pytest.approx(ref, rel=1e-11)


def test_bessel_recurrence():
    x = 10.0
    for q in range(1, 25):
        lhs = modified_bessel_i(q - 1, x) - modified_bessel_i(q + 1, x)
        rhs = (2.0 * q / x) * modified_bessel_i(q, x)
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_bessel_large_argument_guard():
    # the single evaluator and the table it reads from share one guard
    for bessel in (modified_bessel_i,
                   lambda order, x: BesselTable.build(x, order)[order]):
        # representable result near the overflow edge
        assert bessel(40, 700.0) == pytest.approx(
            float(scipy.special.iv(40, 700.0)), rel=1e-11)
        for x in (705.0, 800.0):
            with pytest.raises(OverflowError):
                bessel(0, x)


@pytest.mark.parametrize("zeta", [4.0, 25.0])
@pytest.mark.parametrize("kind,f", [
    ("one", lambda t: np.ones_like(t)),
    ("cos", np.cos),
    ("cos2", lambda t: np.cos(t) ** 2),
    ("sin", lambda t: np.sin(t) ** 2),
])
@pytest.mark.parametrize("L", [0, 1, 3])
def test_exp_cos_integral_vs_quadrature(L, kind, f, zeta):
    theta = np.linspace(0.0, 2.0 * np.pi, 16385)
    w = np.exp(2.0 * math.sqrt(zeta) * np.cos(theta))
    integrand = w * f(theta) * np.cos(theta / 2.0) ** (2 * L)
    ref = float(np.trapezoid(integrand, theta))
    assert exp_cos_integral(L, zeta, kind) == pytest.approx(ref, rel=1e-9)


def test_ansatz_norm_integral_vs_quadrature():
    theta = np.linspace(0.0, 2.0 * np.pi, 16385)
    v = np.array([1.0, -0.35, 0.02])
    poly = sum(vl * np.sin(theta / 2.0) ** (2 * l) for l, vl in enumerate(v))
    w = np.exp(-2.0 * math.sqrt(25.0) * np.cos(theta))
    for gamma, extra in ((SymmetryLabel.A1, 1.0),
                         (SymmetryLabel.A2, np.sin(theta) ** 2)):
        ref = float(np.trapezoid(w * extra * poly ** 2, theta))
        assert ansatz_norm_integral(gamma, v, 25.0) == pytest.approx(
            ref, rel=1e-9)


def test_selection_rules_exact():
    # both operators are even under theta -> -theta: cross-symmetry
    # elements vanish, same-symmetry elements generally do not; the
    # quadrature integrates every pair, cross-symmetry ones included
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 9)
    odd = np.array([lab is SymmetryLabel.A2 for lab in spec.labels])
    cross = odd[:, None] != odd[None, :]
    assert cross.any() and (~cross).any()
    for op in ("cos", "cos2"):
        m = quadrature_element_matrix(spec, op)
        assert np.abs(m[cross]).max() < 1e-12
        assert np.abs(m[~cross]).max() > 0.1


def test_sector_matrix_symmetric():
    spec = solve_spectrum(InteractionParams(-7.0, 25.0), 12)
    m = sector_element_matrix(spec, "cos2")
    assert np.abs(m - m.T).max() < 1e-12


# at (7, 100) sums over powers of u = sin(theta/2)**2 cancel by 2e10;
# the well moments do not
@pytest.mark.parametrize("kappa,zeta", [(3, 25.0), (5, 25.0), (7, 100.0)])
def test_analytic_elements_match_quadrature(kappa, zeta):
    """Closed-form matrix elements vs direct grid integration."""
    eta = -kappa * math.sqrt(zeta)
    spec = solve_spectrum(InteractionParams(eta, zeta), kappa)
    ansatz = algebraic_ansatz(spec.params)
    # both routes sign their states pi-aligned, so the gauges agree
    grid = make_grid()
    for n in range(kappa):
        raw = spec.wavefunction(n, grid).amplitudes.real
        rec = reconstruct_ansatz(ansatz[n], grid).amplitudes.real
        assert float(np.dot(raw, rec)) > 0
    quad_cos = quadrature_element_matrix(spec, "cos")
    quad_cos2 = quadrature_element_matrix(spec, "cos2")
    for a in range(kappa):
        for b in range(a, kappa):
            sym_pair = spec.labels[a] is spec.labels[b]
            ref_cos, ref_cos2 = quad_cos[a, b], quad_cos2[a, b]
            got_cos = analytic_cos_element(ansatz[a], ansatz[b])
            got_cos2 = analytic_cos2_element(ansatz[a], ansatz[b])
            assert got_cos == pytest.approx(ref_cos, abs=1e-10)
            assert got_cos2 == pytest.approx(ref_cos2, abs=1e-10)
            if not sym_pair:
                assert got_cos == 0.0          # exact, not merely small
                assert got_cos2 == 0.0


def test_kinetic_identity_low_states():
    params = InteractionParams(-10.0, 25.0)
    for n in range(7):
        assert kinetic_identity_residual(params, n) < 1e-9


def test_hellmann_feynman_residuals():
    r_eta, r_zeta = hellmann_feynman_residual(InteractionParams(-7.0, 25.0), 0)
    assert r_eta < 1e-6 and r_zeta < 1e-6


def test_hellmann_feynman_step_scaling():
    params = InteractionParams(-7.0, 25.0)
    coarse = hellmann_feynman_residual(params, 0, step=1e-2)
    fine = hellmann_feynman_residual(params, 0, step=5e-3)
    ratio = coarse[0] / fine[0]
    assert 3.5 <= ratio <= 4.5


def test_hellmann_feynman_zero_eta_boundary():
    # stencil must fold eta across 0 instead of crossing into eta > 0
    r_eta, r_zeta = hellmann_feynman_residual(InteractionParams(0.0, 25.0), 0)
    assert r_zeta < 1e-6
    assert math.isfinite(r_eta)


def test_identities_grow_the_cutoff_in_a_deep_well():
    # a fixed j_max = 64 is refused here (basis tail 4e-5); the default
    # automatic cutoff grows to 128
    params = InteractionParams(-50000.0, 20000.0)
    r_eta, r_zeta = hellmann_feynman_residual(params, 0)
    assert r_eta < 1e-6 and r_zeta < 1e-6
    assert kinetic_identity_residual(params, 0) < 1e-9


def test_hellmann_feynman_refuses_degenerate():
    # genuine crossing at kappa=3: states 3,4 are degenerate to ~1e-10
    with pytest.raises(ValueError):
        hellmann_feynman_residual(InteractionParams(-15.0, 25.0), 3)

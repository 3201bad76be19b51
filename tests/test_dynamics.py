"""Post-switch evolution: closed-form series, populations, averages."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planar_pendulum import (
    InteractionParams,
    dominant_coherence_period,
    make_grid,
    make_tau_grid,
    solve_spectrum,
    switch_off_coefficients,
    switch_off_evolution,
    switch_off_populations,
    switch_on_coefficients,
    switch_on_evolution,
    switch_on_populations,
    time_averaged_orientation,
    topology_map,
    total_population,
)
from planar_pendulum import dynamics
from planar_pendulum.elements import sector_element_matrix
from planar_pendulum.twins import (
    quadrature_switch_off_coefficients,
    quadrature_switch_on_coefficients,
)

# switch-on from J0=1 at (eta, zeta) = (-10, 25): leading populations
SWITCH_ON_POPULATIONS = [0.207017, 0.096841, 0.038754, 0.223015, 0.316612]


def test_tau_grid_shape():
    tau = make_tau_grid(4.0 * math.pi, samples_per_period=512)
    assert tau[0] == 0.0
    assert tau[-1] == pytest.approx(4.0 * math.pi, abs=1e-12)
    assert len(tau) == 1025


def _off_coefficients(eta=-10.0, zeta=25.0, n0=0):
    spec = solve_spectrum(InteractionParams(eta, zeta), n0 + 2)
    return quadrature_switch_off_coefficients(spec, n0)


def test_switch_off_series_invariants():
    co = _off_coefficients()
    tau = np.arange(2048) * (4.0 * math.pi / 2048)
    series = switch_off_evolution(co, tau)
    j2 = series["J2"].values
    assert j2.max() - j2.min() < 1e-12
    assert np.all(np.abs(series["cos"].values) <= 1.0 + 1e-12)
    assert np.all(series["cos2"].values >= -1e-12)
    assert np.all(series["cos2"].values <= 1.0 + 1e-12)


def test_switch_off_recurrences():
    co = _off_coefficients(eta=-5.0)
    n = 2048
    tau = np.arange(n) * (4.0 * math.pi / n)
    s = switch_off_evolution(co, tau)
    cos_v, cos2_v = s["cos"].values, s["cos2"].values
    full, half, quarter = n // 2, n // 4, n // 8
    assert np.abs(cos_v[full:] - cos_v[:-full]).max() < 1e-10     # tau + 2pi
    assert np.abs(cos_v[half:] + cos_v[:-half]).max() < 1e-10     # tau + pi
    assert np.abs(cos2_v[quarter:] - cos2_v[:-quarter]).max() < 1e-10


def test_series_against_direct_grid_evolution():
    """Closed-form sums vs free evolution reconstructed on the grid."""
    grid = make_grid()
    co = _off_coefficients(eta=-7.0)
    jm = (len(co.c) - 1) // 2
    j = np.arange(-jm, jm + 1)
    for tau in (0.0, 0.7313, 2.1):
        series = switch_off_evolution(co, np.array([tau]))
        phased = co.c * np.exp(-1j * j.astype(float) ** 2 * tau)
        spectral = np.zeros(grid.theta.size, dtype=complex)
        spectral[j % grid.theta.size] = phased
        psi = np.fft.ifft(spectral) * grid.theta.size / math.sqrt(2 * math.pi)
        w = np.abs(psi) ** 2 * grid.dtheta
        assert series["cos"].values[0] == pytest.approx(
            float(w @ np.cos(grid.theta)), abs=1e-10)
        assert series["cos2"].values[0] == pytest.approx(
            float(w @ np.cos(grid.theta) ** 2), abs=1e-10)


def test_switch_on_populations_frozen():
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 20)
    pops = switch_on_populations(spec, 1)
    got = [r.probability for r in pops[:5]]
    assert np.abs(np.array(got) - np.array(SWITCH_ON_POPULATIONS)).max() < 1e-6
    assert total_population(pops) == pytest.approx(1.0, abs=1e-6)


def test_population_swap_across_genuine_crossing():
    # kappa=1 crossing at eta=-5 (zeta=25): states 1 and 2 trade roles
    pa = [r.probability for r in switch_on_populations(
        solve_spectrum(InteractionParams(-4.9, 25.0), 8), 1)]
    pb = [r.probability for r in switch_on_populations(
        solve_spectrum(InteractionParams(-5.1, 25.0), 8), 1)]
    assert pa[1] == pytest.approx(0.217839, abs=1e-4)
    assert pa[2] == pytest.approx(0.108322, abs=1e-4)
    assert abs(pa[1] - pb[2]) < 1e-3
    assert abs(pa[2] - pb[1]) < 1e-3
    assert min(abs(pa[1] - pa[2]), abs(pb[1] - pb[2])) > 0.05


def test_switch_off_population_weights():
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 3)
    recs = switch_off_populations(spec, 0)
    assert recs[0].index == 0
    assert total_population(recs) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("j0,zeta", [(0, 25.0), (1, 25.0), (2, 16.0)])
def test_switch_on_energy_identity(j0, zeta):
    spec = solve_spectrum(InteractionParams(-10.0, zeta), 28)
    coeffs = quadrature_switch_on_coefficients(spec, j0)
    tau = make_tau_grid(2.0 * math.pi, samples_per_period=64)
    series = switch_on_evolution(spec, coeffs, tau)
    e = series["energy"].values
    assert e.max() - e.min() < 1e-10
    assert abs(e[0] - (j0 * j0 - zeta / 2.0)) < 1e-8


def test_kinetic_budget_combines_orientation_series():
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 28)
    coeffs = quadrature_switch_on_coefficients(spec, 1)
    tau = make_tau_grid(math.pi, samples_per_period=32)
    series = switch_on_evolution(spec, coeffs, tau)
    rebuilt = (series["energy"].values
               + (-10.0) * series["cos"].values
               + 25.0 * series["cos2"].values)
    assert np.abs(series["J2"].values - rebuilt).max() < 1e-10


def test_selection_enforcement_is_a_noop():
    # basis route (same-sector pairs only) vs a grid twin: full double sum
    # over every state pair with unmasked 512-point quadrature elements
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 20)
    tau = make_tau_grid(math.pi, samples_per_period=32)
    a = switch_on_evolution(spec, switch_on_coefficients(spec, 1), tau)
    grid = make_grid(512)
    f = np.stack([spec.wavefunction(n, grid).amplitudes.real
                  for n in range(20)])
    c = quadrature_switch_on_coefficients(spec, 1, grid).c
    d = c * np.exp(-1j * np.outer(tau, spec.energies))
    for name, w in (("cos", np.cos(grid.theta)),
                    ("cos2", np.cos(grid.theta) ** 2)):
        m = (f * w) @ f.T * grid.dtheta
        b = np.einsum("ta,ab,tb->t", np.conj(d), m, d).real
        assert np.abs(a[name].values - b).max() < 1e-12


def test_dominant_coherence_period_frozen():
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 20)
    coeffs = quadrature_switch_on_coefficients(spec, 1)
    period = dominant_coherence_period(spec, coeffs)
    assert period == pytest.approx(22.767311806294586 * math.pi, rel=1e-9)


def test_time_average_matches_series_mean():
    spec = solve_spectrum(InteractionParams(-9.0, 25.0), 20)
    coeffs = quadrature_switch_on_coefficients(spec, 1)
    tau_tilde = 4.0 * math.pi
    closed = time_averaged_orientation(spec, coeffs, tau_tilde)
    tau = np.linspace(0.0, tau_tilde, 32769)
    series = switch_on_evolution(spec, coeffs, tau)
    ref = float(np.trapezoid(series["cos"].values, tau)) / tau_tilde
    assert closed == pytest.approx(ref, abs=1e-6)


def _complex_pair_average(c, energies, mat, tau_tilde):
    # the window average pair by pair in complex arithmetic, each point's
    # terms summed exactly; and the sum of their magnitudes
    n = c.shape[-1]
    diagonal = np.diagonal(mat, axis1=-2, axis2=-1)
    terms = [np.abs(c) ** 2 * diagonal]
    for a in range(n):
        for b in range(a + 1, n):
            x = (energies[..., a] - energies[..., b]) * tau_tilde
            window = np.where(x == 0.0, 1.0, (np.exp(1j * x) - 1.0)
                              / (1j * np.where(x == 0.0, 1.0, x)))
            weight = np.conj(c[..., a]) * c[..., b] * mat[..., a, b]
            terms.append(2.0 * (weight * window).real[..., None])
    terms = np.concatenate(terms, axis=-1)
    exact = np.array([math.fsum(t) for t in terms.reshape(-1, terms.shape[-1])])
    return (exact.reshape(terms.shape[:-1]),
            np.sum(np.abs(terms), axis=-1))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), points=st.integers(1, 6),
       n=st.integers(1, 20), column=st.booleans())
def test_window_average_equals_the_complex_pair_formula(seed, points, n,
                                                        column):
    # random complex weights, or those of a switch-on column (even entries
    # real, odd ones imaginary, no coupling across sectors: real weights);
    # levels on a lattice, so that many pairs have x = 0
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((points, n)) + 1j * rng.standard_normal((points, n))
    mat = rng.standard_normal((points, n, n))
    mat = mat + mat.swapaxes(-1, -2)
    if column:
        odd = rng.random((points, n)) < 0.5
        c = np.where(odd, 1j * c.imag, c.real + 0j)
        mat = np.where(odd[..., :, None] == odd[..., None, :], mat, 0.0)
    energies = 0.7 * rng.integers(0, 8, (points, n))
    tau_tilde = rng.uniform(0.5, 20.0)
    want, scale = _complex_pair_average(c, energies, mat, tau_tilde)
    got = dynamics._window_average(c, energies, mat, tau_tilde)
    assert np.all(np.abs(got - want) <= 1e-15 * scale)
    for p in range(points):
        assert dynamics._window_average(c[p], energies[p], mat[p],
                                        tau_tilde) == got[p]


@pytest.mark.parametrize("tau_tilde", [math.nan, math.inf, 0.0, -1.0])
def test_time_average_refuses_a_bad_window(tau_tilde):
    spec = solve_spectrum(InteractionParams(-9.0, 25.0), 8)
    coeffs = switch_on_coefficients(spec, 1)
    message = f"tau_tilde must be finite and > 0, got {tau_tilde}"
    with pytest.raises(ValueError, match=message):
        time_averaged_orientation(spec, coeffs, tau_tilde)
    with pytest.raises(ValueError, match=message):
        topology_map((0.0, 30.0), (-30.0, 0.0), 1, tau_tilde, (16, 16))


def test_topology_map_overlays():
    tm = topology_map((5.0, 40.0), (-35.0, 0.0), 1, 4.0 * math.pi, (16, 16),
                      n_states=8, j_max=32)
    assert np.allclose(tm.kappa_loci[2], -2.0 * np.sqrt(tm.zeta_values))
    assert np.allclose(tm.well_boundary, -2.0 * tm.zeta_values)
    assert tm.values.shape == (16, 16)


def test_loci_of_a_map_from_zeta_zero_reach_its_first_positive_sample():
    # zeta steps by 0.5 from 0: kappa = 49 reaches eta = -34.65 at 0.5
    tm = topology_map((0.0, 7.5), (-35.0, 0.0), 1, 4.0 * math.pi, (16, 16),
                      n_states=4)
    assert sorted(tm.kappa_loci) == list(range(1, 50))


def test_switch_off_refuses_a_state_without_parity():
    # the one-sided sums are real only for c_{-j} = +-c_j
    tau = make_tau_grid(2.0 * math.pi, samples_per_period=64)
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 4)
    for n0 in (0, 1):
        co = switch_off_coefficients(spec, n0)
        switch_off_evolution(co, tau)
        c = co.c.copy()
        c[co.j_max - 1] *= -1.0                         # c_{-1}
        with pytest.raises(RuntimeError, match="imaginary residue"):
            switch_off_evolution(dataclasses.replace(co, c=c), tau)


# --- block-product phases against per-sample phases ------------------------

def _phase_table(tau, c, level, reference):
    """_phased_blocks over tau as one (state, sample) table, its slices
    checked to tile the grid in order."""
    out = np.empty((len(c), len(tau)), dtype=complex)
    seen = 0
    for block, psi in dynamics._phased_blocks(tau, c, level, reference):
        assert block.start == seen and psi.shape == (len(c), block.stop - seen)
        out[:, block] = psi
        seen = block.stop
    assert seen == len(tau)
    return out


BLOCK_EDGE_GRIDS = {
    **{f"{n}-samples": np.linspace(0.0, 32.0 * math.pi, n)
       for n in (1, 3, 63, 64, 65, 513, 8193)},
    "from-85": np.linspace(85.0, 100.5, 700),
    "from-1e-3": np.linspace(1e-3, 32.0 * math.pi, 8193),
    "irregular": 85.0 + 15.5 * np.linspace(0.0, 1.0, 600) ** 2,
}


@pytest.mark.parametrize("name", BLOCK_EDGE_GRIDS)
def test_block_phases_match_per_sample_phases(name):
    # every sample tau_t = tau_b + d_s + delta_t exactly, at any tau_0; an
    # irregular grid's delta is too large for the block product and its
    # chunks must be phased sample by sample. A one-sample grid is one
    # exact phase, the reference.
    tau = BLOCK_EDGE_GRIDS[name]
    j = np.arange(-96, 97)
    c = np.exp(2j * math.pi * np.random.default_rng(3).random(len(j)))
    level, reference = (j ** 2).astype(float), 1511.37
    picks = np.unique(np.r_[0:len(tau):7, len(tau) - 1])
    direct = np.column_stack([
        _phase_table(tau[i:i + 1], c, level, reference)[:, 0] for i in picks])
    blocks = _phase_table(tau, c, level, reference)
    assert np.abs(blocks[:, picks] - direct).max() <= 1e-15


def test_empty_switch_off_support():
    tau = make_tau_grid(4.0 * math.pi)
    assert _phase_table(tau, np.zeros(0, dtype=complex), np.zeros(0),
                        3.0).shape == (0, len(tau))
    co = switch_off_coefficients(
        solve_spectrum(InteractionParams(-10.0, 25.0), 4), 0)
    series = switch_off_evolution(
        dataclasses.replace(co, c=np.zeros_like(co.c)), tau)
    for name in ("cos", "cos2", "J2"):
        assert not series[name].values.any()


# --- series against an extended-precision evaluation -----------------------
# The same energies, coefficients and element matrices, summed pair by pair
# with 40-digit phases at late tau, where the phase arguments are largest.
# Each grid is (tau grid, the samples compared): ORACLE_TAU is one block of
# 12 samples; every 257th sample of the 8193-sample grid is phased by block
# products with nonzero delta; the irregular grid's one chunk takes the
# per-sample guard path.

ORACLE_TAU = np.linspace(85.0, 100.5, 12)
ORACLE_GRIDS = [
    (ORACLE_TAU, slice(None)),
    (make_tau_grid(32.0 * math.pi), slice(None, None, 257)),
    (85.0 + 15.5 * np.linspace(0.0, 1.0, 70) ** 2, slice(None, None, 7)),
]
ORACLE_POINTS = [(-10.0, 25.0, 1), (-3.3, 12.1, 2), (-19.5, 38.0, 1)]


def _mp_complex(mp, z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _mp_switch_on(mp, spec, c, name, taus):
    """Same-sector sum of conj(c_a) c_b M_ab exp(i(E_a - E_b)tau)."""
    mat = sector_element_matrix(spec, name)
    odd = spec.odd
    pairs = [(a, b, mp.mpf(float(mat[a, b])))
             for a in range(len(c)) for b in range(len(c))
             if odd[a] == odd[b] and mat[a, b] != 0 and c[a] != 0 and c[b] != 0]
    cs = [_mp_complex(mp, x) for x in c]
    out = []
    for tau in taus:
        psi = [x * mp.expj(-mp.mpf(float(e)) * mp.mpf(float(tau)))
               for x, e in zip(cs, spec.energies)]
        out.append(float(mp.re(mp.fsum(mp.conj(psi[a]) * psi[b] * m
                                       for a, b, m in pairs))))
    return np.array(out)


def _mp_switch_off(mp, coeffs, taus):
    """cos = <e^{i theta}>, cos^2 = (sum|c|^2 + <e^{2i theta}>)/2."""
    cs = [_mp_complex(mp, x) for x in coeffs.c]
    j = range(-coeffs.j_max, coeffs.j_max + 1)
    norm = mp.fsum(abs(x) ** 2 for x in cs)
    cos, cos2 = [], []
    for tau in taus:
        psi = [x * mp.expj(-k * k * mp.mpf(float(tau))) for x, k in zip(cs, j)]
        band = [mp.fsum(mp.conj(psi[k + o]) * psi[k]
                        for k in range(len(psi) - o)) for o in (1, 2)]
        cos.append(float(mp.re(band[0])))
        cos2.append(float((norm + mp.re(band[1])) / 2))
    return np.array(cos), np.array(cos2)


@pytest.fixture(scope="module")
def series_errors():
    """Largest |library - oracle| of cos and cos^2, per switch kind, over
    the compared samples of every ORACLE_GRIDS grid."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    worst = {"switch_on": 0.0, "switch_off": 0.0}
    for eta, zeta, j0 in ORACLE_POINTS:
        spec = solve_spectrum(InteractionParams(eta, zeta), 20)
        for tau, picks in ORACLE_GRIDS:
            coeffs = switch_on_coefficients(spec, j0)
            series = switch_on_evolution(spec, coeffs, tau)
            for name in ("cos", "cos2"):
                want = _mp_switch_on(mp, spec, coeffs.c, name, tau[picks])
                err = np.abs(series[name].values[picks] - want).max()
                worst["switch_on"] = max(worst["switch_on"], err)
            for n0 in (0, 1, 2):
                coeffs = switch_off_coefficients(spec, n0)
                series = switch_off_evolution(coeffs, tau)
                for name, want in zip(("cos", "cos2"),
                                      _mp_switch_off(mp, coeffs, tau[picks])):
                    err = np.abs(series[name].values[picks] - want).max()
                    worst["switch_off"] = max(worst["switch_off"], err)
    return worst


def test_series_match_extended_precision(series_errors):
    assert series_errors["switch_on"] <= 2e-14
    assert series_errors["switch_off"] <= 5e-14


def test_series_phases_at_exp_rounding(series_errors):
    # exact phase arguments: no error that grows with |E - E_ref| * tau
    assert series_errors["switch_on"] <= 2e-15
    assert series_errors["switch_off"] <= 2e-15

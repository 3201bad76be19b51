"""Eigenproblem tests: frozen spectra, algebraic levels, crossing scans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import planar_pendulum.spectrum as spectrum_module
from planar_pendulum import (
    InteractionParams,
    SymmetryLabel,
    classify_symmetry,
    crossing_scan,
    make_grid,
    solve_spectrum,
)
from planar_pendulum.spectrum import (TAIL_TOL, _auto_j_max, _solve_chunk,
                                     _tail_bound)

# Full 9-state reference at (eta, zeta) = (-10, 25), checked against a
# j_max=128 solve (agreement 7e-14) before freezing.
STRONG_FIELD_ENERGIES = [
    -29.75000000033656,
    -19.749999516280777,
    -10.899673878438623,
    -10.811828637111228,
    -3.8734535039111764,
    -2.866678935017752,
    0.9115895281574578,
    4.858199081343724,
    5.91781369435089,
]
STRONG_FIELD_LABELS = ["A1", "A2", "A1", "A1", "A2", "A2", "A1", "A1", "A2"]


def test_free_rotor_levels():
    spec = solve_spectrum(InteractionParams(0.0, 0.0), 9)
    assert np.abs(spec.energies - np.array(
        [0, 1, 1, 4, 4, 9, 9, 16, 16], dtype=float)).max() < 1e-10


def test_strong_field_spectrum_frozen():
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 9)
    assert np.abs(spec.energies - np.array(STRONG_FIELD_ENERGIES)).max() < 1e-9
    assert [str(l) for l in spec.labels] == STRONG_FIELD_LABELS


@pytest.mark.parametrize("zeta", [9.0, 16.0, 25.0, 36.0])
def test_unit_index_ground_energy(zeta):
    # at |eta| = sqrt(zeta) the ground level sits exactly at -zeta
    spec = solve_spectrum(InteractionParams(-math.sqrt(zeta), zeta), 1)
    assert spec.energies[0] == pytest.approx(-zeta, abs=1e-9)


def test_index_three_algebraic_levels():
    # at |eta| = 3*sqrt(zeta), zeta=25: closed-form triple
    r = math.sqrt(401.0)
    expected = [-25.0 - (r - 1.0) / 2.0, -24.0, -25.0 + (1.0 + r) / 2.0]
    spec = solve_spectrum(InteractionParams(-15.0, 25.0), 5)
    found = spec.energies[[0, 1, 2]]
    assert np.abs(found - np.array(expected)).max() < 1e-9


def test_genuine_crossing_unit_index():
    recs = crossing_scan(16.0, (-6.0, -2.0), (1, 2), resolution=41)
    assert len(recs) == 1
    r = recs[0]
    assert r.kind == "genuine"
    assert r.eta_at_crossing == pytest.approx(-4.0, abs=1e-6)
    assert r.min_gap < 1e-9
    assert r.kappa == pytest.approx(1.0, abs=1e-6)


def test_avoided_crossing_frozen_gaps():
    r16 = crossing_scan(16.0, (-10.0, -6.0), (2, 3), resolution=41)[0]
    assert r16.kind == "avoided"
    assert r16.eta_at_crossing == pytest.approx(-8.00347439924505, abs=1e-6)
    assert r16.min_gap == pytest.approx(0.32255524090619225, abs=1e-9)

    r25 = crossing_scan(25.0, (-12.0, -8.0), (2, 3), resolution=41)[0]
    assert r25.eta_at_crossing == pytest.approx(-10.0, abs=0.05)
    assert r25.min_gap == pytest.approx(0.08784468228869890, abs=1e-9)

    r36 = crossing_scan(36.0, (-14.0, -10.0), (2, 3), resolution=41)[0]
    assert r36.min_gap == pytest.approx(0.02032028522071272, abs=1e-9)


@pytest.fixture
def counted_gaps(monkeypatch):
    """Count gap evaluations and raise past a bound, so that a refinement
    which never ends fails instead of hanging (a normal scan needs ~250)."""
    calls = []
    gap = spectrum_module._gap

    def bounded(*args):
        calls.append(args)
        if len(calls) > 2000:
            raise RuntimeError("gap evaluated more than 2000 times")
        return gap(*args)

    monkeypatch.setattr(spectrum_module, "_gap", bounded)
    return calls


@pytest.mark.parametrize("eta_tol", [0.0, -1e-9, float("nan")])
def test_crossing_scan_rejects_non_positive_tolerance(counted_gaps, eta_tol):
    with pytest.raises(ValueError, match="eta_tol"):
        crossing_scan(16.0, (-10.0, -6.0), (2, 3), resolution=41,
                      eta_tol=eta_tol)


def test_crossing_refinement_ends_at_float_spacing(counted_gaps):
    # 1e-15 is below the float spacing of eta near -8 (1.8e-15): the
    # bracket stops shrinking before it reaches the tolerance
    r = crossing_scan(16.0, (-10.0, -6.0), (2, 3), resolution=41,
                      eta_tol=1e-15)[0]
    assert r.eta_at_crossing == pytest.approx(-8.00347439924505, abs=1e-6)
    assert len(counted_gaps) < 300


@pytest.mark.parametrize("kappa,pair", [(1, (1, 2)), (3, (3, 4))])
@pytest.mark.parametrize("zeta", [16.0, 25.0, 36.0])
def test_genuine_crossings_at_float_spacing(kappa, pair, zeta):
    """Bisection of the signed sector difference ends at the float
    spacing of eta, on the exact doublet line eta = -kappa*sqrt(zeta)."""
    center = -kappa * math.sqrt(zeta)
    recs = crossing_scan(zeta, (center - 2.0, center + 2.0), pair,
                         resolution=41)
    assert len(recs) == 1 and recs[0].kind == "genuine"
    eta_c = recs[0].eta_at_crossing
    assert abs(eta_c - center) <= 1e-12 * max(1.0, abs(eta_c))
    assert 0.0 <= recs[0].min_gap <= 1e-12


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(1e-3, 3e3), zeta=st.floats(0.0, 1e4),
       n_states=st.sampled_from([1, 4, 20]), offset=st.integers(-8, 8))
def test_tail_bound_covers_the_measured_tail(eta, zeta, n_states, offset):
    # 1e-14: the eigh rounding floor of a measured tail
    params = InteractionParams(-eta, zeta)
    j_max = max(8, _auto_j_max(params, n_states) + offset,
                (n_states + 1) // 2)
    sp = _solve_chunk([params], np.arange(1), n_states, j_max).spectrum(0)
    bound = _tail_bound(eta, zeta, float(sp.energies.max()), j_max)
    assert bound + 1e-14 >= sp.basis_tail


# (zeta, window, pair): genuine (odd kappa), avoided (even kappa) and a
# window with no interior minimum
CROSSING_WINDOWS = [(25.0, (-7.0, -3.0), (1, 2)),
                    (25.0, (-12.0, -8.0), (2, 3)),
                    (36.0, (-20.0, -16.0), (3, 4)),
                    (16.0, (-10.0, -6.0), (1, 2))]


def test_uncertified_window_falls_back_to_guarded_solves(monkeypatch):
    certified = [crossing_scan(z, w, p, resolution=41)
                 for z, w, p in CROSSING_WINDOWS]
    assert all(scan.tail_bound <= 0.5 * TAIL_TOL for scan in certified)
    monkeypatch.setattr(spectrum_module, "_tail_bound",
                        lambda *args: math.inf)
    solves = []
    solve = spectrum_module.solve_spectrum
    monkeypatch.setattr(spectrum_module, "solve_spectrum",
                        lambda *args: solves.append(args) or solve(*args))
    for (z, w, p), want in zip(CROSSING_WINDOWS, certified):
        del solves[:]
        got = crossing_scan(z, w, p, resolution=41)
        assert len(solves) > 41 + 2 * len(got)     # every gap was guarded
        assert len(got) == len(want)
        for g, r in zip(got, want):
            assert g.kind == r.kind
            # an avoided minimum is flat: golden search on gaps rounded
            # at ~1e-14 places it only to ~sqrt(1e-14) = 1e-7
            tol = 1e-9 if r.kind == "genuine" else 1e-7
            assert abs(g.eta_at_crossing - r.eta_at_crossing) <= tol
            assert abs(g.min_gap - r.min_gap) <= 1e-12


def test_certified_window_solves_eigenvectors_once_per_record(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: calls.append(h.shape) or eigh(h))
    for z, w, p in CROSSING_WINDOWS:
        del calls[:]
        scan = crossing_scan(z, w, p, resolution=41)
        assert scan.tail_bound <= 0.5 * TAIL_TOL
        # two sectors per solve: the end point, then one per record
        assert len(calls) == 2 * (1 + len(scan))


def test_sector_bookkeeping():
    spec = solve_spectrum(InteractionParams(-7.0, 25.0), 10)
    a1, a2 = spec.sector_indices(SymmetryLabel.A1), spec.sector_indices(SymmetryLabel.A2)
    assert sorted(list(a1) + list(a2)) == list(range(10))
    grid = make_grid()
    for n in range(10):
        wf = spec.wavefunction(n, grid)
        assert classify_symmetry(wf) is spec.labels[n]


def test_variational_monotonicity():
    # enlarging the basis can only lower (or keep) each level
    p = InteractionParams(-10.0, 25.0)
    e48 = solve_spectrum(p, 9, j_max=48).energies
    e64 = solve_spectrum(p, 9, j_max=64).energies
    assert np.all(e64 <= e48 + 1e-12)


@settings(max_examples=15, deadline=None)
@given(eta=st.floats(-20.0, -0.1), zeta=st.floats(0.5, 30.0))
def test_spectrum_properties(eta, zeta):
    spec = solve_spectrum(InteractionParams(eta, zeta), 6)
    assert np.all(np.diff(spec.energies) >= -1e-12)
    assert spec.labels[0] is SymmetryLabel.A1
    # Rayleigh quotient of the stored eigenvector reproduces the eigenvalue
    grid = make_grid()
    params = InteractionParams(eta, zeta)
    for n in (0, 3):
        wf = spec.wavefunction(n, grid)
        assert wf.expectation_energy(params) == pytest.approx(
            float(spec.energies[n]), abs=1e-8)

"""The guarded basis cutoff: its choice, its refusals, the tie rule at the
state cut, and the eta = 0 Mathieu oracle."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planar_pendulum import (
    InteractionParams,
    SymmetryLabel,
    build_hamiltonian,
    crossing_scan,
    make_grid,
    solve_spectrum,
    switch_off_populations,
    switch_on_coefficients,
    time_averaged_orientation,
)
from planar_pendulum.cli import main
from planar_pendulum.elements import QUAD_GRID_POINTS
from planar_pendulum.spectrum import (
    J_MAX_CAP,
    TAIL_ROWS,
    TAIL_TOL,
    _TIE_ULPS,
)

special = pytest.importorskip("scipy.special")


def _mathieu_levels(zeta, count):
    # eta = 0: H = J^2 - zeta*cos^2 is Mathieu's operator with q = zeta/4;
    # its 2*pi-periodic levels are {a_m(q), b_m(q)} - zeta/2
    q = zeta / 4.0
    levels = ([special.mathieu_a(m, q) for m in range(count)]
              + [special.mathieu_b(m, q) for m in range(1, count)])
    return np.sort(levels)[:count] - zeta / 2.0


@pytest.mark.parametrize("zeta", [4.0, 25.0, 100.0])
def test_eta_zero_levels_are_mathieu_values(zeta):
    spec = solve_spectrum(InteractionParams(0.0, zeta), 12)
    np.testing.assert_allclose(spec.energies, _mathieu_levels(zeta, 12),
                               rtol=0, atol=1e-11)


def test_deep_well_ground_doublet_is_mathieu():
    # a fixed j_max = 64 gave E0 off by 0.18 here; scipy's values at
    # q = 5e4 are usable for the ground doublet (a_0, b_1) only
    zeta = 200000.0
    spec = solve_spectrum(InteractionParams(0.0, zeta), 4)
    q = zeta / 4.0
    ref = np.array([special.mathieu_a(0, q), special.mathieu_b(1, q)]) - zeta / 2
    np.testing.assert_allclose(spec.energies[:2], ref, rtol=1e-9, atol=0)
    assert spec.basis_tail <= TAIL_TOL


def test_fixed_cutoff_that_is_too_small_is_refused():
    with pytest.raises(ValueError, match="basis tail"):
        solve_spectrum(InteractionParams(0.0, 200000.0), 4, j_max=64)


def test_cli_refuses_a_short_cutoff(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["spectrum", "--eta", "0", "--zeta", "200000", "--n-states", "4"]
    assert main([*argv, "--j-max", "64"]) == 1
    assert "basis tail" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "spectrum.manifest.json").read_text())
    assert manifest["diagnostics"]["j_max"] > 64
    assert manifest["diagnostics"]["basis_tail"] <= TAIL_TOL


def test_cap_is_refused():
    with pytest.raises(ValueError, match=f"cap {J_MAX_CAP}"):
        solve_spectrum(InteractionParams(0.0, 1e12), 2)


@pytest.mark.parametrize("eta,zeta,n", [
    (0.0, 0.0, 20), (-35.0, 40.0, 20), (0.0, 5000.0, 20), (0.0, 0.0, 100),
    (-2000.0, 0.0, 20)])
def test_auto_cutoff_meets_the_tail_bound(eta, zeta, n):
    spec = solve_spectrum(InteractionParams(eta, zeta), n)
    assert spec.j_max % 8 == 0
    assert np.abs(spec.coefficients[:, -TAIL_ROWS:]).max() == spec.basis_tail
    assert spec.basis_tail <= TAIL_TOL


@pytest.mark.parametrize("j_max", [8, 24, 64])
def test_hamiltonian_equals_grid_quadrature(j_max):
    # <phi_i|H|phi_j> of the sector basis functions on a grid that
    # integrates their products exactly, with J^2 applied by FFT; measured
    # up to 3.6e-15 of max |H| (j_max 64, zeta 2e5), bound 1e-14
    grid = make_grid(QUAD_GRID_POINTS)
    j = np.arange(j_max + 1)
    even = np.cos(np.outer(j, grid.theta)) / math.sqrt(math.pi)
    even[0] /= math.sqrt(2.0)
    odd = np.sin(np.outer(j[1:], grid.theta)) / math.sqrt(math.pi)
    k2 = np.fft.fftfreq(grid.n_points, 1.0 / grid.n_points) ** 2
    for eta, zeta in ((-3.3, 7.1), (0.0, 0.0), (-35.0, 40.0), (0.0, 2e5)):
        v = -eta * np.cos(grid.theta) - zeta * np.cos(grid.theta) ** 2
        for h, f in zip(build_hamiltonian(InteractionParams(eta, zeta), j_max),
                        (even, odd)):
            hf = np.fft.ifft(k2 * np.fft.fft(f, axis=-1), axis=-1).real + v * f
            quad = f @ hf.T * grid.dtheta
            assert np.abs(quad - h).max() <= 1e-14 * np.abs(h).max()


def test_doublet_at_the_state_cut_keeps_its_even_member():
    # kappa = 3: states 19 and 20 are an exact A1/A2 doublet; which one a
    # 20-state solve kept used to follow eigh rounding (A1 at j_max = 32,
    # A2 at 40)
    p = InteractionParams(-18.0, 36.0)
    kept = [solve_spectrum(p, 20, j).labels[19]
            for j in (32, 40, 48, 64, 128, None)]
    assert kept == [SymmetryLabel.A1] * 6


def test_crossings_refuse_a_short_cutoff(tmp_path, monkeypatch, capsys):
    # the window's eigenvalue-only gaps do not bypass the cutoff guard
    monkeypatch.chdir(tmp_path)
    assert main(["crossings", "--zeta", "16", "--eta-range", "-6:-2:0.1",
                 "--pair", "1", "2", "--j-max", "8"]) == 1
    assert "basis tail" in capsys.readouterr().err
    assert not (tmp_path / "crossings.csv").exists()


def test_a_tight_cutoff_misses_the_window_certificate():
    # at j_max = 24 the end point passes its tail check (1.1e-13) but the
    # window bound does not reach TAIL_TOL/2, so every gap is a guarded
    # solve; the record still matches the automatic cutoff's
    tight = crossing_scan(16.0, (-10.0, -6.0), (2, 3), resolution=41,
                          j_max=24)
    auto = crossing_scan(16.0, (-10.0, -6.0), (2, 3), resolution=41)
    assert tight.basis_tail <= TAIL_TOL < 2.0 * tight.tail_bound
    assert auto.tail_bound <= 0.5 * TAIL_TOL
    assert [r.kind for r in tight] == [r.kind for r in auto] == ["avoided"]
    assert abs(tight[0].min_gap - auto[0].min_gap) <= 1e-12
    assert abs(tight[0].eta_at_crossing - auto[0].eta_at_crossing) <= 1e-7


def test_crossing_window_shares_one_cutoff():
    recs = crossing_scan(16.0, (-10.0, -6.0), (2, 3), resolution=41)
    far = solve_spectrum(InteractionParams(-10.0, 16.0), 4)
    assert [r.j_max for r in recs] == [far.j_max]
    assert recs[0].basis_tail <= TAIL_TOL


def test_switch_off_table_length_does_not_follow_the_cutoff():
    small = solve_spectrum(InteractionParams(-10.0, 25.0), 4)
    deep = solve_spectrum(InteractionParams(0.0, 200000.0), 4)
    assert small.j_max < 64 < deep.j_max
    assert len(switch_off_populations(small, 0)) == 65
    assert len(switch_off_populations(deep, 0)) == deep.j_max + 1


# Seven states: the cut then falls between two doublets at weak fields
# (after J = 3) and above the QES block at every odd kappa, so the kept
# set does not hang on a tie that rounding at j_max = 128 may break.
N_STATES = 7
J_REF = 128


@settings(max_examples=25, deadline=None)
@given(eta=st.one_of(st.just(0.0), st.floats(-35.0, 0.0)),
       zeta=st.one_of(st.just(0.0), st.floats(5.0, 40.0)))
def test_auto_cutoff_equals_a_wide_basis(eta, zeta):
    p = InteractionParams(eta, zeta)
    auto = solve_spectrum(p, N_STATES)
    wide = solve_spectrum(p, N_STATES, J_REF)
    # The wide solve rounds at a few ulps of its ||H|| (~1.5e-11), not at
    # the 1e-12 of the truncation check. That orders a cross-sector pair
    # closer than it either way (at (eta = -0.125, zeta = 0) the J = 3
    # pair, 8.3e-12 apart), so such pairs are compared as one level; and
    # it turns a state by up to rounding/gap towards its nearest
    # same-sector neighbour (first order), which sets the allowance of
    # per-state quantities: at (-1.6e-4, 40) the tunnelling doublet, 5e-4
    # apart, moves its populations by 1.3e-11 between cutoffs.
    rounding = _TIE_ULPS * np.finfo(float).eps * (J_REF ** 2 + abs(eta) + zeta)
    odd = np.array([lab is SymmetryLabel.A2 for lab in auto.labels])
    gap = min([np.diff(auto.energies[odd == o]).min() for o in (False, True)
               if np.count_nonzero(odd == o) > 1], default=np.inf)
    turn = 2.0 * rounding / gap
    levels = np.split(np.arange(N_STATES),
                      np.flatnonzero(np.diff(auto.energies) > 1e-9) + 1)

    def by_level(values):
        return [sorted(str(values[i]) for i in level) for level in levels]

    assert by_level(auto.labels) == by_level(wide.labels)
    assert np.abs(np.sort(auto.energies) - np.sort(wide.energies)).max() \
        <= 1e-12 + rounding
    for j0 in (0, 1, 2):
        a, w = switch_on_coefficients(auto, j0), switch_on_coefficients(wide, j0)
        pa, pw = np.abs(a.c) ** 2, np.abs(w.c) ** 2
        assert max(abs(pa[level].sum() - pw[level].sum())
                   for level in levels) <= 1e-12 + turn
        assert abs(time_averaged_orientation(auto, a, 4.0 * math.pi)
                   - time_averaged_orientation(wide, w, 4.0 * math.pi)) \
            <= 1e-12 + turn

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
    crossing_scan,
    make_grid,
    solve_spectrum,
    switch_off_populations,
    switch_on_coefficients,
    time_averaged_orientation,
)
import planar_pendulum.spectrum as spectrum_module
from planar_pendulum.cli import main
from planar_pendulum.spectrum import (
    CROSSING_RESOLUTION,
    J_MAX_CAP,
    TAIL_ROWS,
    TAIL_TOL,
    _TIE_ULPS,
    _auto_j_max,
    _hamiltonian_stack,
    _tail_bound,
    solve_stacks,
)
from planar_pendulum.twins import QUAD_GRID_POINTS

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
    params = InteractionParams(eta, zeta)
    spec = solve_spectrum(params, n)
    assert spec.j_max == _auto_j_max(params, n)
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
        for odd_sector, f in ((False, even), (True, odd)):
            h = _hamiltonian_stack(np.array([eta]), np.array([zeta]), j_max,
                                   odd_sector)[0]
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


def test_a_tight_cutoff_misses_the_window_certificate(tmp_path, monkeypatch,
                                                     capsys):
    # at j_max = 24 the end point passes its tail check (1.1e-13) but the
    # window bound does not reach TAIL_TOL/2: a given cutoff is refused,
    # not grown, as a single point's is
    with pytest.raises(ValueError, match="window tail bound .* at j_max=24"):
        crossing_scan(16.0, (-10.0, -6.0), (2, 3), resolution=41, j_max=24)
    assert solve_spectrum(InteractionParams(-10.0, 16.0), 4,
                          24).basis_tail <= TAIL_TOL
    assert crossing_scan(16.0, (-10.0, -6.0), (2, 3),
                         resolution=41).tail_bound <= 0.5 * TAIL_TOL
    monkeypatch.chdir(tmp_path)
    assert main(["crossings", "--zeta", "16", "--eta-range", "-10:-6:0.1",
                 "--pair", "2", "3", "--resolution", "41",
                 "--j-max", "24"]) == 1
    assert "window tail bound" in capsys.readouterr().err
    assert not (tmp_path / "crossings.csv").exists()


def _window_cutoff(zeta, window, count, resolution):
    """The cutoff crossing_scan picks before its scan: the smallest one,
    from the end point's guarded one on, at which the tail bound at the
    window's largest |eta| holds up to the end point's highest level plus
    the window width plus one coarse step."""
    lo, hi = window
    far = solve_spectrum(InteractionParams(lo, zeta), count)
    lam = (float(far.energies.max()) + (hi - lo)
           + (hi - lo) / (resolution - 1))
    j_max = far.j_max
    while _tail_bound(abs(lo), zeta, lam, j_max) > 0.5 * TAIL_TOL:
        j_max += 1
    return far.j_max, j_max


def test_crossing_window_shares_one_cutoff():
    recs = crossing_scan(16.0, (-10.0, -6.0), (2, 3), resolution=41)
    far, window = _window_cutoff(16.0, (-10.0, -6.0), 4, 41)
    assert [r.j_max for r in recs] == [recs.j_max] == [window]
    assert window >= far
    assert recs[0].basis_tail <= TAIL_TOL


# (zeta, window, pair): the README window, genuine (odd kappa) and avoided
# (even kappa) windows like the bench's, and one with no gap minimum
SCANNED_ONCE = [(16.0, (-10.0, -6.0), (2, 3)), (16.0, (-10.0, -6.0), (1, 2)),
                (9.5, (-4.316, -1.85), (1, 2)), (48.2, (-16.66, -11.11), (2, 3)),
                (30.0, (-18.62, -14.24), (3, 4)), (20.0, (-10.73, -7.16), (2, 3))]


@pytest.mark.parametrize("zeta,window,pair", SCANNED_ONCE)
def test_crossing_scan_runs_its_coarse_grid_once(monkeypatch, zeta, window,
                                                 pair):
    # the window's cutoff is certified before the scan, so no window is
    # scanned again; every other eigenvector solve is inside a guarded
    # solve (end point, records) or a gap-slope probe
    coarse, inner = [], []
    solve_chunk = spectrum_module._solve_chunk

    def counted(params, index, n_states, j_max):
        if not inner:
            coarse.append(([params[i].eta for i in index], n_states, j_max))
        return solve_chunk(params, index, n_states, j_max)

    def nested(name):
        f = getattr(spectrum_module, name)

        def wrapper(*args):
            inner.append(name)
            try:
                return f(*args)
            finally:
                inner.pop()
        monkeypatch.setattr(spectrum_module, name, wrapper)

    monkeypatch.setattr(spectrum_module, "_solve_chunk", counted)
    for name in ("solve_spectrum", "_pair_slope"):
        nested(name)
    scan = crossing_scan(zeta, window, pair)
    assert np.array_equal(np.concatenate([eta for eta, _, _ in coarse]),
                          np.linspace(*window, CROSSING_RESOLUTION))
    assert {(n, j) for _, n, j in coarse} == {(pair[1] + 1, scan.j_max)}
    assert scan.j_max == _window_cutoff(zeta, window, pair[1] + 1,
                                        CROSSING_RESOLUTION)[1]
    assert scan.tail_bound <= 0.5 * TAIL_TOL


def minimal_passing_cutoff(params, n_states):
    """The smallest j_max whose guarded solve passes the tail check,
    bisected over explicit cutoffs (a failing one is refused)."""
    def passes(j_max):
        try:
            solve_spectrum(params, n_states, j_max)
        except ValueError:
            return False
        return True

    lo, hi = max(8, -(-n_states // 2)) - 1, 16      # lo fails or is too small
    while not passes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


# (eta, zeta, n_states, smallest passing cutoff as measured): points of
# the README map window (eta in [-35, 0], zeta in [5, 40]), where the
# first guess must be at most 3 above the minimum (the most measured over
# the scan windows), then deep wells, where it must not miss
MAP_WINDOW_CUTOFFS = [(0.0, 5.0, 20, 24), (-35.0, 5.0, 20, 28),
                      (-10.0, 25.0, 20, 30), (-17.5, 22.5, 20, 30),
                      (-35.0, 40.0, 20, 33), (0.0, 40.0, 20, 30),
                      (0.0, 10.0, 9, 22), (-8.0, 12.0, 9, 23),
                      (-10.0, 25.0, 9, 26), (-5.0, 38.0, 9, 27),
                      (-2.0, 8.0, 4, 20), (-20.0, 10.0, 4, 23),
                      (-20.0, 30.0, 4, 27), (-35.0, 40.0, 4, 29)]
DEEP_WELL_CUTOFFS = [(0.0, 200000.0, 4, 165), (-5000.0, 10000.0, 20, 117),
                     (-100000.0, 200000.0, 20, 243),
                     (-20000.0, 190000.0, 20, 230), (-2000.0, 0.0, 20, 64),
                     (0.0, 5000.0, 20, 83)]


@pytest.mark.parametrize("eta,zeta,n,measured",
                         MAP_WINDOW_CUTOFFS + DEEP_WELL_CUTOFFS)
def test_first_guess_fits_the_smallest_passing_cutoff(eta, zeta, n, measured):
    params = InteractionParams(eta, zeta)
    least = minimal_passing_cutoff(params, n)
    guess = _auto_j_max(params, n)
    assert abs(least - measured) <= 1
    assert guess >= least
    if (eta, zeta, n, measured) in MAP_WINDOW_CUTOFFS:
        assert guess <= least + 3


def _box(eta, zeta, step):
    return [InteractionParams(float(e), float(z))
            for z in np.arange(zeta[0], zeta[1] + 1e-9, step)
            for e in np.arange(eta[0], eta[1] + 1e-9, step)]


@pytest.mark.parametrize("n_states", [20, 9, 4])
def test_scan_windows_pass_at_the_first_guess(n_states):
    # the README map (5041 points at 20 states) and the bench's map,
    # spectrum and switch-on windows (their hull: eta in [-35, 0], zeta in
    # [5, 40.5], and eta in [-20, 0], zeta in [8, 60]): no point grows
    windows = [_box((-35.0, 0.0), (5.0, 40.5), 1.0),
               _box((-20.0, 0.0), (8.0, 60.0), 1.0)]
    if n_states == 20:
        windows.append(_box((-35.0, 0.0), (5.0, 40.0), 0.5))
    for points in windows:
        grown = [p for stack in solve_stacks(points, n_states)
                 for p, g in zip(stack.params, stack.grown) if g]
        assert grown == []


def test_manifest_counts_the_cutoff_misses(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scan = ["--eta-range", "-10:-8:1", "--zeta", "25"]

    def misses(argv):
        assert main([*argv, "--output", "out.csv"]) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        return manifest["diagnostics"]["cutoff_misses"]

    commands = [["spectrum", *scan], ["switch-on", *scan, "--j0", "1"],
                ["switch-off", *scan, "--n0", "0"],
                ["topology-map", "--eta-range", "-10:-2.5:0.5",
                 "--zeta-range", "10:17.5:0.5", "--n-states", "4"]]
    assert [misses(argv) for argv in commands] == [0, 0, 0, 0]
    # a first guess of 16 misses at every point: each is counted once,
    # however often it grows
    monkeypatch.setattr(spectrum_module, "_auto_j_max", lambda p, n: 16)
    assert [misses(argv) for argv in commands] == [3, 3, 3, 256]
    assert misses(["spectrum", *scan, "--j-max", "64"]) == 0


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

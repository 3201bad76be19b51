"""Stacked scan solves: every point of solve_stacks equals its own
solve_spectrum bit for bit, and the map, spectrum, switch-on and switch-off
scans that use the stacks keep the per-point results and errors."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from planar_pendulum import (
    InteractionParams,
    PendularSpectrum,
    SymmetryLabel,
    sector_element_matrix,
    solve_spectrum,
    solve_stacks,
    switch_on_coefficients,
    time_averaged_orientation,
    topology_map,
)
import planar_pendulum.spectrum as spectrum_module
from planar_pendulum.cli import main
from planar_pendulum.spectrum import (
    _auto_j_max,
    _banded,
    _chunk_size,
    _element_stack,
    _sector_bands,
)


def assert_points_equal(points, n_states, j_max=None):
    """Each point of solve_stacks once, equal to solve_spectrum."""
    seen = []
    for stack in solve_stacks(points, n_states, j_max):
        for p, i in enumerate(stack.index.tolist()):
            seen.append(i)
            got, want = stack.spectrum(p), solve_spectrum(points[i], n_states,
                                                          j_max)
            assert got.params is points[i]
            assert np.array_equal(got.energies, want.energies)
            assert got.labels == want.labels
            assert np.array_equal(got.coefficients, want.coefficients)
            assert got.j_max == want.j_max == stack.j_max
            assert got.basis_tail == want.basis_tail
            assert got.cut_gap == want.cut_gap
    assert sorted(seen) == list(range(len(points)))


# the README map window, with its eta = 0 and zeta = 0 edges
ETA = st.one_of(st.just(0.0), st.floats(-35.0, 0.0))
ZETA = st.one_of(st.just(0.0), st.floats(0.0, 40.0))


@settings(max_examples=20, deadline=None)
@given(points=st.lists(st.tuples(ETA, ZETA), min_size=1, max_size=24),
       n_states=st.sampled_from([1, 7, 20]))
def test_stacked_points_equal_their_own_solves(points, n_states):
    assert_points_equal([InteractionParams(e, z) for e, z in points],
                        n_states)


def test_a_point_that_grows_its_cutoff_among_ordinary_ones(monkeypatch):
    # the automatic first guess misses no point of a wide sample, so the
    # two deep wells are given 176 as theirs: they share that cutoff and
    # fail their tails there; the first passes at 224, the second at 280
    guess = spectrum_module._auto_j_max
    monkeypatch.setattr(spectrum_module, "_auto_j_max",
                        lambda p, n: 176 if p.zeta > 1e5 else guess(p, n))
    points = [InteractionParams(e, z) for e, z in
              [(-10.0, 25.0), (0.0, 2e5), (0.0, 0.0), (-2e4, 1.9e5),
               (-35.0, 5.0)]]
    cutoffs, grown = {}, {}
    for stack in solve_stacks(points, 20):
        for i, g in zip(stack.index.tolist(), stack.grown.tolist()):
            cutoffs[i], grown[i] = stack.j_max, g
    assert [cutoffs[i] for i in range(5)] == [31, 224, 19, 280, 30]
    assert [grown[i] for i in range(5)] == [False, True, False, True, False]
    assert_points_equal(points, 20)


def test_a_window_over_several_cutoffs_stacks_each_apart():
    # the first guess is an integer, so a map window spans several
    # cutoffs (27 to 34 here): each chunk holds points of one, smallest
    # first, and every point equals its own solve
    points = [InteractionParams(float(e), float(z))
              for z in (5, 12, 20, 30, 40) for e in (-35, -20, -10, 0)]
    stacks = list(solve_stacks(points, 20))
    cutoffs = [s.j_max for s in stacks]
    assert len(set(cutoffs)) >= 3 and cutoffs == sorted(cutoffs)
    for s in stacks:
        assert {_auto_j_max(p, 20) for p in s.params} == {s.j_max}
        assert not s.grown.any()
    assert_points_equal(points, 20)


def test_the_near_doublet_keeps_its_member_in_a_stack():
    # states 20 and 21 are an A1/A2 pair 1.4e-11 apart at this point
    doublet = InteractionParams(-28.494148325036885, 0.0)
    points = [InteractionParams(-28.0, 1.0), doublet,
              InteractionParams(-29.0, 0.0)]
    assert_points_equal(points, 20)
    stack = next(s for s in solve_stacks(points, 20) if 1 in s.index)
    p = stack.index.tolist().index(1)
    assert stack.spectrum(p).labels[19] is SymmetryLabel.A2
    assert 0 < stack.cut_gap[p] < 1e-10


def test_chunks_split_a_long_scan():
    points = [InteractionParams(-10.0 - 0.01 * k, 25.0) for k in range(45)]
    stacks = list(solve_stacks(points, 9))
    assert len(stacks) > 1
    assert [len(s.index) for s in stacks[:-1]] == [
        _chunk_size(s.j_max) for s in stacks[:-1]]
    assert_points_equal(points, 9)


def _dense_sector_products(coefficients, odd, operator):
    # V O V^T over each sector's rows with that sector's own dense operator
    j_max = coefficients.shape[-1] - 1
    mat = np.zeros(odd.shape * 2)
    for sector in (False, True):
        _, q0, c1, q2 = _sector_bands(j_max, sector)
        op = (_banded(np.zeros(len(q0)), c1, 0.0) if operator == "cos"
              else _banded(q0, 0.0, q2))
        rows = np.flatnonzero(odd == sector)
        v = coefficients[rows, int(sector):]
        mat[np.ix_(rows, rows)] = v @ op @ v.T
    return mat


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), points=st.integers(1, 12),
       n_states=st.integers(1, 20), j_max=st.integers(8, 48))
def test_stacked_element_matrices_equal_each_points_own(seed, points, n_states,
                                                        j_max):
    # random unit states with a random A1/A2 pattern per point, odd rows in
    # the padded layout (slot 0 zero)
    rng = np.random.default_rng(seed)
    odd = rng.random((points, n_states)) < 0.5
    coeffs = rng.standard_normal((points, n_states, j_max + 1))
    coeffs[..., 0][odd] = 0.0
    coeffs /= np.linalg.norm(coeffs, axis=-1, keepdims=True)
    for op in ("cos", "cos2"):
        stacked = _element_stack(coeffs, odd, op)
        for p in range(points):
            spec = PendularSpectrum(
                params=InteractionParams(0.0, 0.0),
                energies=np.zeros(n_states), coefficients=coeffs[p],
                odd=odd[p], j_max=j_max, basis_tail=0.0, cut_gap=math.inf)
            own = sector_element_matrix(spec, op)
            assert np.array_equal(stacked[p], own)
            dense = _dense_sector_products(coeffs[p], odd[p], op)
            # measured up to 6.7e-16 over 3000 such stacks
            assert np.abs(own - dense).max() <= 2e-15


def test_map_values_equal_the_time_average_of_each_solve():
    tm = topology_map((0.0, 30.0), (-30.0, 0.0), 1, 4.0 * math.pi, (16, 16),
                      n_states=8)
    for i in (0, 5, 15):
        for k in (0, 7, 15):
            spec = solve_spectrum(InteractionParams(float(tm.eta_values[i]),
                                                    float(tm.zeta_values[k])),
                                  8)
            want = time_averaged_orientation(
                spec, switch_on_coefficients(spec, 1), 4.0 * math.pi)
            assert tm.values[i, k] == want


def test_a_short_fixed_cutoff_names_the_first_failing_point(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    monkeypatch.chdir(tmp_path)
    etas, zetas = (-4.0, -2.0, 0.0), (10.0, 30.0, 50.0)
    first = None
    for zeta in zetas:                      # the CLI's scan order
        for eta in etas:
            try:
                solve_spectrum(InteractionParams(eta, zeta), 9, 24)
            except ValueError:
                first = first or (eta, zeta)
    assert first is not None and first != (etas[0], zetas[0])
    # switch-off solves n0 + 1 states, so n0 = 8 asks for the same 9
    for command, states in (("spectrum", ["--n-states", "9"]),
                            ("switch-on", ["--n-states", "9"]),
                            ("switch-off", ["--n0", "8"])):
        assert main([command, "--eta-range", "-4:0:2", "--zeta-range",
                     "10:50:20", *states, "--j-max", "24"]) == 1
        err = capsys.readouterr().err
        assert "basis tail" in err
        assert f"eta={first[0]}, zeta={first[1]}," in err
        assert not (tmp_path / f"{command}.csv").exists()


def test_scan_rows_keep_scan_order(tmp_path, monkeypatch):
    # the cutoff grows with zeta, so stacks come out of scan order
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--eta-range", "-2:0:1", "--zeta-range",
                 "0:6000:3000", "--n-states", "3", "--output", "s.csv"]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "s.csv").read_text().splitlines()[1:]]
    points = [(float(r[0]), float(r[1])) for r in rows[::3]]
    assert points == [(e, z) for z in (0.0, 3000.0, 6000.0)
                      for e in (-2.0, -1.0, 0.0)]
    for r in rows:
        spec = solve_spectrum(InteractionParams(float(r[0]), float(r[1])), 3)
        n = int(r[2])
        assert r[3] == str(spec.labels[n])
        assert r[4] == "%.15g" % spec.energies[n]

"""Eigenproblem tests: frozen spectra, algebraic levels, crossing scans."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import planar_pendulum.spectrum as spectrum_module
from planar_pendulum import (
    InteractionParams,
    SymmetryLabel,
    crossing_scan,
    make_grid,
    solve_spectrum,
)
from planar_pendulum.spectrum import (
    CROSSING_RESOLUTION,
    TAIL_TOL,
    _auto_j_max,
    _hamiltonian_stack,
    _merge,
    _pair_slope,
    _root,
    _sector_difference,
    _sector_gap,
    _solve_chunk,
    _tail_bound,
)
from planar_pendulum.twins import classify_symmetry

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

# The (2, 3) avoided minimum at zeta = 16, the root of the gap slope; the
# full-basis root of test_avoided_crossing_is_the_root_of_the_gap_slope
# is the same float.
AVOIDED_ETA_16 = -8.003474405441109


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
    assert r16.eta_at_crossing == pytest.approx(AVOIDED_ETA_16, abs=1e-12)
    assert r16.min_gap == pytest.approx(0.32255524090619225, abs=1e-9)

    r25 = crossing_scan(25.0, (-12.0, -8.0), (2, 3), resolution=41)[0]
    assert r25.eta_at_crossing == pytest.approx(-10.0, abs=0.05)
    assert r25.min_gap == pytest.approx(0.08784468228869890, abs=1e-9)

    r36 = crossing_scan(36.0, (-14.0, -10.0), (2, 3), resolution=41)[0]
    assert r36.min_gap == pytest.approx(0.02032028522071272, abs=1e-9)


@pytest.mark.parametrize("pair", [(1, 3), (2, 2), (-1, 0)])
def test_crossing_scan_refuses_a_bad_pair(pair):
    # (-1, 0) is adjacent, but has no state -1: refused, not an empty scan
    with pytest.raises(ValueError, match="adjacent states"):
        crossing_scan(16.0, (-10.0, -6.0), pair, resolution=41)


@pytest.fixture
def counted_probes(monkeypatch):
    """Record every refinement probe as (eta, value), and raise past a
    bound, so that a refinement which never ends fails instead of hanging
    (a window needs at most 30)."""
    calls = []

    def bounded(probe):
        def wrapper(eta, *args):
            if len(calls) >= 2000:
                raise RuntimeError("probed more than 2000 times")
            calls.append((eta, probe(eta, *args)))
            return calls[-1][1]
        return wrapper

    for name in ("_pair_slope", "_sector_gap"):
        monkeypatch.setattr(spectrum_module, name,
                            bounded(getattr(spectrum_module, name)))
    return calls


@pytest.mark.parametrize("eta_tol", [0.0, -1e-9, float("nan")])
def test_crossing_scan_rejects_non_positive_tolerance(counted_probes,
                                                      eta_tol):
    # the roots are placed at the float spacing of eta, so the scan takes
    # no tolerance at all: any value is refused before a probe is made
    with pytest.raises(TypeError, match="eta_tol"):
        crossing_scan(16.0, (-10.0, -6.0), (2, 3), resolution=41,
                      eta_tol=eta_tol)
    assert counted_probes == []


# (zeta, window, pair): genuine (odd kappa), avoided (even kappa) and a
# window with no gap minimum
CROSSING_WINDOWS = [(25.0, (-7.0, -3.0), (1, 2)),
                    (25.0, (-12.0, -8.0), (2, 3)),
                    (36.0, (-20.0, -16.0), (3, 4)),
                    (16.0, (-10.0, -6.0), (1, 2))]


def test_crossing_refinement_ends_at_float_spacing(counted_probes):
    """The root finder stops at a probe whose float neighbour on one side
    was probed with the opposite sign (or at a zero), within 30 probes
    per window; CROSSING_RESOLUTION points is the README window's
    default."""
    windows = CROSSING_WINDOWS + [(16.0, (-10.0, -6.0), (2, 3))]
    for (z, w, p), resolution in itertools.product(
            windows, (41, CROSSING_RESOLUTION, 200)):
        del counted_probes[:]
        scan = crossing_scan(z, w, p, resolution=resolution)
        assert len(counted_probes) <= 30
        if not scan:
            continue
        eta_c = scan[0].eta_at_crossing
        probed = dict(counted_probes)
        sign = np.sign(probed[eta_c])
        assert sign == 0.0 or any(
            np.sign(probed.get(np.nextafter(eta_c, side), 0.0)) == -sign
            for side in (-np.inf, np.inf))


def _full_basis_gap_slope(eta: float, zeta: float, n: int,
                          m_max: int = 64) -> float:
    """d(E_{n+1} - E_n)/d(eta) = <n|cos|n> - <n+1|cos|n+1> from numpy eigh
    in the full basis exp(i*m*theta), m = -m_max..m_max (as in
    test_acceptance._full_basis_slowest_beat): independent of the
    parity-split bands; cos couples m and m + 1 with 1/2."""
    m = np.arange(-m_max, m_max + 1)
    h = np.diag(m ** 2 - zeta / 2.0)
    for k, w in ((1, -eta / 2.0), (2, -zeta / 4.0)):
        h += w * (np.eye(len(m), k=k) + np.eye(len(m), k=-k))
    vecs = np.linalg.eigh(h)[1]
    cos = np.einsum("mn,mn->n", vecs[:-1], vecs[1:])
    return float(cos[n] - cos[n + 1])


def _bisect_root(f, a: float, b: float) -> float:
    fa = f(a)
    while a < 0.5 * (a + b) < b:
        c = 0.5 * (a + b)
        fc = f(c)
        if (fc < 0.0) == (fa < 0.0):
            a, fa = c, fc
        else:
            b = c
    return a


AVOIDED_WINDOWS = [(16.0, (-10.0, -6.0)), (25.0, (-12.0, -8.0)),
                   (36.0, (-14.0, -10.0))]


@pytest.mark.parametrize("zeta,window", AVOIDED_WINDOWS)
def test_avoided_crossing_is_the_root_of_the_gap_slope(zeta, window):
    """eta_c of an avoided minimum is the root of the Hellmann-Feynman
    gap slope of a full-basis solve, to 1e-12, and the same to
    1e-14*|eta_c| whatever the coarse scan and the cutoff."""
    scan = crossing_scan(zeta, window, (2, 3), resolution=41)
    assert [r.kind for r in scan] == ["avoided"]
    eta_c = scan[0].eta_at_crossing
    oracle = _bisect_root(lambda e: _full_basis_gap_slope(e, zeta, 2),
                          eta_c - 0.05, eta_c + 0.05)
    assert abs(eta_c - oracle) <= 1e-12
    for resolution in (41, 200, 333):
        for j_max in (None, scan.j_max + 16):
            again = crossing_scan(zeta, window, (2, 3), resolution=resolution,
                                  j_max=j_max)
            assert abs(again[0].eta_at_crossing - eta_c) \
                <= 1e-14 * abs(eta_c)
    # off the minimum, the slope is the derivative of the eigenvalue gap
    h = 1e-5

    def gap(eta):
        e = solve_spectrum(InteractionParams(eta, zeta), 4, scan.j_max).energies
        return e[3] - e[2]

    for eta in (eta_c - 0.7, eta_c - 0.3, eta_c + 0.4):
        slope = spectrum_module._pair_slope(eta, zeta, (2, 3), scan.j_max)
        assert abs(slope - (gap(eta + h) - gap(eta - h)) / (2 * h)) <= 1e-8


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


def test_coarse_slopes_are_the_probes():
    # an avoided bracket starts from two coarse slopes, so each must be the
    # float that a refinement probe returns at its eta
    zeta, pair, j_max = 16.0, (2, 3), 32
    etas = np.linspace(-10.0, -6.0, CROSSING_RESOLUTION)
    stack = _solve_chunk([InteractionParams(float(e), zeta) for e in etas],
                         np.arange(len(etas)), pair[1] + 1, j_max)
    coarse = spectrum_module._gap_slope(stack.coefficients, stack.odd, pair)
    assert coarse.tolist() == [_pair_slope(float(e), zeta, pair, j_max)
                               for e in etas]


def _interior_minimum_scan(zeta, window, pair, resolution=200):
    """The former coarse scan, kept as a reference for crossing_scan:
    resolution points of sector eigenvalues alone, each interior point
    whose gap is below both neighbours refined inside them by _root, an
    avoided minimum from gap-slope probes at both bracket ends. Its
    cutoff is picked as crossing_scan picks its own. Returns
    (eta_c, kind, min_gap) per record."""
    lo, hi = window
    etas = np.linspace(lo, hi, resolution)
    zetas = np.full_like(etas, zeta)
    step, count = (hi - lo) / (resolution - 1), pair[1] + 1
    end = solve_spectrum(InteractionParams(
        etas[-1] if abs(hi) > abs(lo) else etas[0], zeta), count)
    lam, cutoff = float(end.energies.max()) + (hi - lo) + step, end.j_max
    while _tail_bound(max(abs(lo), abs(hi)), zeta, lam, cutoff) \
            > 0.5 * TAIL_TOL:
        cutoff += 8
    w1, w2 = (np.linalg.eigvalsh(_hamiltonian_stack(etas, zetas, cutoff, odd))
              for odd in (False, True))
    energies, odd = _merge(etas, zetas, w1, w2, count, cutoff)[:2]
    gaps = energies[:, pair[1]] - energies[:, pair[0]]
    records = []
    for k in range(1, resolution - 1):
        if not (gaps[k] < gaps[k - 1] and gaps[k] <= gaps[k + 1]):
            continue
        ranks = (int(np.sum(~odd[k])) - 1, int(np.sum(odd[k])) - 1)
        a, b = etas[k - 1], etas[k + 1]
        fa, fb = (_sector_difference(energies[i], odd[i], ranks)
                  for i in (k - 1, k + 1))
        genuine = odd[k, pair[0]] != odd[k, pair[1]] and fa * fb <= 0.0
        if genuine:
            probe = lambda e: _sector_gap(e, zeta, count, cutoff, ranks)
        else:
            probe = lambda e: _pair_slope(e, zeta, pair, cutoff)
            fa, fb = probe(a), probe(b)
            assert fa <= 0.0 <= fb
        eta_c = _root(probe, a, b, fa, fb)
        e = solve_spectrum(InteractionParams(eta_c, zeta), count,
                           cutoff).energies
        records.append((eta_c, "genuine" if genuine else "avoided",
                        float(abs(e[pair[1]] - e[pair[0]]))))
    return records


def _kappa_window(kappa, zeta):
    """A window like the benchmark's: kappa +- 0.4 on pair (kappa, kappa+1)."""
    root = math.sqrt(zeta)
    return zeta, (-(kappa + 0.4) * root, -(kappa - 0.4) * root), \
        (kappa, kappa + 1)


def _wide_window(n, zeta):
    """Pair (n, n+1) over |eta|/sqrt(zeta) in [0.5, 5.5]."""
    root = math.sqrt(zeta)
    return zeta, (-5.5 * root, -0.5 * root), (n, n + 1)


# the README window, CROSSING_WINDOWS, kappa = 1-5 at 5 of 24 zeta in
# [9, 49], and one wide window per pair (0, 1) to (4, 5)
COMPARED_WINDOWS = (
    [(16.0, (-10.0, -6.0), (2, 3))] + CROSSING_WINDOWS
    + [_kappa_window(kappa, zeta) for kappa in range(1, 6)
       for zeta in np.linspace(9.0, 49.0, 24)[::5].tolist()]
    + [_wide_window(n, zeta) for n, zeta in
       zip(range(5), (9.0, 16.0, 25.0, 36.0, 49.0))])


def test_slope_scan_finds_the_interior_minima():
    """The gap-slope scan at its default resolution finds the records of
    the 200-point interior-minimum scan, in order and of the same kind,
    eta_c within 1e-13 and min_gap within 1e-12."""
    found = 0
    for z, w, p in COMPARED_WINDOWS:
        scan = crossing_scan(z, w, p)
        want = _interior_minimum_scan(z, w, p)
        assert [r.kind for r in scan] == [kind for _, kind, _ in want]
        for r, (eta_c, _, gap) in zip(scan, want):
            assert abs(r.eta_at_crossing - eta_c) <= 1e-13
            assert abs(r.min_gap - gap) <= 1e-12
        found += len(scan)
    assert found >= len(COMPARED_WINDOWS) - 1      # one window has none


@pytest.mark.parametrize("zeta,eta_c,pair,kind", [
    (16.0, AVOIDED_ETA_16, (2, 3), "avoided"),
    (16.0, -4.0, (1, 2), "genuine")])
def test_slope_scan_brackets_a_minimum_at_the_window_edge(zeta, eta_c, pair,
                                                          kind):
    # the minimum lies half a 200-point step inside the window: the
    # interior-minimum rule never looks there, the slope sign does
    for window in ((eta_c - 0.01, eta_c + 3.99), (eta_c - 3.99, eta_c + 0.01)):
        assert 0.01 < (window[1] - window[0]) / 199
        assert _interior_minimum_scan(zeta, window, pair) == []
        scan = crossing_scan(zeta, window, pair)
        assert [r.kind for r in scan] == [kind]
        assert abs(scan[0].eta_at_crossing - eta_c) <= 1e-13


def test_uncertified_window_grows_its_cutoff(monkeypatch):
    certified = [crossing_scan(z, w, p, resolution=41)
                 for z, w, p in CROSSING_WINDOWS]
    assert all(scan.tail_bound <= 0.5 * TAIL_TOL for scan in certified)
    bound = spectrum_module._tail_bound
    for (z, w, p), want in zip(CROSSING_WINDOWS, certified):
        # certified only from the first grown cutoff on
        grown = 8 * math.ceil(1.25 * want.j_max / 8)
        monkeypatch.setattr(
            spectrum_module, "_tail_bound",
            lambda eta, zeta, lam, j_max: (bound(eta, zeta, lam, j_max)
                                           if j_max >= grown else math.inf))
        got = crossing_scan(z, w, p, resolution=41)
        assert got.j_max == grown > want.j_max
        assert got.tail_bound <= 0.5 * TAIL_TOL
        assert [r.j_max for r in got] == [grown] * len(got)
        assert [r.kind for r in got] == [r.kind for r in want]
        for g, r in zip(got, want):
            assert abs(g.eta_at_crossing - r.eta_at_crossing) \
                <= 1e-14 * abs(r.eta_at_crossing)
            assert abs(g.min_gap - r.min_gap) <= 1e-12


def test_certified_window_solves_eigenvectors_once_per_record(monkeypatch,
                                                             counted_probes):
    calls, slopes = [], []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: calls.append(h.shape) or eigh(h))
    pair_slope = spectrum_module._pair_slope
    monkeypatch.setattr(spectrum_module, "_pair_slope",
                        lambda *a: slopes.append(a) or pair_slope(*a))
    for z, w, p in CROSSING_WINDOWS:
        del calls[:], slopes[:], counted_probes[:]
        scan = crossing_scan(z, w, p, resolution=41)
        assert scan.tail_bound <= 0.5 * TAIL_TOL
        # two sectors per solve: each stacked chunk of the coarse scan, the
        # end point, one per record, and one per gap-slope probe of an
        # avoided minimum (its bracket ends are coarse points); genuine
        # crossings are probed on eigenvalues alone
        chunks = math.ceil(41 / spectrum_module._chunk_size(scan.j_max))
        assert len(calls) == 2 * (chunks + 1 + len(scan) + len(slopes))
        assert not {eta for eta, *_ in slopes} & set(np.linspace(*w, 41))


def test_sector_bookkeeping():
    spec = solve_spectrum(InteractionParams(-7.0, 25.0), 10)
    assert set(spec.labels) <= {SymmetryLabel.A1, SymmetryLabel.A2}
    assert len(spec.labels) == 10
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

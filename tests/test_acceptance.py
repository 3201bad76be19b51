"""Acceptance gate.

Each test covers one shipped claim end to end and prints a single
verdict line (run with -s to see them as they happen; they also appear
in captured output on failure). Tolerances and runtime bounds are fixed
here and must not be loosened to make a failing claim pass.
"""

import math
import time
from typing import Tuple

import numpy as np

from planar_pendulum import (
    InteractionParams,
    PulseSchedule,
    SymmetryLabel,
    crossing_scan,
    dominant_coherence_period,
    free_rotor_wavefunction,
    make_grid,
    make_tau_grid,
    propagate,
    solve_spectrum,
    switch_off_evolution,
    switch_on_evolution,
    topology_map,
)
from planar_pendulum.propagate import _run
from planar_pendulum.twins import (
    algebraic_ansatz,
    analytic_switch_off_coefficients,
    analytic_switch_on_coefficient,
    grid_state,
    hellmann_feynman_residual,
    kinetic_identity_residual,
    quadrature_switch_off_coefficients,
    quadrature_switch_on_coefficients,
)
from planar_pendulum.validation import _free_rotor_row

TWO_PI = 2.0 * math.pi


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}",
          flush=True)
    return ok


def test_criterion_01_free_rotor_spectrum():
    t0 = time.perf_counter()
    spec = solve_spectrum(InteractionParams(0.0, 0.0), 9, 64)
    elapsed = time.perf_counter() - t0
    expected = np.array([0, 1, 1, 4, 4, 9, 9, 16, 16], dtype=float)
    worst = float(np.abs(spec.energies - expected).max())
    ok = worst < 1e-10 and elapsed < 1.0
    assert report(1, ok,
                  f"free-rotor levels, max dev {worst:.1e}, {elapsed:.2f}s")


def test_criterion_02_crossing_loci():
    pair_for = {1: (1, 2), 2: (2, 3), 3: (3, 4)}
    t0 = time.perf_counter()
    worst_pos, worst_odd_gap, worst_even_gap = 0.0, 0.0, math.inf
    for zeta in (16.0, 25.0, 36.0):
        for kappa in (1, 2, 3):
            center = -kappa * math.sqrt(zeta)
            recs = crossing_scan(zeta, (center - 2.0, center + 2.0),
                                 pair_for[kappa], resolution=41)
            assert len(recs) == 1, f"zeta={zeta} kappa={kappa}: {len(recs)} hits"
            r = recs[0]
            worst_pos = max(worst_pos, abs(r.eta_at_crossing - center))
            if kappa % 2:
                assert r.kind == "genuine"
                worst_odd_gap = max(worst_odd_gap, r.min_gap)
            else:
                assert r.kind == "avoided"
                worst_even_gap = min(worst_even_gap, r.min_gap)
    elapsed = time.perf_counter() - t0
    ok = (worst_pos < 0.05 and worst_odd_gap < 1e-6
          and worst_even_gap > 1e-3 and elapsed < 30.0)
    assert report(2, ok, (f"9 loci: |pos err| {worst_pos:.1e}, odd gap "
                          f"{worst_odd_gap:.1e}, even gap {worst_even_gap:.1e}, "
                          f"{elapsed:.1f}s"))


def test_criterion_03_switch_coefficient_routes():
    t0 = time.perf_counter()
    grid = make_grid()
    worst_off = worst_on = 0.0
    for kappa in (1, 3):
        eta = -kappa * math.sqrt(25.0)
        spec = solve_spectrum(InteractionParams(eta, 25.0), kappa + 2)
        for n in range(kappa):
            ans = algebraic_ansatz(spec.params)[n]
            ca = analytic_switch_off_coefficients(ans, j_max=64)
            cq = quadrature_switch_off_coefficients(spec, n, j_max=64,
                                                    grid=grid)
            worst_off = max(worst_off, float(np.abs(ca.c - cq.c).max()))
            for j0 in (0, 1, 2, 3):
                on = analytic_switch_on_coefficient(ans, j0)
                ref = quadrature_switch_on_coefficients(spec, j0, grid).c[n]
                worst_on = max(worst_on, abs(on - ref))
    elapsed = time.perf_counter() - t0
    ok = worst_off < 1e-8 and worst_on < 1e-8 and elapsed < 10.0
    assert report(3, ok, (f"analytic vs quadrature: off {worst_off:.1e}, "
                          f"on {worst_on:.1e}, {elapsed:.1f}s"))


def test_criterion_04_coefficient_structure():
    jm = 64
    worst_sym = worst_parseval = worst_tail = worst_a2_on = 0.0
    # algebraic states at kappa=3 plus generic quadrature states at -10
    spec3 = solve_spectrum(InteractionParams(-15.0, 25.0), 5)
    sets = [analytic_switch_off_coefficients(ans, j_max=jm)
            for ans in algebraic_ansatz(spec3.params)]
    spec_g = solve_spectrum(InteractionParams(-10.0, 25.0), 6)
    sets += [quadrature_switch_off_coefficients(spec_g, n, j_max=jm)
             for n in range(4)]
    kinds = ([spec3.labels[n] for n in range(3)]
             + [spec_g.labels[n] for n in range(4)])
    for co, label in zip(sets, kinds):
        c = co.c
        if label is SymmetryLabel.A1:
            worst_sym = max(worst_sym,
                            float(np.abs(c[jm + 1:] - c[:jm][::-1]).max()),
                            float(np.abs(c.imag).max()))
        else:
            worst_sym = max(worst_sym,
                            float(np.abs(c[jm + 1:] + c[:jm][::-1]).max()),
                            float(np.abs(c.real).max()), abs(c[jm]))
        worst_parseval = max(worst_parseval, abs(co.parseval() - 1.0))
        worst_tail = max(worst_tail,
                         max(abs(co.coefficient(j)) for j in range(55, jm + 1)))
    c_on0 = quadrature_switch_on_coefficients(spec_g, 0)
    for n in range(6):
        if spec_g.labels[n] is SymmetryLabel.A2:
            worst_a2_on = max(worst_a2_on, abs(c_on0.c[n]))
    ok = (worst_sym < 1e-12 and worst_parseval < 1e-8
          and worst_tail < 1e-10 and worst_a2_on < 1e-12)
    assert report(4, ok, (f"symmetry {worst_sym:.1e}, Parseval "
                          f"{worst_parseval:.1e}, tail {worst_tail:.1e}, "
                          f"A2 from J0=0 {worst_a2_on:.1e}"))


def test_criterion_05_recurrence_identities():
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 2)
    co = quadrature_switch_off_coefficients(spec, 0)
    n = 2048
    tau = np.arange(n) * (2.0 * TWO_PI / n)       # [0, 4pi), step 4pi/2048
    s = switch_off_evolution(co, tau)
    cos_v, cos2_v = s["cos"].values, s["cos2"].values
    r_full = float(np.abs(cos_v[n // 2:] - cos_v[:-n // 2]).max())
    r_half = float(np.abs(cos_v[n // 4:] + cos_v[:-n // 4]).max())
    r_quarter = float(np.abs(cos2_v[n // 8:] - cos2_v[:-n // 8]).max())
    j2 = s["J2"].values
    spread = float(j2.max() - j2.min())
    ok = max(r_full, r_half, r_quarter) < 1e-10 and spread < 1e-12
    assert report(5, ok, (f"cos(+2pi) {r_full:.1e}, cos(+pi) {r_half:.1e}, "
                          f"cos2(+pi/2) {r_quarter:.1e}, J2 spread "
                          f"{spread:.1e}"))


def test_criterion_06_energy_identities():
    worst_e = 0.0
    for j0, zeta in ((0, 25.0), (1, 25.0), (2, 16.0)):
        spec = solve_spectrum(InteractionParams(-10.0, zeta), 28)
        cq = quadrature_switch_on_coefficients(spec, j0)
        ser, _ = switch_on_evolution(spec, cq, make_tau_grid(TWO_PI))
        target = j0 * j0 - zeta / 2.0
        worst_e = max(worst_e,
                      float(np.max(np.abs(ser["energy"].values - target))))
    worst_k = max(kinetic_identity_residual(InteractionParams(-10.0, 25.0), n)
                  for n in range(7))
    ok = worst_e < 1e-8 and worst_k < 1e-9
    assert report(6, ok, (f"|<H> - (J0^2 - zeta/2)| {worst_e:.1e}, kinetic "
                          f"identity {worst_k:.1e}"))


def test_criterion_07_hellmann_feynman():
    worst = 0.0
    for eta in (-7.0, -12.0):
        params = InteractionParams(eta, 25.0)
        for n in range(5):
            worst = max(worst, *hellmann_feynman_residual(params, n))
    coarse = hellmann_feynman_residual(InteractionParams(-7.0, 25.0), 0,
                                       step=1e-2)
    fine = hellmann_feynman_residual(InteractionParams(-7.0, 25.0), 0,
                                     step=5e-3)
    ratio = coarse[0] / fine[0]
    ok = worst < 1e-6 and 3.5 <= ratio <= 4.5
    assert report(7, ok,
                  f"max residual {worst:.1e}, halving ratio {ratio:.2f}")


def _full_basis_slowest_beat(eta: float, zeta: float, j0: int, n_states: int,
                             j_max: int = 64, floor: float = 1e-4
                             ) -> Tuple[float, int, int]:
    """Smallest populated same-parity gap after switch-on from |j0>.

    Independent of the parity-split solver: H is built in the full basis
    exp(i*m*theta), m = -j_max..j_max, where
    <m|H|n> = (m^2 - zeta/2) d_mn - (eta/2) d_|m-n|,1 - (zeta/4) d_|m-n|,2,
    and each eigenvector is classified by its parity under m -> -m.
    Returns (gap, a, b) for the state pair that carries it.
    """
    m = np.arange(-j_max, j_max + 1)
    h = np.diag(m ** 2 - zeta / 2.0)
    for k, w in ((1, -eta / 2.0), (2, -zeta / 4.0)):
        h += w * (np.eye(len(m), k=k) + np.eye(len(m), k=-k))
    energies, vecs = np.linalg.eigh(h)
    energies, vecs = energies[:n_states], vecs[:, :n_states]
    parity = np.einsum("mn,mn->n", vecs[::-1], vecs)
    assert np.allclose(np.abs(parity), 1.0, atol=1e-8), "mixed-parity state"
    populations = vecs[j_max + j0] ** 2          # |<phi_n|j0>|^2
    populated = np.nonzero(populations > floor)[0]
    return min((abs(energies[b] - energies[a]), a, b)
               for i, a in enumerate(populated) for b in populated[i + 1:]
               if parity[a] * parity[b] > 0)


def test_criterion_08_coherence_period():
    eta, zeta, j0, n_states = -10.0, 25.0, 1, 20
    spec = solve_spectrum(InteractionParams(eta, zeta), n_states)
    co = quadrature_switch_on_coefficients(spec, j0)
    period = dominant_coherence_period(spec, co)
    gap, a, b = _full_basis_slowest_beat(eta, zeta, j0, n_states)
    target = TWO_PI / gap
    dev = abs(period / target - 1.0)

    # the slowest beat must also be the strongest line in <cos>(tau):
    # Hann-windowed spectrum over eight reference periods
    tau = make_tau_grid(8.0 * target)
    series, _ = switch_on_evolution(spec, co, tau)
    x = series["cos"].values[:-1]
    x = (x - x.mean()) * np.hanning(len(x))
    omega = TWO_PI * np.fft.rfftfreq(len(x), tau[1] - tau[0])
    peak = omega[1 + int(np.argmax(np.abs(np.fft.rfft(x))[1:]))]
    bin_width = omega[1]

    ok = dev <= 1e-9 and abs(peak - gap) <= bin_width
    assert report(8, ok, (f"period {period / math.pi:.4f}*pi vs "
                          f"{target / math.pi:.4f}*pi from full-basis eigh "
                          f"(states {a},{b}, gap {gap:.6f}), dev {dev:.1e}; "
                          f"<cos> FFT peak {peak:.4f} (bin {bin_width:.4f})"))


def test_criterion_09_topology_map():
    t0 = time.perf_counter()
    tm = topology_map((5.0, 40.0), (-35.0, 0.0), 1, 2.0 * TWO_PI, (64, 64))
    elapsed = time.perf_counter() - t0
    eta, zeta, vals = tm.eta_values, tm.zeta_values, tm.values
    grad = np.abs(np.gradient(vals, eta, axis=0))
    de = eta[1] - eta[0]

    min_even_ratio, worst_odd, worst_disp = math.inf, 0.0, 0
    for k, z in enumerate(zeta):
        if z < 13.0:
            continue          # avoided-crossing width exceeds one cell below
        rt = math.sqrt(z)
        col = grad[:, k]
        lo, hi = max(float(eta[2]), -2.0 * z), -rt
        region = [i for i in range(2, len(eta) - 2) if lo <= eta[i] <= hi]
        background = float(np.median(col[region]))
        window_max = {}
        for kappa in (2, 3, 4, 5):
            loc = -kappa * rt
            if lo <= loc <= hi:
                i0 = int(round((loc - eta[0]) / de))
                window_max[kappa] = float(col[i0 - 1:i0 + 2].max())
        for kappa in (2, 4):
            min_even_ratio = min(min_even_ratio,
                                 window_max[kappa] / background)
        ref = min(window_max[2], window_max[4])
        for kappa in (3, 5):
            if kappa in window_max:
                worst_odd = max(worst_odd, window_max[kappa] / ref)
        i_star = max(region, key=lambda i: col[i])
        disp = min(abs(i_star - int(round((-kappa * rt - eta[0]) / de)))
                   for kappa in (2, 4, 6, 8, 10, 12) if lo <= -kappa * rt <= hi)
        worst_disp = max(worst_disp, disp)

    ok = (min_even_ratio >= 3.0 and worst_odd < 0.5 and worst_disp <= 2
          and elapsed < 300.0)
    assert report(9, ok, (f"even ridge/background >= {min_even_ratio:.2f}, "
                          f"odd/even <= {worst_odd:.2f}, strongest ridge "
                          f"within {worst_disp} cells, {elapsed:.0f}s"))


def test_criterion_10_propagator_cross_validation():
    grid = make_grid()
    # (a) frozen fields: split-operator vs eigenphase evolution
    params = InteractionParams(-0.1, 0.25)
    psi0 = free_rotor_wavefunction(1, grid)
    spec = solve_spectrum(params, 30)
    basis = np.stack([spec.wavefunction(n, grid).amplitudes.real
                      for n in range(30)])
    amps = basis @ psi0.amplitudes * grid.dtheta
    ref = (amps * np.exp(-1j * spec.energies * TWO_PI)) @ basis
    start = _free_rotor_row(1)

    def final(traj):
        return grid_state(traj.coefficients[-1], grid)

    traj = propagate(start, PulseSchedule.frozen(-0.1, 0.25, TWO_PI), dtau=1e-3)
    l2 = math.sqrt(float(
        np.sum(np.abs(final(traj).amplitudes - ref) ** 2) * grid.dtheta))

    # (b) norm drift over 1e4 steps
    drift_traj = propagate(start, PulseSchedule.frozen(-10.0, 25.0, 10.0),
                           dtau=1e-3, sample_stride=10 ** 9)
    drift = abs(final(drift_traj).norm() - 1.0)

    # (c) sudden limit: population error shrinks at least linearly in ramp
    spec_s = solve_spectrum(InteractionParams(-10.0, 25.0), 25)
    target = np.abs(quadrature_switch_on_coefficients(spec_s, 1).c) ** 2
    f = np.stack([spec_s.wavefunction(n, grid).amplitudes.real
                  for n in range(25)])
    errs = []
    for scale in (1e-1, 1e-2, 1e-3):
        ramp = scale * TWO_PI
        sch = PulseSchedule.switch(0.0, 0.0, -10.0, 25.0, ramp, 0.0,
                                   shape="linear")
        tr = propagate(start, sch, dtau=min(1e-3, ramp / 64.0),
                       sample_stride=10 ** 9)
        c = f @ final(tr).amplitudes * grid.dtheta
        errs.append(float(np.max(np.abs(np.abs(c) ** 2 - target))))
    sudden_ok = errs[0] > 8.0 * errs[1] and errs[1] > 8.0 * errs[2]

    ok = l2 < 1e-7 and drift < 1e-10 and sudden_ok
    assert report(10, ok, (f"spectral match {l2:.1e}, norm drift {drift:.1e}, "
                           "ramp errors "
                           + " > ".join(f"{e:.1e}" for e in errs)))


def test_criterion_10_grid_twin():
    """Criterion 10 (a) and (b) on the split-operator grid stepper itself,
    which propagate no longer uses for frozen fields."""
    grid = make_grid()
    params = InteractionParams(-0.1, 0.25)
    psi0 = free_rotor_wavefunction(1, grid)
    spec = solve_spectrum(params, 30)
    basis = np.stack([spec.wavefunction(n, grid).amplitudes.real
                      for n in range(30)])
    amps = basis @ psi0.amplitudes * grid.dtheta
    ref = (amps * np.exp(-1j * spec.energies * TWO_PI)) @ basis
    final = _run(psi0.amplitudes, grid, PulseSchedule.frozen(-0.1, 0.25, TWO_PI),
                 TWO_PI, round(TWO_PI / 1e-3))
    l2 = math.sqrt(float(np.sum(np.abs(final - ref) ** 2) * grid.dtheta))
    drifted = _run(psi0.amplitudes, grid,
                   PulseSchedule.frozen(-10.0, 25.0, 10.0), 10.0, 10000)
    drift = abs(math.sqrt(float(np.sum(np.abs(drifted) ** 2)) * grid.dtheta)
                - 1.0)
    ok = l2 < 1e-7 and drift < 1e-10
    assert report(10, ok, (f"grid twin: spectral match {l2:.1e}, "
                           f"norm drift {drift:.1e}"))

"""Self-contained invariant suite.

Each check re-derives a documented property of the library from scratch
and compares two independent routes (closed form vs quadrature, spectral
vs grid propagation, stored labels vs recomputed parity). The CLI's
validate command runs the whole list and exits nonzero if anything fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import (
    DEFAULT_GRID_POINTS,
    InteractionParams,
    SymmetryLabel,
    Wavefunction,
    free_rotor_wavefunction,
    make_grid,
    potential_shape,
    topological_index,
)
from .cqes import switch_on_coefficients
from .dynamics import (
    make_tau_grid,
    switch_off_evolution,
    switch_on_evolution,
    switch_on_populations,
    time_averaged_orientation,
)
from .propagate import DEFAULT_DTAU, PulseSchedule, _run, propagate
from .spectrum import crossing_scan, solve_spectrum
from .twins import (
    BesselTable,
    algebraic_ansatz,
    algebraic_sector_size,
    analytic_switch_off_coefficients,
    analytic_switch_on_coefficient,
    classify_symmetry,
    exp_cos_integral,
    grid_state,
    hellmann_feynman_residual,
    kinetic_identity_residual,
    quadrature_element_matrix,
    quadrature_switch_off_coefficients,
    quadrature_switch_on_coefficients,
    reconstruct_ansatz,
    reconstruct_from_free_rotor,
    second_order_accuracy_check,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _fail_detail(value: float, tol: float, what: str) -> Tuple[bool, str]:
    return value < tol, f"{what} = {value:.3e} (tol {tol:.0e})"


# --- core -----------------------------------------------------------------

def check_potential_topology() -> Tuple[bool, str]:
    shape = potential_shape(InteractionParams(-10.0, 25.0))
    ok = (shape.kind == "double-well"
          and abs(shape.v_barrier - 1.0) < 1e-12
          and abs(shape.theta_barrier - math.acos(0.2)) < 1e-12)
    ok &= potential_shape(InteractionParams(-60.0, 25.0)).kind == "single-well"
    ok &= potential_shape(InteractionParams(-50.0, 25.0)).kind == "boundary"
    rep = topological_index(InteractionParams(-10.0, 25.0))
    ok &= rep.is_integer and rep.nearest_integer == 2 and rep.parity == "even"
    rep3 = topological_index(InteractionParams(-15.0, 25.0))
    ok &= rep3.is_integer and rep3.parity == "odd"
    ok &= not topological_index(InteractionParams(-10.5, 25.0)).is_integer
    return ok, "well shapes and index parity as derived"


def check_free_rotor_spectrum() -> Tuple[bool, str]:
    spec = solve_spectrum(InteractionParams(0.0, 0.0), 9)
    target = np.array([0, 1, 1, 4, 4, 9, 9, 16, 16], dtype=float)
    dev = float(np.max(np.abs(spec.energies - target)))
    return _fail_detail(dev, 1e-10, "max |eps - J^2|")


def check_basis_convergence() -> Tuple[bool, str]:
    a = solve_spectrum(InteractionParams(-10.0, 25.0), 9, j_max=64).energies
    b = solve_spectrum(InteractionParams(-10.0, 25.0), 9, j_max=128).energies
    dev = float(np.max(np.abs(a - b)))
    return _fail_detail(dev, 1e-10, "max |eps(64) - eps(128)|")


def check_rayleigh_quotient() -> Tuple[bool, str]:
    params = InteractionParams(-10.0, 25.0)
    spec = solve_spectrum(params, 6)
    grid = make_grid()
    worst = 0.0
    for n in range(6):
        psi = spec.wavefunction(n, grid)
        worst = max(worst, abs(psi.expectation_energy(params)
                               - float(spec.energies[n])))
    return _fail_detail(worst, 1e-10, "max |<H> - eps|")


def check_parity_labels() -> Tuple[bool, str]:
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 12)
    grid = make_grid()
    for n in range(12):
        if classify_symmetry(spec.wavefunction(n, grid)) is not spec.labels[n]:
            return False, f"label mismatch at n={n}"
    return True, "12 states relabeled by grid parity"


def check_crossing_loci() -> Tuple[bool, str]:
    worst_pos = 0.0
    for zeta in (16.0, 25.0, 36.0):
        rz = math.sqrt(zeta)
        for kappa, pair in ((1, (1, 2)), (2, (2, 3)), (3, (3, 4))):
            window = (-kappa * rz - 2.0, -kappa * rz + 2.0)
            recs = [r for r in crossing_scan(zeta, window, pair, resolution=41)
                    if abs(abs(r.eta_at_crossing) - kappa * rz) < 1.0]
            if not recs:
                return False, f"no crossing found at kappa={kappa}, zeta={zeta}"
            r = min(recs, key=lambda q: abs(abs(q.eta_at_crossing) - kappa * rz))
            worst_pos = max(worst_pos, abs(r.eta_at_crossing + kappa * rz))
            if kappa % 2 == 1 and not (r.kind == "genuine" and r.min_gap < 1e-6):
                return False, (f"kappa={kappa}, zeta={zeta}: expected genuine, "
                               f"got {r.kind} gap {r.min_gap:.2e}")
            if kappa % 2 == 0 and not (r.kind == "avoided" and r.min_gap > 1e-3):
                return False, (f"kappa={kappa}, zeta={zeta}: expected avoided, "
                               f"got {r.kind} gap {r.min_gap:.2e}")
    return _fail_detail(worst_pos, 0.05, "max |eta_c + kappa*sqrt(zeta)|")


# --- elements -------------------------------------------------------------

def check_bessel_recurrence() -> Tuple[bool, str]:
    x = 10.0
    table = BesselTable.build(x, 40)
    worst = 0.0
    for rho in range(1, 40):
        resid = abs(table[rho - 1] - table[rho + 1] - (2 * rho / x) * table[rho])
        worst = max(worst, resid)
    mono = all(table[r] > table[r + 1] for r in range(40))
    ok, detail = _fail_detail(worst / table[0], 1e-10, "recurrence residual / I_0")
    return ok and mono, detail + ("" if mono else "; NOT monotone")


def check_kernel_integrals() -> Tuple[bool, str]:
    theta = np.linspace(0.0, 2.0 * np.pi, 16385)
    worst = 0.0
    for zeta in (4.0, 25.0):
        a = 2.0 * math.sqrt(zeta)
        for big_l in (0, 1, 3):
            for kind, f in (("one", np.ones_like(theta)),
                            ("cos", np.cos(theta)),
                            ("cos2", np.cos(theta) ** 2),
                            ("sin", np.sin(theta) ** 2)):
                dense = np.trapezoid(
                    np.exp(a * np.cos(theta)) * f
                    * np.cos(0.5 * theta) ** (2 * big_l), theta)
                mine = exp_cos_integral(big_l, zeta, kind)
                worst = max(worst, abs(mine - dense) / abs(dense))
    return _fail_detail(worst, 1e-9, "max rel deviation vs dense quadrature")


def check_selection_rules() -> Tuple[bool, str]:
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 9)
    cross = spec.odd[:, None] != spec.odd[None, :]
    worst = max(float(np.abs(quadrature_element_matrix(spec, op, make_grid())
                             [cross]).max()) for op in ("cos", "cos2"))
    return _fail_detail(worst, 1e-12, "max cross-symmetry element")


def check_kinetic_identity() -> Tuple[bool, str]:
    worst = max(kinetic_identity_residual(InteractionParams(-10.0, 25.0), n)
                for n in range(7))
    return _fail_detail(worst, 1e-9, "max residual, n <= 6")


def check_hellmann_feynman() -> Tuple[bool, str]:
    worst = 0.0
    for n in (0, 2):
        r_eta, r_zeta = hellmann_feynman_residual(InteractionParams(-7.0, 25.0), n)
        worst = max(worst, r_eta, r_zeta)
    return _fail_detail(worst, 1e-6, "max residual at step 1e-4")


# --- closed-form switch coefficients ---------------------------------------

def _algebraic_cases():
    for zeta in (16.0, 25.0):
        rz = math.sqrt(zeta)
        yield InteractionParams(-rz, zeta), 1       # kappa = 1: one state
        yield InteractionParams(-3 * rz, zeta), 3   # kappa = 3: three states


def check_ansatz_fit() -> Tuple[bool, str]:
    worst = 0.0
    grid = make_grid()
    for params, count in _algebraic_cases():
        spec = solve_spectrum(params, count + 2)
        for ans in algebraic_ansatz(params):
            gap = (reconstruct_ansatz(ans, grid).amplitudes.real
                   - spec.wavefunction(ans.n, grid).amplitudes.real)
            worst = max(worst, float(np.linalg.norm(gap))
                        * math.sqrt(grid.dtheta))
    return _fail_detail(worst, 1e-6, "max L2 distance, ansatz to solver state")


def check_qes_energies() -> Tuple[bool, str]:
    """The recurrence's terminating states are the lowest kappa states of
    solve_spectrum, in energy and in label, with both sectors filled."""
    worst = 0.0
    for kappa in (1, 3, 5):
        for zeta in (4.0, 25.0):
            params = InteractionParams(-kappa * math.sqrt(zeta), zeta)
            states = algebraic_ansatz(params)
            spec = solve_spectrum(params, kappa + 2)
            if [s.n for s in states] != list(range(kappa)):
                return False, (f"kappa={kappa}, zeta={zeta}: not states "
                               f"0..{kappa - 1}")
            for gamma in (SymmetryLabel.A1, SymmetryLabel.A2):
                count = sum(s.gamma is gamma for s in states)
                if count != algebraic_sector_size(kappa, gamma):
                    return False, (f"kappa={kappa}, zeta={zeta}: {count} "
                                   f"{gamma} states")
            for s in states:
                e = float(spec.energies[s.n])
                if s.gamma is not spec.labels[s.n]:
                    return False, (f"kappa={kappa}, zeta={zeta}: state "
                                   f"{s.n} is {s.gamma}, solver says "
                                   f"{spec.labels[s.n]}")
                worst = max(worst, abs(s.energy - e) / max(1.0, abs(e)))
    return _fail_detail(worst, 1e-11, "max |E_qes - E| / max(1, |E|)")


def check_switch_off_routes() -> Tuple[bool, str]:
    worst = parse = tail = recon = 0.0
    grid = make_grid()
    for params, count in _algebraic_cases():
        spec = solve_spectrum(params, count + 2)
        for n, ans in enumerate(algebraic_ansatz(params)):
            ca = analytic_switch_off_coefficients(ans, j_max=64)
            cq = quadrature_switch_off_coefficients(spec, n, j_max=64, grid=grid)
            worst = max(worst, float(np.max(np.abs(ca.c - cq.c))))
            parse = max(parse, abs(ca.parseval() - 1.0))
            tail = max(tail, max(abs(ca.coefficient(j)) for j in range(55, 65)))
            wf = reconstruct_from_free_rotor(ca, grid)
            tgt = spec.wavefunction(n, grid).amplitudes.real
            recon = max(recon, float(np.max(np.abs(wf.amplitudes.real - tgt))))
    ok = worst < 1e-8 and parse < 1e-8 and tail < 1e-10 and recon < 1e-7
    return ok, (f"route gap {worst:.1e}, Parseval {parse:.1e}, "
                f"tail {tail:.1e}, reconstruction {recon:.1e}")


def check_switch_structure() -> Tuple[bool, str]:
    spec = solve_spectrum(InteractionParams(-15.0, 25.0), 4)
    worst = 0.0
    states = algebraic_ansatz(spec.params)
    for n, want_a2 in ((0, False), (1, True), (2, False)):
        c = analytic_switch_off_coefficients(states[n], j_max=64).c
        if want_a2:
            worst = max(worst, float(np.max(np.abs(c + c[::-1]))))
            worst = max(worst, abs(c[64]))                       # C_0 = 0
            worst = max(worst, float(np.max(np.abs(c.real))))    # imaginary
        else:
            worst = max(worst, float(np.max(np.abs(c - c[::-1]))))
            worst = max(worst, float(np.max(np.abs(c.imag))))    # real
    qs = quadrature_switch_on_coefficients(spec, 0)
    for n in range(4):
        if spec.labels[n] is SymmetryLabel.A2:
            worst = max(worst, abs(qs.c[n]))                     # C0_{A2} = 0
    return _fail_detail(worst, 1e-12, "max structure violation")


def check_switch_on_routes() -> Tuple[bool, str]:
    worst = 0.0
    for params, count in _algebraic_cases():
        spec = solve_spectrum(params, count + 2)
        states = algebraic_ansatz(params)
        for j0 in (0, 1, 2, 3):
            cq = quadrature_switch_on_coefficients(spec, j0)
            for n, ans in enumerate(states):
                ca = analytic_switch_on_coefficient(ans, j0)
                worst = max(worst, abs(ca - cq.c[n]))
    return _fail_detail(worst, 1e-8, "max |analytic - quadrature|")


# --- dynamics ---------------------------------------------------------------

def check_recurrences() -> Tuple[bool, str]:
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 4)
    co = quadrature_switch_off_coefficients(spec, 0)
    tau = np.linspace(0.0, 4.0 * math.pi, 2048, endpoint=False)
    ev = switch_off_evolution(co, tau)
    cos_v, cos2_v = ev["cos"].values, ev["cos2"].values
    half, quarter, full = 512, 256, 1024
    worst = max(
        float(np.max(np.abs(cos_v[full:] - cos_v[:-full]))),
        float(np.max(np.abs(cos_v[half:] + cos_v[:-half]))),
        float(np.max(np.abs(cos2_v[quarter:] - cos2_v[:-quarter]))))
    j2 = ev["J2"].values
    ok1, detail = _fail_detail(worst, 1e-10, "max recurrence deviation")
    ok2 = float(j2.max() - j2.min()) < 1e-12
    return ok1 and ok2, detail + f"; J2 spread {j2.max() - j2.min():.1e}"


def check_switch_on_energy() -> Tuple[bool, str]:
    worst = 0.0
    for j0, zeta in ((0, 25.0), (1, 25.0), (2, 16.0)):
        spec = solve_spectrum(InteractionParams(-10.0, zeta), 28)
        cq = quadrature_switch_on_coefficients(spec, j0)
        ser, _ = switch_on_evolution(spec, cq, make_tau_grid(2.0 * math.pi))
        target = j0 ** 2 - zeta / 2.0
        worst = max(worst, float(np.max(np.abs(ser["energy"].values - target))))
    return _fail_detail(worst, 1e-8, "max |<H> - (J0^2 - zeta/2)|")


def check_coherence_sector_split() -> Tuple[bool, str]:
    # basis route (same-sector pairs only) vs a grid twin: the full double
    # sum over every state pair with unmasked quadrature element matrices
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 16)
    tau = make_tau_grid(2.0 * math.pi)
    basis, _ = switch_on_evolution(spec, switch_on_coefficients(spec, 1), tau)
    grid = make_grid()
    c = quadrature_switch_on_coefficients(spec, 1, grid).c
    d = c * np.exp(-1j * np.outer(tau, spec.energies))
    worst = 0.0
    for name in ("cos", "cos2"):
        twin = np.einsum("ta,ab,tb->t", np.conj(d),
                         quadrature_element_matrix(spec, name, grid), d).real
        worst = max(worst, float(np.max(np.abs(basis[name].values - twin))))
    return _fail_detail(worst, 1e-12, "basis series vs unmasked grid twin")


def check_time_average_closure() -> Tuple[bool, str]:
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 20)
    cq = quadrature_switch_on_coefficients(spec, 1)
    tau_tilde = 4.0 * math.pi
    closed = time_averaged_orientation(spec, cq, tau_tilde)
    tau = np.linspace(0.0, tau_tilde, 32769)
    ser, _ = switch_on_evolution(spec, cq, tau)
    direct = float(np.trapezoid(ser["cos"].values, tau)) / tau_tilde
    return _fail_detail(abs(closed - direct), 1e-6,
                        "|closed form - series quadrature|")


def check_population_swap() -> Tuple[bool, str]:
    pa = [r.probability for r in switch_on_populations(
        solve_spectrum(InteractionParams(-4.9, 25.0), 8), 1)]
    pb = [r.probability for r in switch_on_populations(
        solve_spectrum(InteractionParams(-5.1, 25.0), 8), 1)]
    dev = max(abs(pa[1] - pb[2]), abs(pa[2] - pb[1]))
    moved = min(abs(pa[1] - pa[2]), abs(pb[1] - pb[2]))
    ok = dev < 1e-3 and moved > 0.05
    return ok, (f"cross-match {dev:.1e}, in-pair contrast {moved:.3f}")


# --- propagator -------------------------------------------------------------

def _free_rotor_row(j: int, n_points: int = DEFAULT_GRID_POINTS
                    ) -> np.ndarray:
    """|j> as propagate's start: a unit row over J = 1 - n/2..n/2 - 1."""
    return np.eye(1, n_points - 1, n_points // 2 - 1 + j, dtype=complex)[0]


def _projections(spec, n, row: np.ndarray):
    """<phi_n|psi> of a signed-J row psi (a Trajectory snapshot), for a
    state index or an index array n."""
    return spec.free_rotor_coefficients(n, len(row) // 2).conj() @ row


def check_free_rotor_phase() -> Tuple[bool, str]:
    tr = propagate(_free_rotor_row(1),
                   PulseSchedule.frozen(0.0, 0.0, 2.0 * math.pi),
                   dtau=1e-3, sample_stride=10 ** 9)
    final = tr.coefficients[-1]
    err = abs(final[len(final) // 2 + 1] - 1.0)   # e^{-i*1*2pi} = 1 exactly
    return _fail_detail(err, 1e-8, "|<psi0|psi(2pi)> - 1|")


def check_stationarity() -> Tuple[bool, str]:
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 2)
    start = spec.free_rotor_coefficients(0, DEFAULT_GRID_POINTS // 2 - 1)
    tr = propagate(start, PulseSchedule.frozen(-10.0, 25.0, 2.0 * math.pi),
                   dtau=1e-3, sample_stride=10 ** 9)
    drift = abs(abs(_projections(spec, 0, tr.coefficients[-1])) ** 2 - 1.0)
    return _fail_detail(drift, 1e-8, "ground-state population drift")


# propagate evolves constant fields exactly and steps ramps in the basis,
# so the split-operator grid stepper _run, its twin, is checked on frozen
# fields directly.

def _l2(grid, amps: np.ndarray) -> float:
    return math.sqrt(float(np.sum(np.abs(amps) ** 2)) * grid.dtheta)


def check_unitarity() -> Tuple[bool, str]:
    grid = make_grid()
    psi = free_rotor_wavefunction(1, grid)
    final = _run(psi.amplitudes, grid, PulseSchedule.frozen(-10.0, 25.0, 10.0),
                 10.0, 10000)
    drift = abs(_l2(grid, final) - 1.0)
    return _fail_detail(drift, 1e-10, "norm drift over 1e4 steps")


def check_spectral_oracle() -> Tuple[bool, str]:
    # weak-field case: splitting error sits below the 1e-7 bar here
    params = InteractionParams(-0.1, 0.25)
    grid = make_grid()
    psi = free_rotor_wavefunction(1, grid)
    final = _run(psi.amplitudes, grid,
                 PulseSchedule.frozen(params.eta, params.zeta, 2.0 * math.pi),
                 2.0 * math.pi, round(2.0 * math.pi / 1e-3))
    spec = solve_spectrum(params, 30)
    f = np.stack([spec.wavefunction(n, grid).amplitudes.real for n in range(30)])
    c = f @ psi.amplitudes * grid.dtheta
    recon = (c * np.exp(-1j * spec.energies * 2.0 * math.pi)) @ f
    dev = _l2(grid, recon - final)
    return _fail_detail(dev, 1e-7, "L2 deviation from spectral evolution")


def check_exact_hold() -> Tuple[bool, str]:
    """propagate (basis ramp, exact hold) against the grid twin _run on the
    README ramp and hold. Both are second order in the ramp steps and the
    twin in the hold steps too, so each run at dtau is off by 4/3 of its
    difference from the run at dtau/2; the two final states may differ
    by twice the sum of those two estimates."""
    grid = make_grid()
    psi = free_rotor_wavefunction(1, grid)
    sch = PulseSchedule.switch(0.0, 0.0, -10.0, 25.0, 0.0628, 6.2832)
    nsteps = round(sch.total_duration / 1e-3)
    prop = [grid_state(propagate(_free_rotor_row(1), sch, dtau=1e-3 / k,
                                 sample_stride=10 ** 9).coefficients[-1],
                       grid).amplitudes for k in (1, 2)]
    twin = [_run(psi.amplitudes, grid, sch, sch.total_duration, k * nsteps)
            for k in (1, 2)]
    dev = _l2(grid, prop[0] - twin[0])
    tol = 2.0 * 4.0 / 3.0 * (_l2(grid, twin[0] - twin[1])
                             + _l2(grid, prop[0] - prop[1]))
    return dev <= tol, (f"L2 |propagate - grid twin| = {dev:.3e} (tol "
                        f"{tol:.3e} from step doubling)")


# (eta, zeta, ramp duration) of the ramps without a hold, from J0 = 1, on
# which propagate's basis ramp is checked against the grid twin
RAMP_TWIN_CASES = ((-10.0, 25.0, 1.0), (-40.0, 120.0, 0.3))


def ramp_twin_deviations(eta: float, zeta: float, ramp: float
                         ) -> Tuple[float, float, float]:
    """|propagate - _run| of cos, cos2 and the L2 norm of the final state
    after a smooth ramp from (0, 0) to (eta, zeta) at the default dtau."""
    grid = make_grid()
    psi = free_rotor_wavefunction(1, grid)
    sch = PulseSchedule.switch(0.0, 0.0, eta, zeta, ramp, 0.0)
    basis = grid_state(propagate(_free_rotor_row(1), sch,
                                 sample_stride=10 ** 9).coefficients[-1], grid)
    twin = Wavefunction(grid, _run(psi.amplitudes, grid, sch, ramp,
                                   round(ramp / DEFAULT_DTAU)),
                        normalize=False)
    return (abs(basis.expectation_cos() - twin.expectation_cos()),
            abs(basis.expectation_cos2() - twin.expectation_cos2()),
            abs(basis.norm() - twin.norm()))


def check_ramp_twin() -> Tuple[bool, str]:
    """propagate's basis ramp against the grid twin _run on RAMP_TWIN_CASES.
    Both take the same Strang steps, so they differ only by rounding and by
    the truncated taps and window of the basis, which grow with the step
    count: measured, cos, cos2 and the norm agree to 9.7e-14 here (1000
    steps at most), and to 7.5e-12 after a 62,840-step ramp to (-40, 120).
    Each must agree within 1e-10, ten times the longer ramp's 9.6e-12 when
    each step took two convolutions."""
    dev = max(max(ramp_twin_deviations(*case)) for case in RAMP_TWIN_CASES)
    return _fail_detail(dev, 1e-10, "largest |propagate - grid twin| of cos, "
                        "cos2 and norm")


def check_splitting_order() -> Tuple[bool, str]:
    grid = make_grid()
    psi = free_rotor_wavefunction(1, grid)
    rep = second_order_accuracy_check(
        psi, PulseSchedule.frozen(-10.0, 25.0, 2.0 * math.pi),
        dtau=2.0 * math.pi / 1571)
    free = second_order_accuracy_check(
        psi, PulseSchedule.frozen(0.0, 0.0, 2.0 * math.pi), dtau=1e-2)
    ok = (rep.regime == "measured" and abs(rep.order - 2.0) < 0.1
          and free.regime == "exact")
    return ok, f"frozen field: {rep}; free rotor: {free}"


def check_sudden_limit() -> Tuple[bool, str]:
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 25)
    ref = np.array([r.probability for r in switch_on_populations(spec, 1)])
    errs = []
    for scale in (1e-1, 1e-2, 1e-3):
        ramp = scale * 2.0 * math.pi
        sch = PulseSchedule.switch(0.0, 0.0, -10.0, 25.0, ramp, 0.0,
                                   shape="linear")
        tr = propagate(_free_rotor_row(1), sch, dtau=min(1e-3, ramp / 64.0),
                       sample_stride=10 ** 9)
        c = _projections(spec, np.arange(25), tr.coefficients[-1])
        errs.append(float(np.max(np.abs(np.abs(c) ** 2 - ref))))
    ok = errs[0] > 8.0 * errs[1] > 64.0 * errs[2]
    return ok, ("population errors " + ", ".join(f"{e:.2e}" for e in errs))


def check_adiabatic_limit() -> Tuple[bool, str]:
    sch = PulseSchedule.switch(0.0, 0.0, -10.0, 25.0, 100.0 * 2.0 * math.pi,
                               0.0, shape="smooth_cosine")
    tr = propagate(_free_rotor_row(0, 256), sch, dtau=2e-3,
                   sample_stride=10 ** 9)
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 2)
    pop = abs(_projections(spec, 0, tr.coefficients[-1])) ** 2
    return pop >= 0.99, (f"final ground-state population {pop:.6f} "
                         f"(deficit {1.0 - pop:.2e})")


ALL_CHECKS: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
    ("potential-topology", check_potential_topology),
    ("free-rotor-spectrum", check_free_rotor_spectrum),
    ("basis-convergence", check_basis_convergence),
    ("rayleigh-quotient", check_rayleigh_quotient),
    ("parity-labels", check_parity_labels),
    ("crossing-loci", check_crossing_loci),
    ("bessel-recurrence", check_bessel_recurrence),
    ("kernel-integrals", check_kernel_integrals),
    ("selection-rules", check_selection_rules),
    ("kinetic-identity", check_kinetic_identity),
    ("hellmann-feynman", check_hellmann_feynman),
    ("ansatz-fit", check_ansatz_fit),
    ("qes-energies", check_qes_energies),
    ("switch-off-routes", check_switch_off_routes),
    ("switch-structure", check_switch_structure),
    ("switch-on-routes", check_switch_on_routes),
    ("recurrence-identities", check_recurrences),
    ("switch-on-energy", check_switch_on_energy),
    ("coherence-sector-split", check_coherence_sector_split),
    ("time-average-closure", check_time_average_closure),
    ("population-swap", check_population_swap),
    ("free-rotor-phase", check_free_rotor_phase),
    ("eigenstate-stationarity", check_stationarity),
    ("unitarity", check_unitarity),
    ("spectral-oracle", check_spectral_oracle),
    ("exact-hold", check_exact_hold),
    ("ramp-twin", check_ramp_twin),
    ("splitting-order", check_splitting_order),
    ("sudden-limit", check_sudden_limit),
    ("adiabatic-limit", check_adiabatic_limit),
]


def run_all(names: Optional[List[str]] = None,
            progress: Optional[Callable[[CheckResult], None]] = None
            ) -> List[CheckResult]:
    known = {name for name, _ in ALL_CHECKS}
    if names:
        missing = set(names) - known
        if missing:
            raise ValueError(f"unknown checks: {sorted(missing)}")
    results = []
    for name, fn in ALL_CHECKS:
        if names and name not in names:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:           # a crash is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        res = CheckResult(name=name, passed=passed, detail=detail,
                          seconds=time.perf_counter() - start)
        if progress is not None:
            progress(res)
        results.append(res)
    return results

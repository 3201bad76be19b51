"""Exponential-polynomial eigenfunction ansatz and closed-form switch
coefficients.

For the potential minimum at theta = pi (eta <= 0 convention) the
quasi-exactly-solvable eigenfunctions take the form

    even sector:  exp(-sqrt(zeta)*cos(theta)) * sum_l v_l * sin(theta/2)**(2l)
    odd sector:   the same times sin(theta)

When the topological index kappa = |eta|/sqrt(zeta) is an odd integer,
kappa of the low-lying states terminate at finite polynomial degree: the
even sector holds (kappa+1)/2 of them with degree (kappa-1)/2 and the odd
sector (kappa-1)/2 with degree (kappa-3)/2. For any other parameters the
same basis still fits, just not exactly; the projection residual reports
how well.

The coefficient vectors v are obtained by least-squares projection of the
numerically solved eigenfunction onto the ansatz basis. Expansion
coefficients of a pendular state over free-rotor states (and of a rotor
state over pendular states) then reduce to modified-Bessel sums with
argument sqrt(zeta). In the parity-split Fourier basis they are exact
coefficient lookups (switch_on/off_coefficients), with grid quadratures as
independent twins. Every route shares the eigenvector signs that
solve_spectrum fixes once (pi-aligned).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    DEFAULT_J_MAX,
    AngularGrid,
    SymmetryLabel,
    Wavefunction,
    make_grid,
)
from .elements import BesselTable, _bracket, ansatz_norm_integral
from .spectrum import PendularSpectrum

CONDITION_LIMIT = 1e12


class ConditioningError(RuntimeError):
    pass


def aligned_grid_state(spec: PendularSpectrum, n: int,
                       grid: Optional[AngularGrid] = None) -> np.ndarray:
    """Public alias of spec.wavefunction(n, grid).amplitudes.real; the
    pi-aligned sign it carries is fixed once by solve_spectrum."""
    return spec.wavefunction(n, grid).amplitudes.real


@dataclass(frozen=True)
class AnsatzCoefficients:
    gamma: SymmetryLabel
    n: int
    zeta: float
    v: np.ndarray
    normalization: float
    fit_residual: float

    @property
    def ell_max(self) -> int:
        return len(self.v) - 1


def algebraic_sector_size(kappa: int, gamma: SymmetryLabel) -> int:
    """Number of terminating states in a sector at odd integer kappa."""
    if kappa < 1 or kappa % 2 == 0:
        raise ValueError("terminating sectors need odd integer kappa")
    return (kappa + 1) // 2 if gamma is SymmetryLabel.A1 else (kappa - 1) // 2


def _auto_ell_max(spec: PendularSpectrum, n: int) -> int:
    gamma = spec.labels[n]
    if spec.params.zeta == 0.0:
        j = (n + 1) // 2
        return j if gamma is SymmetryLabel.A1 else max(j - 1, 0)
    kappa = spec.params.kappa
    k = round(kappa)
    if abs(kappa - k) < 1e-9 and k % 2 == 1 and n < k:
        # terminating state: polynomial degree is known
        deg = (k - 1) // 2 if gamma is SymmetryLabel.A1 else (k - 3) // 2
        return max(int(deg), 0)
    raise ValueError(
        "state does not terminate at these parameters; pass ell_max explicitly")


def ansatz_basis(gamma: SymmetryLabel, zeta: float, ell_max: int,
                 grid: AngularGrid) -> np.ndarray:
    """Columns exp(-sqrt(zeta)cos) * sin(theta/2)**(2l), times sin for A2."""
    theta = grid.theta
    w = np.exp(-math.sqrt(zeta) * np.cos(theta))
    if gamma is SymmetryLabel.A2:
        w = w * np.sin(theta)
    s2 = np.sin(0.5 * theta) ** 2
    cols = [w * s2 ** l for l in range(ell_max + 1)]
    return np.stack(cols, axis=1)


def project_ansatz(spec: PendularSpectrum, n: int,
                   ell_max: Optional[int] = None,
                   grid: Optional[AngularGrid] = None) -> AnsatzCoefficients:
    """Least-squares fit of eigenstate n onto the ansatz basis.

    The basis is QR-orthogonalized on the grid before solving; condition
    numbers beyond 1e12 raise ConditioningError (reduce ell_max). The
    returned v is scaled to max|v| = 1 and the normalization integral is
    evaluated from the Bessel sums, so reconstructing with v/sqrt(N) gives
    a unit-norm state.
    """
    if grid is None:
        grid = make_grid()
    if ell_max is None:
        ell_max = _auto_ell_max(spec, n)
    if ell_max < 0:
        raise ValueError("ell_max must be >= 0")
    gamma = spec.labels[n]
    zeta = spec.params.zeta
    f = aligned_grid_state(spec, n, grid)

    basis = ansatz_basis(gamma, zeta, ell_max, grid)
    sq = math.sqrt(grid.dtheta)
    q, r = np.linalg.qr(basis * sq)
    cond = np.linalg.cond(r)
    if cond > CONDITION_LIMIT:
        raise ConditioningError(
            f"ansatz basis condition {cond:.2e} exceeds {CONDITION_LIMIT:.0e} "
            f"at ell_max={ell_max}; reduce ell_max")
    v = np.linalg.solve(r, q.T @ (f * sq))
    residual = float(np.linalg.norm(basis * sq @ v - f * sq))

    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        raise RuntimeError("degenerate fit: all coefficients zero")
    v = v / scale
    norm = ansatz_norm_integral(gamma, v, zeta)
    if norm <= 0:
        raise RuntimeError("non-positive normalization integral")
    return AnsatzCoefficients(gamma=gamma, n=n, zeta=zeta, v=v,
                              normalization=norm, fit_residual=residual)


def reconstruct_ansatz(ansatz: AnsatzCoefficients,
                       grid: Optional[AngularGrid] = None) -> Wavefunction:
    """Materialize the ansatz state, unit norm via the Bessel normalization."""
    if grid is None:
        grid = make_grid()
    basis = ansatz_basis(ansatz.gamma, ansatz.zeta, ansatz.ell_max, grid)
    f = basis @ ansatz.v / math.sqrt(ansatz.normalization)
    return Wavefunction(grid, f.astype(complex), normalize=False)


@dataclass(frozen=True)
class SwitchCoefficients:
    """Expansion coefficients across a sudden field switch.

    kind 'switch_off': c[j + j_max] = <j|phi_origin> over signed free-rotor
    j in [-j_max, j_max]. kind 'switch_on': c[n] = <phi_n|J_origin> over
    pendular states with their symmetry labels alongside.
    """

    kind: str
    origin: int
    c: np.ndarray
    j_max: Optional[int] = None
    labels: Optional[Tuple[SymmetryLabel, ...]] = None
    gamma: Optional[SymmetryLabel] = None

    def parseval(self) -> float:
        return float(np.sum(np.abs(self.c) ** 2))

    def coefficient(self, index: int) -> complex:
        if self.kind == "switch_off":
            return complex(self.c[index + self.j_max])
        return complex(self.c[index])


def analytic_switch_off_coefficients(ansatz: AnsatzCoefficients,
                                     j_max: int = DEFAULT_J_MAX) -> SwitchCoefficients:
    """Free-rotor expansion of an ansatz state from Bessel sums.

    Even origin gives real coefficients with c_{-j} = c_j; odd origin gives
    purely imaginary ones with c_{-j} = -c_j and c_0 = 0. The +-j symmetry
    is enforced bit-exactly by mirroring the j >= 0 values.
    """
    x = math.sqrt(ansatz.zeta)
    table = BesselTable.build(x, j_max + ansatz.ell_max + 2)
    pref = math.sqrt(2.0 * np.pi / ansatz.normalization)
    c = np.zeros(2 * j_max + 1, dtype=complex)

    if ansatz.gamma is SymmetryLabel.A1:
        for j in range(0, j_max + 1):
            s = sum(vl / 4.0 ** l * _bracket(table, l, j)
                    for l, vl in enumerate(ansatz.v))
            val = (-1.0) ** j * pref * s
            c[j_max + j] = val
            c[j_max - j] = val
    else:
        for j in range(1, j_max + 1):
            s = sum(vl / (2.0 * 4.0 ** l)
                    * (_bracket(table, l, j - 1) - _bracket(table, l, j + 1))
                    for l, vl in enumerate(ansatz.v))
            val = 1j * (-1.0) ** j * pref * s
            c[j_max + j] = val
            c[j_max - j] = -val
    return SwitchCoefficients(kind="switch_off", origin=ansatz.n, c=c,
                              j_max=j_max, gamma=ansatz.gamma)


def analytic_switch_on_coefficient(ansatz: AnsatzCoefficients, j0: int) -> complex:
    """<phi_n|j0> in closed form: the switch-off value, conjugated for odd
    states (their quadrature picks up the opposite phase)."""
    jm = abs(j0) + ansatz.ell_max + 2
    off = analytic_switch_off_coefficients(ansatz, j_max=jm)
    val = off.coefficient(j0)
    if ansatz.gamma is SymmetryLabel.A2:
        return val.conjugate()
    return val


def _signed_j_max(spec: PendularSpectrum) -> int:
    """Default signed-j range of switch-off tables: max(DEFAULT_J_MAX,
    spec.j_max), so that a table's length does not follow the cutoff."""
    return max(DEFAULT_J_MAX, spec.j_max)


def switch_off_coefficients(spec: PendularSpectrum, n0: int,
                            j_max: Optional[int] = None) -> SwitchCoefficients:
    """<j|phi_n0> read exactly off the stored Fourier coefficients, for
    |j| <= j_max (default _signed_j_max(spec)), zero past the cutoff."""
    if not 0 <= n0 < spec.n_states:
        raise ValueError(f"n0={n0} is not a solved state (0..{spec.n_states - 1})")
    if j_max is None:
        j_max = _signed_j_max(spec)
    return SwitchCoefficients(kind="switch_off", origin=n0,
                              c=spec.free_rotor_coefficients(n0, j_max),
                              j_max=j_max, gamma=spec.labels[n0])


def switch_on_coefficients(spec: PendularSpectrum,
                           j0: int) -> SwitchCoefficients:
    """<phi_n|j0> = conj(<j0|phi_n>) for every solved state, exact."""
    jm = abs(j0)
    rows = spec.free_rotor_coefficients(np.arange(spec.n_states), jm)
    return SwitchCoefficients(kind="switch_on", origin=j0,
                              c=np.conj(rows[:, jm + j0]), labels=spec.labels)


def quadrature_switch_off_coefficients(spec: PendularSpectrum, n0: int,
                                       j_max: Optional[int] = None,
                                       grid: Optional[AngularGrid] = None
                                       ) -> SwitchCoefficients:
    """<j|phi_n0> by grid quadrature; twin of switch_off_coefficients."""
    if j_max is None:
        j_max = _signed_j_max(spec)
    if grid is None:
        grid = make_grid()
    f = aligned_grid_state(spec, n0, grid)
    psi = Wavefunction(grid, f.astype(complex), normalize=False)
    c = psi.free_rotor_coefficients(j_max)
    return SwitchCoefficients(kind="switch_off", origin=n0, c=c, j_max=j_max,
                              gamma=spec.labels[n0])


def quadrature_switch_on_coefficients(spec: PendularSpectrum, j0: int,
                                      grid: Optional[AngularGrid] = None
                                      ) -> SwitchCoefficients:
    """<phi_n|j0> by grid quadrature; twin of switch_on_coefficients."""
    if grid is None:
        grid = make_grid()
    phase = np.exp(1j * j0 * grid.theta)
    c = np.empty(spec.n_states, dtype=complex)
    for n in range(spec.n_states):
        f = aligned_grid_state(spec, n, grid)
        c[n] = np.sum(f * phase) * grid.dtheta / math.sqrt(2.0 * np.pi)
    return SwitchCoefficients(kind="switch_on", origin=j0, c=c,
                              labels=spec.labels)


def reconstruct_from_free_rotor(coeffs: SwitchCoefficients,
                                grid: Optional[AngularGrid] = None) -> Wavefunction:
    """Rebuild sum_j c_j exp(i*j*theta)/sqrt(2*pi) on a grid."""
    if coeffs.kind != "switch_off":
        raise ValueError("needs switch_off coefficients")
    if grid is None:
        grid = make_grid()
    jm = coeffs.j_max
    spectral = np.zeros(grid.n_points, dtype=complex)
    for j in range(-jm, jm + 1):
        spectral[j % grid.n_points] += coeffs.c[j + jm]
    amps = np.fft.ifft(spectral) * grid.n_points / math.sqrt(2.0 * np.pi)
    # ifft scaling: sum_j c_j e^{i j theta_k} = N * ifft(c)[k]
    return Wavefunction(grid, amps, normalize=False)

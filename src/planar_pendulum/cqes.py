"""Exponential-polynomial eigenfunction ansatz and closed-form switch
coefficients.

For the potential minimum at theta = pi (eta <= 0 convention) the
quasi-exactly-solvable eigenfunctions take the form

    even sector:  exp(-sqrt(zeta)*cos(theta)) * sum_l v_l * sin(theta/2)**(2l)
    odd sector:   the same times sin(theta)

When the topological index kappa = |eta|/sqrt(zeta) is an odd integer,
kappa of the low-lying states terminate at finite polynomial degree: the
even sector holds (kappa+1)/2 of them with degree (kappa-1)/2 and the odd
sector (kappa-1)/2 with degree (kappa-3)/2.

The coefficient vectors v and the energies come from the three-term
recurrence that H + zeta induces on the powers u**l, u = sin(theta/2)**2
(see _sector_states): at odd integer kappa its raising term vanishes at
the top power, so a small tridiagonal eigenproblem gives the terminating
states exactly, with no spectrum and no grid (algebraic_ansatz).
Expansion coefficients of a pendular state over free-rotor states (and of
a rotor state over pendular states) then reduce to modified-Bessel sums
with argument sqrt(zeta). In the parity-split Fourier basis they are exact
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
    InteractionParams,
    SymmetryLabel,
    Wavefunction,
    make_grid,
    topological_index,
)
from .elements import BesselTable, _bracket, ansatz_norm_integral
from .spectrum import PendularSpectrum, _odd_mask, _signed_expansion


@dataclass(frozen=True)
class AnsatzCoefficients:
    gamma: SymmetryLabel
    n: int
    zeta: float
    v: np.ndarray
    normalization: float
    energy: float

    @property
    def ell_max(self) -> int:
        return len(self.v) - 1


def algebraic_sector_size(kappa: int, gamma: SymmetryLabel) -> int:
    """Number of terminating states in a sector at odd integer kappa."""
    if kappa < 1 or kappa % 2 == 0:
        raise ValueError("terminating sectors need odd integer kappa")
    return (kappa + 1) // 2 if gamma is SymmetryLabel.A1 else (kappa - 1) // 2


def _sector_states(kappa: int, a: float, gamma: SymmetryLabel):
    """Eigenpairs of the recurrence on the sector's terminating powers.

    With u = sin(theta/2)**2, g = exp(-a*cos(theta)) (times sin(theta) in
    A2) and s = 0 (A1) or 1 (A2), H + zeta maps g*u**l to g times

        [(l+s)**2 - 4a(l+s) + (kappa-1+2s)a] u**l - l(l-1/2+s) u**(l-1)
        + 2a(2l-kappa+1+2s) u**(l+1),

    whose last term vanishes at the top power, so the tridiagonal M below
    is exact. Its opposite off-diagonals have a positive product, so
    M = S T S^-1 with T symmetric and S diagonal. Returns the eigenvalues
    of M (ascending) and its eigenvectors v as columns, max|v| = 1.
    """
    s = 1 if gamma is SymmetryLabel.A2 else 0
    ell = np.arange(algebraic_sector_size(kappa, gamma), dtype=float)
    if len(ell) == 0:
        return np.empty(0), np.empty((0, 0))
    diag = (ell + s) ** 2 - 4.0 * a * (ell + s) + (kappa - 1 + 2 * s) * a
    upper = -ell[1:] * (ell[1:] - 0.5 + s)                 # M[l-1, l]
    lower = 2.0 * a * (2.0 * ell[1:] - kappa - 1 + 2 * s)  # M[l, l-1]
    off = np.sqrt(upper * lower)
    w, t_vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                               + np.diag(off, -1))
    v = np.concatenate([[1.0], np.cumprod(off / upper)])[:, None] * t_vecs
    return w, v / np.max(np.abs(v), axis=0)


def algebraic_ansatz(params: InteractionParams) -> Tuple[AnsatzCoefficients, ...]:
    """The kappa terminating states at odd integer kappa = |eta|/sqrt(zeta).

    Exact eigenpairs of the recurrence at the odd integer kappa that
    topological_index reports: energies are eig(M) - zeta, v the
    polynomial coefficients scaled to max|v| = 1 and signed as
    solve_spectrum signs its states (positive at theta = pi for A1,
    rising there for A2: f'(pi) = -exp(a)*sum(v)). Entry n is state n of
    solve_spectrum: energy order, exact ties to the even sector first. (At
    weak fields a doublet split by less than the solver's tie width, 4 ulps
    of its ||H||, comes here in true energy order, which the solver may
    swap.) No spectrum and no grid are used. Raises ValueError unless kappa
    is an odd integer (zeta = 0 included).
    """
    index = topological_index(params)
    if index.parity != "odd":
        raise ValueError(f"kappa={index.value:.12g} is not an odd integer; "
                         "no state terminates")
    kappa, zeta = index.nearest_integer, params.zeta
    found = []
    for gamma, sign in ((SymmetryLabel.A1, 1.0), (SymmetryLabel.A2, -1.0)):
        w, v = _sector_states(kappa, math.sqrt(zeta), gamma)
        for k in range(len(w)):
            found.append((float(w[k]) - zeta, gamma,
                          v[:, k] * np.copysign(1.0, sign * np.sum(v[:, k]))))
    found.sort(key=lambda state: state[0])         # stable: A1 first on ties
    return tuple(
        AnsatzCoefficients(gamma=gamma, n=n, zeta=zeta, v=v, energy=energy,
                           normalization=ansatz_norm_integral(gamma, v, zeta))
        for n, (energy, gamma, v) in enumerate(found))


def reconstruct_ansatz(ansatz: AnsatzCoefficients,
                       grid: Optional[AngularGrid] = None) -> Wavefunction:
    """Materialize the ansatz state on a grid, the twin of the closed-form
    sums; unit norm via the closed-form normalization."""
    if grid is None:
        grid = make_grid()
    theta = grid.theta
    weight = np.exp(-math.sqrt(ansatz.zeta) * np.cos(theta))
    if ansatz.gamma is SymmetryLabel.A2:
        weight = weight * np.sin(theta)
    poly = np.polyval(ansatz.v[::-1], np.sin(0.5 * theta) ** 2)
    f = weight * poly / math.sqrt(ansatz.normalization)
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
    return SwitchCoefficients(
        kind="switch_on", origin=j0, labels=spec.labels,
        c=_switch_on_column(spec.coefficients, _odd_mask(spec.labels), j0))


def _switch_on_column(coefficients: np.ndarray, odd: np.ndarray,
                      j0: int) -> np.ndarray:
    """<phi_n|j0> of sector coefficient rows with any leading axes (one
    spectrum, or a stack of them) and their odd flags."""
    jm = abs(j0)
    return np.conj(_signed_expansion(coefficients, odd, jm)[..., jm + j0])


def quadrature_switch_off_coefficients(spec: PendularSpectrum, n0: int,
                                       j_max: Optional[int] = None,
                                       grid: Optional[AngularGrid] = None
                                       ) -> SwitchCoefficients:
    """<j|phi_n0> by grid quadrature; twin of switch_off_coefficients."""
    if j_max is None:
        j_max = _signed_j_max(spec)
    if grid is None:
        grid = make_grid()
    c = spec.wavefunction(n0, grid).free_rotor_coefficients(j_max)
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
        f = spec.wavefunction(n, grid).amplitudes.real
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

"""Independent twins of the primary routes, for validate and the tests.

The commands read their results off the parity-split Fourier basis. The
routes here reach the same quantities by grid quadrature, Bessel sums,
the algebraic (QES) eigenstates at odd integer kappa, grid parity and the
grid stepper's self-convergence. Only validation and the tests import it.

Bessel machinery
----------------
exp_cos_integral and the Bessel-sum switch coefficients reduce to

    integral over a period of exp(a*cos(theta)) * cos(q*theta)  =  2*pi*I_q(a)

after expanding even powers of cos(theta/2) binomially. The recurring
bracket is

    B(L, q; a) = binom(2L, L)*I_q(a)
               + sum_{m=0}^{L-1} binom(2L, m) * (I_{L-m+q}(a) + I_{L-m-q}(a))

which is the exact expansion of cos(theta/2)**(2L) against a cos(q*theta)
test function under the exp(a*cos(theta)) weight:

    integral exp(a*cos) * cos(q*theta) * cos(theta/2)**(2L)
        = (2*pi / 2**(2L)) * B(L, q; a).

Algebraic eigenstates
---------------------
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
states exactly, with no spectrum and no grid (algebraic_ansatz). Their
free-rotor expansions are modified-Bessel sums with argument sqrt(zeta),
signed as solve_spectrum signs its states (pi-aligned).

Ansatz integrals
----------------
The ansatz states sit near u = 1 (theta = pi). Summed over powers of u
their integrals cancel by 1e10 and more at strong fields, so they are
re-expanded in w = cos(theta/2)**2 = 1 - u, centred on the well, and
reduced to the moments

    m_L(x) = integral exp(-x*cos(theta)) * w**L
           = 2*pi * binom(2L, L)/4**L * exp(-x) * 1F1(1/2; L+1; 2x)

(DLMF 13.4.1 with Kummer's transformation 13.2.39): a series of positive
terms with no cancellation. The kernels cos, cos**2 and sin**2 are
polynomials in w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .core import (DEFAULT_J_MAX, AngularGrid, InteractionParams,
                   SymmetryLabel, Wavefunction, grid_moments, make_grid,
                   topological_index)
from .cqes import SwitchCoefficients, _signed_j_max
from .propagate import DEFAULT_DTAU, _NORM_TOL, PulseSchedule, _run
from .spectrum import PendularSpectrum, solve_spectrum

BESSEL_X_MAX = 700.0        # exp overflow guard for the Miller normalization
_SERIES_CUTOFF = 2.0
MAX_KERNEL_POWER = 40       # largest supported L in exp_cos_integral
QUAD_GRID_POINTS = 1024     # oracle quadratures run denser than the default
PARITY_NORM_TOL = 1e-10     # classify_symmetry: wrong-parity L2 norm
_EXACT_REGIME = 1e-12       # self-differences below this: the exact regime


# --- elements: Bessel tables, closed-form and quadrature elements --------

def _bessel_series(order: int, x: float) -> float:
    half = 0.5 * x
    term = half ** order / math.factorial(order)
    total = term
    for k in range(1, 60):
        term *= half * half / (k * (k + order))
        total += term
        if term < 1e-18 * total:
            break
    return total


def _miller_start(order: int, x: float) -> int:
    m = max(order, int(x)) + 40
    m += int(10.0 * math.sqrt(max(order, x)))
    return m + (m % 2)


def _miller_column(order: int, x: float) -> np.ndarray:
    """I_0..I_order by downward recurrence, all normalized at once."""
    m = _miller_start(order, x)
    vals = np.zeros(m + 2)
    vals[m + 1] = 0.0
    vals[m] = 1e-300
    for k in range(m, 0, -1):
        vals[k - 1] = vals[k + 1] + (2.0 * k / x) * vals[k]
        if vals[k - 1] > 1e250:       # rescale to dodge overflow
            vals /= 1e250
    norm = vals[0] + 2.0 * np.sum(vals[1:])
    # divide first: vals/norm <= 1, so the exp(x) product cannot overflow
    # for x <= BESSEL_X_MAX even when norm itself is far from 1
    return vals[:order + 1] / norm * math.exp(x)


@dataclass(frozen=True)
class BesselTable:
    """Cached I_rho(argument) for rho = 0..rho_max, symmetric in rho."""

    argument: float
    values: np.ndarray

    @classmethod
    def build(cls, argument: float, rho_max: int) -> "BesselTable":
        """Power series below argument 2, otherwise Miller's downward
        recurrence normalized with exp(x) = I_0 + 2*sum_{k>=1} I_k."""
        if argument < 0:
            raise ValueError("argument must be >= 0")
        if argument > BESSEL_X_MAX:
            raise OverflowError(
                f"x={argument} exceeds {BESSEL_X_MAX}; rescale the problem or "
                "use an exponentially scaled representation")
        if argument == 0.0:
            vals = np.zeros(rho_max + 1)
            vals[0] = 1.0
        elif argument < _SERIES_CUTOFF:
            vals = np.array([_bessel_series(r, argument)
                             for r in range(rho_max + 1)])
        else:
            vals = _miller_column(rho_max, argument)
        return cls(argument=argument, values=vals)

    def __getitem__(self, rho: int) -> float:
        r = abs(int(rho))
        if r >= len(self.values):
            raise IndexError(f"order {rho} beyond table ({len(self.values) - 1})")
        return float(self.values[r])


def _bracket(table: BesselTable, big_l: int, q: int) -> float:
    """B(L, q) against the table's argument. See module docstring."""
    s = math.comb(2 * big_l, big_l) * table[q]
    for m in range(big_l):
        p = big_l - m
        s += math.comb(2 * big_l, m) * (table[p + q] + table[p - q])
    return s


# Fourier content {q: coefficient} of the admitted kernels f(theta).
_FOURIER: Dict[str, Dict[int, float]] = {
    "one":  {0: 1.0},
    "cos":  {1: 1.0},
    "cos2": {0: 0.5, 2: 0.5},
    "sin":  {0: 0.5, 2: -0.5},        # squared sine: the odd-sector norm kernel
}
_FOURIER["sin2"] = _FOURIER["sin"]


def _kernel_table(zeta: float, l_sum_max: int, q_max: int) -> BesselTable:
    return BesselTable.build(2.0 * math.sqrt(zeta), l_sum_max + q_max + 1)


def exp_cos_integral(L: int, zeta: float, f_kind: str) -> float:
    """integral over [0, 2*pi] of exp(2*sqrt(zeta)*cos) * f * cos(theta/2)**(2L).

    f_kind selects f(theta) from {'one', 'cos', 'cos2', 'sin'}; 'sin' is the
    squared sine kernel sin(theta)**2 that enters the odd-sector
    normalization (a plain sine integrates to zero by symmetry).
    """
    if L < 0 or L > MAX_KERNEL_POWER:
        raise ValueError(f"L must be in [0, {MAX_KERNEL_POWER}]")
    if zeta < 0:
        raise ValueError("zeta must be >= 0")
    if f_kind not in _FOURIER:
        raise ValueError(f"unknown f_kind {f_kind!r}")
    fourier = _FOURIER[f_kind]
    table = _kernel_table(zeta, L, max(fourier))
    scale = 2.0 * np.pi / 4.0 ** L
    return scale * sum(c * _bracket(table, L, q) for q, c in fourier.items())


# Kernels as polynomials in w = cos(theta/2)**2: cos = 2w - 1.
_KERNEL_W = {"one": [1.0], "cos": [-1.0, 2.0], "cos2": [1.0, -4.0, 4.0]}
_SIN2_W = [0.0, 4.0, -4.0]          # sin**2 = 4w(1 - w): the odd-sector weight


def _well_moments(x: float, count: int) -> np.ndarray:
    """m_L(x) for L < count (module docstring), summed from exp(-x) up so
    that no term overflows for x <= BESSEL_X_MAX."""
    if x > BESSEL_X_MAX:
        raise OverflowError(f"x={x} exceeds {BESSEL_X_MAX}")
    ell = np.arange(count, dtype=float)
    term = np.full(count, math.exp(-x))
    total = term.copy()
    n = 0
    # terms rise up to n ~ 2x, then fall off geometrically
    while n <= 2.0 * x or np.any(term > 1e-17 * total):
        term = term * ((n + 0.5) * 2.0 * x / ((n + ell + 1.0) * (n + 1.0)))
        total += term
        n += 1
    central = np.array([math.comb(2 * l, l) / 4.0 ** l for l in range(count)])
    return 2.0 * np.pi * central * total


def _well_coefficients(v: np.ndarray) -> np.ndarray:
    """sum_l v_l u**l re-expanded over powers of w = 1 - u (Horner)."""
    c = np.zeros(1)
    for vl in v[::-1]:
        c = np.convolve(c, [1.0, -1.0])
        c[0] += vl
    return c


def _ansatz_integral(gamma: SymmetryLabel, v_a: np.ndarray, v_b: np.ndarray,
                     zeta: float, kernel: str) -> float:
    """integral exp(-2*sqrt(zeta)*cos) * P_a * P_b * kernel, times sin**2
    in the odd sector, with P = sum_l v_l u**l."""
    poly = np.convolve(np.convolve(_well_coefficients(v_a),
                                   _well_coefficients(v_b)), _KERNEL_W[kernel])
    if gamma is SymmetryLabel.A2:
        poly = np.convolve(poly, _SIN2_W)
    return float(poly @ _well_moments(2.0 * math.sqrt(zeta), len(poly)))


def ansatz_norm_integral(gamma: SymmetryLabel, v: np.ndarray,
                         zeta: float) -> float:
    """Norm of the exponential-polynomial ansatz with coefficients v.

    Even sector: weight exp(-2*sqrt(zeta)*cos) over sin(theta/2) powers.
    Odd sector: the same with an extra sin(theta)**2.
    """
    return _ansatz_integral(gamma, v, v, zeta, "one")


def _analytic_element(a, b, kernel: str) -> float:
    if a.zeta != b.zeta:
        raise ValueError("ansatz pair built at different zeta")
    if a.gamma is not b.gamma:
        return 0.0                      # selection rule, exact
    raw = _ansatz_integral(a.gamma, a.v, b.v, a.zeta, kernel)
    return raw / math.sqrt(a.normalization * b.normalization)


def analytic_cos_element(a, b) -> float:
    """<phi_a|cos(theta)|phi_b> from the well moments.

    Inputs are AnsatzCoefficients; cross-symmetry pairs return exactly 0.
    """
    return _analytic_element(a, b, "cos")


def quadrature_element_matrix(spec: PendularSpectrum, operator: str,
                              grid: Optional[AngularGrid] = None) -> np.ndarray:
    """Grid-quadrature twin of sector_element_matrix: the unmasked
    (n_states x n_states) matrix (F*w) @ F^T * dtheta over the rows F of
    spec.wavefunction, on QUAD_GRID_POINTS points unless a grid is given.

    Cross-symmetry entries are integrated too, so they vanish only as far
    as the selection rules hold on the grid.
    """
    if grid is None:
        grid = make_grid(QUAD_GRID_POINTS)
    cos = np.cos(grid.theta)
    weights = {"cos": cos, "cos2": cos ** 2}
    if operator not in weights:
        raise ValueError(f"unknown operator {operator!r}")
    f = np.stack([spec.wavefunction(n, grid).amplitudes.real
                  for n in range(spec.n_states)])
    return (f * weights[operator]) @ f.T * grid.dtheta


def hellmann_feynman_residual(params: InteractionParams, n: int,
                              step: float = 1e-4,
                              j_max: Optional[int] = None) -> Tuple[float, float]:
    """|<cos> + d(eps_n)/d(eta)| and |<cos^2> + d(eps_n)/d(zeta)|.

    Central finite differences against quadrature expectations. Refuses
    states closer than 10*step (in energy) to a neighbor, where the
    differentiated branch is ill-defined. j_max=None takes the guarded
    automatic cutoff of solve_spectrum at params for the whole stencil.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    spec = solve_spectrum(params, n + 2, j_max)
    gap_up = spec.energies[n + 1] - spec.energies[n]
    gap_dn = spec.energies[n] - spec.energies[n - 1] if n > 0 else math.inf
    if min(gap_up, gap_dn) <= 10.0 * step:
        raise ValueError(
            f"state {n} is within 10*step of a neighbor "
            f"(gap {min(gap_up, gap_dn):.3e}); derivative branch ill-defined")
    j_max = spec.j_max                  # one cutoff for the whole stencil

    def energy(eta: float, zeta: float) -> float:
        # energies are even in eta (theta -> pi - theta maps +eta to -eta),
        # so a stencil point that strays positive folds back
        return float(solve_spectrum(InteractionParams(-abs(eta), zeta),
                                    n + 1, j_max).energies[n])

    eta, zeta = params.eta, params.zeta
    d_eta = (energy(eta + step, zeta) - energy(eta - step, zeta)) / (2 * step)
    if zeta - step >= 0:
        d_zeta = (energy(eta, zeta + step) - energy(eta, zeta - step)) / (2 * step)
    else:
        # one-sided second-order stencil keeps zeta >= 0
        d_zeta = (-3 * energy(eta, zeta) + 4 * energy(eta, zeta + step)
                  - energy(eta, zeta + 2 * step)) / (2 * step)

    grid = make_grid(QUAD_GRID_POINTS)
    psi = spec.wavefunction(n, grid)
    return (abs(psi.expectation_cos() + d_eta),
            abs(psi.expectation_cos2() + d_zeta))


def kinetic_identity_residual(params: InteractionParams, n: int,
                              j_max: Optional[int] = None) -> float:
    """|<J^2> - eps_n - eta*<cos> - zeta*<cos^2>|, all from quadrature;
    j_max=None takes the guarded automatic cutoff of solve_spectrum."""
    spec = solve_spectrum(params, n + 1, j_max)
    grid = make_grid(QUAD_GRID_POINTS)
    psi = spec.wavefunction(n, grid)
    return abs(psi.expectation_kinetic() - float(spec.energies[n])
               - params.eta * psi.expectation_cos()
               - params.zeta * psi.expectation_cos2())


# --- cqes: algebraic eigenstates, Bessel-sum and quadrature coefficients --

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
    return SwitchCoefficients(kind="switch_off", c=c, j_max=j_max)


def analytic_switch_on_coefficient(ansatz: AnsatzCoefficients, j0: int) -> complex:
    """<phi_n|j0> in closed form: the switch-off value, conjugated for odd
    states (their quadrature picks up the opposite phase)."""
    jm = abs(j0) + ansatz.ell_max + 2
    off = analytic_switch_off_coefficients(ansatz, j_max=jm)
    val = off.coefficient(j0)
    if ansatz.gamma is SymmetryLabel.A2:
        return val.conjugate()
    return val


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
    return SwitchCoefficients(kind="switch_off", c=c, j_max=j_max)


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
    return SwitchCoefficients(kind="switch_on", c=c)


def grid_state(c: np.ndarray, grid: AngularGrid) -> Wavefunction:
    """sum_J c_J exp(i*J*theta)/sqrt(2*pi) on the grid by one inverse FFT,
    from a signed row over J = -j..j (a Trajectory snapshot, a start row);
    modes past the grid alias onto it. Kept unnormalized, so that a
    snapshot's norm drift stays visible."""
    n, j = grid.n_points, len(c) // 2
    spectral = np.zeros(n, dtype=complex)
    np.add.at(spectral, np.arange(-j, j + 1) % n, c)
    amps = np.fft.ifft(spectral) * (n / math.sqrt(2.0 * np.pi))
    return Wavefunction(grid, amps, normalize=False)


def reconstruct_from_free_rotor(coeffs: SwitchCoefficients,
                                grid: Optional[AngularGrid] = None) -> Wavefunction:
    """Rebuild sum_j c_j exp(i*j*theta)/sqrt(2*pi) on a grid."""
    if coeffs.kind != "switch_off":
        raise ValueError("needs switch_off coefficients")
    return grid_state(coeffs.c, make_grid() if grid is None else grid)


# --- spectrum: parity of a grid state ------------------------------------

def classify_symmetry(psi: Wavefunction) -> SymmetryLabel:
    """Label a grid wavefunction by parity under theta -> -theta.

    The wrong-parity part must be below tolerance; a state with both parts
    large indicates basis contamination and raises.
    """
    amps = psi.amplitudes
    rev = np.roll(amps[::-1], 1)       # amplitude at -theta_k
    dth = psi.grid.dtheta
    odd_norm = math.sqrt(float(np.sum(np.abs(amps - rev) ** 2)) * dth) / 2.0
    even_norm = math.sqrt(float(np.sum(np.abs(amps + rev) ** 2)) * dth) / 2.0
    if odd_norm < PARITY_NORM_TOL and even_norm >= PARITY_NORM_TOL:
        return SymmetryLabel.A1
    if even_norm < PARITY_NORM_TOL and odd_norm >= PARITY_NORM_TOL:
        return SymmetryLabel.A2
    raise ValueError(
        f"mixed parity: even-part norm {even_norm:.3e}, "
        f"odd-part norm {odd_norm:.3e}")


# --- propagate: splitting order of the grid stepper ----------------------

@dataclass(frozen=True)
class AccuracyReport:
    """Self-convergence result from runs at dtau, dtau/2, dtau/4."""

    order: Optional[float]
    regime: str                 # "measured" or "exact"
    coarse_difference: float
    fine_difference: float

    def __str__(self) -> str:
        if self.regime == "exact":
            return (f"exact regime (differences {self.coarse_difference:.2e}, "
                    f"{self.fine_difference:.2e})")
        return (f"order {self.order:.3f} (differences "
                f"{self.coarse_difference:.2e}, {self.fine_difference:.2e})")


def second_order_accuracy_check(psi0: Wavefunction, schedule: PulseSchedule,
                                tau_end: Optional[float] = None,
                                dtau: float = DEFAULT_DTAU) -> AccuracyReport:
    """Richardson self-convergence of the splitting over [0, tau_end].

    Three runs at dtau, dtau/2, dtau/4; the L2 self-differences D1, D2
    give the observed global order log2(D1/D2). A smooth schedule sits at
    2; differences below 1e-12 report the exact regime instead of a
    meaningless exponent ratio.
    """
    if tau_end is None:
        tau_end = schedule.total_duration
    if tau_end <= 0:
        raise ValueError("tau_end must be > 0")
    if not abs(psi0.norm() - 1.0) <= _NORM_TOL:     # NaN fails too
        raise ValueError("initial state must be unit-normalized")
    grid = psi0.grid
    base = max(1, round(tau_end / dtau))
    finals = [
        _run(psi0.amplitudes, grid, schedule, tau_end, base * k)
        for k in (1, 2, 4)
    ]
    d1, d2 = grid_moments(np.diff(finals, axis=0), grid).norm.tolist()
    if d1 < _EXACT_REGIME and d2 < _EXACT_REGIME:
        return AccuracyReport(order=None, regime="exact",
                              coarse_difference=d1, fine_difference=d2)
    if d2 == 0.0:
        return AccuracyReport(order=math.inf, regime="measured",
                              coarse_difference=d1, fine_difference=d2)
    return AccuracyReport(order=math.log2(d1 / d2), regime="measured",
                          coarse_difference=d1, fine_difference=d2)

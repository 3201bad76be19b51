"""Matrix elements of cos(theta) and cos(theta)**2 between pendular states:
exact in the parity-split basis, by grid quadrature (the twin) and in
closed form between ansatz states, plus the Hellmann-Feynman and
kinetic-energy consistency identities.

Bessel machinery
----------------
exp_cos_integral and the switch coefficients of cqes reduce to

    integral over a period of exp(a*cos(theta)) * cos(q*theta)  =  2*pi*I_q(a)

after expanding even powers of cos(theta/2) binomially. The recurring
bracket is

    B(L, q; a) = binom(2L, L)*I_q(a)
               + sum_{m=0}^{L-1} binom(2L, m) * (I_{L-m+q}(a) + I_{L-m-q}(a))

which is the exact expansion of cos(theta/2)**(2L) against a cos(q*theta)
test function under the exp(a*cos(theta)) weight:

    integral exp(a*cos) * cos(q*theta) * cos(theta/2)**(2L)
        = (2*pi / 2**(2L)) * B(L, q; a).

Ansatz integrals
----------------
The eigenfunction ansatz of cqes carries exp(-sqrt(zeta)*cos) times a
polynomial in u = sin(theta/2)**2, whose states sit near u = 1 (theta =
pi). Summed over powers of u their integrals cancel by 1e10 and more at
strong fields, so they are re-expanded in w = cos(theta/2)**2 = 1 - u,
centred on the well, and reduced to the moments

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

from .core import (
    AngularGrid,
    InteractionParams,
    SymmetryLabel,
    make_grid,
)
from .spectrum import (PendularSpectrum, _odd_mask, _sector_bands,
                       solve_spectrum)

BESSEL_X_MAX = 700.0        # exp overflow guard for the Miller normalization
_SERIES_CUTOFF = 2.0

MAX_KERNEL_POWER = 40       # largest supported L in exp_cos_integral

QUAD_GRID_POINTS = 1024     # oracle quadratures run denser than the default


def modified_bessel_i(order: int, x: float) -> float:
    """I_order(x) to ~1e-12 relative accuracy for 0 <= x <= 700.

    One entry of BesselTable.build. Negative orders are accepted
    (I_{-n} = I_n).
    """
    order = abs(int(order))
    return BesselTable.build(x, order)[order]


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


def analytic_cos2_element(a, b) -> float:
    """<phi_a|cos(theta)**2|phi_b> from the well moments."""
    return _analytic_element(a, b, "cos2")


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


def sector_element_matrix(spec: PendularSpectrum, operator: str) -> np.ndarray:
    """Dense (n_states x n_states) element matrix, exact in the basis.

    V^T O V from the stored coefficients and the sector bands of the
    Hamiltonian (_element_stack); cross-sector entries are exactly zero.
    quadrature_element_matrix is the grid-quadrature twin.
    """
    return _element_stack(spec.coefficients[None],
                          _odd_mask(spec.labels)[None], operator)[0]


def _element_stack(coefficients: np.ndarray, odd: np.ndarray,
                   operator: str) -> np.ndarray:
    """sector_element_matrix of stacked points: (P, n, n) from their
    (P, n, j_max + 1) coefficients and (P, n) odd flags.

    In the padded layout (odd rows in slots 1..j_max, slot 0 zero) the
    even-sector bands serve both sectors: every coupling to slot 0
    vanishes for odd rows. The one difference is the folded J = 1
    diagonal of cos^2, 3/4 even and 1/4 odd, corrected by -v_1 v_1^T / 2
    over the odd rows. Cross-sector entries are then set to zero. Each
    point's matrix is its own batched product, whatever the stack.
    """
    if operator not in ("cos", "cos2"):
        raise ValueError(f"unknown operator {operator!r}")
    _, q0, c1, q2 = _sector_bands(coefficients.shape[-1] - 1, False)
    v = coefficients
    vt = v.swapaxes(-1, -2)
    if operator == "cos":
        mat = (v[..., :-1] * c1) @ vt[..., 1:, :]
        mat = mat + mat.swapaxes(-1, -2)
    else:
        band = (v[..., :-2] * q2) @ vt[..., 2:, :]
        mat = (v * q0) @ vt + band + band.swapaxes(-1, -2)
        v1 = np.where(odd, v[..., 1], 0.0)
        mat -= 0.5 * v1[..., :, None] * v1[..., None, :]
    return np.where(odd[..., :, None] == odd[..., None, :], mat, 0.0)


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

"""Observable dynamics after a sudden field switch.

Switch-off: the pendular state is frozen while the field vanishes, so the
free-rotor coefficients evolve with phases exp(-i*j^2*tau) and the
orientation / alignment signals are short Fourier sums over delta-j = +-1
and 0, +-2 pairs. Switch-on: a free-rotor state is frozen while the field
appears, the pendular populations are constant, and every observable
splits into a static population term plus coherence oscillations at the
level-gap frequencies within each symmetry sector.

Everything here is computed in the parity-split Fourier basis: overlaps
are exact coefficient lookups and element matrices are exact V^T O V
products. The coherence cross terms depend on the relative signs of the
eigenvectors, which solve_spectrum fixes once (pi-aligned) for every
route, grid twins included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import InteractionParams, SymmetryLabel
from .cqes import (
    SwitchCoefficients,
    switch_off_coefficients,
    switch_on_coefficients,
)
from .elements import sector_element_matrix
from .spectrum import PendularSpectrum, _odd_mask, solve_spectrum

SAMPLES_PER_PERIOD = 512
POPULATED_FLOOR = 1e-4      # |C|^2 above this counts as populated
IMAG_RESIDUE_TOL = 1e-10
_BOUNDS_SLACK = 1e-8
_TAU_CHUNK = 512            # tau samples per phase-matrix block

_OBSERVABLES = ("cos", "cos2", "J2", "energy")


def make_tau_grid(tau_max: float, samples_per_period: int = SAMPLES_PER_PERIOD
                  ) -> np.ndarray:
    """Uniform [0, tau_max] grid at the default sampling density."""
    if tau_max <= 0:
        raise ValueError("tau_max must be > 0")
    if samples_per_period < 1:
        raise ValueError(f"samples_per_period must be >= 1, "
                         f"got {samples_per_period}")
    n = max(2, round(samples_per_period * tau_max / (2.0 * math.pi)))
    return np.linspace(0.0, tau_max, n + 1)


@dataclass(frozen=True)
class ExpectationSeries:
    tau_grid: np.ndarray
    values: np.ndarray
    observable: str

    def __post_init__(self):
        if self.observable not in _OBSERVABLES:
            raise ValueError(f"unknown observable {self.observable!r}")
        v = self.values
        if self.observable == "cos":
            lo, hi = -1.0, 1.0
        elif self.observable == "cos2":
            lo, hi = 0.0, 1.0
        elif self.observable == "J2":
            lo, hi = 0.0, math.inf
        else:
            return
        if v.min() < lo - _BOUNDS_SLACK or v.max() > hi + _BOUNDS_SLACK:
            raise RuntimeError(
                f"{self.observable} series leaves [{lo}, {hi}]: "
                f"range [{v.min():.3e}, {v.max():.3e}]")


def _realize(tau_grid: np.ndarray, values: np.ndarray,
             observable: str) -> ExpectationSeries:
    # Hermitian expectations: imaginary residue must be numerical noise
    resid = float(np.max(np.abs(values.imag))) if np.iscomplexobj(values) else 0.0
    if resid > IMAG_RESIDUE_TOL:
        raise RuntimeError(
            f"imaginary residue {resid:.3e} in {observable} series")
    return ExpectationSeries(tau_grid=tau_grid,
                             values=np.asarray(values.real, dtype=float),
                             observable=observable)


def _phase_sum(tau_grid: np.ndarray, freq: np.ndarray,
               weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] * exp(i*freq[k]*tau) at every tau, in _TAU_CHUNK
    blocks of one reused frequency-major buffer (exp then walks along tau)."""
    out = np.empty(len(tau_grid), dtype=complex)
    buf = np.empty((len(freq), _TAU_CHUNK), dtype=complex)
    for start in range(0, len(tau_grid), _TAU_CHUNK):
        tau = tau_grid[start:start + _TAU_CHUNK]
        phase = buf[:, :len(tau)]
        np.exp(np.multiply.outer(freq, 1j * tau, out=phase), out=phase)
        out[start:start + len(tau)] = weights @ phase
    return out


@dataclass(frozen=True)
class PopulationRecord:
    index: Union[int, Tuple[SymmetryLabel, int]]
    probability: float


def total_population(records: Sequence[PopulationRecord]) -> float:
    return float(sum(r.probability for r in records))


# ---------------------------------------------------------------------------
# switch-off: pendular state released into free rotation


def switch_off_populations(spectrum: PendularSpectrum, n0: int,
                           j_max: Optional[int] = None
                           ) -> List[PopulationRecord]:
    """|<j|phi_n0>|^2, folded to j >= 0 rows, j <= j_max (default
    cqes._signed_j_max).

    The underlying signed-j weights satisfy P(-j) = P(j); each reported
    row carries the combined +-j probability so the list sums to one.
    """
    coeffs = switch_off_coefficients(spectrum, n0, j_max)
    j_max = coeffs.j_max
    p = np.abs(coeffs.c) ** 2
    folded = p[j_max:] + p[j_max::-1]
    folded[0] = p[j_max]
    return [PopulationRecord(index=j, probability=float(folded[j]))
            for j in range(j_max + 1)]


def switch_off_evolution(coeffs: SwitchCoefficients,
                         tau_grid: np.ndarray) -> Dict[str, ExpectationSeries]:
    """Orientation, alignment, and kinetic-energy series after switch-off.

    cos couples j to j+-1 (phase 2j+1), cos^2 couples j to j, j+-2
    (phase 4j+4); <J^2> carries no cross terms and stays constant.
    """
    if coeffs.kind != "switch_off":
        raise ValueError("needs switch_off coefficients")
    tau_grid = np.asarray(tau_grid, dtype=float)
    jm = coeffs.j_max
    c = coeffs.c
    j = np.arange(-jm, jm + 1)

    def band_sum(offset: int) -> np.ndarray:
        # <exp(i*offset*theta)> plus its Hermitian mirror, each summed on
        # its own and kept complex, so the realness of the total is a
        # checked property, not an assumption
        w_up = np.conj(c[offset:]) * c[:-offset]
        freq = (j[:-offset] + offset) ** 2 - j[:-offset] ** 2
        up = _phase_sum(tau_grid, freq, w_up)
        dn = _phase_sum(tau_grid, -freq, np.conj(w_up))
        return up + dn

    cos_vals = 0.5 * band_sum(1)
    static = 0.5 * float(np.sum(np.abs(c) ** 2))
    cos2_vals = static + 0.25 * band_sum(2)

    j2_const = float(np.sum(j ** 2 * np.abs(c) ** 2))
    j2_vals = np.full_like(tau_grid, j2_const)

    return {
        "cos": _realize(tau_grid, cos_vals, "cos"),
        "cos2": _realize(tau_grid, cos2_vals, "cos2"),
        "J2": ExpectationSeries(tau_grid, j2_vals, "J2"),
    }


# ---------------------------------------------------------------------------
# switch-on: free-rotor state released into the pendular spectrum


def switch_on_populations(spectrum: PendularSpectrum, j0: int
                          ) -> List[PopulationRecord]:
    """|<phi_{Gamma,n}|j0>|^2 for every solved state."""
    coeffs = switch_on_coefficients(spectrum, j0)
    return [
        PopulationRecord(index=(spectrum.labels[n], n),
                         probability=float(np.abs(coeffs.c[n]) ** 2))
        for n in range(spectrum.n_states)
    ]


def required_state_count(coeffs: SwitchCoefficients, tol: float = 1e-8) -> int:
    """Smallest n_states whose cumulative population exceeds 1 - tol."""
    cum = np.cumsum(np.abs(coeffs.c) ** 2)
    hit = np.nonzero(cum > 1.0 - tol)[0]
    if len(hit) == 0:
        raise ValueError(
            f"cumulative population reaches only {cum[-1]:.12f}; "
            "solve more states")
    return int(hit[0]) + 1


class _PairSum(NamedTuple):
    """sum_ab conj(c_a) c_b M_ab e^{i(E_a - E_b)tau} as its static diagonal
    plus the nonzero same-sector pairs a < b, each counting its mirror."""

    population: float
    weight: np.ndarray          # conj(c_a) * c_b * M_ab
    gap: np.ndarray             # E_a - E_b
    odd: np.ndarray             # pair lies in the A2 sector


def _pair_sum(spectrum: PendularSpectrum, c: np.ndarray,
              mat: np.ndarray) -> _PairSum:
    odd = _odd_mask(spectrum.labels)
    a, b = np.triu_indices(len(c), 1)
    weight = np.conj(c[a]) * c[b] * mat[a, b]
    keep = (odd[a] == odd[b]) & (weight != 0)
    a, b = a[keep], b[keep]
    return _PairSum(float(np.sum(np.abs(c) ** 2 * np.diag(mat).real)),
                    weight[keep], spectrum.energies[a] - spectrum.energies[b],
                    odd[a])


def _check_switch_on(spectrum: PendularSpectrum,
                     coeffs: SwitchCoefficients) -> None:
    if coeffs.kind != "switch_on":
        raise ValueError("needs switch_on coefficients")
    if len(coeffs.c) != spectrum.n_states:
        raise ValueError("coefficient vector does not match spectrum size")


@dataclass(frozen=True)
class CoherenceDecomposition:
    """Static population term and per-sector coherence parts of one
    observable's switch-on signal. The coherence parts oscillate around
    zero and are not bounded observables themselves, so they are plain
    arrays on the parent tau grid."""

    observable: str
    tau_grid: np.ndarray
    population: float
    coherence_a1: np.ndarray
    coherence_a2: np.ndarray

    def recombined(self) -> np.ndarray:
        return self.population + self.coherence_a1 + self.coherence_a2


def switch_on_evolution(spectrum: PendularSpectrum,
                        coeffs: SwitchCoefficients,
                        tau_grid: np.ndarray
                        ) -> Tuple[Dict[str, ExpectationSeries],
                                   Dict[str, CoherenceDecomposition]]:
    """Series plus population/coherence decompositions after switch-on.

    Returns ({cos, cos2, J2, energy} series, {cos, cos2} decompositions).
    <J^2>(tau) follows from energy conservation: <H> + eta<cos> + zeta<cos2>.
    """
    _check_switch_on(spectrum, coeffs)
    tau_grid = np.asarray(tau_grid, dtype=float)
    c = coeffs.c
    totals, decomps = {}, {}
    for name in ("cos", "cos2"):
        pairs = _pair_sum(spectrum, c, sector_element_matrix(spectrum, name))
        a1, a2 = (2.0 * np.real(_phase_sum(tau_grid, pairs.gap[sel],
                                           pairs.weight[sel]))
                  for sel in (~pairs.odd, pairs.odd))
        decomps[name] = CoherenceDecomposition(
            observable=name, tau_grid=tau_grid, population=pairs.population,
            coherence_a1=a1, coherence_a2=a2)
        totals[name] = decomps[name].recombined()

    energy = float(np.sum(np.abs(c) ** 2 * spectrum.energies))
    eta, zeta = spectrum.params.eta, spectrum.params.zeta
    j2_vals = energy + eta * totals["cos"] + zeta * totals["cos2"]

    series = {name: ExpectationSeries(tau_grid, vals, name)
              for name, vals in (*totals.items(), ("J2", j2_vals),
                                 ("energy", np.full_like(tau_grid, energy)))}
    return series, decomps


def dominant_coherence_period(spectrum: PendularSpectrum,
                              coeffs: SwitchCoefficients,
                              floor: float = POPULATED_FLOOR) -> float:
    """Period of the slowest switch-on beat.

    Returns 2*pi over the smallest nonzero energy gap between two solved
    states of the same symmetry label whose populations |C|^2 both exceed
    ``floor`` (POPULATED_FLOOR by default); math.inf if no such pair
    exists. Beats are not ranked by amplitude: the result is the slowest
    populated beat, whether or not it is the strongest line in any
    observable.
    """
    _check_switch_on(spectrum, coeffs)
    populated = np.abs(coeffs.c) ** 2 > floor
    pairs = _pair_sum(spectrum, coeffs.c,
                      np.outer(populated, populated).astype(float))
    gaps = np.abs(pairs.gap[pairs.gap != 0])
    if not len(gaps):
        return math.inf
    return 2.0 * math.pi / float(gaps.min())


def time_averaged_orientation(spectrum: PendularSpectrum,
                              coeffs: SwitchCoefficients,
                              tau_tilde: float) -> float:
    """(1/tau_tilde) * integral of <cos>(tau) over [0, tau_tilde], closed form.

    Population term plus coherence terms filtered by the window transform
    (e^{i*delta*T} - 1)/(i*delta*T), which reduces to sinc for the real
    cross weights that arise here.
    """
    if tau_tilde <= 0:
        raise ValueError("tau_tilde must be > 0")
    _check_switch_on(spectrum, coeffs)
    pairs = _pair_sum(spectrum, coeffs.c,
                      sector_element_matrix(spectrum, "cos"))
    x = pairs.gap * tau_tilde
    moving = x != 0.0
    window = np.ones(len(x), dtype=complex)
    window[moving] = (np.exp(1j * x[moving]) - 1.0) / (1j * x[moving])
    return pairs.population + 2.0 * float(np.sum(pairs.weight * window).real)


# ---------------------------------------------------------------------------
# topology map over the interaction plane


@dataclass(frozen=True)
class TopologyMap:
    """Time-averaged orientation field over the (eta, zeta) plane.

    values[i, j] belongs to (eta_values[i], zeta_values[j]). kappa_loci
    holds {kappa: eta(zeta) curve samples} for the integer-index curves
    eta = -kappa*sqrt(zeta); well_boundary is |eta| = 2*zeta, above which
    (in |eta|) the potential has a single well.
    """

    eta_values: np.ndarray
    zeta_values: np.ndarray
    values: np.ndarray
    j0: int
    tau_tilde: float
    kappa_loci: Dict[int, np.ndarray] = field(default_factory=dict)
    well_boundary: Optional[np.ndarray] = None
    # over all points: the largest cutoff, basis tail and population
    # deficit 1 - sum_n |C_n|^2 of the solved states
    j_max: int = 0
    basis_tail: float = 0.0
    population_deficit: float = 0.0


def topology_map(zeta_range: Tuple[float, float], eta_range: Tuple[float, float],
                 j0: int, tau_tilde: float, resolution: Tuple[int, int],
                 n_states: int = 20,
                 j_max: Optional[int] = None) -> TopologyMap:
    """Map of the time-averaged orientation, with crossing-loci overlays.

    resolution = (n_eta, n_zeta), both >= 16.
    """
    n_eta, n_zeta = resolution
    if n_eta < 16 or n_zeta < 16:
        raise ValueError("resolution must be >= 16 per axis")
    eta_values = np.linspace(eta_range[0], eta_range[1], n_eta)
    zeta_values = np.linspace(zeta_range[0], zeta_range[1], n_zeta)
    if np.any(eta_values > 0):
        raise ValueError("eta grid must stay <= 0")
    if np.any(zeta_values < 0):
        raise ValueError("zeta grid must stay >= 0")

    values = np.empty((n_eta, n_zeta))
    cutoff, tail, deficit = 0, 0.0, 0.0
    for i, eta in enumerate(eta_values):
        for k, zeta in enumerate(zeta_values):
            spec = solve_spectrum(InteractionParams(float(eta), float(zeta)),
                                  n_states, j_max)
            coeffs = switch_on_coefficients(spec, j0)
            values[i, k] = time_averaged_orientation(spec, coeffs, tau_tilde)
            cutoff = max(cutoff, spec.j_max)
            tail = max(tail, spec.basis_tail)
            deficit = max(deficit, 1.0 - coeffs.parseval())

    zq = np.sqrt(np.maximum(zeta_values, 0.0))
    eta_lo = min(abs(eta_range[0]), abs(eta_range[1]))
    eta_hi = max(abs(eta_range[0]), abs(eta_range[1]))
    loci: Dict[int, np.ndarray] = {}
    kappa_max = int(eta_hi / math.sqrt(max(zeta_values.min(), 1e-12))) if \
        zeta_values.min() > 0 else int(eta_hi)
    for kappa in range(1, max(kappa_max, 1) + 1):
        curve = -kappa * zq
        if np.any((np.abs(curve) >= eta_lo - 1e-12)
                  & (np.abs(curve) <= eta_hi + 1e-12)):
            loci[kappa] = curve
    boundary = -2.0 * zeta_values
    return TopologyMap(eta_values=eta_values, zeta_values=zeta_values,
                       values=values, j0=j0, tau_tilde=tau_tilde,
                       kappa_loci=loci, well_boundary=boundary,
                       j_max=cutoff, basis_tail=tail,
                       population_deficit=deficit)

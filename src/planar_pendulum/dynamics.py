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

Both series are evaluated from per-state amplitudes psi_k(tau) = c_k
exp(-i(E_k - E_ref)tau), with the conserved <H> or <J^2> as reference,
then small products over the states (the pair sums of the closed forms
are never formed per tau). Exps are taken per distinct level only at the
start of every 64-sample block of the tau grid and at the offsets of its
first block; each sample's phase is the product of its block's two
factors, corrected to first order for the few ulps by which the grid is
not uniform; a non-uniform grid is phased sample by sample instead
(_phased_blocks). The phase arguments are carried exactly, so the series
stay within a few roundings of exp at any tau. The time average sums the
same-sector pairs in closed form (_window_average), stacked over the
points of a map chunk or for one spectrum alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import SAMPLES_PER_PERIOD, InteractionParams, SymmetryLabel
from .cqes import (
    SwitchCoefficients,
    _switch_on_column,
    switch_off_coefficients,
    switch_on_coefficients,
)
from .elements import sector_element_matrix
from .spectrum import PendularSpectrum, _element_stack, solve_stacks

POPULATED_FLOOR = 1e-4      # |C|^2 above this counts as populated
IMAG_RESIDUE_TOL = 1e-10
_BOUNDS_SLACK = 1e-8
_TAU_CHUNK = 512            # tau samples per yielded chunk
_PHASE_BLOCK = 64           # tau samples per exact start phase
_PHASE_GUARD = 2.0 ** -26   # largest |w*delta| of the block product

_OBSERVABLES = ("cos", "cos2", "J2", "energy")


def make_tau_grid(tau_max: float, samples_per_period: int = SAMPLES_PER_PERIOD
                  ) -> np.ndarray:
    """Uniform [0, tau_max] grid at the default sampling density."""
    if not (math.isfinite(tau_max) and tau_max > 0):
        raise ValueError(f"tau_max must be finite and > 0, got {tau_max}")
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
    # the one-sided switch-off sums are real for a state of definite
    # parity: an imaginary residue past rounding means that parity is broken
    resid = float(np.max(np.abs(values.imag))) if np.iscomplexobj(values) else 0.0
    if resid > IMAG_RESIDUE_TOL:
        raise RuntimeError(
            f"imaginary residue {resid:.3e} in {observable} series")
    return ExpectationSeries(tau_grid=tau_grid,
                             values=np.asarray(values.real, dtype=float),
                             observable=observable)


def _split(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dekker's split x = hi + lo, each half with at most 26 significant
    bits, so products of halves are exact."""
    t = x * 134217729.0                 # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _two_sum(a: np.ndarray, b) -> Tuple[np.ndarray, np.ndarray]:
    """Knuth's two-sum: s + err == a + b exactly, s = fl(a + b)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _phased_blocks(tau_grid: np.ndarray, c: np.ndarray, level: np.ndarray,
                   reference: float):
    """Yield (chunk slice, psi) with psi[k, t] = c[k] *
    exp(-i*(level[k] - reference)*tau_t) over _TAU_CHUNK-sample chunks of
    tau_grid, in one reused buffer.

    exact(tau) is one exp per distinct level w = level - reference and
    sample, its argument carried exactly (w as a two-sum, its product with
    tau as Dekker's two-product) and the rounding of the argument handed
    to exp applied to first order. It is taken once per call at the start
    tau_b of every _PHASE_BLOCK-sample block and at the offsets d_s =
    tau_s - tau_0 of the first block. Sample tau_t, the s-th of the block
    at tau_b, gets exp(-i*w*tau_b) * exp(-i*w*d_s) * (1 - i*w*delta_t),
    where delta_t = tau_t - tau_b - d_s takes tau_t - tau_b as a two-sum,
    so that tau_b + d_s + delta_t is tau_t exactly whatever tau_0. On a
    uniform grid delta_t is a few ulps of tau; a chunk with max|w| *
    max|delta| > _PHASE_GUARD (a non-uniform grid) is phased sample by
    sample through exact instead. Either way every phase is within a few
    roundings of exp at any tau.
    """
    distinct, which = np.unique(level, return_inverse=True)
    shift, shift_lo = _two_sum(distinct, -reference)
    s_hi, s_lo = _split(shift)

    def exact(tau):
        t_hi, t_lo = _split(tau)
        arg = np.multiply.outer(shift, tau)
        err = np.multiply.outer(s_hi, t_hi) - arg
        err += np.multiply.outer(s_hi, t_lo)
        err += np.multiply.outer(s_lo, t_hi)
        err += np.multiply.outer(s_lo, t_lo)
        err += np.multiply.outer(shift_lo, tau)
        phase = np.exp(-1j * arg)
        phase *= 1.0 - 1j * err
        return phase

    starts = tau_grid[::_PHASE_BLOCK]
    head = tau_grid[:_PHASE_BLOCK] - tau_grid[:1]
    offsets = np.resize(head, _TAU_CHUNK)
    start_phase = exact(starts)[:, :, None]
    head_phase = exact(head)[:, None, :]
    w_max = float(np.abs(shift).max(initial=0.0))
    blocks = np.empty((len(shift), _TAU_CHUNK // _PHASE_BLOCK, len(head)),
                      dtype=complex)
    phase = blocks.reshape(len(shift), blocks.shape[1] * len(head))
    step = np.ones_like(phase)          # 1 - i*w*delta, real part kept at 1
    buf = np.empty((len(c), _TAU_CHUNK), dtype=complex)
    for start in range(0, len(tau_grid), _TAU_CHUNK):
        tau = tau_grid[start:start + _TAU_CHUNK]
        n = len(tau)
        b0, nb = start // _PHASE_BLOCK, -(-n // _PHASE_BLOCK)
        hi, lo = _two_sum(tau, -np.repeat(starts[b0:b0 + nb], _PHASE_BLOCK)[:n])
        delta = (hi - offsets[:n]) + lo
        psi = buf[:, :n]
        if w_max * float(np.abs(delta).max()) > _PHASE_GUARD:
            np.take(exact(tau), which, axis=0, out=psi)
        else:
            np.multiply(start_phase[:, b0:b0 + nb], head_phase,
                        out=blocks[:, :nb])
            np.multiply.outer(-shift, delta, out=step.imag[:, :n])
            phase[:, :n] *= step[:, :n]
            np.take(phase[:, :n], which, axis=0, out=psi)
        psi *= c[:, None]
        yield slice(start, start + n), psi


@dataclass(frozen=True)
class PopulationRecord:
    index: Union[int, Tuple[SymmetryLabel, int]]
    probability: float


def total_population(records: Sequence[PopulationRecord]) -> float:
    return float(sum(r.probability for r in records))


# ---------------------------------------------------------------------------
# switch-off: pendular state released into free rotation


def switch_off_populations(spectrum: PendularSpectrum,
                           n0: int) -> List[PopulationRecord]:
    """|<j|phi_n0>|^2, folded to j >= 0 rows, j <= cqes._signed_j_max.

    The underlying signed-j weights satisfy P(-j) = P(j); each reported
    row carries the combined +-j probability so the list sums to one.
    """
    coeffs = switch_off_coefficients(spectrum, n0)
    j_max = coeffs.j_max
    p = np.abs(coeffs.c) ** 2
    folded = p[j_max:] + p[j_max::-1]
    folded[0] = p[j_max]
    return [PopulationRecord(index=j, probability=float(folded[j]))
            for j in range(j_max + 1)]


def switch_off_evolution(coeffs: SwitchCoefficients,
                         tau_grid: np.ndarray) -> Dict[str, ExpectationSeries]:
    """Orientation, alignment, and kinetic-energy series after switch-off.

    From the per-state amplitudes psi_j = c_j exp(-i(j^2 - <J^2>)tau) over
    the nonzero support of c: <exp(i*o*theta)> = sum_j conj(psi_{j+o})
    psi_j, cos = <exp(i*theta)> and cos^2 = sum|c|^2/2 + <exp(2i*theta)>/2;
    <J^2> carries no cross terms and stays constant. The one-sided sums
    are real only for a state of definite parity (c_{-j} = +-c_j, which
    every released eigenstate has), so their checked imaginary residue
    (IMAG_RESIDUE_TOL) tests that parity.
    """
    if coeffs.kind != "switch_off":
        raise ValueError("needs switch_off coefficients")
    tau_grid = np.asarray(tau_grid, dtype=float)
    jm = coeffs.j_max
    c = coeffs.c
    j = np.arange(-jm, jm + 1)
    p = np.abs(c) ** 2
    static = 0.5 * float(np.sum(p))
    j2_const = float(np.sum(j ** 2 * p))

    support = np.flatnonzero(c)
    lo, hi = (support[0], support[-1] + 1) if len(support) else (0, 0)
    bands = np.zeros((2, len(tau_grid)), dtype=complex)   # offsets 1 and 2
    for block, psi in _phased_blocks(tau_grid, c[lo:hi],
                                     (j[lo:hi] ** 2).astype(float), j2_const):
        for o in (1, 2):
            bands[o - 1, block] = np.vecdot(psi[o:], psi[:-o], axis=0)

    return {
        "cos": _realize(tau_grid, bands[0], "cos"),
        "cos2": _realize(tau_grid, static + 0.5 * bands[1], "cos2"),
        "J2": ExpectationSeries(tau_grid, np.full_like(tau_grid, j2_const),
                                "J2"),
    }


# ---------------------------------------------------------------------------
# switch-on: free-rotor state released into the pendular spectrum


def switch_on_populations(spectrum: PendularSpectrum, j0: int
                          ) -> List[PopulationRecord]:
    """|<phi_{Gamma,n}|j0>|^2 for every solved state."""
    coeffs = switch_on_coefficients(spectrum, j0)
    return [PopulationRecord(index=(label, n),
                             probability=float(np.abs(coeffs.c[n]) ** 2))
            for n, label in enumerate(spectrum.labels)]


def _population(c: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Static population term sum_n |c_n|^2 M_nn, over any leading axes."""
    return np.sum(np.abs(c) ** 2 * np.diagonal(mat, axis1=-2, axis2=-1).real,
                  axis=-1)


def _window_average(c: np.ndarray, energies: np.ndarray, mat: np.ndarray,
                    tau_tilde: float) -> np.ndarray:
    """sum_ab conj(c_a) c_b M_ab e^{i(E_a - E_b)tau} averaged over
    [0, tau_tilde], over any leading axes: the static population term plus
    every pair a < b (counting its mirror) filtered by the window transform
    (e^{ix} - 1)/(ix), x = (E_a - E_b)*tau_tilde. Cross-sector pairs have
    M_ab = 0 and add nothing."""
    a, b = np.triu_indices(c.shape[-1], 1)
    weight = np.conj(c[..., a]) * c[..., b] * mat[..., a, b]
    x = (energies[..., a] - energies[..., b]) * tau_tilde
    moving = x != 0.0
    window = np.ones(x.shape, dtype=complex)
    window[moving] = (np.exp(1j * x[moving]) - 1.0) / (1j * x[moving])
    return _population(c, mat) + 2.0 * np.sum(weight * window, axis=-1).real


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
    From the per-state amplitudes psi_n = c_n exp(-i(E_n - <H>)tau), with
    the conserved energy <H> = sum|c_n|^2 E_n as phase reference, each
    sector's coherence part is Re psi^H (M - diag M) psi over the populated
    states of that sector; the population term is sum|c_n|^2 M_nn.
    <J^2>(tau) follows from energy conservation: <H> + eta<cos> + zeta<cos2>.
    """
    _check_switch_on(spectrum, coeffs)
    tau_grid = np.asarray(tau_grid, dtype=float)
    c = coeffs.c
    energy = float(np.sum(np.abs(c) ** 2 * spectrum.energies))
    mats = {name: sector_element_matrix(spectrum, name)
            for name in ("cos", "cos2")}
    # populated states, A1 sector first; the element matrices vanish
    # across sectors, so each sector's rows of psi^H M psi are its own part
    populated = np.flatnonzero(c)
    order = populated[np.argsort(spectrum.odd[populated], kind="stable")]
    n_a1 = int(np.count_nonzero(~spectrum.odd[order]))
    coupling = {}
    for name, mat in mats.items():
        coupling[name] = mat[np.ix_(order, order)]
        np.fill_diagonal(coupling[name], 0.0)
    coherence = {name: np.zeros((2, len(tau_grid))) for name in mats}
    for block, psi in _phased_blocks(tau_grid, c[order],
                                     spectrum.energies[order], energy):
        for name, m in coupling.items():
            terms = np.real(np.conj(psi) * (m @ psi))
            coherence[name][0, block] = terms[:n_a1].sum(axis=0)
            coherence[name][1, block] = terms[n_a1:].sum(axis=0)

    totals, decomps = {}, {}
    for name, mat in mats.items():
        decomps[name] = CoherenceDecomposition(
            observable=name, tau_grid=tau_grid,
            population=float(_population(c, mat)),
            coherence_a1=coherence[name][0], coherence_a2=coherence[name][1])
        totals[name] = decomps[name].recombined()

    eta, zeta = spectrum.params.eta, spectrum.params.zeta
    j2_vals = energy + eta * totals["cos"] + zeta * totals["cos2"]

    series = {name: ExpectationSeries(tau_grid, vals, name)
              for name, vals in (*totals.items(), ("J2", j2_vals),
                                 ("energy", np.full_like(tau_grid, energy)))}
    return series, decomps


def dominant_coherence_period(spectrum: PendularSpectrum,
                              coeffs: SwitchCoefficients) -> float:
    """Period of the slowest switch-on beat.

    Returns 2*pi over the smallest nonzero energy gap between two solved
    states of the same symmetry label whose populations |C|^2 both exceed
    POPULATED_FLOOR; math.inf if no such pair exists. Beats are not ranked
    by amplitude: the result is the slowest populated beat, whether or not
    it is the strongest line in any observable.
    """
    _check_switch_on(spectrum, coeffs)
    populated = np.abs(coeffs.c) ** 2 > POPULATED_FLOOR
    a, b = np.triu_indices(len(populated), 1)
    beat = populated[a] & populated[b] & (spectrum.odd[a] == spectrum.odd[b])
    gaps = np.abs(spectrum.energies[a] - spectrum.energies[b])[beat]
    gaps = gaps[gaps != 0]
    if not len(gaps):
        return math.inf
    return 2.0 * math.pi / float(gaps.min())


def time_averaged_orientation(spectrum: PendularSpectrum,
                              coeffs: SwitchCoefficients,
                              tau_tilde: float) -> float:
    """(1/tau_tilde) * integral of <cos>(tau) over [0, tau_tilde], closed form.

    Population term plus coherence terms filtered by the window transform
    (e^{i*delta*T} - 1)/(i*delta*T), which reduces to sinc for the real
    cross weights that arise here: _window_average, as topology_map.
    """
    if not (math.isfinite(tau_tilde) and tau_tilde > 0):
        raise ValueError(f"tau_tilde must be finite and > 0, got {tau_tilde}")
    _check_switch_on(spectrum, coeffs)
    return float(_window_average(coeffs.c, spectrum.energies,
                                 sector_element_matrix(spectrum, "cos"),
                                 tau_tilde))


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
    # deficit 1 - sum_n |C_n|^2 of the solved states, the smallest cut gap,
    # and how many points were solved again at a grown cutoff
    j_max: int = 0
    basis_tail: float = 0.0
    population_deficit: float = 0.0
    cut_gap: float = math.inf
    cutoff_misses: int = 0


def topology_map(zeta_range: Tuple[float, float], eta_range: Tuple[float, float],
                 j0: int, tau_tilde: float, resolution: Tuple[int, int],
                 n_states: int = 20,
                 j_max: Optional[int] = None) -> TopologyMap:
    """Map of the time-averaged orientation, with crossing-loci overlays.

    resolution = (n_eta, n_zeta), both >= 16. The points are solved in
    stacks (solve_stacks) and each stack's switch-on amplitudes, cos
    element matrices and window averages are taken at once; every value
    equals time_averaged_orientation of its point's own solve.
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
    if not (math.isfinite(tau_tilde) and tau_tilde > 0):
        raise ValueError(f"tau_tilde must be finite and > 0, got {tau_tilde}")
    points = [InteractionParams(float(eta), float(zeta))
              for eta in eta_values for zeta in zeta_values]
    values = np.empty(len(points))
    cutoff, tail, deficit, cut_gap, misses = 0, 0.0, 0.0, math.inf, 0
    for stack in solve_stacks(points, n_states, j_max):
        c = _switch_on_column(stack.coefficients, stack.odd, j0)
        mat = _element_stack(stack.coefficients, stack.odd, "cos")
        values[stack.index] = _window_average(c, stack.energies, mat, tau_tilde)
        cutoff = max(cutoff, stack.j_max)
        tail = max(tail, float(stack.basis_tail.max()))
        deficit = max(deficit, float(np.max(1.0 - np.sum(np.abs(c) ** 2,
                                                          axis=-1))))
        cut_gap = min(cut_gap, float(stack.cut_gap.min()))
        misses += int(np.count_nonzero(stack.grown))
    values = values.reshape(n_eta, n_zeta)

    zq = np.sqrt(np.maximum(zeta_values, 0.0))
    eta_lo = min(abs(eta_range[0]), abs(eta_range[1]))
    eta_hi = max(abs(eta_range[0]), abs(eta_range[1]))
    loci: Dict[int, np.ndarray] = {}
    # the loci fan out fastest at the smallest positive zeta sample
    positive = zeta_values[zeta_values > 0]
    kappa_max = (int(eta_hi / math.sqrt(positive.min())) if len(positive)
                 else int(eta_hi))
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
                       population_deficit=deficit, cut_gap=cut_gap,
                       cutoff_misses=misses)

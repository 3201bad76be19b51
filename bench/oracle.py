"""Independent full-basis oracle for the planar pendulum, numpy only.

It works in the complex-exponential basis |m> = exp(i*m*theta)/sqrt(2*pi),
m = -M..M, where H = J^2 - eta*cos(theta) - zeta*cos(theta)**2 has

    <m|H|n> = (m^2 - zeta/2) delta_mn - (eta/2) delta_{|m-n|,1}
              - (zeta/4) delta_{|m-n|,2}.

Nothing here uses the program's parity-split basis, its grid states or its
sign conventions. Parity is read off each eigenvector under m -> -m; inside
a near-degenerate cluster the eigenvectors are first rotated onto
eigenvectors of the parity operator. Every quantity the benchmark checks is
bilinear in the eigenvectors, so their signs never matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

A1, A2 = "A1", "A2"

# Neighbouring eigenvalues closer than this fraction of the spectral radius
# form one cluster whose vectors are re-split by parity.
_CLUSTER_TOL = 1e-9
# Largest wrong-parity norm, relative to the right-parity norm, of a vector
# that still gets a label.
_PARITY_TOL = 1e-6


def hamiltonian(eta: float, zeta: float, m_max: int) -> np.ndarray:
    m = np.arange(-m_max, m_max + 1, dtype=float)
    h = np.diag(m * m - 0.5 * zeta)
    k = np.arange(2 * m_max)
    h[k, k + 1] = h[k + 1, k] = -0.5 * eta
    k = np.arange(2 * m_max - 1)
    h[k, k + 2] = h[k + 2, k] = -0.25 * zeta
    return h


def cos_matrix(m_max: int) -> np.ndarray:
    n = 2 * m_max + 1
    c = np.zeros((n, n))
    k = np.arange(n - 1)
    c[k, k + 1] = c[k + 1, k] = 0.5
    return c


def cos2_matrix(m_max: int) -> np.ndarray:
    """cos^2 = 1/2 + cos(2 theta)/2, restricted to |m| <= m_max."""
    n = 2 * m_max + 1
    c = np.diag(np.full(n, 0.5))
    k = np.arange(n - 2)
    c[k, k + 2] = c[k + 2, k] = 0.25
    return c


@dataclass(frozen=True)
class Spectrum:
    """All 2*m_max+1 eigenpairs, ascending; vectors[:, i] over m = -M..M."""

    eta: float
    zeta: float
    m_max: int
    energies: np.ndarray
    vectors: np.ndarray
    labels: Tuple[str, ...]

    def index(self, m: int) -> int:
        return self.m_max + m

    def sector(self, label: str) -> np.ndarray:
        return np.array([i for i, lab in enumerate(self.labels) if lab == label])


def _parity_labels(v: np.ndarray) -> Tuple[str, ...]:
    even = np.linalg.norm(v + v[::-1], axis=0)
    odd = np.linalg.norm(v - v[::-1], axis=0)
    mixed = (odd >= _PARITY_TOL * even) & (even >= _PARITY_TOL * odd)
    if np.any(mixed):
        i = int(np.argmax(mixed))
        raise ValueError(f"mixed parity in state {i}: even {even[i]:.3e}, "
                         f"odd {odd[i]:.3e}")
    return tuple(A1 if o < e else A2 for e, o in zip(even, odd))


def _split_cluster(h: np.ndarray, block: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of H inside a near-degenerate invariant subspace, each of
    definite parity: rotate onto parity eigenvectors, then diagonalise H
    within each parity group."""
    parity = block.T @ block[::-1]                  # <v_i| P |v_j>
    pw, rot = np.linalg.eigh(0.5 * (parity + parity.T))
    pure = block @ rot
    energies, vectors = [], []
    for group in (pure[:, pw > 0], pure[:, pw <= 0]):
        if group.shape[1]:
            gw, gv = np.linalg.eigh(group.T @ h @ group)
            energies.append(gw)
            vectors.append(group @ gv)
    w = np.concatenate(energies)
    v = np.concatenate(vectors, axis=1)
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def solve(eta: float, zeta: float, m_max: int = 64) -> Spectrum:
    h = hamiltonian(eta, zeta, m_max)
    w, v = np.linalg.eigh(h)
    # eigh mixes eigenvectors whose gap is below ~eps*||H||/mixing; such
    # clusters are re-split by parity before labels are read
    tol = _CLUSTER_TOL * float(np.max(np.abs(w)))
    start = 0
    while start < len(w):
        stop = start + 1
        while stop < len(w) and w[stop] - w[stop - 1] <= tol:
            stop += 1
        if stop - start > 1:
            w[start:stop], v[:, start:stop] = _split_cluster(h, v[:, start:stop])
        start = stop
    return Spectrum(eta, zeta, m_max, w, v, _parity_labels(v))


def sector_energies(spec: Spectrum, label: str) -> np.ndarray:
    return spec.energies[spec.sector(label)]


def matching_states(spec: Spectrum, labels: Sequence[str]) -> np.ndarray:
    """Oracle indices of the states a solver kept, given its label list:
    the k-th kept state of a sector is the oracle's k-th of that sector.
    Near-degenerate levels of opposite parity may be ordered either way,
    and this identifies them without relying on the order."""
    rank = {A1: 0, A2: 0}
    out = []
    for lab in labels:
        out.append(spec.sector(lab)[rank[lab]])
        rank[lab] += 1
    return np.array(out)


# --------------------------------------------------------------------------
# sudden switch-on from the free-rotor state j0


def switch_on_coefficients(spec: Spectrum, j0: int,
                           states: np.ndarray) -> np.ndarray:
    """<phi_n|j0> for the given oracle states (real)."""
    return spec.vectors[spec.index(j0), states]


def _elements(spec: Spectrum, op: np.ndarray, states: np.ndarray) -> np.ndarray:
    v = spec.vectors[:, states]
    return v.T @ op @ v


def window_average(spec: Spectrum, j0: int, states: np.ndarray,
                   tau_tilde: float) -> float:
    """(1/T) int_0^T <cos>(tau) dtau, summed over the given states."""
    c = switch_on_coefficients(spec, j0, states)
    m = _elements(spec, cos_matrix(spec.m_max), states)
    e = spec.energies[states]
    x = (e[:, None] - e[None, :]) * tau_tilde
    safe = np.where(x == 0.0, 1.0, x)
    window = np.where(x == 0.0, 1.0, (np.exp(1j * x) - 1.0) / (1j * safe))
    return float(np.real(np.sum(np.outer(c, c) * m * window)))


def switch_on_series(spec: Spectrum, j0: int, states: np.ndarray,
                     taus: Sequence[float]) -> dict:
    """<cos>, <cos^2>, <J^2> and <H> at each tau, over the given states."""
    c = switch_on_coefficients(spec, j0, states)
    e = spec.energies[states]
    mc = _elements(spec, cos_matrix(spec.m_max), states)
    mc2 = _elements(spec, cos2_matrix(spec.m_max), states)
    u = c[None, :] * np.exp(-1j * np.outer(np.asarray(taus, float), e))
    cos = np.real(np.einsum("ta,ab,tb->t", u.conj(), mc, u))
    cos2 = np.real(np.einsum("ta,ab,tb->t", u.conj(), mc2, u))
    energy = float(np.sum(c * c * e))
    return {"cos": cos, "cos2": cos2,
            "J2": energy + spec.eta * cos + spec.zeta * cos2,
            "energy": energy}


def switch_on_energy_tail(spec: Spectrum, j0: int, states: np.ndarray) -> float:
    """Mean energy over all states minus its sum over the given states."""
    c = spec.vectors[spec.index(j0), :]
    terms = c * c * spec.energies
    return float(np.sum(terms) - np.sum(terms[states]))


# --------------------------------------------------------------------------
# sudden switch-off of eigenstate n0


def switch_off_probabilities(spec: Spectrum, n0: int, j_max: int) -> np.ndarray:
    """P(|J|) for J = 0..j_max, +J and -J combined."""
    v = spec.vectors[:, n0]
    out = np.empty(j_max + 1)
    out[0] = v[spec.index(0)] ** 2
    for j in range(1, j_max + 1):
        out[j] = v[spec.index(j)] ** 2 + v[spec.index(-j)] ** 2
    return out


def free_series(psi0: np.ndarray, m_max: int, taus: Sequence[float]) -> dict:
    """<cos>, <cos^2>, <J^2> of a free-rotor evolution from psi0 (m basis)."""
    m = np.arange(-m_max, m_max + 1, dtype=float)
    psi = psi0[None, :] * np.exp(-1j * np.outer(np.asarray(taus, float), m * m))
    return {"cos": np.real(np.einsum("ta,ab,tb->t", psi.conj(),
                                     cos_matrix(m_max), psi)),
            "cos2": np.real(np.einsum("ta,ab,tb->t", psi.conj(),
                                      cos2_matrix(m_max), psi)),
            "J2": np.real(np.sum(np.abs(psi) ** 2 * m * m, axis=1))}


# --------------------------------------------------------------------------
# crossings


def locate_crossing(zeta: float, lo: float, hi: float, pair: Tuple[int, int],
                    m_max: int = 64, points: int = 101) -> Tuple[float, float, str]:
    """(eta_c, gap, kind) of the interior gap minimum of an adjacent pair.

    A genuine crossing joins states of opposite parity; its eta_c is the
    root of the signed difference of the two sector levels, found by
    bisection. An avoided crossing's eta_c minimises the gap, found by
    golden-section search on the oracle's own gap function.
    """
    def gap(eta: float) -> float:
        e = solve(eta, zeta, m_max).energies
        return float(e[pair[1]] - e[pair[0]])

    etas = np.linspace(lo, hi, points)
    gaps = np.array([gap(e) for e in etas])
    interior = [k for k in range(1, points - 1)
                if gaps[k] < gaps[k - 1] and gaps[k] <= gaps[k + 1]]
    if len(interior) != 1:
        raise ValueError(f"{len(interior)} gap minima in [{lo}, {hi}]")
    a, b = float(etas[interior[0] - 1]), float(etas[interior[0] + 1])
    mid = solve(etas[interior[0]], zeta, m_max)
    if mid.labels[pair[0]] != mid.labels[pair[1]]:
        # follow the two sector levels that meet: their rank in each sector
        ranks = {lab: int(np.sum(np.array(mid.labels[:pair[1] + 1]) == lab)) - 1
                 for lab in (A1, A2)}

        def signed(eta: float) -> float:
            s = solve(eta, zeta, m_max)
            return float(sector_energies(s, A1)[ranks[A1]]
                         - sector_energies(s, A2)[ranks[A2]])

        fa = signed(a)
        for _ in range(200):
            c = 0.5 * (a + b)
            fc = signed(c)
            if fc == 0.0 or b - a < 1e-13:
                break
            if (fc > 0) == (fa > 0):
                a, fa = c, fc
            else:
                b = c
        eta_c = 0.5 * (a + b)
        return eta_c, abs(signed(eta_c)), "genuine"
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c1, c2 = b - r * (b - a), a + r * (b - a)
    g1, g2 = gap(c1), gap(c2)
    while b - a > 1e-11:
        if g1 < g2:
            b, c2, g2 = c2, c1, g1
            c1 = b - r * (b - a)
            g1 = gap(c1)
        else:
            a, c1, g1 = c1, c2, g2
            c2 = a + r * (b - a)
            g2 = gap(c2)
    eta_c = 0.5 * (a + b)
    return eta_c, gap(eta_c), "avoided"


# --------------------------------------------------------------------------
# time-dependent evolution in the m basis

Fields = Callable[[float], Tuple[float, float]]

_CF4_A1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_CF4_A2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


def _exp_step(h_mat: np.ndarray, dt: float, psi: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h_mat)
    return v @ (np.exp(-1j * w * dt) * (v.T @ psi))


def evolve(psi: np.ndarray, fields: Fields, t0: float, t1: float,
           substeps: int, m_max: int, constant: bool) -> np.ndarray:
    """Evolve psi from t0 to t1 under H(fields(t)).

    A constant field is propagated exactly by one eigendecomposition. A
    time-dependent one uses the fourth-order commutator-free Magnus
    integrator (two exponentials per step at the Gauss points).
    """
    if t1 <= t0:
        return psi
    if constant:
        return _exp_step(hamiltonian(*fields(0.5 * (t0 + t1)), m_max),
                         t1 - t0, psi)
    h = (t1 - t0) / substeps
    for i in range(substeps):
        t = t0 + i * h
        h1 = hamiltonian(*fields(t + _GAUSS[0] * h), m_max)
        h2 = hamiltonian(*fields(t + _GAUSS[1] * h), m_max)
        psi = _exp_step(_CF4_A2 * h1 + _CF4_A1 * h2, h, psi)
        psi = _exp_step(_CF4_A1 * h1 + _CF4_A2 * h2, h, psi)
    return psi


def observables(psi: np.ndarray, m_max: int) -> Tuple[float, float, float]:
    """(<cos>, <cos^2>, <J^2>) of one m-basis state."""
    m = np.arange(-m_max, m_max + 1, dtype=float)
    return (float(np.real(psi.conj() @ cos_matrix(m_max) @ psi)),
            float(np.real(psi.conj() @ cos2_matrix(m_max) @ psi)),
            float(np.sum(np.abs(psi) ** 2 * m * m)))


def trajectory(psi0: np.ndarray, segments: List[Tuple[float, float, Fields, bool]],
               taus: Sequence[float], m_max: int, max_substep: float,
               min_substeps: int) -> Tuple[np.ndarray, float]:
    """Observables (cos, cos2, J2) at each tau, rows in tau order, and the
    largest weight seen on the outermost |m| (see tail_weight).

    segments: (start, end, fields, constant) in time order. A time-dependent
    segment is integrated in substeps no longer than max_substep nor than
    1/min_substeps of the segment. Integration restarts at every requested
    tau and every segment edge, so samples land exactly on step boundaries.
    """
    edges = sorted({float(t) for t in taus}
                   | {s[0] for s in segments} | {s[1] for s in segments})
    out = {}
    psi = psi0.astype(complex)
    t = edges[0]
    tail = tail_weight(psi)
    if t in taus:
        out[t] = observables(psi, m_max)
    for t_next in edges[1:]:
        for start, end, fields, constant in segments:
            lo, hi = max(start, t), min(end, t_next)
            if hi > lo:
                step = min(max_substep, (end - start) / min_substeps)
                n = max(1, math.ceil((hi - lo) / step - 1e-9))
                psi = evolve(psi, fields, lo, hi, n, m_max, constant)
        t = t_next
        out[t] = observables(psi, m_max)
        tail = max(tail, tail_weight(psi))
    return np.array([out[float(t)] for t in taus]), tail


def tail_weight(psi: np.ndarray, width: int = 8) -> float:
    """Weight on the outermost |m| > m_max - width components."""
    return float(np.sum(np.abs(psi[:width]) ** 2)
                 + np.sum(np.abs(psi[-width:]) ** 2))

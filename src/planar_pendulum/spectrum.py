"""Pendular spectrum: parity-adapted Hamiltonian, eigensolve, symmetry
labels, and crossing-locus scans over the orienting strength.

The Hamiltonian H = J^2 - eta*cos(theta) - zeta*cos(theta)**2 block-
diagonalizes in the parity-adapted free-rotor basis. The even (A1) sector
uses {1/sqrt(2*pi), cos(J*theta)/sqrt(pi)} and the odd (A2) sector
{sin(J*theta)/sqrt(pi)}. Within a sector, cos(theta) couples |dJ| = 1 with
strength 1/2 and cos(theta)**2 couples |dJ| = 2 with strength 1/4 plus a
1/2 diagonal shift; rows touching J = 0 pick up sqrt(2) factors, and the
J = 1 diagonal folds over (cos**2: 3/4 in the even sector, 1/4 in the odd).

The basis is cut at |J| <= j_max, and every solve checks the cut: the
largest |c_J| of any returned state over the last TAIL_ROWS functions must
be <= TAIL_TOL. solve_spectrum picks and grows its own cutoff unless one
is given, which is refused instead of grown. crossing_scan takes its gaps
from sector eigenvalues alone, covered by one bound on the tail of every
state of its window (_tail_bound) in place of the per-solve check.

Many points are solved in stacked form (solve_stacks): the points that
share a cutoff are stacked in chunks of at most _STACK_BYTES of sector
Hamiltonians, and each chunk takes one batched eigensolve per sector,
one vectorized state cut and one tail check. A point whose tail fails is
solved again with the next cutoff. solve_spectrum is the stack of one
point, so a stacked point equals its own solve bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    DEFAULT_J_MAX,
    AngularGrid,
    InteractionParams,
    SymmetryLabel,
    Wavefunction,
    make_grid,
)

# Gap below which a refined crossing counts as a genuine degeneracy.
DEGENERACY_GAP_TOL = 1e-6

CROSSING_RESOLUTION = 200   # crossing_scan: coarse eta points,
CROSSING_ETA_TOL = 1e-9     # and the golden refinement's eta tolerance

TAIL_TOL = 1e-12    # largest |c_J| allowed over the last TAIL_ROWS basis
TAIL_ROWS = 4       # functions of any returned state
J_MAX_CAP = 512     # the automatic cutoff grows no further
_TIE_ULPS = 4       # energies this many ulps of ||H|| apart are one level
# Bytes of stacked sector Hamiltonians per chunk of points: 19 points at
# j_max 40, one point from j_max 180 up. Eigenvectors take as much again.
_STACK_BYTES = 1 << 19


@lru_cache(maxsize=8)
def _basis_tables(n_points: int, j_max: int) -> Tuple[np.ndarray, np.ndarray]:
    # Rows j-1 hold cos(j*theta)/sqrt(pi) and sin(j*theta)/sqrt(pi).
    theta = 2.0 * np.pi * np.arange(n_points) / n_points
    j = np.arange(1, j_max + 1)[:, None]
    return (np.cos(j * theta[None, :]) / math.sqrt(np.pi),
            np.sin(j * theta[None, :]) / math.sqrt(np.pi))

# Parity-classification tolerance on the wrong-parity part's L2 norm.
PARITY_NORM_TOL = 1e-10


def _sector_bands(j_max: int, odd: bool) -> Tuple[np.ndarray, ...]:
    """The nonzero diagonals of one sector's operators: J^2, the cos^2
    main diagonal, the cos first off-diagonal, the cos^2 second one."""
    j = np.arange(1 if odd else 0, j_max + 1, dtype=float)
    n = len(j)
    q0 = np.full(n, 0.5)
    q0[0 if odd else 1] = 0.25 if odd else 0.75     # the folded J = 1 diagonal
    c1 = np.full(n - 1, 0.5)
    q2 = np.full(n - 2, 0.25)
    if not odd:                                     # rows touching J = 0
        c1[0] = 1.0 / math.sqrt(2.0)
        q2[0] = math.sqrt(2.0) / 4.0
    return j ** 2, q0, c1, q2


def _banded(main, first, second) -> np.ndarray:
    """Symmetric matrices from their main, first and second diagonals,
    stacked over the leading axes of main (the bands broadcast)."""
    main = np.asarray(main)
    n = main.shape[-1]
    m = np.zeros(main.shape + (n,))
    flat = m.reshape(main.shape[:-1] + (n * n,))
    flat[..., ::n + 1] = main
    for k, band in ((1, first), (2, second)):      # above and below
        flat[..., k:n * (n - k):n + 1] = flat[..., k * n::n + 1] = band
    return m


def _hamiltonian_stack(eta: np.ndarray, zeta: np.ndarray, j_max: int,
                       odd: bool) -> np.ndarray:
    """One sector's Hamiltonians at the points (eta[p], zeta[p]), stacked
    as (P, n, n): K - eta*C - zeta*Q written from the bands."""
    if j_max < 8:
        raise ValueError(f"need j_max >= 8, got {j_max}")
    j2, q0, c1, q2 = _sector_bands(j_max, odd)
    eta, zeta = eta[:, None], zeta[:, None]
    return _banded(j2 - zeta * q0, -eta * c1, -zeta * q2)


def build_hamiltonian(params: InteractionParams,
                      j_max: int = DEFAULT_J_MAX) -> Tuple[np.ndarray, np.ndarray]:
    """Real symmetric matrices (even sector, odd sector).

    Even sector is (j_max+1) x (j_max+1) with row 0 the J=0 constant;
    odd sector is j_max x j_max with row i the J=i+1 sine state. Each is
    K - eta*C - zeta*Q written from its bands (_sector_bands), without
    building the three dense operator matrices.
    """
    eta, zeta = np.array([params.eta]), np.array([params.zeta])
    return tuple(_hamiltonian_stack(eta, zeta, j_max, odd)[0]
                 for odd in (False, True))


@dataclass(frozen=True)
class PendularSpectrum:
    """Lowest eigenpairs of the pendular Hamiltonian, energy-ordered.

    coefficients[i] holds the sector basis vector of state i padded to
    length j_max + 1: even-sector rows are (c_0, c_1, ..., c_jmax) over
    {1/sqrt(2*pi), cos(J*theta)/sqrt(pi)}, odd-sector rows store their
    sine coefficients in slots 1..j_max with slot 0 zero. basis_tail is
    the largest |c_J| over the last TAIL_ROWS slots of any state, cut_gap
    the lowest dropped level minus the highest kept one (see _merge).
    """

    params: InteractionParams
    energies: np.ndarray
    coefficients: np.ndarray
    labels: Tuple[SymmetryLabel, ...]
    j_max: int
    basis_tail: float
    cut_gap: float

    @property
    def n_states(self) -> int:
        return len(self.energies)

    def sector_indices(self, label: SymmetryLabel) -> List[int]:
        return [i for i, lab in enumerate(self.labels) if lab is label]

    def wavefunction(self, n: int, grid: Optional[AngularGrid] = None) -> Wavefunction:
        """Materialize state n on a grid. Real-valued by construction."""
        if grid is None:
            grid = make_grid()
        if grid.max_band_limit < self.j_max:
            raise ValueError("grid too coarse for this basis size")
        cos_t, sin_t = _basis_tables(grid.n_points, self.j_max)
        c = self.coefficients[n]
        if self.labels[n] is SymmetryLabel.A1:
            f = c[0] / math.sqrt(2.0 * np.pi) + c[1:] @ cos_t
        else:
            f = c[1:] @ sin_t
        return Wavefunction(grid, f.astype(complex), normalize=False)

    def free_rotor_coefficients(self, n, j_max: Optional[int] = None) -> np.ndarray:
        """Signed-J expansion <j|phi_n>, j in [-j_max, j_max] at index j + j_max.

        Even sector: c_0 at j=0 and c_J/sqrt(2) at +-J. Odd sector:
        -i*c_J/sqrt(2) at +J and +i*c_J/sqrt(2) at -J; zero past the cutoff.
        n is one state index or an index array (one row per state).
        """
        idx = np.asarray(n)
        return _signed_expansion(self.coefficients[idx],
                                 _odd_mask(self.labels)[idx],
                                 self.j_max if j_max is None else j_max)


def _signed_expansion(coefficients: np.ndarray, odd: np.ndarray,
                      j_max: int) -> np.ndarray:
    """The signed-J rows of PendularSpectrum.free_rotor_coefficients for
    sector coefficient rows with any leading axes and their odd flags."""
    jm = min(j_max, coefficients.shape[-1] - 1)
    odd = odd[..., None]
    half = coefficients[..., 1:jm + 1] / math.sqrt(2.0)
    out = np.zeros(coefficients.shape[:-1] + (2 * j_max + 1,), dtype=complex)
    out[..., j_max] = coefficients[..., 0]
    out[..., j_max + 1:j_max + jm + 1] = np.where(odd, -1j * half, half)
    out[..., j_max - jm:j_max] = np.where(odd, 1j * half, half)[..., ::-1]
    return out


def _odd_mask(labels: Sequence[SymmetryLabel]) -> np.ndarray:
    return np.array([lab is SymmetryLabel.A2 for lab in labels], dtype=bool)


_LABELS = (SymmetryLabel.A1, SymmetryLabel.A2)


@dataclass(frozen=True)
class SpectrumStack:
    """Spectra of several points at one cutoff, stacked on a leading axis.

    Point p is params[p], at position index[p] of the sequence handed to
    solve_stacks; energies, odd (the A2 flags) and coefficients hold its
    states as PendularSpectrum does, and basis_tail and cut_gap are per
    point. spectrum(p) is the PendularSpectrum of point p.
    """

    params: Tuple[InteractionParams, ...]
    index: np.ndarray
    energies: np.ndarray            # (P, n)
    odd: np.ndarray                 # (P, n)
    coefficients: np.ndarray        # (P, n, j_max + 1)
    j_max: int
    basis_tail: np.ndarray          # (P,)
    cut_gap: np.ndarray             # (P,)

    def spectrum(self, p: int) -> PendularSpectrum:
        return PendularSpectrum(
            params=self.params[p], energies=self.energies[p],
            coefficients=self.coefficients[p],
            labels=tuple(_LABELS[o] for o in self.odd[p].tolist()),
            j_max=self.j_max, basis_tail=float(self.basis_tail[p]),
            cut_gap=float(self.cut_gap[p]))

    def _take(self, keep: np.ndarray) -> "SpectrumStack":
        return SpectrumStack(
            tuple(p for p, k in zip(self.params, keep) if k), self.index[keep],
            self.energies[keep], self.odd[keep], self.coefficients[keep],
            self.j_max, self.basis_tail[keep], self.cut_gap[keep])


# A pi probe below this fraction of the sum of its terms' magnitudes is
# treated as cancelled and falls back to the largest-coefficient rule.
_ALIGN_FLOOR = 1e-8


def _pi_probe_weights(n_coeffs: int):
    """Weights w with f(pi) = c @ value (even) and f'(pi) = c @ slope (odd)."""
    j = np.arange(n_coeffs)
    value = (-1.0) ** j / math.sqrt(np.pi)
    slope = j * value
    value[0] = 1.0 / math.sqrt(2.0 * np.pi)
    return value, slope


def _pi_aligned(coeffs: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Flip rows (over any leading axes) so that each state is positive
    (even) or rising (odd) at theta = pi, exactly on the coefficients;
    below _ALIGN_FLOOR times sum_J |c_J w_J| the largest-magnitude
    coefficient is made positive.

    A public contract: the sign of wavefunction and the amplitudes built
    from it. Bilinear outputs do not depend on it.
    """
    value, slope = _pi_probe_weights(coeffs.shape[-1])
    weights = np.where(odd[..., None], slope, value)
    probe = np.einsum("...j,...j->...", coeffs, weights)
    scale = np.einsum("...j,...j->...", np.abs(coeffs), np.abs(weights))
    largest = np.take_along_axis(
        coeffs, np.argmax(np.abs(coeffs), axis=-1)[..., None], axis=-1)[..., 0]
    probe = np.where(np.abs(probe) > _ALIGN_FLOOR * scale, probe, largest)
    return np.where((probe < 0)[..., None], -coeffs, coeffs)


def _auto_j_max(params: InteractionParams, n_states: int) -> int:
    """First cutoff tried when solve_spectrum chooses its own.

    7.5*w + 2*sqrt(n_states) + 8 with w = (zeta + |eta|/2)**(1/4), at least
    n_states/2 + 8, rounded up to a multiple of 8 (so that nearby points
    share a cutoff and so a stack) and at most J_MAX_CAP.
    In the harmonic limit the ground state is exp(-J^2/(2*w^2)) in J,
    which falls below TAIL_TOL at |J| = 7.4*w; the sqrt(n) term covers
    excited well states, n/2 the weak-field levels (J ~ n/2), and 8 the
    TAIL_ROWS checked functions.
    """
    depth = (params.zeta + 0.5 * abs(params.eta)) ** 0.25
    spread = max(7.5 * depth + 2.0 * math.sqrt(n_states), 0.5 * n_states)
    return min(J_MAX_CAP, _round_up8(spread + 8.0))


def _round_up8(j: float) -> int:
    return 8 * math.ceil(j / 8.0)


def _chunk_size(j_max: int) -> int:
    """Points per stack: _STACK_BYTES of both sectors' Hamiltonians."""
    return max(1, _STACK_BYTES // (8 * ((j_max + 1) ** 2 + j_max ** 2)))


def _sector_solve(h: np.ndarray, count: int, vectors: bool):
    """The count + 1 lowest eigenvalues of each stacked matrix of h and,
    with vectors, all its eigenvectors (columns); one batched call."""
    try:
        if not vectors:
            return np.linalg.eigvalsh(h)[:, :count + 1], None
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"sector eigensolve failed: {exc}") from exc
    return w[:, :count + 1], v


def _merge(eta: np.ndarray, zeta: np.ndarray, w1: np.ndarray, w2: np.ndarray,
           n_states: int, j_max: int) -> Tuple[np.ndarray, ...]:
    """The state cut of each point p: the lowest n_states of the ascending
    even (w1[p]) and odd (w2[p]) sector energies, each sector's first
    n_states competing, as (energies, odd, rank, cut_gap): the kept
    energies, whether each state is odd, its rank inside its sector, and
    the lowest dropped level (the next level of each sector included)
    minus the highest kept one.

    Energies within _TIE_ULPS ulps of ||H|| are one level, even sector
    first, so the cut does not depend on eigh rounding; ||H|| is bounded
    by j_max^2 + |eta| + zeta.
    """
    k1, k2 = min(n_states, w1.shape[1]), min(n_states, w2.shape[1])
    energies = np.concatenate([w1[:, :k1], w2[:, :k2]], axis=1)
    odd = np.repeat([False, True], (k1, k2))
    rank = np.concatenate([np.arange(k1), np.arange(k2)])
    tie = _TIE_ULPS * np.finfo(float).eps * (j_max ** 2 + np.abs(eta) + zeta)
    order = np.argsort(energies, axis=1, kind="stable")
    steps = np.diff(np.take_along_axis(energies, order, 1), axis=1)
    level = np.cumsum(steps > tie[:, None], axis=1)
    level = np.concatenate([np.zeros((len(order), 1), int), level], axis=1)
    order = np.take_along_axis(
        order, np.lexsort((rank[order], odd[order], level), axis=-1), 1)
    kept = np.take_along_axis(energies, order[:, :n_states], 1)
    dropped = np.concatenate([np.take_along_axis(energies, order[:, n_states:], 1),
                              w1[:, k1:], w2[:, k2:]], axis=1)
    cut_gap = dropped.min(axis=1) - kept.max(axis=1)
    return kept, odd[order[:, :n_states]], rank[order[:, :n_states]], cut_gap


def _levels(eta: np.ndarray, zeta: np.ndarray, n_states: int,
            j_max: int) -> Tuple[np.ndarray, ...]:
    """The state cut of _merge at each point, from sector eigenvalues
    alone: (energies, odd, cut_gap), unguarded (see _tail_bound)."""
    w1, w2 = (_sector_solve(_hamiltonian_stack(eta, zeta, j_max, odd),
                            n_states, False)[0] for odd in (False, True))
    energies, odd, _, cut_gap = _merge(eta, zeta, w1, w2, n_states, j_max)
    return energies, odd, cut_gap


def _solve_chunk(params: Sequence[InteractionParams], index: np.ndarray,
                 n_states: int, j_max: int) -> SpectrumStack:
    """One batched eigensolve per sector, the state cut and the signs of
    the points params[i], i in index, at one cutoff; tails unchecked."""
    if n_states > 2 * j_max:
        raise ValueError(f"n_states={n_states} exceeds 2*j_max={2 * j_max}")
    chunk = tuple(params[i] for i in index)
    eta = np.array([p.eta for p in chunk])
    zeta = np.array([p.zeta for p in chunk])
    (w1, v1), (w2, v2) = (
        _sector_solve(_hamiltonian_stack(eta, zeta, j_max, odd), n_states, True)
        for odd in (False, True))
    energies, odd, rank, cut_gap = _merge(eta, zeta, w1, w2, n_states, j_max)
    coeffs = np.zeros((len(chunk), n_states, j_max + 1))
    points = np.arange(len(chunk))[:, None]
    for sector, v, first in ((False, v1, 0), (True, v2, 1)):
        rows = v.transpose(0, 2, 1)[points, np.minimum(rank, v.shape[-1] - 1)]
        mask = odd == sector
        coeffs[:, :, first:][mask] = rows[mask]
    return SpectrumStack(
        params=chunk, index=index, energies=energies, odd=odd,
        coefficients=_pi_aligned(coeffs, odd), j_max=j_max,
        basis_tail=np.abs(coeffs[:, :, -TAIL_ROWS:]).max(axis=(1, 2)),
        cut_gap=cut_gap)


def _tail_bound(eta_abs: float, zeta: float, lam: float, j_max: int) -> float:
    """Upper bound on the basis tail of every eigenvector with eigenvalue
    <= lam of the j_max Hamiltonian at any |eta| <= eta_abs.

    Row J of a sector has the diagonal d_J = J^2 - zeta*q0_J, couplings
    l1_J = eta_abs*|c1| and l2_J = zeta*|q2| to rows J-1 and J-2, and u_J
    to rows J+1 and J+2 together. For a unit eigenvector v and
    m_J = max_{K>=J} |v_K|, the row equations give
    m_J <= a_J*m_{J-1} + b_J*m_{J-2}, with a_J (b_J) the largest
    l1_K/(d_K - lam - u_K) (l2_K/...) over K >= J, wherever all those
    denominators are > 0; elsewhere m_J <= m_{J-1} <= 1. The bound is m at
    the first of the last TAIL_ROWS rows, the larger of the two sectors.
    """
    bound = 0.0
    for odd in (False, True):
        j2, q0, c1, q2 = _sector_bands(j_max, odd)
        n = len(j2)
        lower1, lower2, upper = np.zeros(n), np.zeros(n), np.zeros(n)
        lower1[1:] = eta_abs * c1
        lower2[2:] = zeta * q2
        upper[:-1] += lower1[1:]
        upper[:-2] += lower2[2:]
        den = j2 - zeta * q0 - lam - upper
        valid = np.minimum.accumulate(den[::-1])[::-1] > 0
        den = np.where(den > 0, den, np.inf)
        a = np.maximum.accumulate((lower1 / den)[::-1])[::-1]
        b = np.maximum.accumulate((lower2 / den)[::-1])[::-1]
        m2 = m1 = 1.0                       # m_{J-2}, m_{J-1}
        for row in range(n - TAIL_ROWS + 1):
            m = min(m1, a[row] * m1 + b[row] * m2) if valid[row] else m1
            m2, m1 = m1, m
        bound = max(bound, m1)
    return bound


def solve_stacks(params: Sequence[InteractionParams], n_states: int,
                 j_max: Optional[int] = None) -> Iterator[SpectrumStack]:
    """Diagonalize both parity sectors at every point and merge the lowest
    n_states; yield the points as SpectrumStack chunks, each point once.

    The basis tail, the largest |c_J| over the last TAIL_ROWS basis
    functions of any returned state, must be <= TAIL_TOL. With j_max None
    each point's cutoff starts at _auto_j_max and grows by a quarter (to a
    multiple of 8) until it is; past J_MAX_CAP it raises ValueError. A given
    j_max is checked the same way and refused, not grown. The error names
    the first failing point in the order of params.

    Points are grouped by cutoff, smallest first, and stacked in order of
    params within a group, at most _chunk_size of them per chunk; a point
    that fails its tail check joins the group of the grown cutoff. So the
    chunks come in order of params only when every point has one cutoff.
    Each eigenvector's overall sign is fixed here, once, by the pi-aligned
    rule of _pi_aligned; every grid or basis route downstream inherits it.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    fixed = j_max is not None
    groups = {}
    for i, p in enumerate(params):
        groups.setdefault(j_max if fixed else _auto_j_max(p, n_states),
                          []).append(i)
    while groups:
        cutoff = min(groups)
        index = np.array(sorted(groups.pop(cutoff)))
        size = _chunk_size(cutoff)
        for start in range(0, len(index), size):
            stack = _solve_chunk(params, index[start:start + size], n_states,
                                 cutoff)
            good = stack.basis_tail <= TAIL_TOL
            if not good.all():
                bad = int(np.argmin(good))
                if fixed or cutoff >= J_MAX_CAP:
                    raise _tail_error(stack.params[bad],
                                      float(stack.basis_tail[bad]), cutoff,
                                      n_states, fixed)
                grown = min(J_MAX_CAP, _round_up8(1.25 * cutoff))
                groups.setdefault(grown, []).extend(stack.index[~good].tolist())
                stack = stack._take(good)
            if len(stack.index):
                yield stack


def _tail_error(params: InteractionParams, tail: float, j_max: int,
                n_states: int, fixed: bool) -> ValueError:
    return ValueError(
        f"basis tail {tail:.1e} > {TAIL_TOL:.0e} at j_max={j_max} "
        f"(eta={params.eta}, zeta={params.zeta}, {n_states} states): "
        + ("raise j_max or leave it to the automatic cutoff" if fixed
           else f"the cutoff cap {J_MAX_CAP} is too small"))


def solve_spectrum(params: InteractionParams, n_states: int,
                   j_max: Optional[int] = None) -> PendularSpectrum:
    """Diagonalize both parity sectors and merge the lowest n_states: the
    stack of one point of solve_stacks, with its cutoff guard and signs."""
    (stack,) = solve_stacks((params,), n_states, j_max)
    return stack.spectrum(0)


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


@dataclass(frozen=True)
class CrossingRecord:
    state_pair: Tuple[int, int]
    eta_at_crossing: float
    zeta: float
    kappa: int
    kind: str          # 'genuine' | 'avoided'
    min_gap: float          # |E_{n+1} - E_n| at the refined point
    j_max: int              # the window's cutoff
    basis_tail: float       # at the refined point


class CrossingScan(List[CrossingRecord]):
    """crossing_scan's records in eta order, with the window's numerical
    limits: its cutoff j_max, the basis_tail of its end-point solve,
    tail_bound, the _tail_bound certificate of its eigenvalue-only gaps,
    and cut_gap, the smallest state-cut gap of its coarse scan and its
    solves."""

    def __init__(self, records: Sequence[CrossingRecord], j_max: int,
                 basis_tail: float, tail_bound: float, cut_gap: float):
        super().__init__(records)
        self.j_max = j_max
        self.basis_tail = basis_tail
        self.tail_bound = tail_bound
        self.cut_gap = cut_gap


def _pair_gap(energies: np.ndarray, pair: Tuple[int, int]) -> float:
    return float(energies[pair[1]] - energies[pair[0]])


def _gap(eta: float, zeta: float, pair: Tuple[int, int], j_max: int,
         certified: bool) -> Tuple[np.ndarray, np.ndarray, float]:
    """One gap evaluation of crossing_scan: the energies, odd flags and
    cut gap of the lowest pair[1] + 1 states at eta. A certified window
    takes them from the sector eigenvalues and the state cut of _merge,
    with no eigenvectors and so no tail check (see _tail_bound); any other
    window from the guarded solve_spectrum."""
    params, count = InteractionParams(eta, zeta), pair[1] + 1
    if not certified:
        sp = solve_spectrum(params, count, j_max)
        return sp.energies, _odd_mask(sp.labels), sp.cut_gap
    energies, odd, cut_gap = _levels(np.array([eta]), np.array([zeta]),
                                     count, j_max)
    return energies[0], odd[0], float(cut_gap[0])


def _sector_difference(levels: Tuple[np.ndarray, np.ndarray],
                       ranks: Tuple[int, int]) -> float:
    """Even level ranks[0] minus odd level ranks[1]; nan if either is not
    among the kept states."""
    energies, odd = levels[:2]
    even_levels, odd_levels = energies[~odd], energies[odd]
    if ranks[0] < len(even_levels) and ranks[1] < len(odd_levels):
        return float(even_levels[ranks[0]] - odd_levels[ranks[1]])
    return math.nan


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    width = math.inf        # the bracket stops shrinking at the float spacing
    while tol < b - a < width:
        width = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _bisect(f, a: float, b: float, fa: float, fb: float) -> float:
    """A sign change of f on [a, b] narrowed to adjacent floats; returns
    the end where |f| is smaller."""
    while a < 0.5 * (a + b) < b:
        c = 0.5 * (a + b)
        fc = f(c)
        if fc == 0.0:
            return c
        if (fc < 0.0) == (fa < 0.0):
            a, fa = c, fc
        else:
            b, fb = c, fc
    return a if abs(fa) <= abs(fb) else b


def crossing_scan(zeta: float, eta_range: Tuple[float, float],
                  pair: Tuple[int, int], resolution: int = CROSSING_RESOLUTION,
                  j_max: Optional[int] = None,
                  eta_tol: float = CROSSING_ETA_TOL) -> CrossingScan:
    """Locate gap minima of the pair over an eta window.

    One basis serves the window: with j_max None, the cutoff solve_spectrum
    settles on at the window's largest |eta| (that end point is solved
    first, guarded). The coarse scan (stacked, _chunk_size points per
    eigvalsh call) and the refinements then take sector eigenvalues alone
    (eigvalsh, then the state cut of _merge), once the window is
    certified: with lam the largest kept energy of the coarse scan plus
    one coarse step (every level is 1-Lipschitz in eta, so lam
    covers the points between), _tail_bound at the window's largest |eta|
    must be <= TAIL_TOL/2. Otherwise every gap is taken again with the
    guarded solve_spectrum, as is the refined point of every record.

    Each interior coarse minimum is refined inside its two neighbours.
    Where the pair lies in opposite sectors there and the signed
    difference of those two sector levels (by their rank inside each
    sector) changes sign across the bracket, the difference is bisected
    to the float spacing: a genuine crossing. Otherwise golden-section
    search on the gap, to eta_tol, gives an avoided one. An empty result
    means no interior minimum, not an error.
    """
    if pair[1] != pair[0] + 1:
        raise ValueError("pair must be adjacent states (n, n+1)")
    lo, hi = min(eta_range), max(eta_range)
    if resolution < 8:
        raise ValueError("resolution too small")
    if not eta_tol > 0:
        raise ValueError(f"eta_tol must be > 0, got {eta_tol}")
    etas = np.linspace(lo, hi, resolution)
    far = etas[-1] if abs(hi) > abs(lo) else etas[0]
    count = pair[1] + 1
    end = solve_spectrum(InteractionParams(far, zeta), count, j_max)
    j_max = end.j_max
    levels = []
    for start in range(0, resolution, _chunk_size(j_max)):
        chunk = etas[start:start + _chunk_size(j_max)]
        levels += zip(*_levels(chunk, np.full(len(chunk), zeta), count, j_max))
    lam = max(float(e.max()) for e, _, _ in levels) + (hi - lo) / (resolution - 1)
    tail_bound = _tail_bound(max(abs(lo), abs(hi)), zeta, lam, j_max)
    certified = tail_bound <= 0.5 * TAIL_TOL
    if not certified:
        levels = [_gap(eta, zeta, pair, j_max, False) for eta in etas]
    cut_gap = min(end.cut_gap, *(float(g) for _, _, g in levels))

    def gap(eta: float) -> float:
        return _pair_gap(_gap(eta, zeta, pair, j_max, certified)[0], pair)

    gaps = [_pair_gap(e, pair) for e, _, _ in levels]
    records = []
    for k in range(1, resolution - 1):
        if not (gaps[k] < gaps[k - 1] and gaps[k] <= gaps[k + 1]):
            continue
        odd = levels[k][1]          # the pair is the top two kept states
        ranks = (int(np.sum(~odd)) - 1, int(np.sum(odd)) - 1)
        fa, fb = (_sector_difference(levels[i], ranks) for i in (k - 1, k + 1))
        genuine = odd[pair[0]] != odd[pair[1]] and fa * fb <= 0.0
        if genuine:
            eta_c = _bisect(lambda e: _sector_difference(
                _gap(e, zeta, pair, j_max, certified), ranks),
                etas[k - 1], etas[k + 1], fa, fb)
        else:
            eta_c = _golden_min(gap, etas[k - 1], etas[k + 1], eta_tol)
        sp = solve_spectrum(InteractionParams(eta_c, zeta), count, j_max)
        cut_gap = min(cut_gap, sp.cut_gap)
        records.append(CrossingRecord(
            state_pair=pair, eta_at_crossing=eta_c, zeta=zeta,
            kappa=int(round(abs(eta_c) / math.sqrt(zeta))),
            kind="genuine" if genuine else "avoided",
            min_gap=abs(_pair_gap(sp.energies, pair)), j_max=j_max,
            basis_tail=sp.basis_tail))
    return CrossingScan(records, j_max, end.basis_tail, tail_bound, cut_gap)

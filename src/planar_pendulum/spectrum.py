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
is given, which is refused instead of grown. crossing_scan probes its
window unguarded, covered by one bound on the tail of all its states
(_tail_bound) in place of the per-solve check; it picks its cutoff from
that bound before the scan, or refuses a given one that misses it.

Many points are solved in stacked form (solve_stacks): the points that
share a cutoff are stacked in chunks of at most _STACK_BYTES of sector
Hamiltonians, and each chunk takes one batched eigensolve per sector,
one vectorized state cut and one tail check. A point whose tail fails is
solved again with the next cutoff. solve_spectrum is the stack of one
point, so a stacked point equals its own solve bit for bit. The sector
bands and the pi-probe weights are built once per size (lru_cache) and
shared read-only, so the chunk's own work around the eigensolve is a few
array passes: the sign fix is two matrix products (_pi_aligned), and the
state cut sorts levels again only in rows with a tie near the cut
(_merge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    CROSSING_RESOLUTION,
    J_MAX_CAP,
    TAIL_TOL,
    AngularGrid,
    InteractionParams,
    SymmetryLabel,
    Wavefunction,
    make_grid,
)

TAIL_ROWS = 4       # basis functions whose |c_J| TAIL_TOL bounds
_TIE_ULPS = 4       # energies this many ulps of ||H|| apart are one level
# Bytes of stacked sector Hamiltonians per chunk of points: 19 points at
# j_max 40, one point from j_max 180 up. Eigenvectors take as much again.
_STACK_BYTES = 1 << 19


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _sector_bands(j_max: int, odd: bool) -> Tuple[np.ndarray, ...]:
    """The nonzero diagonals of one sector's operators: J^2, the cos^2
    main diagonal, the cos first off-diagonal, the cos^2 second one.
    Read-only: every call with (j_max, odd) returns the same arrays."""
    j = np.arange(1 if odd else 0, j_max + 1, dtype=float)
    n = len(j)
    q0 = np.full(n, 0.5)
    q0[0 if odd else 1] = 0.25 if odd else 0.75     # the folded J = 1 diagonal
    c1 = np.full(n - 1, 0.5)
    q2 = np.full(n - 2, 0.25)
    if not odd:                                     # rows touching J = 0
        c1[0] = 1.0 / math.sqrt(2.0)
        q2[0] = math.sqrt(2.0) / 4.0
    return _read_only(j ** 2, q0, c1, q2)


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


def _element_stack(coefficients: np.ndarray, odd: np.ndarray,
                   operator: str) -> np.ndarray:
    """cos or cos^2 element matrices of stacked points: (P, n, n) from
    their (P, n, j_max + 1) coefficients and (P, n) odd flags, exact in
    the basis (V^T O V with the sector bands).

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


@dataclass(frozen=True)
class PendularSpectrum:
    """Lowest eigenpairs of the pendular Hamiltonian, energy-ordered.

    coefficients[i] holds the sector basis vector of state i padded to
    length j_max + 1: even-sector rows are (c_0, c_1, ..., c_jmax) over
    {1/sqrt(2*pi), cos(J*theta)/sqrt(pi)}, odd-sector rows store their
    sine coefficients in slots 1..j_max with slot 0 zero; odd[i] is True
    for those (A2) states, and labels gives it as SymmetryLabels.
    basis_tail is the largest |c_J| over the last TAIL_ROWS slots of any
    state, cut_gap the lowest dropped level minus the highest kept one (see
    _merge), and grown whether the automatic cutoff missed its first
    guess, so that the point was solved again at a grown one (see
    solve_stacks).
    """

    params: InteractionParams
    energies: np.ndarray
    coefficients: np.ndarray
    odd: np.ndarray
    j_max: int
    basis_tail: float
    cut_gap: float
    grown: bool = False

    @property
    def n_states(self) -> int:
        return len(self.energies)

    @property
    def labels(self) -> Tuple[SymmetryLabel, ...]:
        return tuple(_LABELS[o] for o in self.odd.tolist())

    def wavefunction(self, n: int, grid: Optional[AngularGrid] = None) -> Wavefunction:
        """Materialize state n on a grid. Real-valued by construction."""
        if grid is None:
            grid = make_grid()
        if grid.max_band_limit < self.j_max:
            raise ValueError("grid too coarse for this basis size")
        # row J - 1 holds J theta, J = 1..j_max
        theta = 2.0 * np.pi * np.arange(grid.n_points) / grid.n_points
        j_theta = np.arange(1, self.j_max + 1)[:, None] * theta[None, :]
        c = self.coefficients[n]
        if not self.odd[n]:
            f = c[0] / math.sqrt(2.0 * np.pi) + c[1:] @ (
                np.cos(j_theta) / math.sqrt(np.pi))
        else:
            f = c[1:] @ (np.sin(j_theta) / math.sqrt(np.pi))
        return Wavefunction(grid, f.astype(complex), normalize=False)

    def free_rotor_coefficients(self, n, j_max: Optional[int] = None) -> np.ndarray:
        """Signed-J expansion <j|phi_n>, j in [-j_max, j_max] at index j + j_max.

        Even sector: c_0 at j=0 and c_J/sqrt(2) at +-J. Odd sector:
        -i*c_J/sqrt(2) at +J and +i*c_J/sqrt(2) at -J; zero past the cutoff.
        n is one state index or an index array (one row per state).
        """
        idx = np.asarray(n)
        return _signed_expansion(self.coefficients[idx], self.odd[idx],
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


_LABELS = (SymmetryLabel.A1, SymmetryLabel.A2)


@dataclass(frozen=True)
class SpectrumStack:
    """Spectra of several points at one cutoff, stacked on a leading axis.

    Point p is params[p], at position index[p] of the sequence handed to
    solve_stacks; energies, odd (the A2 flags) and coefficients hold its
    states as PendularSpectrum does, and basis_tail, cut_gap and grown are
    per point. spectrum(p) is the PendularSpectrum of point p.
    """

    params: Tuple[InteractionParams, ...]
    index: np.ndarray
    energies: np.ndarray            # (P, n)
    odd: np.ndarray                 # (P, n)
    coefficients: np.ndarray        # (P, n, j_max + 1)
    j_max: int
    basis_tail: np.ndarray          # (P,)
    cut_gap: np.ndarray             # (P,)
    grown: np.ndarray               # (P,)

    def spectrum(self, p: int) -> PendularSpectrum:
        return PendularSpectrum(
            params=self.params[p], energies=self.energies[p],
            coefficients=self.coefficients[p], odd=self.odd[p],
            j_max=self.j_max, basis_tail=float(self.basis_tail[p]),
            cut_gap=float(self.cut_gap[p]), grown=bool(self.grown[p]))

    def _take(self, keep: np.ndarray) -> "SpectrumStack":
        return SpectrumStack(
            tuple(p for p, k in zip(self.params, keep) if k), self.index[keep],
            self.energies[keep], self.odd[keep], self.coefficients[keep],
            self.j_max, self.basis_tail[keep], self.cut_gap[keep],
            self.grown[keep])


# A pi probe below this fraction of the sum of its terms' magnitudes is
# treated as cancelled and falls back to the largest-coefficient rule.
_ALIGN_FLOOR = 1e-8


@lru_cache(maxsize=None)
def _pi_probe_columns(n_coeffs: int) -> Tuple[np.ndarray, np.ndarray]:
    """The columns (value, slope) with f(pi) = c @ value (even states) and
    f'(pi) = c @ slope (odd states), and their magnitudes, as (n_coeffs, 2)
    matrices. Read-only: every call with n_coeffs returns the same arrays."""
    j = np.arange(n_coeffs)
    value = (-1.0) ** j / math.sqrt(np.pi)
    slope = j * value
    value[0] = 1.0 / math.sqrt(2.0 * np.pi)
    weights = np.stack((value, slope), axis=1)
    return _read_only(weights, np.abs(weights))


def _pi_aligned(coeffs: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Flip rows (over any leading axes) so that each state is positive
    (even) or rising (odd) at theta = pi, exactly on the coefficients;
    below _ALIGN_FLOOR times sum_J |c_J w_J| the largest-magnitude
    coefficient is made positive.

    Both probes and both scales of every row are two matrix products with
    the cached (value, slope) columns; each row keeps its sector's. The
    largest coefficient is looked up only in rows whose probe is cancelled.

    A public contract: the sign of wavefunction and the amplitudes built
    from it. Bilinear outputs do not depend on it.
    """
    weights, magnitudes = _pi_probe_columns(coeffs.shape[-1])
    rows, odd_rows = coeffs.reshape(-1, coeffs.shape[-1]), odd.reshape(-1)
    probes, scales = rows @ weights, np.abs(rows) @ magnitudes
    probe = np.where(odd_rows, probes[:, 1], probes[:, 0])
    scale = np.where(odd_rows, scales[:, 1], scales[:, 0])
    flip = probe < 0
    cancelled = np.flatnonzero(~(np.abs(probe) > _ALIGN_FLOOR * scale))
    if cancelled.size:
        near = rows[cancelled]
        largest = near[np.arange(len(near)), np.argmax(np.abs(near), axis=-1)]
        flip[cancelled] = largest < 0
    return coeffs * np.where(flip, -1.0, 1.0).reshape(odd.shape + (1,))


def _auto_j_max(params: InteractionParams, n_states: int) -> int:
    """First cutoff tried when solve_spectrum chooses its own: the larger
    of a well term and a free-rotor term, rounded up to an integer, at most
    J_MAX_CAP.

    Well: w*x + max(3, 8 - 1.35*ln n) for n states, with
    w = (zeta + |eta|/2)**(1/4) and x = sqrt(2n + 7.1*sqrt(n) + 45.6). In
    a deep well state k is close to the Hermite function h_k(J/w) in J,
    and x is where h_(n-1), the highest kept state, falls below TAIL_TOL
    (to 0.5% for n <= 200); 3 puts the first of the TAIL_ROWS checked
    functions there. The larger offset of few states covers the low
    states of moderate wells, whose tails are not Gaussian. Free rotor:
    n/2 + 8.75 + 5*w, the highest weak-field level J ~ n/2 with its tail,
    widened as the fields mix in.

    The offsets and the free-rotor term are fitted to the smallest cutoff
    that passes the tail check, measured over the scan windows (eta in
    [-35, 0] with zeta in [5, 40.5], eta in [-20, 0] with zeta in [8, 60];
    4, 9 and 20 states) and over wells up to w = 40 (1 to 50 states) or
    w = 12 (100 states): the guess is never below it there, and in the
    scan windows at most 3 above it. The slope 1.35 lifts (eta, zeta) =
    (0, 6) at 4 states to its smallest passing cutoff, 20, while the offset
    of one state, which the propagator's first cutoffs follow, stays 8.
    """
    w = (params.zeta + 0.5 * abs(params.eta)) ** 0.25
    n = n_states
    well = (w * math.sqrt(2.0 * n + 7.1 * math.sqrt(n) + 45.6)
            + max(3.0, 8.0 - 1.35 * math.log(n)))
    return min(J_MAX_CAP, math.ceil(max(well, 0.5 * n + 8.75 + 5.0 * w)))


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


def _tie(eta, zeta, j_max: int):
    """Energies closer than this at (eta, zeta) are one level (_merge)."""
    return _TIE_ULPS * np.finfo(float).eps * (j_max ** 2 + np.abs(eta) + zeta)


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
    tie = _tie(eta, zeta, j_max)[:, None]
    order = np.argsort(energies, axis=1, kind="stable")
    ordered = np.take_along_axis(energies, order, 1)
    # a row whose first n_states + 1 levels are 0, 1, 2, ... keeps its
    # order over the kept states: only rows with a tie there are sorted
    # again by level, sector and rank
    tied = np.flatnonzero(~(np.diff(ordered[:, :n_states + 1], axis=1)
                            > tie).all(axis=1))
    if tied.size:
        sub = order[tied]
        level = np.zeros(sub.shape, int)
        np.cumsum(np.diff(ordered[tied], axis=1) > tie[tied], axis=1,
                  out=level[:, 1:])
        order[tied] = np.take_along_axis(
            sub, np.lexsort((rank[sub], odd[sub], level), axis=-1), 1)
        ordered[tied] = np.take_along_axis(energies[tied], order[tied], 1)
    kept, keep = ordered[:, :n_states], order[:, :n_states]
    dropped = np.minimum(
        ordered[:, n_states:].min(axis=1, initial=np.inf),
        np.minimum(w1[:, k1:].min(axis=1, initial=np.inf),
                   w2[:, k2:].min(axis=1, initial=np.inf)))
    return kept, odd[keep], rank[keep], dropped - kept.max(axis=1)


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
    for sector, v, first in ((False, v1, 0), (True, v2, 1)):
        point, state = np.nonzero(odd == sector)
        coeffs[point, state, first:] = v[point, :, rank[point, state]]
    return SpectrumStack(
        params=chunk, index=index, energies=energies, odd=odd,
        coefficients=_pi_aligned(coeffs, odd), j_max=j_max,
        basis_tail=np.abs(coeffs[:, :, -TAIL_ROWS:]).max(axis=(1, 2)),
        cut_gap=cut_gap, grown=np.zeros(len(chunk), dtype=bool))


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
    each point's cutoff starts at its integer _auto_j_max and grows by a
    quarter (to a multiple of 8) until it is; past J_MAX_CAP it raises
    ValueError. A point solved again so is marked grown. A given j_max is
    checked the same way and refused, not grown. The error names the first
    failing point in the order of params.

    Points are grouped by cutoff, smallest first, and stacked in order of
    params within a group, at most _chunk_size of them per chunk; a point
    that fails its tail check joins the group of the grown cutoff. A scan
    window spans several cutoffs, one per row of well depth, and each
    takes its own chunks; so the chunks come in order of params only when
    every point has one cutoff.
    Each eigenvector's overall sign is fixed here, once, by the pi-aligned
    rule of _pi_aligned; every grid or basis route downstream inherits it.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    fixed = j_max is not None
    grown = np.zeros(len(params), dtype=bool)
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
                    p = stack.params[bad]
                    raise _tail_error(
                        "basis tail", float(stack.basis_tail[bad]), TAIL_TOL,
                        cutoff, f"eta={p.eta}, zeta={p.zeta}, {n_states} "
                        "states", fixed)
                retry = stack.index[~good]
                grown[retry] = True
                groups.setdefault(min(J_MAX_CAP, _round_up8(1.25 * cutoff)),
                                  []).extend(retry.tolist())
                stack = stack._take(good)
            if len(stack.index):
                yield replace(stack, grown=grown[stack.index])


def _tail_error(what: str, tail: float, tol: float, j_max: int, where: str,
                fixed: bool) -> ValueError:
    return ValueError(
        f"{what} {tail:.1e} > {tol:.0e} at j_max={j_max} ({where}): "
        + ("raise j_max or leave it to the automatic cutoff" if fixed
           else f"the cutoff cap {J_MAX_CAP} is too small"))


def solve_spectrum(params: InteractionParams, n_states: int,
                   j_max: Optional[int] = None) -> PendularSpectrum:
    """Diagonalize both parity sectors and merge the lowest n_states: the
    stack of one point of solve_stacks, with its cutoff guard and signs."""
    (stack,) = solve_stacks((params,), n_states, j_max)
    return stack.spectrum(0)


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
    tail_bound, the _tail_bound certificate of its unguarded probes, and
    cut_gap, the smallest state-cut gap of its coarse scan and its
    solves."""

    def __init__(self, records: Sequence[CrossingRecord], j_max: int,
                 basis_tail: float, tail_bound: float, cut_gap: float):
        super().__init__(records)
        self.j_max = j_max
        self.basis_tail = basis_tail
        self.tail_bound = tail_bound
        self.cut_gap = cut_gap


def _sector_difference(energies: np.ndarray, odd: np.ndarray,
                       ranks: Tuple[int, int], tie: float = 0.0) -> float:
    """Even level ranks[0] minus odd level ranks[1], 0 within tie of 0
    (one level, see _merge); nan if either is not among the kept states."""
    even_levels, odd_levels = energies[~odd], energies[odd]
    if ranks[0] < len(even_levels) and ranks[1] < len(odd_levels):
        d = float(even_levels[ranks[0]] - odd_levels[ranks[1]])
        return 0.0 if abs(d) <= tie else d
    return math.nan


def _sector_gap(eta: float, zeta: float, count: int, j_max: int,
                ranks: Tuple[int, int]) -> float:
    """One genuine-crossing probe: even level ranks[0] minus odd level
    ranks[1] at eta, from the sector eigenvalues alone; unguarded."""
    eta, zeta = np.array([eta]), np.array([zeta])
    w1, w2 = (_sector_solve(_hamiltonian_stack(eta, zeta, j_max, odd),
                            count, False)[0] for odd in (False, True))
    return float(w1[0, ranks[0]] - w2[0, ranks[1]])


def _gap_slope(coefficients: np.ndarray, odd: np.ndarray,
               pair: Tuple[int, int]) -> np.ndarray:
    """The gap slope d(E_{n+1} - E_n)/d(eta) = <n|cos|n> - <n+1|cos|n+1>
    (Hellmann-Feynman) per point of stacked coefficients (P, n, j_max + 1)
    and odd flags (P, n): two diagonal entries of _element_stack's cos."""
    cos = _element_stack(coefficients, odd, "cos")
    return cos[:, pair[0], pair[0]] - cos[:, pair[1], pair[1]]


def _pair_slope(eta: float, zeta: float, pair: Tuple[int, int],
                j_max: int) -> float:
    """One avoided-crossing probe: _gap_slope at eta from one _solve_chunk,
    the same float as a coarse slope there; unguarded (see _tail_bound)."""
    stack = _solve_chunk((InteractionParams(eta, zeta),), np.arange(1),
                         pair[1] + 1, j_max)
    return float(_gap_slope(stack.coefficients, stack.odd, pair)[0])


def _root(f, a: float, b: float, fa: float, fb: float) -> float:
    """A sign change of f on [a, b] narrowed to adjacent floats by false
    position with Illinois halving; returns the end where |f| is smaller,
    or a point where f is 0. A false-position point that rounds onto an
    end (f there is at its rounding floor) steps one float inside it, and
    the next one that does takes the midpoint."""
    ga, gb, side, nudged = fa, fb, 0, False     # ga, gb: Illinois-halved
    while a < 0.5 * (a + b) < b:
        c = a + (b - a) * ga / (ga - gb)
        if a < c < b:
            nudged = False
        elif nudged:
            c, nudged = 0.5 * (a + b), False
        else:
            c, nudged = (math.nextafter(a, b) if c <= a
                         else math.nextafter(b, a)), True
        fc = f(c)
        if fc == 0.0:
            return c
        if (fc < 0.0) == (fa < 0.0):
            a, fa, ga = c, fc, fc
            gb *= 0.5 if side > 0 else 1.0      # a moved twice in a row
            side = 1
        else:
            b, fb, gb = c, fc, fc
            ga *= 0.5 if side < 0 else 1.0
            side = -1
    return a if abs(fa) <= abs(fb) else b


def crossing_scan(zeta: float, eta_range: Tuple[float, float],
                  pair: Tuple[int, int], resolution: int = CROSSING_RESOLUTION,
                  j_max: Optional[int] = None) -> CrossingScan:
    """Locate gap minima of the pair over an eta window.

    One basis serves the window, chosen before the scan: the end point at
    the largest |eta| is solved guarded (at j_max if given); with j_max
    None the cutoff then grows by one row until _tail_bound at that |eta|
    is <= TAIL_TOL/2 up to lam0 = the end point's highest level plus the
    window width plus one coarse step (levels are 1-Lipschitz in eta and
    only fall as the basis grows, so lam0 covers every level of the scan).
    The coarse scan (stacked _solve_chunk calls, eigenvectors included)
    and the refinement probes are unguarded; _tail_bound must hold again
    at lam = the largest coarse energy plus one coarse step, or ValueError
    is raised (at a given j_max, or at J_MAX_CAP). So the coarse grid is
    scanned once. Records are guarded, and their kappa is
    InteractionParams.kappa, so zeta = 0 is refused before any solve.

    Each coarse interval where the Hellmann-Feynman gap slope (_gap_slope)
    goes from < 0 to >= 0 brackets a gap minimum, however narrow, refined
    by one root finder (_root). Where the pair lies in opposite sectors at
    the interval's start and the signed difference of those two sector
    levels (by their rank in each sector; 0 within the tie of _merge)
    changes sign across it, the root of that difference is a genuine
    crossing; otherwise the root of the gap slope is an avoided one.
    """
    if pair[0] < 0 or pair[1] != pair[0] + 1:
        raise ValueError(f"pair must be adjacent states (n, n+1) with n >= 0, "
                         f"got {tuple(pair)}")
    if zeta == 0:
        raise ValueError("zeta must be > 0: a record's kappa = "
                         "|eta|/sqrt(zeta) is undefined at zeta = 0")
    lo, hi = min(eta_range), max(eta_range)
    if resolution < 8:
        raise ValueError("resolution too small")
    etas = np.linspace(lo, hi, resolution)
    far = etas[-1] if abs(hi) > abs(lo) else etas[0]
    eta_abs, step = max(abs(lo), abs(hi)), (hi - lo) / (resolution - 1)
    count = pair[1] + 1
    end = solve_spectrum(InteractionParams(far, zeta), count, j_max)
    cutoff = end.j_max
    if j_max is None:
        lam = float(end.energies.max()) + (hi - lo) + step
        while (cutoff < J_MAX_CAP and _tail_bound(eta_abs, zeta, lam, cutoff)
               > 0.5 * TAIL_TOL):
            cutoff += 1
    size = _chunk_size(cutoff)
    points = [InteractionParams(float(eta), zeta) for eta in etas]
    stacks = [_solve_chunk(points, np.arange(i, min(i + size, resolution)),
                           count, cutoff) for i in range(0, resolution, size)]
    energies, odd, cuts, slopes = map(np.concatenate, zip(*(
        (s.energies, s.odd, s.cut_gap, _gap_slope(s.coefficients, s.odd, pair))
        for s in stacks)))
    tail_bound = _tail_bound(eta_abs, zeta, float(energies.max()) + step,
                             cutoff)
    if tail_bound > 0.5 * TAIL_TOL:
        raise _tail_error("window tail bound", tail_bound, 0.5 * TAIL_TOL,
                          cutoff, f"zeta={zeta}, eta in [{lo}, {hi}], "
                          f"{count} states", j_max is not None)
    cut_gap = min(end.cut_gap, float(cuts.min()))
    records = []
    for k in np.flatnonzero((slopes[:-1] < 0.0) & (slopes[1:] >= 0.0)):
        # the pair is the top two kept states
        ranks = (int(np.sum(~odd[k])) - 1, int(np.sum(odd[k])) - 1)
        at = lambda i: (etas[i], _sector_difference(
            energies[i], odd[i], ranks, _tie(etas[i], zeta, cutoff)))
        (a, fa), (b, fb) = at(k), at(k + 1)
        genuine = odd[k, pair[0]] != odd[k, pair[1]] and fa * fb <= 0.0
        if genuine:
            # a coarse point within the tie is the crossing: take its neighbour
            a, fa = at(k - 1) if fa == 0.0 and k > 0 else (a, fa)
            b, fb = at(k + 2) if fb == 0.0 and k + 2 < resolution else (b, fb)
            probe = lambda e: _sector_gap(e, zeta, count, cutoff, ranks)
        else:
            probe = lambda e: _pair_slope(e, zeta, pair, cutoff)
            fa, fb = float(slopes[k]), float(slopes[k + 1])
        eta_c = _root(probe, a, b, fa, fb)
        sp = solve_spectrum(InteractionParams(eta_c, zeta), count, cutoff)
        cut_gap = min(cut_gap, sp.cut_gap)
        records.append(CrossingRecord(
            state_pair=pair, eta_at_crossing=eta_c, zeta=zeta,
            kappa=int(round(sp.params.kappa)),
            kind="genuine" if genuine else "avoided",
            min_gap=float(abs(sp.energies[pair[1]] - sp.energies[pair[0]])),
            j_max=cutoff, basis_tail=sp.basis_tail))
    return CrossingScan(records, cutoff, end.basis_tail, tail_bound, cut_gap)

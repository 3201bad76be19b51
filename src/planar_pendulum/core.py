"""Fundamental types for the planar rotor: interaction parameters, angular
grids, wavefunctions, and free-rotor states.

Everything is dimensionless: energies in units of the rotational constant,
time in units of hbar over that constant, so the rotational period is 2*pi.
The interaction potential is

    V(theta) = -eta*cos(theta) - zeta*cos(theta)**2

with the orienting strength eta <= 0 and the aligning strength zeta >= 0 by
convention (a positive eta is the same physics shifted by pi).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

DEFAULT_GRID_POINTS = 512
DEFAULT_J_MAX = 64
# The defaults and limits that the command-line options show live here,
# so the CLI builds its option table from this module alone.
SAMPLES_PER_PERIOD = 512    # switch series: tau samples per period 2*pi
DEFAULT_DTAU = 1e-3         # propagate: time step
CROSSING_RESOLUTION = 40    # crossing_scan: coarse eta points, each an eigh
TAIL_TOL = 1e-12    # largest |c_J| allowed over the last spectrum.TAIL_ROWS
                    # basis functions of any returned state
J_MAX_CAP = 512     # the automatic cutoff grows no further

# Relative tolerance for snapping the topological index to an integer.
INTEGER_INDEX_RTOL = 1e-9


class SymmetryLabel(Enum):
    """Parity species under theta -> -theta: A1 even, A2 odd."""

    A1 = "A1"
    A2 = "A2"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class InteractionParams:
    """The (eta, zeta) interaction-strength pair.

    eta <= 0 and zeta >= 0 are enforced at construction; both must be finite.
    """

    eta: float
    zeta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and math.isfinite(self.zeta)):
            raise ValueError("interaction strengths must be finite")
        if self.eta > 0:
            raise ValueError(f"eta must be <= 0 by convention, got {self.eta}")
        if self.zeta < 0:
            raise ValueError(f"zeta must be >= 0, got {self.zeta}")

    @property
    def kappa(self) -> float:
        """Topological index |eta|/sqrt(zeta); undefined for zeta = 0."""
        if self.zeta == 0:
            raise ValueError("topological index undefined for zeta = 0")
        return abs(self.eta) / math.sqrt(self.zeta)

    def potential(self, theta: np.ndarray) -> np.ndarray:
        return -self.eta * np.cos(theta) - self.zeta * np.cos(theta) ** 2


@dataclass(frozen=True)
class AngularGrid:
    """Uniform periodic grid over [0, 2*pi): theta_k = 2*pi*k/n_points.

    n_points must be even and >= 8. Band-limited states need
    |J| <= n_points/4 to keep cos**2-type products alias-free.
    """

    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 8:
            raise ValueError(f"need n_points >= 8, got {self.n_points}")
        if self.n_points % 2 != 0:
            raise ValueError(f"n_points must be even, got {self.n_points}")

    @cached_property
    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_points) / self.n_points

    @cached_property
    def cos_theta(self) -> np.ndarray:
        """cos(theta), computed once per grid and read-only."""
        table = np.cos(self.theta)
        table.flags.writeable = False
        return table

    @cached_property
    def cos2_theta(self) -> np.ndarray:
        """cos(theta)**2, computed once per grid and read-only."""
        table = self.cos_theta * self.cos_theta
        table.flags.writeable = False
        return table

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.n_points

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Signed angular momenta in FFT ordering."""
        return np.fft.fftfreq(self.n_points, d=1.0 / self.n_points)

    @property
    def max_band_limit(self) -> int:
        return self.n_points // 4


def make_grid(n_points: int = DEFAULT_GRID_POINTS) -> AngularGrid:
    return AngularGrid(n_points)


GridMoments = namedtuple("GridMoments", "norm cos cos2 j2 tail")


def grid_moments(amps: np.ndarray, grid: AngularGrid) -> GridMoments:
    """Norm, <cos>, <cos^2>, <J^2> and tail of each row of amps (..., n).

    |psi|^2 gives the first three, one FFT the last two. The tail is the
    largest |<J|psi>| with |J| > grid.max_band_limit, beyond which
    cos^2-type products alias. The Wavefunction methods are the one-row
    case, and a batch of rows gives the same bits as they do.
    """
    density = np.abs(amps) ** 2
    norm = np.sqrt(np.sum(density, axis=-1) * grid.dtheta)
    cos = np.sum(density * grid.cos_theta, axis=-1) * grid.dtheta
    cos2 = np.sum(density * grid.cos2_theta, axis=-1) * grid.dtheta
    coeff = np.abs(np.fft.fft(amps, axis=-1) * grid.dtheta
                   / math.sqrt(2.0 * np.pi))
    j2 = np.sum(coeff ** 2 * grid.wavenumbers ** 2, axis=-1)
    above = np.abs(grid.wavenumbers) > grid.max_band_limit
    return GridMoments(norm, cos, cos2, j2, coeff[..., above].max(axis=-1))


class Wavefunction:
    """Complex amplitudes on an AngularGrid, unit L2 norm by default.

    Pass normalize=False to keep raw amplitudes (propagation snapshots use
    this so that norm drift stays observable).
    """

    __slots__ = ("grid", "amplitudes")

    def __init__(self, grid: AngularGrid, amplitudes: np.ndarray,
                 normalize: bool = True):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != (grid.n_points,):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match grid "
                f"({grid.n_points} points)")
        if normalize:
            nrm = math.sqrt(float(np.sum(np.abs(amps) ** 2)) * grid.dtheta)
            if not math.isfinite(nrm) or nrm == 0.0:
                raise ValueError("cannot normalize: zero or non-finite norm")
            amps = amps / nrm
        self.grid = grid
        self.amplitudes = amps

    def norm(self) -> float:
        return float(grid_moments(self.amplitudes, self.grid).norm)

    def overlap(self, other: "Wavefunction") -> complex:
        if other.grid.n_points != self.grid.n_points:
            raise ValueError("grids differ")
        return complex(
            np.sum(np.conj(self.amplitudes) * other.amplitudes)
            * self.grid.dtheta)

    def expectation_cos(self) -> float:
        return float(grid_moments(self.amplitudes, self.grid).cos)

    def expectation_cos2(self) -> float:
        return float(grid_moments(self.amplitudes, self.grid).cos2)

    def expectation_kinetic(self) -> float:
        """<J^2> via the Fourier representation."""
        return float(grid_moments(self.amplitudes, self.grid).j2)

    def expectation_potential(self, params: InteractionParams) -> float:
        m = grid_moments(self.amplitudes, self.grid)
        return float(-params.eta * m.cos - params.zeta * m.cos2)

    def expectation_energy(self, params: InteractionParams) -> float:
        m = grid_moments(self.amplitudes, self.grid)
        return float(m.j2 - params.eta * m.cos - params.zeta * m.cos2)

    def free_rotor_coefficients(self, j_max: int) -> np.ndarray:
        """Projections <j|psi> for j in [-j_max, j_max], index j + j_max.

        Spectrally exact for band-limited amplitudes with |j| within the
        grid's band limit.
        """
        if j_max > self.grid.n_points // 2 - 1:
            raise ValueError("j_max exceeds grid capacity")
        ft = np.fft.fft(self.amplitudes) * self.grid.dtheta / math.sqrt(2.0 * np.pi)
        idx = np.arange(-j_max, j_max + 1) % self.grid.n_points
        return ft[idx]


def free_rotor_wavefunction(j: int, grid: AngularGrid) -> Wavefunction:
    """exp(i*j*theta)/sqrt(2*pi) sampled on the grid."""
    jj = int(j)
    if abs(jj) > grid.max_band_limit:
        raise ValueError(
            f"|j|={abs(jj)} exceeds the grid band limit {grid.max_band_limit}")
    amps = np.exp(1j * jj * grid.theta) / math.sqrt(2.0 * np.pi)
    return Wavefunction(grid, amps, normalize=False)


@dataclass(frozen=True)
class TopologicalIndexReport:
    value: float
    is_integer: bool
    nearest_integer: Optional[int]
    parity: Optional[str]  # 'odd' -> genuine-crossing locus, 'even' -> avoided


def topological_index(params: InteractionParams) -> TopologicalIndexReport:
    """kappa = |eta|/sqrt(zeta) with integer-locus detection.

    Odd integer kappa marks genuine (cross-symmetry) crossing loci, even
    integer kappa avoided ones. Raises for zeta = 0 where the index is
    undefined.
    """
    value = params.kappa
    nearest = round(value)
    tol = INTEGER_INDEX_RTOL * max(1.0, abs(value))
    if abs(value - nearest) <= tol:
        return TopologicalIndexReport(
            value=value, is_integer=True, nearest_integer=int(nearest),
            parity="odd" if nearest % 2 else "even")
    return TopologicalIndexReport(value, False, None, None)


@dataclass(frozen=True)
class PotentialShape:
    kind: str  # 'single-well' | 'double-well' | 'boundary'
    theta_barrier: Optional[float]
    v_global_min: float        # V at theta = pi
    v_local_min: Optional[float]   # V at theta = 0, double-well only
    v_barrier: Optional[float]


def potential_shape(params: InteractionParams) -> PotentialShape:
    """Classify V(theta) as single- or double-well.

    A secondary minimum at theta = 0 exists iff |eta| < 2*zeta; the barrier
    between the wells sits at theta* = arccos(-eta/(2*zeta)) with height
    eta**2/(4*zeta) above V = 0. The global minimum is at theta = pi for
    eta < 0 (degenerate with theta = 0 when eta = 0).
    """
    eta, zeta = params.eta, params.zeta
    v0 = -eta - zeta
    vpi = eta - zeta
    a = abs(eta)
    if a > 2.0 * zeta:
        return PotentialShape("single-well", None, vpi, None, None)
    if a == 2.0 * zeta:
        return PotentialShape("boundary", None, vpi, None, None)
    theta_b = math.acos(-eta / (2.0 * zeta))
    vb = eta * eta / (4.0 * zeta)
    return PotentialShape("double-well", theta_b, vpi, v0, vb)

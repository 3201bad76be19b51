"""Switch coefficients: expansions across a sudden field switch, read
exactly off the stored coefficients of the parity-split Fourier basis.

A pendular state over free-rotor states (switch-off) is its own Fourier
series, and a free-rotor state over pendular states (switch-on) is the
conjugate of one of its entries, so both are coefficient lookups with no
grid (switch_off_coefficients, switch_on_coefficients). Every route shares
the eigenvector signs that solve_spectrum fixes once (pi-aligned). The
grid-quadrature and Bessel-sum routes, and the algebraic eigenstates at odd
integer kappa, are twins (twins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DEFAULT_J_MAX
from .spectrum import PendularSpectrum, _signed_expansion


@dataclass(frozen=True)
class SwitchCoefficients:
    """Expansion coefficients across a sudden field switch.

    kind 'switch_off': c[j + j_max] = <j|phi_n0> over signed free-rotor
    j in [-j_max, j_max]. kind 'switch_on': c[n] = <phi_n|j0> over the
    pendular states, j_max None; their parity is the spectrum's odd.
    """

    kind: str
    c: np.ndarray
    j_max: Optional[int] = None

    def parseval(self) -> float:
        return float(np.sum(np.abs(self.c) ** 2))

    def coefficient(self, index: int) -> complex:
        if self.kind == "switch_off":
            return complex(self.c[index + self.j_max])
        return complex(self.c[index])


def _signed_j_max(spec: PendularSpectrum) -> int:
    """Default signed-j range of switch-off tables: max(DEFAULT_J_MAX,
    spec.j_max), so that a table's length does not follow the cutoff."""
    return max(DEFAULT_J_MAX, spec.j_max)


def switch_off_coefficients(spec: PendularSpectrum,
                            n0: int) -> SwitchCoefficients:
    """<j|phi_n0> read exactly off the stored Fourier coefficients, for
    |j| <= _signed_j_max(spec), zero past the cutoff."""
    if not 0 <= n0 < spec.n_states:
        raise ValueError(f"n0={n0} is not a solved state (0..{spec.n_states - 1})")
    j_max = _signed_j_max(spec)
    return SwitchCoefficients(kind="switch_off",
                              c=spec.free_rotor_coefficients(n0, j_max),
                              j_max=j_max)


def switch_on_coefficients(spec: PendularSpectrum,
                           j0: int) -> SwitchCoefficients:
    """<phi_n|j0> = conj(<j0|phi_n>) for every solved state, exact."""
    return SwitchCoefficients(
        kind="switch_on", c=_switch_on_column(spec.coefficients, spec.odd, j0))


def _switch_on_column(coefficients: np.ndarray, odd: np.ndarray,
                      j0: int) -> np.ndarray:
    """<phi_n|j0> of sector coefficient rows with any leading axes (one
    spectrum, or a stack of them) and their odd flags."""
    jm = abs(j0)
    return np.conj(_signed_expansion(coefficients, odd, jm)[..., jm + j0])

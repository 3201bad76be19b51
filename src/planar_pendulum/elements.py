"""Matrix elements of cos(theta) and cos(theta)**2 between pendular
states, exact in the parity-split basis: banded products of the stored
coefficients with the sector bands of the Hamiltonian. The grid-quadrature
and closed-form routes are twins (twins.quadrature_element_matrix,
twins.analytic_cos_element).
"""

from __future__ import annotations

import numpy as np

from .spectrum import PendularSpectrum, _odd_mask, _sector_bands


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

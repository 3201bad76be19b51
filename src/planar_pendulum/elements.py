"""Matrix elements of cos(theta) and cos(theta)**2 between the states of
one pendular spectrum, exact in the parity-split basis. The banded
products themselves live in spectrum (_element_stack), beside the sector
bands they read; this module holds the public one-spectrum entry point.
The grid-quadrature and closed-form routes are twins
(twins.quadrature_element_matrix, twins.analytic_cos_element).
"""

from __future__ import annotations

import numpy as np

from .spectrum import PendularSpectrum, _element_stack


def sector_element_matrix(spec: PendularSpectrum, operator: str) -> np.ndarray:
    """Dense (n_states x n_states) element matrix, exact in the basis.

    V^T O V from the stored coefficients and the sector bands of the
    Hamiltonian (spectrum._element_stack); cross-sector entries are
    exactly zero. quadrature_element_matrix is the grid-quadrature twin.
    """
    return _element_stack(spec.coefficients[None], spec.odd[None],
                          operator)[0]

"""Closed-form transverse eigenvalues of the cross-section (0, L).

The cross-section Laplacian with Neumann or Dirichlet condition on an
interval has eigenvalues lambda_k = (k pi / L)^2, with k = 0, 1, ... for
Neumann (k = 0 is the constant mode) and k = 1, 2, ... for Dirichlet.  The
eigenfunctions never need sampling: data is given directly as mode
coefficients, and the mode-0 coefficient carries the sqrt(L) normalization
of the constant eigenfunction.
"""

from __future__ import annotations

import math

import numpy as np

NEUMANN = "neumann"
DIRICHLET = "dirichlet"


def transverse_eigenvalues(bc: str, L: float = math.pi, K: int = 16) -> np.ndarray:
    """The K lowest eigenvalues (k pi / L)^2 of the interval Laplacian on (0, L)."""
    if L <= 0:
        raise ValueError(f"interval length must be positive, got L={L}")
    if K < 1:
        raise ValueError(f"need at least one mode, got K={K}")
    if bc == NEUMANN:
        ks = range(K)
    elif bc == DIRICHLET:
        ks = range(1, K + 1)
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    return np.array([(k * math.pi / L) ** 2 for k in ks])

"""Dense test oracles for the banded and matrix-free paths in guidewave.

The package itself assembles no dense matrix; every dense matrix the suite
checks against is built here or in the tests.  ``dense_laplacian`` expands the
banded D2 stencil into its N x N Toeplitz matrix, and ``dense_operator``
assembles a mode operator from it.  The norm oracles assemble the operator
as an N x N (or, for the first-order companion form, 2N x 2N) matrix and
take the top singular value of a full SVD, so they are only meant for
moderate N; ``exact_mode_norm`` needs only the eigenvalues of the banded -D2
and serves any N.  The heat-quadrature oracle is scipy's general Toeplitz
product.
"""

import math

import numpy as np
from scipy.fft import dst
from scipy.linalg import eigvals_banded, matmul_toeplitz, svdvals, toeplitz

from guidewave.discretize import laplacian_1d
from guidewave.heat import heat_kernel


def toeplitz_heat_apply(w0, grid, t, derivative="none"):
    """Kernel quadrature h sum_j K(x_i - x_j) w0_j by ``matmul_toeplitz``."""
    d = grid.xs - grid.xs[0]
    col = heat_kernel(t, d, derivative)
    row = heat_kernel(t, -d, derivative)
    return grid.h * matmul_toeplitz((col, row), w0)


def dense_laplacian(grid, order=4):
    """The banded D2 of ``laplacian_1d`` as an N x N symmetric Toeplitz matrix."""
    coeffs = laplacian_1d(grid, order=order).coeffs
    col = np.zeros(grid.N)
    col[:len(coeffs)] = coeffs
    return toeplitz(col)


def dense_operator(op):
    """The mode operator -D2 + diag of a ``ShiftedOperator`` as an N x N matrix."""
    return -dense_laplacian(op.grid, op.lap.order) + np.diag(op.diag)


def sobolev_matrix(grid, beta):
    """(1 - d^2/dx^2)^(beta/2) on the sine eigenbasis of the cap, assembled."""
    m = np.arange(1, grid.N + 1)
    nu = (m * math.pi / (2.0 * grid.X)) ** 2
    basis = dst(np.eye(grid.N), type=1, norm="ortho", axis=0)
    return basis.T @ ((1.0 + nu[:, None]) ** (beta / 2.0) * basis)


def dense_sobolev_norm(op, beta1, beta2):
    """Dense-SVD (H^b2)' -> H^b1 norm of the mode resolvent of ``op``."""
    mat = np.linalg.inv(dense_operator(op))
    if beta1:
        mat = sobolev_matrix(op.grid, beta1) @ mat
    if beta2:
        mat = mat @ sobolev_matrix(op.grid, beta2)
    return float(svdvals(mat)[0])


def sqrt_energy_matrix(grid, lam, order=4):
    """P^{1/2} for P = -D2 + lam, from a dense eigendecomposition."""
    p = -dense_laplacian(grid, order) + lam * np.eye(grid.N)
    vals, vecs = np.linalg.eigh(p)
    assert vals[0] > 0.0, "P must be positive definite"
    return vecs @ (np.sqrt(vals)[:, None] * vecs.T)


def dense_energy_norm(grid, lam, damping, z, order=4):
    """||diag(P^1/2, I) (A - z)^{-1} diag(P^-1/2, I)|| by dense inverse and SVD.

    A = [[0, I], [P, -i a]] is the first-order operator on (u, i du/dt) of one
    mode, assembled directly rather than through the block formula.
    """
    n = grid.N
    p = -dense_laplacian(grid, order) + lam * np.eye(n)
    a_mat = np.zeros((2 * n, 2 * n), dtype=complex)
    a_mat[:n, n:] = np.eye(n)
    a_mat[n:, :n] = p
    a_mat[n:, n:] = -1j * np.diag(damping.samples)
    resolvent = np.linalg.inv(a_mat - z * np.eye(2 * n))
    root = sqrt_energy_matrix(grid, lam, order)
    left = np.eye(2 * n)
    left[:n, :n] = root
    right = np.eye(2 * n)
    right[:n, :n] = np.linalg.inv(root)
    return float(svdvals(left @ resolvent @ right)[0])



def exact_mode_norm(grid, lam, z, level, order=4):
    """||(-D2 + lam - z^2 - i z level)^{-1}|| for constant damping ``level``.

    The operator is -D2 plus a scalar, hence normal, so its inverse's norm is
    1 / min |mu + lam - z^2 - i z level| over the eigenvalues mu of -D2,
    taken from the band by ``eigvals_banded``.
    """
    coeffs = laplacian_1d(grid, order=order).coeffs
    bands = np.array([np.full(grid.N, -c) for c in coeffs])   # lower form of -D2
    mu = eigvals_banded(bands, lower=True)
    return float(1.0 / np.min(np.abs(mu + lam - z * z - 1j * z * level)))

import math

import numpy as np
import pytest

from guidewave.transverse import DIRICHLET, NEUMANN, transverse_eigenvalues


def _interval_laplacian_eigs(bc, L, n):
    """Eigenvalues of the second-order FD Laplacian on (0, L), n unknowns.

    Dirichlet: vertex-centred nodes, zero end values.  Neumann: cell-centred
    nodes with mirrored ghosts, so the end rows lose one diagonal unit.
    """
    h = L / (n + 1) if bc == DIRICHLET else L / n
    mat = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    if bc == NEUMANN:
        mat[0, 0] = mat[-1, -1] = 1.0
    return np.linalg.eigvalsh(mat) / h ** 2


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
def test_lambdas_match_interval_laplacian(bc):
    L, K = 2.5, 6
    lams = transverse_eigenvalues(bc, L=L, K=K)
    fd = _interval_laplacian_eigs(bc, L, 800)[:K]
    assert np.allclose(lams, fd, rtol=1e-4, atol=1e-8)


def test_neumann_mode0_is_constant():
    # the constant cross-section mode carries the zero eigenvalue, for any L
    for L in (math.pi, 0.3, 12.0):
        lams = transverse_eigenvalues(NEUMANN, L=L, K=67)
        assert lams[0] == 0.0
        assert np.all(lams[1:] > 0.0)


def test_neumann_mode2():
    assert transverse_eigenvalues(NEUMANN, K=4).tolist() == [0.0, 1.0, 4.0, 9.0]
    assert transverse_eigenvalues(NEUMANN, L=2.0, K=3)[2] == math.pi ** 2


def test_dirichlet_mode1():
    assert transverse_eigenvalues(DIRICHLET, K=4).tolist() == [1.0, 4.0, 9.0, 16.0]
    assert transverse_eigenvalues(DIRICHLET, L=2.0, K=1)[0] == (math.pi / 2.0) ** 2


def test_lambdas_reject_bad_arguments():
    with pytest.raises(ValueError):
        transverse_eigenvalues(NEUMANN, L=-1.0, K=4)
    with pytest.raises(ValueError):
        transverse_eigenvalues(DIRICHLET, K=0)
    with pytest.raises(ValueError):
        transverse_eigenvalues("robin", K=4)

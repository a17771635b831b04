"""Dense complex linear-algebra kernels shared by every other module.

Thin, contract-checked wrappers around numpy.linalg: Hermitian eigenvalues,
certified inversion and norms.  All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_RTOL = 1e-12
INVERT_RESIDUAL_RTOL = 1e-9


class HermiticityError(ValueError):
    """Input claimed Hermitian violates the symmetry tolerance."""


class SingularMatrixError(ValueError):
    """Matrix is numerically singular; no certified inverse exists."""


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def require_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermiticity_defect(m) -> float:
    """max_{ij} |M[i,j] - conj(M[j,i])|."""
    a = require_square(m)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def is_hermitian(m, rtol: float = HERMITICITY_RTOL) -> bool:
    a = require_square(m)
    return hermiticity_defect(a) <= rtol * (1.0 + frobenius_norm(a))


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Raises HermiticityError when the symmetry defect exceeds
    1e-12 * (1 + ||M||_F).
    """
    a = require_square(m)
    if not is_hermitian(a):
        raise HermiticityError(
            f"matrix is not Hermitian within tolerance (defect {hermiticity_defect(a):.3e})"
        )
    return np.linalg.eigvalsh(a)


def invert(m) -> np.ndarray:
    """Inverse with a residual certificate ||M X - I||_F <= 1e-9 * n."""
    a = require_square(m)
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    try:
        x = np.linalg.solve(a, eye)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    residual = frobenius_norm(a @ x - eye)
    if not np.isfinite(residual) or residual > INVERT_RESIDUAL_RTOL * n:
        raise SingularMatrixError(
            f"inverse residual {residual:.3e} exceeds {INVERT_RESIDUAL_RTOL * n:.3e}"
        )
    return x


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=np.complex128)))


def operator_norm(m) -> float:
    """Largest singular value (largest |eigenvalue| for Hermitian input)."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))

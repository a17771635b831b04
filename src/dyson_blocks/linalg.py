"""Dense complex linear-algebra kernels shared by every other module.

Thin, contract-checked wrappers around numpy.linalg: Hermitian eigenvalues,
resolvent traces, certified inversion and norms.  All functions are pure
and safe to call concurrently.  No package code calls ``invert``; it is
kept because bench/tracer.py patches it (ROADMAP item 2).
"""

from __future__ import annotations

import numpy as np

HERMITICITY_RTOL = 1e-12
HERMITICITY_ROW_BLOCK = 64
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
    """max_{ij} |M[i,j] - conj(M[j,i])|, one block of rows at a time."""
    a = require_square(m)
    k = HERMITICITY_ROW_BLOCK
    return max((float(np.max(np.abs(a[i:i + k] - a[:, i:i + k].conj().T)))
                for i in range(0, a.shape[0], k)), default=0.0)


def is_hermitian(m, rtol: float = HERMITICITY_RTOL) -> bool:
    a = require_square(m)
    return hermiticity_defect(a) <= rtol * (1.0 + frobenius_norm(a))


def require_hermitian(m) -> np.ndarray:
    """Square complex matrix, or HermiticityError when the symmetry defect
    exceeds 1e-12 * (1 + ||M||_F)."""
    a = require_square(m)
    if not is_hermitian(a):
        raise HermiticityError(
            f"matrix is not Hermitian within tolerance (defect {hermiticity_defect(a):.3e})"
        )
    return a


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix (see require_hermitian)."""
    return np.linalg.eigvalsh(require_hermitian(m))


def _shifted(z: complex, b: np.ndarray) -> np.ndarray:
    """z I - b."""
    out = -b
    out.flat[::b.shape[0] + 1] += z
    return out


def resolvent_trace(m, zs) -> np.ndarray:
    """(1/n) tr (z - M)^-1 of a Hermitian M at each z, without eigenvalues.

    One 2 x 2 Schur split at p = n // 2: with Y = (z - M11)^-1,
    T = M21 Y, U = Y M12 and W = (z - M22 - T M12)^-1, the diagonal
    blocks of (z - M)^-1 are Y + U W T and W, so

        tr (z - M)^-1 = tr Y + tr W + sum_ij W_ij (T U)_ji.

    Every step is a matmul or an LU inverse (Level-3 BLAS).  Y is the
    resolvent of the Hermitian block M11 and W a block of (z - M)^-1, so
    both are bounded by 1 / |Im z|.  Raises HermiticityError as
    hermitian_eigenvalues does, and ValueError for an empty matrix or a
    real z.
    """
    a = require_hermitian(m)
    n = a.shape[0]
    if n == 0:
        raise ValueError("empty matrix has no normalized trace")
    zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
    if np.any(zs.imag == 0):
        raise ValueError("z values must have nonzero imaginary part")
    p = n // 2
    m11, m12, m21, m22 = a[:p, :p], a[:p, p:], a[p:, :p], a[p:, p:]
    out = np.empty(zs.shape, dtype=np.complex128)
    for k, z in enumerate(zs):
        y = np.linalg.inv(_shifted(z, m11))
        t = m21 @ y
        u = y @ m12
        w = np.linalg.inv(_shifted(z, m22) - t @ m12)
        out[k] = (np.trace(y) + np.trace(w) + np.sum(w * (t @ u).T)) / n
    return out


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

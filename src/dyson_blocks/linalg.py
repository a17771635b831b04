"""Dense complex linear-algebra kernels shared by every other module.

Contract-checked kernels: Hermitian eigenvalues (numpy.linalg.eigvalsh),
resolvent traces by recursive Schur complements (matmuls, with
numpy.linalg.inv only on small leaf blocks), certified inversion and
norms.  All functions are pure and safe to call concurrently.  No package
code calls ``invert``; it is kept because bench/tracer.py patches it
(ROADMAP item 2).
"""

from __future__ import annotations

import numpy as np

HERMITICITY_RTOL = 1e-12
HERMITICITY_ROW_BLOCK = 64
# at or below this size _resolvent_inverse calls LAPACK.  On a 2-vCPU Xeon
# with OpenBLAS, 32 and 48 timed the same on sizes 64-256; 24 was 10-40 %
# slower there and 64 up to 16 % slower
RESOLVENT_LEAF = 32
INVERT_RESIDUAL_RTOL = 1e-9
_FLOAT_MAX = float(np.finfo(np.float64).max)


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
    """max_{ij} |M[i,j] - conj(M[j,i])|, one block of rows at a time.

    The term is symmetric in i and j, so each block of rows is compared
    only from its diagonal block rightwards: the upper triangle, blocked.
    The block maxima are combined by np.max, which propagates a NaN from
    any block (the builtin max drops a NaN that follows a number).
    """
    a = require_square(m)
    k = HERMITICITY_ROW_BLOCK
    return float(np.max([np.max(np.abs(a[i:i + k, i:] - a[i:, i:i + k].conj().T))
                         for i in range(0, a.shape[0], k)], initial=0.0))


def within_tolerance(defect, m, rtol: float = HERMITICITY_RTOL) -> bool:
    """defect <= rtol (1 + ||m||_F), the package's one relative test.  A
    zero defect reads no norm; a NaN or inf one fails, as the bound is
    capped at the largest float (an inf entry makes the norm inf too)."""
    return bool(defect == 0.0 or defect <= min(
        rtol * (1.0 + frobenius_norm(m)), _FLOAT_MAX))


def is_hermitian(m) -> bool:
    """hermiticity_defect(m) within_tolerance (rtol 1e-12)."""
    return within_tolerance(hermiticity_defect(m), m)


def require_hermitian(m) -> np.ndarray:
    """Square complex matrix, or HermiticityError when the symmetry defect
    exceeds 1e-12 * (1 + ||M||_F) or is not finite."""
    a = require_square(m)
    defect = hermiticity_defect(a)
    if not within_tolerance(defect, a):
        raise HermiticityError(
            f"matrix is not Hermitian within tolerance (defect {defect:.3e})"
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


def _resolvent_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a square a whose leading blocks and their Schur
    complements are all invertible, by recursive 2 x 2 Schur complements.

    With p = n // 2, Y = A11^-1, T = A21 Y, U = Y A12 and
    W = (A22 - T A12)^-1,

        a^-1 = [[Y + U W T, -U W], [-W T, W]],

    where Y and W are inverted by the same recursion down to
    RESOLVENT_LEAF, below which numpy.linalg.inv (LU) runs.  The rest is
    matmuls written into the blocks of the result.  No pivoting is needed
    for a = z - M with M Hermitian and Im z != 0: the imaginary part
    (a - a^*) / 2i is then Im z I, and a matrix whose imaginary part is
    >= c I (or <= -c I), c > 0, keeps that property in its leading
    blocks and in their Schur complements.  So every matrix the recursion
    inverts has norm of inverse <= 1 / |Im z|.
    """
    n = a.shape[0]
    if n <= RESOLVENT_LEAF:
        return np.linalg.inv(a)
    p = n // 2
    a12, a21 = a[:p, p:], a[p:, :p]
    out = np.empty((n, n), dtype=np.complex128)
    x11, x12, x21, x22 = out[:p, :p], out[:p, p:], out[p:, :p], out[p:, p:]
    y = _resolvent_inverse(a[:p, :p])
    t = a21 @ y
    u = y @ a12
    np.matmul(t, a12, out=x22)
    np.subtract(a[p:, p:], x22, out=x22)
    x22[...] = w = _resolvent_inverse(x22)
    np.matmul(u, w, out=x12)
    del u
    np.negative(x12, out=x12)
    np.matmul(x12, t, out=x11)
    np.subtract(y, x11, out=x11)
    del y
    np.matmul(w, t, out=x21)
    np.negative(x21, out=x21)
    return out


def resolvent_points(zs) -> np.ndarray:
    """``zs`` as a 1-D complex128 array (a scalar as one point); ValueError
    for a z that is real or not finite, where a resolvent has no value."""
    zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
    if not (np.isfinite(zs).all() and zs.imag.all()):
        raise ValueError("z values must be finite with nonzero imaginary part")
    return zs


def resolvent_trace(m, zs) -> np.ndarray:
    """(1/n) tr (z - M)^-1 of a Hermitian M at each z, without eigenvalues.

    One 2 x 2 Schur split at p = n // 2: with Y = (z - M11)^-1,
    T = M21 Y, U = Y M12 and W = (z - M22 - T M12)^-1, the diagonal
    blocks of (z - M)^-1 are Y + U W T and W, so

        tr (z - M)^-1 = tr Y + tr W + sum_ij W_ij (T U)_ji.

    Y and W are taken by _resolvent_inverse, so every step is a matmul
    (Level-3 BLAS) except the LU inverses of its small leaf blocks.  Y is
    the resolvent of the Hermitian block M11 and W a block of
    (z - M)^-1, so both are bounded by 1 / |Im z|.  Raises
    HermiticityError as hermitian_eigenvalues does, and ValueError for an
    empty matrix or a z that ``resolvent_points`` refuses.
    """
    a = require_hermitian(m)
    n = a.shape[0]
    if n == 0:
        raise ValueError("empty matrix has no normalized trace")
    zs = resolvent_points(zs)
    p = n // 2
    m11, m12, m21, m22 = a[:p, :p], a[:p, p:], a[p:, :p], a[p:, p:]
    out = np.empty(zs.shape, dtype=np.complex128)
    for k, z in enumerate(zs):
        y = _resolvent_inverse(_shifted(z, m11))
        t = m21 @ y
        u = y @ m12
        # Y is not needed past its trace: release it before W is formed, and
        # form the Schur complement in place
        trace_y = np.trace(y)
        del y
        s = _shifted(z, m22)
        s -= t @ m12
        w = _resolvent_inverse(s)
        del s
        # sum_ij W_ij (T U)_ji is a dot of W with (T U)^T = U^T T^T
        tu_t = u.T @ t.T
        out[k] = (trace_y + np.trace(w) + np.dot(w.ravel(), tu_t.ravel())) / n
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
    """np.linalg.norm's bits, except that finite entries whose squares
    overflow (above about 1.3e154) are first divided by the largest
    |real or imaginary part|, and the norm scaled back."""
    a = np.asarray(m, dtype=np.complex128)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if norm == np.inf and np.isfinite(a).all():
        scale = float(max(np.max(np.abs(a.real)), np.max(np.abs(a.imag))))
        norm = scale * float(np.linalg.norm(a / scale))
    return norm


def operator_norm(m) -> float:
    """Largest singular value (largest |eigenvalue| for Hermitian input)."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))

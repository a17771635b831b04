"""Completely positive covariance maps on d x d matrices.

Every block-matrix model in this package has a limiting spectral law
described by a completely positive map ``eta`` acting on d x d complex
matrices.  The canonical internal representation is the Choi tensor

    choi4[i, k, j, l] = eta(E_ij)[k, l],

so that ``eta(B)[k, l] = sum_ij choi4[i, k, j, l] * B[i, j]`` and the
d^2 x d^2 matrix ``choi4.reshape(d*d, d*d)`` (rows indexed by (i, k),
columns by (j, l)) is Hermitian positive semidefinite exactly when the
map is completely positive.

Constructors lower everything to the Choi tensor, and every map is
applied through one matrix built from it, ``CovarianceMap.action``:
vec(eta(B)) = action @ vec(B) with row-major vec(B)[i*d + j] = B[i, j].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, frobenius_norm, operator_norm, require_square

CP_EIGENVALUE_TOL = -1e-10
SYMMETRY_RTOL = 1e-12


def _pair_matrix(sigma4: np.ndarray) -> np.ndarray:
    """Reshape sigma(i,j;k,l) to the d^2 x d^2 matrix over index pairs."""
    d = sigma4.shape[0]
    return sigma4.reshape(d * d, d * d)


class CovarianceTensor:
    """Fourth-order covariance data sigma(i,j;k,l) for block models.

    Invariants checked at construction:
      * Hermitian pair symmetry  sigma(i,j;k,l) = conj(sigma(k,l;i,j))
      * the d^2 x d^2 matrix Sigma[(i,j),(k,l)] is positive semidefinite
    """

    def __init__(self, sigma):
        sigma = np.asarray(sigma, dtype=np.complex128)
        if sigma.ndim != 4 or len(set(sigma.shape)) != 1:
            raise ValueError(f"expected a (d,d,d,d) tensor, got shape {sigma.shape}")
        self.d = sigma.shape[0]
        self.sigma = sigma
        mat = _pair_matrix(sigma)
        scale = 1.0 + frobenius_norm(mat)
        if np.max(np.abs(mat - mat.conj().T)) > SYMMETRY_RTOL * scale:
            raise ValueError("tensor violates sigma(i,j;k,l) = conj(sigma(k,l;i,j))")
        if np.linalg.eigvalsh((mat + mat.conj().T) / 2).min() < CP_EIGENVALUE_TOL * scale:
            raise ValueError("tensor pair matrix Sigma[(ij),(kl)] is not PSD")

    def matrix(self) -> np.ndarray:
        return _pair_matrix(self.sigma)

    @property
    def is_real(self) -> bool:
        return bool(np.max(np.abs(self.sigma.imag)) <= SYMMETRY_RTOL)

    @property
    def has_adjoint_symmetry(self) -> bool:
        """sigma(i,j;k,l) = sigma(l,k;j,i): blocks distributed like their adjoints."""
        return bool(
            np.max(np.abs(self.sigma - self.sigma.transpose(3, 2, 1, 0)))
            <= SYMMETRY_RTOL * (1.0 + frobenius_norm(self.matrix()))
        )


@dataclass
class CovarianceMap:
    """A linear map on d x d matrices held as its Choi tensor.

    ``form`` records which constructor produced the map ("scalar", "choi",
    "kronecker", "empirical").  ``psd_projection`` is the total negative
    Choi mass clipped by empirical constructors (0 for exact ones).
    ``action`` is the d^2 x d^2 matrix of the map on row-major vec(B),
    ``choi4.transpose(1, 3, 0, 2).reshape(d*d, d*d)``; it is built once
    and read-only, so ``choi4`` must not be modified in place afterwards.
    """

    d: int
    choi4: np.ndarray
    form: str = "choi"
    psd_projection: float = field(default=0.0)
    action: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.d * self.d
        self.action = np.ascontiguousarray(
            self.choi4.transpose(1, 3, 0, 2).reshape(n, n), dtype=np.complex128)
        self.action.setflags(write=False)

    def apply(self, b) -> np.ndarray:
        b = require_square(b)
        if b.shape[0] != self.d:
            raise ValueError(f"expected a {self.d}x{self.d} matrix, got {b.shape}")
        return (self.action @ b.reshape(-1)).reshape(self.d, self.d)

    __call__ = apply

    def choi_matrix(self) -> np.ndarray:
        return self.choi4.reshape(self.d * self.d, self.d * self.d)

    def is_completely_positive(self, tol: float = CP_EIGENVALUE_TOL) -> bool:
        c = self.choi_matrix()
        if np.max(np.abs(c - c.conj().T)) > 1e-10 * (1.0 + frobenius_norm(c)):
            return False
        return bool(np.linalg.eigvalsh((c + c.conj().T) / 2).min() >= tol)

    def cp_norm(self) -> float:
        """||eta|| = ||eta(I)||_op, valid for completely positive maps."""
        return operator_norm(self.apply(np.eye(self.d)))


@dataclass
class EtaPair:
    """The two covariance maps entering the Wishart fixed-point equation."""

    eta1: CovarianceMap
    eta2: CovarianceMap

    def __post_init__(self):
        if self.eta1.d != self.eta2.d:
            raise ValueError("eta1 and eta2 must act on the same dimension")

    @property
    def d(self) -> int:
        return self.eta1.d


def _conjugation_choi(ops: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Choi tensor of B -> sum_m w_m a_m B a_m^*."""
    return np.einsum("m,mki,mlj->ikjl", weights, ops, ops.conj())


def _as_op_stack(mats, d: int | None = None) -> np.ndarray:
    arr = [require_square(m) for m in mats]
    if not arr:
        raise ValueError("empty sample list")
    dd = arr[0].shape[0]
    if d is not None and dd != d:
        raise ValueError(f"expected {d}x{d} matrices, got {dd}x{dd}")
    if any(m.shape[0] != dd for m in arr):
        raise ValueError("samples have mismatched dimensions")
    return np.stack(arr)


def _project_psd(choi4: np.ndarray) -> tuple[np.ndarray, float]:
    """Clip negative Choi eigenvalues to zero; return clipped mass."""
    d = choi4.shape[0]
    c = choi4.reshape(d * d, d * d)
    c = (c + c.conj().T) / 2
    w, u = np.linalg.eigh(c)
    clipped = float(np.sum(np.abs(w[w < 0])))
    if clipped == 0.0:
        return choi4, 0.0
    w = np.clip(w, 0.0, None)
    c = (u * w) @ u.conj().T
    return c.reshape(d, d, d, d), clipped


def scalar_map(d: int, t: float) -> CovarianceMap:
    """eta(B) = t * B, the scalar semicircular covariance."""
    if t < 0:
        raise ValueError("scalar covariance requires t >= 0")
    eye = np.eye(d, dtype=np.complex128)
    # choi4[i,k,j,l] = t * delta_ik * delta_jl
    choi4 = t * np.einsum("ik,jl->ikjl", eye, eye)
    return CovarianceMap(d=d, choi4=choi4, form="scalar")


def flat_map(d: int, c: float = 1.0) -> CovarianceMap:
    """eta(B) = c * tr(B)/d * I; the limit map of flat-variance block models."""
    eye = np.eye(d, dtype=np.complex128)
    choi4 = (c / d) * np.einsum("ij,kl->ikjl", eye, eye)
    return CovarianceMap(d=d, choi4=choi4, form="choi")


def choi_map(choi, d: int | None = None, form: str = "choi") -> CovarianceMap:
    """Wrap an explicit Choi tensor (d,d,d,d) or matrix (d^2,d^2)."""
    arr = np.asarray(choi, dtype=np.complex128)
    if arr.ndim == 2:
        n = arr.shape[0]
        d = int(round(np.sqrt(n)))
        if d * d != n or arr.shape != (n, n):
            raise ValueError(f"Choi matrix shape {arr.shape} is not (d^2, d^2)")
        arr = arr.reshape(d, d, d, d)
    elif arr.ndim == 4:
        d = arr.shape[0]
        if arr.shape != (d, d, d, d):
            raise ValueError(f"Choi tensor shape {arr.shape} is not (d,d,d,d)")
    else:
        raise ValueError("Choi data must be a matrix or a rank-4 tensor")
    return CovarianceMap(d=d, choi4=arr, form=form)


def _centered(stack: np.ndarray) -> np.ndarray:
    return stack - stack.mean(axis=0)


def eta_iid_blocks(samples=None, entry_cov=None) -> CovarianceMap:
    """Covariance map of the Hermitized i.i.d.-block model.

    eta(B) = (E[Abar B Abar^*] + E[Abar^* B Abar]) / 2 with Abar the
    centered block.  Built either from Monte Carlo ``samples`` (a list of
    d x d draws) or from the exact ``entry_cov`` tensor
    Gamma[k,i,l,j] = Cov(a_{ki}, conj(a_{lj})).
    """
    if (samples is None) == (entry_cov is None):
        raise ValueError("provide exactly one of samples / entry_cov")
    if samples is not None:
        stack = _centered(_as_op_stack(samples))
        m = stack.shape[0]
        w = np.full(2 * m, 1.0 / (2 * m))
        ops = np.concatenate([stack, stack.conj().transpose(0, 2, 1)])
        choi4, clipped = _project_psd(_conjugation_choi(ops, w))
        return CovarianceMap(d=stack.shape[1], choi4=choi4, form="empirical",
                             psd_projection=clipped)
    gamma = np.asarray(entry_cov, dtype=np.complex128)
    if gamma.ndim != 4 or len(set(gamma.shape)) != 1:
        raise ValueError("entry_cov must be a (d,d,d,d) tensor")
    plus = gamma.transpose(1, 0, 3, 2)          # choi of E[Abar B Abar^*]
    minus = gamma.conj()                        # choi of E[Abar^* B Abar]
    return CovarianceMap(d=gamma.shape[0], choi4=(plus + minus) / 2, form="choi")


def eta_wigner_blocks(samples=None, entry_cov=None) -> CovarianceMap:
    """Single-conjugation covariance eta(B) = E[Abar B Abar^*] (Wigner fill)."""
    if (samples is None) == (entry_cov is None):
        raise ValueError("provide exactly one of samples / entry_cov")
    if samples is not None:
        stack = _centered(_as_op_stack(samples))
        m = stack.shape[0]
        choi4, clipped = _project_psd(
            _conjugation_choi(stack, np.full(m, 1.0 / m))
        )
        return CovarianceMap(d=stack.shape[1], choi4=choi4, form="empirical",
                             psd_projection=clipped)
    gamma = np.asarray(entry_cov, dtype=np.complex128)
    if gamma.ndim != 4 or len(set(gamma.shape)) != 1:
        raise ValueError("entry_cov must be a (d,d,d,d) tensor")
    return CovarianceMap(d=gamma.shape[0], choi4=gamma.transpose(1, 0, 3, 2),
                         form="choi")


def eta_kronecker(betas, sigma_l, prefactor: float = 1.0) -> CovarianceMap:
    """eta(B) = prefactor * sum_kl sigma(k,l) b_k B b_l^* + conj(sigma(k,l)) b_k^* B b_l.

    The default prefactor 1 is the normalization reproduced by the Monte
    Carlo oracle for the Kronecker sampling model; pass 1/L^2 to recover
    the alternative convention.
    """
    ops = _as_op_stack(betas)
    L, d = ops.shape[0], ops.shape[1]
    sig = as_matrix(sigma_l)
    if sig.shape != (L, L):
        raise ValueError(f"sigma_l must be {L}x{L}, got {sig.shape}")
    scale = 1.0 + frobenius_norm(sig)
    if np.max(np.abs(sig - sig.conj().T)) > SYMMETRY_RTOL * scale:
        raise ValueError("sigma_l must be Hermitian")
    if np.linalg.eigvalsh((sig + sig.conj().T) / 2).min() < CP_EIGENVALUE_TOL * scale:
        raise ValueError("sigma_l must be positive semidefinite")
    direct = np.einsum("mn,mki,nlj->ikjl", sig, ops, ops.conj())
    adjoint = np.einsum("mn,mik,njl->ikjl", sig.conj(), ops.conj(), ops)
    choi4 = prefactor * (direct + adjoint)
    return CovarianceMap(d=d, choi4=choi4, form="kronecker")


def eta_correlated_tensor(tensor: CovarianceTensor) -> CovarianceMap:
    """Limit map of the correlated-blocks Hermitian model.

    eta(B)_{ij} = (1/d) sum_kl sigma(i,k;j,l) B_{kl}.  The index pattern is
    the one confirmed by the Monte Carlo oracle against the sampler; the
    tensor must additionally satisfy sigma(i,j;k,l) = sigma(l,k;j,i) so
    that blocks are distributed like their adjoints (otherwise the model
    has no single d x d fixed-point description).
    """
    if not isinstance(tensor, CovarianceTensor):
        tensor = CovarianceTensor(tensor)
    if not tensor.has_adjoint_symmetry:
        raise ValueError(
            "correlated-blocks tensor needs sigma(i,j;k,l) = sigma(l,k;j,i)"
        )
    choi4 = tensor.sigma.transpose(1, 0, 3, 2) / tensor.d
    return CovarianceMap(d=tensor.d, choi4=choi4, form="choi")


def eta_exchangeable_pool(pool) -> CovarianceMap:
    """Half-sum empirical map of a finite exchangeable pool.

    Centers the pool at its mean mu and returns
    eta(b) = (1/2n) sum_i (xbar_i b xbar_i^* + xbar_i^* b xbar_i).
    Scalars are treated as 1 x 1 matrices.
    """
    items = list(pool)
    if not items:
        raise ValueError("empty pool")
    if np.ndim(items[0]) == 0:
        mats = [np.array([[complex(v)]]) for v in items]
    else:
        mats = items
    return eta_iid_blocks(samples=mats)


def eta_wishart_pair(tensor: CovarianceTensor) -> EtaPair:
    """The (eta1, eta2) pair of the correlated Wishart model.

    eta1(B)_{ij} = (1/d) sum_kl sigma(i,k;j,l) B_{kl}
    eta2(B)_{ij} = (1/d) sum_kl sigma(k,i;l,j) B_{kl}

    Requires a real tensor with sigma(i,j;k,l) = sigma(k,l;i,j).  The 1/d
    scale is fixed by the scalar Marchenko-Pastur oracle (sampled mean
    eigenvalue equals the entry variance).
    """
    if not isinstance(tensor, CovarianceTensor):
        tensor = CovarianceTensor(tensor)
    if not tensor.is_real:
        raise ValueError("wishart tensor must be real-valued")
    d = tensor.d
    eta1 = CovarianceMap(d=d, choi4=tensor.sigma.transpose(1, 0, 3, 2) / d,
                         form="choi")
    eta2 = CovarianceMap(d=d, choi4=tensor.sigma / d, form="choi")
    return EtaPair(eta1=eta1, eta2=eta2)

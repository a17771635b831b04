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

Each map also carries, built on first use, an orthonormal basis of the
smallest unital algebra A that eta maps into itself
(``CovarianceMap.subalgebra_basis``) and eta's structure constants on it
(``CovarianceMap.structure_constants``): the solver's Newton corrections
live in A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (as_matrix, is_hermitian, operator_norm, require_square,
                     within_tolerance)

CP_EIGENVALUE_RTOL = 1e-10
# a candidate spans a new direction of the subalgebra when its part outside
# the directions found so far is above this fraction of its norm
SUBALGEBRA_RTOL = 1e-10


def psd_factor(mat: np.ndarray, not_hermitian: str, not_psd: str) -> np.ndarray:
    """F = U diag(sqrt(max(lambda, 0))) from eigh(mat), so F F^* = mat.

    The one validity test of a covariance matrix, by linalg's
    within_tolerance (s = 1 + ||mat||_F): ValueError(not_hermitian) unless
    is_hermitian(mat) (max|mat - mat^*| <= 1e-12 s) and ValueError(not_psd)
    unless -lambda_min <= CP_EIGENVALUE_RTOL * s.
    """
    if not is_hermitian(mat):
        raise ValueError(not_hermitian)
    w, u = np.linalg.eigh(mat)
    if not within_tolerance(-w.min(), mat, CP_EIGENVALUE_RTOL):
        raise ValueError(not_psd)
    return u @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def sigma_l_factor(sigma_l, L: int) -> np.ndarray:
    """psd_factor of the Kronecker weights sigma_l, which must be L x L."""
    sig = as_matrix(sigma_l)
    if sig.shape != (L, L):
        raise ValueError(f"sigma_l must be {L}x{L}, got {sig.shape}")
    return psd_factor(sig, "sigma_l must be Hermitian",
                      "sigma_l must be positive semidefinite")


class CovarianceTensor:
    """Fourth-order covariance data sigma(i,j;k,l) for block models.

    Invariants checked at construction by psd_factor, which also makes
    ``factor`` (F F^* = Sigma), the Gaussian factor every draw reuses:
      * Hermitian pair symmetry  sigma(i,j;k,l) = conj(sigma(k,l;i,j))
      * the d^2 x d^2 matrix Sigma[(i,j),(k,l)] is positive semidefinite
    ``has_adjoint_symmetry`` and ``is_real`` are within_tolerance
    (rtol 1e-12) of sigma too.
    """

    def __init__(self, sigma):
        sigma = np.asarray(sigma, dtype=np.complex128)
        if sigma.ndim != 4 or len(set(sigma.shape)) != 1:
            raise ValueError(f"expected a (d,d,d,d) tensor, got shape {sigma.shape}")
        self.d = sigma.shape[0]
        if self.d < 1:
            raise ValueError(
                f"expected a (d,d,d,d) tensor with d >= 1, got d = {self.d}")
        self.sigma = sigma
        self.factor = psd_factor(
            sigma.reshape(self.d ** 2, self.d ** 2),
            "tensor violates sigma(i,j;k,l) = conj(sigma(k,l;i,j))",
            "tensor pair matrix Sigma[(ij),(kl)] is not PSD")

    @property
    def is_real(self) -> bool:
        return within_tolerance(np.max(np.abs(self.sigma.imag)), self.sigma)

    @property
    def has_adjoint_symmetry(self) -> bool:
        """sigma(i,j;k,l) = sigma(l,k;j,i): blocks distributed like their adjoints."""
        return within_tolerance(
            np.max(np.abs(self.sigma - self.sigma.transpose(3, 2, 1, 0))), self.sigma)


@dataclass(eq=False)
class CovarianceMap:
    """A linear map on d x d matrices held as its Choi tensor (d, d, d, d).

    The tensor is the whole map: ``d`` is its side and ``action``, the
    d^2 x d^2 matrix of the map on row-major vec(B),
    ``choi4.transpose(1, 3, 0, 2).reshape(d*d, d*d)``, is built from it
    once and read-only, so ``choi4`` must not be modified in place afterwards.
    Any other shape than (d, d, d, d) with d >= 1 is a ValueError here, the
    one check of it.  Equality is identity, as for CovarianceTensor.

    ``subalgebra_basis`` is an orthonormal basis (m, d, d), in the
    Frobenius inner product <X, Y> = tr(X^* Y), of the smallest unital
    algebra A of d x d matrices with eta(A) in A (closed under adjoints of
    eta's values too).  The semicircular root lies in A (Helton, Rashidi
    Far and Speicher, IMRN 2007), so the solver takes its Newton
    corrections in these m coordinates when m < d^2 (and D below fits its
    cap on array entries).  A flat or scalar map
    has m = 1, a circulant one m = 2 and a Wishart Hermitization
    m = d^2/2; a generic map has m = d^2.  ``structure_constants`` is the
    (m, m^2) matrix D of those corrections, D[l, j*m + i] =
    <Q_j, eta(Q_l) Q_i> + <Q_j, eta(Q_i) Q_l>.  Both are built on first
    use and kept.
    """

    choi4: np.ndarray
    d: int = field(init=False)
    action: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shape = self.choi4.shape
        if len(shape) != 4 or len(set(shape)) != 1 or shape[0] < 1:
            raise ValueError(f"Choi tensor shape {shape} is not (d,d,d,d) with d >= 1")
        self.d = shape[0]
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

    def is_completely_positive(self) -> bool:
        """Choi's theorem under psd_factor's test of the Choi matrix."""
        try:
            psd_factor(self.choi_matrix(), "", "")
        except ValueError:
            return False
        return True

    def cp_norm(self) -> float:
        """||eta|| = ||eta(I)||_op, valid for completely positive maps."""
        return operator_norm(self.apply(np.eye(self.d)))

    @cached_property
    def subalgebra_basis(self) -> np.ndarray:
        """Orthonormal basis (m, d, d) of A, closing {I} under eta, adjoints
        and products.

        A is spanned by the products of its generators: the directions of
        eta's values (and their adjoints) that the basis did not hold yet.
        So each round checks eta on the directions found last round and
        multiplies them, and the new generators, by the generators only;
        each round's candidates are orthogonalized together.  A generic map
        skips the closure: ``_generate_everything`` shows A = M_d from eta(I)
        and eta(eta(I)) alone, and its basis is the matrix units.
        """
        d, n = self.d, self.d * self.d
        # eta(I) and eta(eta(I)) without a BLAS matrix-vector product, which
        # can wait milliseconds for OpenBLAS's second thread: vec(eta(I)) is
        # the sum of the action's columns at I's diagonal entries
        h1 = self.action[:, ::d + 1].sum(axis=1).reshape(d, d)
        h1 = (h1 + h1.conj().T) / 2
        if _generate_everything(h1, np.einsum("ij,j->i", self.action,
                                              h1.reshape(n)).reshape(d, d)):
            basis = np.eye(n, dtype=np.complex128).reshape(n, d, d)
            basis.setflags(write=False)
            return basis
        basis = np.eye(d, dtype=np.complex128).reshape(1, n) / np.sqrt(d)
        gens = basis[:0]
        unchecked = unmultiplied = basis
        while len(unchecked) and len(basis) < n:
            images = unchecked @ self.action.T
            adjoints = images.reshape(-1, d, d).conj().transpose(0, 2, 1)
            new_gens = _new_directions(
                np.concatenate([images, adjoints.reshape(-1, n)]), basis)
            done = basis[:len(basis) - len(unmultiplied)].reshape(-1, d, d)
            basis = np.concatenate([basis, new_gens])
            gens = np.concatenate([gens, new_gens])
            left, fresh = gens.reshape(-1, 1, d, d), new_gens.reshape(-1, 1, d, d)
            right = np.concatenate([unmultiplied, new_gens]).reshape(1, -1, d, d)
            products = np.concatenate([(left @ right).reshape(-1, n),
                                       (fresh @ done).reshape(-1, n)])
            unmultiplied = _new_directions(products, basis)
            basis = np.concatenate([basis, unmultiplied])
            unchecked = np.concatenate([new_gens, unmultiplied])
        basis = basis.reshape(-1, d, d)
        basis.setflags(write=False)
        return basis

    @cached_property
    def structure_constants(self) -> np.ndarray:
        """D (m, m^2), D[l, j*m + i] = <Q_j, eta(Q_l) Q_i> + <Q_j, eta(Q_i) Q_l>
        on ``subalgebra_basis`` Q: the Newton Jacobian at G = sum_l g_l Q_l
        is z I_m - (g @ D).reshape(m, m)."""
        basis = self.subalgebra_basis
        m, n = len(basis), self.d * self.d
        images = (basis.reshape(m, n) @ self.action.T).reshape(basis.shape)
        dual = basis.reshape(m, n).conj().T
        D = np.empty((m, m * m), dtype=np.complex128)
        # rows l in slices whose m d^2-entry products per row, together, hold
        # no more entries than D
        step = max(1, m * m // n)
        for lo in range(0, m, step):
            rows = slice(lo, lo + step)
            # p[l, i] = eta(Q_l) Q_i + eta(Q_i) Q_l
            p = images[rows, None] @ basis[None]
            p += images[None] @ basis[rows, None]
            D[rows] = (p.reshape(-1, n) @ dual).reshape(-1, m, m).transpose(
                0, 2, 1).reshape(-1, m * m)
        D.setflags(write=False)
        return D


@dataclass
class EtaPair:
    """The two covariance maps entering the Wishart fixed-point equation.

    The Hermitization is built on first use and kept, with the subalgebra
    basis it builds in turn, so ``eta1`` and ``eta2`` must not be replaced
    or modified afterwards."""

    eta1: CovarianceMap
    eta2: CovarianceMap

    def __post_init__(self):
        if self.eta1.d != self.eta2.d:
            raise ValueError("eta1 and eta2 must act on the same dimension")

    @property
    def d(self) -> int:
        return self.eta1.d

    def hermitization(self) -> CovarianceMap:
        """The 2d x 2d map B -> diag(eta1(B_22), eta2(B_11)) on M_2(M_d).

        It is the block-diagonal part of the covariance of the
        Hermitization [[0, H], [H^*, 0]]; its semicircular root at z is
        diag(z G_W(z^2), z G_V(z^2)), so the Wishart equation is this map's
        semicircular equation at z = sqrt(w).  Completely positive when
        eta1 and eta2 are.
        """
        return self._hermitized

    @cached_property
    def _hermitized(self) -> CovarianceMap:
        d = self.d
        choi = np.zeros((2, d) * 4, dtype=np.complex128)
        choi[1, :, 0, :, 1, :, 0, :] = self.eta1.choi4
        choi[0, :, 1, :, 0, :, 1, :] = self.eta2.choi4
        return CovarianceMap(choi.reshape((2 * d,) * 4))


def _generate_everything(h1: np.ndarray, h2: np.ndarray) -> bool:
    """True when every matrix that commutes with the Hermitian h1 and with
    h2 is a multiple of I, so that a unital algebra closed under adjoints
    that holds both is all of M_d (its commutant is trivial).

    A sufficient test, decided in h1's eigenbasis: h1's eigenvalues are
    apart by more than their rounding, so a matrix commuting with h1 is
    diagonal there, x = diag(x_i); it commutes with h2 when x_i = x_j
    wherever h2's entry (i, j) there is nonzero, beyond its rounding and
    the relative tolerance SUBALGEBRA_RTOL; so x is a multiple of I when
    those entries connect every index.  False means only "not shown".
    """
    d = len(h1)
    eps = np.finfo(np.float64).eps
    # a multiple of I (a flat or scalar map's eta(I)) repeats its eigenvalue:
    # nothing to show, and no eigensolve, which faults in LAPACK pages
    off = h1 - np.trace(h1) / d * np.eye(d)
    if not np.abs(off).max() > 1e3 * d * eps * np.abs(h1).max():
        return False
    values, vectors = np.linalg.eigh(h1)
    scale = max(abs(values[0]), abs(values[-1]))
    gap = np.diff(values).min(initial=np.inf)
    if not gap > 1e3 * d * eps * scale:
        return False
    b = abs(vectors.conj().T @ h2 @ vectors)
    # eigenvectors are off by about eps ||h1|| / gap each
    floor = b.max() * max(SUBALGEBRA_RTOL, 1e3 * d * eps * scale / gap)
    linked = (b > floor) | (b.T > floor)
    reached = np.zeros(d, dtype=bool)
    reached[0] = True
    while not reached.all():
        grown = reached | linked[reached].any(axis=0)
        if (grown == reached).all():
            return False
        reached = grown
    return True


def _new_directions(candidates: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the parts of the nonzero rows of
    ``candidates``, each scaled to unit norm, outside the orthonormal rows of
    ``basis``, to the relative rank tolerance SUBALGEBRA_RTOL."""
    norms = np.linalg.norm(candidates, axis=1)
    rest = candidates[norms > 0] / norms[norms > 0, None]
    for _ in range(2):          # twice is enough (Kahan's rule)
        rest = rest - (rest @ basis.conj().T) @ basis
    rest = rest[np.linalg.norm(rest, axis=1) > SUBALGEBRA_RTOL]
    if not len(rest):
        return basis[:0]
    # entries that every candidate leaves exactly 0 stay exactly 0 in the
    # new directions, so a block-diagonal algebra has exactly 0 blocks
    cols = rest.any(axis=0)
    s, vh = np.linalg.svd(rest[:, cols], full_matrices=False)[1:]
    new = np.zeros((np.count_nonzero(s > SUBALGEBRA_RTOL), len(cols)), dtype=rest.dtype)
    new[:, cols] = vh[s > SUBALGEBRA_RTOL]
    return new


def _conjugation_choi(ops: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Choi tensor of B -> sum_m w_m a_m B a_m^*."""
    return np.einsum("m,mki,mlj->ikjl", weights, ops, ops.conj())


def _as_op_stack(mats) -> np.ndarray:
    arr = [require_square(m) for m in mats]
    if not arr:
        raise ValueError("empty sample list")
    if any(m.shape != arr[0].shape for m in arr):
        raise ValueError("samples have mismatched dimensions")
    return np.stack(arr)


def scalar_map(d: int, t: float) -> CovarianceMap:
    """eta(B) = t * B, the scalar semicircular covariance."""
    if d < 1:
        raise ValueError(f"scalar covariance requires d >= 1, got {d}")
    if not 0 <= t < np.inf:
        raise ValueError(f"scalar covariance requires a finite t >= 0, got {t!r}")
    eye = np.eye(d, dtype=np.complex128)
    # choi4[i,k,j,l] = t * delta_ik * delta_jl
    return CovarianceMap(t * np.einsum("ik,jl->ikjl", eye, eye))


def flat_map(d: int, c: float = 1.0) -> CovarianceMap:
    """eta(B) = c * tr(B)/d * I; the limit map of flat-variance block models."""
    if d < 1:
        raise ValueError(f"flat covariance requires d >= 1, got {d}")
    if not 0 <= c < np.inf:
        raise ValueError(f"flat covariance requires a finite c >= 0, got {c!r}")
    eye = np.eye(d, dtype=np.complex128)
    return CovarianceMap((c / d) * np.einsum("ij,kl->ikjl", eye, eye))


def choi_map(choi) -> CovarianceMap:
    """Wrap an explicit Choi tensor (d,d,d,d) or matrix (d^2,d^2)."""
    arr = np.asarray(choi, dtype=np.complex128)
    if arr.ndim == 2:
        n = arr.shape[0]
        d = int(round(np.sqrt(n)))
        if d * d != n or arr.shape != (n, n):
            raise ValueError(f"Choi matrix shape {arr.shape} is not (d^2, d^2)")
        arr = arr.reshape(d, d, d, d)
    elif arr.ndim != 4:
        raise ValueError("Choi data must be a matrix or a rank-4 tensor")
    return CovarianceMap(arr)


def _centered(stack: np.ndarray) -> np.ndarray:
    return stack - stack.mean(axis=0)


def _sampled_map(ops: np.ndarray) -> CovarianceMap:
    """Empirical map B -> mean_m a_m B a_m^* over an op stack.

    A sum of conjugations is completely positive by construction, so its
    Choi tensor is used exactly as built.
    """
    m = ops.shape[0]
    return CovarianceMap(_conjugation_choi(ops, np.full(m, 1.0 / m)))


def eta_iid_blocks(samples) -> CovarianceMap:
    """Covariance map of the Hermitized i.i.d.-block model from ``samples``,
    a list of d x d draws: eta(B) = (E[Abar B Abar^*] + E[Abar^* B Abar]) / 2
    with Abar the centered block."""
    stack = _centered(_as_op_stack(samples))
    return _sampled_map(np.concatenate([stack, stack.conj().transpose(0, 2, 1)]))


def eta_wigner_blocks(samples) -> CovarianceMap:
    """Single-conjugation covariance eta(B) = E[Abar B Abar^*] of ``samples``;
    a Wigner fill's limit only when it equals E[Abar^* B Abar], and so the
    half-sum ``eta_iid_blocks``."""
    return _sampled_map(_centered(_as_op_stack(samples)))


def eta_kronecker(betas, sigma_l) -> CovarianceMap:
    """eta(B) = sum_kl sigma(k,l) b_k B b_l^* + conj(sigma(k,l)) b_k^* B b_l.

    This normalization is the one the Monte Carlo oracle reproduces for the
    Kronecker sampling model.  eta is linear in sigma_l, so another
    convention (say 1/L^2) is ``sigma_l`` scaled by it.
    """
    ops = _as_op_stack(betas)
    sigma_l_factor(sigma_l, ops.shape[0])
    sig = as_matrix(sigma_l)
    direct = np.einsum("mn,mki,nlj->ikjl", sig, ops, ops.conj())
    adjoint = np.einsum("mn,mik,njl->ikjl", sig.conj(), ops.conj(), ops)
    return CovarianceMap(direct + adjoint)


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
    return CovarianceMap(tensor.sigma.transpose(1, 0, 3, 2) / tensor.d)


def eta_exchangeable_pool(pool) -> CovarianceMap:
    """Half-sum empirical map of a finite exchangeable pool.

    Centers the pool at its mean mu and returns
    eta(b) = (1/2n) sum_i (xbar_i b xbar_i^* + xbar_i^* b xbar_i).
    Scalars are treated as 1 x 1 matrices.
    """
    vals = np.asarray(pool, dtype=np.complex128)
    if vals.size == 0:
        raise ValueError("empty pool")
    return eta_iid_blocks(samples=vals.reshape(-1, 1, 1) if vals.ndim == 1 else vals)


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
    eta1 = CovarianceMap(tensor.sigma.transpose(1, 0, 3, 2) / d)
    eta2 = CovarianceMap(tensor.sigma / d)
    return EtaPair(eta1=eta1, eta2=eta2)

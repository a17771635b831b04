"""Seeded, reproducible block random-matrix generators.

Every sampler is a pure function of (ModelSpec, trial_index): random
streams are counter-based (numpy Philox keyed by (seed, trial_index)),
entries are drawn in a fixed documented order, and Hermitian outputs are
Hermitian exactly (by construction, not within tolerance).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .eta import CovarianceTensor

MODELS = (
    "hermitized_iid",
    "wigner_blocks",
    "kronecker",
    "correlated_blocks",
    "circulant",
    "wishart_correlated",
)


# ---------------------------------------------------------------------------
# entry laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexGaussian:
    """Circular complex Gaussian, E x = 0, E x^2 = 0, E|x|^2 = variance."""

    variance: float = 1.0

    @property
    def mean(self) -> complex:
        return 0.0

    def draw(self, rng, n: int) -> np.ndarray:
        scale = np.sqrt(self.variance / 2.0)
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@dataclass(frozen=True)
class RealGaussian:
    variance: float = 1.0

    @property
    def mean(self) -> complex:
        return 0.0

    def draw(self, rng, n: int) -> np.ndarray:
        return np.sqrt(self.variance) * rng.standard_normal(n).astype(np.complex128)


@dataclass(frozen=True)
class Rademacher:
    variance: float = field(default=1.0, init=False)

    @property
    def mean(self) -> complex:
        return 0.0

    def draw(self, rng, n: int) -> np.ndarray:
        return (2.0 * rng.integers(0, 2, size=n) - 1.0).astype(np.complex128)


@dataclass(frozen=True)
class TwoPoint:
    """Takes value a with probability p, else b."""

    a: float
    b: float
    p: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("p must be a probability")

    @property
    def mean(self) -> complex:
        return self.p * self.a + (1 - self.p) * self.b

    @property
    def variance(self) -> float:
        m = self.mean.real
        return self.p * (self.a - m) ** 2 + (1 - self.p) * (self.b - m) ** 2

    def draw(self, rng, n: int) -> np.ndarray:
        u = rng.random(n)
        return np.where(u < self.p, self.a, self.b).astype(np.complex128)


@dataclass(frozen=True)
class PermutationPool:
    """A fixed pool consumed whole by a uniformly random permutation.

    Entries are exchangeable but not independent.  ``values`` holds either
    scalars (filling every scalar entry slot) or d x d matrices (filling
    block slots).
    """

    values: tuple

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(
            v if np.ndim(v) == 0 else np.asarray(v, dtype=np.complex128)
            for v in values
        ))
        if not self.values:
            raise ValueError("empty pool")

    @property
    def is_matrix_pool(self) -> bool:
        return np.ndim(self.values[0]) != 0

    @property
    def mean(self) -> complex:
        if self.is_matrix_pool:
            raise ValueError("matrix pools have no scalar mean")
        return complex(np.mean([complex(v) for v in self.values]))

    @property
    def variance(self) -> float:
        if self.is_matrix_pool:
            raise ValueError("matrix pools have no scalar variance")
        vals = np.array([complex(v) for v in self.values])
        return float(np.mean(np.abs(vals - vals.mean()) ** 2))

    def draw(self, rng, n: int) -> np.ndarray:
        if self.is_matrix_pool:
            raise ValueError("matrix pools fill block slots, not scalar slots")
        if n != len(self.values):
            raise ValueError(
                f"pool size {len(self.values)} != {n} entry draws the model consumes"
            )
        vals = np.array([complex(v) for v in self.values])
        return vals[rng.permutation(n)]

    def draw_blocks(self, rng, n: int, d: int) -> np.ndarray:
        if not self.is_matrix_pool:
            raise ValueError("scalar pool cannot fill block slots")
        if n != len(self.values):
            raise ValueError(
                f"pool size {len(self.values)} != {n} block draws the model consumes"
            )
        mats = [np.asarray(v) for v in self.values]
        if any(m.shape != (d, d) for m in mats):
            raise ValueError(f"pool blocks must be {d}x{d}")
        return np.stack(mats)[rng.permutation(n)]


EntryLaw = ComplexGaussian | RealGaussian | Rademacher | TwoPoint | PermutationPool


# ---------------------------------------------------------------------------
# model specification
# ---------------------------------------------------------------------------

@dataclass
class ModelSpec:
    """Full description of one block random-matrix model."""

    model: str
    d: int
    N: int
    law: EntryLaw | None = None
    seed: int = 0
    betas: tuple | None = None          # kronecker
    sigma_l: np.ndarray | None = None   # kronecker
    tensor: CovarianceTensor | None = None  # correlated_blocks / wishart

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.d < 1 or self.N < 1:
            raise ValueError("need d >= 1 and N >= 1")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")
        if self.model == "kronecker":
            if self.betas is None or self.sigma_l is None:
                raise ValueError("kronecker model needs betas and sigma_l")
            self.betas = tuple(linalg.require_square(b) for b in self.betas)
            if any(b.shape[0] != self.d for b in self.betas):
                raise ValueError("betas must be d x d")
            self.sigma_l = linalg.as_matrix(self.sigma_l)
        if self.model in ("correlated_blocks", "wishart_correlated"):
            if self.tensor is None:
                raise ValueError(f"{self.model} model needs a covariance tensor")
            if not isinstance(self.tensor, CovarianceTensor):
                self.tensor = CovarianceTensor(self.tensor)
            if self.tensor.d != self.d:
                raise ValueError("tensor dimension does not match d")
        if self.model == "circulant" and self.d < 2:
            raise ValueError("circulant model needs d >= 2")
        if self.model in ("hermitized_iid", "wigner_blocks") and self.law is None:
            raise ValueError(f"{self.model} model needs an entry law")

    def with_n(self, n: int) -> "ModelSpec":
        return replace(self, N=n)

    def with_seed(self, seed: int) -> "ModelSpec":
        return replace(self, seed=seed)


def rng_for(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one (seed, trial): independent and ordered.

    The key is uint64: numpy stores a list key holding 2^63 or more as
    float64, which merges neighbouring seeds.
    """
    if trial < 0:
        raise ValueError(f"trial index must be >= 0, got {trial}")
    return np.random.Generator(np.random.Philox(
        key=np.array([int(seed), int(trial)], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _gaussian_factor(mat: np.ndarray) -> np.ndarray:
    """Factor F with F F^dag = mat for Hermitian PSD mat (rank-deficient ok)."""
    w, u = np.linalg.eigh(mat)
    scale = 1.0 + float(np.max(np.abs(w), initial=0.0))
    if w.min() < -1e-10 * scale:
        raise ValueError("covariance matrix is not positive semidefinite")
    return u @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def _standard_complex(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _hermitian_fill(blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    N: int) -> np.ndarray:
    """(N d, N d) matrix with d x d block blocks[k] at slot (rows[k], cols[k]).

    The mirrored slot (cols[k], rows[k]) gets the adjoint and a diagonal
    slot the Hermitian part (b + b^*) / 2, so the result is exactly
    Hermitian.
    """
    d = blocks.shape[-1]
    adj = blocks.conj().transpose(0, 2, 1)
    out = np.zeros((N, d, N, d), dtype=np.complex128)
    off = rows != cols
    out[rows[off], :, cols[off], :] = blocks[off]
    out[cols[off], :, rows[off], :] = adj[off]
    diag = ~off
    out[rows[diag], :, rows[diag], :] = (blocks[diag] + adj[diag]) / 2.0
    return out.reshape(N * d, N * d)


def _iid_block_grid(spec: ModelSpec, rng) -> np.ndarray:
    """(N, N, d, d) grid of raw blocks drawn in row-major slot order."""
    N, d = spec.N, spec.d
    law = spec.law
    if isinstance(law, PermutationPool) and law.is_matrix_pool:
        return law.draw_blocks(rng, N * N, d).reshape(N, N, d, d)
    return law.draw(rng, N * N * d * d).reshape(N, N, d, d)


def sample_hermitized(spec: ModelSpec, trial: int = 0) -> np.ndarray:
    """A(x): block (i, j) equals (x_ij + x_ji^*) / sqrt(2N); exactly Hermitian."""
    if spec.model != "hermitized_iid":
        raise ValueError("spec.model must be 'hermitized_iid'")
    rng = rng_for(spec.seed, trial)
    x = _iid_block_grid(spec, rng)
    m = x.transpose(0, 2, 1, 3).reshape(spec.N * spec.d, spec.N * spec.d)
    return (m + m.conj().T) / np.sqrt(2 * spec.N)


def sample_wigner_blocks(spec: ModelSpec, trial: int = 0) -> np.ndarray:
    """W(x): x_ij below the diagonal, x_ji^* above, symmetrized diagonal, 1/sqrt(N)."""
    if spec.model != "wigner_blocks":
        raise ValueError("spec.model must be 'wigner_blocks'")
    N, d = spec.N, spec.d
    rng = rng_for(spec.seed, trial)
    n_blocks = N * (N + 1) // 2
    law = spec.law
    if isinstance(law, PermutationPool) and law.is_matrix_pool:
        blocks = law.draw_blocks(rng, n_blocks, d)
    else:
        blocks = law.draw(rng, n_blocks * d * d).reshape(n_blocks, d, d)
    rows, cols = np.tril_indices(N)
    return _hermitian_fill(blocks, rows, cols, N) / np.sqrt(N)


def sample_kronecker(spec: ModelSpec, trial: int = 0) -> np.ndarray:
    """X = sum_k beta_k (x) Y_k + beta_k^* (x) Y_k^* with jointly Gaussian Y_k.

    Entry vectors (y^(1)..y^(L)) are i.i.d. across positions with
    Cov(y^(k), conj y^(l)) = sigma_l[k, l] and zero pseudo-covariance,
    realized as a deterministic factor applied to standard complex draws.
    """
    if spec.model != "kronecker":
        raise ValueError("spec.model must be 'kronecker'")
    N = spec.N
    L = len(spec.betas)
    factor = _gaussian_factor(spec.sigma_l)
    rng = rng_for(spec.seed, trial)
    y = _standard_complex(rng, (N, N, L)) @ factor.T
    out = np.zeros((spec.d * N, spec.d * N), dtype=np.complex128)
    for k in range(L):
        yk = y[:, :, k] / np.sqrt(N)
        out += np.kron(spec.betas[k], yk)
        out += np.kron(spec.betas[k].conj().T, yk.conj().T)
    return out


def sample_correlated_blocks(spec: ModelSpec, trial: int = 0) -> np.ndarray:
    """Hermitian block matrix with same-position entries correlated across blocks.

    For each position (r, p), r <= p, the d^2 entries a^(ij)_{rp} form a
    circular complex Gaussian vector with Cov(a^(ij), conj a^(kl)) =
    sigma(i,j;k,l); position (p, r) carries the adjoint block and diagonal
    positions are symmetrized.  Scalings 1/sqrt(d) and 1/sqrt(N) as in the
    block model.  Requires the adjoint-symmetric tensor (blocks distributed
    like their adjoints), otherwise no single d x d limit law exists.
    """
    if spec.model != "correlated_blocks":
        raise ValueError("spec.model must be 'correlated_blocks'")
    tensor = spec.tensor
    if not tensor.has_adjoint_symmetry:
        raise ValueError(
            "correlated-blocks tensor needs sigma(i,j;k,l) = sigma(l,k;j,i)"
        )
    N, d = spec.N, spec.d
    factor = _gaussian_factor(tensor.matrix())
    rng = rng_for(spec.seed, trial)
    rows, cols = np.triu_indices(N)
    v = _standard_complex(rng, (rows.size, d * d)) @ factor.T
    blocks = v.reshape(rows.size, d, d)
    return _hermitian_fill(blocks, rows, cols, N) / np.sqrt(d * N)


def _circulant_wigners(spec: ModelSpec, trial: int) -> list[np.ndarray]:
    """The d//2 + 1 independent N x N Wigner blocks W_0, W_1, ..., in draw order."""
    N = spec.N
    law = spec.law or ComplexGaussian(1.0)
    rng = rng_for(spec.seed, trial)
    rows, cols = np.tril_indices(N)
    return [_hermitian_fill(law.draw(rng, rows.size).reshape(-1, 1, 1),
                            rows, cols, N) / np.sqrt(N)
            for _ in range(spec.d // 2 + 1)]


def sample_circulant(spec: ModelSpec, trial: int = 0) -> np.ndarray:
    """Self-adjoint block circulant over floor(d/2)+1 independent Wigner blocks.

    Block (r, c) holds A^(((c - r) mod d) + 1) with the reflection
    A^(i) = A^(d - i + 2); entries are complex with E a^2 = 0, E|a|^2 = 1
    unless the spec carries an explicit real law.
    """
    if spec.model != "circulant":
        raise ValueError("spec.model must be 'circulant'")
    N, d = spec.N, spec.d
    wigners = _circulant_wigners(spec, trial)
    out = np.zeros((d, N, d, N), dtype=np.complex128)
    for r in range(d):
        for c in range(d):
            k = (c - r) % d
            # reflection A^(k) = A^(d-k): W_0 .. W_{d//2} fill every block
            out[r, :, c, :] = wigners[min(k, d - k)]
    return out.reshape(d * N, d * N) / np.sqrt(d)


def _circulant_eigenvalues(spec: ModelSpec, trial: int) -> np.ndarray:
    """Sorted eigenvalues of sample_circulant(spec, trial) without forming it.

    The block DFT turns the circulant into diag(B_0, ..., B_{d-1}) with
    B_j = (W_0 + sum_{k>=1} c_k cos(2 pi j k / d) W_k) / sqrt(d), where
    c_k = 2 except c_{d/2} = 1 for even d.  B_j = B_{d-j}, so only
    j <= d/2 is formed and 0 < j < d/2 counts twice.  Each B_j is a real
    combination of exactly Hermitian blocks, hence exactly Hermitian.
    """
    d = spec.d
    wigners = _circulant_wigners(spec, trial)
    parts = []
    for j in range(d // 2 + 1):
        b = wigners[0].copy()
        for k in range(1, d // 2 + 1):
            c = 1.0 if 2 * k == d else 2.0
            b += c * np.cos(2 * np.pi * j * k / d) * wigners[k]
        ev = linalg.hermitian_eigenvalues(b / np.sqrt(d))
        parts.extend([ev, ev] if 0 < 2 * j < d else [ev])
    return np.sort(np.concatenate(parts))


def sample_wishart_factor(spec: ModelSpec, trial: int = 0) -> np.ndarray:
    """The dN x dN matrix H with correlated i.i.d.-position entries.

    Entries at a fixed position across the d x d block grid form a
    circular complex Gaussian vector with Cov(h^(ij), conj h^(kl)) =
    sigma(i,j;k,l); positions are independent.  Scalings 1/sqrt(d)
    (outer) and 1/sqrt(N) (entries) are included.
    """
    if spec.model != "wishart_correlated":
        raise ValueError("spec.model must be 'wishart_correlated'")
    tensor = spec.tensor
    if not tensor.is_real:
        raise ValueError("wishart tensor must be real-valued")
    N, d = spec.N, spec.d
    factor = _gaussian_factor(tensor.matrix())
    rng = rng_for(spec.seed, trial)
    v = _standard_complex(rng, (N * N, d * d)) @ factor.T
    grid = v.reshape(N, N, d, d)
    return grid.transpose(0, 2, 1, 3).reshape(N * d, N * d) / np.sqrt(d * N)


def sample_wishart(spec: ModelSpec, trial: int = 0) -> np.ndarray:
    """H H^* for the correlated Wishart model; exactly Hermitian, PSD."""
    h = sample_wishart_factor(spec, trial)
    w = h @ h.conj().T
    return (w + w.conj().T) / 2.0


_SAMPLERS = {
    "hermitized_iid": sample_hermitized,
    "wigner_blocks": sample_wigner_blocks,
    "kronecker": sample_kronecker,
    "correlated_blocks": sample_correlated_blocks,
    "circulant": sample_circulant,
    "wishart_correlated": sample_wishart,
}


def sample_matrix(spec: ModelSpec, trial: int = 0) -> np.ndarray:
    return _SAMPLERS[spec.model](spec, trial)


def spectrum(spec: ModelSpec, trial: int = 0) -> np.ndarray:
    """Sorted eigenvalues of one sampled matrix.

    Circulant spectra come from the block DFT (d//2 + 1 eigensolves of
    size N); every other model is solved densely.
    """
    if spec.model == "circulant":
        return _circulant_eigenvalues(spec, trial)
    return linalg.hermitian_eigenvalues(sample_matrix(spec, trial))


# ---------------------------------------------------------------------------
# binary matrix dump: 8-byte header (u32 LE rows, u32 LE cols) then
# row-major float64 LE pairs (re, im)
# ---------------------------------------------------------------------------

def matrix_to_bytes(m) -> bytes:
    a = linalg.as_matrix(m)
    header = struct.pack("<II", a.shape[0], a.shape[1])
    interleaved = np.empty((a.shape[0], a.shape[1], 2), dtype="<f8")
    interleaved[:, :, 0] = a.real
    interleaved[:, :, 1] = a.imag
    return header + interleaved.tobytes()


def matrix_from_bytes(blob: bytes) -> np.ndarray:
    if len(blob) < 8:
        raise ValueError("matrix blob shorter than its 8-byte header")
    rows, cols = struct.unpack("<II", blob[:8])
    expected = 8 + rows * cols * 16
    if len(blob) != expected:
        raise ValueError(f"matrix blob has {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", offset=8).reshape(rows, cols, 2)
    return (flat[:, :, 0] + 1j * flat[:, :, 1]).astype(np.complex128)

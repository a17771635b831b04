"""Seeded, reproducible block random-matrix generators.

Every sampler is a pure function of (ModelSpec, trial_index): random
streams are counter-based (numpy Philox keyed by (seed, trial_index)),
entries are drawn in a fixed documented order, and Hermitian outputs are
Hermitian exactly (by construction, not within tolerance).
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .eta import (CovarianceMap, CovarianceTensor, EtaPair,
                  eta_correlated_tensor, eta_exchangeable_pool, eta_kronecker,
                  eta_wigner_blocks, eta_wishart_pair, flat_map, sigma_l_factor)

# ---------------------------------------------------------------------------
# entry laws
# ---------------------------------------------------------------------------

# floats a Gaussian fill buffers at a time (64 KiB), or one row if larger
DRAW_CHUNK = 8192
# side of the tiles in which _add_adjoint symmetrises a sample in place; its
# three scratch tiles take 48 KiB
HERMITIZE_TILE = 32


def _fill_normals(rng, out: np.ndarray, scale: float) -> None:
    """scale times standard normals into the complex array ``out``: its real
    parts, then its imaginary parts, each in out's C order, which is the
    order of the stream.  ``out`` may be a strided view.

    The normals pass through a buffer of whole rows of out's first axis,
    as many as fit in DRAW_CHUNK floats (at least one), are scaled there
    and copied into ``out``, so no full-size temporary is made.  (A ufunc
    writing into a strided view of more than one dimension would buffer
    it in numpy's own 8192-element arrays; a copy does not.)
    """
    if out.size == 0:
        return
    rows = len(out)
    step = max(1, DRAW_CHUNK * rows // out.size)
    buf = np.empty((min(step, rows),) + out.shape[1:])
    for part in (out.real, out.imag):
        for i in range(0, rows, step):
            chunk = buf[:min(step, rows - i)]
            rng.standard_normal(out=chunk)
            chunk *= scale
            np.copyto(part[i:i + len(chunk)], chunk)


@dataclass(frozen=True)
class _Gaussian:
    """Centered Gaussian law with E|x|^2 = variance, finite and >= 0."""

    variance: float = 1.0

    def __post_init__(self):
        if not 0 <= self.variance < np.inf:
            raise ValueError(f"variance must be finite and >= 0, got {self.variance!r}")

    @property
    def mean(self) -> complex:
        return 0.0


@dataclass(frozen=True)
class ComplexGaussian(_Gaussian):
    """Circular complex Gaussian, E x = 0, E x^2 = 0, E|x|^2 = variance."""

    def fill(self, rng, out: np.ndarray) -> None:
        """Draw into the complex array ``out``: its real parts, then its
        imaginary parts, each in out's C order (see ``_fill_normals``).

        The bits of scaling the whole complex draw, except that a complex
        product by 0 signs each zero from both parts, so at variance 0
        ``out`` takes it too.
        """
        scale = np.sqrt(self.variance / 2.0)
        _fill_normals(rng, out, scale)
        if scale == 0.0:
            out *= scale

    def draw(self, rng, n: int) -> np.ndarray:
        """n real parts, then n imaginary parts, in stream order."""
        out = np.empty(n, dtype=np.complex128)
        self.fill(rng, out)
        return out


@dataclass(frozen=True)
class RealGaussian(_Gaussian):
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
        try:
            finite = np.isfinite([self.a, self.b, self.variance]).all()
        except OverflowError:       # the float square of |a - m| >~ 1e154
            finite = False
        if not finite:
            raise ValueError(f"a, b and the variance must be finite, got "
                             f"a={self.a!r}, b={self.b!r}")

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


@dataclass(frozen=True, eq=False)
class PermutationPool:
    """A fixed pool consumed whole by a uniformly random permutation.

    Entries are exchangeable but not independent.  ``values`` is one
    read-only complex128 array: shape (n,) for a pool of scalars (filling
    every scalar entry slot) or (n, d, d) for a pool of d x d matrices
    (filling block slots).
    """

    values: np.ndarray

    def __init__(self, values):
        vals = np.array(values, dtype=np.complex128)
        if vals.size == 0:
            raise ValueError("empty pool")
        if not np.isfinite(vals).all():
            raise ValueError("pool values must be finite")
        square_blocks = vals.ndim == 3 and vals.shape[1] == vals.shape[2]
        if vals.ndim != 1 and not square_blocks:
            raise ValueError(
                f"pool must hold scalars or square matrices, got shape {vals.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        return (isinstance(other, PermutationPool)
                and np.array_equal(self.values, other.values))

    @property
    def is_matrix_pool(self) -> bool:
        return self.values.ndim == 3

    @property
    def mean(self) -> complex:
        if self.is_matrix_pool:
            raise ValueError("matrix pools have no scalar mean")
        return complex(np.mean(self.values))

    @property
    def variance(self) -> float:
        if self.is_matrix_pool:
            raise ValueError("matrix pools have no scalar variance")
        vals = self.values
        return float(np.mean(np.abs(vals - vals.mean()) ** 2))

    def _permuted(self, rng, n: int, slots: str) -> np.ndarray:
        if n != len(self.values):
            raise ValueError(
                f"pool size {len(self.values)} != {n} {slots} draws the model consumes"
            )
        return self.values[rng.permutation(n)]

    def draw(self, rng, n: int) -> np.ndarray:
        if self.is_matrix_pool:
            raise ValueError("matrix pools fill block slots, not scalar slots")
        return self._permuted(rng, n, "entry")

    def require_blocks(self, d: int) -> None:
        """Refuse a pool that cannot fill d x d block slots."""
        if not self.is_matrix_pool:
            raise ValueError("scalar pool cannot fill block slots")
        if self.values.shape[1:] != (d, d):
            raise ValueError(f"pool blocks must be {d}x{d}")

    def draw_blocks(self, rng, n: int, d: int) -> np.ndarray:
        self.require_blocks(d)
        return self._permuted(rng, n, "block")


EntryLaw = ComplexGaussian | RealGaussian | Rademacher | TwoPoint | PermutationPool


# ---------------------------------------------------------------------------
# model specification
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ModelSpec:
    """Full description of one block random-matrix model.

    A model's row of ``_MODELS`` holds its draw, its limit map and the data
    fields it takes.  Every input a draw relies on is checked here, once,
    except a permutation pool's size: it depends on the model's fill, so
    the draw checks it.  A matrix pool's blocks must be d x d, a
    ``wigner_blocks`` one must have a single limit (``_require_adjoint_pool``),
    and ``circulant``, whose slots are scalars, takes none.
    The Gaussian factor of sigma_l, ``sigma_factor``, is made here too; a
    tensor's is ``tensor.factor``, made by CovarianceTensor.  Equality is
    identity, since the fields hold arrays.
    """

    model: str
    d: int
    N: int
    law: EntryLaw | None = None
    seed: int = 0
    betas: tuple | None = None
    sigma_l: np.ndarray | None = None
    tensor: CovarianceTensor | None = None
    sigma_factor: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        for name in ("d", "N"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.d < 1 or self.N < 1:
            raise ValueError("need d >= 1 and N >= 1")
        _check_u64("seed", self.seed)
        _, _, required, optional = _MODELS[self.model]
        for key in ("law", "betas", "sigma_l", "tensor"):
            if getattr(self, key) is None:
                if key in required:
                    raise ValueError(f"{self.model} model needs {key}")
            elif key not in required + optional:
                raise ValueError(f"{self.model} model takes no {key}")
        if self.model == "kronecker":
            self.betas = tuple(linalg.require_square(b) for b in self.betas)
            if any(b.shape[0] != self.d for b in self.betas):
                raise ValueError("betas must be d x d")
            self.sigma_l = linalg.as_matrix(self.sigma_l)
            self.sigma_factor = sigma_l_factor(self.sigma_l, len(self.betas))
        if self.tensor is not None:
            if not isinstance(self.tensor, CovarianceTensor):
                self.tensor = CovarianceTensor(self.tensor)
            if self.tensor.d != self.d:
                raise ValueError("tensor dimension does not match d")
            if self.model == "correlated_blocks" and not self.tensor.has_adjoint_symmetry:
                raise ValueError(
                    "correlated-blocks tensor needs sigma(i,j;k,l) = sigma(l,k;j,i)")
            if self.model == "wishart_correlated" and not self.tensor.is_real:
                raise ValueError("wishart tensor must be real-valued")
        if self.model == "circulant" and self.d < 2:
            raise ValueError("circulant model needs d >= 2")
        if isinstance(self.law, PermutationPool) and self.law.is_matrix_pool:
            if self.model == "circulant":
                raise ValueError("circulant model fills scalar slots; "
                                 "a matrix pool cannot fill them")
            self.law.require_blocks(self.d)
            if self.model == "wigner_blocks":
                _require_adjoint_pool(self.law.values)


def _check_u64(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer, not a bool, in [0, 2^64)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not 0 <= value < 2 ** 64):
        raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")


def rng_for(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one (seed, trial): independent and ordered.

    The key is uint64: numpy stores a list key holding 2^63 or more as
    float64, which merges neighbouring seeds.
    """
    _check_u64("seed", seed)
    _check_u64("trial index", trial)
    return np.random.Generator(np.random.Philox(
        key=np.array([int(seed), int(trial)], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _standard_complex(rng, shape) -> np.ndarray:
    """Standard circular complex normals of the given shape: the bits of
    (a + 1j b) / sqrt(2) for real draws a, then b, made in one buffer.
    That complex division by the real sqrt(2) multiplies each part by
    1 / sqrt(2)."""
    out = np.empty(shape, dtype=np.complex128)
    _fill_normals(rng, out, 1 / np.sqrt(2))
    return out


def _hermitian_fill(blocks: np.ndarray, N: int) -> np.ndarray:
    """(N d, N d) matrix whose slots on and below the diagonal take the
    d x d blocks in row-major order, the order of np.tril_indices(N).

    The mirrored slot (c, r) gets the adjoint and a diagonal slot the
    Hermitian part (b + b^*) / 2, so the result is exactly Hermitian.
    """
    d = blocks.shape[-1]
    mask = np.tri(N, dtype=bool)
    out = np.zeros((N, d, N, d), dtype=np.complex128)
    slots = out.transpose(0, 2, 1, 3)          # slots[r, c] is block (r, c)
    adj = blocks.conj().transpose(0, 2, 1)
    if d == 1:
        # the same masks on the (N, N) entries: at N = 200 the fill takes
        # 0.10 ms, against 0.39 ms on the (N, N, 1, 1) view (2-vCPU VM)
        slots, blocks, adj = slots[:, :, 0, 0], blocks[:, 0, 0], adj[:, 0, 0]
    slots.swapaxes(0, 1)[mask] = adj           # the mirror, diagonal included
    slots[mask] = blocks
    r = np.arange(N)
    on_diag = r * (r + 3) // 2                 # slot (r, r) in tril order
    slots[r, r] = (blocks[on_diag] + adj[on_diag]) / 2.0
    return out.reshape(N * d, N * d)


def _raw_blocks(law: EntryLaw, rng, n: int, d: int) -> np.ndarray:
    """(n, d, d) raw blocks in slot order: a matrix pool fills whole
    blocks, any other law fills them entry by entry."""
    if isinstance(law, PermutationPool) and law.is_matrix_pool:
        return law.draw_blocks(rng, n, d)
    return law.draw(rng, n * d * d).reshape(n, d, d)


def _add_adjoint(h: np.ndarray, scale: float) -> None:
    """h <- (conj(h^T) + h) / scale in place, HERMITIZE_TILE-square tile by
    tile, with the bits of that formula.

    Each pair of mirrored tiles is copied out before either is written:
    entry (i, j) becomes (conj(h_ji) + h_ij) / scale and (j, i) becomes
    (conj(h_ij) + h_ji) / scale.  All arithmetic runs on three contiguous
    scratch tiles, since numpy buffers a ufunc over a strided 2-D view in
    arrays of 8192 elements each, larger than the tiles.
    """
    n = h.shape[0]
    k = min(n, HERMITIZE_TILE)
    scratch = np.empty((3, k * k), dtype=np.complex128)
    for i in range(0, n, k):
        for j in range(i, n, k):
            a, b = h[i:i + k, j:j + k], h[j:j + k, i:i + k]
            old_a, old_bt, out = (buf[:a.size].reshape(a.shape) for buf in scratch)
            np.copyto(old_a, a)
            np.copyto(old_bt, b.T)
            np.conjugate(old_bt, out=out)
            out += old_a
            out /= scale
            np.copyto(a, out)
            if i != j:
                np.conjugate(old_a, out=out)
                out += old_bt
                out /= scale
                np.copyto(b.T, out)


def _sample_hermitized(spec: ModelSpec, trial: int) -> np.ndarray:
    """A(x): block (i, j) equals (x_ij + x_ji^*) / sqrt(2N); exactly Hermitian.

    The draw goes straight into the block layout m, which has x[r, c, a, b]
    at row r d + a, column c d + b: a complex Gaussian law fills it whole
    rows of x at a time, any other law through its flat draw.  m is then
    symmetrised in place, so the sample stage holds one n x n buffer.
    """
    N, d, law = spec.N, spec.d, spec.law
    rng = rng_for(spec.seed, trial)
    # another law draws first, so a size too large fails in its draw
    x = None if isinstance(law, ComplexGaussian) else _raw_blocks(law, rng, N * N, d)
    m = np.empty((N, d, N, d), dtype=np.complex128)
    slots = m.transpose(0, 2, 1, 3)            # slots[r, c] is block (r, c)
    if x is None:
        law.fill(rng, slots)
    else:
        slots[...] = x.reshape(N, N, d, d)
        del x
    h = m.reshape(N * d, N * d)
    _add_adjoint(h, np.sqrt(2 * N))
    return h


def _sample_wigner_blocks(spec: ModelSpec, trial: int) -> np.ndarray:
    """W(x): x_ij below the diagonal, x_ji^* above, symmetrized diagonal, 1/sqrt(N)."""
    N, d = spec.N, spec.d
    rng = rng_for(spec.seed, trial)
    blocks = _raw_blocks(spec.law, rng, N * (N + 1) // 2, d)
    return _hermitian_fill(blocks, N) / np.sqrt(N)


def _sample_kronecker(spec: ModelSpec, trial: int) -> np.ndarray:
    """X = M + M^* with M = sum_k beta_k (x) Y_k and jointly Gaussian Y_k.

    Entry vectors (y^(1)..y^(L)) are i.i.d. across positions with
    Cov(y^(k), conj y^(l)) = sigma_l[k, l] and zero pseudo-covariance,
    realized as a deterministic factor applied to standard complex draws.
    Adding the adjoint once, after the sum, makes X exactly Hermitian.
    """
    N = spec.N
    rng = rng_for(spec.seed, trial)
    y = _standard_complex(rng, (N, N, len(spec.betas))) @ spec.sigma_factor.T
    m = np.zeros((spec.d * N, spec.d * N), dtype=np.complex128)
    for k, beta in enumerate(spec.betas):
        m += np.kron(beta, y[:, :, k] / np.sqrt(N))
    m += m.conj().T
    return m


def _mirror_to_tril(blocks: np.ndarray, N: int) -> np.ndarray:
    """Adjoints of blocks drawn in np.triu_indices(N) order, in the tril
    order of their mirror slots: _hermitian_fill then puts each block back
    on its own slot, byte for byte."""
    order = np.empty((N, N), dtype=np.intp)
    order[np.triu_indices(N)] = np.arange(len(blocks))
    return blocks.conj().transpose(0, 2, 1)[order.T[np.tril_indices(N)]]


def _sample_correlated_blocks(spec: ModelSpec, trial: int) -> np.ndarray:
    """Hermitian block matrix with same-position entries correlated across blocks.

    For each position (r, p), r <= p, the d^2 entries a^(ij)_{rp} form a
    circular complex Gaussian vector with Cov(a^(ij), conj a^(kl)) =
    sigma(i,j;k,l); position (p, r) carries the adjoint block and diagonal
    positions are symmetrized.  Scalings 1/sqrt(d) and 1/sqrt(N) as in the
    block model.  Requires the adjoint-symmetric tensor (blocks distributed
    like their adjoints), otherwise no single d x d limit law exists.
    """
    N, d = spec.N, spec.d
    rng = rng_for(spec.seed, trial)
    n = N * (N + 1) // 2
    v = (_standard_complex(rng, (n, d * d)) @ spec.tensor.factor.T).reshape(n, d, d)
    return _hermitian_fill(_mirror_to_tril(v, N), N) / np.sqrt(d * N)


def _circulant_draws(spec: ModelSpec, trial: int) -> list[np.ndarray]:
    """The lower triangles (np.tril_indices order) of the d//2 + 1
    independent N x N Wigner blocks W_0, W_1, ..., in draw order, unscaled."""
    law = spec.law or ComplexGaussian(1.0)
    rng = rng_for(spec.seed, trial)
    return [law.draw(rng, spec.N * (spec.N + 1) // 2) for _ in range(spec.d // 2 + 1)]


def _circulant_wigners(spec: ModelSpec, trial: int) -> list[np.ndarray]:
    """The d//2 + 1 independent N x N Wigner blocks W_0, W_1, ..., in draw order."""
    N = spec.N
    return [_hermitian_fill(x.reshape(-1, 1, 1), N) / np.sqrt(N)
            for x in _circulant_draws(spec, trial)]


def _circulant_slots(d: int) -> np.ndarray:
    """slot[r, c] = min(m, d - m), m = (c - r) mod d: block (r, c) holds W_slot."""
    m = (np.arange(d) - np.arange(d)[:, None]) % d
    return np.minimum(m, d - m)


def _sample_circulant(spec: ModelSpec, trial: int) -> np.ndarray:
    """Self-adjoint block circulant over floor(d/2)+1 independent Wigner blocks.

    Block (r, c) holds A^(((c - r) mod d) + 1) with the reflection
    A^(i) = A^(d - i + 2); entries are complex with E a^2 = 0, E|a|^2 = 1
    unless the spec carries an explicit law.
    """
    N, d = spec.N, spec.d
    wigners = np.stack(_circulant_wigners(spec, trial)) / np.sqrt(d)
    out = wigners[_circulant_slots(d)].transpose(0, 2, 1, 3)
    return out.reshape(d * N, d * N)


def _circulant_blocks(spec: ModelSpec, trial: int):
    """Yield (B_j, multiplicity) for the distinct DFT blocks of
    _sample_circulant(spec, trial), without forming the circulant.

    The block DFT turns the circulant into diag(B_0, ..., B_{d-1}) with
    B_j = (W_0 + sum_{k>=1} c_k cos(2 pi j k / d) W_k) / sqrt(d), where
    c_k = 2 except c_{d/2} = 1 for even d.  B_j = B_{d-j}, so only
    j <= d/2 is formed and 0 < j < d/2 counts twice.

    The combination runs on the lower-triangle draws, in the same order and
    with the same float operations as on the filled W_k, and fills each B_j
    once: its lower triangle, the one eigvalsh reads, has the bytes of the
    combined W_k.  The fill makes B_j exactly Hermitian.
    """
    N, d = spec.N, spec.d
    draws = [x / np.sqrt(N) for x in _circulant_draws(spec, trial)]
    for j in range(d // 2 + 1):
        b = draws[0].copy()
        for k in range(1, d // 2 + 1):
            c = 1.0 if 2 * k == d else 2.0
            b += c * np.cos(2 * np.pi * j * k / d) * draws[k]
        b /= np.sqrt(d)
        b = _hermitian_fill(b.reshape(-1, 1, 1), N)    # frees the triangle
        yield b, 2 if 0 < 2 * j < d else 1


def sample_wishart_factor(spec: ModelSpec, trial: int = 0) -> np.ndarray:
    """The dN x dN matrix H with correlated i.i.d.-position entries.

    Entries at a fixed position across the d x d block grid form a
    circular complex Gaussian vector with Cov(h^(ij), conj h^(kl)) =
    sigma(i,j;k,l); positions are independent.  Scalings 1/sqrt(d)
    (outer) and 1/sqrt(N) (entries) are included.
    """
    if spec.model != "wishart_correlated":
        raise ValueError("spec.model must be 'wishart_correlated'")
    N, d = spec.N, spec.d
    h = np.empty((N, d, N, d), dtype=np.complex128)
    # slots[r, c] is the grid of the d^2 entries at position (r, c); they
    # are drawn in the stream's (r, c, i, j) order straight into the layout
    slots = h.transpose(0, 2, 1, 3)
    _fill_normals(rng_for(spec.seed, trial), slots, 1 / np.sqrt(2))
    # the factor product and the scaling, a few grid rows at a time, in
    # place: each position's entries are one row of the product
    factor, scale = spec.tensor.factor.T, np.sqrt(d * N)
    step = max(1, DRAW_CHUNK // (N * d * d))
    for r in range(0, N, step):
        rows = slots[r:r + step]
        v = rows.reshape(-1, d * d) @ factor
        v /= scale
        rows[...] = v.reshape(rows.shape)
    return h.reshape(N * d, N * d)


def _sample_wishart(spec: ModelSpec, trial: int) -> np.ndarray:
    """H H^* for the correlated Wishart model; exactly Hermitian, PSD."""
    h = sample_wishart_factor(spec, trial)
    w = h @ h.conj().T
    return (w + w.conj().T) / 2.0


def _entry_limit(spec: ModelSpec) -> CovarianceMap:
    """Limit map of a model filled entry by entry, or block by block by a pool."""
    law = spec.law
    if isinstance(law, PermutationPool) and law.is_matrix_pool:
        return eta_exchangeable_pool(law.values)
    # i.i.d. (or exchangeable) scalar entries of variance v give
    # eta(B) = v * tr(B) * I regardless of the fill pattern
    return flat_map(spec.d, spec.law.variance * spec.d)


def _require_adjoint_pool(values) -> None:
    """Refuse a ``wigner_blocks`` matrix pool without a single d x d limit.

    That fill puts x below the diagonal and x^* above, in proportions that
    change along the rows, so it has one limit only when
    E[x B x^*] = E[x^* B x]; both then equal the half-sum map
    ``eta_exchangeable_pool`` of the pool, which ``model_eta`` returns.
    """
    half_sum = eta_exchangeable_pool(values).choi_matrix()
    one_sided = eta_wigner_blocks(values).choi_matrix()
    if not linalg.within_tolerance(np.max(np.abs(one_sided - half_sum)), half_sum):
        raise ValueError("wigner_blocks matrix pool needs E[x B x^*] = E[x^* B x]"
                         " (blocks distributed like their adjoints)")


def _circulant_limit(spec: ModelSpec) -> CovarianceMap:
    """eta(B)[k, l] = (v/d) sum_ij [slot(k, i) == slot(l, j)] B[i, j]: blocks
    (k, i) and (j, l) pair exactly when the same Wigner block fills them."""
    v = (spec.law or ComplexGaussian(1.0)).variance     # the draw's default
    slot = _circulant_slots(spec.d).T                # slot[i, k] = slot(k, i)
    return CovarianceMap((slot[:, :, None, None] == slot) * complex(v / spec.d))


# name: (draw, limit map, required and optional ModelSpec data fields)
_MODELS = {
    "hermitized_iid": (_sample_hermitized, _entry_limit, ("law",), ()),
    "wigner_blocks": (_sample_wigner_blocks, _entry_limit, ("law",), ()),
    "kronecker": (_sample_kronecker, lambda s: eta_kronecker(s.betas, s.sigma_l),
                  ("betas", "sigma_l"), ()),
    "correlated_blocks": (_sample_correlated_blocks,
                          lambda s: eta_correlated_tensor(s.tensor), ("tensor",), ()),
    "circulant": (_sample_circulant, _circulant_limit, (), ("law",)),
    "wishart_correlated": (_sample_wishart, lambda s: eta_wishart_pair(s.tensor),
                           ("tensor",), ()),
}
MODELS = tuple(_MODELS)


def sample_matrix(spec: ModelSpec, trial: int = 0) -> np.ndarray:
    """One draw of the model's dN x dN matrix, exactly Hermitian."""
    return _MODELS[spec.model][0](spec, trial)


def model_eta(spec: ModelSpec) -> CovarianceMap | EtaPair:
    """The model's limit: its covariance map, or a Wishart model's EtaPair."""
    return _MODELS[spec.model][1](spec)


def hermitian_blocks(spec: ModelSpec, trial: int = 0):
    """Yield (block, multiplicity) pairs whose direct sum, each block
    repeated multiplicity times, is unitarily equivalent to the sample.

    Circulant samples yield their d//2 + 1 distinct DFT blocks of size N;
    every other model yields its dense matrix once.
    """
    if spec.model == "circulant":
        yield from _circulant_blocks(spec, trial)
    else:
        yield sample_matrix(spec, trial), 1


def spectrum(spec: ModelSpec, trial: int = 0) -> np.ndarray:
    """Sorted eigenvalues of one sampled matrix, one eigensolve per block
    of ``hermitian_blocks``."""
    parts = []
    for block, mult in hermitian_blocks(spec, trial):
        parts += [linalg.hermitian_eigenvalues(block)] * mult
        del block                   # freed before the next block is built
    return parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))


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

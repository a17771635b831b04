"""Solvers for operator-valued Dyson equations.

One equation is solved, the semicircular one

    z G = I + eta(G) G,

by one ``_Driver`` per ``solve_dyson`` or ``certified_traces`` call, over
its whole stack of z points.  The Wishart equation
w G = I + eta1((I - eta2(G))^{-1}) G is this equation for its
Hermitization (``EtaPair.hermitization``, the 2d x 2d map
B -> diag(eta1(B_22), eta2(B_11))) at z = sqrt(w): the root there is
diag(z G_W(w), z G_V(w)), and G_W(w) is its top-left block over z.

Each point is reached by continuation in Im z: it starts at a height
where plain iteration contracts (Im z > 1.5 ||eta||^(1/2)) and descends
geometrically to the requested z, taking Newton steps on
R(G) = (z - eta(G)) G - I at every height.  The map acts through its
d^2 x d^2 ``CovarianceMap.action`` matrix, which is also the derivative
of eta.  The iterates never leave the smallest unital algebra A with
eta(A) in A, which holds I/z, so when A is smaller than M_d (and its m^3
structure constants fit ``JACOBIAN_ENTRIES``) each Newton correction is
solved in the m = dim A coordinates of ``CovarianceMap.subalgebra_basis``:
an m x m system built from the coordinates of G and eta's
``structure_constants`` (``_subalgebra_jacobian``).  Otherwise it is the
d^2 x d^2 system of ``_newton_jacobian``.  The residual, the certificate
and the margin are always taken on the full d x d matrices.  The
coordinate step does not correct the rounding that takes G out of A, so
where G is large its residual can stall above tol: a pass in coordinates
ends a point at its first rejected height (or when its sweeps run out),
and a second pass solves every point it did not certify on the d^2 x d^2
systems, from its start height with its sweep count reset, exactly as
that path solves it.

The driver solves its points in windows of at most ``chunk`` points, the
number whose d^2 x d^2 Jacobians hold ``JACOBIAN_ENTRIES`` entries; each
sweep of a window solves its Newton systems by one batched
``np.linalg.solve``, and the residuals and the margins' SVDs are chunked
alike.  It keeps one d x d matrix per point, its G, and the sweep state
of one window: the last accepted G, heights and descent ratios.

Certificate: a point converges when ||z G - I - eta(G) G||_F <= tol and
Im G <= 0 (largest eigenvalue of (G - G^*)/2i at most tol).  The branch
condition matters because Newton can converge to a root of the wrong
branch.  Every continuation height must meet the certificate before
the descent goes on; a height that does not is retried closer to the
last accepted one.  A Newton step whose Jacobian is singular or
non-finite is rejected the same way.  A point whose first height fails,
or whose failed height cannot be shortened further, fails: it returns
its last accepted G (or I/z if it has none) with that G's residual at
the requested z.

Also provides the scalar semicircle closed form, mixtures of semicircle
transforms (the block-circulant limit laws), Stieltjes inversion to a
density table, and density-to-CDF conversion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .eta import CovarianceMap, EtaPair

# continuation starts where plain iteration contracts, Im z > 1.5 ||eta||^(1/2)
START_HEIGHT_FACTOR = 1.5
# the next height is (current height) * ratio, ratio in [MIN, MAX)
DESCENT_RATIO = 0.1
MIN_DESCENT_RATIO = 1e-4
MAX_DESCENT_RATIO = 0.99
# Newton steps a height may take before it is rejected; a height certified
# within FAST_HEIGHT_STEPS squares the ratio, a rejection takes its root
NEWTON_STEPS_PER_HEIGHT = 8
FAST_HEIGHT_STEPS = 3

# one window of sweeps, the residuals and the margins take points in chunks
# whose d^2 x d^2 Jacobians or stability operators hold at most this many
# entries (64 MiB of complex128)
JACOBIAN_ENTRIES = 1 << 22

_NEWTON, _DONE, _FAILED = range(3)


@dataclass
class SolverOptions:
    """``tol`` bounds the certificate (residual and Im G); the integer
    ``max_iter`` bounds each point's sweeps (Newton and rejected steps) on
    each pass, so a point that the d^2 x d^2 pass solves again may take up
    to twice as many in all."""

    tol: float = 1e-11
    max_iter: int = 20000

    def __post_init__(self):
        if not 0 < self.tol < float("inf"):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        try:
            operator.index(self.max_iter)
        except TypeError:
            raise ValueError(f"max_iter must be an int, got {self.max_iter!r}") from None
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")


class SolverFailure(RuntimeError):
    """A solve missed its certificate; the message names the point."""


@dataclass
class DysonSolution:
    """One solved point.

    ``iterations`` counts the driver sweeps the point took (Newton steps
    and rejected continuation steps) on the pass that returned it: a
    point that the d^2 x d^2 pass solved again counts that pass's.
    ``damping_used`` is always 1.0, since every step is a full Newton
    step; the field is kept for the callers that read it.
    ``stability_margin`` is the smallest singular value of the stability
    operator H -> H - G eta(H) G at the returned G; it tends to 0 at a
    spectral edge as Im z -> 0.  It is a property, not a field: the SVDs
    run the first time a point reads it, for all the points of its
    ``solve_dyson`` call together (``_Driver.margins``), so a caller that
    never reads it pays nothing.
    ``certified_trace()`` enforces the certificate for one point, as
    ``certified_traces`` does for a stack of them; both raise the
    ``SolverFailure`` of ``_solver_failure``.

    For a Wishart point, ``z`` is w and ``G`` is G_W(w), while
    ``residual``, ``iterations``, ``converged`` and ``stability_margin``
    are those of the Hermitized equation, solved at sqrt(w) on M_2(M_d).
    """

    z: complex
    G: np.ndarray
    residual: float
    iterations: int
    converged: bool
    damping_used: float = 1.0
    # (driver of the call, index of this point)
    _margin: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def stability_margin(self) -> float:
        if self._margin is None:
            return float("nan")
        driver, m = self._margin
        return float(driver.margins()[m])

    def trace(self) -> complex:
        """Normalized trace of G, the scalar Cauchy transform."""
        return complex(np.trace(self.G)) / self.G.shape[0]

    def certified_trace(self) -> complex:
        """``trace()`` of a point that met the certificate; SolverFailure,
        naming ``z`` and ``residual``, for one that missed it."""
        if not self.converged:
            raise _solver_failure(self.z, self.residual)
        return self.trace()


def _solver_failure(z: complex, residual: float) -> SolverFailure:
    """The report of a point that missed the certificate."""
    return SolverFailure(f"solver failed at z={complex(z)!r} "
                         f"(residual {float(residual):.3e})")


def _upper_half_plane(zs) -> np.ndarray:
    """The points ``zs`` as a 1-D complex128 array; ValueError naming the
    first one that is not finite with Im z > 0."""
    target = np.asarray(zs, dtype=np.complex128)
    if target.ndim != 1:
        raise ValueError(
            f"z points must form a 1-D sequence, got shape {target.shape}")
    bad = ~((0 < target.imag) & (target.imag < np.inf) & (abs(target.real) < np.inf))
    if bad.any():
        raise ValueError("z must lie in the upper half-plane, "
                         f"got {complex(target[np.argmax(bad)])}")
    return target


def _batched_solve(a: np.ndarray, b: np.ndarray):
    """Solve a[m] x[m] = b[m] for a stack; returns (x, ok).

    Rows whose matrix is singular, or whose solution is not finite, come
    back with ok False (and NaN entries for a singular matrix).
    """
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan, dtype=np.complex128)
        for m in range(len(x)):
            try:
                x[m] = np.linalg.solve(a[m:m + 1], b[m:m + 1])[0]
            except np.linalg.LinAlgError:
                pass
    return x, np.isfinite(x).all(axis=(-2, -1))


def _newton_jacobian(A, G, action):
    """d^2 x d^2 Jacobians kron(A, I) - kron(I, G^T) action of R = A G - I,
    built in one (k, d^2, d^2) buffer: -kron(I, G^T) action first, then A
    added on the d strided diagonals that kron(A, I) occupies."""
    k, d = G.shape[0], G.shape[1]
    J = np.empty((k, d, d, d * d), dtype=np.complex128)
    # (kron(I, G^T) action)[(i,k), n] = sum_l G[l,k] action[(i,l), n]
    np.matmul(G.transpose(0, 2, 1)[:, None], action.reshape(d, d, d * d), out=J)
    # 0 - J rather than -J: where the product is zero the entry is +0, as
    # in kron(A, I) minus the product, so zero entries of G keep their sign
    np.subtract(0.0, J, out=J)
    # kron(A, I)[(i,k), (j,l)] = A[i,j] if k == l
    blocks = J.reshape(k, d, d, d, d)
    for c in range(d):
        blocks[:, :, c, :, c] += A
    return J.reshape(k, d * d, d * d)


def _subalgebra_jacobian(z, g, structure):
    """m x m Jacobians z I_m - (g @ D).reshape(m, m) of R = A G - I in the
    coordinates of ``CovarianceMap.subalgebra_basis``, for G and the
    corrections in that algebra: g (k, m, 1) holds G's coordinates and D is
    ``structure_constants``."""
    k, m = len(z), len(structure)
    J = (g.reshape(k, 1, m) @ structure).reshape(k, m, m)
    np.subtract(0.0, J, out=J)
    J.reshape(k, m * m)[:, ::m + 1] += z[:, None]
    return J


def _stability_margin(G, action):
    """Smallest singular value of I - kron(G, G^T) action: H -> H - G eta(H) G."""
    k, d = G.shape[0], G.shape[1]
    cols = np.moveaxis(action.reshape(d, d, d * d), -1, 0)  # eta(e_n)
    gsg = (G[:, None] @ cols @ G[:, None]).transpose(0, 2, 3, 1)
    op = np.eye(d * d) - gsg.reshape(k, d * d, d * d)
    margin = np.full(k, np.nan)
    finite = np.isfinite(op).all(axis=(1, 2))
    if finite.any():
        margin[finite] = np.linalg.svd(op[finite], compute_uv=False)[:, -1]
    return margin


def _frobenius(R):
    """||R[m]||_F for a stack: np.linalg.norm(R, axis=(1, 2))'s own formula,
    without its dispatch."""
    return np.sqrt(np.add.reduce((R.conj() * R).real, axis=(1, 2)))


def _branch_ok(G, tol: float):
    """Im G = (G - G^*)/2i is negative semidefinite up to tol."""
    imag = (G - G.conj().transpose(0, 2, 1)) / 2j
    return np.linalg.eigvalsh(imag)[:, -1] <= tol


class _Driver:
    """Per-point state of one ``solve_dyson`` or ``certified_traces`` call;
    ``run`` sweeps each window of each pass until every point is certified
    or has failed.  Then ``target``, ``G``, ``iterations``, ``mode``,
    ``residuals()`` and ``margins()`` are the call's result.  A pass takes
    one path for all its points, in the subalgebra's coordinates while
    ``in_coordinates``, on the d^2 x d^2 systems otherwise."""

    def __init__(self, eta: CovarianceMap, target: np.ndarray, opts=None):
        self.action, self.target, self.opts = eta.action, target, opts or SolverOptions()
        m, d = len(target), eta.d
        self.eye = np.eye(d, dtype=np.complex128)
        # points whose d^2 x d^2 arrays hold at most JACOBIAN_ENTRIES entries
        self.chunk = max(1, JACOBIAN_ENTRIES // d ** 4)
        self.start_height = START_HEIGHT_FACTOR * np.sqrt(eta.cp_norm())
        # Newton corrections in the coordinates of eta's invariant subalgebra,
        # when it is not all of M_d and its m^3 structure constants fit the cap
        basis = eta.subalgebra_basis.reshape(-1, d * d)
        self.coordinates = self.lift = self.structure = None
        if len(basis) < d * d and len(basis) ** 3 <= JACOBIAN_ENTRIES:
            self.coordinates, self.lift = basis.conj(), np.ascontiguousarray(basis.T)
            self.structure = eta.structure_constants
        self.G = np.empty((m, d, d), dtype=np.complex128)
        self.iterations = np.zeros(m, dtype=int)
        self.mode = np.full(m, _NEWTON)
        self._margins = None

    def run(self) -> _Driver:
        """Solve every point on the path that dim A chooses; after a pass in
        coordinates, a second pass solves the points it did not certify on
        the d^2 x d^2 systems."""
        self.in_coordinates = self.structure is not None
        self._pass(np.arange(len(self.target)))
        if self.in_coordinates:
            self.in_coordinates = False
            self._pass(np.flatnonzero(self.mode != _DONE))
        self.accepted = None        # sweep state; the result is read from G
        return self

    def _pass(self, idx):
        """Solve the points idx from I/z at their start height, one window of
        at most ``chunk`` points at a time, so the sweep state (heights,
        ratios, accepted G) holds one window's; each window's G, iterations
        and mode are written back into the call's arrays."""
        whole = self.target, self.G, self.iterations, self.mode
        for window in self._chunks(len(idx)):
            part = idx[window]
            self.target = whole[0][part]
            n = len(part)
            self.z = self.target.real + 1j * np.maximum(self.target.imag,
                                                         self.start_height)
            self.G = self.eye / self.z[:, None, None]
            self.accepted = self.G.copy()           # last certified height
            self.accepted_height = np.full(n, np.nan)
            self.ratio = np.full(n, DESCENT_RATIO)
            self.height_steps = np.zeros(n, dtype=int)
            self.iterations, self.mode = np.zeros(n, dtype=int), np.full(n, _NEWTON)
            while (live := np.flatnonzero(self.mode < _DONE)).size:
                self.sweep(live)
            whole[1][part], whole[2][part], whole[3][part] = (
                self.G, self.iterations, self.mode)
        self.target, self.G, self.iterations, self.mode = whole

    def _chunks(self, n: int):
        """Slices of at most ``chunk`` of n points: the most that one window
        of sweeps, ``residuals`` or ``margins`` takes at once."""
        return (slice(lo, lo + self.chunk) for lo in range(0, n, self.chunk))

    def _eta(self, G):
        k, d = G.shape[0], G.shape[1]
        return (self.action @ G.reshape(k, d * d, 1)).reshape(k, d, d)

    def sweep(self, live):
        G, z = self.G[live], self.z[live]
        A = z[:, None, None] * self.eye - self._eta(G)
        R = A @ G - self.eye
        res = _frobenius(R)
        small = res <= self.opts.tol
        certified = small.copy()
        if small.any():
            certified[small] = _branch_ok(G[small], self.opts.tol)

        done = certified & (z.imag == self.target[live].imag)
        self.mode[live[done]] = _DONE
        out = ~done & (self.iterations[live] >= self.opts.max_iter)
        self.mode[live[out]] = _FAILED
        go = ~done & ~out
        if not go.all():
            live, G, A, R, res, certified, small = (
                v[go] for v in (live, G, A, R, res, certified, small))
        self.iterations[live] += 1
        self._newton(live, G, A, R, res, certified, small)

    def _newton(self, idx, G, A, R, res, certified, small):
        if idx.size == 0:
            return
        height = self.z[idx].imag
        if certified.any():
            # a certified intermediate height: accept it and descend
            up, G_up, h_up = idx[certified], G[certified], height[certified]
            ratio = self.ratio[up]
            fast = self.height_steps[up] <= FAST_HEIGHT_STEPS
            ratio = np.where(fast, np.maximum(ratio ** 2, MIN_DESCENT_RATIO), ratio)
            self.ratio[up] = ratio
            self.accepted[up] = G_up
            self.accepted_height[up] = h_up
            self.height_steps[up] = 0
            new_height = np.maximum(self.target[up].imag, h_up * ratio)
            # set, not incremented, so the final height equals Im(target) exactly
            self.z[up] = self.target[up].real + 1j * new_height
            dz = (1j * (new_height - h_up))[:, None, None]
            A[certified] += dz * self.eye
            R[certified] += dz * G_up

        # a failed height (too many steps, non-finite, or the wrong branch):
        # retry closer to the last accepted height, or fail
        reject = ~certified & ((self.height_steps[idx] >= NEWTON_STEPS_PER_HEIGHT)
                               | ~np.isfinite(res) | small)
        if reject.any():
            self._shorten(idx[reject])
            step = ~reject
            if not step.any():
                return
            idx, G, A, R = idx[step], G[step], A[step], R[step]
        solved = self._step(idx, G, A, R)
        self.height_steps[idx] += 1
        if not solved.all():
            self._shorten(idx[~solved])

    def _step(self, idx, G, A, R):
        """One Newton step for the points idx, in the subalgebra's m
        coordinates or on the d^2 x d^2 systems, as the pass takes them;
        returns which systems were solved."""
        k = len(idx)
        if self.in_coordinates:
            g = self.coordinates @ G.reshape(k, -1, 1)
            J = _subalgebra_jacobian(self.z[idx], g, self.structure)
            x, solved = _batched_solve(J, -(self.coordinates @ R.reshape(k, -1, 1)))
            self.G[idx] = G + (self.lift @ x).reshape(G.shape)
        else:
            J = _newton_jacobian(A, G, self.action)
            delta, solved = _batched_solve(J, -R.reshape(k, -1, 1))
            self.G[idx] = G + delta.reshape(G.shape)
        return solved

    def _shorten(self, idx):
        """Retry the rejected heights of the points idx closer to their last
        accepted ones; fail a point with none to retry.  On a coordinate
        pass every one fails, for the d^2 x d^2 pass to solve again."""
        if self.in_coordinates:
            self.mode[idx] = _FAILED
            return
        ratio = np.sqrt(self.ratio[idx])
        has = ~np.isnan(self.accepted_height[idx])
        stuck = ~has | (ratio >= MAX_DESCENT_RATIO)
        # no height to retry: fail with the last accepted G, or I/z
        failed = idx[stuck]
        self.mode[failed] = _FAILED
        self.G[failed] = np.where(has[stuck, None, None], self.accepted[failed],
                                  self.eye / self.target[failed, None, None])
        idx, ratio = idx[~stuck], ratio[~stuck]
        self.ratio[idx] = ratio
        self.G[idx] = self.accepted[idx]
        self.z[idx] = self.target[idx].real + 1j * np.maximum(
            self.target[idx].imag, self.accepted_height[idx] * ratio)
        self.height_steps[idx] = 0

    def residuals(self) -> np.ndarray:
        """||R(G)||_F of every point's returned G at its requested z."""
        res = np.empty(len(self.G))
        for part in self._chunks(len(self.G)):
            G = self.G[part]
            A = self.target[part, None, None] * self.eye - self._eta(G)
            res[part] = _frobenius(A @ G - self.eye)
        return res

    def margins(self) -> np.ndarray:
        """The stability margin of every point's returned G: taken by
        ``_stability_margin`` chunk by chunk on the first call, then kept."""
        if self._margins is None:
            self._margins = np.empty(len(self.G))
            for part in self._chunks(len(self.G)):
                self._margins[part] = _stability_margin(self.G[part], self.action)
        return self._margins


def solve_dyson(model, zs, opts: SolverOptions | None = None) -> list:
    """Solve the Dyson equation at every z of ``zs`` in one batched call.

    ``model`` is a CovarianceMap (semicircular, z G = I + eta(G) G) or an
    EtaPair (Wishart, z G = I + eta1((I - eta2(G))^{-1}) G, solved as its
    Hermitization at sqrt(z); see DysonSolution).  Returns one
    DysonSolution per z, in order; points that miss the certificate come
    back with converged=False and the residual of the returned G at z.
    Each point's result does not depend on the other points in the call.
    Each solution's G is a view into one (m, d, d) stack of the call.
    """
    target = _upper_half_plane(zs)
    if isinstance(model, EtaPair):
        driver = _Driver(model.hermitization(), _upper_half_plane(np.sqrt(target)),
                         opts).run()
        Gs = driver.G[:, :model.d, :model.d] / driver.target[:, None, None]
    elif isinstance(model, CovarianceMap):
        driver = _Driver(model, target, opts).run()
        Gs = driver.G
    else:
        raise TypeError("model must be a CovarianceMap (semicircular) or an "
                        "EtaPair (Wishart)")
    res, converged = driver.residuals(), driver.mode == _DONE
    return [DysonSolution(complex(target[m]), Gs[m], float(res[m]),
                          int(driver.iterations[m]), bool(converged[m]),
                          _margin=(driver, m))
            for m in range(len(target))]


def certified_traces(eta: CovarianceMap, zs,
                     opts: SolverOptions | None = None) -> np.ndarray:
    """Normalized traces tr G(z)/d of the certified solutions at every z.

    The values of ``[s.certified_trace() for s in solve_dyson(eta, zs,
    opts)]``, bit for bit, as one complex128 array, read from the G stack
    of the call's one ``_Driver`` without a DysonSolution per point.  Every
    point is solved; then the first z that missed the certificate raises
    that list's SolverFailure, residual included.
    """
    if not isinstance(eta, CovarianceMap):
        raise TypeError("eta must be a CovarianceMap")
    driver = _Driver(eta, _upper_half_plane(zs), opts).run()
    missed = np.flatnonzero(driver.mode != _DONE)
    if missed.size:
        m = missed[0]
        raise _solver_failure(driver.target[m], driver.residuals()[m])
    t = np.trace(driver.G, axis1=1, axis2=2)
    # CPython's complex(t) / d, which divides by d + 0j: the same bits as
    # DysonSolution.trace(), where numpy's t / d multiplies by 1/d
    traces = np.empty(len(t), dtype=np.complex128)
    traces.real = (t.real + t.imag * 0.0) / eta.d
    traces.imag = (t.imag - t.real * 0.0) / eta.d
    return traces


def solve_semicircular(eta: CovarianceMap, z: complex,
                       opts: SolverOptions | None = None) -> DysonSolution:
    """Solve z G = I + eta(G) G at one z (a one-point ``solve_dyson``)."""
    if not isinstance(eta, CovarianceMap):
        raise TypeError("eta must be a CovarianceMap")
    return solve_dyson(eta, [z], opts)[0]


def solve_wishart(pair: EtaPair, z: complex,
                  opts: SolverOptions | None = None) -> DysonSolution:
    """Solve z G = I + eta1((I - eta2(G))^{-1}) G at one z (a one-point
    ``solve_dyson`` of the Hermitization at sqrt(z))."""
    if not isinstance(pair, EtaPair):
        raise TypeError("pair must be an EtaPair")
    return solve_dyson(pair, [z], opts)[0]


def scalar_semicircle_cauchy(t: float, z):
    """Cauchy transform of the semicircle law of variance t.

    Returns the root of t g^2 - z g + 1 = 0 with negative imaginary part,
    computed cancellation-free as g = 2 / (z + s) with the larger-modulus
    denominator.  Accepts scalar or array z (upper half-plane).
    """
    if not 0 < t < np.inf:
        raise ValueError("variance t must be positive and finite")
    z = np.asarray(z, dtype=np.complex128)
    # min and max propagate a NaN and, unlike a mask, allocate nothing
    if z.size and not (0 < z.imag.min() <= z.imag.max() < np.inf
                       and -np.inf < z.real.min() <= z.real.max() < np.inf):
        raise ValueError("z must lie in the upper half-plane")
    s = np.sqrt(z * z - 4 * t)
    den = np.where(np.abs(z + s) >= np.abs(z - s), z + s, z - s)
    g = 2.0 / den
    return complex(g) if g.ndim == 0 else g


def mixture_cauchy(weights, variances, z):
    """Cauchy transform of a finite mixture of semicircle laws."""
    w = np.asarray(weights, dtype=float)
    t = np.asarray(variances, dtype=float)
    if w.shape != t.shape or w.ndim != 1 or w.size == 0:
        raise ValueError("weights and variances must be matching 1-D lists")
    if not (np.isfinite(w).all() and np.isfinite(t).all()):
        raise ValueError("weights and variances must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"weights sum to {w.sum()!r}, expected 1")
    z = np.asarray(z, dtype=np.complex128)
    g = sum(wm * scalar_semicircle_cauchy(tm, z) for wm, tm in zip(w, t))
    return complex(g) if np.ndim(g) == 0 else g


def circulant_mixture(d: int, exact: bool = False):
    """Weights and variances of the block-circulant limit law.

    Odd d:  (d-1)/d at variance (d-1)/d  and  1/d at variance (2d-1)/d.
    Even d: (d-2)/d at variance (d-2)/d  and  2/d at variance (2d-2)/d.
    With exact=True returns Fractions (the identities sum(w) = 1 and
    sum(w*t) = 1 then hold exactly).
    """
    if d < 2:
        raise ValueError("circulant mixture needs d >= 2")
    if d % 2:
        w = [Fraction(d - 1, d), Fraction(1, d)]
        t = [Fraction(d - 1, d), Fraction(2 * d - 1, d)]
    else:
        w = [Fraction(d - 2, d), Fraction(2, d)]
        t = [Fraction(d - 2, d), Fraction(2 * d - 2, d)]
    # d=2 puts zero mass on a zero-variance component; drop it
    keep = [i for i, wi in enumerate(w) if wi != 0]
    w = [w[i] for i in keep]
    t = [t[i] for i in keep]
    if exact:
        return w, t
    return [float(x) for x in w], [float(x) for x in t]


def stieltjes_density(g, grid, eps: float,
                      opts: SolverOptions | None = None):
    """Boundary-value density rho(x) = -Im g(x + i eps) / pi on a grid.

    ``g`` is either a vectorised callable, called once on the array of
    grid points x + i eps and returning one Cauchy value per point, or a
    CovarianceMap (then the whole grid is solved by one
    ``certified_traces`` call, so the first grid point that misses the
    certificate raises SolverFailure).  Values are
    clipped to 0 from below; the clipped mass is O(eps) + O(grid step^2)
    away from a unit integral for a probability law whose support the
    grid covers.
    """
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    xs = _increasing_grid(grid)
    if isinstance(g, CovarianceMap):
        values = certified_traces(g, xs + 1j * eps, opts)
    elif callable(g):
        values = np.asarray(g(xs + 1j * eps), dtype=np.complex128)
        if values.shape != xs.shape:
            raise ValueError(f"g returned shape {values.shape} for a grid of "
                             f"shape {xs.shape}")
    else:
        raise TypeError("g must be callable or a CovarianceMap")
    rho = np.clip(-values.imag / np.pi, 0.0, None)
    return xs, rho


def _increasing_grid(grid, least: int = 1) -> np.ndarray:
    """``grid`` as floats, if a strictly increasing 1-D array of ``least``
    or more points."""
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size < least:
        raise ValueError(f"grid must be a 1-D array of {least} or more points")
    if not (np.diff(xs) > 0).all():
        raise ValueError("grid must be strictly increasing")
    return xs


def cdf_from_density(xs, rho):
    """Monotone [0,1] CDF from a density table, trapezoid-cumulated.

    ``xs`` is a strictly increasing grid of two points or more, ``rho``
    nonnegative.  The cumulative mass is renormalized to 1; the returned
    callable evaluates by linear interpolation, clamped to [0,1] outside
    the grid.
    """
    xs = _increasing_grid(xs, least=2)
    rho = np.asarray(rho, dtype=float)
    if xs.shape != rho.shape:
        raise ValueError("mismatched density table")
    if (rho < 0).any():
        raise ValueError("density values must be nonnegative")
    steps = np.diff(xs)
    cumulative = np.concatenate(
        [[0.0], np.cumsum(steps * (rho[1:] + rho[:-1]) / 2.0)]
    )
    total = cumulative[-1]
    if not 0 < total < np.inf:
        raise ValueError(f"density table needs a positive finite mass, got {total!r}")
    cumulative /= total

    def cdf(x):
        return np.clip(np.interp(x, xs, cumulative, left=0.0, right=1.0), 0.0, 1.0)

    return cdf

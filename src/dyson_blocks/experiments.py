"""Config-driven experiments verifying the package's quantitative claims:
convergence-rate fits, entry-law universality, circulant Kolmogorov
convergence and Wishart solver/Monte-Carlo consistency.

Every experiment is a pure function of its arguments including the seed;
per-arm sub-seeds are derived with a fixed 64-bit stride so arms use
independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .dyson import (SolverOptions, circulant_mixture, mixture_cauchy,
                    cdf_from_density, solve_semicircular, solve_wishart,
                    stieltjes_density)
# experiments._map_trials stays a name of the trial mapper: bench/tracer.py
# wraps the mapper under it
from .esd import (EmpiricalCDF, _map_trials, empirical_cauchy,
                  kolmogorov_distance, mean_cauchy, trial_mean)
from .eta import (CovarianceMap, CovarianceTensor, EtaPair,
                  eta_correlated_tensor, eta_exchangeable_pool, eta_kronecker,
                  eta_wishart_pair, flat_map)
from .sampler import (ModelSpec, PermutationPool, sample_wishart_factor,
                      spectrum)

SEED_STRIDE = 0x9E3779B97F4A7C15  # golden-ratio stride for per-arm sub-seeds
RATE_FILTER_SE_FACTOR = 3.0
MIN_FIT_POINTS = 3


def derived_seed(seed: int, arm: int) -> int:
    return (int(seed) + arm * SEED_STRIDE) % 2 ** 64


def model_eta(spec: ModelSpec) -> CovarianceMap | EtaPair:
    """Limiting covariance map built from the same model parameters."""
    if spec.model in ("hermitized_iid", "wigner_blocks"):
        law = spec.law
        if isinstance(law, PermutationPool) and law.is_matrix_pool:
            return eta_exchangeable_pool(law.values)
        # i.i.d. (or exchangeable) scalar entries of variance v give
        # eta(B) = v * tr(B) * I regardless of the fill pattern
        return flat_map(spec.d, spec.law.variance * spec.d)
    if spec.model == "kronecker":
        return eta_kronecker(spec.betas, spec.sigma_l, prefactor=1.0)
    if spec.model == "correlated_blocks":
        return eta_correlated_tensor(spec.tensor)
    if spec.model == "wishart_correlated":
        return eta_wishart_pair(spec.tensor)
    raise ValueError(f"no single covariance map for model {spec.model!r}")


def analytic_trace_cauchy(spec: ModelSpec, z: complex,
                          opts: SolverOptions | None = None) -> complex:
    """Limit-law scalar Cauchy transform for a model at one z."""
    if spec.model == "circulant":
        w, t = circulant_mixture(spec.d)
        return mixture_cauchy(w, t, z)
    eta = model_eta(spec)
    if isinstance(eta, EtaPair):
        sol = solve_wishart(eta, z, opts)
    else:
        sol = solve_semicircular(eta, z, opts)
    if not sol.converged:
        raise RuntimeError(f"solver did not converge at z={z!r}")
    return sol.trace()


@dataclass
class RateReport:
    model: ModelSpec
    z: complex
    N_grid: list
    errors: np.ndarray
    stderrs: np.ndarray
    status: str               # "ok" | "noise_floor" | "degenerate"
    points_used: int
    slope: float | None = None
    slope_stderr: float | None = None


def _weighted_loglog_fit(ns, errs, ses):
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(errs)
    w = (errs / ses) ** 2          # inverse variance of log(err)
    sw = w.sum()
    xbar = (w * x).sum() / sw
    ybar = (w * y).sum() / sw
    sxx = (w * (x - xbar) ** 2).sum()
    slope = (w * (x - xbar) * (y - ybar)).sum() / sxx
    return float(slope), float(1.0 / np.sqrt(sxx))


def rate_threshold(template: ModelSpec) -> float:
    """Im z above which the rate fit is taken: ||eta||^(1/2).

    For Wishart models the norm is that of eta1; the circulant mixture
    accepts any z in the upper half-plane (threshold 0).
    """
    if template.model == "circulant":
        return 0.0
    eta = model_eta(template)
    return (eta.eta1 if isinstance(eta, EtaPair) else eta).cp_norm() ** 0.5


def rate_experiment(template: ModelSpec, z: complex, N_grid, trials: int,
                    seed: int, workers: int | None = None,
                    opts: SolverOptions | None = None) -> RateReport:
    """Fit the decay of |mean empirical Cauchy - analytic g(z)| across N.

    Only N values whose error exceeds 3x its standard error enter the
    weighted log-log fit; with fewer than 3 such points the report
    declares the noise floor reached instead of fitting noise.
    """
    ns = [int(n) for n in N_grid]
    if len(ns) < MIN_FIT_POINTS or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("N_grid must be >= 3 strictly increasing values")
    z = complex(z)
    threshold = rate_threshold(template)
    if z.imag <= threshold:
        raise ValueError(
            f"Im(z)={z.imag} below the model threshold {threshold:.3g}"
        )
    ref = analytic_trace_cauchy(template.with_n(ns[0]), z, opts)
    errors = np.empty(len(ns))
    ses = np.empty(len(ns))
    for i, n in enumerate(ns):
        spec = template.with_n(n).with_seed(derived_seed(seed, i))
        res = mean_cauchy(spec, [z], trials, workers=workers)
        errors[i] = abs(res.mean[0] - ref)
        ses[i] = res.stderr[0]
    if np.all(errors <= 1e-15):
        return RateReport(template, z, ns, errors, ses,
                          status="degenerate", points_used=0)
    keep = errors > RATE_FILTER_SE_FACTOR * ses
    if keep.sum() < MIN_FIT_POINTS:
        return RateReport(template, z, ns, errors, ses,
                          status="noise_floor", points_used=int(keep.sum()))
    slope, slope_se = _weighted_loglog_fit(
        np.asarray(ns)[keep], errors[keep], ses[keep])
    return RateReport(template, z, ns, errors, ses, status="ok",
                      points_used=int(keep.sum()),
                      slope=slope, slope_stderr=slope_se)


@dataclass
class UniversalityReport:
    z: complex
    N: int
    trials: int
    mean_a: complex
    mean_b: complex
    se_a: float
    se_b: float

    @property
    def difference(self) -> float:
        return abs(self.mean_a - self.mean_b)

    @property
    def combined_se(self) -> float:
        return float(np.hypot(self.se_a, self.se_b))


def universality_experiment(template: ModelSpec, law_a, law_b, z: complex,
                            N: int, trials: int, seed: int,
                            workers: int | None = None) -> UniversalityReport:
    """Paired mean-Cauchy comparison of two centered matched-variance laws."""
    for law in (law_a, law_b):
        if abs(complex(law.mean)) > 1e-12:
            raise ValueError(f"law {law!r} is not centered")
    if abs(law_a.variance - law_b.variance) > 1e-12:
        raise ValueError(
            f"variance mismatch: {law_a.variance!r} vs {law_b.variance!r}"
        )
    z = complex(z)
    res_a, res_b = (
        mean_cauchy(ModelSpec(model=template.model, d=template.d, N=int(N), law=law,
                              seed=derived_seed(seed, arm)), [z], trials, workers=workers)
        for arm, law in enumerate((law_a, law_b)))
    return UniversalityReport(z=z, N=int(N), trials=trials,
                              mean_a=complex(res_a.mean[0]),
                              mean_b=complex(res_b.mean[0]),
                              se_a=float(res_a.stderr[0]),
                              se_b=float(res_b.stderr[0]))


@dataclass
class CirculantKsReport:
    d: int
    N_grid: list
    mean_ks: np.ndarray
    stderr: np.ndarray
    trials: int
    weights: list = field(default_factory=list)
    variances: list = field(default_factory=list)


def circulant_limit_cdf(d: int, eps: float = 1e-4, step: float = 5e-4):
    """CDF of the block-circulant mixture law via Stieltjes inversion."""
    weights, variances = circulant_mixture(d)
    radius = 2.0 * np.sqrt(max(variances)) + 0.25
    grid = np.arange(-radius, radius + step, step)
    xs, rho = stieltjes_density(
        lambda zz: mixture_cauchy(weights, variances, zz), grid, eps)
    return cdf_from_density(xs, rho)


def circulant_ks_experiment(d: int, N_grid, trials: int, seed: int,
                            workers: int | None = None) -> CirculantKsReport:
    """Mean Kolmogorov distance of circulant ESDs to the mixture law per N."""
    if d < 2:
        raise ValueError("circulant experiment needs d >= 2")
    ns = [int(n) for n in N_grid]
    cdf = circulant_limit_cdf(d)
    weights, variances = circulant_mixture(d)
    means = np.empty(len(ns))
    ses = np.empty(len(ns))
    for i, n in enumerate(ns):
        spec = ModelSpec(model="circulant", d=d, N=n,
                         seed=derived_seed(seed, i))
        means[i], ses[i] = trial_mean(
            lambda t: kolmogorov_distance(EmpiricalCDF(spectrum(spec, t)), cdf),
            trials, workers)
    return CirculantKsReport(d=d, N_grid=ns, mean_ks=means, stderr=ses,
                             trials=trials, weights=weights,
                             variances=variances)


@dataclass
class WishartConsistencyReport:
    z: complex
    N: int
    trials: int
    identity_residuals: np.ndarray
    solver_trace: complex
    mc_mean: complex
    mc_stderr: float

    @property
    def max_identity_residual(self) -> float:
        return float(self.identity_residuals.max())

    @property
    def solver_mc_gap(self) -> float:
        return abs(self.solver_trace - self.mc_mean)


def hermitization_cauchy_pair(h: np.ndarray, z: complex):
    """Both sides of the Schur identity for one sampled factor H.

    Returns (trace Cauchy of the Hermitization at z,
             z * trace Cauchy of H H^* at z^2,
             empirical Cauchy of H H^* at z^2).
    """
    n = h.shape[0]
    x = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    x[:n, n:] = h
    x[n:, :n] = h.conj().T
    lhs = empirical_cauchy(linalg.hermitian_eigenvalues(x), z)
    w = h @ h.conj().T
    g_w = empirical_cauchy(linalg.hermitian_eigenvalues((w + w.conj().T) / 2),
                           z * z)
    return lhs, z * g_w, g_w


def wishart_consistency_experiment(tensor, z: complex, N: int, trials: int,
                                   seed: int,
                                   opts: SolverOptions | None = None,
                                   workers: int | None = None
                                   ) -> WishartConsistencyReport:
    """Sample-wise Schur identity plus solver-vs-Monte-Carlo agreement.

    Requires both z and z^2 in the upper half-plane (e.g. z on the ray
    arg z = pi/4), so both Cauchy transforms are defined.
    """
    z = complex(z)
    if z.imag <= 0 or (z * z).imag <= 0:
        raise ValueError("need Im(z) > 0 and Im(z^2) > 0")
    if not isinstance(tensor, CovarianceTensor):
        tensor = CovarianceTensor(tensor)
    spec = ModelSpec(model="wishart_correlated", d=tensor.d, N=int(N),
                     seed=seed, tensor=tensor)

    residuals = [0.0] * trials

    def one_trial(t):
        lhs, rhs, g_w = hermitization_cauchy_pair(sample_wishart_factor(spec, t), z)
        residuals[t] = abs(lhs - rhs)
        return g_w

    mc_mean, mc_se = trial_mean(one_trial, trials, workers)
    pair = eta_wishart_pair(tensor)
    sol = solve_wishart(pair, z * z, opts)
    if not sol.converged:
        raise RuntimeError(f"wishart solver did not converge at z^2={z * z!r}")
    return WishartConsistencyReport(
        z=z, N=int(N), trials=trials, identity_residuals=np.array(residuals),
        solver_trace=sol.trace(), mc_mean=complex(mc_mean),
        mc_stderr=float(mc_se),
    )

"""Config-driven experiments verifying the package's quantitative claims:
convergence-rate fits, entry-law universality, circulant Kolmogorov
convergence and Wishart solver/Monte-Carlo consistency.

Every experiment is a pure function of its arguments including the seed;
per-arm sub-seeds are derived with a fixed 64-bit stride so arms use
independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .dyson import (SolverOptions, circulant_mixture, mixture_cauchy,
                    cdf_from_density, solve_semicircular, solve_wishart,
                    stieltjes_density)
# experiments._map_trials stays a name of the trial mapper: bench/tracer.py
# wraps the mapper under it
from .esd import (EmpiricalCDF, _map_trials, kolmogorov_distance,
                  mean_cauchy, trial_mean)
from .eta import CovarianceTensor, EtaPair
from .sampler import (ModelSpec, _check_u64, model_eta, sample_wishart_factor,
                      spectrum)

SEED_STRIDE = 0x9E3779B97F4A7C15  # golden-ratio stride for per-arm sub-seeds
RATE_FILTER_SE_FACTOR = 3.0
MIN_FIT_POINTS = 3


def derived_seed(seed: int, arm: int) -> int:
    _check_u64("seed", seed)
    return (int(seed) + arm * SEED_STRIDE) % 2 ** 64


def analytic_trace_cauchy(spec: ModelSpec, z: complex,
                          opts: SolverOptions | None = None) -> complex:
    """Certified limit-law scalar Cauchy transform for a model at one z."""
    eta = model_eta(spec)
    # by these names, not solve_dyson: bench/tracer.py counts solves through them
    solve = solve_wishart if isinstance(eta, EtaPair) else solve_semicircular
    return solve(eta, z, opts).certified_trace()


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
    """Weighted least-squares slope of log(err) on log(N), and its standard
    error scaled by sqrt(max(1, chi2 / (k - 2))) over the k points (the PDG
    scale factor), so a scatter that the SEs do not explain widens it."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(errs)
    w = (errs / ses) ** 2          # inverse variance of log(err)
    sw = w.sum()
    xbar = (w * x).sum() / sw
    ybar = (w * y).sum() / sw
    sxx = (w * (x - xbar) ** 2).sum()
    slope = (w * (x - xbar) * (y - ybar)).sum() / sxx
    chi2 = (w * (y - ybar - slope * (x - xbar)) ** 2).sum()
    scale = max(1.0, chi2 / (len(x) - 2))
    return float(slope), float(np.sqrt(scale) / np.sqrt(sxx))


def check_n_grid(N_grid, least: int) -> list:
    """N_grid as ints, checked: ``least`` or more strictly increasing N >= 1."""
    ns = [int(n) for n in N_grid]
    if len(ns) < least or ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"need {least} or more strictly increasing N >= 1, got {ns}")
    return ns


def rate_threshold(template: ModelSpec) -> float:
    """Im z above which the rate fit is taken: ||eta||^(1/2).

    For Wishart models the norm is that of eta1.
    """
    eta = model_eta(template)
    return (eta.eta1 if isinstance(eta, EtaPair) else eta).cp_norm() ** 0.5


def rate_experiment(template: ModelSpec, z: complex, N_grid, trials: int,
                    seed: int, opts: SolverOptions | None = None) -> RateReport:
    """Fit the decay of |mean empirical Cauchy - analytic g(z)| across N.

    Only N values whose error exceeds 3x its standard error enter the
    weighted log-log fit; with fewer than 3 such points the report
    declares the noise floor reached instead of fitting noise.  Filter and
    fit floor each standard error at eps |mean|, its mean's rounding level,
    so an SE of 0 gets a finite weight; ``stderrs`` holds the measured SEs.
    """
    ns = check_n_grid(N_grid, MIN_FIT_POINTS)
    z = complex(z)
    threshold = rate_threshold(template)
    if z.imag <= threshold:
        raise ValueError(
            f"Im(z)={z.imag} below the model threshold {threshold:.3g}"
        )
    ref = analytic_trace_cauchy(template, z, opts)
    errors, ses, fit_ses = np.empty((3, len(ns)))
    for i, n in enumerate(ns):
        res = mean_cauchy(replace(template, N=n, seed=derived_seed(seed, i)),
                          [z], trials)
        errors[i] = abs(res.mean[0] - ref)
        ses[i] = res.stderr[0]
        fit_ses[i] = max(ses[i], np.finfo(float).eps * abs(res.mean[0]))
    if np.all(errors <= 1e-15):
        return RateReport(template, z, ns, errors, ses,
                          status="degenerate", points_used=0)
    keep = errors > RATE_FILTER_SE_FACTOR * fit_ses
    if keep.sum() < MIN_FIT_POINTS:
        return RateReport(template, z, ns, errors, ses,
                          status="noise_floor", points_used=int(keep.sum()))
    slope, slope_se = _weighted_loglog_fit(
        np.asarray(ns)[keep], errors[keep], fit_ses[keep])
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
                            N: int, trials: int, seed: int) -> UniversalityReport:
    """Paired mean-Cauchy comparison of two centered matched-variance laws;
    |mean| is tested against the standard deviation and the variance gap
    against the larger variance, by linalg.within_tolerance."""
    for law in (law_a, law_b):
        if not linalg.within_tolerance(abs(complex(law.mean)), np.sqrt(law.variance)):
            raise ValueError(f"law {law!r} is not centered")
    va, vb = law_a.variance, law_b.variance
    if not linalg.within_tolerance(abs(va - vb), max(va, vb)):
        raise ValueError(f"variance mismatch: {va!r} vs {vb!r}")
    z = complex(z)
    res_a, res_b = (
        mean_cauchy(replace(template, N=int(N), law=law, seed=derived_seed(seed, arm)),
                    [z], trials)
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


def circulant_limit_cdf(d: int):
    """CDF of the block-circulant mixture law via Stieltjes inversion."""
    weights, variances = circulant_mixture(d)
    radius = 2.0 * np.sqrt(max(variances)) + 0.25
    grid = np.arange(-radius, radius + 5e-4, 5e-4)
    xs, rho = stieltjes_density(
        lambda zz: mixture_cauchy(weights, variances, zz), grid, 1e-4)
    return cdf_from_density(xs, rho)


def circulant_ks_experiment(d: int, N_grid, trials: int,
                            seed: int) -> CirculantKsReport:
    """Mean Kolmogorov distance of circulant ESDs to the mixture law per N."""
    ns = check_n_grid(N_grid, 1)
    cdf = circulant_limit_cdf(d)
    weights, variances = circulant_mixture(d)
    template = ModelSpec(model="circulant", d=d, N=ns[0])
    means = np.empty(len(ns))
    ses = np.empty(len(ns))
    for i, n in enumerate(ns):
        spec = replace(template, N=n, seed=derived_seed(seed, i))
        means[i], ses[i] = trial_mean(
            lambda t: spectrum(spec, t), trials,
            reduce=lambda ev: kolmogorov_distance(EmpiricalCDF(ev), cdf))
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
    """Both sides of the Schur identity for one sampled square factor H.

    Returns (trace Cauchy of the Hermitization X = [[0, H], [H^*, 0]] at z,
             z * trace Cauchy of H H^* at z^2,
             trace Cauchy of H H^* at z^2).

    No spectrum is computed.  The diagonal blocks of (z - X)^-1 are
    z (z^2 - H H^*)^-1 and z (z^2 - H^* H)^-1, so the Hermitization's side
    is z (g_W + g_V) / 2 with g_W, g_V the resolvent traces
    (linalg.resolvent_trace) of the Gram matrices W = H H^* and V = H^* H
    at z^2.  The residual of the identity is |z| |g_V - g_W| / 2: it
    compares two independent factorizations, of H H^* and of H^* H.
    """
    h = linalg.require_square(h)
    z = complex(z)
    hc = h.conj().T
    g_w = complex(linalg.resolvent_trace(h @ hc, z * z)[0])
    g_v = complex(linalg.resolvent_trace(hc @ h, z * z)[0])
    return z * (g_w + g_v) / 2, z * g_w, g_w


def wishart_consistency_experiment(tensor, z: complex, N: int, trials: int,
                                   seed: int, opts: SolverOptions | None = None
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

    residuals = []

    def reduce(h):
        lhs, rhs, g_w = hermitization_cauchy_pair(h, z)
        residuals.append(abs(lhs - rhs))
        return g_w

    mc_mean, mc_se = trial_mean(lambda t: sample_wishart_factor(spec, t),
                                trials, reduce=reduce)
    return WishartConsistencyReport(
        z=z, N=int(N), trials=trials, identity_residuals=np.array(residuals),
        solver_trace=analytic_trace_cauchy(spec, z * z, opts),
        mc_mean=complex(mc_mean),
        mc_stderr=float(mc_se),
    )

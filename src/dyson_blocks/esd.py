"""Empirical spectral statistics: ECDFs, empirical Cauchy transforms,
Kolmogorov distance and seeded Monte Carlo averaging."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .sampler import ModelSpec, spectrum


@dataclass
class EmpiricalCDF:
    """Right-continuous step function k/n at the sorted sample points."""

    points: np.ndarray

    def __init__(self, points):
        pts = np.sort(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("empty sample")
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.size

    def __call__(self, x):
        return np.searchsorted(self.points, x, side="right") / self.n

    def left_limit(self, x):
        return np.searchsorted(self.points, x, side="left") / self.n


def empirical_cauchy(eigenvalues, z) -> complex:
    """(1/n) sum_i 1/(z - lambda_i): the normalized resolvent trace."""
    z = complex(z)
    if z.imag == 0:
        raise ValueError("z must have nonzero imaginary part")
    ev = np.asarray(eigenvalues, dtype=float)
    return complex(np.mean(1.0 / (z - ev)))


def kolmogorov_distance(f, g) -> float:
    """Exact sup distance between a step ECDF and a monotone CDF.

    Evaluates both one-sided gaps at every jump of ``f`` (the naive
    one-sided sup underestimates by up to 1/n).  When ``g`` is itself an
    EmpiricalCDF its own left limits are used at the jumps, making the
    step-vs-step distance exact as well (identical samples give 0).
    """
    if not isinstance(f, EmpiricalCDF):
        f = EmpiricalCDF(f)
    values, counts = np.unique(f.points, return_counts=True)
    upper = np.cumsum(counts) / f.n
    lower = np.concatenate([[0.0], upper[:-1]])
    gv = np.asarray(g(values), dtype=float)
    gv_left = g.left_limit(values) if isinstance(g, EmpiricalCDF) else gv
    gaps = np.maximum(np.abs(upper - gv), np.abs(lower - gv_left))
    if isinstance(g, EmpiricalCDF):
        # jumps of g away from f's support also contribute; there f is flat
        own = np.setdiff1d(np.unique(g.points), values)
        if own.size:
            fv = f(own)
            gaps = np.concatenate([gaps, np.abs(fv - g(own)),
                                   np.abs(fv - g.left_limit(own))])
    return float(np.max(gaps))


def _map_trials(fn, trials: int, workers: int | None) -> list:
    """[fn(0), ..., fn(trials - 1)] in trial order, on up to ``workers`` threads."""
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(trials)))
    return [fn(t) for t in range(trials)]


def trial_mean(fn, trials: int, workers: int | None = None):
    """Mean and standard error over the trial axis of fn(0), ..., fn(trials - 1).

    ``fn`` returns a real or complex scalar or 1-D array; complex data takes
    the larger of the real and imaginary standard errors.  Fewer than 2
    trials are rejected before any trial runs.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    data = np.array(_map_trials(fn, trials, workers))
    se = data.real.std(axis=0, ddof=1)
    if np.iscomplexobj(data):
        se = np.maximum(se, data.imag.std(axis=0, ddof=1))
    return data.mean(axis=0), se / np.sqrt(trials)


@dataclass
class MeanCauchyResult:
    z: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    trials: int


def _trial_row(spec: ModelSpec, trial: int, zs: np.ndarray) -> np.ndarray:
    ev = spectrum(spec, trial)
    return np.array([empirical_cauchy(ev, z) for z in zs])


def mean_cauchy(spec: ModelSpec, z_list, trials: int,
                workers: int | None = None) -> MeanCauchyResult:
    """Per-z mean and standard error of the empirical Cauchy transform.

    Trials are seeded (spec.seed, trial) so the result is deterministic
    for any worker count (see ``trial_mean``).
    """
    zs = np.atleast_1d(np.asarray(z_list, dtype=np.complex128))
    if np.any(zs.imag == 0):
        raise ValueError("z values must have nonzero imaginary part")
    mean, se = trial_mean(lambda t: _trial_row(spec, t, zs), trials, workers)
    return MeanCauchyResult(z=zs, mean=mean, stderr=se, trials=trials)

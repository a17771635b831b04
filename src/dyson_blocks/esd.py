"""Empirical spectral statistics: ECDFs, empirical Cauchy transforms,
Kolmogorov distance and seeded Monte Carlo averaging."""

from __future__ import annotations

# no pool runs; this import and _map_trials's unused ``workers`` stay
# because bench/tracer.py subclasses esd.ThreadPoolExecutor and calls the
# mapper with ``workers``
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linalg
from .sampler import ModelSpec, hermitian_blocks


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


def empirical_cauchy(eigenvalues, z) -> complex:
    """(1/n) sum_i 1/(z - lambda_i): the normalized resolvent trace."""
    (z,) = linalg.resolvent_points(complex(z))
    ev = np.asarray(eigenvalues, dtype=float)
    return complex(np.mean(1.0 / (z - ev)))


def kolmogorov_distance(f: EmpiricalCDF, g) -> float:
    """Exact sup distance between an ECDF ``f`` and a continuous monotone
    CDF callable ``g``: both one-sided gaps at every jump of f, where f's
    sup is reached (the naive one-sided sup underestimates by up to 1/n)."""
    values, counts = np.unique(f.points, return_counts=True)
    upper = np.cumsum(counts) / f.n
    lower = np.concatenate([[0.0], upper[:-1]])
    gv = np.asarray(g(values), dtype=float)
    return float(np.max(np.maximum(np.abs(upper - gv), np.abs(lower - gv))))


def _map_trials(fn, trials: int, workers: int | None) -> list:
    """[fn(0), ..., fn(trials - 1)] in trial order, on the calling thread."""
    return [fn(t) for t in range(trials)]


def trial_mean(draw, trials: int, reduce=None):
    """Mean and standard error over the trial axis of
    reduce(draw(0)), ..., reduce(draw(trials - 1)).

    Each trial has two stages: ``draw(t)`` makes the trial's sample, and
    ``reduce`` (default: the identity) turns it into a real or complex
    scalar or 1-D array.  Trials run serially on the calling thread, in
    trial order, and each sample is freed within its own trial.  Complex
    data takes the larger of the real and imaginary standard errors.
    Fewer than 2 trials are rejected before any trial runs.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    reduce = reduce or (lambda sample: sample)
    data = np.array(_map_trials(lambda t: reduce(draw(t)), trials, None))
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


def _trial_row(blocks, zs: np.ndarray) -> np.ndarray:
    """(1/n) tr (z - H)^-1 of one sample at each z, from its
    ``hermitian_blocks`` list: the resolvent traces of the blocks, averaged
    with weight size x multiplicity.  The reduce stage of ``mean_cauchy``."""
    traces, weights = [], []
    for block, mult in blocks:
        traces.append(linalg.resolvent_trace(block, zs))
        weights.append(mult * block.shape[0])
    return np.average(traces, axis=0, weights=weights)


def mean_cauchy(spec: ModelSpec, z_list, trials: int) -> MeanCauchyResult:
    """Per-z mean and standard error of the empirical Cauchy transform.

    Each trial draws the sample's Hermitian blocks, then takes their
    resolvent traces (see ``_trial_row``), not eigenvalues.  Trials are
    seeded (spec.seed, trial) and run serially, in trial order.
    """
    zs = linalg.resolvent_points(z_list)
    mean, se = trial_mean(lambda t: list(hermitian_blocks(spec, t)), trials,
                          reduce=lambda blocks: _trial_row(blocks, zs))
    return MeanCauchyResult(z=zs, mean=mean, stderr=se, trials=trials)

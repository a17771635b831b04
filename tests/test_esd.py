import threading
import tracemalloc

import numpy as np
import pytest

from dyson_blocks import esd, linalg
from dyson_blocks.dyson import scalar_semicircle_cauchy
from dyson_blocks.esd import (EmpiricalCDF, empirical_cauchy,
                              kolmogorov_distance, mean_cauchy, trial_mean)
from dyson_blocks.linalg import invert, resolvent_trace
from dyson_blocks.sampler import (ComplexGaussian, ModelSpec, PermutationPool,
                                  Rademacher, TwoPoint, rng_for, sample_matrix,
                                  spectrum)


NON_FINITE_Z = [complex(0.0, np.nan), complex(np.nan, 1.0), complex(np.inf, 1.0),
                complex(0.0, np.inf)]
NON_FINITE_IDS = ["nan-imag", "nan-real", "inf-real", "inf-imag"]
needs_blas_calls = pytest.mark.skipif(
    linalg._blas_thread_calls() is None,
    reason="numpy's BLAS exports no thread-count calls")


class TestEmpiricalCauchy:
    def test_single_zero_eigenvalue(self):
        assert np.isclose(empirical_cauchy([0.0], 1j), -1j)

    def test_two_point_spectrum(self):
        # (1/2)(1/(2i+1) + 1/(2i-1)) = -0.4i
        assert np.isclose(empirical_cauchy([-1.0, 1.0], 2j), -0.4j)

    def test_matches_resolvent_trace(self):
        gen = rng_for(314, 0)
        n = 20
        a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        x = (a + a.conj().T) / 2
        ev = np.linalg.eigvalsh(x)
        for z in (2j, 1.3 + 0.4j, -0.5 + 1.1j):
            via_inverse = np.trace(invert(z * np.eye(n) - x)) / n
            assert abs(empirical_cauchy(ev, z) - via_inverse) <= 1e-9

    def test_resolvent_trace_identity_every_model(self):
        from dyson_blocks.eta import CovarianceTensor
        delta = CovarianceTensor(np.einsum("ik,jl->ijkl", np.eye(2), np.eye(2)))
        specs = [
            ModelSpec(model="hermitized_iid", d=2, N=8,
                      law=ComplexGaussian(1.0), seed=1),
            ModelSpec(model="wigner_blocks", d=2, N=8,
                      law=ComplexGaussian(1.0), seed=2),
            ModelSpec(model="kronecker", d=2, N=8, seed=3,
                      betas=(np.eye(2), np.array([[0, 1], [0, 0.0]])),
                      sigma_l=np.eye(2)),
            ModelSpec(model="correlated_blocks", d=2, N=8, seed=4,
                      tensor=delta),
            ModelSpec(model="circulant", d=3, N=8, seed=5),
            ModelSpec(model="wishart_correlated", d=2, N=8, seed=6,
                      tensor=delta),
        ]
        gen = rng_for(272, 0)
        for spec in specs:
            x = sample_matrix(spec, 0)
            n = x.shape[0]
            ev = np.linalg.eigvalsh(x)
            z = complex(gen.uniform(-2, 2), gen.uniform(0.5, 3))
            via_inverse = np.trace(invert(z * np.eye(n) - x)) / n
            assert abs(empirical_cauchy(ev, z) - via_inverse) <= 1e-9, spec.model

    def test_negative_imaginary_part(self):
        gen = rng_for(315, 0)
        ev = gen.standard_normal(50)
        for _ in range(20):
            z = complex(gen.uniform(-3, 3), gen.uniform(0.01, 5))
            assert empirical_cauchy(ev, z).imag < 0

    def test_rejects_real_z(self):
        with pytest.raises(ValueError):
            empirical_cauchy([0.0], 1.0)

    @pytest.mark.parametrize("z", NON_FINITE_Z, ids=NON_FINITE_IDS)
    def test_rejects_a_non_finite_z(self, z):
        with pytest.raises(ValueError, match="finite with nonzero imaginary part"):
            empirical_cauchy([0.0, 1.0], z)


class TestEmpiricalCDF:
    def test_step_values(self):
        f = EmpiricalCDF([1.0, 2.0, 3.0])
        assert f(0.5) == 0.0
        assert f(1.0) == pytest.approx(1 / 3)
        assert f(2.5) == pytest.approx(2 / 3)
        assert f(3.0) == 1.0

    def test_ties_accumulate(self):
        f = EmpiricalCDF([1.0, 1.0, 2.0])
        assert f(1.0) == pytest.approx(2 / 3)

    def test_monotone_in_unit_range(self):
        pts = rng_for(12, 0).standard_normal(40)
        f = EmpiricalCDF(pts)
        xs = np.linspace(-4, 4, 300)
        vals = f(xs)
        assert np.all(np.diff(vals) >= 0)
        assert vals.min() >= 0 and vals.max() <= 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])


def normal_cdf(x):
    from math import erf
    x = np.asarray(x, dtype=float)
    return 0.5 * (1 + np.vectorize(erf)(x / np.sqrt(2)))


class TestKolmogorovDistance:
    def test_exact_discretization_bound(self):
        # step approximation of a continuous CDF is within 1/n
        n = 50
        qs = (np.arange(1, n + 1) - 0.5) / n
        from scipy.stats import norm
        pts = norm.ppf(qs)
        assert kolmogorov_distance(EmpiricalCDF(pts), normal_cdf) <= 1.0 / n

    def test_quantile_construction_bound(self):
        n = 200
        from scipy.stats import norm
        pts = norm.ppf(np.arange(1, n + 1) / (n + 1))
        d = kolmogorov_distance(EmpiricalCDF(pts), normal_cdf)
        assert d <= 1.0 / (n + 1) + 1e-9

    def test_detects_two_sided_gap(self):
        # single point at the median: both one-sided gaps are 1/2
        assert kolmogorov_distance(EmpiricalCDF([0.0]), normal_cdf) == pytest.approx(0.5)

    def test_swap_symmetry_within_resolution(self):
        # treating either measure as the step function agrees within 1/n
        gen = rng_for(77, 7)
        sample = np.sort(gen.standard_normal(100))
        n = sample.size
        d1 = kolmogorov_distance(EmpiricalCDF(sample), normal_cdf)
        from scipy.stats import norm
        m = 20000
        fine = norm.ppf((np.arange(1, m + 1) - 0.5) / m)
        ecdf = EmpiricalCDF(sample)
        d2 = kolmogorov_distance(EmpiricalCDF(fine), lambda x: ecdf(x))
        assert abs(d1 - d2) <= 1.0 / n + 1.0 / m


class TestMeanCauchy:
    def test_deterministic_model_zero_stderr(self):
        spec = ModelSpec(model="hermitized_iid", d=1, N=4,
                         law=TwoPoint(0.3, 0.3, 0.5), seed=5)
        res = mean_cauchy(spec, [2j], trials=5)
        assert res.stderr[0] <= 1e-15   # identical trials, summation roundoff

    def test_stderr_scaling(self):
        spec = ModelSpec(model="hermitized_iid", d=1, N=32,
                         law=ComplexGaussian(1.0), seed=1234)
        base = mean_cauchy(spec, [3j], trials=64)
        double = mean_cauchy(spec, [3j], trials=128)
        ratio = base.stderr[0] / double.stderr[0]
        assert abs(ratio - np.sqrt(2)) <= 0.2 * np.sqrt(2)

    def test_semicircle_oracle(self):
        spec = ModelSpec(model="hermitized_iid", d=1, N=256,
                         law=ComplexGaussian(1.0), seed=2024)
        res = mean_cauchy(spec, [3j], trials=50)
        target = scalar_semicircle_cauchy(1.0, 3j)
        assert abs(res.mean[0] - target) <= 3 * res.stderr[0]

    def test_requires_two_trials(self):
        spec = ModelSpec(model="hermitized_iid", d=1, N=4,
                         law=ComplexGaussian(1.0), seed=5)
        with pytest.raises(ValueError):
            mean_cauchy(spec, [2j], trials=1)

    @pytest.mark.parametrize("z", [1.0] + NON_FINITE_Z, ids=["real"] + NON_FINITE_IDS)
    def test_rejects_a_real_or_non_finite_z_before_any_trial(self, monkeypatch, z):
        def draw(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(esd, "hermitian_blocks", draw)
        spec = ModelSpec(model="hermitized_iid", d=1, N=4,
                         law=ComplexGaussian(1.0), seed=5)
        with pytest.raises(ValueError, match="finite with nonzero imaginary part"):
            mean_cauchy(spec, [2j, z], trials=2)

    @pytest.mark.parametrize("spec", [
        ModelSpec(model="circulant", d=3, N=8, seed=5),
        ModelSpec(model="circulant", d=4, N=7, seed=6),
        ModelSpec(model="wigner_blocks", d=3, N=6, law=Rademacher(), seed=7),
    ], ids=["circulant-d3", "circulant-d4", "wigner_blocks"])
    def test_matches_eigenvalue_route(self, spec):
        zs = [2j, 0.3 + 0.05j]
        res = mean_cauchy(spec, zs, trials=4)
        mean, se = trial_mean(
            lambda t: np.array([empirical_cauchy(spectrum(spec, t), z)
                                for z in zs]), 4)
        assert np.allclose(res.mean, mean, rtol=0, atol=1e-13 / 0.05 ** 2)
        assert np.allclose(res.stderr, se, rtol=0, atol=1e-13 / 0.05 ** 2)


class TestResolventTraceOfSamples:
    """linalg.resolvent_trace on sampled matrices up to n = 512."""

    @pytest.mark.parametrize("spec", [
        ModelSpec(model="wigner_blocks", d=3, N=N, law=Rademacher(), seed=N)
        for N in (1, 2, 17, 170)
    ] + [
        ModelSpec(model="hermitized_iid", d=2, N=N,
                  law=ComplexGaussian(1.0), seed=N)
        for N in (1, 3, 64, 256)
    ], ids=lambda s: f"{s.model}-n{s.d * s.N}")
    def test_matches_eigenvalues(self, spec):
        m = sample_matrix(spec, 1)
        ev = np.linalg.eigvalsh(m)
        zs = [3j, 0.5 + 0.1j, 1.9 + 1e-4j, -0.7 + 1e-6j]
        for z, got in zip(zs, resolvent_trace(m, zs)):
            tol = 1e-13 * max(1.0, z.imag ** -2)
            assert abs(got - np.mean(1.0 / (z - ev))) <= tol, z

    def test_trial_peak(self):
        # one n = 256 trial: the sample (1 MiB), then its trace, which holds
        # at most T M12 or the Schur complement, U^T T^T and W at n/2 next to
        # the sample and the inverse's own buffers: 2.13 MiB traced, where
        # holding T, U, S and T M12 at once read 2.38 MiB
        spec = ModelSpec(model="hermitized_iid", d=2, N=128,
                         law=ComplexGaussian(1.0), seed=4)
        resolvent_trace(sample_matrix(spec, 0), [3j])      # warm numpy's caches
        tracemalloc.start()
        try:
            resolvent_trace(sample_matrix(spec, 1), [3j])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 2 ** 20, peak / 2 ** 20


class TestTrialMean:
    def test_real_statistic_stays_real(self):
        mean, se = trial_mean(lambda t: float(t), 4)
        assert not np.iscomplexobj(mean) and not np.iscomplexobj(se)
        assert mean == 1.5
        assert se == np.std([0.0, 1.0, 2.0, 3.0], ddof=1) / 2.0

    def test_complex_stderr_is_larger_component(self):
        # real parts spread 2 apart, imaginary parts 4 apart
        mean, se = trial_mean(lambda t: complex(2 * t, 4 * t), 2)
        assert mean == complex(1, 2)
        assert se == np.std([0.0, 4.0], ddof=1) / np.sqrt(2)

    def test_rows_reduce_over_the_trial_axis(self):
        mean, se = trial_mean(lambda t: np.array([t, 10.0 * t]), 3)
        assert mean.shape == se.shape == (2,)
        assert np.array_equal(mean, [1.0, 10.0])

    def test_serial_one_sample_alive_reduced_in_trial_order(self):
        alive, peak, stages = [0], [0], []

        class Sample:
            def __init__(self, t):
                self.t = t
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])

            def __del__(self):
                alive[0] -= 1

        def draw(t):
            stages.append(("draw", t, threading.get_ident()))
            return Sample(t)

        def reduce(sample):
            stages.append(("reduce", sample.t, threading.get_ident()))
            return complex(sample.t, sample.t ** 2)

        mean, se = trial_mean(draw, 7, reduce=reduce)
        caller = threading.get_ident()
        assert stages == [(stage, t, caller) for t in range(7)
                          for stage in ("draw", "reduce")]
        assert peak[0] == 1 and alive[0] == 0
        data = np.array([complex(t, t ** 2) for t in range(7)])
        assert mean == data.mean()
        assert se == data.imag.std(ddof=1) / np.sqrt(7)

    @pytest.mark.parametrize("trials", [1, 0, -1])
    def test_rejects_fewer_than_two_trials_before_running(self, trials):
        ran = []
        with pytest.raises(ValueError, match="at least 2 trials"):
            trial_mean(ran.append, trials)
        assert ran == []


def _helper_threads():
    return [t for t in threading.enumerate() if t.name == "dyson-blocks-draw"]


class TestOverlappedTrials:
    """trial_mean(..., overlap=True) and mean_cauchy's overlapped loop."""

    @staticmethod
    def counted_samples():
        lock, alive, peak = threading.Lock(), [0], [0]

        class Sample:
            def __init__(self, t):
                self.t = t
                with lock:
                    alive[0] += 1
                    peak[0] = max(peak[0], alive[0])

            def __del__(self):
                with lock:
                    alive[0] -= 1

        return Sample, alive, peak

    def test_two_samples_alive_draws_on_one_helper_reduced_in_trial_order(self):
        Sample, alive, peak = self.counted_samples()
        trials = 7
        drawn = [threading.Event() for _ in range(trials)]
        draws, reductions = [], []

        def draw(t):
            draws.append((t, threading.get_ident()))
            drawn[t].set()
            return Sample(t)

        def reduce(sample):
            # the next trial's draw starts while this trial is reduced
            if sample.t + 1 < trials:
                assert drawn[sample.t + 1].wait(10.0)
            reductions.append((sample.t, threading.get_ident()))
            return complex(sample.t, sample.t ** 2)

        mean, se = trial_mean(draw, trials, reduce=reduce, overlap=True)
        caller = threading.get_ident()
        assert [t for t, _ in draws] == list(range(trials))
        helpers = {ident for _, ident in draws}
        assert len(helpers) == 1 and caller not in helpers
        assert reductions == [(t, caller) for t in range(trials)]
        assert peak[0] == 2 and alive[0] == 0
        assert _helper_threads() == []
        serial = trial_mean(lambda t: complex(t, t ** 2), trials)
        assert mean == serial[0] and se == serial[1]

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_a_draw_that_raises_at_trial_k_raises_from_the_call(self, k):
        failure = RuntimeError(f"draw {k} failed")
        reduced = []

        def draw(t):
            if t == k:
                raise failure
            return t

        with pytest.raises(RuntimeError) as info:
            trial_mean(draw, 7, reduce=lambda t: reduced.append(t) or float(t),
                       overlap=True)
        assert info.value is failure
        assert reduced == list(range(k))
        assert _helper_threads() == []

    def test_a_reduction_that_raises_stops_the_helper(self):
        drawn = []

        def reduce(t):
            if t == 2:
                raise KeyError("reduce 2")
            return float(t)

        with pytest.raises(KeyError, match="reduce 2"):
            trial_mean(lambda t: drawn.append(t) or t, 50, reduce=reduce, overlap=True)
        assert _helper_threads() == []
        assert drawn == list(range(len(drawn))) and len(drawn) <= 4

    def spec(self, N=16, d=2, law=None):
        return ModelSpec(model="hermitized_iid", d=d, N=N,
                         law=law or ComplexGaussian(1.0), seed=9)

    def spied(self, monkeypatch):
        """Thread of each draw and each reduction of mean_cauchy's trials,
        and the BLAS thread count each one saw."""
        get = linalg._blas_thread_calls()[0]
        stages = []
        blocks, row = esd.hermitian_blocks, esd._trial_row

        def draw(spec, t):
            stages.append(("draw", t, threading.get_ident(), get()))
            return blocks(spec, t)

        def reduce(sample, zs):
            stages.append(("reduce", None, threading.get_ident(), get()))
            return row(sample, zs)

        monkeypatch.setattr(esd, "hermitian_blocks", draw)
        monkeypatch.setattr(esd, "_trial_row", reduce)
        return stages

    @needs_blas_calls
    def test_mean_cauchy_draws_on_a_helper_at_one_blas_thread(self, monkeypatch):
        get = linalg._blas_thread_calls()[0]
        before = get()
        stages = self.spied(monkeypatch)
        res = mean_cauchy(self.spec(), [3j, 0.5 + 1j], 5)
        caller = threading.get_ident()
        draws = [s for s in stages if s[0] == "draw"]
        reductions = [s for s in stages if s[0] == "reduce"]
        assert [s[1] for s in draws] == list(range(5))
        assert len({s[2] for s in draws}) == 1 and draws[0][2] != caller
        assert {s[2] for s in reductions} == {caller}
        assert {s[3] for s in stages} == {1}
        assert get() == before
        assert _helper_threads() == []
        # the serial loop, on the caller, has the same bits at this size
        monkeypatch.setattr(linalg, "_blas_thread_calls", lambda: None)
        serial = mean_cauchy(self.spec(), [3j, 0.5 + 1j], 5)
        assert res.mean.tobytes() == serial.mean.tobytes()
        assert res.stderr.tobytes() == serial.stderr.tobytes()

    def test_without_the_blas_calls_the_trials_run_serially(self, monkeypatch):
        monkeypatch.setattr(linalg, "_blas_thread_calls", lambda: None)
        stages = []
        blocks = esd.hermitian_blocks

        def draw(spec, t):
            stages.append(threading.get_ident())
            return blocks(spec, t)

        monkeypatch.setattr(esd, "hermitian_blocks", draw)
        mean_cauchy(self.spec(), [3j], 4)
        assert stages == [threading.get_ident()] * 4

    @pytest.mark.parametrize("k", [0, 2])
    def test_a_failing_draw_restores_the_blas_count_and_stops_the_helper(
            self, monkeypatch, k):
        calls = linalg._blas_thread_calls()
        before = calls[0]() if calls else None
        if k == 0:
            # a pool sized for N = 3 cannot fill the N = 4 draw
            spec = self.spec(N=4, d=1, law=PermutationPool(np.arange(9.0)))
            match = "pool size 9 != 16 entry draws"
        else:
            blocks = esd.hermitian_blocks

            def draw(spec, t):
                if t == k:
                    raise ValueError(f"draw {t} failed")
                return blocks(spec, t)

            monkeypatch.setattr(esd, "hermitian_blocks", draw)
            spec, match = self.spec(), f"draw {k} failed"
        with pytest.raises(ValueError, match=match):
            mean_cauchy(spec, [3j], 5)
        assert _helper_threads() == []
        if calls:
            assert calls[0]() == before

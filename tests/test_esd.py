import numpy as np
import pytest

from dyson_blocks.dyson import scalar_semicircle_cauchy
from dyson_blocks.esd import (EmpiricalCDF, empirical_cauchy,
                              kolmogorov_distance, mean_cauchy, trial_mean)
from dyson_blocks.linalg import invert
from dyson_blocks.sampler import (ComplexGaussian, ModelSpec, TwoPoint,
                                  rng_for)


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
        from dyson_blocks.sampler import sample_matrix
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
        assert f.left_limit(1.0) == 0.0

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
    def test_identical_step_sets(self):
        pts = np.array([0.0, 1.0, 2.0, 5.0])
        f = EmpiricalCDF(pts)
        assert kolmogorov_distance(f, EmpiricalCDF(pts)) == 0.0

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

    def test_worker_invariance(self):
        spec = ModelSpec(model="hermitized_iid", d=1, N=16,
                         law=ComplexGaussian(1.0), seed=77)
        serial = mean_cauchy(spec, [2j, 1 + 1j], trials=8, workers=None)
        threaded = mean_cauchy(spec, [2j, 1 + 1j], trials=8, workers=4)
        assert np.array_equal(serial.mean, threaded.mean)
        assert np.array_equal(serial.stderr, threaded.stderr)

    def test_requires_two_trials(self):
        spec = ModelSpec(model="hermitized_iid", d=1, N=4,
                         law=ComplexGaussian(1.0), seed=5)
        with pytest.raises(ValueError):
            mean_cauchy(spec, [2j], trials=1)


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

    @pytest.mark.parametrize("trials", [1, 0, -1])
    def test_rejects_fewer_than_two_trials_before_running(self, trials):
        ran = []
        with pytest.raises(ValueError, match="at least 2 trials"):
            trial_mean(ran.append, trials)
        assert ran == []

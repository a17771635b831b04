import numpy as np
import pytest

import dyson_blocks
from dyson_blocks import experiments, sampler
from dyson_blocks.dyson import mixture_cauchy, circulant_mixture
from dyson_blocks.esd import empirical_cauchy, mean_cauchy
from dyson_blocks.eta import CovarianceTensor, EtaPair, eta_kronecker
from dyson_blocks.experiments import (analytic_trace_cauchy,
                                      circulant_ks_experiment, derived_seed,
                                      hermitization_cauchy_pair, model_eta,
                                      rate_experiment, rate_threshold,
                                      universality_experiment,
                                      wishart_consistency_experiment)
from dyson_blocks.sampler import (MODELS, ComplexGaussian, ModelSpec,
                                  PermutationPool, Rademacher, RealGaussian,
                                  TwoPoint, sample_wishart_factor)

I2 = np.eye(2, dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)


def delta_tensor(d):
    eye = np.eye(d)
    return CovarianceTensor(np.einsum("ik,jl->ijkl", eye, eye))


def adjoint_symmetric_tensor(d, key):
    gen = np.random.Generator(np.random.Philox(key=[key, 1]))
    f = gen.standard_normal((d * d, d * d)) + 1j * gen.standard_normal((d * d, d * d))
    sig = f @ f.conj().T / (d * d)
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    sig = (sig + swap @ sig.T @ swap) / 2
    return CovarianceTensor(sig.reshape(d, d, d, d))


# bulk, near-edge and near-axis points for the circulant limit
CIRCULANT_ZS = (3j, 0.5 + 2j, 1.7 + 1e-3j, -2.1 + 0.05j, 0.2 + 1e-2j)


class TestModelEta:
    def test_hermitized_iid_flat(self):
        spec = ModelSpec(model="hermitized_iid", d=2, N=8,
                         law=ComplexGaussian(1.0), seed=0)
        eta = model_eta(spec)
        b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        assert np.allclose(eta.apply(b), np.trace(b) * I2)
        assert np.isclose(eta.cp_norm(), 2.0)

    def test_scalar_pool_variance(self):
        spec = ModelSpec(model="hermitized_iid", d=1, N=2,
                         law=PermutationPool([1.0, -1.0, 1.0, -1.0]), seed=0)
        eta = model_eta(spec)
        assert np.allclose(eta.apply([[1.0]]), [[1.0]])

    def test_kronecker_and_wishart_dispatch(self):
        spec = ModelSpec(model="kronecker", d=2, N=4, seed=0,
                         betas=(I2, E12), sigma_l=np.eye(2))
        assert np.array_equal(model_eta(spec).choi4,
                              eta_kronecker(spec.betas, spec.sigma_l).choi4)
        spec_w = ModelSpec(model="wishart_correlated", d=2, N=4, seed=0,
                           tensor=delta_tensor(2))
        assert isinstance(model_eta(spec_w), EtaPair)

    def test_circulant_closed_form(self):
        # the circulant's own map, solved, is the semicircle mixture with
        # its variances scaled by the law's variance v (1 without a law)
        for d in range(2, 9):
            w, t = circulant_mixture(d)
            for law, v in ((None, 1.0), (ComplexGaussian(4.0), 4.0)):
                spec = ModelSpec(model="circulant", d=d, N=10, seed=0, law=law)
                for z in CIRCULANT_ZS:
                    ref = mixture_cauchy(w, [v * x for x in t], z)
                    got = analytic_trace_cauchy(spec, z)
                    assert abs(got - ref) <= 1e-10 * abs(ref), (d, v, z)

    # one spec's data for every model: its limit map must be completely
    # positive, or an EtaPair of two completely positive maps
    MODEL_DATA = {
        "hermitized_iid": dict(law=ComplexGaussian(2.0)),
        "wigner_blocks": dict(law=PermutationPool([E12, -E12, E12.T, -E12.T,
                                                   I2, -I2])),
        "kronecker": dict(betas=(I2, E12), sigma_l=np.eye(2)),
        "correlated_blocks": dict(tensor=adjoint_symmetric_tensor(2, key=9)),
        "circulant": dict(law=TwoPoint(2.0, -2.0, 0.5)),
        "wishart_correlated": dict(tensor=delta_tensor(2)),
    }

    @pytest.mark.parametrize("model", MODELS)
    def test_every_model_has_a_cp_limit(self, model):
        eta = model_eta(ModelSpec(model=model, d=2, N=4, seed=0,
                                  **self.MODEL_DATA[model]))
        maps = (eta.eta1, eta.eta2) if isinstance(eta, EtaPair) else (eta,)
        assert all(m.d == 2 and m.is_completely_positive() for m in maps)

    def test_one_limit_table(self):
        assert experiments.model_eta is sampler.model_eta
        assert dyson_blocks.model_eta is sampler.model_eta



class TestCirculantLimit:
    @pytest.mark.parametrize("law", [ComplexGaussian(4.0), TwoPoint(2.0, -2.0, 0.5)],
                             ids=["complex_gaussian-4", "two_point"])
    def test_draw_matches_limit(self, law):
        # both laws have variance 4: the draw and the limit read one slot table
        spec = ModelSpec(model="circulant", d=3, N=200, law=law, seed=1)
        z = 0.5 + 2j
        res = mean_cauchy(spec, [z], trials=20)
        assert abs(res.mean[0] - analytic_trace_cauchy(spec, z)) <= 3 * res.stderr[0]

    def test_rate_threshold(self):
        # ||eta||^(1/2): sqrt(v (2d - 2)/d) for even d, sqrt(v (2d - 1)/d) for odd d
        for d, unit in ((2, 1.0), (3, np.sqrt(5 / 3))):
            for law, scale in ((None, 1.0), (ComplexGaussian(4.0), 2.0)):
                spec = ModelSpec(model="circulant", d=d, N=8, law=law)
                assert rate_threshold(spec) == pytest.approx(scale * unit, rel=1e-12)


class TestRateExperiment:
    def zero_model(self, n=4):
        return ModelSpec(model="hermitized_iid", d=1, N=n,
                         law=TwoPoint(0.0, 0.0, 0.5), seed=0)

    def test_degenerate_zero_model(self):
        report = rate_experiment(self.zero_model(), 2j, [4, 8, 16],
                                 trials=3, seed=1)
        assert report.status == "degenerate"
        assert np.all(report.errors == 0.0)
        assert report.slope is None

    def test_resolvable_bias_fits_near_minus_one(self):
        # with enough trials the 1/N finite-size bias of the mean trace
        # resolvent rises above the noise filter; the measured decay
        # exponent of this model is -1 (the 1/sqrt(N) theorem bound is an
        # envelope, not the observed rate)
        template = ModelSpec(model="hermitized_iid", d=1, N=8,
                             law=Rademacher(), seed=0)
        report = rate_experiment(template, 3j, [8, 16, 32, 64],
                                 trials=3000, seed=7)
        assert report.status == "ok"
        assert report.points_used >= 3
        assert -1.4 <= report.slope <= -0.6
        # doubling the trials leaves the slope within its stderr band
        double = rate_experiment(template, 3j, [8, 16, 32, 64],
                                 trials=6000, seed=7)
        assert double.status == "ok"
        width = 2 * np.hypot(report.slope_stderr, double.slope_stderr) + 0.1
        assert abs(double.slope - report.slope) <= width

    def test_zero_stderr_fits_a_finite_slope(self):
        # every entry is 1, so all trials draw the same matrix and each SE
        # is 0; the fit floors it at eps |mean| instead of dividing by 0
        template = ModelSpec(model="hermitized_iid", d=1, N=4,
                             law=TwoPoint(1.0, 1.0, 0.5), seed=0)
        report = rate_experiment(template, 3j, [4, 8, 16], trials=3, seed=1)
        assert np.all(report.stderrs == 0.0)
        assert report.status == "ok" and report.points_used == 3
        assert np.isfinite(report.slope) and np.isfinite(report.slope_stderr)
        assert -1.2 <= report.slope <= -0.6

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_zero_stderr_slope_stderr_reflects_the_scatter(self, seed):
        # the SE weights alone claim a slope SE of about 2e-15, but the
        # pairwise slopes of the three points are -0.778 and -0.857
        template = ModelSpec(model="hermitized_iid", d=1, N=4,
                             law=TwoPoint(1.0, 1.0, 0.5), seed=0)
        report = rate_experiment(template, 3j, [4, 8, 16], trials=3, seed=seed)
        assert report.status == "ok"
        assert report.slope_stderr > 0.01

    @pytest.mark.parametrize("y, slope_se", [
        ([0.0, 1.0, 0.0], np.sqrt(1 / 2)),     # chi2 / (k - 2) = 2/3: unscaled
        ([0.0, 3.0, 0.0], np.sqrt(6 / 2)),     # chi2 / (k - 2) = 6
    ])
    def test_fit_scales_the_slope_variance_by_chi2(self, y, slope_se):
        # unit weights at log N = 0, 1, 2: sxx = 2 and the slope is 0
        errs = np.exp(y)
        slope, se = experiments._weighted_loglog_fit(np.exp([0.0, 1.0, 2.0]),
                                                     errs, errs)
        assert slope == pytest.approx(0.0, abs=1e-14)
        assert se == pytest.approx(slope_se, rel=1e-13)

    def test_noise_floor_detected(self):
        # few trials: |mean - g| is statistically indistinguishable from 0
        template = ModelSpec(model="hermitized_iid", d=1, N=8,
                             law=ComplexGaussian(1.0), seed=0)
        report = rate_experiment(template, 3j, [8, 16, 32], trials=8, seed=3)
        assert report.status in ("noise_floor", "ok")
        if report.status == "noise_floor":
            assert report.slope is None

    def test_deterministic_reports(self):
        template = ModelSpec(model="hermitized_iid", d=1, N=8,
                             law=Rademacher(), seed=0)
        a = rate_experiment(template, 3j, [8, 16, 32], trials=20, seed=11)
        b = rate_experiment(template, 3j, [8, 16, 32], trials=20, seed=11)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.stderrs, b.stderrs)

    def test_rejects_low_imaginary_part(self):
        template = ModelSpec(model="hermitized_iid", d=1, N=8,
                             law=Rademacher(), seed=0)
        with pytest.raises(ValueError):
            rate_experiment(template, 0.5j, [8, 16, 32], trials=4, seed=0)

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError):
            rate_experiment(self.zero_model(), 3j, [8, 16], trials=4, seed=0)

    @pytest.mark.parametrize("grid", [[0, 8, 16], [8, 8, 16]])
    def test_rejects_bad_grid(self, grid):
        with pytest.raises(ValueError, match="3 or more strictly increasing N >= 1"):
            rate_experiment(self.zero_model(), 3j, grid, trials=4, seed=0)

    @pytest.mark.parametrize("seed", [1.9, -1])
    def test_rejects_a_seed_that_is_not_a_64_bit_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            rate_experiment(self.zero_model(), 3j, [4, 8, 16], trials=3, seed=seed)


class TestUniversality:
    def test_identical_laws_agree(self):
        template = ModelSpec(model="hermitized_iid", d=1, N=64,
                             law=Rademacher(), seed=0)
        report = universality_experiment(template, Rademacher(), Rademacher(),
                                         3j, N=64, trials=40, seed=5)
        assert report.difference <= 2 * report.combined_se

    def test_variance_mismatch_rejected(self):
        template = ModelSpec(model="hermitized_iid", d=1, N=16,
                             law=Rademacher(), seed=0)
        with pytest.raises(ValueError):
            universality_experiment(template, Rademacher(), RealGaussian(2.0),
                                    3j, N=16, trials=4, seed=0)

    def test_non_centered_law_rejected(self):
        template = ModelSpec(model="hermitized_iid", d=1, N=16,
                             law=Rademacher(), seed=0)
        with pytest.raises(ValueError):
            universality_experiment(template, TwoPoint(1.0, 0.5, 0.5),
                                    Rademacher(), 3j, N=16, trials=4, seed=0)

    # both tests are relative: a defect of f 1e-12 times the law's scale s,
    # against the bound 1e-12 (1 + s), decides alike at s = 10^k; f = 0.5
    # is inside at every s, f = 2.5 outside from s = 1 on
    SCALES = [10.0 ** k for k in (0, 4, 8, 12)]

    @staticmethod
    def accepted(law_a, law_b):
        template = ModelSpec(model="hermitized_iid", d=1, N=2, law=Rademacher())
        try:
            universality_experiment(template, law_a, law_b, 3j, N=2, trials=2, seed=0)
        except ValueError as exc:
            assert "not centered" in str(exc) or "variance mismatch" in str(exc)
            return False
        return True

    @pytest.mark.parametrize("f, inside", [(0.5, True), (2.5, False)])
    def test_centring_is_relative(self, f, inside):
        for s in self.SCALES:
            law = TwoPoint(s * (1 + 2e-12 * f), -s, 0.5)    # mean f 1e-12 s
            assert self.accepted(law, RealGaussian(law.variance)) is inside, s

    @pytest.mark.parametrize("f, inside", [(0.5, True), (2.5, False)])
    def test_variance_match_is_relative(self, f, inside):
        for s in self.SCALES:
            pair = (RealGaussian(s), RealGaussian(s * (1 + 1e-12 * f)))
            assert self.accepted(*pair) is inside, s

    def test_arms_use_independent_streams(self):
        assert derived_seed(3, 0) != derived_seed(3, 1)

    def test_model_without_law_rejected(self):
        # the arms keep the template's data and set the law, which a
        # correlated-blocks model does not take
        template = ModelSpec(model="correlated_blocks", d=2, N=8,
                             tensor=delta_tensor(2), seed=0)
        with pytest.raises(ValueError, match="correlated_blocks model takes no law"):
            universality_experiment(template, Rademacher(), RealGaussian(1.0),
                                    3j, N=8, trials=2, seed=0)


class TestKroneckerNormalizationOracle:
    def test_unit_normalization_matches_sampling(self):
        # the normalization question: the solver output of eta_kronecker
        # matches sampled spectra at (d=2, L=2, N=256); the 1/L^2 variant
        # (sigma_l scaled by it) is hundreds of standard errors away
        d, L, N = 2, 2, 256
        betas = (np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex), E12)
        sigma_l = np.array([[1.0, 0.5], [0.5, 1.0]])
        z = 3j
        spec = ModelSpec(model="kronecker", d=d, N=N, seed=2024,
                         betas=betas, sigma_l=sigma_l)
        mc = mean_cauchy(spec, [z], trials=24)
        from dyson_blocks.dyson import solve_semicircular
        g_one = solve_semicircular(eta_kronecker(betas, sigma_l), z).trace()
        g_quarter = solve_semicircular(
            eta_kronecker(betas, sigma_l / L ** 2), z).trace()
        se = mc.stderr[0]
        assert abs(mc.mean[0] - g_one) <= 3 * se
        assert abs(mc.mean[0] - g_quarter) > 10 * se


class TestCorrelatedPatternOracle:
    def test_index_pattern_matches_sampling(self):
        # mandated check of the eta index pattern on an asymmetric d=2
        # tensor: the implemented sigma(i,k;j,l) contraction matches the
        # sampler; the transposed variant sigma(i,k;l,j) does not
        d, N = 2, 256
        tensor = adjoint_symmetric_tensor(d, key=555)
        z = 3j
        spec = ModelSpec(model="correlated_blocks", d=d, N=N, seed=1043,
                         tensor=tensor)
        mc = mean_cauchy(spec, [z], trials=16)
        from dyson_blocks.dyson import solve_semicircular
        from dyson_blocks.eta import eta_correlated_tensor, choi_map
        g_impl = solve_semicircular(eta_correlated_tensor(tensor), z).trace()
        # transposed variant: eta(B)_ij = (1/d) sigma(i,k;l,j) B_kl
        printed = choi_map(np.einsum("iklj->kilj", tensor.sigma) / d)
        g_printed = solve_semicircular(printed, z).trace()
        se = mc.stderr[0]
        assert abs(mc.mean[0] - g_impl) <= 3 * se
        assert abs(mc.mean[0] - g_printed) > 10 * se


class TestWishartOracles:
    def test_scale_matches_sampling_d2(self):
        # mandated check of the wishart pair on an asymmetric real d=2
        # tensor: the implemented 1/d scale matches sampling; the printed
        # 1/(2d) variant is far outside the band
        d, N = 2, 256
        gen = np.random.Generator(np.random.Philox(key=[808, 3]))
        f = gen.standard_normal((d * d, d * d))
        tensor = CovarianceTensor((f @ f.T / (d * d)).reshape(d, d, d, d))
        w = 4 + 0.5j
        spec = ModelSpec(model="wishart_correlated", d=d, N=N, seed=909,
                         tensor=tensor)
        vals = []
        for t in range(24):
            h = sample_wishart_factor(spec, t)
            ev = np.linalg.eigvalsh(h @ h.conj().T)
            vals.append(np.mean(1.0 / (w - ev)))
        vals = np.array(vals)
        mc = vals.mean()
        se = max(vals.real.std(ddof=1), vals.imag.std(ddof=1)) / np.sqrt(len(vals))
        from dyson_blocks.dyson import solve_wishart
        from dyson_blocks.eta import eta_wishart_pair, choi_map
        pair = eta_wishart_pair(tensor)
        g_impl = solve_wishart(pair, w).trace()
        half = EtaPair(choi_map(pair.eta1.choi4 / 2), choi_map(pair.eta2.choi4 / 2))
        g_half = solve_wishart(half, w).trace()
        assert abs(mc - g_impl) <= 3 * se
        assert abs(mc - g_half) > 10 * se

    def test_schur_identity_single_sample(self):
        tensor = CovarianceTensor(np.ones((1, 1, 1, 1)))
        spec = ModelSpec(model="wishart_correlated", d=1, N=50, seed=4,
                         tensor=tensor)
        h = sample_wishart_factor(spec, 0)
        z = 2 * np.exp(1j * np.pi / 4)
        lhs, rhs, _ = hermitization_cauchy_pair(h, z)
        assert abs(lhs - rhs) <= 1e-9

    # points on the ray arg z = pi/4 (Im z > 0 and Im z^2 > 0) from near 0
    # to far out, plus one high above the axis; near the real axis the
    # rounding grows like eps / (Im z)^2 and no tolerance in |z| alone holds
    RAY_Z = [r * np.exp(1j * np.pi / 4) for r in (1e-3, 0.05, 0.5, 2.0, 10.0)] + [0.1 + 10j]

    @staticmethod
    def within_ray_tol(a, b, z):
        return abs(a - b) <= 1e-13 * (1 + 1 / abs(z))

    # the Hermitization side averages z / (z^2 - sigma^2) over the singular
    # values sigma of H, taken from the resolvent traces of H H^* and H^* H
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_singular_values_match_explicit_hermitization(self, d, seed):
        gen = np.random.Generator(np.random.Philox(key=[seed, 7]))
        f = gen.standard_normal((d * d, d * d))
        tensor = CovarianceTensor((f @ f.T / (d * d)).reshape(d, d, d, d))
        spec = ModelSpec(model="wishart_correlated", d=d, N=50, seed=seed,
                         tensor=tensor)
        h = sample_wishart_factor(spec, 0)
        n = h.shape[0]
        x = np.zeros((2 * n, 2 * n), dtype=complex)
        x[:n, n:] = h
        x[n:, :n] = h.conj().T
        ev = np.linalg.eigvalsh(x)
        for z in self.RAY_Z:
            lhs, _, _ = hermitization_cauchy_pair(h, z)
            assert self.within_ray_tol(lhs, empirical_cauchy(ev, z), z), z

    # z^2 from far above the axis down to the edge of the support at 4
    GRAM_W = [10j, 1 + 1j, 0.5 + 0.01j, 4 + 0.5j, 4 + 0.01j]

    @pytest.mark.parametrize("d,N", [(1, 50), (1, 400), (2, 25), (2, 200)])
    def test_gram_trace_matches_eigenvalues(self, d, N):
        gen = np.random.Generator(np.random.Philox(key=[N, 11]))
        f = gen.standard_normal((d * d, d * d))
        tensor = CovarianceTensor((f @ f.T / (d * d)).reshape(d, d, d, d))
        spec = ModelSpec(model="wishart_correlated", d=d, N=N, seed=5,
                         tensor=tensor)
        h = sample_wishart_factor(spec, 0)
        ev = np.linalg.eigvalsh(h @ h.conj().T)
        for w in self.GRAM_W:
            z = np.sqrt(w)
            _, rhs, g_w = hermitization_cauchy_pair(h, z)
            want = empirical_cauchy(ev, w)
            assert abs(g_w - want) <= 1e-13 * max(1.0, w.imag ** -2), w
            assert rhs == z * g_w

    def test_no_spectrum_per_trial(self, monkeypatch):
        # the Monte Carlo side needs neither an SVD nor an eigensolve of the
        # sample (the sampler's eigh of the d^2 x d^2 covariance stays); the
        # solver, which takes singular values for its stability margin, is
        # solved beforehand and stubbed
        from dyson_blocks import experiments, linalg
        from dyson_blocks.dyson import solve_wishart
        from dyson_blocks.eta import eta_wishart_pair
        tensor = CovarianceTensor(np.ones((1, 1, 1, 1)))
        z = complex(np.sqrt(4 + 0.01j))
        sol = solve_wishart(eta_wishart_pair(tensor), z * z)

        def forbidden(*args, **kwargs):
            raise AssertionError("spectrum computed in a Wishart trial")

        monkeypatch.setattr(experiments, "solve_wishart", lambda *a, **k: sol)
        for name in ("svd", "eigvalsh", "eigvals"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        monkeypatch.setattr(linalg, "hermitian_eigenvalues", forbidden)
        report = wishart_consistency_experiment(tensor, z=z, N=64, trials=3,
                                                seed=12)
        assert report.max_identity_residual <= 1e-9
        assert report.solver_trace == sol.trace()

    def test_zero_tensor_identity(self):
        tensor = CovarianceTensor(np.zeros((1, 1, 1, 1)))
        spec = ModelSpec(model="wishart_correlated", d=1, N=20, seed=4,
                         tensor=tensor)
        h = sample_wishart_factor(spec, 0)
        assert not h.any()
        for z in self.RAY_Z + [1 + 1j]:
            lhs, rhs, _ = hermitization_cauchy_pair(h, z)
            assert self.within_ray_tol(lhs, 1 / z, z), z
            assert self.within_ray_tol(rhs, 1 / z, z), z

    def test_non_square_factor_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hermitization_cauchy_pair(np.ones((3, 4), dtype=complex), 1 + 1j)

    def test_experiment_report(self):
        report = wishart_consistency_experiment(
            CovarianceTensor(np.ones((1, 1, 1, 1))),
            z=2 * np.exp(1j * np.pi / 4), N=60, trials=10, seed=77)
        assert report.max_identity_residual <= 1e-9
        assert report.solver_mc_gap <= 3 * max(report.mc_stderr, 1e-6)

    def test_sector_violation_rejected(self):
        tensor = CovarianceTensor(np.ones((1, 1, 1, 1)))
        with pytest.raises(ValueError):
            wishart_consistency_experiment(tensor, z=2j, N=10, trials=3, seed=0)


class TestCirculantKs:
    def test_distances_shrink(self):
        report = circulant_ks_experiment(3, [20, 80], trials=6, seed=9)
        assert report.mean_ks[1] < report.mean_ks[0]
        assert np.all(report.mean_ks > 0)

    @pytest.mark.parametrize("grid", [[], [20, 10]])
    def test_rejects_bad_grid(self, grid):
        # the rule rate_experiment and the CLI's N_grid also check
        with pytest.raises(ValueError, match="1 or more strictly increasing N >= 1"):
            circulant_ks_experiment(2, grid, 2, 0)

    def test_d_one_refused_by_the_mixture(self):
        with pytest.raises(ValueError, match="circulant mixture needs d >= 2"):
            circulant_ks_experiment(1, [8], 2, 0)

    def test_determinism(self):
        a = circulant_ks_experiment(2, [16, 32], trials=4, seed=3)
        b = circulant_ks_experiment(2, [16, 32], trials=4, seed=3)
        assert np.array_equal(a.mean_ks, b.mean_ks)
        assert np.array_equal(a.stderr, b.stderr)

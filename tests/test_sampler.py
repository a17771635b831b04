import collections
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from dyson_blocks import sampler
from dyson_blocks.eta import CovarianceTensor
from dyson_blocks.sampler import (MODELS, ComplexGaussian, ModelSpec,
                                  PermutationPool, Rademacher, RealGaussian,
                                  TwoPoint, hermitian_blocks,
                                  matrix_from_bytes, matrix_to_bytes, rng_for,
                                  sample_matrix, sample_wishart_factor,
                                  spectrum)

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def delta_tensor(d):
    eye = np.eye(d)
    return CovarianceTensor(np.einsum("ik,jl->ijkl", eye, eye))


def exact_hermitian(m):
    return np.array_equal(m, m.conj().T)


class TestEntryLaws:
    @pytest.mark.parametrize("law,var", [
        (ComplexGaussian(1.0), 1.0),
        (ComplexGaussian(2.5), 2.5),
        (RealGaussian(1.0), 1.0),
        (Rademacher(), 1.0),
        (TwoPoint(1.0, -1.0, 0.5), 1.0),
    ])
    def test_moments(self, law, var):
        n = 100_000
        x = law.draw(rng_for(5150, 0), n)
        se_mean = np.sqrt(var / n)
        assert abs(x.mean()) <= 3 * se_mean * 1.5 + 1e-12
        sample_var = np.mean(np.abs(x - law.mean) ** 2)
        # |x|^2 has variance <= E|x|^4 <= 3 var^2 for these laws
        assert abs(sample_var - var) <= 3 * np.sqrt(3) * var / np.sqrt(n)
        assert np.isclose(law.variance, var)

    def test_two_point_mean_and_variance(self):
        law = TwoPoint(3.0, -1.0, 0.25)
        assert np.isclose(law.mean, 0.0)
        assert np.isclose(law.variance, 0.25 * 9 + 0.75 * 1)

    def test_two_point_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            TwoPoint(1.0, -1.0, 1.5)

    @pytest.mark.parametrize("a, b", [
        (float("inf"), 0.0), (0.0, float("nan")),
        (1e300, -1e300),        # finite values whose variance overflows
    ])
    def test_two_point_rejects_non_finite(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            TwoPoint(a, b, 0.5)

    def test_two_point_accepts_large_finite_variance(self):
        assert np.isclose(TwoPoint(1e150, -1e150, 0.5).variance, 1e300)

    def test_pool_statistics(self):
        pool = PermutationPool([1.0, -1.0, 1.0, -1.0])
        assert pool.mean == 0.0
        assert pool.variance == 1.0
        drawn = pool.draw(rng_for(1, 0), 4)
        assert sorted(drawn.real.tolist()) == [-1.0, -1.0, 1.0, 1.0]
        drawn[:] = 7.0      # a draw is a copy, never a view of the pool
        assert sorted(pool.draw(rng_for(1, 0), 4).real.tolist()) == [-1.0, -1.0, 1.0, 1.0]

    def test_pool_size_mismatch(self):
        with pytest.raises(ValueError):
            PermutationPool([1.0, -1.0]).draw(rng_for(1, 0), 3)

    def test_keys_above_2_63_stay_distinct(self):
        # a list key holding 2^63 or more becomes float64 in numpy, which
        # maps neighbouring seeds to one stream
        high = 2 ** 63 + 0x1234
        draws = {rng_for(s, 0).integers(2 ** 62) for s in range(high, high + 8)}
        assert len(draws) == 8
        assert rng_for(high, 0).integers(2 ** 62) != rng_for(high, 1).integers(2 ** 62)
        # keys below 2^63 keep the stream a list key gives
        low = np.random.Generator(np.random.Philox(key=[2 ** 63 - 1, 5]))
        assert rng_for(2 ** 63 - 1, 5).integers(2 ** 62) == low.integers(2 ** 62)

    @pytest.mark.parametrize("trial", [-1, 2 ** 64, 10 ** 30])
    def test_trial_outside_64_bits_rejected(self, trial):
        with pytest.raises(ValueError, match="trial index"):
            rng_for(1, trial)

    @pytest.mark.parametrize("trial", [1.5, 1.0, True, np.float64(2.0)])
    def test_non_integer_trial_rejected(self, trial):
        # int(1.5) would key trial 1's stream
        with pytest.raises(ValueError, match="trial index must be an integer"):
            rng_for(3, trial)

    @pytest.mark.parametrize("seed", [1.5, -1, 2 ** 64, True])
    def test_rng_seed_must_be_a_64_bit_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            rng_for(seed, 0)

    def test_numpy_integers_accepted(self):
        assert (rng_for(np.uint64(3), np.int64(1)).integers(2 ** 62)
                == rng_for(3, 1).integers(2 ** 62))

    def test_largest_trial_accepted(self):
        assert rng_for(1, 2 ** 64 - 1).integers(2 ** 62) != rng_for(1, 0).integers(2 ** 62)

    def test_derived_arm_seeds_give_distinct_spectra(self):
        from dyson_blocks.experiments import derived_seed
        spectra = [spectrum(ModelSpec(model="circulant", d=3, N=4,
                                      seed=derived_seed(s, 1)), 0)
                   for s in (1, 2, 3)]
        assert all(derived_seed(s, 1) >= 2 ** 63 for s in (1, 2, 3))
        assert not np.array_equal(spectra[0], spectra[1])
        assert not np.array_equal(spectra[1], spectra[2])

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError, match="trial"):
            rng_for(1, -1)

    def test_pool_permutation_uniform(self):
        # all 24 arrangements of a size-4 pool within 3 sigma of 1/24
        counts = collections.Counter()
        trials = 10_000
        for t in range(trials):
            counts[tuple(rng_for(7, t).permutation(4))] += 1
        assert len(counts) == 24
        expected = trials / 24
        sd = np.sqrt(trials * (1 / 24) * (23 / 24))
        assert max(abs(c - expected) for c in counts.values()) <= 3 * sd


class TestHermitized:
    def test_deterministic_two_point(self):
        spec = ModelSpec(model="hermitized_iid", d=1, N=1,
                         law=TwoPoint(0.7, 0.7, 0.5), seed=1)
        a = sample_matrix(spec)
        assert np.allclose(a, [[2 * 0.7 / np.sqrt(2)]])

    def test_exactly_hermitian(self):
        spec = ModelSpec(model="hermitized_iid", d=2, N=10,
                         law=ComplexGaussian(1.0), seed=3)
        assert exact_hermitian(sample_matrix(spec, 5))

    def test_golden_seeded_matrix(self):
        # frozen from the reference run of the seeded generator
        spec = ModelSpec(model="hermitized_iid", d=1, N=2,
                         law=Rademacher(), seed=20240817)
        golden = np.array([[1.0 + 0j, 0.0 + 0j], [0.0 + 0j, -1.0 + 0j]])
        assert np.array_equal(sample_matrix(spec, 0), golden)

    def test_bit_exact_reproducibility_across_threads(self):
        spec = ModelSpec(model="hermitized_iid", d=2, N=16,
                         law=ComplexGaussian(1.0), seed=99)
        serial = [sample_matrix(spec, t) for t in range(8)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda t: sample_matrix(spec, t),
                                     range(8)))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)
        assert not np.array_equal(serial[0], serial[1])


class TestHermitianFill:
    @staticmethod
    def loop_fill(blocks, N, lower):
        # the slots of np.tril_indices(N) or np.triu_indices(N), one by one
        d = blocks.shape[-1]
        out = np.zeros((N * d, N * d), dtype=np.complex128)
        slots = [(r, c) for r in range(N) for c in range(N)
                 if (c <= r if lower else c >= r)]
        for (r, c), b in zip(slots, blocks, strict=True):
            adj = b.conj().T
            if r == c:
                out[r * d:(r + 1) * d, r * d:(r + 1) * d] = (b + adj) / 2.0
            else:
                out[r * d:(r + 1) * d, c * d:(c + 1) * d] = b
                out[c * d:(c + 1) * d, r * d:(r + 1) * d] = adj
        return out

    # tril: the fill of its own lower-triangle blocks; triu: the blocks
    # correlated_blocks draws for the upper triangle, which it passes as
    # the adjoints of their mirror slots (_mirror_to_tril)
    @pytest.mark.parametrize("lower", [True, False], ids=["tril", "triu"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 2, 7])
    def test_matches_loop_byte_for_byte(self, N, d, lower):
        from dyson_blocks.sampler import _hermitian_fill, _mirror_to_tril
        gen = rng_for(40 + d, N)
        n = N * (N + 1) // 2
        blocks = gen.standard_normal((n, d, d)) + 1j * gen.standard_normal((n, d, d))
        blocks[0, 0, 0] = complex(-0.0, -0.0)       # on slot (0, 0)
        blocks[-1, 0, -1] = complex(-0.0, 0.0)      # on slot (N - 1, N - 1)
        blocks[n // 2, -1, 0] = complex(0.0, -0.0)  # off the diagonal for N > 1
        out = _hermitian_fill(blocks if lower else _mirror_to_tril(blocks, N), N)
        assert out.shape == (N * d, N * d)
        assert out.tobytes() == self.loop_fill(blocks, N, lower).tobytes()


class TestWignerBlocks:
    def test_deterministic_diagonal(self):
        spec = ModelSpec(model="wigner_blocks", d=1, N=1,
                         law=TwoPoint(0.7, 0.7, 0.5), seed=1)
        assert np.allclose(sample_matrix(spec), [[0.7]])

    def test_exactly_hermitian(self):
        spec = ModelSpec(model="wigner_blocks", d=3, N=7,
                         law=ComplexGaussian(1.0), seed=2)
        assert exact_hermitian(sample_matrix(spec, 1))

    def test_offdiagonal_variance(self):
        n = 64
        spec = ModelSpec(model="wigner_blocks", d=1, N=n,
                         law=ComplexGaussian(1.0), seed=31)
        entries = []
        for t in range(6):
            m = sample_matrix(spec, t)
            entries.append(m[np.triu_indices(n, k=1)])
        entries = np.concatenate(entries)
        var = np.mean(np.abs(entries) ** 2)
        se = np.sqrt(2.0) / n / np.sqrt(entries.size)
        assert abs(var - 1.0 / n) <= 3 * se

    def test_one_sided_matrix_pool_refused(self):
        # x below the diagonal and x^* above: for the pool +-E12,
        # E[x B x^*] != E[x^* B x], so no single d x d limit exists;
        # hermitized_iid puts both in every slot and takes the pool, and
        # the golden pool, closed under adjoints, is taken by both
        pool = PermutationPool([E12, -E12] * 3)
        with pytest.raises(ValueError, match=r"E\[x B x\^\*\] = E\[x\^\* B x\]"):
            ModelSpec(model="wigner_blocks", d=2, N=2, law=pool)
        ModelSpec(model="hermitized_iid", d=2, N=2, law=pool)
        ModelSpec(model="wigner_blocks", d=2, N=3, law=TestGoldenHashes.POOL)


class TestKronecker:
    def base_spec(self, sigma, N=16, seed=5):
        return ModelSpec(model="kronecker", d=2, N=N, seed=seed,
                         betas=(I2, E12), sigma_l=np.asarray(sigma))

    def test_zero_sigma_gives_zero_matrix(self):
        m = sample_matrix(self.base_spec(np.zeros((2, 2))))
        assert np.array_equal(m, np.zeros_like(m))

    def test_exactly_hermitian(self):
        assert exact_hermitian(sample_matrix(self.base_spec(np.eye(2)), 4))
        # generic betas overlap, so the adjoint terms must not be summed one
        # by one beside the direct ones
        gen = np.random.Generator(np.random.Philox(key=[183, 1]))
        for L in (2, 3):
            betas = tuple(gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
                          for _ in range(L))
            spec = ModelSpec(model="kronecker", d=2, N=16, seed=5, betas=betas,
                             sigma_l=np.eye(L))
            for trial in range(4):
                assert exact_hermitian(sample_matrix(spec, trial))

    def test_cross_covariance(self):
        # Cov(y1, conj y2) = 0.5 within 3 standard errors over 1e5 draws
        rho = 0.5
        sigma = np.array([[1.0, rho], [rho, 1.0]])
        factor_spec = self.base_spec(sigma, N=100, seed=8)
        from dyson_blocks.sampler import _standard_complex
        draws = (_standard_complex(rng_for(8, 0), (100_000, 2))
                 @ factor_spec.sigma_factor.T)
        cross = np.mean(draws[:, 0] * np.conj(draws[:, 1]))
        assert abs(cross - rho) <= 3 / np.sqrt(100_000)
        assert abs(np.mean(np.abs(draws[:, 0]) ** 2) - 1.0) <= 3 * 2 / np.sqrt(100_000)

    def test_rejects_non_psd_sigma(self):
        with pytest.raises(ValueError):
            self.base_spec(np.array([[1.0, 3.0], [3.0, 1.0]]))

    def test_rejects_non_hermitian_sigma(self):
        # eigh reads one triangle only, so unchecked this draws like sigma_l = I
        with pytest.raises(ValueError, match="sigma_l must be Hermitian"):
            self.base_spec(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_nan_sigma(self):
        with pytest.raises(ValueError, match="sigma_l must be Hermitian"):
            self.base_spec(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_rejects_sigma_of_wrong_size(self):
        with pytest.raises(ValueError, match="sigma_l must be 2x2"):
            self.base_spec(np.eye(3))


class TestCorrelatedBlocks:
    def test_uncorrelated_second_moment(self):
        spec = ModelSpec(model="correlated_blocks", d=2, N=64, seed=7,
                         tensor=delta_tensor(2))
        ev = spectrum(spec, 0)
        assert abs(np.mean(ev ** 2) - 1.0) < 0.1

    def test_zero_tensor(self):
        spec = ModelSpec(model="correlated_blocks", d=2, N=8, seed=7,
                         tensor=CovarianceTensor(np.zeros((2, 2, 2, 2))))
        m = sample_matrix(spec)
        assert np.array_equal(m, np.zeros_like(m))

    def test_exactly_hermitian(self):
        spec = ModelSpec(model="correlated_blocks", d=2, N=20, seed=9,
                         tensor=delta_tensor(2))
        assert exact_hermitian(sample_matrix(spec, 2))

    def test_block_covariance_matches_tensor(self):
        # empirical covariance of same-position entries across blocks
        d = 2
        gen = np.random.Generator(np.random.Philox(key=[4242, 0]))
        f = gen.standard_normal((d * d, d * d)) + 1j * gen.standard_normal((d * d, d * d))
        sig = f @ f.conj().T / (d * d)
        swap = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                swap[i * d + j, j * d + i] = 1.0
        sig = (sig + swap @ sig.T @ swap) / 2
        tensor = CovarianceTensor(sig.reshape(d, d, d, d))
        assert tensor.has_adjoint_symmetry
        N = 40
        spec = ModelSpec(model="correlated_blocks", d=d, N=N, seed=12,
                         tensor=tensor)
        vecs = []
        scale = np.sqrt(d * N)
        for t in range(60):
            m = sample_matrix(spec, t).reshape(N, d, N, d)
            # strictly-upper positions carry the raw draws (times 1/sqrt(dN))
            r, p = np.triu_indices(N, k=1)
            vecs.append((m[r, :, p, :] * scale).reshape(-1, d * d))
        v = np.concatenate(vecs)
        emp = v.T @ v.conj() / v.shape[0]
        n = v.shape[0]
        # 4th-moment bound: entries of the sample covariance have SE <= ~2/sqrt(n)
        se = 2.0 * np.sqrt(np.outer(np.diag(sig).real, np.diag(sig).real)) / np.sqrt(n)
        assert np.all(np.abs(emp - sig) <= 3 * se)

    @pytest.mark.parametrize("N, d", [(1, 2), (3, 1), (5, 3)])
    def test_draws_fill_the_upper_triangle(self, N, d):
        # the sample is the upper-triangle loop fill of the draws, to the byte
        from dyson_blocks.sampler import _standard_complex
        spec = ModelSpec(model="correlated_blocks", d=d, N=N, seed=21,
                         tensor=delta_tensor(d))
        n = N * (N + 1) // 2
        v = _standard_complex(rng_for(21, 4), (n, d * d)) @ spec.tensor.factor.T
        want = TestHermitianFill.loop_fill(v.reshape(n, d, d), N, lower=False)
        assert sample_matrix(spec, 4).tobytes() == (want / np.sqrt(d * N)).tobytes()

    def test_rejects_tensor_without_adjoint_symmetry(self):
        gen = np.random.Generator(np.random.Philox(key=[11, 0]))
        f = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        tensor = CovarianceTensor((f @ f.conj().T).reshape(2, 2, 2, 2))
        with pytest.raises(ValueError):
            ModelSpec(model="correlated_blocks", d=2, N=8, seed=1,
                      tensor=tensor)


class TestCirculant:
    def test_d2_pattern(self):
        spec = ModelSpec(model="circulant", d=2, N=6, seed=4)
        m = sample_matrix(spec).reshape(2, 6, 2, 6)
        # two independent blocks fill the 2x2 circulant
        assert np.array_equal(m[0, :, 0, :], m[1, :, 1, :])
        assert np.array_equal(m[0, :, 1, :], m[1, :, 0, :])
        assert not np.array_equal(m[0, :, 0, :], m[0, :, 1, :])

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_block_loop(self, d):
        # reference: block (r, c) holds W_min(k, d - k), k = (c - r) mod d
        from dyson_blocks.sampler import _circulant_wigners
        spec = ModelSpec(model="circulant", d=d, N=4, seed=12)
        wigners = _circulant_wigners(spec, 1)
        ref = np.zeros((d, 4, d, 4), dtype=np.complex128)
        for r in range(d):
            for c in range(d):
                k = (c - r) % d
                ref[r, :, c, :] = wigners[min(k, d - k)]
        assert np.array_equal(sample_matrix(spec, 1),
                              ref.reshape(4 * d, 4 * d) / np.sqrt(d))

    def test_shift_invariance(self):
        d = 4
        spec = ModelSpec(model="circulant", d=d, N=5, seed=10)
        m = sample_matrix(spec).reshape(d, 5, d, 5)
        for r in range(d):
            for c in range(d):
                assert np.array_equal(m[r, :, c, :],
                                      m[(r + 1) % d, :, (c + 1) % d, :])

    def test_exactly_hermitian(self):
        spec = ModelSpec(model="circulant", d=3, N=12, seed=2)
        assert exact_hermitian(sample_matrix(spec, 3))

    def test_second_moment_matches_mixture(self):
        # sum of w_m t_m = 1 for mu_3
        spec = ModelSpec(model="circulant", d=3, N=100, seed=21)
        second = np.mean([np.mean(spectrum(spec, t) ** 2)
                          for t in range(8)])
        assert abs(second - 1.0) < 0.05

    def test_real_variant_behind_flag(self):
        spec = ModelSpec(model="circulant", d=3, N=10, seed=2,
                         law=RealGaussian(1.0))
        assert exact_hermitian(sample_matrix(spec))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("N", [1, 4, 30])
    @pytest.mark.parametrize("law", [None, RealGaussian(1.0)])
    def test_block_dft_spectrum_matches_dense(self, d, N, law):
        # even d includes the unpaired j = d/2 Fourier block
        spec = ModelSpec(model="circulant", d=d, N=N, seed=31, law=law)
        for t in range(2):
            ev = spectrum(spec, t)
            m = sample_matrix(spec, t)
            assert len(ev) == d * N
            assert np.all(np.diff(ev) >= 0)
            tol = 1e-12 * (1 + np.linalg.norm(m, 2))
            assert np.max(np.abs(ev - np.linalg.eigvalsh(m))) <= tol


class TestHermitianBlocks:
    @pytest.mark.parametrize("d, mults", [(2, [1, 1]), (3, [1, 2]),
                                          (4, [1, 2, 1]), (5, [1, 2, 2])])
    def test_circulant_dft_blocks(self, d, mults):
        spec = ModelSpec(model="circulant", d=d, N=6, seed=8)
        blocks = list(hermitian_blocks(spec, 1))
        assert [mult for _, mult in blocks] == mults
        assert all(b.shape == (6, 6) and exact_hermitian(b) for b, _ in blocks)
        ev = np.concatenate([np.linalg.eigvalsh(b) for b, mult in blocks
                             for _ in range(mult)])
        assert np.array_equal(np.sort(ev), spectrum(spec, 1))

    @staticmethod
    def filled_dft_blocks(spec, trial):
        # B_j combined from the filled W_k, one scaled N x N term per k
        from dyson_blocks.sampler import _circulant_wigners
        d = spec.d
        wigners = _circulant_wigners(spec, trial)
        for j in range(d // 2 + 1):
            b = wigners[0].copy()
            for k in range(1, d // 2 + 1):
                c = 1.0 if 2 * k == d else 2.0
                b += c * np.cos(2 * np.pi * j * k / d) * wigners[k]
            yield b / np.sqrt(d), 2 if 0 < 2 * j < d else 1

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("law", [None, RealGaussian(1.0), Rademacher(),
                                     TwoPoint(1.0, 0.0, 0.3)],
                             ids=["complex", "real", "rademacher", "two-point"])
    def test_circulant_blocks_match_the_filled_combination(self, law, d):
        # values equal; the lower triangle, which eigvalsh reads, and the
        # spectrum equal byte for byte (the upper triangle may differ in
        # the sign of a zero imaginary part)
        for N in (1, 2, 7, 50):
            for seed in (1, 2 ** 63 + 5):
                spec = ModelSpec(model="circulant", d=d, N=N, seed=seed, law=law)
                blocks = list(hermitian_blocks(spec, 1))
                ref = list(self.filled_dft_blocks(spec, 1))
                assert [m for _, m in blocks] == [m for _, m in ref]
                lower = np.tril_indices(N)
                for (b, _), (r, _) in zip(blocks, ref):
                    assert np.array_equal(b, r)
                    assert b[lower].tobytes() == r[lower].tobytes()
                ev = np.sort(np.concatenate([np.linalg.eigvalsh(r) for r, m in ref
                                             for _ in range(m)]))
                assert spectrum(spec, 1).tobytes() == ev.tobytes()

    def test_dense_models_yield_the_sample_once(self):
        spec = ModelSpec(model="wigner_blocks", d=2, N=5, law=Rademacher(),
                         seed=4)
        [(block, mult)] = hermitian_blocks(spec, 2)
        assert mult == 1
        assert np.array_equal(block, sample_matrix(spec, 2))


class TestWishart:
    def test_zero_tensor(self):
        spec = ModelSpec(model="wishart_correlated", d=1, N=10, seed=3,
                         tensor=CovarianceTensor(np.zeros((1, 1, 1, 1))))
        assert np.array_equal(sample_matrix(spec), np.zeros((10, 10)))

    def test_psd_for_any_seed(self):
        spec = ModelSpec(model="wishart_correlated", d=2, N=20, seed=0,
                         tensor=delta_tensor(2))
        for t in range(5):
            ev = np.linalg.eigvalsh(sample_matrix(replace(spec, seed=t), t))
            assert ev.min() >= -1e-9

    def test_mean_eigenvalue(self):
        spec = ModelSpec(model="wishart_correlated", d=1, N=300, seed=11,
                         tensor=CovarianceTensor(np.ones((1, 1, 1, 1))))
        ev = spectrum(spec, 0)
        assert abs(ev.mean() - 1.0) < 0.05

    def test_factor_shape_and_gram(self):
        spec = ModelSpec(model="wishart_correlated", d=2, N=12, seed=5,
                         tensor=delta_tensor(2))
        h = sample_wishart_factor(spec, 1)
        assert h.shape == (24, 24)
        w = sample_matrix(spec, 1)
        assert np.allclose(w, h @ h.conj().T, atol=1e-12)


class TestExchangeable:
    def test_constant_pool_rank_one(self):
        n, c = 4, 0.5
        spec = ModelSpec(model="hermitized_iid", d=1, N=n,
                         law=PermutationPool([c] * (n * n)), seed=9)
        m = sample_matrix(spec)
        assert np.allclose(m, 2 * c / np.sqrt(2 * n))
        assert np.linalg.matrix_rank(m) == 1

    def test_balanced_pool_moments(self):
        pool = PermutationPool([1.0] * 8 + [-1.0] * 8)
        assert pool.mean == 0.0 and pool.variance == 1.0

    def test_pool_size_must_match_slots(self):
        spec = ModelSpec(model="hermitized_iid", d=1, N=3,
                         law=PermutationPool([1.0, -1.0]), seed=9)
        with pytest.raises(ValueError):
            sample_matrix(spec)

    def test_pool_is_one_read_only_array(self):
        values = [1.0, -1.0, 2.0, -2.0]
        scalar = PermutationPool(values)
        values[0] = 9.0
        assert scalar.values.shape == (4,) and scalar.values.dtype == np.complex128
        assert scalar.values[0] == 1.0 and not scalar.values.flags.writeable
        assert len(scalar.values) == 4 and not scalar.is_matrix_pool
        matrix = PermutationPool([I2, -I2, E12])
        assert matrix.values.shape == (3, 2, 2) and matrix.is_matrix_pool
        assert not matrix.values.flags.writeable
        assert matrix == PermutationPool(np.stack([I2, -I2, E12]))
        assert matrix != PermutationPool([I2, -I2, -E12])
        assert scalar != matrix

    @pytest.mark.parametrize("values", [[], [[1.0, 2.0]], [np.ones((2, 3))],
                                        [I2, np.eye(3)]])
    def test_pool_shape_rejected(self, values):
        with pytest.raises(ValueError):
            PermutationPool(values)

    @pytest.mark.parametrize("values", [[1.0, np.nan], [np.inf, -1.0],
                                        [I2, np.full((2, 2), np.nan)]])
    def test_pool_rejects_non_finite(self, values):
        with pytest.raises(ValueError, match="finite"):
            PermutationPool(values)

    def test_matrix_pool_block_size_checked(self):
        pool = PermutationPool([I2, -I2])
        with pytest.raises(ValueError, match="3x3"):
            pool.draw_blocks(rng_for(1, 0), 2, 3)
        with pytest.raises(ValueError, match="pool size"):
            pool.draw_blocks(rng_for(1, 0), 3, 2)

    @pytest.mark.parametrize("model", ["hermitized_iid", "wigner_blocks"])
    def test_spec_refuses_blocks_of_another_size(self, model):
        # a 2 x 2 pool at d = 3 gave a d = 2 limit map, and only the draw
        # refused it
        pool = PermutationPool([I2, -I2, I2, -I2])
        with pytest.raises(ValueError, match=r"^pool blocks must be 3x3$"):
            ModelSpec(model=model, d=3, N=2, law=pool)
        ModelSpec(model=model, d=2, N=2, law=pool)

    def test_circulant_refuses_a_matrix_pool(self):
        # the spec constructed, then model_eta and sample_matrix each
        # refused the pool with a message of its own
        i3 = np.eye(3)
        pool = PermutationPool([i3, -i3] * 4)
        with pytest.raises(ValueError, match=r"^circulant model fills scalar slots; "
                                             r"a matrix pool cannot fill them$"):
            ModelSpec(model="circulant", d=3, N=2, law=pool)

    def test_matrix_pool_blocks(self):
        n = 2
        pool = PermutationPool([I2, -I2, E12, E12.conj().T])
        spec = ModelSpec(model="hermitized_iid", d=2, N=n, law=pool, seed=3)
        m = sample_matrix(spec)
        assert exact_hermitian(m)
        assert m.shape == (4, 4)


class TestModelSpecAndIO:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(model="bogus", d=1, N=1)

    def test_equality_is_identity(self):
        def spec():
            return ModelSpec(model="kronecker", d=2, N=4, betas=(I2, E12),
                             sigma_l=np.eye(2))
        s = spec()
        assert (s == spec()) is False
        assert (s == s) is True

    def test_kronecker_requires_data(self):
        with pytest.raises(ValueError):
            ModelSpec(model="kronecker", d=2, N=4)

    def test_wishart_tensor_must_be_real(self):
        sig = np.eye(4, dtype=np.complex128)
        sig[0, 1], sig[1, 0] = 0.5j, -0.5j
        with pytest.raises(ValueError, match="wishart tensor must be real-valued"):
            ModelSpec(model="wishart_correlated", d=2, N=4,
                      tensor=CovarianceTensor(sig.reshape(2, 2, 2, 2)))

    def test_making_a_spec_builds_no_limit_map(self, monkeypatch):
        # a limit map is a d^4 Choi tensor even for a scalar law, so only
        # model_eta builds it: a spec's cost stays that of its input
        def forbidden(*args, **kwargs):
            raise AssertionError("limit map built")
        for name in ("CovarianceMap", "flat_map", "eta_kronecker",
                     "eta_correlated_tensor", "eta_wishart_pair"):
            monkeypatch.setattr(sampler, name, forbidden)
        for model in ("hermitized_iid", "wigner_blocks", "circulant"):
            ModelSpec(model=model, d=64, N=2, law=Rademacher())
        ModelSpec(model="kronecker", d=2, N=2, betas=(I2, E12), sigma_l=np.eye(2))
        for model in ("correlated_blocks", "wishart_correlated"):
            ModelSpec(model=model, d=2, N=2, tensor=delta_tensor(2))

    @pytest.mark.parametrize("law", [ComplexGaussian, RealGaussian])
    @pytest.mark.parametrize("variance", [-1.0, np.inf, np.nan])
    def test_gaussian_laws_reject_bad_variance(self, law, variance):
        with pytest.raises(ValueError, match="variance must be finite and >= 0"):
            law(variance)

    def test_copies_keep_fields_and_revalidate(self):
        spec = ModelSpec(model="kronecker", d=2, N=4, seed=3,
                         betas=(I2, E12), sigma_l=np.eye(2))
        copy = replace(spec, N=9, seed=5)
        assert (copy.model, copy.d, copy.N, copy.seed) == ("kronecker", 2, 9, 5)
        assert all(a is b for a, b in zip(copy.betas, spec.betas))
        assert copy.sigma_l is spec.sigma_l
        assert np.array_equal(copy.sigma_factor, spec.sigma_factor)
        assert (spec.N, spec.seed) == (4, 3)
        with pytest.raises(ValueError):
            replace(spec, N=0)
        with pytest.raises(ValueError):
            replace(spec, seed=-1)

    @pytest.mark.parametrize("seed", [1.9, -0.5, 1.0, True, -1, 2 ** 64])
    def test_seed_must_be_a_64_bit_integer(self, seed):
        # int(1.9) would draw seed 1's matrices
        with pytest.raises(ValueError, match="seed must be an integer"):
            ModelSpec(model="circulant", d=2, N=4, seed=seed)

    @pytest.mark.parametrize("name, value", [
        ("d", 2.0), ("N", 2.5), ("d", True), ("N", np.float64(3.0)), ("d", "2")])
    def test_d_and_n_must_be_integers(self, name, value):
        # a float d once built, and sample_matrix then failed on a float shape
        sizes = {"d": 2, "N": 3, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ModelSpec(model="hermitized_iid", law=ComplexGaussian(), **sizes)
        spec = ModelSpec(model="hermitized_iid", law=ComplexGaussian(),
                         d=np.int64(2), N=np.int32(3))
        assert sample_matrix(spec, 0).shape == (6, 6)

    @pytest.mark.parametrize("kwargs, stray", [
        (dict(model="kronecker", d=2, N=4, betas=(I2, E12), sigma_l=np.eye(2)),
         dict(law=ComplexGaussian(1.0))),
        (dict(model="hermitized_iid", d=1, N=2, law=ComplexGaussian(1.0)),
         dict(betas=("junk",))),
        (dict(model="circulant", d=2, N=4), dict(tensor=delta_tensor(2))),
        (dict(model="wishart_correlated", d=2, N=4, tensor=delta_tensor(2)),
         dict(sigma_l=np.eye(2))),
    ], ids=["kronecker-law", "hermitized_iid-betas", "circulant-tensor",
            "wishart_correlated-sigma_l"])
    def test_stray_field_rejected(self, kwargs, stray):
        (key,) = stray
        with pytest.raises(ValueError, match=f"{kwargs['model']} model takes no {key}"):
            ModelSpec(**kwargs, **stray)

    def test_dispatch(self):
        # one spec of every model: an exactly Hermitian dN x dN draw
        specs = [ModelSpec(**kwargs) for kwargs in TestGoldenHashes.SPECS.values()]
        assert {spec.model for spec in specs} == set(MODELS)
        for spec in specs:
            m = sample_matrix(spec, 0)
            assert m.shape == (spec.d * spec.N,) * 2 and exact_hermitian(m)

    def test_spectrum_sorted(self):
        spec = ModelSpec(model="hermitized_iid", d=2, N=12,
                         law=ComplexGaussian(1.0), seed=6)
        ev = spectrum(spec, 0)
        assert isinstance(ev, np.ndarray) and ev.shape == (24,)
        assert np.all(np.diff(ev) >= 0)

    def test_matrix_bytes_roundtrip(self):
        spec = ModelSpec(model="hermitized_iid", d=2, N=5,
                         law=ComplexGaussian(1.0), seed=6)
        m = sample_matrix(spec, 2)
        blob = matrix_to_bytes(m)
        assert len(blob) == 8 + 10 * 10 * 16
        assert np.array_equal(matrix_from_bytes(blob), m)

    def test_matrix_bytes_rejects_truncation(self):
        blob = matrix_to_bytes(np.eye(2))
        with pytest.raises(ValueError):
            matrix_from_bytes(blob[:-1])


class TestGoldenHashes:
    """SHA-256 of the binary dump of one sampled matrix per model.

    The hashes were taken from the loop-filled samplers; any change to the
    draw order, the fill or the scaling changes them.  They assume IEEE
    doubles and this platform's BLAS for the small factor products.
    """

    POOL = PermutationPool([I2, -I2, E12, E12.conj().T, 2 * I2,
                            E12 + E12.conj().T])
    SCALAR_POOL = PermutationPool([(-1) ** k * (1 + k % 4) / 2 for k in range(36)])
    SPECS = {
        "hermitized_iid": dict(model="hermitized_iid", d=2, N=5,
                               law=ComplexGaussian(1.0), seed=11),
        "hermitized_iid-scalar-pool": dict(model="hermitized_iid", d=2, N=3,
                                           law=SCALAR_POOL, seed=20),
        "wigner_blocks-gaussian": dict(model="wigner_blocks", d=2, N=5,
                                       law=ComplexGaussian(1.0), seed=12),
        "wigner_blocks-rademacher": dict(model="wigner_blocks", d=3, N=4,
                                         law=Rademacher(), seed=13),
        "wigner_blocks-matrix-pool": dict(model="wigner_blocks", d=2, N=3,
                                          law=POOL, seed=14),
        "kronecker": dict(model="kronecker", d=2, N=5, seed=15,
                          betas=(I2, E12),
                          sigma_l=np.array([[1.0, 0.5], [0.5, 1.0]])),
        "correlated_blocks": dict(model="correlated_blocks", d=2, N=5,
                                  seed=16, tensor=delta_tensor(2)),
        "circulant-d3": dict(model="circulant", d=3, N=5, seed=17),
        "circulant-d4-real": dict(model="circulant", d=4, N=4, seed=18,
                                  law=RealGaussian(1.0)),
        "wishart_correlated": dict(model="wishart_correlated", d=2, N=5,
                                   seed=19, tensor=delta_tensor(2)),
    }
    HASHES = {
        "hermitized_iid": "fecbf9380eaf0378eae78cc693edd258a26efd6660083c88a8dbf58f22e92266",
        "hermitized_iid-scalar-pool": "d1b2907b56ce7b69c9b769b2efe9ad59e683208c593d4c18b380999685bdd76b",
        "wigner_blocks-gaussian": "d65b99aa547e0f0ec5ea5d42a30b1a798990d26806b578d028b44a89610316cf",
        "wigner_blocks-rademacher": "c6dc157e27b039c348453021a3a84ce5635574c3aae7f08527fee100955847fc",
        "wigner_blocks-matrix-pool": "daa6495de2fd6f34a7a8028469c8e4d1e5029aa6734a5bb49d9c8a89c25838c5",
        "kronecker": "ab782c0621968e4ced294425e6502fd3d7ecf1d766b1dd284c9ae7c3dfd005d9",
        "correlated_blocks": "6a6956bd7f08f0b03b32534b97c6ee270826e353ed71393c54053774e5ceff20",
        "circulant-d3": "0e1ac96491283ac06680937e7feae8c755ac9806dce633852ce69757596b2a5f",
        "circulant-d4-real": "e30ccb87fe9aa7c31712ee4f75ef7d917b505b4fb97fbb44f04d93951c11159b",
        "wishart_correlated": "7eccb252a583f484d2acafd245909570230141854476c2dc1f62ab603657c6a0",
    }

    def test_every_model_is_covered(self):
        assert {v["model"] for v in self.SPECS.values()} == set(MODELS)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_matrix_hash(self, name):
        m = sample_matrix(ModelSpec(**self.SPECS[name]), 2)
        digest = hashlib.sha256(matrix_to_bytes(m)).hexdigest()
        assert digest == self.HASHES[name]

    def test_draws_run_no_eigensolver(self, monkeypatch):
        # the Gaussian factors are made when the specs are built, not per draw
        names = ("kronecker", "correlated_blocks", "wishart_correlated")
        specs = {name: ModelSpec(**self.SPECS[name]) for name in names}

        def forbidden(*args, **kwargs):
            raise AssertionError("eigensolver called during a draw")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        for name, spec in specs.items():
            digest = hashlib.sha256(matrix_to_bytes(sample_matrix(spec, 2))).hexdigest()
            assert digest == self.HASHES[name]

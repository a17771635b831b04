import collections
import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dyson_blocks.eta import CovarianceTensor
from dyson_blocks.sampler import (MODELS, ComplexGaussian, ModelSpec,
                                  PermutationPool, Rademacher, RealGaussian,
                                  TwoPoint,
                                  matrix_from_bytes, matrix_to_bytes, rng_for,
                                  sample_circulant, sample_correlated_blocks,
                                  sample_hermitized,
                                  sample_kronecker, sample_matrix,
                                  sample_wigner_blocks, sample_wishart,
                                  sample_wishart_factor, spectrum)

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

    def test_pool_statistics(self):
        pool = PermutationPool([1.0, -1.0, 1.0, -1.0])
        assert pool.mean == 0.0
        assert pool.variance == 1.0
        drawn = pool.draw(rng_for(1, 0), 4)
        assert sorted(drawn.real.tolist()) == [-1.0, -1.0, 1.0, 1.0]

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
        a = sample_hermitized(spec)
        assert np.allclose(a, [[2 * 0.7 / np.sqrt(2)]])

    def test_exactly_hermitian(self):
        spec = ModelSpec(model="hermitized_iid", d=2, N=10,
                         law=ComplexGaussian(1.0), seed=3)
        assert exact_hermitian(sample_hermitized(spec, 5))

    def test_golden_seeded_matrix(self):
        # frozen from the reference run of the seeded generator
        spec = ModelSpec(model="hermitized_iid", d=1, N=2,
                         law=Rademacher(), seed=20240817)
        golden = np.array([[1.0 + 0j, 0.0 + 0j], [0.0 + 0j, -1.0 + 0j]])
        assert np.array_equal(sample_hermitized(spec, 0), golden)

    def test_bit_exact_reproducibility_across_threads(self):
        spec = ModelSpec(model="hermitized_iid", d=2, N=16,
                         law=ComplexGaussian(1.0), seed=99)
        serial = [sample_hermitized(spec, t) for t in range(8)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda t: sample_hermitized(spec, t),
                                     range(8)))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)
        assert not np.array_equal(serial[0], serial[1])


class TestWignerBlocks:
    def test_deterministic_diagonal(self):
        spec = ModelSpec(model="wigner_blocks", d=1, N=1,
                         law=TwoPoint(0.7, 0.7, 0.5), seed=1)
        assert np.allclose(sample_wigner_blocks(spec), [[0.7]])

    def test_exactly_hermitian(self):
        spec = ModelSpec(model="wigner_blocks", d=3, N=7,
                         law=ComplexGaussian(1.0), seed=2)
        assert exact_hermitian(sample_wigner_blocks(spec, 1))

    def test_offdiagonal_variance(self):
        n = 64
        spec = ModelSpec(model="wigner_blocks", d=1, N=n,
                         law=ComplexGaussian(1.0), seed=31)
        entries = []
        for t in range(6):
            m = sample_wigner_blocks(spec, t)
            entries.append(m[np.triu_indices(n, k=1)])
        entries = np.concatenate(entries)
        var = np.mean(np.abs(entries) ** 2)
        se = np.sqrt(2.0) / n / np.sqrt(entries.size)
        assert abs(var - 1.0 / n) <= 3 * se


class TestKronecker:
    def base_spec(self, sigma, N=16, seed=5):
        return ModelSpec(model="kronecker", d=2, N=N, seed=seed,
                         betas=(I2, E12), sigma_l=np.asarray(sigma))

    def test_zero_sigma_gives_zero_matrix(self):
        m = sample_kronecker(self.base_spec(np.zeros((2, 2))))
        assert np.array_equal(m, np.zeros_like(m))

    def test_exactly_hermitian(self):
        assert exact_hermitian(sample_kronecker(self.base_spec(np.eye(2)), 4))

    def test_cross_covariance(self):
        # Cov(y1, conj y2) = 0.5 within 3 standard errors over 1e5 draws
        rho = 0.5
        sigma = np.array([[1.0, rho], [rho, 1.0]])
        factor_spec = self.base_spec(sigma, N=100, seed=8)
        from dyson_blocks.sampler import _gaussian_factor, _standard_complex
        fac = _gaussian_factor(factor_spec.sigma_l)
        draws = _standard_complex(rng_for(8, 0), (100_000, 2)) @ fac.T
        cross = np.mean(draws[:, 0] * np.conj(draws[:, 1]))
        assert abs(cross - rho) <= 3 / np.sqrt(100_000)
        assert abs(np.mean(np.abs(draws[:, 0]) ** 2) - 1.0) <= 3 * 2 / np.sqrt(100_000)

    def test_rejects_non_psd_sigma(self):
        spec = self.base_spec(np.array([[1.0, 3.0], [3.0, 1.0]]))
        with pytest.raises(ValueError):
            sample_kronecker(spec)


class TestCorrelatedBlocks:
    def test_uncorrelated_second_moment(self):
        spec = ModelSpec(model="correlated_blocks", d=2, N=64, seed=7,
                         tensor=delta_tensor(2))
        ev = spectrum(spec, 0)
        assert abs(np.mean(ev ** 2) - 1.0) < 0.1

    def test_zero_tensor(self):
        spec = ModelSpec(model="correlated_blocks", d=2, N=8, seed=7,
                         tensor=CovarianceTensor(np.zeros((2, 2, 2, 2))))
        m = sample_correlated_blocks(spec)
        assert np.array_equal(m, np.zeros_like(m))

    def test_exactly_hermitian(self):
        spec = ModelSpec(model="correlated_blocks", d=2, N=20, seed=9,
                         tensor=delta_tensor(2))
        assert exact_hermitian(sample_correlated_blocks(spec, 2))

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
            m = sample_correlated_blocks(spec, t).reshape(N, d, N, d)
            # strictly-upper positions carry the raw draws (times 1/sqrt(dN))
            r, p = np.triu_indices(N, k=1)
            vecs.append((m[r, :, p, :] * scale).reshape(-1, d * d))
        v = np.concatenate(vecs)
        emp = v.T @ v.conj() / v.shape[0]
        n = v.shape[0]
        # 4th-moment bound: entries of the sample covariance have SE <= ~2/sqrt(n)
        se = 2.0 * np.sqrt(np.outer(np.diag(sig).real, np.diag(sig).real)) / np.sqrt(n)
        assert np.all(np.abs(emp - sig) <= 3 * se)

    def test_rejects_tensor_without_adjoint_symmetry(self):
        gen = np.random.Generator(np.random.Philox(key=[11, 0]))
        f = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        tensor = CovarianceTensor((f @ f.conj().T).reshape(2, 2, 2, 2))
        spec = ModelSpec(model="correlated_blocks", d=2, N=8, seed=1,
                         tensor=tensor)
        with pytest.raises(ValueError):
            sample_correlated_blocks(spec)


class TestCirculant:
    def test_d2_pattern(self):
        spec = ModelSpec(model="circulant", d=2, N=6, seed=4)
        m = sample_circulant(spec).reshape(2, 6, 2, 6)
        # two independent blocks fill the 2x2 circulant
        assert np.array_equal(m[0, :, 0, :], m[1, :, 1, :])
        assert np.array_equal(m[0, :, 1, :], m[1, :, 0, :])
        assert not np.array_equal(m[0, :, 0, :], m[0, :, 1, :])

    def test_shift_invariance(self):
        d = 4
        spec = ModelSpec(model="circulant", d=d, N=5, seed=10)
        m = sample_circulant(spec).reshape(d, 5, d, 5)
        for r in range(d):
            for c in range(d):
                assert np.array_equal(m[r, :, c, :],
                                      m[(r + 1) % d, :, (c + 1) % d, :])

    def test_exactly_hermitian(self):
        spec = ModelSpec(model="circulant", d=3, N=12, seed=2)
        assert exact_hermitian(sample_circulant(spec, 3))

    def test_second_moment_matches_mixture(self):
        # sum of w_m t_m = 1 for mu_3
        spec = ModelSpec(model="circulant", d=3, N=100, seed=21)
        second = np.mean([np.mean(spectrum(spec, t) ** 2)
                          for t in range(8)])
        assert abs(second - 1.0) < 0.05

    def test_real_variant_behind_flag(self):
        spec = ModelSpec(model="circulant", d=3, N=10, seed=2,
                         law=RealGaussian(1.0))
        assert exact_hermitian(sample_circulant(spec))

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


class TestWishart:
    def test_zero_tensor(self):
        spec = ModelSpec(model="wishart_correlated", d=1, N=10, seed=3,
                         tensor=CovarianceTensor(np.zeros((1, 1, 1, 1))))
        assert np.array_equal(sample_wishart(spec), np.zeros((10, 10)))

    def test_psd_for_any_seed(self):
        spec = ModelSpec(model="wishart_correlated", d=2, N=20, seed=0,
                         tensor=delta_tensor(2))
        for t in range(5):
            ev = np.linalg.eigvalsh(sample_wishart(spec.with_seed(t), t))
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
        w = sample_wishart(spec, 1)
        assert np.allclose(w, h @ h.conj().T, atol=1e-12)


class TestExchangeable:
    def test_constant_pool_rank_one(self):
        n, c = 4, 0.5
        spec = ModelSpec(model="hermitized_iid", d=1, N=n,
                         law=PermutationPool([c] * (n * n)), seed=9)
        m = sample_hermitized(spec)
        assert np.allclose(m, 2 * c / np.sqrt(2 * n))
        assert np.linalg.matrix_rank(m) == 1

    def test_balanced_pool_moments(self):
        pool = PermutationPool([1.0] * 8 + [-1.0] * 8)
        assert pool.mean == 0.0 and pool.variance == 1.0

    def test_pool_size_must_match_slots(self):
        spec = ModelSpec(model="hermitized_iid", d=1, N=3,
                         law=PermutationPool([1.0, -1.0]), seed=9)
        with pytest.raises(ValueError):
            sample_hermitized(spec)

    def test_matrix_pool_blocks(self):
        n = 2
        pool = PermutationPool([I2, -I2, E12, E12.conj().T])
        spec = ModelSpec(model="hermitized_iid", d=2, N=n, law=pool, seed=3)
        m = sample_hermitized(spec)
        assert exact_hermitian(m)
        assert m.shape == (4, 4)


class TestModelSpecAndIO:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(model="bogus", d=1, N=1)

    def test_kronecker_requires_data(self):
        with pytest.raises(ValueError):
            ModelSpec(model="kronecker", d=2, N=4)

    def test_copies_keep_fields_and_revalidate(self):
        spec = ModelSpec(model="kronecker", d=2, N=4, seed=3,
                         betas=(I2, E12), sigma_l=np.eye(2))
        copy = spec.with_n(9).with_seed(5)
        assert (copy.model, copy.d, copy.N, copy.seed) == ("kronecker", 2, 9, 5)
        assert all(a is b for a, b in zip(copy.betas, spec.betas))
        assert copy.sigma_l is spec.sigma_l
        assert (spec.N, spec.seed) == (4, 3)
        with pytest.raises(ValueError):
            spec.with_n(0)
        with pytest.raises(ValueError):
            spec.with_seed(-1)

    def test_dispatch(self):
        spec = ModelSpec(model="circulant", d=2, N=4, seed=1)
        assert np.array_equal(sample_matrix(spec, 0), sample_circulant(spec, 0))

    def test_spectrum_sorted(self):
        spec = ModelSpec(model="hermitized_iid", d=2, N=12,
                         law=ComplexGaussian(1.0), seed=6)
        ev = spectrum(spec, 0)
        assert isinstance(ev, np.ndarray) and ev.shape == (24,)
        assert np.all(np.diff(ev) >= 0)

    def test_matrix_bytes_roundtrip(self):
        spec = ModelSpec(model="hermitized_iid", d=2, N=5,
                         law=ComplexGaussian(1.0), seed=6)
        m = sample_hermitized(spec, 2)
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
    SPECS = {
        "hermitized_iid": dict(model="hermitized_iid", d=2, N=5,
                               law=ComplexGaussian(1.0), seed=11),
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

import tracemalloc

import numpy as np
import pytest

from dyson_blocks.eta import (CovarianceMap, CovarianceTensor, EtaPair,
                              choi_map, eta_correlated_tensor,
                              eta_exchangeable_pool, eta_iid_blocks,
                              eta_kronecker, eta_wigner_blocks,
                              eta_wishart_pair, flat_map, psd_factor,
                              scalar_map)

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.conj().T
I2 = np.eye(2, dtype=complex)


def rng():
    return np.random.Generator(np.random.Philox(key=[77, 0]))


def random_b(gen, d=2):
    return gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))


def delta_tensor(d):
    eye = np.eye(d)
    return np.einsum("ik,jl->ijkl", eye, eye)


class TestApply:
    def test_scalar_identity(self):
        assert np.allclose(scalar_map(2, 1.0).apply(I2), I2)

    def test_scalar_zero(self):
        b = random_b(rng())
        assert np.allclose(scalar_map(2, 0.0).apply(b), 0)

    def test_kronecker_identity_beta(self):
        # beta = I gives beta B beta* + beta* B beta = 2B
        m = eta_kronecker([I2], [[1.0]])
        b = random_b(rng())
        assert np.allclose(m.apply(b), 2 * b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            scalar_map(2, 1.0).apply(np.eye(3))

    @pytest.mark.parametrize("make", [
        lambda: scalar_map(0, 1.0),
        lambda: scalar_map(-1, 1.0),
        lambda: flat_map(0),
        lambda: flat_map(-2, 1.0),
        lambda: flat_map(2, -0.5),
        lambda: flat_map(2, float("nan")),
        lambda: flat_map(2, float("inf")),
        lambda: scalar_map(1, float("nan")),
        lambda: scalar_map(1, float("inf")),
    ], ids=["scalar-d0", "scalar-d-1", "flat-d0", "flat-d-2", "flat-c<0",
            "flat-c-nan", "flat-c-inf", "scalar-t-nan", "scalar-t-inf"])
    def test_degenerate_map_rejected(self, make):
        with pytest.raises(ValueError, match="covariance requires"):
            make()

    def test_zero_flat_map_allowed(self):
        assert np.allclose(flat_map(2, 0.0).apply(I2), 0)


class TestIidBlocks:
    def test_plus_minus_identity(self):
        m = eta_iid_blocks(samples=[I2, -I2])
        b = random_b(rng())
        assert np.allclose(m.apply(b), b)

    def test_constant_sample_is_zero_map(self):
        m = eta_iid_blocks(samples=[np.zeros((2, 2))])
        assert np.allclose(m.apply(random_b(rng())), 0)

    def test_matrix_unit_half_sum(self):
        m = eta_iid_blocks(samples=[E12, -E12])
        b = random_b(rng())
        assert np.allclose(m.apply(b), (E12 @ b @ E21 + E21 @ b @ E12) / 2)
        assert np.allclose(m.apply(I2), I2 / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            eta_iid_blocks(samples=[])

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError):
            eta_iid_blocks(samples=[np.eye(2), np.eye(3)])

    def test_empirical_matches_analytic_choi(self):
        # 1e5 draws of a known gaussian block law vs its exact half-sum
        # map: every Choi entry within 3 standard errors
        gen = rng()
        d, n = 2, 100_000
        base = gen.standard_normal((n, d, d)) + 1j * gen.standard_normal((n, d, d))
        base /= np.sqrt(2)
        mix = np.array([[1.0, 0.0], [0.5, np.sqrt(1 - 0.25)]])
        samples = np.einsum("ab,nbj->naj", mix, base)   # row-correlated entries
        # E[a_ki conj a_lj] = delta_ij C[k, l], so choi4[i, k, j, l] is
        # (delta_ij C[k, l] + delta_kl C[i, j]) / 2, C = mix mix^T real
        cov_rows = mix @ mix.T
        eye = np.eye(d)
        exact = (np.einsum("ij,kl->ikjl", eye, cov_rows)
                 + np.einsum("kl,ij->ikjl", eye, cov_rows)) / 2
        empirical = eta_iid_blocks(samples=list(samples))
        diff = np.abs(empirical.choi4 - exact)
        centered = samples - samples.mean(axis=0)
        plus = np.einsum("nki,nlj->nikjl", centered, centered.conj())
        minus = np.einsum("nik,njl->nikjl", centered.conj(), centered)
        per_sample = (plus + minus) / 2
        se = per_sample.std(axis=0) / np.sqrt(n)
        assert np.all(diff <= 3 * np.maximum(se, 1e-12))


class TestKronecker:
    def test_single_matrix_unit(self):
        m = eta_kronecker([E12], [[1.0]])
        b = random_b(rng())
        assert np.allclose(m.apply(b), E12 @ b @ E21 + E21 @ b @ E12)

    def test_zero_sigma(self):
        m = eta_kronecker([E12, I2], np.zeros((2, 2)))
        assert np.allclose(m.apply(random_b(rng())), 0)

    def test_two_identity_betas(self):
        m = eta_kronecker([I2 / np.sqrt(2)] * 2, np.eye(2))
        b = random_b(rng())
        assert np.allclose(m.apply(b), 2 * b)

    def test_sigma_l_scale(self):
        # eta is linear in sigma_l: a normalization prefactor is a scaled sigma_l
        gen = rng()
        betas = [random_b(gen), random_b(gen)]
        sig = np.array([[1.0, 0.3 + 0.1j], [0.3 - 0.1j, 0.8]])
        full = eta_kronecker(betas, sig)
        quarter = eta_kronecker(betas, sig / 4)
        assert np.allclose(quarter.choi4, full.choi4 / 4, rtol=1e-15, atol=0)
        b = random_b(gen)
        assert np.allclose(quarter.apply(b), full.apply(b) / 4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            eta_kronecker([E12], np.eye(2))

    def test_non_psd_sigma_rejected(self):
        with pytest.raises(ValueError):
            eta_kronecker([I2, E12], np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_structured_apply_matches_choi(self):
        gen = rng()
        betas = [random_b(gen), random_b(gen)]
        sig = np.array([[1.0, 0.3 + 0.1j], [0.3 - 0.1j, 0.8]])
        m = eta_kronecker(betas, 0.7 * sig)
        plain = choi_map(m.choi4)
        for _ in range(20):
            b = random_b(gen)
            assert np.allclose(m.apply(b), plain.apply(b), atol=1e-12)


class TestWignerBlocks:
    def test_plus_minus_identity(self):
        m = eta_wigner_blocks(samples=[I2, -I2])
        b = random_b(rng())
        assert np.allclose(m.apply(b), b)

    def test_zero(self):
        m = eta_wigner_blocks(samples=[np.zeros((2, 2))])
        assert np.allclose(m.apply(random_b(rng())), 0)

    def test_single_conjugation(self):
        m = eta_wigner_blocks(samples=[E12, -E12])
        b = random_b(rng())
        assert np.allclose(m.apply(b), E12 @ b @ E21)
        assert np.allclose(m.apply(I2), E11)


class TestCorrelatedTensor:
    def test_uncorrelated_reduces_to_flat(self):
        d = 2
        m = eta_correlated_tensor(CovarianceTensor(delta_tensor(d)))
        gen = rng()
        flat = flat_map(d, 1.0)
        for _ in range(10):
            b = random_b(gen, d)
            assert np.allclose(m.apply(b), flat.apply(b), atol=1e-12)

    def test_brute_force_sum_formula(self):
        # direct quadruple-loop evaluation of (1/d) sigma(i,k;j,l) B_kl
        gen = rng()
        d = 2
        f = gen.standard_normal((d * d, d * d)) + 1j * gen.standard_normal((d * d, d * d))
        sig_mat = f @ f.conj().T
        swap = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                swap[i * d + j, j * d + i] = 1.0
        sig_mat = (sig_mat + swap @ sig_mat.T @ swap) / 2
        tensor = CovarianceTensor(sig_mat.reshape(d, d, d, d))
        m = eta_correlated_tensor(tensor)
        b = random_b(gen, d)
        out = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        out[i, j] += tensor.sigma[i, k, j, l] * b[k, l] / d
        assert np.allclose(m.apply(b), out, atol=1e-12)

    def test_zero_tensor(self):
        m = eta_correlated_tensor(CovarianceTensor(np.zeros((2, 2, 2, 2))))
        assert np.allclose(m.apply(random_b(rng())), 0)

    def test_scalar_reduction(self):
        m = eta_correlated_tensor(CovarianceTensor(np.full((1, 1, 1, 1), 0.7)))
        assert np.allclose(m.apply(np.array([[2.0]])), [[1.4]])

    def test_rejects_symmetry_violation(self):
        bad = delta_tensor(2)
        bad[0, 0, 1, 1] += 0.5    # breaks sigma(i,j;k,l) = conj(sigma(k,l;i,j))
        with pytest.raises(ValueError):
            CovarianceTensor(bad)

    def test_rejects_non_psd(self):
        bad = -delta_tensor(2)
        with pytest.raises(ValueError):
            CovarianceTensor(bad)

    def test_rejects_missing_adjoint_symmetry(self):
        gen = rng()
        d = 2
        f = gen.standard_normal((d * d, d * d)) + 1j * gen.standard_normal((d * d, d * d))
        sig = (f @ f.conj().T).reshape(d, d, d, d)
        tensor = CovarianceTensor(sig)
        if tensor.has_adjoint_symmetry:   # overwhelmingly unlikely
            pytest.skip("random tensor accidentally symmetric")
        with pytest.raises(ValueError):
            eta_correlated_tensor(tensor)


class TestExchangeablePool:
    def test_rademacher_pool(self):
        m = eta_exchangeable_pool([1.0, -1.0])
        assert np.allclose(m.apply(np.array([[3.0]])), [[3.0]])

    def test_constant_pool(self):
        m = eta_exchangeable_pool([0.7] * 5)
        assert np.allclose(m.apply(np.array([[1.0]])), 0)

    def test_shifted_pool(self):
        # mean 1, centered {-1, +1}: unit variance map
        m = eta_exchangeable_pool([0.0, 2.0])
        assert np.allclose(m.apply(np.array([[1.0]])), [[1.0]])

    def test_matrix_pool(self):
        m = eta_exchangeable_pool([E12, -E12])
        b = random_b(rng())
        assert np.allclose(m.apply(b), (E12 @ b @ E21 + E21 @ b @ E12) / 2)

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            eta_exchangeable_pool([])


class TestWishartPair:
    def test_scalar_reduction(self):
        # sampled mean eigenvalue of H H^* equals the entry variance s,
        # forcing eta1 = eta2 = s * b (Monte Carlo oracle; the half-scale
        # variant fails the solver-vs-sampling acceptance check)
        pair = eta_wishart_pair(CovarianceTensor(np.full((1, 1, 1, 1), 0.6)))
        assert np.allclose(pair.eta1.apply([[1.0]]), [[0.6]])
        assert np.allclose(pair.eta2.apply([[1.0]]), [[0.6]])

    def test_zero_tensor(self):
        pair = eta_wishart_pair(CovarianceTensor(np.zeros((2, 2, 2, 2))))
        b = random_b(rng())
        assert np.allclose(pair.eta1.apply(b), 0)
        assert np.allclose(pair.eta2.apply(b), 0)

    def test_uncorrelated_brute_force(self):
        d = 2
        tensor = CovarianceTensor(delta_tensor(d))
        pair = eta_wishart_pair(tensor)
        gen = rng()
        b = random_b(gen, d)
        out1 = np.zeros((d, d), dtype=complex)
        out2 = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        out1[i, j] += tensor.sigma[i, k, j, l].real * b[k, l] / d
                        out2[i, j] += tensor.sigma[k, i, l, j].real * b[k, l] / d
        assert np.allclose(pair.eta1.apply(b), out1, atol=1e-12)
        assert np.allclose(pair.eta2.apply(b), out2, atol=1e-12)

    def test_rejects_complex_tensor(self):
        sig = delta_tensor(2) + 0j
        sig[0, 0, 1, 1] = 0.3j          # pair-hermitian but not real
        sig[1, 1, 0, 0] = -0.3j
        with pytest.raises(ValueError):
            eta_wishart_pair(CovarianceTensor(sig))


class TestHermitization:
    @staticmethod
    def pairs():
        gen = rng()
        for d in (1, 2, 3):
            ops = [random_b(gen, d) for _ in range(3)]
            yield EtaPair(eta_iid_blocks(samples=ops),
                          eta_wigner_blocks(samples=ops[:2]))
        m = gen.standard_normal((4, 4))
        yield eta_wishart_pair(CovarianceTensor((m @ m.T).reshape(2, 2, 2, 2)))

    def test_block_diagonal_map(self):
        # B -> diag(eta1(B_22), eta2(B_11)) on random 2d x 2d matrices
        gen = rng()
        for pair in self.pairs():
            d = pair.d
            herm = pair.hermitization()
            assert herm.d == 2 * d
            for _ in range(3):
                b = random_b(gen, 2 * d)
                want = np.zeros((2 * d, 2 * d), dtype=complex)
                want[:d, :d] = pair.eta1(b[d:, d:])
                want[d:, d:] = pair.eta2(b[:d, :d])
                assert np.allclose(herm(b), want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())

    def test_completely_positive_with_the_pair(self):
        for pair in self.pairs():
            assert pair.eta1.is_completely_positive()
            assert pair.eta2.is_completely_positive()
            assert pair.hermitization().is_completely_positive()
        not_cp = choi_map(np.diag([1.0, -0.5, 0.0, 1.0]))
        assert not not_cp.is_completely_positive()
        for pair in (EtaPair(not_cp, scalar_map(2, 1.0)),
                     EtaPair(scalar_map(2, 1.0), not_cp)):
            assert not pair.hermitization().is_completely_positive()


class TestChoiAndNorms:
    def test_scalar_choi_is_scaled_entangled_projector(self):
        t, d = 0.8, 3
        c = scalar_map(d, t).choi_matrix()
        ev = np.linalg.eigvalsh(c)
        assert np.isclose(ev[-1], t * d)
        assert np.allclose(ev[:-1], 0, atol=1e-12)
        assert np.isclose(scalar_map(d, t).cp_norm(), t)

    def test_equality_is_identity(self):
        m = scalar_map(2, 1.0)
        assert (m == scalar_map(2, 1.0)) is False
        assert (m == m) is True

    def test_zero_map(self):
        m = scalar_map(2, 0.0)
        assert m.cp_norm() == 0.0
        assert m.is_completely_positive()

    @pytest.mark.parametrize("build", [
        lambda: choi_map(np.zeros((0, 0))),
        lambda: choi_map(np.zeros((0,) * 4)),
        lambda: choi_map(np.zeros((2, 2, 2, 3))),
        lambda: CovarianceMap(np.zeros((0,) * 4)),
        lambda: CovarianceMap(np.zeros((4, 4))),
        lambda: eta_iid_blocks([np.zeros((0, 0))]),
    ], ids=["choi-matrix-d0", "choi-tensor-d0", "choi-tensor-uneven",
            "map-d0", "map-matrix", "iid-blocks-d0"])
    def test_refuses_a_tensor_that_is_not_d4_with_d_positive(self, build):
        # the one shape check is CovarianceMap's: a d = 0 map never reaches
        # the solver, whose window size divides by d^4
        with pytest.raises(ValueError, match=r"is not \(d,d,d,d\) with d >= 1"):
            build()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf],
                             ids=["nan", "inf", "imag-inf"])
    def test_refuses_a_non_finite_choi_tensor(self, bad):
        # such a map used to construct, and solve_dyson and certified_traces
        # then failed in cp_norm's SVD with LinAlgError
        choi = flat_map(2, 1.0).choi4.copy()
        choi[0, 0, 0, 0] = bad
        with pytest.raises(ValueError, match="Choi tensor has a NaN or infinite entry"):
            CovarianceMap(choi)

    def test_covariance_tensor_names_d(self):
        with pytest.raises(ValueError, match="with d >= 1, got d = 0"):
            CovarianceTensor(np.zeros((0,) * 4))

    def test_matrix_unit_conjugation_norm(self):
        m = eta_wigner_blocks(samples=[E12, -E12])
        assert np.isclose(m.cp_norm(), 1.0)

    def test_cp_for_all_constructors(self):
        gen = rng()
        maps = [
            scalar_map(2, 1.3),
            flat_map(3, 0.5),
            eta_iid_blocks(samples=[random_b(gen) for _ in range(6)]),
            eta_wigner_blocks(samples=[random_b(gen) for _ in range(6)]),
            eta_kronecker([random_b(gen), random_b(gen)],
                          [[1.0, 0.2], [0.2, 0.5]]),
            eta_correlated_tensor(CovarianceTensor(delta_tensor(2))),
            eta_exchangeable_pool([1.0, -1.0, 0.5, -0.5]),
        ]
        pair = eta_wishart_pair(CovarianceTensor(delta_tensor(2)))
        maps.extend([pair.eta1, pair.eta2])
        for i, m in enumerate(maps):
            assert m.is_completely_positive(), i

    def test_linearity_and_adjoint(self):
        gen = rng()
        m = eta_kronecker([random_b(gen), random_b(gen)],
                          [[1.0, 0.4], [0.4, 1.0]])
        for _ in range(10):
            b1, b2 = random_b(gen), random_b(gen)
            alpha = complex(gen.standard_normal(), gen.standard_normal())
            lhs = m.apply(alpha * b1 + b2)
            rhs = alpha * m.apply(b1) + m.apply(b2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))
            assert np.max(np.abs(m.apply(b1.conj().T) - m.apply(b1).conj().T)) <= 1e-12 * (
                1 + np.max(np.abs(m.apply(b1))))

    def test_choi_vs_direct_sum_formula(self):
        # applying through the Choi contraction must match the defining sum
        gen = rng()
        samples = [random_b(gen) for _ in range(5)]
        m = eta_iid_blocks(samples=samples)
        centered = [s - sum(samples) / len(samples) for s in samples]
        for _ in range(100):
            b = random_b(gen)
            direct = sum(x @ b @ x.conj().T + x.conj().T @ b @ x
                         for x in centered) / (2 * len(samples))
            assert np.allclose(m.apply(b), direct, atol=1e-10)

    def test_eta_pair_dimension_mismatch(self):
        with pytest.raises(ValueError):
            EtaPair(scalar_map(2, 1.0), scalar_map(3, 1.0))

    def test_empirical_maps_run_no_eigensolver(self, monkeypatch):
        # a sum of conjugations is CP by construction: an empirical map is
        # its conjugation Choi tensor as built, with no PSD projection
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        gen = rng()
        cases = [(d, n) for d in (1, 2, 3, 4) for n in (1, 2, 7, 60)]
        samples = [[random_b(gen, d) for _ in range(n)] for d, n in cases]
        with monkeypatch.context() as patch:
            for name in ("eigh", "eigvalsh"):
                patch.setattr(np.linalg, name, refuse)
            maps = [build(samples=s) for s in samples
                    for build in (eta_iid_blocks, eta_wigner_blocks)]
            maps.append(eta_exchangeable_pool([1.0, -1.0, 0.5, -0.5]))
        for m in maps:
            assert m.is_completely_positive()
        from dyson_blocks.eta import _conjugation_choi
        stack = np.stack(samples[-1]) - np.mean(samples[-1], axis=0)
        assert np.array_equal(
            maps[-2].choi4, _conjugation_choi(stack, np.full(60, 1 / 60)))


class TestToleranceScaling:
    """psd_factor, has_adjoint_symmetry and is_real decide the same for M
    and M * 10^k: a defect of half the bound's norm term is inside at every
    scale, one of twice the whole bound at k = 0 outside at every scale.
    Above 1e154 np.linalg.norm overflowed to inf and both tests passed
    anything finite."""

    SCALES = [10.0 ** k for k in range(0, 301, 50)]

    @staticmethod
    def defect(norm, rtol, inside):
        assert norm >= 1.0
        return 0.5 * rtol * norm if inside else 2 * rtol * (1.0 + norm)

    @pytest.mark.parametrize("inside", [True, False])
    def test_negative_eigenvalue(self, inside):
        # an exactly Hermitian Choi matrix with eigenvalues 3, 2, 1, -x
        gen = rng()
        q, _ = np.linalg.qr(random_b(gen, 4))
        x = self.defect(np.sqrt(14.0), 1e-10, inside)
        m = q @ np.diag([3.0, 2.0, 1.0, -x]) @ q.conj().T
        m = (m + m.conj().T) / 2
        for scale in self.SCALES:
            assert choi_map(m * scale).is_completely_positive() is inside, scale

    @pytest.mark.parametrize("inside", [True, False])
    def test_hermitian_half(self, inside):
        m = np.diag([3.0, 2.0, 1.0, 1.0]).astype(complex)
        m[0, 1] = self.defect(np.sqrt(15.0), 1e-12, inside)
        for scale in self.SCALES:
            if inside:
                psd_factor(m * scale, "not Hermitian", "not PSD")
            else:
                with pytest.raises(ValueError, match="not Hermitian"):
                    psd_factor(m * scale, "not Hermitian", "not PSD")

    @pytest.mark.parametrize("inside", [True, False])
    def test_adjoint_symmetry(self, inside):
        # sigma(0,1;0,1) is a diagonal entry of the pair matrix; its
        # adjoint partner is sigma(1,0;1,0)
        sigma = 2.0 * delta_tensor(2).astype(complex)      # ||sigma||_F = 4
        sigma[0, 1, 0, 1] += self.defect(4.0, 1e-12, inside)
        for scale in self.SCALES:
            assert CovarianceTensor(sigma * scale).has_adjoint_symmetry is inside, scale

    @pytest.mark.parametrize("inside", [True, False])
    def test_is_real(self, inside):
        # +-i x on the mirrored pair entries (0,0;1,1) and (1,1;0,0) keeps
        # the pair matrix 2 I Hermitian
        x = self.defect(4.0, 1e-12, inside)
        sigma = 2.0 * delta_tensor(2).astype(complex)      # ||sigma||_F = 4
        sigma[0, 0, 1, 1], sigma[1, 1, 0, 0] = 1j * x, -1j * x
        for scale in [1e4, 1e8, 1e12] + self.SCALES:
            assert CovarianceTensor(sigma * scale).is_real is inside, scale


class TestSubalgebra:
    """The smallest unital algebra A with eta(A) in A, and eta's structure
    constants on its basis."""

    @staticmethod
    def wishart_hermitization(d):
        m = rng().standard_normal((d * d, d * d))
        return eta_wishart_pair(CovarianceTensor(
            (m @ m.T / d ** 2).reshape(d, d, d, d))).hermitization()

    @staticmethod
    def random_cp(d):
        gen = rng()
        return eta_iid_blocks(samples=[random_b(gen, d) for _ in range(3)])

    @staticmethod
    def circulant(d):
        from dyson_blocks import sampler
        return sampler.model_eta(sampler.ModelSpec(model="circulant", d=d, N=8))

    @pytest.mark.parametrize("build, dim", [
        (lambda: flat_map(4, 1.0), 1),
        (lambda: eta_kronecker([I2, E12], np.eye(2)), 1),
        (lambda: TestSubalgebra.circulant(3), 2),
        (lambda: TestSubalgebra.circulant(5), 2),
        (lambda: TestSubalgebra.circulant(6), 2),
        (lambda: TestSubalgebra.wishart_hermitization(2), 8),
        (lambda: TestSubalgebra.wishart_hermitization(3), 18),
        (lambda: TestSubalgebra.wishart_hermitization(4), 32),
        (lambda: TestSubalgebra.random_cp(2), 4),
        (lambda: TestSubalgebra.random_cp(3), 9),
        (lambda: TestSubalgebra.random_cp(5), 25),
    ], ids=["flat-d4", "kronecker-I-E12", "circulant-d3", "circulant-d5",
            "circulant-d6", "wishart-d2", "wishart-d3", "wishart-d4",
            "random-cp-d2", "random-cp-d3", "random-cp-d5"])
    def test_dimension(self, build, dim):
        eta = build()
        basis = eta.subalgebra_basis
        assert basis.shape == (dim, eta.d, eta.d)
        assert basis is eta.subalgebra_basis            # built once
        # orthonormal, and closed under eta and products
        flat = basis.reshape(dim, -1)
        assert np.allclose(flat.conj() @ flat.T, np.eye(dim), rtol=0, atol=1e-13)

        def outside(mats):
            vecs = mats.reshape(-1, eta.d ** 2)
            return np.abs(vecs - (vecs @ flat.conj().T) @ flat).max()
        images = np.array([eta(q) for q in basis])
        assert outside(images) <= 1e-12 * np.abs(images).max()
        assert outside(basis[:, None] @ basis[None]) <= 1e-12

    def test_structure_constants_hold_a_few_arrays_of_their_size(self):
        # the products are taken over slices of rows, so the build's traced
        # peak stays within a few arrays of D's m^3 entries
        eta = self.wishart_hermitization(4)
        eta.subalgebra_basis
        tracemalloc.start()
        try:
            D = eta.structure_constants
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert D.shape == (32, 32 ** 2)
        assert peak <= 4 * D.nbytes

    @pytest.mark.parametrize("h2, everything", [
        (np.ones((3, 3)), True),
        (np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1.0]]), False),    # blocks {0, 1}, {2}
        (np.diag([3.0, 1.0, 2.0]), False),
        (np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0.0]]), True),     # a chain
    ], ids=["dense", "two-blocks", "diagonal", "chain"])
    def test_generate_everything(self, h2, everything):
        from dyson_blocks.eta import _generate_everything
        u = np.linalg.qr(rng().standard_normal((3, 3)))[0]
        h1 = u @ np.diag([1.0, 2.0, 4.0]) @ u.T
        assert _generate_everything(h1, u @ h2 @ u.T) is everything
        # a repeated eigenvalue of h1 shows nothing, a multiple of I too
        assert not _generate_everything(u @ np.diag([1.0, 1.0, 4.0]) @ u.T, u @ h2 @ u.T)
        assert not _generate_everything(2.0 * np.eye(3), u @ h2 @ u.T)

    def test_generic_map_skips_the_closure(self, monkeypatch):
        from dyson_blocks import eta as eta_module
        monkeypatch.setattr(eta_module, "_new_directions", None)
        eta = self.random_cp(4)
        assert np.array_equal(eta.subalgebra_basis.reshape(16, 16), np.eye(16))

    def test_hermitization_is_kept(self):
        pair = eta_wishart_pair(CovarianceTensor(np.ones((1, 1, 1, 1))))
        assert pair.hermitization() is pair.hermitization()

    @pytest.mark.parametrize("d", [2, 3])
    def test_structure_constants_give_the_jacobian(self, d):
        # on A, the derivative H -> z H - eta(H) G - eta(G) H of
        # R = (z - eta(G)) G - I is z I_m - (g @ D).reshape(m, m)
        eta = self.wishart_hermitization(d)
        basis, D = eta.subalgebra_basis, eta.structure_constants
        m = len(basis)
        gen, z = rng(), 0.3 + 0.7j
        g = gen.standard_normal(m) + 1j * gen.standard_normal(m)
        G = np.einsum("l,lij->ij", g, basis)
        columns = [z * q - eta(q) @ G - eta(G) @ q for q in basis]
        want = np.array([[np.vdot(qj, col) for col in columns] for qj in basis])
        assert np.allclose(z * np.eye(m) - (g @ D).reshape(m, m), want,
                           rtol=0, atol=1e-12 * np.abs(want).max())

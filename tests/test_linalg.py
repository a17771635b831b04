import sys
import threading

import numpy as np
import pytest

from dyson_blocks import linalg
from dyson_blocks.linalg import (HermiticityError, SingularMatrixError,
                                 frobenius_norm, hermitian_eigenvalues,
                                 hermiticity_defect, invert, is_hermitian,
                                 operator_norm, resolvent_trace,
                                 within_tolerance)


def rng():
    return np.random.Generator(np.random.Philox(key=[1234, 0]))


def random_hermitian(n, gen):
    a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return (a + a.conj().T) / 2


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(3)), [1, 1, 1])

    def test_diagonal(self):
        assert np.allclose(hermitian_eigenvalues(np.diag([-2.0, 0.0, 5.0])),
                           [-2, 0, 5])

    def test_pauli_x(self):
        # characteristic polynomial lambda^2 - 1 = 0
        ev = hermitian_eigenvalues(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(ev, [-1, 1])

    def test_sorted_ascending(self):
        ev = hermitian_eigenvalues(random_hermitian(12, rng()))
        assert np.all(np.diff(ev) >= 0)

    def test_sum_matches_trace(self):
        gen = rng()
        for n in (3, 8, 20):
            m = random_hermitian(n, gen)
            ev = hermitian_eigenvalues(m)
            assert abs(ev.sum() - np.trace(m).real) <= 1e-9 * n * frobenius_norm(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def resolvent_tol(z):
    return 1e-13 * max(1.0, abs(z.imag) ** -2)


def assert_matches_eigenvalues(m, zs):
    ev = np.linalg.eigvalsh(m)
    got = resolvent_trace(m, zs)
    assert got.shape == (len(zs),)
    for z, g in zip(zs, got):
        assert abs(g - np.mean(1.0 / (z - ev))) <= resolvent_tol(z), (len(m), z)


# Im z from far above the spectrum down to 1e-6, at the edge and in the
# bulk, and one z below the real axis
Z_LIST = [3j, 0.4 + 1j, -1.5 + 0.1j, 0.2 + 1e-3j, 1.0 + 1e-6j, 2 - 0.5j, 50j]


class TestResolventTrace:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 129, 400])
    def test_matches_eigenvalues(self, n):
        m = random_hermitian(n, rng()) / np.sqrt(n)
        assert_matches_eigenvalues(m, Z_LIST)

    def test_one_by_one(self):
        assert resolvent_trace(np.array([[2.0]]), [2 + 1j])[0] == 1 / 1j

    def test_z_near_the_axis_on_an_eigenvalue(self):
        m = np.diag([-1.0, 0.0, 0.5, 1.0]).astype(complex)
        z = 0.5 + 1e-6j
        assert_matches_eigenvalues(m, [z])
        assert abs(resolvent_trace(m, [z])[0].imag) > 1e5

    def test_several_z_match_one_call_each(self):
        m = random_hermitian(40, rng()) / np.sqrt(40)
        together = resolvent_trace(m, Z_LIST)
        apart = [resolvent_trace(m, [z])[0] for z in Z_LIST]
        assert np.array_equal(together, apart)

    def test_scalar_z(self):
        m = random_hermitian(5, rng())
        assert resolvent_trace(m, 2j).shape == (1,)

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            resolvent_trace(np.array([[0, 1], [0, 0]], dtype=complex), [1j])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            resolvent_trace(np.ones((2, 3)), [1j])

    def test_rejects_real_z_and_empty_matrix(self):
        with pytest.raises(ValueError):
            resolvent_trace(np.eye(2), [1j, 0.5])
        with pytest.raises(ValueError):
            resolvent_trace(np.zeros((0, 0)), [1j])

    @pytest.mark.parametrize("z", [complex(0.0, np.nan), complex(np.nan, 1.0),
                                   complex(np.inf, 1.0), complex(0.0, np.inf)],
                             ids=["nan-imag", "nan-real", "inf-real", "inf-imag"])
    def test_rejects_a_non_finite_z(self, z):
        with pytest.raises(ValueError, match="finite with nonzero imaginary part"):
            linalg.resolvent_points([1j, z])
        with pytest.raises(ValueError, match="finite with nonzero imaginary part"):
            resolvent_trace(np.eye(2), [1j, z])
        assert linalg.resolvent_points(-0.5 - 2j).tolist() == [-0.5 - 2j]


LEAF = linalg.RESOLVENT_LEAF
EPS = np.finfo(np.float64).eps
# ||A X - I||_F <= RESIDUAL_MULTIPLE eps n ||A|| / |Im z| on the cases below;
# the worst measured is 25 (n = 129, Im z = 1e-3).  No constant holds for
# every M: a leading block with an eigenvalue near Re z makes the Schur
# complement A22 - A21 A11^-1 A12 cancel terms of size ||A||^2 / |Im z|.
RESIDUAL_MULTIPLE = 100


def assert_inverts(a, im_z):
    n = a.shape[0]
    bound = RESIDUAL_MULTIPLE * EPS * n * operator_norm(a) / abs(im_z)
    x = linalg._resolvent_inverse(a)
    lu = np.linalg.inv(a)
    eye = np.eye(n)
    assert frobenius_norm(a @ x - eye) <= bound
    assert frobenius_norm(a @ lu - eye) <= bound
    # X - A^-1 = A^-1 (A X - I) and ||A^-1|| <= 1 / |Im z|
    assert frobenius_norm(x - lu) <= 2 * bound / abs(im_z)
    return x, lu


class TestResolventInverse:
    @pytest.mark.parametrize("im_z", [0.5, -0.5, 1e-3, 1e-6])
    @pytest.mark.parametrize("n", [LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 1, 129, 400])
    def test_matches_lu_inverse(self, n, im_z):
        m = random_hermitian(n, rng()) / np.sqrt(n)
        x, lu = assert_inverts((0.3 + 1j * im_z) * np.eye(n) - m, im_z)
        if n <= LEAF:
            assert np.array_equal(x, lu)

    def test_gram_at_the_edge(self):
        # z^2 of the wishart command's pinned config: the top of the
        # Marchenko-Pastur support at 4, just above the axis
        n = 400
        gen = rng()
        h = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2 * n)
        assert_inverts((4 + 0.01j) * np.eye(n) - h @ h.conj().T, 0.01)


class TestHermiticityDefect:
    def test_matches_dense_difference(self):
        gen = rng()
        for n in (1, 63, 64, 65, 150):
            a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
            assert hermiticity_defect(a) == np.max(np.abs(a - a.conj().T))

    def test_empty(self):
        assert hermiticity_defect(np.zeros((0, 0))) == 0.0

    def test_perturbed_entry_in_last_row_block(self):
        # rows 128-149 form the last, partial block of 64 rows
        n = 150
        m = random_hermitian(n, rng())
        assert hermiticity_defect(m) == 0.0
        m[149, 3] += 1e-6
        assert hermiticity_defect(m) == abs(m[149, 3] - m[3, 149].conj())
        assert not is_hermitian(m)
        with pytest.raises(HermiticityError):
            resolvent_trace(m, [1j])

    @pytest.mark.parametrize("i, j, delta", [
        (3, 149, 1e-6), (149, 3, 1e-6), (63, 64, 1e-6), (64, 63, 1e-6),
        (100, 70, 1e-6), (64, 64, 1e-6j)])
    def test_each_triangle_and_block_boundary(self, i, j, delta):
        # the scan compares each 64-row block from its diagonal block
        # rightwards, so an entry below the diagonal is found through its
        # mirror; (63, 64) and (64, 63) straddle the first block boundary
        m = random_hermitian(150, rng())
        m[i, j] += delta
        defect = hermiticity_defect(m)
        assert defect > 0.0
        assert defect == np.max(np.abs(m - m.conj().T))


class TestIsHermitian:
    def test_exact_symmetry_skips_the_norm(self, monkeypatch):
        m = random_hermitian(70, rng())

        def forbidden(a):
            raise AssertionError("norm taken for an exactly Hermitian matrix")
        monkeypatch.setattr(linalg, "frobenius_norm", forbidden)
        assert is_hermitian(m)

    @pytest.mark.parametrize("n, i, j", [
        (50, 7, 3), (128, 100, 70), (128, 100, 100)])
    @pytest.mark.parametrize("entry, symmetric", [
        (0.0, False), (1e-13, False), (1e-9, False), (np.nan, False),
        (np.nan, True), (np.inf, False), (np.inf, True), (1e300, True)])
    def test_same_decision_as_the_full_test(self, n, i, j, entry, symmetric):
        # the defect of a NaN entry, or of an inf one opposite an inf, is
        # NaN: nonzero, so the norm is taken and the decision is unchanged.
        # An inf entry opposite a finite one has defect inf, which fails
        # although the norm is inf too.  At n = 128 the entry lies in the
        # second block of 64 rows, after a block whose defect is 0.0;
        # (100, 100) is a diagonal entry
        m = random_hermitian(n, rng())
        m[i, j] += entry
        if symmetric:
            m[j, i] = np.conj(m[i, j])
        with np.errstate(all="ignore"):
            dense = np.max(np.abs(m - m.conj().T))
            full = bool(dense < np.inf
                        and dense <= 1e-12 * (1.0 + np.linalg.norm(m)))
            assert is_hermitian(m) is full
            if not full:
                with pytest.raises(HermiticityError):
                    hermitian_eigenvalues(m)

    @pytest.mark.parametrize("n, i, j", [(4, 2, 0), (128, 100, 70)])
    def test_one_sided_inf_is_rejected(self, n, i, j):
        # the defect is inf, and so is the norm: inf <= 1e-12 (1 + inf)
        # held, so the matrix passed and eigvalsh failed to converge
        m = np.eye(n, dtype=np.complex128)
        m[i, j] = np.inf
        with np.errstate(all="ignore"):
            assert hermiticity_defect(m) == np.inf
            assert not is_hermitian(m)
            with pytest.raises(HermiticityError, match="defect inf"):
                hermitian_eigenvalues(m)
            with pytest.raises(HermiticityError, match="defect inf"):
                resolvent_trace(m, [1j])

    @pytest.mark.parametrize("i, j", [(100, 100), (100, 70), (70, 100)])
    def test_nan_after_the_first_row_block_is_rejected(self, i, j):
        m = random_hermitian(128, rng())
        m[i, j] = np.nan
        with np.errstate(all="ignore"):
            assert np.isnan(hermiticity_defect(m))
            assert not is_hermitian(m)
            with pytest.raises(HermiticityError):
                resolvent_trace(m, [1j])

    @pytest.mark.parametrize("n", [2, 70])
    @pytest.mark.parametrize("inside", [True, False])
    def test_decision_does_not_depend_on_scale(self, n, inside):
        # a defect of half the bound's norm term stays inside at every
        # scale, and one of twice the whole bound at k = 0 stays outside;
        # above 1e154 np.linalg.norm overflowed and everything passed
        m = random_hermitian(n, rng())
        norm = np.linalg.norm(m)
        assert norm >= 1.0
        m[0, 1] += 0.5e-12 * norm if inside else 2e-12 * (1.0 + norm)
        assert is_hermitian(m) is inside
        for k in range(0, 301, 50):
            assert is_hermitian(m * 10.0 ** k) is inside, k

    def test_antisymmetric_pair_beyond_the_norm_overflow(self):
        assert not is_hermitian([[0.0, 1e250], [-1e250, 0.0]])
        with pytest.raises(HermiticityError, match="defect 2.000e\\+250"):
            hermitian_eigenvalues([[0.0, 1e250], [-1e250, 0.0]])


class TestWithinTolerance:
    def test_zero_defect_skips_the_norm(self, monkeypatch):
        def forbidden(a):
            raise AssertionError("norm taken for a zero defect")
        monkeypatch.setattr(linalg, "frobenius_norm", forbidden)
        assert within_tolerance(0.0, np.full((3, 3), np.nan))

    @pytest.mark.parametrize("defect", [np.nan, np.inf])
    def test_non_finite_defect_fails(self, defect):
        # the norm of an inf matrix is inf; the bound is capped below it
        assert not within_tolerance(defect, np.eye(2))
        assert not within_tolerance(defect, [[np.inf, 0.0], [0.0, 1.0]])

    def test_relative_bound(self):
        m = 3.0 * np.eye(4)                          # ||m||_F = 6
        assert within_tolerance(7e-12, m)
        assert not within_tolerance(7.01e-12, m)
        assert within_tolerance(7e-10, m, rtol=1e-10)
        assert not within_tolerance(7.01e-10, m, rtol=1e-10)


class TestInvert:
    def test_scaled_identity(self):
        assert np.allclose(invert(2 * np.eye(2)), 0.5 * np.eye(2))

    def test_unipotent(self):
        m = np.array([[1, 1], [0, 1]], dtype=complex)
        assert np.allclose(invert(m), [[1, -1], [0, 1]])

    def test_scalar_resolvent(self):
        assert np.allclose(invert(3j * np.eye(2)), -(1j / 3) * np.eye(2))

    def test_residual_certificate(self):
        gen = rng()
        for n in (4, 16):
            m = random_hermitian(n, gen) + 2j * np.eye(n)
            x = invert(m)
            assert frobenius_norm(m @ x - np.eye(n)) <= 1e-9 * n

    def test_involution(self):
        gen = rng()
        m = random_hermitian(8, gen) + 3j * np.eye(8)
        assert np.linalg.cond(m) < 1e6
        back = invert(invert(m))
        assert frobenius_norm(back - m) <= 1e-8 * frobenius_norm(m)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            invert(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            invert(np.ones((2, 3)))


class TestNorms:
    def test_identity(self):
        for d in (1, 4, 9):
            assert np.isclose(frobenius_norm(np.eye(d)), np.sqrt(d))
            assert np.isclose(operator_norm(np.eye(d)), 1.0)

    def test_zero(self):
        z = np.zeros((3, 3))
        assert frobenius_norm(z) == 0.0
        assert operator_norm(z) == 0.0

    def test_rank_one(self):
        m = np.array([[0, 3], [0, 0]], dtype=complex)
        assert np.isclose(frobenius_norm(m), 3.0)
        assert np.isclose(operator_norm(m), 3.0)

    def test_operator_below_frobenius(self):
        gen = rng()
        for _ in range(5):
            m = gen.standard_normal((6, 6)) + 1j * gen.standard_normal((6, 6))
            assert operator_norm(m) <= frobenius_norm(m) + 1e-12

    def test_entries_beyond_the_square_root_of_the_float_range(self):
        # np.linalg.norm squares 1e200 to inf
        assert abs(frobenius_norm([[1e200, 1e200]]) / (np.sqrt(2) * 1e200) - 1) <= 1e-15
        assert np.isclose(frobenius_norm([[3e300j, 4e300]]), 5e300, rtol=1e-15)
        assert frobenius_norm([[1e308 + 1e308j, 1e308 + 1e308j]]) == np.inf
        assert frobenius_norm([[np.inf, 1.0]]) == np.inf
        assert np.isnan(frobenius_norm([[np.nan, 1e300]]))

    def test_other_inputs_keep_the_bits_of_np_linalg_norm(self):
        gen = rng()
        for scale in (1e-300, 1.0, 1e150):
            m = scale * (gen.standard_normal((9, 9)) + 1j * gen.standard_normal((9, 9)))
            assert frobenius_norm(m) == np.linalg.norm(m)


class TestOneBlasThread:
    @pytest.fixture
    def calls(self):
        calls = linalg._blas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS exports no thread-count calls")
        get, set_ = calls
        before = get()
        set_(3)                 # a count that differs from the pin's
        yield get
        set_(before)

    def test_pins_one_thread_and_restores_the_count(self, calls):
        with linalg.one_blas_thread() as pinned:
            assert pinned is True and calls() == 1
        assert calls() == 3

    def test_restores_the_count_after_an_exception(self, calls):
        with pytest.raises(KeyError):
            with linalg.one_blas_thread():
                raise KeyError("inside")
        assert calls() == 3

    def test_nested_and_concurrent_blocks_share_one_pin(self, calls):
        inner_open, outer_closed = threading.Event(), threading.Event()
        seen = []

        def other():
            with linalg.one_blas_thread():
                inner_open.set()
                assert outer_closed.wait(10.0)
                seen.append(calls())
            seen.append(calls())

        thread = threading.Thread(target=other)
        with linalg.one_blas_thread():
            with linalg.one_blas_thread():
                assert calls() == 1
            assert calls() == 1
            thread.start()
            assert inner_open.wait(10.0)
        outer_closed.set()
        thread.join()
        assert seen == [1, 3] and calls() == 3

    def test_many_threads_keep_the_pin_and_restore_the_count(self, calls):
        # more threads than cores, switching often: a lost update of the
        # open-block count would unpin a block early or never restore
        inside = []

        def worker():
            for _ in range(200):
                with linalg.one_blas_thread():
                    inside.append(calls())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(inside) == 1600 and set(inside) == {1}
        assert calls() == 3

    def test_missing_symbols_change_nothing(self, monkeypatch, calls):
        monkeypatch.setattr(linalg, "_blas_thread_calls", lambda: None)
        with linalg.one_blas_thread() as pinned:
            assert pinned is False and calls() == 3
        assert calls() == 3

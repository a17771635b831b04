import hashlib
import json

import numpy as np
import pytest

from dyson_blocks import dyson, sampler
from dyson_blocks.dyson import (SolverFailure, SolverOptions,
                                cdf_from_density, certified_traces,
                                circulant_mixture, mixture_cauchy,
                                scalar_semicircle_cauchy, solve_dyson,
                                solve_semicircular, solve_wishart,
                                stieltjes_density)
from dyson_blocks.eta import (CovarianceMap, CovarianceTensor, EtaPair,
                              choi_map, eta_kronecker, eta_wishart_pair,
                              flat_map, scalar_map)
from dyson_blocks.linalg import frobenius_norm, operator_norm

GOLDEN_2I = 1j * (1 - np.sqrt(2))     # root of g^2 - z g + 1 at z = 2i


def rng():
    return np.random.Generator(np.random.Philox(key=[40, 4]))


def random_cp_map(gen, d):
    ops = [gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
           for _ in range(3)]
    from dyson_blocks.eta import eta_iid_blocks
    return eta_iid_blocks(samples=ops)


class TestScalarSemicircle:
    def test_closed_form_at_2i(self):
        assert np.isclose(scalar_semicircle_cauchy(1.0, 2j), GOLDEN_2I,
                          atol=1e-14)

    def test_large_z_asymptotics(self):
        z = 1e6j
        g = scalar_semicircle_cauchy(1.0, z)
        assert abs(g - 1 / z) <= 1e-12 * abs(1 / z)

    def test_boundary_density_at_zero(self):
        # density of the unit semicircle at 0 is 1/pi
        g = scalar_semicircle_cauchy(1.0, 1e-7j)
        assert abs(g.imag + 1.0) < 1e-6

    def test_quadratic_residual(self):
        gen = rng()
        for _ in range(50):
            t = float(gen.uniform(0.1, 4.0))
            z = complex(gen.uniform(-3, 3), gen.uniform(0.05, 5.0))
            g = scalar_semicircle_cauchy(t, z)
            assert abs(t * g * g - z * g + 1) <= 1e-12
            assert g.imag < 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            scalar_semicircle_cauchy(0.0, 2j)
        with pytest.raises(ValueError):
            scalar_semicircle_cauchy(1.0, 2.0 - 1j)

    @pytest.mark.parametrize("t, z", [
        (np.nan, 1j), (np.inf, 1j), (1.0, complex(0, np.nan)),
        (1.0, complex(0, np.inf)), (1.0, complex(np.nan, 1.0)),
        (1.0, [1j, complex(0, np.nan)])])
    def test_rejects_non_finite_inputs(self, t, z):
        # these gave nan+nanj, or -0j at t = inf
        with pytest.raises(ValueError):
            scalar_semicircle_cauchy(t, z)


class TestMixture:
    def test_single_component(self):
        z = 1.5 + 0.8j
        assert mixture_cauchy([1.0], [0.7], z) == scalar_semicircle_cauchy(0.7, z)

    def test_known_weights_d3_d4(self):
        w3, t3 = circulant_mixture(3)
        assert w3 == [2 / 3, 1 / 3] and t3 == [2 / 3, 5 / 3]
        w4, t4 = circulant_mixture(4)
        assert w4 == [1 / 2, 1 / 2] and t4 == [1 / 2, 3 / 2]

    def test_weight_sum_violation(self):
        with pytest.raises(ValueError):
            mixture_cauchy([0.5, 0.4], [1.0, 2.0], 2j)

    @pytest.mark.parametrize("w, t", [
        ([float("nan"), 1.0], [1.0, 1.0]),     # a NaN weight passes the sum check
        ([1.0], [float("nan")]),
        ([1.0], [float("inf")]),
    ])
    def test_non_finite_rejected(self, w, t):
        with pytest.raises(ValueError, match="finite"):
            mixture_cauchy(w, t, 2j)

    def test_second_moment_identity_exact(self):
        # sum(w) = 1 and sum(w * t) = 1 exactly, for every d in 2..20
        from fractions import Fraction
        for d in range(2, 21):
            w, t = circulant_mixture(d, exact=True)
            assert sum(w) == Fraction(1)
            assert sum(wi * ti for wi, ti in zip(w, t)) == Fraction(1)

    @pytest.mark.parametrize("d", range(2, 65))
    def test_floats_are_the_exact_values_rounded(self, d):
        # the float path divides ints and never builds a Fraction; it must
        # give the bits (and the component count) of the exact one
        floats = circulant_mixture(d)
        exact = circulant_mixture(d, exact=True)
        for got, want in zip(floats, exact, strict=True):
            assert [x.hex() for x in got] == [float(x).hex() for x in want]


class TestSolveSemicircular:
    def test_zero_map(self):
        sol = solve_semicircular(scalar_map(2, 0.0), 3j)
        assert sol.converged
        assert np.allclose(sol.G, -(1j / 3) * np.eye(2))
        assert sol.residual <= 1e-11

    def test_scalar_variance_one(self):
        sol = solve_semicircular(scalar_map(1, 1.0), 2j)
        assert sol.converged
        assert abs(sol.trace() - GOLDEN_2I) < 1e-10

    def test_flat_map_reduces_to_scalar(self):
        # eta(B) = tr(B)/d * I closes on multiples of I
        for d in (2, 3, 5):
            for z in (2j, 1.0 + 1.5j, -2.0 + 0.7j):
                sol = solve_semicircular(flat_map(d, 1.0), z)
                assert sol.converged
                expected = scalar_semicircle_cauchy(1.0, z)
                assert abs(sol.trace() - expected) < 1e-10
                assert frobenius_norm(sol.G - expected * np.eye(d)) < 1e-9

    def test_residual_certificate_reproducible(self):
        eta = random_cp_map(rng(), 3)
        z = 0.4 + 2.5j
        sol = solve_semicircular(eta, z)
        assert sol.converged
        recomputed = frobenius_norm(
            z * sol.G - np.eye(3) - eta.apply(sol.G) @ sol.G)
        assert abs(recomputed - sol.residual) <= 1e-13

    def test_negative_imaginary_part(self):
        gen = rng()
        for _ in range(10):
            eta = random_cp_map(gen, 2)
            z = complex(gen.uniform(-2, 2), gen.uniform(0.5, 4))
            sol = solve_semicircular(eta, z)
            if not sol.converged:
                continue
            imag = (sol.G - sol.G.conj().T) / 2j
            assert np.linalg.eigvalsh(imag).max() <= 1e-10

    def test_trace_symmetry_under_reflection(self):
        # tr G(-conj z) = -conj tr G(z): semicircular limit laws are even
        eta = random_cp_map(rng(), 3)
        for z in (0.7 + 1.2j, -1.3 + 2.0j, 2.5 + 0.6j):
            a = solve_semicircular(eta, z)
            b = solve_semicircular(eta, -np.conj(z))
            assert a.converged and b.converged
            assert abs(b.trace() + np.conj(a.trace())) <= 1e-10

    def test_plain_iteration_contracts_above_threshold(self):
        gen = rng()
        for _ in range(20):
            eta = random_cp_map(gen, 3)
            y = 1.5 * np.sqrt(eta.cp_norm()) + 1e-6
            z = complex(gen.uniform(-1, 1), y)
            sol = solve_semicircular(eta, z)
            assert sol.converged
            assert sol.iterations <= 200
            assert sol.damping_used == 1.0

    def test_large_z_resolvent_limit(self):
        eta = random_cp_map(rng(), 2)
        z = 1e6j * (1 + eta.cp_norm())
        sol = solve_semicircular(eta, z)
        assert sol.converged
        assert operator_norm(z * sol.G - np.eye(2)) <= 1e-5

    def test_nonconvergence_is_reported(self):
        sol = solve_semicircular(scalar_map(1, 1.0), 1e-6 + 1e-6j,
                                 SolverOptions(max_iter=5))
        assert not sol.converged
        assert sol.residual > 0

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            solve_semicircular(scalar_map(1, 1.0), 2.0 - 1j)

    def test_stability_margin_degenerates_at_the_edge(self):
        # flat_map(2, 2) is the variance-2 semicircle, edges at +-2 sqrt 2
        margins = {x: solve_semicircular(flat_map(2, 2.0), complex(x, 1e-4))
                   .stability_margin for x in (0.0, -2.83, 2.83)}
        assert abs(margins[0.0] - 1.0) < 1e-9
        assert 10 * margins[2.83] <= margins[0.0]
        assert 10 * margins[-2.83] <= margins[0.0]

    def test_uncertifiable_point_fails_fast(self):
        # eta(B) = a B a^* with a = u v^* of rank 1: ||G|| ~ 1 / Im z, and the
        # rounding in S(G) G, about 1e-16 ||G||^2, keeps every G near the
        # root above tol at z = 1e-5i; the point must fail, not spin to max_iter
        gen = rng()
        u, v = (gen.standard_normal(2) + 1j * gen.standard_normal(2)
                for _ in range(2))
        a = np.outer(u, v.conj())
        eta = choi_map(np.einsum("ki,lj->ikjl", a, a.conj()))
        opts = SolverOptions()
        sol = solve_dyson(eta, [1e-5j], opts)[0]
        assert sol.iterations <= 1000
        assert np.isfinite(sol.residual) and np.isfinite(sol.G).all()
        if sol.converged:
            assert sol.residual <= opts.tol
            imag = (sol.G - sol.G.conj().T) / 2j
            assert np.linalg.eigvalsh(imag).max() <= opts.tol


class TestSolveDyson:
    def test_edge_crossing_grid_matches_closed_form(self):
        # the 601-point grid crosses both edges +-2.83 at eps = 1e-4
        xs = np.arange(-3.0, 3.0 + 0.005, 0.01)
        assert xs.size == 601
        zs = xs + 1e-4j
        sols = solve_dyson(flat_map(2, 2.0), zs)
        assert all(sol.converged for sol in sols)
        traces = np.array([sol.trace() for sol in sols])
        assert np.max(np.abs(traces - scalar_semicircle_cauchy(2.0, zs))) <= 1e-9

    def test_points_do_not_depend_on_the_batch(self):
        eta = random_cp_map(rng(), 3)
        zs = [complex(x, 0.05) for x in np.linspace(-3, 3, 13)]
        batch = solve_dyson(eta, zs)
        for z, sol in zip(zs, batch):
            alone = solve_semicircular(eta, z)
            assert np.array_equal(sol.G, alone.G)
            assert sol.iterations == alone.iterations
        # near x = 0 the Kraus-rank-1 map rejects some points' heights in
        # sweeps where the other points take Newton steps
        eta = _kraus_rank_one_map()
        zs = [complex(x, 1e-6) for x in np.linspace(-0.3, 0.3, 61)]
        for z, sol in zip(zs, solve_dyson(eta, zs)):
            alone = solve_semicircular(eta, z)
            assert np.array_equal(sol.G, alone.G)
            assert (sol.residual, sol.iterations, sol.converged) == (
                alone.residual, alone.iterations, alone.converged)

    def test_wishart_grid(self):
        pair = eta_wishart_pair(CovarianceTensor(np.ones((1, 1, 1, 1))))
        ws = [complex(x, 1e-3) for x in np.linspace(-1.0, 5.0, 61)]
        for w, sol in zip(ws, solve_dyson(pair, ws)):
            assert sol.converged
            s = np.sqrt(w * w - 4 * w)
            exact = min([(w + s) / (2 * w), (w - s) / (2 * w)],
                        key=lambda r: r.imag)
            assert abs(sol.trace() - exact) < 1e-9

    @pytest.mark.parametrize("z", [complex(0, np.nan), complex(0, np.inf),
                                   complex(np.nan, 1.0), complex(np.inf, 1.0)])
    def test_rejects_non_finite_z(self, z):
        # complex(0, nan) gave an unconverged point with a NaN G
        with pytest.raises(ValueError, match="upper half-plane"):
            solve_dyson(scalar_map(1, 1.0), [1j, z])

    def test_rejects_other_models(self):
        assert solve_dyson(scalar_map(1, 1.0), []) == []
        assert solve_dyson(_wishart_pair_d2(), []) == []
        with pytest.raises(TypeError):
            solve_dyson(np.eye(2), [1j])


def _kraus_rank_one_map():
    # eta(B) = a B a^* with a = u v^*: points near x = 0 at small Im z fail
    a = np.outer([1.0 + 0.5j, -0.3 + 1j], np.conj([0.2 - 1j, 0.8 + 0.1j]))
    return choi_map(np.einsum("ki,lj->ikjl", a, a.conj()))


def _kronecker_d3():
    # betas I and the symmetric cyclic shift: the support is about [-3.1, 3.1]
    shift = np.roll(np.eye(3), 1, axis=1)
    return eta_kronecker([np.eye(3), shift + shift.T], np.eye(2) / 4)


def _wishart_pair_d2():
    m = rng().standard_normal((4, 4))
    return eta_wishart_pair(CovarianceTensor((m @ m.T / 4).reshape(2, 2, 2, 2)))


def _full_path(monkeypatch):
    """Every map's subalgebra reads as all of M_d: the driver takes its
    Newton steps on the d^2 x d^2 systems."""
    monkeypatch.setattr(CovarianceMap, "subalgebra_basis", property(
        lambda eta: np.eye(eta.d ** 2, dtype=complex).reshape(-1, eta.d, eta.d)))


class TestDriverFallbacks:
    """The driver's paths for a singular Newton system and a failed step."""

    def test_singular_row_of_a_batched_solve(self):
        gen = rng()
        a = gen.standard_normal((5, 4, 4)) + 1j * gen.standard_normal((5, 4, 4))
        b = gen.standard_normal((5, 4, 1)) + 1j * gen.standard_normal((5, 4, 1))
        a[2, :, 1] = 0                  # a zero column: exactly singular
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, b)
        x, ok = dyson._batched_solve(a, b)
        assert ok.tolist() == [True, True, False, True, True]
        assert np.isnan(x[2]).all()
        for m in (0, 1, 3, 4):
            assert x[m].tobytes() == np.linalg.solve(a[m], b[m]).tobytes()

    ETA = flat_map(2, 1.0)              # the semicircle of variance 1
    ZS = [complex(x, 1e-3) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]

    def _fail_one_step(self, monkeypatch, m, descended):
        """Solve ZS with the Newton step of point m failing once: its first
        step, or when ``descended`` its first step below the start height.
        Returns the solutions and the driver's (G, accepted G, z, accepted
        height, mode) of point m just after the failure."""
        start = dyson.START_HEIGHT_FACTOR * np.sqrt(self.ETA.cp_norm())
        solve, shorten = dyson._batched_solve, dyson._Driver._shorten
        row_zs, seen = [], {}

        def spy(build, row_z):
            def call(*args):
                row_zs.append(row_z(*args))
                return build(*args)
            return call

        def newton_z(A, G, action):
            # the z of each row, up to rounding: A = z I - eta(G)
            k, d = G.shape[0], G.shape[1]
            eta_g = (action @ G.reshape(k, d * d, 1)).reshape(k, d, d)
            return (A + eta_g)[:, 0, 0]

        def fail_once(a, b):
            x, ok = solve(a, b)
            z = row_zs[-1]
            r = int(np.argmin(abs(z.real - self.ZS[m].real)))
            if "failed" not in seen and (z[r].imag < 0.5 * start) == descended:
                seen["failed"] = True
                x[r], ok[r] = np.nan, False
            return x, ok

        def spy_shorten(driver, idx):
            shorten(driver, idx)
            if m in idx and "state" not in seen:
                seen["state"] = (driver.G[m].copy(), driver.accepted[m].copy(),
                                 driver.z[m], driver.accepted_height[m],
                                 driver.mode[m])

        monkeypatch.setattr(dyson, "_newton_jacobian",
                            spy(dyson._newton_jacobian, newton_z))
        monkeypatch.setattr(dyson, "_subalgebra_jacobian",
                            spy(dyson._subalgebra_jacobian, lambda z, g, structure: z))
        monkeypatch.setattr(dyson, "_batched_solve", fail_once)
        monkeypatch.setattr(dyson._Driver, "_shorten", spy_shorten)
        return solve_dyson(self.ETA, self.ZS), seen["state"]

    @pytest.mark.parametrize("descended", [False, True],
                             ids=["first-step", "below-start"])
    def test_failed_newton_step(self, monkeypatch, descended):
        # on the d^2 x d^2 systems, which a failed step does not leave
        _full_path(monkeypatch)
        plain = solve_dyson(self.ETA, self.ZS)
        m = 2                                       # x = 0
        sols, (G, accepted, z, height, mode) = self._fail_one_step(
            monkeypatch, m, descended)
        for k in range(len(self.ZS)):
            if k != m:
                assert sols[k].G.tobytes() == plain[k].G.tobytes()
                assert (sols[k].residual, sols[k].iterations, sols[k].converged) == (
                    plain[k].residual, plain[k].iterations, plain[k].converged)
        if not descended:
            # no certified height yet: the point fails with I/z, in the
            # sweep of its failed step
            assert np.isnan(height) and mode == dyson._FAILED
            assert not sols[m].converged and sols[m].iterations == 1
            assert np.array_equal(sols[m].G, np.eye(2) / self.ZS[m])
        else:
            # it retries from its last certified height, at a height between
            # that one and the target, and still converges
            assert mode == dyson._NEWTON
            assert np.array_equal(G, accepted)
            assert self.ZS[m].imag <= z.imag < height
            assert sols[m].converged
            assert sols[m].iterations > plain[m].iterations
            assert abs(sols[m].trace()
                       - scalar_semicircle_cauchy(1.0, self.ZS[m])) <= 1e-9

    @pytest.mark.parametrize("descended", [False, True],
                             ids=["first-step", "below-start"])
    def test_failed_step_in_coordinates_starts_over_on_the_full_path(
            self, monkeypatch, descended):
        # the flat map's subalgebra is span{I}: its Newton systems are 1 x 1
        # until a step fails; that ends the point's coordinate pass, and the
        # d^2 x d^2 pass starts it again from I/z at the start height and
        # gives it that path's bits
        start = dyson.START_HEIGHT_FACTOR * np.sqrt(self.ETA.cp_norm())
        plain = solve_dyson(self.ETA, self.ZS)
        m = 2                                       # x = 0
        sweep, restarts = dyson._Driver.sweep, []

        def spied(driver, live):
            if not driver.in_coordinates and not restarts:
                restarts.append((driver.target.copy(), driver.G.copy(),
                                 driver.accepted.copy(), driver.z.copy(),
                                 driver.accepted_height.copy(),
                                 driver.iterations.copy(), driver.mode.copy()))
            return sweep(driver, live)
        monkeypatch.setattr(dyson._Driver, "sweep", spied)
        sols, (_, _, _, _, mode) = self._fail_one_step(monkeypatch, m, descended)
        assert mode == dyson._FAILED
        target, G, accepted, z, height, iterations, mode = restarts[0]
        assert target.tolist() == [self.ZS[m]]
        assert z.tolist() == [complex(self.ZS[m].real, start)]
        assert np.array_equal(G, np.eye(2) / z[:, None, None])
        assert np.array_equal(accepted, G) and np.isnan(height).all()
        assert iterations.tolist() == [0] and mode.tolist() == [dyson._NEWTON]
        for k in range(len(self.ZS)):
            if k != m:
                assert _solver_digest(sols[k:k + 1]) == _solver_digest(plain[k:k + 1])
        _full_path(monkeypatch)
        full = solve_dyson(self.ETA, self.ZS[m:m + 1])
        assert sols[m].converged
        assert _solver_digest(sols[m:m + 1]) == _solver_digest(full)

    def test_sweeps_run_out_in_coordinates_starts_over_on_the_full_path(
            self, monkeypatch):
        # a point out of sweeps in coordinates starts over on the full path
        # and fails there, with that path's bits and count of sweeps
        model, zs = _kronecker_d3(), [0.5 + 1e-3j, 2.0 + 1e-3j]
        opts = SolverOptions(max_iter=6)
        sols = solve_dyson(model, zs, opts)
        assert not any(sol.converged for sol in sols)
        _full_path(monkeypatch)
        assert _solver_digest(sols) == _solver_digest(solve_dyson(model, zs, opts))


def _solver_digest(solutions) -> str:
    """SHA-256 of each point's G bytes, residual, iterations and converged."""
    h = hashlib.sha256()
    for sol in solutions:
        h.update(sol.G.tobytes())
        h.update(np.float64(sol.residual).tobytes())
        h.update(np.array([sol.iterations, sol.converged], dtype=np.int64).tobytes())
    return h.hexdigest()


class TestGoldenSolves:
    """Every bit of ``solve_dyson``'s per-point results on five maps.

    A change to the arithmetic of a Newton step, to the continuation or to
    the certificate changes these hashes.  They assume IEEE doubles and this
    platform's LAPACK (numpy 2.4 with scipy-openblas 0.3.31, x86-64) for
    the batched LU, the eigenvalues of the branch test and the SVDs that
    build each map's subalgebra basis.  All five maps take their Newton
    steps in the coordinates of that subalgebra.
    """

    # (map, z points, converged count, digest)
    CASES = {
        # the bench density grid
        "flat-d2": (lambda: flat_map(2, 2.0),
                    lambda: np.arange(-2.7, 2.7 + 0.05, 0.1) + 1e-4j, 55,
                    "86a721ffdea90c203c1fc99da0be12869d93c8538f778dbb2d2df1a2e861ab95"),
        "kronecker-d3": (_kronecker_d3,
                         lambda: np.arange(-3.5, 3.5 + 0.05, 0.1) + 1e-6j, 71,
                         "79caf44ed8af4e9f17f38e46142622cfec08326982f94e9e60d2e330cc3c419b"),
        "circulant-d3": (lambda: sampler.model_eta(
            sampler.ModelSpec(model="circulant", d=3, N=8)),
            lambda: np.arange(-3.0, 3.0 + 0.025, 0.05) + 1e-4j, 121,
            "8b7626d388daeafe1f2a1cf7864bd1bb4eaeb15a453e52afc3b03b88b11a915a"),
        "wishart-d2": (_wishart_pair_d2,
                       lambda: np.linspace(-0.5, 6.0, 66) + 1e-3j, 66,
                       "8c34cf22dd1f3d7157680d0aecf87bf4cef49e231150715b359024cf9ea5ae7b"),
        "kraus-rank-1": (_kraus_rank_one_map,
                         lambda: [complex(x, h) for h in (1e-1, 1e-3, 1e-5)
                                  for x in (-1.0, -0.1, 0.0, 0.1, 1.0)], 13,
                         "d2e8b56c09e4af471a9a3bebdb726a5ae4e7c4091170d9de01a183ff93717763"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_per_point_results(self, name):
        model, zs, converged, digest = self.CASES[name]
        solutions = solve_dyson(model(), zs())
        assert sum(sol.converged for sol in solutions) == converged
        assert _solver_digest(solutions) == digest


class TestStabilityMarginOnDemand:
    """The margin's SVDs run when a point's ``stability_margin`` is first
    read, for all the points of its batch together, and give the same bits
    as margins taken during the solve."""

    # SHA-256 of the margins of TestGoldenSolves' points, each map solved
    # under the 64-entry cap of test_margins_are_the_batched_values: on the
    # Newton systems that NEWTON names
    MARGIN_DIGESTS = {
        "flat-d2": "74a13133053e7fe5a04c64bb5013ac72e63b61df4827e939b10cd5dcfe4de250",
        "wishart-d2": "a63730a003e9331ec422323dbd5c6f561e8a0bf87a7de18851cc545f7c5ed0e7",
        "kraus-rank-1": "81bcd332f83a777dc95668a8357722f65bbba53b1bd027eb6f7d04e0ab6331e0",
    }

    @staticmethod
    def count_margin_calls(monkeypatch):
        calls = []
        margin = dyson._stability_margin

        def counted(G, action):
            calls.append(len(G))
            return margin(G, action)
        monkeypatch.setattr(dyson, "_stability_margin", counted)
        return calls

    def test_solve_takes_no_margin_until_one_is_read(self, monkeypatch):
        calls = self.count_margin_calls(monkeypatch)
        flat = solve_dyson(flat_map(2, 2.0), np.linspace(-3, 3, 7) + 1e-4j)
        wishart = solve_dyson(_wishart_pair_d2(), [4 + 0.01j, 0.5 + 0.01j])
        assert calls == []
        flat[3].stability_margin
        assert calls == [7]
        for sol in flat + wishart:
            sol.stability_margin
        assert calls == [7, 2]

    def test_density_command_takes_no_margin(self, monkeypatch, tmp_path):
        from dyson_blocks import cli
        calls = self.count_margin_calls(monkeypatch)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "command": "density", "out": str(tmp_path / "o.csv"),
            "eta": {"form": "flat", "d": 2, "c": 2.0},
            "grid": {"min": -2.7, "max": 2.7, "step": 0.1}, "eps": 1e-4}))
        assert cli.main(["--config", str(cfg)]) == cli.EXIT_OK
        assert calls == []

    # the three maps' subalgebras are smaller than M_d, and under the cap of
    # 64 entries: flat-d2's (m = 1) takes all its steps in coordinates;
    # kraus-rank-1's (m = 2) too, but its two failed points start over on
    # the d^2 x d^2 systems; wishart-d2's m^3 = 512 structure constants
    # exceed the cap, so it takes the d^2 x d^2 systems
    NEWTON = {"flat-d2": {"subalgebra jacobian"},
              "kraus-rank-1": {"subalgebra jacobian", "jacobian"},
              "wishart-d2": {"jacobian"}}

    @pytest.mark.parametrize("name", sorted(MARGIN_DIGESTS))
    def test_margins_are_the_batched_values(self, monkeypatch, name):
        # four d = 2 points per chunk of sweep residuals, Jacobians and
        # stability operators, as in TestCertifiedTraces.test_chunks (one
        # point at the Wishart pair's Hermitized d = 4); the Newton systems
        # are built as NEWTON says
        model, zs, _, _ = TestGoldenSolves.CASES[name]
        model, zs = model(), zs()
        d = 2 * model.d if isinstance(model, EtaPair) else model.d
        cap, calls = 4 * 2 ** 4, []

        def spied(build, kind):
            def call(*args):
                calls.append((kind, len(args[0])))     # one row per point
                return build(*args)
            return call
        monkeypatch.setattr(dyson, "JACOBIAN_ENTRIES", cap)
        for builder, kind in [("_frobenius", "residual"), ("_newton_jacobian", "jacobian"),
                              ("_subalgebra_jacobian", "subalgebra jacobian"),
                              ("_stability_margin", "margin")]:
            monkeypatch.setattr(dyson, builder, spied(getattr(dyson, builder), kind))
        margins = np.array([sol.stability_margin
                            for sol in solve_dyson(model, zs)])
        assert all(points <= max(1, cap // d ** 4) for _, points in calls)
        assert sum(points for kind, points in calls if kind == "margin") == len(zs)
        assert {kind for kind, _ in calls} == {"residual", "margin"} | self.NEWTON[name]
        monkeypatch.undo()
        assert (hashlib.sha256(margins.tobytes()).hexdigest()
                == self.MARGIN_DIGESTS[name])
        # the batched value on the G stack of the equation solved, under the
        # same cap: for a Wishart pair, the Hermitized one at sqrt(w)
        if isinstance(model, EtaPair):
            model, zs = model.hermitization(), np.sqrt(zs)
        monkeypatch.setattr(dyson, "JACOBIAN_ENTRIES", cap)
        stack = np.array([sol.G for sol in solve_dyson(model, zs)])
        assert np.array_equal(dyson._stability_margin(stack, model.action),
                              margins)


class TestSolveWishart:
    def test_zero_pair(self):
        pair = EtaPair(scalar_map(2, 0.0), scalar_map(2, 0.0))
        sol = solve_wishart(pair, 1 + 1j)
        assert sol.converged
        assert np.allclose(sol.G, np.eye(2) / (1 + 1j))

    def test_linear_case(self):
        # eta2 = 0, eta1 = c: z G = 1 + c G  =>  G = 1/(z - c)
        pair = EtaPair(scalar_map(1, 1.0), scalar_map(1, 0.0))
        sol = solve_wishart(pair, 2j)
        assert sol.converged
        assert abs(sol.trace() - 1 / (2j - 1)) < 1e-10
        assert abs(sol.trace() - (-1 - 2j) / 5) < 1e-10

    def test_marchenko_pastur_closed_form(self):
        # d=1, sigma=1: z g^2 - z g + 1 = 0, the square MP law
        pair = eta_wishart_pair(CovarianceTensor(np.ones((1, 1, 1, 1))))
        for w in (4 + 0.01j, 2 + 1j, -1 + 0.5j, 5 + 0.2j,
                  3.99 + 1e-5j, 4 + 1e-6j):
            sol = solve_wishart(pair, w)
            assert sol.converged
            s = np.sqrt(w * w - 4 * w)
            roots = [(w + s) / (2 * w), (w - s) / (2 * w)]
            exact = min(roots, key=lambda r: abs(sol.trace() - r))
            assert abs(sol.trace() - exact) < 5e-10
            assert w.imag * sol.trace().imag < 0

    def test_residual_certificate(self):
        # the Wishart residual, computed here from the Choi tensors, of the
        # G_W that the Hermitized solve returns; MP and random real tensors
        def apply(eta, b):
            return np.einsum("ikjl,ij->kl", eta.choi4, b)

        gen = rng()
        tensors = [np.ones((1, 1, 1, 1))]
        for d in (2, 3):
            m = gen.standard_normal((d * d, d * d))
            tensors.append((m @ m.T / d ** 2).reshape(d, d, d, d))
        for tensor in tensors:
            pair = eta_wishart_pair(CovarianceTensor(tensor))
            eye = np.eye(pair.d)
            for w in (3 + 0.5j, 4 + 0.01j, 0.5 + 0.01j, 4 + 1e-6j, 1e-6j,
                      -1 + 0.5j):
                sol = solve_wishart(pair, w)
                assert sol.converged and sol.z == w
                G = sol.G
                K = np.linalg.inv(eye - apply(pair.eta2, G))
                assert np.linalg.norm(
                    w * G - eye - apply(pair.eta1, K) @ G) <= 1e-10
                assert np.linalg.eigvalsh((G - G.conj().T) / 2j).max() <= 0

    def test_hermitized_root_is_block_diagonal(self):
        # G_W(w) is the top-left block over z of the Hermitized root at
        # z = sqrt(w), whose off-diagonal blocks stay exactly 0
        m = rng().standard_normal((9, 9))
        pair = eta_wishart_pair(CovarianceTensor((m @ m.T / 9).reshape(3, 3, 3, 3)))
        ws = [4 + 0.01j, 0.5 + 0.01j, -1 + 0.5j, 1e-6j]
        herm = solve_dyson(pair.hermitization(), np.sqrt(ws))
        for w, h, sol in zip(ws, herm, solve_dyson(pair, ws)):
            assert h.converged and h.z.imag > 0
            assert not h.G[:3, 3:].any() and not h.G[3:, :3].any()
            assert sol.z == w and np.array_equal(sol.G, h.G[:3, :3] / h.z)
            assert (sol.residual, sol.iterations) == (h.residual, h.iterations)

    def test_rejects_lower_half_plane(self):
        pair = EtaPair(scalar_map(1, 0.0), scalar_map(1, 0.0))
        with pytest.raises(ValueError):
            solve_wishart(pair, 1 - 1j)


class TestCertifiedTrace:
    """``certified_trace`` is the one check of the certificate: the trace of
    a point that met it, SolverFailure naming z and the residual otherwise."""

    @pytest.mark.parametrize("model, z", [
        (scalar_map(1, 1.0), 2j),
        (flat_map(2, 1.0), 0.5 + 0.1j),
        (eta_wishart_pair(CovarianceTensor(np.ones((1, 1, 1, 1)))), 2 + 1j),
    ], ids=["scalar", "flat", "wishart"])
    def test_converged_point_gives_the_trace_bits(self, model, z):
        sol = solve_dyson(model, [z])[0]
        assert sol.converged
        assert (np.complex128(sol.certified_trace()).tobytes()
                == np.complex128(sol.trace()).tobytes())

    @pytest.mark.parametrize("model, z, named", [
        (scalar_map(1, 1.0), 1e-6 + 1e-6j, "(1e-06+1e-06j)"),
        # a Wishart point names w = z^2, not the Hermitized sqrt(w)
        (eta_wishart_pair(CovarianceTensor(np.ones((1, 1, 1, 1)))), 4j, "4j"),
    ], ids=["semicircular", "wishart"])
    def test_failed_point_raises_naming_z_and_residual(self, model, z, named):
        sol = solve_dyson(model, [z], SolverOptions(max_iter=1))[0]
        assert not sol.converged
        with pytest.raises(SolverFailure) as err:
            sol.certified_trace()
        assert str(err.value) == (f"solver failed at z={named} "
                                  f"(residual {sol.residual:.3e})")


def _per_point_traces(model, zs):
    """``certified_trace`` of each point of one ``solve_dyson`` call: the
    array of traces, or the text of the SolverFailure it raises."""
    try:
        return np.array([sol.certified_trace() for sol in solve_dyson(model, zs)])
    except SolverFailure as err:
        return str(err)


def _batch_traces(model, zs):
    try:
        return certified_traces(model, zs)
    except SolverFailure as err:
        return str(err)


class TestCertifiedTraces:
    """``certified_traces`` gives the per-point ``certified_trace`` values
    bit for bit, and the same SolverFailure for the first failed point."""

    @pytest.mark.parametrize("name", ["circulant-d3", "flat-d2", "kronecker-d3",
                                      "wishart-d2"])
    def test_golden_maps(self, name):
        model, zs, _, _ = TestGoldenSolves.CASES[name]
        model, zs = model(), zs()
        if isinstance(model, EtaPair):
            # the map the driver solves for a Wishart pair
            model, zs = model.hermitization(), np.sqrt(zs)
        traces = certified_traces(model, zs)
        assert traces.dtype == np.complex128
        assert traces.tobytes() == _per_point_traces(model, zs).tobytes()

    def test_large_d(self):
        eta = random_cp_map(rng(), 10)
        scale = np.sqrt(eta.cp_norm())
        zs = (np.linspace(-2.5, 2.5, 7) + 1e-3j) * scale
        assert (certified_traces(eta, zs).tobytes()
                == _per_point_traces(eta, zs).tobytes())

    @pytest.mark.parametrize("name", ["flat-d2", "kraus-rank-1"])
    def test_chunks(self, monkeypatch, name):
        # four d = 2 points per driver: flat-d2's 55 points take 14 chunks,
        # and kraus-rank-1's first failure (x = 0 at Im z = 1e-3) is in the
        # second of its four
        model, zs, _, _ = TestGoldenSolves.CASES[name]
        model, zs = model(), zs()
        whole = _batch_traces(model, zs)
        monkeypatch.setattr(dyson, "JACOBIAN_ENTRIES", 4 * 2 ** 4)
        chunked = _batch_traces(model, zs)
        per_point = _per_point_traces(model, zs)
        if name == "kraus-rank-1":
            assert per_point == "solver failed at z=0.001j (residual 4.038e-01)"
            assert chunked == whole == per_point
        else:
            assert chunked.tobytes() == whole.tobytes() == per_point.tobytes()

    @pytest.mark.parametrize("solve", [certified_traces, solve_dyson],
                             ids=["certified_traces", "solve_dyson"])
    def test_names_the_first_z_off_the_half_plane(self, solve):
        zs = [1j, 2 + 1j, complex(0.5, -1.0), complex(np.nan, 1.0), 3j]
        with pytest.raises(ValueError) as err:
            solve(scalar_map(1, 1.0), zs)
        assert str(err.value) == "z must lie in the upper half-plane, got (0.5-1j)"

    def test_rejects_other_models(self):
        assert certified_traces(scalar_map(1, 1.0), []).shape == (0,)
        with pytest.raises(TypeError):
            certified_traces(_wishart_pair_d2(), [1j])


def _projector_map():
    # eta(B) = P B P for a rank-2 orthogonal projector P at d = 3
    u = np.linalg.qr(rng().standard_normal((3, 2)))[0]
    p = u @ u.T
    return choi_map(np.einsum("ki,lj->ikjl", p, p))


def _badly_scaled_map():
    # flat plus a Kraus term E_00 B E_00 1e-8 times smaller: the subalgebra
    # span{I, E_00} must keep the direction that eta(I) holds only at 1e-8
    kraus = np.zeros((3, 3, 3, 3))
    kraus[0, 0, 0, 0] = 1e-8
    return choi_map(flat_map(3, 1.0).choi4 + kraus)


# the Choi matrix of the rank-1 Kraus map of tools/compare_outputs.py's CLI runs
KRAUS_RANK_ONE_CHOI = [[0.09, 0.045, -0.3, -0.15], [0.045, 0.0225, -0.15, -0.075],
                       [-0.3, -0.15, 1.0, 0.5], [-0.15, -0.075, 0.5, 0.25]]


def _circulant(d):
    return sampler.model_eta(sampler.ModelSpec(model="circulant", d=d, N=8))


class TestSubalgebraNewton:
    """Newton corrections in the coordinates of eta's invariant subalgebra
    give the roots of the full d^2 x d^2 Newton systems, to rounding."""

    # (map, spectral edges: exact, or read off the density to 2 digits,
    # points that the coordinate pass leaves to the d^2 x d^2 pass)
    CASES = {
        "flat-d2": (lambda: flat_map(2, 2.0), (-np.sqrt(8), np.sqrt(8)), 0),
        "kronecker-d3": (_kronecker_d3, (-3.16, 3.16), 0),
        "circulant-d3": (lambda: _circulant(3), (-np.sqrt(20 / 3), np.sqrt(20 / 3)), 0),
        "wishart-d2": (_wishart_pair_d2, (0.0, 5.3), 0),
        "kraus-rank-1": (_kraus_rank_one_map, (-3.97, 3.97), 2),
        "flat-d5": (lambda: flat_map(5, 1.0), (-2.0, 2.0), 0),
        "scalar-d2": (lambda: scalar_map(2, 0.5), (-np.sqrt(2), np.sqrt(2)), 0),
        "circulant-d4": (lambda: _circulant(4), (-np.sqrt(6), np.sqrt(6)), 0),
        "circulant-d5": (lambda: _circulant(5), (-np.sqrt(36 / 5), np.sqrt(36 / 5)), 0),
        "circulant-d6": (lambda: _circulant(6), (-np.sqrt(20 / 3), np.sqrt(20 / 3)), 0),
        "marchenko-pastur": (lambda: eta_wishart_pair(
            CovarianceTensor(np.ones((1, 1, 1, 1)))), (0.0, 4.0), 0),
        "projector-d3": (_projector_map, (-2.0, 2.0), 2),
        "badly-scaled-d3": (_badly_scaled_map, (-2.0, 2.0), 0),
        "kraus-rank-1-cli": (lambda: choi_map(KRAUS_RANK_ONE_CHOI), (-1.37, 1.37), 3),
    }
    # the CLI's rank-1 Kraus map certifies x = 0 at Im z = 1e-3 only after a
    # height is rejected
    EXTRA = {"kraus-rank-1-cli": [1e-3j]}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_agrees_with_the_full_path(self, monkeypatch, name):
        model, (lo, hi), passed_on = self.CASES[name]
        model = model()
        solved = model.hermitization() if isinstance(model, EtaPair) else model
        assert len(solved.subalgebra_basis) < solved.d ** 2
        xs = np.union1d(np.linspace(lo, hi, 9), [0.0])
        zs = np.concatenate([xs + 1j * h for h in (1.0, 1e-2, 1e-4, 1e-6)]
                            + [self.EXTRA.get(name, [])])
        run_pass, restarted = dyson._Driver._pass, []

        def spied(driver, idx):
            if not driver.in_coordinates:
                restarted.extend(driver.target[idx])
            return run_pass(driver, idx)
        monkeypatch.setattr(dyson._Driver, "_pass", spied)
        reduced = solve_dyson(model, zs)
        monkeypatch.undo()
        _full_path(monkeypatch)
        full = solve_dyson(model, zs)
        # a point that misses a height or its sweeps in coordinates is solved
        # again on the full path: every failure, and every point that needed
        # a shorter height, has the full path's bits
        assert len(restarted) == passed_on
        again = np.isin(np.sqrt(zs) if isinstance(model, EtaPair) else zs, restarted)
        assert [s.converged for s in reduced] == [s.converged for s in full]
        for r, f, whole in zip(reduced, full, again):
            assert whole or r.converged
            if whole:
                assert _solver_digest([r]) == _solver_digest([f])
            else:
                assert np.linalg.norm(r.G - f.G) <= 1e-12 * np.linalg.norm(f.G)
        for z in self.EXTRA.get(name, []):
            assert again[list(zs).index(z)] and reduced[list(zs).index(z)].converged

    def test_coordinates_only_when_the_structure_constants_fit(self, monkeypatch):
        # D holds m^3 entries: past JACOBIAN_ENTRIES the driver takes the
        # d^2 x d^2 systems and never builds D
        model, zs, _, _ = TestGoldenSolves.CASES["wishart-d2"]
        model, zs = model(), zs()[:8]
        m = len(model.hermitization().subalgebra_basis)          # 8
        calls = []

        def spied(build, name):
            def call(*args):
                calls.append(name)
                return build(*args)
            return call
        for builder in ("_newton_jacobian", "_subalgebra_jacobian"):
            monkeypatch.setattr(dyson, builder, spied(getattr(dyson, builder), builder))
        monkeypatch.setattr(dyson, "JACOBIAN_ENTRIES", m ** 3 - 1)
        capped = solve_dyson(model, zs)
        assert set(calls) == {"_newton_jacobian"}
        assert "structure_constants" not in vars(model.hermitization())
        monkeypatch.setattr(dyson, "JACOBIAN_ENTRIES", m ** 3)
        calls.clear()
        solve_dyson(model, zs)
        assert set(calls) == {"_subalgebra_jacobian"}
        monkeypatch.undo()
        _full_path(monkeypatch)
        assert _solver_digest(capped) == _solver_digest(solve_dyson(model, zs))

    def test_full_path_keeps_its_bits(self):
        # a map whose subalgebra is all of M_d takes the d^2 x d^2 Newton
        # systems, with the bits they gave before the subalgebra path existed
        eta = random_cp_map(rng(), 3)
        assert len(eta.subalgebra_basis) == 9
        solutions = solve_dyson(eta, np.linspace(-3, 3, 13) + 0.05j)
        assert all(sol.converged for sol in solutions)
        assert _solver_digest(solutions) == (
            "053176833719e87e3469d1d1b9b1b5f545d31c163300278d0335af99782ea5d8")

    def test_windows_hold_the_sweep_state(self, monkeypatch):
        # four d = 2 points per window: flat-d2's 55 points take 14 windows,
        # each sweep sees one window's accepted stack, and every bit of the
        # results is that of one window
        model, zs, _, _ = TestGoldenSolves.CASES["flat-d2"]
        model, zs = model(), zs()
        whole = _solver_digest(solve_dyson(model, zs))
        sweep, windows = dyson._Driver.sweep, []

        def spied(driver, live):
            windows.append((len(driver.accepted), len(driver.target)))
            return sweep(driver, live)
        monkeypatch.setattr(dyson, "JACOBIAN_ENTRIES", 4 * 2 ** 4)
        monkeypatch.setattr(dyson._Driver, "sweep", spied)
        assert _solver_digest(solve_dyson(model, zs)) == whole
        assert {held for held, _ in windows} == {4, 3}      # 13 x 4 + 3
        assert all(held == points for held, points in windows)


class TestStieltjesDensity:
    def test_semicircle_density_at_zero(self):
        xs, rho = stieltjes_density(
            lambda z: scalar_semicircle_cauchy(1.0, z), np.array([0.0]), 1e-4)
        assert abs(rho[0] - 1 / np.pi) < 1e-3

    def test_vanishes_off_support(self):
        xs, rho = stieltjes_density(
            lambda z: scalar_semicircle_cauchy(1.0, z),
            np.array([-4.0, -2.5, 2.5, 4.0]), 1e-4)
        assert np.all(rho <= 1e-3)

    def test_mixture_mass_is_one(self):
        w, t = circulant_mixture(3)
        grid = np.arange(-3.0, 3.0 + 5e-4, 1e-3)
        xs, rho = stieltjes_density(lambda z: mixture_cauchy(w, t, z), grid, 1e-4)
        mass = np.trapezoid(rho, xs)
        assert abs(mass - 1.0) <= 2e-3

    def test_accepts_covariance_map(self):
        xs, rho = stieltjes_density(scalar_map(1, 1.0), np.array([0.0, 1.0]), 1e-3)
        assert rho[0] > rho[1] > 0

    def test_nonnegative_output(self):
        xs, rho = stieltjes_density(
            lambda z: scalar_semicircle_cauchy(1.0, z),
            np.linspace(-3, 3, 101), 1e-4)
        assert np.all(rho >= 0)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            stieltjes_density(lambda z: 1 / z, np.array([1.0, 0.5]), 1e-4)
        with pytest.raises(ValueError):
            stieltjes_density(lambda z: 1 / z, np.array([0.0, 1.0]), 0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    @pytest.mark.parametrize("g", [lambda z: scalar_semicircle_cauchy(1.0, z),
                                   scalar_map(1, 1.0)], ids=["callable", "map"])
    def test_rejects_non_finite_eps(self, g, eps):
        # a callable gave an all-NaN density, a map a SolverFailure
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            stieltjes_density(g, np.array([0.0, 1.0]), eps)

    def test_calls_g_once_on_the_grid(self):
        calls = []

        def g(z):
            calls.append(z)
            return scalar_semicircle_cauchy(1.0, z)

        xs, rho = stieltjes_density(g, np.linspace(-1.0, 1.0, 5), 1e-3)
        assert len(calls) == 1 and calls[0].shape == (5,)
        assert np.array_equal(rho, np.clip(-g(xs + 1e-3j).imag / np.pi, 0, None))

    def test_errors_of_g_propagate(self):
        def g(z):
            raise TypeError("raised inside g")

        with pytest.raises(TypeError, match="raised inside g"):
            stieltjes_density(g, np.array([0.0, 1.0]), 1e-3)
        with pytest.raises(ValueError, match="shape"):
            stieltjes_density(lambda z: 1 / z[0], np.array([0.0, 1.0]), 1e-3)

    def test_solver_failure_names_offending_point(self):
        with pytest.raises(SolverFailure,
                           match=r"^solver failed at z=0\.0001j \(residual "):
            stieltjes_density(scalar_map(1, 1.0), np.array([0.0]), 1e-4,
                              SolverOptions(max_iter=10))


class TestCdfFromDensity:
    @staticmethod
    def semicircle_cdf():
        grid = np.arange(-2.5, 2.5 + 2.5e-4, 5e-4)
        xs, rho = stieltjes_density(
            lambda z: scalar_semicircle_cauchy(1.0, z), grid, 1e-4)
        return cdf_from_density(xs, rho)

    def test_symmetry_midpoint(self):
        cdf = self.semicircle_cdf()
        assert abs(cdf(0.0) - 0.5) <= 2e-3

    def test_endpoints(self):
        cdf = self.semicircle_cdf()
        assert cdf(-2.5) == 0.0
        assert cdf(2.5) == 1.0
        assert cdf(-10.0) == 0.0 and cdf(10.0) == 1.0

    def test_full_mass_inside_support(self):
        cdf = self.semicircle_cdf()
        assert cdf(2.1) >= 0.999

    def test_monotone(self):
        cdf = self.semicircle_cdf()
        xs = np.linspace(-3, 3, 500)
        assert np.all(np.diff(cdf(xs)) >= -1e-15)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            cdf_from_density(np.array([]), np.array([]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_density_rejected(self, value):
        # the renormalized CDF was NaN everywhere
        with pytest.raises(ValueError, match="positive finite mass"):
            cdf_from_density(np.array([0.0, 1.0, 2.0]), np.array([0.5, value, 0.5]))

    @pytest.mark.parametrize("xs, rho, error", [
        # read 0.75 at x = 1 and 0.5 at x = 2
        ([0.0, 1.0, 2.0, 3.0], [5.0, -2.0, 1.0, 1.0], "nonnegative"),
        # np.interp read these grids silently
        ([0.0, 2.0, 1.0], [1.0, 1.0, 1.0], "strictly increasing"),
        ([0.0, 1.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0], "strictly increasing"),
        ([0.0, np.nan, 2.0], [1.0, 1.0, 1.0], "strictly increasing"),
        ([[0.0, 1.0], [2.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]], "1-D"),
    ], ids=["negative-density", "decreasing", "repeated", "nan", "2-d"])
    def test_tables_that_give_no_cdf_rejected(self, xs, rho, error):
        with pytest.raises(ValueError, match=error):
            cdf_from_density(xs, rho)


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tol=-1.0)
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SolverOptions(tol=tol)
        with pytest.raises(ValueError):
            SolverOptions(max_iter=0)
        # a NaN cap was never reached, so it lifted the sweep cap
        for max_iter in (float("nan"), 2.5, 20.0, "20"):
            with pytest.raises(ValueError, match="max_iter must be an int, got"):
                SolverOptions(max_iter=max_iter)
        assert SolverOptions(max_iter=np.int64(3)).max_iter == 3

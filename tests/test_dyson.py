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
from dyson_blocks.eta import (CovarianceTensor, EtaPair, choi_map,
                              eta_kronecker, eta_wishart_pair, flat_map,
                              scalar_map)
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
        jacobian, solve, shorten = (dyson._newton_jacobian, dyson._batched_solve,
                                    dyson._Driver._shorten)
        row_zs, seen = [], {}

        def spy_jacobian(A, G, action):
            # the z of each row, up to rounding: A = z I - eta(G)
            k, d = G.shape[0], G.shape[1]
            eta_g = (action @ G.reshape(k, d * d, 1)).reshape(k, d, d)
            row_zs.append((A + eta_g)[:, 0, 0])
            return jacobian(A, G, action)

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

        monkeypatch.setattr(dyson, "_newton_jacobian", spy_jacobian)
        monkeypatch.setattr(dyson, "_batched_solve", fail_once)
        monkeypatch.setattr(dyson._Driver, "_shorten", spy_shorten)
        return solve_dyson(self.ETA, self.ZS), seen["state"]

    @pytest.mark.parametrize("descended", [False, True],
                             ids=["first-step", "below-start"])
    def test_failed_newton_step(self, monkeypatch, descended):
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
    the batched LU and the eigenvalues of the branch test.
    """

    # (map, z points, converged count, digest)
    CASES = {
        # the bench density grid
        "flat-d2": (lambda: flat_map(2, 2.0),
                    lambda: np.arange(-2.7, 2.7 + 0.05, 0.1) + 1e-4j, 55,
                    "1d11b54e80a944ead0c89a438c328669090bed2339962f6e0707b6bdb2d983ed"),
        "kronecker-d3": (_kronecker_d3,
                         lambda: np.arange(-3.5, 3.5 + 0.05, 0.1) + 1e-6j, 71,
                         "a1f5e05a1a10f1bb79913d337b4c9ce9b06ff81055eaf02820e32e726309113e"),
        "circulant-d3": (lambda: sampler.model_eta(
            sampler.ModelSpec(model="circulant", d=3, N=8)),
            lambda: np.arange(-3.0, 3.0 + 0.025, 0.05) + 1e-4j, 121,
            "e78a9c167a7e2a5e69f641ba98f6705f76772e79abd457763353cb45a2c4a859"),
        "wishart-d2": (_wishart_pair_d2,
                       lambda: np.linspace(-0.5, 6.0, 66) + 1e-3j, 66,
                       "8f27146cafa724a3b1c988c3f564a9422bab53fbaf059b342dcb32e6fd09275c"),
        "kraus-rank-1": (_kraus_rank_one_map,
                         lambda: [complex(x, h) for h in (1e-1, 1e-3, 1e-5)
                                  for x in (-1.0, -0.1, 0.0, 0.1, 1.0)], 13,
                         "c5c234981b3414c764b44fb7123ca252979092934ec70cc3acc10149583a4253"),
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

    # SHA-256 of the margins of TestGoldenSolves' points, taken when
    # solve_dyson computed every margin during the solve
    MARGIN_DIGESTS = {
        "flat-d2": "e4c3870448b343315cf26b7e1c8a5e48a03b4faac6eaa66089e3014b5bf6d625",
        "wishart-d2": "a63730a003e9331ec422323dbd5c6f561e8a0bf87a7de18851cc545f7c5ed0e7",
        "kraus-rank-1": "c61559dfe60a19c5f45512a24aa1d89bd85bcd8686065396f876918ec705f14b",
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

    @pytest.mark.parametrize("name", sorted(MARGIN_DIGESTS))
    def test_margins_are_the_batched_values(self, monkeypatch, name):
        # four d = 2 points per chunk of sweep residuals, Jacobians and
        # stability operators, as in TestCertifiedTraces.test_chunks (one
        # point at the Wishart pair's Hermitized d = 4)
        model, zs, _, _ = TestGoldenSolves.CASES[name]
        model, zs = model(), zs()
        cap, calls = 4 * 2 ** 4, []

        def spied(build, kind, at):
            def call(*args):
                G = args[at]                # a (k, d, d) stack
                calls.append((kind, len(G), max(1, cap // G.shape[1] ** 4)))
                return build(*args)
            return call
        monkeypatch.setattr(dyson, "JACOBIAN_ENTRIES", cap)
        monkeypatch.setattr(dyson, "_frobenius",
                            spied(dyson._frobenius, "residual", 0))
        monkeypatch.setattr(dyson, "_newton_jacobian",
                            spied(dyson._newton_jacobian, "jacobian", 1))
        monkeypatch.setattr(dyson, "_stability_margin",
                            spied(dyson._stability_margin, "margin", 0))
        margins = np.array([sol.stability_margin
                            for sol in solve_dyson(model, zs)])
        assert all(points <= chunk for _, points, chunk in calls)
        assert sum(points for kind, points, _ in calls if kind == "margin") == len(zs)
        assert {kind for kind, _, _ in calls} == {"residual", "jacobian", "margin"}
        monkeypatch.undo()
        assert (hashlib.sha256(margins.tobytes()).hexdigest()
                == self.MARGIN_DIGESTS[name])
        # the batched value on the G stack of the equation solved: for a
        # Wishart pair, the Hermitized one at sqrt(w)
        if isinstance(model, EtaPair):
            model, zs = model.hermitization(), np.sqrt(zs)
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

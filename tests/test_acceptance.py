"""Acceptance suite.

One test per criterion, each printing a single pass/fail line with the
measured quantities.  Runtime budgets are asserted as stated.

Criteria 5 and 6 assert the specified log-log slope band [-0.8, -0.3]
around the O(1/sqrt(N)) envelope.  Neither pinned configuration decays
inside it.  Criterion 5's finite-size bias of |mean empirical Cauchy - g|
is 0.0256i/N (exponent -1, measured at 8000 trials).  Criterion 6 has no
1/N term: its first correction is O(N^-2), exponent about -2 or less
(ROADMAP item 5).  With 50 trials every per-N error sits below the
3-sigma noise filter, so the rate fit correctly declares the noise floor
instead of fitting noise.  Both criteria therefore fail honestly; see the
decisions ledger.
"""

import json
import time

import numpy as np

from dyson_blocks.cli import main as cli_main
from dyson_blocks.dyson import (circulant_mixture, mixture_cauchy,
                                scalar_semicircle_cauchy, solve_semicircular,
                                stieltjes_density)
from dyson_blocks.eta import (CovarianceTensor, eta_iid_blocks, flat_map,
                              scalar_map)
from dyson_blocks.experiments import (hermitization_cauchy_pair,
                                      rate_experiment,
                                      universality_experiment,
                                      wishart_consistency_experiment)
from dyson_blocks.sampler import (ComplexGaussian, ModelSpec, PermutationPool,
                                  Rademacher, RealGaussian,
                                  sample_wishart_factor)


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def z_grid_50():
    y = np.geomspace(0.5, 10.0, 50)
    x = np.linspace(-2.0, 2.0, 50)
    return [complex(a, b) for a, b in zip(x, y)]


def test_criterion_01_scalar_semicircle_oracle():
    start = time.perf_counter()
    worst = 0.0
    for z in z_grid_50():
        sol = solve_semicircular(scalar_map(1, 1.0), z)
        assert sol.converged
        worst = max(worst, abs(sol.trace() - scalar_semicircle_cauchy(1.0, z)))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-10 and elapsed < 1.0,
           f"max |solver - closed form| = {worst:.2e} over 50 z "
           f"({elapsed:.2f}s)")


def test_criterion_02_flat_map_reduction():
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 5):
        for z in z_grid_50():
            sol = solve_semicircular(flat_map(d, 1.0), z)
            assert sol.converged
            worst = max(worst,
                        abs(sol.trace() - scalar_semicircle_cauchy(1.0, z)))
    elapsed = time.perf_counter() - start
    report(2, worst <= 1e-10 and elapsed < 5.0,
           f"max trace deviation = {worst:.2e} for d in (2,3,5) "
           f"({elapsed:.2f}s)")


def test_criterion_03_mixture_identities():
    from fractions import Fraction
    start = time.perf_counter()
    worst_mass = 0.0
    for d in range(2, 21):
        w, t = circulant_mixture(d, exact=True)
        assert sum(w) == Fraction(1)
        assert sum(wi * ti for wi, ti in zip(w, t)) == Fraction(1)
        wf, tf = circulant_mixture(d)
        grid = np.arange(-3.0, 3.0 + 5e-4, 1e-3)
        xs, rho = stieltjes_density(
            lambda zz: mixture_cauchy(wf, tf, zz), grid, 1e-4)
        worst_mass = max(worst_mass, abs(np.trapezoid(rho, xs) - 1.0))
    elapsed = time.perf_counter() - start
    report(3, worst_mass <= 2e-3 and elapsed < 10.0,
           f"exact weight identities d=2..20; worst |mass-1| = "
           f"{worst_mass:.2e} ({elapsed:.2f}s)")


def test_criterion_04_circulant_kolmogorov():
    from dyson_blocks.experiments import circulant_ks_experiment
    start = time.perf_counter()
    rep = circulant_ks_experiment(3, [50, 100, 200], trials=20, seed=2024)
    elapsed = time.perf_counter() - start
    monotone = all(
        rep.mean_ks[i + 1] <= rep.mean_ks[i] + rep.stderr[i]
        for i in range(len(rep.N_grid) - 1))
    final = rep.mean_ks[-1]
    report(4, monotone and final <= 0.08 and elapsed < 120.0,
           f"mean KS {np.round(rep.mean_ks, 4).tolist()} over N=[50,100,200], "
           f"final {final:.4f} ({elapsed:.1f}s)")


def test_criterion_05_rate_exponent_scalar_rademacher():
    start = time.perf_counter()
    template = ModelSpec(model="hermitized_iid", d=1, N=32,
                         law=Rademacher(), seed=0)
    rep = rate_experiment(template, 3j, [32, 64, 128, 256], trials=50,
                          seed=42)
    elapsed = time.perf_counter() - start
    detail = (f"status={rep.status}, errors={np.round(rep.errors, 6).tolist()}, "
              f"3*SE={np.round(3 * rep.stderrs, 6).tolist()}, "
              f"slope={rep.slope} ({elapsed:.1f}s)")
    ok = (elapsed < 180.0 and rep.status == "ok"
          and rep.slope is not None and -0.8 <= rep.slope <= -0.3)
    report(5, ok, detail)


def test_criterion_06_rate_exponent_iid_blocks():
    start = time.perf_counter()
    template = ModelSpec(model="hermitized_iid", d=2, N=32,
                         law=ComplexGaussian(1.0), seed=0)
    rep = rate_experiment(template, 3j, [32, 64, 128, 256], trials=50,
                          seed=42)
    elapsed = time.perf_counter() - start
    detail = (f"status={rep.status}, errors={np.round(rep.errors, 6).tolist()}, "
              f"3*SE={np.round(3 * rep.stderrs, 6).tolist()}, "
              f"slope={rep.slope} ({elapsed:.1f}s)")
    ok = (elapsed < 360.0 and rep.status == "ok"
          and rep.slope is not None and -0.8 <= rep.slope <= -0.3)
    report(6, ok, detail)


def test_criterion_07_lindeberg_universality():
    start = time.perf_counter()
    template = ModelSpec(model="hermitized_iid", d=1, N=256,
                         law=Rademacher(), seed=0)
    rep = universality_experiment(template, Rademacher(), RealGaussian(1.0),
                                  3j, N=256, trials=100, seed=2024)
    elapsed = time.perf_counter() - start
    band = max(3 * rep.combined_se, 5 / np.sqrt(256))
    report(7, rep.difference <= band and elapsed < 120.0,
           f"|diff| = {rep.difference:.2e} <= band {band:.2e} "
           f"({elapsed:.1f}s)")


def test_criterion_08_exchangeable_vs_independent():
    start = time.perf_counter()
    n = 256
    pool = PermutationPool([1.0] * (n * n // 2) + [-1.0] * (n * n // 2))
    template = ModelSpec(model="hermitized_iid", d=1, N=n,
                         law=Rademacher(), seed=0)
    rep = universality_experiment(template, pool, Rademacher(),
                                  3j, N=n, trials=100, seed=2025)
    elapsed = time.perf_counter() - start
    band = max(3 * rep.combined_se, 5 / np.sqrt(n))
    report(8, rep.difference <= band and elapsed < 120.0,
           f"|diff| = {rep.difference:.2e} <= band {band:.2e} "
           f"({elapsed:.1f}s)")


def test_criterion_09_wishart_schur_identity():
    start = time.perf_counter()
    z = 2.0 * np.exp(1j * np.pi / 4)
    worst = 0.0
    tensors = {
        1: CovarianceTensor(np.ones((1, 1, 1, 1))),
        2: CovarianceTensor(np.einsum("ik,jl->ijkl", np.eye(2), np.eye(2))),
    }
    for d, tensor in tensors.items():
        for seed in range(10):
            spec = ModelSpec(model="wishart_correlated", d=d, N=50,
                             seed=seed, tensor=tensor)
            h = sample_wishart_factor(spec, 0)
            lhs, rhs, _ = hermitization_cauchy_pair(h, z)
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    report(9, worst <= 1e-9 and elapsed < 30.0,
           f"max |Schur identity residual| = {worst:.2e} over 10 seeds x "
           f"d in (1,2) ({elapsed:.1f}s)")


def test_criterion_10_wishart_solver_vs_monte_carlo():
    start = time.perf_counter()
    w = 4 + 0.01j
    z = np.sqrt(w)          # first-quadrant root: Im z > 0, Im z^2 > 0
    rep = wishart_consistency_experiment(
        CovarianceTensor(np.ones((1, 1, 1, 1))), z=complex(z), N=400,
        trials=50, seed=1000)
    elapsed = time.perf_counter() - start
    gap = rep.solver_mc_gap
    report(10, gap <= 3 * rep.mc_stderr and rep.max_identity_residual <= 1e-9
           and elapsed < 180.0,
           f"|solver - MC| = {gap:.2e} <= 3 SE = {3 * rep.mc_stderr:.2e} "
           f"({elapsed:.1f}s)")


def test_criterion_11_solver_certificates():
    start = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(key=[777, 11]))
    checked = 0
    for trial in range(200):
        d = int(gen.integers(1, 5))
        samples = [gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
                   for _ in range(3)]
        eta = eta_iid_blocks(samples=samples)
        y = 1.5 * np.sqrt(eta.cp_norm()) * float(gen.uniform(1.0, 2.0)) + 1e-9
        z = complex(gen.uniform(-2, 2), y)
        sol = solve_semicircular(eta, z)
        assert sol.converged, f"trial {trial} failed to converge"
        assert sol.iterations <= 200, f"trial {trial}: {sol.iterations} iters"
        assert sol.damping_used == 1.0, f"trial {trial}: damping reduced"
        imag = (sol.G - sol.G.conj().T) / 2j
        assert np.linalg.eigvalsh(imag).max() <= 1e-10
        checked += 1
    elapsed = time.perf_counter() - start
    report(11, checked == 200 and elapsed < 60.0,
           f"200 random CP maps solved with damping 1, <= 200 iterations, "
           f"negative-semidefinite Im G ({elapsed:.1f}s)")


def test_criterion_12_reproducibility(tmp_path):
    start = time.perf_counter()
    configs = {
        "rate": {"command": "rate", "out": str(tmp_path / "rate.csv"),
                 "model": {"model": "hermitized_iid", "d": 1, "N": 8,
                           "law": {"variant": "rademacher"}},
                 "z": [0.0, 3.0], "N_grid": [8, 16, 32], "trials": 8,
                 "seed": 99},
        "ks": {"command": "circulant-ks", "out": str(tmp_path / "ks.csv"),
               "d": 2, "N_grid": [8, 16], "trials": 4, "seed": 5},
        "sample": {"command": "sample", "out": str(tmp_path / "m.bin"),
                   "model": {"model": "wigner_blocks", "d": 2, "N": 6,
                             "law": {"variant": "complex_gaussian"}},
                   "seed": 31},
    }
    all_equal = True
    for name, data in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        outputs = []
        for threads in (None, 1, 3):
            argv = ["--config", str(path)]
            if threads is not None:
                argv += ["--threads", str(threads)]
            assert cli_main(argv) == 0
            outputs.append(open(data["out"], "rb").read())
        all_equal &= outputs[0] == outputs[1] == outputs[2]
    elapsed = time.perf_counter() - start
    report(12, all_equal,
           f"byte-identical outputs across reruns and thread counts "
           f"({elapsed:.1f}s)")

import copy
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import dyson_blocks
from dyson_blocks import cli
from dyson_blocks.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER,
                              _keep_heap_resident, fmt, main, parse_config)
from dyson_blocks.dyson import solve_dyson
from dyson_blocks.eta import CovarianceMap, eta_correlated_tensor
from dyson_blocks.sampler import matrix_from_bytes


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def pair_tensor(mat):
    """d = 2 config tensor sigma[i][j][k][l] = mat[2i + j, 2k + l], as [re, im] pairs."""
    m = np.asarray(mat, dtype=np.complex128).reshape(2, 2, 2, 2)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def scalar_solve_config(tmp_path, out_name="solve.csv", **extra):
    data = {"command": "solve", "out": str(tmp_path / out_name),
            "eta": {"form": "scalar", "d": 1, "t": 1.0}, "z": [0.0, 2.0]}
    data.update(extra)
    return write_config(tmp_path, data)


class TestSolveCommand:
    def test_scalar_semicircle_record(self, tmp_path):
        cfg = scalar_solve_config(tmp_path)
        assert main(["--config", cfg]) == EXIT_OK
        lines = (tmp_path / "solve.csv").read_text().strip().splitlines()
        assert lines[0] == "z_re,z_im,g_re,g_im"
        z_re, z_im, g_re, g_im = (float(v) for v in lines[1].split(","))
        assert (z_re, z_im) == (0.0, 2.0)
        assert abs(g_re) < 1e-10
        assert abs(g_im - (1 - np.sqrt(2))) < 1e-10

    def test_z_grid(self, tmp_path):
        data = {"command": "solve", "out": str(tmp_path / "o.csv"),
                "eta": {"form": "flat", "d": 2, "c": 1.0},
                "z_grid": [[0.0, 1.0], [0.5, 2.0], [0.0, 3.0]]}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_OK
        lines = (tmp_path / "o.csv").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_nonconvergence_exit_code(self, tmp_path):
        data = {"command": "solve", "out": str(tmp_path / "o.csv"),
                "eta": {"form": "scalar", "d": 1, "t": 1.0},
                "z": [0.0, 1e-7],
                "solver": {"max_iter": 5}}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_SOLVER
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("data, message", [
        ({"command": "rate",
          "model": {"model": "hermitized_iid", "d": 2, "N": 8,
                    "law": {"variant": "complex_gaussian"}},
          "z": [0.0, 3.0], "N_grid": [8, 16, 32], "trials": 4},
         "solver failed at z=3j (residual 7.438e-03)"),
        ({"command": "wishart", "tensor": [[[[1.0]]]],
          "z": [1.4142135623730951, 1.4142135623730951], "N": 6, "trials": 2},
         "solver failed at z=4.000000000000001j (residual 6.863e-02)"),
    ], ids=["rate", "wishart"])
    def test_experiment_reference_solve_failure(self, tmp_path, capsys, data,
                                                message):
        out = tmp_path / "o.csv"
        data = dict(data, out=str(out), solver={"max_iter": 1})
        assert main(["--config", write_config(tmp_path, data)]) == EXIT_SOLVER
        assert f"solver error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_density_solve_failure(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        data = {"command": "density", "out": str(out),
                "eta": {"form": "flat", "d": 2, "c": 2.0},
                "grid": {"min": -2.7, "max": 2.7, "step": 0.9},
                "solver": {"max_iter": 1}}
        assert main(["--config", write_config(tmp_path, data)]) == EXIT_SOLVER
        assert capsys.readouterr().err == (
            "solver error: solver failed at z=(-2.7+0.0001j) (residual 8.756e-01)\n")
        assert not out.exists()

    def test_roundtrip_formatting(self, tmp_path):
        cfg = scalar_solve_config(tmp_path)
        main(["--config", cfg])
        line = (tmp_path / "solve.csv").read_text().strip().splitlines()[1]
        g_im = float(line.split(",")[3])
        # shortest-roundtrip decimals reparse to the identical double
        assert repr(g_im) == line.split(",")[3]


class TestEtaForms:
    # the tensor of tools/compare_outputs.py: d = 2, real, adjoint-symmetric
    TENSOR = [[[[1.0, 0.3], [0.3, 0.5]], [[0.3, 0.2], [0.2, 0.4]]],
              [[[0.3, 0.2], [0.2, 0.4]], [[0.5, 0.4], [0.4, 1.0]]]]
    FORMS = {
        "scalar": {"form": "scalar", "d": 2, "t": 1.0},
        "flat": {"form": "flat", "d": 2},
        "kronecker": {"form": "kronecker", "betas": [np.eye(2).tolist()],
                      "sigma_l": [[1.0]]},
        "tensor": {"form": "tensor", "sigma": TENSOR},
    }

    def solve(self, tmp_path, eta):
        data = {"command": "solve", "out": str(tmp_path / "o.csv"), "eta": eta,
                "z": [0.3, 0.5]}
        return main(["--config", write_config(tmp_path, data)])

    def test_tensor_form_solve(self, tmp_path):
        assert self.solve(tmp_path, self.FORMS["tensor"]) == EXIT_OK
        z = 0.3 + 0.5j
        eta = eta_correlated_tensor(np.asarray(self.TENSOR, dtype=np.complex128))
        g = solve_dyson(eta, [z])[0].trace()
        row = (tmp_path / "o.csv").read_text().splitlines()[1]
        assert row == ",".join(fmt(v) for v in (z.real, z.imag, g.real, g.imag))

    def test_tensor_form_needs_adjoint_symmetry(self, tmp_path, capsys):
        sigma = pair_tensor(np.diag([1.0, 1.0, 0.0, 1.0]))
        assert self.solve(tmp_path, {"form": "tensor", "sigma": sigma}) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: config.eta: correlated-blocks tensor needs "
            "sigma(i,j;k,l) = sigma(l,k;j,i)\n")

    @pytest.mark.parametrize("eta, message", [
        # not Hermitian, and a negative eigenvalue, at entries whose
        # squares overflow: at -1 both are refused the same way
        ({"form": "choi", "matrix": [[1e200, 0, 0, 1e200], [0, 0, 0, 0],
                                     [0, 0, 0, 0], [-1e200, 0, 0, 1e200]]},
         "config.eta: the Choi matrix is not Hermitian positive semidefinite, "
         "so the map is not completely positive"),
        ({"form": "choi", "matrix": np.diag([1e200, 1e200, -1e200, 0.0]).tolist()},
         "config.eta: the Choi matrix is not Hermitian positive semidefinite, "
         "so the map is not completely positive"),
        ({"form": "kronecker", "betas": [[[1.0]]], "sigma_l": [[-1e200]]},
         "config.eta: sigma_l must be positive semidefinite"),
        ({"form": "tensor", "sigma": [[[[-1e200]]]]},
         "config.eta.sigma: tensor pair matrix Sigma[(ij),(kl)] is not PSD"),
    ], ids=["choi-not-hermitian", "choi-not-psd", "kronecker-sigma-l", "tensor"])
    def test_overflowing_entries_are_refused(self, tmp_path, capsys, eta, message):
        assert self.solve(tmp_path, eta) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("form", list(FORMS))
    def test_complete_positivity_checked_for_choi_only(self, tmp_path, monkeypatch,
                                                       form):
        def fail(self):
            raise AssertionError("complete positivity checked")
        monkeypatch.setattr(CovarianceMap, "is_completely_positive", fail)
        assert self.solve(tmp_path, self.FORMS[form]) == EXIT_OK
        with pytest.raises(AssertionError, match="complete positivity checked"):
            self.solve(tmp_path, {"form": "choi", "matrix": np.eye(4).tolist()})


class TestConfigValidation:
    def test_missing_model_named(self, tmp_path, capsys):
        data = {"command": "rate", "out": str(tmp_path / "o.csv"),
                "z": [0.0, 3.0], "N_grid": [8, 16, 32], "trials": 4}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_CONFIG
        assert "model" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = scalar_solve_config(tmp_path, wibble=3)
        assert main(["--config", cfg]) == EXIT_CONFIG
        assert "wibble" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        data = {"command": "solve", "out": str(tmp_path / "o.csv"),
                "eta": {"form": "scalar", "d": 1, "t": 1.0, "zz": 2},
                "z": [0.0, 2.0]}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_CONFIG
        assert "zz" in capsys.readouterr().err

    def test_unknown_command(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "frobnicate", "out": "x"})
        assert main(["--config", cfg]) == EXIT_CONFIG

    RATE_KEYS = {"command": "rate", "out": "x", "z": [0.0, 3.0],
                 "N_grid": [8, 16, 32], "trials": 4}

    @pytest.mark.parametrize("data, message", [
        ({"command": "frobnicate", "out": "x"},
         "config.command: expected one of ['solve', 'density', 'sample', "
         "'rate', 'universality', 'circulant-ks', 'wishart'], got 'frobnicate'"),
        # a key of another command
        (dict(RATE_KEYS, model={}, eta={"form": "scalar", "d": 1, "t": 1.0}),
         "config: unknown key 'eta'"),
        (RATE_KEYS, "config: missing required key 'model'"),
    ], ids=["unknown-command", "other-command-key", "missing-key"])
    def test_top_level_key_errors(self, tmp_path, capsys, data, message):
        assert main(["--config", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_empty_out_override_rejected(self, tmp_path, capsys):
        cfg = scalar_solve_config(tmp_path)
        assert main(["--config", cfg, "--out", ""]) == EXIT_CONFIG
        assert ("config error: --out: expected a nonempty path string"
                in capsys.readouterr().err)
        assert not (tmp_path / "solve.csv").exists()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path)]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_solve_z_below_real_axis(self, tmp_path, capsys):
        cfg = scalar_solve_config(tmp_path, z=[0.0, -1.0])
        assert main(["--config", cfg]) == EXIT_CONFIG
        assert "config error: config.z: need Im z > 0" in capsys.readouterr().err
        assert not (tmp_path / "solve.csv").exists()

    def test_solve_z_grid_on_real_axis(self, tmp_path, capsys):
        data = {"command": "solve", "out": str(tmp_path / "o.csv"),
                "eta": {"form": "scalar", "d": 1, "t": 1.0},
                "z_grid": [[0.0, 1.0], [0.5, 0.0]]}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_CONFIG
        assert "config error: config.z_grid[1]:" in capsys.readouterr().err

    def test_rate_z_below_model_threshold(self, tmp_path, capsys):
        data = {"command": "rate", "out": str(tmp_path / "o.csv"),
                "model": {"model": "hermitized_iid", "d": 1, "N": 8,
                          "law": {"variant": "rademacher"}},
                "z": [0.0, 0.5], "N_grid": [8, 16, 32], "trials": 4}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: config.z: need Im z above the model threshold 1" in err

    def test_circulant_rate_z_below_model_threshold(self, tmp_path, capsys):
        # the circulant's threshold is its map's ||eta||^(1/2) = sqrt(5/3) at d = 3
        data = {"command": "rate", "out": str(tmp_path / "o.csv"),
                "model": {"model": "circulant", "d": 3, "N": 8},
                "z": [0.5, 1.0], "N_grid": [8, 16, 32], "trials": 4}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: config.z: need Im z above the model threshold 1.29" in err
        assert not (tmp_path / "o.csv").exists()

    SCALAR_ETA = {"form": "scalar", "d": 1, "t": 1.0}

    @pytest.mark.parametrize("data, message", [
        ({"command": "solve", "eta": SCALAR_ETA, "z": [0, 1],
          "z_grid": [[0, 2], [0, 3]]},
         "config: solve takes 'z' or 'z_grid', not both"),
        ({"command": "solve", "eta": SCALAR_ETA, "z_grid": []},
         "config.z_grid: need at least one point"),
        ({"command": "density", "eta": SCALAR_ETA,
          "mixture": {"weights": [1.0], "variances": [1.0]},
          "grid": {"min": -1.0, "max": 1.0, "step": 0.5}},
         "config: density takes 'eta' or 'mixture', not both"),
        # more points than an array can index, and than memory can hold:
        # both are counted, and refused, before np.arange runs
        ({"command": "density", "eta": SCALAR_ETA,
          "grid": {"min": -1.0, "max": 1.0, "step": 1e-300}},
         "config.grid: 2e+300 points, more than the 1000000 that density "
         "solves"),
        ({"command": "density", "eta": SCALAR_ETA,
          "grid": {"min": -1.0, "max": 1.0, "step": 2e-17}},
         "config.grid: 1e+17 points, more than the 1000000 that density "
         "solves"),
        # 2e8 points fit in memory: only the cap keeps them from being solved
        ({"command": "density", "eta": SCALAR_ETA,
          "grid": {"min": -1.0, "max": 1.0, "step": 1e-8}},
         "config.grid: 200000001 points, more than the 1000000 that density "
         "solves"),
    ], ids=["solve-both-keys", "solve-empty-grid", "density-both-sources",
            "density-grid-too-fine", "density-grid-too-large",
            "density-grid-over-cap"])
    def test_solve_and_density_input_errors(self, tmp_path, capsys, data, message):
        out = tmp_path / "o.csv"
        cfg = write_config(tmp_path, dict(data, out=str(out)))
        assert main(["--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("points, code", [(11, EXIT_CONFIG), (10, EXIT_OK)])
    def test_density_grid_cap_counts_np_arange_points(self, tmp_path, capsys,
                                                      monkeypatch, points, code):
        # the count is np.arange's length, so a grid of exactly the cap is
        # solved and one point more is refused
        monkeypatch.setattr(cli, "DENSITY_MAX_POINTS", 10)
        out = tmp_path / "o.csv"
        data = {"command": "density", "out": str(out), "eta": self.SCALAR_ETA,
                "grid": {"min": 0.0, "max": 0.1 * (points - 1), "step": 0.1}}
        assert main(["--config", write_config(tmp_path, data)]) == code
        if code == EXIT_OK:
            assert len(out.read_text().splitlines()) == 3 + points
        else:
            assert "config.grid: 11 points, more than the 10" in capsys.readouterr().err

    @pytest.mark.parametrize("points, code", [(3, EXIT_CONFIG), (2, EXIT_OK)])
    def test_density_grid_cap_counts_d_squared_entries(self, tmp_path, capsys,
                                                       monkeypatch, points, code):
        # a d = 4 map gets the d^2 entries of 4 * 10 / 4^2 = 2 points
        monkeypatch.setattr(cli, "DENSITY_MAX_POINTS", 10)
        out = tmp_path / "o.csv"
        data = {"command": "density", "out": str(out), "eta": {"form": "flat", "d": 4},
                "grid": {"min": 0.0, "max": 0.1 * (points - 1), "step": 0.1}}
        assert main(["--config", write_config(tmp_path, data)]) == code
        if code == EXIT_OK:
            assert len(out.read_text().splitlines()) == 3 + points
        else:
            assert not out.exists()
            assert capsys.readouterr().err == (
                "config error: config.grid: 3 points, more than the 2 that "
                "density solves at d = 4\n")

    def test_rate_rejects_permutation_pool_up_front(self, tmp_path, capsys,
                                                    monkeypatch):
        # 16 values are the entry draws of N = 2 at d = 2, not of any N here
        def no_threshold(spec):
            raise AssertionError("rate_threshold ran before the pool was rejected")
        monkeypatch.setattr("dyson_blocks.experiments.rate_threshold", no_threshold)
        data = {"command": "rate", "out": str(tmp_path / "o.csv"),
                "model": {"model": "hermitized_iid", "d": 2, "N": 4,
                          "law": {"variant": "permutation_pool",
                                  "values": [1.0, -1.0] * 8}},
                "z": [0.0, 3.0], "N_grid": [4, 8, 16], "trials": 4}
        assert main(["--config", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: config.model.law: rate draws at every N in N_grid, "
            "but a permutation_pool fits one N only\n")
        assert not (tmp_path / "o.csv").exists()

    def test_rate_short_grid(self, tmp_path, capsys):
        data = {"command": "rate", "out": str(tmp_path / "o.csv"),
                "model": {"model": "hermitized_iid", "d": 1, "N": 8,
                          "law": {"variant": "rademacher"}},
                "z": [0.0, 3.0], "N_grid": [8, 16], "trials": 4}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_CONFIG
        assert "config error: config.N_grid: need 3 or more" in capsys.readouterr().err

    def test_circulant_ks_empty_block(self, tmp_path, capsys):
        data = {"command": "circulant-ks", "out": str(tmp_path / "o.csv"),
                "d": 2, "N_grid": [0, 8], "trials": 3}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_CONFIG
        assert "config error: config.N_grid: need 1 or more" in capsys.readouterr().err

    def test_circulant_ks_needs_two_blocks(self, tmp_path, capsys):
        data = {"command": "circulant-ks", "out": str(tmp_path / "o.csv"),
                "d": 1, "N_grid": [8, 16], "trials": 3}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_CONFIG
        assert "config error: config.d: circulant-ks needs d >= 2" in capsys.readouterr().err

    def test_density_needs_positive_eps(self, tmp_path, capsys):
        data = {"command": "density", "out": str(tmp_path / "o.csv"),
                "eta": {"form": "scalar", "d": 1, "t": 1.0},
                "grid": {"min": -1.0, "max": 1.0, "step": 0.5}, "eps": 0.0}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_CONFIG
        assert "config error: config.eps:" in capsys.readouterr().err

    WISHART = {"command": "wishart", "tensor": [[[[1.0]]]], "z": [1.0, 1.0],
               "N": 4, "trials": 3}
    DENSITY = {"command": "density", "eta": {"form": "scalar", "d": 1, "t": 1.0},
               "grid": {"min": -1.0, "max": 1.0, "step": 0.5}}
    MIXTURE = {"command": "density",
               "mixture": {"weights": [1.0], "variances": [1.0]},
               "grid": {"min": -1.0, "max": 1.0, "step": 0.5}}
    SAMPLE = {"command": "sample",
              "model": {"model": "hermitized_iid", "d": 2, "N": 3,
                        "law": {"variant": "complex_gaussian"}}}
    CIRCULANT_KS = {"command": "circulant-ks", "d": 2, "N_grid": [4, 8],
                    "trials": 3}
    SOLVE = {"command": "solve", "eta": {"form": "flat", "d": 2, "c": 1.0},
             "z": [0.1, 1.0]}
    RATE = {"command": "rate",
            "model": {"model": "hermitized_iid", "d": 1, "N": 8,
                      "law": {"variant": "rademacher"}},
            "z": [0.0, 3.0], "N_grid": [8, 16, 32], "trials": 4}
    KRONECKER = {"model": "kronecker", "d": 2, "N": 8,
                 "betas": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]]}
    # real PSD, but sigma(0,1;0,1) = 1 != sigma(1,0;1,0) = 0
    NOT_ADJOINT = pair_tensor(np.diag([1.0, 1.0, 0.0, 1.0]))
    TWO_POINT_HUGE = {"variant": "two_point", "a": 1e300, "b": -1e300, "p": 0.5}
    # Hermitian PSD with Sigma[0,1] = 0.5i
    COMPLEX = pair_tensor([[1, 0.5j, 0, 0], [-0.5j, 1, 0, 0],
                           [0, 0, 1, 0], [0, 0, 0, 1]])
    NOT_CP_CHOI = np.diag([1.0, -1.0, -1.0, 1.0]).tolist()

    @pytest.mark.parametrize("base, key, value, named", [
        (WISHART, ("tensor",), 5, "config.tensor"),
        (SAMPLE, ("model", "d"), "x", "config.model.d"),
        (DENSITY, ("grid", "min"), "a", "config.grid.min"),
        (SAMPLE, ("seed",), "abc", "config.seed"),
        (RATE, ("solver",), {"tol": -1.0}, "config.solver"),
        (SAMPLE, ("trial",), 1.5, "config.trial"),
        (SAMPLE, ("trial",), -1, "config.trial"),
        (SAMPLE, ("model", "law", "variance"), [1.0], "config.model.law.variance"),
        (CIRCULANT_KS, ("N_grid",), 8, "config.N_grid"),
        (CIRCULANT_KS, ("N_grid",), [4, "8"], "config.N_grid[1]"),
        (CIRCULANT_KS, ("trials",), True, "config.trials"),
        (DENSITY, ("solver",), {"max_iter": "x"}, "config.solver.max_iter"),
        (SOLVE, ("solver",), {"max_iter": 0}, "config.solver"),
        (SOLVE, ("solver",), {"tol": float("nan")}, "config.solver"),
        (SOLVE, ("solver",), {"tol": float("inf")}, "config.solver"),
        (SOLVE, ("solver",), {"min_damping": 0.5}, "config.solver"),
        (CIRCULANT_KS, ("seed",), -1, "config.seed"),
        (CIRCULANT_KS, ("seed",), 2 ** 64, "config.seed"),
        (RATE, ("seed",), -1, "config.seed"),
        (WISHART, ("seed",), 2 ** 64, "config.seed"),
        (SAMPLE, ("seed",), -1, "config.seed"),
        (WISHART, ("solver",), {"max_iter": "x"}, "config.solver.max_iter"),
        (RATE, ("solver",), {"max_iter": 0}, "config.solver"),
        (SOLVE, ("eta",), {"form": "flat", "d": 0}, "config.eta"),
        (SOLVE, ("eta",), {"form": "scalar", "d": 0, "t": 1.0}, "config.eta"),
        (SOLVE, ("eta",), {"form": "flat", "d": 2, "c": -1.0}, "config.eta"),
        (DENSITY, ("eta",), {"form": "flat", "d": 0}, "config.eta"),
        (DENSITY, ("eta",), {"form": "scalar", "d": 0, "t": 1.0}, "config.eta"),
        (DENSITY, ("eta",), {"form": "flat", "d": 2, "c": -1.0}, "config.eta"),
        (SAMPLE, ("trial",), 2 ** 64, "config.trial"),
        (SAMPLE, ("trial",), 10 ** 30, "config.trial"),
        # 3 pool values for the 36 entry draws of a d = 2, N = 3 sample
        (SAMPLE, ("model", "law"),
         {"variant": "permutation_pool", "values": [1.0, -1.0, 1.0]}, "config.model"),
        # invalid model data: ModelSpec rejects it before rate builds the
        # limit map
        (RATE, ("model",), dict(KRONECKER, sigma_l=[[1.0, 3.0], [3.0, 1.0]]),
         "config.model"),
        (RATE, ("model",), dict(KRONECKER, betas=KRONECKER["betas"][:1],
                                sigma_l=[[1.0, 0.0], [0.0, 1.0]]), "config.model"),
        (RATE, ("model",), {"model": "correlated_blocks", "d": 2, "N": 8,
                            "tensor": NOT_ADJOINT}, "config.model"),
        (RATE, ("model",), {"model": "wishart_correlated", "d": 2, "N": 8,
                            "tensor": COMPLEX}, "config.model"),
        (RATE, ("model", "law"), {"variant": "complex_gaussian", "variance": -1.0},
         "config.model.law"),
        (SAMPLE, ("model", "law"), {"variant": "real_gaussian", "variance": -1.0},
         "config.model.law"),
        # the variance of this law overflows a float
        (RATE, ("model", "law"), TWO_POINT_HUGE, "config.model.law"),
        (SAMPLE, ("model", "law"), TWO_POINT_HUGE, "config.model.law"),
        # a key that the object's variant does not take
        (SAMPLE, ("model", "law"), {"variant": "rademacher", "variance": 4.0},
         "config.model.law"),
        (SOLVE, ("eta",), {"form": "flat", "d": 2, "t": 1.0}, "config.eta"),
        (SOLVE, ("eta",), {"form": "flat", "d": 2, "prefactor": 0.25}, "config.eta"),
        (SOLVE, ("eta",), {"form": "kronecker", "betas": KRONECKER["betas"],
                           "sigma_l": [[1.0, 0.0], [0.0, 1.0]], "prefactor": 0.25},
         "config.eta"),
        (SAMPLE, ("model",), dict(SAMPLE["model"], betas=KRONECKER["betas"],
                                  sigma_l=[[1.0, 0.0], [0.0, 1.0]]), "config.model"),
        # a Choi matrix that is not PSD: the map is not completely positive
        (SOLVE, ("eta",), {"form": "choi", "matrix": NOT_CP_CHOI}, "config.eta"),
        (DENSITY, ("eta",), {"form": "choi", "matrix": NOT_CP_CHOI}, "config.eta"),
        # a spectrum path is checked before the draw, like out
        (SAMPLE, ("spectrum_out",), 5, "config.spectrum_out"),
        (SAMPLE, ("spectrum_out",), "", "config.spectrum_out"),
        # non-finite numbers
        (MIXTURE, ("mixture", "variances"), [float("nan")], "config.mixture"),
        (SAMPLE, ("model", "law"),
         {"variant": "permutation_pool", "values": [1.0, float("nan")] * 18},
         "config.model.law"),
        (SOLVE, ("z",), [float("nan"), 1.0], "config.z"),
        (RATE, ("z",), [0.0, float("nan")], "config.z"),
        (SOLVE, ("eta",), {"form": "flat", "d": 2, "c": float("nan")}, "config.eta"),
        (SOLVE, ("eta",), {"form": "scalar", "d": 1, "t": float("inf")}, "config.eta"),
        (SAMPLE, ("model",), dict(KRONECKER, sigma_l=[[1.0, float("nan")],
                                                      [float("nan"), 1.0]]),
         "config.model.sigma_l"),
        (DENSITY, ("eps",), float("inf"), "config.eps"),
        (DENSITY, ("grid", "max"), float("inf"), "config.grid"),
        # JSON integers beyond the float range
        (SOLVE, ("z",), [0, 10 ** 400], "config.z"),
        (SOLVE, ("eta",), {"form": "flat", "d": 2, "c": 10 ** 400}, "config.eta.c"),
        (SAMPLE, ("model", "law"),
         {"variant": "two_point", "a": 10 ** 400, "b": 0.0, "p": 0.5},
         "config.model.law.a"),
        (SAMPLE, ("model", "law"),
         {"variant": "permutation_pool", "values": [1.0, 10 ** 400] * 18},
         "config.model.law.values[1]"),
    ])
    def test_wrong_type_names_key(self, tmp_path, capsys, base, key, value, named):
        data = copy.deepcopy(base)
        data["out"] = str(tmp_path / "o")
        node = data
        for k in key[:-1]:
            node = node[k]
        node[key[-1]] = value
        assert main(["--config", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert f"config error: {named}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_override_out_of_range(self, tmp_path, capsys, seed):
        data = dict(self.CIRCULANT_KS, out=str(tmp_path / "o"))
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg, "--seed", seed]) == EXIT_CONFIG
        assert "config error: --seed: need 0 <= seed < 2^64" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        data = dict(self.SAMPLE, out=str(tmp_path / "o"))
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg, "--threads", threads]) == EXIT_CONFIG
        assert "config error: --threads: need threads >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_threads_environment_variable_is_not_read(self, tmp_path, monkeypatch):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, dict(self.SAMPLE, out=str(out)))
        assert main(["--config", cfg]) == EXIT_OK
        plain = out.read_bytes()
        monkeypatch.setenv("DYSON_BLOCKS_THREADS", "zebra")
        assert main(["--config", cfg]) == EXIT_OK
        assert out.read_bytes() == plain

    @pytest.mark.parametrize("base", [WISHART, CIRCULANT_KS])
    def test_single_trial_rejected(self, tmp_path, capsys, base):
        data = dict(base, out=str(tmp_path / "o"), trials=1)
        assert main(["--config", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert "config error: config.trials: need trials >= 2" in capsys.readouterr().err

    UNIVERSALITY = {"command": "universality",
                    "model": {"model": "hermitized_iid", "d": 1, "N": 8,
                              "law": {"variant": "rademacher"}},
                    "laws": [{"variant": "rademacher"},
                             {"variant": "real_gaussian", "variance": 1.0}],
                    "z": [0.0, 3.0], "N": 8, "trials": 3}
    TRIALS = "config.trials: need trials >= 2, got "
    RATE_GRID = "config.N_grid: need 3 or more strictly increasing N >= 1, got "
    KS_GRID = "config.N_grid: need 1 or more strictly increasing N >= 1, got "

    @pytest.mark.parametrize("base, key, value, message", [
        (RATE, "trials", 1, TRIALS + "1"),
        (UNIVERSALITY, "trials", 1, TRIALS + "1"),
        (CIRCULANT_KS, "trials", 1, TRIALS + "1"),
        (WISHART, "trials", 1, TRIALS + "1"),
        (WISHART, "trials", -3, TRIALS + "-3"),
        (UNIVERSALITY, "N", 0, "config.N: need N >= 1, got 0"),
        (WISHART, "N", 0, "config.N: need N >= 1, got 0"),
        (RATE, "N_grid", [0, 8, 16], RATE_GRID + "[0, 8, 16]"),
        (RATE, "N_grid", [8, 8, 16], RATE_GRID + "[8, 8, 16]"),
        (CIRCULANT_KS, "N_grid", [0, 8], KS_GRID + "[0, 8]"),
        (CIRCULANT_KS, "N_grid", [], KS_GRID + "[]"),
        (CIRCULANT_KS, "N_grid", [8, 8], KS_GRID + "[8, 8]"),
        (CIRCULANT_KS, "N_grid", [20, 10, 40], KS_GRID + "[20, 10, 40]"),
    ], ids=["rate-trials", "universality-trials", "circulant-ks-trials",
            "wishart-trials", "wishart-negative-trials", "universality-N",
            "wishart-N", "rate-zero-N", "rate-repeated-N", "circulant-ks-zero-N",
            "circulant-ks-empty", "circulant-ks-repeated-N",
            "circulant-ks-decreasing-N"])
    def test_trials_and_sizes_name_their_key(self, tmp_path, capsys, base, key,
                                             value, message):
        data = dict(base, out=str(tmp_path / "o"), **{key: value})
        assert main(["--config", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    # a top-level input that changes no run is refused: the thread count on
    # every command, and the solver options on the commands that never solve
    @pytest.mark.parametrize("base, key, value", [
        (SOLVE, "threads", 2), (DENSITY, "threads", 2), (SAMPLE, "threads", 2),
        (RATE, "threads", 2), (UNIVERSALITY, "threads", 1),
        (CIRCULANT_KS, "threads", 2), (WISHART, "threads", 2),
        (SAMPLE, "solver", {"tol": 1e-10}), (UNIVERSALITY, "solver", {}),
        (CIRCULANT_KS, "solver", {"max_iter": 5}),
    ], ids=["solve-threads", "density-threads", "sample-threads", "rate-threads",
            "universality-threads", "circulant-ks-threads", "wishart-threads",
            "sample-solver", "universality-solver", "circulant-ks-solver"])
    def test_inputs_that_change_no_run_are_unknown_keys(self, tmp_path, capsys,
                                                        base, key, value):
        data = dict(base, out=str(tmp_path / "o"), **{key: value})
        assert main(["--config", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: config: unknown key {key!r}\n"
        assert not (tmp_path / "o").exists()

    # a value that fails its key's rule is found by the parse, so the echo
    # refuses it with the run's message
    @pytest.mark.parametrize("base, key, value, named", [
        (RATE, ("trials",), 1, "config.trials"),
        (RATE, ("z",), "x", "config.z"),
        (RATE, ("N_grid",), [8, 16], "config.N_grid"),
        (SAMPLE, ("model", "law"), {"variant": "cauchy"}, "config.model.law.variant"),
        (DENSITY, ("grid", "step"), 0.0, "config.grid"),
        (WISHART, ("solver",), {"tol": "x"}, "config.solver.tol"),
        (SAMPLE, ("spectrum_out",), "", "config.spectrum_out"),
        (WISHART, ("z",), [1.0, -1.0], "config.z"),
        (WISHART, ("z",), [-1.0, 1.0], "config.z"),
    ], ids=["trials", "z", "N_grid", "model.law", "grid.step", "solver.tol",
            "spectrum_out", "wishart-im-z", "wishart-im-z2"])
    def test_print_config_refuses_what_the_run_refuses(self, tmp_path, capsys, base,
                                                       key, value, named):
        data = copy.deepcopy(base)
        data["out"] = str(tmp_path / "o")
        node = data
        for k in key[:-1]:
            node = node[k]
        node[key[-1]] = value
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named}:")
        assert main(["--config", cfg, "--print-config"]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", err)
        assert not (tmp_path / "o").exists()

    # keys parse in the command row's order, whatever their order in the
    # file, and of two unknown keys the first in sorted order is named
    @pytest.mark.parametrize("bad, named", [
        ({"trials": 1, "z": "x"}, "config.z"),
        ({"solver": {"tol": 0.0}, "model": dict(RATE["model"], d=0)}, "config.model"),
        ({"seed": -1, "N_grid": [8]}, "config.N_grid"),
        ({"zork": 1, "wibble": 1}, "config"),
    ], ids=["trials-z", "solver-model", "seed-N_grid", "unknown-keys"])
    def test_two_bad_keys_name_the_same_key_in_any_order(self, tmp_path, capsys,
                                                         bad, named):
        errors = []
        for order in (list(bad), list(reversed(bad))):
            data = {k: v for k, v in self.RATE.items() if k not in bad}
            data.update({k: bad[k] for k in order}, out=str(tmp_path / "o"))
            assert main(["--config", write_config(tmp_path, data)]) == EXIT_CONFIG
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"config error: {named}:")

    # sizes that no allocation can hold fail at once, without using memory
    @pytest.mark.parametrize("data, named", [
        (dict(SAMPLE, model=dict(RATE["model"], N=10 ** 9)), "config.model"),
        (dict(RATE, N_grid=[10 ** 9, 2 * 10 ** 9, 3 * 10 ** 9]), "config"),
    ], ids=["sample", "rate"])
    def test_allocation_failure_is_a_config_error(self, tmp_path, capsys, data, named):
        out = tmp_path / "o"
        assert main(["--config", write_config(tmp_path, dict(data, out=str(out)))]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: {named}: Unable to allocate")
        assert not out.exists()

    def test_print_config_roundtrip(self, tmp_path, capsys):
        cfg = scalar_solve_config(tmp_path)
        assert main(["--config", cfg, "--print-config"]) == EXIT_OK
        echoed = capsys.readouterr().out
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(echoed)
        assert parse_config(str(echo_path)) == parse_config(cfg)

        # the echo carries the command-line overrides, so running it is the
        # same run as the one with the flags
        data = dict(self.SAMPLE, out=str(tmp_path / "m.bin"))
        cfg = write_config(tmp_path, data)
        other = tmp_path / "other.bin"
        flags = ["--seed", "7", "--out", str(other), "--threads", "2"]
        assert main(["--config", cfg, *flags, "--print-config"]) == EXIT_OK
        echo_path.write_text(capsys.readouterr().out)
        assert parse_config(str(echo_path)).data == dict(
            data, seed=7, out=str(other))
        assert main(["--config", cfg, *flags]) == EXIT_OK
        flagged = other.read_bytes()
        other.unlink()
        assert main(["--config", str(echo_path)]) == EXIT_OK
        assert other.read_bytes() == flagged
        assert main(["--config", cfg]) == EXIT_OK
        assert (tmp_path / "m.bin").read_bytes() != flagged


class TestSampleCommand:
    def test_binary_matrix_output(self, tmp_path):
        data = {"command": "sample", "out": str(tmp_path / "m.bin"),
                "model": {"model": "hermitized_iid", "d": 2, "N": 6,
                          "law": {"variant": "complex_gaussian", "variance": 1.0}},
                "seed": 11}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_OK
        m = matrix_from_bytes((tmp_path / "m.bin").read_bytes())
        assert m.shape == (12, 12)
        assert np.array_equal(m, m.conj().T)

    def test_spectrum_export(self, tmp_path):
        data = {"command": "sample", "out": str(tmp_path / "m.bin"),
                "spectrum_out": str(tmp_path / "spec.csv"),
                "model": {"model": "circulant", "d": 3, "N": 8},
                "seed": 7}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_OK
        lines = (tmp_path / "spec.csv").read_text().strip().splitlines()
        header_at = next(i for i, l in enumerate(lines)
                         if l == "index,eigenvalue")
        eigs = [float(l.split(",")[1]) for l in lines[header_at + 1:]]
        assert len(eigs) == 24
        assert eigs == sorted(eigs)
        m = matrix_from_bytes((tmp_path / "m.bin").read_bytes())
        assert np.allclose(np.linalg.eigvalsh(m), eigs)

    def test_seed_override_changes_output(self, tmp_path):
        data = {"command": "sample", "out": str(tmp_path / "m.bin"),
                "model": {"model": "hermitized_iid", "d": 1, "N": 8,
                          "law": {"variant": "rademacher"}},
                "seed": 11}
        cfg = write_config(tmp_path, data)
        main(["--config", cfg])
        first = (tmp_path / "m.bin").read_bytes()
        main(["--config", cfg, "--seed", "12"])
        second = (tmp_path / "m.bin").read_bytes()
        main(["--config", cfg, "--seed", "11"])
        third = (tmp_path / "m.bin").read_bytes()
        assert first != second
        assert first == third


class TestDensityCommand:
    def test_mixture_density_mass(self, tmp_path):
        data = {"command": "density", "out": str(tmp_path / "rho.csv"),
                "mixture": {"weights": [2 / 3, 1 / 3],
                            "variances": [2 / 3, 5 / 3]},
                "grid": {"min": -3.0, "max": 3.0, "step": 0.001},
                "eps": 1e-4}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_OK
        lines = (tmp_path / "rho.csv").read_text().strip().splitlines()
        assert lines[0].startswith("#")
        header_at = next(i for i, l in enumerate(lines) if l == "x,rho")
        table = np.array([[float(v) for v in l.split(",")]
                          for l in lines[header_at + 1:]])
        mass = np.trapezoid(table[:, 1], table[:, 0])
        assert abs(mass - 1.0) <= 2e-3

    def test_density_across_both_edges(self, tmp_path):
        data = {"command": "density", "out": str(tmp_path / "rho.csv"),
                "eta": {"form": "flat", "d": 2, "c": 2.0},
                "grid": {"min": -3.0, "max": 3.0, "step": 0.01},
                "eps": 1e-4}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_OK
        lines = (tmp_path / "rho.csv").read_text().strip().splitlines()
        header_at = lines.index("x,rho")
        assert len(lines) - header_at - 1 == 601

    def test_eta_density(self, tmp_path):
        data = {"command": "density", "out": str(tmp_path / "rho.csv"),
                "eta": {"form": "scalar", "d": 1, "t": 1.0},
                "grid": {"min": -0.5, "max": 0.5, "step": 0.25}}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_OK


class TestExperimentCommands:
    def rate_config(self, tmp_path):
        data = {"command": "rate", "out": str(tmp_path / "rate.csv"),
                "model": {"model": "hermitized_iid", "d": 1, "N": 8,
                          "law": {"variant": "rademacher"}},
                "z": [0.0, 3.0], "N_grid": [8, 16, 32], "trials": 6,
                "seed": 21}
        return write_config(tmp_path, data)

    def test_rate_format_contract(self, tmp_path):
        cfg = self.rate_config(tmp_path)
        assert main(["--config", cfg]) == EXIT_OK
        text = (tmp_path / "rate.csv").read_text()
        lines = text.strip().splitlines()
        assert "N,error,stderr" in lines
        assert "slope,slope_stderr" in lines
        data_lines = [l for l in lines if l and not l.startswith("#")]
        assert data_lines[0] == "N,error,stderr"
        assert len([l for l in data_lines if l[0].isdigit()]) == 3

    def test_byte_identical_across_threads(self, tmp_path):
        # every Monte Carlo command runs its trials on the one trial mapper
        others = {
            "circulant-ks": {"d": 3, "N_grid": [8, 16], "trials": 5},
            "wishart": {"tensor": [[[[1.0]]]],
                        "z": [1.4142135623730951, 1.4142135623730951],
                        "N": 20, "trials": 5},
            # Gram matrices and resolvent traces at n = 256
            "wishart-n256": {"command": "wishart", "tensor": [[[[1.0]]]],
                             "z": [2.0, 0.0025], "N": 256, "trials": 3},
            "universality": {"model": {"model": "wigner_blocks", "d": 2, "N": 6,
                                       "law": {"variant": "rademacher"}},
                             "laws": [{"variant": "rademacher"},
                                      {"variant": "complex_gaussian"}],
                             "z": [0.5, 2.5], "N": 6, "trials": 5},
            # n = d N reaches 256: resolvent-trace matmuls large enough for
            # a multithreaded BLAS to split them
            "rate-n256": {"command": "rate",
                          "model": {"model": "hermitized_iid", "d": 2, "N": 8,
                                    "law": {"variant": "complex_gaussian"}},
                          "z": [0.0, 3.0], "N_grid": [32, 64, 128], "trials": 3},
        }
        runs = [(self.rate_config(tmp_path), tmp_path / "rate.csv")]
        for name, data in others.items():
            out = tmp_path / f"{name}.csv"
            runs.append((write_config(tmp_path, dict(data, out=str(out), seed=21,
                                                     command=data.get("command", name)),
                                      name=f"{name}.json"), out))
        for cfg, out in runs:
            outputs = []
            for threads in ([], ["--threads", "2"], ["--threads", "3"],
                            ["--threads", "4"]):
                assert main(["--config", cfg, *threads]) == EXIT_OK
                outputs.append(out.read_bytes())
            assert len(set(outputs)) == 1, out.name

    @pytest.mark.parametrize("argv", [["--threads", "4"], []],
                             ids=["flag", "default"])
    def test_no_thread_pool(self, tmp_path, monkeypatch, argv):
        # trials run serially at any thread count
        from dyson_blocks import esd

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(esd, "ThreadPoolExecutor", no_pool)
        configs = [self.rate_config(tmp_path)]
        for name, data in {
                "universality": TestConfigValidation.UNIVERSALITY,
                "circulant-ks": TestConfigValidation.CIRCULANT_KS,
                "wishart": TestConfigValidation.WISHART}.items():
            out = str(tmp_path / f"{name}.csv")
            configs.append(write_config(tmp_path, dict(data, out=out),
                                        name=f"{name}.json"))
        for cfg in configs:
            assert main(["--config", cfg, *argv]) == EXIT_OK

    def test_universality_command(self, tmp_path):
        data = {"command": "universality", "out": str(tmp_path / "u.csv"),
                "model": {"model": "hermitized_iid", "d": 1, "N": 16,
                          "law": {"variant": "rademacher"}},
                "laws": [{"variant": "rademacher"},
                         {"variant": "real_gaussian", "variance": 1.0}],
                "z": [0.0, 3.0], "N": 16, "trials": 6, "seed": 3}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_OK
        lines = (tmp_path / "u.csv").read_text().strip().splitlines()
        assert lines[0].startswith("mean_a_re")

    def test_universality_model_without_law(self, tmp_path, capsys):
        data = {"command": "universality", "out": str(tmp_path / "u.csv"),
                "model": {"model": "correlated_blocks", "d": 1, "N": 8,
                          "tensor": [[[[1.0]]]]},
                "laws": [{"variant": "rademacher"},
                         {"variant": "real_gaussian", "variance": 1.0}],
                "z": [0.0, 3.0], "N": 8, "trials": 2}
        assert main(["--config", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: config: correlated_blocks model takes no law\n")
        assert not (tmp_path / "u.csv").exists()

    def test_universality_at_a_large_scale(self, tmp_path):
        # a + b rounds to a mean of -7.45e-9, relative 5e-17 of the standard
        # deviation 1.4e8: centred under the relative rule, as at scale 1
        data = {"command": "universality", "out": str(tmp_path / "u.csv"),
                "model": {"model": "hermitized_iid", "d": 1, "N": 8,
                          "law": {"variant": "rademacher"}},
                "laws": [{"variant": "two_point", "a": 2e8, "b": -1e8, "p": 1 / 3},
                         {"variant": "real_gaussian", "variance": 2e16}],
                "z": [0.0, 3.0], "N": 8, "trials": 2}
        assert main(["--config", write_config(tmp_path, data)]) == EXIT_OK
        assert (tmp_path / "u.csv").exists()

    def test_circulant_ks_command(self, tmp_path):
        data = {"command": "circulant-ks", "out": str(tmp_path / "ks.csv"),
                "d": 2, "N_grid": [8, 16], "trials": 3, "seed": 5}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_OK
        text = (tmp_path / "ks.csv").read_text()
        assert "N,mean_ks,stderr" in text

    def test_wishart_command(self, tmp_path):
        data = {"command": "wishart", "out": str(tmp_path / "w.csv"),
                "tensor": [[[[1.0]]]],
                "z": [1.4142135623730951, 1.4142135623730951],
                "N": 30, "trials": 4, "seed": 8}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_OK
        lines = (tmp_path / "w.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        values = [float(v) for v in lines[1].split(",")]
        assert header[0] == "max_identity_residual"
        assert values[0] <= 1e-9

    def test_wishart_psd_within_tolerance(self, tmp_path):
        # lambda_min = -1.5e-8 is inside -1e-10 * (1 + ||Sigma||_F); the
        # tensor check and the sampler factor share that one tolerance
        data = {"command": "wishart", "out": str(tmp_path / "w.csv"),
                "tensor": pair_tensor(np.diag([100.0, 100.0, 100.0, -1.5e-8])),
                "z": [1.4142135623730951, 1.4142135623730951],
                "N": 6, "trials": 2, "seed": 3}
        assert main(["--config", write_config(tmp_path, data)]) == EXIT_OK
        assert (tmp_path / "w.csv").exists()

    def test_wishart_tensor_real_up_to_rounding(self, tmp_path):
        # Im sigma is 1e-17 of sigma: real under the relative rule
        data = {"command": "wishart", "out": str(tmp_path / "w.csv"),
                "tensor": [[[[[1e6, 1e-11]]]]],
                "z": [1.4142135623730951, 1.4142135623730951],
                "N": 8, "trials": 2}
        assert main(["--config", write_config(tmp_path, data)]) == EXIT_OK
        assert (tmp_path / "w.csv").exists()

    def test_wishart_golden_across_threads(self, tmp_path):
        # the solver and Monte Carlo strings are pinned, while the residual
        # column depends on how the two Gram resolvent traces round and is
        # only bounded
        tensor = [[[[1.0, 0.3], [0.3, 0.5]], [[0.3, 0.2], [0.2, 0.4]]],
                  [[[0.3, 0.2], [0.2, 0.4]], [[0.5, 0.4], [0.4, 1.0]]]]
        out = tmp_path / "w.csv"
        data = {"command": "wishart", "out": str(out), "tensor": tensor,
                "z": [1.4142135623730951, 1.4142135623730951],
                "N": 24, "trials": 4, "seed": 8}
        cfg = write_config(tmp_path, data)
        golden = ("-0.03159858847124457,-0.23842328072453087,"
                  "-0.03184583463863794,-0.2384087237836748,"
                  "0.00014806823702538392")
        for threads in ("1", "2"):
            assert main(["--config", cfg, "--threads", threads]) == EXIT_OK
            lines = out.read_text().splitlines()
            assert lines[0] == ("max_identity_residual,solver_re,solver_im,"
                                "mc_re,mc_im,mc_stderr")
            residual, rest = lines[1].split(",", 1)
            assert rest == golden
            assert float(residual) <= 1e-9


class TestIOFailure:
    def test_unwritable_output(self, tmp_path):
        cfg = scalar_solve_config(tmp_path)
        assert main(["--config", cfg, "--out",
                     str(tmp_path / "no" / "such" / "dir" / "x.csv")]) == EXIT_IO

    def test_no_temp_droppings(self, tmp_path):
        cfg = scalar_solve_config(tmp_path)
        main(["--config", cfg])
        leftovers = [f for f in os.listdir(tmp_path)
                     if f.startswith(".dyson-blocks")]
        assert leftovers == []


class TestAllocatorPolicy:
    def test_policy_set_on_glibc(self):
        assert _keep_heap_resident() == (platform.libc_ver()[0] == "glibc")

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the policy is glibc's mallopt")
    def test_more_trials_fault_no_more_pages(self, tmp_path):
        # freed trial arrays stay mapped, so 12 more trials of the same sizes
        # reuse the first trials' pages instead of faulting them in again
        src = os.path.dirname(os.path.dirname(os.path.abspath(dyson_blocks.__file__)))
        env = dict(os.environ, PYTHONPATH=src)

        def faults(trials):
            data = {"command": "rate", "out": str(tmp_path / f"rate-{trials}.csv"),
                    "model": {"model": "hermitized_iid", "d": 2, "N": 32,
                              "law": {"variant": "complex_gaussian"}},
                    "z": [0.0, 3.0], "N_grid": [32, 64, 128], "trials": trials,
                    "seed": 1}
            cfg = write_config(tmp_path, data, name=f"rate-{trials}.json")
            code = ("import resource\n"
                    "from dyson_blocks.cli import main\n"
                    "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                    f"assert main(['--config', {cfg!r}]) == 0\n"
                    "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            return int(proc.stdout)

        few, many = faults(4), faults(16)
        assert many - few < 500, (few, many)


def reference_parser():
    """The argparse parser the CLI used to build, flag for flag."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="dyson-blocks",
        description="Solve operator-valued Dyson equations and run "
                    "block random-matrix experiments from a JSON config.")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", help="override the config output path")
    parser.add_argument("--seed", type=int, help="override the config seed (u64)")
    parser.add_argument("--threads", type=int,
                        help="accepted and checked (>= 1); trials run serially")
    parser.add_argument("--print-config", action="store_true",
                        help="echo the parsed config as canonical JSON and exit")
    return parser


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["--config", "c.json"],
        ["--config=c.json"],
        ["--config="],
        ["--config", "c", "--out", "o.csv", "--seed", "5", "--threads", "2"],
        ["--config=c", "--out=o.csv", "--seed=5", "--threads=2"],
        ["--seed", "5", "--out", "o", "--config", "c"],
        ["--conf", "c", "--o", "o", "--se", "7", "--t", "3", "--p"],
        ["--c=c", "--ou=o", "--s=7", "--thr=3", "--print"],
        ["--config", "a", "--config", "b", "--seed", "1", "--seed", "2"],
        ["--config", "c", "--out", "a", "--out=b", "--threads", "4", "--thread", "1"],
        ["--config", "c", "--seed", "-1"],
        ["--config", "c", "--seed=-1"],
        ["--config", "c", "--seed", str(2 ** 64)],
        ["--config", "c", "--seed", " 7 "],
        ["--config", "c", "--threads", "0"],
        ["--config", "c", "--threads", "-3"],
        ["--print-config", "--config", "c"],
        ["--config", "c", "--print-config", "--seed", "3", "--out", "o"],
        ["--config", "c", "--print-config", "--print-config"],
    ])
    def test_same_values_as_argparse(self, argv):
        expected = vars(reference_parser().parse_args(argv))
        assert vars(cli._parse_flags(argv)) == expected

    def test_value_is_the_next_argument_whatever_it_starts_with(self):
        # argparse refused a value that looks like a flag ("expected one
        # argument"); getopt takes the next argument
        args = cli._parse_flags(["--config", "--c", "--out", "-x"])
        assert (args.config, args.out) == ("--c", "-x")

    @pytest.mark.parametrize("argv, error", [
        (["--zork"], "option --zork not recognized"),
        (["--config", "c.json", "-x"], "option -x not recognized"),
        (["--config"], "option --config requires argument"),
        (["--config", "c.json", "--out"], "option --out requires argument"),
        (["--config", "c.json", "--seed", "x"],
         "argument --seed: invalid int value: 'x'"),
        (["--config", "c.json", "--seed", "1.0"],
         "argument --seed: invalid int value: '1.0'"),
        (["--config", "c.json", "--threads=two"],
         "argument --threads: invalid int value: 'two'"),
        (["--config", "c.json", "extra"], "unrecognized arguments: extra"),
        (["extra", "--config", "c.json", "more"], "unrecognized arguments: extra more"),
        (["--config", "c.json", "--", "--seed", "3"],
         "unrecognized arguments: --seed 3"),
        (["--config", "c.json", "--print-config=1"],
         "option --print-config must not have an argument"),
        ([], "the following arguments are required: --config"),
        (["--seed", "3", "--print-config"],
         "the following arguments are required: --config"),
    ])
    def test_refused_forms(self, tmp_path, capsys, monkeypatch, argv, error):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, {"command": "solve", "out": "o.csv",
                                "eta": {"form": "scalar", "d": 1, "t": 1.0},
                                "z": [0.0, 2.0]}, name="c.json")
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (reference_parser().format_usage()
                                + f"dyson-blocks: error: {error}\n")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"],
                                      ["--config", "c.json", "-h"],
                                      ["--help", "--seed", "x"]])
    def test_help(self, capsys, monkeypatch, argv):
        # argparse's layout at 80 columns, which the help keeps at any width
        monkeypatch.setenv("COLUMNS", "80")
        expected = reference_parser().format_help()
        monkeypatch.setenv("COLUMNS", "200")
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == (expected, "")

    def test_import_leaves_argparse_out(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(dyson_blocks.__file__)))
        code = "import sys, dyson_blocks.cli; print(sorted({'argparse'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        assert proc.stdout == "[]\n"

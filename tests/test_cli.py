import copy
import json
import os

import numpy as np
import pytest

from dyson_blocks.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER,
                              main, parse_config)
from dyson_blocks.sampler import matrix_from_bytes


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


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

    def test_roundtrip_formatting(self, tmp_path):
        cfg = scalar_solve_config(tmp_path)
        main(["--config", cfg])
        line = (tmp_path / "solve.csv").read_text().strip().splitlines()[1]
        g_im = float(line.split(",")[3])
        # shortest-roundtrip decimals reparse to the identical double
        assert repr(g_im) == line.split(",")[3]


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

    def test_rate_short_grid(self, tmp_path, capsys):
        data = {"command": "rate", "out": str(tmp_path / "o.csv"),
                "model": {"model": "hermitized_iid", "d": 1, "N": 8,
                          "law": {"variant": "rademacher"}},
                "z": [0.0, 3.0], "N_grid": [8, 16], "trials": 4}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_CONFIG
        assert "config error: config: N_grid" in capsys.readouterr().err

    def test_circulant_ks_empty_block(self, tmp_path, capsys):
        data = {"command": "circulant-ks", "out": str(tmp_path / "o.csv"),
                "d": 2, "N_grid": [0, 8], "trials": 3}
        cfg = write_config(tmp_path, data)
        assert main(["--config", cfg]) == EXIT_CONFIG
        assert "config error: config: need d >= 1 and N >= 1" in capsys.readouterr().err

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
    SAMPLE = {"command": "sample",
              "model": {"model": "hermitized_iid", "d": 2, "N": 3,
                        "law": {"variant": "complex_gaussian"}}}
    CIRCULANT_KS = {"command": "circulant-ks", "d": 2, "N_grid": [4, 8],
                    "trials": 3}

    @pytest.mark.parametrize("base, key, value, named", [
        (WISHART, ("tensor",), 5, "config.tensor"),
        (SAMPLE, ("model", "d"), "x", "config.model.d"),
        (DENSITY, ("grid", "min"), "a", "config.grid.min"),
        (SAMPLE, ("seed",), "abc", "config.seed"),
        (SAMPLE, ("threads",), "x", "config.threads"),
        (SAMPLE, ("trial",), 1.5, "config.trial"),
        (SAMPLE, ("trial",), -1, "config.trial"),
        (SAMPLE, ("model", "law", "variance"), [1.0], "config.model.law.variance"),
        (CIRCULANT_KS, ("N_grid",), 8, "config.N_grid"),
        (CIRCULANT_KS, ("N_grid",), [4, "8"], "config.N_grid[1]"),
        (CIRCULANT_KS, ("trials",), True, "config.trials"),
        (DENSITY, ("solver",), {"max_iter": "x"}, "config.solver.max_iter"),
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

    @pytest.mark.parametrize("base", [WISHART, CIRCULANT_KS])
    def test_single_trial_rejected(self, tmp_path, capsys, base):
        data = dict(base, out=str(tmp_path / "o"), trials=1)
        assert main(["--config", write_config(tmp_path, data)]) == EXIT_CONFIG
        assert "need at least 2 trials" in capsys.readouterr().err

    def test_print_config_roundtrip(self, tmp_path, capsys):
        cfg = scalar_solve_config(tmp_path)
        assert main(["--config", cfg, "--print-config"]) == EXIT_OK
        echoed = capsys.readouterr().out
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(echoed)
        assert parse_config(str(echo_path)) == parse_config(cfg)


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
    def rate_config(self, tmp_path, threads=None):
        data = {"command": "rate", "out": str(tmp_path / "rate.csv"),
                "model": {"model": "hermitized_iid", "d": 1, "N": 8,
                          "law": {"variant": "rademacher"}},
                "z": [0.0, 3.0], "N_grid": [8, 16, 32], "trials": 6,
                "seed": 21}
        if threads is not None:
            data["threads"] = threads
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
            "universality": {"model": {"model": "wigner_blocks", "d": 2, "N": 6,
                                       "law": {"variant": "rademacher"}},
                             "laws": [{"variant": "rademacher"},
                                      {"variant": "complex_gaussian"}],
                             "z": [0.5, 2.5], "N": 6, "trials": 5},
        }
        runs = [(self.rate_config(tmp_path), tmp_path / "rate.csv")]
        for command, data in others.items():
            out = tmp_path / f"{command}.csv"
            runs.append((write_config(tmp_path, dict(data, command=command,
                                                     out=str(out), seed=21),
                                      name=f"{command}.json"), out))
        for cfg, out in runs:
            outputs = []
            for threads in ([], ["--threads", "2"], ["--threads", "4"]):
                assert main(["--config", cfg, *threads]) == EXIT_OK
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1] == outputs[2], out.name

    def test_env_threads_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DYSON_BLOCKS_THREADS", "2")
        cfg = self.rate_config(tmp_path)
        assert main(["--config", cfg]) == EXIT_OK
        monkeypatch.setenv("DYSON_BLOCKS_THREADS", "zebra")
        assert main(["--config", cfg]) == EXIT_CONFIG

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

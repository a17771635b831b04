"""Command-line front end.

Reads a JSON config (nested key-value sections with brace/quote notation),
dispatches to the solver / sampler / experiment operations and writes
machine-readable outputs atomically (temp file + rename).

Exit codes: 0 success, 2 config error, 3 solver non-convergence,
4 output I/O failure.  Numeric CSV fields use shortest-roundtrip decimal
formatting so reruns diff bit-faithfully.  Complex numbers in configs are
[re, im] pairs; matrices are nested lists of numbers or pairs.

See README.md for the full schema of every command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import dyson, experiments, sampler
from .eta import (CovarianceTensor, choi_map, eta_correlated_tensor,
                  eta_kronecker, flat_map, scalar_map)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

THREADS_ENV = "DYSON_BLOCKS_THREADS"

COMMANDS = ("solve", "density", "sample", "rate", "universality",
            "circulant-ks", "wishart")


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key.

    Not a ValueError, so ``except ValueError`` clauses pass it on unchanged.
    """


class SolverFailure(RuntimeError):
    pass


def fmt(x) -> str:
    """Shortest-roundtrip decimal for a float (17 significant digits max)."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# schema-checked parsing
# ---------------------------------------------------------------------------

def _check_keys(obj: dict, path: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing required key {key!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real(value, path: str, kind=float):
    """A JSON number as ``kind`` (float, or int for integral values)."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not _is_number(value) or (kind is int and isinstance(value, float)):
        raise ConfigError(f"{path}: expected {'an integer' if kind is int else 'a number'}")
    return kind(value)


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    return value


def _reals(value, path: str, kind=float) -> list:
    return [_real(v, f"{path}[{i}]", kind) for i, v in enumerate(_list(value, path))]


def _complex(value, path: str) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{path}: expected a number or [re, im] pair")


def _matrix(value, path: str) -> np.ndarray:
    try:
        rows = [[_complex(v, path) for v in row] for row in value]
        return np.array(rows, dtype=np.complex128)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: expected a matrix of numbers or [re, im] pairs") from exc


def _law(obj, path: str):
    _check_keys(obj, path, ("variant",),
                ("variance", "a", "b", "p", "values"))
    variant = obj["variant"]
    variance = _real(obj.get("variance", 1.0), f"{path}.variance")
    try:
        if variant == "complex_gaussian":
            return sampler.ComplexGaussian(variance)
        if variant == "real_gaussian":
            return sampler.RealGaussian(variance)
        if variant == "rademacher":
            return sampler.Rademacher()
        if variant == "two_point":
            return sampler.TwoPoint(*(_real(obj[k], f"{path}.{k}") for k in "abp"))
        if variant == "permutation_pool":
            return sampler.PermutationPool(_reals(obj["values"], f"{path}.values"))
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc.args[0]!r} for {variant}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.variant: unknown entry law {variant!r}")


def _tensor(value, path: str) -> CovarianceTensor:
    try:
        return CovarianceTensor(np.asarray(
            [[[[_complex(v, path) for v in kk] for kk in jj] for jj in ii]
             for ii in value], dtype=np.complex128))
    except TypeError as exc:
        raise ConfigError(f"{path}: expected a d x d x d x d nested list") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _model(obj, path: str, seed: int) -> sampler.ModelSpec:
    _check_keys(obj, path, ("model", "d", "N"),
                ("law", "betas", "sigma_l", "tensor"))
    kwargs = dict(model=obj["model"], d=_real(obj["d"], f"{path}.d", int),
                  N=_real(obj["N"], f"{path}.N", int), seed=seed)
    if "law" in obj:
        kwargs["law"] = _law(obj["law"], f"{path}.law")
    if "betas" in obj:
        kwargs["betas"] = tuple(_matrix(b, f"{path}.betas")
                                for b in _list(obj["betas"], f"{path}.betas"))
    if "sigma_l" in obj:
        kwargs["sigma_l"] = _matrix(obj["sigma_l"], f"{path}.sigma_l")
    if "tensor" in obj:
        kwargs["tensor"] = _tensor(obj["tensor"], f"{path}.tensor")
    try:
        return sampler.ModelSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _eta(obj, path: str):
    _check_keys(obj, path, ("form",),
                ("d", "t", "c", "betas", "sigma_l", "prefactor", "sigma", "matrix"))
    form = obj.get("form")
    try:
        if form == "scalar":
            return scalar_map(_real(obj["d"], f"{path}.d", int),
                              _real(obj["t"], f"{path}.t"))
        if form == "flat":
            return flat_map(_real(obj["d"], f"{path}.d", int),
                            _real(obj.get("c", 1.0), f"{path}.c"))
        if form == "kronecker":
            betas = [_matrix(b, f"{path}.betas")
                     for b in _list(obj["betas"], f"{path}.betas")]
            return eta_kronecker(
                betas, _matrix(obj["sigma_l"], f"{path}.sigma_l"),
                prefactor=_real(obj.get("prefactor", 1.0), f"{path}.prefactor"))
        if form == "tensor":
            return eta_correlated_tensor(_tensor(obj["sigma"], f"{path}.sigma"))
        if form == "choi":
            return choi_map(_matrix(obj["matrix"], f"{path}.matrix"))
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc.args[0]!r} for form {form!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.form: unknown eta form {form!r}")


def _solver_options(obj, path: str) -> dyson.SolverOptions:
    _check_keys(obj, path, (), ("tol", "max_iter", "initial_damping", "min_damping"))
    try:
        return dyson.SolverOptions(**{
            key: _real(obj.get(key, default), f"{path}.{key}", type(default))
            for key, default in vars(dyson.SolverOptions()).items()})
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_COMMAND_KEYS = {
    "solve": (("eta",), ("z", "z_grid")),
    "density": (("grid",), ("eta", "mixture", "eps")),
    "sample": (("model",), ("trial", "spectrum_out")),
    "rate": (("model", "z", "N_grid", "trials"), ()),
    "universality": (("model", "laws", "z", "N", "trials"), ()),
    "circulant-ks": (("d", "N_grid", "trials"), ()),
    "wishart": (("tensor", "z", "N", "trials"), ()),
}


class RunConfig:
    """Normalized configuration; equal iff the normalized JSON trees match."""

    def __init__(self, data: dict):
        _check_keys(data, "config", ("command", "out"),
                    ("seed", "threads", "solver") + tuple(
                        k for req, opt in _COMMAND_KEYS.values() for k in req + opt))
        command = data["command"]
        if command not in COMMANDS:
            raise ConfigError(f"config.command: unknown command {command!r}")
        required, optional = _COMMAND_KEYS[command]
        allowed = set(required) | set(optional) | {"command", "out", "seed",
                                                   "threads", "solver"}
        for key in data:
            if key not in allowed:
                raise ConfigError(f"config: key {key!r} not valid for command {command!r}")
        for key in required:
            if key not in data:
                raise ConfigError(f"config: missing required key {key!r} for {command!r}")
        if command == "solve" and "z" not in data and "z_grid" not in data:
            raise ConfigError("config: solve needs 'z' or 'z_grid'")
        if command == "density" and "eta" not in data and "mixture" not in data:
            raise ConfigError("config: density needs 'eta' or 'mixture'")
        self.data = data
        self.command = command
        self.out = data["out"]
        if not isinstance(self.out, str) or not self.out:
            raise ConfigError("config.out: expected a nonempty path string")
        self.seed = _real(data.get("seed", 0), "config.seed", int)
        threads = data.get("threads")
        self.threads = None if threads is None else _real(threads, "config.threads", int)
        self.solver = _solver_options(data.get("solver", {}), "config.solver")

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.data == other.data

    def canonical_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True)


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return RunConfig(data)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def atomic_write(path: str, payload) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    mode = "wb" if isinstance(payload, (bytes, bytearray)) else "w"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dyson-blocks.")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv(rows, header: str, comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(header)
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command runners
# ---------------------------------------------------------------------------

def _upper_z(value, path: str) -> complex:
    z = _complex(value, path)
    if not z.imag > 0:
        raise ConfigError(f"{path}: need Im z > 0, got {fmt(z.imag)}")
    return z


def _z_list(cfg: RunConfig):
    if "z" in cfg.data:
        return [_upper_z(cfg.data["z"], "config.z")]
    return [_upper_z(v, f"config.z_grid[{i}]")
            for i, v in enumerate(_list(cfg.data["z_grid"], "config.z_grid"))]


def _run_solve(cfg: RunConfig, workers):
    eta = _eta(cfg.data["eta"], "config.eta")
    zs = _z_list(cfg)
    rows = []
    for z, sol in zip(zs, dyson.solve_dyson(eta, zs, cfg.solver)):
        if not sol.converged:
            raise SolverFailure(
                f"solver failed at z={z!r} (residual {sol.residual:.3e})")
        g = sol.trace()
        rows.append((fmt(z.real), fmt(z.imag), fmt(g.real), fmt(g.imag)))
    return _csv(rows, "z_re,z_im,g_re,g_im")


def _run_density(cfg: RunConfig, workers):
    grid_obj = cfg.data["grid"]
    _check_keys(grid_obj, "config.grid", ("min", "max", "step"))
    lo, hi, step = (_real(grid_obj[k], f"config.grid.{k}")
                    for k in ("min", "max", "step"))
    if not (hi > lo and step > 0):
        raise ConfigError("config.grid: need max > min and step > 0")
    xs = np.arange(lo, hi + step / 2, step)
    eps = _real(cfg.data.get("eps", 1e-4), "config.eps")
    if not eps > 0:
        raise ConfigError(f"config.eps: need eps > 0, got {fmt(eps)}")
    if "eta" in cfg.data:
        source = _eta(cfg.data["eta"], "config.eta")
        label = f"eta form={cfg.data['eta'].get('form')}"
    else:
        mix = cfg.data["mixture"]
        _check_keys(mix, "config.mixture", ("weights", "variances"))
        w = _reals(mix["weights"], "config.mixture.weights")
        t = _reals(mix["variances"], "config.mixture.variances")
        try:
            dyson.mixture_cauchy(w, t, 1j)
        except ValueError as exc:
            raise ConfigError(f"config.mixture: {exc}") from exc
        source = lambda z: dyson.mixture_cauchy(w, t, z)
        label = f"mixture weights={w} variances={t}"
    try:
        xs, rho = dyson.stieltjes_density(source, xs, eps, cfg.solver)
    except dyson.DensityEvaluationError as exc:
        raise SolverFailure(str(exc)) from exc
    rows = [(fmt(x), fmt(r)) for x, r in zip(xs, rho)]
    return _csv(rows, "x,rho", comments=[label, f"eps={fmt(eps)}"])


def _run_sample(cfg: RunConfig, workers):
    spec = _model(cfg.data["model"], "config.model", cfg.seed)
    trial = _real(cfg.data.get("trial", 0), "config.trial", int)
    if trial < 0:
        raise ConfigError(f"config.trial: need trial >= 0, got {trial}")
    matrix = sampler.sample_matrix(spec, trial)
    if "spectrum_out" in cfg.data:
        from .linalg import hermitian_eigenvalues
        rows = [(str(i), fmt(v))
                for i, v in enumerate(hermitian_eigenvalues(matrix))]
        atomic_write(cfg.data["spectrum_out"],
                     _csv(rows, "index,eigenvalue",
                          comments=[f"model={spec.model} d={spec.d} "
                                    f"N={spec.N} trial={trial}"]))
    return sampler.matrix_to_bytes(matrix)


def _run_rate(cfg: RunConfig, workers):
    spec = _model(cfg.data["model"], "config.model", cfg.seed)
    z = _complex(cfg.data["z"], "config.z")
    threshold = experiments.rate_threshold(spec)
    if z.imag <= threshold:
        raise ConfigError(f"config.z: need Im z above the model threshold "
                          f"{threshold:.3g}, got {fmt(z.imag)}")
    try:
        report = experiments.rate_experiment(
            spec, z, _reals(cfg.data["N_grid"], "config.N_grid", int),
            _real(cfg.data["trials"], "config.trials", int), seed=cfg.seed,
            workers=workers, opts=cfg.solver)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    rows = [(str(n), fmt(e), fmt(s))
            for n, e, s in zip(report.N_grid, report.errors, report.stderrs)]
    body = _csv(rows, "N,error,stderr",
                comments=[f"status={report.status}",
                          f"points_used={report.points_used}"])
    slope = report.slope if report.slope is not None else float("nan")
    slope_se = report.slope_stderr if report.slope_stderr is not None else float("nan")
    return body + "slope,slope_stderr\n" + f"{fmt(slope)},{fmt(slope_se)}\n"


def _run_universality(cfg: RunConfig, workers):
    laws = cfg.data["laws"]
    if not isinstance(laws, list) or len(laws) != 2:
        raise ConfigError("config.laws: expected exactly two entry laws")
    spec = _model(cfg.data["model"], "config.model", cfg.seed)
    try:
        report = experiments.universality_experiment(
            spec, _law(laws[0], "config.laws[0]"), _law(laws[1], "config.laws[1]"),
            _complex(cfg.data["z"], "config.z"), _real(cfg.data["N"], "config.N", int),
            _real(cfg.data["trials"], "config.trials", int), seed=cfg.seed,
            workers=workers)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    row = (fmt(report.mean_a.real), fmt(report.mean_a.imag),
           fmt(report.mean_b.real), fmt(report.mean_b.imag),
           fmt(report.se_a), fmt(report.se_b),
           fmt(report.difference), fmt(report.combined_se))
    return _csv([row],
                "mean_a_re,mean_a_im,mean_b_re,mean_b_im,se_a,se_b,diff,combined_se")


def _run_circulant_ks(cfg: RunConfig, workers):
    d = _real(cfg.data["d"], "config.d", int)
    if d < 2:
        raise ConfigError(f"config.d: circulant-ks needs d >= 2, got {d}")
    try:
        report = experiments.circulant_ks_experiment(
            d, _reals(cfg.data["N_grid"], "config.N_grid", int),
            _real(cfg.data["trials"], "config.trials", int), seed=cfg.seed,
            workers=workers)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    rows = [(str(n), fmt(m), fmt(s))
            for n, m, s in zip(report.N_grid, report.mean_ks, report.stderr)]
    return _csv(rows, "N,mean_ks,stderr",
                comments=[f"d={report.d}",
                          f"weights={[fmt(w) for w in report.weights]}",
                          f"variances={[fmt(t) for t in report.variances]}"])


def _run_wishart(cfg: RunConfig, workers):
    tensor = _tensor(cfg.data["tensor"], "config.tensor")
    try:
        report = experiments.wishart_consistency_experiment(
            tensor, _complex(cfg.data["z"], "config.z"),
            _real(cfg.data["N"], "config.N", int),
            _real(cfg.data["trials"], "config.trials", int), seed=cfg.seed,
            opts=cfg.solver, workers=workers)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    except RuntimeError as exc:
        raise SolverFailure(str(exc)) from exc
    row = (fmt(report.max_identity_residual),
           fmt(report.solver_trace.real), fmt(report.solver_trace.imag),
           fmt(report.mc_mean.real), fmt(report.mc_mean.imag),
           fmt(report.mc_stderr))
    return _csv([row],
                "max_identity_residual,solver_re,solver_im,mc_re,mc_im,mc_stderr")


_RUNNERS = {
    "solve": _run_solve,
    "density": _run_density,
    "sample": _run_sample,
    "rate": _run_rate,
    "universality": _run_universality,
    "circulant-ks": _run_circulant_ks,
    "wishart": _run_wishart,
}


def _resolve_threads(cli_threads, cfg: RunConfig):
    if cli_threads is not None:
        return cli_threads
    if cfg.threads is not None:
        return cfg.threads
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV}: {env!r} is not an integer") from exc
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyson-blocks",
        description="Solve operator-valued Dyson equations and run "
                    "block random-matrix experiments from a JSON config.")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", help="override the config output path")
    parser.add_argument("--seed", type=int, help="override the config seed (u64)")
    parser.add_argument("--threads", type=int, help="worker thread cap")
    parser.add_argument("--print-config", action="store_true",
                        help="echo the parsed config as canonical JSON and exit")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            if not (0 <= args.seed < 2 ** 64):
                raise ConfigError("--seed must fit in 64 bits")
            cfg.seed = args.seed
        threads = _resolve_threads(args.threads, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.print_config:
        print(cfg.canonical_json())
        return EXIT_OK

    out_path = args.out or cfg.out
    try:
        payload = _RUNNERS[cfg.command](cfg, threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        atomic_write(out_path, payload)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

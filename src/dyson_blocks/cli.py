"""Command-line front end.

Reads a JSON config (nested key-value sections with brace/quote notation),
dispatches to the solver / sampler / experiment operations and writes
machine-readable outputs atomically (temp file + rename).

Each command is one row of ``_COMMANDS``: its runner, its required and
optional config keys and its own rules for some keys.  Each entry law, eta
form and model is one row of ``_LAWS``, ``_ETAS`` or ``_MODELS``: its
builder and its keys.  ``RunConfig`` parses the whole config through
``_object``, each key by its ``_FIELDS`` rule, before anything runs, so a
runner takes parsed values.  Runners raise; ``main`` alone turns an exception
into an exit code, which it returns and never raises as ``SystemExit``: 0
success, 2 config error (``ConfigError``, or a ``ValueError`` or
``MemoryError`` from the library, or a command line that ``_parse_flags``
refuses: then the usage and ``dyson-blocks: error: ...``), 3 solver
non-convergence (``dyson.SolverFailure``), 4 output I/O failure
(``OSError``).  ``-h``/``--help`` prints the help and returns 0.  The five
flags, their usage line and their help come from one table, ``_FLAGS``,
read with ``getopt``.  Numeric
CSV fields use shortest-roundtrip decimal formatting so reruns diff
bit-faithfully.  Complex numbers in configs are [re, im] pairs; matrices
are nested lists of numbers or pairs.  ``main`` first keeps the
process's heap resident across Monte Carlo trials (``_keep_heap_resident``).

See README.md for the full schema of every command.
"""

from __future__ import annotations

import ctypes
import getopt
import json
import os
import sys
import tempfile
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import dyson, experiments, sampler
from .eta import (CovarianceTensor, choi_map, eta_correlated_tensor,
                  eta_kronecker, flat_map, scalar_map)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

# the largest density grid: a d = 2 grid peaks at about 1.0 kB per point
# under tracemalloc (20 000 and 100 000 points) and grows the RSS by
# 1.2 kB per point, so this one holds about 1.2 GB and takes about 35 s on
# a 2-vCPU host.  The solver holds one d x d matrix per point, plus one
# window's sweep state, so a map of d > 2 gets the same d^2 entries:
# 4 DENSITY_MAX_POINTS / d^2 points
DENSITY_MAX_POINTS = 1_000_000

# mallopt parameters (malloc.h) and the values main sets: the mmap threshold
# is glibc's own ceiling for its dynamic threshold on 64-bit
# (DEFAULT_MMAP_THRESHOLD_MAX), and the trim threshold is twice that
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 2 ** 20
_TRIM_THRESHOLD = 64 * 2 ** 20


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key.

    Not a ValueError, so ``except ValueError`` clauses pass it on unchanged.
    """


def fmt(x) -> str:
    """Shortest-roundtrip decimal for a float (17 significant digits max)."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# schema-checked parsing
# ---------------------------------------------------------------------------

def _variant(obj, path: str, key: str, table: dict) -> str:
    """obj[key], checked to name a row of ``table``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    name = obj.get(key)
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{path}.{key}: expected one of {list(table)}, got {name!r}")
    return name


def _object(obj, path: str, build, required: tuple, optional: tuple = (),
            variant: tuple = (), rules=None):
    """build(**values) for the config object obj, which holds every required
    key and no other key but the optional ones and its ``variant`` key.  Keys
    parse in that order, not the file's, each by its rule in ``rules`` or else
    ``_FIELDS``; an omitted optional key takes the builder's default.  Of
    several unknown keys, the first in sorted order is named."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in sorted(obj):
        if key not in variant + required + optional:
            raise ConfigError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing required key {key!r}")
    values = {k: (rules or {}).get(k, _FIELDS[k])(obj[k], f"{path}.{k}")
              for k in required + optional if k in obj}
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build(obj, path: str, key: str, table: dict):
    """What the variant obj[key] builds: table[name] = (builder, required, optional)."""
    build, required, optional = table[_variant(obj, path, key, table)]
    return _object(obj, path, build, required, optional, variant=(key,))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _real(value, path: str, kind=float):
    """A JSON number as ``kind`` (float, or int for integral values)."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not _is_number(value) or (kind is int and isinstance(value, float)):
        raise ConfigError(f"{path}: expected {'an integer' if kind is int else 'a number'}")
    try:
        return kind(value)
    except OverflowError:                # a JSON integer beyond the float range
        raise ConfigError(f"{path}: expected a number within the float range") from None


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    return value


def _reals(value, path: str, kind=float) -> list:
    return [_real(v, f"{path}[{i}]", kind) for i, v in enumerate(_list(value, path))]


def _complex(value, path: str) -> complex:
    try:
        if _is_number(value):
            z = complex(value)
        elif isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
            z = complex(value[0], value[1])
        else:
            raise ConfigError(f"{path}: expected a number or [re, im] pair")
    except OverflowError:                # a JSON integer beyond the float range
        raise ConfigError(f"{path}: expected numbers within the float range") from None
    if not np.isfinite(z):
        raise ConfigError(f"{path}: expected finite numbers, got {value!r}")
    return z


def _upper_z(value, path: str) -> complex:
    z = _complex(value, path)
    if not z.imag > 0:
        raise ConfigError(f"{path}: need Im z > 0, got {fmt(z.imag)}")
    return z


def _wishart_z(value, path: str) -> complex:
    z = _upper_z(value, path)
    if not (z * z).imag > 0:
        raise ConfigError(f"{path}: need Im z^2 > 0, got {fmt((z * z).imag)}")
    return z


def _z_grid(value, path: str) -> list:
    if not _list(value, path):
        raise ConfigError(f"{path}: need at least one point")
    return [_upper_z(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _matrix(value, path: str) -> np.ndarray:
    try:
        rows = [[_complex(v, path) for v in row] for row in value]
        return np.array(rows, dtype=np.complex128)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(
            f"{path}: expected a matrix of finite numbers or [re, im] pairs") from exc


def _matrices(value, path: str) -> tuple:
    return tuple(_matrix(m, path) for m in _list(value, path))


def _tensor(value, path: str) -> CovarianceTensor:
    try:
        return CovarianceTensor(np.asarray(
            [[[[_complex(v, path) for v in kk] for kk in jj] for jj in ii]
             for ii in value], dtype=np.complex128))
    except TypeError as exc:
        raise ConfigError(f"{path}: expected a d x d x d x d nested list") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _u64(value, path: str, name: str) -> int:
    n = _real(value, path, int)
    if not 0 <= n < 2 ** 64:
        raise ConfigError(f"{path}: need 0 <= {name} < 2^64, got {n}")
    return n


def _at_least(value, path: str, name: str, least: int) -> int:
    n = _real(value, path, int)
    if n < least:
        raise ConfigError(f"{path}: need {name} >= {least}, got {n}")
    return n


def _n_grid(value, path: str, least: int = 1) -> list:
    try:
        return experiments.check_n_grid(_reals(value, path, int), least)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _out(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a nonempty path string")
    return value


def _eps(value, path: str) -> float:
    eps = _real(value, path)
    if not 0 < eps < np.inf:
        raise ConfigError(f"{path}: need a finite eps > 0, got {fmt(eps)}")
    return eps


def _laws(value, path: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected exactly two entry laws")
    return tuple(_law(v, f"{path}[{i}]") for i, v in enumerate(value))


def _completely_positive(eta):
    if not eta.is_completely_positive():
        raise ValueError("the Choi matrix is not Hermitian positive semidefinite, "
                         "so the map is not completely positive")
    return eta


def _density_grid(min: float, max: float, step: float) -> np.ndarray:
    """np.arange(min, max + step/2, step), refused before it is built when
    it is not finite or holds more than ``DENSITY_MAX_POINTS`` points."""
    if not (np.isfinite([min, max, step]).all() and max > min and step > 0):
        raise ValueError("need finite max > min and step > 0")
    points = np.ceil((max + step / 2 - min) / step)      # np.arange's length
    if not points <= DENSITY_MAX_POINTS:
        raise ValueError(f"{points:.15g} points, more than the "
                         f"{DENSITY_MAX_POINTS} that density solves")
    return np.arange(min, max + step / 2, step)


# a density's source is its eta or its mixture, each with its output label
def _density_eta(value, path: str):
    return _eta(value, path), f"eta form={value['form']}"


def _mixture(weights: list, variances: list):
    dyson.mixture_cauchy(weights, variances, 1j)       # checks both lists
    return (lambda z: dyson.mixture_cauchy(weights, variances, z),
            f"mixture weights={weights} variances={variances}")


def _circulant_d(value, path: str) -> int:
    d = _real(value, path, int)
    if d < 2:
        raise ConfigError(f"{path}: circulant-ks needs d >= 2, got {d}")
    return d


# name: (builder, required keys, optional keys) of each variant of a config
# object: entry laws, eta forms and models
_LAWS = {
    "complex_gaussian": (sampler.ComplexGaussian, (), ("variance",)),
    "real_gaussian": (sampler.RealGaussian, (), ("variance",)),
    "rademacher": (sampler.Rademacher, (), ()),
    "two_point": (sampler.TwoPoint, ("a", "b", "p"), ()),
    "permutation_pool": (sampler.PermutationPool, ("values",), ()),
}
_ETAS = {
    "scalar": (scalar_map, ("d", "t"), ()),
    "flat": (flat_map, ("d",), ("c",)),
    "kronecker": (eta_kronecker, ("betas", "sigma_l"), ()),
    "tensor": (lambda sigma: eta_correlated_tensor(sigma), ("sigma",), ()),
    # only a Choi matrix can fail complete positivity, so only it is checked:
    # the check's first eigensolve faults in LAPACK pages in a fresh process
    "choi": (lambda matrix: _completely_positive(choi_map(matrix)), ("matrix",), ()),
}
# a model's seed is the command's: sample sets it, the experiments derive theirs
_MODELS = {name: (partial(sampler.ModelSpec, model=name), ("d", "N") + required, optional)
           for name, (_, _, required, optional) in sampler._MODELS.items()}
_law = partial(_build, key="variant", table=_LAWS)
_eta = partial(_build, key="form", table=_ETAS)
_model = partial(_build, key="model", table=_MODELS)

# the rule of every config key at every depth, unless a command row has its own
_FIELDS = {
    **dict.fromkeys(("d", "N", "max_iter"), partial(_real, kind=int)),
    **dict.fromkeys(("t", "c", "variance", "a", "b", "p", "tol", "min", "max",
                     "step"), _real),
    **dict.fromkeys(("values", "weights", "variances"), _reals),
    "betas": _matrices, "sigma_l": _matrix, "matrix": _matrix,
    "sigma": _tensor, "tensor": _tensor,
    "law": _law, "laws": _laws, "eta": _eta, "model": _model,
    "grid": partial(_object, build=_density_grid, required=("min", "max", "step")),
    "mixture": partial(_object, build=_mixture, required=("weights", "variances")),
    "solver": partial(_object, build=dyson.SolverOptions, required=(),
                      optional=("tol", "max_iter")),
    "out": _out, "spectrum_out": _out, "eps": _eps,
    "seed": partial(_u64, name="seed"), "trial": partial(_u64, name="trial"),
    "trials": partial(_at_least, name="trials", least=2),
    "z": _complex, "z_grid": _z_grid, "N_grid": _n_grid,
}


class RunConfig:
    """A config parsed once, whole: ``values`` holds each top-level key's
    parsed value.  Equal iff the normalized JSON trees ``data`` match."""

    def __init__(self, data: dict):
        command = _variant(data, "config", "command", _COMMANDS)
        if command in _ONE_OF:
            a, b = _ONE_OF[command]
            if a not in data and b not in data:
                raise ConfigError(f"config: {command} needs {a!r} or {b!r}")
            if a in data and b in data:
                raise ConfigError(f"config: {command} takes {a!r} or {b!r}, not both")
        _, required, optional, rules = _COMMANDS[command]
        self.data, self.command = data, command
        self.values = _object(data, "config", dict, ("out",) + required,
                              ("seed",) + optional, ("command",), rules)

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.data == other.data

    def canonical_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True)


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
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

def _run_solve(eta, z=None, z_grid=None, solver=None, seed=0):
    zs = [z] if z_grid is None else z_grid
    gs = dyson.certified_traces(eta, zs, solver).tolist()
    rows = [(fmt(z.real), fmt(z.imag), fmt(g.real), fmt(g.imag))
            for z, g in zip(zs, gs)]
    return _csv(rows, "z_re,z_im,g_re,g_im")


def _run_density(grid, eta=None, mixture=None, eps=1e-4, solver=None, seed=0):
    source, label = eta or mixture
    if eta and len(grid) * source.d ** 2 > 4 * DENSITY_MAX_POINTS:
        raise ConfigError(f"config.grid: {len(grid)} points, more than the "
                          f"{4 * DENSITY_MAX_POINTS // source.d ** 2} that "
                          f"density solves at d = {source.d}")
    xs, rho = dyson.stieltjes_density(source, grid, eps, solver)
    rows = [(fmt(x), fmt(r)) for x, r in zip(xs, rho)]
    return _csv(rows, "x,rho", comments=[label, f"eps={fmt(eps)}"])


def _run_sample(model, trial=0, spectrum_out=None, seed=0):
    spec = replace(model, seed=seed)
    try:
        matrix = sampler.sample_matrix(spec, trial)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"config.model: {exc}") from exc
    if spectrum_out is not None:
        from .linalg import hermitian_eigenvalues
        rows = [(str(i), fmt(v))
                for i, v in enumerate(hermitian_eigenvalues(matrix))]
        atomic_write(spectrum_out,
                     _csv(rows, "index,eigenvalue",
                          comments=[f"model={spec.model} d={spec.d} "
                                    f"N={spec.N} trial={trial}"]))
    return sampler.matrix_to_bytes(matrix)


def _run_rate(model, z, N_grid, trials, solver=None, seed=0):
    if isinstance(model.law, sampler.PermutationPool):
        # a pool's size is the entry draws of one N, and N_grid holds >= 3
        raise ConfigError("config.model.law: rate draws at every N in N_grid, "
                          "but a permutation_pool fits one N only")
    threshold = experiments.rate_threshold(model)
    if z.imag <= threshold:
        raise ConfigError(f"config.z: need Im z above the model threshold "
                          f"{threshold:.3g}, got {fmt(z.imag)}")
    report = experiments.rate_experiment(model, z, N_grid, trials, seed=seed,
                                         opts=solver)
    rows = [(str(n), fmt(e), fmt(s))
            for n, e, s in zip(report.N_grid, report.errors, report.stderrs)]
    body = _csv(rows, "N,error,stderr",
                comments=[f"status={report.status}",
                          f"points_used={report.points_used}"])
    slope = report.slope if report.slope is not None else float("nan")
    slope_se = report.slope_stderr if report.slope_stderr is not None else float("nan")
    return body + "slope,slope_stderr\n" + f"{fmt(slope)},{fmt(slope_se)}\n"


def _run_universality(model, laws, z, N, trials, seed=0):
    report = experiments.universality_experiment(model, *laws, z, N, trials,
                                                 seed=seed)
    row = (fmt(report.mean_a.real), fmt(report.mean_a.imag),
           fmt(report.mean_b.real), fmt(report.mean_b.imag),
           fmt(report.se_a), fmt(report.se_b),
           fmt(report.difference), fmt(report.combined_se))
    return _csv([row],
                "mean_a_re,mean_a_im,mean_b_re,mean_b_im,se_a,se_b,diff,combined_se")


def _run_circulant_ks(d, N_grid, trials, seed=0):
    report = experiments.circulant_ks_experiment(d, N_grid, trials, seed=seed)
    rows = [(str(n), fmt(m), fmt(s))
            for n, m, s in zip(report.N_grid, report.mean_ks, report.stderr)]
    return _csv(rows, "N,mean_ks,stderr",
                comments=[f"d={report.d}",
                          f"weights={[fmt(w) for w in report.weights]}",
                          f"variances={[fmt(t) for t in report.variances]}"])


def _run_wishart(tensor, z, N, trials, solver=None, seed=0):
    report = experiments.wishart_consistency_experiment(
        tensor, z, N, trials, seed=seed, opts=solver)
    row = (fmt(report.max_identity_residual),
           fmt(report.solver_trace.real), fmt(report.solver_trace.imag),
           fmt(report.mc_mean.real), fmt(report.mc_mean.imag),
           fmt(report.mc_stderr))
    return _csv([row],
                "max_identity_residual,solver_re,solver_im,mc_re,mc_im,mc_stderr")


_SIZE = {"N": partial(_at_least, name="N", least=1)}
# name: (runner, required keys, optional keys, its own rules for some keys);
# every command also takes "out" (required; _run writes the runner's payload
# there) and "seed" (optional; solve and density draw nothing and ignore it)
_COMMANDS = {
    "solve": (_run_solve, ("eta",), ("z", "z_grid", "solver"), {"z": _upper_z}),
    "density": (_run_density, ("grid",), ("eta", "mixture", "eps", "solver"),
                {"eta": _density_eta}),
    "sample": (_run_sample, ("model",), ("trial", "spectrum_out"), {}),
    "rate": (_run_rate, ("model", "z", "N_grid", "trials"), ("solver",),
             {"N_grid": partial(_n_grid, least=experiments.MIN_FIT_POINTS)}),
    "universality": (_run_universality, ("model", "laws", "z", "N", "trials"), (),
                     _SIZE),
    "circulant-ks": (_run_circulant_ks, ("d", "N_grid", "trials"), (),
                     {"d": _circulant_d}),
    "wishart": (_run_wishart, ("tensor", "z", "N", "trials"), ("solver",),
                {**_SIZE, "z": _wishart_z}),
}
# command: its two optional keys of which a config gives exactly one
_ONE_OF = {"solve": ("z", "z_grid"), "density": ("eta", "mixture")}


def _run(args) -> int:
    cfg = parse_config(args.config)
    values = cfg.values
    # --seed and --out are written into the config, so --print-config echoes
    # them; --threads is checked and otherwise unused, since trials run serially
    if args.seed is not None:
        values["seed"] = cfg.data["seed"] = _FIELDS["seed"](args.seed, "--seed")
    if args.threads is not None:
        _at_least(args.threads, "--threads", "threads", 1)
    if args.out is not None:
        values["out"] = cfg.data["out"] = _FIELDS["out"](args.out, "--out")
    if args.print_config:
        print(cfg.canonical_json())
        return EXIT_OK
    atomic_write(values.pop("out"), _COMMANDS[cfg.command][0](**values))
    return EXIT_OK


_DESCRIPTION = ("Solve operator-valued Dyson equations and run block random-matrix "
                "experiments\nfrom a JSON config.")
# flag: (metavar, type, help); a flag without a metavar is a switch, and
# --config alone is required
_FLAGS = {
    "config": ("CONFIG", str, "path to the JSON config"),
    "out": ("OUT", str, "override the config output path"),
    "seed": ("SEED", int, "override the config seed (u64)"),
    "threads": ("THREADS", int, "accepted and checked (>= 1); trials run serially"),
    "print-config": (None, bool, "echo the parsed config as canonical JSON and exit"),
}


class _UsageError(Exception):
    """A command line that names no run; the message says why."""


def _invocation(name: str) -> str:
    metavar = _FLAGS[name][0]
    return f"--{name} {metavar}" if metavar else f"--{name}"


def _usage() -> str:
    """The usage line, wrapped to 78 columns."""
    lines = ["usage: dyson-blocks"]
    for word in ["[-h]"] + [_invocation(name) if name == "config"
                            else f"[{_invocation(name)}]" for name in _FLAGS]:
        if len(lines[-1]) + 1 + len(word) > 78:
            lines.append(" " * 19)
        lines[-1] += " " + word
    return "\n".join(lines)


def _help() -> str:
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(_invocation(name), text) for name, (_, _, text) in _FLAGS.items()]
    width = max(len(invocation) for invocation, _ in rows)
    return "\n".join([_usage(), "", _DESCRIPTION, "", "options:"]
                     + [f"  {invocation:<{width}}  {text}" for invocation, text in rows])


def _parse_flags(argv):
    """The flags of ``argv`` by name (``print-config`` as ``print_config``),
    each None (False for the switch) when not given, or None if ``argv``
    asks for the help.  A flag's value is the argument after it or after its
    ``=``; a unique prefix names a flag, and a later flag overrides an
    earlier one."""
    try:
        opts, positional = getopt.gnu_getopt(
            argv, "h", ["help"] + [name if metavar is None else f"{name}="
                                   for name, (metavar, _, _) in _FLAGS.items()])
    except getopt.GetoptError as exc:
        raise _UsageError(exc.msg) from None
    values = {name: False if kind is bool else None
              for name, (_, kind, _) in _FLAGS.items()}
    for flag, value in opts:
        if flag in ("-h", "--help"):
            return None
        name = flag[2:]
        kind = _FLAGS[name][1]
        try:
            values[name] = True if kind is bool else kind(value)
        except ValueError:
            raise _UsageError(f"argument {flag}: invalid int value: {value!r}") from None
    if values["config"] is None:
        raise _UsageError("the following arguments are required: --config")
    if positional:
        raise _UsageError(f"unrecognized arguments: {' '.join(positional)}")
    return SimpleNamespace(**{name.replace("-", "_"): value
                              for name, value in values.items()})


def _keep_heap_resident() -> bool:
    """Keep freed Monte Carlo arrays in this process's heap.

    glibc serves each allocation above its mmap threshold (128 KiB at first)
    from a fresh mapping and trims the heap top above its trim threshold, so
    every trial's 1-4 MiB arrays go back to the kernel when freed and the next
    trial faults them in again.  Raising both thresholds keeps those pages
    mapped for the rest of the process.  Returns whether both were set; where
    there is no ``mallopt`` (not glibc) or it refuses a value, the allocator
    keeps its defaults.  Only ``main`` calls this, so library callers keep
    the platform's policy.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) != 0
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) != 0)


def main(argv=None) -> int:
    _keep_heap_resident()
    try:
        args = _parse_flags(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_help())
            return EXIT_OK
        return _run(args)
    except _UsageError as exc:
        print(f"{_usage()}\ndyson-blocks: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, MemoryError) as exc:
        print(f"config error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except dyson.SolverFailure as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

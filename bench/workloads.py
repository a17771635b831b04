"""The benchmark's workloads: CLI configs and independent output checks.

Each workload is one `dyson-blocks` config, scaled down from the pinned
acceptance configs so that one CLI run takes about a second while keeping
the mix of layers the full config exercises (see README.md).  The checks
never call the library: the closed forms are written out here, and the
statistical tolerances are wide enough that a fresh seed does not fail by
chance (calibration notes next to each constant).
"""

from __future__ import annotations

import cmath
import math

# Monte Carlo standard errors come from few trials, so each check uses
# max(SE, floor): the floor is half the per-trial spread measured on the
# same configuration, which keeps a low SE estimate from failing a run.
SE_FACTOR = 6.0
# rate: per-trial spread of the empirical Cauchy mean at z = 3i is about
# 0.049 / N (40 seeds x 10 trials); finite-size bias is about 0.026 / N.
RATE_TRIAL_SD_N = 0.049 / 2
RATE_BIAS_N = 2 * 0.026
# wishart: per-trial spread at N = 400, z^2 = 4 + 0.01i is 0.03-0.04
# (300 trials) with a heavy tail from eigenvalues near the edge at 4; the
# Monte Carlo mean sits 0.003 from the limit (finite-N bias).
WISHART_TRIAL_SD = 0.04 / 2
WISHART_BIAS = 0.01
CLOSED_FORM_TOL = 1e-9
SCHUR_TOL = 1e-9
KS_FINAL_MAX = 0.08


class CheckError(ValueError):
    """An output disagrees with its reference."""


def semicircle_cauchy(t: float, z: complex) -> complex:
    """Cauchy transform of the variance-t semicircle: root with Im < 0."""
    s = cmath.sqrt(z * z - 4 * t)
    g = (z - s) / (2 * t)
    return g if g.imag < 0 else (z + s) / (2 * t)


def marchenko_pastur_cauchy(w: complex) -> complex:
    """Cauchy transform of Marchenko-Pastur (ratio 1, variance 1): root with Im < 0."""
    s = cmath.sqrt(w * w - 4 * w)
    g = (w - s) / (2 * w)
    return g if g.imag < 0 else (w + s) / (2 * w)


WISHART_Z = cmath.sqrt(4 + 0.01j)


def config(workload: str, out: str, smoke: bool = False) -> dict:
    """The CLI config of a workload (the seed is passed with --seed)."""
    if workload == "density":
        step = 0.9 if smoke else 0.1
        return {"command": "density", "out": out,
                "eta": {"form": "flat", "d": 2, "c": 2.0},
                "grid": {"min": -2.7, "max": 2.7, "step": step}, "eps": 1e-4}
    if workload == "rate-mc":
        return {"command": "rate", "out": out,
                "model": {"model": "hermitized_iid", "d": 2, "N": 32,
                          "law": {"variant": "complex_gaussian"}},
                "z": [0.0, 3.0],
                "N_grid": [8, 16, 32] if smoke else [32, 64, 128, 256],
                "trials": 3 if smoke else 10}
    if workload == "wishart-threads":
        return {"command": "wishart", "out": out, "tensor": [[[[1.0]]]],
                "z": [WISHART_Z.real, WISHART_Z.imag],
                "N": 40 if smoke else 400, "trials": 2 if smoke else 4}
    if workload == "circulant-ks":
        return {"command": "circulant-ks", "out": out, "d": 3,
                "N_grid": [20, 40, 80] if smoke else [50, 100, 200],
                "trials": 2 if smoke else 8}
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# checks: each takes the config and the output bytes, raises CheckError
# ---------------------------------------------------------------------------

def _rows(text: str):
    """(comment lines, header, data rows) of a CSV written by the CLI."""
    lines = text.splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        raise CheckError("no CSV header")
    return comments, body[0], [ln.split(",") for ln in body[1:]]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_density(cfg: dict, text: str) -> str:
    _, header, rows = _rows(text)
    _require(header == "x,rho", f"header {header!r}")
    grid = cfg["grid"]
    n = int(round((grid["max"] - grid["min"]) / grid["step"])) + 1
    _require(len(rows) == n, f"{len(rows)} rows, expected {n}")
    t = cfg["eta"]["c"]
    worst = 0.0
    for i, (x, rho) in enumerate(rows):
        x, rho = float(x), float(rho)
        _require(abs(x - (grid["min"] + i * grid["step"])) < 1e-9, f"grid point {x}")
        exact = max(-semicircle_cauchy(t, complex(x, cfg["eps"])).imag / math.pi, 0.0)
        worst = max(worst, abs(rho - exact))
    _require(worst <= CLOSED_FORM_TOL, f"max |rho - semicircle| = {worst:.3e}")
    return f"max |rho - semicircle| = {worst:.2e}"


def check_rate(cfg: dict, text: str) -> str:
    comments, header, rows = _rows(text)
    _require(header == "N,error,stderr", f"header {header!r}")
    data = [r for r in rows if len(r) == 3]
    _require([int(r[0]) for r in data] == cfg["N_grid"], "N column")
    trials = cfg["trials"]
    worst = 0.0
    for n, err, se in ((int(a), float(b), float(c)) for a, b, c in data):
        _require(se > 0, f"N={n}: stderr {se}")
        floor = RATE_TRIAL_SD_N / (n * math.sqrt(trials))
        tol = SE_FACTOR * max(se, floor) + RATE_BIAS_N / n
        _require(err <= tol, f"N={n}: error {err:.3e} > {tol:.3e}")
        worst = max(worst, err / tol)
    _require(any(c.startswith("status=") for c in comments), "no status line")
    return f"worst error / tolerance = {worst:.2f}"


def check_wishart(cfg: dict, text: str) -> str:
    _, header, rows = _rows(text)
    _require(header == "max_identity_residual,solver_re,solver_im,mc_re,mc_im,mc_stderr",
             f"header {header!r}")
    _require(len(rows) == 1, f"{len(rows)} rows")
    resid, s_re, s_im, m_re, m_im, se = map(float, rows[0])
    z = complex(*cfg["z"])
    exact = marchenko_pastur_cauchy(z * z)
    solver, mc = complex(s_re, s_im), complex(m_re, m_im)
    _require(abs(solver - exact) <= CLOSED_FORM_TOL,
             f"|solver - Marchenko-Pastur| = {abs(solver - exact):.3e}")
    _require(resid <= SCHUR_TOL, f"Schur residual {resid:.3e}")
    tol = (SE_FACTOR * max(se, WISHART_TRIAL_SD / math.sqrt(cfg["trials"]))
           + WISHART_BIAS)
    _require(abs(solver - mc) <= tol, f"|solver - MC| = {abs(solver - mc):.3e} > {tol:.3e}")
    return (f"|solver - MP| = {abs(solver - exact):.2e}, Schur {resid:.2e}, "
            f"|solver - MC| = {abs(solver - mc):.2e} <= {tol:.2e}")


def check_circulant_ks(cfg: dict, text: str) -> str:
    comments, header, rows = _rows(text)
    _require(header == "N,mean_ks,stderr", f"header {header!r}")
    d = cfg["d"]
    # limit law of the d = 3 circulant: 2/3 at variance 2/3, 1/3 at 5/3
    _require(d == 3, "reference mixture is written for d = 3")
    _require(f"weights={[repr(2 / 3), repr(1 / 3)]}" in comments, "mixture weights")
    _require(f"variances={[repr(2 / 3), repr(5 / 3)]}" in comments, "mixture variances")
    _require([int(r[0]) for r in rows] == cfg["N_grid"], "N column")
    ks = [float(r[1]) for r in rows]
    se = [float(r[2]) for r in rows]
    for i in range(len(ks) - 1):
        _require(ks[i + 1] <= ks[i] + se[i],
                 f"KS not decreasing: {ks[i + 1]:.4f} > {ks[i]:.4f} + {se[i]:.4f}")
    _require(0 < ks[-1] <= KS_FINAL_MAX, f"final KS {ks[-1]:.4f}")
    return f"mean KS {[round(k, 4) for k in ks]}"


CHECKS = {
    "density": check_density,
    "rate-mc": check_rate,
    "wishart-threads": check_wishart,
    "circulant-ks": check_circulant_ks,
}
WORKLOADS = tuple(CHECKS)
# Monte Carlo workloads take the benchmark seed; density is deterministic.
SEEDED = ("rate-mc", "wishart-threads", "circulant-ks")
# wishart-threads runs with --threads nproc, the others with the default
THREADED = ("wishart-threads",)

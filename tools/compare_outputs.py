"""Compare the CLI's outputs of two source trees, byte for byte.

    python tools/compare_outputs.py OLD_SRC NEW_SRC
    python tools/compare_outputs.py --write-digests PATH [SRC]

OLD_SRC and NEW_SRC are directories holding a ``dyson_blocks`` package,
such as the ``src`` directories of two checkouts.  Every run of ``RUNS``
is made at seeds 1-3 against both trees, each in a fresh
``python -m dyson_blocks.cli`` process and a fresh working directory, so
output paths and messages read the same on both sides.  The exit code,
stdout, stderr and the bytes of every file a run writes are compared,
and each difference is printed, with the largest relative change of the
numbers in each differing stdout, stderr or file (``relative_change``), or
a note that its text differs apart from its numbers.  The script exits 1
if any run differs.

``--write-digests`` makes the same runs against one tree (SRC, by default
the ``src`` directory next to this one) and writes the ``digest`` of each,
with the numpy and BLAS versions, as JSON to PATH.  The committed copy,
``tests/data/cli_digests.json``, is checked in tier-1 by
``tests/test_cli_digests.py``, which makes every run in process through
``run_in_process``; a change that moves an output regenerates the file.

``RUNS`` covers every command, every entry law, eta form and model,
config errors (an unknown variant, a stray key, a missing key and an
invalid value for each of the three variant tables; ``z`` with
``z_grid``, an empty ``z_grid``, ``eta`` with ``mixture``, and
``density`` grids too fine for an array, too large for memory and above
the point cap), solver failures (``max_iter`` on ``solve``, ``density``,
``rate`` and ``wishart``, and a Kraus-rank-1 map on ``solve`` and on a
``density`` grid that fails only at its interior point x = 0), a
Kraus-rank-1 ``solve`` whose point x = 0 certifies only on the solver's
d^2 x d^2 pass, solves at d = 3 through both spectral edges and a
d = 3 Wishart tensor and correlated-blocks sample, a d = 3 Kronecker ``rate`` with a
correlated ``sigma_l``, a ``rate`` whose standard errors are all 0,
circulant DFT blocks at odd and even d with complex, real and
Rademacher entries, a ``rate`` at n = 512 and a ``universality`` at
n = 256 (the sizes at which the resolvent trace's ``np.dot`` runs
threaded unless OpenBLAS is held at one thread), and the Monte Carlo
commands at several ``--threads`` values.  ``--threads`` is checked and otherwise unused;
``DYSON_BLOCKS_THREADS`` is set on two runs, though no command reads it.
A ``threads`` key, and a ``solver`` key on a command that never solves,
are unknown keys; the ``--print-config`` echo carries ``--seed`` and
``--out`` but not ``--threads``, and refuses a config with a value that
fails its key's rule, as the run does (``wishart``'s ``z`` rule among
them).  Two unknown keys are named the same way in either file order.  A
``sample`` too large to allocate exits 2, and so does an ``eta`` whose
Choi matrix, ``sigma_l`` or tensor is not Hermitian PSD at entries of
1e200, whose squares overflow a float.  The tolerances are relative: a
``wishart`` tensor whose imaginary part is 1e-17 of it and a
``universality`` two-point law at a scale of 1e8 whose mean rounds to
-7.45e-9 both run, while a mean of -0.2 at that scale is refused.  The
command line is covered too: abbreviated and ``=`` forms of the flags, a
flag given twice, ``--seed -1``, each form the flag parse refuses, and
``-h`` and ``--help`` (once with ``COLUMNS=120``); a run whose config is
None passes no ``--config``.  The configs are small: the whole set takes
about 2 min on 2 cores for both trees.  ``compare`` takes any other list
of runs when imported.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from unittest import mock

SEEDS = (1, 2, 3)

TENSOR = [[[[1.0, 0.3], [0.3, 0.5]], [[0.3, 0.2], [0.2, 0.4]]],
          [[[0.3, 0.2], [0.2, 0.4]], [[0.5, 0.4], [0.4, 1.0]]]]
DIAGONAL = [[1.0, 0.0], [0.0, 1.0]]
BETAS = [DIAGONAL, [[0.0, 1.0], [1.0, 0.0]]]
WISHART_Z = [math.sqrt(2.0), math.sqrt(2.0)]        # z^2 = 4i
HERMITIZED = {"model": "hermitized_iid", "d": 1, "N": 8,
              "law": {"variant": "rademacher"}}
RATE = {"command": "rate", "model": HERMITIZED, "z": [0.0, 3.0],
        "N_grid": [8, 16, 32], "trials": 8}
SCALAR = {"form": "scalar", "d": 1, "t": 1.0}
NOT_CP_CHOI = [[1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
               [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
# the Choi matrix of eta(B) = a B a^T with a = u v^T, u = (1, 0.5),
# v = (0.3, -1): Kraus rank 1, so points near x = 0 at small Im z fail
KRAUS_RANK_ONE_CHOI = [[0.09, 0.045, -0.3, -0.15], [0.045, 0.0225, -0.15, -0.075],
                       [-0.3, -0.15, 1.0, 0.5], [-0.15, -0.075, 0.5, 0.25]]
# betas I and the symmetric cyclic shift at d = 3; with sigma_l = I/4 the
# support is about [-3.1, 3.1]
SHIFT3 = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
KRONECKER3 = {"form": "kronecker", "betas": [[[float(i == j) for j in range(3)]
                                              for i in range(3)], SHIFT3],
              "sigma_l": [[0.25, 0.0], [0.0, 0.25]]}


def _shift(a: int, b: int) -> bool:
    return (a + 1) % 3 == b


# a d = 3 covariance tensor: I/3 on the pairs (i,j;k,l), plus a rank-one
# and a cyclic-shift term, each with the symmetry sigma(i,j;k,l) =
# conj(sigma(k,l;i,j)) and together positive semidefinite
TENSOR3 = [[[[(i == k and j == l) / 3 + (i == j and k == l) / 6
              + 0.1 * ((_shift(i, k) and _shift(j, l)) or (_shift(k, i) and _shift(l, j)))
              for l in range(3)] for k in range(3)] for j in range(3)] for i in range(3)]


def sample(law=None, **model):
    """A sample run of a d = 1, N = 3 hermitized_iid model (9 entry draws)."""
    model = dict(HERMITIZED, **{"N": 3, **model})
    return {"command": "sample", "model": dict(model, law=law) if law else model}


def solve(eta):
    return {"command": "solve", "eta": eta, "z": [0.3, 0.5]}


# (name, config, extra argv, extra environment); "out" is added per run
RUNS = [
    ("solve", {"command": "solve", "eta": {"form": "flat", "d": 2, "c": 1.0},
               "z_grid": [[0.0, 1.0], [0.5, 0.1], [-2.5, 0.01]]}, [], {}),
    ("solve-kronecker", {"command": "solve",
                         "eta": {"form": "kronecker", "betas": BETAS,
                                 "sigma_l": DIAGONAL}, "z": [0.3, 0.5]}, [], {}),
    ("solve-fails", {"command": "solve", "eta": {"form": "scalar", "d": 1, "t": 1.0},
                     "z": [0.0, 1e-7], "solver": {"max_iter": 5}}, [], {}),
    ("density", {"command": "density", "eta": {"form": "choi", "matrix": [
        [1.0, 0.0, 0.0, 0.5], [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.0], [0.5, 0.0, 0.0, 1.0]]},
        "grid": {"min": -2.5, "max": 2.5, "step": 0.25}, "eps": 1e-3}, [], {}),
    # d = 3 through both edges at eps 1e-6: many rejected heights
    ("density-kronecker-d3", {"command": "density", "eta": KRONECKER3,
                              "grid": {"min": -3.5, "max": 3.5, "step": 0.1},
                              "eps": 1e-6}, [], {}),
    # the points before z = 1e-5i certify; that one fails and exits 3
    ("solve-kraus-rank-1-fails", {"command": "solve",
                                  "eta": {"form": "choi", "matrix": KRAUS_RANK_ONE_CHOI},
                                  "z_grid": [[1.0, 0.1], [0.0, 0.1], [0.0, 1e-3],
                                             [0.0, 1e-5], [0.5, 1e-5]]}, [], {}),
    # every point certifies; x = 0 only on the driver's d^2 x d^2 pass
    ("solve-kraus-rank-1-full-pass", {"command": "solve",
                                      "eta": {"form": "choi", "matrix": KRAUS_RANK_ONE_CHOI},
                                      "z_grid": [[0.0, 1e-3], [0.5, 1e-3], [0.0, 1e-2]]},
     [], {}),
    # only the interior point x = 0 fails: the density path's first failure
    ("density-kraus-rank-1-fails", {"command": "density",
                                    "eta": {"form": "choi", "matrix": KRAUS_RANK_ONE_CHOI},
                                    "grid": {"min": -0.5, "max": 0.5, "step": 0.25},
                                    "eps": 1e-5}, [], {}),
    ("density-mixture", {"command": "density",
                         "mixture": {"weights": [0.5, 0.5], "variances": [1.0, 2.0]},
                         "grid": {"min": -3.0, "max": 3.0, "step": 0.5}}, [], {}),
    ("sample-hermitized", {"command": "sample",
                           "model": dict(HERMITIZED, d=2, N=5),
                           "spectrum_out": "spectrum.csv"}, [], {}),
    ("sample-wigner", {"command": "sample",
                       "model": {"model": "wigner_blocks", "d": 2, "N": 6,
                                 "law": {"variant": "complex_gaussian"}},
                       "trial": 3}, ["--threads", "3"], {}),
    ("sample-kronecker", {"command": "sample",
                          "model": {"model": "kronecker", "d": 2, "N": 4,
                                    "betas": BETAS, "sigma_l": DIAGONAL}}, [], {}),
    ("sample-correlated", {"command": "sample",
                           "model": {"model": "correlated_blocks", "d": 2, "N": 3,
                                     "tensor": TENSOR}}, [], {}),
    ("sample-circulant", {"command": "sample",
                          "model": {"model": "circulant", "d": 3, "N": 4},
                          "spectrum_out": "spectrum.csv"}, [], {}),
    ("sample-circulant-real", {"command": "sample",
                               "model": {"model": "circulant", "d": 4, "N": 4,
                                         "law": {"variant": "real_gaussian"}},
                               "spectrum_out": "spectrum.csv"}, [], {}),
    # the upper-triangle draws of correlated_blocks, filled through their
    # mirror slots in the lower triangle
    ("sample-correlated-d3", {"command": "sample",
                              "model": {"model": "correlated_blocks", "d": 3, "N": 5,
                                        "tensor": TENSOR3}}, [], {}),
    ("sample-wishart", {"command": "sample",
                        "model": {"model": "wishart_correlated", "d": 2, "N": 3,
                                  "tensor": TENSOR}}, [], {}),
    ("rate", RATE, [], {}),
    ("rate-threads-1", RATE, ["--threads", "1"], {}),
    ("rate-threads-3", RATE, ["--threads", "3"], {}),
    ("rate-env-threads", RATE, [], {"DYSON_BLOCKS_THREADS": "2"}),
    ("rate-circulant", {"command": "rate", "model": {"model": "circulant", "d": 3, "N": 8},
                        "z": [0.2, 2.5], "N_grid": [8, 16, 32], "trials": 4}, [], {}),
    # even d has the unpaired j = d/2 block; a real law, zero imaginary parts
    ("rate-circulant-real", {"command": "rate",
                             "model": {"model": "circulant", "d": 4, "N": 8,
                                       "law": {"variant": "real_gaussian"}},
                             "z": [0.2, 3.0], "N_grid": [8, 16, 32], "trials": 4},
     [], {}),
    ("rate-circulant-rademacher", {"command": "rate",
                                   "model": {"model": "circulant", "d": 5, "N": 8,
                                             "law": {"variant": "rademacher"}},
                                   "z": [0.2, 3.0], "N_grid": [8, 16, 32],
                                   "trials": 4}, [], {}),
    ("rate-kronecker", {"command": "rate",
                        "model": {"model": "kronecker", "d": 2, "N": 8,
                                  "betas": BETAS, "sigma_l": DIAGONAL},
                        "z": [0.0, 3.0], "N_grid": [8, 16, 32], "trials": 4}, [], {}),
    # a correlated sigma_l, factorized when each arm's ModelSpec is validated
    ("rate-kronecker-d3", {"command": "rate",
                           "model": {"model": "kronecker", "d": 3, "N": 4,
                                     "betas": KRONECKER3["betas"],
                                     "sigma_l": [[0.25, 0.1], [0.1, 0.25]]},
                           "z": [0.0, 3.0], "N_grid": [4, 8, 16], "trials": 3},
     [], {}),
    # every entry is 1, so each trial draws the same matrix and every
    # standard error is 0
    ("rate-zero-stderr", {"command": "rate",
                          "model": {"model": "hermitized_iid", "d": 1, "N": 4,
                                    "law": {"variant": "two_point", "a": 1.0,
                                            "b": 1.0, "p": 0.5}},
                          "z": [0.0, 3.0], "N_grid": [4, 8, 16], "trials": 3},
     [], {}),
    # n = 512 and n = 256 samples: the first sizes at which the trace's
    # np.dot runs threaded in OpenBLAS when the loop does not hold it at
    # one thread, so these bytes depend on BLAS threads only then
    ("rate-n512", {"command": "rate",
                   "model": {"model": "hermitized_iid", "d": 2, "N": 64,
                             "law": {"variant": "complex_gaussian"}},
                   "z": [0.0, 3.0], "N_grid": [64, 128, 256], "trials": 2}, [], {}),
    ("universality-n256", {"command": "universality",
                           "model": {"model": "hermitized_iid", "d": 2, "N": 128,
                                     "law": {"variant": "rademacher"}},
                           "laws": [{"variant": "rademacher"},
                                    {"variant": "complex_gaussian"}],
                           "z": [0.5, 2.5], "N": 128, "trials": 3}, [], {}),
    ("universality", {"command": "universality",
                      "model": {"model": "wigner_blocks", "d": 2, "N": 6,
                                "law": {"variant": "rademacher"}},
                      "laws": [{"variant": "rademacher"},
                               {"variant": "complex_gaussian"}],
                      "z": [0.5, 2.5], "N": 6, "trials": 5}, ["--threads", "2"], {}),
    ("circulant-ks", {"command": "circulant-ks", "d": 3, "N_grid": [8, 16],
                      "trials": 5}, [], {}),
    ("circulant-ks-threads-4", {"command": "circulant-ks", "d": 2, "N_grid": [8, 16],
                                "trials": 4}, ["--threads", "4"], {}),
    ("wishart", {"command": "wishart", "tensor": TENSOR, "z": WISHART_Z,
                 "N": 24, "trials": 4}, [], {}),
    ("wishart-d3", {"command": "wishart", "tensor": TENSOR3, "z": [1.0, 0.5],
                    "N": 12, "trials": 3}, [], {}),
    ("wishart-threads-2", {"command": "wishart", "tensor": [[[[1.0]]]],
                           "z": WISHART_Z, "N": 20, "trials": 5},
     ["--threads", "2"], {}),
    # config errors: the message must name the key
    ("error-trials", {"command": "wishart", "tensor": [[[[1.0]]]], "z": WISHART_Z,
                      "N": 4, "trials": 1}, [], {}),
    ("error-N", {"command": "universality", "model": HERMITIZED,
                 "laws": [{"variant": "rademacher"}, {"variant": "rademacher"}],
                 "z": [0.0, 3.0], "N": 0, "trials": 3}, [], {}),
    ("error-rate-grid", dict(RATE, N_grid=[8, 8, 16]), [], {}),
    ("error-ks-grid", {"command": "circulant-ks", "d": 2, "N_grid": [20, 10, 40],
                       "trials": 2}, [], {}),
    ("error-solve-both-keys", dict(solve(SCALAR), z_grid=[[0.0, 2.0], [0.0, 3.0]]),
     [], {}),
    ("error-solve-empty-grid", {"command": "solve", "eta": SCALAR, "z_grid": []},
     [], {}),
    ("error-density-both-sources", {"command": "density", "eta": SCALAR,
                                    "mixture": {"weights": [1.0], "variances": [1.0]},
                                    "grid": {"min": -1.0, "max": 1.0, "step": 0.5}},
     [], {}),
    ("error-density-grid-too-fine", {"command": "density", "eta": SCALAR,
                                     "grid": {"min": -1.0, "max": 1.0,
                                              "step": 1e-300}}, [], {}),
    ("error-density-grid-too-large", {"command": "density", "eta": SCALAR,
                                      "grid": {"min": -1.0, "max": 1.0,
                                               "step": 2e-17}}, [], {}),
    # 2e6 points, refused by the point cap before eps is read; the eps of 0
    # makes a tree without the cap stop there instead of solving every point
    ("error-density-grid-cap", {"command": "density", "eta": SCALAR,
                                "grid": {"min": -1.0, "max": 1.0, "step": 1e-6},
                                "eps": 0.0}, [], {}),
    ("error-threads", {"command": "sample", "model": HERMITIZED},
     ["--threads", "0"], {}),
    ("error-env-threads", {"command": "sample", "model": HERMITIZED},
     [], {"DYSON_BLOCKS_THREADS": "zebra"}),
    ("print-config", dict(RATE, threads=2), ["--print-config"], {}),
    ("error-threads-key", {"command": "sample", "model": HERMITIZED, "threads": 2},
     [], {}),
    ("error-solver-on-circulant-ks", {"command": "circulant-ks", "d": 2,
                                      "N_grid": [8, 16], "trials": 2,
                                      "solver": {"tol": 1e-10}}, [], {}),
    ("print-config-flags", RATE, ["--threads", "2", "--print-config"], {}),
    # a value that fails its key's rule: the echo refuses it like the run
    ("print-config-invalid", dict(RATE, trials=1), ["--print-config"], {}),
    # N^2 = 10^18 entry draws: the allocation fails at once and exits 2
    ("error-sample-too-large", sample(N=10 ** 9), [], {}),
    # a point that misses the certificate: every command that solves names
    # it the same way (exit 3); a Wishart point is named by z^2
    ("density-fails", {"command": "density",
                       "eta": {"form": "flat", "d": 2, "c": 2.0},
                       "grid": {"min": -2.7, "max": 2.7, "step": 0.9},
                       "solver": {"max_iter": 1}}, [], {}),
    ("rate-solver-fails", dict(RATE, solver={"max_iter": 1}), [], {}),
    ("wishart-solver-fails", {"command": "wishart", "tensor": [[[[1.0]]]],
                              "z": WISHART_Z, "N": 6, "trials": 2,
                              "solver": {"max_iter": 1}}, [], {}),
    # wishart's z rule runs in the parse: the echo refuses Im z < 0
    ("print-config-wishart-z", {"command": "wishart", "tensor": [[[[1.0]]]],
                                "z": [1.0, -1.0], "N": 4, "trials": 2},
     ["--print-config"], {}),
    # of two unknown keys the first in sorted order is named, in either
    # file order
    ("error-two-unknown-keys", dict(sample(), zork=1, wibble=2), [], {}),
    ("error-two-unknown-keys-reversed", dict(sample(), wibble=2, zork=1), [], {}),
    # every entry law, eta form and model variant, and an error of each kind
    # for each of the three tables
    ("sample-real-gaussian", sample({"variant": "real_gaussian", "variance": 2.0}),
     [], {}),
    ("sample-two-point", sample({"variant": "two_point", "a": 1.0, "b": -0.5,
                                 "p": 0.25}), [], {}),
    ("sample-scalar-pool", sample({"variant": "permutation_pool",
                                   "values": [0.5 * k - 2.0 for k in range(9)]}),
     [], {}),
    # the CLI takes scalar pool values only, so a matrix pool is a config error
    ("sample-matrix-pool", sample({"variant": "permutation_pool",
                                   "values": [DIAGONAL] * 9}, d=2), [], {}),
    ("solve-scalar", {"command": "solve", "eta": {"form": "scalar", "d": 2, "t": 0.5},
                      "z_grid": [[0.0, 1.0], [1.5, 0.2]]}, [], {}),
    ("solve-tensor", solve({"form": "tensor", "sigma": TENSOR}), [], {}),
    ("error-law-unknown", sample({"variant": "cauchy"}), [], {}),
    ("error-law-stray-key", sample({"variant": "rademacher", "variance": 1.0}), [], {}),
    ("error-law-missing-key", sample({"variant": "two_point", "a": 1.0, "b": -1.0}),
     [], {}),
    ("error-law-builder", sample({"variant": "two_point", "a": 1.0, "b": -1.0,
                                  "p": 2}), [], {}),
    ("error-eta-unknown", solve({"form": "wavelet", "d": 2}), [], {}),
    ("error-eta-stray-key", solve({"form": "flat", "d": 2, "t": 1.0}), [], {}),
    ("error-eta-missing-key", solve({"form": "scalar", "d": 2}), [], {}),
    ("error-eta-builder", solve({"form": "flat", "d": 2, "c": -1}), [], {}),
    ("error-eta-not-cp", solve({"form": "choi", "matrix": NOT_CP_CHOI}), [], {}),
    # entries whose squares overflow a float: refused as at -1 (exit 2)
    ("error-choi-overflow-not-hermitian", dict(solve({"form": "choi", "matrix": [
        [1e200, 0.0, 0.0, 1e200], [0.0] * 4, [0.0] * 4, [-1e200, 0.0, 0.0, 1e200]]}),
        z=[0.0, 1.0]), [], {}),
    ("error-choi-overflow-not-psd", dict(solve({"form": "choi", "matrix": [
        [1e200, 0.0, 0.0, 0.0], [0.0, 1e200, 0.0, 0.0], [0.0, 0.0, -1e200, 0.0],
        [0.0] * 4]}), z=[0.0, 1.0]), [], {}),
    ("error-kronecker-overflow-sigma-l", dict(solve(
        {"form": "kronecker", "betas": [[[1.0]]], "sigma_l": [[-1e200]]}), z=[0.0, 1.0]),
     [], {}),
    ("error-tensor-overflow", dict(solve({"form": "tensor", "sigma": [[[[-1e200]]]]}),
                                   z=[0.0, 1.0]), [], {}),
    ("error-model-unknown", sample(model="gue"), [], {}),
    ("error-model-stray-key", sample(tensor=TENSOR), [], {}),
    ("error-model-missing-key", {"command": "sample", "model": {
        "model": "kronecker", "d": 2, "N": 3, "betas": BETAS}}, [], {}),
    ("error-model-builder", sample(N=0), [], {}),
    # relative tolerances: a Wishart tensor real up to 1e-17 of its size,
    # and a two-point law whose mean rounds to -7.45e-9 at a standard
    # deviation of 1.4e8, run; a mean of -0.2 at that scale is refused
    ("wishart-tensor-rounded-imaginary", {"command": "wishart",
                                          "tensor": [[[[[1e6, 1e-11]]]]],
                                          "z": WISHART_Z, "N": 8, "trials": 2},
     [], {}),
    ("universality-large-two-point", {
        "command": "universality", "model": HERMITIZED,
        "laws": [{"variant": "two_point", "a": 2e8, "b": -1e8, "p": 1 / 3},
                 {"variant": "real_gaussian", "variance": 2e16}],
        "z": [0.0, 3.0], "N": 8, "trials": 2}, [], {}),
    ("universality-not-centered", {
        "command": "universality", "model": HERMITIZED,
        "laws": [{"variant": "two_point", "a": 2e8, "b": -1e8 - 0.3, "p": 1 / 3},
                 {"variant": "real_gaussian", "variance": 2e16}],
        "z": [0.0, 3.0], "N": 8, "trials": 2}, [], {}),
    # command-line flags: abbreviated and "=" forms of valid runs, a later
    # flag over an earlier one, a negative --seed (refused by the config's
    # seed rule), every form the flag parse refuses (exit 2, the usage and
    # the error on stderr) and the help (exit 0); a config of None runs with
    # no --config
    ("flags-abbreviated", sample(), ["--thr", "2", "--o=other.bin", "--se=9"], {}),
    ("flags-print-config-abbreviated", RATE, ["--print", "--thre=3", "--s", "4"], {}),
    ("flags-seed-negative", sample(), ["--seed", "-1"], {}),
    ("error-flag-unknown", sample(), ["--zork"], {}),
    ("error-flag-missing-value", sample(), ["--out"], {}),
    ("error-flag-seed-not-int", sample(), ["--seed", "x"], {}),
    ("error-flag-threads-not-int", sample(), ["--threads", "1.5"], {}),
    ("error-flag-positional", sample(), ["extra"], {}),
    ("error-flag-print-config-value", sample(), ["--print-config=1"], {}),
    ("error-flag-no-config", None, [], {}),
    ("help", None, ["--help"], {}),
    ("help-short", sample(), ["-h"], {}),
    ("help-wide-terminal", None, ["--help"], {"COLUMNS": "120"}),
]


def _made(call, config: dict | None, argv: list, seed: int) -> dict:
    """A run made by ``call(cwd, flags) -> (exit code, stdout, stderr)`` in a
    fresh directory holding its config, with every file it wrote, by name."""
    with tempfile.TemporaryDirectory(prefix="compare-outputs.") as cwd:
        flags = ["--seed", str(seed), *argv]
        if config is not None:
            with open(os.path.join(cwd, "config.json"), "w") as fh:
                json.dump(dict(config, out="out"), fh)
            flags = ["--config", "config.json", *flags]
        code, stdout, stderr = call(cwd, flags)
        files = {}
        for name in sorted(os.listdir(cwd)):
            if name != "config.json":
                with open(os.path.join(cwd, name), "rb") as fh:
                    files[name] = fh.read()
    return {"exit code": code, "stdout": stdout, "stderr": stderr, "files": files}


def run(src: str, config: dict | None, argv: list, env: dict, seed: int) -> dict:
    """One CLI process in a fresh directory: its exit code, stdout, stderr
    and every file it wrote, by name."""
    def call(cwd, flags):
        proc = subprocess.run(
            [sys.executable, "-m", "dyson_blocks.cli", *flags],
            cwd=cwd, capture_output=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src),
                     PYTHONDONTWRITEBYTECODE="1", **env))
        return proc.returncode, proc.stdout, proc.stderr
    return _made(call, config, argv, seed)


def run_in_process(config: dict | None, argv: list, env: dict, seed: int) -> dict:
    """``run`` made by ``dyson_blocks.cli.main`` in this process, with
    ``env`` added to the environment and stdout and stderr captured; the
    working directory and the environment are restored after."""
    from dyson_blocks import cli

    def call(cwd, flags):
        stdout, stderr, home = io.StringIO(), io.StringIO(), os.getcwd()
        with (mock.patch.dict(os.environ, env), contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(stderr)):
            os.chdir(cwd)
            try:
                code = cli.main(flags)
            finally:
                os.chdir(home)
        return code, stdout.getvalue().encode(), stderr.getvalue().encode()
    return _made(call, config, argv, seed)


def digest(result: dict) -> str:
    """SHA-256 of a run's exit code, stdout, stderr and written files, each
    part prefixed by its length."""
    parts = [str(result["exit code"]).encode(), result["stdout"], result["stderr"]]
    for name, data in sorted(result["files"].items()):
        parts += [name.encode(), data]
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def run_name(name: str, seed: int) -> str:
    return f"{name} seed={seed}"


def write_digests(path: str, src: str, runs=RUNS, seeds=SEEDS) -> None:
    """Write the digest of every run against ``src``, each in a fresh
    process, with the numpy and BLAS versions they were taken with."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (KeyError, TypeError):
        blas = {"name": "unknown", "version": "unknown"}
    digests = {run_name(name, seed): digest(run(src, config, argv, env, seed))
               for name, config, argv, env in runs for seed in seeds}
    with open(path, "w") as fh:
        json.dump({"numpy": np.__version__, "blas": blas, "digests": digests},
                  fh, indent=1)
        fh.write("\n")


NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf")


def relative_change(old: str, new: str) -> float | None:
    """The largest |a - b| / max(|a|, |b|) over the numbers of two texts,
    paired field by field in order (CSV cells, the numbers of a message);
    None if the texts differ anywhere but in their numbers.  A number that
    turns into or out of nan or inf counts as an infinite change."""
    if NUMBER.split(old) != NUMBER.split(new):
        return None
    worst = 0.0
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        x, y = float(a), float(b)
        if a == b or x == y:
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def _describe(label: str, old: bytes, new: bytes) -> list[str]:
    try:
        a, b = old.decode(), new.decode()
    except UnicodeDecodeError:
        at = next((i for i, (x, y) in enumerate(zip(old, new)) if x != y),
                  min(len(old), len(new)))
        return [f"  {label}: {len(old)} -> {len(new)} bytes, first difference "
                f"at byte {at}"]
    change = relative_change(a, b)
    bound = ("text differs apart from its numbers" if change is None
             else f"largest relative change {change:.3e}")
    return [f"  {label}: {bound}"] + ["    " + line for line in difflib.unified_diff(
        a.splitlines(), b.splitlines(), "old", "new", n=0, lineterm="")]


def differences(old: dict, new: dict) -> list[str]:
    lines = []
    if old["exit code"] != new["exit code"]:
        lines.append(f"  exit code: {old['exit code']} -> {new['exit code']}")
    for key in ("stdout", "stderr"):
        if old[key] != new[key]:
            lines += _describe(key, old[key], new[key])
    for name in sorted(set(old["files"]) | set(new["files"])):
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None or b is None:
            lines.append(f"  file {name}: written only by the "
                         f"{'new' if a is None else 'old'} tree")
        elif a != b:
            lines += _describe(f"file {name}", a, b)
    return lines


def compare(old_src: str, new_src: str, runs=RUNS, seeds=SEEDS) -> int:
    """Print every difference; return the number of runs that differ."""
    differing = 0
    for name, config, argv, env in runs:
        for seed in seeds:
            lines = differences(run(old_src, config, argv, env, seed),
                                run(new_src, config, argv, env, seed))
            if lines:
                differing += 1
                print(f"DIFFERS {run_name(name, seed)}")
                print("\n".join(lines))
    print(f"{len(runs) * len(seeds)} runs, {differing} differ")
    return differing


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    digests = args[:1] == ["--write-digests"]
    if digests and len(args) == 2:
        args.append(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 os.pardir, "src"))
    trees = args[2:] if digests else args
    if (len(trees) != (1 if digests else 2)
            or not all(os.path.isdir(os.path.join(a, "dyson_blocks")) for a in trees)):
        print("usage: python tools/compare_outputs.py OLD_SRC NEW_SRC\n"
              "       python tools/compare_outputs.py --write-digests PATH [SRC]\n"
              "OLD_SRC, NEW_SRC and SRC must each hold a dyson_blocks package",
              file=sys.stderr)
        return 2
    if digests:
        write_digests(args[1], trees[0])
        return 0
    return 1 if compare(*trees) else 0


if __name__ == "__main__":
    sys.exit(main())

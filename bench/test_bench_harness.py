"""Tests of the benchmark harness: self-time arithmetic, patch hygiene,
output checks and the smoke run."""

import json
import math
import os
import subprocess
import sys
import threading

import pytest

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def _span(name, parent, start, end, thread, seq, info=None):
    sp = tracer.Span(name, parent, seq, start, end)
    sp.thread = thread
    sp.info = info
    return sp


def test_self_times_split_wall_time_among_running_threads():
    # main thread A: cli.main [0, 10] > dyson.solve [1, 4] (with leaves),
    #                cli.main > experiments.wishart [4.5, 9.5] > map_trials [5, 9]
    # workers B, C:  trial B [5, 8] > eigvalsh [6, 7];  trial C [6, 9]
    root = _span("cli.main", None, 0, 10, "A", 0)
    solve = _span("dyson.solve", root, 1, 4, "A", 1, info=(7, 1.0, True))
    solve.leaves = {"linalg.invert": [5, 1.0, 1], "eta.apply": [5, 0.5, 0]}
    wishart = _span("experiments.wishart", root, 4.5, 9.5, "A", 2)
    mapper = _span("experiments.map_trials", wishart, 5, 9, "A", 3)
    trial_b = _span("experiments.trial", mapper, 5, 8, "B", 4)
    eig = _span("linalg.eigvalsh", trial_b, 6, 7, "B", 5, info=100)
    trial_c = _span("experiments.trial", mapper, 6, 9, "C", 6)
    spans = [root, solve, wishart, mapper, trial_b, eig, trial_c]

    self_s, leaf_wall, idle = tracer.attribute(spans)
    assert self_s[root] == pytest.approx(2.0)        # [0,1] [4,4.5] [9.5,10]
    assert self_s[solve] == pytest.approx(1.5)       # 3 s minus 1.5 s of leaves
    assert leaf_wall == pytest.approx({"linalg.invert": 1.0, "eta.apply": 0.5})
    assert self_s[wishart] == pytest.approx(1.0)
    assert self_s[mapper] == pytest.approx(0.0)      # waits on its trials
    assert self_s[trial_b] == pytest.approx(1.5)     # alone [5,6], shared [7,8]
    assert self_s[eig] == pytest.approx(0.5)         # shared with trial C
    assert self_s[trial_c] == pytest.approx(2.0)     # shared [6,8], alone [8,9]
    assert idle == pytest.approx(0.0)
    assert sum(self_s.values()) + sum(leaf_wall.values()) == pytest.approx(10.0)

    m = tracer.layer_metrics(spans, traced_wall=10.25, cpu_s=3.0)
    layer_sum = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_sum == pytest.approx(8.0)
    assert m["cli.self_s"] == pytest.approx(0.0)     # cli.main's own time is ...
    assert m["dyson.self_s"] == pytest.approx(1.5)
    assert m["linalg.self_s"] == pytest.approx(1.5)
    assert m["eta.self_s"] == pytest.approx(0.5)
    assert m["experiments.self_s"] == pytest.approx(4.5)
    assert m["trace.unattributed_s"] == pytest.approx(2.25)  # ... unattributed
    assert m["linalg.invert.calls"] == 5 and m["linalg.invert.failed"] == 1
    assert m["linalg.eigvalsh.gflop"] == pytest.approx(16e6 / 3 / 1e9)
    assert m["linalg.eigvalsh.gflop_per_s"] == pytest.approx(16e6 / 3 / 1e9 / 0.5)
    assert m["dyson.iterations_total"] == 7
    assert m["experiments.trials"] == 2
    assert m["experiments.trial_busy_s"] == pytest.approx(6.0)
    assert m["experiments.concurrency"] == pytest.approx(6.0 / 5.0)


def _names(package):
    """Every attribute of the package's modules and traced classes."""
    import importlib
    modules = [package] + [importlib.import_module(f"dyson_blocks.{layer}")
                           for layer in tracer.LAYERS]
    from dyson_blocks.esd import EmpiricalCDF
    from dyson_blocks.eta import CovarianceMap
    namespaces = modules + [EmpiricalCDF, CovarianceMap]
    return {(id(ns), name): value for ns in namespaces
            for name, value in vars(ns).items()}


def test_traced_run_nests_worker_trials_and_restores_every_name(tmp_path):
    import dyson_blocks
    from dyson_blocks import cli

    before = _names(dyson_blocks)
    config = workloads.config("wishart-threads", str(tmp_path / "out"), smoke=True)
    (tmp_path / "c.json").write_text(json.dumps(config))
    t = tracer.Tracer()
    t.install(dyson_blocks)
    try:
        code = cli.main(["--config", str(tmp_path / "c.json"), "--threads", "2"])
    finally:
        t.uninstall()
    after = _names(dyson_blocks)

    assert code == 0
    assert not t.notes
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert not any(getattr(v, "__bench_traced__", False) for v in after.values())

    main_thread = threading.get_ident()
    trials = [sp for sp in t.spans if sp.name == "experiments.trial"]
    assert len(trials) == config["trials"]
    for sp in trials:
        chain = []
        while sp is not None:
            chain.append(sp.name)
            sp = sp.parent
        assert chain[-3:] == ["experiments.map_trials", "experiments.wishart", "cli.main"]
    assert {sp.thread for sp in t.spans if sp.name == "cli.main"} == {main_thread}
    m = tracer.layer_metrics(t.spans, traced_wall=max(sp.end for sp in t.spans)
                             - min(sp.start for sp in t.spans), cpu_s=0.0)
    assert m["dyson.solves"] == 1 and m["sampler.calls"] == config["trials"]
    layer_sum = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_sum + m["trace.unattributed_s"] == pytest.approx(
        max(sp.end for sp in t.spans) - min(sp.start for sp in t.spans))


def test_checks_accept_the_closed_form_and_reject_a_perturbed_output():
    cfg = workloads.config("density", "out", smoke=True)
    grid = cfg["grid"]
    xs = [grid["min"] + i * grid["step"] for i in range(7)]
    rho = [max(-workloads.semicircle_cauchy(2.0, complex(x, 1e-4)).imag / math.pi, 0)
           for x in xs]
    good = "# eta form=flat\nx,rho\n" + "".join(f"{x!r},{r!r}\n" for x, r in zip(xs, rho))
    workloads.check_density(cfg, good)
    bad = good.replace(repr(rho[3]), repr(rho[3] * (1 + 1e-6)))
    with pytest.raises(workloads.CheckError):
        workloads.check_density(cfg, bad)

    cfg = workloads.config("wishart-threads", "out", smoke=True)
    z = complex(*cfg["z"])
    g = workloads.marchenko_pastur_cauchy(z * z)
    header = "max_identity_residual,solver_re,solver_im,mc_re,mc_im,mc_stderr\n"
    row = f"1e-13,{g.real!r},{g.imag!r},{g.real + 0.01!r},{g.imag!r},0.01\n"
    workloads.check_wishart(cfg, header + row)
    with pytest.raises(workloads.CheckError):
        workloads.check_wishart(cfg, header + row.replace("1e-13", "1e-6"))


def test_smoke_run_emits_every_named_metric():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0

"""Span tracer that wraps dyson_blocks functions from outside the package.

``Tracer.install`` replaces selected functions of the package with timing
wrappers, under every name a caller looks them up by (a function imported
into another module is patched there too), and ``Tracer.uninstall`` puts
the originals back.  Nothing in ``src/`` changes.

Two kinds of record are kept:

* spans, one per call, for the coarse functions (experiments, solves,
  trials, draws, eigensolves, parse/write).  Each span knows its thread
  and its parent; the parent stack is thread-local, and work handed to a
  worker thread adopts the span that handed it over, so trial spans on
  worker threads nest under the experiment that spawned them;
* aggregated counters for the hot leaves ``linalg.invert`` and
  ``CovarianceMap.apply`` (hundreds of thousands of calls per density
  run), summed into the span that called them.

``layer_metrics`` turns the records into the per-layer numbers the
benchmark reports.  Self time is wall-clock time: each instant is split
among the innermost spans of the threads that are running at that instant,
so the layers' self times add up to the traced wall time also when trials
run on several threads.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time

LAYERS = ("cli", "experiments", "esd", "sampler", "dyson", "eta", "linalg")

# (owner, attribute, span name).  The owner is a module of the package or
# "module.Class"; the span's layer is the first part of its name.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "cli.parse"),
    ("cli", "atomic_write", "cli.write"),
    ("experiments", "rate_experiment", "experiments.rate"),
    ("experiments", "universality_experiment", "experiments.universality"),
    ("experiments", "circulant_ks_experiment", "experiments.circulant_ks"),
    ("experiments", "wishart_consistency_experiment", "experiments.wishart"),
    ("experiments", "analytic_trace_cauchy", "experiments.analytic_trace_cauchy"),
    ("experiments", "circulant_limit_cdf", "experiments.circulant_limit_cdf"),
    ("experiments", "hermitization_cauchy_pair", "experiments.hermitization_pair"),
    ("experiments", "model_eta", "experiments.model_eta"),
    ("esd", "mean_cauchy", "esd.mean_cauchy"),
    ("esd", "_trial_row", "esd.trial"),
    ("esd", "kolmogorov_distance", "esd.ks"),
    ("esd", "empirical_cauchy", "esd.empirical_cauchy"),
    ("esd.EmpiricalCDF", "__init__", "esd.ecdf"),
    ("sampler", "spectrum", "sampler.spectrum"),
    ("sampler", "sample_matrix", "sampler.draw"),
    ("sampler", "sample_wishart_factor", "sampler.draw"),
    ("dyson", "solve_semicircular", "dyson.solve"),
    ("dyson", "solve_wishart", "dyson.solve"),
    ("dyson", "stieltjes_density", "dyson.stieltjes_density"),
    ("dyson", "mixture_cauchy", "dyson.mixture_cauchy"),
    ("dyson", "cdf_from_density", "dyson.cdf_from_density"),
    ("dyson", "circulant_mixture", "dyson.circulant_mixture"),
    ("eta", "flat_map", "eta.flat_map"),
    ("eta", "eta_wishart_pair", "eta.wishart_pair"),
    ("eta.CovarianceMap", "cp_norm", "eta.cp_norm"),
    ("linalg", "hermitian_eigenvalues", "linalg.eigvalsh"),
)
LEAVES = (
    ("linalg", "invert", "linalg.invert"),
    ("eta.CovarianceMap", "apply", "eta.apply"),
)
EXPERIMENT_SPANS = ("experiments.rate", "experiments.universality",
                    "experiments.circulant_ks", "experiments.wishart")
TRIAL_SPANS = ("experiments.trial", "esd.trial")
ROOT_SPAN = "cli.main"


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "seq", "start", "end",
                 "leaves", "info")

    def __init__(self, name, parent, seq, start=0.0, end=0.0):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.thread = threading.get_ident()
        self.seq = seq
        self.start = start
        self.end = end
        self.leaves = {}      # leaf name -> [calls, seconds, failures]
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_info(args, result):
    return (result.iterations, result.damping_used, result.converged)


def _eig_info(args, result):
    return len(args[0])


def _nbytes(args, result):
    return result.nbytes


def _payload_bytes(args, result):
    payload = args[1]
    return len(payload.encode() if isinstance(payload, str) else payload)


INSPECT = {
    "dyson.solve": _solve_info,
    "linalg.eigvalsh": _eig_info,
    "sampler.draw": _nbytes,
    "cli.write": _payload_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.notes: list[str] = []      # what could not be traced
        self._local = threading.local()
        self._seq = itertools.count()
        self._patches = []          # (namespace, name, original), in order

    # -- parent stack ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(self, parent, fn, *args, **kwargs):
        """Run fn with ``parent`` as the open span, on a thread that has none."""
        stack = self._stack()
        if stack:
            return fn(*args, **kwargs)
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def _note(self, message: str) -> None:
        if message not in self.notes:
            self.notes.append(message)

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, name, fn):
        inspect = INSPECT.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None, next(self._seq))
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                self.spans.append(span)
            if inspect is not None:
                try:
                    span.info = inspect(args, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    self._note(f"{name}: cannot read {exc}")
            return result

        traced.__wrapped__ = fn
        traced.__bench_traced__ = True
        return traced

    def leaf_wrapper(self, name, fn, error=()):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            failed = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except error:
                failed = 1
                raise
            finally:
                end = clock()
                if stack:
                    acc = stack[-1].leaves.get(name)
                    if acc is None:
                        acc = stack[-1].leaves[name] = [0, 0.0, 0]
                    acc[0] += 1
                    acc[1] += end - start
                    acc[2] += failed
                else:
                    span = Span(name, None, next(self._seq), start, end)
                    span.leaves[name] = [1, end - start, failed]
                    self.spans.append(span)

        traced.__wrapped__ = fn
        traced.__bench_traced__ = True
        return traced

    def map_trials_wrapper(self, fn):
        """experiments._map_trials: one span per trial, on any thread."""
        def map_trials(trial_fn, trials, workers):
            parent = self.current()
            trial = self.span_wrapper("experiments.trial", trial_fn)
            return fn(lambda t: self.adopt(parent, trial, t), trials, workers)

        return self.span_wrapper("experiments.map_trials", map_trials)

    def pool_class(self, base):
        """A thread pool whose tasks adopt the span that submitted them."""
        tracer = self

        class TracedPool(base):
            __bench_traced__ = True

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn,
                                      *args, **kwargs)

        return TracedPool

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, package, modules, owner, attr, make):
        """Replace owner.attr, and every alias of it in the package."""
        module_name, _, class_name = owner.partition(".")
        target = modules.get(module_name)
        if class_name:
            target = getattr(target, class_name, None)
        original = getattr(target, attr, None) if target is not None else None
        if original is None:
            self._note(f"{owner}.{attr}: not found")
            return
        wrapper = make(original)
        namespaces = [target] if class_name else [package, *modules.values()]
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, name, original))
                    setattr(ns, name, wrapper)

    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        linalg = modules["linalg"]
        for owner, attr, name in SPANS:
            self._patch_everywhere(package, modules, owner, attr,
                                   lambda fn, n=name: self.span_wrapper(n, fn))
        for owner, attr, name in LEAVES:
            error = linalg.SingularMatrixError if name == "linalg.invert" else ()
            self._patch_everywhere(
                package, modules, owner, attr,
                lambda fn, n=name, e=error: self.leaf_wrapper(n, fn, e))
        self._patch_everywhere(package, modules, "experiments", "_map_trials",
                               self.map_trials_wrapper)
        self._patch_everywhere(package, modules, "esd", "ThreadPoolExecutor",
                               self.pool_class)

    def uninstall(self) -> None:
        while self._patches:
            ns, name, original = self._patches.pop()
            setattr(ns, name, original)


# ---------------------------------------------------------------------------
# attribution and metrics
# ---------------------------------------------------------------------------

def attribute(spans):
    """Wall-clock self time of every span, its leaves' share, and idle time.

    A thread runs at an instant when it has an open span that is not
    waiting for a child span open on another thread.  Each instant's wall
    time is split equally among the innermost spans of the running threads;
    an instant with no running thread is idle.  Leaf calls carry no
    intervals, so a span hands its leaves the fraction of its time that
    their summed durations make of the time it was innermost.

    Returns (self_s by span, wall seconds by leaf name, idle seconds).
    """
    events = []
    for sp in spans:
        events.append((sp.start, 1, sp.seq, sp))
        events.append((sp.end, 0, -sp.seq, sp))
    events.sort(key=lambda e: e[:3])
    stacks: dict[int, list] = {}
    remote_open: dict[Span, int] = {}
    share = dict.fromkeys(spans, 0.0)
    inner = dict.fromkeys(spans, 0.0)
    idle = 0.0
    prev = events[0][0] if events else 0.0
    for t, kind, _, sp in events:
        dt = t - prev
        prev = t
        if dt > 0:
            tops = [st[-1] for st in stacks.values() if st]
            running = [s for s in tops if not remote_open.get(s)]
            for s in tops:
                inner[s] += dt
            for s in running:
                share[s] += dt / len(running)
            if not running:
                idle += dt
        remote = sp.parent is not None and sp.parent.thread != sp.thread
        if kind == 1:
            stacks.setdefault(sp.thread, []).append(sp)
            if remote:
                remote_open[sp.parent] = remote_open.get(sp.parent, 0) + 1
        else:
            stacks[sp.thread].remove(sp)
            if remote:
                remote_open[sp.parent] -= 1
    self_s = {}
    leaf_wall: dict[str, float] = {}
    for sp in spans:
        own = share[sp]
        if sp.leaves:
            scale = share[sp] / inner[sp] if inner[sp] > 0 else 1.0
            for name, (_, seconds, _) in sp.leaves.items():
                moved = seconds * scale
                leaf_wall[name] = leaf_wall.get(name, 0.0) + moved
                own -= moved
        self_s[sp] = own
    return self_s, leaf_wall, idle


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]); 0 for no values."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans, traced_wall: float, cpu_s: float) -> dict:
    """Per-layer numbers of one traced CLI run (name -> value).

    The layers' self times leave out the root span's own time, which is
    counted as unattributed with any traced time outside the root span:
    the layer self times plus ``trace.unattributed_s`` make the traced
    wall, and work the wrappers do not reach shows as unattributed.
    """
    self_s, leaf_wall, _ = attribute(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for sp, seconds in self_s.items():
        if sp.name != ROOT_SPAN:
            layer_self[sp.layer] = layer_self.get(sp.layer, 0.0) + seconds
    for name, seconds in leaf_wall.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds

    def named(*names):
        return [sp for sp in spans if sp.name in names]

    def leaf_total(name, field):
        return sum(sp.leaves[name][field] for sp in spans if name in sp.leaves)

    eig = named("linalg.eigvalsh")
    eig_self = sum(self_s[sp] for sp in eig)
    gflop = sum(16.0 * sp.info ** 3 / 3.0 for sp in eig if sp.info) / 1e9
    solves = named("dyson.solve")
    outcomes = [sp.info for sp in solves if sp.info is not None]
    iterations = [info[0] for info in outcomes]
    draws = [sp for sp in named("sampler.draw")
             if sp.parent is None or sp.parent.name != "sampler.draw"]
    trials = named(*TRIAL_SPANS)
    trial_busy = sum(sp.duration for sp in trials)
    experiment_wall = sum(sp.duration for sp in named(*EXPERIMENT_SPANS))
    writes = named("cli.write")
    attributed = sum(layer_self.values())
    return {
        "linalg.eigvalsh.calls": len(eig),
        "linalg.eigvalsh.self_s": eig_self,
        "linalg.eigvalsh.gflop": gflop,
        "linalg.eigvalsh.gflop_per_s": _ratio(gflop, eig_self),
        "linalg.invert.calls": leaf_total("linalg.invert", 0),
        "linalg.invert.self_s": leaf_wall.get("linalg.invert", 0.0),
        "linalg.invert.failed": leaf_total("linalg.invert", 2),
        "linalg.self_s": layer_self["linalg"],
        "eta.apply.calls": leaf_total("eta.apply", 0),
        "eta.apply.self_s": leaf_wall.get("eta.apply", 0.0),
        "eta.self_s": layer_self["eta"],
        "dyson.solves": len(solves),
        "dyson.self_s": layer_self["dyson"],
        "dyson.iterations_total": sum(iterations),
        "dyson.iterations_p50": percentile(iterations, 50),
        "dyson.iterations_max": max(iterations, default=0),
        "dyson.damped_solves": sum(1 for info in outcomes if info[1] < 1.0),
        "dyson.unconverged": sum(1 for info in outcomes if not info[2]),
        "dyson.solve_ms_p50": 1e3 * percentile([sp.duration for sp in solves], 50),
        "dyson.solve_ms_p98": 1e3 * percentile([sp.duration for sp in solves], 98),
        "sampler.calls": len(draws),
        "sampler.self_s": layer_self["sampler"],
        "sampler.call_ms_p50": 1e3 * percentile([sp.duration for sp in draws], 50),
        "sampler.bytes_out": sum(sp.info for sp in draws if sp.info is not None),
        "esd.self_s": layer_self["esd"],
        "esd.ks.calls": len(named("esd.ks")),
        "experiments.trials": len(trials),
        "experiments.self_s": layer_self["experiments"],
        "experiments.trial_busy_s": trial_busy,
        "experiments.concurrency": _ratio(trial_busy, experiment_wall),
        "cli.self_s": layer_self["cli"],
        "cli.parse_s": sum(sp.duration for sp in named("cli.parse")),
        "cli.write_s": sum(sp.duration for sp in writes),
        "cli.write_bytes": sum(sp.info for sp in writes if sp.info is not None),
        "cli.cpu_s": cpu_s,
        "trace.unattributed_s": traced_wall - attributed,
    }


def median_metrics(runs: list[dict]) -> dict:
    """Median of each metric over several traced runs."""
    return {name: statistics.median(run[name] for run in runs)
            for name in runs[0]} if runs else {}

"""Spans around the calls into each mildlab layer, installed from outside.

Each wrapper rebinds the name its caller resolves (a module global or a
class attribute), so the package itself is untouched.  A span records its
name, start, end, the span open when it started (its parent) and the
operation it belongs to.  Spans are kept in memory and turned into the
per-layer metrics when the run ends.  Nothing is recorded outside an
operation, so set-up and the untimed output checks leave no span.
"""

import functools
import importlib
import math
import statistics
from contextlib import contextmanager
from time import perf_counter

#: (module, attribute path, span name): the bindings the callers resolve
TARGETS = (
    ("mildlab.solver", "picard_map", "solver.picard_map"),
    ("mildlab.solver", "_integrand_store", "solver.integrand_store"),
    ("mildlab.solver", "caloric_extension", "solver.caloric_extension"),
    ("mildlab.solver", "SolverConfig.rules", "duhamel.rules"),
    ("mildlab.solver", "x_space_norms", "norms.x_space_norms"),
    ("mildlab.solver", "data_norm_I", "norms.data_norm_I"),
    ("mildlab.solver", "smoothing_constant", "norms.smoothing_constant"),
    ("mildlab.solver", "heat_apply", "spectral.heat_apply"),
    ("mildlab.norms", "heat_apply", "spectral.heat_apply"),
    ("mildlab.norms", "morrey_norm", "norms.morrey_norm"),
    ("mildlab.norms", "_ball_spectrum", "norms.ball_convolution"),
    ("mildlab.spectral", "gradient", "spectral.gradient"),
    ("mildlab.grids", "Grid.forward", "grids.rfftn"),
    ("mildlab.grids", "Grid.backward", "grids.irfftn"),
)

_MARK = "_perfbench_span"
FFT = ("grids.rfftn", "grids.irfftn")


def _fft_work(name, args, result):
    """Computed, not measured: input plus output bytes, and 2.5 n log2 n
    flops per real transform of n points."""
    grid, arr = args[0], args[1]
    real = arr if name == "grids.rfftn" else result
    n = grid.size
    batch = real.size // n
    return arr.nbytes + result.nbytes, batch * 2.5 * n * math.log2(n)


def _resolve(module_name, path):
    """(owner, attribute) of a target, or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def wrapped_targets():
    """Targets that currently carry a benchmark wrapper."""
    found = []
    for module_name, path, _ in TARGETS:
        hit = _resolve(module_name, path)
        if hit is not None and hasattr(getattr(*hit), _MARK):
            found.append(f"{module_name}.{path}")
    return found


class Tracer:
    """In-memory spans: [name, start, end, parent index, operation, work]."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.untimed_calls = 0
        self.absent = []
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, op):
        """Record spans for one timed operation, under a root span ``op``."""
        self.op = op
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None

    def _wrap(self, fn, name):
        fft = name in FFT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                self.untimed_calls += 1
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if fft:
                record[5] = _fft_work(name, args, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self):
        for module_name, path, name in TARGETS:
            hit = _resolve(module_name, path)
            if hit is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr = hit
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


@contextmanager
def installed(tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


#: metric -> span names it needs; a metric whose span is absent reads 0
_NEEDS = {
    "solver.quadrature.self_s": ("solver.picard_map",),
    "solver.picard_map.calls": ("solver.picard_map",),
    "solver.picard_map.s": ("solver.picard_map",),
    "solver.integrand_store.calls": ("solver.integrand_store",),
    "solver.integrand_store.self_s": ("solver.integrand_store",),
    "solver.fft_per_map": ("solver.picard_map",) + FFT,
    "solver.caloric_extension.s": ("solver.caloric_extension",),
    "grids.rfftn.calls": ("grids.rfftn",),
    "grids.rfftn.s": ("grids.rfftn",),
    "grids.irfftn.calls": ("grids.irfftn",),
    "grids.irfftn.s": ("grids.irfftn",),
    "grids.fft.bytes_computed": FFT,
    "grids.fft.flops_computed": FFT,
    "spectral.heat_apply.calls": ("spectral.heat_apply",),
    "spectral.heat_apply.s": ("spectral.heat_apply",),
    "spectral.gradient.calls": ("spectral.gradient",),
    "spectral.gradient.s": ("spectral.gradient",),
    "duhamel.rules.calls": ("duhamel.rules",),
    "duhamel.rules.s": ("duhamel.rules",),
    "norms.morrey_norm.calls": ("norms.morrey_norm",),
    "norms.morrey_norm.self_s": ("norms.morrey_norm",),
    "norms.morrey_norm.conv_per_call": ("norms.morrey_norm", "norms.ball_convolution"),
    "norms.morrey_per_solve": ("norms.morrey_norm",),
    "norms.x_space_norms.calls": ("norms.x_space_norms",),
    "norms.x_space_norms.s": ("norms.x_space_norms",),
    "norms.data_norm_I.s": ("norms.data_norm_I",),
    "norms.smoothing_constant.calls": ("norms.smoothing_constant",),
    "norms.smoothing_constant.s": ("norms.smoothing_constant",),
    "norms.smoothing_constant.hit_ratio": ("norms.smoothing_constant", "norms.morrey_norm"),
}


def layer_metrics(tracer, op_count, iterations):
    """Per-layer metrics from the recorded spans, and the absent ones.

    Counts, seconds, bytes and flops are per operation; ``smallness_check``
    times are per call; the ratios have their own bases.  ``iterations`` lists
    the Picard iteration count each solve reported.
    """
    spans = tracer.spans
    calls, total, child = {}, {}, [0.0] * len(spans)
    inside = {"solver.picard_map": [False] * len(spans),
              "solver.picard_solve": [False] * len(spans),
              "norms.morrey_norm": [False] * len(spans)}
    has_morrey_child = set()
    fft_bytes = fft_flops = 0.0
    for i, (name, start, end, parent, _, work) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        if parent >= 0:
            child[parent] += duration
            parent_name = spans[parent][0]
            for anc, flags in inside.items():
                flags[i] = flags[parent] or parent_name == anc
            if name == "norms.morrey_norm":
                has_morrey_child.add(parent)
        if work is not None:
            fft_bytes += work[0]
            fft_flops += work[1]
    self_time = {}
    for i, (name, start, end, *_rest) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]

    def nested(ancestor, names):
        flags = inside[ancestor]
        return sum(1 for i, s in enumerate(spans) if flags[i] and s[0] in names)

    def per(count, base):
        return count / base if base else 0.0

    ops = max(op_count, 1)
    maps = calls.get("solver.picard_map", 0)
    solves = calls.get("solver.picard_solve", 0)
    morreys = calls.get("norms.morrey_norm", 0)
    smoothing = [i for i, s in enumerate(spans) if s[0] == "norms.smoothing_constant"]
    durations = {name: [s[2] - s[1] for s in spans if s[0] == name]
                 for name in ("solver.smallness_check.cold",
                              "solver.smallness_check.warm")}
    metrics = {
        "solver.quadrature.self_s": self_time.get("solver.picard_map", 0.0) / ops,
        "solver.picard_map.calls": maps / ops,
        "solver.picard_map.s": total.get("solver.picard_map", 0.0) / ops,
        "solver.picard_iterations": _mean(iterations),
        "solver.picard_solve.s": total.get("solver.picard_solve", 0.0) / ops,
        "solver.integrand_store.calls": calls.get("solver.integrand_store", 0) / ops,
        "solver.integrand_store.self_s": self_time.get("solver.integrand_store", 0.0) / ops,
        "solver.fft_per_map": per(nested("solver.picard_map", FFT), maps),
        "solver.caloric_extension.s": total.get("solver.caloric_extension", 0.0) / ops,
        "solver.smallness_check.cold_s": _mean(durations["solver.smallness_check.cold"]),
        "solver.smallness_check.warm_s": _mean(durations["solver.smallness_check.warm"]),
        "grids.rfftn.calls": calls.get("grids.rfftn", 0) / ops,
        "grids.rfftn.s": total.get("grids.rfftn", 0.0) / ops,
        "grids.irfftn.calls": calls.get("grids.irfftn", 0) / ops,
        "grids.irfftn.s": total.get("grids.irfftn", 0.0) / ops,
        "grids.fft.bytes_computed": fft_bytes / ops,
        "grids.fft.flops_computed": fft_flops / ops,
        "spectral.heat_apply.calls": calls.get("spectral.heat_apply", 0) / ops,
        "spectral.heat_apply.s": total.get("spectral.heat_apply", 0.0) / ops,
        "spectral.gradient.calls": calls.get("spectral.gradient", 0) / ops,
        "spectral.gradient.s": total.get("spectral.gradient", 0.0) / ops,
        "duhamel.rules.calls": calls.get("duhamel.rules", 0) / ops,
        "duhamel.rules.s": total.get("duhamel.rules", 0.0) / ops,
        "norms.morrey_norm.calls": morreys / ops,
        "norms.morrey_norm.self_s": self_time.get("norms.morrey_norm", 0.0) / ops,
        "norms.morrey_norm.conv_per_call": per(
            nested("norms.morrey_norm", ("norms.ball_convolution",)), morreys),
        "norms.morrey_per_solve": per(nested("solver.picard_solve", ("norms.morrey_norm",)),
                                      solves),
        "norms.x_space_norms.calls": calls.get("norms.x_space_norms", 0) / ops,
        "norms.x_space_norms.s": total.get("norms.x_space_norms", 0.0) / ops,
        "norms.data_norm_I.s": total.get("norms.data_norm_I", 0.0) / ops,
        "norms.smoothing_constant.calls": len(smoothing) / ops,
        "norms.smoothing_constant.s": total.get("norms.smoothing_constant", 0.0) / ops,
        "norms.smoothing_constant.hit_ratio": per(
            sum(1 for i in smoothing if i not in has_morrey_child), len(smoothing)),
        "trace.spans_per_op": len(spans) / ops,
    }
    present = {name for module_name, path, name in TARGETS
               if f"{module_name}.{path}" not in tracer.absent}
    absent = sorted(metric for metric, needs in _NEEDS.items()
                    if any(n not in present for n in needs))
    for metric in absent:
        metrics[metric] = 0.0
    return metrics, absent


def _mean(values):
    return statistics.fmean(values) if values else 0.0



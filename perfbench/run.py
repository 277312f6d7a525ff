#!/usr/bin/env python3
"""Benchmark of mildlab: time to a verified mild solution.

    python3 perfbench/run.py --workload desk2d --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; mildlab is imported from its ``src``.
BENCHMARK.json lists the workloads on which no operation fails;
``constants`` is left out of it while it fails (see README.md).  Every operation (for
``constants``, every round of tables) runs in a fresh worker process, one
after the other, so that set-up, the cold check and peak memory mean the
same for each.  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics, measured with no wrapper installed; with
``--trace 1`` it holds the per-layer metrics of ``perfbench/layers.json``.
The line before it records the inputs, the environment, every operation's
timing and every failed check.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("desk2d", "solve3d", "constants")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: worker processes a run starts however short --seconds is
MIN_WORKERS = 2
#: set-up is timed in at least this many fresh processes: set-up-only ones
#: make up what the workers leave short
SETUP_SAMPLES = 15
#: set-up-only processes run after each worker, so that the samples spread
#: over the run rather than bunch at its end; the machine's speed drifts on
#: a scale of seconds
SETUP_PER_WORKER = 3


def limit_threads():
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def import_workloads():
    """The workload module, with mildlab imported from this checkout only."""
    if not (SRC / "mildlab" / "__init__.py").is_file():
        raise SystemExit(f"mildlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import mildlab
    import workloads

    if Path(mildlab.__file__).resolve().parent != SRC / "mildlab":
        raise SystemExit(f"mildlab was imported from {mildlab.__file__}, not {SRC}")
    return workloads


def child_process(*args):
    """A fresh benchmark process run with ``args``."""
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def last_line(proc):
    """Wait for ``proc`` and return the last line it printed."""
    try:
        out, err = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{proc.args} failed:\n{err}")
    return out.strip().splitlines()[-1]


class Operations:
    """Timed calls and their verdicts; each check runs after the timer stops."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.records = []
        self.check_untimed_calls = 0

    def run(self, fn, args, check, describe=None):
        """Time ``fn(*args)``, then record ``check(result)``'s problems."""
        start = perf_counter()
        try:
            with (self.tracer.operation(len(self.records)) if self.tracer is not None
                  else nullcontext()):
                result = fn(*args)
            problems = None
        except Exception:
            result, problems = None, [traceback.format_exc()]
        seconds = perf_counter() - start
        before = self.tracer.untimed_calls if self.tracer is not None else 0
        if problems is None:
            try:
                problems = check(result)
            except Exception:
                problems = [traceback.format_exc()]
        if self.tracer is not None:
            self.check_untimed_calls += self.tracer.untimed_calls - before
        record = dict(seconds=seconds, problems=problems)
        if describe is not None and result is not None:
            record.update(describe(result))
        self.records.append(record)


def _describe_solve(result):
    trace = result["trace"]
    return dict(solve_s=result["solve_s"], iterations=trace.iterations,
                x_norms=trace.x_norms, diffs=trace.diffs)


def worker(workload, seed, trace, references, index):
    """Set up in this process, then run one solve or one constants round;
    with no ``references``, only set up."""
    start = perf_counter()
    wl = import_workloads()
    case = wl.build(workload, seed)
    setup = perf_counter() - start
    if references is None:
        return {"setup_s": setup}
    tracer = tracing.Tracer() if trace else None
    ops = Operations(tracer)
    with tracing.installed(tracer) if tracer is not None else nullcontext():
        if workload == "constants":
            # one fixed sweep order: both samplings share this process's cache
            for name, config in case.configs.items():
                for j, data in enumerate(case.data):
                    ops.run(wl.constants_table, (config, data, j == 0, tracer),
                            lambda table, name=name: wl.check_table(table, references[name]),
                            lambda _, name=name, j=j: dict(sampling=name, data_set=j))
        else:
            reference = references[workload] if seed == wl.DEFAULT_SEED else None
            ops.run(wl.solve_flow, (case, tracer),
                    lambda result: wl.check_solve(case.config, result, reference),
                    _describe_solve)
    record = {"setup_s": setup,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "ops": ops.records, "wrapped_after": tracing.wrapped_targets()}
    if tracer is not None:
        iterations = [op["iterations"] for op in ops.records if "iterations" in op]
        layer, absent = tracing.layer_metrics(tracer, len(ops.records), iterations)
        record.update(layer=layer, absent_metrics=absent, absent_targets=tracer.absent,
                      check_untimed_calls=ops.check_untimed_calls,
                      spans_file=write_spans(tracer, f"{workload}-seed{seed}-{index}"))
    return record


def write_spans(tracer, label):
    """All spans of a traced worker, for reading back where the time went."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    names = sorted({s[0] for s in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    rows = [[index[name], start, end, parent, op, *(work or ())]
            for name, start, end, parent, op, work in tracer.spans]
    path = out / f"spans-{label}.json"
    path.write_text(json.dumps({"names": names, "columns": [
        "name", "start_s", "end_s", "parent", "op", "bytes_computed", "flops_computed"],
        "spans": rows}))
    return str(path.relative_to(ROOT))


def environment(nproc, args):
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "platform": platform.platform()}


def references_for(workload, seed):
    """Stored solve references, or for ``constants`` the table of each
    sampling computed in a process of its own, so neither sees the other's
    cache."""
    if workload != "constants":
        return json.loads((HERE / "references.json").read_text())
    children = {name: child_process("--reference", name, "--seed", str(seed))
                for name in ("default", "coarse")}
    return {name: json.loads(last_line(proc)) for name, proc in children.items()}


def latencies(workload, records):
    """Per-operation times; for constants the mean table time of each round."""
    if workload == "constants":
        return [statistics.fmean(op["seconds"] for op in r["ops"]) for r in records]
    return [op["seconds"] for r in records for op in r["ops"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", choices=("default", "coarse"),
                        help="print the reference constants table of one sampling")
    parser.add_argument("--worker", type=int, metavar="INDEX",
                        help="run one operation in this process and print its record")
    parser.add_argument("--references", default="null",
                        help="references for a worker, as JSON; without them it only sets up")
    args = parser.parse_args(argv)
    nproc = limit_threads()

    if args.reference:
        print(json.dumps(import_workloads().reference_table(args.reference, args.seed)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.worker is not None:
        print(json.dumps(worker(args.workload, args.seed, args.trace,
                                json.loads(args.references), args.worker)))
        return 0

    wl = import_workloads()
    references = json.dumps(references_for(args.workload, args.seed))

    def setup_only(count):
        return [json.loads(last_line(child_process("--worker", "-1", "--workload",
                                                   args.workload, "--seed", str(args.seed))))
                ["setup_s"] for _ in range(count)]

    records, timed, setups = [], 0.0, []
    while len(records) < MIN_WORKERS or timed < args.seconds:
        proc = child_process("--worker", str(len(records)), "--workload", args.workload,
                             "--seed", str(args.seed), "--trace", str(args.trace),
                             "--references", references)
        records.append(json.loads(last_line(proc)))
        timed += sum(op["seconds"] for op in records[-1]["ops"])
        setups += [records[-1]["setup_s"]] + setup_only(SETUP_PER_WORKER)
    setups += setup_only(SETUP_SAMPLES - len(setups))

    ops = [op for r in records for op in r["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    stray = sorted({name for r in records for name in r["wrapped_after"]})
    detail = {"env": environment(nproc, args), "default_seed": wl.DEFAULT_SEED,
              "held_out_seed": wl.HELD_OUT_SEED,
              "setup_samples_s": setups,
              "peak_rss_samples_mb": [r["peak_rss_mb"] for r in records],
              "ops": ops, "wrappers_left_installed": stray}
    if not args.trace:
        metrics = {
            "time_to_solution_s": (statistics.median(latencies(args.workload, records)), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "goodput_per_min": (60.0 * (attempted - failed) / timed, "1/min"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), "MB"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        # every worker makes the same operations, so the mean over workers
        # of a per-operation figure is the run's per-operation figure
        layer = {name: statistics.fmean(r["layer"][name] for r in records)
                 for name in records[0]["layer"]}
        layer["trace.time_to_solution_s"] = statistics.median(latencies(args.workload, records))
        units = {m["name"]: m["unit"] for m in json.loads((HERE / "layers.json").read_text())}
        metrics = {name: (layer[name], unit) for name, unit in units.items()}
        detail.update(absent_metrics=records[0]["absent_metrics"],
                      absent_targets=records[0]["absent_targets"],
                      check_untimed_calls=sum(r["check_untimed_calls"] for r in records),
                      spans_files=[r["spans_file"] for r in records])
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and not stray, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

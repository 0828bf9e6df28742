"""Benchmark of the eitcool package: four closed-loop workloads, one op at a time.

    python3 benchmark/run.py --workload figures|cold_cli|tuning|analysis \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

# The package is not installed: run it from src/, with BLAS on one thread.
os.environ["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"]
                                  if os.environ.get("PYTHONPATH") else "")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402  (numpy must see the thread limits above)
import workloads  # noqa: E402
from spans import PER_LAYER, Tracer, parse_importtime  # noqa: E402

SETUP_STARTS = 5

# Calibration.  The host slows a core by up to 2x in bursts a fraction of a
# second long, so every timed step is followed by a fixed kernel and scaled
# by REF / (mean of the kernels on either side).  Timings are thereby given
# in seconds at the reference speed: the kernel's time on an idle core of
# the reference machine (see README.md).  In-process steps use Lambda-system
# solves from reference.py; fresh-interpreter steps use a fresh interpreter
# importing numpy.linalg.
LAMBDA_UNITS = {"figures": 20, "tuning": 4, "analysis": 30}
REF_LAMBDA_S = 2.2e-4
REF_START_S = 0.15
START_KERNEL = [sys.executable, "-c", "import numpy.linalg"]


def run_child(argv, stderr=subprocess.DEVNULL) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=stderr,
                          timeout=workloads.CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    return proc


def make_kernel(workload: str):
    """(kernel, reference seconds) for one workload."""
    if workload == "cold_cli":
        def start_kernel():
            t0 = time.perf_counter()
            run_child(START_KERNEL)
            return time.perf_counter() - t0
        return start_kernel, REF_START_S

    units = LAMBDA_UNITS[workload]

    def lambda_kernel():
        t0 = time.perf_counter()
        for _ in range(units):
            reference.scattering_rate("three_level", 1.3e8, 1.9e7, 4.4e8, 4.3e8, 1.26e8)
        return time.perf_counter() - t0
    return lambda_kernel, units * REF_LAMBDA_S


def measure_setup(workload: str, seed: int, out_dir: str) -> list:
    """Wall seconds of fresh start-ups that import the package, draw the
    inputs and run one warm-up op of each kind (cold_cli: ``eitcool validate``)."""
    times = []
    for i in range(SETUP_STARTS):
        if workload == "cold_cli":
            name = workloads.CONFIGS[i % len(workloads.CONFIGS)]
            argv = [sys.executable, "-m", "eitcool.cli", "validate", f"{name}.cfg"]
        else:
            argv = [sys.executable, os.path.join(HERE, "child.py"), "setup", workload,
                    str(seed), os.path.join(out_dir, f"setup{i}")]
        t0 = time.perf_counter()
        run_child(argv)
        times.append(time.perf_counter() - t0)
    return times


def measure_ops(wl, workload: str, seconds: float, tracer=None, trace_dir=None):
    """Closed loop over whole rounds of ops until ``seconds`` have passed.

    Returns samples (kind, raw seconds, scaled seconds, traced), the number
    of failed ops and, for a traced cold_cli run, the children's span files.
    With a tracer, odd-numbered rounds run traced and even-numbered ones not.
    """
    kernel, ref_s = make_kernel(workload)
    samples, failed, child_traces = [], 0, []
    cal_prev = kernel()
    i = rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and rounds % 2 == 1
        for _ in wl.kinds:
            if traced and workload == "cold_cli":
                child_traces.append(os.path.join(trace_dir, f"cli{i}.json"))
                kind, steps = wl.op(i, traced_file=child_traces[-1])
            else:
                kind, steps = wl.op(i)
            if traced and workload != "cold_cli":
                tracer.op = i
                tracer.install()
            raw = scaled = 0.0
            results = []
            try:
                for step in steps:
                    t0 = time.perf_counter()
                    try:
                        results.append(step())
                    finally:
                        dt = time.perf_counter() - t0
                        cal_next = kernel()
                        raw += dt
                        scaled += dt * ref_s / (0.5 * (cal_prev + cal_next))
                        cal_prev = cal_next
            except Exception as exc:  # counted and reported; the run goes on
                failed += 1
                results = None
                print(f"op {i} ({kind}) failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            finally:
                if traced and workload != "cold_cli":
                    tracer.uninstall()
            samples.append((kind, raw, scaled, traced))
            if results is not None:
                wl.record(i, results)
            i += 1
        rounds += 1
        # a traced run needs one traced and one untraced round at least
        if time.perf_counter() >= deadline and (tracer is None or rounds >= 2):
            return samples, failed, child_traces


def end_to_end(wl, workload, samples, setup_times, peak_rss_mb) -> dict:
    ops = [s[2] for s in samples]
    # median per kind, then averaged over the kinds of a round: a median
    # taken across a mix of kinds falls between them and jumps run to run
    per_kind = [statistics.median(s[2] for s in samples if s[0] == k) for k in wl.kinds]
    points = sum(wl.points[k] for k in wl.kinds)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s.p50": (statistics.mean(per_kind), "s"),
        "points_per_s": (points / sum(per_kind), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"{workload}: {len(samples)} ops; unscaled op median "
          f"{statistics.median(s[1] for s in samples):.6f} s; setup start-ups "
          f"{', '.join(f'{t:.4f}' for t in setup_times)} s", file=sys.stderr)
    if len(ops) >= 100:
        print(f"{workload}: op_s.p90 {statistics.quantiles(ops, n=10)[-1]:.6f} s over "
              f"{len(ops)} ops", file=sys.stderr)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(wl, workload, samples, tracer, child_traces, seed, out_dir) -> dict:
    if workload == "cold_cli":
        argv = [sys.executable, "-X", "importtime", "-m", "eitcool.cli", "validate", "fig2.cfg"]
        tracer = Tracer()
        for path in child_traces:
            child = Tracer.load(path)
            offset = len(tracer.spans)
            tracer.spans += [[s[0] + offset, s[1] + offset if s[1] >= 0 else -1, *s[2:]]
                             for s in child.spans]
            tracer.missing = child.missing
    else:
        argv = [sys.executable, "-X", "importtime", os.path.join(HERE, "child.py"), "setup",
                workload, str(seed), os.path.join(out_dir, "importtime")]
    imports = parse_importtime(run_child(argv, stderr=subprocess.PIPE).stderr.decode())
    traced = [s for s in samples if s[3]]
    layers = tracer.layer_totals(max(len(traced), 1))
    overheads = []
    for kind in wl.kinds:
        on = [s[2] for s in traced if s[0] == kind]
        off = [s[2] for s in samples if s[0] == kind and not s[3]]
        if on and off:
            overheads.append(statistics.median(on) - statistics.median(off))
    values = {**imports, **layers,
              "runner.bytes": wl.bytes_per_op if layers["runner.self_s"] > 0 else 0,
              "trace.overhead_s": statistics.mean(overheads) if overheads else 0.0}
    trace_path = os.path.join(ROOT, ".bench_traces", f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "metrics": values,
                   "missing": tracer.missing,
                   "spans": ["id parent name start end op".split()] + tracer.spans}, fh)
    print(f"{workload}: spans written to {os.path.relpath(trace_path, ROOT)}", file=sys.stderr)
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eitcool", "__init__.py")):
        print(f"error: no eitcool package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        setup_times = measure_setup(args.workload, args.seed, out_dir)
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, os.path.join(out_dir, "run"))
        wl.warmup()
        tracer = Tracer() if args.trace else None
        samples, failed, child_traces = measure_ops(wl, args.workload, args.seconds,
                                                    tracer, out_dir)
        who = resource.RUSAGE_CHILDREN if args.workload == "cold_cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        fails = wl.check()
        for message in fails[:20]:
            print(f"check failed: {message}", file=sys.stderr)
        if args.trace:
            metrics = per_layer(wl, args.workload, samples, tracer, child_traces,
                                args.seed, out_dir)
        else:
            metrics = end_to_end(wl, args.workload, samples, setup_times, peak_rss_mb)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass
    print(json.dumps({"correct": not fails, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

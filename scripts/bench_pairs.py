#!/usr/bin/env python3
"""Alternated-pair comparison of two commits on the repository's benchmark.

Usage:
    python scripts/bench_pairs.py --parent REV [--change REV] --seed N --out BENCH_<n>.json
        [--claim WORKLOAD:METRIC] [--note TEXT] [--trace-runs K]

Each side is a ``git archive`` copy of its commit (so no ``__pycache__`` and
no uncommitted file), and every run is ``benchmark/run.py --workload W --seed
N --seconds S --trace 0`` in that copy with ``PYTHONDONTWRITEBYTECODE=1``, S
the ``run_seconds`` of ``BENCHMARK.json``.  For every workload there it runs
``PAIRS`` pairs, parent first in even pairs and change first in odd ones, and
reports, per end-to-end metric of
``BENCHMARK.json``: both sides' median and quartiles (numpy linear
percentiles), the relative change of the median, ``change_wins`` (pairs where
the change is better; ties count for neither), the parent's IQR, the bound
and whether the change stays within it.  ``--claim`` names the metric a gain
is claimed on: it needs the change better in at least 9 of the 10 pairs and a
median gap above the parent's IQR.  ``--trace-runs K`` adds K ``--trace 1``
runs per side and workload, alternated, with their per-layer means.

The script only runs ``benchmark/run.py``; it writes the JSON file and its
scratch trees, removed at the end.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# alternated pairs per workload: a claimed gain must win 9 of them
PAIRS = 10


def _sig(x: float) -> float:
    """``x`` to six significant digits: sub-millisecond op times keep theirs."""
    return float(f"{x:.6g}")


def export(rev: str, dest: str) -> str:
    """``git archive`` of ``rev`` unpacked into ``dest``; returns the full hash."""
    os.makedirs(dest)
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    with subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            # the "data" filter where this Python has it (3.12, and 3.11.4 on)
            tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    if proc.returncode:
        raise RuntimeError(f"git archive {rev} exited {proc.returncode}")
    return sha


def run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``benchmark/run.py`` run in ``tree``: its final JSON line."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec: dict, parent: list, change: list) -> dict:
    """One metric over the pairs: quartiles, relative change, wins and bound."""
    lower = spec["better"] == "lower"
    stats = {side: dict(zip(("q1", "median", "q3"),
                            (_sig(q) for q in np.percentile(runs, [25, 50, 75]))))
             for side, runs in zip(SIDES, (parent, change))}
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    allowed = p_med * (1 + spec["bound"]) if lower else p_med * (1 - spec["bound"])
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        **stats,
        "change_vs_parent": _sig(c_med / p_med - 1) if p_med else None,
        "change_wins": f"{wins}/{len(parent)}",
        "parent_iqr": _sig(stats["parent"]["q3"] - stats["parent"]["q1"]),
        "bound": spec["bound"],
        "within_bound": bool(c_med <= allowed if lower else c_med >= allowed),
        "runs": {"parent": [_sig(x) for x in parent], "change": [_sig(x) for x in change]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC a gain is claimed on")
    parser.add_argument("--note", default="", help="what the change is, for the 'change' field")
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    scratch = tempfile.mkdtemp(prefix="bench_pairs_")
    trees = {side: os.path.join(scratch, side) for side in SIDES}
    shas = {side: export(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, args.change))}

    results, traces = {}, {}
    try:
        for workload in names:
            runs = {side: [] for side in SIDES}
            first = []
            for pair in range(PAIRS):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                first.append(order[0])
                for side in order:
                    runs[side].append(run(trees[side], workload, args.seed, seconds, 0))
                    m = runs[side][-1]["metrics"]
                    print(f"{workload} pair {pair} {side}: " + ", ".join(
                        f"{k} {m[k]['value']:.6g}" for k in specs), file=sys.stderr)
            results[workload] = {
                "pairs": PAIRS,
                "correct": all(r["correct"] for side in SIDES for r in runs[side]),
                "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
                "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
                "first": first,
                "metrics": {name: summarize(spec, *([r["metrics"][name]["value"]
                                                     for r in runs[side]] for side in SIDES))
                            for name, spec in specs.items()},
            }
            if args.trace_runs:
                traced = {side: [] for side in SIDES}
                for k in range(args.trace_runs):
                    for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                        traced[side].append(run(trees[side], workload, args.seed,
                                                seconds, 1)["metrics"])
                traces[workload] = {side: {name: _sig(np.mean(
                    [m[name]["value"] for m in traced[side]])) for name in traced[side][0]}
                    for side in SIDES}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    claimed = None
    if args.claim:
        workload, metric = args.claim.split(":")
        summary = results[workload]["metrics"][metric]
        gap = abs(summary["change"]["median"] - summary["parent"]["median"])
        wins = int(summary["change_wins"].split("/")[0])
        claimed = {"workload": workload, "metric": metric,
                   "change_vs_parent": summary["change_vs_parent"],
                   "change_wins": summary["change_wins"],
                   "median_gap": _sig(gap), "parent_iqr": summary["parent_iqr"],
                   "holds": wins >= 0.9 * PAIRS and gap > summary["parent_iqr"]}
    record = {
        "change": args.note,
        "machine": f"{os.cpu_count()}-CPU host",
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "method": (
            f"python3 benchmark/run.py --workload W --seed {args.seed} --seconds {seconds:g}"
            f" --trace 0, parent ({shas['parent'][:7]}) and change ({shas['change'][:7]})"
            f" alternated, first side swapped every pair; {PAIRS} pairs per workload;"
            " both trees git archive copies with no __pycache__, run with"
            " PYTHONDONTWRITEBYTECODE=1; median and quartiles (numpy linear percentiles) over"
            " the runs; change_wins counts pairs where the change is better (ties count for"
            " neither); attempted and failed are summed over the runs; 'runs' lists every"
            " run's value in pair order (scripts/bench_pairs.py)."
        ),
        "claimed": claimed,
        f"seed_{args.seed}": {"workloads": results},
    }
    if traces:
        record[f"trace_1_seed_{args.seed}_mean_of_{args.trace_runs}_runs_each"] = traces
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, result in results.items():
        for name, s in result["metrics"].items():
            print(f"{workload:9s} {name:13s} {s['parent']['median']:12.6g} -> "
                  f"{s['change']['median']:12.6g} ({s['change_vs_parent']:+.2%}, wins "
                  f"{s['change_wins']}, iqr {s['parent_iqr']:.3g}, "
                  f"{'within' if s['within_bound'] else 'OUTSIDE'} bound {s['bound']})")
    if claimed:
        print(f"claim {args.claim}: {'holds' if claimed['holds'] else 'does NOT hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

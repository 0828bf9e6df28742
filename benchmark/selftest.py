"""Self-test of the output checks: each must reject a perturbed output.

    python3 benchmark/selftest.py

Runs the five bundled configs once, confirms the checks accept the genuine
outputs, then confirms they reject: one n_ss scaled by 1 + 1e-6, a dropped
row, a thermal fit off by 10%, a changed byte between passes, and perturbed
tuning and analysis results.  Exits 0 when every case behaves as expected.
The file name keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _edit_csv(text: str, edit) -> str:
    lines = text.splitlines(keepends=True)
    first_row = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    return "".join(edit(lines, first_row))


def _scale_first_n_ss(lines, first_row):
    for i in range(first_row, len(lines)):
        fields = lines[i].rstrip("\n").split(",")
        if fields[0] == "three_level":
            fields[2] = repr(float(fields[2]) * (1 + 1e-6))
            lines[i] = ",".join(fields) + "\n"
            return lines
    raise AssertionError("no three_level row in fig2.csv")


def _drop_row(lines, first_row):
    return lines[:first_row + 3] + lines[first_row + 4:]


def _scale_meta(text: str, key: str, factor: float) -> str:
    out = []
    for line in text.splitlines(keepends=True):
        if line.startswith(f"result.{key} = "):
            value = float(line.split("=", 1)[1])
            line = f"result.{key} = {value * factor!r}\n"
        out.append(line)
    return "".join(out)


def main() -> int:
    out_dir = os.path.join(ROOT, ".bench_out", f"selftest-{os.getpid()}")
    results = []

    def expect(name, fails, rejected):
        ok = bool(fails) == rejected
        results.append(ok)
        verdict = "rejected" if fails else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
              + (f" ({fails[0]})" if fails else ""))

    try:
        fig = workloads.Figures(ROOT, 0, out_dir)
        fig.warmup()
        genuine = fig.reference

        def run_checks(outputs):
            return checks.check_figure_outputs(outputs, fig.cfg_texts,
                                               np.random.default_rng([0, 7]))

        expect("genuine bundled outputs", run_checks(genuine), False)
        csv, meta = genuine["fig2"]
        expect("fig2 n_ss scaled by 1 + 1e-6",
               run_checks({**genuine, "fig2": (_edit_csv(csv, _scale_first_n_ss), meta)}), True)
        csv, meta = genuine["fig3"]
        expect("fig3 row dropped",
               run_checks({**genuine, "fig3": (_edit_csv(csv, _drop_row), meta)}), True)
        csv, meta = genuine["thermometry"]
        expect("thermometry fit n_bar off by 10%",
               run_checks({**genuine, "thermometry": (csv, _scale_meta(meta, "fit_n_bar", 1.1))}),
               True)
        csv, meta = genuine["fig4"]
        expect("fig4 A+ scaled by 1 + 1e-6",
               run_checks({**genuine, "fig4": (csv, _scale_meta(meta, "a_plus_per_s", 1 + 1e-6))}),
               True)

        path = os.path.join(out_dir, fig.configs["multimode"].output_name)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
        fig.record(1, None)
        expect("one changed byte between passes", fig.check(), True)

        tuning = workloads.Tuning(ROOT, 0, out_dir)
        for i in range(3):
            _, steps = tuning.op(i)
            tuning.record(i, [step() for step in steps])
        expect("genuine tuning ops", tuning.check(), False)
        params, modes, reports = tuning.done[2]
        label, omega, a_plus, a_minus = reports[0]
        bad = ((label, omega, a_plus * (1 + 1e-6), a_minus),) + reports[1:]
        expect("tuning A+ scaled by 1 + 1e-6", checks.check_tuning_op(params, modes, bad), True)

        analysis = workloads.Analysis(ROOT, 0, out_dir)
        _, steps = analysis.op(0)
        analysis.record(0, [step() for step in steps])
        expect("genuine analysis op", analysis.check(), False)
        params, n_bar, (dark, bright, excitation, fit) = analysis.done[0]
        omega0 = workloads.TWO_PI * analysis.RABI_HZ
        expect("analysis fit n_bar off by 10%",
               checks.check_thermal_op(n_bar, analysis.ETA, omega0, analysis.times,
                                       excitation, fit * 1.1), True)
        shift = bright - dark
        expect("analysis dark point moved by 1% of the shift",
               checks.check_fano(params, dark + 0.01 * shift, bright), True)
        expect("analysis bright peak moved by 5% of the shift",
               checks.check_fano_reference(params, dark, bright + 0.05 * shift), True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass
    print(f"{sum(results)}/{len(results)} self-test cases behaved as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

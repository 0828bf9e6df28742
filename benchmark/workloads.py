"""The four workloads: inputs drawn from the seed, operations, output checks.

A workload object exposes

* ``kinds`` and ``points[kind]``: the operation kinds of one round and the
  W(delta_pi) values each requires (sweep points x variants x 2 for A+ and
  A-, plus Fano grid points), counted from the inputs;
* ``op(i)`` -> (kind, steps): operation ``i`` as a list of callables run in
  order; drawing its inputs happens here, outside the timed steps;
* ``warmup()``: one untimed operation of each kind;
* ``record(i, results)``: keeps what the checks need from the steps' return
  values (untimed);
* ``check()`` -> list of failure messages, run after the timed loop.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np

import checks

CONFIGS = ("fig2", "fig3", "fig4", "multimode", "thermometry")
VARIANTS = ("three_level", "four_level_ideal", "four_level_geometry")
TWO_PI = 2.0 * math.pi
CHILD_TIMEOUT_S = 150


def required_points(values: dict) -> int:
    """W(delta_pi) evaluations a resolved config asks for."""
    task = values["task"]
    variants = 3 if values["variant"] == "all" else 1
    if task == "sweep-omega":
        return values["sweep.points"] * variants * 2
    if task == "spectrum":
        return values["sweep.points"] * variants
    if task == "sweep-delta":
        return values["sweep.points"] * 2
    if task == "dynamics":
        return 2
    if task == "multimode":
        return 2 * len([m for m in values["multimode.modes"].split(",") if m.strip()])
    return 0


def _read_outputs(out_dir: str, configs: dict) -> dict:
    outputs = {}
    for name, cfg in configs.items():
        path = os.path.join(out_dir, cfg.output_name)
        with open(path, encoding="utf-8") as csv_fh, \
                open(path + ".meta", encoding="utf-8") as meta_fh:
            outputs[name] = (csv_fh.read(), meta_fh.read())
    return outputs


class Figures:
    """Every op is one in-process pass over the five bundled configs."""

    def __init__(self, root: str, seed: int, out_dir: str):
        import eitcool.runner
        from eitcool.config import load_config

        self._runner = eitcool.runner
        self.seed = seed
        self.out = out_dir
        cfg_dir = os.path.join(root, "src", "eitcool", "configs")
        self.cfg_texts, self.configs = {}, {}
        for name in CONFIGS:
            path = os.path.join(cfg_dir, name + ".cfg")
            with open(path, encoding="utf-8") as fh:
                self.cfg_texts[name] = fh.read()
            self.configs[name] = load_config(path)
        self.kinds = ("pass",)
        self.points = {"pass": sum(required_points(c.values) for c in self.configs.values())}
        self.reference = None
        self.bytes_per_op = 0
        self.mismatched: list = []

    def op(self, i):
        # looked up at call time, so that the tracer's wrapper is seen
        return "pass", [lambda cfg=cfg: self._runner.run(cfg, self.out)
                        for cfg in self.configs.values()]

    def warmup(self):
        for step in self.op(0)[1]:
            step()
        self.reference = _read_outputs(self.out, self.configs)
        self.bytes_per_op = sum(len(c.encode()) + len(m.encode())
                                for c, m in self.reference.values())

    def record(self, i, results):
        if _read_outputs(self.out, self.configs) != self.reference:
            self.mismatched.append(i)

    def check(self) -> list:
        rng = np.random.default_rng([self.seed, 7])
        fails = checks.check_figure_outputs(self.reference, self.cfg_texts, rng)
        if self.mismatched:
            fails.append(f"figures: passes {self.mismatched[:5]} wrote different bytes "
                         "than the first pass")
        return fails


class ColdCli:
    """Every op is a fresh ``python -m eitcool.cli run <cfg>`` interpreter."""

    def __init__(self, root: str, seed: int, out_dir: str):
        self.root = root
        self.figures = Figures(root, seed, os.path.join(out_dir, "in_process"))
        self.out = os.path.join(out_dir, "cli")
        self.kinds = CONFIGS
        self.points = {n: required_points(c.values) for n, c in self.figures.configs.items()}
        self.bytes_per_op = 0
        self.mismatched: list = []

    def op(self, i, traced_file: str | None = None):
        name = CONFIGS[i % len(CONFIGS)]
        cli_args = ["run", f"{name}.cfg", "--out", self.out]
        if traced_file:  # same CLI call, with the span tracer installed
            argv = [sys.executable, os.path.join(os.path.dirname(__file__), "child.py"),
                    "cli", traced_file, *cli_args]
        else:
            argv = [sys.executable, "-m", "eitcool.cli", *cli_args]

        def call():
            proc = subprocess.run(argv, cwd=self.root, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"eitcool run {name}.cfg exited {proc.returncode}: "
                                   f"{proc.stderr.decode(errors='replace').strip()}")

        return name, [call]

    def warmup(self):
        # one child warms the page cache and the bytecode cache for all configs
        self.figures.warmup()
        self.op(0)[1][0]()
        self.record(0, None)
        sizes = [len(c.encode()) + len(m.encode()) for c, m in self.figures.reference.values()]
        self.bytes_per_op = sum(sizes) / len(sizes)

    def record(self, i, results):
        name = CONFIGS[i % len(CONFIGS)]
        cfg = self.figures.configs[name]
        got = _read_outputs(self.out, {name: cfg})[name]
        if got != self.figures.reference[name]:
            self.mismatched.append(f"{name}#{i}")

    def check(self) -> list:
        fails = self.figures.check()
        if self.mismatched:
            fails.append(f"cold_cli: outputs {self.mismatched[:5]} differ from the "
                         "in-process run of the same config")
        return fails


class Tuning:
    """Random single-point multimode reports, one third per model variant."""

    CHECKED_OPS = 12

    def __init__(self, root: str, seed: int, out_dir: str):
        import eitcool

        self._eit = eitcool
        self.seed = seed
        self.kinds = VARIANTS
        self.points = {v: 6 for v in VARIANTS}  # 3 modes x (A+, A-)
        self.bytes_per_op = 0
        self.done: dict = {}
        self._draws = np.random.default_rng([seed, 1])

    def draw(self, i) -> tuple:
        r = self._draws
        variant = VARIANTS[i % 3]
        delta_sigma = TWO_PI * r.uniform(40e6, 100e6)
        shift = TWO_PI * r.uniform(0.8e6, 3.5e6)
        omega_sigma = 2.0 * math.sqrt(shift * (shift + delta_sigma))
        params = dict(
            variant=variant,
            omega_sigma=omega_sigma,
            omega_pi=r.uniform(0.05, 0.15) * omega_sigma,
            delta_sigma=delta_sigma,
            delta_pi=delta_sigma + TWO_PI * r.uniform(-0.5e6, 0.5e6),
            gamma=TWO_PI * 20e6,
            b_gauss=r.uniform(2.0, 8.0),
            beam_angle=math.radians(r.uniform(100.0, 150.0)),
        )
        modes = tuple((label, TWO_PI * r.uniform(0.8e6, 4e6), r.uniform(0.05, 0.3),
                       r.uniform(0.2, 1.0)) for label in ("x", "y", "z"))
        return params, modes

    def op(self, i):
        params, modes = self.draw(i)
        e = self._eit
        cfg = e.EITConfig(**{k: v for k, v in params.items() if k != "gamma"})
        geometries = [e.CoolingGeometry(omega=w, eta=eta, cos_phi=c, label=label)
                      for label, w, eta, c in modes]
        self.done[i] = (params, modes)
        # looked up at call time, so that the tracer's wrapper is seen
        return params["variant"], [lambda: e.multimode_report(cfg, geometries)]

    def warmup(self):
        # later draws continue the stream, so timed ops never reuse these configs
        for i in range(3):
            self.op(i)[1][0]()
        self.done.clear()

    def record(self, i, results):
        self.done[i] = self.done[i] + (tuple((r.label, r.omega, r.a_plus, r.a_minus)
                                             for r in results[0]),)

    def check(self) -> list:
        recorded = sorted(i for i, v in self.done.items() if len(v) == 3)
        rng = np.random.default_rng([self.seed, 2])
        picks = rng.choice(recorded, size=min(self.CHECKED_OPS, len(recorded)), replace=False)
        fails = []
        for i in sorted(picks):
            fails += checks.check_tuning_op(*self.done[i])
        return fails


class Analysis:
    """Weak-probe Fano features, then a thermometry round trip."""

    GRID = 400
    CHECKED_OPS = 4
    ETA, RABI_HZ, T_MAX_S, FLOP_POINTS = 0.03, 100e3, 2e-3, 120

    def __init__(self, root: str, seed: int, out_dir: str):
        import eitcool

        self._eit = eitcool
        self.seed = seed
        self.kinds = ("fano+fit",)
        self.points = {"fano+fit": self.GRID}
        self.bytes_per_op = 0
        self.done: dict = {}
        self._draws = np.random.default_rng([seed, 3])
        self.times = np.linspace(0.0, self.T_MAX_S, self.FLOP_POINTS)

    def draw(self, i) -> tuple:
        # the ranges of acceptance criterion 03 (weak probe, 0.05 x shift)
        r = self._draws
        delta_sigma = TWO_PI * r.uniform(30e6, 100e6)
        omega_sigma = r.uniform(0.15, 0.6) * delta_sigma
        shift = 0.5 * (math.hypot(omega_sigma, delta_sigma) - delta_sigma)
        params = dict(variant="three_level", omega_sigma=omega_sigma, omega_pi=0.05 * shift,
                      delta_sigma=delta_sigma, delta_pi=delta_sigma, gamma=TWO_PI * 20e6)
        n_bar = float(np.exp(r.uniform(math.log(0.1), math.log(15.0))))
        return params, shift, n_bar

    def op(self, i):
        params, shift, n_bar = self.draw(i)
        e = self._eit
        cfg = e.EITConfig(**{k: v for k, v in params.items() if k != "gamma"})
        lo, hi = params["delta_sigma"] - 3 * shift, params["delta_sigma"] + 3 * shift
        omega0 = TWO_PI * self.RABI_HZ

        def round_trip():
            record = e.sideband_flops(e.ThermalState.from_n_bar(n_bar), self.ETA, omega0,
                                      "blue", self.times)
            return record, e.fit_thermal(record, self.ETA, omega0)

        self.done[i] = (params, n_bar)
        return "fano+fit", [lambda: e.fano_features(cfg, lo, hi, points=self.GRID), round_trip]

    def warmup(self):
        for step in self.op(0)[1]:
            step()
        self.done.clear()

    def record(self, i, results):
        features, (record, fit) = results
        self.done[i] = self.done[i] + ((features.dark_point, features.bright_peak,
                                        record.excitation, fit.n_bar),)

    def check(self) -> list:
        fails = []
        omega0 = TWO_PI * self.RABI_HZ
        recorded = sorted(i for i, v in self.done.items() if len(v) == 3)
        for i in recorded:
            params, n_bar, (dark, bright, excitation, fit) = self.done[i]
            fails += checks.check_fano(params, dark, bright)
            fails += checks.check_thermal_op(n_bar, self.ETA, omega0, self.times,
                                             excitation, fit)
        rng = np.random.default_rng([self.seed, 4])
        for i in rng.choice(recorded, size=min(self.CHECKED_OPS, len(recorded)), replace=False):
            params, _, (dark, bright, _, _) = self.done[i]
            fails += checks.check_fano_reference(params, dark, bright)
        return fails


WORKLOADS = {"figures": Figures, "cold_cli": ColdCli, "tuning": Tuning, "analysis": Analysis}

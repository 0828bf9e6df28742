"""In-memory span tracer wrapped around the package's public functions.

The tracer never edits ``src/``: it replaces each traced function object by a
wrapper in every loaded ``eitcool`` module namespace that holds it (so calls
through ``from .liouville import steady_state`` are seen too), and puts the
originals back on ``uninstall``.  A traced name that the package no longer
defines is skipped with a note on stderr.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# public functions the tracer wraps; a span's layer is its module's name
TRACED = (
    ("eitcool.cli", "main"),
    ("eitcool.config", "load_config"),
    ("eitcool.runner", "run"),
    ("eitcool.cooling", "cooling_coefficients"),
    ("eitcool.cooling", "multimode_report"),
    ("eitcool.cooling", "steady_state_n_sweep"),
    ("eitcool.cooling", "evolve_n"),
    ("eitcool.spectrum", "scattering_rate"),
    ("eitcool.spectrum", "scan_spectrum"),
    ("eitcool.spectrum", "fano_features"),
    ("eitcool.liouville", "build_system"),
    ("eitcool.liouville", "build_liouvillian"),
    ("eitcool.liouville", "steady_state"),
    ("eitcool.liouville", "periodic_harmonics"),
    ("eitcool.thermometry", "sideband_flops"),
    ("eitcool.thermometry", "fit_thermal"),
)

LAYERS = ("cli", "config", "runner", "cooling", "spectrum", "liouville", "thermometry")

# per-layer metric name -> unit, in the order they are reported
PER_LAYER = {
    "import.eitcool_s": "s",
    "import.scipy_optimize_s": "s",
    "import.scipy_integrate_s": "s",
    "config.load_s": "s",
    "cli.self_s": "s",
    "runner.self_s": "s",
    "runner.bytes": "bytes",
    "cooling.self_s": "s",
    "cooling.calls": "count",
    "spectrum.self_s": "s",
    "spectrum.points": "count",
    "spectrum.fano_s": "s",
    "liouville.build_system_s": "s",
    "liouville.build_liouvillian_s": "s",
    "liouville.steady_state_s": "s",
    "liouville.harmonics_s": "s",
    "liouville.build_system_calls": "count",
    "liouville.build_liouvillian_calls": "count",
    "liouville.steady_state_calls": "count",
    "liouville.harmonics_calls": "count",
    "thermometry.flops_s": "s",
    "thermometry.fit_s": "s",
    "thermometry.fit_calls": "count",
    "trace.overhead_s": "s",
}

# inclusive-time and call-count metrics: metric -> traced span name
_INCLUSIVE = {
    "config.load_s": "config.load_config",
    "spectrum.fano_s": "spectrum.fano_features",
    "liouville.build_system_s": "liouville.build_system",
    "liouville.build_liouvillian_s": "liouville.build_liouvillian",
    "liouville.steady_state_s": "liouville.steady_state",
    "liouville.harmonics_s": "liouville.periodic_harmonics",
    "thermometry.flops_s": "thermometry.sideband_flops",
    "thermometry.fit_s": "thermometry.fit_thermal",
}
_CALLS = {
    "spectrum.points": "spectrum.scattering_rate",
    "liouville.build_system_calls": "liouville.build_system",
    "liouville.build_liouvillian_calls": "liouville.build_liouvillian",
    "liouville.steady_state_calls": "liouville.steady_state",
    "liouville.harmonics_calls": "liouville.periodic_harmonics",
    "thermometry.fit_calls": "thermometry.fit_thermal",
}


class Tracer:
    """Records spans (id, parent, name, start, end, op) while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._patches: list = []
        self.missing: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else -1, name,
                    time.perf_counter(), 0.0, self.op]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "eitcool" or n.startswith("eitcool."))]
        for module_name, fn_name in TRACED:
            owner = sys.modules.get(module_name)
            if owner is None:  # not imported by this workload
                continue
            original = getattr(owner, fn_name, None)
            if original is None:
                if (module_name, fn_name) not in self.missing:
                    self.missing.append((module_name, fn_name))
                    print(f"trace: {module_name}.{fn_name} not found; dropped from the trace",
                          file=sys.stderr)
                continue
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def layer_totals(self, ops: int) -> dict:
        """Per-operation self time, inclusive times and call counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child_time[span[1]] += span[4] - span[3]
        self_s = {layer: 0.0 for layer in LAYERS}
        incl: dict = {}
        calls: dict = {}
        for span, children in zip(self.spans, child_time):
            duration = span[4] - span[3]
            layer = span[2].split(".")[0]
            self_s[layer] += duration - children
            incl[span[2]] = incl.get(span[2], 0.0) + duration
            calls[span[2]] = calls.get(span[2], 0) + 1
        out = {f"{layer}.self_s": self_s[layer] / ops for layer in ("cli", "runner",
                                                                     "cooling", "spectrum")}
        out["cooling.calls"] = sum(c for n, c in calls.items() if n.startswith("cooling.")) / ops
        for metric, name in _INCLUSIVE.items():
            out[metric] = incl.get(name, 0.0) / ops
        for metric, name in _CALLS.items():
            out[metric] = calls.get(name, 0) / ops
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)

    @staticmethod
    def load(path: str) -> "Tracer":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        tracer = Tracer()
        tracer.spans = data["spans"]
        tracer.missing = [tuple(m) for m in data["missing"]]
        return tracer


def parse_importtime(stderr_text: str) -> dict:
    """Cumulative import seconds of eitcool, scipy.optimize, scipy.integrate."""
    wanted = {"eitcool": "import.eitcool_s", "scipy.optimize": "import.scipy_optimize_s",
              "scipy.integrate": "import.scipy_integrate_s"}
    out = {metric: 0.0 for metric in wanted.values()}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[2].strip()
        if name in wanted and out[wanted[name]] == 0.0:
            try:
                out[wanted[name]] = int(fields[1]) * 1e-6
            except ValueError:
                pass
    return out

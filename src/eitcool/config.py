"""Run configuration: flat dotted-key text format, schema, validation.

Unit conventions (the single most error-prone decision, so it lives here and
nowhere else): keys ending in ``_hz`` are ordinary frequencies in Hz and are
converted to angular frequencies (rad/s) on access; keys ending in ``_deg``
are degrees, converted to radians; ``_s`` seconds; ``_nm`` nanometers; ``_amu`` daltons.
"""

import math
from types import MappingProxyType

from .atom import SIDEBANDS, VARIANTS, LevelScheme
from .constants import ATOMIC_MASS
from .record import Record

TASKS = ("spectrum", "sweep-omega", "sweep-delta", "dynamics", "multimode", "thermometry")
VARIANT_CHOICES = VARIANTS + ("all",)


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


def angular(ordinary_hz: float) -> float:
    """Ordinary frequency (Hz) to angular frequency (rad/s)."""
    return 2.0 * math.pi * ordinary_hz


# key -> (type, default); REQUIRED entries have no default
_REQUIRED = object()
_SCHEMA = {
    "task": (str, _REQUIRED),
    "variant": (str, "four_level_geometry"),
    "output": (str, None),
    "ion.mass_amu": (float, 39.962590866),
    "ion.wavelength_nm": (float, 397.0),
    "ion.linewidth_hz": (float, 20e6),
    "field.gauss": (float, 4.4),
    "beams.coupling.rabi_hz": (float, 21.4e6),
    "beams.coupling.detuning_hz": (float, 70e6),
    "beams.cooling.rabi_hz": (float, 3e6),
    "beams.cooling.detuning_hz": (float, 70e6),
    "geometry.beam_angle_deg": (float, 125.0),
    "trap.omega_x_hz": (float, _REQUIRED),
    "trap.omega_y_hz": (float, _REQUIRED),
    "trap.omega_z_hz": (float, _REQUIRED),
    "trap.phi_x_deg": (float, 66.0),
    "trap.phi_y_deg": (float, 71.0),
    "trap.phi_z_deg": (float, 31.0),
    "mode": (str, "y"),
    "sweep.start_hz": (float, _REQUIRED),
    "sweep.stop_hz": (float, _REQUIRED),
    "sweep.points": (int, 57),
    "dynamics.n0": (float, 16.0),
    "dynamics.t_max_s": (float, 7.9e-3),
    "dynamics.points": (int, 80),
    "multimode.modes": (str, "y,z"),
    "thermometry.n_bar": (float, 16.0),
    "thermometry.eta_probe": (float, 0.03),
    "thermometry.rabi_hz": (float, 100e3),
    "thermometry.sideband": (str, "blue"),
    "thermometry.t_max_s": (float, 2e-3),
    "thermometry.points": (int, 120),
}

# keys with no default that a task reads, besides the trap keys of its modes
_TASK_REQUIRES = dict.fromkeys(("spectrum", "sweep-omega", "sweep-delta"),
                               ("sweep.start_hz", "sweep.stop_hz"))


def _parse_value(raw: str):
    for typ in (int, float):
        try:
            return typ(raw)
        except ValueError:
            pass
    return raw


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if not key or not raw:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(raw)
    return values


class RunConfig(Record):
    """Fully-resolved run configuration with provenance."""

    __slots__ = ("values", "applied_defaults")

    def __init__(self, values: dict, applied_defaults: tuple):
        self._set(values=MappingProxyType(dict(values)), applied_defaults=applied_defaults)

    def __reduce__(self):  # a mappingproxy does not pickle
        return type(self), (dict(self.values), self.applied_defaults)

    def __getitem__(self, key):
        return self.values[key]

    @property
    def sha256(self) -> str:  # read from the values: a replaced config's is its own
        import hashlib  # here, its one reader: validate never loads OpenSSL

        v = self.values
        return hashlib.sha256("\n".join(f"{k}={v[k]!r}" for k in sorted(v)).encode()).hexdigest()

    # --- derived physics objects -------------------------------------------
    # each method imports the solver module whose record it builds, so that a
    # task loads only the modules it runs

    @property
    def task(self) -> str:
        return self.values["task"]

    @property
    def output_name(self) -> str:
        return self.values["output"] or f"{self.task}.csv"

    def scheme(self) -> LevelScheme:
        return LevelScheme(gamma=angular(self.values["ion.linewidth_hz"]))

    def variants(self) -> tuple:
        """The model variants the task runs."""
        return VARIANTS if self.values["variant"] == "all" else (self.values["variant"],)

    def eit_config(self, variant: str | None = None) -> "EITConfig":
        from .spectrum import EITConfig

        v = variant or self.values["variant"]
        return EITConfig(
            omega_sigma=angular(self.values["beams.coupling.rabi_hz"]),
            omega_pi=angular(self.values["beams.cooling.rabi_hz"]),
            delta_sigma=angular(self.values["beams.coupling.detuning_hz"]),
            delta_pi=angular(self.values["beams.cooling.detuning_hz"]),
            variant=v,
            b_gauss=self.values["field.gauss"],
            beam_angle=math.radians(self.values["geometry.beam_angle_deg"]),
            scheme=self.scheme(),
        )

    def mode_labels(self) -> list:
        return [m.strip() for m in self.values["multimode.modes"].split(",") if m.strip()]

    def mode_geometry(self, label: str) -> "CoolingGeometry":
        """Mode ``label``'s (omega, eta, cos phi) from the trap, ion and beam-angle keys."""
        from .cooling import geometry_from_angle

        v = self.values
        k = 2.0 * math.pi / (v["ion.wavelength_nm"] * 1e-9)
        dk = 2.0 * k * math.sin(math.radians(v["geometry.beam_angle_deg"]) / 2.0)
        return geometry_from_angle(angular(v[f"trap.omega_{label}_hz"]), dk,
                                   math.radians(v[f"trap.phi_{label}_deg"]),
                                   v["ion.mass_amu"] * ATOMIC_MASS, label)


def resolve(values: dict) -> RunConfig:
    """Validate raw key/value pairs against the schema and apply defaults."""
    for key in values:
        if key not in _SCHEMA:
            import difflib  # on the error path only: at the top it costs each cold run 1.5 ms
            close = difflib.get_close_matches(key, _SCHEMA.keys(), n=1)
            hint = f"; nearest valid key: {close[0]!r}" if close else ""
            raise ConfigError(f"unknown key {key!r}{hint}")
    if "task" not in values:
        raise ConfigError("missing required key 'task'")
    task = values["task"]
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    for key in _TASK_REQUIRES.get(task, ()):
        if key not in values:
            raise ConfigError(f"task {task!r} requires key {key!r}")
    resolved = {}
    applied = []
    for key, (typ, default) in _SCHEMA.items():
        if key in values:
            val = values[key]
            if typ is float and isinstance(val, int):
                val = float(val)
            if not isinstance(val, typ):
                raise ConfigError(
                    f"key {key!r}: expected {typ.__name__}, got {val!r}"
                )
            resolved[key] = val
        elif default is _REQUIRED:
            resolved[key] = None
        else:
            resolved[key] = default
            applied.append(key)
    variant = resolved["variant"]
    if variant not in VARIANT_CHOICES:
        raise ConfigError(f"variant must be one of {VARIANT_CHOICES}, got {variant!r}")
    if variant == "all" and task not in ("sweep-omega", "spectrum"):
        raise ConfigError("variant 'all' is only meaningful for sweep-omega/spectrum tasks")
    if resolved["thermometry.sideband"] not in SIDEBANDS:
        raise ConfigError(f"thermometry.sideband must be one of {SIDEBANDS}")
    if resolved["mode"] not in ("x", "y", "z"):
        raise ConfigError("mode must be one of x, y, z")
    for key, low in (("field.gauss", 0), ("dynamics.n0", 0), ("sweep.points", 2),
                     ("dynamics.points", 2), ("thermometry.points", 2)):
        if resolved[key] < low:
            raise ConfigError(f"{key} must be >= {low}")
    for key, val in resolved.items():
        positive = key.endswith(("_hz", "_s", "_nm", "_amu", ".eta_probe"))
        if positive and val is not None and val <= 0:
            raise ConfigError(f"{key} must be positive")
        if key.endswith("_deg") and val is not None and not (0.0 <= val <= 180.0):
            raise ConfigError(f"{key} must lie in [0, 180] degrees")
    config = RunConfig(values=resolved, applied_defaults=tuple(applied))
    modes = config.mode_labels()
    if not modes or len(set(modes)) < len(modes) or not set(modes) <= {"x", "y", "z"}:
        raise ConfigError("multimode.modes must list distinct modes out of x, y, z")
    reads = {"multimode": modes, "dynamics": [resolved["mode"]], "sweep-delta": [resolved["mode"]]}
    if task == "thermometry":  # it builds a thermal state and its probe, no beams
        from .thermometry import ThermalState, fit_limit

        n_bar, eta = resolved["thermometry.n_bar"], resolved["thermometry.eta_probe"]
        try:
            ThermalState(n_bar).checked(eta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        limit = fit_limit(eta)
        if n_bar > limit:  # inside the model, but within Brent's resolution of its edge
            raise ConfigError(f"thermometry.n_bar = {n_bar!r} is above {limit!r}, "
                              f"the largest the thermal fit brackets at eta_probe = {eta!r}")
    # nan passes every comparison above, and inf all but a sign check; this
    # runs after the thermal state's check, whose message names the bound
    # (n_bar's), and before the beams, whose records would not name the key
    for key, val in resolved.items():
        if _SCHEMA[key][0] is float and val is not None and not math.isfinite(val):
            raise ConfigError(f"{key} must be finite, not {val!r}")
    mass = resolved["ion.mass_amu"] * ATOMIC_MASS
    for key in (f"trap.omega_{label}_hz" for label in reads.get(task, ())):
        if resolved[key] is None:
            raise ConfigError(f"task {task!r} requires key {key!r}")
        if not 2 * mass * angular(resolved[key]) > 0:  # as mode_geometry's a0 computes it
            key = key if mass else "ion.mass_amu"
            raise ConfigError(f"{key} = {resolved[key]!r} is too small: the mode's ground-"
                              "state size a0 = sqrt(hbar / 2 m omega) divides by 0")
    if task != "thermometry":  # every other task builds the beams of its variants
        for v in config.variants():
            try:
                config.eit_config(v).beams()
            except ValueError as exc:
                raise ConfigError(f"variant {v!r}: {exc}") from exc
    return config


def load_config(path) -> RunConfig:
    """Load, parse and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:  # the CLI's usage error, with its own message
        raise
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise ConfigError(f"cannot read config {str(path)!r}: "
                          f"{getattr(exc, 'strerror', None) or exc}") from exc
    return resolve(parse_config_text(text))

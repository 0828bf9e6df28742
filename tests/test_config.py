import math
import sys

import pytest

from eitcool.cli import bundled_config_path
from eitcool.atom import VARIANTS
from eitcool.config import (
    ConfigError,
    RunConfig,
    _level_differences_finite,
    angular,
    load_config,
    parse_config_text,
    resolve,
)
from eitcool.constants import ATOMIC_MASS, HBAR

from conftest import fig2_config

TP = 2 * math.pi

MINIMAL_SWEEP = """
task = sweep-delta
mode = y
trap.omega_x_hz = 1.69e6
trap.omega_y_hz = 1.62e6
trap.omega_z_hz = 3.32e6
sweep.start_hz = 0.5e6
sweep.stop_hz = 4e6
"""


# --------------------------------------------------------------------- parsing


def test_parse_key_value_lines_with_comments():
    values = parse_config_text("a.b = 1.5  # inline\n# full comment\n\nc = text\n")
    assert values == {"a.b": 1.5, "c": "text"}


def test_parse_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("task = spectrum\nnot a key value\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("task = spectrum\ntask = dynamics\n")


def test_empty_value_rejected():
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_text("task =\n")


# ------------------------------------------------------------------ validation


def test_unknown_key_suggests_nearest_valid_key():
    with pytest.raises(ConfigError, match="beams.coupling.rabi_hz"):
        resolve({"task": "dynamics", "beams.coupling.rabi_hx": 21.4e6,
                 "trap.omega_x_hz": 1.69e6, "trap.omega_y_hz": 1.62e6,
                 "trap.omega_z_hz": 3.32e6})


def test_missing_trap_frequency_is_named():
    values = parse_config_text(MINIMAL_SWEEP.replace("trap.omega_y_hz = 1.62e6", ""))
    with pytest.raises(ConfigError, match="trap.omega_y_hz"):
        resolve(values)


def test_only_the_trap_frequencies_of_the_modes_read_are_required():
    text = MINIMAL_SWEEP.replace("trap.omega_x_hz = 1.69e6", "")
    text = text.replace("trap.omega_z_hz = 3.32e6", "")
    assert resolve(parse_config_text(text))["trap.omega_x_hz"] is None
    text = "task = dynamics\nmode = z\ntrap.omega_z_hz = 3.32e6\n"
    assert resolve(parse_config_text(text)).mode_geometry("z").omega == TP * 3.32e6
    with pytest.raises(ConfigError, match="task 'dynamics' requires key 'trap.omega_x_hz'"):
        resolve(parse_config_text(text.replace("mode = z", "mode = x")))


def test_missing_task_rejected():
    with pytest.raises(ConfigError, match="task"):
        resolve({"sweep.start_hz": 1e6})


def test_unknown_task_rejected():
    with pytest.raises(ConfigError, match="task must be one of"):
        resolve({"task": "render"})


def test_unknown_variant_rejected():
    values = parse_config_text(MINIMAL_SWEEP)
    values["variant"] = "five_level"
    with pytest.raises(ConfigError, match="variant"):
        resolve(values)


def test_variant_all_restricted_to_sweep_tasks():
    values = parse_config_text(MINIMAL_SWEEP)
    values["variant"] = "all"
    with pytest.raises(ConfigError, match="'all'"):
        resolve(values)


def test_nonpositive_frequency_rejected():
    values = parse_config_text(MINIMAL_SWEEP)
    values["trap.omega_y_hz"] = -1.62e6
    with pytest.raises(ConfigError, match="must be positive"):
        resolve(values)


def test_angle_range_enforced():
    values = parse_config_text(MINIMAL_SWEEP)
    values["geometry.beam_angle_deg"] = 200.0
    with pytest.raises(ConfigError, match="degrees"):
        resolve(values)


@pytest.mark.parametrize("key, value", [
    ("multimode.modes", "y,w"),
    ("multimode.modes", ","),
    ("multimode.modes", "y,z,y"),
    ("field.gauss", -4.4),
    ("dynamics.t_max_s", -1e-3),
    ("thermometry.t_max_s", 0.0),
    ("ion.wavelength_nm", -397.0),
    ("ion.wavelength_nm", 0.0),
    ("ion.mass_amu", 0.0),
    ("ion.mass_amu", -40.0),
    ("dynamics.n0", -5.0),
    *((key, value) for key in ("sweep.stop_hz", "dynamics.t_max_s", "thermometry.eta_probe",
                               "ion.mass_amu", "field.gauss", "ion.linewidth_hz")
      for value in (math.nan, math.inf)),
])
def test_value_that_run_cannot_use_is_rejected(key, value):
    values = parse_config_text(MINIMAL_SWEEP)
    values[key] = value
    with pytest.raises(ConfigError, match=key):
        resolve(values)


def test_type_mismatch_rejected():
    values = parse_config_text(MINIMAL_SWEEP)
    values["sweep.points"] = "many"
    with pytest.raises(ConfigError, match="sweep.points"):
        resolve(values)


def test_applied_defaults_are_recorded_exactly():
    cfg = resolve(parse_config_text(MINIMAL_SWEEP))
    # every schema key not present in the file is either a recorded default
    # or an unused required field; nothing is silently invented
    from eitcool.config import _REQUIRED, _SCHEMA

    given = set(parse_config_text(MINIMAL_SWEEP))
    for key, (_typ, default) in _SCHEMA.items():
        if key in given:
            assert key not in cfg.applied_defaults
        elif default is _REQUIRED:
            assert cfg.values[key] is None or key in given
        else:
            assert key in cfg.applied_defaults
            assert cfg.values[key] == default


def test_config_hash_tracks_content():
    a = resolve(parse_config_text(MINIMAL_SWEEP))
    b = resolve(parse_config_text(MINIMAL_SWEEP))
    c = resolve(parse_config_text(MINIMAL_SWEEP.replace("4e6", "5e6")))
    assert a.sha256 == b.sha256
    assert a.sha256 != c.sha256


def test_replaced_values_hash_as_resolve_hashes_them():
    # the digest is read from the values: a replaced config does not keep its source's
    a = resolve(parse_config_text("task = thermometry\n"))
    b = resolve(parse_config_text("task = thermometry\nthermometry.n_bar = 2.0\n"))
    replaced = a._replace(values={**a.values, "thermometry.n_bar": 2.0})
    assert replaced.sha256 == b.sha256 != a.sha256


# ----------------------------------------------------------- derived objects


def test_bundled_fig2_echoes_reference_parameters():
    cfg = load_config(bundled_config_path("fig2.cfg"))
    assert cfg.task == "sweep-omega"
    eit = cfg.eit_config(variant="three_level")
    assert eit.omega_sigma == pytest.approx(TP * 21.4e6, rel=1e-12)
    assert eit.omega_pi == pytest.approx(TP * 3e6, rel=1e-12)
    assert eit.delta_sigma == pytest.approx(TP * 70e6, rel=1e-12)
    assert eit.delta_pi == pytest.approx(TP * 70e6, rel=1e-12)


def test_hz_keys_convert_to_angular_frequencies():
    assert angular(1.0) == TP
    cfg = resolve(parse_config_text(MINIMAL_SWEEP))
    assert cfg.mode_geometry("y").omega == pytest.approx(TP * 1.62e6, rel=1e-12)
    assert cfg.scheme().gamma == pytest.approx(TP * 20e6, rel=1e-12)


def test_degree_keys_convert_to_radians():
    cfg = resolve(parse_config_text(MINIMAL_SWEEP))
    assert cfg.mode_geometry("y").cos_phi == pytest.approx(math.cos(math.radians(71.0)), rel=1e-12)
    assert cfg.eit_config().beam_angle == pytest.approx(math.radians(125.0), rel=1e-12)


def test_delta_k_magnitude_from_beam_angle():
    # eta = |delta k| a0 with |delta k| = 2k sin(angle / 2), at the configured
    # wavelength, beam angle and ion mass
    for keys, nm, angle, amu in [("", 397.0, 125.0, 39.962590866),
                                 ("ion.wavelength_nm = 313\ngeometry.beam_angle_deg = 90\n"
                                  "ion.mass_amu = 9.0121831\n", 313.0, 90.0, 9.0121831)]:
        cfg = resolve(parse_config_text(MINIMAL_SWEEP + keys))
        delta_k = 2 * (TP / (nm * 1e-9)) * math.sin(math.radians(angle) / 2)
        a0 = math.sqrt(HBAR / (2 * amu * ATOMIC_MASS * TP * 1.62e6))
        assert cfg.mode_geometry("y").eta == pytest.approx(delta_k * a0, rel=1e-12)


def test_mode_geometry_of_the_bundled_multimode_modes():
    cfg = load_config(bundled_config_path("multimode.cfg"))
    for label, eta_cos_phi in (("y", 0.08076), ("z", 0.14853)):
        geo = cfg.mode_geometry(label)
        assert geo.label == label
        assert geo.eta * geo.cos_phi == pytest.approx(eta_cos_phi, abs=5e-6)


def test_values_are_read_only():
    cfg = load_config(bundled_config_path("thermometry.cfg"))
    with pytest.raises(TypeError):
        cfg.values["thermometry.n_bar"] = 2.0
    assert cfg["thermometry.n_bar"] == 16.0


def test_output_name_defaults_to_task():
    cfg = resolve(parse_config_text(MINIMAL_SWEEP))
    assert cfg.output_name == "sweep-delta.csv"


@pytest.mark.parametrize("variant", VARIANTS)
def test_level_difference_check_agrees_with_the_built_liouvillian(variant):
    # the plain-math check repeats build_system's float operations, so it
    # agrees with L0's diagonal on both sides of the overflow of 2 nu_g - nu_c
    import numpy as np

    from eitcool.liouville import build_liouvillian

    half = 0.5 * sys.float_info.max
    for delta_pi in (TP * 70e6, *(sign * half * (1 + eps) for sign in (1, -1)
                                  for eps in (-1e-15, 0.0, 1e-15)), 1.7e308, -1.7e308):
        eit = fig2_config(variant, delta_pi=delta_pi)
        with np.errstate(over="ignore", invalid="ignore"):
            l0 = build_liouvillian(eit.system()).l0
        assert _level_differences_finite(eit) == np.isfinite(np.diagonal(l0)).all(), delta_pi


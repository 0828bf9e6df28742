import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eitcool
import eitcool.cooling
import eitcool.runner
from eitcool.cli import bundled_config_path, main
from eitcool.config import load_config
from eitcool.liouville import ConvergenceError, DegenerateSteadyStateError
from eitcool.runner import _fmt
from eitcool.thermometry import _cutoff, _edge, fit_limit

TP = 2 * math.pi

BUNDLED = ("fig2.cfg", "fig3.cfg", "fig4.cfg", "multimode.cfg", "thermometry.cfg")

SMALL_SPECTRUM = """
task = spectrum
variant = three_level
sweep.start_hz = 66e6
sweep.stop_hz = 74e6
sweep.points = 9
output = spec.csv
"""

# the task keys of the bundled multimode.cfg and fig4.cfg
_MULTIMODE = "task = multimode\ntrap.omega_y_hz = 1.62e6\ntrap.omega_z_hz = 3.32e6\n"
_DYNAMICS = "task = dynamics\ntrap.omega_y_hz = 1.62e6\n"


@pytest.fixture
def spectrum_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_SPECTRUM)
    return path


def _data_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


# ----------------------------------------------------------------- validate


@pytest.mark.parametrize("name", BUNDLED)
def test_all_bundled_configs_validate(name, capsys):
    assert bundled_config_path(name).exists()
    assert main(["validate", name]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "default applied" in out  # provenance echo of applied defaults


def test_validate_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("task = spectrum\nbeams.coupling.rabi_hx = 1e6\n"
                   "sweep.start_hz = 1e6\nsweep.stop_hz = 2e6\n")
    assert main(["validate", str(bad)]) == 2
    assert "nearest valid key" in capsys.readouterr().err


def test_validate_rejects_a_cooling_beam_along_the_field(tmp_path, capsys):
    # a config that run would reject fails validation (exit 2) when a variant
    # it runs builds beams; thermometry builds none, and three_level's cooling
    # light is pi at any angle
    trap = "trap.omega_x_hz = 1.69e6\ntrap.omega_y_hz = 1.62e6\ntrap.omega_z_hz = 3.32e6\n"
    sweep = "sweep.start_hz = 66e6\nsweep.stop_hz = 74e6\n"
    cases = [
        ("task = dynamics\ngeometry.beam_angle_deg = 180\n" + trap, 2),
        ("task = spectrum\nvariant = all\ngeometry.beam_angle_deg = 0\n" + sweep, 2),
        ("task = thermometry\ngeometry.beam_angle_deg = 180\n", 0),
        ("task = dynamics\nvariant = three_level\ngeometry.beam_angle_deg = 0\n" + trap, 0),
    ]
    paths = []
    for i, (text, code) in enumerate(cases):
        paths.append(tmp_path / f"case{i}.cfg")
        paths[-1].write_text(text)
        assert main(["validate", str(paths[-1])]) == code
    assert main(["run", str(paths[0]), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("along B") == 3 and "four_level_geometry" in err


@pytest.mark.parametrize("keys, message", [
    ("thermometry.n_bar = 500\n",
     "n_bar = 500.0 needs a Fock cutoff of 6914 for tail 1e-06, above the maximum 2000"),
    ("thermometry.n_bar = 100\nthermometry.eta_probe = 0.2\n",
     "first-order sideband model invalid: eta_probe * sqrt(cutoff) >= 0.5"),
    ("thermometry.n_bar = -1\n", "n_bar must be finite and >= 0, not -1.0"),
    ("thermometry.n_bar = nan\n", "n_bar must be finite and >= 0, not nan"),
    ("thermometry.n_bar = inf\n", "n_bar must be finite and >= 0, not inf"),
    ("thermometry.n_bar = 1e16\n", "n_bar = 1e+16 needs a Fock cutoff of 138155105579642743 "
                                   "for tail 1e-06, above the maximum 2000"),
    ("thermometry.n_bar = 1e308\n", f"n_bar = 1e+308 needs a Fock cutoff of {_cutoff(1e308)} "
                                    "for tail 1e-06, above the maximum 2000"),
])
def test_validate_rejects_a_thermal_state_outside_the_model(keys, message, tmp_path, capsys):
    # an n_bar that is negative or not finite, the Fock cutoff cap (also where
    # n_bar / (n_bar + 1) rounds to 1) and the first-order sideband bound,
    # checked before run
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("task = thermometry\n" + keys)
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp_path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "thermometry.csv").exists()


@pytest.mark.parametrize("keys, message", [
    ("task = thermometry\nthermometry.eta_probe = nan\n",
     "thermometry.eta_probe must be finite, not nan"),
    ("task = spectrum\nsweep.start_hz = 60e6\nsweep.stop_hz = inf\n",
     "sweep.stop_hz must be finite, not inf"),
    # checked before the beams are built, whose field record would not name the key
    ("task = spectrum\nsweep.start_hz = 60e6\nsweep.stop_hz = 80e6\nfield.gauss = nan\n",
     "field.gauss must be finite, not nan"),
    ("task = spectrum\nsweep.start_hz = 60e6\nsweep.stop_hz = 80e6\nfield.gauss = inf\n",
     "field.gauss must be finite, not inf"),
    # finite but out of range: unchecked, run wrote eta sqrt(n_ss) < 0 at a
    # negative wavelength, raised ZeroDivisionError or a math domain error at
    # a zero wavelength or a mass <= 0, and wrote n(0) = -5
    (f"{_MULTIMODE}ion.wavelength_nm = -397\n", "ion.wavelength_nm must be positive"),
    (f"{_DYNAMICS}ion.wavelength_nm = 0\n", "ion.wavelength_nm must be positive"),
    (f"{_DYNAMICS}ion.mass_amu = 0\n", "ion.mass_amu must be positive"),
    (f"{_DYNAMICS}ion.mass_amu = -40\n", "ion.mass_amu must be positive"),
    (f"{_DYNAMICS}dynamics.n0 = -5\n", "dynamics.n0 must be >= 0"),
])
def test_validate_and_run_reject_a_non_finite_value(keys, message, tmp_path, capsys):
    # nan passes every comparison, inf all but a sign check: without a finite
    # check, run fails in the solver (eta_probe) or writes NaN rows (stop_hz)
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(keys + "output = nonfinite.csv\n")
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp_path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "nonfinite.csv").exists()


@pytest.mark.parametrize("eta", ["0", "-0.03"])
def test_validate_and_run_reject_a_probe_eta_that_is_not_positive(eta, tmp_path, capsys):
    # eta <= 0 passes the sideband bound eta * sqrt(cutoff) < 0.5: unchecked, run
    # exits 0 with a meaningless fit (n_bar 0.001 at eta 0, 16.00000005 at -0.03)
    cfg = tmp_path / "eta.cfg"
    cfg.write_text(f"task = thermometry\nthermometry.eta_probe = {eta}\noutput = eta.csv\n")
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp_path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: thermometry.eta_probe must be positive\n"
    assert not (tmp_path / "eta.csv").exists()


def test_validate_and_run_accept_a_thermal_state_near_the_model_edge(tmp_path):
    # n_bar = 18.5 lies above the last fit grid point the model represents at
    # the default eta_probe (18.37), below the largest n_bar it does (19.63)
    cfg = tmp_path / "warm.cfg"
    cfg.write_text("task = thermometry\nthermometry.n_bar = 18.5\noutput = t.csv\n")
    assert main(["validate", str(cfg)]) == 0
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    meta = (tmp_path / "t.csv.meta").read_text()
    fit = float(next(l for l in meta.splitlines()
                     if l.startswith("result.fit_n_bar")).split("=")[1])
    assert fit == pytest.approx(18.5, rel=1e-8)


@pytest.mark.parametrize("below, code", [(1e-7, 2), (1e-6, 0)])
def test_validate_and_run_agree_within_brents_resolution_of_the_edge(below, code, tmp_path,
                                                                     capsys):
    # the largest n_bar the model represents at the default eta_probe is
    # 19.626452164491493; 1e-7 below it lies inside Brent's resolution there
    # (5.8e-7), where the fit cannot tell its minimum from one at the edge:
    # validate rejects it, naming the key, as run does before fitting.  1e-6
    # below it fits.
    n_bar = _edge(0.03) - below
    assert (n_bar > fit_limit(0.03)) == (code == 2)
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(f"task = thermometry\nthermometry.n_bar = {n_bar!r}\noutput = e.csv\n")
    for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp_path)]):
        assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err == (f"error: thermometry.n_bar = {n_bar!r} is above {fit_limit(0.03)!r}, "
                       "the largest the thermal fit brackets at eta_probe = 0.03\n") * 2
        assert not (tmp_path / "e.csv").exists()
    else:
        assert err == ""
        meta = (tmp_path / "e.csv.meta").read_text()
        fit = float(next(l for l in meta.splitlines()
                         if l.startswith("result.fit_n_bar")).split("=")[1])
        assert fit == pytest.approx(n_bar, rel=1e-8)


def test_missing_config_file_is_a_usage_error(capsys):
    assert main(["run", "no_such_file.cfg"]) == 2
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------- constants


def test_constants_prints_frozen_table(capsys):
    assert main(["constants"]) == 0
    out = capsys.readouterr().out
    assert "hbar_J_s = 1.054571817e-34" in out
    assert "version = 'codata2018-v1'" in out


# ---------------------------------------------------------------------- run


def test_run_writes_csv_with_provenance_and_sidecar(spectrum_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(spectrum_cfg), "--out", str(out), "--verbose"]) == 0
    assert "wrote" in capsys.readouterr().out
    csv = out / "spec.csv"
    lines = csv.read_text().splitlines()
    assert lines[0] == "# eitcool spectrum"
    assert lines[1].startswith("# config_sha256 = ")
    assert lines[2] == "# constants = codata2018-v1"
    assert lines[3] == "variant,delta_pi_hz,W_per_s,rho_P_total"
    assert len(lines) == 4 + 9

    meta = (out / "spec.csv.meta").read_text()
    assert "task = 'spectrum'" in meta
    assert "field.gauss = 4.4  # default" in meta


def test_run_spectrum_rows_are_physical(spectrum_cfg, tmp_path):
    out = tmp_path / "out"
    main(["run", str(spectrum_cfg), "--out", str(out)])
    rows = [l.split(",") for l in _data_lines(out / "spec.csv")[1:]]
    detunings = [float(r[1]) for r in rows]
    w = [float(r[2]) for r in rows]
    assert detunings == sorted(detunings)
    assert all(v >= -1e-10 for v in w)
    # dark point at 70 MHz is the smallest rate on this grid
    assert np.argmin(w) == detunings.index(70e6)


def test_rerun_is_bitwise_identical(spectrum_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", str(spectrum_cfg), "--out", str(out1)])
    main(["run", str(spectrum_cfg), "--out", str(out2)])
    assert (out1 / "spec.csv").read_bytes() == (out2 / "spec.csv").read_bytes()
    assert (out1 / "spec.csv.meta").read_bytes() == (out2 / "spec.csv.meta").read_bytes()


def test_run_thermometry_reports_fit_in_sidecar(tmp_path):
    cfg = tmp_path / "therm.cfg"
    cfg.write_text("task = thermometry\nthermometry.n_bar = 2.0\n"
                   "thermometry.points = 40\noutput = t.csv\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    meta = (out / "t.csv.meta").read_text()
    fit = float(next(l for l in meta.splitlines()
                     if l.startswith("result.fit_n_bar")).split("=")[1])
    assert fit == pytest.approx(2.0, rel=0.05)


def test_hz_columns_equal_the_configured_values(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "fig2.cfg", "--out", str(out)]) == 0
    assert main(["run", "multimode.cfg", "--out", str(out)]) == 0
    cfg = load_config(bundled_config_path("fig2.cfg"))
    grid = np.linspace(cfg["sweep.start_hz"], cfg["sweep.stop_hz"], cfg["sweep.points"])
    rows = [l.split(",") for l in _data_lines(out / "fig2.csv")[1:]]
    for variant in ("three_level", "four_level_ideal", "four_level_geometry"):
        omega_hz = [float(r[1]) for r in rows if r[0] == variant]
        assert omega_hz == grid.tolist()
    cfg = load_config(bundled_config_path("multimode.cfg"))
    for row in (l.split(",") for l in _data_lines(out / "multimode.csv")[1:]):
        assert float(row[1]) == cfg[f"trap.omega_{row[0]}_hz"]


def test_multimode_requires_only_the_trap_frequencies_of_its_modes(tmp_path, capsys):
    # multimode.cfg cools y and z: without trap.omega_x_hz it runs to the same rows,
    # and without trap.omega_y_hz it exits 2 naming that key
    text = bundled_config_path("multimode.cfg").read_text()
    assert "trap.omega_x_hz = 1.69e6\n" in text and "trap.omega_y_hz = 1.62e6\n" in text
    no_x, no_y = tmp_path / "no_x.cfg", tmp_path / "no_y.cfg"
    no_x.write_text(text.replace("trap.omega_x_hz = 1.69e6\n", ""))
    no_y.write_text(text.replace("trap.omega_y_hz = 1.62e6\n", ""))
    assert main(["validate", str(no_x)]) == 0
    assert main(["run", str(no_x), "--out", str(tmp_path / "no_x")]) == 0
    assert main(["run", "multimode.cfg", "--out", str(tmp_path / "bundled")]) == 0
    rows = _data_lines(tmp_path / "no_x" / "multimode.csv")
    assert len(rows) == 3 and rows == _data_lines(tmp_path / "bundled" / "multimode.csv")
    capsys.readouterr()
    assert main(["validate", str(no_y)]) == 2
    assert main(["run", str(no_y), "--out", str(tmp_path / "no_y")]) == 2
    err = capsys.readouterr().err
    assert err.count("task 'multimode' requires key 'trap.omega_y_hz'") == 2


def test_sweep_omega_reports_failed_points(tmp_path, monkeypatch):
    solve = eitcool.cooling.scattering_rates

    def fail_above_2mhz(config, detunings):
        # W at delta_pi -/+ omega: fail both samples of the 3 MHz mode
        spectrum = solve(config, detunings)
        errors = tuple(
            DegenerateSteadyStateError("injected")
            if abs(d - config.delta_pi) > TP * 2.5e6 else error
            for d, error in zip(spectrum.detuning_pi.ravel(), spectrum.errors)
        )
        return spectrum._replace(errors=errors)

    monkeypatch.setattr(eitcool.cooling, "scattering_rates", fail_above_2mhz)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("task = sweep-omega\nvariant = three_level\nsweep.start_hz = 1e6\n"
                   "sweep.stop_hz = 3e6\nsweep.points = 3\noutput = s.csv\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    n_ss = [r.split(",")[2] for r in _data_lines(out / "s.csv")[1:]]
    assert n_ss[2] == "nan" and n_ss[0] != "nan"
    meta = (out / "s.csv.meta").read_text()
    assert "result.failed_points = 1" in meta
    # one line per failed point: variant, swept value as the CSV writes it, error
    assert _data_lines(out / "s.csv")[3].split(",")[1] == "3000000.0"
    assert [line for line in meta.splitlines() if line.startswith("result.failed_point.")] == [
        "result.failed_point.2 = three_level, 3000000.0 Hz, DegenerateSteadyStateError: injected"]


def test_sweep_delta_names_its_failed_points(tmp_path, monkeypatch):
    solve = eitcool.cooling.scattering_rates

    def fail_strong_coupling(config, detunings):
        # one coupling Rabi frequency per shift: fail the two largest shifts
        spectrum = solve(config, detunings)
        strong = np.broadcast_to(config.omega_sigma, spectrum.w.shape) > TP * 32e6
        errors = tuple(ConvergenceError("injected\non two lines") if bad else error
                       for bad, error in zip(strong.ravel(), spectrum.errors))
        return spectrum._replace(errors=errors)

    monkeypatch.setattr(eitcool.cooling, "scattering_rates", fail_strong_coupling)
    cfg = tmp_path / "delta.cfg"
    cfg.write_text("task = sweep-delta\nvariant = three_level\nsweep.start_hz = 0.5e6\n"
                   "sweep.stop_hz = 4e6\nsweep.points = 11\ntrap.omega_y_hz = 1.62e6\n"
                   "output = d.csv\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = [r.split(",") for r in _data_lines(out / "d.csv")[1:]]
    failed = [i for i, r in enumerate(rows) if r[1] == "nan"]
    assert failed == [9, 10]
    meta = (out / "d.csv.meta").read_text().splitlines()
    assert "result.failed_points = 2" in meta
    assert [line for line in meta if line.startswith("result.failed_point.")] == [
        f"result.failed_point.{i:02d} = three_level, {rows[i][0]} Hz, "
        "ConvergenceError: injected on two lines" for i in failed]


def test_run_failure_names_the_error_type(spectrum_cfg, tmp_path, monkeypatch, capsys):
    solve = eitcool.runner.scattering_rates

    def fail_first_point(config, detunings):
        spectrum = solve(config, detunings)
        error = DegenerateSteadyStateError("steady state not unique (injected)")
        return spectrum._replace(errors=(error,) + spectrum.errors[1:])

    monkeypatch.setattr(eitcool.runner, "scattering_rates", fail_first_point)
    assert main(["run", str(spectrum_cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: DegenerateSteadyStateError: variant three_level, delta_pi/2pi = 66000000.0 Hz: "
        "steady state not unique (injected)\n"
    )


def test_spectrum_failure_names_the_variant_and_the_first_failed_point(
    tmp_path, monkeypatch, capsys
):
    solve = eitcool.runner.scattering_rates

    def fail_two_ideal_points(config, detunings):
        spectrum = solve(config, detunings)
        if config.variant != "four_level_ideal":
            return spectrum
        errors = list(spectrum.errors)
        errors[4] = ConvergenceError("injected at 70 MHz")
        errors[6] = DegenerateSteadyStateError("injected at 72 MHz")
        return spectrum._replace(errors=tuple(errors))

    monkeypatch.setattr(eitcool.runner, "scattering_rates", fail_two_ideal_points)
    cfg = tmp_path / "all.cfg"
    cfg.write_text(SMALL_SPECTRUM.replace("variant = three_level", "variant = all"))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: ConvergenceError: variant four_level_ideal, delta_pi/2pi = 70000000.0 Hz: "
        "injected at 70 MHz\n"
    )


@pytest.mark.parametrize("name, failed, label", [
    # W at delta_pi - omega_y, delta_pi - omega_z, delta_pi + omega_y, delta_pi + omega_z
    ("multimode.cfg", (1, 2), "y"),
    ("multimode.cfg", (3,), "z"),
    ("fig4.cfg", (0, 1), "y"),
])
def test_mode_failure_names_the_mode(name, failed, label, tmp_path, monkeypatch, capsys):
    solve = eitcool.cooling.scattering_rates

    def fail_samples(config, detunings):
        spectrum = solve(config, detunings)
        errors = [DegenerateSteadyStateError("injected") if i in failed else error
                  for i, error in enumerate(spectrum.errors)]
        return spectrum._replace(errors=tuple(errors))

    monkeypatch.setattr(eitcool.cooling, "scattering_rates", fail_samples)
    assert main(["run", name, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: DegenerateSteadyStateError: mode '{label}': injected\n"
    )


def _raise_index_error(config, detunings):
    return [][0]


def test_unexpected_failure_prints_its_traceback_only_when_verbose(
    spectrum_cfg, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(eitcool.runner, "scattering_rates", _raise_index_error)
    assert main(["run", str(spectrum_cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: IndexError: list index out of range\n"
    assert main(["run", str(spectrum_cfg), "--out", str(tmp_path), "--verbose"]) == 1
    first, *trace = capsys.readouterr().err.splitlines()
    assert first == "error: IndexError: list index out of range"
    assert trace[0] == "Traceback (most recent call last):"
    assert "in _raise_index_error" in "\n".join(trace)
    assert trace[-1] == "IndexError: list index out of range"


def test_fmt_writes_numpy_floats_as_plain_decimals():
    assert _fmt(np.float64(0.1)) == "0.1"
    assert _fmt(0.1) == "0.1"
    assert _fmt(True) == "True"


def test_bundled_csvs_hold_no_numpy_reprs(tmp_path):
    for name in BUNDLED:
        assert main(["run", name, "--out", str(tmp_path)]) == 0
    for path in tmp_path.glob("*.csv"):
        cells = [cell for line in _data_lines(path) for cell in line.split(",")]
        assert not [cell for cell in cells if "np." in cell], path.name


def test_bundled_runs_load_no_scipy(tmp_path):
    # the runtime is numpy alone; scipy is a test dependency, for the oracles
    script = (
        "import sys\n"
        "import eitcool, eitcool.cli\n"
        f"for name in {BUNDLED!r}:\n"
        f"    assert eitcool.cli.main(['run', name, '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(eitcool.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_import_and_validate_build_no_model_structure():
    # the coupling and superoperator structures, and the module that builds
    # them, are loaded by a model's first build, not at import; validating a
    # config (load_config) builds beams only
    script = (
        "import pathlib, sys, eitcool\n"
        "from eitcool.config import load_config\n"
        "configs = sorted((pathlib.Path(eitcool.__file__).parent / 'configs').glob('*.cfg'))\n"
        "for path in configs:\n"
        "    load_config(path)\n"
        "print(len(configs), 'eitcool.structure' in sys.modules)\n"
    )
    src = str(Path(eitcool.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == [str(len(BUNDLED)), "False"]


def test_cli_import_loads_no_dataclasses_and_builds_no_fit_grid():
    # a frozen dataclass generates and compiles its methods when its class is
    # made, which a cold eitcool run pays for at import; the thermometry fit
    # grid is built by the first fit, so runs of other tasks do not pay for it
    script = (
        "import sys\n"
        "import numpy, argparse, hashlib\n"
        "before = set(sys.modules)\n"
        "import eitcool.cli, eitcool.runner\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'dataclasses'))\n"
        "print(eitcool.thermometry._fit_grid.cache_info().currsize)\n"
    )
    src = str(Path(eitcool.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "0"]

"""Task orchestration and deterministic CSV/report emission.

Each ``_run_*`` imports the modules of its task, so a run loads only those.
"""

from pathlib import Path

import numpy as np

from .config import RunConfig, angular
from .constants import CONSTANTS_VERSION


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(value, float):
        return repr(float(value))  # numpy 2 reprs np.float64(x) as "np.float64(x)"
    return str(value)


def _sweep_hz(config: RunConfig) -> np.ndarray:
    """The configured sweep grid in Hz, written to the CSV as given."""
    return np.linspace(
        config["sweep.start_hz"], config["sweep.stop_hz"], config["sweep.points"]
    )


def _failure_meta(swept) -> dict:
    """The count of failed points of ``swept`` (variant, value in Hz, report) and,
    keyed by its CSV row, each one's variant, value as the CSV writes it and error."""
    width = len(str(len(swept)))
    meta = {f"failed_point.{row:0{width}d}": f"{variant}, {_fmt(float(hz))} Hz, "
            f"{type(pt.error).__name__}: {pt.error}".replace("\n", " ")
            for row, (variant, hz, pt) in enumerate(swept) if pt.error is not None}
    return {**meta, "failed_points": str(len(meta))} if meta else {}


def _run_spectrum(config: RunConfig):
    from .spectrum import scattering_rates

    grid_hz = _sweep_hz(config)
    header = ["variant", "delta_pi_hz", "W_per_s", "rho_P_total"]
    rows = []
    for variant in config.variants():
        spectrum = scattering_rates(config.eit_config(variant)._replace(delta_pi=angular(grid_hz)))
        for hz, error in zip(grid_hz, spectrum.errors):
            if error is not None:  # raised as its own type, led by where it happened
                where = f"variant {variant}, delta_pi/2pi = {_fmt(float(hz))} Hz"
                raise type(error)(f"{where}: {error}") from error
        rows += [[variant, float(hz), w, p]
                 for hz, w, p in zip(grid_hz, spectrum.w, spectrum.rho_p_total)]
    return header, rows, {}


def _run_sweep_omega(config: RunConfig):
    from .cooling import steady_state_n_sweep

    grid_hz = _sweep_hz(config)
    header = ["variant", "omega_hz", "n_ss"]
    swept = []
    for variant in config.variants():
        eit = config.eit_config(variant=variant)
        points = steady_state_n_sweep(eit, omegas=angular(grid_hz))
        swept += [(variant, hz, pt) for hz, pt in zip(grid_hz, points)]
    rows = [[variant, float(hz), pt.n_ss] for variant, hz, pt in swept]
    return header, rows, _failure_meta(swept)


def _run_sweep_delta(config: RunConfig):
    from .cooling import steady_state_n_sweep

    grid_hz = _sweep_hz(config)
    geometry = config.mode_geometry(config["mode"])
    points = steady_state_n_sweep(
        config.eit_config(), deltas=angular(grid_hz), geometry=geometry
    )
    header = ["delta_hz", "n_ss"]
    rows = [[float(hz), pt.n_ss] for hz, pt in zip(grid_hz, points)]
    return header, rows, _failure_meta([(config["variant"], hz, pt)
                                        for hz, pt in zip(grid_hz, points)])


def _run_dynamics(config: RunConfig):
    from .cooling import evolve_n, multimode_report

    geometry = config.mode_geometry(config["mode"])
    (report,) = multimode_report(config.eit_config(), [geometry])
    times = np.linspace(0.0, config["dynamics.t_max_s"], config["dynamics.points"])
    header = ["t_s", "n_bar"]
    rows = [[float(t), evolve_n(report.a_plus, report.a_minus, config["dynamics.n0"], float(t))]
            for t in times]
    meta = {
        "a_plus_per_s": _fmt(report.a_plus),
        "a_minus_per_s": _fmt(report.a_minus),
        "time_constant_s": _fmt(report.time_constant),
    }
    return header, rows, meta


def _run_multimode(config: RunConfig):
    from .cooling import multimode_report

    geometries = [config.mode_geometry(label) for label in config.mode_labels()]
    reports = multimode_report(config.eit_config(), geometries)
    header = [
        "mode", "omega_hz", "a_plus_per_s", "a_minus_per_s", "rate_per_s",
        "n_ss", "time_constant_s", "eta_sqrt_nss", "cooled",
    ]
    rows = [[rep.label, config[f"trap.omega_{rep.label}_hz"], rep.a_plus, rep.a_minus, rep.rate,
             rep.n_ss, rep.time_constant, rep.lamb_dicke_check(geo.eta), rep.cooled]
            for geo, rep in zip(geometries, reports)]
    return header, rows, {}


def _run_thermometry(config: RunConfig):
    from .thermometry import (
        ThermalState,
        fit_thermal,
        sideband_flops,
        sideband_ratio_n,
        time_averaged_excitation,
    )

    state = ThermalState.from_n_bar(config["thermometry.n_bar"])
    eta = config["thermometry.eta_probe"]
    omega0 = angular(config["thermometry.rabi_hz"])
    times = np.linspace(0.0, config["thermometry.t_max_s"], config["thermometry.points"])
    record = sideband_flops(state, eta, omega0, config["thermometry.sideband"], times)
    fit = fit_thermal(record, eta, omega0)
    meta = {"fit_n_bar": _fmt(fit.n_bar), "fit_residual": _fmt(fit.residual)}
    p_red = time_averaged_excitation(state, "red")
    p_blue = time_averaged_excitation(state, "blue")
    if p_red < p_blue:
        meta["ratio_n_bar"] = _fmt(sideband_ratio_n(p_red, p_blue))
    header = ["t_s", "excitation"]
    rows = [[float(t), float(p)] for t, p in zip(record.times, record.excitation)]
    return header, rows, meta


_TASK_RUNNERS = {
    "spectrum": _run_spectrum,
    "sweep-omega": _run_sweep_omega,
    "sweep-delta": _run_sweep_delta,
    "dynamics": _run_dynamics,
    "multimode": _run_multimode,
    "thermometry": _run_thermometry,
}


def run(config: RunConfig, out_dir, verbose: bool = False) -> Path:
    """Execute the configured task; write <output>.csv and a .meta sidecar."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header, rows, extra_meta = _TASK_RUNNERS[config.task](config)

    csv_path = out_dir / config.output_name
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(f"# eitcool {config.task}\n")
        fh.write(f"# config_sha256 = {config.sha256}\n")
        fh.write(f"# constants = {CONSTANTS_VERSION}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    meta_path = csv_path.with_suffix(csv_path.suffix + ".meta")
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(f"config_sha256 = {config.sha256}\n")
        fh.write(f"constants = {CONSTANTS_VERSION}\n")
        for key in sorted(config.values):
            marker = "  # default" if key in config.applied_defaults else ""
            fh.write(f"{key} = {config.values[key]!r}{marker}\n")
        for key in sorted(extra_meta):
            fh.write(f"result.{key} = {extra_meta[key]}\n")

    if verbose:
        print(f"wrote {csv_path} ({len(rows)} rows) and {meta_path}")
    return csv_path

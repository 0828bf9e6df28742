"""Output checks: every expected answer is computed here or in ``reference``.

Each check returns a list of failure messages; an empty list means the
outputs are correct.  Parameters are read from the ``.meta`` sidecar, which
lists every resolved config key, after confirming that each key set in the
bundled ``.cfg`` file appears there with the same value.
"""

from __future__ import annotations

import ast
import math

import numpy as np

import reference as ref

RTOL = 1e-9          # program vs reference, for rates and phonon numbers
TIME_RTOL = 1e-12    # closed-form n(t) from the .meta rates
FLOP_ATOL = 2e-6     # program truncates the thermal tail at 1e-6
FIT_RTOL = 0.05      # thermal fit recovers n_bar
FIG2_OPT_RTOL = 0.10
FIG3_OPT_RTOL = 0.15
FANO_RTOL = 0.02
DARK_RTOL = 1e-3     # dark point at delta_pi = delta_sigma, in units of the shift


def parse_cfg(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, raw = (p.strip() for p in line.split("=", 1))
            for conv in (int, float):
                try:
                    raw = conv(raw)
                    break
                except ValueError:
                    pass
            out[key] = raw
    return out


def parse_meta(text: str):
    """(config values, result values) from a .meta sidecar."""
    values, results = {}, {}
    for line in text.splitlines():
        key, raw = (p.strip() for p in line.split("=", 1))
        raw = raw.split("  # default", 1)[0]
        if key.startswith("result."):
            results[key[len("result."):]] = raw
        elif key not in ("config_sha256", "constants"):
            values[key] = ast.literal_eval(raw)
    return values, results


def parse_csv(text: str):
    lines = text.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    return body[0].split(","), [row.split(",") for row in body[1:]]


def _close(got: float, want: float, rtol: float, floor: float = 0.0) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= rtol * max(abs(want), floor)


def _hz(x: float) -> float:
    return ref.TWO_PI * x


def laser_params(values: dict, variant: str, omega_sigma: float | None = None) -> dict:
    """Reference-solver keyword arguments for one resolved config."""
    return dict(
        variant=variant,
        omega_sigma=omega_sigma if omega_sigma is not None
        else _hz(values["beams.coupling.rabi_hz"]),
        omega_pi=_hz(values["beams.cooling.rabi_hz"]),
        delta_sigma=_hz(values["beams.coupling.detuning_hz"]),
        delta_pi=_hz(values["beams.cooling.detuning_hz"]),
        gamma=_hz(values["ion.linewidth_hz"]),
        b_gauss=values["field.gauss"],
        beam_angle=math.radians(values["geometry.beam_angle_deg"]),
    )


def mode_prefactor(values: dict, label: str):
    omega = _hz(values[f"trap.omega_{label}_hz"])
    eta, pref = ref.lamb_dicke_prefactor(values["ion.wavelength_nm"],
                                         values["geometry.beam_angle_deg"],
                                         values["ion.mass_amu"], omega,
                                         values[f"trap.phi_{label}_deg"])
    return omega, eta, pref


def _grid_ok(got, start, stop, points, name, fails):
    want = np.linspace(start, stop, points)
    if len(got) != points or not np.allclose(got, want, rtol=1e-12, atol=0.0):
        fails.append(f"{name}: sweep grid differs from linspace({start}, {stop}, {points})")
        return False
    return True


def _check_fig2(values, header, rows, rng, fails):
    if header != ["variant", "omega_hz", "n_ss"]:
        fails.append(f"fig2: header {header}")
        return
    variants = ("three_level", "four_level_ideal", "four_level_geometry")
    shift = ref.ac_stark_shift(_hz(values["beams.coupling.rabi_hz"]),
                               _hz(values["beams.coupling.detuning_hz"]))
    for variant in variants:
        vrows = [r for r in rows if r[0] == variant]
        omegas = [float(r[1]) for r in vrows]
        if not _grid_ok(omegas, values["sweep.start_hz"], values["sweep.stop_hz"],
                        values["sweep.points"], f"fig2 {variant}", fails):
            continue
        n_ss = [float(r[2]) for r in vrows]
        # the oblique-beam Floquet reference is costly: check a seeded sample
        picks = (range(len(vrows)) if variant != "four_level_geometry"
                 else rng.choice(len(vrows), size=6, replace=False))
        params = laser_params(values, variant)
        for i in picks:
            a_plus, a_minus = ref.rate_coefficients(params, _hz(omegas[i]), 1.0)
            want = ref.steady_state_n(a_plus, a_minus)
            if not _close(n_ss[i], want, RTOL):
                fails.append(f"fig2 {variant} omega={omegas[i]:.6g} Hz: "
                             f"n_ss {n_ss[i]!r} vs reference {want!r}")
        best = _hz(omegas[int(np.argmin(n_ss))])
        if abs(best - shift) > FIG2_OPT_RTOL * shift:
            fails.append(f"fig2 {variant}: optimum {best / ref.TWO_PI:.4g} Hz not within "
                         f"10% of the AC Stark shift {shift / ref.TWO_PI:.4g} Hz")


def _check_fig3(values, header, rows, rng, fails):
    if header != ["delta_hz", "n_ss"]:
        fails.append(f"fig3: header {header}")
        return
    deltas = [float(r[0]) for r in rows]
    n_ss = [float(r[1]) for r in rows]
    if not _grid_ok(deltas, values["sweep.start_hz"], values["sweep.stop_hz"],
                    values["sweep.points"], "fig3", fails):
        return
    delta_sigma = _hz(values["beams.coupling.detuning_hz"])
    for i in rng.choice(len(rows), size=6, replace=False):
        d = _hz(deltas[i])
        # coupling Rabi frequency whose light shift is d: inverse of ac_stark_shift
        omega_sigma = 2.0 * math.sqrt(d * (d + abs(delta_sigma)))
        params = laser_params(values, values["variant"], omega_sigma=omega_sigma)
        omega, _, pref = mode_prefactor(values, values["mode"])
        a_plus, a_minus = ref.rate_coefficients(params, omega, pref)
        want = ref.steady_state_n(a_plus, a_minus)
        if not _close(n_ss[i], want, RTOL):
            fails.append(f"fig3 delta={deltas[i]:.6g} Hz: n_ss {n_ss[i]!r} vs reference {want!r}")
    mode_hz = values[f"trap.omega_{values['mode']}_hz"]
    best = deltas[int(np.argmin(n_ss))]
    if abs(best - mode_hz) > FIG3_OPT_RTOL * mode_hz:
        fails.append(f"fig3: optimum shift {best:.4g} Hz not within 15% of the "
                     f"mode frequency {mode_hz:.4g} Hz")


def _check_fig4(values, results, header, rows, fails):
    if header != ["t_s", "n_bar"]:
        fails.append(f"fig4: header {header}")
        return
    times = [float(r[0]) for r in rows]
    if not _grid_ok(times, 0.0, values["dynamics.t_max_s"], values["dynamics.points"],
                    "fig4", fails):
        return
    a_plus, a_minus = float(results["a_plus_per_s"]), float(results["a_minus_per_s"])
    omega, _, pref = mode_prefactor(values, values["mode"])
    want_plus, want_minus = ref.rate_coefficients(laser_params(values, values["variant"]),
                                                  omega, pref)
    if not (_close(a_plus, want_plus, RTOL) and _close(a_minus, want_minus, RTOL)):
        fails.append(f"fig4: A+/A- {a_plus!r}/{a_minus!r} vs reference "
                     f"{want_plus!r}/{want_minus!r}")
    if not _close(float(results["time_constant_s"]), 1.0 / (a_minus - a_plus), TIME_RTOL):
        fails.append("fig4: time constant is not 1/(A- - A+)")
    n0 = values["dynamics.n0"]
    for t, row in zip(times, rows):
        want = ref.n_bar_closed_form(a_plus, a_minus, n0, t)
        if not _close(float(row[1]), want, TIME_RTOL, floor=1e-3):
            fails.append(f"fig4 t={t!r}: n_bar {row[1]} vs closed form {want!r}")


def _check_multimode(values, header, rows, fails):
    labels = [m.strip() for m in values["multimode.modes"].split(",") if m.strip()]
    if header[:4] != ["mode", "omega_hz", "a_plus_per_s", "a_minus_per_s"]:
        fails.append(f"multimode: header {header}")
        return
    if [r[0] for r in rows] != labels:
        fails.append(f"multimode: modes {[r[0] for r in rows]} vs config {labels}")
        return
    params = laser_params(values, values["variant"])
    for row in rows:
        rec = dict(zip(header, row))
        omega, eta, pref = mode_prefactor(values, rec["mode"])
        a_plus, a_minus = ref.rate_coefficients(params, omega, pref)
        n_ss = ref.steady_state_n(a_plus, a_minus)
        want = {
            "omega_hz": omega / ref.TWO_PI, "a_plus_per_s": a_plus,
            "a_minus_per_s": a_minus, "rate_per_s": a_minus - a_plus, "n_ss": n_ss,
            "time_constant_s": 1.0 / (a_minus - a_plus) if a_minus > a_plus else math.inf,
            "eta_sqrt_nss": eta * math.sqrt(n_ss),
        }
        for key, value in want.items():
            if not _close(float(rec[key]), value, RTOL):
                fails.append(f"multimode {rec['mode']} {key}: {rec[key]} vs reference {value!r}")
        if rec["cooled"] != str(a_minus > a_plus):
            fails.append(f"multimode {rec['mode']}: cooled flag {rec['cooled']}")


def _check_thermometry(values, results, header, rows, fails):
    if header != ["t_s", "excitation"]:
        fails.append(f"thermometry: header {header}")
        return
    times = [float(r[0]) for r in rows]
    if not _grid_ok(times, 0.0, values["thermometry.t_max_s"], values["thermometry.points"],
                    "thermometry", fails):
        return
    n_bar = values["thermometry.n_bar"]
    want = ref.thermal_flops(n_bar, values["thermometry.eta_probe"],
                             _hz(values["thermometry.rabi_hz"]), times,
                             values["thermometry.sideband"])
    got = np.array([float(r[1]) for r in rows])
    worst = float(np.max(np.abs(got - want)))
    if worst > FLOP_ATOL:
        fails.append(f"thermometry: flops deviate from sum p_n sin^2 by {worst:.2e}")
    fit = float(results["fit_n_bar"])
    if abs(fit - n_bar) > FIT_RTOL * n_bar:
        fails.append(f"thermometry: fit n_bar {fit!r} not within 5% of {n_bar}")


def check_figure_outputs(outputs: dict, cfg_texts: dict, rng) -> list:
    """Check the CSV and .meta of each bundled config.

    ``outputs`` maps a config stem (fig2, ...) to (csv text, meta text);
    ``cfg_texts`` maps it to the text of the bundled ``.cfg`` file.
    """
    fails: list = []
    for name, (csv_text, meta_text) in sorted(outputs.items()):
        values, results = parse_meta(meta_text)
        for key, value in parse_cfg(cfg_texts[name]).items():
            if values.get(key) != value:
                fails.append(f"{name}: .meta has {key} = {values.get(key)!r}, config {value!r}")
        header, rows = parse_csv(csv_text)
        expected_rows = {
            "fig2": values["sweep.points"] * 3,
            "fig3": values["sweep.points"],
            "fig4": values["dynamics.points"],
            "multimode": len([m for m in values["multimode.modes"].split(",") if m.strip()]),
            "thermometry": values["thermometry.points"],
        }[name]
        if len(rows) != expected_rows:
            fails.append(f"{name}: {len(rows)} rows, config asks for {expected_rows}")
            continue
        if name == "fig2":
            _check_fig2(values, header, rows, rng, fails)
        elif name == "fig3":
            if "failed_points" in results:
                fails.append(f"fig3: {results['failed_points']} failed points")
            _check_fig3(values, header, rows, rng, fails)
        elif name == "fig4":
            _check_fig4(values, results, header, rows, fails)
        elif name == "multimode":
            _check_multimode(values, header, rows, fails)
        else:
            _check_thermometry(values, results, header, rows, fails)
    return fails


def check_tuning_op(params: dict, modes, reports) -> list:
    """One multimode report against reference rates.

    ``modes`` holds (label, omega, eta, cos_phi) tuples, ``reports`` the
    program's per-mode (label, omega, a_plus, a_minus).
    """
    fails = []
    if [r[0] for r in reports] != [m[0] for m in modes]:
        return [f"tuning: report labels {[r[0] for r in reports]}"]
    for (label, omega, eta, cos_phi), (_, _, a_plus, a_minus) in zip(modes, reports):
        want_plus, want_minus = ref.rate_coefficients(params, omega, (eta * cos_phi) ** 2)
        floor = 1e-3 * max(abs(want_plus), abs(want_minus))
        if not (_close(a_plus, want_plus, RTOL, floor) and _close(a_minus, want_minus, RTOL, floor)):
            fails.append(f"tuning {params['variant']} mode {label}: A+/A- {a_plus!r}/{a_minus!r}"
                         f" vs reference {want_plus!r}/{want_minus!r}")
    return fails


def check_fano(params: dict, dark: float, bright: float) -> list:
    """Method properties of the Fano features: dark point and spacing."""
    shift = ref.ac_stark_shift(params["omega_sigma"], params["delta_sigma"])
    fails = []
    if abs(dark - params["delta_sigma"]) > DARK_RTOL * shift:
        fails.append(f"analysis: dark point off delta_sigma by "
                     f"{(dark - params['delta_sigma']) / shift:.2e} shifts")
    if abs((bright - dark) - shift) > FANO_RTOL * shift:
        fails.append(f"analysis: Fano spacing {(bright - dark) / shift:.4f} of the closed form")
    return fails


def check_fano_reference(params: dict, dark: float, bright: float) -> list:
    """Reference spectrum: W vanishes at the dark point, peaks at the bright one."""
    shift = ref.ac_stark_shift(params["omega_sigma"], params["delta_sigma"])

    def w(x):
        return ref.scattering_rate(**{**params, "delta_pi": x})

    peak = w(bright)
    fails = []
    if w(dark) > 1e-6 * peak:
        fails.append(f"analysis: reference W(dark)/W(bright) = {w(dark) / peak:.2e}")
    step = 1e-3 * shift
    if max(w(bright - step), w(bright + step)) > peak:
        fails.append("analysis: reported bright peak is not a maximum of the reference W")
    return fails


def check_thermal_op(n_bar: float, eta: float, omega0: float, times, excitation,
                     fit_n_bar: float) -> list:
    fails = []
    worst = float(np.max(np.abs(np.asarray(excitation)
                                - ref.thermal_flops(n_bar, eta, omega0, times))))
    if worst > FLOP_ATOL:
        fails.append(f"analysis: flops at n_bar={n_bar:.4g} deviate by {worst:.2e}")
    if abs(fit_n_bar - n_bar) > FIT_RTOL * n_bar:
        fails.append(f"analysis: fit n_bar {fit_n_bar!r} not within 5% of {n_bar!r}")
    return fails

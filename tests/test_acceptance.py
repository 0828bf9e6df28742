"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import math

import numpy as np
import pytest

from eitcool.atom import doppler_limit_occupation, thermal_occupation
from eitcool.cli import main as cli_main
from eitcool.cooling import (
    CoolingGeometry,
    cooling_coefficients,
    evolve_n,
    steady_state_n_sweep,
)
from eitcool.liouville import build_liouvillian, steady_state
from eitcool.spectrum import (
    ac_stark_shift,
    beam_scattering_rates,
    coupling_for_target_shift,
    fano_features,
    scattering_rate,
    scattering_rates,
)
from eitcool.thermometry import (
    ThermalState,
    fit_thermal,
    ground_state_probability,
    sideband_flops,
    sideband_ratio_n,
    time_averaged_excitation,
)

from conftest import FIG2, TP, fig2_config, random_static_config
from oracles import integrate_occupation, propagate

GAMMA = TP * 20e6


def _report(number: int, ok: bool, detail: str):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_ac_stark_formula():
    delta = ac_stark_shift(TP * 21.4e6, TP * 70e6)
    ok = abs(delta - TP * 1.60e6) <= TP * 0.02e6
    _report(1, ok, f"AC Stark shift {delta / TP / 1e6:.4f} MHz vs 1.60 +/- 0.02 MHz")


def test_criterion_02_dark_resonance():
    cfg = fig2_config("three_level")
    grid = np.linspace(cfg.delta_sigma - TP * 5e6, cfg.delta_sigma + TP * 5e6, 101)
    peak = scattering_rates(cfg, grid).checked().w.max()
    dark = scattering_rate(cfg, cfg.delta_sigma).w
    ok = dark <= 1e-8 * peak
    _report(2, ok, f"W(dark)/W(peak) = {dark / peak:.2e} <= 1e-8")


def test_criterion_03_fano_spacing_matches_closed_form():
    # weak probe (Omega_pi = 0.05 delta): the closed-form peak position is the
    # linear-response limit; a strong probe power-shifts the bright resonance
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(10):
        delta_sigma = TP * rng.uniform(30e6, 100e6)
        omega_sigma = rng.uniform(0.15, 0.6) * delta_sigma
        delta = ac_stark_shift(omega_sigma, delta_sigma)
        cfg = fig2_config("three_level", omega_sigma=omega_sigma,
                          delta_sigma=delta_sigma, delta_pi=delta_sigma,
                          omega_pi=0.05 * delta)
        features = fano_features(cfg, delta_sigma - 3 * delta,
                                 delta_sigma + 3 * delta, points=300)
        worst = max(worst, abs(features.stark_shift - delta) / delta)
    ok = worst <= 0.02
    _report(3, ok, f"worst Fano spacing error {worst:.2%} <= 2% over 10 draws")


def test_criterion_04_omega_sweep_reproduction():
    omegas = TP * np.linspace(0.5e6, 4e6, 57)
    optima = {}
    curves = {}
    for variant in ("three_level", "four_level_ideal", "four_level_geometry"):
        rows = steady_state_n_sweep(fig2_config(variant), omegas=omegas)
        n_ss = np.array([pt.n_ss for pt in rows])
        optima[variant] = omegas[int(np.argmin(n_ss))]
        curves[variant] = float(np.min(n_ss))
    within = all(abs(w / TP - 1.6e6) <= 0.1 * 1.6e6 for w in optima.values())
    ordered = curves["four_level_geometry"] > curves["four_level_ideal"]
    ok = within and ordered
    _report(4, ok,
            "optimum omega/2pi (MHz) "
            + ", ".join(f"{k}={v / TP / 1e6:.3f}" for k, v in optima.items())
            + f"; min n_ss 55deg {curves['four_level_geometry']:.4f} >"
            f" ideal {curves['four_level_ideal']:.4f}")


def test_criterion_05_delta_sweep_reproduction():
    omega_y = TP * 1.62e6
    cfg = fig2_config("four_level_geometry", omega_pi=TP * 2.14e6)
    geometry = CoolingGeometry(omega=omega_y, eta=0.2481, cos_phi=0.3256, label="y")
    deltas = TP * np.linspace(0.5e6, 4e6, 45)
    rows = steady_state_n_sweep(cfg, deltas=deltas, geometry=geometry)
    n_ss = np.array([pt.n_ss for pt in rows])
    best = deltas[int(np.argmin(n_ss))]
    ok = abs(best - omega_y) <= 0.15 * omega_y and float(np.min(n_ss)) <= 0.18
    _report(5, ok, f"optimum delta/2pi = {best / TP / 1e6:.3f} MHz"
                   f" (mode 1.62 MHz +/- 15%), min n_ss = {float(np.min(n_ss)):.4f} <= 0.18")


def test_criterion_06_cooling_time_constant():
    omega_y = TP * 1.62e6
    omega_sigma = coupling_for_target_shift(omega_y, TP * 70e6)
    cfg = fig2_config("four_level_geometry", omega_sigma=omega_sigma,
                      omega_pi=omega_sigma / 10)
    geometry = CoolingGeometry(omega=omega_y, eta=0.2481, cos_phi=0.3256, label="y")
    a_plus, a_minus = cooling_coefficients(cfg, geometry)
    tau = 1.0 / (a_minus - a_plus)
    ok = 50e-6 <= tau <= 1e-3
    _report(6, ok, f"cooling time constant {tau * 1e6:.1f} us in [50 us, 1 ms]")


def test_criterion_07_multimode_deep_lamb_dicke(tmp_path):
    cli_main(["run", "multimode.cfg", "--out", str(tmp_path)])
    rows = [l.split(",") for l in (tmp_path / "multimode.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    detail = []
    ok = True
    columns = ("mode", "omega_hz", "a_plus_per_s", "a_minus_per_s", "rate_per_s",
               "n_ss", "time_constant_s", "eta_sqrt_nss", "cooled")
    for row in rows:
        rec = dict(zip(columns, row))
        mode = rec["mode"]
        cooled = rec["cooled"] == "True"
        check = float(rec["eta_sqrt_nss"])
        ok = ok and cooled and check < 0.1
        detail.append(f"{mode}: cooled={cooled}, eta*sqrt(n_ss)={check:.3f}")
    _report(7, ok, "; ".join(detail) + " (both < 0.1)")


def test_criterion_08_solver_oracle_equivalence(rng):
    worst_diff = 0.0
    worst_balance = 0.0
    for _ in range(20):
        cfg = random_static_config(rng)
        system = cfg.system()
        liouv = build_liouvillian(system)
        rho_ss = steady_state(liouv)
        dim = liouv.dim
        rho0 = np.eye(dim, dtype=complex) / dim
        rho_t = propagate(liouv, rho0, 200.0 / GAMMA)
        worst_diff = max(worst_diff, float(np.max(np.abs(rho_t - rho_ss))))
        rates = beam_scattering_rates(system, rho_ss, rho_ss)
        p_total = sum(rho_ss[i, i].real for i in system.excited_indices())
        worst_balance = max(
            worst_balance,
            abs(sum(rates.values()) - GAMMA * p_total) / (GAMMA * p_total),
        )
    ok = worst_diff <= 1e-7 and worst_balance <= 1e-8
    _report(8, ok, f"steady-state vs propagation max diff {worst_diff:.2e} <= 1e-7;"
                   f" photon balance {worst_balance:.2e} <= 1e-8 (20 draws)")


def test_criterion_09_rate_equation_closed_form():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        a_plus = rng.uniform(0.0, 100.0)
        a_minus = rng.uniform(0.0, 10_000.0)
        n0 = rng.uniform(0.0, 30.0)
        t = rng.uniform(0.0, 5e-3)
        numeric = integrate_occupation(a_plus, a_minus, n0, t)
        worst = max(worst, abs(evolve_n(a_plus, a_minus, n0, t) - numeric))
    ok = worst <= 1e-10
    _report(9, ok, f"closed form vs ODE max deviation {worst:.2e} <= 1e-10 (100 draws)")


def test_criterion_10_thermometry_round_trips():
    eta, omega0 = 0.03, TP * 100e3
    fits = {}
    for n_bar in (0.18, 16.0):
        times = np.linspace(0.0, 2e-3, 120)
        record = sideband_flops(ThermalState.from_n_bar(n_bar), eta, omega0,
                                "blue", times)
        fits[n_bar] = fit_thermal(record, eta, omega0).n_bar
    state = ThermalState.from_n_bar(0.35)
    ratio = sideband_ratio_n(time_averaged_excitation(state, "red"),
                             time_averaged_excitation(state, "blue"))
    p0_a = ground_state_probability(0.18)
    p0_b = ground_state_probability(0.1)
    ok = (
        abs(fits[0.18] - 0.18) <= 0.05 * 0.18
        and abs(fits[16.0] - 16.0) <= 0.05 * 16.0
        and abs(ratio - 0.35) <= 0.10 * 0.35
        and p0_a == 1 / 1.18
        and p0_b == 1 / 1.1
    )
    _report(10, ok, f"fits 0.18->{fits[0.18]:.4f}, 16->{fits[16.0]:.3f};"
                    f" ratio 0.35->{ratio:.4f}; p0(0.18)={p0_a:.3f}, p0(0.1)={p0_b:.3f}")


def test_criterion_11_doppler_utilities():
    t_d, _ = doppler_limit_occupation(GAMMA, TP * 1.62e6)
    n_z = thermal_occupation(0.5e-3, TP * 3.32e6)
    n_y = thermal_occupation(0.5e-3, TP * 1.62e6)
    ok = 0.45e-3 <= t_d <= 0.50e-3 and 2.5 <= n_z <= 3.1 and 5.5 <= n_y <= 6.3
    _report(11, ok, f"T_D = {t_d * 1e3:.4f} mK; n(3.32 MHz) = {n_z:.2f};"
                    f" n(1.62 MHz) = {n_y:.2f}")


def test_criterion_12_bundled_configs_are_deterministic(tmp_path):
    names = ("fig2.cfg", "fig3.cfg", "fig4.cfg", "multimode.cfg", "thermometry.cfg")
    identical = []
    for name in names:
        out_a = tmp_path / "a" / name
        out_b = tmp_path / "b" / name
        assert cli_main(["run", name, "--out", str(out_a)]) == 0
        assert cli_main(["run", name, "--out", str(out_b)]) == 0
        (csv_a,) = [p for p in out_a.iterdir() if p.suffix == ".csv"]
        csv_b = out_b / csv_a.name
        identical.append(csv_a.read_bytes() == csv_b.read_bytes())
    ok = all(identical)
    _report(12, ok, "bitwise-identical rerun CSVs: "
            + ", ".join(f"{n}={i}" for n, i in zip(names, identical)))

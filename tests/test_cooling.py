import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitcool.cooling
from eitcool.config import parse_config_text, resolve
from eitcool.constants import CA40_MASS, HBAR
from eitcool.cooling import (
    CoolingGeometry,
    cooling_coefficients,
    evolve_n,
    geometry_from_angle,
    multimode_report,
    steady_state_n_sweep,
)
from eitcool.liouville import DegenerateSteadyStateError
from eitcool.spectrum import (
    coupling_for_target_shift,
    fano_features,
    scattering_rate,
    scattering_rates,
)

from conftest import TP, fig2_config

GAMMA = TP * 20e6
WAVELENGTH = 397e-9
K397 = TP / WAVELENGTH


def _ground_state_size(omega):
    return math.sqrt(HBAR / (2 * CA40_MASS * omega))


def _reference_geometry(omega=TP * 1.62e6):
    # 125 degree beam angle, mode at 71 degrees to delta k
    dk = 2 * K397 * math.sin(math.radians(125.0) / 2)
    return geometry_from_angle(omega, dk, math.radians(71.0), label="y")


def _configured_mode_y(beam_angle_deg):
    text = ("task = dynamics\nvariant = three_level\ntrap.omega_y_hz = 1.62e6\n"
            f"geometry.beam_angle_deg = {beam_angle_deg}\n")
    return resolve(parse_config_text(text))


# ------------------------------------------------------------------ geometry


def test_trap_mode_invariants():
    for omega in (0.0, -TP * 1e6, math.nan):
        with pytest.raises(ValueError, match="mode frequency must be positive"):
            geometry_from_angle(omega, 2 * K397, 0.0)
        with pytest.raises(ValueError, match="mass must be positive"):
            geometry_from_angle(TP * 1e6, 2 * K397, 0.0, mass=omega * CA40_MASS)
    omega = TP * 1.62e6
    geo = geometry_from_angle(omega, 2 * K397, 0.0)
    assert geo == (omega, 2 * K397 * _ground_state_size(omega), 1.0, "")
    heavy = geometry_from_angle(omega, 2 * K397, 0.0, mass=4 * CA40_MASS, label="y")
    assert heavy.eta == pytest.approx(geo.eta / 2, rel=1e-12)
    assert heavy.label == "y"


def test_lamb_dicke_reference_values():
    geo = _reference_geometry()
    assert geo.eta == pytest.approx(0.248, abs=0.002)
    assert geo.eta * geo.cos_phi == pytest.approx(0.081, abs=0.001)


def test_lamb_dicke_from_wavevectors_matches_angle_construction():
    # eta = |k_g - k_r| a0, and cos phi the projection of k_g - k_r on the mode axis
    ang = math.radians(125.0)
    k_g = K397 * np.array([math.sin(ang), 0.0, math.cos(ang)])
    k_r = K397 * np.array([0.0, 0.0, 1.0])
    dk = k_g - k_r
    omega = TP * 1.62e6
    expected = float(np.linalg.norm(dk)) * _ground_state_size(omega)
    assert _reference_geometry(omega).eta == pytest.approx(expected, rel=1e-12)
    cos_phi = float(dk @ np.array([1.0, 0.0, 0.0])) / float(np.linalg.norm(dk))
    geo = geometry_from_angle(omega, float(np.linalg.norm(dk)), math.acos(cos_phi))
    assert geo.eta == pytest.approx(expected, rel=1e-12)
    assert geo.cos_phi == pytest.approx(cos_phi, rel=1e-12)


def test_counterpropagating_beams_maximize_delta_k():
    # |k_g - k_r| = 2k sin(angle / 2) peaks at 2k for counterpropagating beams
    etas = [_configured_mode_y(angle).mode_geometry("y").eta for angle in (90, 125, 180)]
    assert etas[2] == pytest.approx(2 * K397 * _ground_state_size(TP * 1.62e6), rel=1e-12)
    assert etas[0] < etas[1] < etas[2]


def test_lamb_dicke_scaling_with_mode_frequency():
    eta_1 = _reference_geometry(TP * 1.0e6).eta
    eta_4 = _reference_geometry(TP * 4.0e6).eta
    assert eta_4 == pytest.approx(eta_1 / 2, rel=1e-12)


def test_copropagating_beams_flagged_uncoolable():
    # k_g = k_r: eta = 0, and the mode is neither heated nor cooled
    cfg = _configured_mode_y(0)
    geo = cfg.mode_geometry("y")
    assert geo.eta == 0.0
    (report,) = multimode_report(cfg.eit_config(), [geo])
    assert (report.a_plus, report.a_minus, report.cooled) == (0.0, 0.0, False)


# ------------------------------------------------------------- coefficients


def test_zero_prefactor_gives_zero_coefficients():
    cfg = fig2_config("three_level")
    geo = CoolingGeometry(omega=TP * 1.62e6, eta=0.0, cos_phi=0.5)
    assert cooling_coefficients(cfg, geo) == (0.0, 0.0)
    geo = CoolingGeometry(omega=TP * 1.62e6, eta=0.2, cos_phi=0.0)
    assert cooling_coefficients(cfg, geo) == (0.0, 0.0)


def test_mode_frequency_outside_the_model_is_rejected_unsolved(monkeypatch):
    # -omega used to swap A+ and A-, 0 gave A+ = A- and n_ss = inf, with no error
    calls = []
    monkeypatch.setattr(eitcool.cooling, "scattering_rates", lambda *a: calls.append(a))
    cfg = fig2_config("three_level")
    for omega in (0.0, -TP * 1.6e6, math.nan):
        geo = CoolingGeometry(omega, 0.1, 1.0, "z")
        with pytest.raises(ValueError, match=f"mode 'z': frequency {omega!r} is not in"):
            multimode_report(cfg, [_reference_geometry(), geo])
        with pytest.raises(ValueError, match="mode 'z': frequency .* is not in"):
            cooling_coefficients(cfg, geo)
    assert calls == []


def test_coefficients_match_interpolated_spectrum_scan():
    cfg = fig2_config("three_level")
    geo = _reference_geometry()
    a_plus, a_minus = cooling_coefficients(cfg, geo)
    # oracle: dense W scan, cubic interpolation at delta_pi -/+ omega
    from scipy.interpolate import CubicSpline

    grid = np.linspace(cfg.delta_pi - 1.5 * geo.omega, cfg.delta_pi + 1.5 * geo.omega, 801)
    w = [scattering_rate(cfg, float(d)).w for d in grid]
    spline = CubicSpline(grid, w)
    pref = geo.eta**2 * geo.cos_phi**2
    assert a_plus == pytest.approx(pref * float(spline(cfg.delta_pi - geo.omega)), rel=1e-6)
    assert a_minus == pytest.approx(pref * float(spline(cfg.delta_pi + geo.omega)), rel=1e-6)


def test_heating_suppressed_when_stark_shift_matches_mode():
    # shift tuned to the mode frequency puts absorption on the bright peak
    omega = TP * 1.62e6
    cfg = fig2_config("three_level", omega_pi=GAMMA / 20,
                      omega_sigma=coupling_for_target_shift(omega, TP * 70e6))
    a_plus, a_minus = cooling_coefficients(cfg, _reference_geometry())
    assert a_minus / a_plus >= 1e2


def test_rate_scales_exactly_with_geometric_prefactor():
    cfg = fig2_config("three_level")
    geo = _reference_geometry()
    a_plus, a_minus = cooling_coefficients(cfg, geo)
    half = geo._replace(eta=geo.eta / 2)
    b_plus, b_minus = cooling_coefficients(cfg, half)
    assert b_plus == pytest.approx(a_plus / 4, rel=1e-12)
    assert b_minus == pytest.approx(a_minus / 4, rel=1e-12)


# ------------------------------------------------------------- rate equation


def test_evolve_n_initial_value_and_fixed_point():
    assert evolve_n(10.0, 500.0, 16.0, 0.0) == 16.0
    assert evolve_n(10.0, 500.0, 16.0, 1e3) == pytest.approx(10.0 / 490.0, rel=1e-12)


def test_evolve_n_monotone_decay_toward_steady_state():
    times = np.linspace(0.0, 5e-3, 50)
    values = [evolve_n(10.0, 2000.0, 16.0, t) for t in times]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] >= 10.0 / 1990.0


def test_evolve_n_linear_growth_without_net_cooling():
    assert evolve_n(7.0, 7.0, 2.0, 3.0) == pytest.approx(2.0 + 21.0, rel=1e-12)


@given(a_plus=st.floats(0, 1e3), a_minus=st.floats(0, 1e5),
       n0=st.floats(0, 100), t=st.floats(0, 1e-2))
@settings(max_examples=200)
def test_evolve_n_stays_nonnegative(a_plus, a_minus, n0, t):
    assert evolve_n(a_plus, a_minus, n0, t) >= 0.0


def test_evolve_n_rejects_negative_rates():
    # and a negative n0 or t: evolve_n(1, 10, 5, -1) extrapolated back to 39615.2
    for args in ((-1.0, 10.0, 1.0, 1.0), (1.0, 10.0, -5.0, 1.0), (1.0, 10.0, 5.0, -1.0)):
        with pytest.raises(ValueError):
            evolve_n(*args)


# -------------------------------------------------------------------- sweeps


def test_single_point_sweep_equals_direct_call():
    cfg = fig2_config("three_level")
    geo = _reference_geometry()
    (pt,) = steady_state_n_sweep(cfg, omegas=[geo.omega], geometry=geo)
    a_plus, a_minus = cooling_coefficients(cfg, geo)
    assert pt.a_plus == a_plus
    assert pt.a_minus == a_minus
    assert pt.n_ss == pytest.approx(a_plus / (a_minus - a_plus), rel=1e-12)
    assert pt.cooled


def test_n_ss_insensitive_to_probe_power_in_linear_response():
    # sampled off the dark point, where A+ is not a near-null hypersensitive
    # to probe-induced level shifts
    omega = TP * 2.5e6
    base = fig2_config("three_level", omega_pi=GAMMA / 80)
    values = []
    for c in (0.5, 1.0, 2.0):
        cfg = base._replace(omega_pi=c * base.omega_pi)
        (pt,) = steady_state_n_sweep(cfg, omegas=[omega])
        values.append(pt.n_ss)
    assert max(values) / min(values) - 1.0 < 0.02


def test_n_ss_independent_of_geometric_prefactor():
    cfg = fig2_config("three_level")
    omega = TP * 1.62e6
    (bare,) = steady_state_n_sweep(cfg, omegas=[omega])
    (scaled,) = steady_state_n_sweep(cfg, omegas=[omega], geometry=_reference_geometry())
    assert scaled.n_ss == pytest.approx(bare.n_ss, rel=1e-12)


def test_delta_sweep_adjusts_coupling_rabi():
    cfg = fig2_config("four_level_ideal", omega_pi=TP * 2.14e6)
    geo = _reference_geometry()
    delta = TP * 1.62e6
    (pt,) = steady_state_n_sweep(cfg, deltas=[delta], geometry=geo)
    direct = cfg._replace(omega_sigma=coupling_for_target_shift(delta, cfg.delta_sigma))
    a_plus, a_minus = cooling_coefficients(direct, geo)
    assert pt.a_plus == a_plus
    assert pt.a_minus == a_minus


def test_sweep_argument_validation():
    cfg = fig2_config("three_level")
    with pytest.raises(ValueError):
        steady_state_n_sweep(cfg)
    with pytest.raises(ValueError):
        steady_state_n_sweep(cfg, omegas=[1.0], deltas=[1.0])
    with pytest.raises(ValueError):
        steady_state_n_sweep(cfg, deltas=[TP * 1e6])  # needs a geometry
    with pytest.raises(ValueError):
        steady_state_n_sweep(cfg, omegas=[-1.0])


def test_delta_sweep_checks_every_shift_before_solving(monkeypatch):
    calls = []

    def counting(config, detunings):
        calls.append(detunings)
        return scattering_rates(config, detunings)

    monkeypatch.setattr(eitcool.cooling, "scattering_rates", counting)
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sweep shifts must be positive and finite"):
            steady_state_n_sweep(fig2_config("three_level"), deltas=[TP * 1e6, bad],
                                 geometry=_reference_geometry())
        # a non-finite delta_sigma failed inside build_system, naming neither it nor the sweep
        if not math.isfinite(bad):
            with pytest.raises(ValueError, match="delta_sigma must be positive and finite"):
                steady_state_n_sweep(fig2_config("three_level", delta_sigma=bad),
                                     deltas=[TP * 1e6], geometry=_reference_geometry())
    assert calls == []


def test_delta_sweep_is_one_spectrum_solve(monkeypatch):
    calls = []

    def counting(config, detunings):
        calls.append(detunings)
        return scattering_rates(config, detunings)

    monkeypatch.setattr(eitcool.cooling, "scattering_rates", counting)
    rows = steady_state_n_sweep(fig2_config("four_level_geometry", omega_pi=TP * 2.14e6),
                                deltas=TP * np.linspace(0.5e6, 4e6, 45),
                                geometry=_reference_geometry())
    assert len(calls) == 1
    assert len(rows) == 45 and not any(row.error for row in rows)


@pytest.mark.parametrize("variant", ["three_level", "four_level_ideal", "four_level_geometry"])
def test_sweep_records_degenerate_point_and_continues(variant):
    cfg = fig2_config(variant, omega_sigma=0.0, omega_pi=0.0)
    (pt,) = steady_state_n_sweep(cfg, omegas=[TP * 1.62e6])
    assert isinstance(pt.error, DegenerateSteadyStateError)
    assert "steady state not unique" in str(pt.error)
    assert math.isnan(pt.a_plus) and math.isnan(pt.a_minus)
    assert math.isnan(pt.n_ss) and not pt.cooled
    assert math.isnan(pt.time_constant) and math.isnan(pt.lamb_dicke_check(0.1))


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(config, detunings):
        raise TypeError("bug")

    monkeypatch.setattr(eitcool.cooling, "scattering_rates", broken)
    with pytest.raises(TypeError):
        steady_state_n_sweep(fig2_config("three_level"), omegas=[TP * 1.62e6])


# ----------------------------------------------------------------- multimode


def test_multimode_single_mode_matches_direct_path():
    cfg = fig2_config("four_level_ideal")
    geo = _reference_geometry()
    (report,) = multimode_report(cfg, [geo])
    a_plus, a_minus = cooling_coefficients(cfg, geo)
    assert (report.a_plus, report.a_minus) == (a_plus, a_minus)
    assert report.rate == a_minus - a_plus
    assert report.time_constant == pytest.approx(1.0 / report.rate, rel=1e-12)


def test_modes_stay_aligned_past_an_uncoolable_mode():
    cfg = fig2_config("three_level")
    geometries = [
        CoolingGeometry(omega=TP * 1.2e6, eta=0.25, cos_phi=0.0, label="dead"),
        _reference_geometry(),
        CoolingGeometry(omega=TP * 2.5e6, eta=0.25, cos_phi=0.0, label="dead 2.5"),
        CoolingGeometry(omega=TP * 3.3e6, eta=0.1, cos_phi=1.0, label="z"),
    ]
    reports = multimode_report(cfg, geometries)
    for geo, report in zip(geometries, reports, strict=True):
        assert (report.a_plus, report.a_minus) == cooling_coefficients(cfg, geo)


_ONE_POINT_ENTRIES = {
    "scattering_rate": lambda cfg: scattering_rate(cfg),
    "cooling_coefficients": lambda cfg: cooling_coefficients(cfg, _reference_geometry()),
    "multimode_report": lambda cfg: multimode_report(
        cfg, [_reference_geometry(), _reference_geometry(TP * 3.3e6)]),
    "omega_sweep": lambda cfg: steady_state_n_sweep(cfg, omegas=[TP * 1.6e6, TP * 3.3e6]),
    "delta_sweep": lambda cfg: steady_state_n_sweep(cfg, deltas=[TP * 1.6e6, TP * 3.3e6],
                                                    geometry=_reference_geometry()),
    "fano_features": lambda cfg: fano_features(cfg, TP * 66e6, TP * 74e6),
}


@pytest.mark.parametrize("name, laser", [
    ("omega_sigma", TP * np.array([20e6, 22e6])),
    ("omega_pi", TP * 3e6 * np.array([[1.0], [1.1]])),
], ids=["omega_sigma", "omega_pi"])
@pytest.mark.parametrize("entry", _ONE_POINT_ENTRIES.values(), ids=_ONE_POINT_ENTRIES)
def test_one_point_entries_reject_a_stacked_config(monkeypatch, entry, name, laser):
    # a laser array would broadcast to several settings, solved as one; no entry may
    # solve it, and none may read one setting's rates and drop or misalign the rest
    monkeypatch.setattr(eitcool.cooling, "scattering_rates", None)
    cfg = fig2_config("three_level")._replace(**{name: laser})
    with pytest.raises(ValueError, match=f"{name} is an array"):
        entry(cfg)


def test_multimode_orthogonal_mode_uncoolable():
    cfg = fig2_config("three_level")
    geo = CoolingGeometry(omega=TP * 1.62e6, eta=0.25, cos_phi=0.0, label="dead")
    (report,) = multimode_report(cfg, [geo])
    assert report.a_plus == report.a_minus == 0.0
    assert not report.cooled
    assert math.isinf(report.n_ss)
    assert math.isinf(report.lamb_dicke_check(geo.eta))


def test_mode_failures_lead_with_the_mode_and_keep_their_type():
    # an undriven atom has no unique steady state at either sideband detuning
    cfg = fig2_config("three_level", omega_sigma=0.0, omega_pi=0.0)
    live = CoolingGeometry(omega=TP * 1.2e6, eta=0.25, cos_phi=0.5, label="z")
    for entry in (lambda: multimode_report(cfg, [_reference_geometry(), live]),
                  lambda: cooling_coefficients(cfg, _reference_geometry())):
        with pytest.raises(DegenerateSteadyStateError) as caught:
            entry()
        assert str(caught.value).startswith("mode 'y': steady state not unique")
        assert type(caught.value.__cause__) is DegenerateSteadyStateError

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitcool.spectrum

from eitcool.atom import LevelScheme
from eitcool.liouville import (
    _MIN_BEAT,
    _STACK_ENTRIES,
    VARIANTS,
    DegenerateSteadyStateError,
    build_liouvillian,
    steady_state,
    sweep_states,
)
from eitcool.spectrum import (
    BracketError,
    DegenerateFeatureError,
    ac_stark_shift,
    ac_stark_shift_approx,
    beam_scattering_rates,
    coupling_for_target_shift,
    coupling_for_target_shift_approx,
    dressed_state,
    fano_features,
    scattering_rate,
    scattering_rates,
)

from conftest import FIG2, TP, fig2_config, random_static_config
from oracles import static_approximation, two_level_system

GAMMA = TP * 20e6


# ------------------------------------------------------------ closed forms


def test_stark_shift_at_reference_parameters():
    delta = ac_stark_shift(TP * 21.4e6, TP * 70e6)
    assert delta / TP == pytest.approx(1.60e6, abs=0.02e6)


def test_stark_shift_vanishes_without_coupling_light():
    assert ac_stark_shift(0.0, TP * 55e6) == 0.0


def test_stark_shift_exact_vs_far_detuned_branch():
    exact = ac_stark_shift(TP * 21.4e6, TP * 70e6)
    approx = ac_stark_shift_approx(TP * 21.4e6, TP * 70e6)
    assert exact / TP == pytest.approx(1.599e6, abs=0.5e3)
    assert approx / TP == pytest.approx(1.636e6, abs=0.5e3)
    assert abs(approx - exact) / exact == pytest.approx(0.023, abs=0.005)


def test_approx_branch_rejects_zero_detuning():
    with pytest.raises(ValueError):
        ac_stark_shift_approx(TP * 1e6, 0.0)


def test_coupling_for_target_shift_round_trip():
    for omega in TP * np.array([0.3e6, 1.62e6, 2.6e6, 3.32e6]):
        rabi = coupling_for_target_shift(omega, TP * 70e6)
        assert ac_stark_shift(rabi, TP * 70e6) == pytest.approx(omega, rel=1e-9)


def test_coupling_for_target_shift_reference_values():
    exact = coupling_for_target_shift(TP * 1.62e6, TP * 70e6)
    approx = coupling_for_target_shift_approx(TP * 1.62e6, TP * 70e6)
    # both land near the reference 21.4 MHz coupling Rabi frequency
    assert exact / TP == pytest.approx(21.54e6, abs=0.01e6)
    assert approx / TP == pytest.approx(21.30e6, abs=0.01e6)


def test_coupling_for_target_shift_small_mode_limit():
    assert coupling_for_target_shift(TP * 1.0, TP * 70e6) < TP * 50e3


def test_coupling_for_target_shift_domain():
    with pytest.raises(ValueError):
        coupling_for_target_shift(0.0, TP * 70e6)
    with pytest.raises(ValueError):
        coupling_for_target_shift(TP * 1e6, 0.0)


def test_dressed_state_at_reference_parameters():
    c_s, c_p = dressed_state(TP * 21.4e6, TP * 70e6)
    assert c_s == pytest.approx(0.989, abs=0.002)
    assert c_p == pytest.approx(0.148, abs=0.002)


def test_dressed_state_weak_coupling_limit():
    c_s, c_p = dressed_state(1e-6 * TP * 70e6, TP * 70e6)
    assert c_s == pytest.approx(1.0, abs=1e-6)
    assert abs(c_p) < 1e-6


@given(omega=st.floats(1e3, 1e9), delta=st.floats(1e3, 1e9))
@settings(max_examples=200)
def test_dressed_state_is_normalized(omega, delta):
    c_s, c_p = dressed_state(omega, delta)
    assert c_s**2 + c_p**2 == pytest.approx(1.0, abs=1e-12)


def test_dressed_state_rejects_doubly_degenerate_input():
    with pytest.raises(ValueError):
        dressed_state(0.0, 0.0)


# ------------------------------------------------------- scattering rate W


def test_three_level_dark_resonance():
    cfg = fig2_config("three_level")
    dark = scattering_rate(cfg, cfg.delta_sigma).w
    grid = np.linspace(cfg.delta_sigma - TP * 5e6, cfg.delta_sigma + TP * 5e6, 101)
    w = scattering_rates(cfg, grid).checked().w
    peak = w.max()
    assert dark <= 1e-8 * peak
    assert w.min() == dark  # global minimum


def test_scan_is_nonnegative_with_bounded_population():
    cfg = fig2_config("four_level_geometry")
    grid = np.linspace(cfg.delta_sigma - TP * 4e6, cfg.delta_sigma + TP * 4e6, 41)
    spectrum = scattering_rates(cfg, grid).checked()
    for w, rho_p_total in zip(spectrum.w, spectrum.rho_p_total):
        assert w >= -1e-10
        assert 0.0 <= rho_p_total <= 1.0


def test_single_beam_scattering_equals_gamma_times_upper_population():
    system = two_level_system(0.4 * GAMMA, 0.3 * GAMMA, GAMMA)
    rho = steady_state(build_liouvillian(system))
    w = beam_scattering_rates(system, rho, rho)["cooling"]
    assert w == pytest.approx(GAMMA * rho[1, 1].real, rel=1e-10)


def test_per_beam_attribution_balances_photon_rates(rng):
    # in steady state absorbed photons equal emitted photons: sum_beams W = Gamma P
    for _ in range(5):
        cfg = random_static_config(rng)
        system = cfg.system()
        rho = steady_state(build_liouvillian(system))
        rates = beam_scattering_rates(system, rho, rho)
        total = sum(rates.values())
        p_total = sum(rho[i, i].real for i in system.excited_indices())
        assert total == pytest.approx(GAMMA * p_total, rel=1e-8)


def test_periodic_attribution_balances_photon_rates():
    cfg = fig2_config("four_level_geometry")
    system = cfg.system()
    rho0, rho1, _, _ = sweep_states(build_liouvillian(system))
    rates = beam_scattering_rates(system, rho0, rho1)
    p_total = sum(rho0[i, i].real for i in system.excited_indices())
    assert sum(rates.values()) == pytest.approx(GAMMA * p_total, rel=1e-8)


@given(
    angle_deg=st.floats(10.0, 170.0),
    omega_sigma=st.floats(0.3, 1.2),
    omega_pi=st.floats(0.3, 1.2),
    delta_sigma=st.floats(0.2, 1.5),
    offset=st.floats(0.1, 1.0),
    signs=st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])),
)
@settings(max_examples=60, deadline=None)
def test_geometry_steady_state_is_a_photon_balanced_density_matrix(
    angle_deg, omega_sigma, omega_pi, delta_sigma, offset, signs
):
    # criterion 08's laser ranges (in units of Gamma), for every variant; the
    # beam angle matters in the oblique-beam geometry only
    dsig = signs[0] * delta_sigma * GAMMA
    for variant in VARIANTS:
        cfg = fig2_config(
            variant, omega_sigma=omega_sigma * GAMMA, omega_pi=omega_pi * GAMMA,
            delta_sigma=dsig, delta_pi=dsig + signs[1] * offset * GAMMA,
            beam_angle=math.radians(angle_deg),
        )
        system = cfg.system()
        rho0, rho1, order, errors = sweep_states(build_liouvillian(system))
        assert errors == [None], variant
        assert order <= 25
        np.testing.assert_allclose(rho0, rho0.conj().T, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(rho0).min() >= -1e-10
        assert np.trace(rho0).real == pytest.approx(1.0, abs=1e-12)
        rates = beam_scattering_rates(system, rho0, rho1)
        assert rates["cooling"] >= -1e-12 * GAMMA
        p_total = sum(rho0[i, i].real for i in system.excited_indices())
        assert rates["coupling"] + rates["cooling"] == pytest.approx(GAMMA * p_total, rel=1e-8)


@pytest.mark.parametrize("angle_deg", [0.0, 180.0])
def test_cooling_beam_along_field_is_rejected(angle_deg):
    cfg = fig2_config("four_level_geometry", beam_angle=math.radians(angle_deg))
    with pytest.raises(ValueError, match="beam_angle"):
        scattering_rate(cfg)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("make, message", [
    (lambda v: fig2_config(v, b_gauss=math.nan), "field magnitude must be >= 0 and finite"),
    (lambda v: fig2_config(v, b_gauss=math.inf), "field magnitude must be >= 0 and finite"),
    (lambda v: fig2_config(v, omega_pi=math.nan), "cooling beam rabi must be finite"),
    (lambda v: fig2_config(v, omega_sigma=np.array([GAMMA, math.inf])),
     "coupling beam rabi must be finite"),
    (lambda v: fig2_config(v, delta_pi=math.inf), "cooling beam detuning must be finite"),
    (lambda v: fig2_config(v, delta_sigma=math.nan), "coupling beam detuning must be finite"),
    (lambda v: fig2_config(v, scheme=LevelScheme(gamma=math.nan)), "gamma must be positive"),
])
def test_non_finite_model_input_raises_naming_it(variant, make, message):
    # before, each point came back as a DegenerateSteadyStateError with spread
    # and residual nan, after numpy RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            cfg = make(variant)
            scattering_rates(cfg, cfg.delta_pi + GAMMA * np.array([-1.0, 1.0]))


def test_linear_response_quadratic_in_probe_rabi():
    cfg = fig2_config("three_level", omega_pi=GAMMA / 40,
                      delta_pi=FIG2["delta_sigma"] - TP * 3e6)
    w1 = scattering_rate(cfg).w
    w2 = scattering_rate(cfg._replace(omega_pi=GAMMA / 20)).w
    assert w2 / w1 == pytest.approx(4.0, rel=0.05)


def test_geometry_rate_is_read_from_floquet_harmonics():
    cfg = fig2_config("four_level_geometry")
    system = cfg.system()
    liouv = build_liouvillian(system)
    w = scattering_rate(cfg).w
    rho0, rho1, _, _ = sweep_states(liouv)
    assert w == beam_scattering_rates(system, rho0, rho1)["cooling"]
    # folding the beat into L0 is comparable in magnitude but not exact
    rho_static = steady_state(static_approximation(liouv))
    w_static = beam_scattering_rates(system, rho_static, rho_static)["cooling"]
    assert 0.1 * w < w_static < 10 * w
    assert w_static != w


# --------------------------------------------------------------- fano features


def _fig2_detunings(cfg):
    """W(delta_pi -/+ omega) samples of the fig2 mode-frequency grid."""
    omegas = TP * np.linspace(0.5e6, 4e6, 57)
    return np.concatenate([cfg.delta_pi - omegas, cfg.delta_pi + omegas])


def _stack_points(cfg):
    """Points per stacked solve of ``sweep_states`` for the config's level count."""
    return _STACK_ENTRIES // cfg.system(cfg.delta_pi).dim ** 4


@pytest.mark.parametrize("variant", ["three_level", "four_level_ideal"])
def test_static_spectrum_stack_is_bit_identical_to_single_points(variant):
    cfg = fig2_config(variant)
    deltas = _fig2_detunings(cfg)
    size = _stack_points(cfg)
    assert len(deltas) > size and len(deltas) % size  # two stacks or more, the last partial
    spectrum = scattering_rates(cfg, deltas)
    single = [scattering_rate(cfg, float(d)) for d in deltas]
    assert spectrum.errors == (None,) * len(deltas)
    assert np.array_equal(spectrum.w, [s.w for s in single])
    assert np.array_equal(spectrum.rho_p_total, [s.rho_p_total for s in single])
    assert not spectrum.harmonic_order.any()


def test_three_level_sweep_over_three_stacks_is_bit_identical_to_single_points():
    # 101 points of 9 x 9 per stack: two full stacks and a last one of one point
    cfg = fig2_config("three_level")
    size = _stack_points(cfg)
    assert size == 101
    deltas = cfg.delta_pi + TP * np.linspace(-4e6, 4e6, 2 * size + 1)
    spectrum = scattering_rates(cfg, deltas)
    single = [scattering_rate(cfg, float(d)) for d in deltas]
    assert spectrum.errors == (None,) * len(deltas)
    assert spectrum.w.tobytes() == np.array([s.w for s in single]).tobytes()
    assert spectrum.rho_p_total.tobytes() == np.array([s.rho_p_total for s in single]).tobytes()


def test_geometry_spectrum_stack_matches_single_points():
    cfg = fig2_config("four_level_geometry")
    deltas = _fig2_detunings(cfg)
    spectrum = scattering_rates(cfg, deltas)
    assert spectrum.errors == (None,) * len(deltas)
    for i, d in enumerate(deltas):
        one = scattering_rates(cfg, [d])
        assert spectrum.w[i] == one.w[0]
        assert spectrum.rho_p_total[i] == one.rho_p_total[0]
        assert spectrum.harmonic_order[i] == one.harmonic_order[0]
    assert set(spectrum.harmonic_order) == {4}


def test_geometry_stack_with_per_point_cooling_rabi_matches_single_points():
    # a cooling Rabi frequency per point gives one L+ and one L- per point;
    # the sweep spans three solve stacks, the last one partial, and the
    # strongly driven points, spread over all three, need higher orders
    cfg = fig2_config("four_level_geometry")
    size = _stack_points(cfg)
    n = 2 * size + 5
    deltas = cfg.delta_pi + TP * np.linspace(-3e6, 3e6, n)
    omega_pi = cfg.omega_pi * np.geomspace(0.3, 20.0, n)[7 * np.arange(n) % n]
    spectrum = scattering_rates(cfg._replace(omega_pi=omega_pi), deltas)
    singles = [scattering_rates(cfg._replace(omega_pi=p), [d]) for p, d in zip(omega_pi, deltas)]
    assert spectrum.errors == (None,) * n
    for field in ("w", "rho_p_total", "harmonic_order"):
        single = np.concatenate([getattr(one, field) for one in singles])
        assert getattr(spectrum, field).tobytes() == single.tobytes()
    assert set(spectrum.harmonic_order) == {4, 6, 8, 10}
    for start in range(0, n, size):
        assert len(set(spectrum.harmonic_order[start:start + size])) > 1


def test_geometry_sweep_through_a_vanishing_beat_matches_single_points():
    cfg = fig2_config("four_level_geometry")
    nu_c, nu_g_at_zero = cfg.laser_frequencies(0.0)
    d0 = nu_c - nu_g_at_zero  # cooling detuning where the two lasers coincide
    assert abs(build_liouvillian(cfg.system(d0)).beat) < _MIN_BEAT
    deltas = d0 + TP * np.array([0.0, -2e6, -1e6, 1e6, 2e6])
    spectrum = scattering_rates(cfg, deltas)
    assert list(spectrum.harmonic_order == 0) == [True, False, False, False, False]
    for i, d in enumerate(deltas):
        sample = scattering_rate(cfg, float(d))
        assert spectrum.w[i] == pytest.approx(sample.w, rel=1e-12, abs=0.0)
        assert spectrum.rho_p_total[i] == pytest.approx(sample.rho_p_total, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("variant", ["three_level", "four_level_ideal", "four_level_geometry"])
@given(points=st.lists(
    st.tuples(st.floats(0.2, 1.5), st.floats(0.02, 0.5), st.floats(-5.0, 5.0)),
    min_size=1, max_size=8,
))
@settings(max_examples=6, deadline=None)
def test_stack_of_laser_parameters_equals_single_points(variant, points):
    # per-point Omega_sigma, Omega_pi (units of Gamma) and delta_pi offset (MHz)
    omega_sigma, omega_pi, offset = (np.array(column) for column in zip(*points))
    cfg = fig2_config(variant)
    deltas = cfg.delta_pi + TP * 1e6 * offset
    stack = scattering_rates(
        cfg._replace(omega_sigma=omega_sigma * GAMMA, omega_pi=omega_pi * GAMMA), deltas
    )
    singles = [
        scattering_rates(cfg._replace(omega_sigma=s * GAMMA, omega_pi=p * GAMMA), [d])
        for s, p, d in zip(omega_sigma, omega_pi, deltas)
    ]
    for field in ("w", "rho_p_total", "harmonic_order"):
        single = np.concatenate([getattr(one, field) for one in singles])
        assert getattr(stack, field).tobytes() == single.tobytes()
    assert [repr(e) for e in stack.errors] == [repr(one.errors[0]) for one in singles]


@pytest.mark.parametrize("variant", ["three_level", "four_level_ideal", "four_level_geometry"])
def test_empty_sweep_returns_an_empty_spectrum(variant):
    cfg = fig2_config(variant)
    spectrum = scattering_rates(cfg, [])
    assert spectrum.errors == ()
    for values in (spectrum.detuning_pi, spectrum.w, spectrum.rho_p_total,
                   spectrum.harmonic_order):
        assert values.shape == (0,)


def test_spectrum_checked_raises_the_first_failure():
    dead = fig2_config("three_level", omega_sigma=0.0, omega_pi=0.0)
    spectrum = scattering_rates(dead, [dead.delta_pi])
    assert np.isnan(spectrum.w[0])
    with pytest.raises(DegenerateSteadyStateError):
        spectrum.checked()


def test_fano_features_at_reference_parameters():
    # weak probe: the closed-form peak position is the linear-response limit,
    # a strong probe power-shifts the bright resonance
    delta = ac_stark_shift(TP * 21.4e6, TP * 70e6)
    cfg = fig2_config("three_level", omega_pi=0.05 * delta)
    features = fano_features(cfg, cfg.delta_sigma - TP * 4e6,
                             cfg.delta_sigma + TP * 4e6, points=200)
    assert features.dark_point == pytest.approx(cfg.delta_sigma, abs=1e-3 * delta)
    assert features.stark_shift == pytest.approx(TP * 1.60e6, rel=0.01)
    assert features.dark_point < features.bright_peak  # blue-detuned coupling


def test_fano_features_agree_with_a_dense_grid():
    delta = ac_stark_shift(TP * 21.4e6, TP * 70e6)
    cfg = fig2_config("three_level", omega_pi=0.05 * delta)
    lo, hi = cfg.delta_sigma - TP * 4e6, cfg.delta_sigma + TP * 4e6
    features = fano_features(cfg, lo, hi, points=200)
    dense = np.linspace(lo, hi, 20001)
    w = scattering_rates(cfg, dense).checked().w
    assert features.dark_point == pytest.approx(dense[np.argmin(w)], abs=2e-4 * delta)
    assert features.bright_peak == pytest.approx(dense[np.argmax(w)], abs=2e-4 * delta)


def test_fano_zoom_stops_below_float_resolution(monkeypatch):
    # a closed-form shift too small for any bracket to reach: the pass cap ends the zoom
    cfg = fig2_config("three_level", omega_pi=0.05 * TP * 1.6e6)
    lo, hi = cfg.delta_sigma - TP * 4e6, cfg.delta_sigma + TP * 4e6
    want = fano_features(cfg, lo, hi, points=200)
    monkeypatch.setattr(eitcool.spectrum, "ac_stark_shift", lambda *args: 1e-12)
    got = fano_features(cfg, lo, hi, points=200)
    assert got.dark_point == pytest.approx(want.dark_point, abs=TP * 1e3)
    assert got.bright_peak == pytest.approx(want.bright_peak, abs=TP * 1e3)


def test_dark_point_tracks_a_rigid_shift_of_both_detunings():
    shift = TP * 5e6
    cfg = fig2_config("three_level",
                      delta_sigma=FIG2["delta_sigma"] + shift,
                      delta_pi=FIG2["delta_pi"] + shift)
    features = fano_features(cfg, cfg.delta_sigma - TP * 4e6,
                             cfg.delta_sigma + TP * 4e6, points=200)
    delta = ac_stark_shift(cfg.omega_sigma, cfg.delta_sigma)
    assert features.dark_point == pytest.approx(cfg.delta_sigma, abs=1e-3 * delta)


def test_fano_features_without_coupling_laser_is_degenerate():
    cfg = fig2_config("three_level", omega_sigma=0.0)
    with pytest.raises(DegenerateFeatureError):
        fano_features(cfg, TP * 66e6, TP * 74e6)


def test_fano_features_requires_bracketing_scan_range():
    cfg = fig2_config("three_level")
    with pytest.raises(BracketError):
        fano_features(cfg, TP * 72e6, TP * 74e6)
    with pytest.raises(BracketError):
        fano_features(cfg, TP * 69e6, TP * 70.5e6)  # misses the bright peak

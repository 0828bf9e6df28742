import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitcool.thermometry import (
    FlopRecord,
    ThermalState,
    fit_thermal,
    ground_state_probability,
    sideband_flops,
    sideband_ratio_n,
    time_averaged_excitation,
)

TP = 2 * math.pi
ETA = 0.05
OMEGA0 = TP * 100e3


# ------------------------------------------------------------ thermal state


def test_thermal_probabilities_are_geometric():
    state = ThermalState.from_n_bar(2.0)
    p = state.probabilities()
    n_bar = 2.0
    for n in range(5):
        assert p[n] == pytest.approx(n_bar**n / (n_bar + 1) ** (n + 1), rel=1e-12)


@given(n_bar=st.floats(0.0, 100.0))
@settings(max_examples=200)
def test_thermal_cutoff_captures_all_but_the_tail(n_bar):
    state = ThermalState.from_n_bar(n_bar)
    assert state.probabilities().sum() >= 1.0 - 1e-6


def test_zero_temperature_state_is_pure_ground():
    state = ThermalState.from_n_bar(0.0)
    assert state.cutoff == 0
    assert state.probabilities().tolist() == [1.0]


def test_thermal_state_input_validation():
    with pytest.raises(ValueError):
        ThermalState(n_bar=-1.0, cutoff=10)
    with pytest.raises(ValueError):
        ThermalState(n_bar=1.0, cutoff=-1)


def test_cutoff_over_the_cap_is_rejected():
    with pytest.raises(ValueError, match="n_bar = 5000"):
        ThermalState.from_n_bar(5000.0)


# ------------------------------------------------------------ sideband flops


def test_ground_state_blue_flop_is_a_pure_sinusoid():
    times = np.linspace(0.0, 2e-3, 200)
    record = sideband_flops(ThermalState.from_n_bar(0.0), ETA, OMEGA0, "blue", times)
    expected = np.sin(OMEGA0 * ETA * times / 2.0) ** 2
    assert np.allclose(record.excitation, expected, atol=1e-12)


def test_ground_state_red_flop_is_identically_zero():
    times = np.linspace(0.0, 2e-3, 50)
    record = sideband_flops(ThermalState.from_n_bar(0.0), ETA, OMEGA0, "red", times)
    assert max(record.excitation) == 0.0


def test_flop_signal_starts_at_zero_and_stays_bounded():
    times = np.linspace(0.0, 5e-3, 400)
    record = sideband_flops(ThermalState.from_n_bar(16.0), 0.03, OMEGA0, "blue", times)
    assert record.excitation[0] == 0.0
    assert all(0.0 <= p <= 1.0 for p in record.excitation)


def test_hot_state_flop_is_damped_and_multi_frequency():
    times = np.linspace(0.0, 2e-3, 400)
    cold = sideband_flops(ThermalState.from_n_bar(0.0), 0.03, OMEGA0, "blue", times)
    hot = sideband_flops(ThermalState.from_n_bar(16.0), 0.03, OMEGA0, "blue", times)
    # thermal dephasing keeps later maxima well below the cold-state contrast
    tail = slice(len(times) // 2, None)
    assert max(hot.excitation[tail]) < 0.8 * max(cold.excitation[tail])


def test_lamb_dicke_validity_precondition():
    with pytest.raises(ValueError):
        sideband_flops(ThermalState.from_n_bar(100.0), 0.3, OMEGA0, "blue", [0.0])


def test_flop_record_validation():
    with pytest.raises(ValueError):
        FlopRecord(times=(0.0,), excitation=(1.5,), sideband="blue")
    with pytest.raises(ValueError):
        FlopRecord(times=(0.0,), excitation=(0.5,), sideband="purple")


def test_flop_record_rejects_carrier_that_no_model_fits():
    # no sideband model produces or fits a carrier record; it must not reach
    # fit_thermal, which would return a meaningless n_bar with infinite residual
    with pytest.raises(ValueError, match="carrier"):
        FlopRecord(times=(0.0, 1e-5), excitation=(0.0, 0.5), sideband="carrier")


# ---------------------------------------------------------------- fitting


@pytest.mark.parametrize("n_bar", [0.1, 0.18, 0.5, 2.0, 16.0])
def test_fit_round_trips_noiseless_flops(n_bar):
    times = np.linspace(0.0, 2e-3, 120)
    record = sideband_flops(ThermalState.from_n_bar(n_bar), 0.03, OMEGA0, "blue", times)
    fit = fit_thermal(record, 0.03, OMEGA0)
    assert fit.n_bar == pytest.approx(n_bar, rel=0.05)
    assert fit.residual < 1e-10


def test_fit_reports_unbracketed_minimum():
    # a flat P(t) = 1/2 record is hotter than any n_bar the first-order model
    # represents at this eta; its best grid point is the edge of the valid range
    times = np.linspace(0.0, 2e-3, 120)
    record = FlopRecord(times=tuple(times), excitation=(0.5,) * len(times), sideband="blue")
    with pytest.raises(ValueError, match="not bracketed"):
        fit_thermal(record, 0.03, OMEGA0)


# -------------------------------------------------------------- ratio method


def test_ratio_method_algebra():
    assert sideband_ratio_n(0.0, 0.5) == 0.0
    assert sideband_ratio_n(0.25, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_ratio_method_round_trip_from_time_averaged_excitations():
    for n_bar in (0.35, 0.1, 2.0):
        state = ThermalState.from_n_bar(n_bar)
        p_red = time_averaged_excitation(state, "red")
        p_blue = time_averaged_excitation(state, "blue")
        assert sideband_ratio_n(p_red, p_blue) == pytest.approx(n_bar, rel=0.10)


def test_ratio_method_rejects_inverted_sidebands():
    with pytest.raises(ValueError):
        sideband_ratio_n(0.5, 0.4)
    with pytest.raises(ValueError):
        sideband_ratio_n(-0.1, 0.4)


# ------------------------------------------------------- ground-state figure


def test_ground_state_probability_reference_points():
    assert ground_state_probability(0.18) == pytest.approx(1 / 1.18, rel=1e-12)
    assert ground_state_probability(0.18) == pytest.approx(0.847, abs=0.001)
    assert ground_state_probability(0.1) == pytest.approx(0.909, abs=0.001)
    assert ground_state_probability(0.0) == 1.0
    with pytest.raises(ValueError):
        ground_state_probability(-0.1)

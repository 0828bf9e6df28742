import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitcool.atom import (
    EXCITED_STATES,
    TRANSITIONS,
    Beam,
    LevelScheme,
    MagneticField,
    circular_polarization,
    decompose_polarization,
    doppler_limit_occupation,
    thermal_occupation,
    zeeman_splitting,
)

from conftest import TP, fig2_config


# ---------------------------------------------------------------- level scheme


def _weights(comps: dict) -> dict:
    return {q: abs(amp) ** 2 for q, amp in comps.items()}


def test_cg_weights_normalized_per_upper_state():
    for upper in EXCITED_STATES:
        total = sum(cg**2 for u, cg in TRANSITIONS.values() if u == upper)
        assert total == pytest.approx(1.0, abs=1e-15)


def test_cg_amplitudes_square_to_weights():
    assert TRANSITIONS[("S-", +1)][1] ** 2 == pytest.approx(2 / 3)
    assert TRANSITIONS[("S+", 0)][1] ** 2 == pytest.approx(1 / 3)
    assert TRANSITIONS[("S-", 0)][1] ** 2 == pytest.approx(1 / 3)
    assert TRANSITIONS[("S+", -1)][1] ** 2 == pytest.approx(2 / 3)
    # the decay weights are the squared amplitudes
    scheme = LevelScheme()
    assert {(u, l): rate / scheme.gamma for u, l, rate in scheme.decay_channels()} == {
        (u, g): cg**2 for (g, _q), (u, cg) in TRANSITIONS.items()
    }


def test_decay_channels_sum_to_gamma_per_upper_state():
    scheme = LevelScheme()
    for upper in EXCITED_STATES:
        total = sum(rate for u, _l, rate in scheme.decay_channels() if u == upper)
        assert total == pytest.approx(scheme.gamma, rel=1e-14)


def test_level_scheme_rejects_bad_weights():
    # the CG weights are fixed by TRANSITIONS, not a settable value
    with pytest.raises(TypeError):
        LevelScheme(cg_weights={("P+", +1): 0.5, ("P+", 0): 0.4,
                                ("P-", 0): 1 / 3, ("P-", -1): 2 / 3})
    with pytest.raises(ValueError):
        LevelScheme(gamma=0.0)


# ------------------------------------------------------------ field and beams


def test_field_requires_nonnegative_magnitude():
    with pytest.raises(ValueError):
        MagneticField(magnitude=-1.0)


def test_beam_invariants_enforced():
    with pytest.raises(ValueError):
        Beam("cooling", 1.0, 0.0, (0, 0, 2))


# --------------------------------------------------- polarization decomposition


def test_pure_pi_beam_perpendicular_to_field():
    comps = decompose_polarization((0, 0, 1))
    assert _weights(comps) == pytest.approx({-1: 0.0, 0: 1.0, +1: 0.0}, abs=1e-14)


def test_oblique_beam_in_plane_polarization_weights():
    # beam at 55 degrees to the field, linear polarization in the (k, B) plane
    ang = math.radians(55.0)
    k_hat = (math.sin(ang), 0.0, math.cos(ang))
    pol = fig2_config("four_level_geometry", beam_angle=ang).beams()[1].polarization
    assert np.dot(k_hat, pol) == pytest.approx(0.0, abs=1e-15)
    weights = _weights(decompose_polarization(pol))
    w_minus, w_pi, w_plus = weights[-1], weights[0], weights[+1]
    assert w_pi == pytest.approx(math.sin(ang) ** 2, abs=1e-12)  # ~0.671
    assert w_minus == pytest.approx(math.cos(ang) ** 2 / 2, abs=1e-12)  # ~0.165
    assert w_plus == pytest.approx(math.cos(ang) ** 2 / 2, abs=1e-12)


def test_circular_sigma_plus_along_field_is_pure_q_plus_one():
    pol = circular_polarization(+1)
    Beam("coupling", 1.0, 0.0, tuple(pol))
    comps = decompose_polarization(pol)
    assert _weights(comps) == pytest.approx({-1: 0.0, 0: 0.0, +1: 1.0}, abs=1e-14)
    assert comps[+1] == pytest.approx(1.0, abs=1e-14)


@st.composite
def unit_polarization(draw):
    v = np.array([complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))) for _ in range(3)])
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1.0, 0.0, 0.0], complex)
        n = 1.0
    return v / n


@given(eps=unit_polarization())
@settings(max_examples=200)
def test_decomposition_is_unitary_for_random_geometry(eps):
    Beam("cooling", 1.0, 0.0, tuple(eps))
    comps = decompose_polarization(eps)
    assert sum(_weights(comps).values()) == pytest.approx(1.0, abs=1e-10)


# ------------------------------------------------------------ zeeman splitting


def test_zeeman_splitting_at_default_field():
    scheme = LevelScheme()
    delta_s, delta_p = zeeman_splitting(scheme, MagneticField(4.4))
    assert delta_s / TP == pytest.approx(12.33e6, rel=0.01)
    assert delta_p / TP == pytest.approx(4.11e6, rel=0.01)


def test_zeeman_splitting_vanishes_at_zero_field():
    assert zeeman_splitting(LevelScheme(), MagneticField(0.0)) == (0.0, 0.0)


@given(b=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=100)
def test_zeeman_splitting_linear_in_field(b):
    scheme = LevelScheme()
    s1, p1 = zeeman_splitting(scheme, MagneticField(b))
    s2, p2 = zeeman_splitting(scheme, MagneticField(2 * b))
    assert s2 == 2 * s1
    assert p2 == 2 * p1


# ------------------------------------------------------------- doppler limit


def test_doppler_temperature_for_20_mhz_linewidth():
    t_d, _ = doppler_limit_occupation(TP * 20e6, TP * 1.62e6)
    assert 0.45e-3 <= t_d <= 0.50e-3


def test_thermal_occupation_at_half_millikelvin():
    assert thermal_occupation(0.5e-3, TP * 3.32e6) == pytest.approx(2.7, abs=0.2)
    assert thermal_occupation(0.5e-3, TP * 1.62e6) == pytest.approx(5.9, abs=0.3)


def test_doppler_occupation_monotone_decreasing_in_mode_frequency():
    omegas = TP * np.geomspace(0.2e6, 20e6, 25)
    n_bars = [doppler_limit_occupation(TP * 20e6, w)[1] for w in omegas]
    assert all(a > b for a, b in zip(n_bars, n_bars[1:]))


def test_doppler_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        doppler_limit_occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        doppler_limit_occupation(1.0, 0.0)
    # nan returned nan, and an infinite gamma divided by zero
    for bad in (math.nan, math.inf):
        for args in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="gamma and omega must be positive and finite"):
                doppler_limit_occupation(*args)

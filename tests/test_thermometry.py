import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitcool.thermometry
from eitcool.thermometry import (
    SIDEBANDS,
    TAIL,
    FlopRecord,
    ThermalState,
    _bounded_brent,
    _cutoff,
    _edge,
    _flop_table,
    _outside,
    _probe,
    _signal,
    fit_thermal,
    ground_state_probability,
    sideband_flops,
    sideband_ratio_n,
    time_averaged_excitation,
)

from oracles import exact_sideband_flops

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
    for n_bar in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="n_bar must be finite and >= 0"):
            ThermalState(n_bar)
    # a state is its n_bar: the cutoff is derived, not stored
    assert ThermalState.__slots__ == ("n_bar",)
    assert ThermalState(16.0).cutoff == _cutoff(16.0)


@pytest.mark.parametrize("n_bar", [2.0**53, 1e16, 1e308])
def test_cutoff_where_the_thermal_ratio_rounds_to_one(n_bar):
    # n_bar / (n_bar + 1) rounds to 1, so _cutoff reads the tail's root in
    # integers; 700-digit decimals give it independently
    assert n_bar / (n_bar + 1.0) == 1.0
    with decimal.localcontext() as ctx:
        ctx.prec = 700
        n = decimal.Decimal(n_bar)
        exact = math.ceil(decimal.Decimal(TAIL).ln() / (n / (n + 1)).ln()) - 1
    assert abs(_cutoff(n_bar) - exact) * 10**15 <= exact  # ints: 1e308 overflows a float
    with pytest.raises(ValueError, match=f"cutoff of {_cutoff(n_bar)} .* maximum 2000$"):
        ThermalState.from_n_bar(n_bar)


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


@pytest.mark.parametrize("times, excitation, problem", [
    ((0.0, 1e-5), (0.0, math.nan), "finite"),
    ((0.0, math.inf), (0.0, 0.5), "finite"),
    ((0.0, 1e-5, 2e-5), (0.0, 0.5), "3 times but 2 excitations"),
    ((-1e-5, 1e-5), (0.5, 0.5), "times must be finite and >= 0"),
], ids=["nan-excitation", "inf-time", "unequal-lengths", "negative-time"])
def test_flop_record_rejects_malformed_arrays(times, excitation, problem):
    # a NaN excitation used to pass (NaN < 0 and NaN > 1 are both false) and
    # reach fit_thermal as "not bracketed"; unequal lengths failed in numpy
    with pytest.raises(ValueError, match=problem):
        FlopRecord(times=times, excitation=excitation, sideband="blue")


def test_flop_record_rejects_carrier_that_no_model_fits():
    # no sideband model produces or fits a carrier record; it must not reach
    # fit_thermal, which would return a meaningless n_bar with infinite residual
    with pytest.raises(ValueError, match="carrier"):
        FlopRecord(times=(0.0, 1e-5), excitation=(0.0, 0.5), sideband="carrier")


# ---------------------------------------------------------------- fitting


FIT_GRID = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 160)])  # fit_thermal's grid


@pytest.mark.parametrize("eta", [0.0, -0.03])
def test_flops_and_fit_reject_a_probe_eta_that_is_not_positive(eta):
    times = np.linspace(0.0, 2e-3, 120)
    with pytest.raises(ValueError, match="eta_probe must be positive"):
        sideband_flops(ThermalState(2.0), eta, OMEGA0, "blue", times)
    record = sideband_flops(ThermalState(2.0), 0.03, OMEGA0, "blue", times)
    with pytest.raises(ValueError, match="eta_probe must be positive"):
        fit_thermal(record, eta, OMEGA0)


@pytest.mark.parametrize("omega0", [0.0, -OMEGA0, math.nan, math.inf])
def test_flops_and_fit_reject_an_omega0_that_is_not_positive_and_finite(omega0):
    # omega0 = 0 fitted every record to n_bar = 1e-3; -omega0 and a negative
    # time gave flops with no error
    times = np.linspace(0.0, 2e-3, 120)
    with pytest.raises(ValueError, match="omega0 must be positive and finite"):
        sideband_flops(ThermalState(2.0), 0.03, omega0, "blue", times)
    with pytest.raises(ValueError, match="times must be finite and >= 0"):
        sideband_flops(ThermalState(2.0), 0.03, OMEGA0, "blue", -times)
    record = sideband_flops(ThermalState(2.0), 0.03, OMEGA0, "blue", times)
    with pytest.raises(ValueError, match="omega0 must be positive and finite"):
        fit_thermal(record, 0.03, omega0)


@pytest.mark.parametrize("times", [(), (0.0,), (0.0, 0.0)])
def test_fit_rejects_a_record_with_no_time_after_zero(times):
    # the model is 0 at t = 0 for every n_bar: this used to fit to n_bar = 1e-3
    record = FlopRecord(times=times, excitation=(0.0,) * len(times), sideband="blue")
    with pytest.raises(ValueError, match="no pulse time > 0"):
        fit_thermal(record, 0.03, OMEGA0)


def _per_evaluation_fit(record, eta, omega0):
    """Reference for fit_thermal: (n_bar, residual, bracket top index).

    The bracket comes from the per-point grid loop and Brent refines it with
    one sideband_flops call per evaluation, in place of the shared table.
    """
    i = int(np.argmin(_loop_grid_sse(record, eta, omega0, FIT_GRID)))
    target = np.asarray(record.excitation)

    def sse(n_bar):
        model = sideband_flops(ThermalState.from_n_bar(n_bar), eta, omega0, record.sideband,
                               record.times)
        return float(np.sum((np.asarray(model.excitation) - target) ** 2))

    n_bar, residual = _bounded_brent(sse, FIT_GRID[max(i - 1, 0)], FIT_GRID[i + 1], 1e-10)
    return n_bar, residual, i + 1


@pytest.mark.parametrize("n_bar", [0.1, 0.18, 0.5, 2.0, 16.0])
def test_fit_round_trips_noiseless_flops(n_bar):
    times = np.linspace(0.0, 2e-3, 120)
    for sideband in SIDEBANDS:
        record = sideband_flops(ThermalState.from_n_bar(n_bar), 0.03, OMEGA0, sideband, times)
        fit = fit_thermal(record, 0.03, OMEGA0)
        assert fit.n_bar == pytest.approx(n_bar, rel=0.05)
        assert fit.residual < 1e-10
        assert (fit.n_bar, fit.residual) == _per_evaluation_fit(record, 0.03, OMEGA0)[:2]


@pytest.mark.parametrize("eta", [0.03, 0.05])
def test_fit_bracketed_by_the_last_representable_grid_point(eta):
    # the bracket's top is the last grid n_bar the model represents at this
    # eta, the point whose cutoff sizes the sin^2 table; Brent's evaluations
    # above the best grid point read columns past that point's cutoff, and the
    # fit must equal the per-evaluation objective's bit for bit
    cutoffs = np.array([_cutoff(n_bar) for n_bar in FIT_GRID])
    last = np.flatnonzero(eta * np.sqrt(np.maximum(cutoffs, 1)) < 0.5)[-1]
    # four tenths of the way from the second-to-last point to the last, in
    # log n_bar: the best grid point stays the second-to-last
    n_bar = FIT_GRID[last - 1] ** 0.6 * FIT_GRID[last] ** 0.4
    times = np.linspace(0.0, 2e-3, 120)
    for sideband in SIDEBANDS:
        record = sideband_flops(ThermalState.from_n_bar(n_bar), eta, OMEGA0, sideband, times)
        fit = fit_thermal(record, eta, OMEGA0)
        reference_n_bar, reference_residual, top = _per_evaluation_fit(record, eta, OMEGA0)
        assert top == last
        assert (fit.n_bar, fit.residual) == (reference_n_bar, reference_residual)
        assert fit.n_bar == pytest.approx(n_bar, rel=1e-3)


@pytest.mark.parametrize("n_bar", [17.6, 18.5, 19.5, 19.6])
def test_fit_brackets_against_the_model_edge(n_bar):
    # above 18.37, the last grid point the model represents at eta 0.03, and
    # below 19.63, the largest n_bar it represents (cutoff 277): the bracket
    # runs from the best grid point to that edge
    edge = _edge(0.03)
    assert _cutoff(edge) == 277 and 0.03 * math.sqrt(278) >= 0.5
    assert _cutoff(edge * (1 + 1e-14)) == 278
    times = np.linspace(0.0, 2e-3, 120)
    for sideband in SIDEBANDS:
        record = sideband_flops(ThermalState.from_n_bar(n_bar), 0.03, OMEGA0, sideband, times)
        fit = fit_thermal(record, 0.03, OMEGA0)
        assert fit.n_bar == pytest.approx(n_bar, rel=1e-8)
        assert fit.residual < 1e-15


def test_fit_reports_unbracketed_minimum():
    # a flat P(t) = 1/2 record is hotter than any n_bar the first-order model
    # represents at this eta; its best fit runs into the edge of the valid range
    times = np.linspace(0.0, 2e-3, 120)
    record = FlopRecord(times=tuple(times), excitation=(0.5,) * len(times), sideband="blue")
    with pytest.raises(ValueError, match="not bracketed"):
        fit_thermal(record, 0.03, OMEGA0)
    # where the model represents no n_bar at all, its own bound is the message
    with pytest.raises(ValueError, match="first-order sideband model invalid"):
        fit_thermal(record, 0.5, OMEGA0)


# ------------------------------------------- exact sideband model (the ledger)


@pytest.mark.parametrize("sideband", SIDEBANDS)
def test_exact_flops_approach_the_first_order_model_as_eta_squared(sideband):
    state, times = ThermalState.from_n_bar(2.0), np.linspace(0.0, 2e-3, 120)
    gaps = []
    for eta in (0.01, 0.001):
        exact = exact_sideband_flops(state, eta, OMEGA0, sideband, times).excitation
        first = sideband_flops(state, eta, OMEGA0, sideband, times).excitation
        gaps.append(np.max(np.abs(np.subtract(exact, first))))
    # blue: 1.3e-4 at eta = 0.01, 1.0e-6 at eta = 0.001
    assert 0 < gaps[0] < 2e-4 and 0 < gaps[1] < 2e-6
    assert gaps[1] < 0.02 * gaps[0]


@pytest.mark.parametrize("n_bar, eta, sideband, recorded", [
    (16.0, 0.03, "blue", 16.146),  # the bundled thermometry point: +0.91%
    (16.0, 0.03, "red", 16.143),   # +0.89%
    (5.0, 0.03, "blue", 4.973),    # -0.53%
    (0.1, 0.1, "blue", 0.1194),    # the paper's ground-state regime: +19.4%
    (16.0, 0.05, "blue", None),
    (2.0, 0.1, "blue", None),
])
def test_first_order_fit_of_exact_flops_records_its_gap(n_bar, eta, sideband, recorded):
    # the deviation ledger's thermometry line: fit_thermal models first-order
    # sideband Rabi frequencies, and misreads flops made with the exact ones
    state, times = ThermalState.from_n_bar(n_bar), np.linspace(0.0, 2e-3, 120)
    record = exact_sideband_flops(state, eta, OMEGA0, sideband, times)
    if recorded is None:  # flops that no n_bar of the first-order model resembles
        with pytest.raises(ValueError, match="not bracketed"):
            fit_thermal(record, eta, OMEGA0)
        return
    assert fit_thermal(record, eta, OMEGA0).n_bar == pytest.approx(recorded, rel=1e-4)
    # the gap is the model's, not the fit's: first-order flops round-trip
    own = sideband_flops(state, eta, OMEGA0, sideband, times)
    assert fit_thermal(own, eta, OMEGA0).n_bar == pytest.approx(n_bar, rel=1e-6)


def _loop_grid_sse(record, eta, omega0, grid):
    """Reference: one sideband_flops per grid point, inf where it is rejected."""
    target = np.asarray(record.excitation)

    def sse(n_bar):
        try:
            state = ThermalState.from_n_bar(n_bar)
            model = sideband_flops(state, eta, omega0, record.sideband, record.times)
        except ValueError:
            return math.inf
        return float(np.sum((np.asarray(model.excitation) - target) ** 2))

    return np.array([sse(n_bar) for n_bar in grid])


def test_probe_scores_the_fit_grid_up_to_the_model_edge(monkeypatch):
    # the probe's grid is the prefix of FIT_GRID the model represents, each
    # point's bracket top the next point or the edge, and its signals the
    # table times probabilities(), zero-padded: Brent's own weights
    weights = {}

    def recording(table, p):
        if p.ndim == 2:
            weights[id(table)] = p.copy()
        return _signal(table, p)

    monkeypatch.setattr(eitcool.thermometry, "_signal", recording)
    _probe.cache_clear()
    rng = np.random.default_rng(32)
    times = np.linspace(0.0, 2e-3, 120)
    limits = set()
    for eta in (0.01, 0.03, 0.05, 0.1):
        for sideband in SIDEBANDS:
            table, grid, tops, signals = _probe(times.tobytes(), eta, OMEGA0, sideband)
            assert not any(a.flags.writeable for a in (table, grid, tops, signals))
            assert np.array_equal(grid, FIT_GRID[:len(grid)])
            assert tops.tolist() == [*grid[1:], _edge(eta)]
            # every point is inside both bounds of _outside, the next is not
            assert not any(_outside(_cutoff(grid[-1]), eta))
            too_deep, beyond_first_order = _outside(_cutoff(FIT_GRID[len(grid)]), eta)
            limits.add("max_cutoff" if too_deep else "lamb_dicke" if beyond_first_order else "")
            w = weights[id(table)]
            assert w.shape == (table.shape[1], len(grid))
            for column, n_bar in zip(w.T, grid):
                p = ThermalState(n_bar).probabilities()
                expected = np.pad(p, (0, len(column) - len(p)))
                assert np.array_equal(column.view(np.uint64), expected.view(np.uint64))
            for noise in (0.0, 0.02):
                n_bar = _edge(eta) * rng.uniform() ** 2
                flops = sideband_flops(ThermalState(n_bar), eta, OMEGA0, sideband, times)
                noisy = np.clip(np.array(flops.excitation) + rng.normal(0.0, noise, 120), 0, 1)
                record = FlopRecord(times=flops.times, excitation=tuple(noisy),
                                    sideband=sideband)
                sse = ((signals - noisy[:, None]) ** 2).sum(0)
                assert np.argmin(sse) == np.argmin(_loop_grid_sse(record, eta, OMEGA0, FIT_GRID))
    assert limits == {"max_cutoff", "lamb_dicke"}


def test_fit_equals_the_per_evaluation_fit_below_the_last_grid_point():
    # over random probes, records whose best grid point has a grid point above
    # it that the model represents: the reference's bracket is the fit's
    rng = np.random.default_rng(320)
    for draw in range(24):
        eta = rng.uniform(0.01, 0.12)
        sideband = SIDEBANDS[draw % 2]
        times = np.linspace(0.0, rng.uniform(0.2e-3, 4e-3), rng.integers(20, 200))
        last = _probe(times.tobytes(), eta, OMEGA0, sideband)[1][-1]
        n_bar = last * rng.uniform() ** 2
        flops = sideband_flops(ThermalState(n_bar), eta, OMEGA0, sideband, times)
        noise = rng.normal(0.0, 0.02 if draw % 3 else 0.0, len(times))
        noisy = np.clip(np.array(flops.excitation) + noise, 0, 1)
        record = FlopRecord(times=flops.times, excitation=tuple(noisy), sideband=sideband)
        fit = fit_thermal(record, eta, OMEGA0)
        reference_n_bar, reference_residual, top = _per_evaluation_fit(record, eta, OMEGA0)
        assert FIT_GRID[top] <= last
        assert (fit.n_bar, fit.residual) == (reference_n_bar, reference_residual)


# ------------------------------------------------------------ probe model


def test_flops_from_the_probe_table_equal_a_table_of_their_own_bit_for_bit():
    # sideband_flops reads its columns from the probe's table, which runs out
    # to the model edge's cutoff; its excitations are those of a table built
    # for the state's own cutoff, bit for bit
    rng = np.random.default_rng(28)
    for _ in range(24):
        eta = rng.uniform(0.01, 0.1)
        n_bar = _edge(eta) * rng.uniform() ** 2
        sideband = SIDEBANDS[rng.integers(2)]
        times = np.sort(rng.uniform(0.0, rng.uniform(0.2e-3, 4e-3), rng.integers(1, 200)))
        state = ThermalState(n_bar)
        p = state.probabilities()
        expected = _signal(_flop_table(times, len(p), eta, OMEGA0, sideband), p)
        got = np.array(sideband_flops(state, eta, OMEGA0, sideband, times).excitation)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_a_repeated_probe_builds_no_table(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[2:])
        return _flop_table(*args)

    monkeypatch.setattr(eitcool.thermometry, "_flop_table", counting)
    _probe.cache_clear()
    times, state = np.linspace(0.0, 2e-3, 120), ThermalState(15.0)
    # times are checked before the lookup; a probe rejected on a miss leaves
    # nothing in the cache
    with pytest.raises(ValueError, match="times must be finite and >= 0"):
        sideband_flops(state, 0.03, OMEGA0, "red", -times)
    for sideband in ("carrier", ["red"]):  # a list used to raise TypeError: unhashable
        with pytest.raises(ValueError, match="unknown sideband"):
            sideband_flops(state, 0.03, OMEGA0, sideband, times)
    assert calls == []
    with pytest.raises(ValueError, match="omega0 must be positive and finite"):
        sideband_flops(state, 0.03, -OMEGA0, "red", times)
    assert _probe.cache_info().currsize == 0
    calls.clear()
    red = sideband_flops(state, 0.03, OMEGA0, "red", times)
    red_fit = fit_thermal(red, 0.03, OMEGA0)
    assert calls == [(0.03, OMEGA0, "red")]
    assert sideband_flops(state, 0.03, OMEGA0, "red", times) == red
    assert fit_thermal(red, 0.03, OMEGA0) == red_fit
    assert len(calls) == 1
    blue = sideband_flops(state, 0.03, OMEGA0, "blue", times)
    assert fit_thermal(blue, 0.03, OMEGA0).n_bar == pytest.approx(15.0, rel=1e-8)
    assert calls == [(0.03, OMEGA0, "red"), (0.03, OMEGA0, "blue")]
    red_table = _probe(times.tobytes(), 0.03, OMEGA0, "red")[0]
    blue_table = _probe(times.tobytes(), 0.03, OMEGA0, "blue")[0]
    assert not np.array_equal(red_table, blue_table)
    assert not (red_table.flags.writeable or blue_table.flags.writeable)
    assert fit_thermal(red, 0.03, OMEGA0) == red_fit
    assert len(calls) == 2


def test_a_probe_given_as_0d_arrays_is_the_probe_of_their_floats():
    # a 0-d eta_probe or omega0 used to raise TypeError: unhashable type: 'numpy.ndarray'
    times, state = np.linspace(0.0, 2e-3, 120), ThermalState(2.0)
    _probe.cache_clear()
    record = sideband_flops(state, 0.03, OMEGA0, "blue", times)
    fit = fit_thermal(record, 0.03, OMEGA0)
    eta, omega0 = np.array(0.03), np.array(OMEGA0)
    assert sideband_flops(state, eta, omega0, "blue", times) == record
    assert fit_thermal(record, eta, omega0) == fit
    assert _probe.cache_info().currsize == 1 and _probe.cache_info().hits == 3


@pytest.mark.parametrize("name", ["eta_probe", "omega0"])
def test_a_probe_array_with_axes_is_rejected_before_the_lookup(name):
    times, state = np.linspace(0.0, 2e-3, 120), ThermalState(2.0)
    record = sideband_flops(state, 0.03, OMEGA0, "blue", times)
    _probe.cache_clear()
    probe = {"eta_probe": 0.03, "omega0": OMEGA0}
    probe[name] = np.array([probe[name]])
    message = rf"{name} must be one number, not an array of shape \(1,\)"
    with pytest.raises(ValueError, match=message):
        sideband_flops(state, sideband="blue", times=times, **probe)
    with pytest.raises(ValueError, match=message):
        fit_thermal(record, **probe)
    assert _probe.cache_info().currsize == 0


@pytest.mark.parametrize("eta", [0.01, 0.03, 0.05, 0.1])
def test_every_state_the_model_accepts_fits_in_the_probe_table(eta):
    rng = np.random.default_rng(int(eta * 100))
    times = np.linspace(0.0, 2e-3, 120)
    table, _, tops, _ = _probe(times.tobytes(), eta, OMEGA0, "blue")
    edge = tops[-1]
    assert edge == _edge(eta)
    assert ThermalState(edge).checked(eta).cutoff + 1 == table.shape[1]
    for n_bar in edge * rng.uniform(0.0, 1.5, 8):
        try:
            width = ThermalState(n_bar).checked(eta).cutoff + 1
        except ValueError:
            assert ThermalState(n_bar).cutoff + 1 > table.shape[1]
        else:
            assert width <= table.shape[1]


def _brent_problem(rng, kind):
    """A random bounded 1-D minimization of the given kind: (f, lo, hi)."""
    if kind == "monotone":
        # minimum at an end; from hi = 1e150 down to lo = 0 the search takes
        # more than the 500 evaluations it is allowed
        hi, slope = 10.0 ** rng.uniform(0.0, 150.0), float(rng.choice([-1.0, 1.0]))
        return (lambda x: slope * x), 0.0, hi
    lo = rng.uniform(-5.0, 5.0)
    hi = lo + math.exp(rng.uniform(math.log(1e-6), math.log(50.0)))
    c, w = rng.uniform(lo - 1.0, hi + 1.0), rng.uniform(0.1, 5.0)
    if kind == "smooth":
        return (lambda x: (x - c) ** 2 + w * math.cos(3.0 * x)), lo, hi
    if kind == "near-an-end":
        # parabolic steps that land within the tolerance of lo or hi
        c = (lo, hi)[rng.integers(2)] + (hi - lo) * rng.uniform(-1e-7, 1e-7)
        return (lambda x: (x - c) ** 2), lo, hi
    if kind == "non-smooth":
        return (lambda x: abs(x - c) ** 0.5 + w * abs(math.sin(x))), lo, hi
    if kind == "plateaus":
        # ties between f values, and parabolic steps of length zero
        return (lambda x: float(round(abs(x - c) * 8.0 / w))), lo, hi
    if kind == "inf-above":
        # as a thermal fit's sse past the sideband model's validity
        edge = rng.uniform(lo, hi)
        return (lambda x: math.inf if x > edge else (x - c) ** 2 * w), lo, hi
    assert kind == "gaussian-well"  # flat far from the well: golden steps
    return (lambda x: 1e-3 * x - math.exp(-(((x - c) / w) ** 2))), lo, hi


BRENT_KINDS = ["smooth", "gaussian-well", "near-an-end", "non-smooth", "plateaus", "inf-above",
               "monotone"]


@pytest.mark.parametrize("kind", BRENT_KINDS)
def test_bounded_brent_matches_scipy_bit_for_bit(kind):
    # scipy is a test-only oracle; the fitted n_bar is noise-limited, so only
    # the same floats in the same order keep the thermometry golden
    from scipy.optimize import minimize_scalar

    rng = np.random.default_rng(BRENT_KINDS.index(kind))
    for _ in range(60):
        f, lo, hi = _brent_problem(rng, kind)
        xatol = 10.0 ** rng.uniform(-12.0, -2.0)
        x, fx = _bounded_brent(f, lo, hi, xatol)
        with np.errstate(invalid="ignore", over="ignore"):  # scipy's numpy scalars warn
            res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                  options={"xatol": xatol})
        assert (x, fx) == (res.x, res.fun)


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
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="n_bar must be finite and >= 0"):
            ground_state_probability(bad)

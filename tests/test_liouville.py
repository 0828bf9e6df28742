import math

import numpy as np
import pytest

from eitcool.atom import (
    TRANSITIONS,
    Beam,
    LevelScheme,
    MagneticField,
    circular_polarization,
    decompose_polarization,
    zeeman_splitting,
)
from eitcool.liouville import (
    _MIN_BEAT,
    _STACK_ENTRIES,
    VARIANTS,
    ConvergenceError,
    DegenerateSteadyStateError,
    Liouvillian,
    _states,
    build_liouvillian,
    build_system,
    steady_state,
    sweep_states,
)
from eitcool.spectrum import EITConfig, scattering_rates

from conftest import FIG2, TP, fig2_config
from oracles import (
    generator,
    l_minus,
    periodic_steady_state,
    propagate,
    reference_liouvillian,
    reference_system,
    static_approximation,
    truncated_floquet_state,
    two_level_system,
    unvec,
    vec,
)

GAMMA = TP * 20e6


def _system(variant, **overrides):
    return fig2_config(variant, **overrides).system()


def _coupling_set(system):
    return {(system.labels[c.lower], system.labels[c.upper], c.q) for c in system.couplings}


# ------------------------------------------------------------- system assembly


def test_three_level_couplings_and_static_hamiltonian():
    system = _system("three_level")
    assert system.labels == ("S-", "S+", "P+")
    assert _coupling_set(system) == {("S-", "P+", +1), ("S+", "P+", 0)}
    assert system.beat == 0.0
    assert not any(c.oscillates for c in system.couplings)
    liouv = build_liouvillian(system)
    assert not liouv.l_plus.any()


def test_four_level_ideal_couplings():
    system = _system("four_level_ideal")
    assert system.labels == ("S-", "S+", "P-", "P+")
    assert _coupling_set(system) == {
        ("S-", "P+", +1), ("S-", "P-", 0), ("S+", "P+", 0)
    }
    assert system.beat == 0.0
    liouv = build_liouvillian(system)
    assert not liouv.l_plus.any()


def test_four_level_geometry_adds_oscillating_sigma_minus():
    system = _system("four_level_geometry")
    assert _coupling_set(system) == {
        ("S-", "P+", +1), ("S-", "P-", 0), ("S+", "P+", 0), ("S+", "P-", -1)
    }
    oscillating = [c for c in system.couplings if c.oscillates]
    assert len(oscillating) == 1
    assert (system.labels[oscillating[0].lower],
            system.labels[oscillating[0].upper]) == ("S+", "P-")
    # the residual beat closes the frequency loop: nu_b = dsigma - dpi + delta_S
    scheme = LevelScheme()
    delta_s, _ = zeeman_splitting(scheme, MagneticField(4.4))
    expected = FIG2["delta_sigma"] - FIG2["delta_pi"] + delta_s
    assert system.beat == pytest.approx(expected, rel=1e-12)
    assert system.beat / TP == pytest.approx(12.33e6, rel=0.01)


def test_degenerate_lasers_suppress_the_beat():
    # detunings arranged so the two lasers coincide: the coupling structure
    # is that of any other detuning, but the beat is nulled and the
    # Liouvillian is solved as static
    scheme = LevelScheme()
    delta_s, _ = zeeman_splitting(scheme, MagneticField(4.4))
    cfg = fig2_config("four_level_geometry",
                      delta_pi=FIG2["delta_sigma"] + delta_s)
    system = cfg.system()
    assert system.couplings == _system("four_level_geometry").couplings
    assert abs(system.beat) < 1e-6
    liouv = build_liouvillian(system)
    assert abs(liouv.beat) < _MIN_BEAT
    assert np.trace(steady_state(liouv)).real == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(steady_state(liouv), sweep_states(liouv)[0])


def test_degenerate_beat_fold_matches_propagation():
    # at beat 0 the sigma- coupling stops oscillating and L(t) = L0 + L+ + L-
    # is constant: brute-force propagation of it relaxes onto the folded
    # steady state, 0.08 away from the state with L+/- left out; a stronger,
    # further detuned cooling beam than fig2's relaxes within 600 / Gamma
    cfg = fig2_config("four_level_geometry", omega_pi=TP * 15e6, delta_pi=TP * 60e6)
    liouv = build_liouvillian(cfg.system())._replace(beat=0.0)
    rho = propagate(liouv, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), 600.0 / GAMMA)
    assert np.max(np.abs(rho - steady_state(liouv))) <= 1e-7


def test_effective_rabi_amplitudes_are_reconstructible():
    cfg = fig2_config("four_level_geometry")
    system = cfg.system()
    beams = {b.label: b for b in cfg.beams()}
    for c in system.couplings:
        beam = beams[c.beam]
        comps = decompose_polarization(beam.polarization)
        upper, cg = TRANSITIONS[(system.labels[c.lower], c.q)]
        assert upper == system.labels[c.upper]
        expected = beam.rabi * comps[c.q] * cg
        assert c.rabi_eff == pytest.approx(expected, rel=1e-12)


def test_each_coupling_driven_by_exactly_one_beam():
    system = _system("four_level_geometry")
    for c in system.couplings:
        assert c.beam in ("coupling", "cooling")
    # no transition appears twice
    pairs = [(c.lower, c.upper) for c in system.couplings]
    assert len(pairs) == len(set(pairs))


def test_transition_driven_at_two_frequencies_is_rejected():
    pol = tuple(circular_polarization(+1))
    mk = lambda label, detuning: Beam(label, 1e6, detuning, pol)
    beams = (mk("coupling", TP * 70e6), mk("cooling", TP * 60e6))
    with pytest.raises(ValueError, match="two distinct frequencies"):
        build_system(LevelScheme(), MagneticField(4.4), *beams, "three_level")


def test_coupling_off_the_beat_is_rejected():
    # an elliptical coupling beam along B puts a sigma- coupling on (S+, P-),
    # which rotates at 2 (nu_c - nu_g) in the frame; no Liouvillian term runs it
    cfg = fig2_config("four_level_ideal")
    fig2_coupling, fig2_cooling = cfg.beams()
    pol = 0.8 * circular_polarization(+1) + 0.6 * circular_polarization(-1)
    coupling = fig2_coupling._replace(polarization=tuple(pol))
    with pytest.raises(ValueError, match=r"\('S\+', 'P-'\)"):
        build_system(cfg.scheme, cfg.field, coupling, fig2_cooling, "four_level_ideal")


def test_unknown_variant_rejected():
    cfg = fig2_config("three_level")
    for variant in ("five_level", "two_level"):  # two_level is a test oracle only
        with pytest.raises(ValueError):
            build_system(cfg.scheme, cfg.field, *cfg.beams(), variant)


# --------------------------------------------------------------- vectorization


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(7)
    rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(unvec(vec(rho), 4), rho)


# ------------------------------------------------------------- liouvillian


def _pure_decay_liouvillian(variant="four_level_ideal"):
    cfg = fig2_config(variant, omega_sigma=0.0, omega_pi=0.0, b_gauss=0.0,
                      delta_sigma=0.0, delta_pi=0.0)
    return build_liouvillian(cfg.system())


def test_pure_decay_spectrum():
    liouv = _pure_decay_liouvillian()
    eigs = np.sort(np.linalg.eigvals(liouv.l0).real)
    # 4 ground-manifold zero modes, 8 optical coherences at -Gamma/2,
    # 4 excited modes at -Gamma
    expected = np.sort(np.concatenate([
        np.zeros(4), -0.5 * GAMMA * np.ones(8), -GAMMA * np.ones(4)
    ]))
    assert np.allclose(eigs, expected, rtol=1e-9)


def test_trace_preservation_on_random_hermitian_matrices():
    liouv = build_liouvillian(_system("four_level_geometry"))
    rng = np.random.default_rng(11)
    scale = np.max(np.abs(liouv.l0))
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a + a.conj().T
        for t in (0.0, 1e-9, 3e-8):
            drho = unvec(generator(liouv)(t, vec(rho)), 4)
            assert abs(np.trace(drho)) <= 1e-12 * scale


def test_no_spurious_gain_in_static_spectrum():
    for variant in ("three_level", "four_level_ideal"):
        liouv = build_liouvillian(_system(variant))
        eigs = np.linalg.eigvals(liouv.l0)
        assert np.max(eigs.real) <= 1e-10 * np.max(np.abs(liouv.l0))


# ------------------------------------------------------------- steady state


def test_two_level_pure_decay_steady_state_is_the_ground_state():
    liouv = build_liouvillian(two_level_system(0.0, 0.0, GAMMA))
    rho = steady_state(liouv)
    assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)  # S+ is index 0
    assert abs(rho[1, 1]) <= 1e-12


def test_four_level_pure_decay_steady_state_is_degenerate():
    # with no drive the two ground states give a multi-dimensional null space
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(_pure_decay_liouvillian("four_level_ideal"))


def test_degenerate_geometry_harmonics_raise_like_the_static_solve():
    liouv = build_liouvillian(_system("four_level_geometry", omega_sigma=0.0, omega_pi=0.0))
    assert abs(liouv.beat) >= _MIN_BEAT
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(liouv)
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(static_approximation(liouv))


@pytest.mark.parametrize("variant", VARIANTS)
def test_weak_drive_steady_state_is_unique_until_the_drive_is_off(variant):
    # the uniqueness check solves with row 0 and with the last row replaced,
    # two LUs.  At drive scale s the ground states are pumped at a rate of
    # order s^2, so the inverse of either bordered matrix grows as 1/s^2; the
    # two solutions still agree to round-off, but a check built on one LU (a
    # rank-2 update of it, or the size of its inverse) reads that growth as
    # a second null vector and would fail these points
    cfg = fig2_config(variant)
    deltas = cfg.delta_pi + TP * np.linspace(-3e6, 3e6, 7)
    for scale in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 0.0):
        weak = cfg._replace(omega_sigma=scale * cfg.omega_sigma, omega_pi=scale * cfg.omega_pi)
        liouv = build_liouvillian(weak.system(deltas))
        rho0, rho1, _, errors = sweep_states(liouv)
        if scale == 0.0:
            assert all(isinstance(e, DegenerateSteadyStateError) for e in errors)
            continue
        assert errors == [None] * len(deltas)
        for l0, r0, r1 in zip(liouv.l0, rho0, rho1):
            assert np.trace(r0).real == pytest.approx(1.0, abs=1e-12)
            # the period average of the master equation: L0 rho_0 + L- rho_+1 + L+ rho_-1
            balance = l0 @ vec(r0) + l_minus(liouv) @ vec(r1) + liouv.l_plus @ vec(r1.conj().T)
            assert np.max(np.abs(balance)) <= 1e-8 * np.max(np.abs(l0))


def _kron_liouvillian(system):
    """Oracle: the Lindblad superoperator written with np.kron (column-major vec)."""
    d = system.dim
    eye = np.eye(d)
    h0 = np.diag(system.h_diag.astype(complex))
    a = np.zeros((d, d), complex)
    for c in system.couplings:
        block = np.zeros((d, d), complex)
        block[c.upper, c.lower] = c.rabi_eff / 2
        if c.oscillates:
            a += block
        else:
            h0 += block + block.conj().T

    def commutator(h):
        return -1j * (np.kron(eye, h) - np.kron(h.T, eye))

    l0 = commutator(h0)
    for upper, lower, rate in system.decays:
        s = np.zeros((d, d), complex)
        s[lower, upper] = 1.0
        sds = s.conj().T @ s
        l0 += rate * (
            np.kron(s.conj(), s) - 0.5 * np.kron(eye, sds) - 0.5 * np.kron(sds.T, eye)
        )
    return l0, commutator(a.conj().T), commutator(a)


def test_kron_free_liouvillian_matches_kron_oracle(rng):
    for _ in range(40):
        variant = str(rng.choice(VARIANTS))
        cfg = EITConfig(
            variant=variant,
            omega_sigma=rng.uniform(0.0, 2.0) * GAMMA,
            omega_pi=rng.uniform(0.0, 0.5) * GAMMA,
            delta_sigma=rng.uniform(-5.0, 5.0) * GAMMA,
            delta_pi=rng.uniform(-5.0, 5.0) * GAMMA,
            b_gauss=rng.uniform(0.5, 10.0),
            beam_angle=math.radians(rng.uniform(30.0, 150.0)),
        )
        # each system also without its decays: a closed atom is built the same way
        for system in (cfg.system(), cfg.system()._replace(decays=())):
            liouv = build_liouvillian(system)
            oracle = _kron_liouvillian(system)
            # L- is the mirror C L+ C the solve derives, against the oracle's own
            minus = l_minus(liouv)
            for got, want in zip((liouv.l0, liouv.l_plus, minus), oracle):
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
            # L(t) preserves Hermiticity, exactly: C L0 C = L0 and C L- C = L+, with
            # C the antilinear map vec(rho) -> vec(rho^dagger) = swap conj(vec(rho))
            d = system.dim
            swap = np.zeros((d * d, d * d))
            for i in range(d):
                for j in range(d):
                    swap[i * d + j, j * d + i] = 1.0  # vec(rho^T) = swap vec(rho)
            assert np.array_equal(swap @ liouv.l0.conj() @ swap, liouv.l0)
            assert np.array_equal(swap @ minus.conj() @ swap, liouv.l_plus)
            # the static fold sums L+ and L- first, exact where they share no entry
            assert not ((liouv.l_plus != 0) & (minus != 0)).any()


def _bits(x) -> np.ndarray:
    x = np.ascontiguousarray(x)
    return np.concatenate([[x.dtype.itemsize], x.shape, x.view(np.uint64).ravel()])


def _random_laser(rng, shape, lo, hi):
    """A laser parameter in [lo, hi) Gamma: one number, or an array of ``shape``."""
    x = rng.uniform(lo, hi, size=shape) * GAMMA
    return float(x) if shape == () else x


@pytest.mark.parametrize("variant", VARIANTS)
def test_build_equals_the_reference_builder_bit_for_bit(variant):
    # the cached structures must write every float of the system and of L0
    # and L+ exactly as the coupling-by-coupling builder does, signed zeros
    # included: one ulp anywhere moves the golden dark-point row.  L- = C L+ C,
    # which a Liouvillian does not store, equals the builder's own L- in value;
    # the two differ only in the sign of some zero real or imaginary parts
    rng = np.random.default_rng(23)
    shapes = [((), (), (), ()), ((), (), (), (2, 3)), ((5,), (), (), (2, 5)),
              ((), (4,), (4,), ()), ((3, 1), (1, 2), (), (2,))]
    schemes = (LevelScheme(), LevelScheme(lande_g_S=2.1, lande_g_P=0.7, gamma=TP * 15e6))
    for trial in range(40):
        s_sigma, s_pi, s_dsigma, s_dpi = shapes[trial % len(shapes)]
        omega_sigma, omega_pi = (_random_laser(rng, s_sigma, 0.0, 2.0),
                                 _random_laser(rng, s_pi, 0.0, 0.5))
        if trial % 7 == 3:  # no drive at all, or no cooling light
            omega_sigma, omega_pi = 0.0 * omega_sigma, 0.0 * omega_pi
        if trial % 7 == 5:
            omega_pi = 0.0
        cfg = EITConfig(
            variant=variant, omega_sigma=omega_sigma, omega_pi=omega_pi,
            delta_sigma=_random_laser(rng, s_dsigma, -5.0, 5.0),
            delta_pi=_random_laser(rng, s_dpi, -5.0, 5.0),
            b_gauss=0.0 if trial % 5 == 4 else rng.uniform(0.5, 10.0),
            beam_angle=math.radians(90.0 if trial % 3 == 0 else rng.uniform(10.0, 170.0)),
            scheme=schemes[trial % 2],
        )
        args = (cfg.scheme, cfg.field, *cfg.beams(), variant)
        got, want = build_system(*args), reference_system(*args)
        assert got.labels == want.labels and got.decays == want.decays
        assert np.array_equal(_bits(got.h_diag), _bits(want.h_diag))
        assert np.array_equal(_bits(got.beat), _bits(want.beat))
        assert [c._replace(rabi_eff=0) for c in got.couplings] == [
            c._replace(rabi_eff=0) for c in want.couplings]
        for a, b in zip(got.couplings, want.couplings):
            assert np.array_equal(_bits(a.rabi_eff), _bits(b.rabi_eff))
        built, (reference, minus) = build_liouvillian(got), reference_liouvillian(want)
        for a, b in zip(built, reference):
            assert np.array_equal(_bits(a), _bits(b))
        assert np.array_equal(l_minus(built), minus)


def test_liouvillian_stack_broadcasts_the_laser_parameters():
    # a detuning sweep shares one L+; a cooling Rabi frequency per
    # point gives one per point; every member equals the single-point build
    cfg = fig2_config("four_level_geometry")
    deltas = cfg.delta_pi + TP * np.array([-2e6, -0.5e6, 0.0, 1e6, 3e6])
    omega_pi = cfg.omega_pi * np.array([0.5, 0.8, 1.0, 1.3, 2.0])
    swept = build_liouvillian(cfg.system(deltas))
    assert swept.l0.shape == (5, 16, 16) and swept.l_plus.shape == (16, 16)
    stacked = build_liouvillian(cfg._replace(omega_pi=omega_pi).system(deltas))
    assert stacked.l_plus.shape == (5, 16, 16)
    for i, d in enumerate(deltas):
        one = build_liouvillian(cfg._replace(omega_pi=omega_pi[i]).system(d))
        assert np.array_equal(stacked.l0[i], one.l0)
        assert np.array_equal(stacked.l_plus[i], one.l_plus)
        assert stacked.beat[i] == one.beat
        assert np.array_equal(swept.l0[i], build_liouvillian(cfg.system(d)).l0)


@pytest.mark.parametrize("variant", ["three_level", "four_level_geometry"])
def test_one_point_solvers_reject_a_stack(variant):
    # a stack in any field: L0, the beat, or L+ alone
    cfg = fig2_config(variant)
    stack = build_liouvillian(cfg.system(cfg.delta_pi + TP * np.array([0.0, 1e6])))
    one = build_liouvillian(cfg.system())
    for liouv in (stack, one._replace(beat=np.array([1.0, 2.0]) * GAMMA),
                  one._replace(l_plus=np.stack([one.l_plus] * 2))):
        with pytest.raises(ValueError, match="sweep_states"):
            steady_state(liouv)


@pytest.mark.parametrize(
    "angle_deg, b_gauss", [(125.0, 4.4), (55.0, 2.0), (100.0, 8.0), (160.0, 0.5)]
)
def test_floquet_fold_steps_live_on_seven_by_seven_blocks(angle_deg, b_gauss):
    # the structure the fold relies on: with S the columns where L+ is nonzero
    # and S' = t[S] (vec(rho^T) = vec(rho)[t]), L+ lives on S' x S and L- on
    # S x S', so a fold step R = M^-1 (-L+) is zero off the columns S
    liouv = build_liouvillian(_system(
        "four_level_geometry", beam_angle=math.radians(angle_deg), b_gauss=b_gauss
    ))
    d2 = liouv.dim**2
    t = np.arange(d2).reshape(liouv.dim, liouv.dim).T.ravel()
    cols = np.flatnonzero(np.any(liouv.l_plus != 0, axis=0))
    rows = np.sort(t[cols])
    assert len(cols) == 7
    outside = np.ones((d2, d2), bool)
    outside[np.ix_(rows, cols)] = False
    minus = l_minus(liouv)
    assert not liouv.l_plus[outside].any()
    assert not minus[outside.T].any()
    r = np.linalg.solve(liouv.l0 - 1j * liouv.beat * np.eye(d2), -liouv.l_plus)
    assert not np.delete(r, cols, axis=1).any()
    # one fold step on the blocks equals the dense 16 x 16 products exactly:
    # L- R into the S x S block, L+ (C R C) into the S' x t[S] block, with C
    # the mirror vec(rho) -> vec(rho^dagger)
    block = np.zeros((d2, d2), complex)
    block[np.ix_(cols, cols)] = minus[np.ix_(cols, rows)] @ r[np.ix_(rows, cols)]
    assert np.array_equal(block, minus @ r)
    block = np.zeros((d2, d2), complex)
    mirrored = r.conj()[np.ix_(t[cols], cols)]  # the rows S of C R C, on its columns t[S]
    block[np.ix_(rows, t[cols])] = liouv.l_plus[np.ix_(rows, cols)] @ mirrored
    assert np.array_equal(block, liouv.l_plus @ r.conj()[np.ix_(t, t)])


def test_an_oblique_beam_point_at_order_four_factors_nine_matrices(monkeypatch):
    # 2 + 4 fold solves, one LU for the order-2 state, which is only compared
    # with the next order, and the two LUs of the uniqueness check for the
    # order-4 state that is returned
    solve, sizes = np.linalg.solve, []

    def counted(a, b):
        sizes.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    _, _, order, errors = sweep_states(build_liouvillian(_system("four_level_geometry")))
    assert order == 4 and errors == [None]
    assert sizes == [1, 1, 1, 1, 1, 1, 1, 2]


def test_stacked_steady_states_isolate_a_degenerate_point():
    good = build_liouvillian(_system("four_level_ideal"))
    dead = build_liouvillian(_system("four_level_ideal", omega_sigma=0.0, omega_pi=0.0))
    zero = np.zeros_like(good.l0)
    rho, _, _, errors = _states(np.stack([good.l0, dead.l0]), zero, np.zeros(2), good.dim)
    assert errors[0] is None
    assert isinstance(errors[1], DegenerateSteadyStateError)
    assert np.array_equal(rho[0], steady_state(good))
    assert np.all(np.isnan(rho[1]))


def test_stacked_harmonics_isolate_a_degenerate_point():
    # the stack shares L+; zero it so that the second point is undriven
    liouv = build_liouvillian(_system("four_level_geometry"))
    good = Liouvillian(liouv.l0, 0.0 * liouv.l_plus, liouv.beat)
    dead = build_liouvillian(_system("four_level_geometry", omega_sigma=0.0, omega_pi=0.0))
    rho0, rho1, order, errors = sweep_states(Liouvillian(
        np.stack([good.l0, dead.l0]), good.l_plus, np.array([good.beat, dead.beat]),
    ))
    assert errors[0] is None
    assert isinstance(errors[1], DegenerateSteadyStateError)
    assert np.array_equal(rho0[0], steady_state(good))
    assert np.array_equal(rho1[0], sweep_states(good)[1])
    assert order[0] == 4
    assert np.all(np.isnan(rho0[1]))


def _points(liouv, sel):
    """The points ``sel`` (a slice) of a flat stacked Liouvillian; a shared L+ stays shared."""
    l_plus = liouv.l_plus
    return Liouvillian(liouv.l0[sel], l_plus if l_plus.ndim == 2 else l_plus[sel],
                       liouv.beat[sel] if np.ndim(liouv.beat) else liouv.beat)


def _same_solve(a, b) -> bool:
    """Two ``sweep_states`` results agree bit for bit, and in their errors' types and text."""
    return all(x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))
               for x, y in zip(a[:3], b[:3])) and (
        [(type(e), str(e)) for e in a[3]] == [(type(e), str(e)) for e in b[3]])


def _stacking_batches():
    """(name, flat stacked Liouvillian, degenerate points) for the stacking test."""
    rng = np.random.default_rng(24)
    batches = []
    for variant, n in (("three_level", 60), ("four_level_ideal", 20),  # one stack
                       ("three_level", 230), ("four_level_ideal", 70)):  # three stacks
        cfg = fig2_config(variant)
        deltas = cfg.delta_pi + TP * rng.uniform(-4e6, 4e6, n)
        batches.append((f"{variant} x {n}", build_liouvillian(cfg.system(deltas)), []))
    # static and oblique-beam points in one stack: the lasers coincide at d0,
    # and one cooling Rabi frequency per point gives one L+ per point
    cfg = fig2_config("four_level_geometry")
    nu_c, nu_g_at_zero = cfg.laser_frequencies(0.0)
    d0 = nu_c - nu_g_at_zero
    deltas = d0 + TP * rng.uniform(-3e6, 3e6, 24)
    deltas[[3, 17]] = d0
    assert (np.abs(build_liouvillian(cfg.system(deltas)).beat) < _MIN_BEAT).sum() == 2
    batches.append(("geometry, shared L+", build_liouvillian(cfg.system(deltas)), []))
    omega_pi = cfg.omega_pi * rng.uniform(0.3, 5.0, 24)
    batches.append(("geometry, L+ per point",
                    build_liouvillian(cfg._replace(omega_pi=omega_pi).system(deltas)), []))
    # an undriven member of each kind of stack
    for variant, n, dead in (("three_level", 40, 11), ("four_level_ideal", 50, 37),
                             ("four_level_geometry", 12, 5)):
        cfg = fig2_config(variant)
        omega_sigma, omega_pi = cfg.omega_sigma * np.ones(n), cfg.omega_pi * np.ones(n)
        omega_sigma[dead] = omega_pi[dead] = 0.0
        deltas = cfg.delta_pi + TP * rng.uniform(-3e6, 3e6, n)
        liouv = build_liouvillian(
            cfg._replace(omega_sigma=omega_sigma, omega_pi=omega_pi).system(deltas))
        batches.append((f"{variant} x {n}, point {dead} undriven", liouv, [dead]))
    return batches


def test_stacking_never_changes_a_points_bits():
    # a sweep, every point solved alone and the sweep split at random chunk
    # boundaries give the same bits: one stack or several, all static or mixed
    # with oblique-beam points, with and without a degenerate member
    rng = np.random.default_rng(24)
    kinds = set()
    for name, liouv, dead in _stacking_batches():
        n, size = len(liouv.l0), _STACK_ENTRIES // liouv.dim**4
        static = np.abs(np.broadcast_to(liouv.beat, n)) < _MIN_BEAT
        kinds.add((n > size, static.all(), static.any(), bool(dead)))
        whole = sweep_states(liouv)
        alone = [sweep_states(_points(liouv, slice(i, i + 1))) for i in range(n)]
        cuts = [0, *sorted(rng.choice(np.arange(1, n), 3, replace=False)), n]
        split = [sweep_states(_points(liouv, slice(a, b))) for a, b in zip(cuts, cuts[1:])]
        for parts in (alone, split):
            joined = [np.concatenate([p[f] for p in parts]) for f in range(3)]
            assert _same_solve((*joined, sum((p[3] for p in parts), [])), whole), name
        failed = [i for i, e in enumerate(whole[3]) if e is not None]
        assert failed == dead, name
        for i in dead:
            assert isinstance(whole[3][i], DegenerateSteadyStateError), name
            assert np.isnan(whole[0][i]).all() and np.isnan(whole[1][i]).all(), name
    # one stack all static, several all static, one mixed, and degenerate members
    assert {(False, True, True, False), (True, True, True, False),
            (False, False, True, False), (False, True, True, True)} <= kinds


def test_oblique_beam_sweep_keeps_its_stacked_temporaries():
    # fig2's 114 oblique-beam points (4 stacks of 32): the traced peak of the
    # solve stays within 7 stacks' worth of complex entries, so a design with
    # larger stacked temporaries (all fold shifts or two orders in one array)
    # fails here before it costs the benchmark's peak RSS
    import tracemalloc

    cfg = fig2_config("four_level_geometry")
    omegas = TP * np.linspace(0.5e6, 4e6, 57)
    liouv = build_liouvillian(cfg.system(np.concatenate([cfg.delta_pi - omegas,
                                                         cfg.delta_pi + omegas])))
    sweep_states(liouv)  # warm: the first call builds nothing traced
    tracemalloc.start()
    try:
        _, _, order, errors = sweep_states(liouv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert errors == [None] * 114 and set(order.ravel()) == {4}
    assert peak <= 7 * _STACK_ENTRIES * 16


def test_two_level_saturation_formula():
    # independently-derived resonance fluorescence steady state
    for omega, delta in [(0.3 * GAMMA, 0.0), (0.8 * GAMMA, 0.5 * GAMMA),
                         (2.0 * GAMMA, -1.2 * GAMMA)]:
        rho = steady_state(build_liouvillian(two_level_system(omega, delta, GAMMA)))
        p_upper = rho[1, 1].real
        expected = (omega**2 / 4) / (delta**2 + omega**2 / 2 + GAMMA**2 / 4)
        assert p_upper == pytest.approx(expected, rel=1e-10)


def test_three_level_dark_state_has_empty_upper_level():
    rho = steady_state(build_liouvillian(_system("three_level")))
    assert rho[2, 2].real <= 1e-10


def test_steady_state_matches_long_time_propagation():
    from conftest import random_static_config

    rng = np.random.default_rng(3)
    cfg = random_static_config(rng)
    liouv = build_liouvillian(cfg.system())
    rho_ss = steady_state(liouv)
    dim = liouv.dim
    finals = []
    for _ in range(2):
        p = rng.dirichlet(np.ones(dim))
        finals.append(propagate(liouv, np.diag(p).astype(complex), 200.0 / GAMMA))
    # the steady state is independent of initialization and matches the solve
    assert np.max(np.abs(finals[0] - finals[1])) <= 1e-7
    assert np.max(np.abs(finals[0] - rho_ss)) <= 1e-7


def test_steady_state_of_a_periodic_liouvillian_is_its_period_average():
    liouv = build_liouvillian(_system("four_level_geometry"))
    assert abs(liouv.beat) >= _MIN_BEAT
    assert np.array_equal(steady_state(liouv), sweep_states(liouv)[0])


def test_global_frame_offset_leaves_steady_state_unchanged():
    # re-zeroing the rotating frame adds a multiple of the identity to H,
    # which must not affect the physics
    system = _system("four_level_ideal")
    shifted = system._replace(h_diag=system.h_diag + 0.37 * GAMMA)
    rho_a = steady_state(build_liouvillian(system))
    rho_b = steady_state(build_liouvillian(shifted))
    assert np.max(np.abs(rho_a - rho_b)) <= 1e-10


def test_steady_state_is_a_density_matrix():
    rho = steady_state(build_liouvillian(_system("four_level_ideal")))
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-8


# --------------------------------------------------------------- propagation


def test_propagate_at_t_zero_is_identity():
    liouv = build_liouvillian(_system("three_level"))
    rho0 = np.diag([0.5, 0.5, 0.0]).astype(complex)
    assert np.array_equal(propagate(liouv, rho0, 0.0), rho0)


def test_propagate_rejects_negative_time():
    liouv = build_liouvillian(_system("three_level"))
    with pytest.raises(ValueError):
        propagate(liouv, np.eye(3, dtype=complex) / 3, -1.0)


def test_pure_decay_population_drops_by_e_after_one_lifetime():
    liouv = build_liouvillian(two_level_system(0.0, 0.0, GAMMA))
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    rho = propagate(liouv, rho0, 1.0 / GAMMA)
    assert rho[1, 1].real == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_propagation_preserves_trace_and_hermiticity():
    liouv = build_liouvillian(_system("four_level_geometry"))
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0)
    rho = propagate(liouv, rho0, 100.0 / GAMMA)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-9


# ---------------------------------------------------------- periodic solvers


def test_harmonic_solution_with_zero_oscillating_amplitude_is_static():
    liouv = build_liouvillian(_system("four_level_geometry"))
    zeroed = Liouvillian(l0=liouv.l0, l_plus=0.0 * liouv.l_plus, beat=liouv.beat)
    rho0 = steady_state(zeroed)
    assert np.max(np.abs(rho0 - steady_state(static_approximation(zeroed)))) <= 1e-12


def test_harmonic_solution_continuous_in_oscillating_amplitude():
    liouv = build_liouvillian(_system("four_level_geometry"))
    small = Liouvillian(l0=liouv.l0, l_plus=1e-6 * liouv.l_plus, beat=liouv.beat)
    rho0 = steady_state(small)
    rho_static = steady_state(Liouvillian(liouv.l0, 0.0 * liouv.l_plus, 0.0))
    assert np.max(np.abs(rho0 - rho_static)) <= 1e-8


def test_harmonic_components_are_a_consistent_fourier_set():
    rho0 = steady_state(build_liouvillian(_system("four_level_geometry")))
    assert np.max(np.abs(rho0 - rho0.conj().T)) <= 1e-10
    assert np.trace(rho0).real == pytest.approx(1.0, abs=1e-10)


def _criterion_08_geometry_systems(count):
    """Seeded oblique-beam systems with criterion 08's laser ranges."""
    rng = np.random.default_rng(8)
    systems = []
    for _ in range(count):
        dsig = rng.uniform(0.2, 1.5) * GAMMA * rng.choice([-1, 1])
        dpi = dsig + rng.uniform(0.1, 1.0) * GAMMA * rng.choice([-1, 1])
        systems.append(EITConfig(
            variant="four_level_geometry",
            omega_sigma=rng.uniform(0.3, 1.2) * GAMMA,
            omega_pi=rng.uniform(0.3, 1.2) * GAMMA,
            delta_sigma=dsig,
            delta_pi=dpi,
        ).system())
    return systems


def test_harmonic_solution_agrees_with_propagation_average():
    # independent oracle: one-period monodromy of brute-force propagation, at
    # the fig2 point and at four seeded points (beats from 0.23 to 1.25 Gamma),
    # each with its truncation order pinned
    systems = [_system("four_level_geometry")] + _criterion_08_geometry_systems(4)
    for system, expected_order in zip(systems, (4, 10, 6, 6, 6)):
        liouv = build_liouvillian(system)
        # the propagation is tightened past the default, whose error reaches
        # 1.5e-12 at some of these points; the harmonic solve's is below 1e-14
        rho_prop = periodic_steady_state(liouv, rtol=1e-12, atol=1e-14)
        rho_harm, _, order, _ = sweep_states(liouv)
        assert np.trace(rho_prop).real == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(rho_prop - rho_harm)) <= 1e-12
        assert order == expected_order
        assert np.array_equal(rho_harm, steady_state(liouv))


def test_harmonic_solution_agrees_with_propagation_average_at_high_orders():
    # seeded draws (counted from 1) that need orders 8 and 10, against the
    # same oracle at the same tolerances and bound as above
    systems = _criterion_08_geometry_systems(30)
    for draw, expected_order in ((14, 10), (16, 8), (17, 8), (26, 8), (27, 10)):
        liouv = build_liouvillian(systems[draw - 1])
        rho_prop = periodic_steady_state(liouv, rtol=1e-12, atol=1e-14)
        rho_harm, _, order, _ = sweep_states(liouv)
        assert np.max(np.abs(rho_prop - rho_harm)) <= 1e-12, draw
        assert order == expected_order, draw
    # draw 11 has a beat of 0.008 Gamma: over its period of 785 / Gamma the
    # monodromy oracle's rho(0) is off by 5e-9, and the slow relaxation carries
    # 1e-11 of that into its average at any tolerance from 1e-10 to 3e-14, so
    # the point is checked against the truncated Floquet equations instead,
    # solved in one banded LU at order 20, over twice the fold's order
    liouv = build_liouvillian(systems[10])
    rho_harm, rho1, order, _ = sweep_states(liouv)
    assert order == 8
    rho_ref, rho1_ref = truncated_floquet_state(liouv, 20)
    assert np.max(np.abs(rho_ref - rho_harm)) <= 1e-12
    assert np.max(np.abs(rho1_ref - rho1)) <= 1e-12


def test_truncation_order_waits_for_rho_plus_one():
    # a strongly driven point (beat 0.093 Gamma) where rho_0 moves by less than
    # 1e-12 from order 10 to 12 while rho_{+1}, which W reads, is still 2e-12
    # off; the fold goes on until rho_{+1} settles too
    liouv = build_liouvillian(EITConfig(
        variant="four_level_geometry",
        omega_sigma=1.188817 * GAMMA, omega_pi=2.887822 * GAMMA,
        delta_sigma=-1.638675 * GAMMA, delta_pi=-0.705475 * GAMMA,
        b_gauss=7.322978, beam_angle=math.radians(136.460122),
    ).system())
    rho0, rho1, order, _ = sweep_states(liouv)
    assert order == 16
    rho0_ref, rho1_ref = truncated_floquet_state(liouv, 40)
    assert np.max(np.abs(rho0_ref - rho0)) <= 1e-13
    assert np.max(np.abs(rho1_ref - rho1)) <= 1e-13


def test_fold_converges_where_rho_plus_one_sits_at_round_off():
    # beats of 0.1-0.3 rad/s (1e-9 Gamma) at the fig2 point: L0 - i k nu is
    # nearly singular, and rho_{+1} moves by about 1e-11 of round-off between
    # orders, above the tolerance at every order; such a point converges once
    # that change stops falling, and W stays on the adiabatic line, linear in
    # the beat
    delta_s, _ = zeeman_splitting(LevelScheme(), MagneticField(4.4))
    beats = np.array([0.1, 0.2, 0.3])
    spectrum = scattering_rates(fig2_config("four_level_geometry"),
                                FIG2["delta_sigma"] + delta_s - beats)
    assert spectrum.errors == (None, None, None)
    w = spectrum.w
    assert abs(w[1] - (w[0] + w[2]) / 2) <= 1e-11 * w[1]


def test_periodic_solvers_reject_static_liouvillian():
    liouv = build_liouvillian(_system("three_level"))
    with pytest.raises(ValueError):
        periodic_steady_state(liouv)

"""Cooling-laser scattering spectrum W(delta_pi) and Fano features.

Detuning conventions used throughout this module match the usual dressed-atom
description: ``delta_sigma`` is the coupling-laser detuning from the
|S,-> -> |P,+> transition and ``delta_pi`` the cooling-laser detuning from
|S,+> -> |P,+>, both including Zeeman shifts.  The two-photon (dark) resonance
then sits at delta_pi = delta_sigma for every field strength.

W is the per-beam absorbed-photon rate, the sum over couplings driven by the
beam of Im(Omega_eff * rho[lower, upper]).  This equals Gamma times the upper
population when a single beam scatters, and the per-beam rates always sum to
Gamma * P_total in steady state (photon-rate balance).

``scattering_rates`` is the spectrum engine: a sweep is one stacked system,
built by broadcasting the detunings and any laser parameter given as an array,
and one stacked, checked solve (``liouville.sweep_states``) that reports
per-point failures instead of raising them.  Its ``Spectrum`` is the one
result record: ``scattering_rate`` returns the checked 0-d ``Spectrum`` of one
laser setting, and the cooling rates, coupling-strength sweeps and the Fano
features (a grid, then stacked zoom passes) all read a ``Spectrum`` stack.
"""

import math
from typing import NamedTuple

import numpy as np

from .atom import (
    S_MINUS,
    S_PLUS,
    TRANSITIONS,
    Beam,
    LevelScheme,
    MagneticField,
    circular_polarization,
    zeeman_splitting,
)
from .liouville import (
    DrivenSystem,
    build_liouvillian,
    build_system,
    sweep_states,
)

# the coupling beam's field-frame polarization, sigma+ light
_SIGMA_PLUS = tuple(map(complex, circular_polarization(+1)))

# fano_features zoom: samples per bracket per pass, the bracket width (in
# units of the AC Stark shift) at which the passes stop, and a cap on the
# passes (each narrows a bracket 8-fold, so 20 reach double resolution)
_ZOOM_POINTS = 17
_ZOOM_WIDTH = 2e-4
_MAX_ZOOMS = 20


class DegenerateFeatureError(RuntimeError):
    """The spectrum has no EIT structure (e.g. coupling laser off)."""


class BracketError(ValueError):
    """The scan range does not bracket the requested feature."""


def ac_stark_shift(omega_sigma: float, delta_sigma: float) -> float:
    """Light shift of the dressed |P,+> level, exact two-level expression."""
    return 0.5 * (math.hypot(omega_sigma, delta_sigma) - abs(delta_sigma))


def ac_stark_shift_approx(omega_sigma: float, delta_sigma: float) -> float:
    """Far-detuned approximation Omega^2 / (4 Delta)."""
    if delta_sigma == 0:
        raise ValueError("approximate branch undefined at delta_sigma = 0")
    return omega_sigma**2 / (4 * delta_sigma)


def coupling_for_target_shift(omega_mode: float, delta_sigma: float) -> float:
    """Coupling Rabi frequency that makes the AC Stark shift equal omega_mode.

    Exact inversion of the shift formula: Omega = 2 sqrt(w (w + |Delta|)).
    """
    for name, x in (("omega_mode", omega_mode), ("delta_sigma", delta_sigma)):
        if not 0 < x < math.inf:
            raise ValueError(f"{name} must be positive and finite, not {x!r}")
    return 2.0 * math.sqrt(omega_mode * (omega_mode + abs(delta_sigma)))


def coupling_for_target_shift_approx(omega_mode: float, delta_sigma: float) -> float:
    """The 2 sqrt(w Delta) approximation to the inversion above."""
    return 2.0 * math.sqrt(omega_mode * delta_sigma)


def dressed_state(omega_sigma: float, delta_sigma: float):
    """Coefficients of the bright dressed state on (|S,->, |P,+>)."""
    if omega_sigma == 0 and delta_sigma == 0:
        raise ValueError("dressed state undefined at zero coupling and detuning")
    delta = ac_stark_shift(omega_sigma, delta_sigma)
    norm = math.sqrt(4 * delta**2 + omega_sigma**2)
    if norm == 0:
        return (1.0, 0.0)
    return (omega_sigma / norm, 2 * delta / norm)


class FanoFeatures(NamedTuple):
    dark_point: float
    bright_peak: float

    @property
    def stark_shift(self) -> float:
        return self.bright_peak - self.dark_point


class EITConfig(NamedTuple):
    """Laser/field configuration for one cooling spectrum.

    ``omega_sigma`` and ``omega_pi`` are effective transition Rabi frequencies
    (sigma+ on S- -> P+, pi on S+ -> P+), the quantities entering the dressed
    state formulas; bare beam Rabi frequencies are recovered internally by
    dividing out polarization projection and CG factors.  The four laser
    parameters may be arrays, one entry per point of a ``scattering_rates`` stack.
    Field-frame polarizations: sigma+ coupling light; pi cooling light, or in
    ``four_level_geometry`` linear light in the (k, B) plane at ``beam_angle`` to B.
    """

    omega_sigma: float
    omega_pi: float
    delta_sigma: float
    delta_pi: float
    variant: str = "three_level"
    b_gauss: float = 4.4
    beam_angle: float = math.radians(125.0)  # between cooling and coupling k
    scheme: LevelScheme = LevelScheme()

    @property
    def field(self) -> MagneticField:
        return MagneticField(magnitude=self.b_gauss)

    def laser_frequencies(self, delta_pi):
        """(nu_c, nu_g) referenced to the zero-field S->P resonance.

        ``delta_pi`` may be an array of cooling detunings; nu_g then is too.
        """
        delta_s, delta_p = zeeman_splitting(self.scheme, self.field)
        # transition-referenced -> zero-field-referenced detunings
        nu_c = self.delta_sigma + 0.5 * (delta_p + delta_s)
        return nu_c, delta_pi + 0.5 * (delta_p - delta_s)

    def beams(self, delta_pi: float | None = None) -> tuple:
        """The physical (coupling, cooling) beam pair of this configuration."""
        if delta_pi is None:
            delta_pi = self.delta_pi
        nu_c, nu_g = self.laser_frequencies(delta_pi)

        coupling = Beam(
            label="coupling",
            rabi=self.omega_sigma / abs(TRANSITIONS[(S_MINUS, +1)][1]),
            detuning=nu_c,
            polarization=_SIGMA_PLUS,
        )

        if self.variant == "four_level_geometry":
            pol = (-math.cos(self.beam_angle), 0.0, math.sin(self.beam_angle))
            amp_pi = abs(math.sin(self.beam_angle))
            if amp_pi < 1e-9:
                raise ValueError("beam_angle puts the cooling beam along B, with no pi light")
        else:
            pol = (0.0, 0.0, 1.0)
            amp_pi = 1.0
        cooling = Beam(
            label="cooling",
            rabi=self.omega_pi / (amp_pi * TRANSITIONS[(S_PLUS, 0)][1]),
            detuning=nu_g,
            polarization=pol,
        )
        return coupling, cooling

    def system(self, delta_pi: float | None = None) -> DrivenSystem:
        return build_system(self.scheme, self.field, *self.beams(delta_pi), self.variant)


class Spectrum(NamedTuple):
    """Cooling-beam spectrum over a set of detunings; failed points hold NaN."""

    detuning_pi: np.ndarray
    w: np.ndarray  # cooling-beam scattering rate, photons/s
    rho_p_total: np.ndarray
    harmonic_order: np.ndarray  # Floquet truncation order reached; 0 where L is static
    errors: tuple  # per point: the solver failure, or None

    def checked(self) -> "Spectrum":
        """This spectrum, after raising the first point's solver failure if any."""
        for error in self.errors:
            if error is not None:
                raise error
        return self


def beam_scattering_rates(system: DrivenSystem, rho0: np.ndarray, rho1: np.ndarray) -> dict:
    """Absorbed-photon rate per beam from the steady state's rho_0 and rho_{+1}.

    ``rho0`` and ``rho1`` are what ``sweep_states`` returns, one (d, d) matrix
    each or (..., d, d) stacks; at a static point rho_{+1} is rho_0.  Static
    couplings read rho_0, the beat-modulated coupling reads rho_{+1}.
    """
    beams = dict.fromkeys(c.beam for c in system.couplings)
    return {beam: _beam_rate(system, rho0, rho1, beam) for beam in beams}


def _beam_rate(system: DrivenSystem, rho0: np.ndarray, rho1: np.ndarray, beam: str):
    """``beam_scattering_rates`` of one beam: 0.0 plus each of its couplings' rate, in order."""
    rate = 0.0
    for c in system.couplings:
        if c.beam == beam:
            rho = (rho1 if c.oscillates else rho0)[..., c.lower, c.upper]
            # Im(rabi_eff * rho) written out: numpy rounds a complex product of
            # scalars and of arrays differently, and this form rounds like the
            # scalar one for a single point and a stack alike
            rate = rate + (c.rabi_eff.real * rho.imag + c.rabi_eff.imag * rho.real)
    return rate


def scattering_rates(config: EITConfig, detunings) -> Spectrum:
    """Steady-state cooling-beam scattering rate at each cooling detuning.

    One stacked system over the detunings broadcast with the laser parameters
    of ``config`` that are arrays, whose shape the result has, goes through
    one stacked, checked solve (``sweep_states``), static at every point whose
    beat is below ``_MIN_BEAT``.  A point whose solve fails holds NaN and its
    exception in ``errors`` (in C order); the other points keep their values.
    """
    deltas = np.asarray(detunings, dtype=float)
    system = config.system(deltas)
    rho0, rho1, order, errors = sweep_states(build_liouvillian(system))
    return Spectrum(
        detuning_pi=deltas,
        w=_beam_rate(system, rho0, rho1, "cooling"),
        rho_p_total=sum(rho0[..., i, i].real for i in system.excited_indices()),
        harmonic_order=order,
        errors=tuple(errors),
    )


def _require_one_point(config: EITConfig) -> None:
    """Raise ValueError naming the first laser parameter of ``config`` that is an array."""
    for name in ("omega_sigma", "omega_pi", "delta_sigma", "delta_pi"):
        value = getattr(config, name)
        if not isinstance(value, float) and np.ndim(value):  # a float skips np.ndim's cost
            raise ValueError(f"one laser setting per call, but {name} is an array")


def scattering_rate(config: EITConfig, delta_pi: float | None = None) -> Spectrum:
    """Steady-state cooling-beam scattering rate at one detuning, as a 0-d ``Spectrum``.

    The one-point case of ``scattering_rates``: a solver failure is raised, and
    so is a laser parameter or detuning given as an array (ValueError).
    """
    if delta_pi is not None:
        config = config._replace(delta_pi=delta_pi)
    _require_one_point(config)
    return scattering_rates(config, config.delta_pi).checked()


def fano_features(
    config: EITConfig,
    scan_lo: float,
    scan_hi: float,
    points: int = 400,
) -> FanoFeatures:
    """Locate the dark point (min W) and bright peak (max W) of the spectrum.

    Grid scan, then zoom passes: each pass samples ``_ZOOM_POINTS`` points
    across the bracket of each extremum, both brackets in one
    ``scattering_rates`` call, and narrows each bracket to the neighbours of
    its best point.  The passes stop once both brackets are at most
    ``_ZOOM_WIDTH`` times the closed-form AC Stark shift wide (or after
    ``_MAX_ZOOMS`` passes); each feature is the best point of the last pass,
    so it sits within half a zoom step of the extremum.  A laser parameter
    given as an array is a ValueError.
    """
    _require_one_point(config)
    if config.omega_sigma == 0:
        raise DegenerateFeatureError("no coupling laser: spectrum has no EIT features")
    delta = ac_stark_shift(config.omega_sigma, config.delta_sigma)
    if not (scan_lo < config.delta_sigma < scan_hi):
        raise BracketError("scan range does not bracket the dark point")
    if not (scan_lo < config.delta_sigma + delta < scan_hi):
        raise BracketError("scan range does not bracket the bright peak")
    grid = np.linspace(scan_lo, scan_hi, points)
    w = scattering_rates(config, grid).checked().w
    best = [int(np.argmin(w)), int(np.argmax(w))]
    if {0, points - 1} & set(best):
        raise BracketError("feature extremum sits at the scan boundary")
    features = grid[best]
    brackets = np.array([grid[[i - 1, i + 1]] for i in best])  # (dark, bright) x (lo, hi)
    for _ in range(_MAX_ZOOMS):
        if np.all(brackets[:, 1] - brackets[:, 0] <= _ZOOM_WIDTH * delta):
            break
        zoom = np.linspace(brackets[:, 0], brackets[:, 1], _ZOOM_POINTS, axis=1)
        w = scattering_rates(config, zoom.ravel()).checked().w.reshape(zoom.shape)
        best = [int(np.argmin(w[0])), int(np.argmax(w[1]))]
        for f, i in enumerate(best):
            brackets[f] = zoom[f, max(i - 1, 0)], zoom[f, min(i + 1, _ZOOM_POINTS - 1)]
        features = zoom[[0, 1], best]
    return FanoFeatures(dark_point=float(features[0]), bright_peak=float(features[1]))

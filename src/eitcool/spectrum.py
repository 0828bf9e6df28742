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
built by broadcasting the laser parameters of an ``EITConfig`` given as arrays,
and one stacked, checked solve (``liouville.sweep_states``) that reports
per-point failures instead of raising them.  Its ``Spectrum`` is the one
result record: ``scattering_rate`` returns the checked 0-d ``Spectrum`` of one
laser setting, and the cooling rates, coupling-strength sweeps and the Fano
features (a grid, then stacked zoom passes) all read a ``Spectrum`` stack.
"""

from typing import NamedTuple

import numpy as np

from .atom import EITConfig, ac_stark_shift
from .liouville import DrivenSystem, build_liouvillian, sweep_states

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


class FanoFeatures(NamedTuple):
    dark_point: float
    bright_peak: float

    @property
    def stark_shift(self) -> float:
        return self.bright_peak - self.dark_point


class Spectrum(NamedTuple):
    """Cooling-beam spectrum at each point of a laser-setting stack; failed points hold NaN."""

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


def scattering_rates(config: EITConfig) -> Spectrum:
    """Steady-state cooling-beam scattering rate at each point of ``config``.

    One stacked system over the laser parameters of ``config`` that are arrays,
    broadcast, whose shape the result has (a detuning sweep is a ``delta_pi``
    array), goes through one stacked, checked solve (``sweep_states``), static
    at every point whose beat is below ``_MIN_BEAT``.  A point whose solve fails
    holds NaN and its exception in ``errors`` (in C order); the other points
    keep their values.
    """
    system = config._replace(delta_pi=np.asarray(config.delta_pi, dtype=float)).system()
    rho0, rho1, order, errors = sweep_states(build_liouvillian(system))
    return Spectrum(
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


def scattering_rate(config: EITConfig) -> Spectrum:
    """Steady-state cooling-beam scattering rate of one laser setting, as a 0-d ``Spectrum``.

    The one-point case of ``scattering_rates``: a solver failure is raised, and
    so is a laser parameter given as an array (ValueError).
    """
    _require_one_point(config)
    return scattering_rates(config).checked()


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
    w = scattering_rates(config._replace(delta_pi=grid)).checked().w
    best = [int(np.argmin(w)), int(np.argmax(w))]
    if {0, points - 1} & set(best):
        raise BracketError("feature extremum sits at the scan boundary")
    features = grid[best]
    brackets = np.array([grid[[i - 1, i + 1]] for i in best])  # (dark, bright) x (lo, hi)
    for _ in range(_MAX_ZOOMS):
        if np.all(brackets[:, 1] - brackets[:, 0] <= _ZOOM_WIDTH * delta):
            break
        zoom = np.linspace(brackets[:, 0], brackets[:, 1], _ZOOM_POINTS, axis=1)
        w = scattering_rates(config._replace(delta_pi=zoom.ravel())).checked().w.reshape(zoom.shape)
        best = [int(np.argmin(w[0])), int(np.argmax(w[1]))]
        for f, i in enumerate(best):
            brackets[f] = zoom[f, max(i - 1, 0)], zoom[f, min(i + 1, _ZOOM_POINTS - 1)]
        features = zoom[[0, 1], best]
    return FanoFeatures(dark_point=float(features[0]), bright_peak=float(features[1]))

"""Lamb-Dicke geometry, cooling coefficients A+/-, and phonon rate equation.

The phonon number of a mode obeys d<n>/dt = -(A- - A+) <n> + A+ with

    A+/- = eta^2 cos^2(phi) W(delta_pi -/+ omega),

where W is the cooling-beam scattering spectrum sampled at detunings shifted
by one vibrational quantum, from the full Bloch-equation solve for every
variant.  The modes of a multimode report or the points of a sweep are one
(2, modes) ``scattering_rates`` stack, read out as one ``CoolingReport`` per
mode; sweeps keep a point's solver failure on its report, and
``multimode_report`` and ``cooling_coefficients`` raise it, led by its mode.
"""

import math
from typing import NamedTuple

import numpy as np

from .constants import CA40_MASS, HBAR
from .spectrum import EITConfig, coupling_for_target_shift, scattering_rates


class CoolingGeometry(NamedTuple):
    """One motional mode as the cooling beams see it: ``omega`` in rad/s, the
    Lamb-Dicke parameter ``eta`` = |k_g - k_r| a0, and the cosine of the angle
    between k_g - k_r and the mode axis."""

    omega: float
    eta: float
    cos_phi: float
    label: str = ""


def geometry_from_angle(omega: float, delta_k_mag: float, phi: float,
                        mass: float = CA40_MASS, label: str = "") -> CoolingGeometry:
    """Geometry from |delta k| (1/m) and the angle phi between delta k and the mode
    axis, with a0 = sqrt(hbar / 2 m omega) the ground-state size at ``mass`` (kg)."""
    if omega <= 0:
        raise ValueError("mode frequency must be positive")
    eta = delta_k_mag * math.sqrt(HBAR / (2 * mass * omega))
    return CoolingGeometry(omega, eta, math.cos(phi), label)


def cooling_coefficients(config: EITConfig, geometry: CoolingGeometry):
    """(A+, A-) in 1/s for one mode at the configured cooling detuning."""
    (report,) = multimode_report(config, [geometry])
    return report.a_plus, report.a_minus


def evolve_n(a_plus: float, a_minus: float, n0: float, t: float) -> float:
    """Closed-form solution of the phonon rate equation at time t."""
    if a_plus < 0 or a_minus < 0:
        raise ValueError("rate coefficients must be nonnegative")
    rate = a_minus - a_plus
    if rate == 0:
        return n0 + a_plus * t
    n_ss = a_plus / rate
    return n_ss + (n0 - n_ss) * math.exp(-rate * t)


class CoolingReport(NamedTuple):
    """Cooling figures of merit for one mode.

    ``error`` is the mode's solver failure, or None; a failed mode has NaN
    rates, so its ``n_ss``, ``time_constant`` and ``lamb_dicke_check`` are NaN.
    """

    label: str
    omega: float
    a_plus: float
    a_minus: float
    error: Exception | None = None

    @property
    def rate(self) -> float:
        return self.a_minus - self.a_plus

    @property
    def cooled(self) -> bool:
        return self.rate > 0

    @property
    def n_ss(self) -> float:
        return math.inf if self.rate <= 0 else self.a_plus / self.rate

    @property
    def time_constant(self) -> float:
        return math.inf if self.rate <= 0 else 1.0 / self.rate

    def lamb_dicke_check(self, eta: float) -> float:
        """eta * sqrt(n_ss); values >= 0.1 are outside the deep Lamb-Dicke regime."""
        return math.inf if self.rate <= 0 else eta * math.sqrt(self.n_ss)


def _reports(config: EITConfig, geometries) -> list:
    """One ``CoolingReport`` per mode under one laser config, from one spectrum solve.

    W is sampled at delta_pi -/+ omega of every mode in one (2, modes)
    ``scattering_rates`` stack: a laser parameter given as an array must have
    one entry per mode.  A failed mode has NaN rates and the first of its two
    failures as ``error``; a zero geometric prefactor gives (0, 0) and no error.
    """
    n = len(geometries)
    omegas = np.array([geo.omega for geo in geometries])
    spectrum = scattering_rates(
        config, np.stack([config.delta_pi - omegas, config.delta_pi + omegas])
    )
    if np.shape(spectrum.w) != (2, n):
        shape = np.shape(spectrum.w)
        raise ValueError(f"laser arrays need one entry per mode: {shape} spectrum, {n} modes")
    reports = []
    for i, geo in enumerate(geometries):
        prefactor = geo.eta**2 * geo.cos_phi**2
        a_plus, a_minus, error = 0.0, 0.0, None
        if prefactor != 0:
            error = spectrum.errors[i] or spectrum.errors[n + i]
            a_plus = math.nan if error else prefactor * float(spectrum.w[0, i])
            a_minus = math.nan if error else prefactor * float(spectrum.w[1, i])
        reports.append(CoolingReport(geo.label, geo.omega, a_plus, a_minus, error))
    return reports


def steady_state_n_sweep(
    config: EITConfig,
    omegas=None,
    deltas=None,
    geometry: CoolingGeometry | None = None,
) -> list:
    """Steady-state phonon number versus mode frequency or AC Stark shift.

    Exactly one of ``omegas`` (sweep the mode frequency at fixed lasers) or
    ``deltas`` (sweep the AC Stark shift by adjusting the coupling Rabi
    frequency, at the fixed mode in ``geometry``) must be given.  The
    geometric prefactor cancels in n_ss, so ``geometry`` is optional for
    omega sweeps (unit prefactor is then reported in A+/-).  Either sweep is
    one stacked spectrum solve; a ``deltas`` stack has one coupling per shift.
    Returns one ``CoolingReport`` per value; a solver failure (degenerate steady
    state, unconverged harmonics, singular solve) is kept in its ``error``.
    """
    if (omegas is None) == (deltas is None):
        raise ValueError("specify exactly one of omegas or deltas")
    if omegas is not None:
        values = [float(omega) for omega in omegas]
        if any(omega <= 0 for omega in values):
            raise ValueError("sweep frequencies must be positive")
        base = geometry if geometry is not None else CoolingGeometry(0.0, eta=1.0, cos_phi=1.0)
        geometries = [base._replace(omega=omega) for omega in values]
    else:
        if geometry is None:
            raise ValueError("a mode geometry is required to sweep the AC Stark shift")
        values = [float(delta) for delta in deltas]
        if any(delta <= 0 for delta in values):
            raise ValueError("sweep shifts must be positive")
        omega_sigma = [coupling_for_target_shift(d, config.delta_sigma) for d in values]
        config = config._replace(omega_sigma=np.array(omega_sigma))
        geometries = [geometry] * len(values)
    return _reports(config, geometries)


def multimode_report(config: EITConfig, geometries) -> list:
    """Per-mode cooling report under one shared laser config; the first failed mode's
    error is raised as its own type, its message led by the mode label."""
    reports = _reports(config, geometries)
    for report in reports:
        if report.error is not None:
            raise type(report.error)(f"mode {report.label!r}: {report.error}") from report.error
    return reports

"""Lamb-Dicke geometry, cooling coefficients A+/-, and phonon rate equation.

The phonon number of a mode obeys d<n>/dt = -(A- - A+) <n> + A+ with

    A+/- = eta^2 cos^2(phi) W(delta_pi -/+ omega),

where W is the cooling-beam scattering spectrum sampled at detunings shifted
by one vibrational quantum.  W is always taken from the full Bloch-equation
solve, so the same code path serves the three-level and both four-level
configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import CA40_MASS, HBAR
from .spectrum import EITConfig, coupling_for_target_shift, scattering_rates


@dataclass(frozen=True)
class TrapMode:
    """One harmonic motional mode of the trapped ion."""

    omega: float  # rad/s
    axis: tuple
    mass: float = CA40_MASS
    label: str = ""

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("mode frequency must be positive")
        a = np.asarray(self.axis, float)
        if abs(np.linalg.norm(a) - 1.0) > 1e-12:
            raise ValueError("mode axis must be a unit vector")

    @property
    def ground_state_size(self) -> float:
        return math.sqrt(HBAR / (2 * self.mass * self.omega))


@dataclass(frozen=True)
class CoolingGeometry:
    """Per-mode cooling geometry derived from the beam wavevectors."""

    omega: float
    eta: float  # |k_g - k_r| * a0
    cos_phi: float
    delta_k: tuple = (0.0, 0.0, 0.0)
    label: str = ""

    @property
    def coolable(self) -> bool:
        return self.eta > 0 and self.cos_phi != 0


def lamb_dicke(mode: TrapMode, k_g, k_r) -> CoolingGeometry:
    """Lamb-Dicke parameter and projection angle for one mode.

    ``k_g`` and ``k_r`` are the cooling and coupling wavevectors (1/m).
    Copropagating equal-wavelength beams give eta = 0 (flagged uncoolable).
    """
    dk = np.asarray(k_g, float) - np.asarray(k_r, float)
    dk_norm = float(np.linalg.norm(dk))
    if dk_norm == 0:
        return CoolingGeometry(omega=mode.omega, eta=0.0, cos_phi=0.0, label=mode.label)
    eta = dk_norm * mode.ground_state_size
    cos_phi = float(dk @ np.asarray(mode.axis, float)) / dk_norm
    return CoolingGeometry(
        omega=mode.omega, eta=eta, cos_phi=cos_phi, delta_k=tuple(dk), label=mode.label
    )


def geometry_from_angle(mode: TrapMode, delta_k_mag: float, phi: float) -> CoolingGeometry:
    """Geometry from |delta k| and the angle phi between delta k and the mode axis."""
    return CoolingGeometry(
        omega=mode.omega,
        eta=delta_k_mag * mode.ground_state_size,
        cos_phi=math.cos(phi),
        label=mode.label,
    )


def _mode_coefficients(config: EITConfig, geometries) -> tuple:
    """(A+, A-, error) lists for modes under one laser config, from one spectrum solve.

    W is sampled at delta_pi -/+ omega of every mode in one (2, modes)
    ``scattering_rates`` stack; a laser parameter given as an array has one
    entry per mode.  A mode whose solve failed has NaN rates and the first of
    its two failures as error; a zero geometric prefactor gives (0, 0) and no
    error whatever its solve gives.
    """
    n = len(geometries)
    a_plus, a_minus, errors = [0.0] * n, [0.0] * n, [None] * n
    omegas = np.array([geo.omega for geo in geometries])
    spectrum = scattering_rates(
        config, np.stack([config.delta_pi - omegas, config.delta_pi + omegas])
    )
    for i, geo in enumerate(geometries):
        prefactor = geo.eta**2 * geo.cos_phi**2
        if prefactor != 0:
            a_plus[i] = prefactor * float(spectrum.w[0, i])
            a_minus[i] = prefactor * float(spectrum.w[1, i])
            errors[i] = spectrum.errors[i] or spectrum.errors[n + i]
    return a_plus, a_minus, errors


def cooling_coefficients(config: EITConfig, geometry: CoolingGeometry):
    """(A+, A-) in 1/s for one mode at the configured cooling detuning."""
    (a_plus,), (a_minus,), (error,) = _mode_coefficients(config, [geometry])
    if error is not None:
        raise error
    return a_plus, a_minus


def evolve_n(a_plus: float, a_minus: float, n0: float, t: float) -> float:
    """Closed-form solution of the phonon rate equation at time t."""
    if a_plus < 0 or a_minus < 0:
        raise ValueError("rate coefficients must be nonnegative")
    rate = a_minus - a_plus
    if rate == 0:
        return n0 + a_plus * t
    n_ss = a_plus / rate
    return n_ss + (n0 - n_ss) * math.exp(-rate * t)


@dataclass(frozen=True)
class CoolingReport:
    """Cooling figures of merit for one mode."""

    label: str
    omega: float
    a_plus: float
    a_minus: float

    @property
    def rate(self) -> float:
        return self.a_minus - self.a_plus

    @property
    def cooled(self) -> bool:
        return self.rate > 0

    @property
    def n_ss(self) -> float:
        if not self.cooled:
            return math.inf
        return self.a_plus / self.rate

    @property
    def time_constant(self) -> float:
        if not self.cooled:
            return math.inf
        return 1.0 / self.rate

    def lamb_dicke_check(self, eta: float) -> float:
        """eta * sqrt(n_ss); values >= 0.1 are outside the deep Lamb-Dicke regime."""
        return eta * math.sqrt(self.n_ss) if self.cooled else math.inf


@dataclass(frozen=True)
class SweepPoint:
    value: float
    a_plus: float
    a_minus: float
    n_ss: float
    cooled: bool
    error: str = ""


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

    Per-point solver failures (a degenerate steady state, an unconverged
    harmonic expansion, a singular linear solve) are recorded in the row's
    ``error`` and the sweep continues; any other exception is raised.
    """
    if (omegas is None) == (deltas is None):
        raise ValueError("specify exactly one of omegas or deltas")
    if omegas is not None:
        values = [float(omega) for omega in omegas]
        if any(omega <= 0 for omega in values):
            raise ValueError("sweep frequencies must be positive")
        geometries = [
            replace(geometry, omega=omega)
            if geometry is not None
            else CoolingGeometry(omega=omega, eta=1.0, cos_phi=1.0)
            for omega in values
        ]
    else:
        if geometry is None:
            raise ValueError("a mode geometry is required to sweep the AC Stark shift")
        values = [float(delta) for delta in deltas]
        if any(delta <= 0 for delta in values):
            raise ValueError("sweep shifts must be positive")
        omega_sigma = [coupling_for_target_shift(d, config.delta_sigma) for d in values]
        config = replace(config, omega_sigma=np.array(omega_sigma))
        geometries = [geometry] * len(values)
    rows = zip(values, *_mode_coefficients(config, geometries))
    return [_sweep_point(*row) for row in rows]


def _sweep_point(value: float, a_plus: float, a_minus: float, error) -> SweepPoint:
    if error is not None:  # per-point solver failure: record and continue
        return SweepPoint(value, math.nan, math.nan, math.nan, False, error=str(error))
    # n_ss and cooled depend on the rates alone
    report = CoolingReport(label="", omega=math.nan, a_plus=a_plus, a_minus=a_minus)
    return SweepPoint(value, a_plus, a_minus, report.n_ss, report.cooled)


def multimode_report(config: EITConfig, geometries) -> list:
    """Per-mode cooling report under one shared laser configuration."""
    a_plus, a_minus, errors = _mode_coefficients(config, geometries)
    for error in errors:
        if error is not None:
            raise error
    return [
        CoolingReport(label=geo.label, omega=geo.omega, a_plus=ap, a_minus=am)
        for geo, ap, am in zip(geometries, a_plus, a_minus)
    ]

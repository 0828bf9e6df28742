"""Internal structure of the ion, magnetic field, laser beams.

The ion is modeled as the four Zeeman sublevels of a J=1/2 <-> J'=1/2 dipole
transition: |S,->, |S,+>, |P,->, |P,+> (m = -1/2, +1/2 in each manifold).
All angular momentum algebra (Clebsch-Gordan weights, spherical polarization
decomposition) is centralized here.

Sign conventions (the single place they are documented):

* Spherical basis relative to the quantization axis z_B with transverse frame
  (x_B, y_B, z_B): amp_0 = eps . z_B, amp_{+/-1} = -/+ (eps . x_B +/- i eps . y_B)/sqrt(2).
  This map is unitary for any complex unit polarization eps.
* Clebsch-Gordan amplitudes <1/2 m; 1 q | 1/2 m+q> in the Condon-Shortley
  convention; squared weights are 1/3 for pi (q=0) and 2/3 for sigma (q=+/-1)
  channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, K_B, MU_B, GAUSS_TO_TESLA

S_MINUS, S_PLUS, P_MINUS, P_PLUS = "S-", "S+", "P-", "P+"
STATES = (S_MINUS, S_PLUS, P_MINUS, P_PLUS)
EXCITED_STATES = (P_MINUS, P_PLUS)

_SQRT13 = math.sqrt(1.0 / 3.0)
_SQRT23 = math.sqrt(2.0 / 3.0)

# Every dipole transition, keyed by (ground state, q): the excited state
# m + q and the signed <1/2 m; 1 q | 1/2 m+q> amplitude.  build_system adds
# the couplings of a beam in this order; a decay P -> S emits the same q with
# weight amplitude^2.
TRANSITIONS = {
    (S_PLUS, -1): (P_MINUS, +_SQRT23),
    (S_MINUS, 0): (P_MINUS, -_SQRT13),
    (S_PLUS, 0): (P_PLUS, +_SQRT13),
    (S_MINUS, +1): (P_PLUS, -_SQRT23),
}


class FrameDegenerateError(ValueError):
    """Beam travels along the quantization axis; in-plane x-axis undefined."""


@dataclass(frozen=True)
class LevelScheme:
    """Zeeman structure of the S1/2 and P1/2 manifolds.

    The P1/2 -> D3/2 decay (branching ratio 1:16 against P1/2 -> S1/2) is
    deliberately excluded from the dynamics: the D3/2 channel is repumped in
    practice and small.
    """

    lande_g_S: float = 2.00225
    lande_g_P: float = 2.0 / 3.0
    gamma: float = 2 * math.pi * 20e6  # total P1/2 decay rate, rad/s

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def decay_channels(self):
        """Yield (upper, lower, rate) for every dipole decay channel, by (upper, q)."""
        channels = sorted(
            (excited, q, ground, cg) for (ground, q), (excited, cg) in TRANSITIONS.items()
        )
        for upper, _q, lower, cg in channels:
            yield upper, lower, self.gamma * cg**2


@dataclass(frozen=True)
class MagneticField:
    """Static quantization field; magnitude in gauss, direction a unit vector."""

    magnitude: float
    direction: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if self.magnitude < 0:
            raise ValueError("field magnitude must be >= 0")
        d = np.asarray(self.direction, dtype=float)
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise ValueError("field direction must be a unit vector")

    @property
    def z_hat(self) -> np.ndarray:
        return np.asarray(self.direction, dtype=float)

    @property
    def tesla(self) -> float:
        return self.magnitude * GAUSS_TO_TESLA


@dataclass(frozen=True)
class Beam:
    """One laser beam.

    ``rabi`` is the bare Rabi frequency for a unit-CG transition, before
    polarization projection. ``detuning`` is referenced to the zero-field
    S1/2 -> P1/2 resonance. ``transverse_axis`` optionally fixes the spherical
    frame when the beam travels along the quantization axis.
    """

    label: str  # "coupling" | "cooling"
    rabi: float
    detuning: float
    k_hat: tuple
    polarization: tuple
    transverse_axis: tuple | None = None

    def __post_init__(self):
        k = np.asarray(self.k_hat, dtype=float)
        if abs(np.linalg.norm(k) - 1.0) > 1e-12:
            raise ValueError("k_hat must be a unit vector")
        eps = np.asarray(self.polarization, dtype=complex)
        if abs(np.linalg.norm(eps) - 1.0) > 1e-12:
            raise ValueError("polarization must be a unit vector")
        if abs(np.vdot(k, eps)) > 1e-12:
            raise ValueError("polarization must be orthogonal to k_hat")


def spherical_frame(k_hat, z_hat, transverse_axis=None):
    """Right-handed frame (x_B, y_B, z_B) with x_B along k projected off z_B."""
    z = np.asarray(z_hat, float)
    k = np.asarray(k_hat, float)
    perp = k - (k @ z) * z
    norm = np.linalg.norm(perp)
    if norm < 1e-9:
        if transverse_axis is None:
            raise FrameDegenerateError(
                "beam travels along the quantization axis; "
                "supply an explicit transverse_axis"
            )
        t = np.asarray(transverse_axis, float)
        perp = t - (t @ z) * z
        norm = np.linalg.norm(perp)
        if norm < 1e-9:
            raise FrameDegenerateError("transverse_axis is parallel to the field")
    x = perp / norm
    y = np.cross(z, x)
    return x, y, z


def decompose_polarization(beam: Beam, field: MagneticField) -> dict:
    """Spherical amplitudes {q: amp} (q = -1, 0, +1) of the beam polarization.

    The transverse x_B axis is the beam's own k projected perpendicular to
    the field; a beam along the field must carry an explicit transverse_axis.
    """
    x, y, z = spherical_frame(beam.k_hat, field.z_hat, beam.transverse_axis)
    eps = np.asarray(beam.polarization, complex)
    return {
        -1: +(eps @ x - 1j * (eps @ y)) / math.sqrt(2),
        0: eps @ z,
        +1: -(eps @ x + 1j * (eps @ y)) / math.sqrt(2),
    }


def linear_polarization_in_plane(k_hat, z_hat) -> np.ndarray:
    """Linear polarization in the (k, B) plane, orthogonal to k.

    This maximizes the pi component for a beam at an oblique angle to the
    field; the sigma content is what remains.
    """
    k = np.asarray(k_hat, float)
    z = np.asarray(z_hat, float)
    eps = z - (z @ k) * k
    norm = np.linalg.norm(eps)
    if norm < 1e-9:
        raise FrameDegenerateError("k parallel to B: no in-plane polarization exists")
    return eps / norm


def circular_polarization(q: int, x_hat, y_hat) -> np.ndarray:
    """Unit polarization that decomposes to a single spherical component q."""
    x = np.asarray(x_hat, float)
    y = np.asarray(y_hat, float)
    if q == +1:
        return (-x + 1j * y) / math.sqrt(2)
    if q == -1:
        return (x + 1j * y) / math.sqrt(2)
    raise ValueError("q must be +1 or -1")


def zeeman_splitting(scheme: LevelScheme, field: MagneticField):
    """Full m=-1/2 <-> +1/2 splittings (delta_S, delta_P) in rad/s."""
    b = field.tesla
    delta_s = scheme.lande_g_S * MU_B * b / HBAR
    delta_p = scheme.lande_g_P * MU_B * b / HBAR
    return delta_s, delta_p


def doppler_limit_occupation(gamma: float, omega: float):
    """Doppler temperature T_D = hbar*Gamma/(2 k_B) and thermal n_bar at omega."""
    if gamma <= 0 or omega <= 0:
        raise ValueError("gamma and omega must be positive")
    t_d = HBAR * gamma / (2 * K_B)
    n_bar = thermal_occupation(t_d, omega)
    return t_d, n_bar


def thermal_occupation(temperature: float, omega: float) -> float:
    """Bose occupation of a harmonic mode at the given temperature."""
    x = HBAR * omega / (K_B * temperature)
    return 1.0 / math.expm1(x)

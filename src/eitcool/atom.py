"""Internal structure of the ion, magnetic field, laser beams.

The ion is modeled as the four Zeeman sublevels of a J=1/2 <-> J'=1/2 dipole
transition: |S,->, |S,+>, |P,->, |P,+> (m = -1/2, +1/2 in each manifold).
All angular momentum algebra (Clebsch-Gordan weights, spherical polarization
decomposition) is centralized here.

Sign conventions (the single place they are documented):

* Polarizations are complex unit vectors eps in the field frame (x_B, y_B, z_B),
  z_B along B and x_B in the plane of the cooling beam's k and B: amp_0 = eps_z,
  amp_{+/-1} = -/+ (eps_x +/- i eps_y)/sqrt(2), a unitary map.
* Clebsch-Gordan amplitudes <1/2 m; 1 q | 1/2 m+q> in the Condon-Shortley
  convention; squared weights are 1/3 for pi (q=0) and 2/3 for sigma (q=+/-1)
  channels.
"""

import math

import numpy as np

from .constants import HBAR, K_B, MU_B, GAUSS_TO_TESLA
from .record import Record

S_MINUS, S_PLUS, P_MINUS, P_PLUS = "S-", "S+", "P-", "P+"
STATES = (S_MINUS, S_PLUS, P_MINUS, P_PLUS)
EXCITED_STATES = (P_MINUS, P_PLUS)

# the level-scheme variants (the levels each keeps are in ``structure``) and
# the motional sidebands a thermometry probe drives
VARIANTS = ("three_level", "four_level_ideal", "four_level_geometry")
SIDEBANDS = ("red", "blue")

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


class LevelScheme(Record):
    """Zeeman structure of the S1/2 and P1/2 manifolds; ``gamma`` is the P1/2 decay rate, rad/s.

    The P1/2 -> D3/2 decay (branching ratio 1:16 against P1/2 -> S1/2) is
    deliberately excluded from the dynamics: the D3/2 channel is repumped in
    practice and small.
    """

    __slots__ = ("lande_g_S", "lande_g_P", "gamma")

    def __init__(self, lande_g_S=2.00225, lande_g_P=2.0 / 3.0, gamma=2 * math.pi * 20e6):
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, not {gamma!r}")
        if not math.isfinite(lande_g_S) or not math.isfinite(lande_g_P):
            raise ValueError(f"lande_g_S and lande_g_P must be finite, not {lande_g_S!r}, "
                             f"{lande_g_P!r}")
        self._set(lande_g_S=lande_g_S, lande_g_P=lande_g_P, gamma=gamma)

    def decay_channels(self):
        """Yield (upper, lower, rate) for every dipole decay channel, by (upper, q)."""
        channels = sorted(
            (excited, q, ground, cg) for (ground, q), (excited, cg) in TRANSITIONS.items()
        )
        for upper, _q, lower, cg in channels:
            yield upper, lower, self.gamma * cg**2


class MagneticField(Record):
    """Static quantization field along z_B; magnitude in gauss."""

    __slots__ = ("magnitude",)

    def __init__(self, magnitude: float):
        if not 0 <= magnitude < math.inf:
            raise ValueError(f"field magnitude must be >= 0 and finite, not {magnitude!r}")
        self._set(magnitude=magnitude)


class Beam(Record):
    """One laser beam, labelled "coupling" or "cooling".

    ``rabi`` is the bare Rabi frequency for a unit-CG transition, before
    polarization projection. ``detuning`` is referenced to the zero-field
    S1/2 -> P1/2 resonance, ``polarization`` to the field frame (x_B, y_B, z_B),
    three components, held as a tuple.
    """

    __slots__ = ("label", "rabi", "detuning", "polarization")

    def __init__(self, label: str, rabi: float, detuning: float, polarization: tuple):
        polarization = tuple(polarization)
        if len(polarization) != 3:
            raise ValueError(f"{label} beam polarization must have 3 components, "
                             f"not {len(polarization)}")
        if not abs(math.hypot(*map(abs, polarization)) - 1.0) <= 1e-12:  # and not NaN
            raise ValueError("polarization must be a unit vector")
        self._set(label=label, rabi=rabi, detuning=detuning, polarization=polarization)


def decompose_polarization(polarization) -> dict:
    """Spherical amplitudes {q: amp} (q = -1, 0, +1) of a field-frame polarization."""
    ex, ey, ez = np.asarray(polarization, complex)
    return {
        -1: +(ex - 1j * ey) / math.sqrt(2),
        0: ez,
        +1: -(ex + 1j * ey) / math.sqrt(2),
    }


def circular_polarization(q: int) -> np.ndarray:
    """Field-frame unit polarization (-q, i, 0)/sqrt(2), the pure spherical component q."""
    if q not in (-1, +1):
        raise ValueError("q must be +1 or -1")
    return np.array([-q, 1j, 0]) / math.sqrt(2)


def zeeman_splitting(scheme: LevelScheme, field: MagneticField):
    """Full m=-1/2 <-> +1/2 splittings (delta_S, delta_P) in rad/s."""
    b = field.magnitude * GAUSS_TO_TESLA
    delta_s = scheme.lande_g_S * MU_B * b / HBAR
    delta_p = scheme.lande_g_P * MU_B * b / HBAR
    return delta_s, delta_p


def doppler_limit_occupation(gamma: float, omega: float):
    """Doppler temperature T_D = hbar*Gamma/(2 k_B) and thermal n_bar at omega."""
    if not (0 < gamma < math.inf and 0 < omega < math.inf):
        raise ValueError("gamma and omega must be positive and finite")
    t_d = HBAR * gamma / (2 * K_B)
    n_bar = thermal_occupation(t_d, omega)
    return t_d, n_bar


def thermal_occupation(temperature: float, omega: float) -> float:
    """Bose occupation of a harmonic mode at the given temperature."""
    x = HBAR * omega / (K_B * temperature)
    return 1.0 / math.expm1(x)

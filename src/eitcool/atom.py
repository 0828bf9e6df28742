"""Internal structure of the ion, magnetic field, laser beams and their configuration.

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

``EITConfig`` holds the laser and field setting of one cooling spectrum, and
builds its beam pair; with the closed-form dressed-state formulas it needs only
``math``, so parsing and validating a configuration loads no numpy.
"""

import math
from typing import NamedTuple

from .constants import HBAR, K_B, MU_B, GAUSS_TO_TESLA
from .record import Record

S_MINUS, S_PLUS, P_MINUS, P_PLUS = "S-", "S+", "P-", "P+"
STATES = (S_MINUS, S_PLUS, P_MINUS, P_PLUS)
EXCITED_STATES = (P_MINUS, P_PLUS)

# the levels each level-scheme variant keeps, and the motional sidebands a
# thermometry probe drives
RETAINED = {
    "three_level": (S_MINUS, S_PLUS, P_PLUS),
    "four_level_ideal": STATES,
    "four_level_geometry": STATES,
}
VARIANTS = tuple(RETAINED)
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

# rotation of each level's frame, as integer coefficients of (nu_c, nu_g)
FRAME = {S_MINUS: (0, 0), P_PLUS: (1, 0), S_PLUS: (1, -1), P_MINUS: (0, 1)}


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
    import numpy as np  # here, as below: validating a config builds beams, not amplitudes

    ex, ey, ez = np.asarray(polarization, complex)
    return {
        -1: +(ex - 1j * ey) / math.sqrt(2),
        0: ez,
        +1: -(ex + 1j * ey) / math.sqrt(2),
    }


def circular_polarization(q: int) -> "np.ndarray":
    """Field-frame unit polarization (-q, i, 0)/sqrt(2), the pure spherical component q."""
    import numpy as np

    if q not in (-1, +1):
        raise ValueError("q must be +1 or -1")
    return np.array([-q, 1j, 0]) / math.sqrt(2)


# the coupling beam's field-frame polarization, sigma+ light: the bits of
# tuple(map(complex, circular_polarization(+1))), signed zeros included
_SIGMA_PLUS = (-0.7071067811865475+0j, 0.7071067811865475j, 0j)


def zeeman_splitting(scheme: LevelScheme, field: MagneticField):
    """Full m=-1/2 <-> +1/2 splittings (delta_S, delta_P) in rad/s."""
    b = field.magnitude * GAUSS_TO_TESLA
    delta_s = scheme.lande_g_S * MU_B * b / HBAR
    delta_p = scheme.lande_g_P * MU_B * b / HBAR
    return delta_s, delta_p


def zeeman_shifts(scheme: LevelScheme, field: MagneticField) -> dict:
    """Each level's Zeeman shift from the zero-field S->P resonance, rad/s, by state."""
    delta_s, delta_p = zeeman_splitting(scheme, field)
    return {S_MINUS: -delta_s / 2, S_PLUS: delta_s / 2, P_MINUS: -delta_p / 2, P_PLUS: delta_p / 2}


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

    def laser_frequencies(self):
        """(nu_c, nu_g) referenced to the zero-field S->P resonance; arrays where
        ``delta_sigma`` or ``delta_pi`` is one."""
        delta_s, delta_p = zeeman_splitting(self.scheme, self.field)
        # transition-referenced -> zero-field-referenced detunings
        nu_c = self.delta_sigma + 0.5 * (delta_p + delta_s)
        return nu_c, self.delta_pi + 0.5 * (delta_p - delta_s)

    def beams(self) -> tuple:
        """The physical (coupling, cooling) beam pair of this configuration."""
        nu_c, nu_g = self.laser_frequencies()

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

    def system(self) -> "DrivenSystem":
        from .liouville import build_system  # here: validating a config builds beams only

        return build_system(self.scheme, self.field, *self.beams(), self.variant)


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

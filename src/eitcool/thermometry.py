"""Sideband thermometry: Rabi-flop fits and the red/blue ratio method.

The probe is modeled with ideal state preparation and readout.  Flopping on a
first-order motional sideband of a thermal state gives

    P(t) = sum_n p_n sin^2(Omega_n t / 2),
    Omega_n = omega0 * eta * sqrt(n + 1)  (blue),   omega0 * eta * sqrt(n)  (red),

with p_n the thermal occupation.  Fitting P(t) over n_bar, or comparing the
time-averaged red and blue excitations (R = n_bar / (n_bar + 1)), recovers the
mean phonon number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIDEBANDS = ("red", "blue")

# thermal weight above the Fock cutoff that from_n_bar leaves out
TAIL = 1e-6

# largest Fock cutoff from_n_bar builds (n_bar up to about 144 at TAIL)
MAX_CUTOFF = 2000


@dataclass(frozen=True)
class ThermalState:
    """Truncated thermal (geometric) phonon distribution."""

    n_bar: float
    cutoff: int

    def __post_init__(self):
        if self.n_bar < 0:
            raise ValueError("n_bar must be >= 0")
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")

    @classmethod
    def from_n_bar(cls, n_bar: float):
        """Cutoff at the smallest n with cumulative weight >= 1 - TAIL.

        Raises ValueError if that cutoff exceeds MAX_CUTOFF.
        """
        if n_bar <= 0:
            return cls(n_bar=max(n_bar, 0.0), cutoff=0)
        # geometric tail: sum_{n > N} p_n = (n_bar / (n_bar + 1))^(N+1)
        r = n_bar / (n_bar + 1.0)
        cutoff = max(0, math.ceil(math.log(TAIL) / math.log(r)) - 1)
        if cutoff > MAX_CUTOFF:
            raise ValueError(
                f"n_bar = {n_bar!r} needs a Fock cutoff of {cutoff} for tail {TAIL!r}, "
                f"above the maximum {MAX_CUTOFF}"
            )
        return cls(n_bar=n_bar, cutoff=cutoff)

    def probabilities(self) -> np.ndarray:
        n = np.arange(self.cutoff + 1)
        if self.n_bar == 0:
            p = np.zeros(self.cutoff + 1)
            p[0] = 1.0
            return p
        r = self.n_bar / (self.n_bar + 1.0)
        return r**n / (self.n_bar + 1.0)


@dataclass(frozen=True)
class FlopRecord:
    """Sideband Rabi-oscillation record: excitation vs pulse duration."""

    times: tuple
    excitation: tuple
    sideband: str

    def __post_init__(self):
        if self.sideband not in SIDEBANDS:
            raise ValueError(f"unknown sideband {self.sideband!r}")
        if any(p < 0 or p > 1 for p in self.excitation):
            raise ValueError("excitation probabilities must lie in [0, 1]")


def _sideband_rabi(n: np.ndarray, eta_probe: float, omega0: float, sideband: str):
    if sideband == "blue":
        return omega0 * eta_probe * np.sqrt(n + 1.0)
    if sideband == "red":
        return omega0 * eta_probe * np.sqrt(n.astype(float))
    raise ValueError(f"unknown sideband {sideband!r}")


def sideband_flops(
    state: ThermalState,
    eta_probe: float,
    omega0: float,
    sideband: str,
    times,
) -> FlopRecord:
    """Thermal-averaged sideband Rabi oscillations.

    Valid to first order in the Lamb-Dicke expansion, which requires
    eta_probe * sqrt(cutoff) < 0.5.
    """
    if eta_probe * math.sqrt(max(state.cutoff, 1)) >= 0.5:
        raise ValueError(
            "first-order sideband model invalid: eta_probe * sqrt(cutoff) >= 0.5"
        )
    t = np.asarray(list(times), float)
    p = state.probabilities()
    n = np.arange(state.cutoff + 1)
    rabi = _sideband_rabi(n, eta_probe, omega0, sideband)
    signal = np.sin(np.outer(t, rabi) / 2.0) ** 2 @ p
    signal = np.clip(signal, 0.0, 1.0)
    return FlopRecord(times=tuple(t), excitation=tuple(signal), sideband=sideband)


@dataclass(frozen=True)
class ThermalFit:
    n_bar: float
    residual: float  # sum of squared deviations at the optimum


def fit_thermal(
    record: FlopRecord,
    eta_probe: float,
    omega0: float,
) -> ThermalFit:
    """Least-squares thermal-distribution fit of a flop record over n_bar.

    A grid over n_bar in [0, 1e3] brackets the minimum for bounded Brent.
    A best grid point with no finite score above it (as for a record hotter
    than the model represents) raises ValueError.  ``minimize_scalar`` is
    imported here, the package's one dependency beyond numpy, so that
    everything else loads without it.
    """
    from scipy.optimize import minimize_scalar

    t = np.asarray(record.times, float)
    target = np.asarray(record.excitation, float)

    def sse(n_bar):
        try:
            state = ThermalState.from_n_bar(max(float(n_bar), 0.0))
            model = sideband_flops(state, eta_probe, omega0, record.sideband, t)
        except ValueError:
            # trial n_bar pushes the cutoff past MAX_CUTOFF or outside the
            # first-order sideband model's validity; treat as arbitrarily bad
            return math.inf
        return float(np.sum((np.asarray(model.excitation) - target) ** 2))

    # coarse bracket on a log-ish grid, then bounded 1-D refinement
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 160)])
    values = np.array([sse(n) for n in grid])
    i = int(np.argmin(values))
    if not np.isfinite(values[i + 1:]).any():
        raise ValueError(
            f"best-fit n_bar not bracketed: n_bar = {grid[i]:.4g} is the last grid "
            "point the sideband model can represent"
        )
    lo, hi = grid[max(i - 1, 0)], grid[i + 1]
    res = minimize_scalar(sse, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    best = float(res.x)
    return ThermalFit(n_bar=best, residual=float(res.fun))


def sideband_ratio_n(p_red: float, p_blue: float) -> float:
    """Mean phonon number from the red/blue excitation ratio.

    Uses the thermal Lamb-Dicke identity n_bar = R / (1 - R) with
    R = P_red / P_blue.
    """
    if not (0 <= p_red < p_blue <= 1):
        raise ValueError(
            "ratio method requires 0 <= P_red < P_blue <= 1 "
            "(state not thermal or outside the Lamb-Dicke regime)"
        )
    r = p_red / p_blue
    return r / (1.0 - r)


def ground_state_probability(n_bar: float) -> float:
    """Thermal ground-state occupation p0 = 1 / (1 + n_bar)."""
    if n_bar < 0:
        raise ValueError("n_bar must be >= 0")
    return 1.0 / (1.0 + n_bar)


def time_averaged_excitation(state: ThermalState, sideband: str) -> float:
    """Long-time average of the sideband flop signal (1/2 per flopping term)."""
    p = state.probabilities()
    if sideband == "blue":
        return 0.5 * float(p.sum())
    if sideband == "red":
        return 0.5 * float(p[1:].sum())
    raise ValueError(f"unknown sideband {sideband!r}")

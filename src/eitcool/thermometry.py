"""Sideband thermometry: Rabi-flop fits and the red/blue ratio method.

The probe is modeled with ideal state preparation and readout.  Flopping on a
first-order motional sideband of a thermal state gives

    P(t) = sum_n p_n sin^2(Omega_n t / 2),
    Omega_n = omega0 * eta * sqrt(n + 1)  (blue),   omega0 * eta * sqrt(n)  (red),

with p_n the thermal occupation.  Fitting P(t) over n_bar, or comparing the
time-averaged red and blue excitations (R = n_bar / (n_bar + 1)), recovers the
mean phonon number.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .atom import SIDEBANDS
from .record import Record

# thermal weight above the Fock cutoff that a ThermalState leaves out
TAIL = 1e-6

# largest Fock cutoff ThermalState.checked accepts (n_bar up to about 144 at TAIL)
MAX_CUTOFF = 2000

# Brent's relative tolerance, sqrt of its float epsilon, and fit_thermal's absolute one
_SQRT_EPS = math.sqrt(2.2e-16)
_XATOL = 1e-10


def _cutoff(n_bar: float) -> int:
    """Smallest Fock cutoff N whose thermal tail weight is at most TAIL."""
    if n_bar <= 0:
        return 0
    # geometric tail: sum_{n > N} p_n = (n_bar / (n_bar + 1))^(N+1)
    r = n_bar / (n_bar + 1.0)
    if r == 1.0:  # n_bar >= 2**53, an integer: -1 / log(r) is n_bar + 1/2 to float precision
        num, den = (-math.log(TAIL)).as_integer_ratio()
        return (num * (2 * int(n_bar) + 1) - 1) // (2 * den)
    return math.ceil(math.log(TAIL) / math.log(r)) - 1


def _outside(cutoff, eta_probe: float):
    """The model's two bounds at a Fock cutoff (a number or an array): a cutoff above
    MAX_CUTOFF, which ThermalState.checked rejects, and eta_probe * sqrt(cutoff) >= 0.5,
    outside the first-order sideband model.  Returns (too_deep, beyond_first_order)."""
    return cutoff > MAX_CUTOFF, eta_probe * np.sqrt(np.maximum(cutoff, 1)) >= 0.5


def _edge(eta_probe: float) -> float:
    """The largest n_bar (to a few ulps) whose cutoff is inside both bounds of
    ``_outside`` at ``eta_probe``; raises ``checked``'s ValueError where none is.

    Validity is monotone in the cutoff, and _cutoff(n_bar) <= N exactly when
    (n_bar / (n_bar + 1))^(N + 1) <= TAIL: the edge is that ratio's root at the
    largest valid N, stepped down past any rounding to a float with cutoff N.
    """
    ThermalState(0.0).checked(eta_probe)  # validity is monotone: if cutoff 0 is out, all are
    top = np.flatnonzero(~np.logical_or(*_outside(np.arange(MAX_CUTOFF + 1), eta_probe)))[-1]
    r = TAIL ** (1.0 / (top + 1))
    n_bar = r / (1.0 - r)
    while _cutoff(n_bar) > top:
        n_bar = math.nextafter(n_bar, 0.0)
    return n_bar


def fit_limit(eta_probe: float) -> float:
    """The largest n_bar whose flops ``fit_thermal`` brackets: ``_edge`` less
    Brent's resolution there, 2 (sqrt_eps * edge + xatol / 3), within which the
    fit cannot tell a minimum below the edge from one at it."""
    edge = _edge(eta_probe)
    return edge - 2.0 * (_SQRT_EPS * edge + _XATOL / 3.0)


class ThermalState(Record):
    """Thermal (geometric) phonon distribution of mean n_bar, cut at ``_cutoff(n_bar)``."""

    __slots__ = ("n_bar",)

    def __init__(self, n_bar: float):
        if not (math.isfinite(n_bar) and n_bar >= 0):
            raise ValueError(f"n_bar must be finite and >= 0, not {n_bar!r}")
        self._set(n_bar=n_bar)

    @property
    def cutoff(self) -> int:
        return _cutoff(self.n_bar)

    @classmethod
    def from_n_bar(cls, n_bar: float):
        """``cls(n_bar).checked()``: ValueError if n_bar is negative, not finite or too deep."""
        return cls(n_bar).checked()

    def checked(self, eta_probe: float = 0.0) -> "ThermalState":
        """This state, after raising ValueError if, probed at ``eta_probe``, it is
        outside a bound of ``_outside``."""
        cutoff = self.cutoff
        if cutoff > MAX_CUTOFF:  # read first: numpy takes no cutoff past int64
            raise ValueError(f"n_bar = {self.n_bar!r} needs a Fock cutoff of {cutoff} "
                             f"for tail {TAIL!r}, above the maximum {MAX_CUTOFF}")
        if _outside(cutoff, eta_probe)[1]:
            raise ValueError("first-order sideband model invalid: "
                             "eta_probe * sqrt(cutoff) >= 0.5")
        return self

    def probabilities(self) -> np.ndarray:
        n = np.arange(self.cutoff + 1)
        r = self.n_bar / (self.n_bar + 1.0)  # 0 ** 0 == 1 leaves n_bar = 0 pure ground
        return r**n / (self.n_bar + 1.0)


class FlopRecord(Record):
    """Sideband Rabi-oscillation record: excitation vs pulse duration."""

    __slots__ = ("times", "excitation", "sideband")

    def __init__(self, times: tuple, excitation: tuple, sideband: str):
        if sideband not in SIDEBANDS:
            raise ValueError(f"unknown sideband {sideband!r}")
        if len(times) != len(excitation):
            raise ValueError(f"{len(times)} times but {len(excitation)} excitations")
        t, p = np.asarray(times, float), np.asarray(excitation, float)
        if not (((0 <= t) & (t < math.inf)).all() and np.isfinite(p).all()):
            raise ValueError("times must be finite and >= 0, excitation probabilities finite")
        if ((p < 0) | (p > 1)).any():
            raise ValueError("excitation probabilities must lie in [0, 1]")
        self._set(times=times, excitation=excitation, sideband=sideband)


def _flop_table(t: np.ndarray, terms: int, eta_probe: float, omega0: float, sideband: str):
    """sin^2(Omega_n t / 2), a row per time and a column per n < terms, on a SIDEBANDS entry."""
    for name, x in (("eta_probe", eta_probe), ("omega0", omega0)):
        if not 0 < x < math.inf:
            raise ValueError(f"{name} must be positive and finite, not {x!r}")
    rabi = omega0 * eta_probe * np.sqrt(np.arange(terms) + (sideband == "blue"))
    return np.sin(np.outer(t, rabi) / 2.0) ** 2


def _signal(table: np.ndarray, p: np.ndarray):
    """sum_n p_n sin^2(Omega_n t / 2) over n < len(p), clipped to [0, 1], per column of p."""
    return np.clip(table[:, :len(p)] @ p, 0.0, 1.0)


def _number(name: str, x):
    """``x`` as a key of ``_probe``: a 0-d array as its float (an array is not
    hashable); an array with axes is a ValueError naming it."""
    if isinstance(x, float):  # a float skips np.ndim's cost
        return x
    if np.ndim(x):
        raise ValueError(f"{name} must be one number, not an array of shape {np.shape(x)}")
    return float(x) if isinstance(x, np.ndarray) else x


def sideband_flops(
    state: ThermalState,
    eta_probe: float,
    omega0: float,
    sideband: str,
    times,
) -> FlopRecord:
    """Thermal-averaged sideband Rabi oscillations.

    Valid to first order in the Lamb-Dicke expansion, which requires
    0 < eta_probe and eta_probe * sqrt(cutoff) < 0.5 (``ThermalState.checked``).
    """
    eta_probe, omega0 = _number("eta_probe", eta_probe), _number("omega0", omega0)
    state.checked(eta_probe)
    t = np.asarray(list(times), float)
    if not ((0 <= t) & (t < math.inf)).all():
        raise ValueError("times must be finite and >= 0")
    if sideband not in SIDEBANDS:  # before the lookup, which hashes it
        raise ValueError(f"unknown sideband {sideband!r}")
    p = state.probabilities()
    signal = _signal(_probe(t.tobytes(), eta_probe, omega0, sideband)[0], p)
    return FlopRecord(times=tuple(t), excitation=tuple(signal), sideband=sideband)


class ThermalFit(NamedTuple):
    n_bar: float
    residual: float  # sum of squared deviations at the optimum


@functools.lru_cache(maxsize=2)  # one probe's red and blue sidebands
def _probe(times: bytes, eta_probe: float, omega0: float, sideband: str):
    """A probe's model, built on first use, read-only: (table, grid, tops, signals).

    ``table`` is the ``_flop_table`` of the float64 ``times`` out to the cutoff of
    ``_edge``, the largest n_bar the model represents.  ``grid`` is the part of
    ``fit_thermal``'s grid over n_bar in [0, 1e3] that the model represents, a
    prefix, as validity is monotone in the cutoff; ``tops[i]`` is grid point i's
    bracket top, the next grid point or the edge.  ``signals`` has a column per
    grid point: the table times that point's ``ThermalState.probabilities``,
    zero-padded, the weights Brent's evaluations use.
    """
    edge = _edge(eta_probe)
    width = _cutoff(edge) + 1
    table = _flop_table(np.frombuffer(times), width, eta_probe, omega0, sideband)
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 160)])
    grid = grid[np.array([_cutoff(n_bar) for n_bar in grid]) < width]
    weights = np.zeros((width, len(grid)))
    for column, n_bar in zip(weights.T, grid):
        p = ThermalState(n_bar).probabilities()
        column[:len(p)] = p
    model = table, grid, np.append(grid[1:], edge), _signal(table, weights)
    for array in model:
        array.flags.writeable = False
    return model


def _bounded_brent(f, lo: float, hi: float, xatol: float):
    """(x, f(x)) at the minimum of f over [lo, hi], within 500 evaluations.

    Brent's golden-section search with parabolic steps (*Algorithms for
    Minimization without Derivatives*, 1973, ch. 5), in the float operations
    and order of scipy's ``minimize_scalar(method="bounded")``: same bits.
    """
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(lo), float(hi)
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    ffulc = fnfc = fx = f(xf)
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > tol2 - 0.5 * (b - a) or num >= 500:
            return xf, fx
        golden = True
        if abs(e) > tol1:  # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _step_sign(xm - xf)
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + _step_sign(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu


def _step_sign(v: float) -> int:
    """sign(v) + (v == 0): the direction of a Brent step, +1 for zero."""
    return (v > 0) - (v < 0) + (v == 0)


def fit_thermal(
    record: FlopRecord,
    eta_probe: float,
    omega0: float,
) -> ThermalFit:
    """Least-squares thermal-distribution fit of a flop record over n_bar.

    The probe's model (``_probe``) scores its grid over n_bar in [0, 1e3] in
    one stacked evaluation, and the best point's neighbours bracket the
    minimum; bounded Brent refines it to 1e-10 in n_bar, each evaluation one
    product with the model's sin^2(Omega_n t / 2) table.  The last grid
    point's bracket runs to the largest n_bar the model represents
    (``_edge``); a minimum there raises ValueError (a record hotter than the
    model, or one made above ``fit_limit``, within Brent's resolution of
    5.8e-7 at eta_probe = 0.03 below the edge), as do a record with no time
    > 0, an eta_probe or omega0 that ``_flop_table`` rejects and an eta_probe
    at which the model represents no n_bar.
    """
    eta_probe, omega0 = _number("eta_probe", eta_probe), _number("omega0", omega0)
    t = np.asarray(record.times, float)
    if not (t > 0).any():
        raise ValueError("no pulse time > 0 to fit: the model is 0 at t = 0 for every n_bar")
    table, grid, tops, signals = _probe(t.tobytes(), eta_probe, omega0, record.sideband)
    target = np.asarray(record.excitation, float)

    def sse(n_bar):
        # Brent evaluates inside the bracket only, which the model represents,
        # and the table reaches the edge's cutoff: the state needs no check
        p = ThermalState(n_bar).probabilities()
        return float(np.sum((_signal(table, p) - target) ** 2))

    i = int(np.argmin(((signals - target[:, None]) ** 2).sum(0)))
    best, residual = _bounded_brent(sse, grid[max(i - 1, 0)], tops[i], _XATOL)
    if i == len(grid) - 1 and sse(tops[i]) <= residual:
        raise ValueError(
            f"best-fit n_bar not bracketed: the fit runs into n_bar = {tops[i]:.4g}, the "
            f"largest the sideband model represents at eta_probe = {eta_probe!r}"
        )
    return ThermalFit(n_bar=best, residual=residual)


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
    if not (math.isfinite(n_bar) and n_bar >= 0):
        raise ValueError(f"n_bar must be finite and >= 0, not {n_bar!r}")
    return 1.0 / (1.0 + n_bar)


def time_averaged_excitation(state: ThermalState, sideband: str) -> float:
    """Long-time average of the sideband flop signal (1/2 per flopping term)."""
    p = state.probabilities()
    if sideband == "blue":
        return 0.5 * float(p.sum())
    if sideband == "red":
        return 0.5 * float(p[1:].sum())
    raise ValueError(f"unknown sideband {sideband!r}")

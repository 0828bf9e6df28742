"""Rotating-frame Hamiltonian, Lindblad dissipator, and steady-state solvers.

Rotating frame convention: with relative laser frequencies nu_c (coupling)
and nu_g (cooling), both referenced to the zero-field S->P resonance, each
level rotates at

    f(S-) = 0,  f(P+) = nu_c,  f(S+) = nu_c - nu_g,  f(P-) = nu_g.

This leaves the sigma+ coupling (S- -> P+) and both pi couplings static.  The
sigma- coupling (S+ -> P-), present only in the oblique-beam geometry, closes
a loop mixing the two laser frequencies and oscillates at the residual beat
nu_b = nu_c - nu_g; no frame makes it static.

Vectorization is column-major: vec(rho) = rho.flatten(order="F"), so that
vec(X rho Y) = (Y^T kron X) vec(rho).

Spectra are solved by ``steady_state`` when L is static and by
``periodic_harmonics`` (Floquet expansion) when it is periodic.
``propagate``, ``periodic_steady_state`` and ``static_approximation`` are
reference oracles that the tests compare those two against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .atom import (
    CG_AMPLITUDE,
    M_OF,
    P_MINUS,
    P_PLUS,
    S_MINUS,
    S_PLUS,
    STATES,
    Beam,
    LevelScheme,
    MagneticField,
    decompose_polarization,
    zeeman_splitting,
)

VARIANTS = ("three_level", "four_level_ideal", "four_level_geometry", "two_level")

# states retained per variant
_RETAINED = {
    "three_level": (S_MINUS, S_PLUS, P_PLUS),
    "four_level_ideal": STATES,
    "four_level_geometry": STATES,
    "two_level": (S_PLUS, P_PLUS),
}


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian null space is not one-dimensional."""


class ConvergenceError(RuntimeError):
    """An iterative solve did not converge within its cap."""


@dataclass(frozen=True)
class Coupling:
    lower: int
    upper: int
    rabi_eff: complex  # H += rabi_eff/2 |u><l| + h.c. (times the beat phase if oscillating)
    beam: str
    q: int
    oscillates: bool = False


@dataclass(frozen=True)
class BeamSet:
    coupling: Beam
    cooling: Beam

    def __iter__(self):
        return iter((self.coupling, self.cooling))


@dataclass(frozen=True)
class DrivenSystem:
    """Rotating-frame description of the driven level system."""

    labels: tuple
    h_diag: np.ndarray  # rad/s
    couplings: tuple
    decays: tuple  # (upper_index, lower_index, rate)
    beat: float | None
    gamma: float

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def excited_indices(self) -> tuple:
        return tuple(i for i, s in enumerate(self.labels) if s.startswith("P"))


def build_system(
    scheme: LevelScheme,
    field: MagneticField,
    beams: BeamSet,
    variant: str = "four_level_geometry",
) -> DrivenSystem:
    """Assemble the rotating-frame system for the requested variant.

    ``three_level`` keeps |S,->, |S,+>, |P,+> with the sigma+ and pi couplings
    only; ``four_level_ideal`` keeps all four levels but drops any sigma-
    component of the cooling beam; ``four_level_geometry`` keeps everything;
    ``two_level`` reduces to |S,+>, |P,+> with the pi drive and full-rate decay
    (the textbook saturation limit, used as a verification oracle).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    labels = _RETAINED[variant]
    delta_s, delta_p = zeeman_splitting(scheme, field)
    zeeman = {
        S_MINUS: -delta_s / 2,
        S_PLUS: +delta_s / 2,
        P_MINUS: -delta_p / 2,
        P_PLUS: +delta_p / 2,
    }
    nu_c = beams.coupling.detuning
    nu_g = beams.cooling.detuning
    frame = {S_MINUS: 0.0, P_PLUS: nu_c, S_PLUS: nu_c - nu_g, P_MINUS: nu_g}
    h_diag = np.array([zeeman[s] - frame[s] for s in labels])
    h_diag -= h_diag[0]

    couplings = []
    seen = {}
    for beam in beams:
        comps = decompose_polarization(beam, field)
        nu = beam.detuning
        for q in (-1, 0, +1):
            amp = comps.amp(q)
            if abs(amp) < 1e-12:
                continue
            for lower_label in (S_MINUS, S_PLUS):
                m = M_OF[lower_label]
                if (m, q) not in CG_AMPLITUDE:
                    continue
                upper_label = P_MINUS if m + q == -0.5 else P_PLUS
                if lower_label not in labels or upper_label not in labels:
                    continue
                if variant == "two_level" and beam.label != "cooling":
                    continue
                if variant == "four_level_ideal" and beam.label == "cooling" and q != 0:
                    continue
                # The sigma+ component of an oblique cooling beam addresses the
                # transition the coupling laser already drives, at a second
                # frequency; it is weak and dropped from the model, which keeps
                # only the pi and sigma- components of the cooling beam.
                if variant == "four_level_geometry" and beam.label == "cooling" and q == +1:
                    continue
                pair = (lower_label, upper_label)
                if pair in seen and seen[pair] != nu:
                    raise ValueError(
                        f"transition {pair} driven by two distinct frequencies"
                    )
                seen[pair] = nu
                residual = nu - (frame[upper_label] - frame[lower_label])
                rabi_eff = beam.rabi * amp * CG_AMPLITUDE[(m, q)]
                couplings.append(
                    Coupling(
                        lower=labels.index(lower_label),
                        upper=labels.index(upper_label),
                        rabi_eff=complex(rabi_eff),
                        beam=beam.label,
                        q=q,
                        oscillates=abs(residual) > 1e-6,
                    )
                )

    beat = None
    for c in couplings:
        if c.oscillates:
            beat = nu_c - nu_g
    if beat is not None and abs(beat) < 1e-6:
        # degenerate lasers: nothing actually oscillates
        couplings = [
            Coupling(c.lower, c.upper, c.rabi_eff, c.beam, c.q, False) for c in couplings
        ]
        beat = None

    if variant == "two_level":
        decays = ((labels.index(P_PLUS), labels.index(S_PLUS), scheme.gamma),)
    else:
        decays = tuple(
            (labels.index(u), labels.index(l), rate)
            for u, l, rate in scheme.decay_channels()
            if u in labels and l in labels
        )

    return DrivenSystem(
        labels=labels,
        h_diag=h_diag,
        couplings=tuple(couplings),
        decays=decays,
        beat=beat,
        gamma=scheme.gamma,
    )


@dataclass(frozen=True)
class Liouvillian:
    """Vectorized master-equation generator L(t) = L0 + L+ e^{+i nu t} + L- e^{-i nu t}."""

    l0: np.ndarray
    l_plus: np.ndarray | None
    l_minus: np.ndarray | None
    beat: float | None
    dim: int

    @property
    def periodic(self) -> bool:
        return self.beat is not None

    def apply(self, rho_vec: np.ndarray, t: float) -> np.ndarray:
        out = self.l0 @ rho_vec
        if self.periodic:
            phase = np.exp(1j * self.beat * t)
            out = out + phase * (self.l_plus @ rho_vec)
            out = out + np.conj(phase) * (self.l_minus @ rho_vec)
        return out


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, complex).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v, complex).reshape((dim, dim), order="F")


def _commutator_super(h: np.ndarray) -> np.ndarray:
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def build_liouvillian(system: DrivenSystem) -> Liouvillian:
    """Lindblad superoperator with one jump operator per decay channel."""
    d = system.dim
    h0 = np.diag(system.h_diag.astype(complex))
    a = np.zeros((d, d), complex)  # oscillating part, coefficient of e^{-i nu_b t}
    for c in system.couplings:
        block = np.zeros((d, d), complex)
        block[c.upper, c.lower] = c.rabi_eff / 2
        if c.oscillates:
            a += block
        else:
            h0 += block + block.conj().T
    eye = np.eye(d)
    l0 = _commutator_super(h0)
    for upper, lower, rate in system.decays:
        s = np.zeros((d, d), complex)
        s[lower, upper] = 1.0
        sds = s.conj().T @ s
        l0 += rate * (
            np.kron(s.conj(), s)
            - 0.5 * np.kron(eye, sds)
            - 0.5 * np.kron(sds.T, eye)
        )
    if system.beat is None:
        return Liouvillian(l0=l0, l_plus=None, l_minus=None, beat=None, dim=d)
    l_minus = -1j * (np.kron(eye, a) - np.kron(a.T, eye))
    adag = a.conj().T
    l_plus = -1j * (np.kron(eye, adag) - np.kron(adag.T, eye))
    return Liouvillian(l0=l0, l_plus=l_plus, l_minus=l_minus, beat=system.beat, dim=d)


def static_approximation(liouv: Liouvillian) -> Liouvillian:
    """Fold the oscillating parts into L0 (comparison mode, not exact)."""
    if not liouv.periodic:
        return liouv
    return Liouvillian(
        l0=liouv.l0 + liouv.l_plus + liouv.l_minus,
        l_plus=None,
        l_minus=None,
        beat=None,
        dim=liouv.dim,
    )


# uniqueness spread and relative residual accepted by the steady-state solves
_CHECK_TOL = 1e-8


def _unique_null_vector(l: np.ndarray, dim: int, check_tol: float) -> np.ndarray:
    """Trace-one null vector of ``l``, checked for uniqueness.

    One row of ``l`` is replaced by the trace constraint; uniqueness is
    verified by repeating the solve with a different row replaced (both
    solves in one stacked call) and by a residual check on the original
    equations.
    """
    d2 = dim * dim
    scale = np.max(np.abs(l))
    trace_row = np.zeros(d2)
    trace_row[:: dim + 1] = 1.0  # ones on the diagonal of rho
    m = np.stack([l / scale] * 2)
    m[0, 0] = trace_row
    m[1, -1] = trace_row
    rhs = np.zeros((2, d2, 1), complex)
    rhs[0, 0, 0] = rhs[1, -1, 0] = 1.0
    try:
        v1, v2 = np.linalg.solve(m, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(
            f"steady state not unique (singular solve: {exc})"
        ) from exc
    spread = np.max(np.abs(v1 - v2))
    resid = np.max(np.abs(l @ v1)) / scale
    if spread > check_tol or resid > check_tol:
        raise DegenerateSteadyStateError(
            f"steady state not unique (solution spread "
            f"{spread:.2e}, residual {resid:.2e})"
        )
    return v1


def _density_matrix(v: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian, unit-trace density matrix from a vectorized solution."""
    rho = unvec(v, dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def steady_state(liouv: Liouvillian, check_tol: float = _CHECK_TOL) -> np.ndarray:
    """Unique steady state of a time-independent Liouvillian.

    Raises DegenerateSteadyStateError if the null space of L0 is not
    one-dimensional.
    """
    if liouv.periodic:
        raise ValueError("Liouvillian is time-periodic; use periodic_harmonics")
    return _density_matrix(_unique_null_vector(liouv.l0, liouv.dim, check_tol), liouv.dim)


def propagate(
    liouv: Liouvillian,
    rho0: np.ndarray,
    t: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> np.ndarray:
    """Integrate d rho/dt = L(t) rho from 0 to t (adaptive RK, DOP853)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return np.array(rho0, complex)
    y0 = vec(rho0)
    sol = solve_ivp(
        lambda tt, y: liouv.apply(y, tt),
        (0.0, t),
        y0,
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise ConvergenceError(f"propagation failed at t = {sol.t[-1]:.3e}: {sol.message}")
    return unvec(sol.y[:, -1], liouv.dim)


def periodic_steady_state(
    liouv: Liouvillian,
    relax_time: float,
    window_periods: int = 20,
    drift_tol: float = 1e-8,
    max_periods: int = 10_000,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> np.ndarray:
    """Time-averaged asymptotic state of a periodic Liouvillian, by propagation.

    Starts from the steady state of the static part, relaxes for
    ``relax_time``, then averages rho(t) over successive windows of an integer
    number of beat periods until consecutive window averages drift below
    ``drift_tol``.  Positivity of the average is not guaranteed; Hermiticity
    and unit trace are.
    """
    if not liouv.periodic:
        raise ValueError("Liouvillian is static; use steady_state")
    period = 2 * math.pi / abs(liouv.beat)
    rho = steady_state(
        Liouvillian(liouv.l0, None, None, None, liouv.dim)
    )
    y = vec(rho)
    d2 = liouv.dim**2

    def rhs(tt, z):
        dy = liouv.apply(z[:d2], tt)
        return np.concatenate([dy, z[:d2]])

    # relax without accumulating
    sol = solve_ivp(
        lambda tt, z: liouv.apply(z, tt),
        (0.0, relax_time), y, method="DOP853", rtol=rtol, atol=atol,
    )
    if not sol.success:
        raise ConvergenceError(f"relaxation failed: {sol.message}")
    y = sol.y[:, -1]
    t0 = relax_time
    window = window_periods * period
    prev_avg = None
    periods_done = 0
    while periods_done < max_periods:
        z0 = np.concatenate([y, np.zeros(d2, complex)])
        sol = solve_ivp(rhs, (t0, t0 + window), z0, method="DOP853", rtol=rtol, atol=atol)
        if not sol.success:
            raise ConvergenceError(f"averaging window failed: {sol.message}")
        y = sol.y[:d2, -1]
        avg = sol.y[d2:, -1] / window
        t0 += window
        periods_done += window_periods
        if prev_avg is not None and np.max(np.abs(avg - prev_avg)) < drift_tol:
            return _density_matrix(avg, liouv.dim)
        prev_avg = avg
    raise ConvergenceError(f"window average did not settle within {max_periods} periods")


def periodic_harmonics(
    liouv: Liouvillian,
    tol: float = 1e-12,
    max_harmonics: int = 24,
):
    """Fourier components rho_k of the asymptotic periodic state.

    Expands rho(t) = sum_k rho_k e^{i k nu t} and solves the resulting block
    tridiagonal linear system by folding the k != 0 chains onto the k = 0
    block (Schur complements), then imposing the trace constraint with the
    same uniqueness and residual check as ``steady_state``.  The truncation
    order is grown until rho_0 stops changing.

    Returns a dict {k: rho_k} with rho_{-k} = rho_k^dagger.
    """
    if not liouv.periodic:
        raise ValueError("Liouvillian is static; use steady_state")
    d = liouv.dim
    d2 = d * d
    nu = liouv.beat
    eye = np.eye(d2)

    def solve_at(k_max):
        # upward chain: rho_k = R_k rho_{k-1}
        r_up = None
        for k in range(k_max, 0, -1):
            m = liouv.l0 - 1j * k * nu * eye
            if r_up is not None:
                m = m + liouv.l_minus @ r_up
            r_up = -np.linalg.solve(m, liouv.l_plus)
        # downward chain: rho_{-k} = R'_{-k} rho_{-k+1}
        r_dn = None
        for k in range(k_max, 0, -1):
            m = liouv.l0 + 1j * k * nu * eye
            if r_dn is not None:
                m = m + liouv.l_plus @ r_dn
            r_dn = -np.linalg.solve(m, liouv.l_minus)
        l_eff = liouv.l0 + liouv.l_minus @ r_up + liouv.l_plus @ r_dn
        return _unique_null_vector(l_eff, d, _CHECK_TOL), r_up

    k_max = 3
    v0, r_up = solve_at(k_max)
    while k_max < max_harmonics:
        k_max += 2
        v0_next, r_up = solve_at(k_max)
        converged = np.max(np.abs(v0_next - v0)) < tol
        v0 = v0_next
        if converged:
            break
    else:
        raise ConvergenceError(f"harmonic expansion not converged at k = {max_harmonics}")

    out = {0: _density_matrix(v0, d)}
    v = vec(out[0])
    vk = r_up @ v
    out[1] = unvec(vk, d)
    out[-1] = out[1].conj().T
    return out

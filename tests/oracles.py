"""Reference oracles the tests check the package's solvers against.

These are deliberately brute force and independent of the stacked solves in
``eitcool.liouville``: adaptive time propagation of the master equation
(scipy's DOP853), a one-period monodromy periodic state, a banded solve of
the truncated Floquet equations, the static fold of a periodic Liouvillian,
L+'s Hermitian mirror L- (which a Liouvillian does not store), a hand-built
two-level atom with a textbook steady state, a numerically integrated phonon
rate equation (DOP853 as well), and ``reference_system`` and
``reference_liouvillian``, which build every system and Liouvillian from
scratch, coupling by coupling: the package's cached structures must
reproduce the system bit for bit and L0 and L+ in value.  The latter also
builds its own L-, which the mirror of L+ must equal in value.  Thermal
sideband flops with the exact Rabi frequencies (``exact_sideband_flops``)
record how far the first-order thermometry model is from them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded
from scipy.special import eval_genlaguerre

from eitcool.atom import (
    FRAME,
    P_MINUS,
    P_PLUS,
    RETAINED,
    S_MINUS,
    S_PLUS,
    TRANSITIONS,
    decompose_polarization,
    zeeman_splitting,
)
from eitcool.liouville import (
    _MIN_BEAT,
    VARIANTS,
    ConvergenceError,
    Coupling,
    DegenerateSteadyStateError,
    DrivenSystem,
    Liouvillian,
)
from eitcool.structure import _BEAT, _DROPPED_COOLING
from eitcool.thermometry import FlopRecord, ThermalState


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-major vectorization, the convention of ``build_liouvillian``."""
    return np.asarray(rho, complex).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v, complex).reshape((dim, dim), order="F")


def l_minus(liouv: Liouvillian) -> np.ndarray:
    """L- = C L+ C, with C the map vec(rho) -> vec(rho^dagger): the Hermitian
    mirror of L+, L-[i, k] = conj(L+[t[i], t[k]]) with vec(rho^T) = vec(rho)[t]."""
    d = liouv.dim
    t = np.arange(d * d).reshape(d, d).T.ravel()
    return liouv.l_plus[..., t[:, None], t].conj()


def generator(liouv: Liouvillian):
    """f(t, y) = L(t) y for a vector or matrix y, L(t) = L0 + L+ e^{+i nu t} + L- e^{-i nu t}.

    [L0; L+; L-] is stacked once, so each call is one product, weighted by
    (1, e^{+i nu t}, e^{-i nu t}), at any beat.
    """
    stacked = np.concatenate([liouv.l0, liouv.l_plus, l_minus(liouv)])

    def f(t, y):
        phase = np.exp(1j * liouv.beat * t)
        weights = np.array([1.0, phase, phase.conjugate()])
        return (weights @ (stacked @ y).reshape(3, -1)).reshape(y.shape)

    return f


def static_approximation(liouv: Liouvillian) -> Liouvillian:
    """Fold the oscillating parts into L0 (a comparison, not exact), leaving a zero L+."""
    return Liouvillian(
        l0=liouv.l0 + liouv.l_plus + l_minus(liouv),
        l_plus=np.zeros_like(liouv.l_plus),
        beat=0.0,
    )


def reference_system(scheme, field, coupling, cooling, variant):
    """``build_system`` as one pass over the transitions per call, with no cached structure."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    labels = RETAINED[variant]
    nu_c = coupling.detuning
    nu_g = cooling.detuning
    delta_s, delta_p = zeeman_splitting(scheme, field)
    zeeman = {S_MINUS: -delta_s / 2, S_PLUS: delta_s / 2,
              P_MINUS: -delta_p / 2, P_PLUS: delta_p / 2}
    levels = [zeeman[s] - (FRAME[s][0] * nu_c + FRAME[s][1] * nu_g) for s in labels]
    h_diag = np.stack(np.broadcast_arrays(*levels), axis=-1)
    h_diag = h_diag - h_diag[..., :1]
    couplings = []
    driven = set()
    dropped = _DROPPED_COOLING.get(variant, ())
    for beam, nu, skip in ((coupling, (1, 0), ()), (cooling, (0, 1), dropped)):
        amps = decompose_polarization(beam.polarization)
        for (lower_label, q), (upper_label, cg) in TRANSITIONS.items():
            pair = (lower_label, upper_label)
            if abs(amps[q]) < 1e-12 or q in skip or not set(pair) <= set(labels):
                continue
            if pair in driven:
                raise ValueError(f"transition {pair} driven by two distinct frequencies")
            driven.add(pair)
            residual = tuple(
                n - u + l for n, u, l in zip(nu, FRAME[upper_label], FRAME[lower_label])
            )
            if residual not in ((0, 0), _BEAT):
                raise ValueError(f"{beam.label} beam drives {pair} off the beat")
            couplings.append(Coupling(labels.index(lower_label), labels.index(upper_label),
                                      beam.rabi * amps[q] * cg, beam.label, q,
                                      residual == _BEAT))
    decays = tuple(
        (labels.index(u), labels.index(l), rate)
        for u, l, rate in scheme.decay_channels()
        if u in labels and l in labels
    )
    return DrivenSystem(labels, h_diag, tuple(couplings), decays,
                        nu_c - nu_g if any(c.oscillates for c in couplings) else 0.0)


def _coupling_matrix(couplings, d: int) -> np.ndarray:
    """Sum of rabi_eff/2 |u><l| over ``couplings``, batched like their Rabi frequencies."""
    batch = np.broadcast_shapes(*(np.shape(c.rabi_eff) for c in couplings))
    h = np.zeros(batch + (d, d), complex)
    for c in couplings:
        h[..., c.upper, c.lower] += c.rabi_eff / 2
    return h


def _commutator_super(h: np.ndarray) -> np.ndarray:
    """-i[h, rho] as a superoperator, for a stack ``h`` (..., d, d) with zero diagonal,
    written on the (..., d, d, d, d) view [j, i, l, k]: the coefficient of rho[k, l]
    in (L rho)[i, j]."""
    d = h.shape[-1]
    out = np.zeros(h.shape[:-2] + (d, d, d, d), complex)
    idx = np.arange(d)
    out[..., idx, :, idx, :] = -1j * h  # -i h rho
    out[..., :, idx, :, idx] = 1j * np.swapaxes(h, -1, -2)  # +i rho h
    return out.reshape(h.shape[:-2] + (d * d, d * d))


def reference_liouvillian(system: DrivenSystem):
    """``build_liouvillian`` from dense coupling matrices, one write per coupling and decay.

    Returns (Liouvillian, L-): L- is built here from the coupling matrix itself,
    as the independent check of the mirror C L+ C that the solve derives.
    """
    d = system.dim
    h0 = _coupling_matrix([c for c in system.couplings if not c.oscillates], d)
    l0 = _commutator_super(h0 + np.swapaxes(h0.conj(), -1, -2))
    upper, lower, rate = ([decay[i] for decay in system.decays] for i in range(3))
    flat = l0.reshape(l0.shape[:-2] + (d**4,))
    flat[..., [(l * d + l) * d * d + u * d + u for u, l in zip(upper, lower)]] += rate
    total = np.bincount(np.array(upper, int), rate, d)
    loss = 0.0 - 0.5 * (total[:, None] + total)
    h = system.h_diag
    batch = np.broadcast_shapes(l0.shape[:-2], h.shape[:-1])
    l0 = np.broadcast_to(l0, batch + l0.shape[-2:]).copy()
    diag = l0.reshape(batch + (d**4,))[..., :: d * d + 1]
    diag.real = loss.reshape(-1)
    diag.imag = (h[..., :, None] - h[..., None, :]).reshape(h.shape[:-1] + (d * d,))
    oscillating = [c for c in system.couplings if c.oscillates]
    if oscillating:
        a = _coupling_matrix(oscillating, d)
        l_minus = _commutator_super(a)
        l_plus = _commutator_super(np.swapaxes(a.conj(), -1, -2))
    else:
        l_plus = l_minus = np.zeros((d * d, d * d), complex)
    return Liouvillian(l0=l0, l_plus=l_plus, beat=system.beat), l_minus


def two_level_system(omega_pi: float, delta_pi: float, gamma: float) -> DrivenSystem:
    """|S,+>, |P,+> driven by pi light of Rabi frequency ``omega_pi``.

    The upper level sits at -delta_pi in the rotating frame and decays to the
    lower one at the full rate ``gamma``: the textbook saturation limit.
    """
    return DrivenSystem(
        labels=(S_PLUS, P_PLUS),
        h_diag=np.array([0.0, -delta_pi]),
        couplings=(Coupling(lower=0, upper=1, rabi_eff=complex(omega_pi),
                            beam="cooling", q=0),),
        decays=((1, 0, gamma),),
        beat=0.0,
    )


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
    sol = solve_ivp(
        generator(liouv),
        (0.0, t),
        vec(rho0),
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise ConvergenceError(f"propagation failed at t = {sol.t[-1]:.3e}: {sol.message}")
    return unvec(sol.y[:, -1], liouv.dim)


def periodic_steady_state(
    liouv: Liouvillian, rtol: float = 1e-10, atol: float = 1e-12
) -> np.ndarray:
    """Period-averaged asymptotic state of a periodic Liouvillian, by one-period monodromy.

    Integrates the fundamental matrix, dU/dt = L(t) U from U = I, over one
    beat period T = 2 pi / |nu| (DOP853).  The periodic state starts at the
    eigenvector rho(0) of the monodromy matrix U(T) at eigenvalue 1; one more
    period of rho and its integral from there gives the period average
    V(T) rho(0) / T, V the integral of U, returned Hermitian with unit trace.
    (Integrating V alongside U would double the state to 2 d^4 entries, where
    the stage sums of DOP853 go to multithreaded BLAS and stall on a busy host.)
    """
    if abs(liouv.beat) < _MIN_BEAT:
        raise ValueError("Liouvillian is static; use steady_state")
    period = 2 * math.pi / abs(liouv.beat)
    d2 = liouv.dim**2

    def one_period(rhs, y0):
        sol = solve_ivp(rhs, (0.0, period), y0, method="DOP853", rtol=rtol, atol=atol)
        if not sol.success:
            raise ConvergenceError(f"one-period propagation failed: {sol.message}")
        return sol.y[:, -1]

    f = generator(liouv)
    u = one_period(lambda tt, z: f(tt, z.reshape(d2, d2)).ravel(),
                   np.eye(d2, dtype=complex).ravel())
    multipliers, vectors = np.linalg.eig(u.reshape(d2, d2))
    nearest = np.argsort(np.abs(multipliers - 1.0))
    if abs(multipliers[nearest[1]] - 1.0) < 1e-6:
        raise DegenerateSteadyStateError("Floquet multiplier 1 is not isolated")
    y = one_period(lambda tt, z: np.concatenate([f(tt, z[:d2]), z[:d2]]),
                   np.concatenate([vectors[:, nearest[0]], np.zeros(d2, complex)]))
    rho = unvec(y[d2:] / period, liouv.dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def truncated_floquet_state(liouv: Liouvillian, order: int):
    """(rho_0, rho_{+1}) of the Floquet equations truncated at |k| <= ``order``, by one banded solve.

    (L0 - i k nu) rho_k + L+ rho_{k-1} + L- rho_{k+1} = 0 for every |k| <= order,
    with rho_k = 0 beyond, and one equation of the k = 0 block replaced by
    tr rho_0 = 1: all (2 order + 1) d^2 unknowns in one LU of the band, with no
    continued fraction and no Hermitian mirror.  (A dense ``np.linalg.solve``
    of the same system goes to multithreaded LAPACK and stalls on a busy host.)
    """
    d2 = liouv.dim**2
    blocks = 2 * order + 1
    lm = l_minus(liouv)
    a = np.zeros((blocks, d2, blocks, d2), complex)
    for j, k in enumerate(range(-order, order + 1)):
        a[j, :, j] = liouv.l0 - 1j * k * liouv.beat * np.eye(d2)
        if j > 0:
            a[j, :, j - 1] = liouv.l_plus
        if j < blocks - 1:
            a[j, :, j + 1] = lm
    a[order, 0] = 0.0
    a[order, 0, order, :: liouv.dim + 1] = 1.0  # tr rho_0 = 1
    a = a.reshape(blocks * d2, blocks * d2)
    width = 2 * d2 - 1  # of the block tridiagonal band, below and above the diagonal
    row, col = np.indices(a.shape)
    band = np.abs(row - col) <= width
    ab = np.zeros((2 * width + 1, len(a)), complex)
    ab[width + row[band] - col[band], col[band]] = a[band]
    b = np.zeros((blocks, d2), complex)
    b[order, 0] = 1.0
    x = solve_banded((width, width), ab, b.ravel()).reshape(blocks, d2)
    rho = unvec(x[order], liouv.dim)
    return 0.5 * (rho + rho.conj().T), unvec(x[order + 1], liouv.dim)


def integrate_occupation(a_plus: float, a_minus: float, n0: float, t: float) -> float:
    """n(t) of dn/dt = -(A- - A+) n + A+ by adaptive integration from n(0) = n0."""
    sol = solve_ivp(lambda _t, n: [-(a_minus - a_plus) * n[0] + a_plus],
                    (0.0, t), [n0], method="DOP853", rtol=1e-12, atol=1e-14)
    return float(sol.y[0, -1])


def exact_sideband_flops(state: ThermalState, eta: float, omega0: float, sideband: str,
                         times) -> FlopRecord:
    """Thermal-averaged sideband flops with the exact matrix element at every n
    (Wineland et al., J. Res. NIST 103, 259 (1998)), in place of the package's
    first-order Omega_n = omega0 eta sqrt(n + 1), which it approaches as eta^2:

        blue  Omega_{n,n+1} = omega0 e^{-eta^2/2} eta L_n^1(eta^2) / sqrt(n + 1)
        red   Omega_{n,n-1} = omega0 e^{-eta^2/2} eta L_{n-1}^1(eta^2) / sqrt(n), 0 at n = 0
    """
    n = np.arange(state.checked().cutoff + 1)
    if sideband == "blue":
        rabi = eval_genlaguerre(n, 1, eta**2) / np.sqrt(n + 1)
    else:
        rabi = np.zeros(len(n))
        rabi[1:] = eval_genlaguerre(n[1:] - 1, 1, eta**2) / np.sqrt(n[1:])
    rabi *= omega0 * math.exp(-eta**2 / 2) * eta
    t = np.asarray(times, float)
    excitation = np.clip(np.sin(np.outer(t, rabi) / 2) ** 2 @ state.probabilities(), 0, 1)
    return FlopRecord(times=tuple(t), excitation=tuple(excitation), sideband=sideband)

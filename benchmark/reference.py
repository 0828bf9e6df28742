"""Reference physics written for the benchmark, independent of ``eitcool``.

Everything here is derived from the textbook model, not from the package:

* ``scattering_rate`` solves the Lindblad master equation of the Lambda
  system (|S,->, |S,+>, |P,+>) or of the four Zeeman sublevels of
  S1/2 <-> P1/2 in a rotating frame chosen here.  The residual sigma-
  component of an oblique cooling beam oscillates at the laser beat; it is
  handled by a Floquet expansion truncated at |k| <= ``harmonics`` and solved
  as one block matrix (the package instead folds Schur-complement chains).
  States are vectorised row-major, the package uses column-major.
* ``thermal_flops`` is P(t) = sum_n p_n sin^2(Omega_n t / 2) over an
  untruncated-in-practice thermal distribution.
* ``n_bar_closed_form`` is the solution of dn/dt = -(A- - A+) n + A+.

The model choices match the package's documented ones (detunings referenced
to their transitions, one Lindblad jump operator per decay channel, the
sigma+ part of the oblique cooling beam dropped), so agreement is expected
to rounding error.
"""

from __future__ import annotations

import math

import numpy as np

# CODATA 2018 and the 40Ca+ S1/2, P1/2 Lande factors
HBAR = 1.054571817e-34
MU_B = 9.2740100783e-24
ATOMIC_MASS = 1.66053906660e-27
G_S = 2.00225
G_P = 2.0 / 3.0
TWO_PI = 2.0 * math.pi

S_M, S_P, P_M, P_P = 0, 1, 2, 3  # four-level basis order


def ac_stark_shift(omega_sigma: float, delta_sigma: float) -> float:
    """Light shift of the bright dressed state: (sqrt(W^2 + D^2) - |D|) / 2."""
    return 0.5 * (math.sqrt(omega_sigma**2 + delta_sigma**2) - abs(delta_sigma))


def _commutator(h: np.ndarray) -> np.ndarray:
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def _dissipator(c: np.ndarray) -> np.ndarray:
    eye = np.eye(c.shape[0])
    cdc = c.conj().T @ c
    return np.kron(c, c.conj()) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T)


def _lambda_rate(omega_sigma, omega_pi, delta_sigma, delta_pi, gamma):
    """Lambda system |S,->=0, |S,+>=1, |P,+>=2; returns the pi-beam photon rate."""
    h = np.zeros((3, 3), complex)
    h[2, 2] = -delta_sigma
    h[1, 1] = delta_pi - delta_sigma
    h[2, 0] = h[0, 2] = omega_sigma / 2
    h[2, 1] = h[1, 2] = omega_pi / 2
    lv = _commutator(h)
    for lower, weight in ((0, 2.0 / 3.0), (1, 1.0 / 3.0)):
        c = np.zeros((3, 3))
        c[lower, 2] = 1.0
        lv = lv + gamma * weight * _dissipator(c)
    # steady state = null vector of L, taken from the SVD
    _, s, vh = np.linalg.svd(lv)
    if s[-2] < 1e-10 * s[0]:
        raise ArithmeticError("Lambda steady state not unique")
    rho = vh[-1].conj().reshape(3, 3)
    rho = rho / np.trace(rho)
    return float(np.imag(omega_pi * rho[1, 2]))


def _four_level_rate(omega_sigma, omega_pi, delta_sigma, delta_pi, gamma,
                     b_gauss, beam_angle, oblique, harmonics):
    d_s = G_S * MU_B * b_gauss * 1e-4 / HBAR
    d_p = G_P * MU_B * b_gauss * 1e-4 / HBAR
    # frame: S- at rest, P+ with the coupling laser, S+ at the Raman
    # difference, P- with the cooling laser (driven from S- by its pi part)
    h0 = np.zeros((4, 4), complex)
    h0[P_P, P_P] = -delta_sigma
    h0[S_P, S_P] = delta_pi - delta_sigma
    h0[P_M, P_M] = d_s - d_p - delta_pi
    # Condon-Shortley signs; effective Rabi frequencies as configured
    static = [(S_M, P_P, -omega_sigma), (S_P, P_P, omega_pi), (S_M, P_M, -omega_pi)]
    for lower, upper, rabi in static:
        h0[upper, lower] += rabi / 2
        h0[lower, upper] += np.conj(rabi) / 2
    l0 = _commutator(h0)
    for upper, lower, weight in ((P_P, S_M, 2 / 3), (P_P, S_P, 1 / 3),
                                 (P_M, S_M, 1 / 3), (P_M, S_P, 2 / 3)):
        c = np.zeros((4, 4))
        c[lower, upper] = 1.0
        l0 = l0 + gamma * weight * _dissipator(c)
    sigma_minus = 0.0
    beat = delta_sigma - delta_pi + d_s
    if oblique:
        # in-plane linear polarisation at beam_angle to B: pi amplitude
        # sin(theta), sigma- amplitude -cos(theta)/sqrt(2); CG sqrt(2/3) vs
        # sqrt(1/3) for pi gives Omega_sigma- = -Omega_pi cot(theta)
        sigma_minus = -omega_pi * math.cos(beam_angle) / math.sin(beam_angle)
    if sigma_minus == 0.0 or abs(beat) < 1e-6:
        harmonics = 0
    n = 16
    k_vals = range(-harmonics, harmonics + 1)
    blocks = len(k_vals)
    m = np.zeros((blocks * n, blocks * n), complex)
    a = np.zeros((4, 4), complex)  # coefficient of exp(-i beat t)
    a[P_M, S_P] = sigma_minus / 2
    l_minus = _commutator(a)
    l_plus = _commutator(a.conj().T)
    for i, k in enumerate(k_vals):
        m[i * n:(i + 1) * n, i * n:(i + 1) * n] = l0 - 1j * k * beat * np.eye(n)
        if i + 1 < blocks:
            m[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = l_minus
        if i > 0:
            m[i * n:(i + 1) * n, (i - 1) * n:i * n] = l_plus
    centre = harmonics * n
    scale = np.max(np.abs(m))
    rhs = np.zeros(blocks * n, complex)
    full = m.copy()
    full[centre, :] = 0.0
    full[centre, centre:centre + n:5] = scale  # trace of rho_0 (row-major diagonal)
    rhs[centre] = scale
    x = np.linalg.solve(full, rhs)
    if np.max(np.abs(m @ x)) > 1e-9 * scale:
        raise ArithmeticError("four-level steady state not unique")
    rho = {k: x[i * n:(i + 1) * n].reshape(4, 4) for i, k in enumerate(k_vals)}
    w = float(np.imag(omega_pi * rho[0][S_P, P_P]) + np.imag(-omega_pi * rho[0][S_M, P_M]))
    if harmonics:
        w += float(np.imag(sigma_minus * rho[1][S_P, P_M]))
    return w


def scattering_rate(variant: str, omega_sigma: float, omega_pi: float,
                    delta_sigma: float, delta_pi: float, gamma: float,
                    b_gauss: float = 4.4, beam_angle: float = math.radians(125.0),
                    harmonics: int = 10) -> float:
    """Cooling-beam photon scattering rate W(delta_pi), 1/s."""
    if variant == "three_level":
        return _lambda_rate(omega_sigma, omega_pi, delta_sigma, delta_pi, gamma)
    if variant in ("four_level_ideal", "four_level_geometry"):
        return _four_level_rate(omega_sigma, omega_pi, delta_sigma, delta_pi, gamma,
                                b_gauss, beam_angle, variant == "four_level_geometry",
                                harmonics)
    raise ValueError(f"no reference for variant {variant!r}")


def rate_coefficients(params: dict, omega: float, prefactor: float):
    """(A+, A-) = prefactor * W(delta_pi -/+ omega) for one mode."""
    w_plus = scattering_rate(delta_pi=params["delta_pi"] - omega,
                             **{k: v for k, v in params.items() if k != "delta_pi"})
    w_minus = scattering_rate(delta_pi=params["delta_pi"] + omega,
                              **{k: v for k, v in params.items() if k != "delta_pi"})
    return prefactor * w_plus, prefactor * w_minus


def steady_state_n(a_plus: float, a_minus: float) -> float:
    return a_plus / (a_minus - a_plus) if a_minus > a_plus else math.inf


def n_bar_closed_form(a_plus: float, a_minus: float, n0: float, t: float) -> float:
    rate = a_minus - a_plus
    n_ss = a_plus / rate
    return n_ss + (n0 - n_ss) * math.exp(-rate * t)


def lamb_dicke_prefactor(wavelength_nm: float, beam_angle_deg: float, mass_amu: float,
                         omega: float, phi_deg: float):
    """(eta, eta^2 cos^2 phi) for a mode at angle phi to delta k."""
    k = TWO_PI / (wavelength_nm * 1e-9)
    delta_k = 2.0 * k * math.sin(math.radians(beam_angle_deg) / 2.0)
    eta = delta_k * math.sqrt(HBAR / (2.0 * mass_amu * ATOMIC_MASS * omega))
    return eta, (eta * math.cos(math.radians(phi_deg))) ** 2


def thermal_flops(n_bar: float, eta: float, omega0: float, times, sideband="blue",
                  n_max: int = 4000) -> np.ndarray:
    """Thermally averaged first-order sideband flops, P(t) = sum p_n sin^2(W_n t/2)."""
    n = np.arange(n_max)
    p = (n_bar / (n_bar + 1.0)) ** n / (n_bar + 1.0)
    rabi = omega0 * eta * np.sqrt(n + 1.0 if sideband == "blue" else n)
    t = np.asarray(times, float)[:, None]
    return (np.sin(rabi * t / 2.0) ** 2) @ p

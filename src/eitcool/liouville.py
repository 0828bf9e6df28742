"""Rotating-frame Hamiltonian, Lindblad dissipator, and steady-state solvers.

Rotating frame convention: with relative laser frequencies nu_c (coupling)
and nu_g (cooling), both referenced to the zero-field S->P resonance, each
level rotates at

    f(S-) = 0,  f(P+) = nu_c,  f(S+) = nu_c - nu_g,  f(P-) = nu_g,

held as integer coefficients of (nu_c, nu_g) in ``structure``.  This leaves the
sigma+ coupling (S- -> P+) and both pi couplings static.  The sigma-
coupling (S+ -> P-), present only in the oblique-beam geometry, closes a
loop mixing the two laser frequencies and oscillates at the residual beat
nu_b = nu_c - nu_g; no frame makes it static.  ``build_system`` computes
each residual in integers, so the structure does not depend on the
detunings, and rejects any other residual.  A point is static exactly when
|nu_b| < ``_MIN_BEAT``: nothing oscillates (beat 0), or the lasers are degenerate.

Vectorization is column-major: vec(rho) = rho.flatten(order="F"), so that
vec(X rho Y) = (Y^T kron X) vec(rho).  The superoperators are written by
index arithmetic on their (d, d, d, d) view rather than with kron products.
What a build writes apart from its values (the couplings, the decays and
the positions of every superoperator term) comes from ``structure``, built
once per key; a call computes the values and writes them with a few flat
index writes.

One stacked routine, ``_states``, solves for every steady state: it takes an
(N, d^2, d^2) stack and checks each member on its own, so one degenerate or
singular point is flagged without failing the others.  A static point is the
order-0 case, one checked null-vector solve; a periodic point gets the Floquet
harmonic expansion, grown over even truncation orders, whose fold multiplies
only the sigma- coupling's 7 x 7 blocks (S+ -> P- makes L+ read rho[P-, .] and
rho[., S+] alone), with L- derived there as L+'s mirror.  ``sweep_states`` is
the sweep route: a stacked Liouvillian, built by broadcasting per-point laser
parameters through ``build_system`` and ``build_liouvillian``, solved in stacks
of at most ``_STACK_ENTRIES`` matrix entries into one set of result arrays; no
built Liouvillian is rewritten, and an L+ that the points share stays one
matrix.  ``steady_state`` is the one-point case of any Liouvillian, static or
periodic.  The module needs numpy only; the brute-force oracles it is checked
against live in the tests.
"""

import functools
import math
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .atom import (
    EXCITED_STATES,
    P_MINUS,
    P_PLUS,
    S_MINUS,
    S_PLUS,
    VARIANTS,
    Beam,
    LevelScheme,
    MagneticField,
    decompose_polarization,
    zeeman_splitting,
)


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian null space is not one-dimensional."""


class ConvergenceError(RuntimeError):
    """An iterative solve did not converge within its cap."""


class Coupling(NamedTuple):
    lower: int
    upper: int
    # H += rabi_eff/2 |u><l| + h.c. (times the beat phase if oscillating)
    rabi_eff: complex | np.ndarray
    beam: str
    q: int
    oscillates: bool = False


class DrivenSystem(NamedTuple):
    """Rotating-frame description of the driven level system."""

    labels: tuple
    h_diag: np.ndarray  # rad/s, (..., dim)
    couplings: tuple
    decays: tuple  # (upper_index, lower_index, rate)
    beat: float | np.ndarray  # nu_c - nu_g if a coupling oscillates, else 0.0

    @property
    def dim(self) -> int:
        return len(self.labels)

    def excited_indices(self) -> tuple:
        return tuple(i for i, s in enumerate(self.labels) if s in EXCITED_STATES)


# beat (rad/s) below which the lasers count as degenerate and a point is static
_MIN_BEAT = 1e-6


@functools.lru_cache(maxsize=64)
def _spherical(polarization: tuple) -> tuple:
    """(amplitudes, nonzero components) of a ``Beam``'s polarization, once per value.

    ``decompose_polarization``'s {q: amp}, read-only, and the components q with
    |amp| >= 1e-12 in its order.  Equal tuples share an entry (so do 0.0 and
    -0.0), and a cache hit returns the first one's amplitudes.
    """
    amps = decompose_polarization(polarization)
    return MappingProxyType(amps), tuple(q for q in amps if not abs(amps[q]) < 1e-12)


def build_system(
    scheme: LevelScheme,
    field: MagneticField,
    coupling: Beam,
    cooling: Beam,
    variant: str = "four_level_geometry",
) -> DrivenSystem:
    """Assemble the rotating-frame system for the requested variant.

    ``three_level`` keeps |S,->, |S,+>, |P,+> with the sigma+ and pi couplings
    only; ``four_level_ideal`` keeps all four levels but drops both sigma
    components of the cooling beam; ``four_level_geometry`` keeps everything
    but the cooling beam's sigma+ component, which is weak and addresses the
    transition the coupling laser already drives, at a second frequency.

    Beam Rabi frequencies and detunings may be arrays that broadcast: the
    system is then a stack with one coupling structure, ``h_diag`` (..., dim),
    each ``rabi_eff`` shaped like its beam's Rabi frequency and ``beat`` like
    the detunings.  A coupling whose frame residual is neither 0 nor the beat,
    a transition driven by both beams, or a Rabi frequency or detuning that is
    not finite raises ValueError.  ``beat`` is nu_c - nu_g whenever a coupling
    oscillates, however small, else 0.0.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    beams = (coupling, cooling)
    for beam in beams:
        for name in ("rabi", "detuning"):
            x = getattr(beam, name)
            if not (np.isfinite(x).all() if isinstance(x, np.ndarray) else math.isfinite(x)):
                raise ValueError(f"{beam.label} beam {name} must be finite")
    # imported by the first build: at the top, compiling it costs every cold import
    from .structure import system_structure

    (amps_c, qs_c), (amps_g, qs_g) = (_spherical(beam.polarization) for beam in beams)
    amps = (amps_c, amps_g)
    labels, frame, structure, decays = system_structure(
        variant, ((coupling.label, qs_c), (cooling.label, qs_g)), scheme)
    nu_c = coupling.detuning
    nu_g = cooling.detuning
    delta_s, delta_p = zeeman_splitting(scheme, field)
    zeeman = {S_MINUS: -delta_s / 2, S_PLUS: delta_s / 2,
              P_MINUS: -delta_p / 2, P_PLUS: delta_p / 2}
    levels = np.array([zeeman[s] for s in labels]) - (
        np.multiply.outer(nu_c, frame[0]) + np.multiply.outer(nu_g, frame[1])
    )
    couplings = tuple(
        Coupling(lower, upper, beams[b].rabi * amps[b][q] * cg, beams[b].label, q, oscillates)
        for lower, upper, b, q, cg, oscillates in structure
    )
    return DrivenSystem(
        labels=labels,
        h_diag=levels - levels[..., :1],  # first level at zero
        couplings=couplings,
        decays=decays,
        beat=nu_c - nu_g if any(c.oscillates for c in couplings) else 0.0,
    )


class Liouvillian(NamedTuple):
    """Vectorized master-equation generator L(t) = L0 + L+ e^{+i nu t} + L- e^{-i nu t}.

    A stack when the system is one: ``l0`` is (..., d^2, d^2) and carries the batch, to
    which L+ and the beat broadcast, as ``build_liouvillian`` builds them: the level
    energies hold the beat, and the static couplings the pi one of the beam whose sigma-
    component makes L+.  L+ has the batch shape of the oscillating couplings' Rabi
    frequencies only, so the points of a detuning sweep share one L+, solved
    unbroadcast.  A system with nothing oscillating has beat 0.0 and a zero L+ (one
    shared (d^2, d^2) matrix); a point is static exactly when
    |beat| < ``_MIN_BEAT``.  The level count d is read from L0, so it cannot disagree with it.

    L(t) preserves Hermiticity: with C the map vec(rho) -> vec(rho^dagger),
    C L0 C = L0, and L- = C L+ C is not stored but derived where it is read.
    """

    l0: np.ndarray
    l_plus: np.ndarray
    beat: float | np.ndarray

    @property
    def dim(self) -> int:
        return math.isqrt(self.l0.shape[-1])


def _halves(couplings, which) -> np.ndarray:
    """rabi_eff / 2 of the couplings ``which``, broadcast and stacked on a last axis."""
    rabi = [couplings[i].rabi_eff for i in which]
    if any(isinstance(r, np.ndarray) for r in rabi):
        return np.stack(np.broadcast_arrays(*rabi), axis=-1) / 2
    return np.array(rabi, complex) / 2


def _superoperator(template, at, h) -> np.ndarray:
    """``template`` with -i h and +i h written at ``at``, batched like ``h`` (..., n)."""
    out = np.empty(h.shape[:-1] + template.shape, complex)
    out[...] = template
    out[..., at] = (np.array([-1j, 1j])[:, None] * h[..., None, :])[..., None]
    return out


def build_liouvillian(system: DrivenSystem) -> Liouvillian:
    """Lindblad superoperator with one jump operator per decay channel.

    L0 has the batch shape of the level energies broadcast with the static
    couplings' Rabi frequencies.  A call writes the coupling terms at their
    positions in the structure's L0 and L+, and the level energies into the
    diagonal of L0, as the commutator term -i(h_i - h_j) of rho[i, j].
    """
    from .structure import liouvillian_structure  # as in build_system

    d = system.dim
    static, oscillating, base, base_at, plus, plus_at = liouvillian_structure(
        d, tuple((c.lower, c.upper, c.oscillates) for c in system.couplings), system.decays
    )
    h = _halves(system.couplings, static)  # h + h^dagger at [u, l] and [l, u]
    l0 = _superoperator(base, base_at, np.concatenate([h, h.conj()], axis=-1))
    e = system.h_diag
    if l0.shape[:-1] != e.shape[:-1]:  # broadcast the couplings over the level energies
        batch = e.shape[:-1] if h.ndim == 1 else np.broadcast_shapes(e.shape[:-1], h.shape[:-1])
        l0, core = np.empty(batch + l0.shape[-1:], complex), l0
        l0[...] = core
    l0[..., :: d * d + 1].imag = (e[..., :, None] - e[..., None, :]).reshape(
        e.shape[:-1] + (d * d,))
    l0 = l0.reshape(l0.shape[:-1] + (d * d, d * d))
    if oscillating:  # h^dagger of e^{+i nu_b t}
        a = _halves(system.couplings, oscillating).conj()
        l_plus = _superoperator(plus, plus_at, a).reshape(a.shape[:-1] + (d * d, d * d))
    else:
        l_plus = np.zeros((d * d, d * d), complex)
    return Liouvillian(l0=l0, l_plus=l_plus, beat=system.beat)


# uniqueness spread and relative residual accepted by the steady-state solves
_CHECK_TOL = 1e-8

# change of rho_0 and rho_{+1} between successive harmonic truncation orders
# at which the Floquet expansion counts as converged, and the largest order tried
_HARMONIC_TOL = 1e-12
_MAX_HARMONICS = 26

# entries of the (N, d^2, d^2) stack per solve, 32 points of 16 x 16; bounds
# the temporaries of long sweeps, and a stack's fixed cost is paid per stack
_STACK_ENTRIES = 32 * 4**4


def _solve(a: np.ndarray, b: np.ndarray):
    """``np.linalg.solve`` over a stack, flagging exactly singular members.

    A stacked solve raises for the whole stack if one member is singular.
    The singular members are then found by LU (``slogdet``), replaced by the
    identity and the stack is solved again.  Returns (x, singular): singular is
    None when the stacked solve did not raise, else the members' mask; rows of
    x whose member is singular are meaningless.
    """
    try:
        return np.linalg.solve(a, b), None
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(a)[0] == 0
        a = np.where(singular[:, None, None], np.eye(a.shape[-1]), a)
        return np.linalg.solve(a, b), singular


@functools.cache
def _vec_index(dim: int) -> tuple:
    """(trace row, t) of vec(rho), not to be written: the trace constraint as a row,
    ones on rho's diagonal, and t with vec(rho^T) = vec(rho)[t], its own inverse."""
    return np.eye(dim).ravel(), np.arange(dim * dim).reshape(dim, dim).T.ravel()


def _null_vectors(l: np.ndarray, dim: int, checked: bool = True):
    """Trace-one null vector of each matrix in the stack ``l``, checked for uniqueness.

    One row of each matrix is replaced by the trace constraint; uniqueness is
    verified by repeating the solve with a different row replaced (all in one
    stacked call) and by a residual check on the original equations.  Each
    point is checked on its own, and ``l`` is not written.  Returns (v,
    errors): errors maps each failed point n to its DegenerateSteadyStateError,
    whose row of v is NaN.  Unless ``checked``, only the first solve is made
    and only a singular one fails: for a state that is compared, not returned.
    The (solves, N, d^2, d^2) stack is written once: L / max|L| into the first
    block, copied into the second.
    """
    n, d2 = len(l), dim * dim
    solves = 2 if checked else 1
    scale = np.abs(l).max(axis=(1, 2))
    trace_row = _vec_index(dim)[0]
    m = np.empty((solves, n, d2, d2), complex)
    np.divide(l, scale[:, None, None], out=m[0])
    rhs = np.zeros((solves, n, d2, 1), complex)
    if checked:
        m[1] = m[0]
        m[1, :, -1] = trace_row
        rhs[1, :, -1] = 1.0
    m[0, :, 0] = trace_row
    rhs[0, :, 0] = 1.0
    x, singular = _solve(m.reshape(solves * n, d2, d2), rhs.reshape(solves * n, d2, 1))
    x = x.reshape(solves, n, d2)
    v = x[0]
    if singular is not None:  # the stacked solve raised
        singular = singular.reshape(solves, n).any(axis=0)
    failed = singular
    if checked:
        spread = np.abs(v - x[1]).max(axis=1)
        resid = np.abs(l @ v[:, :, None]).max(axis=(1, 2)) / scale
        not_unique = ~((spread <= _CHECK_TOL) & (resid <= _CHECK_TOL))
        failed = not_unique if singular is None else singular | not_unique
    if failed is None or not failed.any():
        return v, {}
    errors = {}
    for i in np.flatnonzero(failed):
        detail = (
            "singular solve" if singular is not None and singular[i]
            else f"solution spread {spread[i]:.2e}, residual {resid[i]:.2e}"
        )
        errors[i] = DegenerateSteadyStateError(f"steady state not unique ({detail})")
        v[i] = np.nan
    return v, errors


def _members(x, sel):
    """Members ``sel`` of a stack, or the one (d^2, d^2) matrix that a stack shares."""
    return x if x.ndim == 2 else x[sel]


def _density_matrices(v: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian, unit-trace density matrices from a stack of vectorized solutions."""
    rho = v.reshape(-1, dim, dim).transpose(0, 2, 1)  # column-major unvec
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    with np.errstate(invalid="ignore"):  # rows of failed points are NaN
        return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def _states(l0s: np.ndarray, l_plus, beats, dim: int, rho0, rho1, order) -> list:
    """Steady state of each L0[n] + L+[n] e^{+i nu_n t} + L-[n] e^{-i nu_n t} in the stack.

    ``l_plus`` is a stack like ``l0s`` or a matrix all points share; L- = C L+ C
    is read off it, L-[i, k] = conj(L+[t[i], t[k]]).  A point is static where
    its beat is below ``_MIN_BEAT`` (nothing oscillates, or the lasers are
    degenerate); all static points are the order-0 case, one checked null-vector
    solve of L0 + L+ + L-, with rho_{+1} = rho_0 (what a coupling that stops
    oscillating reads).

    Every other point is periodic.  Its Floquet expansion
    rho(t) = sum_k rho_k e^{i k nu t} gives a block tridiagonal linear system,
    solved by folding the k != 0 chains onto the k = 0 block (Schur
    complements) and imposing the trace constraint with the checks of
    ``_null_vectors``.  Only the upward chain rho_k = R_k rho_{k-1} is solved:
    L(t) preserves Hermiticity (see ``Liouvillian``), so rho_{-k} = rho_k^dagger
    and the downward chain is its mirror, R'_{-k} = C R_k C.  With S the
    columns where any L+ is nonzero (7 of 16 in the oblique-beam geometry),
    read once per call, and S' = t[S] (vec(rho^T) = vec(rho)[t]), L+ lives on
    S' x S and L- on S x S'.  So M_k R_k = -L+, M_k = L0 - i k nu + L- R_{k+1},
    is solved on the columns S (R_k is exactly zero elsewhere), and L- R_{k+1}
    and L+ C R_1 C are 7 x 7 products into the S x S block of M_k and the
    S' x S' block of the folded L0.  Each periodic point grows its own
    truncation order over 2, 4, ..., ``_MAX_HARMONICS`` until rho_0 and
    rho_{+1} (which the oscillating coupling's rate reads) both change by less
    than ``_HARMONIC_TOL`` from the order before, or rho_0 does and rho_{+1}'s
    change stops falling: at beats of a fraction of a rad/s, M_1 is nearly
    singular and rho_{+1} carries round-off above the tolerance at every order.
    The points still growing form the active set of a fold.  Order 4 is the
    first that can be accepted, at 6 fold solves and 3 null-vector LUs in all:
    the order-2 state is only compared, so it gets no uniqueness check.

    Writes rho_0, rho_{+1} and the truncation order of each static or converged
    point into ``rho0``, ``rho1`` and ``order``; returns each point's failure or None.
    """
    n, d2, t = len(l0s), dim * dim, _vec_index(dim)[1]
    static = np.abs(beats) < _MIN_BEAT
    errors = [None] * n
    if static.any():
        sel = slice(None) if static.all() else static  # all static: a view, no gather
        l = l0s[sel]  # _null_vectors writes no input
        if l_plus.any():  # a zero L+ costs no pass and no copy
            # L0 + (L+ + L-), which rounds as (L0 + L+) + L-: they share no nonzero entry
            lp = _members(l_plus, sel)
            l = l + (lp + lp[..., t[:, None], t].conj())
        v, errs = _null_vectors(l, dim)
        rho0[sel] = rho1[sel] = _density_matrices(v, dim)
        for j, error in errs.items():  # the failed static points
            errors[np.flatnonzero(static)[j]] = error

    # even orders 2, 4, ..., _MAX_HARMONICS; rho_{+1}'s change before the second
    # order is unknown (NaN), so only the tolerance test can accept a point there
    idx = np.flatnonzero(~static)
    dv1_prev = np.full(len(idx), np.nan)
    if len(idx):
        on = (l_plus != 0).reshape(-1, d2).any(axis=0)
        # S and S' = t[S], ascending so that block products sum in the dense order
        cols, rows = np.flatnonzero(on), np.flatnonzero(on[t])
        lp, lm = l_plus[..., rows[:, None], cols], l_plus[..., t[cols][:, None], t[rows]].conj()
        rhs = -l_plus[..., :, cols]
        # flat positions of the S x S and S' x t[S] blocks in a d^2 x d^2 matrix
        s_s = (cols[:, None] * d2 + cols).ravel()
        s_ts = (rows[:, None] * d2 + t[cols]).ravel()
    for k_max in range(2, _MAX_HARMONICS + 1, 2):
        if not len(idx):
            break
        l0, nu = l0s[idx], beats[idx][:, None]
        lp_k, lm_k, rhs_k = (_members(x, idx) for x in (lp, lm, rhs))
        # the fold solves' singular members, if one raised; a member is singular
        # exactly when its mirror is
        singular = None
        m = np.empty_like(l0)  # M_k, refilled at each step
        flat = m.reshape(len(idx), -1)
        up = None  # R_k on the columns S
        for k in range(k_max, 0, -1):
            m[...] = l0
            flat[:, :: d2 + 1] -= 1j * k * nu  # L0 - i k nu
            if up is not None:
                flat[:, s_s] += (lm_k @ up[:, rows]).reshape(len(idx), -1)  # L- R_{k+1}
            up, flagged = _solve(m, rhs_k)
            if flagged is not None:
                singular = flagged if singular is None else singular | flagged
        flat = l0.reshape(len(idx), -1)  # a gathered copy, not needed again: folded in place
        flat[:, s_s] += (lm_k @ up[:, rows]).reshape(len(idx), -1)
        flat[:, s_ts] += (lp_k @ up[:, t[cols]].conj()).reshape(len(idx), -1)  # L+ C R_1 C
        # the first order is never accepted (nothing to compare it with), so
        # its state needs no uniqueness check: every accepted order has one
        v, errs = _null_vectors(l0, dim, checked=k_max > 2)
        v1 = (up @ v[:, cols, None])[..., 0]  # rho_{+1}
        if singular is not None:
            for j in np.flatnonzero(singular):
                errs[j] = np.linalg.LinAlgError("Singular matrix")
        for j, error in errs.items():
            errors[idx[j]] = error
        keep = np.ones(len(idx), bool)
        keep[list(errs)] = False
        if k_max > 2:  # the first order has nothing to compare with: no point converges there
            dv1 = np.max(np.abs(v1 - v1_prev), axis=1)
            converged = keep & (np.max(np.abs(v - v_prev), axis=1) < _HARMONIC_TOL)
            converged &= (dv1 < _HARMONIC_TOL) | (dv1 >= dv1_prev)  # or at round-off
            done = idx[converged]
            if len(done):
                rho0[done] = _density_matrices(v[converged], dim)
                rho1[done] = v1[converged].reshape(-1, dim, dim).transpose(0, 2, 1)
                order[done] = k_max
                keep &= ~converged
            dv1_prev = dv1
        if not keep.all():
            idx, v, v1, dv1_prev = idx[keep], v[keep], v1[keep], dv1_prev[keep]
        v_prev, v1_prev = v, v1
    for i in idx:
        errors[i] = ConvergenceError(f"harmonic expansion not converged at k = {k_max}")
    return errors


def steady_state(liouv: Liouvillian) -> np.ndarray:
    """rho_0 of one Liouvillian by ``sweep_states``: the steady state where its
    beat is below ``_MIN_BEAT`` (L+ and L- folded into L0), else the period average.

    The point's failure is raised (DegenerateSteadyStateError if the null space
    is not one-dimensional); a stack in any field is a ValueError.
    """
    if np.ndim(liouv.beat) or liouv.l0.ndim > 2 or liouv.l_plus.ndim > 2:
        raise ValueError("a stack of Liouvillians is solved by sweep_states")
    rho0, _, _, (error,) = sweep_states(liouv)
    if error is not None:
        raise error
    return rho0


def sweep_states(liouv: Liouvillian):
    """Steady state of every point of a stacked Liouvillian.

    L0 carries the batch shape, and L+ and the beat broadcast to it; an L+ or a beat
    with axes that L0 lacks is a ValueError.  The points are solved by ``_states`` in
    stacks of ``_STACK_ENTRIES // d**4`` points (32 for d = 4, 101 for d = 3), each
    point on its own, into one set of result arrays.  Returns (rho0, rho1, order,
    errors): the first three with the batch shape in front and NaN where a point
    failed, ``errors`` a list over the points in C order.
    """
    d, l_plus, batch = liouv.dim, liouv.l_plus, liouv.l0.shape[:-2]
    l0s = liouv.l0.reshape(-1, d * d, d * d)
    if l_plus.ndim > 2:  # else one L+ for all points: a detuning sweep, or none oscillates
        l_plus = np.broadcast_to(l_plus, liouv.l0.shape).reshape(l0s.shape)
    beats = np.full(batch, liouv.beat).reshape(-1)  # a copy: cheaper than broadcast_to
    n, size = len(l0s), _STACK_ENTRIES // d**4
    rho0, rho1 = np.full((2, n, d, d), np.nan, complex)
    order = np.zeros(n, int)
    errors = []
    for start in range(0, n, size):
        part = slice(start, start + size)
        errors += _states(l0s[part], _members(l_plus, part), beats[part], d,
                          rho0[part], rho1[part], order[part])
    rho0, rho1 = (rho.reshape(batch + (d, d)) for rho in (rho0, rho1))
    return rho0, rho1, order.reshape(batch), errors

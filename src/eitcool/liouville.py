"""Rotating-frame Hamiltonian, Lindblad dissipator, and steady-state solvers.

Rotating frame convention: with relative laser frequencies nu_c (coupling)
and nu_g (cooling), both referenced to the zero-field S->P resonance, each
level rotates at

    f(S-) = 0,  f(P+) = nu_c,  f(S+) = nu_c - nu_g,  f(P-) = nu_g,

held as integer coefficients of (nu_c, nu_g) in ``_FRAME``.  This leaves the
sigma+ coupling (S- -> P+) and both pi couplings static.  The sigma-
coupling (S+ -> P-), present only in the oblique-beam geometry, closes a
loop mixing the two laser frequencies and oscillates at the residual beat
nu_b = nu_c - nu_g; no frame makes it static.  ``build_system`` computes
each residual in integers, so the structure does not depend on the
detunings, and rejects any other residual.  A point is static exactly when
|nu_b| < ``_MIN_BEAT``: nothing oscillates (beat 0), or the lasers are degenerate.

Vectorization is column-major: vec(rho) = rho.flatten(order="F"), so that
vec(X rho Y) = (Y^T kron X) vec(rho).  ``build_liouvillian`` writes the
superoperators by index arithmetic on their (d, d, d, d) view rather than
with kron products.

One stacked routine, ``_states``, solves for every steady state: it takes
an (N, d^2, d^2) stack and checks each member on its own, so one degenerate
or singular point is flagged without failing the others.  A static point is
the order-0 case, one checked null-vector solve; a periodic point gets the
Floquet harmonic expansion, grown over even truncation orders, whose fold
multiplies only the sigma- coupling's 7 x 7 blocks (S+ -> P- makes L+ read
rho[P-, .] and rho[., S+] alone).  ``sweep_states`` is the sweep route: a
stacked Liouvillian, built by broadcasting per-point laser parameters through
``build_system`` and ``build_liouvillian``, solved in stacks of at most
``_STACK_ENTRIES`` matrix entries (32 points of 16 x 16, 101 of 9 x 9); no
built Liouvillian is rewritten, and an L+/- that the points share stays one
matrix.  ``steady_state`` is the one-point case of any Liouvillian,
static or periodic.  The module needs numpy only; the brute-force
propagation oracles these solves are checked against live in the tests.
"""

import math
from typing import NamedTuple

import numpy as np

from .atom import (
    EXCITED_STATES,
    P_MINUS,
    P_PLUS,
    S_MINUS,
    S_PLUS,
    STATES,
    TRANSITIONS,
    Beam,
    LevelScheme,
    MagneticField,
    decompose_polarization,
    zeeman_splitting,
)

# states retained per variant
_RETAINED = {
    "three_level": (S_MINUS, S_PLUS, P_PLUS),
    "four_level_ideal": STATES,
    "four_level_geometry": STATES,
}
VARIANTS = tuple(_RETAINED)

# spherical components q of the cooling beam that each variant leaves out
_DROPPED_COOLING = {"four_level_ideal": (-1, +1), "four_level_geometry": (+1,)}

# rotation of each level's frame, as integer coefficients of (nu_c, nu_g)
_FRAME = {S_MINUS: (0, 0), P_PLUS: (1, 0), S_PLUS: (1, -1), P_MINUS: (0, 1)}
# residual rotation of a coupling that oscillates: the beat nu_c - nu_g
_BEAT = (1, -1)


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
    or a transition driven by both beams, raises ValueError.  ``beat`` is
    nu_c - nu_g whenever a coupling oscillates, however small, else 0.0.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    labels = _RETAINED[variant]
    nu_c = coupling.detuning
    nu_g = cooling.detuning
    delta_s, delta_p = zeeman_splitting(scheme, field)
    zeeman = {S_MINUS: -delta_s / 2, S_PLUS: delta_s / 2,
              P_MINUS: -delta_p / 2, P_PLUS: delta_p / 2}
    levels = [zeeman[s] - (_FRAME[s][0] * nu_c + _FRAME[s][1] * nu_g) for s in labels]
    h_diag = np.stack(np.broadcast_arrays(*levels), axis=-1)
    h_diag = h_diag - h_diag[..., :1]  # first level at zero

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
                n - u + l for n, u, l in zip(nu, _FRAME[upper_label], _FRAME[lower_label])
            )
            if residual not in ((0, 0), _BEAT):
                raise ValueError(
                    f"{beam.label} beam drives {pair} at {residual[0]} nu_c + "
                    f"{residual[1]} nu_g in the rotating frame; only static couplings "
                    "and couplings at the beat nu_c - nu_g are modelled"
                )
            couplings.append(
                Coupling(
                    lower=labels.index(lower_label),
                    upper=labels.index(upper_label),
                    rabi_eff=beam.rabi * amps[q] * cg,
                    beam=beam.label,
                    q=q,
                    oscillates=residual == _BEAT,
                )
            )

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
        beat=nu_c - nu_g if any(c.oscillates for c in couplings) else 0.0,
    )


class Liouvillian(NamedTuple):
    """Vectorized master-equation generator L(t) = L0 + L+ e^{+i nu t} + L- e^{-i nu t}.

    A stack when the system is one: ``l0`` is (..., d^2, d^2), and L+/- have
    the batch shape of the oscillating couplings' Rabi frequencies only, so
    the points of a detuning sweep share one L+ and one L-, solved unbroadcast.
    A system with nothing oscillating has beat 0.0 and zero L+/- (one shared
    (d^2, d^2) matrix); a point is static exactly when |beat| < ``_MIN_BEAT``.
    The level count d is read from L0, so it cannot disagree with it.

    L(t) preserves Hermiticity, and the Floquet solve relies on it: with C the
    map vec(rho) -> vec(rho^dagger), C L0 C = L0 and C L+ C = L-.
    """

    l0: np.ndarray
    l_plus: np.ndarray
    l_minus: np.ndarray
    beat: float | np.ndarray

    @property
    def dim(self) -> int:
        return math.isqrt(self.l0.shape[-1])


def _coupling_matrix(couplings, d: int) -> np.ndarray:
    """Sum of rabi_eff/2 |u><l| over ``couplings``, batched like their Rabi frequencies."""
    batch = np.broadcast_shapes(*(np.shape(c.rabi_eff) for c in couplings))
    h = np.zeros(batch + (d, d), complex)
    for c in couplings:
        h[..., c.upper, c.lower] += c.rabi_eff / 2
    return h


def _commutator_super(h: np.ndarray) -> np.ndarray:
    """-i[h, rho] as a superoperator, for a stack ``h`` (..., d, d) with zero diagonal.

    Built by index arithmetic on the (..., d, d, d, d) view [j, i, l, k], which
    holds the coefficient of rho[k, l] in (L rho)[i, j].
    """
    d = h.shape[-1]
    out = np.zeros(h.shape[:-2] + (d, d, d, d), complex)
    idx = np.arange(d)
    out[..., idx, :, idx, :] = -1j * h  # -i h rho
    out[..., :, idx, :, idx] = 1j * np.swapaxes(h, -1, -2)  # +i rho h
    return out.reshape(h.shape[:-2] + (d * d, d * d))


def build_liouvillian(system: DrivenSystem) -> Liouvillian:
    """Lindblad superoperator with one jump operator per decay channel.

    L0 has the batch shape of the level energies broadcast with the static
    couplings' Rabi frequencies.  The level energies enter only its diagonal,
    as the commutator term -i(h_i - h_j) of rho[i, j], so the couplings and
    decays are assembled once and the diagonal is written per point.
    """
    d = system.dim
    h0 = _coupling_matrix([c for c in system.couplings if not c.oscillates], d)
    l0 = _commutator_super(h0 + np.swapaxes(h0.conj(), -1, -2))
    upper, lower, rate = ([decay[i] for decay in system.decays] for i in range(3))
    # s rho s^dagger: rho[u, u] feeds rho[l, l], one entry per channel, in one write
    flat = l0.reshape(l0.shape[:-2] + (d**4,))
    flat[..., [(l * d + l) * d * d + u * d + u for u, l in zip(upper, lower)]] += rate
    # -{s^dagger s, rho}/2, the real part of the L0 diagonal: -(g_i + g_j)/2 for
    # rho[i, j], g the total decay rate of each level (0.0 - x leaves +0.0, not
    # -0.0, where neither level decays)
    total = np.bincount(np.array(upper, int), rate, d)
    loss = 0.0 - 0.5 * (total[:, None] + total)
    h = system.h_diag
    batch = np.broadcast_shapes(l0.shape[:-2], h.shape[:-1])
    l0 = np.broadcast_to(l0, batch + l0.shape[-2:]).copy()
    diag = l0.reshape(batch + (d**4,))[..., :: d * d + 1]  # view; entry j*d + i is rho[i, j]
    diag.real = loss.reshape(-1)
    diag.imag = (h[..., :, None] - h[..., None, :]).reshape(h.shape[:-1] + (d * d,))
    oscillating = [c for c in system.couplings if c.oscillates]
    if oscillating:
        a = _coupling_matrix(oscillating, d)  # of e^{-i nu_b t}
        l_minus = _commutator_super(a)
        l_plus = _commutator_super(np.swapaxes(a.conj(), -1, -2))
    else:  # allocated: _commutator_super of a zero coupling makes a static build ~1.5x slower
        l_plus = l_minus = np.zeros((d * d, d * d), complex)
    return Liouvillian(l0=l0, l_plus=l_plus, l_minus=l_minus, beat=system.beat)


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
    identity and the stack is solved again.  Returns (x, singular); rows of x
    whose member is singular are meaningless.
    """
    try:
        return np.linalg.solve(a, b), np.zeros(len(a), bool)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(a)[0] == 0
        a = np.where(singular[:, None, None], np.eye(a.shape[-1]), a)
        return np.linalg.solve(a, b), singular


def _null_vectors(l: np.ndarray, dim: int):
    """Trace-one null vector of each matrix in the stack ``l``, checked for uniqueness.

    One row of each matrix is replaced by the trace constraint; uniqueness is
    verified by repeating the solve with a different row replaced (all in one
    stacked call) and by a residual check on the original equations.  Each
    point is checked on its own, and ``l`` is not written.  Returns (v,
    errors): errors[n] is None or the DegenerateSteadyStateError of point n,
    whose row of v is NaN.
    """
    n, d2 = len(l), dim * dim
    scale = np.max(np.abs(l), axis=(1, 2))
    trace_row = np.zeros(d2)
    trace_row[:: dim + 1] = 1.0  # ones on the diagonal of rho
    m = np.stack([l / scale[:, None, None]] * 2, axis=1)
    m[:, 0, 0] = trace_row
    m[:, 1, -1] = trace_row
    rhs = np.zeros((n, 2, d2, 1), complex)
    rhs[:, 0, 0, 0] = rhs[:, 1, -1, 0] = 1.0
    x, singular = _solve(m.reshape(2 * n, d2, d2), rhs.reshape(2 * n, d2, 1))
    x = x.reshape(n, 2, d2)
    v = x[:, 0]
    singular = singular.reshape(n, 2).any(axis=1)
    spread = np.max(np.abs(v - x[:, 1]), axis=1)
    resid = np.max(np.abs(l @ v[:, :, None]), axis=(1, 2)) / scale
    errors = [None] * n
    for i in np.flatnonzero(singular | ~((spread <= _CHECK_TOL) & (resid <= _CHECK_TOL))):
        detail = (
            "singular solve" if singular[i]
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


def _states(l0s: np.ndarray, l_plus, l_minus, beats, dim: int):
    """Steady state of each L0[n] + L+[n] e^{+i nu_n t} + L-[n] e^{-i nu_n t} in the stack.

    ``l_plus`` and ``l_minus`` are stacks like ``l0s`` or matrices all points
    share.  A point is static where its beat is below ``_MIN_BEAT`` (nothing
    oscillates, or the lasers are degenerate); all static points are the
    order-0 case, one checked null-vector solve of L0 + L+ + L-, with
    rho_{+1} = rho_0 (what a coupling that stops oscillating reads).

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
    first that can be accepted, at 6 fold solves and 4 null-vector LUs in all.

    Returns (rho0, rho1, order, errors): rho_0, rho_{+1}, the truncation
    order reached and each point's failure (None if it has none).  Failed
    points hold NaN.
    """
    n, d2 = len(l0s), dim * dim
    rho0, rho1 = np.full((2, n, dim, dim), np.nan, complex)
    order = np.zeros(n, int)
    errors = [None] * n
    static = np.abs(beats) < _MIN_BEAT
    if static.any():
        l = l0s if static.all() else l0s[static]  # _null_vectors writes no input
        if l_plus.any() or l_minus.any():  # a zero L+/- costs no pass and no copy
            # L0 + (L+ + L-); L+ and L- share no nonzero entry, so this rounds
            # as (L0 + L+) + L- does
            l = l + (_members(l_plus, static) + _members(l_minus, static))
        v, errs = _null_vectors(l, dim)
        rho0[static] = rho1[static] = _density_matrices(v, dim)
        for i, error in zip(np.flatnonzero(static), errs):
            errors[i] = error

    # even orders 2, 4, ..., _MAX_HARMONICS; the first order has no
    # predecessor to compare with (NaN), so no point converges there
    idx = np.flatnonzero(~static)
    v_prev = v1_prev = dv1_prev = np.nan
    if len(idx):
        t = np.arange(d2).reshape(dim, dim).T.ravel()  # vec(rho^T) = vec(rho)[t]
        on = (l_plus != 0).reshape(-1, d2).any(axis=0)
        # S and S' = t[S], ascending so that block products sum in the dense order
        cols, rows = np.flatnonzero(on), np.flatnonzero(on[t])
        lp, lm = l_plus[..., rows[:, None], cols], l_minus[..., cols[:, None], rows]
        rhs = -l_plus[..., :, cols]
    for k_max in range(2, _MAX_HARMONICS + 1, 2):
        if not len(idx):
            break
        l0, nu = l0s[idx], beats[idx][:, None]
        lp_k, lm_k, rhs_k = (_members(x, idx) for x in (lp, lm, rhs))
        singular = np.zeros(len(idx), bool)  # a member is singular exactly when its mirror is
        up = None  # R_k on the columns S
        for k in range(k_max, 0, -1):
            m = l0.copy()
            m.reshape(len(idx), -1)[:, :: d2 + 1] -= 1j * k * nu  # L0 - i k nu
            if up is not None:
                m[:, cols[:, None], cols] += lm_k @ up[:, rows]  # L- R_{k+1}
            up, flagged = _solve(m, rhs_k)
            singular |= flagged
        a = l0  # a gathered copy, not needed again: folded in place
        a[:, cols[:, None], cols] += lm_k @ up[:, rows]
        a[:, rows[:, None], t[cols]] += lp_k @ up[:, t[cols]].conj()  # L+ C R_1 C
        v, errs = _null_vectors(a, dim)
        v1 = (up @ v[:, cols, None])[..., 0]  # rho_{+1}
        dv1 = np.max(np.abs(v1 - v1_prev), axis=1)
        for j in np.flatnonzero(singular):
            errs[j] = np.linalg.LinAlgError("Singular matrix")
        failed = np.array([e is not None for e in errs], bool)
        converged = ~failed & (np.max(np.abs(v - v_prev), axis=1) < _HARMONIC_TOL)
        converged &= (dv1 < _HARMONIC_TOL) | (dv1 >= dv1_prev)  # or at round-off
        for j in np.flatnonzero(failed):
            errors[idx[j]] = errs[j]
        done = idx[converged]
        if len(done):
            rho0[done] = _density_matrices(v[converged], dim)
            rho1[done] = v1[converged].reshape(-1, dim, dim).transpose(0, 2, 1)
            order[done] = k_max
        keep = ~failed & ~converged
        idx, v_prev, v1_prev, dv1_prev = idx[keep], v[keep], v1[keep], dv1[keep]
    for i in idx:
        errors[i] = ConvergenceError(f"harmonic expansion not converged at k = {k_max}")
    return rho0, rho1, order, errors


def steady_state(liouv: Liouvillian) -> np.ndarray:
    """rho_0 of one Liouvillian by ``sweep_states``: the steady state where its
    beat is below ``_MIN_BEAT`` (L+/- folded into L0), else the period average.

    The point's failure is raised (DegenerateSteadyStateError if the null space
    is not one-dimensional); a stack in any field is a ValueError.
    """
    if np.ndim(liouv.beat) or any(x.ndim > 2 for x in (liouv.l0, liouv.l_plus, liouv.l_minus)):
        raise ValueError("a stack of Liouvillians is solved by sweep_states")
    rho0, _, _, (error,) = sweep_states(liouv)
    if error is not None:
        raise error
    return rho0


def sweep_states(liouv: Liouvillian):
    """Steady state of every point of a stacked Liouvillian.

    L0, L+/- and the beat broadcast to one batch shape, whose points are
    solved by ``_states`` in stacks of ``_STACK_ENTRIES // d**4`` points
    (32 for d = 4, 101 for d = 3), each point on its own.  Returns (rho0,
    rho1, order, errors): the first three with the batch shape in front,
    ``errors`` a list over the points in C order.
    """
    d, ops = liouv.dim, (liouv.l0, liouv.l_plus, liouv.l_minus)
    batch = np.broadcast_shapes(np.shape(liouv.beat), *(x.shape[:-2] for x in ops))
    # flat (N, ...) stacks of L0, L+, L- and the beats; an L+/- with no batch
    # axes (a detuning sweep, or nothing oscillating) stays one matrix for all points
    flat = [np.broadcast_to(x, batch + x.shape[-2:]).reshape(-1, d * d, d * d)
            if x is liouv.l0 or x.ndim > 2 else x for x in ops]
    flat.append(np.broadcast_to(liouv.beat, batch).reshape(-1))
    n = len(flat[0])
    rho0, rho1 = np.empty((2, n, d, d), complex)
    order = np.zeros(n, int)
    errors = []
    size = _STACK_ENTRIES // d**4
    for start in range(0, n, size):
        part = slice(start, start + size)
        rho0[part], rho1[part], order[part], errs = _states(
            *(_members(x, part) for x in flat), d
        )
        errors += errs
    rho0, rho1 = (rho.reshape(batch + (d, d)) for rho in (rho0, rho1))
    return rho0, rho1, order.reshape(batch), errors

"""What a driven system and its Liouvillian are apart from their values.

Which levels a variant keeps, the rotating frame of each level, the couplings
each beam drives and where every commutator and decay term sits in the flat
superoperators: fixed by the variant, by the spherical components each beam
has and by the decay channels, not by the detunings or Rabi frequencies.
``liouville.build_system`` and ``build_liouvillian`` look each structure up
here, built once per key on first use, and compute only the values.  This
module is imported by the first build, not with ``eitcool``.
"""

import functools

import numpy as np

from .atom import (
    P_MINUS,
    P_PLUS,
    S_MINUS,
    S_PLUS,
    STATES,
    TRANSITIONS,
    LevelScheme,
)

# states retained per variant, keyed in the order of ``atom.VARIANTS``
_RETAINED = {
    "three_level": (S_MINUS, S_PLUS, P_PLUS),
    "four_level_ideal": STATES,
    "four_level_geometry": STATES,
}

# spherical components q of the cooling beam that each variant leaves out
_DROPPED_COOLING = {"four_level_ideal": (-1, +1), "four_level_geometry": (+1,)}

# rotation of each level's frame, as integer coefficients of (nu_c, nu_g)
_FRAME = {S_MINUS: (0, 0), P_PLUS: (1, 0), S_PLUS: (1, -1), P_MINUS: (0, 1)}
# residual rotation of a coupling that oscillates: the beat nu_c - nu_g
_BEAT = (1, -1)


@functools.lru_cache(maxsize=64)
def system_structure(variant: str, beams: tuple, scheme: LevelScheme) -> tuple:
    """(labels, frame, couplings, decays) of ``variant`` driven by ``beams``, each
    (label, nonzero spherical components): the levels' (nu_c, nu_g) coefficients,
    (2, d), the couplings' (lower, upper, beam, q, CG, oscillates) in order and
    the decays of ``scheme``.  A ValueError is not cached: each call raises it."""
    labels = _RETAINED[variant]
    couplings = []
    driven = set()
    dropped = _DROPPED_COOLING.get(variant, ())
    for beam, ((label, qs), nu, skip) in enumerate(zip(beams, ((1, 0), (0, 1)), ((), dropped))):
        for (lower_label, q), (upper_label, cg) in TRANSITIONS.items():
            pair = (lower_label, upper_label)
            if q not in qs or q in skip or not set(pair) <= set(labels):
                continue
            if pair in driven:
                raise ValueError(f"transition {pair} driven by two distinct frequencies")
            driven.add(pair)
            residual = tuple(
                n - u + l for n, u, l in zip(nu, _FRAME[upper_label], _FRAME[lower_label])
            )
            if residual not in ((0, 0), _BEAT):
                raise ValueError(
                    f"{label} beam drives {pair} at {residual[0]} nu_c + "
                    f"{residual[1]} nu_g in the rotating frame; only static couplings "
                    "and couplings at the beat nu_c - nu_g are modelled"
                )
            couplings.append((labels.index(lower_label), labels.index(upper_label), beam, q,
                              cg, residual == _BEAT))
    decays = tuple(
        (labels.index(u), labels.index(l), rate)
        for u, l, rate in scheme.decay_channels()
        if u in labels and l in labels
    )
    frame = np.array([_FRAME[s] for s in labels], float).T
    frame.flags.writeable = False  # one array shared by every call
    return labels, frame, tuple(couplings), decays


def commutator_positions(d: int, pairs) -> np.ndarray:
    """(2, len(pairs), d) positions of -i h[p, q] and +i h[p, q] in the flat
    -i[h, rho]: -i h rho puts -i h[p, q] at [n, p, n, q] of its (d, d, d, d)
    view [j, i, l, k] (the coefficient of rho[k, l] in (L rho)[i, j]), and
    rho h puts +i h[p, q] at [q, n, p, n], for every n."""
    p, q = np.array(pairs, int).reshape(-1, 2).T[..., None]
    n = np.arange(d)
    return np.stack([((n * d + p) * d + n) * d + q, ((q * d + n) * d + p) * d + n])


@functools.lru_cache(maxsize=64)
def liouvillian_structure(d: int, couplings: tuple, decays: tuple) -> tuple:
    """(static, oscillating, l0, l0_at, plus, plus_at) for the couplings' (lower, upper,
    oscillates) and the decays: the static and oscillating couplings' indices; L0's
    template, zeros and the decay terms (flat d^4), and where -i h and +i h go for
    h = [h[u, l]..., h[l, u]...] of the static ones; L+'s, zeros, and where they go
    for h^dagger[l, u] of the others (L- is derived, not built)."""
    static = tuple(i for i, c in enumerate(couplings) if not c[2])
    oscillating = tuple(i for i, c in enumerate(couplings) if c[2])
    pairs = [couplings[i][1::-1] for i in static]  # (upper, lower)
    pairs += [(l, u) for u, l in pairs]
    moving = [couplings[i][:2] for i in oscillating]  # (lower, upper), of h^dagger
    for group in (pairs, moving):  # one write per entry: nothing sums into another
        if len(set(group)) < len(group) or any(u == l for u, l in group):
            raise ValueError("each coupling must drive its own pair of distinct levels")
    l0, plus = np.zeros((2, d**4), complex)
    upper, lower = (np.array([decay[i] for decay in decays], int) for i in range(2))
    rate = np.array([decay[2] for decay in decays], float)
    # s rho s^dagger: rho[u, u] feeds rho[l, l], one entry per channel, in one write
    l0[(lower * d + lower) * d * d + upper * d + upper] += rate
    # -{s^dagger s, rho}/2, the real part of the L0 diagonal: -(g_i + g_j)/2 for
    # rho[i, j], g the total decay rate of each level
    total = np.bincount(upper, rate, d)
    l0[:: d * d + 1].real = (-0.5 * (total[:, None] + total)).reshape(-1)
    structure = (static, oscillating, l0, commutator_positions(d, pairs), plus,
                 commutator_positions(d, moving))
    for x in structure[2:]:
        x.flags.writeable = False
    return structure

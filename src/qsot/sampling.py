"""Random instances for certification and tests.

States are Ginibre-distributed blockwise (GG†, jointly normalized so block
weights come out random); channels are sampled by Stinespring dilation with a
random isometry and environment dimension twice the output dimension.  All
functions take an explicit numpy Generator so every trial is replayable.

A Ginibre matrix is one ``normal`` call of its real and imaginary planes
(2, rows, cols).  Given ``members``, a sampler draws that many instances at
once: it makes its one-instance calls in the same order, each with a leading
(members,) axis, finishes the stack at once and returns it, member k equal
to the instance drawn alone from row k of each call.
"""
from __future__ import annotations

import numpy as np

from . import algebra as alg, maps
from .algebra import AlgebraElement, AlgebraShape
from .maps import LinearMap


def ginibre(rng: np.random.Generator, rows: int, cols: int | None = None,
            members: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    z = rng.normal(size=(2, rows, cols) if members is None else (members, 2, rows, cols))
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def _blocks(shape: AlgebraShape, rng: np.random.Generator, members: int | None) -> list:
    """One square Ginibre matrix per block of ``shape``."""
    return [ginibre(rng, d, members=members) for d in shape.dims]


def _density(shape: AlgebraShape, gs: list) -> AlgebraElement:
    """⊕ GG†/tr of one Ginibre matrix per block."""
    mats = [g @ g.conj().swapaxes(-1, -2) for g in gs]
    total = sum(np.trace(m, axis1=-2, axis2=-1).real for m in mats)
    total = np.asarray(total)[..., None, None]
    return AlgebraElement._of(shape, (m / total for m in mats))


def random_state(shape: AlgebraShape, rng: np.random.Generator,
                 members: int | None = None) -> AlgebraElement:
    """Ginibre random density matrix, full rank (faithful)."""
    return _density(shape, _blocks(shape, rng, members))


def random_hermitian(shape: AlgebraShape, rng: np.random.Generator) -> AlgebraElement:
    mats = [((g := ginibre(rng, d)) + g.conj().T) / 2 for d in shape.dims]
    return AlgebraElement._of(shape, mats)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    return random_isometry(rng, d, d)


def random_unitary_element(shape: AlgebraShape, rng: np.random.Generator) -> AlgebraElement:
    return AlgebraElement._of(shape, (random_unitary(rng, d) for d in shape.dims))


def isometry(g: np.ndarray) -> np.ndarray:
    """The orthonormal columns of a Ginibre matrix (rows >= cols), phases
    fixed by R's diagonal so that they are Haar-distributed."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix with orthonormal columns (rows >= cols)."""
    return isometry(ginibre(rng, rows, cols))


def random_cptp(source: AlgebraShape, target: AlgebraShape, rng: np.random.Generator,
                members: int | None = None) -> LinearMap:
    """Random CPTP map via isometry dilation, one Stinespring per source
    block, with generically full support across all components.

    Block x draws a Ginibre matrix of (⊕_y n_y)·env_x rows and m_x columns,
    env_x = 2 unless the block needs more, whose orthonormal columns are an
    isometry V_x : C^{m_x} → (⊕_y C^{n_y})⊗C^env_x; its row-blocks are Kraus
    operators into every target block.
    """
    d_out, kraus = target.total_dim, []
    for xi, mx in enumerate(source.dims):
        env = max(2, -(-mx // d_out))  # an isometry needs at least as many rows as columns
        v, row = isometry(ginibre(rng, d_out * env, mx, members)), 0
        for _ in range(env):
            for yi, ny in enumerate(target.dims):
                kraus.append((xi, yi, v[..., row:row + ny, :]))
                row += ny
    return maps.from_kraus(source, target, kraus)


def random_unital_channel(shape: AlgebraShape, rng: np.random.Generator) -> LinearMap:
    """Random mixed-unitary (hence unital and CPTP) channel on a shape: four
    random unitary channels with Dirichlet weights."""
    terms = [w * maps.unitary_channel(random_unitary_element(shape, rng))
             for w in rng.dirichlet(np.ones(4))]
    return sum(terms[1:], terms[0])


def _effects(source: AlgebraShape, gs: list) -> list[AlgebraElement]:
    """The normalized effects S^-½ G_k G_k† S^-½, S = Σ_k G_k G_k†, of one
    Ginibre matrix per block per outcome k (a ``_blocks`` list each); for
    stacked draws, the stacks of effects from one stacked ``power``."""
    raw = [AlgebraElement._of(source, [g @ g.conj().swapaxes(-1, -2) for g in blocks])
           for blocks in gs]
    s_inv = alg.power(sum(raw[1:], raw[0]), -0.5)
    return [s_inv @ m @ s_inv for m in raw]


def random_povm(source: AlgebraShape, outcomes: int,
                rng: np.random.Generator) -> LinearMap:
    """Random POVM channel A → C^outcomes (normalized Ginibre effects)."""
    return maps.povm(_effects(source, [_blocks(source, rng, None) for _ in range(outcomes)]))


def random_measure_prepare(source: AlgebraShape, target: AlgebraShape, outcomes: int,
                           rng: np.random.Generator, members: int | None = None) -> LinearMap:
    """Random entanglement-breaking channel A ↦ Σ_k tr(A P_k) σ_k: the POVM
    (P_k) is drawn first, then the states σ_k.  Its matrix is
    Σ_k vec(σ_k)·conj(vec(P_k))ᵀ, a stack's from one product per outcome.

    Its channel state Σ_k P_kᵀ⊗σ_k is PSD, which makes these channels the
    admissible instances for associativity checks of families that need a
    genuine density matrix as second argument.
    """
    effects = _effects(source, [_blocks(source, rng, members) for _ in range(outcomes)])
    states = [_density(target, _blocks(target, rng, members)) for _ in range(outcomes)]
    matrix = sum(maps.vec(sigma)[..., :, None] * maps.vec(p).conj()[..., None, :]
                 for sigma, p in zip(states, effects))
    return maps._channel(LinearMap._of(source, target, matrix),
                         "measure-prepare effects must sum to the identity")


def decohering_channel(source: AlgebraShape, target: AlgebraShape,
                       weights: np.ndarray) -> LinearMap:
    """A channel that reads only the block diagonals: a classical channel
    sandwiched between the dephasing map and a diagonal re-embedding.  Row i
    of ``weights`` (source.total_dim × target.total_dim, rows summing to 1)
    is the output distribution of the i-th diagonal unit; weights with
    leading axes give the stack of channels.

    Kills every off-diagonal matrix unit, so it commutes with any diagonal
    prior in the classical-limit sense.
    """
    # the diagonal units are the entries where the trace row is 1
    rows, cols = np.flatnonzero(maps.trace_row(target)), np.flatnonzero(maps.trace_row(source))
    matrix = np.zeros((*weights.shape[:-2], target.vector_dim, source.vector_dim), dtype=complex)
    matrix[..., rows[:, None], cols] = weights.swapaxes(-1, -2)
    return LinearMap._of(source, target, matrix)

"""Random instances for certification and tests.

States are Ginibre-distributed blockwise (GG†, jointly normalized so block
weights come out random); channels are sampled by Stinespring dilation with a
random isometry and environment dimension twice the output dimension.  All
functions take an explicit numpy Generator so every trial is replayable.

An instance is drawn, then finished.  A raw Ginibre matrix is its real and
imaginary planes (2, rows, cols); ``*_planes`` give their shapes.  As
``Generator.normal`` fills values in order, a run of planes is one call of
their total size: ``draw`` makes a call per plane, a caller with many trials
one (trials, width) call per run, a row per trial.  The finishing
steps take draws with common leading axes (such an array's column views),
form the complex matrices once per stack and return the stack of results,
each as it would be alone: ``random_state`` and ``random_cptp`` are the
one-draw case.
"""
from __future__ import annotations

import numpy as np

from . import algebra as alg, maps
from .algebra import AlgebraElement, AlgebraShape
from .maps import LinearMap


def _complex(planes: np.ndarray) -> np.ndarray:
    """The complex matrices of real and imaginary planes (..., 2, rows, cols)."""
    return planes[..., 0, :, :] + 1j * planes[..., 1, :, :]


def ginibre(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return _complex(rng.normal(size=(2, rows, cols)))


def state_planes(shape: AlgebraShape) -> tuple[tuple[int, int, int], ...]:
    """The plane shapes of a random state: one square Ginibre matrix per block."""
    return tuple((2, d, d) for d in shape.dims)


def cptp_planes(source: AlgebraShape, target: AlgebraShape) -> tuple[tuple[int, int, int], ...]:
    """The plane shapes of a random channel: per source block x, (⊕_y n_y)·env_x
    rows and m_x columns, env_x = 2 unless the block needs more."""
    d_out = target.total_dim
    # an isometry needs at least as many rows as columns
    return tuple((2, d_out * max(2, -(-mx // d_out)), mx) for mx in source.dims)


def draw(plan: tuple, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """The draws of ``plan`` from ``rng`` in order: a shape is one ``normal``
    call of that size, an entry (method, *args, size) that generator call,
    a scalar for the size ()."""
    return tuple(getattr(rng, entry[0])(*entry[1:-1], size=entry[-1] or None)
                 if isinstance(entry[0], str) else rng.normal(size=entry) for entry in plan)


def state(shape: AlgebraShape, draws: tuple[np.ndarray, ...]) -> AlgebraElement:
    """The density matrix ⊕ GG†/tr of ``state_planes``' matrices."""
    mats = [g @ g.conj().swapaxes(-1, -2) for g in map(_complex, draws)]
    total = sum(np.trace(m, axis1=-2, axis2=-1).real for m in mats)
    total = np.asarray(total)[..., None, None]
    return AlgebraElement._of(shape, (m / total for m in mats))


def random_state(shape: AlgebraShape, rng: np.random.Generator) -> AlgebraElement:
    """Ginibre random density matrix, full rank (faithful)."""
    return state(shape, draw(state_planes(shape), rng))


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


def cptp(source: AlgebraShape, target: AlgebraShape,
         draws: tuple[np.ndarray, ...]) -> LinearMap:
    """The channel of ``cptp_planes``' matrices: each becomes an isometry
    V_x : C^{m_x} → (⊕_y C^{n_y})⊗C^env_x, whose row-blocks are Kraus
    operators into every target block."""
    kraus = []
    for xi, g in enumerate(map(_complex, draws)):
        v = isometry(g)
        row = 0
        for _ in range(g.shape[-2] // target.total_dim):
            for yi, ny in enumerate(target.dims):
                kraus.append((xi, yi, v[..., row:row + ny, :]))
                row += ny
    return maps.from_kraus(source, target, kraus)


def random_cptp(source: AlgebraShape, target: AlgebraShape,
                rng: np.random.Generator) -> LinearMap:
    """Random CPTP map via isometry dilation, one Stinespring per source
    block, with generically full support across all components."""
    return cptp(source, target, draw(cptp_planes(source, target), rng))


def random_unital_channel(shape: AlgebraShape, rng: np.random.Generator) -> LinearMap:
    """Random mixed-unitary (hence unital and CPTP) channel on a shape: four
    random unitary channels with Dirichlet weights."""
    terms = [w * maps.unitary_channel(random_unitary_element(shape, rng))
             for w in rng.dirichlet(np.ones(4))]
    return sum(terms[1:], terms[0])


def povm(source: AlgebraShape, draws: tuple[np.ndarray, ...]) -> LinearMap:
    """The POVM of ``state_planes(source)`` draws per outcome: normalized effects."""
    n = len(source.dims)
    raw = [AlgebraElement._of(source, [g @ g.conj().T for g in map(_complex, draws[k:k + n])])
           for k in range(0, len(draws), n)]
    s_inv = alg.power(sum(raw[1:], raw[0]), -0.5)
    return maps.povm([s_inv @ m @ s_inv for m in raw])


def random_povm(source: AlgebraShape, outcomes: int,
                rng: np.random.Generator) -> LinearMap:
    """Random POVM channel A → C^outcomes (normalized Ginibre effects)."""
    return povm(source, draw(outcomes * state_planes(source), rng))


def measure_prepare_planes(source: AlgebraShape, target: AlgebraShape,
                           outcomes: int) -> tuple[tuple[int, int, int], ...]:
    """The plane shapes of a measure-prepare channel: its POVM's, its states'."""
    return outcomes * state_planes(source) + outcomes * state_planes(target)


def measure_prepare(source: AlgebraShape, target: AlgebraShape,
                    draws: tuple[np.ndarray, ...]) -> LinearMap:
    """The channel A ↦ Σ_k tr(A P_k) σ_k of one ``measure_prepare_planes``
    draw: the POVM (P_k), then the states σ_k."""
    m = len(target.dims)
    k = len(draws) // (len(source.dims) + m) * len(source.dims)
    effects = maps.povm_effects(povm(source, draws[:k]))
    return LinearMap(source, target, sum(
        np.outer(maps.vec(state(target, draws[j:j + m])), maps.vec(p.dagger()).conj())
        for j, p in zip(range(k, len(draws), m), effects)))


def random_measure_prepare(source: AlgebraShape, target: AlgebraShape,
                           outcomes: int, rng: np.random.Generator) -> LinearMap:
    """Random entanglement-breaking channel A ↦ Σ_k tr(A P_k) σ_k.

    Its channel state Σ_k P_kᵀ⊗σ_k is PSD, which makes these channels the
    admissible instances for associativity checks of families that need a
    genuine density matrix as second argument.
    """
    return measure_prepare(source, target,
                           draw(measure_prepare_planes(source, target, outcomes), rng))


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

"""Shared fixtures and independent dense oracles for the test suite.

The oracle helpers deliberately avoid the library's own vectorization and
blockwise machinery: they work on plain numpy arrays, either for single full
matrix blocks or on the dense embedding of a multi-block element (each block
placed at its Hilbert-space indices, found from labels rather than from the
library's tensor bookkeeping), so any agreement with the library is a
genuine cross-check.
``dense_generic_bayes``, ``sequential_certify``, ``full_product_extremum``,
``looped_block_positivity_violation`` and ``kraus_partial_trace_channel``
are the exceptions: the probe-loop generic Bayes solver the structured
``bayes.generic_bayes`` replaced, the one-trial-at-a-time certification
loop the chunked ``axioms.certify`` replaced, the product-vector search that
runs eight rounds over every start whatever the factor dimensions, the P2
search set up element by element, each search from the start set rebuilt
from its documented key (``unit_starts``), that the stacked set-up
replaced, and the Kraus construction of the partial trace that its lifted
matrix units replaced, each kept as its reference.
``vector_product_extremum`` runs the product-vector search's rounds on
unit vectors, through the closed-form 2×2 eigenvector kernel
(``extreme_eigvecs``) and the forms of v̄⊗v (``product_forms``) that the
library's rounds on rank-one projectors replaced: their reference to
roundoff.
``separate_mixing_violations`` evaluates P4–P6's mixed, plain and
alternative pairs in separate ``sot.evaluate`` calls: the reference for
the one stack of every pair that ``axioms._violations`` evaluates.
``defining_bayes_residual`` is the Bayes residual as the condition reads,
‖E⋆ρ − τ(~X⋆E(ρ))‖ through two SOT evaluations and τ, which
``bayes.bayes_residual`` replaced by ‖X·Φ_σ* − Y‖ for sandwich families.
``group_draws`` records the generator calls of a group's draw, and
``sample_alone`` and ``classical_limit_pair`` draw one trial or one
classical-limit pair through the library's one-trial samplers, in the
trial's draw order, from its row of those calls (``MemberDraws``, which
checks that each one-trial call is its group call without the leading
(members,) axis): the reference for ``drawn_by_group``, which draws
trials through the chunk drawer.
The ``copying_*`` kernels, ``gather_tilde`` and ``swap_dagger_tau`` are the
kernels that the write-into-the-output ones in ``maps`` and ``algebra``
replaced, each kept as its bit-for-bit reference.  ``two_call_ginibre``
draws a complex Ginibre matrix as two ``normal`` calls, the real part's then
the imaginary part's, which ``sampling``'s one-call (2, rows, cols) planes
replaced; ``two_call_draws`` puts it under the library's one-trial samplers.
The ``plane_*`` finishers build states, channels and POVMs from explicit
(2, rows, cols) planes, as the samplers did before they drew for
themselves: their bit-for-bit reference.
The literature's Bayes rules (``petz_rule`` to ``classical_rule``) are
textbook formulas on dense operators; ``textbook`` reads E* through the
library's adjoint and lays each image out with ``maps.vec``, so that a rule
compares with ``closed_form_bayes``'s matrix.  ``closed_form_witnesses``
are certification instances written down rather than drawn, on which the
table's ✗ cells fail whatever the random streams.
"""
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from qsot import algebra as alg, axioms, bayes, maps, sampling, sot
from qsot.config import COMM_TOL, FAIL_THRESHOLD, HERM_TOL, PASS_THRESHOLD
from qsot.errors import InapplicableError
from qsot.algebra import AlgebraElement, AlgebraShape
from qsot.maps import LinearMap


def rng_for(name: str, extra: int = 0) -> np.random.Generator:
    """A deterministic per-test generator so failures are reproducible."""
    return np.random.default_rng([zlib.crc32(name.encode()), extra])


@pytest.fixture
def rng(request):
    return rng_for(request.node.name)


# --------------------------------------------------------- dense oracles
def single_block(dim: int, label: str = "q0") -> AlgebraShape:
    return alg.matrix_algebra(dim, label)


def as_matrix(a: AlgebraElement) -> np.ndarray:
    """The single dense block of a one-block element."""
    assert len(a.data) == 1
    return a.data[0]


def apply_dense(e: LinearMap, mat: np.ndarray) -> np.ndarray:
    """Apply a single-block map to a dense matrix through the library call,
    returning a dense matrix (convenience, not an oracle)."""
    return as_matrix(e(AlgebraElement(e.source, (mat,))))


def hilbert_indices(shape: AlgebraShape) -> list[np.ndarray]:
    """For each block of a shape, the indices it occupies in the Hilbert space.

    A plain shape acts on ⊕ C^{d_i}, block i at its offset.  A tensor shape
    acts on the product of its factors' spaces, and block (la, lb) occupies
    the product of la's and lb's index sets.  Factor blocks are found by
    comparing raw labels, not through the library's tensor bookkeeping.
    """
    if shape.factors is None:
        offsets = np.cumsum((0,) + shape.dims[:-1])
        return [off + np.arange(d) for off, d in zip(offsets, shape.dims)]
    left, right = shape.factors
    rows_l, rows_r = hilbert_indices(left), hilbert_indices(right)
    return [(rows_l[left.labels.index(la)][:, None] * right.total_dim
             + rows_r[right.labels.index(lb)][None, :]).reshape(-1)
            for la, lb in shape.labels]


def dense_embedding(a: AlgebraElement) -> np.ndarray:
    """An element as one dense operator, each block at its Hilbert-space indices."""
    n = a.shape.total_dim
    out = np.zeros((n, n), dtype=complex)
    for rows, mat in zip(hilbert_indices(a.shape), a.data):
        out[np.ix_(rows, rows)] = mat
    return out


def element_from_dense(shape: AlgebraShape, mat: np.ndarray) -> AlgebraElement:
    """Inverse of dense_embedding on block-diagonal operators."""
    return AlgebraElement(shape, tuple(mat[np.ix_(r, r)] for r in hilbert_indices(shape)))


def dense_swap(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """The operator on H_A⊗H_B conjugated by the swap onto H_B⊗H_A."""
    return mat.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, da * db)


def dense_apply_to_factor(m: LinearMap, mat: np.ndarray, other: int, which: str) -> np.ndarray:
    """(m⊗id) or (id⊗m) on a dense operator, m acting on every operator slice
    of the named factor; ``other`` is the dimension of the other factor."""
    n_s, n_t = m.source.total_dim, m.target.total_dim
    four = mat.reshape(other, n_s, other, n_s) if which == "right" else \
        mat.reshape(n_s, other, n_s, other).transpose(1, 0, 3, 2)
    out = np.zeros((other, n_t, other, n_t), dtype=complex)
    for p in range(other):
        for q in range(other):
            out[p, :, q, :] = dense_embedding(m(element_from_dense(m.source, four[p, :, q, :])))
    if which == "left":
        out = out.transpose(1, 0, 3, 2)
    return out.reshape(other * n_t, other * n_t)


def dense_channel_state(e: LinearMap) -> np.ndarray:
    """Kron-sum oracle for D[E] = sum_ij E_ij (x) E(E_ji) on H_A⊗H_B, with
    i, j running over the index pairs inside each block of A."""
    n = e.source.total_dim
    out = 0
    for rows in hilbert_indices(e.source):
        for i in rows:
            for j in rows:
                unit = np.zeros((n, n), dtype=complex)
                unit[i, j] = 1.0
                image = e(element_from_dense(e.source, unit.T.copy()))  # E(E_ji)
                out = out + np.kron(unit, dense_embedding(image))
    return out


def dense_choi(e: LinearMap) -> np.ndarray:
    """Kron-sum oracle for the Choi matrix Σ_ij E_ij ⊗ E(E_ij) on H_A⊗H_B,
    built entry by entry, with i, j running over the index pairs inside each
    block of A."""
    n = e.source.total_dim
    out = 0
    for rows in hilbert_indices(e.source):
        for i in rows:
            for j in rows:
                unit = np.zeros((n, n), dtype=complex)
                unit[i, j] = 1.0
                out = out + np.kron(unit, dense_embedding(e(element_from_dense(e.source, unit))))
    return out


def dense_partial_trace(mat: np.ndarray, da: int, db: int, side: str) -> np.ndarray:
    four = mat.reshape(da, db, da, db)
    if side == "B":
        return np.einsum("ikjk->ij", four)
    return np.einsum("kikj->ij", four)


def kraus_partial_trace_channel(tshape: AlgebraShape, side: str) -> LinearMap:
    """Reference for ``maps.partial_trace_channel``: tr_B or tr_A from the
    Kraus operators 1⊗⟨b| or ⟨a|⊗1 on each block of the tensor shape."""
    left, right = tshape.factors
    kraus = []
    for k, (i, j) in enumerate(tshape.pairs):
        da, db = left.dims[i], right.dims[j]
        if side == "B":
            kraus += [(k, i, np.kron(np.eye(da), bra)) for bra in np.eye(db)]
        else:
            kraus += [(k, j, np.kron(bra, np.eye(db))) for bra in np.eye(da)]
    return maps.from_kraus(tshape, left if side == "B" else right, kraus)


def dense_hs_adjoint_check(e: LinearMap, rng: np.random.Generator) -> float:
    """max |<A, E(B)> - <E*(A), B>| over a few random dense pairs."""
    adj = e.hs_adjoint()
    worst = 0.0
    for _ in range(5):
        a = sampling.random_hermitian(e.target, rng)
        b = sampling.random_hermitian(e.source, rng)
        lhs = (a.dagger() @ e(b)).trace()
        rhs = (adj(a).dagger() @ b).trace()
        worst = max(worst, abs(lhs - rhs))
    return worst


def random_traceless_direction(shape: AlgebraShape, rng: np.random.Generator,
                               norm: float = 1.0) -> AlgebraElement:
    a = sampling.random_hermitian(shape, rng)
    a = a - (a.trace().real / shape.total_dim) * alg.identity(shape)
    return (norm / a.norm()) * a


def defining_bayes_residual(family: sot.SotFamily, x: LinearMap, e: LinearMap,
                            rho: AlgebraElement) -> float:
    """‖E⋆ρ − τ(~X ⋆ E(ρ))‖ with the same family on both sides; one per pair of stacks."""
    forward = sot.evaluate(family, e, rho).value
    backward = maps.time_reversal_tau(sot.evaluate(family, x.tilde(), e(rho)).value)
    return (forward - backward).norm()


def dense_generic_bayes(family: sot.SotFamily, e: LinearMap, rho: AlgebraElement,
                        rank_tol: float = 1e-8) -> bayes.BayesSolution:
    """Oracle for ``bayes.generic_bayes``: the probe-loop least-squares solver.

    It builds the matrix of X ↦ τ(~X ⋆ E(ρ)) column by column from n_A·n_B
    SOT evaluations on matrix units, restricts it to the nullspace of the
    trace constraints by SVD, and reads uniqueness off the rank of the
    restricted system, assuming nothing about the family's structure.
    """
    sigma = e(rho)
    a_shape, b_shape = e.source, e.target
    n_a, n_b = a_shape.vector_dim, b_shape.vector_dim
    n_x = n_a * n_b

    forward = sot.evaluate(family, e, rho).value
    b_vec = maps.vec(forward)

    def response(x_matrix: np.ndarray) -> np.ndarray:
        x = LinearMap(b_shape, a_shape, x_matrix.copy())
        value = family.value(x.tilde(), sigma)
        return maps.vec(maps.time_reversal_tau(value))

    g = np.zeros((b_vec.size, n_x), dtype=complex)
    basis = np.zeros((n_a, n_b), dtype=complex)
    for p in range(n_a):
        for u in range(n_b):
            basis[p, u] = 1.0
            g[:, p * n_b + u] = response(basis)
            basis[p, u] = 0.0

    # Trace-preservation constraints: t_A @ X[:, u] = t_B[u] for every unit u.
    t_a, t_b = maps.trace_row(a_shape), maps.trace_row(b_shape)
    constraints = np.kron(t_a, np.eye(n_b))
    x_part = np.linalg.lstsq(constraints, t_b, rcond=None)[0].astype(complex)

    _, svals, vt = np.linalg.svd(constraints, full_matrices=True)
    rank = int(np.sum(svals > rank_tol * max(1.0, svals[0])))
    null_basis = vt[rank:].conj().T  # columns span the constraint nullspace

    g_null = g @ null_basis
    rhs = b_vec - g @ x_part
    z, *_ = np.linalg.lstsq(g_null, rhs, rcond=None)
    x_vec = x_part + null_basis @ z
    x_map = LinearMap(b_shape, a_shape, x_vec.reshape(n_a, n_b))

    residual = defining_bayes_residual(family, x_map, e, rho)
    if residual > 1e-6:
        uniqueness, witnesses = "none-found", ()
    else:
        sv = np.linalg.svd(g_null, compute_uv=False) if g_null.size else np.zeros(0)
        top = max(1.0, float(sv[0])) if sv.size else 1.0
        nullity = g_null.shape[1] - int(np.sum(sv > rank_tol * top))
        if nullity == 0:
            uniqueness, witnesses = "unique", ()
        else:
            _, _, vt2 = np.linalg.svd(g_null)
            direction = null_basis @ vt2[-1].conj()
            alt = LinearMap(b_shape, a_shape,
                            (x_vec + direction).reshape(n_a, n_b))
            uniqueness, witnesses = "non-unique-witness", (alt,)
    return bayes.BayesSolution(x_map, residual, bayes.classify_solution(x_map),
                               uniqueness, witnesses)


# ------------------------------------------------ dense Bayes closed forms
def block_diagonal(mats) -> np.ndarray:
    """Square blocks placed along the diagonal in the given order."""
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    off = 0
    for m in mats:
        out[off:off + m.shape[0], off:off + m.shape[0]] = m
        off += m.shape[0]
    return out


def dense_multiplier(terms, shape: AlgebraShape) -> np.ndarray:
    """Σ w L_f∘R_g on ``shape`` as one dense matrix, built per block as
    kron(f, 1)·kron(1, gᵀ) (vec(fXg) = (f⊗gᵀ)vec(X) row-major), with a
    None side the identity and the blocks on the diagonal in shape order."""
    mats = []
    for i, d in enumerate(shape.dims):
        one = np.eye(d)
        def side(a):
            return one if a is None else a.data[i]
        mats.append(sum(w * (np.kron(side(f), one) @ np.kron(one, side(g).T))
                        for w, f, g in terms))
    return block_diagonal(mats)


def dense_ad(x: AlgebraElement) -> np.ndarray:
    """Ad_x as one dense matrix: kron(X, X̄) per block."""
    return block_diagonal([np.kron(m, m.conj()) for m in x.data])


def dense_product_bayes(family, e: LinearMap, rho: AlgebraElement, strict: bool) -> np.ndarray:
    """Oracle for the one-term closed form: outer multiplier · E* · inner multiplier."""
    if strict:
        alg.power(e(rho), 1.0, strict=True)  # the faithfulness check
    outer = dense_multiplier(family.terms(rho), e.source)
    inner = dense_multiplier(family.terms(e(rho), inverse=True), e.target)
    return outer @ e.matrix.conj().T @ inner


def dense_spectral_bayes(family, e: LinearMap, rho: AlgebraElement) -> np.ndarray:
    """Oracle for the two-term closed form: the outer multiplier · E* in the
    eigen-units of E(ρ) (Ad_W as kron(W, W̄)), divided by Γ, rotated back."""
    eig = [np.linalg.eigh(m) for m in e(rho).data]
    units = dense_ad(AlgebraElement(e.target, tuple(w for _, w in eig)))
    gamma = np.concatenate([family.denominator(q[:, None], q[None, :]).reshape(-1)
                            for q, _ in eig])
    image = dense_multiplier(family.terms(rho), e.source) @ e.matrix.conj().T
    return (image @ units / gamma) @ units.conj().T


def dense_gce(family: sot.ThetaDerived, e: LinearMap, rho: AlgebraElement) -> LinearMap:
    """Oracle for a Θ-derived family's Bayes map: solve E∘Θ_ρ = Θ_{E(ρ)}∘X
    for X with dense Θ multipliers and return X's HS adjoint."""
    theta_rho = dense_multiplier(family.theta.terms(rho), e.source)
    theta_sigma = dense_multiplier(family.theta.terms(e(rho)), e.target)
    x = np.linalg.solve(theta_sigma, e.matrix @ theta_rho)
    return LinearMap(e.source, e.target, x).hs_adjoint()


# ------------------------------------------------ the literature's Bayes rules
# Each rule in its textbook form, on dense Hilbert-space operators: ρ and
# σ = E(ρ) as dense block-diagonal matrices, E* as a function on them, and
# powers from numpy's eigh.  ``textbook`` turns a rule into its matrix.
def dense_power(a: np.ndarray, r: complex) -> np.ndarray:
    """a^r for a positive definite hermitian operator."""
    vals, vecs = np.linalg.eigh(a)
    return (vecs * vals.astype(complex) ** r) @ vecs.conj().T


def textbook(rule):
    """The rule (E, ρ) ↦ the matrix of b ↦ rule(ρ, σ, E*, b) on E's target,
    one column per matrix unit of each block, in the library's order."""
    def matrix(e: LinearMap, rho: AlgebraElement) -> np.ndarray:
        adj = e.hs_adjoint()
        def adjoint(b):
            return dense_embedding(adj(element_from_dense(e.target, b)))
        rho_d, sigma_d, n = dense_embedding(rho), dense_embedding(e(rho)), e.target.total_dim
        cols = []
        for rows in hilbert_indices(e.target):
            for i in rows:
                for j in rows:
                    unit = np.zeros((n, n), dtype=complex)
                    unit[i, j] = 1.0
                    image = rule(rho_d, sigma_d, adjoint, unit)
                    cols.append(maps.vec(element_from_dense(e.source, image)))
        return np.column_stack(cols)
    return matrix


@textbook
def petz_rule(rho, sigma, adjoint, b):
    """√ρ E*(σ^{−1/2} b σ^{−1/2}) √ρ: Petz's recovery map, Leifer and
    Spekkens's quantum conditional."""
    root, inverse_root = dense_power(rho, 0.5), dense_power(sigma, -0.5)
    return root @ adjoint(inverse_root @ b @ inverse_root) @ root


def rotated_petz_rule(t: float):
    """ρ^{1/2−it} E*(σ^{−1/2−it} b σ^{−1/2+it}) ρ^{1/2+it}: the rotated Petz map."""
    @textbook
    def rule(rho, sigma, adjoint, b):
        inner = dense_power(sigma, -0.5 - 1j * t) @ b @ dense_power(sigma, -0.5 + 1j * t)
        return dense_power(rho, 0.5 - 1j * t) @ adjoint(inner) @ dense_power(rho, 0.5 + 1j * t)
    return rule


def sth_rule(t: float):
    """U_ρ†ρ^{1/2} E*(U_σ†σ^{−1/2} b σ^{−1/2}U_σ) ρ^{1/2}U_ρ with U_x = x^{it}:
    the Petz map conjugated by commuting unitaries."""
    @textbook
    def rule(rho, sigma, adjoint, b):
        u_rho, u_sigma = dense_power(rho, 1j * t), dense_power(sigma, 1j * t)
        outer, inner = dense_power(rho, 0.5) @ u_rho, dense_power(sigma, -0.5) @ u_sigma
        return outer.conj().T @ adjoint(inner.conj().T @ b @ inner) @ outer
    return rule


@textbook
def right_bloom_rule(rho, sigma, adjoint, b):
    """ρ E*(σ^{−1} b)."""
    return rho @ adjoint(np.linalg.inv(sigma) @ b)


@textbook
def left_bloom_rule(rho, sigma, adjoint, b):
    """E*(b σ^{−1}) ρ."""
    return adjoint(b @ np.linalg.inv(sigma)) @ rho


@textbook
def jordan_rule(rho, sigma, adjoint, b):
    """½{ρ, E*(Y)} with ½{σ, Y} = b: the generalized conditional expectation
    of the Jordan product, Y from the dense Lyapunov system (vec row-major)."""
    one = np.eye(len(sigma))
    lyapunov = 0.5 * (np.kron(sigma, one) + np.kron(one, sigma.T))
    y = adjoint(np.linalg.solve(lyapunov, b.reshape(-1)).reshape(b.shape))
    return 0.5 * (rho @ y + y @ rho)


def fuchs_posterior(rho: np.ndarray, effect: np.ndarray) -> np.ndarray:
    """Fuchs's posterior √ρ M √ρ / p, with p = tr(Mρ)."""
    root = dense_power(rho, 0.5)
    return root @ effect @ root / np.trace(effect @ rho).real


def outcome_units(n: int) -> list[np.ndarray]:
    """The outcome units δ_x of C^n as dense diagonal matrices."""
    return [np.diag(unit) for unit in np.eye(n, dtype=complex)]


@textbook
def fuchs_rule(rho, sigma, adjoint, b):
    """Σ_x b_x √ρ M_x √ρ / p_x on C^X, with M_x = E*(δ_x) the effects."""
    return sum(b[x, x] * fuchs_posterior(rho, adjoint(unit))
               for x, unit in enumerate(outcome_units(len(b))))


@textbook
def two_state_rule(rho, sigma, adjoint, b):
    """Σ_x b_x ρM_x / p_x on C^X: the two-state update of each outcome."""
    return sum(b[x, x] * (rho @ (m := adjoint(unit))) / np.trace(rho @ m).real
               for x, unit in enumerate(outcome_units(len(b))))


@textbook
def classical_rule(rho, sigma, adjoint, b):
    """Σ_b b_b p(·|b) with p(a|b) = f(b|a) p(a) / q(b), for the classical
    channel f(b|a) = E*(δ_b)_aa, prior p and q = f p."""
    p, q = np.diag(rho).real, np.diag(sigma).real
    f = np.array([np.diag(adjoint(unit)).real for unit in outcome_units(len(q))])  # f[b, a]
    return np.diag((np.diag(b) / q) @ f * p)


@dataclass(frozen=True)
class TransposedTarget(sot.SotFamily):
    """Leifer–Spekkens followed by the transpose on the target factor.

    (id⊗T)∘(Φ⊗id) is not of the form Φ'⊗id, so this family is not local in
    the source factor and the generic Bayes solver must refuse it.  Its
    ``value`` takes single pairs only; it is never certified."""
    tag: ClassVar[str] = "transposed-target"

    def value(self, e: LinearMap, rho: AlgebraElement) -> AlgebraElement:
        transpose = maps.from_action(
            e.target, e.target, lambda a: AlgebraElement(a.shape, tuple(m.T for m in a.data)))
        return maps.apply_to_factor(transpose, sot.LeiferSpekkens().value(e, rho), "right")


# ------------------------------------------------ sequential certification
def chunk_of(trial: int, config: axioms.CertifyConfig) -> range:
    """The chunk of certify's walk that holds ``trial``: trial 0 alone, then blocks of
    ``axioms.CHUNK_TRIALS`` trials, the last one cut at ``config.trials``."""
    if trial == 0:
        return range(0, 1)
    start = 1 + (trial - 1) // axioms.CHUNK_TRIALS * axioms.CHUNK_TRIALS
    return range(start, min(start + axioms.CHUNK_TRIALS, config.trials))


def group_of(family: sot.SotFamily, prop: str, trial: int,
             config: axioms.CertifyConfig) -> tuple[tuple, list[int], list[int]]:
    """A trial's group key, its generator's key [seed, cell, chunk start,
    group ordinal] and the group's trials in order: the chunk's trials are
    grouped by key, the groups numbered in the order of their first trials."""
    chunk, groups = chunk_of(trial, config), {}
    for other in chunk:
        groups.setdefault(axioms._group(family, prop, other, config), []).append(other)
    group = axioms._group(family, prop, trial, config)
    key = [config.seed, axioms._cell_index(family.tag, prop), chunk.start, list(groups).index(group)]
    return group, key, groups[group]


class RecordingGenerator:
    """A generator that records each call: (method, args, size, values)."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name: str):
        def call(*args, size=None):
            values = getattr(self.rng, name)(*args, size=size)
            self.calls.append((name, args, size, values))
            return values
        return call


def group_draws(family: sot.SotFamily, prop: str, group: tuple, config: axioms.CertifyConfig,
                key: list[int], members: int) -> list[tuple]:
    """The generator calls (method, args, size, values) that drawing a group
    of ``members`` trials makes on ``np.random.default_rng(key)``."""
    rng = RecordingGenerator(np.random.default_rng(key))
    axioms._draw(family, prop, group, config, rng, members)
    return rng.calls


class MemberDraws:
    """One member's row of each of its group's generator calls, handed out
    in call order to the one-trial samplers.  Each one-trial call must be
    its group call without the leading (members,) axis: the same method
    and arguments, of the size that follows that axis."""

    def __init__(self, calls: list[tuple], row: int):
        self.calls, self.row = list(calls), row
        assert len({np.atleast_1d(size)[0] for _, _, size, _ in calls}) <= 1, "one members axis"

    def __getattr__(self, name: str):
        def call(*args, size=None):
            (method, group_args, group_size, values), *self.calls = self.calls
            size = () if size is None else tuple(np.atleast_1d(size))
            assert (method, tuple(np.atleast_1d(group_size))[1:]) == (name, size)
            assert all(np.array_equal(a, b) for a, b in zip(args, group_args, strict=True))
            return values[self.row]
        return call


def member_draws(family: sot.SotFamily, prop: str, trial: int,
                 config: axioms.CertifyConfig) -> tuple[MemberDraws, list[int]]:
    """A trial's row of its group's draws, and its replay key: the group's
    generator key and the trial's row."""
    group, key, members = group_of(family, prop, trial, config)
    row = members.index(trial)
    calls = group_draws(family, prop, group, config, key, len(members))
    return MemberDraws(calls, row), [*key, row]


def sample_alone(family: sot.SotFamily, prop: str, trial: int,
                 config: axioms.CertifyConfig, rng=None) -> dict:
    """Every random input of one trial, drawn alone by the one-trial
    samplers in the trial's draw order, from ``rng`` or else from the
    trial's row of its group's draws (``member_draws``); raises the trial's
    refusal, if it has one."""
    if rng is None:
        rng = member_draws(family, prop, trial, config)[0]
        instance = sample_alone(family, prop, trial, config, rng)
        assert rng.calls == [], "the group makes calls the trial does not"
        return instance
    shape_a, shape_b = axioms._group(family, "P1", trial, config)  # the trial's shape pair
    if prop == "P7":
        e, rho = classical_limit_pair(shape_a, shape_b, rng, trial // 2,
                                      nondegenerate_prior=family.compound)
        return {"e": e, "rho": rho}
    if prop == "A":
        a, b, c = (alg.matrix_algebra(d, label) for d, label in zip(
            (config.dims[0], config.dims[1], config.dims[1]), "abc"))
        e = (sampling.random_cptp(a, b, rng) if family.state_linear
             else sampling.random_measure_prepare(a, b, config.dims[0] ** 2, rng))
        return {"e": e, "f": sampling.random_cptp(b, c, rng),
                "rho": sampling.random_state(a, rng)}
    out = {"e": sampling.random_cptp(shape_a, shape_b, rng),
           "rho": sampling.random_state(shape_a, rng)}
    if prop in axioms.MIXED:
        out["lambda"] = float(rng.uniform(0.2, 0.8))
        for key in axioms.MIXED[prop]:
            out[key] = (sampling.random_state(shape_a, rng) if key == "rho2"
                        else sampling.random_cptp(shape_a, shape_b, rng))
    return out


def drawn_by_group(family: sot.SotFamily, prop: str,
                   config: axioms.CertifyConfig) -> tuple[dict, dict]:
    """Each walked trial's inputs from the chunk drawer, each group drawn as
    one stack from the generator of its key: the member of a trial, or its
    refusal; and (group key, trials) of each generator key."""
    groups, out = {}, {}
    for trial in range(config.trials):
        group, key, members = group_of(family, prop, trial, config)
        groups[tuple(key)] = group, members
    for key, (group, members) in groups.items():
        instance, refusals = axioms._draw(family, prop, group, config,
                                          np.random.default_rng(list(key)), len(members))
        out.update((trial, refusal) for trial, refusal in zip(members, refusals)
                   if refusal is not None)
        kept = [trial for trial, refusal in zip(members, refusals) if refusal is None]
        out.update((trial, axioms._member(instance, position))
                   for position, trial in enumerate(kept))
    return out, groups


def classical_limit_pair(shape_a: AlgebraShape, shape_b: AlgebraShape,
                         rng: np.random.Generator, index: int,
                         nondegenerate_prior: bool = False) -> tuple[LinearMap, AlgebraElement]:
    """One classical-limit pair (E, ρ) of construction ``index``, drawn by
    the one-trial samplers in ``sot.classical_limits``' order, the channel's
    draws then the prior's; raises its refusal."""
    kind = sot.classical_limit_kind(shape_a, index, nondegenerate_prior)
    if kind == "replacement":
        e = maps.replace_channel(sampling.random_state(shape_b, rng), shape_a)
        rho = sampling.random_state(shape_a, rng)
    elif kind == "decohering":
        e = sampling.decohering_channel(shape_a, shape_b, rng.dirichlet(
            np.ones(shape_b.total_dim), size=shape_a.total_dim))
        rho = alg.diagonal_element(shape_a, rng.dirichlet(np.ones(shape_a.total_dim)))
    else:
        e = sampling.random_cptp(shape_a, shape_b, rng)
        weights = rng.dirichlet(np.ones(len(shape_a.blocks)))
        rho = AlgebraElement(shape_a, tuple(w / d * np.eye(d, dtype=complex)
                                            for w, d in zip(weights, shape_a.dims)))
    if nondegenerate_prior and not sot._has_nondegenerate_spectrum(rho):
        raise InapplicableError("the drawn prior has a degenerate spectrum")
    if sot.commutation_residual(e, rho) > COMM_TOL:
        raise InapplicableError("the drawn pair is not a classical-limit pair")
    return e, rho


def sequential_certify(family: sot.SotFamily, prop: str,
                       config: axioms.CertifyConfig) -> axioms.PropertyVerdict:
    """Reference for ``axioms.certify``: each trial drawn from its row of its
    group's draws, evaluated alone (a P2 search on its own) and folded
    before the next, keeping every candidate's full witness; the ascent's
    steps drawn in turn from one generator.  Reports no skip counts or
    ascent steps."""
    tag = family.tag
    if config.trials <= 0:
        return axioms.PropertyVerdict(tag, prop, "insufficient", 0, config.seed)
    cell = axioms._cell_index(tag, prop)

    def attempt(draw, key):
        try:
            instance = draw()
            value, extra = axioms._violation(family, prop, instance)
        except axioms.SKIPS:
            return None
        return value, {**instance, **extra, "replay_seed": key}

    max_residual, best, evaluated = 0.0, None, 0
    for trial in range(config.trials):
        rng, key = member_draws(family, prop, trial, config)
        result = attempt(lambda: sample_alone(family, prop, trial, config, rng), key)
        if result is None:
            continue
        evaluated += 1
        max_residual = max(max_residual, result[0])
        if best is None or result[0] > best[0]:
            best, best_trial = result, trial
        if result[0] > FAIL_THRESHOLD:
            break
    if best is None:
        return axioms.PropertyVerdict(tag, prop, "inapplicable", 0, config.seed)

    value, witness = best
    if PASS_THRESHOLD < value <= FAIL_THRESHOLD:
        key = [config.seed, cell, config.trials + best_trial]
        rng = np.random.default_rng(key)
        for step in range(axioms.ASCENT_STEPS):
            scale = 0.3 * (0.9 ** step)
            result = attempt(lambda: axioms._perturb(witness, scale, rng), [*key, step])
            if result is not None and result[0] > value:
                value, witness = result
                if value > FAIL_THRESHOLD:
                    break
        max_residual = max(max_residual, value)

    failed = value > FAIL_THRESHOLD
    status = "fails" if failed else "holds" if max_residual < PASS_THRESHOLD else "undecided"
    note = ""
    if family.compound and prop == "A" and status != "undecided":
        status, note = "empirical", f"open question; observed: {status}"
    elif family.compound and prop == "P7" and status == "holds":
        status, note = "holds-restricted", "verified on non-degenerate faithful priors only"
    return axioms.PropertyVerdict(tag, prop, status, evaluated, config.seed,
                                  max_residual=max_residual,
                                  violation=value if failed else None,
                                  counterexample=witness if failed else None, note=note)


def separate_mixing_violations(family: sot.SotFamily, prop: str,
                               instance: dict) -> list[tuple[float, dict]]:
    """P4–P6 violations of a stacked instance, each pair of a key evaluated
    by its own ``sot.evaluate``: the mixed pair, the plain pair, then the
    alternative pair."""
    e, rho = instance["e"], instance["rho"]
    lam, residuals = np.array(instance["lambda"])[:, None, None], []
    for key in axioms.MIXED[prop]:
        other = instance[key]
        if key == "rho2":
            mixed, alt = (e, lam * rho + (1.0 - lam) * other), (e, other)
        else:
            mixed = (lam * e + (1.0 - lam) * other, rho)
            alt = (other, rho)
        residuals.append((sot.evaluate(family, *mixed).value
                          - lam * sot.evaluate(family, e, rho).value
                          - (1.0 - lam) * sot.evaluate(family, *alt).value).norm())
    return [(max(values), {}) for values in zip(*(r.tolist() for r in residuals))]


# ---------------------------------------------------- analytic ✗ witnesses
def closed_form_witnesses() -> dict[str, dict]:
    """Instances on M2 → M2 (→ M2) written down, not drawn, by name: E the
    identity or the dephasing channel, F the identity, ρ the stated matrix."""
    a, b, c = (alg.matrix_algebra(2, label) for label in "abc")
    identity = LinearMap(a, b, np.eye(a.vector_dim, dtype=complex))
    dephasing = sampling.decohering_channel(a, b, np.eye(2))

    def density(matrix) -> AlgebraElement:
        return AlgebraElement(a, [np.array(matrix, dtype=complex)])
    return {
        # E = id and ρ = ½·1: every sandwich family gives ½·SWAP
        "maximally-mixed": {"e": identity, "rho": density(np.eye(2) / 2)},
        "diagonal-prior": {"e": identity, "rho": density(np.diag([0.7, 0.3]))},
        # P4's two pure priors |0⟩⟨0| and |1⟩⟨1| mixed at λ = ½
        "pure-priors": {"e": identity, "rho": density(np.diag([1.0, 0.0])), "lambda": 0.5,
                        "rho2": density(np.diag([0.0, 1.0]))},
        "dephased-prior": {"e": dephasing, "rho": density(np.diag([0.7, 0.3]))},
        "dephased-chain": {"e": dephasing, "f": LinearMap(b, c, np.eye(4, dtype=complex)),
                           "rho": density([[0.7, 0.2], [0.2, 0.3]])},
        "biased-prior": {"e": identity, "rho": density(np.diag([0.9, 0.1]))},
    }


def full_product_extremum(blocks: np.ndarray, starts: np.ndarray,
                          mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference for ``axioms._product_extremum``: eight rounds of
    alternating eigensolves on projectors from every start, for every
    factor dimension, each round's forms and projectors, the vectors and the
    pairings, taken from the library's functions."""
    jobs, m = len(blocks), starts.shape[1]
    n = blocks.shape[-1] // m
    to_b, to_a = axioms._form_maps(blocks, m, n)
    o_a = np.broadcast_to((starts.conj()[:, :, None] * starts[:, None, :]).reshape(-1, m * m),
                          (jobs, len(starts), m * m))
    for _ in range(8):
        o_b = axioms._extreme_projectors((o_a @ to_b).reshape(jobs, -1, n, n), mode)
        o_a = axioms._extreme_projectors((o_b.reshape(jobs, -1, n * n) @ to_a)
                                         .reshape(jobs, -1, m, m), mode).reshape(jobs, -1, m * m)
    a = axioms._projector_vectors(o_a.reshape(jobs, -1, m, m))
    b = axioms._projector_vectors(o_b)
    vals = axioms._pairings(blocks, a, b)
    pick = np.argmax(np.abs(vals), axis=1) if mode == "absmax" else np.argmin(vals, axis=1)
    best = (np.arange(jobs), pick)
    return vals[best], a[best], b[best]


def extreme_eigvecs(q: np.ndarray, mode: str) -> np.ndarray:
    """A unit eigenvector of the hermitian part of each form q (..., d, d)
    for its lowest eigenvalue ('min'), or for its eigenvalue of largest
    modulus, the lower one on a tie ('absmax').  d = 1 gives 1 exactly;
    d = 2 is closed-form and elementwise, from the row of H − λ with the
    larger diagonal entry, and gives e₁ on a multiple of the identity;
    larger d takes a stacked ``eigh``."""
    d = q.shape[-1]
    if d == 1:
        return np.ones(q.shape[:-1], dtype=complex)
    if d > 2:
        w, v = np.linalg.eigh((q + q.conj().swapaxes(-1, -2)) / 2)
        idx = (np.argmax(np.abs(w), axis=-1) if mode == "absmax"
               else np.zeros(w.shape[:-1], dtype=int))
        return np.take_along_axis(v, idx[..., None, None], axis=-1)[..., 0]
    top, bottom = q[..., 0, 0].real, q[..., 1, 1].real
    off = (q[..., 1, 0] + q[..., 0, 1].conj()) / 2
    mean, half, size = (top + bottom) / 2, (top - bottom) / 2, np.abs(off)
    radius = np.hypot(half, size)  # λ = mean + sign·radius
    sign = (np.where(np.abs(mean + radius) > np.abs(mean - radius), 1.0, -1.0)
            if mode == "absmax" else -1.0)
    pivot = radius + np.abs(half)  # the larger of |top − λ| and |bottom − λ|
    identity = pivot == 0          # pivot and norm become 1, so v = e₁
    pivot, norm = pivot + identity, np.hypot(pivot, size) + identity
    first_row = sign * half < 0    # top − λ = −sign·pivot there
    other = sign * off.conj()
    return np.stack([np.where(first_row, other, pivot),
                     np.where(first_row, pivot, other.conj())], axis=-1) / norm[..., None]


def product_forms(form_map: np.ndarray, v: np.ndarray, d: int) -> np.ndarray:
    """The forms (jobs, starts, d, d) a ``axioms._form_maps`` map (jobs, e²,
    d²) leaves in the free factor for fixed vectors v (jobs, starts, e)."""
    outer = (v.conj()[..., :, None] * v[..., None, :]).reshape(*v.shape[:2], -1)
    return (outer @ form_map).reshape(*v.shape[:2], d, d)


def vector_product_extremum(blocks: np.ndarray, starts: np.ndarray, mode: str
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eight rounds of alternating eigensolves on unit vectors from every
    start (starts, m), for every factor dimension: each start's pairing
    (jobs, starts) and vectors (jobs, starts, m) and (jobs, starts, n), each
    vector with its entry of largest modulus real and positive."""
    jobs, m = len(blocks), starts.shape[1]
    n = blocks.shape[-1] // m
    to_b, to_a = axioms._form_maps(blocks, m, n)
    a = np.broadcast_to(starts, (jobs, *starts.shape))
    for _ in range(8):
        b = extreme_eigvecs(product_forms(to_b, a, n), mode)
        a = extreme_eigvecs(product_forms(to_a, b, m), mode)
    lead = [np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
            for v in (a, b)]
    return (axioms._pairings(blocks, a, b), a * lead[0].conj() / np.abs(lead[0]),
            b * lead[1].conj() / np.abs(lead[1]))


def unit_starts(d: int, count: int) -> np.ndarray:
    """The start set of a first factor of dimension d, rebuilt from its
    documented key: ``count`` vectors whose real, then imaginary parts are
    one ``normal`` call of ``np.random.default_rng([d, count])``, each
    normalised."""
    z = np.random.default_rng([d, count]).normal(size=2 * count * d)
    v = z[:count * d].reshape(count, d) + 1j * z[count * d:].reshape(count, d)
    return v / np.linalg.norm(v, axis=1)[:, None]


def looped_block_positivity_violation(ts: list[AlgebraElement],
                                      starts: int) -> list[tuple[float, dict]]:
    """Reference for ``axioms.block_positivity_violation``: a list of
    elements, set up element by element and block by block, and the
    searches stacked per (mode, m, n) in job order, each from the start set
    of its first factor's dimension."""
    jobs = []  # (element, block label, mode, block, m)
    for k, t in enumerate(ts):
        factor_a, factor_b = t.shape.factors
        for label, (i, j), mat in zip(t.shape.labels, t.shape.pairs, t.data):
            m = factor_a.dims[i]
            skew = (mat - mat.conj().T) / 2j
            if np.linalg.norm(skew) > HERM_TOL:
                jobs.append((k, label, "absmax", skew, m))
            herm = (mat + mat.conj().T) / 2
            jobs.append((k, label, "min", herm, m))
    groups: dict[tuple, list[int]] = {}
    for index, (_, _, mode, block, m) in enumerate(jobs):
        groups.setdefault((mode, m, len(block) // m), []).append(index)
    found = [None] * len(jobs)
    for (mode, m, _), indices in groups.items():
        blocks = np.stack([jobs[i][3] for i in indices])
        values, a, b = axioms._product_extremum(blocks, unit_starts(m, starts), mode)
        for i, result in zip(indices, zip(values.tolist(), a, b)):
            found[i] = result
    out = [(0.0, {}) for _ in ts]
    for (k, label, mode, *_), (val, a, b) in zip(jobs, found):
        size, kind = ((abs(val), "non-real pairing") if mode == "absmax"
                      else (-val, "negative pairing"))
        if size > out[k][0]:
            out[k] = (size, {"block": str(label), "kind": kind, "value": val,
                             "vector_a": a, "vector_b": b})
    return out


# ------------------------------------------------- the copying kernels
def copying_hs_adjoint(e: LinearMap) -> LinearMap:
    """E* as the transposed view of conj(E), copied C-ordered by whoever
    needs it so."""
    return LinearMap(e.target, e.source, e.matrix.conj().T)


def _dagger_index(shape: AlgebraShape) -> np.ndarray:
    """Index permutation p with vec(A†) = conj(vec(A))[p]."""
    offs = np.cumsum([0] + [d * d for d in shape.dims[:-1]])
    return np.concatenate([off + np.arange(d * d).reshape(d, d).T.reshape(-1)
                           for off, d in zip(offs, shape.dims)])


def gather_tilde(e: LinearMap) -> LinearMap:
    """†∘E∘† as conj(E) gathered at the dagger index of target and source."""
    rows, cols = _dagger_index(e.target), _dagger_index(e.source)
    return LinearMap(e.source, e.target, e.matrix.conj()[np.ix_(rows, cols)])


def copying_swap_gamma(t: AlgebraElement) -> AlgebraElement:
    """γ with each permuted block copied C-ordered."""
    left, right = t.shape.factors
    target = right.tensor(left)
    mats = [None] * len(target.dims)
    for (i, j), mat in zip(t.shape.pairs, t.data):
        da, db = left.dims[i], right.dims[j]
        four = mat.reshape(da, db, da, db)
        mats[target.block_of(j, i)] = (np.ascontiguousarray(four.transpose(1, 0, 3, 2))
                                       .reshape(db * da, db * da))
    return AlgebraElement._of(target, mats)


def swap_dagger_tau(t: AlgebraElement) -> AlgebraElement:
    """τ as γ followed by the blockwise dagger view."""
    return copying_swap_gamma(t).dagger()


def copying_sandwich(terms, x: np.ndarray, d: int, p: int = 1) -> np.ndarray:
    """``maps.sandwich`` with every term's product in a new array."""
    def one(w, f, g):
        lead = (g if f is None else f).shape[:-2]
        if g is None:
            return ((w * f) @ x.reshape(*lead, d, -1)).reshape(x.shape)
        out = x if f is None else f @ x.reshape(*lead, d, -1)
        g_t = (w * g).swapaxes(-1, -2)[..., None, :, :]
        return (g_t @ out.reshape(*lead, d * p, d, -1)).reshape(x.shape)
    first, *rest = terms
    out = one(*first)
    for term in rest:
        out += one(*term)
    return out


def copying_sandwich_rows(terms, matrix: np.ndarray, shape: AlgebraShape,
                          transpose: bool = False) -> np.ndarray:
    """``maps.sandwich_rows`` copying each block's result into place."""
    matrix = np.ascontiguousarray(matrix)
    out = np.empty(matrix.shape, dtype=complex)
    for i, (off, d) in enumerate(zip(maps._offsets(shape), shape.dims)):
        rows = slice(off, off + d * d)
        out[rows] = copying_sandwich(maps.block_terms(terms, i, transpose), matrix[rows], d)
    return out


def copying_norm(a: AlgebraElement):
    """The Hilbert–Schmidt norm through a separate |a|² temporary."""
    return alg._per_element(np.sqrt(sum((np.abs(m) ** 2).sum(axis=(-2, -1))
                                        for m in a.data)), float)


@contextmanager
def copying_kernels():
    """The library with the copying kernels in place of the ones that write
    into their outputs, for the span of a ``with`` block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maps, "sandwich", copying_sandwich)
        patch.setattr(maps, "sandwich_rows", copying_sandwich_rows)
        patch.setattr(maps, "time_reversal_tau", swap_dagger_tau)
        patch.setattr(LinearMap, "hs_adjoint", copying_hs_adjoint)
        patch.setattr(LinearMap, "tilde", gather_tilde)
        patch.setattr(AlgebraElement, "norm", copying_norm)
        yield


# ------------------------------------------------------ two-call Ginibre draws
def two_call_ginibre(rng: np.random.Generator, rows: int, cols: int | None = None,
                     members: None = None) -> np.ndarray:
    assert members is None, "a one-trial draw"
    cols = rows if cols is None else cols
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


@contextmanager
def two_call_draws():
    """The library's one-trial samplers with every Ginibre matrix drawn by
    ``two_call_ginibre``, for the span of a ``with`` block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "ginibre", two_call_ginibre)
        yield


# ------------------------------------------------------- plane finishers
def plane_matrices(planes) -> list[np.ndarray]:
    """The complex matrices of real and imaginary planes (2, rows, cols)."""
    return [p[0] + 1j * p[1] for p in planes]


def plane_state(shape: AlgebraShape, planes) -> AlgebraElement:
    """The density matrix ⊕ GG†/tr of one plane pair per block."""
    mats = [g @ g.conj().T for g in plane_matrices(planes)]
    total = sum(np.trace(m).real for m in mats)
    return AlgebraElement._of(shape, (m / total for m in mats))


def plane_cptp(source: AlgebraShape, target: AlgebraShape, planes) -> LinearMap:
    """The channel whose isometry V_x is the orthonormal columns of block
    x's planes, its row-blocks Kraus operators into every target block."""
    kraus = []
    for xi, g in enumerate(plane_matrices(planes)):
        v, row = sampling.isometry(g), 0
        for _ in range(len(g) // target.total_dim):
            for yi, ny in enumerate(target.dims):
                kraus.append((xi, yi, v[row:row + ny]))
                row += ny
    return maps.from_kraus(source, target, kraus)


def plane_povm(source: AlgebraShape, planes) -> LinearMap:
    """The POVM of one plane pair per block per outcome: normalized effects."""
    n = len(source.dims)
    raw = [AlgebraElement._of(source, [g @ g.conj().T for g in plane_matrices(planes[k:k + n])])
           for k in range(0, len(planes), n)]
    s_inv = alg.power(sum(raw[1:], raw[0]), -0.5)
    return maps.povm([s_inv @ m @ s_inv for m in raw])


def plane_measure_prepare(source: AlgebraShape, target: AlgebraShape, planes) -> LinearMap:
    """A ↦ Σ_k tr(A P_k) σ_k from the POVM's planes, then the states'."""
    m = len(target.dims)
    k = len(planes) // (len(source.dims) + m) * len(source.dims)
    effects = maps.povm_effects(plane_povm(source, planes[:k]))
    return LinearMap(source, target, sum(
        np.outer(maps.vec(plane_state(target, planes[j:j + m])), maps.vec(p.dagger()).conj())
        for j, p in zip(range(k, len(planes), m), effects)))

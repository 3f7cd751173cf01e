"""Superoperators and the channel-state calculus, cross-checked against
dense kron-sum oracles on single-block algebras."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsot import algebra as alg, bayes, maps, sampling, sot
from qsot.algebra import AlgebraElement, AlgebraShape
from qsot.config import CP_TOL
from qsot.errors import ConstraintError, ShapeMismatchError
from qsot.maps import LinearMap

from conftest import (apply_dense, copying_hs_adjoint, copying_kernels, copying_norm,
                      copying_sandwich, copying_sandwich_rows, copying_swap_gamma,
                      dense_ad, dense_apply_to_factor, dense_channel_state, dense_choi,
                      dense_embedding, dense_hs_adjoint_check, dense_multiplier,
                      dense_partial_trace, dense_swap, gather_tilde,
                      kraus_partial_trace_channel, rng_for, swap_dagger_tau, two_call_draws)

ATOL = 1e-11


def depolarizing(shape: AlgebraShape, p: float) -> LinearMap:
    dim = shape.dims[0]
    mix = maps.replace_channel((1.0 / dim) * alg.identity(shape), shape)
    return (1.0 - p) * maps.identity_map(shape) + p * mix


# -------------------------------------------------------------- vectorization
def test_vec_ordering_is_blockwise_row_major():
    shape = AlgebraShape([("a", 2), ("b", 1)])
    x = alg.from_blocks(shape, {"a": np.arange(4).reshape(2, 2), "b": [[9.0]]})
    np.testing.assert_allclose(maps.vec(x), [0, 1, 2, 3, 9])


def test_vec_unvec_roundtrip(rng):
    shape = AlgebraShape([("a", 3), ("b", 2)])
    x = sampling.random_hermitian(shape, rng)
    assert (maps.unvec(shape, maps.vec(x)) - x).norm() < ATOL


def test_linear_map_call_matches_matrix_action(rng):
    source = AlgebraShape([("a", 2), ("b", 2)])
    target = alg.matrix_algebra(3, "c")
    e = sampling.random_cptp(source, target, rng)
    x = sampling.random_hermitian(source, rng)
    np.testing.assert_allclose(maps.vec(e(x)), e.matrix @ maps.vec(x), atol=ATOL)


def test_stacked_call_equals_the_members_calls(rng):
    """A stack of maps on a stack of elements, and one map on a stack,
    equal the members' own calls, bit for bit."""
    source = AlgebraShape([("a", 2), ("b", 1)])
    target = alg.matrix_algebra(3, "c")
    es = [sampling.random_cptp(source, target, rng) for _ in range(4)]
    xs = [sampling.random_hermitian(source, rng) for _ in range(4)]
    for got, e, x in zip(alg.unstack(maps.stack(es)(alg.stack(xs))), es, xs, strict=True):
        assert np.array_equal(got.data[0], e(x).data[0])
    for got, x in zip(alg.unstack(es[0](alg.stack(xs))), xs, strict=True):
        assert np.array_equal(got.data[0], es[0](x).data[0])
    assert np.array_equal(maps.vec(es[0](xs[0])), es[0].matrix @ maps.vec(xs[0]))
    back = maps.unvec(source, np.stack([maps.vec(x) for x in xs]))
    for got, x in zip(alg.unstack(back), xs, strict=True):
        assert all(np.array_equal(g, w) for g, w in zip(got.data, x.data))


def test_compose_is_matrix_product(rng):
    a = alg.matrix_algebra(2, "a")
    b = alg.matrix_algebra(3, "b")
    c = alg.matrix_algebra(2, "c")
    e = sampling.random_cptp(a, b, rng)
    f = sampling.random_cptp(b, c, rng)
    g = f.compose(e)
    x = sampling.random_state(a, rng)
    assert (g(x) - f(e(x))).norm() < ATOL


def test_compose_shape_mismatch_rejected(rng):
    a, b = alg.matrix_algebra(2, "a"), alg.matrix_algebra(3, "b")
    e = sampling.random_cptp(a, b, rng)
    with pytest.raises(ShapeMismatchError):
        e.compose(e)


# -------------------------------------------------------------- map predicates
def test_structure_predicates_on_known_maps(rng):
    shape = alg.matrix_algebra(2)
    ident = maps.identity_map(shape)
    assert ident.is_cptp and ident.is_unital
    depo = depolarizing(shape, 0.3)
    assert depo.is_cptp and depo.is_unital

    # transpose: positive, trace-preserving, not completely positive
    transpose = maps.from_action(shape, shape,
                                 lambda x: AlgebraElement(shape, (x.data[0].T,)))
    assert transpose.is_tp and transpose.is_dagger_preserving
    assert not transpose.is_cp

    rho = sampling.random_state(shape, rng)
    left = LinearMap(shape, shape, dense_multiplier(((1.0, rho, None),), shape))
    assert not left.is_dagger_preserving


def test_hs_adjoint_pairing(rng):
    e = sampling.random_cptp(alg.matrix_algebra(2, "a"),
                             AlgebraShape([("b", 2), ("c", 1)]), rng)
    assert dense_hs_adjoint_check(e, rng) < ATOL


def test_hs_adjoint_of_cptp_is_unital_cp(rng):
    e = sampling.random_cptp(alg.matrix_algebra(3, "a"), alg.matrix_algebra(2, "b"), rng)
    adj = e.hs_adjoint()
    assert adj.is_cp and adj.is_unital


def test_tilde_conjugates_by_dagger(rng):
    shape_a, shape_b = alg.matrix_algebra(2, "a"), alg.matrix_algebra(2, "b")
    e = sampling.random_cptp(shape_a, shape_b, rng)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = AlgebraElement(shape_a, (m,))
    assert (e.tilde()(x) - e(x.dagger()).dagger()).norm() < ATOL


# ------------------------------------------------------------- channel state
def test_channel_state_matches_kron_sum_oracle(rng):
    e = sampling.random_cptp(alg.matrix_algebra(2, "a"), alg.matrix_algebra(3, "b"), rng)
    np.testing.assert_allclose(maps.channel_state(e).data[0],
                               dense_channel_state(e), atol=ATOL)


def test_channel_state_roundtrip(rng):
    source = AlgebraShape([("a", 2), ("x", 1)])
    target = AlgebraShape([("b", 2), ("y", 2)])
    e = sampling.random_cptp(source, target, rng)
    back = maps.channel_from_state(maps.channel_state(e), source, target)
    assert np.max(np.abs(back.matrix - e.matrix)) < ATOL


@pytest.mark.parametrize("source, target", [
    (alg.matrix_algebra(2, "a"), alg.matrix_algebra(3, "b")),
    (AlgebraShape([("a", 2), ("x", 1)]), AlgebraShape([("b", 2), ("y", 3)]))])
def test_stacked_channel_from_state_inverts_each_member(source, target):
    """A stack of channel states gives the stack of their maps: each member
    is the map itself and what a single channel state gives, bit for bit."""
    rng = rng_for("stacked-channel-from-state", source.vector_dim)
    es = [sampling.random_cptp(source, target, rng) for _ in range(6)]
    states = maps.channel_state(maps.stack(es))
    back = maps.channel_from_state(states, source, target)
    assert (back.source, back.target) == (source, target)
    assert back.matrix.shape == (6, target.vector_dim, source.vector_dim)
    assert not back.matrix.flags.writeable
    for got, e, state in zip(maps.unstack(back), es, alg.unstack(states), strict=True):
        assert np.array_equal(got.matrix, e.matrix)
        assert np.array_equal(got.matrix, maps.channel_from_state(state, source, target).matrix)


def test_channel_state_marginal_is_output_state(rng):
    shape = alg.matrix_algebra(3, "a")
    e = sampling.random_cptp(shape, alg.matrix_algebra(2, "b"), rng)
    d = maps.channel_state(e)
    # tr_A D[E] = E(1_A); tr_B D[E] = 1_A
    assert (alg.partial_trace(d, "A") - e(alg.identity(shape))).norm() < ATOL
    assert (alg.partial_trace(d, "B") - alg.identity(shape)).norm() < ATOL


def test_channel_state_via_mu_adjoint_unit(rng):
    shape = AlgebraShape([("a", 2), ("b", 1)])
    e = sampling.random_cptp(shape, alg.matrix_algebra(2, "c"), rng)
    lifted = maps.apply_to_factor(e, maps.mu_adjoint_unit(shape), "right")
    assert (lifted - maps.channel_state(e)).norm() < ATOL


def test_cp_decompose_recombines_and_parts_are_cp(rng):
    source = AlgebraShape([("a", 2), ("b", 1)])
    target = alg.matrix_algebra(2, "c")
    matrix = (rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5)))
    e = LinearMap(source, target, matrix)
    c1, c2, c3, c4 = maps.cp_decompose(e)
    recombined = c1.matrix - c2.matrix + 1j * (c3.matrix - c4.matrix)
    assert np.max(np.abs(recombined - e.matrix)) < ATOL
    assert all(c.is_cp for c in (c1, c2, c3, c4))


def positive_part(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.clip(vals, 0, None)) @ vecs.conj().T


@pytest.mark.parametrize("kind", ["cptp", "not-cp", "general", "transpose"])
def test_is_cp_and_cp_decompose_agree_with_the_dense_choi_oracle(kind, rng):
    """On block-sum shapes, is_cp reads the oracle Choi matrix Σ E_ij ⊗ E(E_ij),
    and cp_decompose's parts have the positive and negative parts of its
    hermitian and skew parts as their Choi matrices."""
    source, target = AlgebraShape([("a", 2), ("x", 1)]), AlgebraShape([("b", 3), ("y", 1)])
    if kind == "cptp":
        e = sampling.random_cptp(source, target, rng)
    elif kind == "not-cp":
        e = 1.5 * sampling.random_cptp(source, target, rng) - 0.5 * sampling.random_cptp(
            source, target, rng)
    elif kind == "general":
        e = LinearMap(source, target, rng.normal(size=(10, 5)) + 1j * rng.normal(size=(10, 5)))
    else:
        e = maps.from_action(source, source, lambda x: AlgebraElement(
            source, tuple(m.T for m in x.data)))
    choi = dense_choi(e)
    herm, skew = (choi + choi.conj().T) / 2, (choi - choi.conj().T) / 2j
    assert e.is_cp == bool(np.linalg.eigvalsh(herm)[0] >= -CP_TOL and e.is_dagger_preserving)
    assert e.is_cp == (kind == "cptp")
    parts = [dense_choi(c) for c in maps.cp_decompose(e)]
    for got, want in zip(parts, (positive_part(herm), positive_part(-herm),
                                 positive_part(skew), positive_part(-skew)), strict=True):
        assert np.max(np.abs(got - want)) < ATOL


# --------------------------------------------------------------- swap and tau
def test_swap_gamma_is_kron_swap(rng):
    a = sampling.random_hermitian(alg.matrix_algebra(2, "a"), rng)
    b = sampling.random_hermitian(alg.matrix_algebra(3, "b"), rng)
    t = alg.tensor(a, b)
    swapped = maps.swap_gamma(t)
    assert (swapped - alg.tensor(b, a)).norm() < ATOL


def test_swap_gamma_is_involutive(rng):
    shape = alg.matrix_algebra(2, "a").tensor(alg.matrix_algebra(2, "b"))
    t = sampling.random_hermitian(shape, rng)
    assert (maps.swap_gamma(maps.swap_gamma(t)) - t).norm() < ATOL


def test_time_reversal_on_elementary_tensor(rng):
    a = sampling.random_hermitian(alg.matrix_algebra(2, "a"), rng)
    b = sampling.random_hermitian(alg.matrix_algebra(2, "b"), rng)
    # tau(b (x) a) = a^dag (x) b^dag
    assert (maps.time_reversal_tau(alg.tensor(b, a))
            - alg.tensor(a.dagger(), b.dagger())).norm() < ATOL


def test_time_reversal_is_conjugate_linear_involution(rng):
    shape = alg.matrix_algebra(2, "a").tensor(alg.matrix_algebra(2, "b"))
    mats = tuple(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                 for _ in shape.dims)
    t = AlgebraElement(shape, mats)
    assert (maps.time_reversal_tau(maps.time_reversal_tau(t)) - t).norm() < ATOL
    scaled = maps.time_reversal_tau((2.0 + 1.0j) * t)
    assert (scaled - (2.0 - 1.0j) * maps.time_reversal_tau(t)).norm() < ATOL


def test_apply_to_factor_matches_kron_oracle(rng):
    shape_a, shape_b = alg.matrix_algebra(2, "a"), alg.matrix_algebra(2, "b")
    shape_c = alg.matrix_algebra(3, "c")
    e = sampling.random_cptp(shape_b, shape_c, rng)
    t = sampling.random_state(shape_a.tensor(shape_b), rng)
    got = maps.apply_to_factor(e, t, "right").data[0]
    # dense oracle: act on the right kron factor unit by unit
    four = t.data[0].reshape(2, 2, 2, 2)
    want = np.zeros((2 * 3, 2 * 3), dtype=complex)
    for i in range(2):
        for j in range(2):
            want += np.kron(np.eye(2)[:, [i]] @ np.eye(2)[[j], :],
                            apply_dense(e, four[i, :, j, :]))
    np.testing.assert_allclose(got, want, atol=ATOL)


def test_partial_trace_channel_matches_partial_trace(rng):
    tshape = alg.matrix_algebra(2, "a").tensor(AlgebraShape([("b", 2), ("c", 1)]))
    t = sampling.random_state(tshape, rng)
    for side in ("A", "B"):
        ch = maps.partial_trace_channel(tshape, side)
        assert (ch(t) - alg.partial_trace(t, side)).norm() < ATOL
        assert ch.is_cptp


# ------------------------------------------------------- channel constructors
def test_classical_channel_is_stochastic_action(rng):
    f = np.array([[0.7, 0.2], [0.3, 0.8]])
    e = maps.classical_channel(f)
    p = alg.classical_state([0.4, 0.6])
    q = e(p)
    np.testing.assert_allclose([m[0, 0].real for m in q.data], f @ [0.4, 0.6],
                               atol=ATOL)
    with pytest.raises(ConstraintError):
        maps.classical_channel(np.array([[0.5, 0.5], [0.4, 0.5]]))


def test_povm_channel_and_effects_roundtrip(rng):
    shape = alg.matrix_algebra(2)
    m0 = np.array([[0.7, 0.1], [0.1, 0.4]])
    effects = [m0, np.eye(2) - m0]
    e = maps.povm(effects)
    assert e.is_cptp
    back = maps.povm_effects(e)
    for want, got in zip(effects, back):
        np.testing.assert_allclose(got.data[0], want, atol=ATOL)
    rho = sampling.random_state(shape, rng)
    probs = [m[0, 0].real for m in e(rho).data]
    np.testing.assert_allclose(probs, [np.trace(m @ rho.data[0]).real
                                       for m in effects], atol=ATOL)
    with pytest.raises(ConstraintError):
        maps.povm([m0, np.eye(2)])  # not complete
    with pytest.raises(ConstraintError):  # a NaN defect is not within tolerance
        maps.povm([m0, np.eye(2) - m0 + np.diag([np.nan, 0.0])])


CONSTRUCTORS = {
    "povm": (lambda d: maps.povm([np.diag([0.7, 0.2]), np.diag([0.3 + d, 0.8 + d])]),
             "POVM effects must sum to the identity"),
    "classical_channel": (lambda d: maps.classical_channel([[0.6 + d, 0.1], [0.4, 0.9]]),
                          "columns of a stochastic matrix must sum to 1"),
    "unitary_channel": (lambda d: maps.unitary_channel(AlgebraElement(
        alg.matrix_algebra(2), (np.diag([np.sqrt(1.0 + d), 1.0]),))),
                        "unitary_channel needs unitary blocks"),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_channel_constructors_refuse_what_a_state_over_time_refuses(name, rng):
    """A TP defect of 5e-7 is refused where the map is built, with the
    constructor's message; one of 5e-8 builds, and ``sot.evaluate`` takes it."""
    build, message = CONSTRUCTORS[name]
    with pytest.raises(ConstraintError, match=f"^{message}$"):
        build(5e-7)
    e = build(5e-8)
    assert 1e-8 < e.tp_defect() <= 1e-7
    sot.evaluate(sot.LeiferSpekkens(), e, sampling.random_state(e.source, rng))


def test_ensemble_prepares_the_listed_states(rng):
    shape = alg.matrix_algebra(2)
    states = [sampling.random_state(shape, rng) for _ in range(3)]
    prep = maps.ensemble(states)
    assert prep.is_cptp
    for i, want in enumerate(states):
        delta = alg.basis_vector(prep.source, prep.source.labels[i])
        assert (prep(delta) - want).norm() < ATOL


def test_instrument_traces_to_povm_probabilities(rng):
    shape = alg.matrix_algebra(2)
    parts = []
    k1 = np.array([[1.0, 0.0], [0.0, 0.5]])
    k2 = np.array([[0.0, np.sqrt(0.75)], [0.0, 0.0]])
    for k in (k1, k2):
        parts.append(maps.from_action(
            shape, shape, lambda x, k=k: AlgebraElement(shape, (k @ x.data[0] @ k.conj().T,))))
    inst = maps.instrument(parts)
    assert inst.is_cptp
    rho = sampling.random_state(shape, rng)
    out = inst(rho)
    # marginal over outcomes recovers the unconditioned evolution
    summed = sum((f(rho) for f in parts), alg.zero(shape))
    assert (alg.partial_trace(out, "B") - summed).norm() < ATOL


def test_unitary_channel_requires_unitary(rng):
    shape = alg.matrix_algebra(2)
    u = sampling.random_unitary_element(shape, rng)
    e = maps.unitary_channel(u)
    rho = sampling.random_state(shape, rng)
    np.testing.assert_allclose(e(rho).data[0],
                               u.data[0] @ rho.data[0] @ u.data[0].conj().T,
                               atol=ATOL)
    with pytest.raises(ConstraintError):
        maps.unitary_channel(2.0 * u)
    with pytest.raises(ConstraintError):  # a NaN defect is not within tolerance
        maps.unitary_channel(AlgebraElement(shape, (np.diag([np.nan, 1.0]).astype(complex),)))


def test_ad_map_matches_left_and_right_multiplication(rng):
    shape = AlgebraShape([("b", 3), ("a", 1), ("c", 2)])
    x = sampling.random_hermitian(shape, rng) + sampling.random_hermitian(shape, rng) * 1j
    got = maps.ad_map(x).matrix
    want = dense_multiplier(((1.0, x, x.dagger()),), shape)
    assert np.max(np.abs(got - want)) < 1e-14
    assert np.max(np.abs(got - dense_ad(x))) < 1e-14


def test_replace_channel_outputs_sigma(rng):
    source = AlgebraShape([("a", 2), ("b", 1)])
    sigma = sampling.random_state(alg.matrix_algebra(2, "c"), rng)
    e = maps.replace_channel(sigma, source)
    assert e.is_cptp
    rho = sampling.random_state(source, rng)
    assert (e(rho) - sigma).norm() < ATOL


# ---------------------------------------------------------- property testing
@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10**6))
def test_random_cptp_is_cptp_and_preserves_states(da, db, seed):
    rng = np.random.default_rng(seed)
    e = sampling.random_cptp(alg.matrix_algebra(da, "a"), alg.matrix_algebra(db, "b"), rng)
    assert e.is_cptp
    rho = sampling.random_state(e.source, rng)
    alg.assert_state(e(rho))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=3), st.integers(min_value=0, max_value=10**6))
def test_random_unital_channel_fixes_identity(dim, seed):
    rng = np.random.default_rng(seed)
    shape = alg.matrix_algebra(dim)
    e = sampling.random_unital_channel(shape, rng)
    assert e.is_cptp and e.is_unital
    one = alg.identity(shape)
    assert (e(one) - one).norm() < 1e-9


# ------------------------------------- block bookkeeping on unsorted shapes
# Labels out of sorted order, so a tensor shape's block order (sorted by
# label) differs from the order of its factor-block index pairs.
SHAPE_A = AlgebraShape([("b", 2), ("a", 1), ("c", 2)])
SHAPE_B = AlgebraShape([("z", 2), ("y", 1)])
SHAPE_C = AlgebraShape([("q", 1), ("p", 2)])


def test_unsorted_shapes_reorder_tensor_blocks():
    tshape = SHAPE_A.tensor(SHAPE_B)
    assert tshape.pairs != tuple(itertools.product(range(3), range(2)))
    for k, (i, j) in enumerate(tshape.pairs):
        assert tshape.labels[k] == (SHAPE_A.labels[i], SHAPE_B.labels[j])
        assert tshape.dims[k] == SHAPE_A.dims[i] * SHAPE_B.dims[j]
        assert tshape.block_of(i, j) == k


def test_tensor_matches_dense_embedding(rng):
    x = sampling.random_hermitian(SHAPE_A, rng)
    y = sampling.random_hermitian(SHAPE_B, rng)
    np.testing.assert_allclose(dense_embedding(alg.tensor(x, y)),
                               np.kron(dense_embedding(x), dense_embedding(y)), atol=ATOL)


def test_partial_traces_match_dense_embedding(rng):
    t = sampling.random_hermitian(SHAPE_A.tensor(SHAPE_B), rng)
    for side in ("A", "B"):
        want = dense_partial_trace(dense_embedding(t), 5, 3, side)
        np.testing.assert_allclose(dense_embedding(alg.partial_trace(t, side)), want,
                                   atol=ATOL)


def test_swap_gamma_matches_dense_embedding(rng):
    t = sampling.random_hermitian(SHAPE_A.tensor(SHAPE_B), rng)
    swapped = maps.swap_gamma(t)
    assert swapped.shape == SHAPE_B.tensor(SHAPE_A)
    np.testing.assert_allclose(dense_embedding(swapped), dense_swap(dense_embedding(t), 5, 3),
                               atol=ATOL)


@pytest.mark.parametrize("which", ["left", "right"])
def test_apply_to_factor_matches_dense_embedding(which, rng):
    t = sampling.random_hermitian(SHAPE_A.tensor(SHAPE_B), rng)
    acted, other = (SHAPE_A, 3) if which == "left" else (SHAPE_B, 5)
    m = sampling.random_cptp(acted, SHAPE_C, rng)
    got = maps.apply_to_factor(m, t, which)
    np.testing.assert_allclose(dense_embedding(got),
                               dense_apply_to_factor(m, dense_embedding(t), other, which),
                               atol=ATOL)


def test_channel_state_roundtrip_matches_dense_embedding(rng):
    e = sampling.random_cptp(SHAPE_A, SHAPE_B, rng)
    d = maps.channel_state(e)
    np.testing.assert_allclose(dense_embedding(d), dense_channel_state(e), atol=ATOL)
    back = maps.channel_from_state(d, SHAPE_A, SHAPE_B)
    assert np.max(np.abs(back.matrix - e.matrix)) < ATOL


def test_reassociation_matches_dense_embedding(rng):
    t = sampling.random_hermitian(SHAPE_A.tensor(SHAPE_B).tensor(SHAPE_C), rng)
    moved = alg.reassociate_left_to_right(t)
    assert moved.shape == SHAPE_A.tensor(SHAPE_B.tensor(SHAPE_C))
    # (a·n_B + b)·n_C + c = a·(n_B·n_C) + (b·n_C + c): the same dense operator
    np.testing.assert_allclose(dense_embedding(moved), dense_embedding(t), atol=0)


# ----------------------------------------------------------- Kraus assembly
def kraus_action(source, target, kraus):
    """A ↦ ⊕_y Σ K A_x K† applied block by block, for from_action."""
    def act(a):
        out = [np.zeros((n, n), dtype=complex) for n in target.dims]
        for xi, yi, k in kraus:
            out[yi] += k @ a.data[xi] @ k.conj().T
        return AlgebraElement(target, tuple(out))
    return act


def test_from_kraus_matches_probed_action(rng):
    kraus = [(xi, yi, sampling.ginibre(rng, SHAPE_B.dims[yi], SHAPE_A.dims[xi]))
             for xi, yi in [(0, 0), (2, 1), (0, 0), (1, 0), (2, 0)]]
    got = maps.from_kraus(SHAPE_A, SHAPE_B, kraus)
    want = maps.from_action(SHAPE_A, SHAPE_B, kraus_action(SHAPE_A, SHAPE_B, kraus))
    assert np.max(np.abs(got.matrix - want.matrix)) < ATOL
    with pytest.raises(ShapeMismatchError):
        maps.from_kraus(SHAPE_A, SHAPE_B, [(1, 0, np.ones((2, 2)))])


def test_instrument_with_two_block_outputs_matches_probed_form(rng):
    parts = [w * sampling.random_cptp(SHAPE_A, SHAPE_B, rng) for w in (0.25, 0.75)]
    outcomes = alg.classical_algebra(2, "x")

    def act(a):
        out = alg.zero(SHAPE_B.tensor(outcomes))
        for x, f in enumerate(parts):
            out = out + alg.tensor(f(a), alg.basis_vector(outcomes, f"x{x}"))
        return out

    want = maps.from_action(SHAPE_A, SHAPE_B.tensor(outcomes), act)
    got = maps.instrument(parts)
    assert got.target == want.target
    assert np.max(np.abs(got.matrix - want.matrix)) < ATOL


@pytest.mark.parametrize("left, right", [
    (SHAPE_A, SHAPE_C), (SHAPE_C, SHAPE_A), (SHAPE_A, SHAPE_B),
    (alg.matrix_algebra(3, "m"), SHAPE_C), (SHAPE_B, alg.classical_algebra(3)),
    (alg.matrix_algebra(2, "m"), alg.matrix_algebra(3, "n"))])
def test_partial_trace_channel_equals_its_kraus_construction(left, right):
    tshape = left.tensor(right)
    for side in ("A", "B"):
        got = maps.partial_trace_channel.__wrapped__(tshape, side)
        want = kraus_partial_trace_channel(tshape, side)
        assert got.source == want.source and got.target == want.target
        assert np.array_equal(got.matrix, want.matrix)


def test_partial_trace_channel_on_unsorted_shapes(rng):
    tshape = SHAPE_A.tensor(SHAPE_B)
    t = sampling.random_hermitian(tshape, rng)
    for side in ("A", "B"):
        assert (maps.partial_trace_channel(tshape, side)(t)
                - alg.partial_trace(t, side)).norm() < ATOL
    with pytest.raises(ValueError):
        maps.partial_trace_channel(tshape, "C")


def probed_random_cptp(source, target, rng, env=2):
    """random_cptp's isometry draws, assembled unit by unit through from_action."""
    d_out = target.total_dim
    kraus = []
    for xi, mx in enumerate(source.dims):
        env_x = max(env, -(-mx // d_out))
        v = sampling.random_isometry(rng, d_out * env_x, mx)
        row = 0
        for _ in range(env_x):
            for yi, ny in enumerate(target.dims):
                kraus.append((xi, yi, v[row:row + ny, :]))
                row += ny
    return maps.from_action(source, target, kraus_action(source, target, kraus))


@pytest.mark.parametrize("source, target", [
    (SHAPE_A, SHAPE_B), (SHAPE_B, SHAPE_C), (alg.matrix_algebra(5, "a"), SHAPE_B),
    (SHAPE_C, alg.classical_algebra(3)), (SHAPE_A, SHAPE_A.tensor(SHAPE_C))])
def test_random_cptp_matches_probed_twin(source, target):
    for seed in range(3):
        got = sampling.random_cptp(source, target, rng_for("cptp-twin", seed))
        want = probed_random_cptp(source, target, rng_for("cptp-twin", seed))
        assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-15
        assert got.is_cptp


@pytest.mark.parametrize("shape", [SHAPE_A, SHAPE_C, SHAPE_A.tensor(SHAPE_C),
                                   alg.classical_algebra(3)])
def test_per_shape_constants_are_built_once_and_read_only(shape):
    twin = AlgebraShape(shape.blocks, shape.factors)  # equal, not the same object
    for constant in (maps._offsets, maps.trace_row):
        kept = constant(shape)
        assert constant(shape) is kept and constant(twin) is kept
        fresh = constant.__wrapped__(twin)
        assert np.array_equal(kept, fresh)
        with pytest.raises((TypeError, ValueError)):
            kept[0] = 1
    assert maps._offsets(shape) == tuple(int(x) for x in np.cumsum(
        [0] + [d * d for d in shape.dims[:-1]]))


def test_partial_trace_channel_is_built_once_per_shape_and_side(monkeypatch):
    tshape = SHAPE_A.tensor(SHAPE_C)
    twin = AlgebraShape(tshape.blocks, tshape.factors)  # equal, not the same object
    maps.partial_trace_channel.cache_clear()
    built = []
    tensor = alg.tensor  # one lift of the kept factor's matrix units per build
    monkeypatch.setattr(alg, "tensor", lambda *args: built.append(args) or tensor(*args))
    for side in ("A", "B"):
        kept = maps.partial_trace_channel(tshape, side)
        assert maps.partial_trace_channel(tshape, side) is kept
        assert maps.partial_trace_channel(twin, side) is kept
        assert not kept.matrix.flags.writeable
        fresh = maps.partial_trace_channel.__wrapped__(twin, side)
        assert np.array_equal(kept.matrix, fresh.matrix)
    assert len(built) == 4  # one cached and one fresh build per side


def test_stacked_classical_limit_constructors_equal_their_members(rng):
    """replace_channel, decohering_channel and diagonal_element on a stack
    equal the same calls on each member, bit for bit."""
    sigmas = [sampling.random_state(SHAPE_C, rng) for _ in range(3)]
    for got, sigma in zip(maps.unstack(maps.replace_channel(alg.stack(sigmas), SHAPE_A)), sigmas):
        assert np.array_equal(got.matrix, maps.replace_channel(sigma, SHAPE_A).matrix)
    weights = rng.dirichlet(np.ones(3), size=(3, 5))
    stacked = sampling.decohering_channel(SHAPE_A, SHAPE_C, weights)
    for got, w in zip(maps.unstack(stacked), weights):
        assert np.array_equal(got.matrix, sampling.decohering_channel(SHAPE_A, SHAPE_C, w).matrix)
    values = rng.dirichlet(np.ones(5), size=3)
    for got, v in zip(alg.unstack(alg.diagonal_element(SHAPE_A, values)), values):
        assert all(np.array_equal(g, w) for g, w in
                   zip(got.data, alg.diagonal_element(SHAPE_A, v).data))
    with pytest.raises(ShapeMismatchError):
        alg.diagonal_element(SHAPE_A, values[:, :4])


def test_stacked_maps_equal_their_members(rng):
    """from_kraus, channel_state, tp_defect and the sampling steps on a
    stack equal the same calls on each member, bit for bit."""
    draws = [sampling.draw(sampling.cptp_planes(SHAPE_A, SHAPE_C), rng) for _ in range(4)]
    stacked = sampling.cptp(SHAPE_A, SHAPE_C, tuple(map(np.stack, zip(*draws))))
    members = [sampling.cptp(SHAPE_A, SHAPE_C, draw) for draw in draws]
    assert all(np.array_equal(m.matrix, s.matrix)
               for m, s in zip(members, maps.unstack(stacked)))
    assert np.array_equal(maps.stack(members).matrix, stacked.matrix)
    assert stacked.tp_defect().tolist() == [m.tp_defect() for m in members]
    assert stacked.is_tp.tolist() == [True] * 4
    for got, member in zip(alg.unstack(maps.channel_state(stacked)), members):
        want = maps.channel_state(member)
        assert all(np.array_equal(g, w) for g, w in zip(got.data, want.data))
    states = [sampling.draw(sampling.state_planes(SHAPE_A), rng) for _ in range(4)]
    stacked_state = sampling.state(SHAPE_A, tuple(map(np.stack, zip(*states))))
    for got, draw in zip(alg.unstack(stacked_state), states):
        want = sampling.state(SHAPE_A, draw)
        assert all(np.array_equal(g, w) for g, w in zip(got.data, want.data))
    with pytest.raises(ShapeMismatchError):
        maps.from_kraus(SHAPE_A, SHAPE_C, [(0, 0, np.ones((2, 3, 2)))])


def test_a_stack_of_none_or_of_mixed_maps_is_refused():
    """An empty list, and maps of one matrix size but another source or
    target, are no stack."""
    a, b = alg.matrix_algebra(2, "a"), alg.matrix_algebra(2, "b")
    with pytest.raises(ShapeMismatchError):
        maps.stack([])
    for other in (maps.identity_map(b), maps.replace_channel(0.5 * alg.identity(b), a)):
        with pytest.raises(ShapeMismatchError):
            maps.stack([maps.identity_map(a), other])
    assert maps.stack([maps.identity_map(a)] * 2).matrix.shape == (2, 4, 4)


@pytest.mark.parametrize("source, target, rows", [((2,), (2,), [4]), ((2,), (3,), [6]),
                                                  ((3,), (2,), [4]), ((5,), (2,), [6]),
                                                  ((2, 1), (3, 1), [8, 8])])
def test_channel_planes_have_twice_the_output_rows_or_enough_for_an_isometry(source, target,
                                                                              rows):
    """Each source block m_x draws d_out·max(2, ⌈m_x/d_out⌉) rows and m_x
    columns, d_out the target's total dimension."""
    shape = lambda dims, label: AlgebraShape([(f"{label}{i}", d) for i, d in enumerate(dims)])
    planes = sampling.cptp_planes(shape(source, "a"), shape(target, "b"))
    assert planes == tuple((2, r, m) for r, m in zip(rows, source))


def per_outcome_measure_prepare(source: AlgebraShape, target: AlgebraShape, outcomes: int,
                                rng: np.random.Generator) -> LinearMap:
    """A random measure-prepare channel drawn as one Ginibre matrix per
    effect block, then one state per outcome, and built effect by effect."""
    raw = [AlgebraElement(source, [(g := sampling.ginibre(rng, d)) @ g.conj().T
                                   for d in source.dims]) for _ in range(outcomes)]
    s_inv = alg.power(sum(raw[1:], raw[0]), -0.5)
    effects = maps.povm_effects(maps.povm([s_inv @ m @ s_inv for m in raw]))
    states = [sampling.random_state(target, rng) for _ in range(outcomes)]
    return LinearMap(source, target, sum(np.outer(maps.vec(s), maps.vec(p.dagger()).conj())
                                         for s, p in zip(states, effects)))


@pytest.mark.parametrize("source, target", [(SHAPE_A, SHAPE_C), (SHAPE_C, SHAPE_B)])
def test_a_measure_prepare_channel_from_planes_equals_it_drawn_per_outcome(source, target):
    """The channel finished from ``measure_prepare_planes``' draws equals the
    one drawn and built per outcome, and leaves the generator at the same
    point."""
    for index in range(4):
        rng = rng_for("measure-prepare", index)
        got, got_next = sampling.random_measure_prepare(source, target, 3, rng), rng.normal()
        rng = rng_for("measure-prepare", index)
        want = per_outcome_measure_prepare(source, target, 3, rng)
        assert got_next == rng.normal()
        assert np.array_equal(got.matrix, want.matrix)


@pytest.mark.parametrize("source, target", [(SHAPE_A, SHAPE_C), (SHAPE_C, SHAPE_B),
                                            (alg.matrix_algebra(3, "a"), alg.classical_algebra(2))])
def test_one_call_ginibre_planes_give_the_bits_of_two_call_draws(source, target):
    """Each sampler drawn from one seed gives the arrays it gives on the
    two-call Ginibre draws, and leaves the generator at the same point."""
    samplers = {"random_state": lambda rng: sampling.random_state(source, rng),
                "random_cptp": lambda rng: sampling.random_cptp(source, target, rng),
                "random_unitary": lambda rng: sampling.random_unitary(rng, source.total_dim),
                "random_hermitian": lambda rng: sampling.random_hermitian(source, rng),
                "random_measure_prepare": lambda rng: sampling.random_measure_prepare(
                    source, target, 3, rng)}
    for index, (name, sample) in enumerate(samplers.items()):
        rng = rng_for("one-call-planes", index)
        got, got_next = sample(rng), rng.normal()
        rng = rng_for("one-call-planes", index)
        with two_call_draws():
            want, want_next = sample(rng), rng.normal()
        assert got_next == want_next, name
        pairs = ([(got.matrix, want.matrix)] if isinstance(want, LinearMap) else
                 zip(got.data, want.data) if isinstance(want, AlgebraElement) else [(got, want)])
        assert all(np.array_equal(g, w) for g, w in pairs), name


def test_decohering_channel_matches_probed_twin():
    weights = rng_for("deco-twin").dirichlet(np.ones(3), size=5)
    got, f = sampling.decohering_channel(SHAPE_A, SHAPE_C, weights), weights.T

    def act(a):
        return alg.diagonal_element(SHAPE_C, f @ np.concatenate([np.diag(m) for m in a.data]))

    want = maps.from_action(SHAPE_A, SHAPE_C, act)
    assert np.max(np.abs(got.matrix - want.matrix)) == 0.0
    assert got.is_cptp


# ------------------------------------- kernels that write into their outputs
# Each must give the bits of the copying kernel it replaced (tests/conftest.py):
# the same products and sums in the same order, only into other buffers.
KERNEL_SHAPES = {
    "single": (alg.matrix_algebra(4, "a"), alg.matrix_algebra(3, "b")),
    "hybrid": (AlgebraShape([("a", 3), ("x", 2)]),
               AlgebraShape([("b", 2), ("y", 1), ("z", 2)])),
    "unsorted": (SHAPE_A, SHAPE_C),
}


def random_map(source: AlgebraShape, target: AlgebraShape, rng) -> LinearMap:
    """A map with no structure: complex Gaussian entries."""
    size = (target.vector_dim, source.vector_dim)
    return LinearMap(source, target, rng.normal(size=size) + 1j * rng.normal(size=size))


def same_element(got: AlgebraElement, want: AlgebraElement) -> bool:
    return got.shape == want.shape and all(
        np.array_equal(a, b) for a, b in zip(got.data, want.data))


@pytest.mark.parametrize("case", KERNEL_SHAPES)
def test_tilde_and_hs_adjoint_give_the_bits_of_the_copying_kernels(case):
    source, target = KERNEL_SHAPES[case]
    rng = rng_for("tilde-adjoint-bits", list(KERNEL_SHAPES).index(case))
    for e in (random_map(source, target, rng), sampling.random_cptp(source, target, rng)):
        assert np.array_equal(e.tilde().matrix, gather_tilde(e).matrix)
        adj = e.hs_adjoint()
        assert adj.matrix.flags.c_contiguous
        assert np.array_equal(adj.matrix, copying_hs_adjoint(e).matrix)


def stacked(members: list):
    """Maps, elements or scalars of one kind as one stack; scalars padded by
    two unit axes, as a factor of a stack of maps."""
    if isinstance(members[0], LinearMap):
        return maps.stack(members)
    if isinstance(members[0], AlgebraElement):
        return alg.stack(members)
    return np.array(members)[:, None, None]


@pytest.mark.parametrize("case", KERNEL_SHAPES)
def test_every_map_method_acts_on_a_stack_member_by_member(case):
    """Each map method, property and operator, γ, τ, the source transpose,
    the Bayes residual, classify_solution and reverse_orientation: on stacks
    of three they give the bits of the three calls on the members, and on
    one member they keep their Python type."""
    source, target = KERNEL_SHAPES[case]
    rng = rng_for("stack-contract", list(KERNEL_SHAPES).index(case))
    tshape = source.tensor(target)
    channels = [sampling.random_cptp(source, target, rng) for _ in range(3)]
    es = [channels[0], random_map(source, target, rng), channels[2]]
    others = [random_map(source, target, rng) for _ in range(3)]
    backs = [random_map(target, source, rng) for _ in range(3)]
    rhos = [sampling.random_state(source, rng) for _ in range(3)]
    ts = [maps.unvec(tshape, rng.normal(size=tshape.vector_dim)
                     + 1j * rng.normal(size=tshape.vector_dim)) for _ in range(3)]
    family = sot.LeiferSpekkens()
    xs = [bayes.closed_form_bayes(family, e, rho) for e, rho in zip(channels, rhos)]
    calls = {
        "compose": (LinearMap.compose, backs, es),
        "+": (LinearMap.__add__, es, others),
        "-": (LinearMap.__sub__, es, others),
        "scalar *": (lambda e: (0.3 - 0.2j) * e, es),
        "array *": (lambda w, e: w * e, list(rng.normal(size=3)), es),
        "hs_adjoint": (LinearMap.hs_adjoint, es),
        "tilde": (LinearMap.tilde, es),
        "tp_defect": (LinearMap.tp_defect, es),
        "is_tp": (lambda e: e.is_tp, es),
        "is_dagger_preserving": (lambda e: e.is_dagger_preserving, es),
        "is_cp": (lambda e: e.is_cp, es),
        "is_unital": (lambda e: e.is_unital, es),
        "is_cptp": (lambda e: e.is_cptp, es),
        "classify_solution": (bayes.classify_solution, es),
        "gamma": (maps.swap_gamma, ts),
        "tau": (maps.time_reversal_tau, ts),
        "source transpose": (maps._source_transpose, ts),
        "bayes_residual": (lambda *args: bayes.bayes_residual(family, *args),
                           xs, channels, rhos),
        "reverse_orientation": (lambda *args: sot.reverse_orientation(family, *args),
                                channels, rhos),
    }
    for name, (call, *members) in calls.items():
        singles = [call(*args) for args in zip(*members)]
        got = call(*map(stacked, members))
        if isinstance(got, LinearMap):
            assert (got.source, got.target) == (singles[0].source, singles[0].target), name
            assert np.array_equal(got.matrix, [m.matrix for m in singles]), name
        elif isinstance(got, AlgebraElement):
            assert all(map(same_element, alg.unstack(got), singles)), name
        else:
            assert type(singles[0]) in (bool, float, str), name
            assert got.shape == (3,) and np.array_equal(got, singles), name
    assert {bayes.classify_solution(e) for e in es} == {"CPTP", "TP-only"}


def test_an_array_scalar_times_a_map_is_the_stack_of_scaled_maps(rng):
    e = sampling.random_cptp(SHAPE_A, SHAPE_C, rng)
    weights = np.array([0.5, -0.25j])[:, None, None]
    for scaled in (weights * e, e * weights):
        assert isinstance(scaled, LinearMap) and scaled.matrix.shape == (2, *e.matrix.shape)
        assert np.array_equal(scaled.matrix, [0.5 * e.matrix, -0.25j * e.matrix])


@pytest.mark.parametrize("weights", [np.array([0.5, 2.0]), np.array([0.5, 2.0, 1.0])],
                         ids=["len-2", "len-3"])
def test_a_weight_array_without_its_unit_axes_is_refused(weights):
    """A per-member weight array needs its two unit axes: without them it
    would scale the columns of one map or element (length 2 on 2×2
    blocks), or fail in numpy's broadcasting (length 3)."""
    e = maps.identity_map(alg.classical_algebra(2))
    rho = alg.identity(alg.matrix_algebra(2, "a"))
    for operand in (e, rho):
        for product in (lambda: weights * operand, lambda: operand * weights):
            with pytest.raises(ShapeMismatchError, match="two trailing unit axes"):
                product()


def test_scalar_and_padded_weights_keep_their_bits(rng):
    """Numbers, 0-d arrays and weights padded by two unit axes scale as
    numpy does: the factors the library itself multiplies by."""
    e = sampling.random_cptp(SHAPE_A, SHAPE_C, rng)
    rho = sampling.random_state(SHAPE_A, rng)
    lam = np.array([0.3, 0.8])[:, None, None]
    for w in (0.5, 1.0 - 0.25, -0.25j, np.float64(0.7), np.array(0.7), lam):
        assert np.array_equal((w * e).matrix, w * e.matrix)
        assert np.array_equal((e * w).matrix, w * e.matrix)
        assert all(np.array_equal(got, w * block) for got, block in zip((w * rho).data, rho.data))


@pytest.mark.parametrize("case", KERNEL_SHAPES)
def test_tau_and_gamma_give_the_bits_of_the_copying_kernels(case):
    source, target = KERNEL_SHAPES[case]
    rng = rng_for("tau-gamma-bits", list(KERNEL_SHAPES).index(case))
    tshape = source.tensor(target)
    t = maps.unvec(tshape, rng.normal(size=tshape.vector_dim)
                   + 1j * rng.normal(size=tshape.vector_dim))
    assert same_element(maps.time_reversal_tau(t), swap_dagger_tau(t))
    assert same_element(maps.swap_gamma(t), copying_swap_gamma(t))
    assert copying_norm(t) == t.norm()
    with pytest.raises(ShapeMismatchError, match="swap_gamma needs a tensor-shaped element"):
        maps.time_reversal_tau(sampling.random_hermitian(source, rng))


def test_norm_gives_the_bits_of_the_copying_kernel_on_a_stack(rng):
    t = sampling.state(SHAPE_A, tuple(np.stack([rng.normal(size=(5, d, d)),
                                                rng.normal(size=(5, d, d))], axis=1)
                                      for d in SHAPE_A.dims))
    assert np.array_equal(t.norm(), copying_norm(t))


@pytest.mark.parametrize("case", KERNEL_SHAPES)
def test_sandwich_rows_give_the_bits_of_the_copying_kernel(case):
    source, target = KERNEL_SHAPES[case]
    rng = rng_for("sandwich-rows-bits", list(KERNEL_SHAPES).index(case))
    matrix = random_map(target, source, rng).matrix  # rows in source coordinates
    f, g = (sampling.random_hermitian(source, rng) for _ in range(2))
    for terms in (((1.0, f, g),), ((0.5, f, None), (0.5, None, g)),
                  ((0.3, f, g), (0.7, g, f)), ((1.0, None, g),)):
        for transpose in (False, True):
            want = copying_sandwich_rows(terms, matrix, source, transpose)
            got = maps.sandwich_rows(terms, matrix, source, transpose)
            assert got.flags.c_contiguous and np.array_equal(got, want)
    fortran = np.asfortranarray(matrix)  # copied C-ordered before the kernel
    terms = ((1.0, f, None),)
    assert np.array_equal(maps.sandwich_rows(terms, fortran, source),
                          copying_sandwich_rows(terms, fortran, source))


@pytest.mark.parametrize("family", [sot.LeiferSpekkens(), sot.TRotated(0.3),
                                    sot.SymmetricBloom(), sot.RightBloom(),
                                    sot.RSFamily(0.3, 0.7)], ids=lambda f: f.tag)
@pytest.mark.parametrize("hybrid", [False, True])
def test_sandwich_on_stacks_of_256_gives_the_bits_of_the_copying_kernel(family, hybrid):
    """sot._sandwich, the certification table's path, at d = 2."""
    source = AlgebraShape([("a", 2), ("x", 1)]) if hybrid else alg.matrix_algebra(2, "a")
    target = alg.matrix_algebra(2, "b")
    rng = rng_for(f"sandwich-stack-bits-{family.tag}", int(hybrid))
    e = maps.stack([sampling.random_cptp(source, target, rng) for _ in range(256)])
    rho = alg.stack([sampling.random_state(source, rng) for _ in range(256)])
    got = sot._sandwich(family.terms(rho), e)
    with copying_kernels():
        want = sot._sandwich(family.terms(rho), e)
    assert same_element(got, want)
    x = rng.normal(size=(256, 2, 4)) + 1j * rng.normal(size=(256, 2, 4))
    side = rho.data[0]
    terms = ((0.4, side, None), (0.6, None, side))
    assert np.array_equal(maps.sandwich(terms, x, 2), copying_sandwich(terms, x, 2))

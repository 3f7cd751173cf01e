"""Block-diagonal algebra elements: construction, arithmetic, tensor
products, partial traces, and spectral calculus, cross-checked against plain
numpy on dense single blocks."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsot import algebra as alg, axioms, sampling
from qsot.algebra import AlgebraElement, AlgebraShape, SpectralDecomposition
from qsot.config import GROUP_TOL
from qsot.errors import (ConstraintError, FaithfulnessError, NotAStateError,
                         NotHermitianError, ShapeMismatchError)

from conftest import dense_partial_trace, rng_for

ATOL = 1e-12


# ------------------------------------------------------------------- shapes
def test_shape_preserves_block_order_and_dimensions():
    shape = AlgebraShape([("a", 2), ("b", 3)])
    assert shape.labels == ("a", "b")
    assert shape.dims == (2, 3)
    assert shape.total_dim == 5
    assert shape.vector_dim == 4 + 9
    assert shape.index("b") == 1 and shape.dim_of("b") == 3


def test_shape_equality_and_hash():
    s1 = AlgebraShape([("x0", 2), ("x1", 1)])
    s2 = AlgebraShape([("x0", 2), ("x1", 1)])
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1 != alg.matrix_algebra(2)


def test_tensor_shape_blocks_are_sorted_by_label():
    left = AlgebraShape([("b", 2), ("a", 2)])
    right = alg.matrix_algebra(2, "c")
    keys = [alg.label_key(l) for l in left.tensor(right).labels]
    assert keys == sorted(keys)


def test_tensor_shape_is_built_once_per_right_shape():
    a = AlgebraShape([("a0", 2), ("a1", 1)])
    b = AlgebraShape([("b0", 3), ("b1", 1)])
    assert a.tensor(b) is a.tensor(b)
    twin = AlgebraShape([("b0", 3), ("b1", 1)])
    assert twin is not b and a.tensor(twin) == a.tensor(b)
    assert a.tensor(twin).pairs == a.tensor(b).pairs
    assert b.tensor(a) != a.tensor(b)


def test_kept_tensor_shape_follows_the_right_factor_nesting():
    # (x⊗y)⊗z and x⊗(y⊗z) have equal blocks but factors that split differently
    x, y, z = (alg.matrix_algebra(2, label) for label in "xyz")
    left_nested, right_nested = x.tensor(y).tensor(z), x.tensor(y.tensor(z))
    assert left_nested != right_nested
    q = alg.matrix_algebra(2, "q")
    assert q.tensor(left_nested).factors[1].factors == (x.tensor(y), z)
    assert q.tensor(right_nested).factors[1].factors == (x, y.tensor(z))


def test_classical_algebra_is_all_one_dim_blocks():
    shape = alg.classical_algebra(4)
    assert shape.dims == (1, 1, 1, 1)
    assert len(set(shape.labels)) == 4


def test_tensor_shape_labels_pair_up():
    shape = alg.matrix_algebra(2, "a").tensor(alg.classical_algebra(2, "y"))
    assert shape.dims == (2, 2)
    assert all(isinstance(l, tuple) and len(l) == 2 for l in shape.labels)


def test_shape_is_immutable():
    shape = alg.matrix_algebra(2)
    with pytest.raises(AttributeError):
        shape.blocks = ()


# ----------------------------------------------------------------- elements
def test_element_block_dim_mismatch_rejected():
    shape = alg.matrix_algebra(2)
    with pytest.raises(ShapeMismatchError):
        AlgebraElement(shape, (np.eye(3, dtype=complex),))


def test_public_construction_checks_and_library_blocks_are_read_only(rng):
    shape = AlgebraShape([("a", 2), ("b", 1)])
    with pytest.raises(ShapeMismatchError, match="block count"):
        AlgebraElement(shape, (np.eye(2),))
    with pytest.raises(ShapeMismatchError, match="has shape"):
        AlgebraElement(shape, (np.eye(2), np.eye(2)))
    with pytest.raises(ShapeMismatchError, match="has shape"):
        AlgebraElement(shape, (np.eye(2)[None], np.eye(1)[None]))  # no stacks either
    public = AlgebraElement(shape, (np.eye(2, dtype=int), [[3]]))
    assert all(m.dtype == complex for m in public.data)
    x = sampling.random_state(shape, rng)
    y = sampling.random_hermitian(shape, rng)
    built = [x, x + y, x - y, -x, 0.5 * x, x @ y, x.dagger(), x.conj(), alg.identity(shape),
             alg.zero(shape), alg.power(x, 0.5), alg.support_unitary(x, 0.3),
             alg.tensor(x, y), alg.partial_trace(alg.tensor(x, y), "A"),
             alg.diagonal_element(shape, [0.5, 0.25, 0.25])]
    for element in built:
        for block in element.data:
            assert block.dtype == complex and not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 1.0


def test_this_numpy_build_gives_stacked_linalg_equal_to_per_matrix_calls(rng):
    """The premise of exact replay from stacks: numpy's stacked qr, eigh,
    eigvalsh, svd, @ and matvec equal per-matrix calls bit for bit, on the
    certification table's shapes, the product-vector search's form shapes,
    the map shapes of a stacked map call and of the lifted F of a stacked
    associativity check (a stack times one matrix) and, for svd, the square
    shapes of a stacked Bayes solve, on stacks as long as the sweep's
    chunks.  The search takes stacked eigh only in factors of dimension 3
    and more; its 1×1 and 2×2 forms are closed-form.  A numpy or LAPACK
    build that breaks it fails here."""
    def ginibre(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    chunk = axioms.CHUNK_TRIALS
    for rows, cols in ((4, 2), (6, 2), (6, 1)):
        stack = ginibre(chunk, rows, cols)
        q, r = np.linalg.qr(stack)
        for k, g in enumerate(stack):
            qk, rk = np.linalg.qr(g)
            assert np.array_equal(q[k], qk) and np.array_equal(r[k], rk), (rows, cols)
    for d in (1, 2, 3, 4, 9):
        g = ginibre(chunk, d, d)
        herm = (g + g.conj().swapaxes(-1, -2)) / 2
        vals, vecs = np.linalg.eigh(herm)
        only = np.linalg.eigvalsh(herm)
        product = g @ herm
        for k in range(len(g)):
            vk, wk = np.linalg.eigh(herm[k])
            assert np.array_equal(vals[k], vk) and np.array_equal(vecs[k], wk), d
            assert np.array_equal(only[k], np.linalg.eigvalsh(herm[k])), d
            assert np.array_equal(product[k], g[k] @ herm[k]), d
    for rows, inner, cols in ((20, 4, 4), (1, 4, 1), (1, 1, 4), (20, 4, 9), (20, 9, 9)):
        x, y = ginibre(chunk, rows, inner), ginibre(chunk, inner, cols)
        product = x @ y
        for k in range(len(x)):
            assert np.array_equal(product[k], x[k] @ y[k]), (rows, inner, cols)
    # F∘tr_A for a stack of F: B→C and the one tr_A, at dims (2, 2) and (2, 3)
    for rows, cols in ((4, 16), (9, 36)):
        x, y = ginibre(chunk, rows, rows), ginibre(rows, cols)
        product = x @ y
        for k in range(len(x)):
            assert np.array_equal(product[k], x[k] @ y), (rows, cols)
    # the stacked matvec of a map call, on the table's map shapes Σd²
    for rows, cols in itertools.product((4, 5, 9, 16), repeat=2):
        m, v = ginibre(chunk, rows, cols), ginibre(chunk, cols)
        product, broadcast = (m @ v[..., None])[..., 0], (m[0] @ v[..., None])[..., 0]
        for k in range(len(m)):
            assert np.array_equal(product[k], m[k] @ v[k]), (rows, cols)
            assert np.array_equal(broadcast[k], m[0] @ v[k]), (rows, cols)
        assert np.array_equal((m[0] @ v[0][:, None])[:, 0], m[0] @ v[0]), (rows, cols)
    for n in (4, 9, 16):
        stack = ginibre(16, n, n)
        u, sv, vh = np.linalg.svd(stack)
        for k, g in enumerate(stack):
            uk, sk, vhk = np.linalg.svd(g)
            assert (np.array_equal(u[k], uk) and np.array_equal(sv[k], sk)
                    and np.array_equal(vh[k], vhk)), n


def test_stacks_are_elementwise(rng):
    """A stack's blockwise operations, functional calculus and per-element
    reductions equal those of its members, bit for bit."""
    shape = AlgebraShape([("a", 3), ("b", 1)])
    xs = [sampling.random_state(shape, rng) for _ in range(5)]
    ys = [sampling.random_hermitian(shape, rng) for _ in range(5)]
    x, y = alg.stack(xs), alg.stack(ys)
    lam = np.linspace(0.2, 0.8, 5)
    stacked = [x + y, x - y, lam[:, None, None] * x, x @ y, x.dagger(), alg.power(x, 0.5),
               alg.power(x, 0.5 - 0.3j), alg.support_unitary(x, 0.3)]
    alone = [[a + b, a - b, w * a, a @ b, a.dagger(), alg.power(a, 0.5),
              alg.power(a, 0.5 - 0.3j), alg.support_unitary(a, 0.3)]
             for a, b, w in zip(xs, ys, lam)]
    for k, members in enumerate(zip(*alone)):
        for got, want in zip(alg.unstack(stacked[k]), members):
            assert all(np.array_equal(g, w) for g, w in zip(got.data, want.data)), k
    for method in ("trace", "norm", "min_eigenvalue"):
        assert getattr(y, method)().tolist() == [getattr(b, method)() for b in ys], method
    assert y.is_hermitian().tolist() == [True] * 5
    assert (x @ y).is_hermitian().tolist() == [(a @ b).is_hermitian() for a, b in zip(xs, ys)]
    with pytest.raises(NotAStateError):
        alg.power(alg.stack([xs[0], -xs[1]]), 0.5)  # one bad member fails the stack


def test_a_stack_of_none_or_of_mixed_shapes_is_refused():
    """An empty list has no shape to stack on, and elements of two shapes,
    even of one block size, are no stack."""
    a, b = alg.matrix_algebra(2, "a"), alg.matrix_algebra(2, "b")
    with pytest.raises(ShapeMismatchError):
        alg.stack([])
    for mixed in ([alg.identity(a), alg.identity(b)], [alg.identity(a), alg.identity(a.tensor(b))]):
        with pytest.raises(ShapeMismatchError):
            alg.stack(mixed)
    assert alg.stack([alg.identity(a)] * 3).shape == a


def test_stacked_tensor_equals_per_element_tensors(rng):
    """tensor on stacks broadcasts over the leading axes, and each member
    equals the tensor of its factors, bit for bit."""
    left, right = AlgebraShape([("a", 3), ("b", 1)]), AlgebraShape([("c", 2), ("d", 2)])
    xs = [sampling.random_hermitian(left, rng) for _ in range(4)]
    ys = [sampling.random_state(right, rng) for _ in range(4)]
    one = sampling.random_hermitian(right, rng)
    cases = [(alg.stack(xs), alg.stack(ys), zip(xs, ys)),
             (alg.stack(xs), one, ((x, one) for x in xs)),
             (one, alg.stack(xs), ((one, x) for x in xs))]
    for a, b, pairs in cases:
        stacked = alg.tensor(a, b)
        assert stacked.shape == a.shape.tensor(b.shape)
        for got, pair in zip(alg.unstack(stacked), pairs, strict=True):
            want = alg.tensor(*pair)
            assert all(np.array_equal(g, w) for g, w in zip(got.data, want.data))


def test_arithmetic_matches_numpy(rng):
    shape = AlgebraShape([("a", 2), ("b", 3)])
    x = sampling.random_hermitian(shape, rng)
    y = sampling.random_hermitian(shape, rng)
    np.testing.assert_allclose((x + y).data[0], x.data[0] + y.data[0], atol=ATOL)
    np.testing.assert_allclose((x - y).data[1], x.data[1] - y.data[1], atol=ATOL)
    np.testing.assert_allclose((2.5 * x).data[0], 2.5 * x.data[0], atol=ATOL)
    np.testing.assert_allclose((x @ y).data[1], x.data[1] @ y.data[1], atol=ATOL)
    np.testing.assert_allclose((-x).data[0], -x.data[0], atol=ATOL)
    assert abs(x.trace() - (np.trace(x.data[0]) + np.trace(x.data[1]))) < ATOL
    expected_norm = np.sqrt(np.linalg.norm(x.data[0]) ** 2
                            + np.linalg.norm(x.data[1]) ** 2)
    assert abs(x.norm() - expected_norm) < ATOL


def test_dagger_and_hermiticity(rng):
    shape = alg.matrix_algebra(3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = AlgebraElement(shape, (m,))
    np.testing.assert_allclose(x.dagger().data[0], m.conj().T, atol=ATOL)
    assert not x.is_hermitian()
    assert (x + x.dagger()).is_hermitian()


def test_identity_zero_basis_vector():
    shape = AlgebraShape([("a", 2), ("b", 1)])
    one = alg.identity(shape)
    assert abs(one.trace() - 3) < ATOL
    assert alg.zero(shape).norm() == 0.0
    delta = alg.basis_vector(shape, "b")
    assert abs(delta.trace() - 1) < ATOL
    assert np.all(delta.data[0] == 0)


def test_diagonal_and_classical_state():
    probs = [0.1, 0.2, 0.7]
    state = alg.classical_state(probs)
    assert state.shape.dims == (1, 1, 1)
    np.testing.assert_allclose([m[0, 0].real for m in state.data], probs)
    shape = alg.matrix_algebra(3)
    diag = alg.diagonal_element(shape, probs)
    np.testing.assert_allclose(diag.data[0], np.diag(probs), atol=ATOL)


# ------------------------------------------------------- tensor and traces
def test_tensor_is_kron_on_single_blocks(rng):
    a = sampling.random_hermitian(alg.matrix_algebra(2, "a"), rng)
    b = sampling.random_hermitian(alg.matrix_algebra(3, "b"), rng)
    t = alg.tensor(a, b)
    np.testing.assert_allclose(t.data[0], np.kron(a.data[0], b.data[0]), atol=ATOL)


def test_tensor_equals_kron_bit_for_bit_on_blocky_complex_elements(rng):
    a = sampling.random_unitary_element(AlgebraShape([("a0", 3), ("a1", 1), ("a2", 2)]), rng)
    b = sampling.random_state(AlgebraShape([("b0", 2), ("b1", 1)]), rng)
    t = alg.tensor(a, b)
    assert len(t.data) == 6
    for (i, j), mat in zip(t.shape.pairs, t.data):
        assert np.array_equal(mat, np.kron(a.data[i], b.data[j]))


def test_partial_trace_matches_dense_oracle(rng):
    da, db = 2, 3
    a = alg.matrix_algebra(da, "a")
    b = alg.matrix_algebra(db, "b")
    t = sampling.random_state(a.tensor(b), rng)
    mat = t.data[0]
    np.testing.assert_allclose(alg.partial_trace(t, "B").data[0],
                               dense_partial_trace(mat, da, db, "B"), atol=ATOL)
    np.testing.assert_allclose(alg.partial_trace(t, "A").data[0],
                               dense_partial_trace(mat, da, db, "A"), atol=ATOL)


def test_partial_trace_of_product_recovers_factors(rng):
    shape_a = AlgebraShape([("a", 2), ("c", 1)])
    shape_b = alg.matrix_algebra(2, "b")
    rho = sampling.random_state(shape_a, rng)
    sig = sampling.random_state(shape_b, rng)
    t = alg.tensor(rho, sig)
    assert (alg.partial_trace(t, "B") - rho).norm() < 1e-10
    assert (alg.partial_trace(t, "A") - sig).norm() < 1e-10


@pytest.mark.parametrize("side", ["A", "B"])
def test_stacked_partial_trace_equals_each_members(side, rng):
    """A stack's partial trace is its members', bit for bit, with factor
    blocks of dimension 1 to 4 summed over."""
    left = AlgebraShape([("a", 3), ("c", 1)])
    right = AlgebraShape([("b", 4), ("d", 2)])
    members = [sampling.random_hermitian(left.tensor(right), rng) for _ in range(7)]
    stacked = alg.partial_trace(alg.stack(members), side)
    assert stacked.shape == (right if side == "A" else left)
    for got, member in zip(alg.unstack(stacked), members, strict=True):
        want = alg.partial_trace(member, side)
        assert all(np.array_equal(g, w) for g, w in zip(got.data, want.data))


def test_reassociate_left_to_right_on_kron(rng):
    a = sampling.random_hermitian(alg.matrix_algebra(2, "a"), rng)
    b = sampling.random_hermitian(alg.matrix_algebra(2, "b"), rng)
    c = sampling.random_hermitian(alg.matrix_algebra(2, "c"), rng)
    left = alg.tensor(alg.tensor(a, b), c)
    right = alg.tensor(a, alg.tensor(b, c))
    moved = alg.reassociate_left_to_right(left)
    assert moved.shape == right.shape
    assert moved.shape.factors == right.shape.factors
    assert (moved - right).norm() < 1e-10


# ------------------------------------------------------- spectral calculus
def reconstruct(sd: SpectralDecomposition) -> AlgebraElement:
    """Σ λ P over the groups of a decomposition, member by member of a stack."""
    out = alg.zero(sd.projectors[0].shape)
    for lam, proj in zip(sd.eigenvalues, sd.projectors):
        out = out + np.asarray(lam)[..., None, None] * proj
    return out


def test_spectral_decompose_reconstructs(rng):
    shape = AlgebraShape([("a", 3), ("b", 2)])
    x = sampling.random_hermitian(shape, rng)
    sd = alg.spectral_decompose(x)
    assert (reconstruct(sd) - x).norm() < 1e-10
    # projectors are idempotent, orthogonal, and complete
    total = alg.zero(shape)
    for i, p in enumerate(sd.projectors):
        assert (p @ p - p).norm() < 1e-10
        total = total + p
        for q in sd.projectors[i + 1:]:
            assert (p @ q).norm() < 1e-10
    assert (total - alg.identity(shape)).norm() < 1e-10


def test_spectral_decompose_groups_degenerate_eigenvalues():
    shape = alg.matrix_algebra(3)
    x = alg.diagonal_element(shape, [0.4, 0.4, 0.2])
    sd = alg.spectral_decompose(x)
    assert len(sd.eigenvalues) == 2
    # a gap just within GROUP_TOL joins a group, one just beyond does not
    close = alg.diagonal_element(shape, [0.2, 0.4, 0.4 + 0.5 * GROUP_TOL])
    apart = alg.diagonal_element(shape, [0.2, 0.4, 0.4 + 2.0 * GROUP_TOL])
    assert len(alg.spectral_decompose(close).eigenvalues) == 2
    assert len(alg.spectral_decompose(apart).eigenvalues) == 3
    assert len(alg.spectral_decompose(apart, group_tol=1e-3).eigenvalues) == 2


def assert_same_decomposition(got, want):
    assert len(got.eigenvalues) == len(want.eigenvalues)
    for lam, mu in zip(got.eigenvalues, want.eigenvalues):
        assert np.array_equal(lam, mu)
    for p, q in zip(got.projectors, want.projectors):
        assert all(np.array_equal(a, b) for a, b in zip(p.data, q.data))


def test_spectral_decompose_of_a_stack_of_one_is_the_element_s(rng):
    shape = AlgebraShape([("a", 3), ("b", 2)])
    for x in (sampling.random_hermitian(shape, rng), alg.identity(shape),
              alg.diagonal_element(shape, [0.4, 0.2, 0.4, 0.2, 0.1])):
        alone = alg.spectral_decompose(x)
        assert all(type(lam) is float for lam in alone.eigenvalues)
        one = alg.spectral_decompose(alg.stack([x]))
        assert_same_decomposition(
            SpectralDecomposition(tuple(lam[0] for lam in one.eigenvalues),
                                  tuple(alg.unstack(p)[0] for p in one.projectors)), alone)


def test_spectral_decompose_groups_each_member_of_a_stack(rng):
    """Each member keeps its own groups; a member with fewer groups has
    eigenvalue 0 and projector 0 in the groups past its own."""
    shape = AlgebraShape([("a", 3), ("b", 1)])
    xs = [sampling.random_hermitian(shape, rng), alg.identity(shape),
          alg.diagonal_element(shape, [0.3, 0.3, 0.1, 0.3])]
    stacked = alg.spectral_decompose(alg.stack(xs))
    assert len(stacked.eigenvalues) == 4
    for k, x in enumerate(xs):
        alone = alg.spectral_decompose(x)
        groups = len(alone.eigenvalues)
        member = SpectralDecomposition(
            tuple(lam[k] for lam in stacked.eigenvalues[:groups]),
            tuple(alg.unstack(p)[k] for p in stacked.projectors[:groups]))
        assert_same_decomposition(member, alone)
        for lam, p in zip(stacked.eigenvalues[groups:], stacked.projectors[groups:]):
            assert lam[k] == 0.0 and alg.unstack(p)[k].norm() == 0.0
        assert (alg.unstack(reconstruct(stacked))[k] - x).norm() < 1e-10


def test_spectral_decompose_refuses_a_stack_with_one_non_hermitian_member(rng):
    shape = alg.matrix_algebra(2)
    x = sampling.random_hermitian(shape, rng)
    with pytest.raises(NotHermitianError):
        alg.spectral_decompose(alg.stack([x, x + 1j * alg.identity(shape)]))


def test_power_square_root(rng):
    rho = sampling.random_state(AlgebraShape([("a", 3), ("b", 2)]), rng)
    root = alg.power(rho, 0.5)
    assert (root @ root - rho).norm() < 1e-10


def test_power_inverse_on_support(rng):
    shape = alg.matrix_algebra(3)
    rho = sampling.random_state(shape, rng)
    inv = alg.power(rho, -1.0)
    assert (rho @ inv - alg.identity(shape)).norm() < 1e-8


def test_power_complex_exponent_is_unitary_phase(rng):
    shape = alg.matrix_algebra(2)
    rho = sampling.random_state(shape, rng)
    u = alg.power(rho, 1j * 0.7)  # rho^{it} is unitary for faithful rho
    assert (u @ u.dagger() - alg.identity(shape)).norm() < 1e-10


def test_power_strict_rejects_singular():
    shape = alg.matrix_algebra(2)
    rho = alg.diagonal_element(shape, [1.0, 0.0])
    with pytest.raises(FaithfulnessError):
        alg.power(rho, -0.5, strict=True)


def test_power_requires_hermitian(rng):
    shape = alg.matrix_algebra(2)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    with pytest.raises(NotHermitianError):
        alg.power(AlgebraElement(shape, (m,)), 0.5)


def test_support_unitary_commutes_with_state(rng):
    rho = sampling.random_state(alg.matrix_algebra(3), rng)
    u = alg.support_unitary(rho, 0.37)
    assert (u @ u.dagger() - alg.identity(rho.shape)).norm() < 1e-10
    assert alg.commutator(u, rho).norm() < 1e-10


def test_jordan_and_commutator(rng):
    shape = alg.matrix_algebra(2)
    a = sampling.random_hermitian(shape, rng)
    b = sampling.random_hermitian(shape, rng)
    np.testing.assert_allclose(
        alg.jordan(a, b).data[0],
        a.data[0] @ b.data[0] + b.data[0] @ a.data[0], atol=ATOL)
    np.testing.assert_allclose(
        alg.commutator(a, b).data[0],
        a.data[0] @ b.data[0] - b.data[0] @ a.data[0], atol=ATOL)


def test_assert_state_accepts_states_and_rejects_others(rng):
    shape = alg.matrix_algebra(2)
    alg.assert_state(sampling.random_state(shape, rng))
    with pytest.raises(NotAStateError):
        alg.assert_state(alg.diagonal_element(shape, [1.5, -0.5]))
    with pytest.raises(NotAStateError):
        alg.assert_state(alg.identity(shape))  # trace 2


def test_assert_state_on_a_stack_quotes_its_first_bad_member(rng):
    shape = alg.matrix_algebra(2)
    good = sampling.random_state(shape, rng)
    assert alg.assert_state(alg.stack([good, good])).data[0].shape == (2, 2, 2)
    with pytest.raises(NotAStateError, match=r"trace 2\.000000\+0\.000000j != 1"):
        alg.assert_state(alg.stack([good, alg.identity(shape), 3.0 * good]))
    with pytest.raises(NotAStateError, match=r"eigenvalue -5\.000e-01 < 0"):
        alg.assert_state(alg.diagonal_element(shape, [[0.5, 0.5], [1.5, -0.5]]))


# ------------------------------------------------------------ property tests
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_min_eigenvalue_matches_numpy(dim, seed):
    rng = np.random.default_rng(seed)
    shape = alg.matrix_algebra(dim)
    x = sampling.random_hermitian(shape, rng)
    want = float(np.min(np.linalg.eigvalsh(x.data[0])))
    assert abs(x.min_eigenvalue() - want) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10**6))
def test_partial_trace_preserves_trace(da, db, seed):
    rng = np.random.default_rng(seed)
    t = sampling.random_state(
        alg.matrix_algebra(da, "a").tensor(alg.matrix_algebra(db, "b")), rng)
    for side in ("A", "B"):
        reduced = alg.partial_trace(t, side)
        assert abs(reduced.trace() - t.trace()) < 1e-10

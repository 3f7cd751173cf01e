"""Multi-matrix algebras and their elements.

An algebra is a finite direct sum of full complex matrix algebras.  A shape
records the labelled block structure ``[(label, dim), ...]``; an element
stores one dense complex matrix per block.  Commutative algebras are the
special case where every block has dimension 1, so classical probability
distributions and stochastic maps live in the same representation as density
matrices and channels.

Tensor products of shapes carry their two factors, and for each block the
indices of the factor blocks it is made of, so that partial traces, swaps and
channel states know how to split each block without looking labels up.  Block
labels of a tensor shape are ``(label_left, label_right)`` pairs, kept in
lexicographic order of the flattened label tuples.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .config import (ATOL, FAITHFULNESS_TOL, GROUP_TOL, HERM_TOL, POWER_HERM_TOL,
                     STATE_HERM_TOL, STATE_TOL)
from .errors import (
    FaithfulnessError,
    NotAStateError,
    NotHermitianError,
    ShapeMismatchError,
)

Label = object  # opaque token: a string, or a pair of labels for tensor shapes


def label_key(label: Label) -> tuple:
    """Flatten a (possibly nested-pair) label into a sortable tuple of strings."""
    if isinstance(label, tuple):
        out: list[str] = []
        for part in label:
            out.extend(label_key(part))
        return tuple(out)
    return (str(label),)


def label_text(label: Label) -> str:
    """Canonical flat string for a label; tensor pairs join with '⊗'."""
    return "⊗".join(label_key(label))


class AlgebraShape:
    """Block structure of a multi-matrix algebra.

    Immutable.  ``factors`` is ``None`` for plain shapes and a pair of shapes
    for tensor-product shapes; a tensor shape also records ``pairs``, the
    indices (i, j) of the left and right factor blocks that make up each of
    its blocks, so tensor bookkeeping walks indices instead of labels.  Equal
    shapes have equal blocks and factors, so (x⊗y)⊗z != x⊗(y⊗z).  The
    tensor shapes built from a shape are kept on it (``tensor``).
    """

    __slots__ = ("blocks", "labels", "dims", "factors", "pairs", "_keys", "_index",
                 "_blocks_of", "_hash", "_tensors")

    def __init__(self, blocks: Iterable[tuple[Label, int]],
                 factors: tuple["AlgebraShape", "AlgebraShape"] | None = None):
        blocks = tuple((label, int(dim)) for label, dim in blocks)
        if not blocks:
            raise ShapeMismatchError("a shape needs at least one block")
        if any(dim < 1 for _, dim in blocks):
            raise ShapeMismatchError("every block dimension must be >= 1")
        labels, dims = zip(*blocks)
        keys = tuple(map(label_key, labels))
        index = {key: i for i, key in enumerate(keys)}
        if len(index) != len(keys):
            raise ShapeMismatchError("block labels must be unique within a shape")
        pairs = None
        if factors is not None:
            left, right = factors
            pairs = tuple((left.index(la), right.index(lb)) for la, lb in labels)
        blocks_of = None if pairs is None else {p: k for k, p in enumerate(pairs)}
        for name, value in (("blocks", blocks), ("labels", labels), ("dims", dims),
                            ("factors", factors), ("pairs", pairs), ("_keys", keys),
                            ("_index", index), ("_blocks_of", blocks_of),
                            ("_hash", hash((keys, dims))), ("_tensors", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("AlgebraShape is immutable")

    def __reduce__(self):  # rebuilt through __init__, as slots cannot be set
        return AlgebraShape, (self.blocks, self.factors)

    def index(self, label: Label) -> int:
        return self._index[label_key(label)]

    def dim_of(self, label: Label) -> int:
        return self.dims[self.index(label)]

    def block_of(self, i: int, j: int) -> int:
        """The block of a tensor shape made of left factor block i and right j."""
        return self._blocks_of[(i, j)]

    # Total dimension of the underlying Hilbert space (sum of block dims) and
    # of the algebra as a vector space (sum of squared block dims).
    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def vector_dim(self) -> int:
        return sum(d * d for d in self.dims)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, AlgebraShape):
            return NotImplemented
        return (self._keys == other._keys and self.dims == other.dims
                and self.factors == other.factors)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = " ⊕ ".join(f"M{d}[{label_text(l)}]" for l, d in self.blocks)
        return f"AlgebraShape({inner})"

    def tensor(self, other: "AlgebraShape") -> "AlgebraShape":
        """The tensor shape self ⊗ other, built once per equal right shape."""
        kept = self._tensors.get(other)
        if kept is not None:
            return kept
        # label_key((la, lb)) is the concatenation of the factors' keys
        order = sorted(((i, j) for i in range(len(self.dims)) for j in range(len(other.dims))),
                       key=lambda p: self._keys[p[0]] + other._keys[p[1]])
        kept = self._tensors[other] = AlgebraShape(
            (((self.labels[i], other.labels[j]), self.dims[i] * other.dims[j])
             for i, j in order), factors=(self, other))
        return kept


def matrix_algebra(dim: int, label: Label = "q0") -> AlgebraShape:
    """A single full matrix block M_dim."""
    return AlgebraShape([(label, dim)])


def classical_algebra(n: int, prefix: str = "x") -> AlgebraShape:
    """The commutative algebra C^n with labels prefix0..prefix(n-1)."""
    return AlgebraShape([(f"{prefix}{i}", 1) for i in range(n)])


def _per_element(value, kind):
    """A per-element result: a Python scalar for one element, an array over
    the leading axes of a stack."""
    return kind(value) if np.ndim(value) == 0 else value


def _weight(scalar):
    """A scalar factor: a number, or an array padded by two unit axes."""
    if np.ndim(scalar) and np.shape(scalar)[-2:] != (1, 1):
        raise ShapeMismatchError("a weight array needs two trailing unit axes (..., 1, 1)")
    return scalar


@dataclass(frozen=True)
class AlgebraElement:
    """A block-diagonal complex matrix: one dense block per shape block.

    Library kernels may also hold a stack of elements of one shape: blocks
    with leading axes (..., d, d), built through ``_of``.  The blockwise
    operations (+, −, scalars, @, dagger, conj) act on each element of a
    stack, a scalar factor may be an array over its leading axes padded by
    two unit axes, and ``trace``, ``norm``, ``is_hermitian`` and
    ``min_eigenvalue`` return one value per element.
    """

    shape: AlgebraShape
    data: tuple[np.ndarray, ...]
    # numpy defers arithmetic with an element to the element's own operators
    __array_ufunc__ = None

    def __post_init__(self):
        if len(self.data) != len(self.shape.blocks):
            raise ShapeMismatchError("block count does not match shape")
        blocks = []
        for (label, dim), mat in zip(self.shape.blocks, self.data):
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (dim, dim):
                raise ShapeMismatchError(
                    f"block {label_text(label)} has shape {mat.shape}, expected ({dim},{dim})")
            mat.flags.writeable = False
            blocks.append(mat)
        object.__setattr__(self, "data", tuple(blocks))

    @classmethod
    def _of(cls, shape: AlgebraShape, data: Iterable[np.ndarray]) -> "AlgebraElement":
        """An element, or a stack, from complex blocks the library built: they
        are frozen, not checked again."""
        data = tuple(data)
        for mat in data:
            mat.flags.writeable = False
        element = object.__new__(cls)
        object.__setattr__(element, "shape", shape)
        object.__setattr__(element, "data", data)
        return element

    def __reduce__(self):  # rebuilt through _of, which freezes the copied blocks
        return AlgebraElement._of, (self.shape, self.data)

    # ------------------------------------------------------------------ algebra
    def _check_same_shape(self, other: "AlgebraElement"):
        if self.shape != other.shape:
            raise ShapeMismatchError("elements live on different shapes")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same_shape(other)
        return AlgebraElement._of(self.shape, (a + b for a, b in zip(self.data, other.data)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same_shape(other)
        return AlgebraElement._of(self.shape, (a - b for a, b in zip(self.data, other.data)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._of(self.shape, (-a for a in self.data))

    def __mul__(self, scalar: complex) -> "AlgebraElement":
        scalar = _weight(scalar)
        return AlgebraElement._of(self.shape, (scalar * a for a in self.data))

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Blockwise (algebra) product."""
        self._check_same_shape(other)
        return AlgebraElement._of(self.shape, (a @ b for a, b in zip(self.data, other.data)))

    def dagger(self) -> "AlgebraElement":
        return AlgebraElement._of(self.shape, (a.conj().swapaxes(-1, -2) for a in self.data))

    def trace(self) -> complex:
        return _per_element(sum(a.trace(axis1=-2, axis2=-1) for a in self.data), complex)

    def norm(self) -> float:
        """Hilbert–Schmidt (Frobenius) norm across all blocks; |a| is squared in place."""
        return _per_element(np.sqrt(sum(np.square(m := np.abs(a), out=m).sum(axis=(-2, -1))
                                        for a in self.data)), float)

    def block(self, label: Label) -> np.ndarray:
        return self.data[self.shape.index(label)]

    def is_hermitian(self, tol: float = HERM_TOL) -> bool:
        return _per_element(reduce(np.logical_and, [
            np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) <= tol
            for a in self.data]), bool)

    def conj(self) -> "AlgebraElement":
        return AlgebraElement._of(self.shape, (a.conj() for a in self.data))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the hermitian part across blocks."""
        return _per_element(reduce(np.minimum, [
            np.linalg.eigvalsh((a + a.conj().swapaxes(-1, -2)) / 2)[..., 0]
            for a in self.data]), float)


def stack(elements: Sequence[AlgebraElement]) -> AlgebraElement:
    """Elements of one shape as one stack, along a new first axis."""
    if not elements or any(a.shape != elements[0].shape for a in elements):
        raise ShapeMismatchError("a stack needs one or more elements of one shape")
    return AlgebraElement._of(elements[0].shape,
                              (np.stack(blocks) for blocks in zip(*(a.data for a in elements))))


def unstack(a: AlgebraElement) -> list[AlgebraElement]:
    """The elements of a stack along its first axis, as views of its blocks."""
    return [AlgebraElement._of(a.shape, blocks) for blocks in zip(*a.data)]


def identity(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement._of(shape, (np.eye(d, dtype=complex) for d in shape.dims))


def zero(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement._of(shape, (np.zeros((d, d), dtype=complex) for d in shape.dims))


def basis_vector(shape: AlgebraShape, label: Label) -> AlgebraElement:
    """Indicator element: identity on one block, zero elsewhere (δ_x for C^X)."""
    return from_blocks(shape, {label: np.eye(shape.dim_of(label))})


def from_blocks(shape: AlgebraShape, blocks: dict) -> AlgebraElement:
    """Build an element from a label->matrix mapping; missing blocks are zero."""
    mats = [np.zeros((d, d), dtype=complex) for d in shape.dims]
    for label, mat in blocks.items():
        mats[shape.index(label)] = np.asarray(mat, dtype=complex)
    return AlgebraElement(shape, tuple(mats))


def diagonal_element(shape: AlgebraShape, values: Sequence[float]) -> AlgebraElement:
    """Element with the given values along the concatenated block diagonals;
    values with leading axes give the stack of such elements."""
    values = np.asarray(values, dtype=complex)
    if values.shape[-1:] != (shape.total_dim,):
        raise ShapeMismatchError("diagonal length does not match total dimension")
    mats, off = [], 0
    for d in shape.dims:
        mat = np.zeros((*values.shape[:-1], d, d), dtype=complex)
        mat[..., range(d), range(d)] = values[..., off:off + d]
        mats.append(mat)
        off += d
    return AlgebraElement._of(shape, mats)


def classical_state(probs: Sequence[float]) -> AlgebraElement:
    """A probability vector as a state on C^n."""
    probs = np.asarray(probs, dtype=float)
    return diagonal_element(classical_algebra(len(probs)), probs)


# ---------------------------------------------------------------------- tensor
def tensor(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Kronecker product of elements on the tensor shape of their shapes;
    stacks broadcast over their leading axes."""
    tshape = a.shape.tensor(b.shape)
    mats = []
    for i, j in tshape.pairs:
        # the products np.kron forms, without its general-rank set-up
        kron = a.data[i][..., :, None, :, None] * b.data[j][..., None, :, None, :]
        mn = kron.shape[-4] * kron.shape[-3]
        mats.append(kron.reshape(*kron.shape[:-4], mn, mn))
    return AlgebraElement._of(tshape, mats)


def partial_trace(t: AlgebraElement, side: str) -> AlgebraElement:
    """Trace out one tensor factor; ``side`` names the factor being removed.

    ``side='B'`` removes the right factor (tr_B), ``side='A'`` the left.  A
    stack gives the stack of its members' partial traces.
    """
    tshape = t.shape
    if tshape.factors is None:
        raise ShapeMismatchError("partial_trace needs a recorded tensor shape")
    left, right = tshape.factors
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    out_shape = left if side == "B" else right
    lead = t.data[0].shape[:-2]
    mats = [np.zeros((*lead, d, d), dtype=complex) for d in out_shape.dims]
    for (i, j), mat in zip(tshape.pairs, t.data):
        four = mat.reshape(*lead, left.dims[i], right.dims[j], left.dims[i], right.dims[j])
        if side == "B":
            mats[i] += np.einsum("...ibjb->...ij", four)
        else:
            mats[j] += np.einsum("...aiaj->...ij", four)
    return AlgebraElement._of(out_shape, mats)


def reassociate_left_to_right(t: AlgebraElement) -> AlgebraElement:
    """Reinterpret an element on (A⊗B)⊗C as one on A⊗(B⊗C).

    The underlying block matrices are unchanged (Kronecker products are
    associative); only the tensor bookkeeping moves.
    """
    tshape = t.shape
    if tshape.factors is None or tshape.factors[0].factors is None:
        raise ShapeMismatchError("expected an ((A⊗B)⊗C)-shaped element")
    ab, c = tshape.factors
    a, b = ab.factors
    bc = b.tensor(c)
    target = a.tensor(bc)
    mats = [None] * len(target.dims)
    for (p, k), mat in zip(tshape.pairs, t.data):
        i, j = ab.pairs[p]
        mats[target.block_of(i, bc.block_of(j, k))] = mat
    return AlgebraElement._of(target, mats)


# -------------------------------------------------------------------- spectral
@dataclass(frozen=True)
class SpectralDecomposition:
    """Grouped eigenvalues with orthogonal projector elements; of a stack,
    one array over the stack per eigenvalue and one stack per projector."""

    eigenvalues: tuple[float, ...]
    projectors: tuple[AlgebraElement, ...]


def spectral_decompose(a: AlgebraElement, group_tol: float = GROUP_TOL) -> SpectralDecomposition:
    """Eigendecomposition with eigenvalues grouped across all blocks.

    In ascending order, an eigenvalue within ``group_tol`` of the one before
    shares its projector, so degenerate spectra yield the coarse projectors
    the compound constructions need.  A group's eigenvalue is the mean of its
    members, and its projector the sum of their eigenvector outer products
    in that order.  A stack is grouped member by member from one stacked
    ``eigh`` per block; group g of a member with fewer groups has eigenvalue
    0 and projector 0.
    """
    if not np.all(a.is_hermitian()):
        raise NotHermitianError("spectral_decompose requires a hermitian element")
    lead, dims = a.data[0].shape[:-2], a.shape.dims
    vals, vecs = zip(*(np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2) for m in a.data))
    # each member's eigen-entries in ascending order, ties in block order as
    # sorted() keeps them, with the block and eigenvector column of each
    vals = np.concatenate(vals, axis=-1).reshape(-1, sum(dims))
    order = np.argsort(vals, axis=-1, kind="stable")
    lam = np.take_along_axis(vals, order, axis=-1)
    block = np.repeat(np.arange(len(dims)), dims)[order]
    column = np.concatenate([np.arange(d) for d in dims])[order]
    joins = np.diff(lam, axis=-1) <= group_tol  # entry s + 1 joins the group of entry s
    group = np.concatenate([np.zeros((len(lam), 1), int), np.cumsum(~joins, axis=-1)], axis=-1)
    groups = int(group.max()) + 1
    means = np.zeros((len(lam), groups))
    means[np.arange(len(lam))[:, None], group] = lam  # a one-entry group's mean is its entry
    for k, g in {(k, group[k, s + 1]) for k, s in zip(*np.nonzero(joins))}:
        means[k, g] = np.mean(lam[k, group[k] == g])
    mats = []
    for b, (d, v) in enumerate(zip(dims, vecs)):
        v = v.reshape(len(lam), d, d).swapaxes(-1, -2)  # row j: eigenvector j
        acc = np.zeros((len(lam), groups, d, d), dtype=complex)
        for s in range(sum(dims)):  # a group sums its outer products in ascending order
            hit = np.nonzero(block[:, s] == b)[0]
            u = v[hit, column[hit, s]]
            acc[hit, group[hit, s]] += u[:, :, None] * u.conj()[:, None, :]
        mats.append(acc.reshape(*lead, groups, d, d))
    eigenvalues = tuple(means[:, g].reshape(lead) for g in range(groups))
    return SpectralDecomposition(
        eigenvalues if lead else tuple(map(float, eigenvalues)),
        tuple(AlgebraElement._of(a.shape, (m[..., g, :, :] for m in mats))
              for g in range(groups)))


def apply_function(a: AlgebraElement, fn) -> AlgebraElement:
    """Blockwise functional calculus on the hermitian part of ``a``, or of
    each element of a stack.

    ``fn`` receives each block's eigenvalues in ascending order along the
    last axis and returns the values to put in their place; it may raise to
    reject a block.
    """
    mats = []
    for mat in a.data:
        vals, vecs = np.linalg.eigh((mat + mat.conj().swapaxes(-1, -2)) / 2)
        mats.append((vecs * fn(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2))
    return AlgebraElement._of(a.shape, mats)


def power(a: AlgebraElement, r: complex, strict: bool = False) -> AlgebraElement:
    """Functional calculus a^r for PSD hermitian a, on the spectral support.

    Zero eigenvalues are dropped (pseudo-inverse convention), so a^0 is the
    support projector and negative/complex powers act on the support only.
    In strict mode any eigenvalue below ``FAITHFULNESS_TOL`` is an error.
    On a stack, any element that fails a check fails the call.
    """
    check_hermitian(a)

    def powered(vals: np.ndarray) -> np.ndarray:
        lowest = vals[..., 0].min()
        if lowest < -ATOL:
            raise NotAStateError(f"negative eigenvalue {lowest:.3e} in power()")
        if strict and lowest < FAITHFULNESS_TOL:
            raise FaithfulnessError(
                f"eigenvalue {lowest:.3e} below faithfulness tolerance")
        return _on_support(vals, r, 0.0)

    return apply_function(a, powered)


def check_hermitian(a: AlgebraElement) -> None:
    """``power``'s first check: every element of ``a`` is hermitian."""
    if not np.all(a.is_hermitian(POWER_HERM_TOL)):
        raise NotHermitianError("power requires a hermitian element")


def support_unitary(a: AlgebraElement, t: float) -> AlgebraElement:
    """a^{it} on the support, identity off the support (a commuting unitary)."""
    return apply_function(a, lambda vals: _on_support(vals, 1j * t, 1.0))


def _on_support(vals: np.ndarray, r: complex, off: float) -> np.ndarray:
    """``vals ** r`` on the eigenvalues above ``FAITHFULNESS_TOL``, ``off`` elsewhere."""
    out = np.full(vals.shape, off, dtype=complex)
    support = vals > FAITHFULNESS_TOL
    out[support] = vals[support].astype(complex) ** r
    return out


def jordan(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Anticommutator {a,b} = ab + ba."""
    return a @ b + b @ a


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a @ b - b @ a


def assert_state(a: AlgebraElement) -> AlgebraElement:
    """Validate the density-matrix requirements and return the element.  A
    stack passes when every member does; a message quotes the first member
    that does not."""
    if not np.all(a.is_hermitian(STATE_HERM_TOL)):
        raise NotAStateError("state is not hermitian")
    trace = a.trace()
    if np.any(bad := abs(trace - 1.0) > STATE_TOL):
        raise NotAStateError(f"state trace {np.extract(bad, trace)[0]:.6f} != 1")
    low = a.min_eigenvalue()
    if np.any(bad := low < -STATE_TOL):
        raise NotAStateError(f"state has eigenvalue {np.extract(bad, low)[0]:.3e} < 0")
    return a

"""Linear superoperators between multi-matrix algebras.

Storage convention
------------------
A map is a dense complex matrix acting on coordinates in the matrix-unit
basis.  An element is vectorized block by block in shape order, each block
flattened row-major, so the coordinate of matrix unit ``E_ij`` of block ``x``
sits at ``offset(x) + i*dim(x) + j``.  With this convention the matrix units
are orthonormal for the Hilbert–Schmidt inner product ``<A,B> = tr(A† B)``,
hence the adjoint of a map is literally the conjugate transpose of its matrix.

The channel state ``D[E] = (id⊗E)(μ*(1))`` and its inverse are pure
reshape/transpose operations on that matrix, which keeps the certification
loops cheap.  A stack of maps or elements has leading axes; the permuting
kernels reshape a block to ``(-1, …)``, so their first axis runs over the
members (one for a single map) and a fixed permutation serves both.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from . import algebra as alg
from .algebra import AlgebraElement, AlgebraShape, _per_element, _weight
from .config import CP_TOL, MAP_TOL
from .errors import ConstraintError, ShapeMismatchError


# ----------------------------------------------------------------- vectorizing
# The per-shape constants below are built once per shape and shared, so the
# arrays among them are read-only.
@lru_cache(maxsize=256)
def _offsets(shape: AlgebraShape) -> tuple[int, ...]:
    offs, total = [], 0
    for d in shape.dims:
        offs.append(total)
        total += d * d
    return tuple(offs)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def vec(a: AlgebraElement) -> np.ndarray:
    """The coordinates of an element; of a stack, one row per member."""
    return np.concatenate([mat.reshape(*mat.shape[:-2], -1) for mat in a.data], axis=-1)


def unvec(shape: AlgebraShape, v: np.ndarray) -> AlgebraElement:
    """The element with coordinates ``v``; rows of ``v`` give a stack."""
    v = np.asarray(v, dtype=complex)
    lead = v.shape[:-1]
    return AlgebraElement._of(shape, (v[..., off:off + d * d].reshape(*lead, d, d).copy()
                                      for off, d in zip(_offsets(shape), shape.dims)))


@lru_cache(maxsize=256)
def trace_row(shape: AlgebraShape) -> np.ndarray:
    """The trace functional as a row: tr(A) = trace_row(shape) @ vec(A)."""
    return _frozen(np.concatenate([np.eye(d).reshape(-1) for d in shape.dims]))


class LinearMap:
    """A linear superoperator, immutable; its classification flags are
    computed on each read.

    Library kernels may also hold a stack of maps of one source and target:
    a matrix with leading axes, built through ``_of``.  Every method and
    operator acts on each map of a stack bit for bit as on that map alone; a
    scalar factor may be an array over the leading axes padded by two unit
    axes.  A call takes a stack of elements too, for one map or a stack.
    """

    __slots__ = ("source", "target", "matrix")
    # numpy defers arithmetic with a map to the map's own operators
    __array_ufunc__ = None

    def __init__(self, source: AlgebraShape, target: AlgebraShape, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (target.vector_dim, source.vector_dim):
            raise ShapeMismatchError(
                f"map matrix has shape {matrix.shape}, expected "
                f"({target.vector_dim},{source.vector_dim})")
        self._freeze(source, target, matrix)

    @classmethod
    def _of(cls, source: AlgebraShape, target: AlgebraShape, matrix: np.ndarray) -> "LinearMap":
        """A map, or a stack, from a complex matrix the library built: it is
        frozen, not checked again."""
        m = object.__new__(cls)
        m._freeze(source, target, matrix)
        return m

    def _freeze(self, source: AlgebraShape, target: AlgebraShape, matrix: np.ndarray):
        matrix.flags.writeable = False
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *_):
        raise AttributeError("LinearMap is immutable")

    def __reduce__(self):  # rebuilt through _of, which freezes the copied matrix
        return LinearMap._of, (self.source, self.target, self.matrix)

    # ------------------------------------------------------------------- action
    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        if a.shape != self.source:
            raise ShapeMismatchError("element shape does not match map source")
        # a matvec over a column, so that stacks broadcast member by member
        return unvec(self.target, (self.matrix @ vec(a)[..., None])[..., 0])

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self ∘ inner."""
        if inner.target != self.source:
            raise ShapeMismatchError("composition shapes do not align")
        return LinearMap._of(inner.source, self.target, self.matrix @ inner.matrix)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if self.source != other.source or self.target != other.target:
            raise ShapeMismatchError("map sum shapes do not align")
        return LinearMap._of(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        if self.source != other.source or self.target != other.target:
            raise ShapeMismatchError("map difference shapes do not align")
        return LinearMap._of(self.source, self.target, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "LinearMap":
        return LinearMap._of(self.source, self.target, _weight(scalar) * self.matrix)

    __rmul__ = __mul__

    # ------------------------------------------------------------------ adjoint
    def hs_adjoint(self) -> "LinearMap":
        """Hilbert–Schmidt adjoint, tr(E(A)† B) = tr(A† E*(B)); one C-ordered pass."""
        return LinearMap._of(self.target, self.source,
                             np.conjugate(self.matrix.swapaxes(-1, -2), order="C"))

    def tilde(self) -> "LinearMap":
        """†∘E∘†, the conjugated map in the Bayes condition: each (n, n, m, m)
        block of the matrix, conjugated and transposed (1, 0, 3, 2) into place."""
        out = np.empty(self.matrix.shape, dtype=complex)  # C-ordered: block reshapes are views
        for n, t0 in zip(self.target.dims, _offsets(self.target)):
            for m, s0 in zip(self.source.dims, _offsets(self.source)):
                block = (..., slice(t0, t0 + n * n), slice(s0, s0 + m * m))
                np.conjugate(self.matrix[block].reshape(-1, n, n, m, m).transpose(0, 2, 1, 4, 3),
                             out=out[block].reshape(-1, n, n, m, m))
        return LinearMap._of(self.source, self.target, out)

    # ------------------------------------------------------------ classification
    def tp_defect(self) -> float:
        """max |tr(E(e)) − tr(e)| over the matrix units e of the source; one
        per map of a stack."""
        return _per_element(np.max(np.abs(trace_row(self.target) @ self.matrix
                                          - trace_row(self.source)), axis=-1), float)

    @property
    def is_tp(self) -> bool:
        return self.tp_defect() <= MAP_TOL

    @property
    def is_dagger_preserving(self) -> bool:
        return _per_element(np.max(np.abs(self.matrix - self.tilde().matrix), axis=(-2, -1))
                            <= MAP_TOL, bool)

    @property
    def is_cp(self) -> bool:
        return _per_element(self.is_dagger_preserving & (
            _source_transpose(channel_state(self)).min_eigenvalue() >= -CP_TOL), bool)

    @property
    def is_unital(self) -> bool:
        diff = self(alg.identity(self.source)) - alg.identity(self.target)
        return _per_element(diff.norm() <= MAP_TOL, bool)

    @property
    def is_cptp(self) -> bool:
        return _per_element(self.is_cp & self.is_tp, bool)

    def __repr__(self):
        return f"LinearMap({self.source!r} -> {self.target!r})"


def from_action(source: AlgebraShape, target: AlgebraShape,
                action: Callable[[AlgebraElement], AlgebraElement]) -> LinearMap:
    """Build the matrix of a map from its action on the matrix-unit basis."""
    units = np.eye(source.vector_dim)
    return LinearMap(source, target,
                     np.column_stack([vec(action(unvec(source, u))) for u in units]))


def from_kraus(source: AlgebraShape, target: AlgebraShape,
               kraus: Iterable[tuple[int, int, np.ndarray]]) -> LinearMap:
    """The map A ↦ ⊕_y Σ K A_x K† from (x, y, K) triples: source block index
    x, target block index y and an n_y×m_x operator K.  vec(KAK†) = (K⊗K̄)·vec(A)
    row-major, so each K⊗K̄ is added into the (n, n, m, m) view of the component.
    Operators with common leading axes (..., n, m) give the stack of maps.
    """
    kraus = list(kraus)
    lead = kraus[0][2].shape[:-2] if kraus else ()
    matrix = np.zeros((*lead, target.vector_dim, source.vector_dim), dtype=complex)
    so, to = _offsets(source), _offsets(target)
    for xi, yi, k in kraus:
        n, m = target.dims[yi], source.dims[xi]
        if k.shape != (*lead, n, m):
            raise ShapeMismatchError(f"Kraus operator is {k.shape}, expected {(*lead, n, m)}")
        view = matrix[..., to[yi]:to[yi] + n * n, so[xi]:so[xi] + m * m].reshape(*lead, n, n, m, m)
        view += k[..., :, None, :, None] * k.conj()[..., None, :, None, :]
    return LinearMap._of(source, target, matrix)


# ------------------------------------------------------------ basic constructors
def identity_map(shape: AlgebraShape) -> LinearMap:
    return LinearMap(shape, shape, np.eye(shape.vector_dim, dtype=complex))


def ad_map(x: AlgebraElement) -> LinearMap:
    """Ad_x : A ↦ x A x†  (x need not be unitary or hermitian), from the
    Kraus operator x on each block."""
    return from_kraus(x.shape, x.shape, [(i, i, mat) for i, mat in enumerate(x.data)])


# ------------------------------------------------------------------- sandwiches
def sandwich(terms, x: np.ndarray, d: int, p: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Σ w f·X·g over the d×d matrices X of ``x`` read as a (d, p, d, q) array:
    f multiplies its (d, p·d·q) view from the left and gᵀ its (d·p, d, q)
    view.  ``terms`` holds (w, f, g) with d×d arrays, None for an identity
    side (not both), and w scales a side.  A block of a map matrix's rows has
    p = 1; a block of a channel state has p = q = the target block's dimension.
    Sides with leading axes (..., d, d) act on an ``x`` with the same leading
    axes: a stack, each member on its own.

    The sum goes into ``out`` (C-ordered, x's shape; a new array if None): the
    first term straight, later ones through one shared term buffer.
    """
    def one(w, f, g, dest):
        lead = (g if f is None else f).shape[:-2]
        if g is None:
            return np.matmul(w * f, x.reshape(*lead, d, -1), out=dest.reshape(*lead, d, -1))
        mid = (x if f is None else f @ x.reshape(*lead, d, -1)).reshape(*lead, d * p, d, -1)
        g_t = (w * g).swapaxes(-1, -2)[..., None, :, :]
        return np.matmul(g_t, mid, out=dest.reshape(*lead, d * p, d, -1))
    out = np.empty(x.shape, dtype=complex) if out is None else out
    first, *rest = terms
    one(*first, out)
    buffer = np.empty_like(out) if rest else None
    for term in rest:
        one(*term, buffer)
        out += buffer
    return out


def block_terms(terms, i: int, transpose: bool = False) -> list:
    """The (w, f, g) terms of elements (None for an identity side) as the
    matrices of block ``i``, transposed if asked."""
    def side(a):
        return None if a is None else a.data[i].swapaxes(-1, -2) if transpose else a.data[i]
    return [(w, side(f), side(g)) for w, f, g in terms]


def sandwich_rows(terms, matrix: np.ndarray, shape: AlgebraShape,
                  transpose: bool = False) -> np.ndarray:
    """(Σ w L_f∘R_g)·matrix for a matrix whose rows hold the coordinates of
    ``shape``: the kernel on each block of rows, written into a new C-ordered
    array.  A matrix with leading axes is a stack, and so are the sides.

    With ``transpose`` the sides are fᵀ and gᵀ, which acts on columns:
    M∘L_f∘R_g takes each row functional R of M to fᵀ·R·gᵀ, so its transpose
    is this kernel on the rows of Mᵀ.
    """
    matrix = np.ascontiguousarray(matrix)
    out = np.empty(matrix.shape, dtype=complex)
    for i, (off, d) in enumerate(zip(_offsets(shape), shape.dims)):
        rows = (..., slice(off, off + d * d), slice(None))
        sandwich(block_terms(terms, i, transpose), matrix[rows], d, out=out[rows])
    return out


# -------------------------------------------------------------- channel states
def mu_adjoint_unit(shape: AlgebraShape) -> AlgebraElement:
    """μ*(1) = D[id]: the swap operator in each diagonal block pair, zero elsewhere."""
    return channel_state(identity_map(shape))


def channel_state(e: LinearMap) -> AlgebraElement:
    """D[E] = (id⊗E)(μ*(1)) = Σ_{ij} E_ij ⊗ E(E_ji), blockwise; for a stack
    of maps, the stack of their channel states."""
    tshape = e.source.tensor(e.target)
    so, to = _offsets(e.source), _offsets(e.target)
    mats = []
    for xi, yi in tshape.pairs:
        mx, ny = e.source.dims[xi], e.target.dims[yi]
        # the component of the matrix mapping source block xi into target block yi
        comp = e.matrix[..., to[yi]:to[yi] + ny * ny, so[xi]:so[xi] + mx * mx] \
            .reshape(-1, ny, ny, mx, mx)
        # block[(i,k),(j,l)] = E(E_ji)[k,l] = comp[k,l,j,i]
        mats.append(np.ascontiguousarray(comp.transpose(0, 4, 1, 3, 2))
                    .reshape(*e.matrix.shape[:-2], mx * ny, mx * ny))
    return AlgebraElement._of(tshape, mats)


def stack(es: Sequence[LinearMap]) -> LinearMap:
    """Maps of one source and target as one stack, along a new first axis."""
    if not es or any((e.source, e.target) != (es[0].source, es[0].target) for e in es):
        raise ShapeMismatchError("a stack needs one or more maps of one source and target")
    return LinearMap._of(es[0].source, es[0].target, np.stack([e.matrix for e in es]))


def unstack(e: LinearMap) -> list[LinearMap]:
    """The maps of a stack along its first axis, as views of its matrix."""
    return [LinearMap._of(e.source, e.target, matrix) for matrix in e.matrix]


def channel_from_state(j: AlgebraElement, source: AlgebraShape,
                       target: AlgebraShape) -> LinearMap:
    """Inverse of channel_state: D is a linear isomorphism.  For a stack of
    channel states, the stack of their maps; either way a rearrangement of
    entries, with no arithmetic."""
    tshape = source.tensor(target)
    if j.shape != tshape:
        raise ShapeMismatchError("element does not live on source⊗target")
    lead = j.data[0].shape[:-2]
    matrix = np.empty((*lead, target.vector_dim, source.vector_dim), dtype=complex)
    so, to = _offsets(source), _offsets(target)
    for (xi, yi), block in zip(tshape.pairs, j.data):
        mx, ny = source.dims[xi], target.dims[yi]
        # block[(i,k),(j,l)] = E(E_ji)[k,l] = comp[k,l,j,i], as in channel_state
        comp = block.reshape(-1, mx, ny, mx, ny).transpose(0, 2, 4, 3, 1)
        rows, cols = slice(to[yi], to[yi] + ny * ny), slice(so[xi], so[xi] + mx * mx)
        matrix[..., rows, cols] = comp.reshape(*lead, ny * ny, mx * mx)
    return LinearMap._of(source, target, matrix)


def _source_transpose(t: AlgebraElement) -> AlgebraElement:
    """The partial transpose on the left factor of an element on A⊗B, block
    by block: entry ((a,k),(b,l)) ↦ ((b,k),(a,l)).  It takes D[E] to the
    blockwise (unnormalized) Choi matrices Σ_ij E_ij ⊗ E(E_ij) and back."""
    left, right = t.shape.factors
    mats = []
    for (i, j), mat in zip(t.shape.pairs, t.data):
        m, n = left.dims[i], right.dims[j]
        block = mat.reshape(-1, m, n, m, n).transpose(0, 3, 2, 1, 4)
        mats.append(np.ascontiguousarray(block).reshape(mat.shape))
    return AlgebraElement._of(t.shape, mats)


def cp_decompose(e: LinearMap) -> tuple[LinearMap, LinearMap, LinearMap, LinearMap]:
    """Write E = C1 − C2 + iC3 − iC4 with each Ck completely positive.

    The split happens on the blockwise Choi matrices C: the positive and
    negative spectral parts of the hermitian part of C, then of −iC, whose
    hermitian part is C's antihermitian part (C − C†)/2i.
    """
    chois = _source_transpose(channel_state(e))
    parts = [alg.apply_function(c, lambda vals, sign=sign: np.clip(sign * vals, 0, None))
             for c in (chois, -1j * chois) for sign in (1, -1)]
    return tuple(channel_from_state(_source_transpose(p), e.source, e.target) for p in parts)


# ------------------------------------------------------------------- swap and τ
def _swap(t: AlgebraElement, conjugate: bool) -> AlgebraElement:
    """γ(t), or τ(t) = γ(t)† if ``conjugate``: block (i, j) of A⊗B, read as
    (da, db, da, db), permuted into a new C-ordered block (j, i) of B⊗A."""
    if t.shape.factors is None:
        raise ShapeMismatchError("swap_gamma needs a tensor-shaped element")
    left, right = t.shape.factors
    target = right.tensor(left)
    mats = [None] * len(target.dims)
    for (i, j), mat in zip(t.shape.pairs, t.data):
        da, db = left.dims[i], right.dims[j]
        four = mat.reshape(-1, da, db, da, db)
        # τ(t)[b,a,b',a'] = conj(t[a',b',a,b]) and γ(t)[b,a,b',a'] = t[a,b,a',b']
        block = (np.conjugate(four.transpose(0, 4, 3, 2, 1), order="C") if conjugate
                 else np.ascontiguousarray(four.transpose(0, 2, 1, 4, 3)))
        mats[target.block_of(j, i)] = block.reshape(mat.shape)
    return AlgebraElement._of(target, mats)


def swap_gamma(t: AlgebraElement) -> AlgebraElement:
    """γ: element on A⊗B ↦ element on B⊗A (linear, †-preserving)."""
    return _swap(t, conjugate=False)


def time_reversal_tau(t: AlgebraElement) -> AlgebraElement:
    """τ = †∘γ: conjugate-linear, τ(b⊗a) = a†⊗b†; an involution."""
    return _swap(t, conjugate=True)


def apply_to_factor(m: LinearMap, t: AlgebraElement, which: str) -> AlgebraElement:
    """Apply a superoperator to one tensor factor: (m⊗id) or (id⊗m).

    ``which`` is 'left' or 'right'; the named factor of ``t``'s tensor shape
    must equal ``m.source`` and is replaced by ``m.target``.
    """
    tshape = t.shape
    if tshape.factors is None:
        raise ShapeMismatchError("apply_to_factor needs a tensor-shaped element")
    if which == "left":  # m⊗id = γ∘(id⊗m)∘γ
        return swap_gamma(apply_to_factor(m, swap_gamma(t), "right"))
    if which != "right":
        raise ValueError("which must be 'left' or 'right'")
    left, right = tshape.factors
    if right != m.source:
        raise ShapeMismatchError("the factor acted on does not match map source")
    # t is the channel state D[F] of some F: left → right, and (id⊗m)(D[F]) = D[m∘F]
    return channel_state(m.compose(channel_from_state(t, left, right)))


# ---------------------------------------------------------- channel constructors
def _channel(m: LinearMap, message: str) -> LinearMap:
    """``m`` if it is trace-preserving, the one test of every constructor;
    else ConstraintError(message).  An overflow is a defect above tolerance."""
    with np.errstate(all="ignore"):
        if m.is_tp:
            return m
    raise ConstraintError(message)


def classical_channel(stochastic: np.ndarray, source_prefix: str = "x",
                      target_prefix: str = "y") -> LinearMap:
    """A column-stochastic matrix f_yx as a channel C^X → C^Y."""
    f = np.asarray(stochastic, dtype=float)
    n_y, n_x = f.shape
    source = alg.classical_algebra(n_x, source_prefix)
    target = alg.classical_algebra(n_y, target_prefix)
    matrix = f.astype(complex)  # vector_dim == n for commutative algebras
    return _channel(LinearMap(source, target, matrix),
                    "columns of a stochastic matrix must sum to 1")


def povm(effects: Sequence[np.ndarray] | Sequence[AlgebraElement]) -> LinearMap:
    """A POVM {M_y} as the channel A ↦ ⊕_y tr(M_y A) into C^Y."""
    elems, source = [], None
    for m in effects:
        if isinstance(m, AlgebraElement):
            elems.append(m)
        else:
            if source is None:
                source = alg.matrix_algebra(np.asarray(m).shape[0])
            elems.append(AlgebraElement(source, (np.asarray(m, dtype=complex),)))
    for m in elems[1:]:
        elems[0]._check_same_shape(m)
    target = alg.classical_algebra(len(elems), "y")
    rows = [vec(m.dagger()).conj() for m in elems]  # tr(M_y A) row functionals
    return _channel(LinearMap(elems[0].shape, target, np.array(rows)),
                    "POVM effects must sum to the identity")


def povm_effects(e: LinearMap) -> list[AlgebraElement]:
    """Recover the effects M_y of a POVM channel via the adjoint: M_y = E*(δ_y)."""
    adj = e.hs_adjoint()
    return [adj(alg.basis_vector(e.target, label)) for label in e.target.labels]


def ensemble(states: Sequence[AlgebraElement]) -> LinearMap:
    """An ensemble {ρ_x} as the preparation channel C^X → A, δ_x ↦ ρ_x."""
    for rho in states:
        alg.assert_state(rho)
    source = alg.classical_algebra(len(states))
    cols = [vec(rho) for rho in states]
    return LinearMap(source, states[0].shape, np.column_stack(cols))


def instrument(cp_parts: Sequence[LinearMap]) -> LinearMap:
    """A quantum instrument {F_x} as the channel A → B⊗C^X, A ↦ Σ_x F_x(A)⊗δ_x."""
    source, b_shape = cp_parts[0].source, cp_parts[0].target
    _channel(sum(cp_parts[1:], cp_parts[0]),
             "the sum of instrument parts must be trace-preserving")
    outcomes = alg.classical_algebra(len(cp_parts))
    target = b_shape.tensor(outcomes)
    # block (i, x) of B⊗C^X holds F_x(A)'s block i: F_x's rows for that block
    offs = _offsets(b_shape)
    return LinearMap(source, target, np.vstack(
        [cp_parts[x].matrix[offs[i]:offs[i] + b_shape.dims[i] ** 2] for i, x in target.pairs]))


def unitary_channel(u: AlgebraElement) -> LinearMap:
    """Ad_U for a blockwise unitary U: Ad_U is trace-preserving exactly when
    U†U = 1, which for square blocks makes U unitary."""
    with np.errstate(all="ignore"):  # an overflow is a defect above tolerance
        return _channel(ad_map(u), "unitary_channel needs unitary blocks")


def replace_channel(sigma: AlgebraElement, source: AlgebraShape) -> LinearMap:
    """The replacement channel A ↦ tr(A)·σ; a stack of states gives the
    stack of their channels."""
    alg.assert_state(sigma)
    return LinearMap._of(source, sigma.shape, vec(sigma)[..., :, None] * trace_row(source))


@lru_cache(maxsize=256)
def partial_trace_channel(tshape: AlgebraShape, side: str) -> LinearMap:
    """tr_A or tr_B as a channel from a tensor shape onto the kept factor;
    built once per shape and side, with a read-only matrix.

    tr_B is the Hilbert–Schmidt adjoint of the embedding X ↦ X⊗1, so its
    rows are the coordinates of the kept factor's matrix units lifted by
    that embedding (mirrored for tr_A).
    """
    if tshape.factors is None:
        raise ShapeMismatchError("partial_trace_channel needs a tensor shape")
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    left, right = tshape.factors
    kept = left if side == "B" else right
    units = unvec(kept, np.eye(kept.vector_dim))  # a stack of the matrix units
    lifted = (alg.tensor(units, alg.identity(right)) if side == "B"
              else alg.tensor(alg.identity(left), units))
    return LinearMap._of(tshape, kept, vec(lifted))

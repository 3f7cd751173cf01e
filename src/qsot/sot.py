"""State-over-time families: evaluate E⋆ρ on A⊗B for a chosen recipe.

Every family below consumes a trace-preserving map E: A→B and a density
matrix ρ on A and produces an element of A⊗B whose marginals are ρ and E(ρ).
Families that are linear in the state (the blooms and the symmetric bloom,
plus Θ-derived recipes with a state-linear Θ) extend to arbitrary hermitian
unit-trace second arguments by the same formula; the other families refuse
anything that is not PSD.  All but the uncorrelated and Ohya families are
sandwiches given as exponent data (``_Sandwich.sides``); STH is the t-rotated
family under its own tag.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import algebra as alg, maps, sampling
from .algebra import AlgebraElement, AlgebraShape
from .config import COMM_TOL, FAITHFULNESS_TOL, GROUP_TOL, SOT_ARG_TOL, SPECTRAL_GAP, STATE_TOL
from .errors import (ConstraintError, ExtensionError, InapplicableError,
                     UnsupportedFamilyError)
from .maps import LinearMap


# -------------------------------------------------------------------- families
class SotFamily:
    """Base of every family: ``value(e, ρ)`` is its formula for E⋆ρ, and the
    class attributes below say where that formula applies.  ``value`` takes
    stacks: for a stack of maps and a stack of states of one length it returns
    the stack of the pairs' values, each equal to its pair's value alone."""
    tag: ClassVar[str]
    # Linear in the state: evaluates any hermitian unit-trace argument.
    state_linear: ClassVar[bool] = False
    # Built from ρ's spectral projectors: defined on single-block sources
    # only, its classical limit holds on non-degenerate faithful priors only,
    # and its associativity is an open question.
    compound: ClassVar[bool] = False


class _Sandwich(SotFamily):
    """Σ w (ρ^a⊗1) D[E] (ρ^b⊗1) over ``sides`` = ((w, a, b), ...) with
    complex exponents: the whole contract, from which the terms, the spectral
    Bayes denominator and state-linearity derive here.  Exponent 0 is the
    identity side and exponent 1 is ρ itself (no ``alg.power``, so any
    hermitian ρ).  Families of more than one term also give the
    ``spectral_tol`` at or below which their spectral Bayes map is singular.
    """
    sides: ClassVar[tuple[tuple[float, complex, complex], ...]]

    @property
    def state_linear(self) -> bool:
        return all(p in (0, 1) for _, a, b in self.sides for p in (a, b))

    def terms(self, x: AlgebraElement, inverse: bool = False, strict: bool = False):
        """``((w, x^a, x^b), ...)`` with None for x^0, from one ``alg.power``
        per distinct exponent.  With ``inverse`` the sides are
        (x^a)^{−†} = x^{−ā}: pseudo-inverses on the support of x, or a
        ``FaithfulnessError`` if ``strict``."""
        powers = {0: None, 1: x}

        def side(p):
            p = -p.conjugate() if inverse else p
            if p not in powers:
                powers[p] = alg.power(x, p, strict=strict)
            return powers[p]
        return tuple((w, side(a), side(b)) for w, a, b in self.sides)

    def denominator(self, qk, ql):
        """Γ_kl = Σ w q_k^ā q_l^b̄ on eigenvalues q of σ, clamped at 0: the
        spectral Bayes map divides E*(e_kl) by it, as the product formula's
        inner sides σ^{−ā}·σ^{−b̄} do for one term."""
        qk, ql = np.maximum(qk, 0.0), np.maximum(ql, 0.0)
        return sum(w * qk ** a.conjugate() * ql ** b.conjugate() for w, a, b in self.sides)

    def value(self, e: LinearMap, rho: AlgebraElement) -> AlgebraElement:
        return _sandwich(self.terms(rho), e)


@dataclass(frozen=True)
class Uncorrelated(SotFamily):
    tag: ClassVar[str] = "uncorrelated"

    def value(self, e: LinearMap, rho: AlgebraElement) -> AlgebraElement:
        return alg.tensor(rho, e(rho))


@dataclass(frozen=True)
class OhyaCompound(SotFamily):
    group_tol: float = GROUP_TOL
    tag: ClassVar[str] = "ohya"
    compound: ClassVar[bool] = True

    def __post_init__(self):
        # a negative tolerance would split equal eigenvalues by LAPACK's basis
        if not self.group_tol >= 0.0:
            raise ConstraintError("OhyaCompound needs group_tol >= 0")

    def value(self, e: LinearMap, rho: AlgebraElement) -> AlgebraElement:
        """Σ_λ λ P_λ ⊗ E(P_λ / tr P_λ); on a stack, group by group, where a
        member's padded groups (P = 0) add exact zeros."""
        sd = alg.spectral_decompose(rho, group_tol=self.group_tol)
        out = alg.zero(e.source.tensor(e.target))
        for lam, proj in zip(sd.eigenvalues, sd.projectors):
            tr_p = np.asarray(proj.trace().real)
            scale = np.divide(1.0, tr_p, out=np.zeros_like(tr_p), where=tr_p > 0.0)
            out = out + np.asarray(lam)[..., None, None] * alg.tensor(
                proj, e(scale[..., None, None] * proj))
        return out


@dataclass(frozen=True)
class LeiferSpekkens(_Sandwich):
    tag: ClassVar[str] = "leifer-spekkens"
    sides: ClassVar = ((1.0, 0.5, 0.5),)


@dataclass(frozen=True)
class TRotated(_Sandwich):
    t: float = 0.3
    tag: ClassVar[str] = "t-rotated"

    @property
    def sides(self):
        return ((1.0, 0.5 - 1j * self.t, 0.5 + 1j * self.t),)


class STH(TRotated):
    """Sutter–Tomamichel–Harrow style family (U_ρ†ρ^{1/2}⊗1)D[E](ρ^{1/2}U_ρ⊗1)
    with the commuting unitary U_ρ = ρ^{it} on the support and the identity
    off it.  Its sides are ρ^{1/2∓it}: the t-rotated family under its own tag."""
    tag: ClassVar[str] = "sth"


@dataclass(frozen=True)
class SymmetricBloom(_Sandwich):
    tag: ClassVar[str] = "symmetric-bloom"
    sides: ClassVar = ((0.5, 1.0, 0.0), (0.5, 0.0, 1.0))
    # The spectral Bayes map divides by ½(q_k+q_l): singular exactly where
    # q_k+q_l is at most FAITHFULNESS_TOL.
    spectral_tol: ClassVar[float] = 0.5 * FAITHFULNESS_TOL


@dataclass(frozen=True)
class RightBloom(_Sandwich):
    tag: ClassVar[str] = "right-bloom"
    sides: ClassVar = ((1.0, 1.0, 0.0),)


@dataclass(frozen=True)
class LeftBloom(_Sandwich):
    tag: ClassVar[str] = "left-bloom"
    sides: ClassVar = ((1.0, 0.0, 1.0),)


@dataclass(frozen=True)
class RSFamily(_Sandwich):
    r: float
    s: float
    tag: ClassVar[str] = "rs"
    spectral_tol: ClassVar[float] = FAITHFULNESS_TOL

    def __post_init__(self):
        if not (0.0 <= self.r <= 1.0 and 0.0 <= self.s <= 1.0):
            raise ConstraintError("RSFamily needs r, s in [0, 1]")

    @property
    def sides(self):
        return ((self.s, self.r, 1.0 - self.r), (1.0 - self.s, 1.0 - self.r, self.r))


@dataclass(frozen=True)
class ThetaDerived(_Sandwich):
    """SOT generated by the state-rendering map of a sandwich family:
    (Θ_ρ ⊗ id)(D[E]) with Θ_ρ = Σ w L_{ρ^a}∘R_{ρ^b} over ``theta``'s sides.

    Term by term that is ``theta``'s own sandwich, so the family evaluates
    and solves as ``theta`` under its own tag: its sides and spectral_tol are
    theta's, and the latter exists only where theta's does.
    """
    theta: _Sandwich
    tag: ClassVar[str] = "theta"

    @property
    def sides(self):
        return self.theta.sides

    @property
    def spectral_tol(self) -> float:
        return self.theta.spectral_tol


# Wire tag → family class; the dataclass init fields are the parameters.
FAMILIES: dict[str, type[SotFamily]] = {cls.tag: cls for cls in (
    Uncorrelated, OhyaCompound, LeiferSpekkens, TRotated, STH,
    SymmetricBloom, RightBloom, LeftBloom, RSFamily, ThetaDerived)}

# Wire name of a Θ recipe → the sandwich family whose terms render it.
THETA_RECIPES: dict[str, type[_Sandwich]] = {
    "ls": LeiferSpekkens, "jordan": SymmetricBloom,
    "right": RightBloom, "left": LeftBloom}

TABLE_FAMILIES: dict[str, SotFamily] = {
    tag: cls() for tag, cls in FAMILIES.items() if tag not in ("rs", "theta")}


@dataclass(frozen=True)
class StateOverTime:
    value: AlgebraElement  # on A⊗B
    channel: LinearMap
    state: AlgebraElement
    family: SotFamily

    def marginal_residuals(self) -> tuple[float, float]:
        """‖tr_B(E⋆ρ) − ρ‖ and ‖tr_A(E⋆ρ) − E(ρ)‖; one value per pair of a stack."""
        res_a = (alg.partial_trace(self.value, "B") - self.state).norm()
        res_b = (alg.partial_trace(self.value, "A") - self.channel(self.state)).norm()
        return res_a, res_b


def _sandwich(terms, e: LinearMap) -> AlgebraElement:
    """Σ w (f⊗1) D[E] (g⊗1), block by block of D[E] without building lifts.

    A block (x, y) of D[E] is an (m, n, m, n) array for source block x of
    dimension m, and f⊗1, g⊗1 act on its two m-axes: the shared kernel with
    f, g taken on block x.
    """
    d = maps.channel_state(e)
    blocks = []
    for (xi, _), mn, block in zip(d.shape.pairs, d.shape.dims, d.data):
        m = e.source.dims[xi]
        blocks.append(maps.sandwich(maps.block_terms(terms, xi), block, m, mn // m))
    return AlgebraElement._of(d.shape, blocks)


def evaluate(family: SotFamily, e: LinearMap, rho: AlgebraElement) -> StateOverTime:
    """E⋆ρ for the given family.

    ``rho`` may be any hermitian unit-trace element when the family is linear
    in the state; otherwise it must be PSD (a density matrix).  ``e`` and
    ``rho`` may also be stacks of one length: every pair must pass the
    checks, and the value is the stack of the pairs' values.
    """
    if not np.all(e.is_tp):
        raise ConstraintError("state over time requires a trace-preserving map")
    if rho.shape != e.source:
        raise ConstraintError("state does not live on the channel's source")
    if not np.all(rho.is_hermitian(SOT_ARG_TOL)):
        raise ConstraintError("second argument must be hermitian")
    if np.any(abs(rho.trace() - 1.0) > SOT_ARG_TOL):
        raise ConstraintError("second argument must have unit trace")
    if not family.state_linear and np.any(rho.min_eigenvalue() < -STATE_TOL):
        raise ExtensionError(
            f"family {family.tag} is not linear in the state "
            "and only evaluates density matrices")
    if family.compound and len(e.source.blocks) != 1:
        raise UnsupportedFamilyError(
            "the compound construction is only defined on single-block algebras")
    return StateOverTime(family.value(e, rho), e, rho, family)


def reverse_orientation(family: SotFamily, e: LinearMap,
                        rho: AlgebraElement) -> AlgebraElement:
    """E⋆†ρ := ((†∘E∘†)⋆ρ)†, the reverse-orientation state over time, pair by pair."""
    return evaluate(family, e.tilde(), rho).value.dagger()


# --------------------------------------------------------- classical-limit pairs
def commutation_residual(e: LinearMap, rho: AlgebraElement) -> float:
    """‖[D[E], ρ⊗1]‖ — zero exactly on classical-limit pairs; one value per
    pair of a stack."""
    lifted = alg.tensor(rho, alg.identity(e.target))
    return alg.commutator(maps.channel_state(e), lifted).norm()


def _central_state(shape: AlgebraShape, weights: np.ndarray) -> AlgebraElement:
    """⊕ w_x·1/d_x for block weights w (a stack for weights with leading axes)."""
    return AlgebraElement._of(shape, ((weights[..., x] / d)[..., None, None]
                                      * np.eye(d, dtype=complex)
                                      for x, d in enumerate(shape.dims)))


def _has_nondegenerate_spectrum(rho: AlgebraElement) -> np.ndarray:
    """Per state of a stack: a simple, strictly positive spectrum."""
    vals = np.sort(np.concatenate([np.linalg.eigvalsh(m) for m in rho.data], axis=-1), axis=-1)
    return np.all(np.diff(vals, axis=-1) > SPECTRAL_GAP, axis=-1) & (vals[..., 0] > SPECTRAL_GAP)


def draw_classical_limit(shape_a: AlgebraShape, shape_b: AlgebraShape,
                         rng: np.random.Generator, index: int,
                         nondegenerate_prior: bool = False
                         ) -> tuple[str, tuple[np.ndarray, ...]]:
    """The classical-limit construction ``index`` picks, modulo the
    constructions that apply, and its raw draws from ``rng``: the channel's,
    then the prior's.  ``classical_limits`` finishes them into pairs (E, ρ)
    with [D[E], ρ⊗1] = 0.

    The constructions: (a) replacement channels with arbitrary priors,
    (b) diagonal priors with diagonal-reading (decohering) channels,
    and (c) central priors with arbitrary channels (covers every bistochastic
    instance since ρ = 1/m is central).  With ``nondegenerate_prior`` the
    prior must have a simple, strictly positive spectrum, and (c) applies
    only when the source blocks are one-dimensional.
    """
    kinds = ["replacement", "decohering"]
    if not nondegenerate_prior or max(shape_a.dims) == 1:
        kinds.append("central")
    kind = kinds[index % len(kinds)]
    if kind == "replacement":
        return kind, (*sampling.draw_state(shape_b, rng), *sampling.draw_state(shape_a, rng))
    if kind == "decohering":
        return kind, (rng.dirichlet(np.ones(shape_b.total_dim), size=shape_a.total_dim),
                      rng.dirichlet(np.ones(shape_a.total_dim)))
    return kind, (*sampling.draw_cptp(shape_a, shape_b, rng),
                  rng.dirichlet(np.ones(len(shape_a.blocks))))


def classical_limits(shape_a: AlgebraShape, shape_b: AlgebraShape, kind: str,
                     draws: tuple[np.ndarray, ...], nondegenerate_prior: bool = False
                     ) -> tuple[LinearMap, AlgebraElement, list[InapplicableError | None]]:
    """The pairs (E, ρ) of one construction from ``draw_classical_limit``'s
    draws stacked along a first axis: the stack of channels, the stack of
    priors, and for each pair the InapplicableError that refuses it (the
    prior filter, then the ``COMM_TOL`` check), or None."""
    if kind == "replacement":
        k = len(shape_b.dims)
        e = maps.replace_channel(sampling.state(shape_b, draws[:k]), shape_a)
        rho = sampling.state(shape_a, draws[k:])
    elif kind == "decohering":
        e = sampling.decohering_channel(shape_a, shape_b, draws[0])
        rho = alg.diagonal_element(shape_a, draws[1])
    else:
        k = len(shape_a.dims)
        e = sampling.cptp(shape_a, shape_b, draws[:k])
        rho = _central_state(shape_a, draws[k])
    noncommuting = commutation_residual(e, rho) > COMM_TOL
    degenerate = (~_has_nondegenerate_spectrum(rho) if nondegenerate_prior
                  else np.zeros_like(noncommuting))
    return e, rho, [InapplicableError("the drawn prior has a degenerate spectrum") if d
                    else InapplicableError("the drawn pair is not a classical-limit pair") if c
                    else None for d, c in zip(degenerate, noncommuting)]


"""Bayes maps: solutions X of  E⋆ρ = τ(~X ⋆ E(ρ)).

Closed forms come from a sandwich family's ``sides``, by their count: the
product formula for one term (Petz, its rotated/STH variants, the one-sided
blooms), the spectral-basis formula over the family's ``denominator`` for
more (symmetric bloom and (r,s)).  A Θ-derived family solves as its sandwich
family, which gives its generalized conditional expectation.
``generic_bayes`` solves the defining condition directly and measures
uniqueness, which is the cross-check oracle for everything else.  It uses
only that every family is local in the source factor, ~X⋆σ = (Φ_σ⊗id)(D[~X]):
the condition becomes X·Φ_σ* = Y, with Φ_σ read off one evaluation of the
family on the identity channel, and a dense probe checks that premise.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg, maps, sot
from .algebra import AlgebraElement, AlgebraShape, _per_element
from .config import FAIL_THRESHOLD, LOCALITY_TOL, RANK_TOL
from .errors import SingularityError, UnsupportedFamilyError
from .maps import LinearMap


# -------------------------------------------------------------- Bayes residual
def bayes_residual(family: sot.SotFamily, x: LinearMap, e: LinearMap,
                   rho: AlgebraElement) -> float:
    """‖E⋆ρ − τ(~X ⋆ E(ρ))‖ with the same family on both sides; one per pair of stacks."""
    forward = sot.evaluate(family, e, rho).value
    backward = maps.time_reversal_tau(sot.evaluate(family, x.tilde(), e(rho)).value)
    return (forward - backward).norm()


def classify_solution(x: LinearMap) -> str:
    """CPTP, HPTP-only or TP-only; one per map of a stack."""
    tp = x.is_tp
    return _per_element(np.where(tp & x.is_cp, "CPTP", np.where(
        tp & x.is_dagger_preserving, "HPTP-only", "TP-only")), str)


@dataclass(frozen=True)
class BayesSolution:
    map: LinearMap
    residual: float
    classification: str
    uniqueness: str  # unique | non-unique-witness | none-found
    witnesses: tuple[LinearMap, ...] = field(default=())


# ---------------------------------------------------------------- closed forms
def _product_bayes(family: sot.SotFamily, e: LinearMap, rho: AlgebraElement,
                   strict: bool = False) -> LinearMap:
    """L_{f(ρ)}R_{g(ρ)} ∘ E* ∘ L_{f(σ)^{−†}}R_{g(σ)^{−†}} for a one-term family.

    With σ = E(ρ), this is the unique solution of the Bayes condition for
    (f(ρ)⊗1)D[E](g(ρ)⊗1); inverses act on the support of σ unless ``strict``.
    The outer terms act on the rows of E*, then the inner ones on its columns,
    which are the rows of the transpose.
    """
    inner = family.terms(e(rho), inverse=True, strict=strict)
    rows = maps.sandwich_rows(family.terms(rho), e.hs_adjoint().matrix, e.source)
    rows = np.ascontiguousarray(rows.T)  # copied before the kernel, to free the rows
    rows = maps.sandwich_rows(inner, rows, e.target, transpose=True)
    return LinearMap(e.target, e.source, np.ascontiguousarray(rows.T))


def _spectral_bayes(family: sot.SotFamily, e: LinearMap, rho: AlgebraElement,
                    strict: bool = False) -> LinearMap:
    """X(e_kl) = Σ w f(ρ) E*(e_kl) g(ρ) / Γ_kl on the eigen-units e_kl = |w_k⟩⟨w_l|
    of σ = E(ρ), with Γ_kl = ``family.denominator(q_k, q_l)``.

    The outer terms act on the rows of E*; then, with W the eigenvectors of
    σ block by block, its columns are composed with Ad_W, divided by Γ and
    composed with Ad_{W†}.
    """
    sigma = e(rho)
    if strict:
        alg.power(sigma, 1.0, strict=True)  # trigger the faithfulness check
    eigen = [np.linalg.eigh(mat) for mat in sigma.data]
    gammas = []
    for (label, _), (vals, _) in zip(e.target.blocks, eigen):
        gamma = family.denominator(vals[:, None], vals[None, :])
        singular = np.argwhere(np.abs(gamma) <= family.spectral_tol)
        if singular.size:
            k, l = singular[0]
            raise SingularityError(
                f"vanishing denominator at spectral unit ({k},{l}) "
                f"of block {alg.label_text(label)}")
        gammas.append(gamma.reshape(-1))
    w = AlgebraElement._of(e.target, (vecs for _, vecs in eigen))
    rows = maps.sandwich_rows(family.terms(rho), e.hs_adjoint().matrix, e.source)
    # ∘Ad_W, ÷Γ and ∘Ad_{W†} act on the columns: the rows of the transpose
    rows = np.ascontiguousarray(rows.T)
    rows = maps.sandwich_rows(((1.0, w, w.dagger()),), rows, e.target, transpose=True)
    rows /= np.concatenate(gammas)[:, None]
    rows = maps.sandwich_rows(((1.0, w.dagger(), w),), rows, e.target, transpose=True)
    return LinearMap(e.target, e.source, np.ascontiguousarray(rows.T))


def petz(e: LinearMap, rho: AlgebraElement) -> LinearMap:
    """Ad_{ρ^{1/2}} ∘ E* ∘ Ad_{E(ρ)^{−1/2}}."""
    return _product_bayes(sot.LeiferSpekkens(), e, rho)


def rotated_petz(e: LinearMap, rho: AlgebraElement, t: float) -> LinearMap:
    """Rotated recovery map Ad_{ρ^{1/2−it}} ∘ E* ∘ Ad_{E(ρ)^{−1/2−it}}.

    This is the unique solution of the Bayes condition for the rotated
    family (ρ^{1/2−it}⊗1)D[E](ρ^{1/2+it}⊗1); at t=0 it is the Petz map.
    """
    return _product_bayes(sot.TRotated(t), e, rho)


def sth_inverse(e: LinearMap, rho: AlgebraElement) -> LinearMap:
    """Ad_{U_ρ†ρ^{1/2}} ∘ E* ∘ Ad_{U_{E(ρ)}†E(ρ)^{−1/2}} with U_ρ = ρ^{it}, t = 0.3.

    Solves the Bayes condition for the family
    (U_ρ†ρ^{1/2}⊗1)D[E](ρ^{1/2}U_ρ⊗1): it is ``rotated_petz`` at t = 0.3.
    """
    return _product_bayes(sot.STH(), e, rho)


def bloom_bayes(side: str, e: LinearMap, rho: AlgebraElement) -> LinearMap:
    """Right: B ↦ ρE*(E(ρ)^{−1}B); left: B ↦ E*(BE(ρ)^{−1})ρ."""
    families = {"right": sot.RightBloom(), "left": sot.LeftBloom()}
    if side not in families:
        raise ValueError("side must be 'left' or 'right'")
    return _product_bayes(families[side], e, rho)


def symmetric_bloom_bayes(e: LinearMap, rho: AlgebraElement) -> LinearMap:
    """X(e_kl) = (q_k+q_l)^{−1} {ρ, E*(e_kl)} in the eigenbasis of E(ρ)."""
    return _spectral_bayes(sot.SymmetricBloom(), e, rho)


def rs_bayes(r: float, s: float, e: LinearMap, rho: AlgebraElement) -> LinearMap:
    """Spectral-basis Bayes map for the (r,s) family."""
    return _spectral_bayes(sot.RSFamily(r, s), e, rho)


def closed_form_bayes(family: sot.SotFamily, e: LinearMap, rho: AlgebraElement,
                      strict: bool = False) -> LinearMap:
    """The closed-form Bayes map of a sandwich family (Θ-derived ones
    included): the product formula for one term, the spectral formula for
    more."""
    sides = getattr(family, "sides", None)
    if sides is None:
        raise UnsupportedFamilyError(
            f"no closed-form Bayes map for family {family.tag}")
    return (_spectral_bayes if len(sides) > 1 else _product_bayes)(family, e, rho, strict)


# --------------------------------------------------------------- generic solve
def generic_bayes(family: sot.SotFamily, e: LinearMap, rho: AlgebraElement) -> BayesSolution:
    """Solve E⋆ρ = τ(~X ⋆ E(ρ)) for trace-preserving X by least squares.

    Every family is local in the source factor: for fixed σ = E(ρ) there is a
    superoperator Φ_σ on B with ~X⋆σ = (Φ_σ⊗id)(D[~X]).  Then γ(τ(~X⋆σ)) is
    the channel state of X∘Φ_σ*, so with Y the map whose channel state is
    γ(E⋆ρ) the condition reads X·Φ_σ* = Y, one n_B×n_B system shared by the
    rows of X.  Φ_σ comes from one evaluation, γ(id⋆σ) = D[Φ_σ], and the
    premise is checked on a fixed dense probe: a family that fails it raises
    ``UnsupportedFamilyError``.  Trace preservation t_A·X = t_B fixes the
    t_A-component of X; the rest is the least-squares solution truncated at
    lstsq's default cutoff, and each null direction of Φ_σ* gives n_A − 1
    null directions of X, which measures uniqueness.
    """
    sigma = e(rho)
    a_shape, b_shape = e.source, e.target
    n_a, n_b = a_shape.vector_dim, b_shape.vector_dim

    def reversed_map(value: AlgebraElement, target: AlgebraShape) -> np.ndarray:
        """The matrix of the map B → target whose channel state is γ(value)."""
        return maps.channel_from_state(maps.swap_gamma(value), b_shape, target).matrix

    forward = sot.evaluate(family, e, rho).value
    y = reversed_map(forward, a_shape)
    phi_adj = reversed_map(family.value(maps.identity_map(b_shape), sigma),
                           b_shape).conj().T

    parts = np.random.default_rng(0).standard_normal((2, n_a, n_b))
    probe = LinearMap(b_shape, a_shape, parts[0] + 1j * parts[1])
    want = probe.matrix @ phi_adj
    got = reversed_map(maps.time_reversal_tau(family.value(probe.tilde(), sigma)),
                       a_shape)
    if np.max(np.abs(got - want)) > LOCALITY_TOL * max(1.0, np.max(np.abs(want))):
        raise UnsupportedFamilyError(
            f"family {family.tag} is not local in the source "
            "factor, which the generic solver assumes")

    t_a, t_b = maps.trace_row(a_shape), maps.trace_row(b_shape)
    t_hat = t_a / np.linalg.norm(t_a)
    x = np.outer(t_hat, t_b) / np.linalg.norm(t_a)  # t_A·x = t_B
    rhs = y - x @ phi_adj
    rhs -= np.outer(t_hat, t_hat @ rhs)  # the t_A-component of X is fixed
    u, svals, vh = np.linalg.svd(phi_adj)
    keep = svals > np.finfo(float).eps * n_a * n_b * svals[0]
    x = x + (rhs @ vh[keep].conj().T / svals[keep]) @ u[:, keep].conj().T
    x_map = LinearMap(b_shape, a_shape, x)

    # bayes_residual, with the forward side y was built from
    backward = sot.evaluate(family, x_map.tilde(), sigma).value
    residual = (forward - maps.time_reversal_tau(backward)).norm()
    nullity = (n_a - 1) * int(np.sum(svals <= RANK_TOL * max(1.0, svals[0])))
    if residual > FAIL_THRESHOLD:
        uniqueness, witnesses = "none-found", ()
    elif nullity == 0:
        uniqueness, witnesses = "unique", ()
    else:
        free = np.eye(n_a)[0] - t_hat[0] * t_hat  # ⊥ t_A, nonzero as n_A > 1
        direction = np.outer(free / np.linalg.norm(free), u[:, -1].conj())
        uniqueness = "non-unique-witness"
        witnesses = (LinearMap(b_shape, a_shape, x + direction),)
    return BayesSolution(x_map, residual, classify_solution(x_map),
                         uniqueness, witnesses)


# ------------------------------------------------------------------------- GCE
def theta_jordan() -> sot.SymmetricBloom:
    """The Jordan recipe: ``sot.ThetaDerived(theta_jordan())`` renders Θ_ρ = ½{ρ, ·}."""
    return sot.SymmetricBloom()


def gce_solve(family: sot.ThetaDerived, e: LinearMap,
              rho: AlgebraElement) -> LinearMap:
    """The Bayes map X with E∘Θ_ρ = Θ_{E(ρ)}∘X*, the generalized conditional
    expectation of a Θ-derived family: its closed-form Bayes map."""
    return closed_form_bayes(family, e, rho)


# -------------------------------------------------------- Remark-4 style checks
def bloom_cp_condition_residual(e: LinearMap, rho: AlgebraElement) -> float:
    """‖ρE*(E(ρ)^{−1}·) − E*(·E(ρ)^{−1})ρ‖: zero iff the bloom Bayes map is CP."""
    right = bloom_bayes("right", e, rho)
    left = bloom_bayes("left", e, rho)
    return float(np.linalg.norm(right.matrix - left.matrix))


def modular_covariance_residual(e: LinearMap, rho: AlgebraElement) -> float:
    """max_t ‖Ad_{E(ρ)^{it}}∘E − E∘Ad_{ρ^{it}}‖ over t = ±0.1, ±0.37, ±1."""
    sigma = e(rho)
    worst = 0.0
    for t in (0.1, -0.1, 0.37, -0.37, 1.0, -1.0):
        lhs = maps.ad_map(alg.support_unitary(sigma, t)).compose(e)
        rhs = e.compose(maps.ad_map(alg.support_unitary(rho, t)))
        worst = max(worst, float(np.linalg.norm(lhs.matrix - rhs.matrix)))
    return worst

"""End-to-end physics built on the state-over-time machinery.

Prepare-evolve-measure pipelines and their inferential reversal, quantum
instruments and the state-update rule, pre/post-selected two-states with weak
values, two-time correlators, and the finite-difference check that the
symmetric-bloom output is the derivative of the square-root family at the
maximally mixed state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import algebra as alg, bayes, maps, sot
from .algebra import AlgebraElement
from .config import ATOL, FAITHFULNESS_TOL, OVERLAP_TOL, RANK_ONE_TOL, STATE_TOL, STEP_TOL
from .errors import ConstraintError, FaithfulnessError, ShapeMismatchError, SingularityError
from .maps import LinearMap


# ------------------------------------------------------------ PEM scenarios
@dataclass(frozen=True)
class PemScenario:
    """A prepare-evolve-measure pipeline with classical ends.

    ``p`` is a classical state on ``prep``'s source; ``prep`` embeds outcomes
    as quantum states, ``evo`` is the dynamics, and ``meas`` is a POVM back
    into a classical algebra.
    """
    p: AlgebraElement
    prep: LinearMap
    evo: LinearMap
    meas: LinearMap

    def __post_init__(self):
        if self.p.shape != self.prep.source:
            raise ConstraintError("prior does not live on the preparation's source")
        if self.prep.target != self.evo.source or self.evo.target != self.meas.source:
            raise ConstraintError("PEM maps do not compose")
        alg.assert_state(self.p)

    @property
    def rho(self) -> AlgebraElement:
        return self.prep(self.p)

    @property
    def sigma(self) -> AlgebraElement:
        return self.evo(self.rho)

    @property
    def q(self) -> AlgebraElement:
        return self.meas(self.sigma)

    def classical_dynamics(self) -> LinearMap:
        """f = meas ∘ evo ∘ prep, a stochastic channel between the ends."""
        return self.meas.compose(self.evo).compose(self.prep)


def _distribution(state: AlgebraElement) -> np.ndarray:
    return np.array([m[0, 0].real for m in state.data])


def pem_reverse(s: PemScenario, strict: bool = True) -> tuple[PemScenario, dict]:
    """Reverse a PEM scenario by inverting each stage at its input state.

    Returns the reverse scenario (prior q, preparation M⋆_σ, dynamics E⋆_ρ,
    measurement P⋆_p) together with residuals: the composed reverse equals
    the classical Bayes inverse g_{xy} = f_{yx} p_x / q_y, and the classical
    joint f⋆p is recovered by pairing the quantum state over time against the
    reverse-preparation and measurement effects.
    """
    p = _distribution(s.p)
    rho, sigma = s.rho, s.sigma
    q = _distribution(s.q)
    notices: list[str] = []
    dead = [i for i, qy in enumerate(q) if qy <= FAITHFULNESS_TOL]  # off σ's support
    if strict and dead:
        label = s.meas.target.labels[dead[0]]
        raise FaithfulnessError(f"outcome {label} has probability at or below {FAITHFULNESS_TOL}")
    for i in dead:
        notices.append(f"outcome {s.meas.target.labels[i]} excluded "
                       f"(probability {q[i]:.2e})")

    meas_rev = bayes.petz(s.meas, sigma)
    evo_rev = bayes.petz(s.evo, rho)
    prep_rev = bayes.petz(s.prep, s.p)

    f = s.classical_dynamics().matrix.real
    composed = prep_rev.compose(evo_rev).compose(meas_rev).matrix.real
    live = [y for y in range(len(q)) if y not in dead]
    g = f[live].T * p[:, None] / q[live]
    classical_residual = float(np.max(np.abs(g - composed[:, live]))) if live else 0.0

    # The classical joint read off the quantum state over time: block (x, y)
    # of (P⋆⊗M)(E⋆ρ) is tr((N_x⊗M_y)·E⋆ρ), with N_x the effects of P⋆.
    joint = sot.evaluate(sot.LeiferSpekkens(), s.evo, rho).value
    joint = maps.apply_to_factor(s.meas, maps.apply_to_factor(prep_rev, joint, "left"), "right")
    x, y = np.array(joint.shape.pairs).T
    pairing_residual = np.max(np.abs(f[y, x] * p[x] - maps.vec(joint)))

    reverse = PemScenario(s.q, meas_rev, evo_rev, prep_rev)
    residuals = {"classical_inverse": classical_residual,
                 "leifer_pairing": float(pairing_residual),
                 "notices": notices}
    return reverse, residuals


def eigenbasis_pem(evo: LinearMap, rho: AlgebraElement) -> PemScenario:
    """PEM scenario whose ends are the spectral rank-1 projectors of ρ and
    σ = evo(ρ); requires a non-degenerate spectrum on a single-block source."""
    p_vals, prep_states = _rank_one_basis(rho)
    q_vals, meas_states = _rank_one_basis(evo(rho))
    prep = maps.ensemble(prep_states)
    meas = maps.povm(meas_states)
    p = alg.diagonal_element(prep.source, p_vals)
    return PemScenario(p, prep, evo, meas)


def _rank_one_basis(a: AlgebraElement) -> tuple[np.ndarray, list[AlgebraElement]]:
    if len(a.shape.blocks) != 1:
        raise ConstraintError("eigenbasis scenarios need a single-block algebra")
    vals, vecs = np.linalg.eigh(a.data[0])
    projs = [AlgebraElement(a.shape, (np.outer(vecs[:, i], vecs[:, i].conj()),))
             for i in range(len(vals))]
    return vals, projs


def eigenbasis_identities(s: PemScenario) -> dict:
    """Residuals of the eigenbasis-PEM facts: the end reversals are plain
    adjoints, and the reversed conditional probabilities satisfy the
    classical Bayes identity tr(M_k E(P_i)) p_i = tr(P_i E⋆_ρ(M_k)) q_k."""
    rho, sigma = s.rho, s.sigma
    p, q = _distribution(s.p), _distribution(s.q)
    meas_rev = bayes.petz(s.meas, sigma)
    prep_rev = bayes.petz(s.prep, s.p)
    adjoint_meas = float(np.max(np.abs(meas_rev.matrix - s.meas.hs_adjoint().matrix)))
    adjoint_prep = float(np.max(np.abs(prep_rev.matrix - s.prep.hs_adjoint().matrix)))

    evo_rev = bayes.petz(s.evo, rho)
    lhs = s.classical_dynamics().matrix.real * p  # [k, i] = tr(M_k E(P_i)) p_i
    rhs = s.prep.hs_adjoint().compose(evo_rev).compose(s.meas.hs_adjoint()).matrix.real * q
    bayes_identity = np.max(np.abs(lhs - rhs.T))  # rhs[i, k] = tr(P_i E⋆_ρ(M_k)) q_k
    return {"adjoint_meas": adjoint_meas, "adjoint_prep": adjoint_prep,
            "bayes_identity": float(bayes_identity)}


# ---------------------------------------------------------------- Fuchs rule
def fuchs_rule(meas: LinearMap, rho: AlgebraElement
               ) -> tuple[list[tuple[object, float, AlgebraElement]], list[str]]:
    """Posterior states ρ_x = √ρ M_x √ρ / p_x for a POVM measurement: the
    Petz map of the POVM at ρ on the outcome unit δ_x, with p = meas(ρ).

    Returns (entries, notices); outcomes off the support of p are omitted
    and reported in the notices.
    """
    recovery = bayes.petz(meas, rho)
    entries, notices = [], []
    for label, p_x in zip(meas.target.labels, _distribution(meas(rho))):
        if p_x <= FAITHFULNESS_TOL:
            notices.append(f"outcome {label} omitted (probability {p_x:.2e})")
            continue
        entries.append((label, p_x, recovery(alg.basis_vector(meas.target, label))))
    return entries, notices


# ------------------------------------------------------------- state update
@dataclass(frozen=True)
class InstrumentScenario:
    """An initial state together with the CP parts of an instrument, whose
    sum must be trace-preserving."""
    sigma: AlgebraElement
    cp_parts: tuple[LinearMap, ...]

    def __post_init__(self):
        alg.assert_state(self.sigma)
        self.instrument  # refuses parts that do not form an instrument

    @property
    def instrument(self) -> LinearMap:
        return maps.instrument(list(self.cp_parts))

    @property
    def rho(self) -> AlgebraElement:
        return self.instrument(self.sigma)

    def outcome_probabilities(self) -> np.ndarray:
        return np.array([f(self.sigma).trace().real for f in self.cp_parts])


DEFAULT_UPDATE_FAMILIES: tuple[sot.SotFamily, ...] = (
    sot.LeiferSpekkens(), sot.SymmetricBloom(), sot.RightBloom())


def state_update(s: InstrumentScenario,
                 family: sot.SotFamily | None = None) -> tuple[LinearMap, dict]:
    """The measurement state-update map as a Bayes map of the outcome readout.

    Inverting the partial trace E = tr_B at ρ = F(σ) sends each outcome to
    its normalized updated state: Ψ(δ_x) = F_x(σ)/tr(F_x(σ)) ⊗ δ_x.  The
    checks report the distance to this closed formula, the recovery
    identities Ψ(E(ρ)) = ρ and E∘Ψ = id, and the maximum disagreement across
    the ``DEFAULT_UPDATE_FAMILIES`` (the map is family-independent).
    """
    family = family or sot.LeiferSpekkens()
    probs = s.outcome_probabilities()
    for x, p_x in enumerate(probs):
        if p_x <= FAITHFULNESS_TOL:
            raise SingularityError(f"outcome {x} has vanishing probability {p_x:.2e}")
    rho = s.rho
    e = maps.partial_trace_channel(rho.shape, "A")  # traces out B, keeps outcomes
    psi = bayes.closed_form_bayes(family, e, rho)

    outcomes = e.target
    cols = []
    for x, (f_x, p_x) in enumerate(zip(s.cp_parts, probs)):
        posterior = alg.tensor((1.0 / p_x) * f_x(s.sigma),
                               alg.basis_vector(outcomes, outcomes.labels[x]))
        cols.append(maps.vec(posterior))
    direct = LinearMap(outcomes, rho.shape, np.column_stack(cols))

    recovery = (psi(e(rho)) - rho).norm()
    conditional = np.linalg.norm(e.compose(psi).matrix - maps.identity_map(outcomes).matrix)
    others = [bayes.closed_form_bayes(fam, e, rho) for fam in DEFAULT_UPDATE_FAMILIES]
    independence = max((np.linalg.norm(a.matrix - b.matrix)
                        for i, a in enumerate(others) for b in others[i + 1:]),
                       default=0.0)
    checks = {"direct_formula": float(np.linalg.norm(psi.matrix - direct.matrix)),
              "recovery": float(recovery),
              "conditional_expectation": float(conditional),
              "family_independence": float(independence)}
    return psi, checks


def jeffrey_update(s: InstrumentScenario, r: Sequence[float]) -> AlgebraElement:
    """Soft-evidence barycenter Σ_x r_x · F_x(σ)/tr(F_x(σ))."""
    r = np.asarray(r, dtype=float)
    if r.shape != (len(s.cp_parts),) or np.any(r < 0) or abs(r.sum() - 1.0) > ATOL:
        raise ConstraintError("r must be a distribution over the outcomes")
    probs = s.outcome_probabilities()
    out = alg.zero(s.cp_parts[0].target)
    for x, (f_x, p_x) in enumerate(zip(s.cp_parts, probs)):
        if r[x] == 0.0:
            continue
        if p_x <= FAITHFULNESS_TOL:
            raise SingularityError(f"outcome {x} has vanishing probability {p_x:.2e}")
        out = out + (r[x] / p_x) * f_x(s.sigma)
    return out


# ------------------------------------------------------ two-states, weak values
@dataclass(frozen=True)
class TwoStateEntry:
    outcome: object
    probability: float
    defined: bool
    state: AlgebraElement | None
    weak_value: Callable[[np.ndarray], complex] | None
    propagated_residual: float | None


def _rank_one_vector(m: np.ndarray) -> np.ndarray | None:
    vals, vecs = np.linalg.eigh(m)
    if vals[-1] > RANK_ONE_TOL and np.all(np.abs(vals[:-1]) < RANK_ONE_TOL * max(1.0, vals[-1])):
        return np.sqrt(vals[-1]) * vecs[:, -1]
    return None


def two_state(psi: np.ndarray, povm: LinearMap,
              unitaries: tuple[np.ndarray, np.ndarray] | None = None) -> list[TwoStateEntry]:
    """Pre/post-selected two-states and weak values from a POVM readout.

    ``unitaries`` holds (U_{t1←t0}, U_{t2←t1}); the measurement acts at t2 on
    the state evolved by their product.  Each entry carries the normalized
    two-state at t0 (the one-sided Bayes update ρM'_x/p_x of ρ = |ψ⟩⟨ψ|), the
    weak-value functional A ↦ tr(ρ_x†A), and — for rank-1 effects — the
    residual of the propagated-to-t1 identity against ⟨ψ'|φ'_x⟩|ψ'⟩⟨φ'_x|.
    Orthogonal pre/post-selection is flagged undefined instead of an error.
    """
    shape = povm.source
    if len(shape.blocks) != 1:
        raise ConstraintError("two-state scenarios need a single-block algebra")
    dim = shape.dims[0]
    psi = np.asarray(psi, dtype=complex)
    if psi.size != dim:
        raise ShapeMismatchError(f"psi has {psi.size} entries, expected {dim}")
    with np.errstate(over="ignore"):  # a norm beyond float range is refused below
        norm = np.linalg.norm(psi)
    if not 0.0 < norm < np.inf:
        raise ConstraintError("psi must be nonzero, with a norm within float range")
    psi = psi.reshape(dim) / norm
    if unitaries is None:
        u10 = u21 = np.eye(dim, dtype=complex)
    else:
        u10, u21 = (np.asarray(u, dtype=complex) for u in unitaries)
        for name, u in (("u10", u10), ("u21", u21)):
            if u.shape != (dim, dim):
                raise ShapeMismatchError(f"{name} is {u.shape}, expected {(dim, dim)}")
    u20 = u21 @ u10
    rho = AlgebraElement(shape, (np.outer(psi, psi.conj()),))
    e_prime = povm.compose(maps.unitary_channel(AlgebraElement(shape, (u20,))))

    joint = sot.evaluate(sot.RightBloom(), e_prime, rho).value
    propagated = maps.apply_to_factor(
        maps.unitary_channel(AlgebraElement(shape, (u10,))), joint, "left")
    psi1 = u10 @ psi

    entries = []
    for x, (label, m_x) in enumerate(zip(povm.target.labels, maps.povm_effects(povm))):
        m_back = u20.conj().T @ m_x.data[0] @ u20
        p_x = float(np.real(psi.conj() @ m_back @ psi))
        phi = _rank_one_vector(m_x.data[0])
        prop_res = None
        if phi is not None:
            phi1 = u21.conj().T @ phi
            expected = (psi1.conj() @ phi1) * np.outer(psi1, phi1.conj())
            block = propagated.data[propagated.shape.block_of(0, x)]
            prop_res = float(np.linalg.norm(block - expected))
        if p_x < OVERLAP_TOL:
            entries.append(TwoStateEntry(label, p_x, False, None, None, prop_res))
            continue
        state = AlgebraElement(shape, ((rho.data[0] @ m_back) / p_x,))
        weak = _weak_value_functional(state)
        entries.append(TwoStateEntry(label, p_x, True, state, weak, prop_res))
    return entries


def _weak_value_functional(state: AlgebraElement) -> Callable[[np.ndarray], complex]:
    mat = state.data[0]

    def weak_value(a: np.ndarray | AlgebraElement) -> complex:
        arr = a.data[0] if isinstance(a, AlgebraElement) else np.asarray(a, dtype=complex)
        if arr.shape != mat.shape:
            raise ShapeMismatchError(f"observable is {arr.shape}, expected {mat.shape}")
        return complex(np.trace(mat.conj().T @ arr))

    return weak_value


# ------------------------------------------------------------- correlators
def two_time_correlator(rho: AlgebraElement, h: AlgebraElement, t: float,
                        a: AlgebraElement, b: AlgebraElement,
                        via: str = "direct") -> complex:
    """⟨B(t)A(0)⟩_ρ = tr(e^{iHt} B e^{−iHt} A ρ).

    ``via='sot'`` computes the same number as tr((E⋆ρ)†(A⊗B)) with
    E = Ad_{e^{−iHt}} and ⋆ the one-sided family D[E](ρ⊗1).
    """
    for name, x in (("H", h), ("A", a), ("B", b)):
        if x.shape != rho.shape:
            raise ShapeMismatchError(f"{name} does not live on the state's shape")
        if not x.is_hermitian():
            raise ConstraintError(f"{name} must be hermitian")
    u = alg.apply_function(h, lambda vals: np.exp(-1j * t * vals))  # e^{−iHt}
    if via == "direct":
        total = 0.0 + 0.0j
        for u_m, b_m, a_m, r_m in zip(u.data, b.data, a.data, rho.data):
            total += np.trace(u_m.conj().T @ b_m @ u_m @ a_m @ r_m)
        return complex(total)
    if via == "sot":
        e = maps.unitary_channel(u)
        joint = sot.evaluate(sot.LeftBloom(), e, rho).value
        return complex((joint.dagger() @ alg.tensor(a, b)).trace())
    raise ConstraintError("via must be 'direct' or 'sot'")


# --------------------------------------------------------- LS linearization
@dataclass(frozen=True)
class LinearizationReport:
    epsilons: tuple[float, ...]
    errors: tuple[float, ...]
    half_step_errors: tuple[float, ...]
    ratios: tuple[float, ...]


def ls_linearization_check(e: LinearMap, a: AlgebraElement,
                           epsilons: Sequence[float]) -> LinearizationReport:
    """Finite-difference check that the square-root family linearizes, at the
    maximally mixed state, to the symmetric-bloom evaluation of the direction.

    For each ε the symmetric difference quotient of ε ↦ E⋆(1/m + εA) is
    compared against ½{A⊗1, D[E]}; the error is O(ε²), so halving ε should
    shrink it by ≈ 4.
    """
    if not a.is_hermitian() or abs(a.trace()) > STATE_TOL:
        raise ConstraintError("direction must be hermitian with zero trace")
    if a.shape != e.source:
        raise ConstraintError("direction does not live on the channel's source")
    if any(eps / 2.0 == 0.0 for eps in epsilons):  # also when ε is so small its half is 0
        raise ConstraintError("each step and its half must be nonzero")
    dim = e.source.total_dim
    rho0 = (1.0 / dim) * alg.identity(e.source)
    target = sot.SymmetricBloom().value(e, a)

    def quotient_error(eps: float) -> float:
        plus, minus = rho0 + eps * a, rho0 - eps * a
        for state in (plus, minus):
            if state.min_eigenvalue() <= STEP_TOL:
                raise ConstraintError(
                    f"step {eps} leaves the state set (direction too large)")
        diff = (sot.evaluate(sot.LeiferSpekkens(), e, plus).value
                - sot.evaluate(sot.LeiferSpekkens(), e, minus).value)
        return ((1.0 / (2.0 * eps)) * diff - target).norm()

    errors = tuple(quotient_error(eps) for eps in epsilons)
    halves = tuple(quotient_error(eps / 2.0) for eps in epsilons)
    ratios = tuple(err / half if half > 0 else float("inf")
                   for err, half in zip(errors, halves))
    return LinearizationReport(tuple(epsilons), errors, halves, ratios)

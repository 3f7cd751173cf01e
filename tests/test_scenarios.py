"""Physics scenarios: pipeline reversal, posterior updates, weak values,
correlators, and the finite-difference linearization check."""
import numpy as np
import pytest

from qsot import algebra as alg, bayes, maps, sampling, scenarios, sot
from qsot.algebra import AlgebraElement
from qsot.errors import ConstraintError, FaithfulnessError, SingularityError

from conftest import dense_embedding, fuchs_posterior, random_traceless_direction

TOL = 1e-10


def random_pem(rng, dim=2, n_in=3, n_out=3) -> scenarios.PemScenario:
    shape = alg.matrix_algebra(dim)
    prep = maps.ensemble([sampling.random_state(shape, rng) for _ in range(n_in)])
    evo = sampling.random_cptp(shape, alg.matrix_algebra(dim, "q1"), rng)
    meas = sampling.random_povm(evo.target, n_out, rng)
    p = alg.diagonal_element(prep.source, rng.dirichlet(np.ones(n_in)))
    return scenarios.PemScenario(p, prep, evo, meas)


# ------------------------------------------------------------------- PEM
def test_pem_scenario_composition_and_distributions(rng):
    s = random_pem(rng)
    f = s.classical_dynamics().matrix.real
    np.testing.assert_allclose(f.sum(axis=0), 1.0, atol=TOL)  # stochastic
    q = np.array([m[0, 0].real for m in s.q.data])
    p = np.array([m[0, 0].real for m in s.p.data])
    np.testing.assert_allclose(q, f @ p, atol=TOL)


def test_pem_reverse_residuals(rng):
    s = random_pem(rng)
    reverse, residuals = scenarios.pem_reverse(s)
    assert residuals["classical_inverse"] < 1e-9
    assert residuals["leifer_pairing"] < 1e-9
    assert residuals["notices"] == []
    # the reverse runs measurement -> dynamics -> preparation backwards
    assert reverse.p.shape == s.meas.target
    assert reverse.meas.target == s.prep.source


@pytest.mark.parametrize("dim", [2, 3])
def test_the_pem_joint_read_through_the_factor_maps_is_the_effect_pairing(dim, rng):
    """Block (x, y) of (P⋆⊗M)(E⋆ρ) is tr((N_x⊗M_y)·E⋆ρ), with N_x the
    effects of the reverse preparation P⋆ and M_y those of the measurement."""
    s = random_pem(rng, dim=dim)
    prep_rev = bayes.petz(s.prep, s.p)
    joint = sot.evaluate(sot.LeiferSpekkens(), s.evo, s.rho).value
    read = maps.apply_to_factor(s.meas, maps.apply_to_factor(prep_rev, joint, "left"), "right")
    for x, n_x in enumerate(maps.povm_effects(prep_rev)):
        for y, m_y in enumerate(maps.povm_effects(s.meas)):
            want = (alg.tensor(n_x, m_y) @ joint).trace()
            assert abs(read.data[read.shape.block_of(x, y)][0, 0] - want) < 1e-12


def test_pem_reverse_strict_rejects_dead_outcomes(rng):
    shape = alg.matrix_algebra(2)
    prep = maps.ensemble([sampling.random_state(shape, rng) for _ in range(2)])
    evo = maps.identity_map(shape)
    dead = np.zeros((2, 2))
    meas = maps.povm([np.eye(2), dead])
    p = alg.diagonal_element(prep.source, [0.5, 0.5])
    s = scenarios.PemScenario(p, prep, evo, meas)
    with pytest.raises(FaithfulnessError):
        scenarios.pem_reverse(s, strict=True)
    _, residuals = scenarios.pem_reverse(s, strict=False)
    assert len(residuals["notices"]) == 1


def test_eigenbasis_pem_identities(rng):
    shape = alg.matrix_algebra(3)
    evo = sampling.random_cptp(shape, alg.matrix_algebra(3, "q1"), rng)
    rho = sampling.random_state(shape, rng)
    s = scenarios.eigenbasis_pem(evo, rho)
    assert (s.rho - rho).norm() < TOL
    res = scenarios.eigenbasis_identities(s)
    assert res["adjoint_meas"] < TOL
    assert res["adjoint_prep"] < TOL
    assert res["bayes_identity"] < TOL


def test_fuchs_rule_matches_petz_of_the_povm(rng):
    shape = alg.matrix_algebra(2)
    meas = sampling.random_povm(shape, 3, rng)
    rho = sampling.random_state(shape, rng)
    entries, notices = scenarios.fuchs_rule(meas, rho)
    assert notices == []
    for (label, p_x, rho_x), m_x in zip(entries, maps.povm_effects(meas)):
        assert abs(rho_x.trace() - 1.0) < TOL
        assert abs(p_x - (m_x @ rho).trace().real) < TOL
        want = fuchs_posterior(dense_embedding(rho), dense_embedding(m_x))
        assert np.max(np.abs(dense_embedding(rho_x) - want)) < TOL


# An outcome of probability ε·⟨0|σ|0⟩ ≈ 5.5e-12 (effects 1 − εP and εP, ε =
# 1e-11) is off σ's support, where the Petz maps the scenarios call drop it:
# each scenario treats it as dead.
RARE = 1e-11
P0 = np.diag([1.0, 0.0])


def test_fuchs_rule_omits_an_outcome_off_the_support():
    shape = alg.matrix_algebra(2)
    meas = maps.povm([np.eye(2) - RARE * P0, RARE * P0])
    rho = AlgebraElement(shape, (np.array([[0.552, 0.1], [0.1, 0.448]]),))
    entries, notices = scenarios.fuchs_rule(meas, rho)
    assert [label for label, _, _ in entries] == ["y0"]
    assert notices == ["outcome y1 omitted (probability 5.52e-12)"]


# ------------------------------------------------------------- state update
def random_instrument(rng, dim=2, outcomes=2) -> scenarios.InstrumentScenario:
    shape = alg.matrix_algebra(dim)
    channel = sampling.random_cptp(shape, shape.tensor(alg.classical_algebra(outcomes)), rng)
    # split a random instrument channel into its CP outcome parts
    parts = []
    for k in range(outcomes):
        label = channel.target.labels[k]

        def part(x, label=label):
            block = channel(x).block(label)
            return AlgebraElement(shape, (block,))

        parts.append(maps.from_action(shape, shape, part))
    sigma = sampling.random_state(shape, rng)
    return scenarios.InstrumentScenario(sigma, tuple(parts))


def luders_instrument(rng, dim=2) -> scenarios.InstrumentScenario:
    shape = alg.matrix_algebra(dim)
    povm = sampling.random_povm(shape, 2, rng)
    parts = []
    for m in maps.povm_effects(povm):
        root = alg.power(m, 0.5)
        parts.append(maps.from_action(
            shape, shape, lambda x, r=root: r @ x @ r))
    return scenarios.InstrumentScenario(sampling.random_state(shape, rng),
                                        tuple(parts))


def test_state_update_checks_pass_for_luders(rng):
    s = luders_instrument(rng)
    psi, checks = scenarios.state_update(s)
    assert all(v < TOL for v in checks.values()), checks
    # the updated state for outcome x is the normalized Luders posterior
    outcomes = psi.source
    for x, f_x in enumerate(s.cp_parts):
        post = f_x(s.sigma)
        post = (1.0 / post.trace().real) * post
        got = alg.partial_trace(psi(alg.basis_vector(outcomes, outcomes.labels[x])), "B")
        assert (got - post).norm() < TOL


def test_state_update_checks_pass_for_random_instruments(rng):
    s = random_instrument(rng, dim=2, outcomes=3)
    _, checks = scenarios.state_update(s)
    assert all(v < TOL for v in checks.values()), checks


def test_jeffrey_update_interpolates_posteriors(rng):
    s = luders_instrument(rng)
    posterior = scenarios.jeffrey_update(s, [0.25, 0.75])
    alg.assert_state(posterior)
    hard0 = scenarios.jeffrey_update(s, [1.0, 0.0])
    f0 = s.cp_parts[0](s.sigma)
    assert (hard0 - (1.0 / f0.trace().real) * f0).norm() < TOL
    with pytest.raises(ConstraintError):
        scenarios.jeffrey_update(s, [0.5, 0.6])


def rare_outcome_instrument() -> scenarios.InstrumentScenario:
    """Kraus √(1 − εP) and √ε·P on M2, at σ with ⟨0|σ|0⟩ = 0.585."""
    shape = alg.matrix_algebra(2)
    parts = tuple(maps.from_kraus(shape, shape, [(0, 0, k)])
                  for k in (np.diag([np.sqrt(1 - RARE), 1.0]), np.sqrt(RARE) * P0))
    sigma = AlgebraElement(shape, (np.array([[0.585, 0.2], [0.2, 0.415]]),))
    return scenarios.InstrumentScenario(sigma, parts)


def test_state_update_refuses_an_outcome_off_the_support():
    """The scenario's own error, not a vanishing spectral denominator from
    the symmetric-bloom solve of its family-independence check."""
    s = rare_outcome_instrument()
    assert 1e-12 < s.outcome_probabilities()[1] < 1e-11
    with pytest.raises(SingularityError, match="^outcome 1 has vanishing probability 5.85e-12$"):
        scenarios.state_update(s)


def test_jeffrey_update_refuses_weight_on_an_outcome_off_the_support():
    s = rare_outcome_instrument()
    with pytest.raises(SingularityError, match="^outcome 1 has vanishing probability"):
        scenarios.jeffrey_update(s, [0.5, 0.5])
    f0 = s.cp_parts[0](s.sigma)
    assert (scenarios.jeffrey_update(s, [1.0, 0.0]) - (1.0 / f0.trace().real) * f0).norm() < TOL


def test_instrument_scenario_refuses_parts_that_are_not_trace_preserving(rng):
    shape = alg.matrix_algebra(2)
    parts = (0.5 * maps.identity_map(shape), 0.7 * maps.identity_map(shape))
    with pytest.raises(ConstraintError, match="must be trace-preserving"):
        scenarios.InstrumentScenario(sampling.random_state(shape, rng), parts)


# ----------------------------------------------------------- two-state vector
def test_weak_value_formula_on_random_triples(rng):
    dim = 3
    shape = alg.matrix_algebra(dim)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    phi /= np.linalg.norm(phi)
    a = sampling.random_hermitian(shape, rng).data[0]
    povm = maps.povm([np.outer(phi, phi.conj()),
                      np.eye(dim) - np.outer(phi, phi.conj())])
    entries = scenarios.two_state(psi, povm)
    entry = entries[0]
    assert entry.defined
    want = (psi.conj() @ a @ phi) / (psi.conj() @ phi)
    assert abs(entry.weak_value(a) - want) < TOL
    assert entry.propagated_residual is not None
    assert entry.propagated_residual < TOL


def test_two_state_textbook_example():
    # pre-select |0>, post-select |+>: the sigma_x weak value is exactly 1
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    povm = maps.povm([np.outer(plus, plus), np.eye(2) - np.outer(plus, plus)])
    entries = scenarios.two_state(np.array([1.0, 0.0]), povm)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert abs(entries[0].weak_value(sx) - 1.0) < TOL


def test_two_state_orthogonal_postselection_is_undefined():
    povm = maps.povm([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
    entries = scenarios.two_state(np.array([1.0, 0.0]), povm)
    assert not entries[0].defined
    assert entries[0].weak_value is None


def test_two_state_with_intermediate_unitaries(rng):
    dim = 2
    u10 = sampling.random_unitary(rng, dim)
    u21 = sampling.random_unitary(rng, dim)
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    phi /= np.linalg.norm(phi)
    povm = maps.povm([np.outer(phi, phi.conj()),
                      np.eye(dim) - np.outer(phi, phi.conj())])
    psi = np.array([1.0, 0.0])
    entries = scenarios.two_state(psi, povm, (u10, u21))
    assert entries[0].propagated_residual < TOL
    # probability agrees with the Born rule on the fully evolved state
    want = abs(phi.conj() @ (u21 @ u10 @ psi)) ** 2
    assert abs(entries[0].probability - want) < TOL


# --------------------------------------------------------------- correlators
def test_two_time_correlator_direct_matches_dense(rng):
    shape = alg.matrix_algebra(3)
    rho = sampling.random_state(shape, rng)
    h = sampling.random_hermitian(shape, rng)
    a = sampling.random_hermitian(shape, rng)
    b = sampling.random_hermitian(shape, rng)
    t = 0.73
    vals, vecs = np.linalg.eigh(h.data[0])
    u = (vecs * np.exp(1j * t * vals)) @ vecs.conj().T  # e^{iHt}
    want = np.trace(u @ b.data[0] @ u.conj().T @ a.data[0] @ rho.data[0])
    got = scenarios.two_time_correlator(rho, h, t, a, b)
    assert abs(got - want) < TOL


def test_two_time_correlator_sot_route_agrees(rng):
    shape = alg.matrix_algebra(2)
    rho = sampling.random_state(shape, rng)
    h = sampling.random_hermitian(shape, rng)
    a = sampling.random_hermitian(shape, rng)
    b = sampling.random_hermitian(shape, rng)
    for t in (0.0, 0.31, -1.2):
        direct = scenarios.two_time_correlator(rho, h, t, a, b)
        via_sot = scenarios.two_time_correlator(rho, h, t, a, b, via="sot")
        assert abs(direct - via_sot) < TOL


def test_correlator_rejects_non_hermitian_inputs(rng):
    shape = alg.matrix_algebra(2)
    rho = sampling.random_state(shape, rng)
    h = sampling.random_hermitian(shape, rng)
    bad = AlgebraElement(shape, (np.array([[0, 1], [0, 0]], dtype=complex),))
    with pytest.raises(ConstraintError):
        scenarios.two_time_correlator(rho, h, 0.1, bad, h)


# ------------------------------------------------------------- linearization
def test_linearization_ratios_near_four_on_qutrits(rng):
    shape = alg.matrix_algebra(3)
    e = sampling.random_cptp(shape, alg.matrix_algebra(3, "q1"), rng)
    a = random_traceless_direction(shape, rng, norm=1.0)
    report = scenarios.ls_linearization_check(e, a, [1e-2, 5e-3])
    for ratio in report.ratios:
        assert 3.5 <= ratio <= 4.5, report


def test_linearization_rejects_traceful_directions(rng):
    shape = alg.matrix_algebra(2)
    e = sampling.random_cptp(shape, shape, rng)
    with pytest.raises(ConstraintError):
        scenarios.ls_linearization_check(e, alg.identity(shape), [1e-2])


def test_linearization_rejects_steps_leaving_the_state_set(rng):
    shape = alg.matrix_algebra(2)
    e = sampling.random_cptp(shape, alg.matrix_algebra(2, "q1"), rng)
    a = random_traceless_direction(shape, rng, norm=100.0)
    with pytest.raises(ConstraintError):
        scenarios.ls_linearization_check(e, a, [1e-2])

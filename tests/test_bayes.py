"""Bayes maps: closed forms solve the defining condition, match independent
dense oracles, agree with the generic least-squares solver, and classify as
expected."""
import copy

import numpy as np
import pytest

from qsot import algebra as alg, bayes, cli, io, maps, sampling, sot
from qsot.algebra import AlgebraElement, AlgebraShape
from qsot.config import PASS_THRESHOLD
from qsot.errors import (ConstraintError, FaithfulnessError, NotAStateError,
                         NotHermitianError, QsotError, ShapeMismatchError, SingularityError,
                         UnsupportedFamilyError)
from qsot.maps import LinearMap

from conftest import (TransposedTarget, classical_rule, copying_kernels, defining_bayes_residual,
                      dense_gce, dense_generic_bayes, dense_multiplier, dense_product_bayes,
                      dense_spectral_bayes, fuchs_rule, jordan_rule, left_bloom_rule, petz_rule,
                      right_bloom_rule, rng_for, rotated_petz_rule, sth_rule, two_state_rule)

RESIDUAL_TOL = 1e-10
MATCH_TOL = 1e-8

CLOSED_FORM_FAMILIES = (
    sot.LeiferSpekkens(), sot.TRotated(0.3), sot.STH(0.3),
    sot.SymmetricBloom(), sot.RightBloom(), sot.LeftBloom(),
    sot.RSFamily(0.3, 0.7),
)


def qubit_pair(rng):
    shape_a, shape_b = alg.matrix_algebra(2, "a"), alg.matrix_algebra(2, "b")
    e = sampling.random_cptp(shape_a, shape_b, rng)
    rho = sampling.random_state(shape_a, rng)
    return e, rho


# -------------------------------------------------------------- closed forms
@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES, ids=lambda f: f.tag)
def test_closed_form_solves_the_bayes_condition(family, rng):
    e, rho = qubit_pair(rng)
    x = bayes.closed_form_bayes(family, e, rho)
    assert x.is_tp
    assert bayes.bayes_residual(family, x, e, rho) < RESIDUAL_TOL


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES, ids=lambda f: f.tag)
def test_closed_form_and_residual_give_the_bits_of_the_copying_kernels(family, rng):
    """The kernels that write into their outputs make the same products and
    sums in the same order as the copying ones they replaced."""
    cases = [(alg.matrix_algebra(5, "a"), alg.matrix_algebra(4, "b")),
             (AlgebraShape([("a", 3), ("x", 2)]), AlgebraShape([("b", 2), ("y", 1), ("z", 2)])),
             (AlgebraShape([("b", 2), ("a", 1), ("c", 2)]), AlgebraShape([("q", 1), ("p", 2)]))]
    for source, target in cases:
        e = sampling.random_cptp(source, target, rng)
        rho = sampling.random_state(source, rng)
        x = bayes.closed_form_bayes(family, e, rho)
        residual = bayes.bayes_residual(family, x, e, rho)
        with copying_kernels():
            want = bayes.closed_form_bayes(family, e, rho)
            want_residual = bayes.bayes_residual(family, want, e, rho)
        assert np.array_equal(x.matrix, want.matrix)
        assert residual == want_residual < RESIDUAL_TOL


SANDWICH_FAMILIES = CLOSED_FORM_FAMILIES + (sot.ThetaDerived(sot.SymmetricBloom()),)
RESIDUAL_SHAPES = {
    "M5-M4": (alg.matrix_algebra(5, "a"), alg.matrix_algebra(4, "b")),
    "hybrid": (AlgebraShape([("a", 3), ("x", 2)]), AlgebraShape([("b", 2), ("y", 1), ("z", 2)])),
    "unsorted": (AlgebraShape([("b", 2), ("a", 1), ("c", 2)]),
                 AlgebraShape([("q", 1), ("p", 2)])),
}


@pytest.mark.parametrize("case", RESIDUAL_SHAPES)
@pytest.mark.parametrize("family", SANDWICH_FAMILIES, ids=lambda f: f.tag)
def test_residual_as_one_equation_agrees_with_the_defining_one(family, case):
    """‖X·Φ_σ* − Y‖ is ‖E⋆ρ − τ(~X⋆σ)‖: both vanish at the closed form, and
    off it, on trace-preserving steps of size 1e-3, they agree to roundoff."""
    source, target = RESIDUAL_SHAPES[case]
    rng = rng_for(f"one-equation-{family.tag}", list(RESIDUAL_SHAPES).index(case))
    e = sampling.random_cptp(source, target, rng)
    rho = sampling.random_state(source, rng)
    x = bayes.closed_form_bayes(family, e, rho)
    assert bayes.bayes_residual(family, x, e, rho) < 1e-12
    assert defining_bayes_residual(family, x, e, rho) < 1e-12
    t_a = maps.trace_row(source)
    for _ in range(3):
        step = rng.normal(size=x.matrix.shape) + 1j * rng.normal(size=x.matrix.shape)
        step -= np.outer(t_a, t_a @ step) / (t_a @ t_a)  # t_A·step = 0 keeps X TP
        moved = LinearMap(target, source, x.matrix + 1e-3 * step / np.linalg.norm(step))
        want = defining_bayes_residual(family, moved, e, rho)
        assert abs(bayes.bayes_residual(family, moved, e, rho) - want) <= 1e-12 * want


@pytest.mark.parametrize("family", SANDWICH_FAMILIES, ids=lambda f: f.tag)
def test_residual_refuses_what_the_defining_one_refuses(family, rng):
    """A non-TP X or E, a non-hermitian ρ and an X into the wrong shape raise
    the defining residual's error class and message."""
    e, rho = qubit_pair(rng)
    x = bayes.closed_form_bayes(family, e, rho)
    skew = AlgebraElement(rho.shape, (rho.data[0] + np.array([[0.0, 0.1], [0.0, 0.0]]),))
    elsewhere = maps.replace_channel(sampling.random_state(alg.matrix_algebra(2, "c"), rng),
                                     e.target)
    cases = {"non-TP X": (1.1 * x, e, rho), "non-TP E": (x, 1.1 * e, rho),
             "non-hermitian ρ": (x, e, skew), "X into another shape": (elsewhere, e, rho)}
    for name, args in cases.items():
        with pytest.raises(QsotError) as want:
            defining_bayes_residual(family, *args)
        with pytest.raises(QsotError) as got:
            bayes.bayes_residual(family, *args)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value)), name
    with pytest.raises(ConstraintError, match="state over time requires a trace-preserving map"):
        bayes.bayes_residual(family, *cases["non-TP X"])


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES, ids=lambda f: f.tag)
def test_closed_form_on_blocky_shapes(family, rng):
    source = AlgebraShape([("a", 2), ("x", 1)])
    target = AlgebraShape([("b", 2), ("y", 1)])
    e = sampling.random_cptp(source, target, rng)
    rho = sampling.random_state(source, rng)
    x = bayes.closed_form_bayes(family, e, rho)
    assert bayes.bayes_residual(family, x, e, rho) < RESIDUAL_TOL


# Block order differs from label order, and block dims differ.
CLOSED_FORM_SHAPES = (
    (AlgebraShape([("b", 3), ("a", 1), ("c", 2)]), AlgebraShape([("z", 2), ("y", 3)])),
    (AlgebraShape([("p", 3), ("o", 1)]), AlgebraShape([("u", 2), ("t", 1), ("s", 1)])),
)
ONE_TERM_FAMILIES = (sot.LeiferSpekkens(), sot.TRotated(0.3), sot.STH(0.3),
                     sot.RightBloom(), sot.LeftBloom())
TWO_TERM_FAMILIES = (sot.SymmetricBloom(), sot.RSFamily(0.3, 0.7), sot.RSFamily(1.0, 1.0))
ORACLE_TOL = 1e-12


def family_id(family):
    return f"rs({family.r},{family.s})" if isinstance(family, sot.RSFamily) else family.tag


def shapes_id(shapes):
    return "->".join("+".join(str(label) for label in s.labels) for s in shapes)


@pytest.mark.parametrize("strict", (False, True))
@pytest.mark.parametrize("shapes", CLOSED_FORM_SHAPES, ids=shapes_id)
@pytest.mark.parametrize("family", ONE_TERM_FAMILIES, ids=family_id)
def test_product_bayes_matches_dense_oracle(family, shapes, strict, rng):
    e = sampling.random_cptp(*shapes, rng)
    rho = sampling.random_state(shapes[0], rng)
    x = bayes.closed_form_bayes(family, e, rho, strict=strict)
    want = dense_product_bayes(family, e, rho, strict)
    assert np.max(np.abs(x.matrix - want)) < ORACLE_TOL * max(1.0, np.linalg.norm(want))
    assert x.matrix.flags.c_contiguous


@pytest.mark.parametrize("strict", (False, True))
@pytest.mark.parametrize("shapes", CLOSED_FORM_SHAPES, ids=shapes_id)
@pytest.mark.parametrize("family", ONE_TERM_FAMILIES + TWO_TERM_FAMILIES, ids=family_id)
def test_spectral_bayes_matches_dense_oracle(family, shapes, strict, rng):
    """For one term the spectral oracle, built from the generic denominator
    Σ w q_k^ā q_l^b̄, checks the product formula: the conjugates are needed."""
    e = sampling.random_cptp(*shapes, rng)
    rho = sampling.random_state(shapes[0], rng)
    x = bayes.closed_form_bayes(family, e, rho, strict=strict)
    want = dense_spectral_bayes(family, e, rho)
    assert np.max(np.abs(x.matrix - want)) < ORACLE_TOL * max(1.0, np.linalg.norm(want))
    assert x.matrix.flags.c_contiguous


@pytest.mark.parametrize("t", (0.3, 0.45, -0.2))
@pytest.mark.parametrize("shapes", ((alg.matrix_algebra(3, "a"), alg.matrix_algebra(2, "b")),)
                         + CLOSED_FORM_SHAPES, ids=shapes_id)
def test_sth_is_the_t_rotated_family_under_its_own_tag(shapes, t, rng):
    """U_ρ†ρ^{1/2} = ρ^{1/2−it} and ρ^{1/2}U_ρ = ρ^{1/2+it} for U_ρ = ρ^{it}."""
    e = sampling.random_cptp(*shapes, rng)
    rho = sampling.random_state(shapes[0], rng)
    sth, rotated = sot.STH(t), sot.TRotated(t)
    assert sth.tag == "sth" and sth != rotated
    got, want = sot.evaluate(sth, e, rho).value, sot.evaluate(rotated, e, rho).value
    assert (got - want).norm() < 1e-14
    got, want = (bayes.closed_form_bayes(f, e, rho).matrix for f in (sth, rotated))
    assert np.max(np.abs(got - want)) < 1e-14


THETA_FAMILIES = (sot.LeiferSpekkens(), sot.RightBloom(), sot.LeftBloom(),
                  sot.SymmetricBloom(), sot.RSFamily(0.3, 0.7))


@pytest.mark.parametrize("family", THETA_FAMILIES,
                         ids=["ls", "right", "left", "jordan", "rs(0.3,0.7)"])
def test_theta_multipliers_match_dense_oracle(family, rng):
    shape = CLOSED_FORM_SHAPES[0][0]
    e = sampling.random_cptp(*CLOSED_FORM_SHAPES[0], rng)
    rho = sampling.random_state(shape, rng)
    got = sot.evaluate(sot.ThetaDerived(family), e, rho).value
    theta = LinearMap(shape, shape, dense_multiplier(family.terms(rho), shape))
    want = maps.apply_to_factor(theta, maps.channel_state(e), "left")
    assert (got - want).norm() < ORACLE_TOL


@pytest.mark.parametrize("shapes", ((alg.matrix_algebra(3, "a"), alg.matrix_algebra(2, "b")),)
                         + CLOSED_FORM_SHAPES, ids=shapes_id)
@pytest.mark.parametrize("family", THETA_FAMILIES, ids=family_id)
def test_theta_derived_family_evaluates_and_solves_as_its_sandwich_family(family, shapes, rng):
    e = sampling.random_cptp(*shapes, rng)
    rho = sampling.random_state(shapes[0], rng)
    theta = sot.ThetaDerived(family)
    assert hasattr(theta, "denominator") == hasattr(family, "denominator")
    got, want = sot.evaluate(theta, e, rho).value, sot.evaluate(family, e, rho).value
    assert all(map(np.array_equal, got.data, want.data))
    assert np.array_equal(bayes.closed_form_bayes(theta, e, rho).matrix,
                          bayes.closed_form_bayes(family, e, rho).matrix)


# `qsot bayes --verify` on the prior diag(1−q, q) under the identity channel:
# every Θ recipe exits as its sandwich family does, across the singular band.
SINGULAR_BAND_EXITS = {1e-13: cli.EXIT_NUMERICAL, 1e-11: cli.EXIT_NUMERICAL,
                       1e-9: cli.EXIT_OK}


@pytest.mark.parametrize("q", SINGULAR_BAND_EXITS)
def test_theta_recipes_exit_as_their_sandwich_families_in_the_singular_band(q, tmp_path):
    shape = alg.matrix_algebra(2, "a")
    files = [str(tmp_path / "channel.json"), str(tmp_path / "state.json")]
    io.dump(io.serialize_map(maps.identity_map(shape)), files[0])
    io.dump(io.serialize_element(alg.diagonal_element(shape, [1 - q, q]), kind="state"),
            files[1])
    for name, cls in sot.THETA_RECIPES.items():
        for family in (["--family", "theta", "--theta", name], ["--family", cls.tag]):
            code = cli.main(["bayes", *family, "--verify", *files])
            assert code == SINGULAR_BAND_EXITS[q], family


def near_singular_prior(d, rng, tiny=1e-9):
    """A prior on M_d whose d-1 smallest eigenvalues are ``tiny``."""
    u = sampling.random_unitary(rng, d)
    vals = np.full(d, tiny)
    vals[0] = 1.0 - (d - 1) * tiny
    return AlgebraElement(AlgebraShape((("a", d),)), ((u * vals) @ u.conj().T,))


@pytest.mark.parametrize("family", (sot.LeiferSpekkens(), sot.STH(0.3), sot.TRotated(0.3)),
                         ids=lambda f: f.tag)
def test_one_term_closed_forms_stay_accurate_on_near_singular_priors(family):
    """min eig E(ρ) is about 5e-10 here, above FAITHFULNESS_TOL.  A run whose
    Bayes map fails the fixed TP test of ``bayes_residual``'s argument check
    is counted, not hidden: that is the tolerance defect of ROADMAP item 5."""
    inaccurate, tp_refused = [], 0
    for k in range(20):
        rng = np.random.default_rng([7, k])
        rho = near_singular_prior(4, rng)
        e = sampling.random_cptp(rho.shape, AlgebraShape((("b", 4),)), rng)
        x = bayes.closed_form_bayes(family, e, rho)
        try:
            residual = bayes.bayes_residual(family, x, e, rho)
        except ConstraintError as exc:
            assert "trace-preserving" in str(exc)
            tp_refused += 1
            continue
        if residual >= PASS_THRESHOLD:
            inaccurate.append((k, residual))
    note = f"{tp_refused} of 20 runs refused by the fixed TP test in LinearMap.is_tp"
    assert not inaccurate, f"residual >= {PASS_THRESHOLD:.0e} at (k, residual) {inaccurate}; {note}"
    assert tp_refused < 20, note


@pytest.mark.parametrize("family", SANDWICH_FAMILIES, ids=lambda f: f.tag)
def test_residual_refuses_the_near_singular_panel_where_the_defining_one_does(family):
    """On the 20 priors above, the same runs raise the TP ``ConstraintError``
    under both residuals, and the other runs' residuals agree."""
    refused = 0
    for k in range(20):
        rng = np.random.default_rng([7, k])
        rho = near_singular_prior(4, rng)
        e = sampling.random_cptp(rho.shape, AlgebraShape((("b", 4),)), rng)
        x = bayes.closed_form_bayes(family, e, rho)
        outcomes = []
        for residual in (bayes.bayes_residual, defining_bayes_residual):
            try:
                outcomes.append(residual(family, x, e, rho))
            except ConstraintError as exc:
                outcomes.append(str(exc))
        got, want = outcomes
        if isinstance(want, str):
            assert got == want == "state over time requires a trace-preserving map", k
            refused += 1
        else:
            assert isinstance(got, float) and abs(got - want) <= 1e-12 * max(want, 1e-3), k
    assert refused < 20


def test_petz_matches_dense_textbook_formula(rng):
    e, rho = qubit_pair(rng)
    x = bayes.petz(e, rho)
    sigma = e(rho)
    root_rho = alg.power(rho, 0.5)
    inv_root_sig = alg.power(sigma, -0.5)
    adj = e.hs_adjoint()
    for _ in range(5):
        b = sampling.random_hermitian(e.target, rng)
        want = root_rho @ adj(inv_root_sig @ b @ inv_root_sig) @ root_rho
        assert (x(b) - want).norm() < RESIDUAL_TOL


# The literature's Bayes rules as instances of the one definition: each row
# names a rule, its reference, the paper's family that gives it, and what the
# rule reads (a channel, a POVM, or a classical channel on a classical prior).
LITERATURE_RULES = [
    ("petz", "Petz 1988; Leifer & Spekkens, PRA 88, 052130 (2013)",
     sot.LeiferSpekkens(), "channel", petz_rule),
    ("rotated-petz", "Junge, Renner, Sutter, Wilde & Winter, AHP 19, 2955 (2018)",
     sot.TRotated(0.3), "channel", rotated_petz_rule(0.3)),
    ("sth", "the commuting-unitary Petz variant (Parzygnat & Fullwood 2023)",
     sot.STH(0.3), "channel", sth_rule(0.3)),
    ("right-bloom", "Parzygnat & Fullwood 2023", sot.RightBloom(), "channel", right_bloom_rule),
    ("left-bloom", "Parzygnat & Fullwood 2023", sot.LeftBloom(), "channel", left_bloom_rule),
    ("jordan-gce", "Tsang, generalized conditional expectation (2022)",
     sot.SymmetricBloom(), "channel", jordan_rule),
    ("fuchs", "Fuchs, quant-ph/0205039 (2002): √ρ M_x √ρ / p_x",
     sot.LeiferSpekkens(), "povm", fuchs_rule),
    ("two-state", "Aharonov, Bergmann & Lebowitz 1964: ρM_x / p_x",
     sot.RightBloom(), "povm", two_state_rule),
    ("classical", "Bayes 1763: p(a|b) = f(b|a) p(a) / q(b)",
     sot.LeiferSpekkens(), "classical", classical_rule),
]
LITERATURE_SHAPES = ((alg.matrix_algebra(3, "a"), AlgebraShape([("b", 2), ("c", 1)])),
                     (AlgebraShape([("a", 2), ("b", 1)]), AlgebraShape([("c", 2), ("d", 2)])))


@pytest.mark.parametrize("shapes", LITERATURE_SHAPES, ids=shapes_id)
@pytest.mark.parametrize("name, reference, family, reads, rule", LITERATURE_RULES,
                         ids=[row[0] for row in LITERATURE_RULES])
def test_the_literatures_bayes_rules_are_closed_form_bayes_maps(name, reference, family,
                                                               reads, rule, shapes, rng):
    """A rule on outcome units reads a POVM from the source into one outcome
    per Hilbert dimension of the target; the classical rule reads a channel
    between classical algebras of the two Hilbert dimensions."""
    source, target = shapes
    if reads == "channel":
        e = sampling.random_cptp(source, target, rng)
    elif reads == "povm":
        e = sampling.random_povm(source, target.total_dim, rng)
    else:
        source = alg.classical_algebra(source.total_dim)
        e = maps.classical_channel(rng.dirichlet(np.ones(target.total_dim), source.total_dim).T)
    rho = sampling.random_state(source, rng)
    want = rule(e, rho)
    got = bayes.closed_form_bayes(family, e, rho).matrix
    assert np.max(np.abs(got - want)) < ORACLE_TOL * max(1.0, np.linalg.norm(want)), reference


def test_petz_recovers_the_prior(rng):
    e, rho = qubit_pair(rng)
    x = bayes.petz(e, rho)
    assert (x(e(rho)) - rho).norm() < RESIDUAL_TOL
    assert x.is_cptp


def test_rotated_petz_reduces_to_petz_at_zero(rng):
    e, rho = qubit_pair(rng)
    assert np.max(np.abs(bayes.rotated_petz(e, rho, 0.0).matrix
                         - bayes.petz(e, rho).matrix)) < RESIDUAL_TOL


def test_bloom_bayes_formulas(rng):
    e, rho = qubit_pair(rng)
    inv = alg.power(e(rho), -1.0)
    adj = e.hs_adjoint()
    right = bayes.bloom_bayes("right", e, rho)
    left = bayes.bloom_bayes("left", e, rho)
    for _ in range(5):
        b = sampling.random_hermitian(e.target, rng)
        assert (right(b) - rho @ adj(inv @ b)).norm() < RESIDUAL_TOL
        assert (left(b) - adj(b @ inv) @ rho).norm() < RESIDUAL_TOL


def test_classifications(rng):
    e, rho = qubit_pair(rng)
    expected = {
        sot.LeiferSpekkens(): "CPTP",
        sot.TRotated(0.3): "CPTP",
        sot.STH(0.3): "CPTP",
        sot.SymmetricBloom(): "HPTP-only",
        sot.RightBloom(): "TP-only",
        sot.LeftBloom(): "TP-only",
    }
    for family, want in expected.items():
        x = bayes.closed_form_bayes(family, e, rho)
        assert bayes.classify_solution(x) == want, family.tag


def test_closed_form_unsupported_for_uncorrelated(rng):
    e, rho = qubit_pair(rng)
    with pytest.raises(UnsupportedFamilyError):
        bayes.closed_form_bayes(sot.Uncorrelated(), e, rho)


def test_spectral_solver_flags_singular_outputs(rng):
    shape = alg.matrix_algebra(2)
    e = maps.replace_channel(alg.diagonal_element(shape, [1.0, 0.0]),
                             alg.matrix_algebra(2, "a"))
    rho = sampling.random_state(e.source, rng)
    with pytest.raises(SingularityError):
        bayes.symmetric_bloom_bayes(e, rho)


# ------------------------------------------------------------- generic solver
@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES, ids=lambda f: f.tag)
def test_generic_solver_matches_closed_form(family, rng):
    e, rho = qubit_pair(rng)
    closed = bayes.closed_form_bayes(family, e, rho)
    generic = bayes.generic_bayes(family, e, rho)
    assert generic.uniqueness == "unique"
    assert generic.residual < RESIDUAL_TOL
    assert np.max(np.abs(generic.map.matrix - closed.matrix)) < MATCH_TOL


def test_generic_solver_finds_uncorrelated_non_uniqueness(rng):
    e, rho = qubit_pair(rng)
    solution = bayes.generic_bayes(sot.Uncorrelated(), e, rho)
    assert solution.uniqueness == "non-unique-witness"
    assert solution.residual < RESIDUAL_TOL
    assert len(solution.witnesses) >= 1
    alt = solution.witnesses[0]
    assert np.max(np.abs(alt.matrix - solution.map.matrix)) > 1e-6
    assert bayes.bayes_residual(sot.Uncorrelated(), alt, e, rho) < 1e-6


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES, ids=lambda f: f.tag)
@pytest.mark.parametrize("shapes", [
    (AlgebraShape([("a", 3), ("x", 1)]), AlgebraShape([("b", 2), ("y", 1)])),
    (alg.matrix_algebra(6, "a"), alg.matrix_algebra(6, "b")),
], ids=["3+1-2+1", "6-6"])
def test_generic_solver_matches_closed_form_at_larger_sizes(family, shapes, rng):
    e = sampling.random_cptp(*shapes, rng)
    rho = sampling.random_state(shapes[0], rng)
    generic = bayes.generic_bayes(family, e, rho)
    assert generic.uniqueness == "unique"
    closed = bayes.closed_form_bayes(family, e, rho)
    assert np.max(np.abs(generic.map.matrix - closed.matrix)) < MATCH_TOL


@pytest.mark.parametrize("family", [sot.LeiferSpekkens(), sot.Uncorrelated()],
                         ids=lambda f: f.tag)
def test_generic_solver_evaluates_the_forward_side_once(family, rng, monkeypatch):
    """E⋆ρ gives both y and the residual's forward side: two evaluations per
    solve, and the residual is the defining one's to the bit.  For a sandwich
    family ``bayes_residual`` reads it as X·Φ_σ* − Y, equal up to roundoff;
    for the others it is the defining form, to the bit."""
    e, rho = qubit_pair(rng)
    calls, evaluate = [], sot.evaluate
    monkeypatch.setattr(sot, "evaluate", lambda *args: calls.append(args) or evaluate(*args))
    solution = bayes.generic_bayes(family, e, rho)
    assert len(calls) == 2
    monkeypatch.undo()
    assert solution.residual == defining_bayes_residual(family, solution.map, e, rho)
    residual = bayes.bayes_residual(family, solution.map, e, rho)
    if hasattr(family, "sides"):
        assert abs(residual - solution.residual) < 1e-14
    else:
        assert residual == solution.residual


def test_generic_solver_refuses_a_family_that_is_not_local(rng):
    e, rho = qubit_pair(rng)
    sot.evaluate(TransposedTarget(), e, rho)  # the family itself evaluates
    with pytest.raises(UnsupportedFamilyError):
        bayes.generic_bayes(TransposedTarget(), e, rho)


# ------------------------------------------------ generic solver vs dense oracle
def oracle_families():
    """One instance per registered tag, with two Θ recipes for ``theta``."""
    params = {"rs": [sot.RSFamily(0.3, 0.7)],
              "theta": [sot.ThetaDerived(sot.SymmetricBloom()),
                        sot.ThetaDerived(sot.LeiferSpekkens())]}
    return [f for tag, cls in sot.FAMILIES.items()
            for f in (params[tag] if tag in params else [cls()])]


def family_id(family):
    if family.tag == "theta":
        return f"theta-{io.serialize_family(family)['theta']}"
    return family.tag


def blocks(prefix, *dims):
    return AlgebraShape([(f"{prefix}{i}", d) for i, d in enumerate(dims)])


ORACLE_SHAPES = {
    "2-2": ((2,), (2,)), "3-2": ((3,), (2,)), "2-3": ((2,), (3,)),
    "3+1-2+1": ((3, 1), (2, 1)), "2+2-2+1+1": ((2, 2), (2, 1, 1)),
    "1-2": ((1,), (2,)), "2-1": ((2,), (1,)),
    "classical": ((1, 1, 1), (1, 1)), "classical-quantum": ((1, 1), (2,)),
}


def phi_conditioning(family, e, rho, n_x):
    """κ of Φ_σ over the singular values the solvers keep."""
    sigma, b = e(rho), e.target
    phi = maps.channel_from_state(
        maps.swap_gamma(family.value(maps.identity_map(b), sigma)), b, b).matrix
    svals = np.linalg.svd(phi, compute_uv=False)
    kept = svals[svals > np.finfo(float).eps * n_x * svals[0]]
    return kept[0] / kept[-1]


def assert_matches_oracle(family, e, rho):
    try:
        want = dense_generic_bayes(family, e, rho)
    except QsotError as exc:
        with pytest.raises(QsotError) as info:
            bayes.generic_bayes(family, e, rho)
        assert type(info.value) is type(exc)
        return
    got = bayes.generic_bayes(family, e, rho)
    assert got.uniqueness == want.uniqueness
    kappa = phi_conditioning(family, e, rho, e.source.vector_dim * e.target.vector_dim)
    scale = max(1.0, np.max(np.abs(want.map.matrix)))
    tol = 1e-10 * scale if kappa < 1e6 else kappa * 1e-14 * scale
    assert np.max(np.abs(got.map.matrix - want.map.matrix)) < tol
    for alt in got.witnesses:
        assert np.max(np.abs(alt.matrix - got.map.matrix)) > 1e-6
        assert bayes.bayes_residual(family, alt, e, rho) < 1e-6


@pytest.mark.parametrize("family", oracle_families(), ids=family_id)
@pytest.mark.parametrize("dims", ORACLE_SHAPES.values(), ids=ORACLE_SHAPES.keys())
def test_generic_solver_matches_dense_oracle(family, dims):
    source, target = blocks("a", *dims[0]), blocks("b", *dims[1])
    for seed in range(3):
        rng = rng_for(f"oracle-{family_id(family)}-{dims}", seed)
        e = sampling.random_cptp(source, target, rng)
        assert_matches_oracle(family, e, sampling.random_state(source, rng))


@pytest.mark.parametrize("family", oracle_families(), ids=family_id)
def test_generic_solver_matches_dense_oracle_on_singular_inputs(family):
    rng = rng_for(f"oracle-singular-{family_id(family)}")
    shape = alg.matrix_algebra(4, "a")
    u = sampling.random_unitary_element(shape, rng)
    near_singular = u @ alg.diagonal_element(shape, [1 - 3e-9, 1e-9, 1e-9, 1e-9]) @ u.dagger()
    assert_matches_oracle(family, sampling.random_cptp(shape, alg.matrix_algebra(4, "b"), rng),
                          near_singular)
    assert_matches_oracle(family, *rank_deficient_pair(rng))


# ---------------------------------------------------------------------- GCE
def test_gce_matches_closed_forms(rng):
    e, rho = qubit_pair(rng)
    pairs = [(sot.LeiferSpekkens(), bayes.petz(e, rho)),
             (sot.SymmetricBloom(), bayes.symmetric_bloom_bayes(e, rho)),
             (sot.RightBloom(), bayes.bloom_bayes("right", e, rho)),
             (sot.LeftBloom(), bayes.bloom_bayes("left", e, rho)),
             (sot.RSFamily(0.3, 0.7), bayes.rs_bayes(0.3, 0.7, e, rho))]
    for theta, want in pairs:
        got = dense_gce(sot.ThetaDerived(theta), e, rho)
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-9, theta.tag


def test_gce_inverts_unitary_channels(rng):
    shape = alg.matrix_algebra(2)
    u = sampling.random_unitary_element(shape, rng)
    e = maps.unitary_channel(u)
    inverse = maps.unitary_channel(u.dagger())
    rho = sampling.random_state(shape, rng)
    for theta in (sot.LeiferSpekkens(), sot.SymmetricBloom(), sot.RightBloom()):
        got = dense_gce(sot.ThetaDerived(theta), e, rho)
        assert np.max(np.abs(got.matrix - inverse.matrix)) < RESIDUAL_TOL


# ------------------------------------------------------------ special regimes
def test_classical_bayes_inverse(rng):
    f = np.array([[0.6, 0.1, 0.3],
                  [0.3, 0.7, 0.2],
                  [0.1, 0.2, 0.5]])
    p = np.array([0.2, 0.5, 0.3])
    q = f @ p
    g = (f.T * p[:, None]) / q[None, :]  # g_xy = f_yx p_x / q_y
    e = maps.classical_channel(f)
    rho = alg.classical_state(list(p))
    want = maps.classical_channel(g, source_prefix="y", target_prefix="x")
    for family in CLOSED_FORM_FAMILIES:
        x = bayes.closed_form_bayes(family, e, rho)
        assert np.max(np.abs(x.matrix - want.matrix)) < 1e-12, family.tag


def test_bistochastic_bayes_map_is_the_adjoint(rng):
    shape = alg.matrix_algebra(3)
    e = sampling.random_unital_channel(shape, rng)
    rho = (1.0 / 3.0) * alg.identity(shape)
    adj = e.hs_adjoint()
    for family in CLOSED_FORM_FAMILIES:
        x = bayes.closed_form_bayes(family, e, rho)
        assert np.max(np.abs(x.matrix - adj.matrix)) < RESIDUAL_TOL, family.tag


def test_petz_compositionality(rng):
    shape_a = alg.matrix_algebra(2, "a")
    shape_b = alg.matrix_algebra(2, "b")
    shape_c = alg.matrix_algebra(2, "c")
    e = sampling.random_cptp(shape_a, shape_b, rng)
    f = sampling.random_cptp(shape_b, shape_c, rng)
    rho = sampling.random_state(shape_a, rng)
    composed = bayes.petz(f.compose(e), rho)
    chained = bayes.petz(e, rho).compose(bayes.petz(f, e(rho)))
    assert np.max(np.abs(composed.matrix - chained.matrix)) < 1e-9


def test_bloom_cp_condition_residual_vanishes_iff_sides_agree(rng):
    shape = alg.matrix_algebra(2)
    u = sampling.random_unitary_element(shape, rng)
    e = maps.unitary_channel(u)
    rho = sampling.random_state(shape, rng)
    assert bayes.bloom_cp_condition_residual(e, rho) < 1e-10
    e2, rho2 = (sampling.random_cptp(alg.matrix_algebra(2, "a"),
                                     alg.matrix_algebra(2, "b"), rng),
                sampling.random_state(alg.matrix_algebra(2, "a"), rng))
    assert bayes.bloom_cp_condition_residual(e2, rho2) > 1e-4


def test_modular_covariance_detects_covariant_pairs(rng):
    shape = alg.matrix_algebra(2)
    u = sampling.random_unitary_element(shape, rng)
    e = maps.unitary_channel(u)
    rho = sampling.random_state(shape, rng)
    assert bayes.modular_covariance_residual(e, rho) < 1e-9


def rank_deficient_pair(rng):
    """A replacement channel onto a pure state: E(ρ) has rank one."""
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    pure = alg.from_blocks(alg.matrix_algebra(3, "b"), {"b": np.outer(psi, psi.conj())})
    e = maps.replace_channel(pure, alg.matrix_algebra(3, "a"))
    return e, sampling.random_state(e.source, rng)


def test_one_term_maps_on_rank_deficient_outputs_use_pseudo_inverses(rng):
    e, rho = rank_deficient_pair(rng)
    sigma, adj, t = e(rho), e.hs_adjoint(), 0.3
    p, q = (lambda r: alg.power(rho, r)), (lambda r: alg.power(sigma, r))
    u_rho, u_sig = alg.support_unitary(rho, t), alg.support_unitary(sigma, t)
    formulas = {
        sot.LeiferSpekkens(): lambda b: p(0.5) @ adj(q(-0.5) @ b @ q(-0.5)) @ p(0.5),
        sot.TRotated(t): lambda b: (p(0.5 - 1j * t) @ adj(q(-0.5 - 1j * t) @ b
                                                           @ q(-0.5 + 1j * t))
                                    @ p(0.5 + 1j * t)),
        sot.STH(t): lambda b: (u_rho.dagger() @ p(0.5)
                               @ adj(u_sig.dagger() @ q(-0.5) @ b @ q(-0.5) @ u_sig)
                               @ p(0.5) @ u_rho),
        sot.RightBloom(): lambda b: rho @ adj(q(-1.0) @ b),
        sot.LeftBloom(): lambda b: adj(b @ q(-1.0)) @ rho,
    }
    for family, formula in formulas.items():
        x = bayes.closed_form_bayes(family, e, rho)
        for _ in range(3):
            b = sampling.random_hermitian(e.target, rng)
            b = b + 1j * sampling.random_hermitian(e.target, rng)
            assert (x(b) - formula(b)).norm() < RESIDUAL_TOL, family.tag
        with pytest.raises(FaithfulnessError):
            bayes.closed_form_bayes(family, e, rho, strict=True)


def trace_times(sigma):
    """E(x) = tr(x)·σ on M2, so that E(ρ) = σ for every state ρ."""
    shape = alg.matrix_algebra(2)
    return LinearMap(shape, shape, np.outer(np.asarray(sigma, complex).reshape(-1),
                                            maps.trace_row(shape)))


# Strict mode checks σ = E(ρ) once, before either formula: a non-hermitian σ,
# one with an eigenvalue below −ATOL and a non-faithful one each raise
# alg.power's error, for one term as for two.
@pytest.mark.parametrize("family", [sot.LeiferSpekkens(), sot.SymmetricBloom()],
                         ids=lambda f: f.tag)
@pytest.mark.parametrize("sigma, error, message", [
    ([[0.5, 1.0], [0.0, 0.5]], NotHermitianError, "power requires a hermitian element"),
    ([[1.5, 0.0], [0.0, -0.5]], NotAStateError, "negative eigenvalue -5.000e-01 in power()"),
    ([[1.0, 0.0], [0.0, 0.0]], FaithfulnessError,
     "eigenvalue 0.000e+00 below faithfulness tolerance"),
], ids=["non-hermitian", "negative", "non-faithful"])
def test_strict_mode_refuses_sigma_before_either_formula(family, sigma, error, message):
    with pytest.raises(error) as raised:
        bayes.closed_form_bayes(family, trace_times(sigma),
                                alg.diagonal_element(alg.matrix_algebra(2), [0.7, 0.3]),
                                strict=True)
    assert str(raised.value) == message


def test_spectral_maps_on_rank_deficient_outputs_are_singular(rng):
    e, rho = rank_deficient_pair(rng)
    for family in (sot.SymmetricBloom(), sot.RSFamily(0.3, 0.7)):
        with pytest.raises(SingularityError):
            bayes.closed_form_bayes(family, e, rho)
        # strict mode refuses the unfaithful E(ρ) before any denominator
        with pytest.raises(FaithfulnessError):
            bayes.closed_form_bayes(family, e, rho, strict=True)


def test_strict_mode_refuses_unfaithful_outputs_for_theta_families(rng):
    # at an eigenvalue of 1e-11 the symmetric bloom's spectral formula is
    # singular, and its Θ-derived family solves as it does: both refuse this
    # σ, and strict mode refuses it at the faithfulness check first
    shape = alg.matrix_algebra(3)
    u = sampling.random_unitary(rng, 3)
    rho = AlgebraElement(shape, (u @ np.diag([0.6, 0.4 - 1e-11, 1e-11]) @ u.conj().T,))
    e = maps.unitary_channel(sampling.random_unitary_element(shape, rng))
    theta = sot.ThetaDerived(sot.SymmetricBloom())
    for family in (sot.SymmetricBloom(), theta):
        with pytest.raises(SingularityError):
            bayes.closed_form_bayes(family, e, rho)
        with pytest.raises(FaithfulnessError):
            bayes.closed_form_bayes(family, e, rho, strict=True)


# ------------------------------------------------------------ stacked solves
STACK_SHAPES = {
    "M3-M2+M1": (alg.matrix_algebra(3, "a"), AlgebraShape([("b", 2), ("y", 1)])),
    "M2+M1-M2+M2": (AlgebraShape([("a", 2), ("x", 1)]), AlgebraShape([("b", 2), ("c", 2)])),
}
STACK_SIZE = 16
BAD_MEMBER = 5


def stacked_pairs(case, n=STACK_SIZE):
    """n random pairs (E, ρ) on one shape pair, and the stacks of both."""
    source, target = STACK_SHAPES[case]
    rng = rng_for(f"stacked-{case}")
    pairs = [(sampling.random_cptp(source, target, rng), sampling.random_state(source, rng))
             for _ in range(n)]
    return pairs, maps.stack([e for e, _ in pairs]), alg.stack([rho for _, rho in pairs])


@pytest.mark.parametrize("case", STACK_SHAPES)
@pytest.mark.parametrize("family", SANDWICH_FAMILIES, ids=lambda f: f.tag)
def test_a_stacked_solve_gives_each_member_its_solo_bits(family, case):
    pairs, es, rhos = stacked_pairs(case)
    stacked = bayes.closed_form_bayes(family, es, rhos)
    assert stacked.matrix.shape == (STACK_SIZE, *pairs[0][0].matrix.shape[::-1])
    for member, (e, rho) in zip(stacked.matrix, pairs):
        assert np.array_equal(member, bayes.closed_form_bayes(family, e, rho).matrix)


def with_a_rank_deficient_member(case):
    """The stacked pairs with member ``BAD_MEMBER``'s channel replaced by one
    onto a pure state, so that its E(ρ) has rank one."""
    pairs, _, _ = stacked_pairs(case)
    source, target = STACK_SHAPES[case]
    pure = alg.diagonal_element(target, [1.0] + [0.0] * (target.total_dim - 1))
    pairs[BAD_MEMBER] = (maps.replace_channel(pure, source), pairs[BAD_MEMBER][1])
    return pairs, maps.stack([e for e, _ in pairs]), alg.stack([rho for _, rho in pairs])


@pytest.mark.parametrize("case", STACK_SHAPES)
@pytest.mark.parametrize("family", SANDWICH_FAMILIES, ids=lambda f: f.tag)
def test_strict_mode_refuses_a_stack_with_one_unfaithful_member(family, case):
    pairs, es, rhos = with_a_rank_deficient_member(case)
    with pytest.raises(FaithfulnessError):
        bayes.closed_form_bayes(family, es, rhos, strict=True)
    good = [i for i in range(STACK_SIZE) if i != BAD_MEMBER]
    bayes.closed_form_bayes(family, maps.stack([pairs[i][0] for i in good]),
                            alg.stack([pairs[i][1] for i in good]), strict=True)


@pytest.mark.parametrize("case", STACK_SHAPES)
@pytest.mark.parametrize("family", [f for f in SANDWICH_FAMILIES if len(f.sides) > 1],
                         ids=lambda f: f.tag)
def test_a_singular_denominator_in_a_stack_names_its_unit_block_and_member(family, case):
    pairs, es, rhos = with_a_rank_deficient_member(case)
    with pytest.raises(SingularityError) as solo:
        bayes.closed_form_bayes(family, *pairs[BAD_MEMBER])
    with pytest.raises(SingularityError) as stacked:
        bayes.closed_form_bayes(family, es, rhos)
    assert str(stacked.value) == f"{solo.value} in stack member {BAD_MEMBER}"


def test_generic_solver_refuses_a_stack_by_name():
    pairs, es, rhos = stacked_pairs("M3-M2+M1", 2)
    for args in ((es, rhos), (es, pairs[0][1]), (pairs[0][0], rhos)):
        with pytest.raises(ShapeMismatchError) as raised:
            bayes.generic_bayes(sot.LeiferSpekkens(), *args)
        assert str(raised.value) == "generic_bayes solves one pair (E, ρ), not a stack"


# ---------------------------------------------------------- argument contract
STATE = alg.diagonal_element(alg.matrix_algebra(2), [0.7, 0.3])
# (E, ρ, error class, message).  E(x) = tr(x)·diag(1.1, 0) is not TP and has
# a rank-one E(ρ): before the entry check the product formula returned a
# non-TP map for it.
CONTRACT_CASES = {
    "non-TP E": (trace_times([[1.1, 0.0], [0.0, 0.0]]), STATE,
                 ConstraintError, "state over time requires a trace-preserving map"),
    "non-HP E": (trace_times([[0.5, 1.0], [0.0, 0.5]]), STATE,
                 NotHermitianError, "power requires a hermitian element"),
    "non-hermitian ρ": (maps.identity_map(alg.matrix_algebra(2)),
                        AlgebraElement(alg.matrix_algebra(2), ([[0.7, 0.1], [0.0, 0.3]],)),
                        ConstraintError, "second argument must be hermitian"),
}


@pytest.mark.parametrize("strict", (False, True))
@pytest.mark.parametrize("case", CONTRACT_CASES)
@pytest.mark.parametrize("family", SANDWICH_FAMILIES, ids=lambda f: f.tag)
def test_every_closed_form_refuses_bad_arguments_alike(family, case, strict):
    e, rho, error, message = CONTRACT_CASES[case]
    with pytest.raises(QsotError) as raised:
        bayes.closed_form_bayes(family, e, rho, strict=strict)
    assert (type(raised.value), str(raised.value)) == (error, message)


# ------------------------------------------------------------------ handoff
def handoff_cases():
    """(E, ρ) on a single-block, a blocky and a stacked shape pair."""
    rng = rng_for("handoff")
    single = (alg.matrix_algebra(3, "a"), alg.matrix_algebra(2, "b"))
    blocky = STACK_SHAPES["M2+M1-M2+M2"]
    cases = {name: (sampling.random_cptp(*shapes, rng), sampling.random_state(shapes[0], rng))
             for name, shapes in (("single", single), ("blocky", blocky))}
    _, es, rhos = stacked_pairs("M3-M2+M1", 4)
    cases["stacked"] = (es, rhos)
    return cases


HANDOFF_CASES = handoff_cases()


def y_matrix_calls(monkeypatch):
    """The arguments of every ``bayes._y_matrix`` call from now on."""
    calls, y_matrix = [], bayes._y_matrix

    def counted(*args):
        calls.append(args)
        return y_matrix(*args)
    monkeypatch.setattr(bayes, "_y_matrix", counted)
    return calls


@pytest.mark.parametrize("case", HANDOFF_CASES)
@pytest.mark.parametrize("family", SANDWICH_FAMILIES, ids=lambda f: f.tag)
def test_a_residual_after_its_solve_takes_the_solved_y_with_the_same_bits(
        family, case, monkeypatch):
    e, rho = HANDOFF_CASES[case]
    calls = y_matrix_calls(monkeypatch)
    x = bayes.closed_form_bayes(family, e, rho)
    handed = bayes.bayes_residual(family, x, e, rho)
    assert len(calls) == 1  # Y once per solve-and-verify
    assert bayes._handoff is None
    fresh = bayes.bayes_residual(family, *map(copy.deepcopy, (x, e, rho)))
    assert len(calls) == 2
    assert np.array_equal(handed, fresh) and np.all(np.asarray(handed) < RESIDUAL_TOL)


def test_a_solve_leaves_one_read_only_y_for_its_own_family_and_objects():
    family = sot.TRotated(0.3)
    e, rho = HANDOFF_CASES["single"]
    bayes.closed_form_bayes(family, e, rho)
    kept_family, kept_e, kept_rho, y = bayes._handoff
    assert kept_family == family and kept_e is e and kept_rho is rho
    assert not y.flags.writeable
    assert np.array_equal(y, bayes._y_matrix(family, e, rho))
    bayes.closed_form_bayes(family, e, rho)
    assert bayes._handoff[3] is not y  # one slot: the next solve replaces it


def test_a_residual_on_other_arguments_is_not_served_the_stale_y():
    """Solve (F, E, ρ₁), then check another ρ, another E or another family:
    each residual is its fresh value, and the slot is empty after it."""
    family = sot.TRotated(0.3)
    e, rho = HANDOFF_CASES["single"]
    rng = rng_for("stale-handoff")
    other_e = sampling.random_cptp(e.source, e.target, rng)
    other_rho = sampling.random_state(e.source, rng)
    x = bayes.closed_form_bayes(family, e, rho)
    for checked, args in {"ρ₂": (family, x, e, other_rho), "E₂": (family, x, other_e, rho),
                          "t = 0.4": (sot.TRotated(0.4), x, e, rho),
                          "STH": (sot.STH(0.3), x, e, rho),
                          "equal copies": (family, x, copy.deepcopy(e), copy.deepcopy(rho))
                          }.items():
        bayes.closed_form_bayes(family, e, rho)
        got = bayes.bayes_residual(*args)
        assert bayes._handoff is None, checked
        assert got == bayes.bayes_residual(*args), checked
    assert bayes.bayes_residual(family, x, e, other_rho) > 1e-3
    assert bayes.bayes_residual(sot.TRotated(0.4), x, e, rho) > 1e-3


def test_a_refused_residual_empties_the_slot(rng):
    e, rho = qubit_pair(rng)
    x = bayes.closed_form_bayes(sot.LeiferSpekkens(), e, rho)
    with pytest.raises(ConstraintError):
        bayes.bayes_residual(sot.LeiferSpekkens(), 1.1 * x, e, rho)
    assert bayes._handoff is None


CLI_FAMILIES = (["leifer-spekkens"], ["t-rotated", "--t", "0.3"], ["sth"], ["symmetric-bloom"],
                ["right-bloom"], ["left-bloom"], ["rs", "--r", "0.3", "--s", "0.7"],
                ["theta", "--theta", "jordan"])


@pytest.mark.parametrize("family", CLI_FAMILIES, ids=lambda f: f[0])
def test_cli_verify_output_is_the_bytes_of_the_miss_path(family, tmp_path, capsys, monkeypatch):
    rng = rng_for(f"cli-handoff-{family[0]}")
    e, rho = qubit_pair(rng)
    files = [str(tmp_path / "channel.json"), str(tmp_path / "state.json")]
    io.dump(io.serialize_map(e), files[0])
    io.dump(io.serialize_element(rho, kind="state"), files[1])

    def run():
        code = cli.main(["bayes", "--family", *family, "--verify", *files])
        return code, *capsys.readouterr()
    handed = run()
    solve = bayes.closed_form_bayes

    def solve_and_drop(*args, **kwargs):
        x = solve(*args, **kwargs)
        bayes._handoff = None
        return x
    monkeypatch.setattr(bayes, "closed_form_bayes", solve_and_drop)
    assert handed == run()
    assert handed[0] == cli.EXIT_OK

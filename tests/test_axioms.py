"""Randomized property certification: verdict logic, determinism, witness
replay, and the expected family-by-property matrix at reduced trial counts."""
import json
from collections import Counter
from dataclasses import dataclass
from io import StringIO
from typing import ClassVar

import numpy as np
import pytest

from qsot import algebra as alg, axioms, cli, io, maps, sampling, sot
from qsot.algebra import AlgebraElement
from qsot.config import FAIL_THRESHOLD
from qsot.maps import LinearMap
from qsot.errors import (ConstraintError, ExtensionError, InapplicableError,
                         UnsupportedFamilyError, ValidationError)

from conftest import (closed_form_witnesses, drawn_by_column, full_product_extremum, group_of,
                      looped_block_positivity_violation, member_draws, rng_for, sample_alone,
                      separate_mixing_violations, sequential_certify, two_call_draws,
                      unit_starts, vector_product_extremum)

FAST = axioms.CertifyConfig(trials=40, seed=7)


def from_wire(witness: dict) -> dict:
    """A witness read back from its JSON form, documents parsed through io."""
    witness = json.loads(json.dumps(witness))
    return {k: io.parse_document(v) if isinstance(v, dict) else v
            for k, v in witness.items()}


def assert_replays_exactly(family, verdict, config):
    """The witness gives the recorded violation, in memory and from JSON."""
    assert verdict.status == "fails"
    assert axioms.replay_violation(family, verdict.property, verdict.counterexample,
                                   config) == verdict.violation
    doc = verdict.to_json()
    assert axioms.replay_violation(family, verdict.property, from_wire(doc["witness"]),
                                   config) == doc["violation"]


def test_property_and_glyph_tables_are_consistent():
    assert set(axioms.TABLE_PROPERTIES) <= set(axioms.PROPERTIES)
    assert set(axioms.EXPECTED_TABLE) == set(sot.TABLE_FAMILIES)
    for row in axioms.EXPECTED_TABLE.values():
        assert set(row) == set(axioms.TABLE_PROPERTIES)
        assert set(row.values()) <= set("✓✗∗?")


def test_certify_holds_on_a_true_property():
    verdict = axioms.certify(sot.LeiferSpekkens(), "P1", FAST)
    assert verdict.status == "holds"
    assert verdict.glyph == "✓"
    assert verdict.max_residual < 1e-8
    assert verdict.holds


def test_certify_fails_with_replayable_witness():
    verdict = axioms.certify(sot.RightBloom(), "P1", FAST)
    assert verdict.status == "fails"
    assert verdict.glyph == "✗"
    assert verdict.violation is not None and verdict.violation > 1e-6
    assert_replays_exactly(sot.RightBloom(), verdict, FAST)


def test_certify_is_deterministic():
    v1 = axioms.certify(sot.SymmetricBloom(), "P2", FAST)
    v2 = axioms.certify(sot.SymmetricBloom(), "P2", FAST)
    assert v1.status == v2.status
    assert v1.violation == v2.violation
    assert v1.max_residual == v2.max_residual


def test_certify_seed_changes_the_stream():
    other = axioms.CertifyConfig(trials=40, seed=8)
    v1 = axioms.certify(sot.RightBloom(), "P1", FAST)
    v2 = axioms.certify(sot.RightBloom(), "P1", other)
    assert v1.status == v2.status == "fails"
    assert v1.violation != v2.violation


@pytest.mark.parametrize("seed", [-1, True, 1.5, "3", None])
def test_a_bad_seed_is_refused_when_the_config_is_built(seed):
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        axioms.CertifyConfig(seed=seed)


@pytest.mark.parametrize("seed", [0, np.int64(3), 2 ** 64 + 7])
def test_a_non_negative_integer_seed_is_kept(seed):
    assert axioms.CertifyConfig(seed=seed).seed == seed


@pytest.mark.parametrize("field, value, message", [
    ("trials", 2.5, "trials must be a non-negative integer"),
    ("trials", True, "trials must be a non-negative integer"),
    ("trials", "3", "trials must be a non-negative integer"),
    ("trials", -1, "trials must be a non-negative integer"),
    ("dims", (2,), "dims must be a pair of positive integers"),
    ("dims", (2, 0), "dims must be a pair of positive integers"),
    ("dims", (2, True), "dims must be a pair of positive integers"),
    ("dims", (2, 2.0), "dims must be a pair of positive integers"),
    ("dims", (2, 2, 2), "dims must be a pair of positive integers"),
    ("dims", 2, "dims must be a pair of positive integers"),
])
def test_bad_trials_or_dims_are_refused_when_the_config_is_built(field, value, message):
    with pytest.raises(ValidationError, match=message):
        axioms.CertifyConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("trials", 0), ("trials", np.int64(3)),
                                          ("dims", (2, 3)), ("dims", (np.int64(3), 1))])
def test_integer_trials_and_dims_are_kept(field, value):
    assert getattr(axioms.CertifyConfig(**{field: value}), field) == value


def test_a_config_of_numpy_ints_and_a_list_is_stored_as_plain_ints_and_a_tuple():
    """Its report writes as JSON, equal to the plain-int config's, and the
    config hashes as the plain-int one."""
    config = axioms.CertifyConfig(trials=np.int64(3), seed=np.int64(2), dims=[2, np.int64(2)])
    plain = axioms.CertifyConfig(trials=3, seed=2, dims=(2, 2))
    assert config == plain and hash(config) == hash(plain)
    assert type(config.trials) is int and type(config.seed) is int
    assert config.dims == (2, 2) and all(type(d) is int for d in config.dims)
    written = []
    for c in (config, plain):
        out = StringIO()
        io.write_json(axioms.table_report(c).to_json(), out)
        written.append(out.getvalue())
    assert written[0] == written[1]


def test_certify_unknown_property_rejected():
    with pytest.raises(InapplicableError):
        axioms.certify(sot.LeiferSpekkens(), "P99", FAST)


def test_certify_zero_trials_is_insufficient():
    verdict = axioms.certify(sot.LeiferSpekkens(), "P1",
                             axioms.CertifyConfig(trials=0))
    assert verdict.status == "insufficient"
    assert verdict.glyph == "n/a"


def test_ohya_classical_limit_is_restricted():
    verdict = axioms.certify(sot.OhyaCompound(), "P7", FAST)
    assert verdict.status == "holds-restricted"
    assert verdict.glyph == "∗"
    assert verdict.note


def test_verdict_json_witness_is_serializable():
    import json
    verdict = axioms.certify(sot.Uncorrelated(), "P7", FAST)
    assert verdict.status == "fails"
    doc = verdict.to_json()
    json.dumps(doc)  # no numpy leftovers
    assert doc["glyph"] == "✗"
    assert "replay_seed" in doc["witness"]
    assert doc["witness"]["e"]["kind"] == "channel"


# ------------------------------------------------------------- associativity
def test_associativity_holds_for_the_blooms(rng):
    shapes = [alg.matrix_algebra(2, l) for l in "abc"]
    e = sampling.random_cptp(shapes[0], shapes[1], rng)
    f = sampling.random_cptp(shapes[1], shapes[2], rng)
    rho = sampling.random_state(shapes[0], rng)
    for family in (sot.RightBloom(), sot.LeftBloom(), sot.SymmetricBloom()):
        assert axioms.check_associativity(family, e, f, rho) < 1e-10, family.tag


def test_associativity_fails_for_leifer_spekkens(rng):
    shapes = [alg.matrix_algebra(2, l) for l in "abc"]
    worst = 0.0
    for _ in range(10):
        e = sampling.random_measure_prepare(shapes[0], shapes[1], 4, rng)
        f = sampling.random_cptp(shapes[1], shapes[2], rng)
        rho = sampling.random_state(shapes[0], rng)
        try:
            worst = max(worst, axioms.check_associativity(
                sot.LeiferSpekkens(), e, f, rho))
        except InapplicableError:
            continue
    assert worst > 1e-6


def test_associativity_rejects_non_composable_maps(rng):
    shape = alg.matrix_algebra(2, "a")
    e = sampling.random_cptp(shape, alg.matrix_algebra(3, "b"), rng)
    rho = sampling.random_state(shape, rng)
    with pytest.raises(ConstraintError):
        axioms.check_associativity(sot.RightBloom(), e, e, rho)


# --------------------------------------------------------- positivity search
def test_block_positivity_violation_finds_planted_negative_pair():
    shape = alg.matrix_algebra(2, "a").tensor(alg.matrix_algebra(2, "b"))
    # sigma_x (x) sigma_x has product eigenvector pairs at eigenvalue -1
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    t = alg.AlgebraElement(shape, (np.kron(sx, sx),))
    [(violation, witness)] = axioms.block_positivity_violation(alg.stack([t]), 20)
    assert violation > 0.99
    assert witness["kind"] == "negative pairing"


def test_block_positivity_violation_zero_on_separable_states(rng):
    a = sampling.random_state(alg.matrix_algebra(2, "a"), rng)
    b = sampling.random_state(alg.matrix_algebra(2, "b"), rng)
    [(violation, _)] = axioms.block_positivity_violation(alg.stack([alg.tensor(a, b)]), 20)
    assert violation < 1e-12


def test_block_positivity_violation_takes_the_first_search_of_a_tie():
    """On C²⊗C² every block is 1×1, so each search finds the block's entry
    exactly.  A tie goes to the first search in draw order: block by block,
    the skew part's before the hermitian part's; no positive size is no
    violation."""
    shape = alg.classical_algebra(2, "a").tensor(alg.classical_algebra(2, "b"))
    t = alg.diagonal_element(shape, [[-1, -1, -1, -1], [1j, -1, 2, 3], [1, 2, 3, 4]])
    found = axioms.block_positivity_violation(t, 20)
    assert [(size, witness.get("block"), witness.get("kind"), witness.get("value"))
            for size, witness in found] == [(1.0, "('a0', 'b0')", "negative pairing", -1.0),
                                            (1.0, "('a0', 'b0')", "non-real pairing", 1.0),
                                            (0.0, None, None, None)]


# ------------------------------------------------------------------ the table
def test_table_report_matches_expected_pattern():
    config = axioms.CertifyConfig(trials=60, seed=0)
    report = axioms.table_report(config)
    assert report.mismatches() == []
    glyphs = report.glyphs()
    for fam, row in axioms.EXPECTED_TABLE.items():
        for prop, want in row.items():
            assert glyphs[fam][prop] == want, (fam, prop)


def test_table_report_subset_render(rng):
    config = axioms.CertifyConfig(trials=10, seed=0)
    report = axioms.table_report(
        config, families={"uncorrelated": sot.TABLE_FAMILIES["uncorrelated"]},
        properties=("P7",))
    text = report.render_text()
    assert "P7" in text and "uncorrelated" in text
    assert "P1" not in text
    assert report.mismatches() == []


def test_ohya_associativity_is_reported_as_empirical():
    config = axioms.CertifyConfig(trials=30, seed=0)
    report = axioms.table_report(
        config, families={"ohya": sot.TABLE_FAMILIES["ohya"]},
        properties=("A",))
    verdict = report.verdicts["ohya"]["A"]
    assert verdict.status == "empirical"
    assert verdict.glyph == "?"
    assert "open question" in verdict.note
    assert axioms.certify(sot.OhyaCompound(), "A", config).to_json() == verdict.to_json()


# ------------------------------------------------------------------ replay
def test_every_table_witness_replays_exactly_from_its_json(tmp_path):
    out = tmp_path / "table.json"
    assert cli.main(["certify", "--format", "json", "--seed", "0",
                     "-o", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    config = axioms.CertifyConfig(trials=doc["trials"], seed=doc["seed"])
    replayed = 0
    for cell in doc["cells"]:
        if "witness" not in cell:
            continue
        family = sot.TABLE_FAMILIES[cell["family"]]
        witness = from_wire(cell["witness"])
        assert axioms.replay_violation(family, cell["property"], witness,
                                       config) == cell["violation"], cell["family"]
        replayed += 1
    assert replayed >= 20


def test_a_p2_witness_from_certify_json_has_no_search_seed_and_replays(tmp_path):
    """The P2 witnesses of ``certify --format json`` hold the instance and
    the search's result, no seed: the search starts from one read-only start
    set per factor dimension, the same object before and after the calls,
    so the parsed witness replays to the recorded violation exactly."""
    starts = axioms._starts(2, axioms.STARTS)
    out = tmp_path / "p2.json"
    assert cli.main(["certify", "--format", "json", "--seed", "5", "--trials", "40",
                     "--properties", "P2", "-o", str(out)]) == cli.EXIT_OK
    cells = [cell for cell in json.loads(out.read_text())["cells"] if "witness" in cell]
    assert {cell["family"] for cell in cells} == {"symmetric-bloom", "right-bloom", "left-bloom"}
    for cell in cells:
        assert set(cell["witness"]) == {"e", "rho", "block", "kind", "value", "vector_a",
                                        "vector_b", "replay_seed"}
        assert axioms.replay_violation(sot.TABLE_FAMILIES[cell["family"]], "P2",
                                       from_wire(cell["witness"])) == cell["violation"]
    assert axioms._starts(2, axioms.STARTS) is starts and not starts.flags.writeable


@pytest.mark.parametrize("tag", list(sot.TABLE_FAMILIES))
def test_every_p6_witness_replays_exactly(tag):
    # P6 (joint bilinearity) fails exactly where P4 or P5 does, on one λ
    family, config = sot.TABLE_FAMILIES[tag], axioms.CertifyConfig(trials=40, seed=0)
    verdict = axioms.certify(family, "P6", config)
    expected = axioms.EXPECTED_TABLE[tag]
    assert (verdict.status == "fails") == ("✗" in (expected["P4"], expected["P5"]))
    if verdict.status == "fails":
        assert {"lambda", "rho2", "e2"} <= set(verdict.counterexample)
        assert_replays_exactly(family, verdict, config)


@dataclass(frozen=True)
class SkewedLeiferSpekkens(sot.LeiferSpekkens):
    """Leifer–Spekkens plus a small anti-hermitian term that grows as ρ
    mixes: its P1 violation starts between the thresholds, and only the
    ascent, which mixes fresh states into ρ, pushes it above FAIL_THRESHOLD."""
    tag: ClassVar[str] = "skewed-leifer-spekkens"

    def value(self, e, rho):
        t = super().value(e, rho)
        mixedness = 1.0 - np.asarray((rho @ rho).trace().real)
        return t + (2.55e-7j * mixedness[..., None, None]) * alg.identity(t.shape)


def test_the_ascent_sharpens_an_ambiguous_candidate(monkeypatch):
    perturbed = []
    perturb = axioms._perturb
    monkeypatch.setattr(axioms, "_perturb",
                        lambda *args: perturbed.append(args) or perturb(*args))
    family = SkewedLeiferSpekkens()
    verdict = axioms.certify(family, "P1", FAST)
    assert perturbed
    assert verdict.status == "fails" and verdict.trials == FAST.trials
    assert verdict.ascent_steps == len(perturbed)
    assert verdict.to_json()["ascent_steps"] == len(perturbed)
    # the ascent's witness: step s of the ascent from the best sweep trial
    seed, _, index, step = verdict.counterexample["replay_seed"]
    assert seed == FAST.seed and index >= FAST.trials and step == len(perturbed) - 1
    assert verdict.to_json() == axioms.certify(family, "P1", FAST).to_json()
    assert_replays_exactly(family, verdict, FAST)


def test_each_p7_trial_draws_and_checks_one_pair(monkeypatch):
    """The pairs of a chunk's construction are drawn and checked as one
    stack: each drawn pair is one member of one call.  A cell that holds
    walks every trial it draws; one that fails may have drawn the rest of
    its chunk."""
    checks, draws = [], []
    residual, draw = sot.commutation_residual, axioms._draw

    def counted(e, rho):
        values = residual(e, rho)
        checks.extend(np.atleast_1d(values))
        return values
    monkeypatch.setattr(sot, "commutation_residual", counted)
    monkeypatch.setattr(axioms, "_draw", lambda *args: draws.append(args[-1]) or draw(*args))
    outcomes = set()
    for tag, family in sot.TABLE_FAMILIES.items():
        before = len(checks)
        verdict = axioms.certify(family, "P7", FAST)
        assert len(checks) == sum(draws), tag
        walked = verdict.trials + sum(verdict.skipped.values())
        if verdict.holds:
            assert len(checks) - before == walked, tag
        else:
            assert len(checks) - before >= walked, tag
        outcomes.add(verdict.holds)
    assert outcomes == {True, False}


# ------------------------------------------------------- stacked P2 search
def oracle_stack(shape: alg.AlgebraShape, rng: np.random.Generator) -> list[AlgebraElement]:
    """Members of one shape whose blocks are, each on its own, positive,
    indefinite hermitian, or either plus a skew part: hermitian,
    non-hermitian and mixed members; every fourth one is positive."""
    members = []
    for k in range(24):
        mats = []
        for d in shape.dims:
            g, s = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
            h = g @ g.conj().T if k % 4 == 0 or rng.random() < 0.5 else (g + g.conj().T) / 2
            skewed = k % 4 == 2 or k % 4 != 0 and rng.random() < 0.3
            mats.append(h + 0.5j * (s + s.conj().T) * skewed)
        members.append(AlgebraElement(shape, mats))
    return members


def assert_same_search(got: list, want: list):
    """Equal violations and witnesses, bit for bit and of the same types."""
    assert len(got) == len(want)
    for (violation, witness), (want_violation, want_witness) in zip(got, want):
        assert type(violation) is float and violation == want_violation
        assert witness.keys() == want_witness.keys()
        for key in witness.keys() & {"block", "kind", "value"}:
            assert witness[key] == want_witness[key]
            assert type(witness[key]) is type(want_witness[key])
        for key in witness.keys() & {"vector_a", "vector_b"}:
            assert np.array_equal(witness[key], want_witness[key])


def test_stacked_search_equals_singleton_searches():
    """Each entry of one stacked call equals a call on that element alone,
    bit for bit, over single-block and blocky shapes and non-hermitian T:
    one stacked call per shape."""
    families = (sot.LeiferSpekkens(), sot.RightBloom(), sot.SymmetricBloom(), sot.TRotated(0.3))
    by_shape: dict = {}
    for k in range(120):
        rng = rng_for("stacked-search", k)
        config = axioms.CertifyConfig(dims=((2, 3), (2, 2))[k % 3 == 0])
        shape_a, shape_b = axioms._group(families[0], "P2", k, config)
        e = sampling.random_cptp(shape_a, shape_b, rng)
        rho = sampling.random_state(shape_a, rng)
        t = families[k % len(families)].value(e, rho)
        by_shape.setdefault(t.shape, []).append(t)
    assert len(by_shape) == 4
    kinds = set()
    for ts in by_shape.values():
        stacked = axioms.block_positivity_violation(alg.stack(ts), 20)
        assert_same_search(stacked, [axioms.block_positivity_violation(alg.stack([t]), 20)[0]
                                     for t in ts])
        kinds.update(witness["kind"] for _, witness in stacked if witness)
    assert {len(shape.dims) for shape in by_shape} == {1, 4}
    # right bloom's T is not hermitian, so the non-real-pairing search ran
    assert kinds == {"non-real pairing", "negative pairing"}


@pytest.mark.parametrize("dims, blocky", [((2, 2), False), ((2, 2), True), ((2, 3), False),
                                          ((2, 3), True)])
def test_stacked_search_equals_the_looped_search(dims, blocky):
    """The stacked set-up, its members × searches table and one start set
    per factor dimension, against the element-by-element search with the
    start set rebuilt from its key: the same values, witnesses and vectors
    bit for bit.  A zero member's pairings are 0 exactly, which is no
    violation."""
    shape_a, shape_b = axioms._group(sot.LeiferSpekkens(), "P2", int(blocky),
                                     axioms.CertifyConfig(dims=dims))
    rng = rng_for("looped-search", 10 * dims[1] + blocky)
    ts = [*oracle_stack(shape_a.tensor(shape_b), rng), alg.zero(shape_a.tensor(shape_b))]
    for family in (sot.LeiferSpekkens(), sot.RightBloom()):
        e = sampling.random_cptp(shape_a, shape_b, rng)
        ts.append(family.value(e, sampling.random_state(shape_a, rng)))
    want = looped_block_positivity_violation(ts, 20)
    assert_same_search(axioms.block_positivity_violation(alg.stack(ts), 20), want)
    kinds = {witness.get("kind") for _, witness in want}
    patterns = {tuple(np.linalg.norm(mat - mat.conj().T) > 1e-10 for mat in t.data) for t in ts}
    # hermitian, non-hermitian and (on blocky shapes) mixed members, every outcome
    assert {all(p) for p in patterns} == {True, False}
    assert any(any(p) and not all(p) for p in patterns) == blocky
    assert kinds == {None, "negative pairing", "non-real pairing"}


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_p2_column_equals_the_looped_search(monkeypatch, seed):
    """The P2 column of the table, its verdicts in JSON, with the search
    swapped for the element-by-element reference."""
    config = axioms.CertifyConfig(trials=40, seed=seed)
    got = axioms.table_report(config, properties=("P2",)).to_json()
    monkeypatch.setattr(axioms, "block_positivity_violation",
                        lambda t, starts: looped_block_positivity_violation(
                            alg.unstack(t), starts))
    want = axioms.table_report(config, properties=("P2",)).to_json()
    assert json.dumps(got) == json.dumps(want)
    assert {cell["status"] for cell in got["cells"]} == {"holds", "fails"}


@pytest.mark.parametrize("mode", ["min", "absmax"])
@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
def test_the_2x2_projector_kernel_agrees_with_lapack(scale, mode):
    """The closed-form 2×2 projector against ``np.linalg.eigh``: hermitian
    and rank one, of trace 1, with the eigenvalue picked (the lowest, or the
    largest in modulus with the lower one on a tie) as its Rayleigh
    quotient, and v̄vᵀ of the same eigenvector wherever the gap resolves
    it; on degenerate and diagonal forms too."""
    rng = rng_for(f"2x2-kernel-{mode}", round(np.log10(scale)) + 12)
    g = rng.normal(size=(400, 2, 2)) + 1j * rng.normal(size=(400, 2, 2))
    special = np.array([np.zeros((2, 2)), np.eye(2), -3 * np.eye(2),  # degenerate
                        np.diag([2.0, -0.5]), np.diag([-0.5, 2.0]),    # diagonal, both orders
                        [[0, 1 - 2j], [1 + 2j, 0]],                     # off-diagonal only
                        np.diag([1.0, -1.0])])                          # an absmax tie
    h = scale * np.concatenate([(g + g.conj().swapaxes(1, 2)) / 2, special])
    w, vecs = np.linalg.eigh(h)
    pick = np.argmax(np.abs(w), axis=1) if mode == "absmax" else np.zeros(len(h), dtype=int)
    rows = np.arange(len(h))
    o = axioms._extreme_projectors(h, mode)
    assert np.array_equal(o, o.conj().swapaxes(1, 2))
    assert np.all(np.abs(np.trace(o, axis1=1, axis2=2) - 1) <= 1e-15)
    assert np.all(np.abs(np.linalg.det(o)) <= 1e-15)  # rank one
    rayleigh = np.einsum("rij,rji->r", o, h.swapaxes(1, 2)).real  # tr(P H), P = oᵀ
    assert np.all(np.abs(rayleigh - w[rows, pick]) <= 1e-14 * scale)
    resolved = w[:, 1] - w[:, 0] > 1e-8 * scale
    v = vecs[rows, :, pick]
    want = v.conj()[:, :, None] * v[:, None, :]
    assert np.all(np.abs(o - want)[resolved] <= 1e-12) and resolved.sum() == len(h) - 3
    for k in (400, 401, 402):  # a multiple of the identity gives e1's projector
        assert np.array_equal(o[k], [[1, 0], [0, 0]])
    assert rayleigh[-1] == -scale  # the tie takes the lower eigenvalue
    vectors = axioms._projector_vectors(o)
    assert np.all(np.abs(np.linalg.norm(vectors, axis=1) - 1) <= 1e-15)
    assert np.all(np.abs(vectors.conj()[:, :, None] * vectors[:, None, :] - o) <= 1e-15)
    one = axioms._extreme_projectors(scale * rng.normal(size=(5, 1, 1)) + 0j, mode)
    assert np.array_equal(one, np.ones((5, 1, 1))) and one.dtype == complex
    assert np.array_equal(axioms._projector_vectors(one), np.ones((5, 1)))


def test_the_start_set_is_built_once_read_only_from_its_key():
    """One read-only array per (dimension, count), across calls, equal to the
    start set rebuilt from its documented key."""
    for d in (1, 2, 3):
        starts = axioms._starts(d, axioms.STARTS)
        assert axioms._starts(d, axioms.STARTS) is starts and not starts.flags.writeable
        assert np.array_equal(starts, unit_starts(d, axioms.STARTS))


def hermitian_blocks(rng: np.random.Generator, jobs: int, size: int) -> np.ndarray:
    g = rng.normal(size=(jobs, size, size)) + 1j * rng.normal(size=(jobs, size, size))
    return (g + g.conj().swapaxes(1, 2)) / 2


@pytest.mark.parametrize("mode", ["min", "absmax"])
@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (1, 1), (1, 2), (2, 1), (1, 3),
                                  (3, 1)])
def test_projector_rounds_equal_vector_rounds(m, n, mode):
    """The search's rounds on projectors against the same rounds on unit
    vectors through the closed-form eigenvector kernel: the same best value
    to 1e-12 relative, and the vectors of the same picked start in the same
    phase convention (the entry of largest modulus real and positive).  A
    pick may differ only between starts that tie at roundoff."""
    blocks = hermitian_blocks(rng_for("projector-rounds", 10 * m + n), 200, m * n)
    values, a, b = axioms._product_extremum(blocks, axioms._starts(m, 20), mode)
    want, want_a, want_b = vector_product_extremum(blocks, axioms._starts(m, 20), mode)
    jobs = np.arange(len(blocks))
    best = want[jobs, np.argmax(np.abs(want), axis=1) if mode == "absmax" else
                np.argmin(want, axis=1)]
    assert np.all(np.abs(values - best) <= 1e-12 * np.abs(best))
    gaps = np.maximum(np.abs(a[:, None] - want_a).max(axis=2),
                      np.abs(b[:, None] - want_b).max(axis=2))
    picked = np.argmin(gaps, axis=1)  # the start whose vectors the search returned
    assert np.all(gaps[jobs, picked] <= 1e-12)
    assert np.all(np.abs(want[jobs, picked] - best) <= 1e-12 * np.abs(best))


@pytest.mark.parametrize("mode", ["min", "absmax"])
@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)])
def test_a_search_with_a_one_dimensional_factor_equals_the_full_search(m, n, mode):
    """Two rounds from the first start give the values and vectors of eight
    rounds from every start, bit for bit."""
    blocks = hermitian_blocks(rng_for("one-dimensional-factor", 10 * m + n), 9, m * n)
    values, vectors_a, vectors_b = axioms._product_extremum(blocks, axioms._starts(m, 20), mode)
    want_values, want_a, want_b = full_product_extremum(blocks, axioms._starts(m, 20), mode)
    assert np.array_equal(values, want_values)
    assert np.array_equal(vectors_a, want_a) and np.array_equal(vectors_b, want_b)


@pytest.mark.parametrize("mode", ["min", "absmax"])
@pytest.mark.parametrize("m, n", [(2, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_each_job_of_a_stacked_search_equals_the_job_searched_alone(m, n, mode):
    """Values and vectors bit for bit, whatever the number of jobs sharing
    the call: a job's pairings are its own (a one-dimensional factor makes
    axes of length one, whose reductions may run in another order)."""
    blocks = hermitian_blocks(rng_for("stacked-jobs", 10 * m + n), 40, m * n)
    starts = axioms._starts(m, 20)
    stacked = axioms._product_extremum(blocks, starts, mode)
    for job in range(len(blocks)):
        alone = axioms._product_extremum(blocks[job:job + 1], starts, mode)
        for got, want in zip(stacked, alone):
            assert np.array_equal(got[job], want[0]), job


def test_p2_at_dims_2_3_equals_the_sequential_full_search(monkeypatch):
    """Blocky shapes at dims (2, 3) have factor blocks of dimension 1 on
    both sides; the P2 cells equal the trial-by-trial reference run with
    the eight-round search over every start."""
    config = axioms.CertifyConfig(trials=30, seed=5, dims=(2, 3))
    verdicts = {tag: axioms.certify(family, "P2", config)
                for tag, family in sot.TABLE_FAMILIES.items()}
    monkeypatch.setattr(axioms, "_product_extremum", full_product_extremum)
    for tag, family in sot.TABLE_FAMILIES.items():
        assert without_new_keys(verdicts[tag].to_json()) == without_new_keys(
            sequential_certify(family, "P2", config).to_json()), tag


# ---------------------------------------------- chunks against the reference
NEW_KEYS = ("skipped", "ascent_steps")
# the sweep's schedule: trial 0 alone, then chunks of CHUNK_TRIALS
CHUNK_STARTS = (0, *range(1, 1000, axioms.CHUNK_TRIALS))


def without_new_keys(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in NEW_KEYS}


@pytest.mark.parametrize("seed", [0, 7])
def test_chunked_table_equals_the_sequential_reference(seed):
    config = axioms.CertifyConfig(trials=40, seed=seed)
    report = axioms.table_report(config)
    for tag, row in report.verdicts.items():
        for prop, verdict in row.items():
            want = sequential_certify(sot.TABLE_FAMILIES[tag], prop, config)
            assert without_new_keys(verdict.to_json()) == without_new_keys(want.to_json()), \
                (tag, prop)


@dataclass(frozen=True)
class TiltedLeiferSpekkens(sot.LeiferSpekkens):
    """Leifer–Spekkens, shifted by −1 when ⟨0|ρ|0⟩ > 0.8: its P2 fails only
    on such priors, so the first failure comes some trials into the sweep."""
    tag: ClassVar[str] = "tilted-leifer-spekkens"

    def value(self, e, rho):
        t = super().value(e, rho)
        tilted = rho.data[0][..., 0, 0].real > 0.8
        return t - tilted[..., None, None] * alg.identity(t.shape)


@pytest.mark.parametrize("seed", [0, 7])
def test_a_failure_inside_a_chunk_matches_the_reference(seed):
    family, config = TiltedLeiferSpekkens(), axioms.CertifyConfig(trials=40, seed=seed)
    verdict = axioms.certify(family, "P2", config)
    want = sequential_certify(family, "P2", config)
    assert verdict.status == "fails" and verdict.skipped == {}
    first_failure = verdict.trials - 1
    assert first_failure not in CHUNK_STARTS  # later trials of its chunk were searched
    # the group's generator key [seed, cell, chunk start, group] and the trial's row
    _, key, members = group_of(family, "P2", first_failure, config)
    assert key[:3] == [seed, axioms._cell_index(family.tag, "P2"), 1]
    assert verdict.counterexample["replay_seed"] == [*key, members.index(first_failure)]
    assert without_new_keys(verdict.to_json()) == without_new_keys(want.to_json())
    assert_replays_exactly(family, verdict, config)


# ---------------------------------------------------------- observability
@dataclass(frozen=True)
class PickyLeiferSpekkens(sot.LeiferSpekkens):
    """Leifer–Spekkens that refuses block-sum sources and priors with
    ⟨0|ρ|0⟩ > 0.7, with two different exceptions."""
    tag: ClassVar[str] = "picky-leifer-spekkens"

    def value(self, e, rho):
        if len(e.source.blocks) > 1:
            raise UnsupportedFamilyError("single-block sources only")
        if np.any(rho.data[0][..., 0, 0].real > 0.7):
            raise ExtensionError("priors near |0⟩ refused")
        return super().value(e, rho)


@pytest.mark.parametrize("prop", ["P1", "P2"])
def test_skipped_trials_are_counted_by_exception_class(prop):
    family = PickyLeiferSpekkens()
    verdict = axioms.certify(family, prop, FAST)
    assert verdict.status == "holds"
    assert verdict.skipped["UnsupportedFamilyError"] == FAST.trials // 2
    assert verdict.skipped["ExtensionError"] >= 1
    assert set(verdict.skipped) == {"UnsupportedFamilyError", "ExtensionError"}
    assert verdict.trials + sum(verdict.skipped.values()) == FAST.trials
    doc = verdict.to_json()
    assert doc["skipped"] == verdict.skipped and doc["ascent_steps"] == 0
    json.dumps(doc)
    assert doc == axioms.certify(family, prop, FAST).to_json()
    assert without_new_keys(doc) == without_new_keys(
        sequential_certify(family, prop, FAST).to_json())


def test_a_witness_entry_without_a_wire_form_is_an_error():
    verdict = axioms.PropertyVerdict("f", "P1", "fails", 1, 0, counterexample={"x": object()})
    with pytest.raises(TypeError, match="no wire form"):
        verdict.to_json()


class Refusing(sot.SotFamily):
    """A family outside whose domain every instance lies."""
    tag: ClassVar[str] = "refusing"

    def value(self, e, rho):
        raise InapplicableError("no instance is in the domain")


@pytest.mark.parametrize("prop", ["P1", "P7", "A"])
def test_a_cell_whose_every_trial_is_skipped_is_inapplicable(prop):
    verdict = axioms.certify(Refusing(), prop, FAST)
    assert (verdict.status, verdict.glyph, verdict.trials) == ("inapplicable", "n/a", 0)
    assert verdict.skipped == {"InapplicableError": FAST.trials}
    assert verdict.to_json()["skipped"] == {"InapplicableError": FAST.trials}


def test_a_sweep_that_stops_early_counts_only_the_trials_it_walked():
    verdict = axioms.certify(TiltedLeiferSpekkens(), "P2", FAST)
    assert verdict.status == "fails" and verdict.trials < FAST.trials
    assert verdict.skipped == {} and verdict.ascent_steps == 0
    assert axioms.certify(sot.LeiferSpekkens(), "P2", FAST).to_json()["skipped"] == {}


# ------------------------------------------------------------------ dims
def test_dims_give_the_source_and_target_shapes():
    config = axioms.CertifyConfig(trials=2, dims=(2, 3))
    family = sot.LeiferSpekkens()
    for trial, (source, target) in enumerate([((2,), (3,)), ((2, 1), (3, 1))]):
        instance = sample_alone(family, "P1", trial, config, rng_for("dims", trial))
        assert (instance["e"].source.dims, instance["e"].target.dims) == (source, target)
        assert instance["rho"].shape.dims == source
    instance = sample_alone(family, "A", 0, config, rng_for("dims"))
    assert [m.dims for m in (instance["e"].source, instance["e"].target,
                             instance["f"].target)] == [(2,), (3,), (3,)]


def test_dims_2_3_certifies_on_m2_to_m3():
    config = axioms.CertifyConfig(trials=40, seed=0, dims=(2, 3))
    report = axioms.table_report(config)
    assert report.mismatches() == []
    witnessed = 0
    for tag, row in report.verdicts.items():
        for prop, verdict in row.items():
            if verdict.status != "fails":
                continue
            e = verdict.counterexample["e"]
            assert (e.source.total_dim, e.target.total_dim) in ((2, 3), (3, 4)), (tag, prop)
            assert_replays_exactly(sot.TABLE_FAMILIES[tag], verdict, config)
            witnessed += 1
    assert witnessed >= 20


# ------------------------------------------------------------ stacked chunks
STACKED = ("P1", "P2", "P3", "P4", "P5")


def assert_same(got, want):
    """Equal witness entries: maps and elements array by array."""
    if isinstance(want, LinearMap):
        assert (got.source, got.target) == (want.source, want.target)
        assert np.array_equal(got.matrix, want.matrix)
    elif isinstance(want, AlgebraElement):
        assert got.shape == want.shape
        assert all(np.array_equal(g, w) for g, w in zip(got.data, want.data))
    elif isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("prop", axioms.PROPERTIES)
@pytest.mark.parametrize("tag", list(sot.TABLE_FAMILIES))
def test_stacked_chunks_equal_trials_drawn_and_evaluated_alone(tag, prop, dims):
    """Twelve trials walk the chunks [0] and [1..11], on both shape
    parities and on targets larger and smaller than the source; each
    trial's outcome in its chunk equals sample_alone, the trial finished by
    the one-trial samplers from its row of its group's draws, and
    _violation on that trial alone: a skipped trial raises alone what it
    was skipped for.  Its replay key names its group's generator and row."""
    family = sot.TABLE_FAMILIES[tag]
    config = axioms.CertifyConfig(trials=12, seed=3, dims=dims)
    swept = list(axioms._sweep(family, prop, config, axioms._cell_index(tag, prop)))
    assert [trial for trial, _, _ in swept] == list(range(config.trials))
    for trial, key, outcome in swept:
        assert key == member_draws(family, prop, trial, config)[1], trial
        if isinstance(outcome, str):
            with pytest.raises(axioms.SKIPS) as raised:
                axioms._violation(family, prop, sample_alone(family, prop, trial, config))
            assert type(raised.value).__name__ == outcome, trial
            continue
        violation, extra, stacked, position = outcome
        data = {**axioms._member(stacked, position), **extra}
        instance = sample_alone(family, prop, trial, config)
        alone, extra = axioms._violation(family, prop, instance)
        assert violation == alone, trial
        want = {**instance, **extra}
        assert list(data) == list(want)
        for name, value in want.items():
            assert_same(data[name], value)


@pytest.mark.parametrize("prop", STACKED)
def test_skips_are_counted_trial_by_trial_on_every_stacked_property(prop):
    family = PickyLeiferSpekkens()
    verdict = axioms.certify(family, prop, FAST)
    want = Counter()
    for trial in range(verdict.trials + sum(verdict.skipped.values())):
        try:
            axioms._violation(family, prop, sample_alone(family, prop, trial, FAST))
        except axioms.SKIPS as exc:
            want[type(exc).__name__] += 1
    assert verdict.skipped == dict(want)
    if verdict.status == "holds":
        assert set(verdict.skipped) == {"UnsupportedFamilyError", "ExtensionError"}
    assert without_new_keys(verdict.to_json()) == without_new_keys(
        sequential_certify(family, prop, FAST).to_json())


def test_a_draw_that_raises_is_its_trials_outcome_alone(monkeypatch):
    """Ohya's P7 prior filter refuses two draws at seed 1: those trials
    are skipped, and no trial of their chunk is evaluated one by one."""
    alone = []
    fallback = axioms._violation
    monkeypatch.setattr(axioms, "_violation",
                        lambda *args: alone.append(args) or fallback(*args))
    verdict = axioms.certify(sot.OhyaCompound(), "P7", axioms.CertifyConfig(trials=200, seed=1))
    assert verdict.status == "holds-restricted"
    assert verdict.trials == 198 and verdict.skipped == {"InapplicableError": 2}
    assert alone == []


def test_a_stack_that_raises_draws_each_trial_once(monkeypatch):
    """Every P1 stack of the picky family raises; each trial is then settled
    from its finished member, not drawn again."""
    drawn = []
    draw = axioms._draw
    monkeypatch.setattr(axioms, "_draw", lambda *args: drawn.append(args[-1]) or draw(*args))
    verdict = axioms.certify(PickyLeiferSpekkens(), "P1", FAST)
    assert verdict.skipped["ExtensionError"] >= 1
    assert sum(drawn) == verdict.trials + sum(verdict.skipped.values()) == FAST.trials


def test_a_cell_is_a_one_trial_probe_then_stacks_of_chunk_trials(monkeypatch):
    """A 200-trial cell that holds is two chunks, [0] and [1..199], each
    drawn as one stack per shape pair; a cell that fails at trial 0 draws
    that trial only."""
    chunks, drawn = [], []
    chunk, draw = axioms._chunk, axioms._draw
    monkeypatch.setattr(axioms, "_chunk", lambda family, prop, trials, *args: (
        chunks.append(trials) or chunk(family, prop, trials, *args)))
    monkeypatch.setattr(axioms, "_draw", lambda *args: drawn.append(args[-1]) or draw(*args))
    config = axioms.CertifyConfig(trials=200, seed=0)
    verdict = axioms.certify(sot.LeiferSpekkens(), "P1", config)
    assert verdict.status == "holds" and verdict.trials == 200
    assert chunks == [range(0, 1), range(1, 200)] and drawn == [1, 100, 99]
    chunks.clear(), drawn.clear()
    verdict = axioms.certify(sot.RightBloom(), "P1", config)
    assert verdict.status == "fails" and verdict.trials == 1
    assert chunks == [range(0, 1)] and drawn == [1]


def test_capped_chunks_equal_the_sequential_reference(monkeypatch):
    """With CHUNK_TRIALS = 4, twelve trials walk [0], [1..4], [5..8] and
    [9..11]; every cell of all nine properties equals the trial-by-trial
    reference."""
    monkeypatch.setattr(axioms, "CHUNK_TRIALS", 4)
    sizes = Counter()
    chunk = axioms._chunk
    monkeypatch.setattr(axioms, "_chunk", lambda family, prop, trials, *args: (
        sizes.update([len(trials)]) or chunk(family, prop, trials, *args)))
    config = axioms.CertifyConfig(trials=12, seed=3)
    report = axioms.table_report(config, properties=axioms.PROPERTIES)
    for tag, row in report.verdicts.items():
        for prop, verdict in row.items():
            want = sequential_certify(sot.TABLE_FAMILIES[tag], prop, config)
            assert without_new_keys(verdict.to_json()) == without_new_keys(want.to_json()), \
                (tag, prop)
    assert set(sizes) == {1, 3, 4}  # trial 0 alone, full chunks and the tail [9..11]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
@pytest.mark.parametrize("tag", ["symmetric-bloom", "leifer-spekkens"])
def test_a_stacked_associativity_check_equals_per_member_checks(tag, dims):
    """One residual per member, bit for bit the member's own float, for a
    state-linear family and for one that validates every argument."""
    family = sot.TABLE_FAMILIES[tag]
    config = axioms.CertifyConfig(trials=8, seed=4, dims=dims)
    instance, _ = axioms._draw(family, "A", axioms._group(family, "A", 0, config), config,
                               rng_for("stacked-associativity", dims[1]), config.trials)
    stacked = axioms.check_associativity(family, instance["e"], instance["f"], instance["rho"])
    assert stacked.shape == (config.trials,)
    for position, value in enumerate(stacked.tolist()):
        member = axioms._member(instance, position)
        alone = axioms.check_associativity(family, member["e"], member["f"], member["rho"])
        assert type(alone) is float and value == alone
    assert (stacked.max() > 1e-6) == (tag == "leifer-spekkens")  # LS is not associative


def test_an_inapplicable_member_settles_an_a_stack_member_by_member(monkeypatch):
    """Trial 3's first leg is a general channel, whose normalised channel
    state Leifer–Spekkens refuses: the stack raises, each member is then
    evaluated alone, and every trial keeps the outcome it has alone."""
    family, config = sot.LeiferSpekkens(), axioms.CertifyConfig(trials=8, seed=4)
    measure_prepare, violation = sampling.measure_prepare, axioms._violation
    third = member_draws(family, "A", 3, config)[0].normal(1)[0]  # trial 3's first draw

    def general_third(source, target, draws):
        if draws[0].flat[0] == third:
            return sampling.random_cptp(source, target, rng_for("general-third"))
        return measure_prepare(source, target, draws)
    alone = []
    monkeypatch.setattr(sampling, "measure_prepare", general_third)
    monkeypatch.setattr(axioms, "_violation", lambda *args: alone.append(args) or violation(*args))
    trials = range(1, config.trials)  # the sweep's second chunk
    outcomes = axioms._chunk(family, "A", trials, config, axioms._cell_index(family.tag, "A"))
    assert len(alone) == len(trials)  # the stack raised, so the fallback ran
    for trial, (_, outcome) in zip(trials, outcomes):
        member = sample_alone(family, "A", trial, config)
        if trial == 3:
            assert isinstance(outcome, InapplicableError)
            with pytest.raises(InapplicableError, match="not linear in the state"):
                axioms.check_associativity(family, member["e"], member["f"], member["rho"])
            continue
        value, extra, stacked, position = outcome
        data = {**axioms._member(stacked, position), **extra}
        assert value == axioms.check_associativity(family, member["e"], member["f"],
                                                   member["rho"])
        for name, want in member.items():
            assert_same(data[name], want)


@pytest.mark.parametrize("r, s", [(1.0, 1.0), (0.0, 1.0), (1.0, 0.3), (0.0, 0.0)])
def test_rs_family_at_a_bloom_end_is_associative(r, s):
    """At r ∈ {0, 1} the rs family is a mix of the two blooms, linear in the
    state, and its A cell holds like theirs."""
    family = sot.RSFamily(r, s)
    assert family.state_linear
    verdict = axioms.certify(family, "A", FAST)
    assert verdict.status == "holds" and verdict.skipped == {}


@pytest.mark.parametrize("prop", ["P7", "A"])
@pytest.mark.parametrize("tag", list(sot.TABLE_FAMILIES))
def test_stacked_p7_and_a_draws_equal_the_per_trial_samplers(tag, prop):
    """Sixteen trials give stacks of at least two per group key after trial
    0's chunk, over both shape parities and every classical-limit
    construction that applies; each finished member equals the trial
    finished alone from its row of its group's draws (==)."""
    family, config = sot.TABLE_FAMILIES[tag], axioms.CertifyConfig(trials=16, seed=3)
    drawn, groups = drawn_by_column(family, prop, config)
    for trial, member in drawn.items():
        assert not isinstance(member, Exception), trial  # no pair of these is refused
        want = sample_alone(family, prop, trial, config)
        assert list(member) == list(want)
        for name, value in want.items():
            assert_same(member[name], value)
    assert all(len(members) >= 2 for key, (_, members) in groups.items() if key[2] > 0)
    if prop == "P7":
        kinds = {"replacement", "decohering"} | (set() if family.compound else {"central"})
        shapes = {(a.dims, b.dims) for (a, b, *_), _ in groups.values()}
        assert {group[2] for group, _ in groups.values()} == kinds and len(shapes) == 2


def test_a_refused_classical_limit_pair_is_its_trials_outcome_in_its_stack():
    """At seed 11 Ohya's prior filter refuses trial 5, which shares its
    stack in the chunk of trials 1..23 with trials 1, 9, 13, 17 and 21;
    trial 5 alone is skipped."""
    family, config = sot.OhyaCompound(), axioms.CertifyConfig(trials=24, seed=11)
    trials = range(1, config.trials)
    assert group_of(family, "P7", 5, config)[2] == [1, 5, 9, 13, 17, 21]
    outcomes = dict(zip(trials, (outcome for _, outcome in axioms._chunk(
        family, "P7", trials, config, axioms._cell_index(family.tag, "P7")))))
    assert isinstance(outcomes[5], InapplicableError)
    assert "degenerate" in str(outcomes[5])
    with pytest.raises(InapplicableError, match="degenerate"):
        sample_alone(family, "P7", 5, config)
    for trial in trials:
        if trial != 5:
            _, extra, stacked, position = outcomes[trial]
            data = {**axioms._member(stacked, position), **extra}
            for name, value in sample_alone(family, "P7", trial, config).items():
                assert_same(data[name], value)
    verdict = axioms.certify(family, "P7", config)
    assert verdict.trials == 23 and verdict.skipped == {"InapplicableError": 1}


@pytest.mark.parametrize("tag", ["uncorrelated", "ohya"])
def test_a_p7_chunk_evaluates_one_stack_per_shape_pair(tag, monkeypatch):
    """The chunk of trials 1..15 holds every construction on both shape
    parities; the finished pairs of every group of one shape pair are
    evaluated as one stack, and each trial keeps the violation it has alone."""
    family, config = sot.TABLE_FAMILIES[tag], axioms.CertifyConfig(trials=16, seed=0)
    trials = range(1, config.trials)
    stacks = []
    violations = axioms._violations
    monkeypatch.setattr(axioms, "_violations", lambda family, prop, instance: (
        stacks.append((instance["e"].source, len(instance["e"].matrix)))
        or violations(family, prop, instance)))
    outcomes = [outcome for _, outcome in axioms._chunk(family, "P7", trials, config,
                                                        axioms._cell_index(tag, "P7"))]
    evaluated = [trial for trial, outcome in zip(trials, outcomes)
                 if not isinstance(outcome, Exception)]
    groups = {axioms._group(family, "P7", trial, config) for trial in evaluated}
    pairs = {group[:2] for group in groups}
    assert len(groups) > len(pairs) == 2
    assert len(stacks) == 2 and {source for source, _ in stacks} == {a for a, _ in pairs}
    assert sum(members for _, members in stacks) == len(evaluated)
    for trial, outcome in zip(trials, outcomes):
        if not isinstance(outcome, Exception):
            instance = sample_alone(family, "P7", trial, config)
            assert outcome[0] == axioms._violation(family, "P7", instance)[0]


@pytest.mark.parametrize("tag", ["uncorrelated", "ohya"])
def test_a_p7_shape_pair_stack_that_raises_settles_each_trial_alone(tag, monkeypatch):
    """When a shape pair's stack of several constructions raises, each of
    its trials is evaluated alone and gets the outcome it has alone."""
    family, config = sot.TABLE_FAMILIES[tag], axioms.CertifyConfig(trials=16, seed=0)
    trials = range(1, config.trials)
    sizes = []
    violations = axioms._violations

    def single_members_only(family, prop, instance):
        sizes.append(len(instance["e"].matrix))
        if sizes[-1] > 1:
            raise ConstraintError("a stack of more than one member")
        return violations(family, prop, instance)
    monkeypatch.setattr(axioms, "_violations", single_members_only)
    outcomes = [outcome for _, outcome in axioms._chunk(family, "P7", trials, config,
                                                        axioms._cell_index(tag, "P7"))]
    alone = []
    for trial, outcome in zip(trials, outcomes):
        try:
            instance = sample_alone(family, "P7", trial, config)
        except InapplicableError as refusal:
            assert type(outcome) is InapplicableError and str(outcome) == str(refusal)
            continue
        violation, extra, stacked, position = outcome
        assert violation == axioms._violation(family, "P7", instance)[0] and extra == {}
        for name, value in instance.items():
            assert_same(axioms._member(stacked, position)[name], value)
        alone.append(trial)
    assert len([size for size in sizes if size > 1]) == 2
    assert sum(size for size in sizes if size > 1) == len(alone) > 2


@pytest.mark.parametrize("blocky", [False, True])
@pytest.mark.parametrize("prop", ["P4", "P5", "P6"])
@pytest.mark.parametrize("tag", ["leifer-spekkens", "ohya"])
def test_mixing_pairs_as_one_stack_equal_separate_evaluations(tag, prop, blocky):
    """P4–P6 evaluate the plain pair and every key's mixed and alternative
    pairs as one stack; each trial's violation equals the one of separate
    evaluations, bit for bit."""
    family, config = sot.TABLE_FAMILIES[tag], axioms.CertifyConfig(trials=16, seed=0)
    group = axioms._group(family, prop, int(blocky), config)
    instance, _ = axioms._draw(family, prop, group, config,
                               rng_for(f"{tag}:{prop}", blocky), 12)
    found = axioms._violations(family, prop, instance)
    assert found == separate_mixing_violations(family, prop, instance)
    if prop != "P5":  # neither family is linear in the state
        assert max(value for value, _ in found) > FAIL_THRESHOLD


@pytest.mark.parametrize("props", [("P6", "M", "P1"), ("M",)])
def test_table_text_renders_every_property_in_row_order(props):
    families = {tag: sot.TABLE_FAMILIES[tag] for tag in ("uncorrelated", "ohya")}
    report = axioms.table_report(axioms.CertifyConfig(trials=5, seed=0),
                                 families=families, properties=props)
    header, *rows = report.render_text().split("\n")
    assert header.split() == ["family", *props]
    # neither family is bilinear (P6 ✗); both have the right marginals (M ✓)
    glyphs = {"P6": "✗", "M": "✓", "P1": "✓"}
    assert [line.split() for line in rows] == [[tag, *(glyphs[p] for p in props)]
                                               for tag in families]


@dataclass(frozen=True)
class BrittleLeiferSpekkens(sot.LeiferSpekkens):
    """Leifer–Spekkens that refuses priors with ⟨0|ρ|0⟩ < 0.15 by a
    ConstraintError, which is no skip, and whose T is not hermitian where
    ⟨0|ρ|0⟩ > 0.8, so that P1 fails there."""
    tag: ClassVar[str] = "brittle-leifer-spekkens"

    def value(self, e, rho):
        weight = rho.data[0][..., 0, 0].real
        if np.any(weight < 0.15):
            raise ConstraintError("priors far from |0⟩ refused")
        t = super().value(e, rho)
        return t + (1j * (weight > 0.8))[..., None, None] * alg.identity(t.shape)


def test_an_error_after_the_first_failure_of_a_chunk_does_not_escape():
    family = BrittleLeiferSpekkens()
    chunk_of = np.searchsorted(np.array(CHUNK_STARTS), np.arange(40), side="right")

    def first_events(seed: int) -> list[tuple[int, str]]:
        """The trials that fail or raise, in trial order."""
        config = axioms.CertifyConfig(trials=40, seed=seed)
        events = []
        for trial in range(40):
            weight = sample_alone(family, "P1", trial, config)["rho"].data[0][0, 0].real
            if weight < 0.15 or weight > 0.8:
                events.append((trial, "raise" if weight < 0.15 else "fail"))
        return events

    seeds = {}
    for seed in range(60):
        (first, kind), *later = first_events(seed) or [(None, None)]
        if kind == "raise" or any(chunk_of[trial] == chunk_of[first] and what == "raise"
                                  for trial, what in later):
            seeds.setdefault(kind, (seed, first))
        if len(seeds) == 2:
            break
    assert set(seeds) == {"fail", "raise"}

    # a raising trial later in the failing trial's chunk is never reached
    seed, failing = seeds["fail"]
    config = axioms.CertifyConfig(trials=40, seed=seed)
    verdict = axioms.certify(family, "P1", config)
    assert verdict.status == "fails" and verdict.trials == failing + 1
    assert without_new_keys(verdict.to_json()) == without_new_keys(
        sequential_certify(family, "P1", config).to_json())
    assert_replays_exactly(family, verdict, config)

    # one the sweep reaches first escapes, as it would trial by trial
    seed, _ = seeds["raise"]
    with pytest.raises(ConstraintError, match="far from"):
        axioms.certify(family, "P1", axioms.CertifyConfig(trials=40, seed=seed))


# ---------------------------------------------------------------- draw order
class RecordingGenerator:
    """A generator that records each call: (method, args, size, values)."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.calls = rng, []

    def __getattr__(self, name: str):
        def call(*args, size=None):
            values = getattr(self.rng, name)(*args, size=size)
            self.calls.append((name, args, size, values))
            return values
        return call


# At dims (2, 2) a channel's planes are (2, 4, 2), 16 values, and a state's
# (2, 2, 2), 8; A's measure-prepare leg takes four effects' and four states'
# planes, 64.  Each group draws its members' values call by call.
M = 5  # members of the group
DRAW_ORDER = {
    "P4": ("uncorrelated", 0, [("normal", (), (M, 24)), ("uniform", (0.2, 0.8), (M,)),
                               ("normal", (), (M, 8))]),
    "P2": ("right-bloom", 0, [("normal", (), (M, 24))]),
    "A": ("leifer-spekkens", 0, [("normal", (), (M, 64 + 16 + 8))]),
    "P7 replacement": ("uncorrelated", 0, [("normal", (), (M, 16))]),
    "P7 decohering": ("uncorrelated", 2, [("dirichlet", (np.ones(2),), (M, 2)),
                                          ("dirichlet", (np.ones(2),), (M,))]),
    "P7 central": ("uncorrelated", 4, [("normal", (), (M, 16)),
                                       ("dirichlet", (np.ones(1),), (M,))]),
}


@pytest.mark.parametrize("kind", list(DRAW_ORDER))
def test_a_group_draws_each_plan_call_once_for_all_its_members(kind):
    """A group's generator, ``default_rng(key)``, makes one call per plan
    call of size (members, …), in plan order, and no other: the values
    ``_draw`` takes equal those calls made on a fresh ``default_rng(key)``,
    and both generators give the same next draw."""
    prop, *construction = kind.split()
    tag, trial, want = DRAW_ORDER[kind]
    family, config = sot.TABLE_FAMILIES[tag], axioms.CertifyConfig(seed=7)
    group = axioms._group(family, prop, trial, config)
    if construction:
        assert group[2] == construction[0]
    assert prop != "A" or not family.state_linear  # A's first leg is measure-prepare
    key = [config.seed, axioms._cell_index(tag, prop), 1, 0]
    rng, reference = RecordingGenerator(np.random.default_rng(key)), np.random.default_rng(key)
    axioms._draw(family, prop, group, config, rng, M)
    assert [(name, size) for name, _, size, _ in rng.calls] == [(name, size)
                                                               for name, _, size in want]
    for (_, args, _, values), (name, want_args, size) in zip(rng.calls, want):
        assert all(np.array_equal(a, b) for a, b in zip(args, want_args, strict=True))
        assert np.array_equal(values, getattr(reference, name)(*want_args, size=size))
    assert rng.rng.random() == reference.random()


@pytest.mark.parametrize("prop", axioms.PROPERTIES)
@pytest.mark.parametrize("tag", list(sot.TABLE_FAMILIES))
def test_every_drawn_instance_has_the_bits_of_two_call_ginibre_draws(tag, prop):
    """Twelve trials, both shape parities and (for a family without a prior
    filter) all three classical-limit constructions: each trial drawn by
    column equals the trial finished alone from its row of its group's
    draws, each Ginibre matrix taken as two ``normal`` calls, and is refused
    where that trial is."""
    family, config = sot.TABLE_FAMILIES[tag], axioms.CertifyConfig(trials=12, seed=3)
    drawn, groups = drawn_by_column(family, prop, config)
    with two_call_draws():
        for trial in range(config.trials):
            if isinstance(drawn[trial], Exception):
                with pytest.raises(type(drawn[trial]), match=str(drawn[trial])):
                    sample_alone(family, prop, trial, config)
                continue
            want = sample_alone(family, prop, trial, config)
            assert list(drawn[trial]) == list(want)
            for name, value in want.items():
                assert_same(drawn[trial][name], value)
    if prop == "P7":
        kinds = {"replacement", "decohering"} | (set() if family.compound else {"central"})
        assert {group[2] for group, _ in groups.values()} == kinds
    assert len({group[0] for group, _ in groups.values()}) == (1 if prop == "A" else 2)


def test_a_cell_gives_the_same_verdict_alone_and_inside_the_table():
    """All nine properties of the eight families, certified inside one
    table and then each alone in reverse order: the same JSON."""
    config = axioms.CertifyConfig(trials=40, seed=11)
    report = axioms.table_report(config, properties=axioms.PROPERTIES)
    for tag, family in reversed(sot.TABLE_FAMILIES.items()):
        for prop in reversed(axioms.PROPERTIES):
            alone = axioms.certify(family, prop, config).to_json()
            assert alone == report.verdicts[tag][prop].to_json(), (tag, prop)


# ------------------------------------------------------ analytic ✗ witnesses
# Each ✗ cell of EXPECTED_TABLE: (its instance in conftest's
# closed_form_witnesses, the violation in closed form or None, why it fails).
ANALYTIC_WITNESSES = {
    **{(tag, "P3"): ("maximally-mixed", 0.5, "½·SWAP has the eigenvalue −½")
       for tag in ("leifer-spekkens", "t-rotated", "sth", "symmetric-bloom", "right-bloom",
                   "left-bloom")},
    **{(tag, "P1"): ("diagonal-prior", np.sqrt(2) * 0.4,
                     "T − T† = ±(ρ⊗1 − 1⊗ρ)·SWAP, of norm √2·(0.7 − 0.3)")
       for tag in ("right-bloom", "left-bloom")},
    **{(tag, "P2"): ("biased-prior", None,
                     "the pairing on a⊗b is ⟨a|ρ|b⟩⟨b|a⟩ (its real part for the symmetric "
                     "bloom), negative or non-real for some a, b; the search finds them")
       for tag in ("symmetric-bloom", "right-bloom", "left-bloom")},
    **{(tag, "P4"): ("pure-priors", 0.5, "at ½·1 the state is ¼·1⊗1, the pure priors' mix "
                                         "½(|00⟩⟨00| + |11⟩⟨11|)")
       for tag in ("uncorrelated", "ohya")},
    **{(tag, "P4"): ("pure-priors", 1 / np.sqrt(2), "at ½·1 the state is ½·SWAP, the pure "
                                                    "priors' mix ½(|00⟩⟨00| + |11⟩⟨11|)")
       for tag in ("leifer-spekkens", "t-rotated", "sth")},
    ("uncorrelated", "P7"): ("dephased-prior", 2 * 0.7 * 0.3,
                             "the product p(a)p(b) of a classical pair is not its joint "
                             "distribution p(b|a)p(a)"),
    ("uncorrelated", "A"): ("dephased-chain", None,
                            "ρ⊗E(ρ) is not linear in ρ, so the two bracketings differ"),
    **{(tag, "A"): ("dephased-chain", np.sqrt(2) * 0.2,
                    "the two bracketings differ by √2 times ρ's coherence 0.2")
       for tag in ("leifer-spekkens", "t-rotated", "sth")},
}
# ✗ cells without a closed-form witness yet (Horsman et al., Proc. R. Soc. A
# 2017, give no-go witnesses for the rest): none at dims (2, 2).
OPEN_FAILS: dict[tuple[str, str], str] = {}


def test_every_fails_cell_has_a_closed_form_witness_or_is_listed_open():
    fails = {(tag, prop) for tag, row in axioms.EXPECTED_TABLE.items()
             for prop, glyph in row.items() if glyph == "✗"}
    assert len(fails) == 21
    assert fails == ANALYTIC_WITNESSES.keys() | OPEN_FAILS.keys()
    assert not ANALYTIC_WITNESSES.keys() & OPEN_FAILS.keys()


@pytest.mark.parametrize("tag, prop", sorted(ANALYTIC_WITNESSES))
def test_a_fails_cell_fails_on_its_closed_form_witness(tag, prop):
    """The library's violation of the written-down instance, through
    ``replay_violation``, exceeds FAIL_THRESHOLD whatever the certification
    streams, and equals its closed form where one is given."""
    name, closed_form, _ = ANALYTIC_WITNESSES[tag, prop]
    violation = axioms.replay_violation(sot.TABLE_FAMILIES[tag], prop,
                                        closed_form_witnesses()[name])
    assert violation > FAIL_THRESHOLD
    if closed_form is not None:
        assert violation == pytest.approx(closed_form, rel=1e-12)

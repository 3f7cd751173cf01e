"""Command-line interface: exit codes, JSON outputs, determinism, and the
scenario runner, exercised in-process through main()."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsot import algebra as alg, axioms, cli, io, maps, sampling, sot
from qsot.algebra import AlgebraElement
from qsot.config import ATOL
from qsot.errors import ValidationError

from conftest import TransposedTarget, random_traceless_direction, rng_for


@pytest.fixture
def fixtures(tmp_path):
    """A qubit channel/state pair on disk plus the tmp dir for outputs."""
    rng = rng_for("cli-fixtures")
    e = sampling.random_cptp(alg.matrix_algebra(2, "a"),
                             alg.matrix_algebra(2, "b"), rng)
    rho = sampling.random_state(alg.matrix_algebra(2, "a"), rng)
    channel = tmp_path / "channel.json"
    state = tmp_path / "state.json"
    io.dump(io.serialize_map(e), str(channel))
    io.dump(io.serialize_element(rho, kind="state"), str(state))
    return {"dir": tmp_path, "channel": str(channel), "state": str(state),
            "e": e, "rho": rho}


def run(args):
    return cli.main(args)


# ---------------------------------------------------------------------- sot
def test_sot_writes_a_valid_result(fixtures, capsys):
    out = str(fixtures["dir"] / "out.json")
    code = run(["sot", "--family", "leifer-spekkens",
                fixtures["channel"], fixtures["state"], out])
    assert code == cli.EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["kind"] == "sot_result"
    assert max(doc["marginal_residuals"]) < 1e-9
    value = io.parse_document(doc["value"])
    want = sot.evaluate(sot.LeiferSpekkens(), fixtures["e"], fixtures["rho"]).value
    assert np.max(np.abs(value.data[0] - want.data[0])) < 1e-12


def test_sot_swap_channel_known_value(tmp_path, capsys):
    # the unitary SWAP-like check: identity channel on a maximally mixed
    # state gives D[id]/2, whose matrix is the swap operator over 2
    shape = alg.matrix_algebra(2, "a")
    io.dump(io.serialize_map(maps.identity_map(shape)), str(tmp_path / "c.json"))
    io.dump(io.serialize_element((0.5 * alg.identity(shape)), kind="state"),
            str(tmp_path / "s.json"))
    out = str(tmp_path / "o.json")
    code = run(["sot", "--family", "right-bloom",
                str(tmp_path / "c.json"), str(tmp_path / "s.json"), out])
    assert code == cli.EXIT_OK
    value = io.parse_document(json.loads(open(out).read())["value"])
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    np.testing.assert_allclose(value.data[0], swap / 2, atol=1e-12)


def test_sot_rejects_unknown_family(fixtures, capsys):
    code = run(["sot", "--family", "nope",
                fixtures["channel"], fixtures["state"]])
    assert code == cli.EXIT_PARSE


@pytest.mark.parametrize("flags", [["--family", "leifer-spekkens", "--theta", "right",
                                    "--t", "0.9"],
                                   ["--family", "theta", "--theta", "ls", "--r", "0.3"]])
def test_sot_rejects_a_parameter_the_family_lacks(fixtures, capsys, flags):
    code = run(["sot", *flags, fixtures["channel"], fixtures["state"]])
    assert code == cli.EXIT_PARSE
    assert "has no parameter" in capsys.readouterr().err


def test_sot_malformed_json_is_a_parse_error(fixtures, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["sot", "--family", "leifer-spekkens", str(bad),
                fixtures["state"]])
    assert code == cli.EXIT_PARSE


def test_sot_non_integer_shape_dim_is_a_parse_error(fixtures, tmp_path, capsys):
    doc = io.serialize_map(fixtures["e"])
    doc["source"][0]["dim"] = "x"
    bad = tmp_path / "bad_dim.json"
    bad.write_text(json.dumps(doc))
    code = run(["sot", "--family", "leifer-spekkens", str(bad), fixtures["state"]])
    assert code == cli.EXIT_PARSE
    assert "shape block dim must be an integer" in capsys.readouterr().err


def test_sot_non_string_shape_label_is_a_parse_error(fixtures, tmp_path, capsys):
    doc = io.serialize_map(fixtures["e"])
    doc["source"][0]["label"] = 3
    bad = tmp_path / "bad_label.json"
    bad.write_text(json.dumps(doc))
    code = run(["sot", "--family", "leifer-spekkens", str(bad), fixtures["state"]])
    assert code == cli.EXIT_PARSE
    assert "shape block label must be a string" in capsys.readouterr().err


def test_output_files_are_written_by_io_dump(fixtures, monkeypatch, capsys):
    written = []
    monkeypatch.setattr(io, "dump", lambda doc, path: written.append((doc["kind"], path)))
    out = str(fixtures["dir"] / "out.json")
    assert run(["sot", "--family", "leifer-spekkens",
                fixtures["channel"], fixtures["state"], out]) == cli.EXIT_OK
    assert written == [("sot_result", out)]


def test_a_boolean_matrix_entry_is_a_parse_error(fixtures, tmp_path, capsys):
    doc = io.serialize_element(fixtures["rho"], kind="state")
    doc["blocks"]["a"][1][1] = [True, False]
    bad = tmp_path / "bool_state.json"
    bad.write_text(json.dumps(doc))
    code = run(["sot", "--family", "leifer-spekkens", fixtures["channel"], str(bad)])
    assert code == cli.EXIT_PARSE
    assert "expected a number or an [re, im] pair, got [True, False]" in capsys.readouterr().err


@pytest.mark.parametrize("digits, message", [
    (401, "number out of float range"),
    (5001, "invalid JSON: Exceeds the limit (4300 digits)")],
    ids=["beyond-float", "beyond-the-digit-limit"])
def test_an_integer_entry_too_large_for_a_float_is_a_parse_error(digits, message, fixtures,
                                                                 tmp_path, capsys):
    """Past the float range the entry does not parse; past the interpreter's
    limit on integer digits the document does not."""
    doc = io.serialize_element(fixtures["rho"], kind="state")
    doc["blocks"]["a"][0][0] = ["huge", 0]
    bad = tmp_path / "huge_state.json"
    bad.write_text(json.dumps(doc).replace('"huge"', "1" + "0" * (digits - 1)))
    code = run(["sot", "--family", "leifer-spekkens", fixtures["channel"], str(bad)])
    assert code == cli.EXIT_PARSE
    assert f"parse error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["sot", "--family", "leifer-spekkens"], ["bayes", "--family", "right-bloom", "--verify"],
    ["certify", "--families", "uncorrelated,leifer-spekkens", "--properties", "P1,P7",
     "--trials", "8", "--format", "json"]], ids=["sot", "bayes", "certify"])
def test_stdout_and_the_output_file_get_the_same_bytes(command, fixtures, capsys):
    inputs = [] if command[0] == "certify" else [fixtures["channel"], fixtures["state"]]
    assert run([*command, *inputs]) == cli.EXIT_OK
    printed = capsys.readouterr().out
    out = fixtures["dir"] / "out.json"
    assert run([*command, *inputs, *(["-o"] if command[0] == "certify" else []),
                str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()
    assert printed == json.dumps(json.loads(printed), indent=2, sort_keys=True) + "\n"


def test_sot_wrong_document_kind_is_validation(fixtures, capsys):
    code = run(["sot", "--family", "leifer-spekkens",
                fixtures["state"], fixtures["state"]])
    assert code == cli.EXIT_VALIDATION


# -------------------------------------------------------------------- bayes
def test_bayes_verified_solution(fixtures, capsys):
    out = str(fixtures["dir"] / "bayes.json")
    code = run(["bayes", "--family", "leifer-spekkens", "--verify",
                fixtures["channel"], fixtures["state"], out])
    assert code == cli.EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["kind"] == "bayes_solution"
    assert doc["residual"] < 1e-10
    assert doc["classification"] == "CPTP"


def test_bayes_generic_fallback_reports_uniqueness(fixtures, capsys):
    out = str(fixtures["dir"] / "bayes.json")
    code = run(["bayes", "--family", "uncorrelated",
                fixtures["channel"], fixtures["state"], out])
    assert code == cli.EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["uniqueness"] == "non-unique-witness"


def test_bayes_generic_fallback_for_ohya(fixtures, capsys):
    out = str(fixtures["dir"] / "bayes.json")
    code = run(["bayes", "--family", "ohya", fixtures["channel"], fixtures["state"], out])
    assert code == cli.EXIT_OK
    assert json.loads(open(out).read())["uniqueness"] == "none-found"


def write_pair(tmp_path, source, target, name) -> list[str]:
    """A seeded channel and state on the given shapes, written to disk."""
    rng = rng_for(name)
    e, rho = sampling.random_cptp(source, target, rng), sampling.random_state(source, rng)
    paths = [str(tmp_path / "channel.json"), str(tmp_path / "state.json")]
    io.dump(io.serialize_map(e), paths[0])
    io.dump(io.serialize_element(rho, kind="state"), paths[1])
    return paths


def test_ohya_evaluates_and_solves_on_block_sums(tmp_path, capsys):
    """Ohya takes block-sum sources: ``sot`` on M2⊕M1 → M2 exits 0, and
    ``bayes`` on M2 → M2⊕M1 (Ohya on the block sum B) finds no solution,
    exiting 0, or 4 with --verify, as on M2 → M2."""
    m2, m2_m1 = alg.matrix_algebra(2, "a"), alg.AlgebraShape([("b", 2), ("y", 1)])
    out = str(tmp_path / "out.json")
    assert run(["sot", "--family", "ohya", *write_pair(tmp_path, m2_m1, m2, "cli-ohya-sot"),
                out]) == cli.EXIT_OK
    assert max(json.loads(open(out).read())["marginal_residuals"]) < 1e-12
    pair = write_pair(tmp_path, m2, m2_m1, "cli-ohya-bayes")
    assert run(["bayes", "--family", "ohya", *pair, out]) == cli.EXIT_OK
    assert json.loads(open(out).read())["uniqueness"] == "none-found"
    capsys.readouterr()
    assert run(["bayes", "--family", "ohya", "--verify", *pair]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("verification failed: Bayes map residual")


def test_bayes_generic_fallback_refuses_non_local_family(fixtures, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_family_from_args", lambda args: TransposedTarget())
    code = run(["bayes", "--family", "leifer-spekkens",
                fixtures["channel"], fixtures["state"]])
    assert code == cli.EXIT_VALIDATION
    assert "not local" in capsys.readouterr().err


def test_bayes_verify_refuses_a_residual_above_the_pass_threshold(fixtures, capsys):
    # Ohya's generic solve finds no solution: its residual fails verification
    code = run(["bayes", "--family", "ohya", "--verify", fixtures["channel"], fixtures["state"]])
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("verification failed: Bayes map residual")


@pytest.mark.parametrize("scale, message", [
    ([[1.0, 1.0], [0.0, 0.0]], "second argument must be hermitian"),
    ([[0.3, 0.0], [0.0, 0.3]], "second argument must have unit trace")])
def test_sot_refuses_an_element_that_is_not_a_unit_trace_hermitian(scale, message, fixtures,
                                                                   capsys):
    path = fixtures["dir"] / "element.json"
    io.dump(io.serialize_element(AlgebraElement(alg.matrix_algebra(2, "a"),
                                                (np.array(scale, dtype=complex),))), str(path))
    assert run(["sot", "--family", "symmetric-bloom", fixtures["channel"], str(path)]) == (
        cli.EXIT_VALIDATION)
    assert capsys.readouterr().err == f"validation error: {message}\n"


def test_bayes_rs_family_requires_parameters(fixtures, capsys):
    code = run(["bayes", "--family", "rs",
                fixtures["channel"], fixtures["state"]])
    assert code == cli.EXIT_PARSE
    code = run(["bayes", "--family", "rs", "--r", "0.3", "--s", "0.7",
                fixtures["channel"], fixtures["state"]])
    assert code == cli.EXIT_OK


def _replacement_onto_zero(tmp_path) -> list[str]:
    """Files of the replacement channel onto |0⟩⟨0| and a random qubit state."""
    shape = alg.matrix_algebra(2, "a")
    rng = rng_for("cli-singular")
    e = maps.replace_channel(alg.diagonal_element(alg.matrix_algebra(2, "b"),
                                                  [1.0, 0.0]), shape)
    io.dump(io.serialize_map(e), str(tmp_path / "c.json"))
    io.dump(io.serialize_element(sampling.random_state(shape, rng), kind="state"),
            str(tmp_path / "s.json"))
    return [str(tmp_path / "c.json"), str(tmp_path / "s.json")]


def test_bayes_strict_mode_singular_state_is_numerical(tmp_path, capsys):
    code = run(["bayes", "--family", "leifer-spekkens", "--strict",
                *_replacement_onto_zero(tmp_path)])
    assert code == cli.EXIT_NUMERICAL


@pytest.mark.parametrize("tag", list(sot.TABLE_FAMILIES))
def test_bayes_strict_refuses_a_rank_deficient_output_on_every_path(tag, tmp_path, capsys):
    """E = id on M2 and ρ = diag(1, 0): strict mode refuses the singular E(ρ)
    whether the family has a closed form or is solved by the generic
    fallback (uncorrelated, Ohya); an invalid state still exits 2 first."""
    shape = alg.matrix_algebra(2, "a")
    paths = [str(tmp_path / name) for name in ("c.json", "s.json", "bad.json")]
    io.dump(io.serialize_map(maps.identity_map(shape)), paths[0])
    for path, diagonal in zip(paths[1:], ([1.0, 0.0], [2.0, 0.0])):
        io.dump(io.serialize_element(alg.diagonal_element(shape, diagonal)), path)
    assert run(["bayes", "--family", tag, "--strict", *paths[:2]]) == cli.EXIT_NUMERICAL
    assert "below faithfulness tolerance" in capsys.readouterr().err
    assert run(["bayes", "--family", tag, "--strict", paths[0], paths[2]]) == cli.EXIT_VALIDATION
    assert "unit trace" in capsys.readouterr().err


def test_bayes_non_trace_preserving_solution_is_numerical(tmp_path, capsys):
    # the support pseudo-inverse of the rank-one E(ρ) gives a map that is not
    # trace-preserving: a numerical failure, not an invalid input
    code = run(["bayes", "--family", "leifer-spekkens", *_replacement_onto_zero(tmp_path)])
    assert code == cli.EXIT_NUMERICAL
    assert "not trace-preserving (TP defect" in capsys.readouterr().err


# ------------------------------------------------------------------ certify
def test_certify_single_cell_table_and_json(fixtures, capsys):
    code = run(["certify", "--families", "uncorrelated", "--properties", "P7",
                "--trials", "20"])
    assert code == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "✗" in text and "P1" not in text
    out = str(fixtures["dir"] / "cert.json")
    code = run(["certify", "--families", "uncorrelated", "--properties", "P7",
                "--trials", "20", "--format", "json", "-o", out])
    assert code == cli.EXIT_OK
    doc = json.loads(open(out).read())
    cell = doc["cells"][0]
    assert cell["status"] == "fails" and cell["violation"] > 1e-6
    assert "witness" in cell


def test_certify_expect_paper_matches_the_default_table(tmp_path, capsys):
    out = str(tmp_path / "table.json")
    assert run(["certify", "--expect-paper", "--format", "json", "-o", out]) == cli.EXIT_OK
    assert json.loads(open(out).read())["matches_expected"] is True
    assert capsys.readouterr().err == "verdict matrix matches the expected pattern\n"


def test_certify_expect_paper_names_each_mismatch(monkeypatch, capsys):
    expected = {fam: dict(row) for fam, row in axioms.EXPECTED_TABLE.items()}
    expected["uncorrelated"]["P1"] = "✗"
    monkeypatch.setattr(axioms, "EXPECTED_TABLE", expected)
    code = run(["certify", "--families", "uncorrelated", "--properties", "P1,P4",
                "--trials", "20", "--expect-paper"])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "mismatch: uncorrelated P1 expected ✗ got ✓\n"


def test_certify_unknown_family_or_property(capsys):
    assert run(["certify", "--families", "nope"]) == cli.EXIT_VALIDATION
    assert run(["certify", "--properties", "P99"]) == cli.EXIT_VALIDATION


def test_certify_json_is_deterministic(fixtures, capsys):
    args = ["certify", "--families", "leifer-spekkens",
            "--properties", "P1,P3", "--trials", "15", "--seed", "3",
            "--format", "json"]
    assert run(args) == cli.EXIT_OK
    first = capsys.readouterr().out
    assert run(args) == cli.EXIT_OK
    assert capsys.readouterr().out == first


def test_certify_seed_env_var_default(monkeypatch, capsys):
    args = ["certify", "--families", "leifer-spekkens", "--properties", "P1",
            "--trials", "5", "--format", "json"]
    assert run(args + ["--seed", "11"]) == cli.EXIT_OK
    explicit = capsys.readouterr().out
    monkeypatch.setenv("QSOT_SEED", "11")
    assert run(args) == cli.EXIT_OK
    from_env = capsys.readouterr().out
    assert json.loads(from_env)["seed"] == 11
    assert from_env == explicit
    # an explicit --seed wins over the env var
    assert run(args + ["--seed", "3"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["seed"] == 3


def test_certify_malformed_seed_env_var_is_validation(fixtures, monkeypatch,
                                                       capsys):
    for raw in ("abc", "-3"):
        monkeypatch.setenv("QSOT_SEED", raw)
        assert run(["certify", "--trials", "1"]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and "QSOT_SEED" in err and raw in err
        assert err.count("\n") == 1 and "Traceback" not in err
    # a negative --seed is refused the same way, and names the option
    assert run(["certify", "--trials", "1", "--seed", "-1"]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: --seed") and "-1" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    # only certify reads QSOT_SEED
    assert run(["bayes", "--family", "leifer-spekkens",
                fixtures["channel"], fixtures["state"]]) == cli.EXIT_OK


def test_certify_negative_trials_is_validation(capsys):
    """A negative --trials is refused like a negative --seed, and the
    report schema agrees; zero trials is an "insufficient" table."""
    args = ["certify", "--families", "uncorrelated", "--properties", "P1", "--format", "json"]
    assert run(args + ["--trials", "-5"]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: trials must be") and "-5" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert run(args + ["--trials", "0"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 0 and doc["cells"][0]["status"] == "insufficient"
    import jsonschema
    schema = io.load_schema("certify_report")
    jsonschema.Draft202012Validator(schema).validate(doc)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.Draft202012Validator(schema).validate({**doc, "trials": -5})


@pytest.mark.parametrize("option, names", [("--families", "uncorrelated,"),
                                           ("--properties", "P1,"),
                                           ("--families", ""), ("--properties", "")])
def test_an_empty_certify_name_is_quoted(option, names, capsys):
    """A trailing comma names the empty string, which the message shows; an
    empty list is that one empty name, not the default list."""
    assert run(["certify", option, names, "--trials", "1"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: unknown {option[2:]}: ''\n"


@pytest.mark.parametrize("command", ["sot", "bayes", "certify"])
def test_an_unwritable_output_is_a_validation_error(command, fixtures, capsys):
    out = str(fixtures["dir"] / "missing" / "out.json")
    args = (["certify", "--trials", "1", "--families", "uncorrelated", "--properties", "P1",
             "--format", "json", "-o", out] if command == "certify"
            else [command, "--family", "leifer-spekkens", fixtures["channel"],
                  fixtures["state"], out])
    assert run(args) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot write {out}")
    assert err.count("\n") == 1 and "Traceback" not in err
    with pytest.raises(ValidationError, match="cannot write"):
        io.dump({}, out)


def test_certify_table_goes_to_the_output_file(fixtures, capsys):
    """Without --format json, -o FILE receives the text table and its notes."""
    args = ["certify", "--families", "ohya", "--properties", "P1,P7", "--trials", "3"]
    assert run(args) == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert "note [ohya P7]" in printed
    out = fixtures["dir"] / "table.txt"
    assert run(args + ["-o", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed
    missing = str(fixtures["dir"] / "missing" / "table.txt")
    assert run(args + ["-o", missing]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot write {missing}")
    assert err.count("\n") == 1 and "Traceback" not in err


# ------------------------------------------------------------------ schemas
def test_outputs_validate_against_shipped_schemas_by_id(fixtures, capsys):
    """Every shipped schema is registered under its own $id, so the $refs
    between them must resolve relative to that id."""
    from importlib import resources

    import jsonschema
    from referencing import Registry, Resource
    schemas = {path.name.removesuffix(".schema.json"): json.loads(path.read_text())
               for path in resources.files("qsot.schemas").iterdir()
               if path.name.endswith(".schema.json")}
    registry = Registry().with_resources(
        (schema["$id"], Resource.from_contents(schema)) for schema in schemas.values())
    # (schema, command): the uncorrelated bayes run is the generic fallback,
    # the only output that carries ``uniqueness``
    runs = [("sot_result", ["sot", "--family", "t-rotated", "--t", "0.2"]),
            ("bayes_solution", ["bayes", "--family", "rs", "--r", "0.3", "--s", "0.7"]),
            ("bayes_solution", ["bayes", "--family", "uncorrelated"])]
    docs = []
    for i, (kind, args) in enumerate(runs):
        out = str(fixtures["dir"] / f"{kind}-{i}.json")
        assert run([*args, fixtures["channel"], fixtures["state"], out]) == cli.EXIT_OK
        docs.append((kind, json.loads(open(out).read())))
    assert "uniqueness" in docs[-1][1]
    out = str(fixtures["dir"] / "certify.json")
    assert run(["certify", "--families", "uncorrelated", "--properties", "P1,P7",
                "--trials", "4", "--format", "json", "-o", out]) == cli.EXIT_OK
    docs.append(("certify_report", json.loads(open(out).read())))
    assert any("witness" in cell for cell in docs[-1][1]["cells"])
    for kind, doc in docs:
        jsonschema.Draft202012Validator(schemas[kind], registry=registry).validate(doc)
    family_schema = schemas["sot_family"]["properties"]
    assert set(family_schema["tag"]["enum"]) == set(sot.FAMILIES)
    assert set(family_schema["theta"]["enum"]) == set(sot.THETA_RECIPES)


# ----------------------------------------------------------------- scenario
def scenario_doc_pem(rng):
    shape = alg.matrix_algebra(2)
    prep = maps.ensemble([sampling.random_state(shape, rng) for _ in range(2)])
    evo = sampling.random_cptp(shape, alg.matrix_algebra(2, "q1"), rng)
    meas = sampling.random_povm(evo.target, 2, rng)
    return {"kind": "scenario", "name": "pem", "schema_version": 1,
            "p": [0.4, 0.6],
            "prep": io.serialize_map(prep), "evo": io.serialize_map(evo),
            "meas": io.serialize_map(meas)}


def test_scenario_pem_passes(tmp_path, capsys):
    doc = scenario_doc_pem(rng_for("cli-pem"))
    path = tmp_path / "pem.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "report.json")
    code = run(["scenario", "pem", str(path), "-o", out])
    assert code == cli.EXIT_OK
    report = json.loads(open(out).read())
    assert report["passed"]
    assert report["residuals"]["classical_inverse"] < 1e-9


def scenario_doc_pem_rare_outcome(strict: bool) -> dict:
    """p = (½, ½), evo the identity on M2 and effects {1 − εP, εP} with
    ε = 1e-11 and P = |0⟩⟨0|: the second outcome has q = ε·0.552 = 5.52e-12."""
    shape = alg.matrix_algebra(2)
    states = [np.array([[0.7, 0.1], [0.1, 0.3]]), np.diag([0.404, 0.596])]
    prep = maps.ensemble([AlgebraElement(shape, (m,)) for m in states])
    rare = np.diag([1e-11, 0.0])
    return {"kind": "scenario", "name": "pem", "schema_version": 1, "p": [0.5, 0.5],
            "prep": io.serialize_map(prep), "evo": io.serialize_map(maps.identity_map(shape)),
            "meas": io.serialize_map(maps.povm([np.eye(2) - rare, rare])), "strict": strict}


@pytest.mark.parametrize("strict", [True, False])
def test_scenario_pem_outcome_off_sigmas_support_is_dead(strict, tmp_path, capsys):
    """The reverse measurement drops an outcome off the support of q, so the
    scenario does too: strict refuses it with one line, and without strict
    it is excluded with a notice and the checks pass."""
    path, out = tmp_path / "pem.json", str(tmp_path / "report.json")
    path.write_text(json.dumps(scenario_doc_pem_rare_outcome(strict)))
    code = run(["scenario", "pem", str(path), "-o", out])
    err = capsys.readouterr().err
    if strict:
        assert code == cli.EXIT_NUMERICAL
        assert err == "numerical error: outcome y1 has probability at or below 1e-10\n"
        return
    assert code == cli.EXIT_OK
    residuals = json.loads(open(out).read())["residuals"]
    assert residuals["notices"] == ["outcome y1 excluded (probability 5.52e-12)"]
    assert residuals["classical_inverse"] < ATOL


def test_scenario_two_state_weak_value(tmp_path, capsys):
    root_half = 1.0 / np.sqrt(2.0)
    plus = [[0.5, 0.5], [0.5, 0.5]]
    minus = [[0.5, -0.5], [-0.5, 0.5]]
    doc = {"kind": "scenario", "name": "two-state", "schema_version": 1,
           "psi": [[1.0, 0.0], [0.0, 0.0]],
           "effects": [plus, minus],
           "observable": [[0.0, 1.0], [1.0, 0.0]]}
    path = tmp_path / "ts.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "report.json")
    assert run(["scenario", "two-state", str(path), "-o", out]) == cli.EXIT_OK
    report = json.loads(open(out).read())
    entry = report["entries"][0]
    np.testing.assert_allclose(entry["weak_value"], [1.0, 0.0], atol=1e-10)


def scenario_doc_correlator(rng):
    shape = alg.matrix_algebra(2)
    return {"kind": "scenario", "name": "correlator", "schema_version": 1,
            "t": 0.0,
            "rho": io.serialize_element(sampling.random_state(shape, rng), "state"),
            "h": io.serialize_element(sampling.random_hermitian(shape, rng)),
            "a": io.serialize_element(sampling.random_hermitian(shape, rng)),
            "b": io.serialize_element(sampling.random_hermitian(shape, rng))}


def scenario_doc_jeffrey(rng):
    shape = alg.matrix_algebra(2)
    half = io.serialize_map(0.5 * maps.identity_map(shape))
    return {"kind": "scenario", "name": "jeffrey", "schema_version": 1,
            "sigma": io.serialize_element(sampling.random_state(shape, rng), "state"),
            "cp_parts": [half, half], "r": [0.5, 0.5]}


def test_scenario_correlator_equal_time(tmp_path, capsys):
    doc = scenario_doc_correlator(rng_for("cli-correlator"))
    path = tmp_path / "corr.json"
    path.write_text(json.dumps(doc))
    assert run(["scenario", "correlator", str(path)]) == cli.EXIT_OK


def test_scenario_missing_field_is_parse_error(tmp_path, capsys):
    doc = {"kind": "scenario", "name": "correlator", "schema_version": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["scenario", "correlator", str(path)]) == cli.EXIT_PARSE


@pytest.mark.parametrize("name, field, value", [
    ("pem", "p", ["x", 0.5, 0.5]), ("pem", "p", 3),
    ("correlator", "t", "soon"), ("jeffrey", "r", ["a"]),
    pytest.param("correlator", "t", 10 ** 400, id="correlator-t-beyond-float"),
    ("pem", "strict", "false")])
def test_scenario_bad_numbers_are_parse_errors(name, field, value, tmp_path, capsys):
    docs = {"pem": scenario_doc_pem, "correlator": scenario_doc_correlator,
            "jeffrey": scenario_doc_jeffrey}
    doc = docs[name](rng_for(f"cli-bad-{name}"))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert run(["scenario", name, str(path)]) == cli.EXIT_OK  # the document is sound
    doc[field] = value
    path.write_text(json.dumps(doc))
    assert run(["scenario", name, str(path)]) == cli.EXIT_PARSE
    assert f"parse error: {field} must be" in capsys.readouterr().err


def scenario_doc_state_update(rng):
    doc = scenario_doc_jeffrey(rng)
    del doc["r"]
    return dict(doc, name="state-update")


def scenario_doc_two_state(rng):
    return {"kind": "scenario", "name": "two-state", "schema_version": 1,
            "psi": [[1.0, 0.0], [0.0, 0.0]],
            "effects": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]]}


def scenario_doc_linearization(rng):
    shape = alg.matrix_algebra(3)
    e = sampling.random_cptp(shape, alg.matrix_algebra(3, "q1"), rng)
    return {"kind": "scenario", "name": "ls-linearization", "schema_version": 1,
            "channel": io.serialize_map(e),
            "direction": io.serialize_element(random_traceless_direction(shape, rng)),
            "epsilons": [1e-2, 5e-3]}


@pytest.mark.parametrize("name, field, value", [
    ("state-update", "family", {"tag": "theta", "theta": ["ls"]}),
    ("state-update", "family", 3), ("state-update", "family", ["ls"]),
    ("state-update", "family", {"tag": "t-rotated", "t": True}),
    ("state-update", "cp_parts", 3),
    ("two-state", "effects", 3), ("two-state", "effects", []),
    ("two-state", "psi", 3), ("ls-linearization", "epsilons", [])])
def test_scenario_malformed_fields_are_parse_errors(name, field, value, tmp_path, capsys):
    docs = {"state-update": scenario_doc_state_update, "two-state": scenario_doc_two_state,
            "ls-linearization": scenario_doc_linearization}
    doc = docs[name](rng_for(f"cli-malformed-{name}"))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert run(["scenario", name, str(path)]) == cli.EXIT_OK  # the document is sound
    doc[field] = value
    path.write_text(json.dumps(doc))
    assert run(["scenario", name, str(path)]) == cli.EXIT_PARSE
    assert "parse error: " in capsys.readouterr().err


def test_scenario_family_with_a_negative_group_tol_is_validation(tmp_path, capsys):
    doc = dict(scenario_doc_state_update(rng_for("cli-ohya-group-tol")),
               family={"tag": "ohya", "group_tol": -1})
    path = tmp_path / "update.json"
    path.write_text(json.dumps(doc))
    assert run(["scenario", "state-update", str(path)]) == cli.EXIT_VALIDATION
    assert "validation error: OhyaCompound needs group_tol >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("psi", [1.0], "psi has 1 entries"), ("psi", [1.0, 0.0, 0.0], "psi has 3 entries"),
    ("u10", np.eye(3).tolist(), "u10 is (3, 3)"), ("psi", [0.0, 0.0], "psi must be nonzero")])
def test_scenario_two_state_bad_sizes_are_validation(field, value, message, tmp_path, capsys):
    doc = dict(scenario_doc_two_state(rng_for("cli-two-state-sizes")), **{field: value})
    path = tmp_path / "ts.json"
    path.write_text(json.dumps(doc))
    assert run(["scenario", "two-state", str(path)]) == cli.EXIT_VALIDATION
    assert f"validation error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("u10", [[float("nan"), 0.0], [0.0, 1.0]]), ("u21", [[1.0, 0.0], [0.0, float("inf")]]),
    ("effects", [[[float("nan"), 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]),
    ("psi", [float("nan"), 0.0]), ("psi", [[float("-inf"), 0.0], 0.0])])
def test_scenario_two_state_non_finite_numbers_are_parse_errors(field, value, tmp_path, capsys):
    """JSON has no NaN or Infinity, though Python's reader takes them; these
    exited 2 with a message about trace preservation or hermiticity."""
    path = tmp_path / "ts.json"
    path.write_text(json.dumps(dict(scenario_doc_two_state(None), **{field: value})))
    assert run(["scenario", "two-state", str(path)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("parse error: ")


@pytest.mark.parametrize("field, value, message", [
    ("u10", [[1e308, 0.0], [0.0, 1.0]], "unitary_channel needs unitary blocks"),
    ("u21", [[[1e308, 1e308], 0.0], [0.0, 1.0]], "unitary_channel needs unitary blocks"),
    ("effects", [[[1e308, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
     "POVM effects must sum to the identity"),
    ("psi", [1e308, 1e308], "psi must be nonzero, with a norm within float range")])
def test_scenario_two_state_overflowing_numbers_are_one_validation_error(field, value, message,
                                                                         tmp_path, capsys):
    """Numbers near the float range's edge overflow the input checks: each
    is refused with one line, and numpy's warnings add none."""
    path = tmp_path / "ts.json"
    path.write_text(json.dumps(dict(scenario_doc_two_state(None), **{field: value})))
    assert run(["scenario", "two-state", str(path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {message}\n"


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_a_non_finite_matrix_entry_is_a_parse_error(text, fixtures, capsys):
    doc = io.serialize_element(fixtures["rho"], "state")
    doc["blocks"]["a"][0][0][1] = "NUMBER"
    path = fixtures["dir"] / "state.json"
    path.write_text(json.dumps(doc).replace('"NUMBER"', text))
    assert run(["sot", "--family", "symmetric-bloom", fixtures["channel"], str(path)]) == (
        cli.EXIT_PARSE)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("parse error: expected a number")


def test_scenario_correlator_operator_on_another_shape_is_validation(tmp_path, capsys):
    rng = rng_for("cli-correlator-shapes")
    doc = scenario_doc_correlator(rng)
    doc["b"] = io.serialize_element(sampling.random_hermitian(alg.matrix_algebra(3), rng))
    path = tmp_path / "corr.json"
    path.write_text(json.dumps(doc))
    assert run(["scenario", "correlator", str(path)]) == cli.EXIT_VALIDATION
    assert "validation error: B does not live on the state's shape" in capsys.readouterr().err


def test_scenario_name_mismatch_is_validation(tmp_path, capsys):
    doc = scenario_doc_pem(rng_for("cli-mismatch"))
    path = tmp_path / "pem.json"
    path.write_text(json.dumps(doc))
    assert run(["scenario", "correlator", str(path)]) == cli.EXIT_VALIDATION


QUBIT = alg.matrix_algebra(2)
A_STATE = io.serialize_element(0.5 * alg.identity(QUBIT), "state")
A_CHANNEL = io.serialize_map(maps.identity_map(QUBIT))


@pytest.mark.parametrize("name, field, value, code, message", [
    ("correlator", "h", {"kind": []}, cli.EXIT_PARSE, "unknown document kind []"),
    ("pem", "kind", {}, cli.EXIT_PARSE, "unknown document kind {}"),
    ("correlator", "h", A_CHANNEL, cli.EXIT_VALIDATION,
     "scenario field 'h' does not contain an element document"),
    ("correlator", "a", {"kind": "scenario", "name": "pem"}, cli.EXIT_VALIDATION,
     "scenario field 'a' does not contain an element document"),
    ("pem", "prep", A_STATE, cli.EXIT_VALIDATION,
     "scenario field 'prep' does not contain a channel document"),
    ("state-update", "sigma", A_CHANNEL, cli.EXIT_VALIDATION,
     "scenario field 'sigma' does not contain an element document"),
    ("jeffrey", "cp_parts", [A_CHANNEL, A_STATE], cli.EXIT_VALIDATION,
     "scenario field 'cp_parts[1]' does not contain a channel document"),
    ("two-state", "observable", [[[1.0, 0.0]]], cli.EXIT_VALIDATION,
     "observable is (1, 1), expected (2, 2)")])
def test_a_nested_document_of_the_wrong_kind_or_size_is_one_error(name, field, value, code,
                                                                   message, tmp_path, capsys):
    """Each of these ended in an internal error (exit 5) with a traceback."""
    docs = {"pem": scenario_doc_pem, "correlator": scenario_doc_correlator,
            "state-update": scenario_doc_state_update, "jeffrey": scenario_doc_jeffrey,
            "two-state": scenario_doc_two_state}
    doc = docs[name](rng_for(f"cli-wrong-kind-{name}"))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(doc, observable=[[0.0, 1.0], [1.0, 0.0]])
                               if name == "two-state" else doc))
    assert run(["scenario", name, str(path)]) == cli.EXIT_OK  # the document is sound
    capsys.readouterr()
    path.write_text(json.dumps(dict(doc, **{field: value})))
    assert run(["scenario", name, str(path)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize("name", ["jeffrey", "state-update"])
def test_scenario_parts_that_are_not_an_instrument_are_validation(name, tmp_path, capsys):
    """0.5·id and 0.7·id sum to 1.2·id; jeffrey reported "all checks
    passed" on them (exit 0)."""
    doc = scenario_doc_jeffrey(rng_for("cli-not-an-instrument"))
    doc["cp_parts"] = [io.serialize_map(w * maps.identity_map(QUBIT)) for w in (0.5, 0.7)]
    if name == "state-update":
        doc = dict(doc, name=name)
        del doc["r"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert run(["scenario", name, str(path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "validation error: the sum of instrument parts must be trace-preserving\n")


# ------------------------------------------------------------ console script
def _console_script_target(name: str) -> str:
    """The `module:attr` target that `[project.scripts]` declares for name."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def _child_env() -> dict:
    """The caller's environment, importing the same qsot as this process and
    with no stray QSOT_SEED."""
    env = dict(os.environ)
    env.pop("QSOT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


def test_console_script_entry_point(fixtures):
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "qsot.cli"], capture_output=True, text=True,
        env=env)
    assert proc.returncode == 2  # argparse: missing subcommand
    # the package must not import qsot.cli before runpy executes it
    assert "RuntimeWarning" not in proc.stderr
    # run the declared target as the installer-generated `qsot` script does
    module, _, attr = _console_script_target("qsot").partition(":")
    wrapper = (f"import sys\nfrom {module} import {attr}\n"
               f"sys.argv[0] = 'qsot'\nsys.exit({attr}())")

    def qsot(*args):
        return subprocess.run([sys.executable, "-c", wrapper, *args],
                              capture_output=True, text=True, env=env)

    proc = qsot("bayes", "--family", "leifer-spekkens",
                fixtures["channel"], fixtures["state"])
    assert proc.returncode == 0
    assert "residual" in proc.stderr
    # the exit status is the target's return value: one that returned None
    # would exit 0 here
    proc = qsot("sot", "--family", "nope", fixtures["channel"], fixtures["state"])
    assert proc.returncode == cli.EXIT_PARSE

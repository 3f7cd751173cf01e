"""The exit-code contract under mutated documents: real channel, state and
scenario documents with one or two leaves replaced or deleted, each run
through ``cli.main`` in-process, exit 0, 2, 3 or 4 with one stderr line and
no warning."""
import contextlib
import copy
import io as stdio
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsot import algebra as alg, cli, io, maps, sampling
from qsot.algebra import AlgebraElement

from conftest import random_traceless_direction, rng_for

# What a leaf becomes: JSON values of every type, numbers at the float
# range's edges, and containers shaped like the ones documents hold.
ALPHABET = (None, True, False, 0, -1, 3, 0.5, -0.0, 1e308, -1e308, 1e-320,
            10 ** 400, "", "x", [], {}, [0.5, 0.5], [[[1.0, 0.0]]],
            float("nan"), float("inf"))


def _documents() -> dict[str, dict]:
    """A channel, a state and one document of each scenario, from seeded
    samplers."""
    rng = rng_for("fuzz-documents")
    shape, out = alg.matrix_algebra(2, "a"), alg.matrix_algebra(2, "b")
    docs = {"channel": io.serialize_map(sampling.random_cptp(shape, out, rng)),
            "state": io.serialize_element(sampling.random_state(shape, rng), "state")}
    prep = maps.ensemble([sampling.random_state(shape, rng) for _ in range(2)])
    evo = sampling.random_cptp(shape, out, rng)
    scenarios = {"pem": {"p": [0.4, 0.6], "prep": io.serialize_map(prep),
                         "evo": io.serialize_map(evo),
                         "meas": io.serialize_map(sampling.random_povm(out, 2, rng))}}
    channel = sampling.random_cptp(shape, shape.tensor(alg.classical_algebra(2)), rng)
    parts = [io.serialize_map(maps.from_action(
        shape, shape, lambda x, label=label: AlgebraElement(shape, (channel(x).block(label),))))
        for label in channel.target.labels]
    sigma = io.serialize_element(sampling.random_state(shape, rng), "state")
    scenarios["state-update"] = {"sigma": sigma, "cp_parts": parts, "family": "leifer-spekkens"}
    scenarios["jeffrey"] = {"sigma": sigma, "cp_parts": parts, "r": [0.3, 0.7]}
    basis = sampling.random_unitary(rng, 2)
    scenarios["two-state"] = {
        "psi": [io.serialize_complex(z) for z in sampling.ginibre(rng, 2, 1)[:, 0]],
        "effects": [io.serialize_matrix(np.outer(basis[:, k], basis[:, k].conj()))
                    for k in range(2)],
        "u10": io.serialize_matrix(sampling.random_unitary(rng, 2)),
        "u21": io.serialize_matrix(sampling.random_unitary(rng, 2)),
        "observable": io.serialize_matrix(sampling.random_hermitian(shape, rng).data[0])}
    scenarios["correlator"] = {
        "t": 0.4, "rho": io.serialize_element(sampling.random_state(shape, rng), "state"),
        **{key: io.serialize_element(sampling.random_hermitian(shape, rng))
           for key in ("h", "a", "b")}}
    qutrit = alg.matrix_algebra(3)
    scenarios["ls-linearization"] = {
        "channel": io.serialize_map(sampling.random_cptp(qutrit, qutrit, rng)),
        "direction": io.serialize_element(random_traceless_direction(qutrit, rng)),
        "epsilons": [1e-2, 5e-3]}
    for name, doc in scenarios.items():
        docs[name] = {"kind": "scenario", "name": name, "schema_version": 1, **doc}
    return docs


DOCUMENTS = _documents()
# (mutated document, command line); CHANNEL and STATE stand for the files
FAMILY = ["--family", "symmetric-bloom"]
RUNS = ([(doc, [command, *FAMILY, *flags, "CHANNEL", "STATE"])
         for doc in ("channel", "state")
         for command, flags in (("sot", []), ("bayes", ["--verify"]))]
        + [(name, ["scenario", name, name.upper()])
           for name in DOCUMENTS if name not in ("channel", "state")])


def _leaves(value, path=()):
    """The paths of the values in a document that are not non-empty
    containers."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    if not items:
        yield path
    for key, item in items:
        yield from _leaves(item, (*path, key))


@st.composite
def mutated_runs(draw):
    """A run with its document's one or two leaves replaced or deleted."""
    name, argv = draw(st.sampled_from(RUNS))
    doc = copy.deepcopy(DOCUMENTS[name])
    for _ in range(draw(st.integers(1, 2))):
        *path, last = draw(st.sampled_from(list(_leaves(doc))))
        parent = doc
        for key in path:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = copy.deepcopy(draw(st.sampled_from(ALPHABET)))
    return name, doc, argv


def run_mutated(directory, name: str, doc: dict, argv: list[str]) -> tuple[int, str, list]:
    """Exit code, stderr and the warnings of ``cli.main`` on the run with
    ``doc`` in place of the document ``name``."""
    files = {}
    for key, document in (("channel", DOCUMENTS["channel"]), ("state", DOCUMENTS["state"]),
                          (name, doc)):
        files[key.upper()] = path = str(directory / f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stdio.StringIO()) as err, \
            contextlib.redirect_stdout(stdio.StringIO()):
        warnings.simplefilter("always")
        code = cli.main([files.get(arg, arg) for arg in argv])
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_the_unmutated_documents_pass(directory):
    for name, argv in RUNS:
        code, err, caught = run_mutated(directory, name, DOCUMENTS[name], argv)
        assert code == cli.EXIT_OK and len(err.splitlines()) == 1 and not caught, argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(run=mutated_runs())
def test_a_mutated_document_exits_with_a_documented_code_and_one_line(run, directory):
    name, doc, argv = run
    code, err, caught = run_mutated(directory, name, doc, argv)
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_PARSE, cli.EXIT_NUMERICAL), err
    assert len(err.splitlines()) == 1 and not caught, (err, caught)


@pytest.mark.parametrize("epsilons", [[0.0], [1e-2, 0.0], [5e-324]])
def test_a_zero_step_is_one_validation_error(epsilons, directory):
    """Steps the mutations above never reach: a zero step, and 5e-324,
    whose half rounds to 0.  Each ended in "internal error: float division
    by zero" (exit 5)."""
    doc = dict(DOCUMENTS["ls-linearization"], epsilons=epsilons)
    code, err, caught = run_mutated(directory, "ls-linearization", doc,
                                    ["scenario", "ls-linearization", "LS-LINEARIZATION"])
    assert code == cli.EXIT_VALIDATION and not caught
    assert err == "validation error: each step and its half must be nonzero\n"

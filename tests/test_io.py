"""JSON document round-trips, wire-format conventions, schema validation,
and parse/validation error classification."""
import copy
import io as stdio
import json
import pickle

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsot import algebra as alg, axioms, bayes, io, maps, sampling, sot
from qsot.algebra import AlgebraShape
from qsot.errors import ConstraintError, ParseError, ShapeMismatchError, ValidationError

from conftest import rng_for


def referencing_validator(name: str):
    """A validator for a shipped schema with the shared defs resolvable."""
    from referencing import Registry, Resource
    defs = Resource.from_contents(io.load_schema("defs"))
    registry = Registry().with_resource("qsot/defs.schema.json", defs)
    schema = io.load_schema(name)
    return jsonschema.Draft202012Validator(schema, registry=registry)


# ------------------------------------------------------------- primitives
def test_complex_wire_format():
    assert io.serialize_complex(1.5 - 2.0j) == [1.5, -2.0]
    assert io.parse_complex([1.5, -2.0]) == 1.5 - 2.0j
    assert io.parse_complex(3) == 3.0 + 0.0j
    with pytest.raises(ParseError):
        io.parse_complex("nope")
    with pytest.raises(ParseError):
        io.parse_complex([1.0])
    for beyond_float in (10 ** 400, [0.5, -10 ** 400]):
        with pytest.raises(ParseError, match="out of float range"):
            io.parse_complex(beyond_float)


SHAPE_SCHEMA = jsonschema.Draft202012Validator(io.load_schema("defs")["$defs"]["shape"])


@pytest.mark.parametrize("dim", ["x", "2", 2.5, True, None, [2]])
def test_shape_dim_the_schema_rejects_is_a_parse_error(dim):
    payload = [{"label": "a", "dim": dim}]
    assert not SHAPE_SCHEMA.is_valid(payload)
    with pytest.raises(ParseError):
        io.parse_shape(payload)


@pytest.mark.parametrize("label", [3, None])
def test_shape_label_the_schema_rejects_is_a_parse_error(label):
    payload = [{"label": label, "dim": 2}]
    assert not SHAPE_SCHEMA.is_valid(payload)
    with pytest.raises(ParseError, match="label must be a string"):
        io.parse_shape(payload)


def test_shape_dim_integers_parse_and_small_dims_stay_validation_errors():
    for dim in (2, 2.0):
        payload = [{"label": "a", "dim": dim}]
        assert SHAPE_SCHEMA.is_valid(payload)
        assert io.parse_shape(payload).dims == (2,)
    for dim in (0, -1):
        with pytest.raises(ShapeMismatchError):
            io.parse_shape([{"label": "a", "dim": dim}])


def test_parse_real_accepts_numbers_only():
    assert io.parse_real(3, "t") == 3.0
    assert io.parse_real([1, 0.5], "p", listed=True) == [1.0, 0.5]
    for value, listed in (("soon", False), (True, False), ([1.0], False), (10 ** 400, False),
                          (3, True), (["a"], True), ([None], True), ([0.5, 10 ** 400], True)):
        with pytest.raises(ParseError):
            io.parse_real(value, "x", listed=listed)


@pytest.mark.parametrize("value", [True, False, [True, False], [1.0, True], [False, 0.5]])
def test_booleans_are_not_numbers(value):
    with pytest.raises(ParseError, match="expected a number or an"):
        io.parse_complex(value)
    with pytest.raises(ParseError, match="expected a number or an"):
        io.parse_matrix([[value]])
    # a float matrix with one boolean leaf leaves the one-conversion path too
    with pytest.raises(ParseError, match="expected a number or an"):
        io.parse_matrix([[[0.5, 0.0], value if isinstance(value, list) else [value, 0.0]]])


def test_matrix_roundtrip_and_shape_errors(rng):
    m = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    np.testing.assert_allclose(io.parse_matrix(io.serialize_matrix(m)), m)
    with pytest.raises(ParseError):
        io.parse_matrix([[1.0, 2.0], [3.0]])
    with pytest.raises(ParseError):
        io.parse_matrix([])
    for rows in ([[[10 ** 400, 0]]], [[[0.5, 0.0], [10 ** 400, 0.0]]], [[10 ** 400]]):
        with pytest.raises(ParseError, match="out of float range"):
            io.parse_matrix(rows)


def test_matrix_serialization_keeps_every_float(rng):
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    m[0, 0], m[1, 1], m[2, 2] = complex(-0.0, 5e-324), complex(np.nan, np.inf), -0.0
    want = [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in m]
    got = io.serialize_matrix(m)
    assert json.dumps(got) == json.dumps(want)
    assert all(type(x) is float for row in got for pair in row for x in pair)
    with pytest.raises(ParseError, match="got \\[nan, inf\\]"):  # JSON has neither
        io.parse_matrix(got)
    m[1, 1] = 0.0
    back = io.parse_matrix(io.serialize_matrix(m))
    assert np.array_equal(back.view(float), m.view(float))
    assert json.dumps(io.serialize_matrix(np.eye(2))) == json.dumps(
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])


def _per_entry(rows):
    """The entry-by-entry reading parse_matrix falls back to."""
    return np.array([[io.parse_complex(v) for v in row] for row in rows], dtype=complex)


def _parsed(parse, rows):
    try:
        return parse(rows)
    except ParseError as exc:
        return str(exc)


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                  float("nan"), float("inf"), float("-inf")])
FLOATS = st.floats() | SPECIAL_FLOATS
# leaves a JSON document can hold, booleans and strings included
LEAVES = (FLOATS | st.integers(-2 ** 60, 2 ** 60) | st.booleans() | st.none()
          | st.text(max_size=2))


def _grids(entries):
    """Lists of equal-length rows of ``entries``."""
    return st.integers(1, 4).flatmap(
        lambda width: st.lists(st.lists(entries, min_size=width, max_size=width),
                               min_size=1, max_size=4))


FLOAT_MATRICES = _grids(st.lists(FLOATS, min_size=2, max_size=2))


@settings(max_examples=300, deadline=None)
@given(FLOAT_MATRICES | _grids(st.lists(FLOATS | LEAVES, min_size=2, max_size=2))
       | _grids(LEAVES | st.lists(LEAVES, max_size=3)))
def test_parse_matrix_in_one_conversion_equals_the_per_entry_reading(rows):
    got, want = _parsed(io.parse_matrix, rows), _parsed(_per_entry, rows)
    if isinstance(want, str):
        assert got == want
    else:  # signed zeros and NaNs compared bit for bit through the float view
        assert got.shape == want.shape
        assert np.array_equal(got.view(float), want.view(float), equal_nan=True)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


@given(FLOAT_MATRICES)
def test_float_matrices_take_the_one_conversion_path(rows):
    assert io._float_pairs(rows) is not None


# --------------------------------------------------------------- the writer
def _written(doc) -> str:
    out = stdio.StringIO()
    io.write_json(doc, out)
    return out.getvalue()


def _json_outcome(write, doc):
    """What ``write`` leaves in a buffer, or the exception it raises."""
    out = stdio.StringIO()
    try:
        write(doc, out)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc), out.getvalue()
    return out.getvalue()


def _json_dump(doc, out):
    json.dump(doc, out, indent=2, sort_keys=True)
    out.write("\n")


NEAR_MATRICES = (_grids(st.lists(FLOATS | st.integers(-5, 5), min_size=2, max_size=2))
                 | st.lists(st.lists(st.lists(FLOATS, min_size=2, max_size=2),
                                     max_size=3), min_size=1, max_size=3)
                 | _grids(st.lists(FLOATS, min_size=1, max_size=3)))
SCALARS = (st.none() | st.booleans() | st.integers() | FLOATS | FLOATS.map(np.float64)
           | st.text())
DOCUMENTS = st.recursive(
    SCALARS | FLOAT_MATRICES | NEAR_MATRICES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_the_writer_writes_the_bytes_of_json_dump(doc):
    assert _written(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_the_writer_on_documents_the_library_writes(rng):
    e = sampling.random_cptp(AlgebraShape([("a", 2), ("x", 1)]), alg.matrix_algebra(2, "b"), rng)
    x = sampling.random_hermitian(e.source.tensor(e.target), rng)
    for doc in (io.serialize_map(e), io.serialize_element(x), io.serialize_family(sot.RSFamily(0.3, 0.7)),
                {"kind": "certify_report", "cells": [{"value": -0.0, "status": "holds"}] * 2}):
        assert _written(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_the_writer_streams_a_matrix_row_by_row(rng):
    chunks = []

    class Sink:
        write = chunks.append

    doc = {"matrix": io.serialize_matrix(rng.normal(size=(40, 40)))}
    io.write_json(doc, Sink())
    whole = "".join(chunks)
    assert whole == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert max(map(len, chunks)) < len(whole) / 20


class Opaque:
    pass


cycle: list = []
cycle.append(cycle)


@pytest.mark.parametrize("doc", [
    {1: [1.0, 2.0], 2.5: None, None: "x", True: 0},  # keys json turns into strings
    {"a": np.int64(3)}, {"a": [[[1.0, 2.0]], Opaque()]}, {"a": {1, 2}},
    {1: 0, "b": 1}, {"a": cycle}, [{"a": {"b": ()}}, {("k",): 1}],
], ids=["non-str keys", "numpy int", "object", "set", "mixed keys", "cycle", "tuple key"])
def test_a_document_json_writes_otherwise_goes_to_json_dump(doc):
    assert _json_outcome(io.write_json, doc) == _json_outcome(_json_dump, doc)


def test_element_roundtrip_on_blocky_shape(rng):
    shape = AlgebraShape([("a", 2), ("b", 1)])
    x = sampling.random_hermitian(shape, rng)
    doc = io.serialize_element(x)
    back = io.parse_document(doc)
    assert (back - x).norm() < 1e-12
    assert doc["schema_version"] == io.SCHEMA_VERSION


def test_tensor_labels_flatten_on_the_wire(rng):
    shape = alg.matrix_algebra(2, "a").tensor(alg.matrix_algebra(2, "b"))
    x = sampling.random_hermitian(shape, rng)
    doc = io.serialize_element(x)
    assert list(doc["blocks"]) == ["a⊗b"]
    back = io.parse_document(doc)  # re-parsed as a flat block-diagonal element
    np.testing.assert_allclose(back.data[0], x.data[0])


def test_state_document_validates_psd(rng):
    shape = alg.matrix_algebra(2)
    doc = io.serialize_element(alg.diagonal_element(shape, [1.5, -0.5]),
                               kind="state")
    with pytest.raises(Exception):
        io.parse_document(doc)


def test_map_roundtrip_and_dimension_check(rng):
    e = sampling.random_cptp(AlgebraShape([("a", 2), ("x", 1)]),
                             alg.matrix_algebra(2, "b"), rng)
    doc = io.serialize_map(e)
    back = io.parse_document(doc)
    assert np.max(np.abs(back.matrix - e.matrix)) < 1e-12
    doc_bad = dict(doc)
    doc_bad["matrix"] = io.serialize_matrix(np.eye(3))
    with pytest.raises(ValidationError):
        io.parse_document(doc_bad)


# ---------------------------------------------------------------- families
@pytest.mark.parametrize("family", [
    sot.Uncorrelated(), sot.OhyaCompound(), sot.LeiferSpekkens(),
    sot.TRotated(0.7), sot.STH(0.2), sot.SymmetricBloom(), sot.RightBloom(),
    sot.LeftBloom(), sot.RSFamily(0.25, 0.5), sot.ThetaDerived(sot.SymmetricBloom()),
], ids=lambda f: f.tag)
def test_family_roundtrip(family):
    back = io.parse_family(io.serialize_family(family))
    assert back == family


def test_theta_family_without_a_recipe_name_is_not_serializable():
    with pytest.raises(ValidationError):
        io.serialize_family(sot.ThetaDerived(sot.RSFamily(0.3, 0.7)))


def test_family_parse_errors():
    with pytest.raises(ParseError):
        io.parse_family({"tag": "nope"})
    with pytest.raises(ParseError):
        io.parse_family({"tag": "rs"})  # missing r, s
    with pytest.raises(ParseError):
        io.parse_family({"tag": "theta", "theta": "unknown"})
    for bad in ({"tag": "t-rotated", "t": "abc"}, {"tag": "ohya", "group_tol": None},
                {"tag": ["rs"]}):
        with pytest.raises(ParseError):
            io.parse_family(bad)
    # a key that is not a parameter of the family
    for bad in ({"tag": "rs", "r": 0.3, "s": 0.5, "t": 1},
                {"tag": "leifer-spekkens", "theta": "right"},
                {"tag": "sth", "t": 0.3, "chooser": "support"},
                {"kind": "sot_family", "tag": "uncorrelated", "params": {}}):
        with pytest.raises(ParseError, match="has no parameter"):
            io.parse_family(bad)


def test_ohya_group_tol_below_zero_or_nan_is_a_constraint_error():
    for bad in (-1, -1e-12):
        with pytest.raises(ConstraintError, match="group_tol"):
            io.parse_family({"tag": "ohya", "group_tol": bad})
    with pytest.raises(ConstraintError, match="group_tol"):
        sot.OhyaCompound(float("nan"))
    with pytest.raises(ParseError, match="group_tol must be a number"):  # not a JSON number
        io.parse_family({"tag": "ohya", "group_tol": float("nan")})
    assert io.parse_family({"tag": "ohya", "group_tol": 0}) == sot.OhyaCompound(0.0)


def test_family_string_shorthand():
    assert io.parse_family("leifer-spekkens") == sot.LeiferSpekkens()


# ---------------------------------------------------------------- documents
def test_loads_reports_json_position():
    with pytest.raises(ParseError) as err:
        io.loads('{"kind": "element",}')
    assert "line 1" in str(err.value)


def test_unknown_kind_rejected():
    with pytest.raises(ParseError):
        io.parse_document({"kind": "mystery"})


def test_dump_load_roundtrip(tmp_path, rng):
    e = sampling.random_cptp(alg.matrix_algebra(2, "a"),
                             alg.matrix_algebra(2, "b"), rng)
    path = tmp_path / "channel.json"
    io.dump(io.serialize_map(e), str(path))
    back = io.load(str(path))
    assert np.max(np.abs(back.matrix - e.matrix)) < 1e-12
    with pytest.raises(ParseError):
        io.load(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("copy_of", (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy),
                         ids=("pickle", "deepcopy"))
def test_library_objects_survive_pickle_and_deepcopy(copy_of, rng):
    # shapes are rebuilt through their constructor; elements and maps, single
    # or stacked, keep read-only arrays; a Θ-derived family's delegation
    # survives the copy
    source = AlgebraShape([("a", 2), ("x", 1)])
    target = alg.matrix_algebra(2, "b")
    element = sampling.random_state(source.tensor(target), rng)
    for a in (element, alg.stack([element, 0.5 * element])):
        back = copy_of(a)
        assert back.shape == a.shape and back.shape.pairs == a.shape.pairs
        assert all(map(np.array_equal, back.data, a.data))
        assert not any(block.flags.writeable for block in back.data)

    e = sampling.random_cptp(source, target, rng)
    for m in (e, maps.stack([e, 0.5 * e])):
        back = copy_of(m)
        assert (back.source, back.target) == (m.source, m.target)
        assert np.array_equal(back.matrix, m.matrix) and not back.matrix.flags.writeable
        assert np.array_equal(back.is_cptp, m.is_cptp)
    with pytest.raises(ShapeMismatchError):  # the checking constructor io builds through
        maps.LinearMap(source, target, maps.stack([e, e]).matrix)

    verdict = axioms.certify(sot.RightBloom(), "P1", axioms.CertifyConfig(trials=20))
    assert verdict.status == "fails"
    assert copy_of(verdict).to_json() == verdict.to_json()

    rho = sampling.random_state(source, rng)
    for theta in (sot.ThetaDerived(sot.LeiferSpekkens()), sot.ThetaDerived(sot.SymmetricBloom())):
        back = copy_of(theta)
        assert back == theta and hasattr(back, "denominator") == hasattr(theta, "denominator")
        assert np.array_equal(bayes.closed_form_bayes(back, e, rho).matrix,
                              bayes.closed_form_bayes(theta, e, rho).matrix)


# ------------------------------------------------------------------ schemas
def test_serialized_documents_validate_against_schemas(rng):
    shape = AlgebraShape([("a", 2), ("b", 1)])
    x = sampling.random_hermitian(shape, rng)
    referencing_validator("element").validate(io.serialize_element(x))
    e = sampling.random_cptp(shape, alg.matrix_algebra(2, "c"), rng)
    referencing_validator("channel").validate(io.serialize_map(e))
    for family in (sot.LeiferSpekkens(), sot.RSFamily(0.3, 0.7),
                   sot.ThetaDerived(sot.LeiferSpekkens())):
        referencing_validator("sot_family").validate(io.serialize_family(family))


def test_schema_rejects_malformed_complex():
    doc = {"kind": "element", "schema_version": 1,
           "shape": [{"label": "a", "dim": 1}],
           "blocks": {"a": [["oops"]]}}
    with pytest.raises(jsonschema.ValidationError):
        referencing_validator("element").validate(doc)


@pytest.mark.parametrize("entry", [[True, False], True, [0.5, False]])
def test_schema_and_parser_both_reject_a_boolean_complex(entry):
    doc = {"kind": "element", "schema_version": 1,
           "shape": [{"label": "a", "dim": 1}],
           "blocks": {"a": [[entry]]}}
    with pytest.raises(jsonschema.ValidationError):
        referencing_validator("element").validate(doc)
    with pytest.raises(ParseError):
        io.parse_document(doc)

"""JSON documents for shapes, elements, maps, families, and scenarios.

Wire conventions: complex numbers are ``[re, im]`` pairs; matrices are nested
row lists of such pairs; block labels are flat strings (tensor-product labels
are flattened with "⊗", so a re-parsed document is a plain block-diagonal
object without the in-memory tensor factorization).  Superoperator matrices
are indexed by matrix units ordered lexicographically by (block label, row,
column), row-major within each block — identical to the in-memory ordering,
so matrices ship verbatim.  Every document carries ``schema_version``.
"""
from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from importlib import resources
from typing import Any, Iterator, TextIO

import numpy as np

from . import algebra as alg, sot
from .algebra import AlgebraElement, AlgebraShape
from .errors import ParseError, ValidationError
from .maps import LinearMap

SCHEMA_VERSION = 1


# ----------------------------------------------------------------- primitives
def serialize_complex(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def parse_complex(v: Any) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    raise ParseError(f"expected a number or an [re, im] pair, got {v!r}")


def parse_real(v: Any, what: str, listed: bool = False) -> float | list[float]:
    """A JSON number as a float, or with ``listed`` a JSON list of them."""
    if listed and isinstance(v, list):
        return [parse_real(x, what) for x in v]
    if listed or isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{what} must be {'a list of numbers' if listed else 'a number'}, "
                         f"got {v!r}")
    return float(v)


def serialize_matrix(m: np.ndarray) -> list:
    return [[serialize_complex(z) for z in row] for row in np.asarray(m)]


def parse_matrix(rows: Any) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError("matrix must be a non-empty list of rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("matrix rows have inconsistent lengths")
    return np.array([[parse_complex(v) for v in row] for row in rows], dtype=complex)


def serialize_shape(shape: AlgebraShape) -> list[dict]:
    return [{"label": alg.label_text(label), "dim": dim}
            for label, dim in shape.blocks]


def parse_shape(payload: Any) -> AlgebraShape:
    if not isinstance(payload, list) or not payload:
        raise ParseError("shape must be a non-empty list of {label, dim} blocks")
    blocks = []
    for entry in payload:
        try:
            label, dim = entry["label"], entry["dim"]
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad shape block {entry!r}") from exc
        if not isinstance(label, str):
            raise ParseError(f"shape block label must be a string, got {label!r}")
        # the schema's integer: an int, or a float with no fractional part
        if isinstance(dim, bool) or not (isinstance(dim, int)
                                         or isinstance(dim, float) and dim.is_integer()):
            raise ParseError(f"shape block dim must be an integer, got {dim!r}")
        blocks.append((label, int(dim)))
    return AlgebraShape(blocks)


# ------------------------------------------------------------------- elements
def serialize_element(a: AlgebraElement, kind: str = "element") -> dict:
    return {"kind": kind, "schema_version": SCHEMA_VERSION,
            "shape": serialize_shape(a.shape),
            "blocks": {alg.label_text(label): serialize_matrix(mat)
                       for label, mat in zip(a.shape.labels, a.data)}}


def parse_element(doc: dict) -> AlgebraElement:
    shape = parse_shape(doc.get("shape"))
    blocks = doc.get("blocks")
    if not isinstance(blocks, dict):
        raise ParseError("element document needs a blocks mapping")
    mats = []
    for label, dim in shape.blocks:
        key = alg.label_text(label)
        if key not in blocks:
            raise ParseError(f"missing block {key!r}")
        mat = parse_matrix(blocks[key])
        if mat.shape != (dim, dim):
            raise ValidationError(f"block {key!r} is {mat.shape}, expected {(dim, dim)}")
        mats.append(mat)
    return AlgebraElement(shape, tuple(mats))


# ----------------------------------------------------------------------- maps
def serialize_map(e: LinearMap, kind: str = "channel") -> dict:
    return {"kind": kind, "schema_version": SCHEMA_VERSION,
            "source": serialize_shape(e.source), "target": serialize_shape(e.target),
            "matrix": serialize_matrix(e.matrix)}


def parse_map(doc: dict) -> LinearMap:
    source = parse_shape(doc.get("source"))
    target = parse_shape(doc.get("target"))
    matrix = parse_matrix(doc.get("matrix"))
    if matrix.shape != (target.vector_dim, source.vector_dim):
        raise ValidationError(
            f"matrix is {matrix.shape}, expected "
            f"{(target.vector_dim, source.vector_dim)} for these shapes")
    return LinearMap(source, target, matrix)


# ------------------------------------------------------------------- families
def _parameters(family) -> list[dataclasses.Field]:
    """The constructor fields that travel on the wire (callables such as the
    STH chooser are compare=False and stay behind)."""
    return [f for f in dataclasses.fields(family) if f.init and f.compare]


def serialize_family(family: sot.SotFamily) -> dict:
    doc: dict = {"kind": "sot_family", "schema_version": SCHEMA_VERSION,
                 "tag": family.tag}
    for f in _parameters(family):
        doc[f.name] = getattr(family, f.name)
    if "theta" in doc:
        recipes = {cls(): name for name, cls in sot.THETA_RECIPES.items()}
        if doc["theta"] not in recipes:
            raise ValidationError(
                f"state-rendering recipe {doc['theta']!r} is not serializable")
        doc["theta"] = recipes[doc["theta"]]
    return doc


def parse_family(doc: dict | str) -> sot.SotFamily:
    if isinstance(doc, str):
        doc = {"tag": doc}
    if not isinstance(doc, dict):
        raise ParseError(f"a family must be a tag or an object, got {doc!r}")
    tag = doc.get("tag")
    cls = sot.FAMILIES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ParseError(f"unknown family tag {tag!r}")
    params = _parameters(cls)
    unknown = sorted(set(doc) - {"kind", "schema_version", "tag"} - {f.name for f in params})
    if unknown:
        raise ParseError(f"{tag} family has no parameter {', '.join(unknown)}")
    kwargs = {}
    for f in params:
        if f.name == "theta":
            name = doc.get("theta")
            if not isinstance(name, str) or name not in sot.THETA_RECIPES:
                raise ParseError(f"unknown state-rendering recipe {name!r}")
            kwargs["theta"] = sot.THETA_RECIPES[name]()
        elif f.name in doc:
            kwargs[f.name] = parse_real(doc[f.name], f"{tag} family parameter {f.name}")
        elif f.default is dataclasses.MISSING:
            raise ParseError(f"{tag} family needs {f.name}")
    return cls(**kwargs)


# ------------------------------------------------------------------ documents
_PARSERS = {"shape": lambda d: parse_shape(d.get("shape")),
            "element": parse_element, "state": parse_element,
            "channel": parse_map, "map": parse_map,
            "sot_family": parse_family}


def parse_document(doc: dict):
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    kind = doc.get("kind")
    if kind == "scenario":
        return doc  # interpreted by the scenario runner
    if kind not in _PARSERS:
        raise ParseError(f"unknown document kind {kind!r}")
    value = _PARSERS[kind](doc)
    if kind == "state":
        alg.assert_state(value)
    return value


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    return parse_document(doc)


def load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads(text)


@contextmanager
def _writing(path: str) -> Iterator[TextIO]:
    """``path`` open for writing; a path that cannot be written is a
    ValidationError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def dump(doc: dict, path: str) -> None:
    with _writing(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_text(text: str, path: str) -> None:
    with _writing(path) as fh:
        fh.write(text)


def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schemas by bare name (e.g. 'element')."""
    text = resources.files("qsot.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)

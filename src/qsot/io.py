"""JSON documents for shapes, elements, maps, families, and scenarios.

Wire conventions: complex numbers are ``[re, im]`` pairs; matrices are nested
row lists of such pairs; block labels are flat strings (tensor-product labels
are flattened with "⊗", so a re-parsed document is a plain block-diagonal
object without the in-memory tensor factorization).  Superoperator matrices
are indexed by matrix units ordered lexicographically by (block label, row,
column), row-major within each block — identical to the in-memory ordering,
so matrices ship verbatim.  Every document carries ``schema_version``.

Matrices convert as wholes: ``serialize_matrix`` reads the real and imaginary
planes out with ``tolist``, ``parse_matrix`` turns a matrix of float pairs
into one float64 array viewed as complex, and ``write_json`` streams a
document with the bytes of ``json.dump(doc, fh, indent=2, sort_keys=True)``,
writing each matrix row from its floats' reprs; a value ``json`` cannot
write, or a key that is not a str, raises a TypeError.
"""
from __future__ import annotations

import dataclasses
import json
import math
from contextlib import contextmanager
from importlib import resources
from itertools import chain
from json.encoder import encode_basestring_ascii
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


def _is_number(v: Any) -> bool:
    """A JSON number: an int or a finite float, not a boolean (``json``
    reads NaN and ±Infinity, which JSON does not have)."""
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


def parse_complex(v: Any) -> complex:
    try:
        if _is_number(v):
            return complex(v)
        if isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)):
            return complex(v[0], v[1])
    except OverflowError as exc:  # an integer beyond the float range
        raise ParseError(f"number out of float range: {exc}") from exc
    raise ParseError(f"expected a number or an [re, im] pair, got {v!r}")


def parse_real(v: Any, what: str, listed: bool = False) -> float | list[float]:
    """A JSON number as a float, or with ``listed`` a JSON list of them."""
    if listed and isinstance(v, list):
        return [parse_real(x, what) for x in v]
    if listed or not _is_number(v):
        raise ParseError(f"{what} must be {'a list of numbers' if listed else 'a number'}, "
                         f"got {v!r}")
    try:
        return float(v)
    except OverflowError as exc:
        raise ParseError(f"{what} must be a number within float range") from exc


def serialize_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [list(map(list, zip(re, im))) for re, im in zip(m.real.tolist(), m.imag.tolist())]


def _float_pairs(rows: list) -> list[float] | None:
    """The floats of a list of rows of [float, float] pairs in row-major
    order, or None if any entry is not such a pair."""
    entries = list(chain.from_iterable(rows))
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    floats = list(chain.from_iterable(entries))
    return floats if set(map(type, floats)) == {float} else None


def parse_matrix(rows: Any) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError("matrix must be a non-empty list of rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("matrix rows have inconsistent lengths")
    floats = _float_pairs(rows)
    if floats is not None:  # one conversion; the view keeps the sign of a zero
        flat = np.array(floats, dtype=np.float64)
        if np.isfinite(flat).all():  # else parse_complex names the bad entry
            return flat.view(complex).reshape(len(rows), width)
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
def serialize_family(family: sot.SotFamily) -> dict:
    doc: dict = {"kind": "sot_family", "schema_version": SCHEMA_VERSION,
                 "tag": family.tag}
    for f in dataclasses.fields(family):
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
    params = dataclasses.fields(cls)
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
    if not isinstance(kind, str) or kind not in _PARSERS:
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
    except ValueError as exc:  # an integer longer than the interpreter converts
        raise ParseError(f"invalid JSON: {exc}") from exc
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


# --------------------------------------------------------------------- writer
def _is_matrix(rows: list) -> bool:
    """Whether ``rows`` is a non-empty list of equal-length, non-empty lists
    of [float, float] pairs."""
    return (bool(rows) and set(map(type, rows)) == {list}
            and set(map(len, rows)) == {len(rows[0])} and _float_pairs(rows) is not None)


def _float_text(x: float) -> str:
    """A float as ``json`` writes it: NaN and ±Infinity for the non-finite."""
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _matrix_chunks(rows: list, newline: str) -> Iterator[str]:
    """A matrix as ``_chunks`` writes it, one chunk per row, each from its
    floats' reprs set into one precomputed row template."""
    row_line, pair_line, float_line = newline + "  ", newline + "    ", newline + "      "
    pair = f"{pair_line}[{float_line}%s,{float_line}%s{pair_line}]"
    row = "[" + ",".join([pair] * len(rows[0])) + row_line + "]"
    for k, entries in enumerate(rows):
        floats = tuple(chain.from_iterable(entries))
        text = row % tuple(map(float.__repr__, floats))
        if "n" in text:  # a nan or an inf, which JSON writes as NaN and ±Infinity
            text = row % tuple(map(_float_text, floats))
        yield ("[" if k == 0 else ",") + row_line + text
    yield newline + "]"


def _chunks(value: Any, newline: str) -> Iterator[str]:
    """``value`` as ``json`` writes it with indent=2 and sorted keys, where
    ``newline`` is the line break and indentation of the line it starts on.
    A list that is a matrix goes row by row; a value ``json`` cannot write
    raises its TypeError, and so does a key that is not a str."""
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif value is None:
        yield "null"
    elif value is True:
        yield "true"
    elif value is False:
        yield "false"
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, float):
        yield _float_text(value)
    elif not isinstance(value, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        yield "{}" if isinstance(value, dict) else "[]"
    elif type(value) is list and _is_matrix(value):
        yield from _matrix_chunks(value, newline)
    else:
        inner = newline + "  "
        if isinstance(value, dict):
            if not all(isinstance(key, str) for key in value):
                raise TypeError("keys must be str")
            opening, closing = "{", "}"
            items = [(encode_basestring_ascii(key) + ": ", item)
                     for key, item in sorted(value.items())]
        else:
            opening, closing = "[", "]"
            items = [("", item) for item in value]
        for k, (key, item) in enumerate(items):
            yield ("," if k else opening) + inner + key
            yield from _chunks(item, inner)
        yield newline + closing


def write_json(doc: Any, fh: TextIO) -> None:
    """Write ``doc`` and a newline to ``fh``, the bytes of
    ``json.dump(doc, fh, indent=2, sort_keys=True)`` then ``"\n"``, streamed
    chunk by chunk.  A document may hold dicts with str keys, lists, tuples,
    str, int, float, bool and None; anything else raises a TypeError, as
    ``json`` does, after the chunks before it."""
    for chunk in _chunks(doc, "\n"):
        fh.write(chunk)
    fh.write("\n")


def dump(doc: dict, path: str) -> None:
    with _writing(path) as fh:
        write_json(doc, fh)


def write_text(text: str, path: str) -> None:
    with _writing(path) as fh:
        fh.write(text)


def load_schema(name: str) -> dict:
    """Load one of the shipped JSON schemas by bare name (e.g. 'element')."""
    text = resources.files("qsot.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)

"""Deterministic artifact containers for models, tables, and reports.

Every artifact names its format and the one ``VERSION`` (:func:`header`,
:func:`stamp`), is checked by :func:`check_header`, and is written whole
by :func:`open_atomic`. Arrays are stored as base64 of little-endian
row-major float64 (or int64) bytes, so a save/load round trip is bitwise
lossless and serializing the same object twice produces identical bytes.
"""

import base64
import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import sys
import types
import typing
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ValidationError

VERSION = 1

_DTYPES = {"float64": "<f8", "int64": "<i8"}


def header(fmt: str, **meta) -> dict:
    """A JSON artifact's (or the dump's JSONL) header: ``meta`` plus the
    format name and the container version."""
    return {**meta, "format": fmt, "version": VERSION}


def stamp(fmt: str, meta: dict) -> str:
    """The first line of a text artifact (CSV, SVG), without its comment
    marker: the :func:`header` fields as sorted ``key=value`` pairs."""
    return " ".join(f"{k}={v}" for k, v in sorted(header(fmt, **meta).items()))


def check_header(obj, fmt: str, path) -> dict:
    """Return ``obj`` if it names format ``fmt`` and version ``VERSION``
    (the int, so neither ``true`` nor ``1.0``); otherwise raise a
    FormatError naming ``path``."""
    fields = obj if isinstance(obj, dict) else {}
    found, version = fields.get("format"), fields.get("version")
    if found != fmt or type(version) is not int or version != VERSION:
        raise FormatError(f"{path}: not a {fmt} v{VERSION} file "
                          f"(format {found!r}, version {version!r})")
    return obj


def encode_array(a: np.ndarray) -> dict:
    """Encode an array as a JSON-safe dict (shape, dtype, base64 payload)."""
    if a.dtype == np.float64:
        name = "float64"
    elif np.issubdtype(a.dtype, np.integer):
        name = "int64"
        a = a.astype(np.int64)
    else:
        raise TypeError(f"unsupported dtype {a.dtype}")
    payload = np.ascontiguousarray(a).astype(_DTYPES[name]).tobytes(order="C")
    return {
        "shape": list(a.shape),
        "dtype": name,
        "data": base64.b64encode(payload).decode("ascii"),
    }


def decode_array(d: dict, context: str = "array") -> np.ndarray:
    """Inverse of :func:`encode_array`; raises FormatError on any mismatch."""
    try:
        shape = tuple(int(s) for s in d["shape"])
        dtype = _DTYPES[d["dtype"]]
        raw = base64.b64decode(d["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{context}: malformed array record ({exc})") from exc
    expected = int(np.prod(shape)) * 8 if shape else 8
    if len(raw) != expected:
        raise FormatError(
            f"{context}: payload holds {len(raw)} bytes but shape {shape} needs {expected}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def dumps_canonical(obj) -> str:
    """Serialize to JSON with a stable key order and layout."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


@contextlib.contextmanager
def open_atomic(path):
    """A text file written to ``<path>.tmp`` and moved over ``path`` with
    ``os.replace`` when the block ends; if the block raises, the temp file
    is removed and ``path`` is untouched. So a failed or killed process
    never leaves a half-written artifact; there is no fsync, so a crash of
    the machine still can."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(obj, path) -> None:
    with open_atomic(path) as fh:
        fh.write(dumps_canonical(obj))


@contextlib.contextmanager
def utf8_text(path):
    """A block reading ``path`` as text: a non-UTF-8 byte is a FormatError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 ({exc.reason})") from exc


def read_json(path) -> dict:
    """Parse a JSON file; FormatError carries the byte offset on parse failure."""
    with utf8_text(path):
        text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON at offset {exc.pos}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    return obj


def read_artifact(path, fmt: str, cls):
    """Read a ``fmt`` file as the dataclass ``cls``: its keys other than
    the header's, built by :func:`from_plain` and checked by the class's
    ``validate()`` if it has one. Any fault is a FormatError naming the
    file and the key."""
    obj = check_header(read_json(path), fmt, path)
    fields = {k: v for k, v in obj.items() if k not in ("format", "version")}
    try:
        artifact = from_plain(cls, fields, noun=fmt)
        return artifact.validate() if hasattr(artifact, "validate") else artifact
    except (ValidationError, DataError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_artifact(obj, fmt: str, path) -> None:
    """Write the dataclass ``obj`` as a ``fmt`` file (see read_artifact)."""
    write_json(header(fmt, **to_plain(obj)), path)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def to_plain(obj):
    """A dataclass as plain JSON values: an object of its fields, arrays
    as :func:`encode_array` records, tuples as lists. Fields that are None
    are left out, so None means "absent" and never reaches a file."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                if getattr(obj, f.name) is not None}
    if isinstance(obj, (tuple, list)):
        return [to_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return encode_array(obj)
    return obj


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string"}
_type_hints = functools.cache(typing.get_type_hints)  # resolved once per class: resumes read many


def from_plain(cls, obj, base=None, where: str = "", noun: str = "config"):
    """Build the dataclass ``cls`` from a parsed JSON object, checked
    against the field annotations; the inverse of :func:`to_plain`.

    A key the object leaves out keeps its value in ``base``, or the
    field's default when there is no base. A nested object merges the
    same way into the base's value, so a config file lists only what it
    changes. The exception is a class whose fields all default to None:
    it is a choice between them, so its object is built afresh and does
    not inherit the base's choice.

    Types are strict: an int field takes an int but not a bool, a float
    field takes an int or a finite float (stored as a float) but not a
    bool, a tuple or list field takes a list of its first argument's type,
    a dict field an object, an array field an array record, and no field
    takes null. A ValidationError (FormatError for an array) names the
    offending key by its path: ``where`` is the path of ``obj`` itself,
    empty at the top, which messages call ``noun``.
    """
    name, label = where or noun, f"{noun} {where}".rstrip()
    if not isinstance(obj, dict):
        raise ValidationError(f"{label} must be an object, got {obj!r}")
    hints = _type_hints(cls)
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValidationError(f"unknown {noun} key(s) in {name}: {sorted(unknown)}")
    if _is_choice(cls):
        base = None
    values = {}
    for key, value in obj.items():
        kind = _strip_none(hints[key])
        if dataclasses.is_dataclass(kind):
            values[key] = from_plain(kind, value, None if base is None else getattr(base, key),
                                     f"{where}.{key}" if where else key, noun)
        else:
            values[key] = _typed(value, kind, f"{name}.{key}")
    if base is not None:
        return dataclasses.replace(base, **values)
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in values
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValidationError(f"{label} lacks key(s) {missing}")
    return cls(**values)


def _strip_none(kind):
    """``X`` from ``X | None``; the None only marks a field as optional."""
    if isinstance(kind, types.UnionType):
        (kind,) = [a for a in typing.get_args(kind) if a is not type(None)]
    return kind


def _is_choice(cls) -> bool:
    """Whether every field of ``cls`` defaults to None (see from_plain)."""
    return all(f.default is None for f in dataclasses.fields(cls))


def _typed(value, kind, where: str):
    """Check one leaf value strictly; lists come back as the field's type."""
    origin = typing.get_origin(kind)
    if kind is np.ndarray:
        return decode_array(value, where)
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise ValidationError(f"{where} must be a list, got {value!r}")
        item = typing.get_args(kind)[0]
        return origin(_typed(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, dict):
            raise ValidationError(f"{where} must be an object, got {value!r}")
        item = typing.get_args(kind)[1]
        return {k: _typed(v, item, f"{where}.{k}") for k, v in value.items()}
    accepted = (int, float) if kind is float else kind
    if (isinstance(value, bool) or not isinstance(value, accepted)
            or (kind is float and not abs(value) <= sys.float_info.max)):  # NaN fails too
        raise ValidationError(f"{where} must be {_KIND_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value

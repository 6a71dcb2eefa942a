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
import math
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
    else:
        raise TypeError(f"unsupported dtype {a.dtype}")
    # row-major little-endian bytes, copied only if ``a`` is not already
    # laid out so; base64 reads them through the buffer protocol
    payload = np.ascontiguousarray(a, dtype=_DTYPES[name])
    return {
        "shape": list(a.shape),
        "dtype": name,
        "data": base64.b64encode(payload).decode("ascii"),
    }


def decode_array(d: dict, context: str = "array") -> np.ndarray:
    """Inverse of :func:`encode_array`; raises FormatError on any mismatch,
    a shape of anything but ints >= 0 included."""
    if not isinstance(d, dict):
        raise FormatError(f"{context}: malformed array record: must be an object with "
                          "shape, dtype and data")
    try:
        shape = tuple(d["shape"])
        dtype = _DTYPES[d["dtype"]]
        raw = base64.b64decode(d["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{context}: malformed array record ({exc})") from exc
    if not all(type(s) is int and s >= 0 for s in shape):
        raise FormatError(f"{context}: shape {list(shape)} must list integers >= 0")
    expected = math.prod(shape) * 8
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


def write_csv(path, fmt: str, meta: dict, columns, rows) -> None:
    """Write a CSV artifact: a ``#`` line with the :func:`stamp` of ``fmt``
    and ``meta``, the column names, then the rows. Stamp values and cells
    alike are ``NA`` for None, else their ``str`` (a float's ``repr``)."""
    def cell(value) -> str:
        return "NA" if value is None else str(value)

    with open_atomic(path) as fh:
        fh.write(f"# {stamp(fmt, {k: cell(v) for k, v in meta.items()})}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(cell, row)) + "\n" for row in rows)


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
    except (RecursionError, ValueError) as exc:  # nested too deep, or an int over 4,300 digits
        raise FormatError(f"{path}: not readable as JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    return obj


def read_artifact(path, fmt: str, cls, defaults: bool = False):
    """Read a ``fmt`` file as the dataclass ``cls``: its keys other than
    the header's, built by :func:`from_plain` and checked by the class's
    ``validate()`` if it has one. Any fault is a FormatError naming the
    file and the key. A file that frauduq writes holds every key but
    those of None fields whose default is None, so any other missing key
    is a fault; only a user-written file (``defaults``) may leave a key
    out for its field's default."""
    obj = check_header(read_json(path), fmt, path)
    fields = {k: v for k, v in obj.items() if k not in ("format", "version")}
    try:
        artifact = from_plain(cls, fields, noun=fmt, defaults=defaults)
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
    as :func:`encode_array` records, tuples as lists. A None field whose
    default is None is left out ("absent"); any other None is null."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                if getattr(obj, f.name) is not None or f.default is not None}
    if isinstance(obj, (tuple, list)):
        return [to_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return encode_array(obj)
    return obj


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               bool: "true or false"}
_type_hints = functools.cache(typing.get_type_hints)  # resolved once per class: resumes read many


def from_plain(cls, obj, where: str = "", noun: str = "config", defaults: bool = True):
    """Build the dataclass ``cls`` from a parsed JSON object, checked
    against the field annotations; the inverse of :func:`to_plain`.

    A key the object leaves out takes the field's default; without
    ``defaults`` it is a fault unless the field defaults to None, which
    is how :func:`to_plain` writes None.

    Types are strict: an int field takes an int but not a bool, a bool
    field only true or false, a float field takes an int or a finite
    float (stored as a float) but not a bool, a union of scalar kinds
    (``float | str``) the first kind that fits, a list or
    ``tuple[X, ...]`` field takes a list of X (X may be a dataclass), a
    fixed-length tuple field (``tuple[int, int]``) a list of that length
    with each item of its position's type, a dict field an object, and an
    array field an array record. Only an ``X | None`` field whose default
    is not None takes null, as :func:`to_plain` writes it. A
    ValidationError (FormatError for an array) names the offending key by
    its path from ``noun``: ``where`` is the path of ``obj`` itself
    (``config.data``), and ``noun`` alone at the top.
    """
    where = where or noun
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object, got {obj!r}")
    hints = _type_hints(cls)
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValidationError(f"unknown {noun} key(s) in {where}: {sorted(unknown)}")
    nullable = _nullable(cls)
    values = {key: None if value is None and key in nullable else
              _typed(value, hints[key], f"{where}.{key}", noun, defaults)
              for key, value in obj.items()}
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in values and (
        not defaults and f.default is not None
        or f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)]
    if missing:
        raise ValidationError(f"{where} lacks key(s) {missing}")
    return cls(**values)


@functools.cache
def _nullable(cls) -> frozenset:
    """The fields of ``cls`` that take null: typed ``X | None``, with no None default."""
    return frozenset(f.name for f in dataclasses.fields(cls) if f.default is not None
                     and type(None) in typing.get_args(_type_hints(cls)[f.name]))


def _typed(value, kind, where: str, noun: str, defaults: bool):
    """Check one value strictly; lists come back as the field's type, and
    a dataclass is built by :func:`from_plain`."""
    origin = typing.get_origin(kind)
    if dataclasses.is_dataclass(kind):
        return from_plain(kind, value, where, noun, defaults)
    if kind is np.ndarray:
        return decode_array(value, where)
    if isinstance(kind, types.UnionType):  # a None option only marks the field optional
        options = [k for k in typing.get_args(kind) if k is not type(None)]
        if len(options) == 1:
            return _typed(value, options[0], where, noun, defaults)
        for option in options:
            with contextlib.suppress(ValidationError):
                return _typed(value, option, where, noun, defaults)
        raise ValidationError(
            f"{where} must be {' or '.join(_KIND_NAMES[k] for k in options)}, got {value!r}")
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise ValidationError(f"{where} must be a list, got {value!r}")
        items = typing.get_args(kind)
        if origin is list or items[1:] == (Ellipsis,):
            items = items[:1] * len(value)
        elif len(value) != len(items):
            raise ValidationError(f"{where} must be a list of {len(items)} items, got {value!r}")
        return origin(_typed(v, item, f"{where}[{i}]", noun, defaults)
                      for i, (v, item) in enumerate(zip(value, items)))
    if origin is dict:
        if not isinstance(value, dict):
            raise ValidationError(f"{where} must be an object, got {value!r}")
        item = typing.get_args(kind)[1]
        return {k: _typed(v, item, f"{where}.{k}", noun, defaults) for k, v in value.items()}
    accepted = (int, float) if kind is float else kind
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted)
            or (kind is float and not abs(value) <= sys.float_info.max)):  # NaN fails too
        raise ValidationError(f"{where} must be {_KIND_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value

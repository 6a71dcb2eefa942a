"""Deterministic JSON containers for models, tables, and reports.

Arrays are stored as base64 of little-endian row-major float64 (or int64)
bytes, so a save/load round trip is bitwise lossless and serializing the
same object twice produces identical bytes.
"""

import base64
import dataclasses
import hashlib
import json
import sys
import types
import typing
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

_DTYPES = {"float64": "<f8", "int64": "<i8"}


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


def write_json(obj, path) -> None:
    Path(path).write_text(dumps_canonical(obj), encoding="utf-8")


def read_json(path) -> dict:
    """Parse a JSON file; FormatError carries the byte offset on parse failure."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 at byte {exc.start}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at offset {exc.pos}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    return obj


def expect_format(obj: dict, fmt: str, version: int, path) -> None:
    """Check the container's self-description before trusting its contents."""
    if obj.get("format") != fmt:
        raise FormatError(f"{path}: format tag {obj.get('format')!r}, expected {fmt!r}")
    if obj.get("version") != version:
        raise FormatError(f"{path}: unsupported version {obj.get('version')!r}")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def to_plain(obj):
    """A config dataclass as plain JSON values: an object of its fields,
    tuples as lists. Fields that are None are left out, so None means
    "absent" and never reaches a file."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                if getattr(obj, f.name) is not None}
    if isinstance(obj, tuple):
        return [to_plain(v) for v in obj]
    return obj


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


def from_plain(cls, obj, base=None, where: str = ""):
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
    bool, a tuple field takes a list of its first argument's type, and no
    field takes null. A ValidationError names the offending key by its
    path; ``where`` is the path of ``obj`` itself, empty at the top.
    """
    name, label = where or "config", f"config {where}".rstrip()
    if not isinstance(obj, dict):
        raise ValidationError(f"{label} must be an object, got {obj!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValidationError(f"unknown config key(s) in {name}: {sorted(unknown)}")
    if _is_choice(cls):
        base = None
    values = {}
    for key, value in obj.items():
        kind = _strip_none(hints[key])
        if dataclasses.is_dataclass(kind):
            values[key] = from_plain(kind, value, None if base is None else getattr(base, key),
                                     f"{where}.{key}" if where else key)
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
    """Check one leaf value strictly; lists come back as tuples."""
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ValidationError(f"{where} must be a list, got {value!r}")
        item = typing.get_args(kind)[0]
        return tuple(_typed(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    accepted = (int, float) if kind is float else kind
    if (isinstance(value, bool) or not isinstance(value, accepted)
            or (kind is float and not abs(value) <= sys.float_info.max)):  # NaN fails too
        raise ValidationError(f"{where} must be {_KIND_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value

"""Canonical JSON text, and the checks that need only the raw JSON.

Reading a JSON object from a file, its schema version and the shape of a
list of objects are checked here with the standard library alone, so a
missing, malformed or wrongly versioned input is rejected before numpy
or any array module loads.  `serialize` builds arrays and povmkit
objects from what this module reads.
"""

from __future__ import annotations

import json

from .errors import SchemaError

SCHEMA_VERSION = 1


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_json(path) -> dict:
    """The JSON object in a file; anything else raises `SchemaError`."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:  # missing, a directory, no permission
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON, or an integer beyond Python's digit limit
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return data


def write_json(path, obj: dict):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


def _check_schema(data: dict, what: str):
    if not isinstance(data, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    version = data.get("schema", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{what}: unsupported schema version {version}")


def _objects(data: dict, key: str, what: str) -> list[dict]:
    """``data[key]``, which must be a nonempty list of JSON objects."""
    items = data.get(key)
    if not (isinstance(items, list) and items and all(isinstance(i, dict) for i in items)):
        raise SchemaError(f"{what}: {key!r} must be a nonempty list of objects")
    return items

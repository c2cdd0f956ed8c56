"""JSON schemas for POVMs, regions, states, records, and reports.

Complex numbers are always two-element arrays ``[re, im]``; every file
carries ``"schema": 1``.  Serialization is canonical (sorted keys,
compact separators), so identical inputs produce byte-identical files.

The result types of other modules appear here in annotations only; the
three that are built here (`DecompositionResult`, `OutcomeRecords`,
`BayesGainSpec`) are imported where they are built, so that reading a
POVM loads neither sampling nor decomposition code.
"""

from __future__ import annotations

import json
import sys
from itertools import chain, islice, repeat
from operator import itemgetter

import numpy as np

from .errors import PovmkitError, SchemaError
from .jsonio import (  # noqa: F401  (dumps_canonical is re-exported)
    SCHEMA_VERSION,
    _check_schema,
    _objects,
    dumps_canonical,
    load_json,
    write_json,
)
from .outcomes import (
    CIRCLE,
    SPHERE,
    Circle,
    FiniteLabels,
    OutcomeSpace,
    Region,
    Sphere,
)
from .povm import FinitePOVM, ValidationReport

_CHUNK_LINES = 4096  # records per write and per bulk parse


# --- JSON scalars --------------------------------------------------------------

def _integer(value, what: str) -> int:
    """``value``, which must be a JSON integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float; it must be a JSON number, which a bool or a
    string is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def _ids(items, what: str) -> list[str]:
    """The row id of each object in ``items``: its ``"id"``, which must be
    a JSON string, or ``what`` and its index; an id that two objects share
    raises `SchemaError`."""
    seen: dict[str, int] = {}
    for k, obj in enumerate(items):
        rid = obj.get("id", f"{what}{k}")
        if not isinstance(rid, str):
            raise SchemaError(f"{what} {k}: 'id' must be a JSON string, got {rid!r}")
        if rid in seen:
            raise SchemaError(f"{what} {k}: id {rid!r} repeats {what} {seen[rid]}")
        seen[rid] = k
    return list(seen)


# --- matrices ----------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    entry = f"{what}: an entry's real or imaginary part"
    try:
        m = np.array(
            [[complex(_number(re, entry), _number(im, entry)) for re, im in row] for row in obj],
            dtype=complex,
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: entries must be [re, im] pairs") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SchemaError(f"{what}: expected a square matrix, got {m.shape}")
    return m


# --- outcome spaces and points ------------------------------------------------

def _flag(data: dict, key: str, what: str) -> bool:
    """``data[key]``, which must be a JSON ``true`` or ``false``; false
    when absent."""
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise SchemaError(f"{what}: {key!r} must be true or false, got {value!r}")
    return value


def space_to_dict(space: OutcomeSpace) -> dict:
    if isinstance(space, FiniteLabels):
        return {"kind": "labels", "n": space.n}
    if isinstance(space, Circle):
        return {"kind": "circle"}
    if isinstance(space, Sphere):
        return {"kind": "sphere"}
    raise SchemaError(f"unknown outcome space {space!r}")


def space_from_dict(obj) -> OutcomeSpace:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("space: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "labels":
        n = obj.get("n")
        if type(n) is not int or n < 1:  # bool is an int subclass
            raise SchemaError("space: labels need a positive integer 'n'")
        return FiniteLabels(n)
    if kind == "circle":
        return CIRCLE
    if kind == "sphere":
        return SPHERE
    raise SchemaError(f"space: unknown kind {kind!r}")


def point_to_json(space: OutcomeSpace, point):
    if isinstance(space, FiniteLabels):
        return int(point)
    if isinstance(space, Circle):
        return float(point)
    return [float(v) for v in np.asarray(point, dtype=float)]


def point_from_json(space: OutcomeSpace, obj):
    """A label from a JSON integer, an angle from a JSON number, a sphere
    point from a list of JSON numbers; anything else raises `SchemaError`."""
    if isinstance(space, FiniteLabels):
        return _integer(obj, "a label point")
    if isinstance(space, Circle):
        return _number(obj, "a circle point")
    if not isinstance(obj, list):
        raise SchemaError(f"a sphere point must be a list of JSON numbers, got {obj!r}")
    return [_number(v, "a sphere point's coordinate") for v in obj]


# --- POVMs --------------------------------------------------------------------

def povm_to_dict(p: FinitePOVM) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "dim": p.dim,
        "space": space_to_dict(p.space),
        "entries": [
            {"point": point_to_json(p.space, pt), "element": matrix_to_json(el)}
            for pt, el in p.entries
        ],
        "allow_duplicates": p.allow_duplicates,
    }


def povm_from_dict(data: dict) -> FinitePOVM:
    _check_schema(data, "povm")
    for key in ("dim", "space", "entries"):
        if key not in data:
            raise SchemaError(f"povm: missing field {key!r}")
    space = space_from_dict(data["space"])
    entries = []
    for k, entry in enumerate(_objects(data, "entries", "povm")):
        if "point" not in entry or "element" not in entry:
            raise SchemaError(f"povm entry {k}: needs 'point' and 'element'")
        entries.append(
            (
                point_from_json(space, entry["point"]),
                matrix_from_json(entry["element"], what=f"povm element {k}"),
            )
        )
    try:
        return FinitePOVM(
            dim=_integer(data["dim"], "povm: 'dim'"),
            space=space,
            entries=tuple(entries),
            allow_duplicates=_flag(data, "allow_duplicates", "povm"),
        )
    except (ValueError, PovmkitError) as exc:
        raise SchemaError(f"povm: {exc}") from exc


def load_povm(path) -> FinitePOVM:
    return povm_from_dict(load_json(path))


def save_povm(path, p: FinitePOVM):
    write_json(path, povm_to_dict(p))


# --- regions ------------------------------------------------------------------

def region_to_dict(r: Region) -> dict:
    out: dict = {"space": space_to_dict(r.space)}
    if r.labels is not None:
        out["labels"] = sorted(r.labels)
    elif r.arcs is not None:
        out["arcs"] = [[a, b] for a, b in r.arcs]
    else:
        out["caps"] = [{"axis": list(c.axis), "angle": c.angle} for c in r.caps]
        out["complement"] = r.complement
    return out


def region_from_dict(data: dict) -> Region:
    if not isinstance(data, dict) or "space" not in data:
        raise SchemaError("region: expected an object with a 'space' field")
    space = space_from_dict(data["space"])
    try:
        if isinstance(space, FiniteLabels):
            return Region.of_labels(space, [_integer(i, "region: a label") for i in data["labels"]])
        if isinstance(space, Circle):
            end = "region: an arc endpoint"
            return Region.of_arcs([(_number(a, end), _number(b, end)) for a, b in data["arcs"]])
        caps = [
            (
                tuple(_number(v, "region: a cap axis coordinate") for v in c["axis"]),
                _number(c["angle"], "region: a cap angle"),
            )
            for c in data["caps"]
        ]
        return Region.of_caps(caps, complement=_flag(data, "complement", "region"))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"region: {exc}") from exc


def regions_from_dict(data: dict) -> list[tuple[str, Region]]:
    _check_schema(data, "regions")
    items = _objects(data, "regions", "regions") if "regions" in data else [data]
    return list(zip(_ids(items, "region"), map(region_from_dict, items)))


def load_regions(path) -> list[tuple[str, Region]]:
    return regions_from_dict(load_json(path))


# --- states -------------------------------------------------------------------

def states_from_dict(data: dict) -> list[tuple[str, np.ndarray]]:
    _check_schema(data, "states")
    if "states" in data:
        items = _objects(data, "states", "states")
    elif "matrix" in data:
        items = [data]
    else:
        raise SchemaError("states: expected 'states' list or a single 'matrix'")
    out = []
    for k, (sid, obj) in enumerate(zip(_ids(items, "state"), items)):
        if "matrix" not in obj:
            raise SchemaError(f"state {k}: missing 'matrix'")
        out.append((sid, matrix_from_json(obj["matrix"], what=f"state {k}")))
    return out


def load_states(path) -> list[tuple[str, np.ndarray]]:
    return states_from_dict(load_json(path))


def save_states(path, states):
    items = []
    for sid, rho in states:
        items.append({"id": sid, "matrix": matrix_to_json(rho)})
    write_json(path, {"schema": SCHEMA_VERSION, "states": items})


# --- records ------------------------------------------------------------------

def records_to_lines(records: OutcomeRecords):
    """One canonical JSON object per record: ``omega`` and, when the
    records carry them, ``i`` (always ints) and ``x`` (always floats).

    The lines equal `dumps_canonical` of each record's dict: one ``%``
    template, built from the column layout with the keys in sorted order,
    ints as ``%d`` and floats as ``%r``, formats every row.  Non-finite
    floats, which JSON cannot hold, raise `SchemaError`.
    """
    fields = {"omega": np.asarray(records.omega)}
    if records.i is not None:
        fields["i"] = np.asarray(records.i, dtype=int)
    if records.x is not None:
        fields["x"] = np.asarray(records.x, dtype=float)
    parts, columns = [], []
    for key, values in sorted(fields.items()):
        if len(values) != len(records):
            raise SchemaError(f"records: {key!r} has {len(values)} rows, 'omega' {len(records)}")
        if values.dtype.kind == "f":
            spec = "%r"
            if not np.isfinite(values).all():
                raise SchemaError(f"records: non-finite value in {key!r}")
        elif values.dtype.kind in "iu":
            spec = "%d"
        else:
            raise SchemaError(f"records: {key!r} must hold numbers, not {values.dtype}")
        if values.ndim == 1:
            parts.append(f'"{key}":{spec}')
            columns.append(values.tolist())
        elif values.ndim == 2:
            parts.append(f'"{key}":[' + ",".join([spec] * values.shape[1]) + "]")
            columns.extend(values.T.tolist())
        else:
            raise SchemaError(f"records: {key!r} must be one value or one vector per record")
    template = "{" + ",".join(parts) + "}"
    return map(template.__mod__, zip(*columns))


def write_records(path, records: OutcomeRecords):
    lines = records_to_lines(records)
    with open(path, "w") as fh:
        while chunk := list(islice(lines, _CHUNK_LINES)):
            fh.write("\n".join(chunk))
            fh.write("\n")


_FIELDS = ("omega", "i", "x")  # the fields `write_records` writes


def _parse(lines: list[str], layout):
    """``(layout, columns)`` for ``lines``, one JSON record per non-blank
    line, or a string naming how they break the rules.

    ``layout`` is None until the first record sets it: the outcome space
    (an integer label, an angle on the circle or a 3-vector on the sphere)
    and, per field the first record has, the dtype of its values and the
    width of its vectors (None for scalars).  Every record holds the
    fields of the first, of `_FIELDS`, and no others, each field the kind
    of value it holds there: ``i`` is an integer and ``x`` a number or a
    list of numbers.  ``columns`` holds one finite array per field.
    """
    # Once its fields are checked a record holds no nested object, so with
    # as many records as lines, each ending in "}", each line holds exactly
    # one record.  A chunk whose lines all end in "}\n" has no blank line.
    split = False
    if not all(map(str.endswith, lines, repeat("}\n"))):
        lines = [line for line in lines if not line.isspace()]
        split = not all(line.rstrip().endswith("}") for line in lines)
    if not lines:
        return layout, {}
    try:
        rows = json.loads("[" + ",".join(lines) + "]")
    except json.JSONDecodeError:
        return "invalid JSON"
    except ValueError:  # an integer beyond Python's digit limit
        return f"integer of more than {sys.get_int_max_str_digits()} digits"
    if len(rows) != len(lines):
        return "invalid JSON"
    if set(map(type, rows)) != {dict}:
        return "expected a JSON object"
    if split:
        return "invalid JSON"
    if layout is None:
        first = rows[0]
        if "omega" not in first:
            return "missing 'omega'"
        kind = type(first["omega"])
        if kind is list:
            layout = SPHERE, {"omega": (float, 3)}
        elif kind is float:
            layout = CIRCLE, {"omega": (float, None)}
        elif kind is int:
            layout = None, {"omega": (int, None)}
        else:
            return "'omega' must be an integer label, an angle or a list of 3 numbers"
        if "i" in first:
            layout[1]["i"] = (int, None)
        if "x" in first:
            layout[1]["x"] = (float, len(first["x"]) if type(first["x"]) is list else None)
    rules = layout[1]
    columns = {}
    for key, (dtype, width) in rules.items():
        try:
            values = list(map(itemgetter(key), rows))
        except KeyError:
            return f"missing {key!r}"
        scalars = {int} if dtype is int else {int, float}
        if width is None:
            valid = set(map(type, values)) <= scalars
        else:
            valid = (
                set(map(type, values)) == {list}
                and set(map(len, values)) == {width}
                and set(map(type, chain.from_iterable(values))) <= scalars
            )
        if not valid:
            what = (
                f"a list of {width} numbers" if width is not None
                else "an integer" if dtype is int else "a number"
            )
            return f"{key!r} must be {what}, as in the first record"
        try:
            columns[key] = np.array(values, dtype=dtype)
        except OverflowError:
            return f"{key!r} out of range"
        if dtype is float and not np.isfinite(columns[key]).all():
            return f"non-finite {key!r}"
    if set(map(len, rows)) != {len(rules)}:
        extra = next(key for row in rows for key in row if key not in rules)
        if extra in _FIELDS:
            return f"{extra!r}, which the first record lacks"
        return f"unknown field {extra!r}"
    return layout, columns


def read_records(path) -> OutcomeRecords:
    """Records written by `write_records`, read column-wise.

    Lines are parsed and converted to arrays in chunks; blank lines are
    skipped.  A file that breaks the rules of `_parse` raises `SchemaError`
    naming its first offending line: a chunk with a problem is parsed
    again line by line.
    """
    layout = None
    columns: dict[str, list] = {key: [] for key in _FIELDS}
    start = 0  # lines before the chunk
    with open(path) as fh:
        while chunk := list(islice(fh, _CHUNK_LINES)):
            parsed = _parse(chunk, layout)
            if isinstance(parsed, str):
                for lineno, line in enumerate(chunk, start + 1):
                    one = _parse([line], layout)
                    if isinstance(one, str):
                        raise SchemaError(f"{path}:{lineno}: {one}")
                    layout = one[0]
                # not reached: a chunk breaks a rule only where one of its lines does
                raise SchemaError(f"{path}: {parsed}")
            layout, chunk_columns = parsed
            for key, column in chunk_columns.items():
                columns[key].append(column)
            start += len(chunk)
    if layout is None:
        raise SchemaError(f"{path}: no records")
    from .sampling import OutcomeRecords

    space, rules = layout
    return OutcomeRecords(
        space=space,
        **{key: np.concatenate(columns[key]) if key in rules else None for key in _FIELDS},
    )


# --- reports ------------------------------------------------------------------

def validation_report_to_dict(rep: ValidationReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "passed": rep.passed,
        "dim": rep.dim,
        "n_entries": rep.n_entries,
        "psd_margins": list(rep.psd_margins),
        "hermiticity_defects": list(rep.hermiticity_defects),
        "completeness_defect": rep.completeness_defect,
        "duplicate_points": list(rep.duplicate_points),
        "worst": rep.worst(),
    }


def decomposition_to_dict(result: DecompositionResult) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "depth": result.depth,
        "terms": [
            {"weight": float(w), "povm": povm_to_dict(povm)} for w, povm in result.terms
        ],
    }


def decomposition_from_dict(data: dict) -> DecompositionResult:
    _check_schema(data, "decomposition")
    terms = []
    for k, term in enumerate(_objects(data, "terms", "decomposition")):
        if "weight" not in term or "povm" not in term:
            raise SchemaError(f"decomposition term {k}: needs 'weight' and 'povm'")
        weight = _number(term["weight"], f"decomposition term {k}: 'weight'")
        terms.append((weight, povm_from_dict(term["povm"])))
    from .extremality import DecompositionResult

    depth = _integer(data.get("depth", 0), "decomposition: 'depth'")
    return DecompositionResult(terms=tuple(terms), depth=depth)


def equivalence_report_to_dict(rep: EquivalenceReport) -> dict:
    rows = []
    for r in rep.rows:
        row = {
            "state_id": r.state_id,
            "region_id": r.region_id,
            "p_cont": r.p_continuous,
            "p_scheme": r.p_scheme,
            "diff": r.diff,
        }
        if r.std_error is not None:
            row["se"] = r.std_error
        rows.append(row)
    return {
        "schema": SCHEMA_VERSION,
        "mode": rep.mode,
        "budget": rep.budget,
        "rows": rows,
        "max_abs_diff": rep.max_abs_diff,
    }


def gof_report_to_dict(rep: GofReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "statistic": rep.statistic,
        "dof": rep.dof,
        "p_value": rep.p_value,
        "bin_spec": rep.bin_spec,
    }


def merit_report_to_dict(rep: MeritReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "value": rep.value,
        "per_member": [{"x": x, "value": v} for x, v in rep.per_member],
        "spread": rep.spread,
    }


def bayes_spec_from_dict(data: dict) -> BayesGainSpec:
    from .merit import BayesGainSpec

    _check_schema(data, "merit spec")
    try:
        return BayesGainSpec(
            prior=data["prior"],
            gain=data["gain"],
            fiducial_state=(
                matrix_from_json(data["state"], "fiducial state") if "state" in data else None
            ),
        )
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"merit spec: {exc}") from exc


def dual_to_dict(dual: DualProcessing) -> dict:
    out: dict = {"schema": SCHEMA_VERSION, "target": matrix_to_json(dual.target)}
    if dual.family is None:
        out["coefficients"] = [float(c) for c in dual.coefficients]
    else:
        out["family"] = dual.family.family
        out["operator"] = matrix_to_json(dual.operator)
    return out


def estimate_report_to_dict(rep: EstimateReport) -> dict:
    out = {
        "schema": SCHEMA_VERSION,
        "estimate": rep.estimate,
        "std_error": rep.std_error,
        "n": rep.n,
    }
    if rep.exact is not None:
        out["exact"] = rep.exact
    return out

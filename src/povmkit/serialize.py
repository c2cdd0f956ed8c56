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


def load_regions(path) -> list[tuple[str, Region]]:
    data = load_json(path)
    _check_schema(data, "regions")
    items = _objects(data, "regions", "regions") if "regions" in data else [data]
    return list(zip(_ids(items, "region"), map(region_from_dict, items)))


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


def _record_line(k: int, blanks: list[int]) -> int:
    """Physical line number of record ``k`` (0-based), given the sorted
    numbers of the blank lines."""
    line = k + 1
    for blank in blanks:
        if blank > line:
            break
        line += 1
    return line


def _parse_chunk(path, lines: list[str], chunk: list[str], start: int) -> list:
    """The JSON values of ``lines``, the non-blank lines of ``chunk``, whose
    first line is line ``start + 1`` of ``path``: one bulk parse, and a
    parse line by line only when that fails, to name the first invalid
    line."""
    try:
        rows = json.loads("[" + ",".join(lines) + "]")
    except ValueError:
        rows = None
    # A line holding two values, or a value spread over two lines, can still
    # give a valid bulk parse, but never one value per line.
    if rows is not None and len(rows) == len(lines):
        return rows
    rows = []
    for lineno, line in enumerate(chunk, start + 1):
        if line.isspace():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}: invalid JSON") from exc
        except ValueError as exc:  # an integer beyond Python's digit limit
            limit = sys.get_int_max_str_digits()
            raise SchemaError(f"{path}:{lineno}: integer of more than {limit} digits") from exc
    return rows


_INTEGER = frozenset({int})
_NUMBER = frozenset({int, float})


def _column(path, blanks, first: int, key: str, values: list, scalars, dtype, width):
    """``values``, the ``key`` fields of records ``first, first + 1, ...``, as
    an array of ``dtype``: each one a finite scalar whose type is in
    ``scalars`` or, with a ``width``, a list of ``width`` of them.  Raises
    `SchemaError` at the first record that breaks this."""
    if width is None:
        valid = set(map(type, values)) <= scalars
    else:
        valid = (
            set(map(type, values)) == {list}
            and set(map(len, values)) == {width}
            and set(map(type, chain.from_iterable(values))) <= scalars
        )
    if not valid:
        def fits(v):
            if width is None:
                return type(v) in scalars
            return type(v) is list and len(v) == width and set(map(type, v)) <= scalars

        bad = next(k for k, v in enumerate(values) if not fits(v))
        what = (
            f"a list of {width} numbers" if width is not None
            else "an integer" if scalars == _INTEGER else "a number"
        )
        raise SchemaError(
            f"{path}:{_record_line(first + bad, blanks)}: {key!r} must be {what}, "
            "as in the first record"
        )
    try:
        column = np.array(values, dtype=dtype)
    except OverflowError:
        for bad, value in enumerate(values):
            try:
                np.array(value, dtype=dtype)
            except OverflowError:
                break
        raise SchemaError(
            f"{path}:{_record_line(first + bad, blanks)}: {key!r} out of range"
        ) from None
    if column.dtype.kind == "f":
        finite = np.isfinite(column.reshape(len(column), -1)).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise SchemaError(f"{path}:{_record_line(first + bad, blanks)}: non-finite {key!r}")
    return column


def _layout(path, row: dict, line: int):
    """The outcome space and, per field, the ``_column`` value rule set by
    the first record."""
    if "omega" not in row:
        raise SchemaError(f"{path}:{line}: missing 'omega'")
    kind = type(row["omega"])
    if kind is list:
        space, rules = SPHERE, {"omega": (_NUMBER, float, 3)}
    elif kind is float:
        space, rules = CIRCLE, {"omega": (_NUMBER, float, None)}
    elif kind is int:
        space, rules = None, {"omega": (_INTEGER, int, None)}
    else:
        raise SchemaError(
            f"{path}:{line}: 'omega' must be an integer label, an angle or a list of 3 numbers"
        )
    if "i" in row:
        rules["i"] = (_INTEGER, int, None)
    if "x" in row:
        rules["x"] = (_NUMBER, float, len(row["x"]) if type(row["x"]) is list else None)
    return space, rules


def read_records(path) -> OutcomeRecords:
    """Records written by `write_records`, read column-wise.

    Lines are parsed and converted to arrays in chunks; blank lines are
    skipped.  Every record carries the fields of the first one, and each
    field holds the kind of value it holds there: the first ``omega`` sets
    the space (an integer label, an angle on the circle or a 3-vector on
    the sphere), ``i`` is an integer and ``x`` a number or a list of
    numbers.  A file that breaks this raises `SchemaError` naming its
    first offending line.
    """
    space, rules = None, None
    columns: dict[str, list] = {"omega": [], "i": [], "x": []}
    blanks: list[int] = []
    first = lineno = 0  # records and lines before the chunk
    with open(path) as fh:
        while chunk := list(islice(fh, _CHUNK_LINES)):
            start, lineno = lineno, lineno + len(chunk)
            lines = chunk
            if any(map(str.isspace, chunk)):
                blanks += [start + j for j, line in enumerate(chunk, 1) if line.isspace()]
                lines = [line for line in chunk if not line.isspace()]
            rows = _parse_chunk(path, lines, chunk, start)
            if not rows:
                continue
            if set(map(type, rows)) != {dict}:
                bad = next(k for k, row in enumerate(rows) if type(row) is not dict)
                raise SchemaError(
                    f"{path}:{_record_line(first + bad, blanks)}: expected a JSON object"
                )
            if rules is None:
                space, rules = _layout(path, rows[0], _record_line(first, blanks))
            for key, column in columns.items():
                required = key in rules
                has = map(dict.__contains__, rows, repeat(key))
                if all(has) if required else not any(has):
                    if required:
                        values = list(map(itemgetter(key), rows))
                        column.append(_column(path, blanks, first, key, values, *rules[key]))
                    continue
                bad = [key in row for row in rows].index(not required)
                problem = (
                    f"missing {key!r}" if required else f"{key!r}, which the first record lacks"
                )
                raise SchemaError(f"{path}:{_record_line(first + bad, blanks)}: {problem}")
            first += len(rows)
    if rules is None:
        raise SchemaError(f"{path}: no records")
    from .sampling import OutcomeRecords

    return OutcomeRecords(
        space=space,
        omega=np.concatenate(columns["omega"]),
        i=np.concatenate(columns["i"]) if "i" in rules else None,
        x=np.concatenate(columns["x"]) if "x" in rules else None,
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

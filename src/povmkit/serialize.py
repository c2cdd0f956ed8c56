"""JSON schemas for POVMs, regions, states, records, and reports.

Complex numbers are always two-element arrays ``[re, im]``; every file
carries ``"schema": 1``.  Serialization is canonical (sorted keys,
compact separators), so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import PovmkitError, SchemaError
from .extremality import DecompositionResult
from .families import EquivalenceReport
from .merit import BayesGainSpec, MeritReport
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
from .sampling import GofReport, OutcomeRecords
from .tomography import DualProcessing, EstimateReport

SCHEMA_VERSION = 1


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _check_schema(data: dict, what: str):
    if not isinstance(data, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    version = data.get("schema", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{what}: unsupported schema version {version}")


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def write_json(path, obj: dict):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


# --- matrices ----------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    try:
        rows = [[complex(c[0], c[1]) for c in row] for row in obj]
    except (TypeError, IndexError) as exc:
        raise SchemaError(f"{what}: entries must be [re, im] pairs") from exc
    m = np.array(rows, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SchemaError(f"{what}: expected a square matrix, got {m.shape}")
    return m


# --- outcome spaces and points ------------------------------------------------

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
        try:
            return FiniteLabels(int(obj["n"]))
        except (KeyError, ValueError) as exc:
            raise SchemaError("space: labels need a positive integer 'n'") from exc
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
    try:
        if isinstance(space, FiniteLabels):
            return int(obj)
        if isinstance(space, Circle):
            return float(obj)
        return [float(v) for v in obj]
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"point {obj!r} invalid for space {space}") from exc


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
    for k, entry in enumerate(data["entries"]):
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
            dim=int(data["dim"]),
            space=space,
            entries=tuple(entries),
            allow_duplicates=bool(data.get("allow_duplicates", False)),
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
            return Region.of_labels(space, data["labels"])
        if isinstance(space, Circle):
            return Region.of_arcs([(float(a), float(b)) for a, b in data["arcs"]])
        caps = [(tuple(c["axis"]), float(c["angle"])) for c in data["caps"]]
        return Region.of_caps(caps, complement=bool(data.get("complement", False)))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"region: {exc}") from exc


def load_regions(path) -> list[tuple[str, Region]]:
    data = load_json(path)
    _check_schema(data, "regions")
    items = data.get("regions")
    if items is None:
        items = [data]
    out = []
    for k, obj in enumerate(items):
        out.append((str(obj.get("id", f"region{k}")), region_from_dict(obj)))
    return out


# --- states -------------------------------------------------------------------

def load_states(path) -> list[tuple[str, np.ndarray]]:
    data = load_json(path)
    _check_schema(data, "states")
    if "states" in data:
        items = data["states"]
    elif "matrix" in data:
        items = [data]
    else:
        raise SchemaError("states: expected 'states' list or a single 'matrix'")
    out = []
    for k, obj in enumerate(items):
        if "matrix" not in obj:
            raise SchemaError(f"state {k}: missing 'matrix'")
        out.append(
            (str(obj.get("id", f"state{k}")), matrix_from_json(obj["matrix"], what=f"state {k}"))
        )
    return out


def save_states(path, states):
    items = []
    for sid, rho in states:
        items.append({"id": sid, "matrix": matrix_to_json(rho)})
    write_json(path, {"schema": SCHEMA_VERSION, "states": items})


# --- records ------------------------------------------------------------------

def records_to_lines(records: OutcomeRecords):
    """One canonical JSON object per record: ``omega`` and, when the
    records carry them, ``i`` and ``x`` (always floats)."""
    columns = {"omega": np.asarray(records.omega).tolist()}
    if records.i is not None:
        columns["i"] = np.asarray(records.i, dtype=int).tolist()
    if records.x is not None:
        columns["x"] = np.asarray(records.x, dtype=float).tolist()
    for values in zip(*columns.values()):
        yield dumps_canonical(dict(zip(columns, values)))


def write_records(path, records: OutcomeRecords):
    with open(path, "w") as fh:
        for line in records_to_lines(records):
            fh.write(line)
            fh.write("\n")


def read_records(path) -> OutcomeRecords:
    omegas = []
    idx = []
    xs = []
    has_i = has_x = False
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: invalid JSON") from exc
            if "omega" not in row:
                raise SchemaError(f"{path}:{lineno}: missing 'omega'")
            omegas.append(row["omega"])
            if "i" in row:
                has_i = True
                idx.append(row["i"])
            if "x" in row:
                has_x = True
                xs.append(row["x"])
    if not omegas:
        raise SchemaError(f"{path}: no records")
    first = omegas[0]
    if isinstance(first, list):
        space = SPHERE
        omega = np.array(omegas, dtype=float)
    elif isinstance(first, float):
        space = CIRCLE
        omega = np.array(omegas, dtype=float)
    else:
        space = None
        omega = np.array(omegas, dtype=int)
    return OutcomeRecords(
        space=space,
        omega=omega,
        i=np.array(idx, dtype=int) if has_i else None,
        x=np.array(xs) if has_x else None,
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
    if "terms" not in data:
        raise SchemaError("decomposition: missing 'terms'")
    terms = tuple(
        (float(t["weight"]), povm_from_dict(t["povm"])) for t in data["terms"]
    )
    return DecompositionResult(terms=terms, depth=int(data.get("depth", 0)))


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
    _check_schema(data, "merit spec")
    try:
        fid = data.get("state")
        return BayesGainSpec(
            prior=data["prior"],
            gain=data["gain"],
            fiducial_state=matrix_from_json(fid, "fiducial state") if fid else None,
        )
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"merit spec: {exc}") from exc


def dual_to_dict(dual: DualProcessing) -> dict:
    out: dict = {"schema": SCHEMA_VERSION, "target": matrix_to_json(dual.target)}
    if dual.kind == "finite":
        out["coefficients"] = [float(c) for c in dual.coefficients]
    elif dual.kind == "spin":
        out["family"] = "spin"
        out["a0"] = dual.a0
        out["a"] = [float(v) for v in dual.avec]
    else:
        out["family"] = "phase"
        out["fourier"] = [[float(z.real), float(z.imag)] for z in dual.fourier]
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

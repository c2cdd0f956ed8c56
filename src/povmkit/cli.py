"""Command-line interface: reproducible batch commands over JSON files.

Every sampling command takes an explicit ``--seed``; identical argv plus
seed produce byte-identical outputs.  Exit codes: 0 success/pass, 1
failed check, 2 malformed input (with a single-line error JSON on
stderr).

Each command first reads its JSON files with the standard library alone
(`povmkit.jsonio`) and imports the modules it calls inside its own body,
after that read; only NDJSON records are read after numpy loads.  So a
missing or unreadable file, invalid JSON, a top level that is not an
object, a wrong schema version, an argparse usage error, a
``--tolerance`` key the command does not read, a bad ``--tolerance``,
``--tol`` or ``--alpha`` value, an unknown family name or phase
dimension, a ``--budget`` that ``--mode`` does not take
(`povmkit.names`), ``--mode mc`` without ``--seed``, a ``tomo`` target
without ``"matrix"`` or an unusable ``-o`` path exits 2 before numpy
loads; and a child that validates a POVM never loads the samplers, the
families or the decomposition code.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys

from .errors import (
    DimensionMismatch,
    InvalidDimension,
    InvalidPOVM,
    NonHermitianInput,
    PovmkitError,
    SchemaError,
    SpaceMismatch,
)
from .jsonio import _check_schema, dumps_canonical, load_json, write_json
from .names import check_mode, family_spec


def _emit(obj: dict):
    sys.stdout.write(dumps_canonical(obj))
    sys.stdout.write("\n")


def _fail_input(message: str) -> int:
    sys.stderr.write(dumps_canonical({"error": message}))
    sys.stderr.write("\n")
    return 2


def _parse_tolerances(pairs, *keys) -> dict:
    """The ``--tolerance key=value`` pairs, each key one of ``keys``: the
    ones its command reads."""
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise SchemaError(f"--tolerance needs key=value, got {item!r}")
        key, val = item.split("=", 1)
        if key not in keys:
            raise SchemaError(f"unknown tolerance {key!r}; known: {', '.join(keys)}")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise SchemaError(f"tolerance {key}: bad value {val!r}") from exc
        if not math.isfinite(out[key]) or out[key] < 0:
            raise SchemaError(f"tolerance {key}: needs a finite value >= 0, got {val!r}")
    return out


def _check_alpha(alpha):
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise SchemaError(f"--alpha needs 0 < alpha < 1, got {alpha!r}")


def _check_tol(tol):
    if tol is not None and not 0.0 <= tol < math.inf:
        raise SchemaError(f"--tol needs a finite value >= 0, got {tol!r}")


def _guard_output(out_path, inputs):
    """Reject an ``-o`` path before any work: an input, a directory or a
    path in a missing directory, with the error ``open`` would raise; the
    file is neither created nor truncated."""
    if out_path is None:
        return
    target = os.path.abspath(out_path)
    for p in inputs:
        if p is not None and os.path.abspath(p) == target:
            raise SchemaError(f"output {out_path!r} would overwrite input {p!r}")
    if os.path.isdir(target):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
    if not os.path.isdir(os.path.dirname(target)):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_path)


def _read(path, what: str) -> dict:
    """The JSON object in ``path``, its schema version checked as ``what``."""
    data = load_json(path)
    _check_schema(data, what)
    return data


def _finish(output, payload: dict):
    """Write ``payload`` to the ``-o`` path, if one is given, then to stdout."""
    if output:
        write_json(output, payload)
    _emit(payload)


# --- subcommand bodies --------------------------------------------------------

def _cmd_validate(args) -> int:
    tols = _parse_tolerances(args.tolerance, "psd", "complete")
    data = _read(args.povm, "povm")
    from . import serialize as ser
    from .operators import TOL_COMPLETE, TOL_PSD
    from .povm import validate_povm

    report = validate_povm(
        ser.povm_from_dict(data),
        tol_psd=tols.get("psd", TOL_PSD),
        tol_complete=tols.get("complete", TOL_COMPLETE),
    )
    _emit(ser.validation_report_to_dict(report))
    return 0 if report.passed else 1


def _cmd_extremal(args) -> int:
    tols = _parse_tolerances(args.tolerance, "gap")
    data = _read(args.povm, "povm")
    from .extremality import kernel_dimension
    from .operators import GAP_THRESHOLD
    from .serialize import povm_from_dict

    gap = tols.get("gap", GAP_THRESHOLD)
    k = kernel_dimension(povm_from_dict(data), gap=gap)
    _emit({"extremal": k == 0, "kernel_dim": k})
    return 0


def _cmd_decompose(args) -> int:
    tols = _parse_tolerances(args.tolerance, "gap")
    data = _read(args.povm, "povm")
    _guard_output(args.output, [args.povm])
    from . import serialize as ser
    from .extremality import decompose_extremal
    from .operators import GAP_THRESHOLD

    gap = tols.get("gap", GAP_THRESHOLD)
    povm = ser.povm_from_dict(data)
    result = decompose_extremal(povm, max_terms=args.max_terms, gap=gap)
    payload = ser.decomposition_to_dict(result)
    if args.output:
        write_json(args.output, payload)
    _emit(
        {
            "terms": len(result.terms),
            "depth": result.depth,
            "weights": [float(w) for w in result.weights],
            "output": args.output,
        }
    )
    return 0


def _cmd_equiv(args) -> int:
    _check_tol(args.tol)
    family_spec(args.family)
    check_mode(args.mode, args.budget)
    if args.mode == "mc" and args.seed is None:
        raise SchemaError("montecarlo mode requires --seed")
    _guard_output(args.output, [args.states, args.regions])
    states = _read(args.states, "states")
    regions = _read(args.regions, "regions")
    from . import serialize as ser
    from .families import named_family, verify_scheme_equivalence

    c, s = named_family(args.family)
    report = verify_scheme_equivalence(
        c, s, ser.states_from_dict(states), ser.regions_from_dict(regions),
        mode=args.mode, budget=args.budget, seed=args.seed,
    )
    _finish(args.output, ser.equivalence_report_to_dict(report))
    if args.tol is not None and report.max_abs_diff > args.tol:
        return 1
    return 0


def _cmd_sample(args) -> int:
    family_spec(args.family)
    data = _read(args.state, "states")
    _guard_output(args.output, [args.state])
    from .families import named_family
    from .sampling import sample_direct, sample_two_stage
    from .serialize import states_from_dict, write_records

    rho = states_from_dict(data)[0][1]
    c, s = named_family(args.family)
    if args.scheme:
        records = sample_two_stage(s, rho, args.n, args.seed)
    else:
        records = sample_direct(c, rho, args.n, args.seed)
    write_records(args.output, records)
    _emit({"written": args.output, "n": len(records)})
    return 0


def _cmd_gof(args) -> int:
    _check_alpha(args.alpha)
    regions = None if args.bins in ("sphere12", "circle16") else _read(args.bins, "regions")
    from . import serialize as ser
    from .sampling import compare_samples

    rec_a = ser.read_records(args.a)
    rec_b = ser.read_records(args.b)
    bins = args.bins if regions is None else [r for _, r in ser.regions_from_dict(regions)]
    report = compare_samples(rec_a, rec_b, bins)
    _emit(ser.gof_report_to_dict(report))
    if args.alpha is not None and report.p_value < args.alpha:
        return 1
    return 0


def _cmd_merit(args) -> int:
    _check_tol(args.tol)
    family_spec(args.family)
    data = _read(args.spec, "merit spec")
    _guard_output(args.output, [args.spec])
    from . import serialize as ser
    from .families import named_family
    from .merit import bayes_gain, check_equal_optimality

    spec = ser.bayes_spec_from_dict(data)
    c, s = named_family(args.family)
    if args.scheme:
        report = check_equal_optimality(
            s, spec, x_samples=args.samples, seed=args.seed or 0
        )
        _finish(args.output, ser.merit_report_to_dict(report))
        if args.tol is not None and report.spread > args.tol:
            return 1
        return 0
    _finish(args.output, {"schema": 1, "value": bayes_gain(c, spec)})
    return 0


def _cmd_tomo(args) -> int:
    if args.family is not None:
        family_spec(args.family)
    data = _read(args.target, "target")
    if "matrix" not in data:
        raise SchemaError("target: missing field 'matrix'")
    povm = _read(args.povm, "povm") if args.povm else None
    state = _read(args.state, "states") if args.state else None
    _guard_output(args.output, [args.target, args.povm, args.records, args.state])
    from . import serialize as ser
    from .families import named_family
    from .tomography import dual_coefficients, estimate_expectation

    target = ser.matrix_from_json(data["matrix"], "target")
    if povm is not None:
        dual = dual_coefficients(ser.povm_from_dict(povm), target)
        residual = dual.residual
    else:
        c, _ = named_family(args.family)
        dual = c.dual(target)
        residual = float(c.dual_residual(dual))
    payload = {"dual": ser.dual_to_dict(dual), "residual": residual}
    if args.records:
        records = ser.read_records(args.records)
        rho = ser.states_from_dict(state)[0][1] if state else None
        est = estimate_expectation(records, dual, rho_exact=rho)
        payload["estimate"] = ser.estimate_report_to_dict(est)
    _finish(args.output, payload)
    return 0


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povmkit",
        description=(
            "Validate, decompose, randomize, sample, and post-process finite "
            "and continuous POVMs over JSON files."
        ),
        epilog=(
            "Tolerance overrides (repeatable): validate takes --tolerance psd=1e-9 "
            "and complete=1e-9; extremal and decompose take --tolerance gap=1e-8. "
            "Any other key is malformed input."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tolerance", action="append", metavar="KEY=VALUE")

    p = sub.add_parser("validate", help="check the POVM axioms")
    p.add_argument("povm")
    add_tol(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("extremal", help="extremality verdict and kernel dimension")
    p.add_argument("povm")
    add_tol(p)
    p.set_defaults(fn=_cmd_extremal)

    p = sub.add_parser("decompose", help="convex decomposition into extremal POVMs")
    p.add_argument("povm")
    p.add_argument("--max-terms", type=int, default=256)
    p.add_argument("-o", "--output")
    add_tol(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("equiv", help="continuous POVM vs randomized scheme")
    p.add_argument("--family", required=True, help="spin or phase:<d>")
    p.add_argument("--states", required=True)
    p.add_argument("--regions", required=True)
    p.add_argument("--mode", choices=["det", "mc"], default="det")
    p.add_argument("--budget", type=int, default=None,
                   help="Monte Carlo draw count (--mode mc only)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("sample", help="draw measurement outcomes")
    p.add_argument("--family", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--direct", action="store_true")
    group.add_argument("--scheme", action="store_true")
    p.add_argument("--state", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("gof", help="two-sample chi-square over a partition")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--bins", required=True, help="sphere12 | circle16 | regions.json")
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(fn=_cmd_gof)

    p = sub.add_parser("merit", help="Bayes gain of a family or scheme members")
    p.add_argument("--family", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--scheme", action="store_true")
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_merit)

    p = sub.add_parser("tomo", help="dual processing and expectation estimates")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--povm")
    group.add_argument("--family")
    p.add_argument("--target", required=True)
    p.add_argument("--records")
    p.add_argument("--state")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_tomo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a message; normalize exit code
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (
        SchemaError,
        DimensionMismatch,
        InvalidDimension,
        InvalidPOVM,
        NonHermitianInput,
        SpaceMismatch,
        OSError,  # a path that cannot be opened: missing, a directory, no permission
    ) as exc:
        return _fail_input(str(exc))
    except PovmkitError as exc:
        sys.stderr.write(dumps_canonical({"check_failed": str(exc)}))
        sys.stderr.write("\n")
        return 1
    except ValueError as exc:
        return _fail_input(str(exc))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

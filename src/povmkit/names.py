"""Family names and equivalence modes, checked with the standard library
alone.

`families` builds a family from what `family_spec` returns and runs an
equivalence check in the mode `check_mode` returns, and the CLI calls both
on argv before numpy loads: so a bad family name, a phase dimension out of
range or a budget the mode does not take exits 2 at once, by the same rule
and with the same message as a library call.
"""

from __future__ import annotations

import numbers

from .errors import InvalidDimension, SchemaError

MAX_DIM = 16  # the largest Hilbert-space dimension povmkit supports


def phase_dimension(d: int) -> int:
    """``d``, if a phase family has it: ``2 <= d <= MAX_DIM``, else
    `InvalidDimension`."""
    if d < 2:
        raise InvalidDimension(f"phase measurement needs d >= 2, got {d}")
    if d > MAX_DIM:
        raise InvalidDimension(f"dimension {d} beyond supported {MAX_DIM}")
    return d


def family_spec(name: str) -> tuple[str, int | None]:
    """``("spin", None)`` or ``("phase", d)`` for a family name.

    Names are ``spin`` (aliases ``spin_direction``, ``stern_gerlach``)
    and ``phase:<d>``; anything else raises `SchemaError`, and a dimension
    out of range `InvalidDimension` (`phase_dimension`).
    """
    if name in ("spin", "spin_direction", "stern_gerlach"):
        return "spin", None
    kind, sep, arg = name.partition(":")
    if kind != "phase":
        raise SchemaError(f"unknown family {name!r}")
    if not sep:
        raise SchemaError("phase family needs a dimension, e.g. phase:3")
    try:
        d = int(arg)
    except ValueError as exc:
        raise SchemaError(f"bad family spec {name!r}") from exc
    return "phase", phase_dimension(d)


def check_mode(mode, budget) -> tuple[str, int | None]:
    """The long spelling of ``mode`` and its Monte Carlo draw count (None
    in deterministic mode, which takes no budget); an unknown mode, a
    deterministic budget, or a montecarlo budget that is not an integer
    or is below 2 raises `ValueError`."""
    if mode not in ("det", "deterministic", "mc", "montecarlo"):
        raise ValueError(f"unknown mode {mode!r}")
    long = {"det": "deterministic", "mc": "montecarlo"}.get(mode, mode)
    if budget is None:
        return long, None if long == "deterministic" else 100_000
    if long == "deterministic":
        raise ValueError(f"deterministic mode takes no budget, got {budget!r}")
    if not isinstance(budget, numbers.Integral):
        raise ValueError(f"montecarlo budget must be an integer draw count, got {budget!r}")
    if budget < 2:  # one draw has no standard error
        raise ValueError(f"montecarlo budget must be at least 2, got {budget}")
    return long, budget

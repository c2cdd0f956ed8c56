"""Family names, equivalence modes, draw counts, seeds and row ids,
checked with the standard library alone.

`families` builds a family from what `family_spec` returns and runs an
equivalence check in the mode `check_mode` returns, `sampling` checks its
draw counts and seeds by `check_draws`, and the CLI calls all three on
argv before numpy loads: so a bad family name, a phase dimension out of
range, a budget the mode does not take, a draw count below 1 or a seed
outside ``[0, 2**64)`` exits 2 at once, by the same rule and with the same
message as a library call.  `families` and `serialize` reject a repeated
state or region id by one rule, `check_unique_ids`.
"""

from __future__ import annotations

import numbers
import operator

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


def check_draws(n: int | None = None, seed: int | None = None) -> None:
    """Raise `ValueError` for a draw count ``n`` below 1 or a ``seed``
    outside ``[0, 2**64)``, the keys of distinct generators; None is not
    checked."""
    if n is not None and n < 1:
        raise ValueError(f"need at least one draw, got n={n}")
    if seed is not None and not 0 <= operator.index(seed) < 1 << 64:
        raise ValueError(f"seed must satisfy 0 <= seed < 2**64, got {seed}")


def check_unique_ids(ids, what: str, error: type[Exception]) -> list:
    """The ids of an iterable, in order; the first id that repeats an
    earlier one raises ``error``, naming both indices as ``what``.  The
    iterable is read lazily, so an id that fails a caller's own check
    raises in its turn."""
    seen: dict = {}
    for k, rid in enumerate(ids):
        if rid in seen:
            raise error(f"{what} {k}: id {rid!r} repeats {what} {seen[rid]}")
        seen[rid] = k
    return list(seen)

"""Timing, tracing and result checking shared by every workload.

A workload runs in rounds.  A round is a fixed list of operations, each a
single call into povmkit made through :meth:`Recorder.call`, which times it.
Results are checked after the round has finished, outside the timed block,
so checking never counts as program time.

Op durations are reported in reference seconds.  A shared host can slow the
whole machine down by up to a factor of two for minutes at a time, which no
statistic over one run can undo.  So a fixed reference chunk of work runs
between ops (untimed, every REFERENCE_INTERVAL_S or so), and each round's
durations are scaled by how much slower than nominal the chunk ran during
that round.

The optional :class:`Tracer` adds spans around inner povmkit functions by
replacing them at their module or class attribute for the length of a round;
the benchmark's own files are the only place where this wrapping happens.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

perf_counter = time.perf_counter

# Inner public functions wrapped in traced rounds: (module, attribute path,
# metric prefix).  A target that no longer exists is skipped and reports
# zero calls.
INNER_TARGETS = (
    ("povmkit.operators", "hermitian_nullspace", "operators.hermitian_nullspace"),
    ("povmkit.operators", "hermitian_to_coords", "operators.hermitian_to_coords"),
    ("povmkit.operators", "coords_to_hermitian", "operators.coords_to_hermitian"),
    ("povmkit.operators", "support", "operators.support"),
    ("povmkit.operators", "eigh", "operators.eigh"),
    ("povmkit.extremality", "perturbation_space", "extremality.perturbation_space"),
    ("povmkit.extremality", "max_step", "extremality.max_step"),
    ("povmkit.quadrature", "integrate_sphere_region", "quadrature.integrate_sphere_region"),
    ("povmkit.quadrature", "integrate_intervals", "quadrature.integrate_intervals"),
    ("povmkit.quadrature", "sphere_band_nodes", "quadrature.sphere_band_nodes"),
    ("povmkit.families", "ContinuousPOVM.region_probability", "families.region_probability"),
)

# Spans beyond this many are aggregated but not kept, so that a traced run of
# the split-tree decomposition (hundreds of thousands of coordinate-map calls)
# stays small in memory and on disk.
MAX_KEPT_SPANS = 100_000


# About the time of one reference chunk on an unloaded 2 GHz Xeon core
# (Python 3.11, single-threaded OpenBLAS).  A duration d measured while the
# chunk took t seconds reads d * REFERENCE_CHUNK_S / t reference seconds.
REFERENCE_CHUNK_S = 0.0015
# Chunks run back to back after a round too short to hold one.
REFERENCE_CHUNKS = 8
# Inside a round, one chunk runs after the op that ends this long after the
# previous chunk, so that the chunks sample the host over the whole round.
REFERENCE_INTERVAL_S = 0.05

_REF_RNG = np.random.default_rng(0)
_REF_MATS = []
for _d in (4, 9):
    _g = _REF_RNG.normal(size=(_d, _d)) + 1j * _REF_RNG.normal(size=(_d, _d))
    _REF_MATS.append(_g + _g.conj().T)
_REF_VEC = _REF_RNG.normal(size=8000)


def _reference_chunk() -> float:
    """Time one fixed piece of work of the kinds povmkit does.

    Interpreter arithmetic with dict and list traffic and JSON encoding,
    vectorised numpy over a few thousand points, and small dense Hermitian
    linear algebra.  It never touches povmkit, so a change to povmkit cannot
    change it.
    """
    t0 = perf_counter()
    acc = 0.0
    rows = []
    table = {}
    for i in range(400):
        x = (i * 0.37) % 1.0
        acc += x * x
        table[i % 97] = table.get(i % 97, 0.0) + x
        if i % 3 == 0:
            rows.append({"omega": [x, acc], "i": i})
    json.dumps(rows)
    x = np.random.default_rng(1).uniform(0.0, 6.28, _REF_VEC.size)
    y = np.cos(x) * _REF_VEC + np.sin(x)
    np.sort(y)
    np.cumsum(y)
    for m in _REF_MATS:
        w, v = np.linalg.eigh(m)
        np.linalg.svd(m)
        (v * w) @ v.conj().T
    return perf_counter() - t0


def reference_seconds() -> list[float]:
    """Times of REFERENCE_CHUNKS back-to-back reference chunks."""
    return [_reference_chunk() for _ in range(REFERENCE_CHUNKS)]


def reference_scale(chunks) -> float:
    """Factor that turns seconds measured beside ``chunks`` into reference seconds."""
    return REFERENCE_CHUNK_S / statistics.median(chunks)


# Estimates must lie within this many standard errors of the exact value.
SIGMAS = 5.0


class OpFailed(Exception):
    """Raised inside a round when a call failed, to skip dependent calls."""


class Tracer:
    """In-memory span recorder with online busy and self time per name.

    A span is ``(id, name, start, end, parent id, op id)``.  Self time is a
    span's duration minus the time covered by its child spans.
    """

    def __init__(self, t0: float):
        self.t0 = t0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[list] = []
        self.agg: dict[str, list] = {}
        self.op = -1
        self._next_id = 0
        self._patches: list[tuple] = []

    def enter(self, name: str):
        self._next_id += 1
        self.stack.append([self._next_id, name, perf_counter(), 0.0])

    def exit(self):
        end = perf_counter()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        a = self.agg.setdefault(name, [0, 0.0, 0.0])
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append(
                (sid, name, start - self.t0, end - self.t0,
                 parent[0] if parent is not None else None, self.op)
            )
        else:
            self.dropped += 1

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def install(self):
        for module_name, attr_path, name in INNER_TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count(self, name: str) -> int:
        a = self.agg.get(name)
        return a[0] if a else 0

    def take_round(self) -> dict[str, list]:
        """Aggregates since the last call, then reset them."""
        out, self.agg = self.agg, {}
        return out


@dataclass
class Op:
    label: str
    seconds: float = 0.0
    error: str | None = None


@dataclass
class Round:
    traced: bool
    wall: float = 0.0
    scale: float = 1.0  # reference seconds per measured second
    ref: list[float] = field(default_factory=list)  # reference chunks run inside
    ops: list[Op] = field(default_factory=list)
    direct: dict[str, list] = field(default_factory=dict)  # label -> [calls, busy]
    inner: dict[str, list] = field(default_factory=dict)   # name -> [calls, busy, self]
    counts: dict[str, float] = field(default_factory=dict)  # workload counters


class Recorder:
    """Runs one round's calls, timing each, and defers their checks."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.round: Round | None = None
        self._open: Op | None = None
        self._pending: list[tuple] = []
        self._verdicts: dict[tuple, str | None] = {}
        self._last_ref = perf_counter()

    def begin(self, traced: bool) -> Round:
        self.round = Round(traced=traced)
        self._pending = []
        self._last_ref = perf_counter()
        return self.round

    def _sample_host(self):
        """Run a reference chunk if the last one is REFERENCE_INTERVAL_S old."""
        if perf_counter() - self._last_ref >= REFERENCE_INTERVAL_S:
            self.round.ref.append(_reference_chunk())
            self._last_ref = perf_counter()

    def _new_op(self, label: str) -> Op:
        op = Op(label)
        self.round.ops.append(op)
        if self.tracer is not None:
            self.tracer.op = len(self.round.ops) - 1
        return op

    @contextlib.contextmanager
    def op(self, label: str):
        """Group the calls made inside into one op; its latency is their sum."""
        self._open = self._new_op(label)
        try:
            yield self._open
        finally:
            self._open = None

    def call(self, label: str, fn, *args, **kwargs):
        """Time one call into povmkit; raise OpFailed if it raises.

        The call is its own op unless made inside :meth:`op`.
        """
        r = self.round
        op = self._open or self._new_op(label)
        tracer = self.tracer if r.traced else None
        if tracer is not None:
            tracer.enter(label)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every failure of the program is counted
            op.error = f"{type(exc).__name__}: {exc}"
            raise OpFailed(op.error) from exc
        finally:
            seconds = perf_counter() - t0
            op.seconds += seconds
            if tracer is not None:
                tracer.exit()
            d = r.direct.setdefault(label, [0, 0.0])
            d[0] += 1
            d[1] += seconds
            self._sample_host()
        return result

    def timed_only(self, label: str, seconds: float) -> Op:
        """Record an op timed elsewhere (a subprocess)."""
        op = self._new_op(label)
        op.seconds = seconds
        d = self.round.direct.setdefault(label, [0, 0.0])
        d[0] += 1
        d[1] += seconds
        self._sample_host()
        return op

    def last_op(self) -> Op:
        return self.round.ops[-1]

    def check(self, op: Op, fn, *args, key=None):
        """Defer ``fn(*args)`` until after the round.

        ``fn`` returns None when the result is correct, else a message that
        marks ``op`` failed.  With a ``key`` (a digest of the result), the
        verdict is reused for a bitwise identical result in a later round.
        """
        self._pending.append((op, fn, args, key))

    def pending(self) -> list[tuple]:
        return self._pending

    def run_checks(self):
        for op, fn, args, key in self._pending:
            if op.error is not None:
                continue
            cache_key = None if key is None else (fn.__qualname__, key)
            if cache_key is not None and cache_key in self._verdicts:
                verdict = self._verdicts[cache_key]
            else:
                try:
                    verdict = fn(*args)
                except Exception as exc:  # a check that cannot run fails the op
                    verdict = f"check raised {type(exc).__name__}: {exc}"
                if cache_key is not None:
                    self._verdicts[cache_key] = verdict
            if verdict is not None:
                op.error = verdict
        self._pending = []


def random_hermitian(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def check_estimate(estimate: float, exact: float, std_error: float):
    """None if ``estimate`` lies within SIGMAS standard errors of ``exact``."""
    if not std_error > 0:
        return "zero standard error"
    z = abs(estimate - exact) / std_error
    return None if z <= SIGMAS else f"estimate {z:.1f} standard errors from the exact value"


def digest(*arrays) -> str:
    """Stable hex digest of numbers and arrays (inputs and results)."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        arr = np.ascontiguousarray(np.asarray(a))
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()

"""povmkit benchmark: one workload per process, every output checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

Workloads: ``decompose``, ``records``, ``mixing`` and ``cli`` (see the
``wl_*.py`` modules and ``BENCHMARK.json``).  Inputs come from ``--seed``.
The run repeats the workload's round of operations until ``--seconds`` is
spent and checks every result.  With ``--trace 0`` it reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and
traced rounds and reports the per-layer metrics, the tracing overhead among
them, and writes the spans as NDJSON under ``.perfbench_out/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a full report with version stamps
precedes it and is also written under ``.perfbench_out/``.

Op times are in reference seconds (see ``harness.py``): measured seconds
scaled by how much slower than nominal a fixed reference chunk of work, run
between the ops of each round, ran during that round.  The report keeps the
measured round walls beside the scale of each.  ``setup_s`` and
``cli.import_s`` are measured seconds: they are mostly process start and
imports, which the reference chunk does not model.  The end-to-end
statistics are over the ops of one round, each op at its median over the
rounds: ``wall_s`` is their sum, ``op_p50_s`` their median and
``op_tail_s`` the latency at the highest percentile with at least ten ops
beyond it.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads; children inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import (  # noqa: E402
    INNER_TARGETS,
    Recorder,
    Tracer,
    perf_counter,
    reference_scale,
    reference_seconds,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("decompose", "records", "mixing", "cli")
SETUP_PROBES = {"standard": 3, "smoke": 1}
IMPORT_PROBES = {"standard": 3, "smoke": 1}
MIN_ROUNDS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("standard", "smoke"), default="standard",
                    help="input sizes; 'smoke' is the minimal size the smoke test uses")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one result of the first round before it is checked "
                         "(decompose and cli only; used by the smoke test)")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.inject_fault and args.workload not in ("decompose", "cli"):
        ap.error("--inject-fault applies to the decompose and cli workloads")
    return args


def make_workload(args, workdir):
    if args.workload == "decompose":
        from wl_decompose import DecomposeWorkload as cls
    elif args.workload == "records":
        from wl_records import RecordsWorkload as cls
    elif args.workload == "mixing":
        from wl_mixing import MixingWorkload as cls
    else:
        from wl_cli import CliWorkload as cls
    return cls(args.seed, args.scale, str(workdir))


def probe_setup(args, workdir):
    """Child side of a set-up measurement: set up, one warm-up op, signal."""
    wl = make_workload(args, workdir)
    rec = Recorder()
    rec.begin(traced=False)
    wl.warmup(rec)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its warm-up op.

    These are measured seconds: most of this time is process start and
    imports, which the reference chunk does not model.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--probe-setup"]
    samples = []
    for _ in range(SETUP_PROBES[args.scale]):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe exited {code} without finishing set-up")
    return samples


def measure_import(args) -> float:
    """Fresh ``import povmkit`` minus a bare interpreter, medians of a few pairs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = {"pass": [], "import povmkit": []}
    for _ in range(IMPORT_PROBES[args.scale]):
        for code in times:
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           stdin=subprocess.DEVNULL, timeout=120)
            times[code].append(perf_counter() - t0)
    return statistics.median(times["import povmkit"]) - statistics.median(times["pass"])


def run_rounds(args, wl, rec, tracer):
    """Repeat the round until the time is spent; with tracing, alternate.

    An untraced run makes at least MIN_ROUNDS rounds, so that every
    end-to-end number is a median over rounds; a traced run ends after a
    traced round.  The reference chunks run inside a round give its scale
    to reference seconds.
    """
    rounds = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        r = rec.begin(traced)
        if traced:
            tracer.install()
        try:
            t0 = perf_counter()
            wl.run_round(rec)
            r.wall = perf_counter() - t0 - sum(r.ref)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            r.inner = tracer.take_round()
        if args.inject_fault and not rounds:
            wl.corrupt(rec.pending())
        rec.run_checks()
        r.scale = reference_scale(r.ref or reference_seconds())
        rounds.append(r)
        if tracer is not None:
            if r.traced and perf_counter() - start + r.wall > args.seconds:
                return rounds
        elif len(rounds) >= MIN_ROUNDS and perf_counter() - start + r.wall > args.seconds:
            return rounds


def op_latencies(rounds):
    """Latency of each op of the round in reference seconds.

    Every round runs the same ops on the same inputs in the same order, so an
    op is known by its position and label; its latency is the median over
    the rounds of its scaled time.
    """
    samples = {}
    for r in rounds:
        for k, op in enumerate(r.ops):
            samples.setdefault((k, op.label), []).append(op.seconds * r.scale)
    return [statistics.median(xs) for xs in samples.values()]


def tail(latencies):
    """Latency at the highest percentile with at least ten ops beyond it."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(wl, rounds, setup_samples):
    plain = [r for r in rounds if not r.traced]
    latencies = op_latencies(plain)
    tail_s, tail_pct = tail(latencies)
    if wl.name == "cli":
        rss_kb = max(r.counts["child_maxrss_kb"] for r in rounds)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    info = {"op_time_unit": "reference seconds", "ops_per_round": len(latencies),
            "op_tail_percentile": tail_pct, "rounds": len(plain),
            "round_wall_s": [r.wall for r in rounds],
            "round_scale": [r.scale for r in rounds],
            "round_reference_chunks": [len(r.ref) for r in rounds],
            "round_wall_median_s": statistics.median(r.wall for r in plain),
            "setup_samples_s": setup_samples,
            "calls_and_busy_s_first_round": rounds[0].direct}
    return metrics, info


def per_layer(wl, rounds, import_s):
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    first = rounds[0]
    m = {}
    for label in sorted({label for r in rounds for label in r.direct}):
        busy = statistics.median(r.direct.get(label, (0, 0.0))[1] * r.scale for r in plain)
        m[f"{label}.calls"] = first.direct.get(label, (0, 0.0))[0]
        m[f"{label}.busy_s"] = busy
        if label.startswith("cli."):
            m[f"{label}.wall_s"] = busy
        draws = first.counts.get(label + ".draws", 0)
        if draws and busy > 0:
            m[f"{label}.draws_per_s"] = draws / busy
    for _, _, name in INNER_TARGETS:
        rows = [(r.inner.get(name, (0, 0.0, 0.0)), r.scale) for r in traced]
        m[f"{name}.calls"] = rows[0][0][0]
        m[f"{name}.busy_s"] = statistics.median(x[1] * k for x, k in rows)
        m[f"{name}.self_s"] = statistics.median(x[2] * k for x, k in rows)
    terms = first.counts.get("decomp_terms", 0)
    m["decomp_terms"] = terms
    ps_calls = traced[0].counts.get("ps_calls_in_decompositions", 0)
    m["extremality.useful_ratio"] = terms / ps_calls if ps_calls else 0.0
    m["serialize.records.bytes"] = first.counts.get("serialize.records.bytes", 0)
    m["trace.overhead_s"] = (statistics.median(r.wall * r.scale for r in traced)
                             - statistics.median(r.wall * r.scale for r in plain))
    m["cli.import_s"] = import_s
    return m


def stamp(args):
    import numpy
    import scipy

    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run(args, spec, workdir):
    setup_samples = measure_setup(args)
    wl = make_workload(args, workdir)
    tracer = Tracer(perf_counter()) if args.trace else None
    rec = Recorder(tracer)
    rec.begin(traced=False)
    wl.warmup(rec)
    rounds = run_rounds(args, wl, rec, tracer)

    known = getattr(wl, "known_defects", {})
    ops = [op for r in rounds for op in r.ops]
    bad = [op for op in ops if op.error is not None]
    failures = Counter((op.label, op.error) for op in bad)
    metrics, info = end_to_end(wl, rounds, setup_samples)
    metrics["error_rate"] = len(bad) / len(ops)
    if args.trace:
        metrics.update(per_layer(wl, rounds, measure_import(args)))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.ndjson"
        with open(trace_path, "w") as fh:
            for sid, name, start, end, parent, op in tracer.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
        info.update(spans_file=str(trace_path.relative_to(ROOT)),
                    spans_kept=len(tracer.spans), spans_dropped=tracer.dropped)
    report = {
        "stamp": stamp(args),
        "inputs_digest": wl.inputs_digest,
        "attempted": len(ops), "failed": len(bad),
        "failures": [{"op": label, "error": error, "count": n,
                      "known_defect": known.get(label)}
                     for (label, error), n in sorted(failures.items())],
        "info": info,
        "metrics": metrics,
    }
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        # Failures of the cases listed as known defects are counted in
        # "failed" but do not make the run incorrect.
        "correct": all(op.label in known for op in bad),
        "attempted": len(ops),
        "failed": len(bad),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "povmkit" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        sys.stderr.write("perfbench: src/povmkit or BENCHMARK.json not found; "
                         "run from the root of a povmkit checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import povmkit

    if Path(povmkit.__file__).resolve().parent != (SRC / "povmkit").resolve():
        sys.stderr.write(f"perfbench: imported povmkit from {povmkit.__file__}, not src/\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe_setup:
            return probe_setup(args, workdir)
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

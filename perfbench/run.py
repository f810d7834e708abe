"""nikulat benchmark: one workload per process, every answer checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {audit,witness,census} --seed N \\
        --seconds S --trace {0,1}

The package is imported from ``src/`` of the current directory; without it
the benchmark exits with code 2 before measuring anything.  Single process,
single thread, standard library only.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  Every
time is in normalised seconds: wall time scaled by the interpreter speed
measured while it ran (see :mod:`speed`), because on a shared host the
interpreter's speed can drift by 1.7x within one run.  The report also keeps the raw wall times.

* ``setup_s``: median over 7 fresh interpreter processes of importing
  nikulat and calling ``build_model()`` and ``default_generators()``.
* ``wall_s``: median time of one pass.  Passes repeat until ``--seconds``
  have elapsed (at least one).
* ``op_p50_ms`` / ``op_tail_ms``: each operation's latency is its median over
  the passes; these are the median and the highest percentile of
  (99.9, 99, 95, 90, 75) with at least ten operations beyond it, else the
  maximum.  An operation is a search (witness), one classified vector
  (census) or one whole ``nikulat audit`` command (audit).
* ``ops_per_s``: operations per second of the operations' own phase.
* ``first_result_s``: census, from calling the enumerator to its first
  vector; witness, the median search latency, since a search has one result;
  audit, the command latency, since the report is written at the end.
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

``--trace 1`` runs untraced and traced passes in turn and reports the
per-layer metrics of the traced ones (see :mod:`tracing`), also in
normalised seconds; its overhead is the traced minus the untraced median
pass time.

The last line on stdout is the result object; the full report (run metadata,
exact counts, failures, per-pass times) goes to ``.bench_out/`` together with
the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed
import tracing
import workloads

SETUP_PROBES = 7
TAIL_LADDER = (99.9, 99, 95, 90, 75)

PROBE = """
import sys, time
sys.path.insert(0, sys.argv[2])
import speed
with speed.SpeedMeter() as meter:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import nikulat
    nikulat.build_model()
    nikulat.default_generators()
    t1 = time.perf_counter()
    meter.settle()
print(meter.seconds(t0, t1), meter.raw(t0, t1))
"""

CLAIM_IDS = (
    "table-selfconsistency", "reflection-chain", "two-orbit-dichotomy", "divisibility-remark",
    "third-orbit-discriminant", "eta-embedding", "invariant-type-a", "antiinvariant-type-b",
    "mt-coefficients", "type-polarisation-map", "picard-sublattice-index",
)

E2E = (
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"), ("first_result_s", "s"), ("peak_rss_mb", "MB"),
)

CALLS = (
    "intmat.matvec", "intmat.smith_decomposition", "lattice.pair", "lattice.divisibility",
    "lattice.is_primitive", "lattice.saturate", "isometry.orbit_explore",
    "isometry.same_orbit_witness", "model.classify_orbit", "model.vector_profile",
    "model.classify_isotropic_type", "exprs.parse_vector",
)
SELF_TIMES = (
    "intmat.matvec", "intmat.smith_decomposition", "lattice.pair", "lattice.divisibility",
    "lattice.saturate", "lattice.check_embedding", "isometry.orbit_explore",
    "isometry.same_orbit_witness", "model.enumerate", "model.classify_orbit",
    "model.vector_profile", "model.classify_isotropic_type", "exprs.parse_vector",
    "serialize.dumps", "audit.run_all", "cli.main",
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{n}.calls", "count", "lower") for n in CALLS]
    out += [(f"{n}.self_s", "s", "lower") for n in SELF_TIMES]
    out += [
        ("isometry.apply.calls", "count", "lower"),
        ("isometry.fresh_ratio", "1", "higher"),
        ("isometry.orbit_explore.members", "count", "higher"),
        ("isometry.same_orbit_witness.word_len", "count", "lower"),
        ("model.enumerate.first_s", "s", "lower"),
        ("model.enumerate.yielded", "count", "higher"),
        ("model.build_model.self_s", "s", "lower"),
        ("model.default_generators.self_s", "s", "lower"),
    ]
    out += [(f"audit.claim.{c}.s", "s", "lower") for c in CLAIM_IDS]
    out += [(f"{layer}.errors", "count", "lower") for layer in tracing.LAYERS]
    out += [("trace.overhead_s", "s", "lower"), ("trace.uncovered_share", "1", "lower")]
    return out


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder percentile
    with at least ten samples beyond it; the maximum when there is none."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        beyond = int(n * (1 - p / 100) + 1e-9)
        if beyond >= 10:
            rank = (n - 1) * p / 100
            lo = int(rank)
            hi = min(lo + 1, n - 1)
            return p, ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo), beyond
    return 100.0, ordered[-1], 0


def pass_seconds(raw: dict, clock) -> float:
    return sum(clock.seconds(*span) for span in raw["intervals"])


def end_to_end(passes: list[dict], clock, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    median = statistics.median
    per_op = [median(clock.seconds(*op) for op in samples) for samples in zip(*(p["ops"] for p in passes))]
    p50 = median(per_op)
    tail_p, tail_v, beyond = tail(per_op)
    walls = [pass_seconds(p, clock) for p in passes]
    phases = [clock.seconds(*p["ops_phase"]) if "ops_phase" in p else w for p, w in zip(passes, walls)]
    values = {
        "setup_s": median(s for s, _ in setup),
        "wall_s": median(walls),
        "ops_per_s": len(per_op) / median(phases),
        "op_p50_ms": 1000 * p50,
        "op_tail_ms": 1000 * tail_v,
        "first_result_s": median(clock.seconds(*p["first"]) for p in passes) if "first" in passes[0] else p50,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "operations": len(per_op),
        "tail_percentile": tail_p,
        "tail_beyond": beyond,
        "passes": len(passes),
        "pass_wall_s": walls,
        "pass_raw_wall_s": [sum(clock.raw(*span) for span in p["intervals"]) for p in passes],
        "setup_probes_s": [s for s, _ in setup],
        "setup_probes_raw_s": [r for _, r in setup],
        "speed_ticks": len(clock.loops),
        "speed_quartiles": statistics.quantiles([speed.CAL_NOMINAL_S / t for t in clock.loops], n=4),
    }
    return values, info


# ---------------------------------------------------------------------------
# run metadata (read only; nothing is pinned or reconfigured)


def proc_snapshot() -> dict:
    snap = {"time": time.time()}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
        snap["cpu_ticks"] = sum(fields[:8])
        snap["steal_ticks"] = fields[7] if len(fields) > 7 else 0
        with open("/proc/loadavg", encoding="ascii") as fh:
            snap["loadavg"] = [float(x) for x in fh.read().split()[:3]]
    except (OSError, ValueError, IndexError):
        pass
    return snap


def git_head() -> str | None:
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def metadata(args, before: dict, after: dict) -> dict:
    meta = {
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_head": git_head(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "loadavg_before": before.get("loadavg"),
        "loadavg_after": after.get("loadavg"),
    }
    if "steal_ticks" in before and "steal_ticks" in after:
        ticks = after["cpu_ticks"] - before["cpu_ticks"]
        meta["steal_ticks"] = after["steal_ticks"] - before["steal_ticks"]
        meta["steal_share"] = meta["steal_ticks"] / ticks if ticks else 0.0
    return meta


# ---------------------------------------------------------------------------


def setup_probes(src: str) -> list[tuple[float, float]]:
    """(normalised, raw) seconds of each probe process."""
    times = []
    here = os.path.dirname(os.path.abspath(__file__))
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", PROBE, src, here], capture_output=True, text=True, timeout=120, check=True
        )
        normalised, raw = out.stdout.split()
        times.append((float(normalised), float(raw)))
    return times


def checked(workload, raw: dict) -> dict:
    """Check a pass's answers right away and keep only its timestamps and the
    check's result, so that no answers stay alive during later passes."""
    slim = {key: raw[key] for key in ("intervals", "ops", "first", "ops_phase") if key in raw}
    slim["check"] = workload.check(raw)
    return slim


def timed_passes(workload, seconds: float) -> tuple[list[dict], speed.SpeedMeter]:
    passes = []
    with speed.SpeedMeter() as meter:
        t_end = time.perf_counter() + seconds
        while not passes or time.perf_counter() < t_end:
            passes.append(checked(workload, workload.run_pass()))
        meter.settle()
    return passes, meter


def traced_passes(workload, tracer, seconds: float):
    """Alternate untraced and traced passes until ``seconds`` have elapsed."""
    untraced, traced = [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        untraced.append(checked(workload, workload.run_pass()))
        lo = len(tracer.start)
        tracer.run_id = 0
        with tracer.installed(), tracer.span("bench.pass") as root:
            raw = workload.run_pass(tracer)
        traced.append((checked(workload, raw), lo, len(tracer.start), root))
    return untraced, traced


def layer_metrics(tracer, clock, traced, untraced, setup_range, claims_range) -> tuple[dict, dict]:
    median = statistics.median
    sums = [tracer.summarize(lo, hi, clock) for _, lo, hi, _ in traced]
    first = sums[0]
    empty = {"calls": 0, "self_s": 0.0, "errors": 0, "applies": 0, "results": [], "first_s": 0.0, "yielded": 0}

    def field(summary, span, key):
        return summary.get(span, empty)[key]

    values = {}
    for span in CALLS:
        values[f"{span}.calls"] = field(first, span, "calls")
    for span in SELF_TIMES:
        values[f"{span}.self_s"] = median(field(s, span, "self_s") for s in sums)
    orbits = field(first, "isometry.orbit_explore", "results")
    members = sum(size for size, _ in orbits)
    orbit_applies = field(first, "isometry.orbit_explore", "applies")
    words = [n for n in field(first, "isometry.same_orbit_witness", "results") if n is not None]
    values.update({
        "isometry.apply.calls": sum(s["applies"] for s in first.values()),
        "isometry.fresh_ratio": members / orbit_applies if orbit_applies else 0.0,
        "isometry.orbit_explore.members": members,
        "isometry.same_orbit_witness.word_len": sum(words),
        "model.enumerate.first_s": median(field(s, "model.enumerate", "first_s") for s in sums),
        "model.enumerate.yielded": field(first, "model.enumerate", "yielded"),
    })
    setup = tracer.summarize(*setup_range, clock)
    values["model.build_model.self_s"] = field(setup, "model.build_model", "self_s")
    values["model.default_generators.self_s"] = field(setup, "model.default_generators", "self_s")
    claims = tracer.summarize(*claims_range, clock)
    for claim in CLAIM_IDS:
        values[f"audit.claim.{claim}.s"] = claims.get(f"audit.claim.{claim}", {"s": 0.0})["s"]
    for layer in tracing.LAYERS:
        values[f"{layer}.errors"] = sum(s["errors"] for name, s in first.items() if name.startswith(layer + "."))
    traced_walls = [pass_seconds(raw, clock) for raw, *_ in traced]
    untraced_walls = [pass_seconds(raw, clock) for raw in untraced]
    traced_wall, untraced_wall = median(traced_walls), median(untraced_walls)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.uncovered_share"] = median(
        tracer.uncovered_share(root, raw["intervals"], clock) for raw, _, _, root in traced
    )

    repeat = [
        {name: (s["calls"], s["applies"], s["yielded"], s["results"]) for name, s in summary.items()}
        for summary in sums
    ]
    info = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "traced_wall_s": traced_walls,
        "untraced_wall_s": untraced_walls,
        "orbits": [{"members": size, "exhausted": ex} for size, ex in orbits],
        "counts_repeat_across_traced_passes": all(r == repeat[0] for r in repeat),
        "spans": {name: {k: s[k] for k in ("calls", "s", "self_s", "errors", "applies")} for name, s in first.items()},
    }
    return values, info


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: the self-test's small inputs (witness, census)")
    args = parser.parse_args(argv)
    if args.size not in workloads.SIZES[args.workload]:
        parser.error(f"workload {args.workload} has no {args.size} size")
    return args


def import_nikulat(src: str):
    if not os.path.isfile(os.path.join(src, "nikulat", "__init__.py")):
        raise SystemExit(f"error: no nikulat package under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import nikulat
    import nikulat.cli  # noqa: F401  (not imported by the package itself)

    if not os.path.abspath(nikulat.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported nikulat from {nikulat.__file__}, not from {src}")
    return nikulat


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    try:
        nk = import_nikulat(src)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    before = proc_snapshot()

    workload = workloads.WORKLOADS[args.workload](nk, args.seed, args.size, out_dir)
    report: dict = {}
    if args.trace:
        tracer = tracing.Tracer()
        with speed.SpeedMeter() as meter:
            with tracer.installed(), tracer.span("bench.setup"):
                nk.build_model()
                nk.default_generators()
            setup_range = (0, len(tracer.start))
            workload.prepare()
            untraced, traced = traced_passes(workload, tracer, args.seconds)
            lo = len(tracer.start)
            with tracer.installed():
                workload.traced_extra(tracer)
            claims_range = (lo, len(tracer.start))
            meter.settle()
        passes = untraced + [raw for raw, *_ in traced]
    else:
        setup = setup_probes(src)
        workload.prepare()
        passes, meter = timed_passes(workload, args.seconds)

    attempted, failures, counts = 1, [], []  # the 1 is the check that counts repeat
    for done in passes:
        n, fails, pass_counts = done["check"]
        attempted += n
        failures += fails
        counts.append(pass_counts)
    if any(c != counts[0] for c in counts):
        failures.append("exact counts differ between passes")

    base = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        values, info = layer_metrics(tracer, meter, traced, untraced, setup_range, claims_range)
        report["spans_file"] = base + ".spans.tsv.gz"
        info["span_count"] = tracer.write(report["spans_file"])
        units = {name: unit for name, unit, _ in per_layer_names()}
    else:
        values, info = end_to_end(passes, meter, setup)
        units = dict(E2E)
    after = proc_snapshot()

    correct = not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report.update({
        "meta": metadata(args, before, after),
        "result": result,
        "failed_ratio": len(failures) / attempted,
        "counts": counts[0],
        "info": info,
        "failures": failures[:50],
    })
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    for message in failures[:10]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"report: {base}.json", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

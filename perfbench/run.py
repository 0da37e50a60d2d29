"""Sweep-throughput benchmark: end-to-end metrics, or per-layer ones traced.

Run from the repository root::

    python3 perfbench/run.py --workload cold_sweep --seed 0 --seconds 10 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), then sweeps in a closed loop for ``--seconds`` (and at least
``min_sweeps`` sweeps) and reports the end-to-end metrics, times scaled to
a nominal host speed (hostspeed.py).  ``--trace 1`` sets up once, makes one warm-up sweep,
then alternates traced and untraced sweeps for ``--seconds`` and reports
the per-layer metrics (see README.md).  Every sweep's output goes through the correctness gate
(gate.py).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--pin`` rewrites expected.json from the current program at the default
seed; use it only for a change that is meant to alter the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_run")
COUNTS_PATH = os.path.join(OUT_DIR, "counts.json")
SETUPS = 2

#: Per-layer counters that must repeat exactly on every run of one program.
DETERMINISTIC = (
    "enumerate.candidates",
    "enumerate.duplicates",
    "perf.calls",
    "cost.calls",
    "memo.get.calls",
    "memo.hit_ratio",
    "coordinator.rows_folded",
)


def _median(values):
    return statistics.median(values) if values else 0.0


def run_sweep(sweep):
    """One closed-loop step: ``(start, wall seconds, results or None)``."""
    start = time.perf_counter()
    try:
        results = sweep()
    except Exception:  # noqa: BLE001 - a raising sweep is a counted failure
        traceback.print_exc()
        results = None
    return start, time.perf_counter() - start, results


def run_end_to_end(cls, seed: int, seconds: float, workdir: str, expected: dict):
    from gate import Gate
    from hostspeed import NOMINAL_CHUNK_S, HostSpeed
    from workloads import DEFAULT_SEED, n_designs

    bench = cls(seed, workdir)
    host = HostSpeed()
    setup_walls, setups = [], []
    reference = None
    try:
        host.start()
        for _ in range(SETUPS):
            bench.close()
            wall, scale, reference = host.measure(bench.setup, tick=True)
            # a set-up run in a child process reports its own time
            wall = getattr(bench, "setup_seconds", wall)
            setup_walls.append(wall)
            setups.append(wall * scale)
        gate = Gate(expected, seed == DEFAULT_SEED, reference)
        walls, scaled, rates = [], [], []
        loop_start = time.perf_counter()
        while (len(walls) < cls.min_sweeps
               or time.perf_counter() - loop_start < seconds):
            wall, scale, results = host.measure(
                lambda: run_sweep(bench.sweep)[2], cls.tick
            )
            gate.check(results)
            walls.append(wall)
            scaled.append(wall * scale)
            rates.append(n_designs(results or []) / (wall * scale))
    finally:
        bench.close()
    metrics = {
        "designs_per_s": _median(rates),
        "sweep_s": _median(scaled),
        "setup_s": _median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"  wall clock: sweep_s {_median(walls):.6g} s over {len(walls)} sweeps, "
          f"setup_s {_median(setup_walls):.6g} s; reference chunk median "
          f"{_median(host.chunks) * 1e3:.4g} ms (nominal {NOMINAL_CHUNK_S * 1e3:g} ms)")
    return gate, metrics, []


def sweep_layers(analysis: dict, tracer, bench) -> dict[str, float]:
    """The per-layer figures of one traced sweep (units in BENCHMARK.json)."""
    busy, calls, tagged, tagged_calls = (
        analysis["busy"], analysis["calls"], analysis["tagged"], analysis["tagged_calls"]
    )
    enum = {"candidates": 0, "duplicates": 0, "unrealizable": 0, "invalid": 0, "yielded": 0}
    for tally in tracer.enum_by_workload.values():
        for field in enum:
            enum[field] += tally[field]
    counters = tracer.counters

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {
        "enumerate.busy_s": busy["enumerate"],
        "enumerate.candidates": enum["candidates"],
        "enumerate.candidates_per_s": ratio(enum["candidates"], busy["enumerate"]),
        "enumerate.yield_ratio": ratio(enum["yielded"], enum["candidates"]),
        "enumerate.duplicates": enum["duplicates"],
        "enumerate.unrealizable": enum["unrealizable"],
        "enumerate.invalid": enum["invalid"],
        "perf.calls": calls["perf"],
        "perf.busy_s": busy["perf"],
        "cost.calls": calls["cost"],
        "cost.busy_s": busy["cost"],
        "cost.us_per_call": ratio(busy["cost"], calls["cost"], 1e6),
        "memo.load_s": busy["memo.load"],
        "memo.hit_ratio": ratio(counters["memo.hits"], calls["memo.get"]),
        "memo.flush.bytes": counters["memo.flush.bytes"],
        "engine.space_replays": counters["engine.space_replays"],
        "engine.self_s": analysis["self"]["engine"],
        "wire.encode.us_per_row": ratio(busy["wire.encode"], calls["wire.encode"], 1e6),
        "wire.decode.us_per_row": ratio(busy["wire.decode"], calls["wire.decode"], 1e6),
        "wire.bytes_per_row": ratio(counters["wire.bytes"], calls["wire.decode"]),
        "server.busy_s": busy["server"],
        "server.jobs": getattr(bench, "jobs", 0),
        "coordinator.rows_folded": getattr(bench, "rows", 0),
        "trace.coverage": analysis["coverage"],
    }
    for name in ("classify.signature", "classify.realizable", "memo.get", "memo.put", "memo.flush"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.busy_s"] = busy[name]
    for cfg in ("8x8", "16x16", "32x32"):
        m[f"perf.us_per_call.{cfg}"] = ratio(
            tagged[("perf", cfg)], tagged_calls[("perf", cfg)], 1e6
        )
    report = getattr(getattr(bench, "coordinator", None), "last_report", {})
    for key in ("fold_queue_peak", "reassigned", "fallbacks"):
        m[f"coordinator.{key}"] = report.get(key, 0)
    for layer, value in analysis["layer_self"].items():
        m[f"layer_self_s.{layer}"] = value
    return m


def baseline_rows(analysis: dict, tracer, results) -> dict[str, dict]:
    """ROADMAP Baseline columns per Table II workload of one traced sweep."""
    rows = {}
    for result in results:
        row = rows.setdefault(result.workload, {"designs": 0})
        row["designs"] += len(result.points) + len(result.failures)
    for name, row in rows.items():
        row["stt_candidates"] = tracer.enum_by_workload.get(name, {}).get("candidates", 0)
        for layer in ("enumerate", "perf", "cost"):
            row[f"{layer}_s"] = analysis["tagged"][(layer, name)]
    return rows


def run_traced(cls, seed: int, seconds: float, workdir: str, expected: dict):
    from gate import Gate
    from tracing import Tracer, analyze, traced_models
    from workloads import DEFAULT_SEED

    tracer = Tracer()
    bench = cls(seed, workdir, traced_models(tracer))
    main_thread = threading.get_ident()
    per_sweep: list[dict] = []
    untraced, traced, first_rows = [], [], []
    baseline = None
    try:
        reference = bench.setup()
        gate = Gate(expected, seed == DEFAULT_SEED, reference)
        loop_start = time.perf_counter()
        # warm-up: the first sweep of a process fills the program's caches,
        # which would bias the traced-minus-untraced overhead
        gate.check(run_sweep(bench.sweep)[2])
        while not traced or time.perf_counter() - loop_start < seconds:
            tracer.counters.clear()
            tracer.enum_by_workload.clear()
            first = len(tracer.spans)
            with tracer.patch():
                root = tracer.open("sweep")
                results = run_sweep(bench.traced_sweep)[2]
                tracer.close(root)
            gate.check(results)
            traced.append(root[2] - root[1])
            analysis = analyze(tracer.spans[first:], root, cls.root_layer, main_thread)
            per_sweep.append(sweep_layers(analysis, tracer, bench))
            if results is not None and baseline is None:
                baseline = baseline_rows(analysis, tracer, results)
            start, elapsed, results = run_sweep(bench.sweep)
            gate.check(results)
            untraced.append(elapsed)
            if getattr(bench, "first_row", None) is not None:
                first_rows.append(bench.first_row - start)
    finally:
        bench.close()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"{cls.name}.trace.jsonl"))

    faults = []
    metrics = {}
    for name in per_sweep[0]:
        values = [m[name] for m in per_sweep]
        if name in DETERMINISTIC and len(set(values)) > 1:
            faults.append(f"{name} differs between traced sweeps: {values}")
        metrics[name] = _median(values)
    metrics["trace.overhead_s"] = _median(traced) - _median(untraced)
    metrics["coordinator.first_row_s"] = _median(first_rows)
    faults += check_counts(cls.name, {k: metrics[k] for k in DETERMINISTIC})
    return gate, metrics, faults, baseline


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def code_digest() -> str:
    """Identity of the program and benchmark code a run measured."""
    sha = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith((".py", ".json")):
                    path = os.path.join(dirpath, filename)
                    sha.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        sha.update(fh.read())
    return sha.hexdigest()


def check_counts(workload: str, counts: dict) -> list[str]:
    """Compare deterministic counters with earlier runs of the same code."""
    digest = code_digest()
    try:
        with open(COUNTS_PATH) as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        stored = {}
    if stored.get("code") != digest:
        stored = {"code": digest, "workloads": {}}
    earlier = stored["workloads"].setdefault(workload, counts)
    faults = [
        f"{name} = {counts[name]} but an earlier run of this code counted {earlier[name]}"
        for name in counts
        if earlier.get(name) != counts[name]
    ]
    tmp = f"{COUNTS_PATH}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
    os.replace(tmp, COUNTS_PATH)
    return faults


def pin() -> None:
    """Rewrite expected.json from one sweep of each workload at the default seed."""
    from gate import EXPECTED_PATH, digests
    from workloads import DEFAULT_SEED, WORKLOADS

    pinned = {}
    workdir = tempfile.mkdtemp(prefix="pin-", dir=OUT_DIR)
    try:
        for name, cls in WORKLOADS.items():
            bench = cls(DEFAULT_SEED, workdir)
            try:
                reference = bench.setup()
                results = bench.sweep()
            finally:
                bench.close()
            pinned[name] = digests(results)
            if reference is not None and digests(reference) != pinned[name]:
                raise SystemExit(f"{name}: fold differs from the local sweep; not pinned")
            print(f"pinned {name}: {sorted(pinned[name])}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "workloads": pinned}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="cold_sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from gate import load_expected
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    if args.pin:
        pin()
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    expected = load_expected()["workloads"][cls.name]
    workdir = tempfile.mkdtemp(prefix=f"{cls.name}-", dir=OUT_DIR)
    try:
        if args.trace:
            gate, metrics, faults, baseline = run_traced(
                cls, args.seed, args.seconds, workdir, expected
            )
        else:
            gate, metrics, faults = run_end_to_end(
                cls, args.seed, args.seconds, workdir, expected
            )
            baseline = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise SystemExit(
            f"perfbench: measured metrics {sorted(set(metrics) ^ set(units))} "
            "disagree with BENCHMARK.json"
        )

    for problem in gate.problems + faults:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"{cls.name} seed={args.seed} trace={args.trace}: {gate.attempted} sweeps, "
          f"failed_share {gate.failed / gate.attempted:g}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if baseline is not None:
        print("  baseline per Table II workload (traced):")
        for name, row in baseline.items():
            print(f"    {name}: " + json.dumps(row))
        with open(os.path.join(OUT_DIR, f"{cls.name}.baseline.json"), "w") as fh:
            json.dump(baseline, fh, indent=1)
    print(json.dumps({
        "correct": gate.failed == 0 and not faults,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

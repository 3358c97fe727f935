"""Hall of Fame engine benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload flat-growth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Load model: closed loop, one caller, one process, one thread. Each update
is what ``hof run`` does for one stream line (parse, ``Engine.detect``,
``score_event`` per event, render the event as its JSON line) and finishes
before the next one starts. Set-up is everything from the catalog and CSV
text in memory to an engine ready for its first update.

``--trace 0`` sets up SETUP_REPEATS times (the median is ``setup_s``), then
replays the stream for ``--seconds`` seconds and at least MIN_UPDATES
updates. ``--trace 1`` replays the first ``counted`` updates of the
workload twice, plainly and with spans around the public functions of each
module, and reports the per-layer split and the tracing overhead. Times
are thread CPU time brought to a reference machine speed (``calibrate.py``).
Both modes compare an event-log prefix byte for byte with an unfiltered
replay (filters off) and check that the exact counts repeat across runs of
one seed and one source tree. The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # counts of earlier runs and span files

STREAM_LENGTH = 20000
MIN_UPDATES = 1000  # ten samples beyond p99
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "updates_per_s": "1/s",
    "update_p50_ms": "ms",
    "update_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "catalog.load_catalog.s": "s",
    "store.load_table.s": "s",
    "generator.generate_queries.s": "s",
    "generator.queries": "count",
    "detector.engine_init.s": "s",
    "detector.build_selection_queries.s": "s",
    "detector.column_filter.ms": "ms",
    "detector.column_filter.candidates": "count",
    "detector.row_filter.ms": "ms",
    "detector.row_filter.survivors": "count",
    "detector.row_filter.pass_ratio": "ratio",
    "store.evaluate_family.ms": "ms",
    "store.evaluate_family.calls": "count",
    "store.evaluate_family.rows_scanned": "count",
    "store.joined_rows.ms": "ms",
    "store.joined_rows.hit_ratio": "ratio",
    "store.match_rows.ms": "ms",
    "store.apply_update.ms": "ms",
    "detector.build_ranking.ms": "ms",
    "detector.diff_rankings.ms": "ms",
    "detector.changed_ratio": "ratio",
    "scorer.score_event.ms": "ms",
    "scorer.events": "count",
    "detector.detect.self_ms": "ms",
    "replay.update.self_ms": "ms",
    "trace.updates_per_s": "1/s",
    "trace.overhead": "ratio",
}
UNITS = {**END_TO_END, **PER_LAYER}

# layers whose mean self time per update is reported as "<layer>.ms"
UPDATE_LAYERS = tuple(name[: -len(".ms")] for name in PER_LAYER if name.endswith(".ms"))


def _log_bytes(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _source_digest() -> str:
    """Digest of the engine and benchmark sources, so that recorded counts
    are only compared between runs of the same code."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".py", ".json"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts_repeat(workload: str, seed: int, counts: dict, problems: list[str]) -> None:
    """Fail on any count that differs from an earlier run of this seed."""
    path = STATE / f"counts-{_source_digest()}-{workload}-seed{seed}.json"
    earlier = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for key, value in counts.items():
        if key in earlier and earlier[key] != value:
            problems.append(f"count {key} is {value}, an earlier run of this seed had {earlier[key]}")
    STATE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({**earlier, **counts}, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def check_gate(w, per_update_lines: list[list[str]], problems: list[str]) -> int:
    """Compare the first w.gate updates' event log with an unfiltered
    replay; returns the number of events compared."""
    import replay

    expected = replay.reference_log(w, w.gate)
    got = [line for lines in per_update_lines[: w.gate] for line in lines]
    if _log_bytes(got) != _log_bytes(expected):
        problems.append(f"event log of the first {w.gate} updates differs from the unfiltered replay")
    return len(expected)


def engine_counts(per_update_lines, stats) -> dict:
    lines = [line for batch in per_update_lines for line in batch]
    return {
        "updates": len(stats),
        "column_candidates": sum(s[0] for s in stats),
        "survivors": sum(s[1] for s in stats),
        "changed": sum(s[2] for s in stats),
        "events": len(lines),
        "event_log_sha256": hashlib.sha256(_log_bytes(lines)).hexdigest(),
    }


def _summary(label: str, times: list[float]) -> str:
    p99 = statistics.quantiles(times, n=100)[98]
    return (
        f"{label} updates_per_s {len(times) / sum(times):.2f} 1/s, "
        f"update_p50_ms {statistics.median(times) * 1e3:.3f} ms, update_p99_ms {p99 * 1e3:.3f} ms"
    )


def run_plain(w, seconds: float, seed: int) -> dict:
    import calibrate
    import replay

    setup_raw, setup_scaled = [], []
    engine = None
    for _ in range(SETUP_REPEATS):
        engine = None
        gc.collect()
        before = calibrate.sample(25)
        started = time.thread_time()
        engine = replay.setup(w)
        cpu = time.thread_time() - started
        kernel = (before + calibrate.sample(25)) / 2
        setup_raw.append(cpu)
        setup_scaled.append(cpu * calibrate.REFERENCE_S / kernel)

    rp = replay.Replay(engine)
    keep = max(w.gate, w.counted)
    per_update_lines: list[list[str]] = []
    stats = []
    latencies: list[float] = []  # thread CPU seconds
    walls: list[float] = []
    kernels: list[float] = []
    started = time.perf_counter()
    for line in w.updates:
        before = calibrate.sample()
        t0, c0 = time.perf_counter(), time.thread_time()
        lines = rp.step(line)
        c1, t1 = time.thread_time(), time.perf_counter()
        latencies.append(c1 - c0)
        walls.append(t1 - t0)
        kernels.append((before + calibrate.sample()) / 2)
        if len(latencies) <= keep:
            per_update_lines.append(lines)
            stats.append(replay.stats_of(engine))
        if len(latencies) >= MIN_UPDATES and t1 - started >= seconds:
            break
    elapsed = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems: list[str] = []
    n = len(latencies)
    if n < MIN_UPDATES:
        problems.append(f"stream ran out after {n} updates")
    gate_events = check_gate(w, per_update_lines, problems)
    counts = engine_counts(per_update_lines[: w.counted], stats[: w.counted])
    counts["queries"] = len(engine.queries)
    check_counts_repeat(w.name, seed, counts, problems)

    scaled = calibrate.scale_series(latencies, kernels)
    p99 = statistics.quantiles(scaled, n=100)[98]
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "updates_per_s": n / sum(scaled),
        "update_p50_ms": statistics.median(scaled) * 1e3,
        "update_p99_ms": p99 * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"{w.name} seed {seed}: {counts['queries']} queries, {n} updates in {elapsed:.2f} s, "
        f"{sum(t > p99 for t in scaled)} samples beyond p99",
        _summary(f"unscaled thread CPU time: setup_s {statistics.median(setup_raw):.4f} s,", latencies),
        _summary("wall clock:", walls),
        f"machine speed: kernel median {statistics.median(kernels) * 1e6:.1f} us "
        f"(reference {calibrate.REFERENCE_S * 1e6:.1f} us), quartiles "
        + " ".join(f"{q * 1e6:.1f}" for q in statistics.quantiles(kernels, n=4)),
        f"set-up times at reference speed (s): {' '.join(f'{t:.4f}' for t in setup_scaled)}",
        f"failed_update_share {rp.failed / n:.6f} ratio ({rp.failed} of {n} updates raised StoreError)",
        f"gate: {gate_events} events of the first {w.gate} updates compared with an unfiltered replay",
    ]
    return {"problems": problems, "attempted": n, "failed": rp.failed, "metrics": metrics, "notes": notes}


def per_layer_metrics(tracer, engine, n: int, counts: dict, overhead: float, scale: float) -> dict:
    """Per-layer split of one traced set-up and n traced updates; times are
    multiplied by `scale` to bring them to the reference machine speed."""
    from spans import LayerTotals

    setup = tracer.totals(during_updates=False)
    upd = tracer.totals(during_updates=True)
    none = LayerTotals()

    def s(name: str, self_time: bool = False) -> float:
        t = setup.get(name, none)
        return (t.self_ns if self_time else t.total_ns) * scale / 1e9

    def ms(name: str) -> float:
        return upd.get(name, none).self_ns * scale / 1e6 / n

    survivors, candidates = counts["survivors"], counts["column_candidates"]
    family = upd.get("store.evaluate_family", none)
    joined = upd.get("store.joined_rows", none)
    metrics = {
        "catalog.load_catalog.s": s("catalog.load_catalog"),
        "store.load_table.s": s("store.load_table"),
        "generator.generate_queries.s": s("generator.generate_queries"),
        "generator.queries": len(engine.queries),
        "detector.engine_init.s": s("detector.engine_init", self_time=True),
        "detector.build_selection_queries.s": s("detector.build_selection_queries"),
    }
    for name in UPDATE_LAYERS:
        metrics[f"{name}.ms"] = ms(name)
    metrics.update(
        {
            "detector.detect.self_ms": ms("detector.detect"),
            "replay.update.self_ms": ms("replay.update"),
            "detector.column_filter.candidates": candidates,
            "detector.row_filter.survivors": survivors,
            "detector.row_filter.pass_ratio": survivors / candidates if candidates else 0.0,
            "store.evaluate_family.calls": family.calls,
            "store.evaluate_family.rows_scanned": family.value,
            "store.joined_rows.hit_ratio": joined.value / joined.calls if joined.calls else 0.0,
            "detector.changed_ratio": counts["changed"] / survivors if survivors else 0.0,
            "scorer.events": counts["events"],
            "trace.updates_per_s": n / (upd.get("replay.update", none).total_ns * scale / 1e9),
            "trace.overhead": overhead,
        }
    )
    return metrics


def run_traced(w, seed: int) -> dict:
    import calibrate
    import replay
    from spans import TARGETS, Tracer

    lines = w.updates[: w.counted]
    n = len(lines)
    tracer = Tracer()
    tracer.install()
    try:
        # The plain and the traced engine step through the same updates in
        # turn, so that CPU contention from outside the run affects both
        # alike and the overhead ratio compares like with like.
        tracer.enabled = False
        plain_engine = replay.setup(w)
        tracer.enabled = True
        engine = tracer.call("replay.setup", replay.setup, w)
        plain_rp, rp = replay.Replay(plain_engine), replay.Replay(engine)
        plain, traced, stats, kernels = [], [], [], []
        plain_s = traced_s = 0.0
        for seq, line in enumerate(lines, start=1):
            tracer.enabled = False
            t0 = time.thread_time()
            plain.append(plain_rp.step(line))
            t1 = time.thread_time()
            tracer.enabled, tracer.seq = True, seq
            traced.append(tracer.call("replay.update", rp.step, line))
            t2 = time.thread_time()
            stats.append(replay.stats_of(engine))
            kernels.append(calibrate.sample())
            plain_s += t1 - t0
            traced_s += t2 - t1
        tracer.seq = None
    finally:
        tracer.uninstall()

    problems: list[str] = []
    if traced != plain:
        problems.append("tracing changed the event log")
    gate_events = check_gate(w, traced, problems)
    counts = engine_counts(traced, stats)
    scale = calibrate.REFERENCE_S / statistics.median(kernels)
    metrics = per_layer_metrics(tracer, engine, n, counts, traced_s / plain_s, scale)
    counts.update(
        {
            "queries": metrics["generator.queries"],
            "evaluate_family_calls": metrics["store.evaluate_family.calls"],
            "rows_scanned": metrics["store.evaluate_family.rows_scanned"],
        }
    )
    check_counts_repeat(w.name, seed, counts, problems)
    called = {span[0] for span in tracer.spans}
    idle = [name for name, *_ in TARGETS if name not in called and name not in tracer.absent]
    spans_path = STATE / f"spans-{w.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    notes = [
        f"{w.name} seed {seed}: {metrics['generator.queries']} queries, {n} updates traced, "
        f"{len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}",
        f"absent (not found): {', '.join(tracer.absent) or 'none'}",
        f"never called: {', '.join(idle) or 'none'}",
        f"gate: {gate_events} events of the first {w.gate} updates compared with an unfiltered replay",
    ]
    return {"problems": problems, "attempted": n, "failed": rp.failed, "metrics": metrics, "notes": notes}


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def run_one(w, args) -> int:
    out = run_traced(w, args.seed) if args.trace else run_plain(w, args.seconds, args.seed)
    for note in out["notes"]:
        print(note)
    for name, value in out["metrics"].items():
        print(f"{name:40s} {value:14.6f} {UNITS[name]}")
    for problem in out["problems"]:
        print(f"INCORRECT: {problem}")
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in out["metrics"].items()}
    print(_result(not out["problems"], out["attempted"], out["failed"], metrics))
    return 0


def run_all(names, args) -> int:
    """Every workload, each in a fresh process, in one table."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        if not args.trace:
            share = result["failed"] / result["attempted"]
            result["metrics"]["failed_update_share"] = {"value": share, "unit": "ratio"}
        print(f"== {name}: correct={result['correct']}")
        for key, m in result["metrics"].items():
            print(f"   {key:40s} {m['value']:14.6f} {m['unit']}")
            metrics[f"{name}.{key}"] = m
    print(_result(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "halloffame" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    sys.path.insert(0, str(SRC))
    return run_one(workloads.WORKLOADS[args.workload](args.seed, STREAM_LENGTH), args)


if __name__ == "__main__":
    sys.exit(main())

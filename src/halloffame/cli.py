"""Command-line orchestration: generate, synth, run, rank, stats.

``hof run`` writes the event log and ``hof rank`` ranks a window of it, each
through scorer's one event-line codec."""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable

import click

from .catalog import CatalogError, SchemaCatalog, expect, fault, is_finite, json_lines, load_catalog, quote
from .detector import DetectStats, Engine
from .generator import (
    GenerationError,
    GeneratorConfig,
    dump_queries,
    generate_queries,
    load_queries,
)
from .reference import Reference
from .scorer import (
    ChainStore, ScorerConfig, ScoringError, event_from_json, event_to_json, rank_events, score_event,
)
from .store import Store, StoreError, read_update_stream, write_update_stream
from .synth import SynthConfig, synth_stream


def _file_error(path: Path, what: str, exc: OSError) -> click.ClickException:
    """One Error line for a file the system cannot open, read or write."""
    return click.ClickException(f"{what} file {path}: {exc.strerror or exc}")


def _read_file(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise click.UsageError(f"{what} file not found: {path}") from None
    except OSError as exc:  # a directory, a name too long, no permission
        raise _file_error(path, what, exc) from None
    except UnicodeDecodeError as exc:  # read in one piece, so exc.start is the file's byte offset
        line = path.read_bytes().count(b"\n", 0, exc.start) + 1
        raise click.ClickException(f"{what} file {path}, line {line}: not UTF-8 ({exc.reason})") from None


def _write_file(path: Path, what: str, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _file_error(path, what, exc) from None


def _load_catalog(path: Path) -> SchemaCatalog:
    text = _read_file(path, "catalog config")
    try:
        return load_catalog(text)
    except CatalogError as exc:
        raise click.ClickException(f"catalog: {exc}") from exc


def _load_store(catalog: SchemaCatalog, data_dir: Path) -> Store:
    store = Store(catalog)
    for rel in catalog.relations:
        csv_path = data_dir / f"{rel.name}.csv"
        text = _read_file(csv_path, f"CSV for relation {quote(rel.name)}")
        try:
            store.load_table(rel.name, text)
        except StoreError as exc:
            raise click.ClickException(str(exc)) from exc
    return store


def _echo_seconds(label: str, seconds: float) -> None:
    """Print one set-up line: how long a part of start-up took."""
    click.echo(f"{label:22s} {seconds:.3f}")


def _read_jsonl(path: Path, what: str, parse: Callable[[str], Any]) -> list:
    """parse(line) of every line, by the catalog's JSON Lines rule; a bad
    line exits naming its number and its fault."""
    return list(json_lines(_read_file(path, what), what, parse, (click.ClickException, ScoringError)))


@click.group()
def main():
    """Hall of Fame engine: generate top-K ranking queries from an annotated
    schema, maintain them under an update stream, and rank the detected
    ranking-change events."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
@click.option("--data-dir", required=True, type=click.Path(path_type=Path))
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
@click.option("--k", default=GeneratorConfig.k, show_default=True, type=click.IntRange(min=1), help="ranking size")
@click.option(
    "--cnum", default=GeneratorConfig.c_num, show_default=True, type=click.IntRange(min=0),
    help="max constraint atoms per predicate",
)
@click.option(
    "--jnum", default=GeneratorConfig.j_num, show_default=True, type=click.IntRange(min=0), help="max joins per query"
)
def generate(config_path, data_dir, out_path, k, cnum, jnum):
    """Enumerate all valid queries and persist the query catalog."""
    catalog = _load_catalog(config_path)
    started = time.perf_counter()
    store = _load_store(catalog, data_dir)
    _echo_seconds("csv load s", time.perf_counter() - started)
    started = time.perf_counter()
    queries = generate_queries(catalog, GeneratorConfig(k=k, c_num=cnum, j_num=jnum), store)
    elapsed = time.perf_counter() - started
    _echo_seconds("generate s", elapsed)
    _write_file(out_path, "query catalog", dump_queries(queries))
    click.echo(f"generated {len(queries)} queries in {elapsed:.2f}s -> {out_path}")
    click.echo(f"generate rows          {store.rows_read}")  # joined rows its counts read


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
@click.option("--data-dir", required=True, type=click.Path(path_type=Path))
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
@click.option("--seed", default=SynthConfig.seed, show_default=True)
@click.option(
    "--updates-per-tuple", default=SynthConfig.updates_per_tuple, show_default=True, type=click.IntRange(min=1)
)
def synth(config_path, data_dir, out_path, seed, updates_per_tuple):
    """Synthesize an update stream from the loaded data."""
    catalog = _load_catalog(config_path)
    store = _load_store(catalog, data_dir)
    try:
        stream = synth_stream(store, catalog, SynthConfig(updates_per_tuple=updates_per_tuple, seed=seed))
    except StoreError as exc:
        raise click.ClickException(str(exc)) from exc
    _write_file(out_path, "update stream", write_update_stream(stream))
    click.echo(f"synthesized {len(stream)} updates -> {out_path}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
@click.option("--data-dir", required=True, type=click.Path(path_type=Path))
@click.option("--queries", "queries_path", required=True, type=click.Path(path_type=Path))
@click.option("--updates", "updates_path", required=True, type=click.Path(path_type=Path))
@click.option("--events", "events_path", required=True, type=click.Path(path_type=Path))
@click.option("--stats", "stats_path", type=click.Path(path_type=Path), help="write per-update stats as JSONL")
@click.option(
    "--b", default=ScorerConfig.b, show_default=True, type=click.IntRange(min=2),
    help="undiscounted rank threshold; each query's own k normalizes its scores",
)
@click.option(
    "--window", default=ScorerConfig.window_updates, show_default=True, type=click.IntRange(min=1),
    help="window size in updates",
)
@click.option(
    "--no-filters", is_flag=True,
    help="check: run the from-scratch reference, which evaluates every query again after every update",
)
@click.option("--on-error", type=click.Choice(["abort", "skip"]), default="abort", show_default=True)
def run(config_path, data_dir, queries_path, updates_path, events_path, stats_path, b, window, no_filters, on_error):
    """Stream updates through detection and scoring; write the event log."""
    catalog = _load_catalog(config_path)
    started = time.perf_counter()
    store = _load_store(catalog, data_dir)
    _echo_seconds("csv load s", time.perf_counter() - started)
    try:
        queries = load_queries(_read_file(queries_path, "query catalog"), catalog)
    except GenerationError as exc:
        raise click.ClickException(str(exc)) from exc
    scorer_cfg = ScorerConfig(b=b, window_updates=window)

    started = time.perf_counter()
    try:
        engine = (Reference if no_filters else Engine)(catalog, store, queries)
    except StoreError as exc:
        raise click.ClickException(f"engine start-up: {exc}") from exc
    _echo_seconds("engine start-up s", time.perf_counter() - started)
    startup_rows = store.rows_read  # joined rows the start-up read
    chains = ChainStore()
    by_id = engine.queries

    n_events = 0
    kept: list[tuple[DetectStats, float]] = []  # per processed update: its stats and latency

    def bad_line(lineno: int, exc: Exception) -> None:
        if on_error == "abort":
            raise click.ClickException(f"update line {lineno}: {fault(exc)}") from exc
        click.echo(f"warning: skipping update line {lineno}: {fault(exc)}", err=True)

    updates = read_update_stream(_read_file(updates_path, "update stream"), bad_line)
    with ExitStack() as files:
        # line-buffered, so a run that stops early leaves whole lines behind
        def open_out(path: Path, what: str):
            try:
                return files.enter_context(path.open("w", encoding="utf-8", buffering=1))
            except OSError as exc:
                raise _file_error(path, what, exc) from None

        events_out = open_out(events_path, "event log")
        stats_out = open_out(stats_path, "stats") if stats_path is not None else None
        for u in updates:
            started = time.perf_counter()
            try:
                detected = engine.detect(u)
            except StoreError as exc:
                if on_error == "skip":
                    click.echo(f"warning: skipping update seq {u.seq}: {exc}", err=True)
                    continue
                raise click.ClickException(f"update seq {u.seq}: {exc}") from exc
            latency_ms = (time.perf_counter() - started) * 1000.0

            for event in detected:
                scored = score_event(event, by_id[event.query_id], chains, scorer_cfg)
                events_out.write(event_to_json(scored, by_id[event.query_id].sql()) + "\n")

            n_events += len(detected)
            st = engine.last_stats
            kept.append((st, latency_ms))
            if stats_out is not None:
                doc = {"seq": u.seq, **dataclasses.asdict(st), "latency_ms": latency_ms}
                stats_out.write(json.dumps(doc, sort_keys=True) + "\n")

    def mean(name: str) -> float:
        return statistics.fmean(getattr(st, name) for st, _ in kept) if kept else 0.0

    latencies = [ms for _, ms in kept]
    click.echo(f"updates processed      {len(kept)}")
    click.echo(f"events detected        {n_events}")
    click.echo(f"queries total          {len(by_id)}")
    click.echo(f"start-up rows          {startup_rows}")
    click.echo(f"mean column candidates {mean('column_candidates'):.2f}")
    click.echo(f"mean row candidates    {mean('row_candidates'):.2f}")
    click.echo(f"mean reordered top-Ks  {mean('reordered'):.2f}")
    click.echo(f"mean changed rankings  {mean('changed'):.2f}")
    click.echo(f"mean latency ms        {statistics.fmean(latencies) if kept else 0.0:.2f}")
    click.echo(f"median latency ms      {statistics.median(latencies) if kept else 0.0:.2f}")


@main.command()
@click.option("--events", "events_path", required=True, type=click.Path(path_type=Path))
@click.option("--window-end", type=int, help="last seq of the window (default: last event)")
@click.option("--window", default=ScorerConfig.window_updates, show_default=True, type=click.IntRange(min=1))
def rank(events_path, window_end, window):
    """Print the events with seq in (window-end - window, window-end] in ranked order."""
    parsed = _read_jsonl(events_path, "event log", event_from_json)
    if window_end is None:
        window_end = max((e.seq for e, _ in parsed), default=0)
    in_window = [(e, sql) for e, sql in parsed if window_end - window < e.seq <= window_end]
    sql_of = {id(e): sql for e, sql in in_window}
    ordered = rank_events([e for e, _ in in_window])
    if not ordered:
        click.echo(f"no events in window ({window_end - window}, {window_end}]")
        return
    click.echo(f"events in window ({window_end - window}, {window_end}]: {len(ordered)}")
    for i, e in enumerate(ordered, start=1):
        click.echo(
            f"{i:4d}. seq={e.seq} sel={e.selectivity:.4f} dyn={e.dynamic_norm:.4f} "
            f"ent={e.entropy_bits:.4f} {e.entity!r} {e.from_rank}->{e.to_rank} {sql_of[id(e)]}"
        )


@main.command()
@click.option("--stats", "stats_path", required=True, type=click.Path(path_type=Path))
def stats(stats_path):
    """Summarize a per-update stats file."""
    fields = [*(f.name for f in dataclasses.fields(DetectStats)), "latency_ms"]

    def row(line: str) -> list:
        doc = json.loads(line)
        expect(isinstance(doc, dict), "a stats line must be a JSON object", doc, click.ClickException)
        for f in fields:
            expect(is_finite(doc[f]), f"{f} must be a finite number", doc[f], click.ClickException)
        return [doc[f] for f in fields]

    rows = _read_jsonl(stats_path, "stats", row)
    if not rows:
        click.echo("no stats rows")
        return
    for i, field_name in enumerate(fields):
        values = [r[i] for r in rows]
        click.echo(
            f"{field_name:18s} mean={statistics.fmean(values):.3f} "
            f"median={statistics.median(values):.3f} max={max(values):.3f}"
        )


if __name__ == "__main__":
    main()

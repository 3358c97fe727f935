"""Command-line orchestration: generate, synth, run, rank, stats."""

from __future__ import annotations

import json
import statistics
import time
from collections import deque
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable

import click

from .catalog import CatalogError, SchemaCatalog, load_catalog
from .detector import Engine
from .generator import (
    GenerationError,
    GeneratorConfig,
    dump_queries,
    generate_queries,
    load_queries,
)
from .scorer import ChainStore, ImprovementPair, ScoredEvent, ScorerConfig, rank_events, score_event
from .store import Store, StoreError, read_update_stream, write_update_stream
from .synth import SynthConfig, synth_stream


def _read_file(path: Path, what: str) -> str:
    if not path.exists():
        raise click.UsageError(f"{what} file not found: {path}")
    return path.read_text(encoding="utf-8")


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
        text = _read_file(csv_path, f"CSV for relation {rel.name!r}")
        try:
            store.load_table(rel.name, text)
        except StoreError as exc:
            raise click.ClickException(str(exc)) from exc
    return store


def _echo_seconds(label: str, seconds: float) -> None:
    """Print one set-up line: how long a part of start-up took."""
    click.echo(f"{label:22s} {seconds:.3f}")


def _event_line(event: ScoredEvent, sql: str) -> str:
    doc = {
        "seq": event.seq,
        "query_id": event.query_id,
        "query": sql,
        "entity": event.entity,
        "from_rank": event.from_rank,
        "to_rank": event.to_rank,
        "selectivity": event.selectivity,
        "dynamic_raw": event.dynamic_raw,
        "dynamic_norm": event.dynamic_norm,
        "entropy_bits": event.entropy_bits,
        "chain": [[p.seq, p.from_rank, p.to_rank] for p in event.chain],
    }
    return json.dumps(doc, sort_keys=True)


def _number(doc: dict, key: str) -> Any:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return value


def _read_jsonl(path: Path, what: str, parse: Callable[[Any], Any]) -> list:
    """parse(document) of every non-blank line; a bad line exits naming its number."""
    out = []
    for lineno, line in enumerate(_read_file(path, what).splitlines(), start=1):
        if line.strip():
            try:
                out.append(parse(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise click.ClickException(f"{what} line {lineno}: {type(exc).__name__}: {exc}") from exc
    return out


def _parse_event(doc: dict) -> tuple[ScoredEvent, str]:
    event = ScoredEvent(
        seq=_number(doc, "seq"),
        query_id=doc["query_id"],
        entity=doc["entity"],
        from_rank=_number(doc, "from_rank"),
        to_rank=_number(doc, "to_rank"),
        selectivity=_number(doc, "selectivity"),
        dynamic_raw=_number(doc, "dynamic_raw"),
        dynamic_norm=_number(doc, "dynamic_norm"),
        entropy_bits=_number(doc, "entropy_bits"),
        chain=tuple(ImprovementPair(s, f, t) for s, f, t in doc["chain"]),
    )
    return event, doc.get("query", "")


@click.group(context_settings={"auto_envvar_prefix": "HOF"})
def main():
    """Hall of Fame engine: generate top-K ranking queries from an annotated
    schema, maintain them under an update stream, and rank the detected
    ranking-change events."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
@click.option("--data-dir", required=True, type=click.Path(path_type=Path))
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
@click.option("--k", default=20, show_default=True, help="ranking size")
@click.option("--cnum", default=3, show_default=True, help="max constraint atoms per predicate")
@click.option("--jnum", default=3, show_default=True, help="max joins per query")
def generate(config_path, data_dir, out_path, k, cnum, jnum):
    """Enumerate all valid queries and persist the query catalog."""
    catalog = _load_catalog(config_path)
    started = time.perf_counter()
    store = _load_store(catalog, data_dir)
    _echo_seconds("csv load s", time.perf_counter() - started)
    try:
        cfg = GeneratorConfig(k=k, c_num=cnum, j_num=jnum)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    started = time.perf_counter()
    queries = generate_queries(catalog, cfg, store)
    elapsed = time.perf_counter() - started
    _echo_seconds("generate s", elapsed)
    out_path.write_text(dump_queries(queries), encoding="utf-8")
    click.echo(f"generated {len(queries)} queries in {elapsed:.2f}s -> {out_path}")
    click.echo(f"generate rows          {store.rows_read}")  # joined rows its counts read


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
@click.option("--data-dir", required=True, type=click.Path(path_type=Path))
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path))
@click.option("--seed", default=0, show_default=True)
@click.option("--updates-per-tuple", default=10, show_default=True)
@click.option("--avg-literal", is_flag=True, help="use final*g for avg criteria instead of final*(1+g)")
def synth(config_path, data_dir, out_path, seed, updates_per_tuple, avg_literal):
    """Synthesize an update stream from the loaded data."""
    catalog = _load_catalog(config_path)
    store = _load_store(catalog, data_dir)
    try:
        cfg = SynthConfig(updates_per_tuple=updates_per_tuple, seed=seed, avg_literal=avg_literal)
        stream = synth_stream(store, catalog, cfg)
    except (ValueError, StoreError) as exc:
        raise click.ClickException(str(exc)) from exc
    out_path.write_text(write_update_stream(stream), encoding="utf-8")
    click.echo(f"synthesized {len(stream)} updates -> {out_path}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
@click.option("--data-dir", required=True, type=click.Path(path_type=Path))
@click.option("--queries", "queries_path", required=True, type=click.Path(path_type=Path))
@click.option("--updates", "updates_path", required=True, type=click.Path(path_type=Path))
@click.option("--events", "events_path", required=True, type=click.Path(path_type=Path))
@click.option("--stats", "stats_path", type=click.Path(path_type=Path), help="write per-update stats as JSONL")
@click.option("--k", default=20, show_default=True, help="ranking size for score normalization")
@click.option("--b", default=5, show_default=True, help="undiscounted rank threshold")
@click.option("--groups", default=4, show_default=True, help="coarse score groups")
@click.option("--window", default=1000, show_default=True, help="window size in updates")
@click.option("--no-filters", is_flag=True, help="debug: re-evaluate every query on every update")
@click.option("--flush-every", default=0, show_default=True, help="emit a window ranking every N updates")
@click.option("--on-error", type=click.Choice(["abort", "skip"]), default="abort", show_default=True)
def run(
    config_path,
    data_dir,
    queries_path,
    updates_path,
    events_path,
    stats_path,
    k,
    b,
    groups,
    window,
    no_filters,
    flush_every,
    on_error,
):
    """Stream updates through detection and scoring; write the event log."""
    catalog = _load_catalog(config_path)
    started = time.perf_counter()
    store = _load_store(catalog, data_dir)
    _echo_seconds("csv load s", time.perf_counter() - started)
    try:
        queries = load_queries(_read_file(queries_path, "query catalog"), catalog)
        scorer_cfg = ScorerConfig(b=b, k=k, window_updates=window, groups=groups)
    except (GenerationError, CatalogError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc

    started = time.perf_counter()
    try:
        engine = Engine(catalog, store, queries, filters_enabled=not no_filters)
    except StoreError as exc:
        raise click.ClickException(f"engine start-up: {exc}") from exc
    _echo_seconds("engine start-up s", time.perf_counter() - started)
    startup_rows = store.rows_read  # joined rows the start-up scans read
    chains = ChainStore()
    by_id = engine.queries
    window_events: deque[ScoredEvent] = deque()

    n_updates = 0
    n_events = 0
    col_cands: list[int] = []
    row_cands: list[int] = []
    changed: list[int] = []
    rebuilt: list[int] = []
    latencies: list[float] = []

    def bad_line(lineno: int, exc: Exception) -> None:
        if on_error == "abort":
            raise click.ClickException(f"update line {lineno}: {exc}") from exc
        click.echo(f"warning: skipping update line {lineno}: {exc}", err=True)

    updates = read_update_stream(_read_file(updates_path, "update stream"), bad_line)
    with ExitStack() as files:
        # line-buffered, so a run that stops early leaves whole lines behind
        def open_out(path: Path):
            return files.enter_context(path.open("w", encoding="utf-8", buffering=1))

        events_out = open_out(events_path)
        stats_out = open_out(stats_path) if stats_path is not None else None
        flush_out = open_out(Path(f"{events_path}.flush")) if flush_every else None
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
                events_out.write(_event_line(scored, by_id[event.query_id].sql()) + "\n")
                window_events.append(scored)
            while window_events and window_events[0].seq <= u.seq - scorer_cfg.window_updates:
                window_events.popleft()

            n_updates += 1
            n_events += len(detected)
            st = engine.last_stats
            col_cands.append(st.column_candidates)
            row_cands.append(st.row_candidates)
            changed.append(st.changed)
            rebuilt.append(st.rebuilt)
            latencies.append(latency_ms)
            if stats_out is not None:
                doc = {
                    "seq": u.seq,
                    "column_candidates": st.column_candidates,
                    "row_candidates": st.row_candidates,
                    "changed": st.changed,
                    "rebuilt": st.rebuilt,
                    "refilled": st.refilled,
                    "latency_ms": latency_ms,
                }
                stats_out.write(json.dumps(doc, sort_keys=True) + "\n")
            if flush_out is not None and n_updates % flush_every == 0:
                ranking = [
                    {"rank": i + 1, "seq": e.seq, "query_id": e.query_id, "entity": e.entity}
                    for i, e in enumerate(rank_events(window_events, scorer_cfg))
                ]
                flush_out.write(json.dumps({"flush_at": u.seq, "ranking": ranking}, sort_keys=True) + "\n")

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    click.echo(f"updates processed      {n_updates}")
    click.echo(f"events detected        {n_events}")
    click.echo(f"queries total          {len(by_id)}")
    click.echo(f"start-up rows          {startup_rows}")
    click.echo(f"mean column candidates {mean(col_cands):.2f}")
    click.echo(f"mean row candidates    {mean(row_cands):.2f}")
    click.echo(f"mean rebuilt rankings  {mean(rebuilt):.2f}")
    click.echo(f"mean changed rankings  {mean(changed):.2f}")
    click.echo(f"mean latency ms        {mean(latencies):.2f}")
    click.echo(f"median latency ms      {statistics.median(latencies) if latencies else 0.0:.2f}")


@main.command()
@click.option("--events", "events_path", required=True, type=click.Path(path_type=Path))
@click.option("--window-end", type=int, help="last seq of the window (default: last event)")
@click.option("--window", default=1000, show_default=True)
@click.option("--groups", default=4, show_default=True)
def rank(events_path, window_end, window, groups):
    """Print the window's events in final ranked order."""
    parsed = _read_jsonl(events_path, "event log", _parse_event)
    try:
        cfg = ScorerConfig(window_updates=window, groups=groups)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    if window_end is None:
        window_end = max((e.seq for e, _ in parsed), default=0)
    in_window = [(e, sql) for e, sql in parsed if window_end - window < e.seq <= window_end]
    sql_of = {id(e): sql for e, sql in in_window}
    ordered = rank_events([e for e, _ in in_window], cfg)
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
    fields = ("column_candidates", "row_candidates", "rebuilt", "refilled", "changed", "latency_ms")
    rows = _read_jsonl(stats_path, "stats", lambda doc: [_number(doc, f) for f in fields])
    if not rows:
        click.echo("no stats rows")
        return
    for i, field_name in enumerate(fields):
        values = [r[i] for r in rows]
        click.echo(
            f"{field_name:18s} mean={statistics.fmean(values):.3f} "
            f"median={statistics.median(values):.3f} max={max(values):.3f}"
        )


def entry():
    main(auto_envvar_prefix="HOF")


if __name__ == "__main__":
    entry()

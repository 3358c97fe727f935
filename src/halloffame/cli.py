"""Command-line orchestration: generate, synth, run, rank, stats."""

from __future__ import annotations

import json
import statistics
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

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
from .store import Store, StoreError, update_from_json, write_update_stream
from .synth import SynthConfig, synth_stream


@dataclass
class RunConfig:
    """Resolved paths and knobs for one command invocation."""

    catalog_path: Path
    data_dir: Path
    queries_path: Optional[Path] = None
    updates_path: Optional[Path] = None
    events_path: Optional[Path] = None
    generator: GeneratorConfig = GeneratorConfig()
    scorer: ScorerConfig = ScorerConfig()
    synth: SynthConfig = SynthConfig()
    emit_stats: Optional[Path] = None
    flush_every: int = 0


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


def _parse_event_line(line: str) -> tuple[ScoredEvent, str]:
    doc = json.loads(line)
    event = ScoredEvent(
        seq=doc["seq"],
        query_id=doc["query_id"],
        entity=doc["entity"],
        from_rank=doc["from_rank"],
        to_rank=doc["to_rank"],
        selectivity=doc["selectivity"],
        dynamic_raw=doc["dynamic_raw"],
        dynamic_norm=doc["dynamic_norm"],
        entropy_bits=doc["entropy_bits"],
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
    store = _load_store(catalog, data_dir)
    try:
        cfg = GeneratorConfig(k=k, c_num=cnum, j_num=jnum)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    started = time.perf_counter()
    queries = generate_queries(catalog, cfg, store)
    elapsed = time.perf_counter() - started
    out_path.write_text(dump_queries(queries), encoding="utf-8")
    click.echo(f"generated {len(queries)} queries in {elapsed:.2f}s -> {out_path}")


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


def _iter_update_lines(text: str, on_error: str):
    last_seq = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            u = update_from_json(line)
            if last_seq is not None and u.seq <= last_seq:
                raise StoreError(f"seq {u.seq} not increasing")
        except (json.JSONDecodeError, KeyError, StoreError) as exc:
            if on_error == "skip":
                click.echo(f"warning: skipping update line {lineno}: {exc}", err=True)
                continue
            raise click.ClickException(f"update line {lineno}: {exc}") from exc
        last_seq = u.seq
        yield u


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
    store = _load_store(catalog, data_dir)
    try:
        queries = load_queries(_read_file(queries_path, "query catalog"), catalog)
        scorer_cfg = ScorerConfig(b=b, k=k, window_updates=window, groups=groups)
    except (GenerationError, CatalogError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc

    engine = Engine(catalog, store, queries, filters_enabled=not no_filters)
    chains = ChainStore()
    by_id = engine.queries
    window_events: deque[ScoredEvent] = deque()

    n_updates = 0
    n_events = 0
    col_cands: list[int] = []
    row_cands: list[int] = []
    changed: list[int] = []
    latencies: list[float] = []

    events_out = []
    stats_out = []
    flush_out = []
    text = _read_file(updates_path, "update stream")
    for u in _iter_update_lines(text, on_error):
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
            events_out.append(_event_line(scored, by_id[event.query_id].sql()) + "\n")
            window_events.append(scored)
        while window_events and window_events[0].seq <= u.seq - scorer_cfg.window_updates:
            window_events.popleft()

        n_updates += 1
        n_events += len(detected)
        st = engine.last_stats
        col_cands.append(st.column_candidates)
        row_cands.append(st.row_candidates)
        changed.append(st.changed)
        latencies.append(latency_ms)
        if stats_path is not None:
            stats_out.append(
                json.dumps(
                    {
                        "seq": u.seq,
                        "column_candidates": st.column_candidates,
                        "row_candidates": st.row_candidates,
                        "changed": st.changed,
                        "latency_ms": latency_ms,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        if flush_every and n_updates % flush_every == 0:
            ranking = rank_events(window_events, scorer_cfg)
            flush_out.append(
                json.dumps(
                    {
                        "flush_at": u.seq,
                        "ranking": [
                            {"rank": i + 1, "seq": e.seq, "query_id": e.query_id, "entity": e.entity}
                            for i, e in enumerate(ranking)
                        ],
                    },
                    sort_keys=True,
                )
                + "\n"
            )

    events_path.write_text("".join(events_out), encoding="utf-8")
    if stats_path is not None:
        stats_path.write_text("".join(stats_out), encoding="utf-8")
    if flush_out:
        Path(str(events_path) + ".flush").write_text("".join(flush_out), encoding="utf-8")

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    click.echo(f"updates processed      {n_updates}")
    click.echo(f"events detected        {n_events}")
    click.echo(f"queries total          {len(by_id)}")
    click.echo(f"mean column candidates {mean(col_cands):.2f}")
    click.echo(f"mean row candidates    {mean(row_cands):.2f}")
    click.echo(f"mean changed rankings  {mean(changed):.2f}")
    click.echo(f"mean latency ms        {mean(latencies):.2f}")
    click.echo(f"median latency ms      {statistics.median(latencies) if latencies else 0.0:.2f}")


@main.command()
@click.option("--events", "events_path", required=True, type=click.Path(path_type=Path))
@click.option("--window-end", type=int, help="last seq of the window (default: last event)")
@click.option("--window", default=1000, show_default=True)
@click.option("--groups", default=4, show_default=True)
@click.option("--b", default=5, show_default=True)
@click.option("--k", default=20, show_default=True)
def rank(events_path, window_end, window, groups, b, k):
    """Print the window's events in final ranked order."""
    text = _read_file(events_path, "event log")
    parsed = []
    for line in text.splitlines():
        if line.strip():
            parsed.append(_parse_event_line(line))
    try:
        cfg = ScorerConfig(b=b, k=k, window_updates=window, groups=groups)
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
    text = _read_file(stats_path, "stats")
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not rows:
        click.echo("no stats rows")
        return
    for field_name in ("column_candidates", "row_candidates", "changed", "latency_ms"):
        values = [r[field_name] for r in rows]
        click.echo(
            f"{field_name:18s} mean={statistics.fmean(values):.3f} "
            f"median={statistics.median(values):.3f} max={max(values):.3f}"
        )


def entry():
    main(auto_envvar_prefix="HOF")


if __name__ == "__main__":
    entry()

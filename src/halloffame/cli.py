"""Command-line orchestration: generate, synth, run, rank, stats.

generate, synth and run open their output files before any other work (run
opens its update stream first), so an output they cannot write fails at once.
``hof run`` streams its update stream: it reads one line at a time, passes
each update through scorer's Pipeline and writes its event lines as they come,
keeping per update only its latency, for the summary's median. ``hof rank``
ranks a window of the event log, which it streams, holding only the events
that can still fall in the window; both go through scorer's one event-line
codec. The line-delimited inputs (update stream, query catalog, event log,
stats file) are read a line at a time, a line ending at "\n" alone; the
config and the CSVs are read whole, with universal newlines."""

from __future__ import annotations

import dataclasses
import heapq
import json
import statistics
import time
from array import array
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

import click

from .catalog import CatalogError, SchemaCatalog, expect, fault, is_finite, json_lines, load_catalog, quote
from .detector import DetectStats, Engine
from .generator import GenerationError, GeneratorConfig, dump_queries, generate_queries, load_queries
from .reference import Reference
from .scorer import Pipeline, ScorerConfig, ScoringError, event_from_json, rank_events
from .store import Store, StoreError, read_update_stream, write_update_stream
from .synth import SynthConfig, synth_stream


def _not_utf8(path: Path, what: str) -> click.ClickException:
    """The Error line of a file that is not UTF-8, naming the first line
    whose bytes do not decode. No byte of a longer UTF-8 sequence is "\n",
    so a line decodes alone as it does within the file."""
    with path.open("rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return click.ClickException(f"{what} file {path}, line {lineno}: not UTF-8 ({exc.reason})")


def _open(path: Path, what: str, mode: str = "r", newline: str | None = "\n") -> TextIO:
    """path as UTF-8 text, by default with lines that end at "\n" alone:
    read, or written ("w") a line at a time, so a command that stops early
    leaves whole lines behind; a file the system cannot open is one Error
    line."""
    try:
        return path.open(mode, encoding="utf-8", newline=newline, buffering=1 if mode == "w" else -1)
    except OSError as exc:  # a missing file or directory, a directory, a name too long, no permission
        if mode == "r" and isinstance(exc, FileNotFoundError):
            raise click.UsageError(f"{what} file not found: {path}") from None
        raise click.ClickException(f"{what} file {path}: {exc.strerror or exc}") from None


def _read_file(path: Path, what: str) -> str:
    """The whole text of a config or CSV, read with universal newlines
    ("\r\n" and "\r" read as "\n")."""
    with _open(path, what, newline=None) as f:
        try:
            return f.read()
        except UnicodeDecodeError:
            raise _not_utf8(path, what) from None


def _load_catalog(path: Path) -> SchemaCatalog:
    try:
        return load_catalog(_read_file(path, "catalog config"))
    except CatalogError as exc:
        raise click.ClickException(f"catalog: {exc}") from exc


def _load_store(catalog: SchemaCatalog, data_dir: Path) -> Store:
    store = Store(catalog)
    for rel in catalog.relations:
        text = _read_file(data_dir / f"{rel.name}.csv", f"CSV for relation {quote(rel.name)}")
        try:
            store.load_table(rel.name, text)
        except StoreError as exc:
            raise click.ClickException(str(exc)) from exc
    return store


def _echo_seconds(label: str, seconds: float) -> None:
    """Print one set-up line: how long a part of start-up took."""
    click.echo(f"{label:22s} {seconds:.3f}")


def _lines(path: Path, what: str) -> Iterator[str]:
    """The lines of a line-delimited input, read a line at a time, each
    ending at "\n" alone (a lone "\r" ends none); the first line that is
    not UTF-8 exits naming it."""
    with _open(path, what) as f:
        try:
            yield from f
        except UnicodeDecodeError:
            raise _not_utf8(path, what) from None


def _read_jsonl(path: Path, what: str, parse: Callable[[str], Any]) -> Iterator:
    """parse(line) of each line, by the catalog's JSON Lines rule, as it is
    read; a bad line exits naming its number and its fault."""
    return json_lines(_lines(path, what), what, parse, (click.ClickException, ScoringError))


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
    with _open(out_path, "query catalog", "w") as out:
        catalog = _load_catalog(config_path)
        started = time.perf_counter()
        store = _load_store(catalog, data_dir)
        _echo_seconds("csv load s", time.perf_counter() - started)
        started = time.perf_counter()
        queries = generate_queries(catalog, GeneratorConfig(k=k, c_num=cnum, j_num=jnum), store)
        elapsed = time.perf_counter() - started
        _echo_seconds("generate s", elapsed)
        out.write(dump_queries(queries))
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
    with _open(out_path, "update stream", "w") as out:
        catalog = _load_catalog(config_path)
        store = _load_store(catalog, data_dir)
        try:
            stream = synth_stream(store, catalog, SynthConfig(updates_per_tuple=updates_per_tuple, seed=seed))
        except StoreError as exc:
            raise click.ClickException(str(exc)) from exc
        out.write(write_update_stream(stream))
    click.echo(f"synthesized {len(stream)} updates -> {out_path}")


# hof run's summary: per label, the DetectStats field it gives the mean of
_MEANS = {"column candidates": "column_candidates", "row candidates": "row_candidates",
          "reordered top-Ks": "reordered", "changed rankings": "changed"}


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
    with ExitStack() as files:  # the update stream first, so its own fault comes first
        updates = files.enter_context(_open(updates_path, "update stream"))
        events_out = files.enter_context(_open(events_path, "event log", "w"))
        stats_out = files.enter_context(_open(stats_path, "stats", "w")) if stats_path is not None else None
        catalog = _load_catalog(config_path)
        started = time.perf_counter()
        store = _load_store(catalog, data_dir)
        _echo_seconds("csv load s", time.perf_counter() - started)
        try:
            queries = load_queries(_lines(queries_path, "query catalog"), catalog)
        except GenerationError as exc:
            raise click.ClickException(str(exc)) from exc

        started = time.perf_counter()
        try:
            engine = (Reference if no_filters else Engine)(catalog, store, queries)
        except StoreError as exc:
            raise click.ClickException(f"engine start-up: {exc}") from exc
        _echo_seconds("engine start-up s", time.perf_counter() - started)
        startup_rows = store.rows_read  # joined rows the start-up read
        pipeline = Pipeline(engine, ScorerConfig(b=b, window_updates=window))

        def bad_line(lineno: int, exc: Exception) -> None:
            if on_error == "abort":
                raise click.ClickException(f"update line {lineno}: {fault(exc)}") from exc
            click.echo(f"warning: skipping update line {lineno}: {fault(exc)}", err=True)

        n_events = 0
        totals = dict.fromkeys(_MEANS.values(), 0)  # per field, its sum over the processed updates
        latencies = array("d")  # per processed update, its detect ms
        try:
            for u in read_update_stream(updates, bad_line):
                try:
                    lines, latency_ms = pipeline.step(u)
                except StoreError as exc:
                    if on_error == "skip":
                        click.echo(f"warning: skipping update seq {u.seq}: {exc}", err=True)
                        continue
                    raise click.ClickException(f"update seq {u.seq}: {exc}") from exc
                events_out.writelines(line + "\n" for line in lines)
                n_events += len(lines)
                st = engine.last_stats
                totals = {name: total + getattr(st, name) for name, total in totals.items()}
                latencies.append(latency_ms)
                if stats_out is not None:
                    doc = {"seq": u.seq, **dataclasses.asdict(st), "latency_ms": latency_ms}
                    stats_out.write(json.dumps(doc, sort_keys=True) + "\n")
        except UnicodeDecodeError:  # reading the stream is the loop's only decode
            raise _not_utf8(updates_path, "update stream") from None

    n = len(latencies)
    click.echo(f"updates processed      {n}")
    click.echo(f"events detected        {n_events}")
    click.echo(f"queries total          {len(engine.queries)}")
    click.echo(f"start-up rows          {startup_rows}")
    for label, name in _MEANS.items():
        click.echo(f"mean {label:17s} {totals[name] / n if n else 0.0:.2f}")
    click.echo(f"mean latency ms        {statistics.fmean(latencies) if n else 0.0:.2f}")
    click.echo(f"median latency ms      {statistics.median(latencies) if n else 0.0:.2f}")


@main.command()
@click.option("--events", "events_path", required=True, type=click.Path(path_type=Path))
@click.option("--window-end", type=int, help="last seq of the window (default: last event)")
@click.option("--window", default=ScorerConfig.window_updates, show_default=True, type=click.IntRange(min=1))
def rank(events_path, window_end, window):
    """Print the events with seq in (window-end - window, window-end] in ranked order."""
    # the events that can still fall in the window, as (seq, line order,
    # event, SQL), least seq first: those within window of its end, or
    # without --window-end of the largest seq read so far
    held: list[tuple[int, int, Any, str]] = []
    end = window_end
    for order, (e, sql) in enumerate(_read_jsonl(events_path, "event log", event_from_json)):
        if window_end is None:
            end = e.seq if end is None else max(end, e.seq)
        elif e.seq > window_end:
            continue
        heapq.heappush(held, (e.seq, order, e, sql))
        while held and held[0][0] <= end - window:
            heapq.heappop(held)
    window_end = 0 if end is None else end
    in_window = [(e, sql) for _, _, e, sql in sorted(held, key=lambda h: h[1])]  # in file order, as rank_events ties
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

    rows = list(_read_jsonl(stats_path, "stats", row))
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

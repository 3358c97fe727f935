"""Set-up and replay through the public ``halloffame`` API, as ``hof run`` does.

Every call into the engine goes through a module or class attribute looked
up at call time (``hcatalog.load_catalog``, ``hdetector.Engine`` ...), so the
wrappers that ``spans.py`` installs see it.
"""

from __future__ import annotations

import json
from collections import deque

from halloffame import catalog as hcatalog
from halloffame import detector as hdetector
from halloffame import generator as hgenerator
from halloffame import scorer as hscorer
from halloffame import store as hstore

from workloads import Workload


def setup(w: Workload, filters_enabled: bool = True):
    """Catalog and CSV text in memory -> engine ready for its first update."""
    catalog = hcatalog.load_catalog(w.catalog_text)
    store = hstore.Store(catalog)
    for relation, text in w.csvs.items():
        store.load_table(relation, text)
    cfg = hgenerator.GeneratorConfig(k=w.k, c_num=w.c_num, j_num=w.j_num)
    queries = hgenerator.generate_queries(catalog, cfg, store)
    return hdetector.Engine(catalog, store, queries, filters_enabled=filters_enabled)


def _event_line(event, sql: str) -> str:
    # the event document ``hof run`` writes; its own renderer is private to cli
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


class Replay:
    """One ``hof run`` over an engine, one stream line at a time, with the
    default scorer settings and failing updates skipped and counted."""

    def __init__(self, engine):
        self.engine = engine
        self.queries = engine.queries
        self.cfg = hscorer.ScorerConfig()
        self.chains = hscorer.ChainStore()
        self.window: deque = deque()
        self.last_seq = None
        self.failed = 0

    def step(self, line: str) -> list[str]:
        """Parse, detect, score and render one update; returns its event lines."""
        u = hstore.update_from_json(line)
        if self.last_seq is not None and u.seq <= self.last_seq:
            raise ValueError(f"update stream: seq {u.seq} not increasing")
        self.last_seq = u.seq
        try:
            detected = self.engine.detect(u)
        except hstore.StoreError:
            self.failed += 1
            return []
        out = []
        for event in detected:
            query = self.queries[event.query_id]
            scored = hscorer.score_event(event, query, self.chains, self.cfg)
            out.append(_event_line(scored, query.sql()))
            self.window.append(scored)
        horizon = u.seq - self.cfg.window_updates
        while self.window and self.window[0].seq <= horizon:
            self.window.popleft()
        return out


def stats_of(engine) -> tuple[int, int, int]:
    """(column candidates, row-filter survivors, changed rankings) of the
    last update, as far as the engine reports them."""
    st = getattr(engine, "last_stats", None)
    return (
        getattr(st, "column_candidates", 0),
        getattr(st, "row_candidates", 0),
        getattr(st, "changed", 0),
    )


def reference_log(w: Workload, n: int) -> list[str]:
    """Event lines of the first n updates from an unfiltered replay that
    re-evaluates every query on every update (filters off)."""
    replay = Replay(setup(w, filters_enabled=False))
    out: list[str] = []
    for line in w.updates[:n]:
        out.extend(replay.step(line))
    return out

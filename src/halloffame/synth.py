"""Synthetic update streams: replay a loaded dataset as steady growth.

Each (row, criterion column) pair becomes a fixed-length sequence of
updates ending in the exact stored value. Sum-style criteria grow toward
the final value through sorted truncated-normal fractions; avg-style
criteria fluctuate around it. The per-tuple sequences are interleaved
round-robin so updates spread evenly over the stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .catalog import SchemaCatalog, quote
from .store import Store, StoreError, UpdateRecord

SUM_MU = 0.5
SUM_SIGMA = 0.2
AVG_SIGMA = 0.1


@dataclass(frozen=True)
class SynthConfig:
    updates_per_tuple: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.updates_per_tuple < 1:
            raise ValueError("updates_per_tuple must be >= 1")


def _draw_in(rng: random.Random, mu: float, sigma: float, lo: float, hi: float, n: int) -> list[float]:
    # rejection sampling for the truncated normal
    out = []
    while len(out) < n:
        g = rng.gauss(mu, sigma)
        if lo < g < hi:
            out.append(g)
    return out


def _sum_profile(rng: random.Random, final, cfg: SynthConfig) -> list:
    fractions = sorted(_draw_in(rng, SUM_MU, SUM_SIGMA, 0.0, 1.0, cfg.updates_per_tuple - 1))
    return [g * final for g in fractions] + [final]


def _avg_profile(rng: random.Random, final, cfg: SynthConfig) -> list:
    gs = _draw_in(rng, 0.0, AVG_SIGMA, -1.0, 1.0, cfg.updates_per_tuple - 1)
    return [final * (1.0 + g) for g in gs] + [final]


def synth_stream(store: Store, catalog: SchemaCatalog, cfg: SynthConfig) -> list[UpdateRecord]:
    """Build the full update stream for every (key tuple x criterion column).

    Deterministic for a fixed seed. The last update of every sequence
    restores the exact source value, so replaying a whole stream leaves all
    aggregates equal to the original data.
    """
    rng = random.Random(cfg.seed)

    # one sequence per column; if a column carries several criteria the first
    # declared aggregation decides its growth model
    targets: list[tuple[str, str, str]] = []
    seen = set()
    for crit in catalog.ranking_criteria:
        key = (crit.column.relation, crit.column.column)
        if key in seen:
            continue
        seen.add(key)
        targets.append((crit.column.relation, crit.column.column, crit.aggregation))
    targets.sort()

    streams: list[list[UpdateRecord]] = []
    for relation, column, aggregation in targets:
        table = store.tables.get(relation)
        if table is None:
            raise StoreError(f"criterion table {quote(relation)} is not loaded")
        if column not in table.col_pos:
            raise StoreError(f"criterion column {relation}.{column} missing from table")
        if not table.meta.key_columns:
            raise StoreError(f"table {quote(relation)} needs key columns to synthesize updates")
        col_pos = table.col_pos[column]
        integer = table.meta.column_type(column) == "integer"
        for row in table.rows:
            final = row[col_pos]
            if aggregation == "sum":
                values = _sum_profile(rng, final, cfg)
            else:
                values = _avg_profile(rng, final, cfg)
            if integer:
                values = [round(v) for v in values[:-1]] + [final]
            where = {c: row[table.col_pos[c]] for c in table.meta.key_columns}
            streams.append(
                [
                    UpdateRecord(seq=0, kind="update", table=relation, set_values={column: v}, where=where)
                    for v in values
                ]
            )

    # round-robin interleave: the i-th updates of all sequences first
    out: list[UpdateRecord] = []
    seq = 0
    for i in range(cfg.updates_per_tuple):
        for stream in streams:
            seq += 1
            u = stream[i]
            out.append(UpdateRecord(seq, u.kind, u.table, u.set_values, u.where))
    return out

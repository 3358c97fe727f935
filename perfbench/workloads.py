"""Seeded inputs for the benchmark workloads.

Each workload is built here from the seed alone: a catalog YAML text, one
CSV text per relation, and a list of update-stream lines in the JSON form
that ``hof run`` reads. Nothing is read from the repository's tests or
data, so editing a test cannot change what the benchmark measures. Every
update is valid now and stays valid under stricter input checks: no
key-column writes, no NaN/inf, integer columns only, inserts with fresh
keys, and moves only onto values that already exist.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    catalog_text: str
    csvs: dict[str, str]  # relation -> CSV text, in catalog order
    updates: list[str]  # update-stream lines, seq 1..n
    k: int
    c_num: int
    j_num: int
    counted: int  # prefix whose exact counts must repeat across runs of one seed
    gate: int  # prefix checked against an unfiltered replay


def _csv(columns: list[str], rows: list[list]) -> str:
    lines = [",".join(columns)]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _line(seq: int, kind: str, table: str, set_values: dict, where: dict) -> str:
    doc = {"seq": seq, "kind": kind, "table": table, "set": set_values, "where": where}
    return json.dumps(doc, sort_keys=True)


def _catalog(relations: list[tuple[str, list[str], list[str]]], annotations: list[str]) -> str:
    out = ["relations:"]
    for name, columns, key in relations:
        out.append(f"  - name: {name}")
        out.append("    columns:")
        for col in columns:
            col_type = "integer" if col in _INTEGER_COLUMNS else "text"
            out.append(f"      - {{name: {col}, type: {col_type}}}")
        out.append(f"    key: [{', '.join(key)}]")
    return "\n".join(out + annotations) + "\n"


_INTEGER_COLUMNS = {
    "sid", "m1", "m2", "team_id", "t_id",
    "c_id", "c_countryid", "p_id", "p_countryid", "co_countryid",
    "s_companyid", "s_value", "s_personid", "s_amount",
}

_STATS_COLUMNS = ["sid", "player", "c1", "c2", "m1", "m2"]
_STATS_CRITERIA = [
    "ranking_criteria:",
    "  - {column: stats.m1, aggregation: sum, direction: descending}",
    "  - {column: stats.m2, aggregation: avg, direction: ascending}",
]
_VALUE_RANGE = 500


def _stats_row(rng: random.Random, sid: int, n_entities: int, n_c1: int, n_c2: int) -> list:
    return [
        sid,
        f"p{rng.randrange(n_entities):03d}",
        f"a{rng.randrange(n_c1)}",
        f"b{rng.randrange(n_c2)}",
        rng.randrange(_VALUE_RANGE),
        rng.randrange(_VALUE_RANGE),
    ]


def _truncated_normal(rng: random.Random, mu: float, sigma: float, lo: float, hi: float, n: int) -> list:
    out = []
    while len(out) < n:
        g = rng.gauss(mu, sigma)
        if lo < g < hi:
            out.append(g)
    return out


def _growth_stream(rng: random.Random, rows: list[list], n_updates: int) -> list[str]:
    """Replay of the loaded stats rows as steady growth, as in the paper.

    Every (row, criterion column) pair gets ten writes ending in its stored
    value: m1 (a sum) grows through sorted fractions of it, m2 (an avg)
    fluctuates around it. The sequences are interleaved round-robin and the
    first n_updates writes are kept.
    """
    steps = 10
    sequences = []
    for col, pos in (("m1", 4), ("m2", 5)):
        for row in rows:
            final = row[pos]
            if col == "m1":
                gs = sorted(_truncated_normal(rng, 0.5, 0.2, 0.0, 1.0, steps - 1))
                values = [round(g * final) for g in gs]
            else:
                gs = _truncated_normal(rng, 0.0, 0.1, -1.0, 1.0, steps - 1)
                values = [round(final * (1.0 + g)) for g in gs]
            sequences.append((col, row[0], values + [final]))
    out: list[str] = []
    for i in range(steps):
        for col, sid, values in sequences:
            if len(out) == n_updates:
                return out
            out.append(_line(len(out) + 1, "update", "stats", {col: values[i]}, {"sid": sid}))
    return out


def flat_growth(seed: int, n_updates: int) -> Workload:
    """The paper's own scenario and the one the filters are built for.

    One wide table with two high-cardinality categoricals gives about 1,400
    queries, of which about 700 pass the column filter and 3 the row filter
    per update. Latency follows table size rather than survivor count, so
    this is where delta maintenance of family aggregates and the row filter
    show a gain. The join cache is never invalidated.
    """
    rng = random.Random(seed)
    rows = [_stats_row(rng, sid, 100, 300, 250) for sid in range(4800)]
    catalog = _catalog(
        [("stats", _STATS_COLUMNS, ["sid"])],
        ["entity_attrs: [stats.player]", "categorical_attrs: [stats.c1, stats.c2]"] + _STATS_CRITERIA,
    )
    return Workload(
        name="flat-growth",
        catalog_text=catalog,
        csvs={"stats": _csv(_STATS_COLUMNS, rows)},
        updates=_growth_stream(rng, rows, n_updates),
        k=2, c_num=2, j_num=0,
        counted=300, gate=20,
    )


def join_churn(seed: int, n_updates: int) -> Workload:
    """Structural writes over a two-table join.

    Besides value writes and deltas, the stream moves rows between
    categorical values, entities and teams (the join column) and inserts
    rows with fresh keys. These writes change index buckets, instance
    membership and joined rows, so a cache or delta scheme that pays off on
    value writes is exercised where it must invalidate and rebuild.
    """
    rng = random.Random(seed)
    n_entities, n_c1, n_c2, n_teams, n_leagues = 60, 10, 7, 30, 16
    rows = [
        _stats_row(rng, sid, n_entities, n_c1, n_c2) + [rng.randrange(n_teams)]
        for sid in range(2000)
    ]
    teams = [[t, f"team{t:02d}", f"L{t % n_leagues}"] for t in range(n_teams)]
    stats_columns = _STATS_COLUMNS + ["team_id"]
    catalog = _catalog(
        [("stats", stats_columns, ["sid"]), ("teams", ["t_id", "t_name", "league"], ["t_id"])],
        [
            "entity_attrs: [stats.player]",
            "categorical_attrs: [stats.c1, stats.c2, teams.league]",
        ]
        + _STATS_CRITERIA
        + ["join_edges:", "  - {from: stats.team_id, to: teams.t_id}"],
    )

    # Each block of 25 updates holds one insert and four writes of each
    # other kind in seeded order, so every seed gets the same mix.
    block = ["insert"] + ["value", "delta", "c1", "c2", "player", "team_id"] * 4
    sids = [row[0] for row in rows]
    next_sid = len(rows)
    updates: list[str] = []
    kinds: list[str] = []
    for seq in range(1, n_updates + 1):
        if not kinds:
            kinds = rng.sample(block, len(block))
        what = kinds.pop()
        if what == "insert":
            row = _stats_row(rng, next_sid, n_entities, n_c1, n_c2) + [rng.randrange(n_teams)]
            updates.append(_line(seq, "insert", "stats", dict(zip(stats_columns, row)), {}))
            sids.append(next_sid)
            next_sid += 1
            continue
        if what == "value":
            set_values = {rng.choice(("m1", "m2")): rng.randrange(_VALUE_RANGE)}
        elif what == "delta":
            set_values = {rng.choice(("m1", "m2")): {"delta": rng.randrange(-50, 51)}}
        elif what == "c1":
            set_values = {"c1": f"a{rng.randrange(n_c1)}"}
        elif what == "c2":
            set_values = {"c2": f"b{rng.randrange(n_c2)}"}
        elif what == "player":
            set_values = {"player": f"p{rng.randrange(n_entities):03d}"}
        else:
            set_values = {"team_id": rng.randrange(n_teams)}
        updates.append(_line(seq, "update", "stats", set_values, {"sid": rng.choice(sids)}))
    return Workload(
        name="join-churn",
        catalog_text=catalog,
        csvs={"stats": _csv(stats_columns, rows), "teams": _csv(["t_id", "t_name", "league"], teams)},
        updates=updates,
        k=5, c_num=2, j_num=1,
        counted=300, gate=30,
    )


def bloomberg_scaled(seed: int, n_updates: int) -> Workload:
    """The paper's five-relation Bloomberg schema (Fig. 5), scaled up.

    Its join graph has cycles, so generation searches multi-join paths and
    Engine start-up enumerates several covers per base relation. This is
    the workload where set-up cost shows, and each family re-evaluation
    scans thousands of joined rows.
    """
    rng = random.Random(seed)
    n_companies, n_persons, n_countries, holders_per_company = 200, 400, 40, 15
    sectors, regions = 8, 5
    # Sizes per group are fixed and the seed only decides who is where, so
    # the number of queries and the cost of an update vary little by seed.
    countries = [[c, f"country{c:02d}", f"r{c % regions}"] for c in range(n_countries)]
    slots = rng.sample(range(n_companies), n_companies)
    companies = [
        [c, f"comp{c:03d}", slots[c] % n_countries, f"s{slots[c] % sectors}"]
        for c in range(n_companies)
    ]
    slots = rng.sample(range(n_persons), n_persons)
    persons = [[p, f"person{p:03d}", slots[p] % n_countries] for p in range(n_persons)]
    markets = [[c, rng.randrange(1, 1000)] for c in range(n_companies)]
    holdings = sorted(
        [p, c, rng.randrange(1, 1000)]
        for c in range(n_companies)
        for p in rng.sample(range(n_persons), holders_per_company)
    )
    schema = [
        ("company", ["c_id", "c_name", "c_countryid", "c_sector"], ["c_id"]),
        ("person", ["p_id", "p_name", "p_countryid"], ["p_id"]),
        ("country", ["co_countryid", "co_name", "co_region"], ["co_countryid"]),
        ("stockmarket", ["s_companyid", "s_value"], ["s_companyid"]),
        ("shareholder", ["s_personid", "s_companyid", "s_amount"], ["s_personid", "s_companyid"]),
    ]
    catalog = _catalog(
        schema,
        [
            "entity_attrs: [company.c_name, person.p_name, country.co_name]",
            "categorical_attrs: [company.c_sector, country.co_region]",
            "ranking_criteria:",
            "  - {column: stockmarket.s_value, aggregation: sum, direction: descending}",
            "  - {column: shareholder.s_amount, aggregation: sum, direction: descending}",
            "join_edges:",
            "  - {from: company.c_countryid, to: country.co_countryid}",
            "  - {from: person.p_countryid, to: country.co_countryid}",
            "  - {from: shareholder.s_personid, to: person.p_id}",
            "  - {from: shareholder.s_companyid, to: company.c_id}",
            "  - {from: shareholder.s_companyid, to: stockmarket.s_companyid}",
            "  - {from: company.c_id, to: stockmarket.s_companyid}",
        ],
    )
    rows_of = {
        "company": companies, "person": persons, "country": countries,
        "stockmarket": markets, "shareholder": holdings,
    }
    # One write in five is to a holding, in seeded order. Holding writes
    # reach far more queries than price writes, and this share keeps the
    # median inside the price-write mode of the latency distribution.
    block = ["s_value"] * 4 + ["s_amount"]
    updates: list[str] = []
    kinds: list[str] = []
    for seq in range(1, n_updates + 1):
        if not kinds:
            kinds = rng.sample(block, len(block))
        if kinds.pop() == "s_value":
            set_values = {"s_value": rng.randrange(1, 1000)}
            where = {"s_companyid": rng.randrange(n_companies)}
            updates.append(_line(seq, "update", "stockmarket", set_values, where))
        else:
            p, c = holdings[rng.randrange(len(holdings))][:2]
            set_values = {"s_amount": rng.randrange(1, 1000)}
            where = {"s_personid": p, "s_companyid": c}
            updates.append(_line(seq, "update", "shareholder", set_values, where))
    return Workload(
        name="bloomberg-scaled",
        catalog_text=catalog,
        csvs={name: _csv(columns, rows_of[name]) for name, columns, _ in schema},
        updates=updates,
        k=5, c_num=2, j_num=3,
        counted=150, gate=12,
    )


WORKLOADS = {
    "flat-growth": flat_growth,
    "join-churn": join_churn,
    "bloomberg-scaled": bloomberg_scaled,
}

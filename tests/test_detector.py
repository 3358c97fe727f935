import itertools
import json
import math
import operator
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from halloffame import (
    ColumnRef,
    Delta,
    Engine,
    GeneratorConfig,
    Reference,
    SynthConfig,
    UpdateRecord,
    build_families,
    dump_queries,
    generate_queries,
    load_catalog,
    load_queries,
    synth_stream,
)
from halloffame import detector
from halloffame.detector import CHANGED, REFILLED, REORDERED, EntityOrder, fixed, real_value
from halloffame.reference import diff_rankings
from halloffame.store import Store
from conftest import DATA_DIR, assert_best_keys, load_dataset, load_instance, rankings_of
from oracles import (
    make_instance,
    make_updates,
    oracle_apply,
    oracle_diff,
    oracle_eval_query,
    oracle_path_join,
    oracle_path_rankings,
    oracle_rank,
    oracle_round,
    oracle_run,
    oracle_sql_rankings,
    referenced_columns,
    shape_columns,
)


def full_sort(totals: dict, counts: dict, aggregation: str, direction: str, k: int) -> tuple:
    """The top k of an instance by a full sort: oracle_rank of its entities'
    totals, or of their means for avg."""
    values = totals if aggregation == "sum" else {e: t / counts[e] for e, t in totals.items()}
    return tuple(oracle_rank(values, direction, k))


def fig5_update(seq=1):
    return UpdateRecord(seq, "update", "stockmarket", {"s_value": Delta(10)}, {"s_companyid": 8})


@pytest.fixture
def bloomberg_engine(bloomberg):
    catalog, store = bloomberg
    queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=1, j_num=3), store)
    return catalog, store, Engine(catalog, store, queries)


def route_families(engine, u):
    """The families the column tier (the route) touches for u, in fid order."""
    once, cached, twice, *_ = engine._route(u)
    return sorted([*once, *(fam for fam, *_ in cached), *twice], key=lambda fam: fam.id)


def family_queries(fam):
    """Ids of every query of a family, read off its slots."""
    return {o.qid for slot in fam.slots.values() for o in slot.orders}


def slot_queries(fam):
    """instance -> per criterion column: the ids of its queries, read off
    the family's slots."""
    return {inst: [[o.qid for o in column.orders] for column in slot.columns] for inst, slot in fam.slots.items()}


def column_candidates(engine, u):
    """Ids of the queries the route reaches: those of the written columns of
    the families it extends once, with or without their fan-out cache, and
    every query of the families it extends twice."""
    once, cached, twice, *_ = engine._route(u)
    written = [*once.items(), *((fam, columns) for fam, columns, _ in cached)]
    reached = {o.qid for fam, columns in written for slot in fam.slots.values()
               for j, *_ in columns for o in slot.columns[j].orders}
    return reached.union(*map(family_queries, twice))


def lookup(engine, u, rows):
    """Ids of the queries whose instances the family lookup reaches from the
    given rows of u.table, through each routed family's plan."""
    return {o.qid for fam in route_families(engine, u) for slot, *_ in fam.plans[u.table](rows) for o in slot.orders}


class TestRoute:
    """The column tier against referenced_columns: an update reaches exactly
    the queries whose columns it writes. Families whose shape columns it
    writes, and every family an insert reaches, are extended twice; the
    rest are extended once, through the fan-out cache when they have a leaf."""

    @staticmethod
    def check(engine, u):
        once, cached, twice, cleared, n = engine._route(u)
        assert engine._route(u) is engine._routes[u.kind, u.table, tuple(u.set_values)]
        written = {ColumnRef(u.table, c) for c in u.set_values}
        reached = column_candidates(engine, u)
        assert reached == {qid for qid, q in engine.queries.items() if referenced_columns(q) & written}, u
        assert n == len(reached)
        assert set().union(*map(family_queries, twice)) == {
            qid for qid, q in engine.queries.items()
            if shape_columns(q) & written or u.kind == "insert" and referenced_columns(q) & written
        }, u
        for group in (list(once), [fam for fam, *_ in cached], twice):
            assert [fam.id for fam in group] == sorted({fam.id for fam in group})
        assert len(route_families(engine, u)) == len(once) + len(cached) + len(twice)
        assert all(fam.leaf for fam, *_ in cached) and not any(fam.leaf for fam in once)
        assert cleared == [fam.fanout for fam in twice if fam.leaf]
        return bool(once), bool(cached), bool(twice)

    @staticmethod
    def engine(name):
        if name == "two-table":
            inst = make_instance(random.Random(8), n_rows=90, n_entities=10, two_tables=True, with_user_atom=True)
            catalog, store = load_instance(inst)
            return catalog, Engine(catalog, store, generate_queries(catalog, GeneratorConfig(k=3, c_num=2, j_num=1), store))
        text = (DATA_DIR / "bloomberg" / "catalog.yaml").read_text(encoding="utf-8")
        if name == "bloomberg-amounts":
            text = text.replace("ranking_criteria:\n", "ranking_criteria:\n" + TestFamilyScan.AMOUNT_CRITERIA)
        catalog, store = load_dataset("bloomberg", text)
        return catalog, Engine(catalog, store, generate_queries(catalog, GeneratorConfig(k=1, c_num=2, j_num=3), store))

    @pytest.mark.parametrize("name", ["bloomberg", "bloomberg-amounts", "two-table"])
    def test_random_update_shapes(self, name):
        catalog, engine = self.engine(name)
        rng = random.Random(22)
        paths = Counter()
        for _ in range(200):
            rel = rng.choice(catalog.relations)
            columns = rel.column_names()
            kind = rng.choice(("update", "insert"))
            if kind == "update":
                columns = rng.sample(columns, rng.randint(1, len(columns)))
            u = UpdateRecord(1, kind, rel.name, dict.fromkeys(columns, 0), {})
            paths.update(path for path, taken in zip(("once", "cached", "twice"), self.check(engine, u)) if taken)
        assert paths["twice"] and paths["once"] + paths["cached"], paths  # both kinds of extension were checked

    def test_unreferenced_column_reaches_nothing(self, bloomberg_engine):
        _, _, engine = bloomberg_engine
        u = UpdateRecord(1, "update", "shareholder", {"s_amount": 99}, {"s_personid": 0, "s_companyid": 3})
        assert column_candidates(engine, u) == set()
        assert route_families(engine, u) == []
        self.check(engine, u)

    def test_criterion_column_reaches_all_its_queries(self, bloomberg_engine):
        _, _, engine = bloomberg_engine
        assert column_candidates(engine, fig5_update()) == set(engine.queries)
        self.check(engine, fig5_update())

    def test_insert_counts_all_columns(self, bloomberg_engine):
        _, _, engine = bloomberg_engine
        u = UpdateRecord(1, "insert", "stockmarket", {"s_companyid": 9, "s_value": 5}, {})
        assert column_candidates(engine, u) == set(engine.queries)
        assert engine._route(u)[2] == engine.families
        self.check(engine, u)

    def test_criterion_column_always_present(self, bloomberg_engine):
        # every family of the fixture ranks on s_value, so writing it alone reaches them all
        _, _, engine = bloomberg_engine
        u = UpdateRecord(1, "update", "stockmarket", {"s_value": 0}, {})
        assert route_families(engine, u) == engine.families


class TestRowFilter:
    def test_unmatched_binding_filtered_out(self, bloomberg_engine):
        _, store, engine = bloomberg_engine
        usa = next(
            qid
            for qid, q in engine.queries.items()
            if any(a.kind == "binding" and a.right == "USA" for a in q.predicate)
            and str(q.entity_attr) == "company.c_name"
        )
        u = fig5_update()
        rows = store.match_rows(u)
        assert rows == [8]
        assert lookup(engine, u, rows) & {usa} == set()  # company 8 is Greek, not in the USA group

    def test_matching_row_retained(self, bloomberg):
        # k=2 so the Greece-bound ranking (two Greek companies) exists
        catalog, store = bloomberg
        queries = generate_queries(catalog, GeneratorConfig(k=2, c_num=1, j_num=3), store)
        engine = Engine(catalog, store, queries)
        greece = next(
            qid
            for qid, q in engine.queries.items()
            if any(a.kind == "binding" and a.right == "Greece" for a in q.predicate)
        )
        u = fig5_update()
        assert lookup(engine, u, store.match_rows(u)) & {greece} == {greece}

    def test_empty_affected_rows(self, bloomberg_engine):
        _, _, engine = bloomberg_engine
        assert lookup(engine, fig5_update(), []) == set()


class TestDiffRankings:
    def test_identical_states(self):
        state = (("a", 3), ("b", 2))
        assert diff_rankings(state, state, 5) == []

    def test_entering_from_outside(self):
        old = (("a", 9), ("b", 8))
        new = (("a", 9), ("c", 8))
        assert diff_rankings(old, new, 2) == [("c", 3, 2)]

    def test_fig5_before_after(self):
        old = (("Bill Gates", 210), ("Warren E. Buffet", 210), ("Amancio O. Gaona", 204))
        new = (("Amancio O. Gaona", 214), ("Bill Gates", 210), ("Warren E. Buffet", 210))
        assert diff_rankings(old, new, 3) == [("Amancio O. Gaona", 3, 1)]


class TestEventsFromKeys:
    """The delta path derives a changed order's events from its old and new
    first k keys; only the reference stores and diffs rankings. The delta
    path's ranking of a query is built from its order's keys only when
    Engine.ranking asks. Per update, both count the same changed entity
    orders and the same reordered top-Ks."""

    def replay(self, engine_class: type) -> tuple[Engine | Reference, list, list[detector.DetectStats]]:
        """(engine_class's engine, its events, per update the stats it reported)."""
        catalog, store = load_dataset("bloomberg")
        stream = synth_stream(store, catalog, SynthConfig(seed=1))
        queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=1, j_num=3), store)
        engine = engine_class(catalog, store, queries)
        events, stats = [], []
        for u in stream:
            events += [(e.seq, e.query_id, e.entity, e.from_rank, e.to_rank) for e in engine.detect(u)]
            stats.append(engine.last_stats)
        return engine, events, stats

    def test_filtered_engine_builds_no_ranking(self, monkeypatch):
        def forbidden(order):
            raise AssertionError("the delta path built a ranking")

        monkeypatch.setattr(EntityOrder, "ranking", forbidden)
        engine, events, stats = self.replay(Engine)  # start-up and every detect
        monkeypatch.undo()
        reference, expected, expected_stats = self.replay(Reference)
        assert events == expected
        changed = [s.changed for s in stats]
        assert changed == [s.changed for s in expected_stats] and any(changed)
        assert rankings_of(engine) == rankings_of(reference)

    def test_both_paths_count_the_same_reordered_top_ks(self):
        # a top-K reorders when its entities or their values change, so a
        # ranking can reorder without its entity order changing
        stats, expected = self.replay(Engine)[2], self.replay(Reference)[2]
        reordered = [s.reordered for s in stats]
        assert reordered == [s.reordered for s in expected]
        assert any(s.reordered > s.changed for s in stats)
        assert all(s.reordered < s.row_candidates for s in expected)  # not every query the reference rescans


class TestDetect:
    def test_fig5_produces_exactly_one_event(self, bloomberg_engine):
        _, _, engine = bloomberg_engine
        events = engine.detect(fig5_update())
        improvements = [(e.entity, e.from_rank, e.to_rank) for e in events]
        assert ("Amancio O. Gaona", 3, 1) in improvements
        person_events = [
            e for e in events if str(engine.queries[e.query_id].entity_attr) == "person.p_name"
        ]
        assert [(e.entity, e.from_rank, e.to_rank) for e in person_events] == [
            ("Amancio O. Gaona", 3, 1)
        ]
        assert all(e.from_rank > e.to_rank for e in events)

    def test_no_match_update_skips_reevaluation(self, bloomberg_engine):
        _, _, engine = bloomberg_engine
        u = UpdateRecord(1, "update", "stockmarket", {"s_value": 5}, {"s_companyid": 999})
        assert engine.detect(u) == []
        assert engine.last_stats.row_candidates == 0

    def test_unreferenced_column_skips_row_filter(self, bloomberg_engine):
        _, _, engine = bloomberg_engine
        u = UpdateRecord(
            1, "update", "shareholder", {"s_amount": 1}, {"s_personid": 0, "s_companyid": 3}
        )
        assert engine.detect(u) == []
        assert engine.last_stats.column_candidates == 0

    def test_determinism(self, bloomberg):
        def one_run():
            catalog, store = load_catalog_and_store()
            queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=1, j_num=3), store)
            engine = Engine(catalog, store, queries)
            out = []
            for seq in range(1, 4):
                out.append(engine.detect(fig5_update(seq)))
            return out

        def load_catalog_and_store():
            from conftest import load_dataset

            return load_dataset("bloomberg")

        assert one_run() == one_run()

    def test_each_update_matched_once(self, bloomberg_engine, monkeypatch):
        _, store, engine = bloomberg_engine
        matched = []
        match_rows = store.match_rows
        monkeypatch.setattr(store, "match_rows", lambda u: matched.append(u.seq) or match_rows(u))
        updates = [
            fig5_update(1),  # a criterion value: families extended once
            UpdateRecord(2, "update", "company", {"c_countryid": 1}, {"c_id": 0}),  # a join column: twice
            UpdateRecord(3, "update", "stockmarket", {"s_value": 5}, {"s_companyid": 999}),  # no row
        ]
        for u in updates:
            engine.detect(u)
        assert matched == [1, 2, 3]

    def test_invalid_update_leaves_store_untouched(self, bloomberg_engine):
        _, store, engine = bloomberg_engine
        before = [list(r) for r in store.table("stockmarket").rows]
        bad = UpdateRecord(1, "update", "stockmarket", {"s_value": "oops"}, {"s_companyid": 8})
        with pytest.raises(Exception):
            engine.detect(bad)
        assert store.table("stockmarket").rows == before


class TestSoundness:
    """Engine events must equal re-evaluating every query on every update."""

    def run_instance(self, trial, rng):
        inst = make_instance(
            rng,
            n_rows=rng.randrange(40, 200),
            n_entities=rng.randrange(6, 25),
            n_c1=rng.randrange(2, 6),
            n_c2=rng.randrange(2, 5),
            two_tables=trial % 2 == 1,
            with_user_atom=trial % 3 == 2,
        )
        catalog, store = load_instance(inst)
        cfg = GeneratorConfig(k=rng.randrange(2, 5), c_num=2, j_num=2)
        queries = generate_queries(catalog, cfg, store)
        if not queries:
            return
        engine = Engine(catalog, store, queries)
        updates = make_updates(rng, inst, 60)
        tables = {name: [dict(r) for r in rows] for name, rows in inst.tables.items()}
        got = []
        for u in updates:
            for e in engine.detect(u):
                got.append((e.seq, e.query_id, e.entity, e.from_rank, e.to_rank))
            oracle_apply(tables, u)
            # cached states must equal a from-scratch evaluation at all times
            if u.seq % 17 == 0:
                for qid, q in engine.queries.items():
                    assert list(engine.ranking(qid)) == oracle_eval_query(tables, inst, q)
        want = oracle_run(inst, queries, updates)
        assert got == want, f"trial {trial}"

    def test_random_instances_match_oracle(self):
        rng = random.Random(1234)
        for trial in range(8):
            self.run_instance(trial, rng)

    def test_changed_queries_always_survive_filters(self):
        rng = random.Random(555)
        inst = make_instance(rng, n_rows=120, n_entities=15, two_tables=True)
        catalog, store = load_instance(inst)
        queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=2, j_num=1), store)
        engine = Engine(catalog, store, queries)
        shadow_catalog, shadow_store = load_instance(inst)
        shadow = Reference(shadow_catalog, shadow_store, queries)
        for u in make_updates(rng, inst, 80):
            filtered = engine.detect(u)
            unfiltered = shadow.detect(UpdateRecord(u.seq, u.kind, u.table, u.set_values, u.where))
            assert filtered == unfiltered
            assert engine.last_stats.row_candidates <= shadow.last_stats.row_candidates


class TestDeltaSoundness:
    """Delta-maintained rankings equal the oracle after every single update,
    for structural writes the random streams never make: writes to the
    joined-in table, inserts into it, join-column and key moves, and groups
    that empty and refill."""

    def check_stream(self, catalog, store, queries, tables, edges_inst, updates):
        engine = Engine(catalog, store, queries)
        assert engine.queries
        for u in updates:
            engine.detect(u)
            oracle_apply(tables, u)
            for qid, q in engine.queries.items():
                want = oracle_eval_query(tables, edges_inst, q)
                assert list(engine.ranking(qid)) == want, (u.seq, qid)

    def test_two_table_structural_writes(self):
        rng = random.Random(21)
        inst = make_instance(rng, n_rows=90, n_entities=10, two_tables=True, with_user_atom=True)
        catalog, store = load_instance(inst)
        queries = generate_queries(catalog, GeneratorConfig(k=2, c_num=2, j_num=1), store)
        tables = {name: [dict(r) for r in rows] for name, rows in inst.tables.items()}
        player = tables["stats"][0]["player"]
        writes = [
            ("update", "teams", {"league": "L1"}, {"t_id": 0}),
            ("insert", "teams", {"t_id": 5, "t_name": "team05", "league": "L0"}, {}),
            ("update", "stats", {"team_id": 5}, {"sid": 3}),
            ("update", "stats", {"team_id": 5}, {"team_id": 1}),
            ("update", "teams", {"league": "L1"}, {"t_id": 5}),
            ("update", "stats", {"player": "p999"}, {"player": player}),
            ("update", "stats", {"m1": Delta(40)}, {"player": "p999"}),
            ("update", "stats", {"player": player}, {"player": "p999"}),
            ("update", "stats", {"c1": "a0"}, {"c1": "a1"}),
            ("update", "stats", {"c1": "a1"}, {"sid": 7}),
            ("update", "teams", {"league": "L0"}, {"league": "L1"}),
            ("insert", "teams", {"t_id": 6, "t_name": "team06", "league": "L2"}, {}),
            ("update", "stats", {"team_id": 6, "m2": 3}, {"sid": 11}),
        ]
        updates = [UpdateRecord(seq, *w) for seq, w in enumerate(writes, start=1)]
        for u in make_updates(rng, inst, 40):
            updates.append(UpdateRecord(u.seq + len(writes), u.kind, u.table, u.set_values, u.where))
        self.check_stream(catalog, store, queries, tables, inst, updates)

    def test_bloomberg_join_and_key_moves(self, bloomberg):
        catalog, store = bloomberg
        queries = generate_queries(catalog, GeneratorConfig(k=2, c_num=1, j_num=3), store)
        tables = {
            name: [dict(zip(t.meta.column_names(), row)) for row in t.rows]
            for name, t in store.tables.items()
        }
        edges = SimpleNamespace(
            edges=[(e.src.relation, e.src.column, e.dst.relation, e.dst.column) for e in catalog.join_edges]
        )
        writes = [
            ("update", "company", {"c_countryid": 4}, {"c_id": 6}),  # Italy empties
            ("update", "shareholder", {"s_companyid": 7}, {"s_personid": 1, "s_companyid": 8}),
            ("update", "stockmarket", {"s_value": Delta(500)}, {"s_companyid": 7}),
            ("update", "company", {"c_countryid": 3}, {"c_id": 3}),
            ("update", "shareholder", {"s_companyid": 4}, {"s_personid": 0, "s_companyid": 3}),
            ("update", "company", {"c_countryid": 2}, {"c_id": 6}),  # Italy refills
            ("update", "shareholder", {"s_companyid": 8}, {"s_personid": 1, "s_companyid": 7}),
            ("update", "shareholder", {"s_companyid": 6}, {"s_companyid": 5}),  # two rows
            ("update", "stockmarket", {"s_value": 300}, {"s_companyid": 6}),
            ("update", "person", {"p_countryid": 1}, {"p_id": 2}),
            ("insert", "shareholder", {"s_personid": 2, "s_companyid": 4, "s_amount": 70}, {}),
            ("insert", "company", {"c_id": 9, "c_name": "Volvo", "c_countryid": 4}, {}),
            ("insert", "stockmarket", {"s_companyid": 9, "s_value": 80}, {}),
            ("update", "company", {"c_countryid": 5}, {"c_id": 4}),
            ("update", "stockmarket", {"s_value": Delta(-200)}, {"s_companyid": 4}),
        ]
        updates = [UpdateRecord(seq, *w) for seq, w in enumerate(writes, start=1)]
        self.check_stream(catalog, store, queries, tables, edges, updates)


GAMES_CATALOG = """
relations:
  - name: games
    columns:
      - {name: gid, type: integer}
      - {name: player, type: text}
      - {name: team, type: text}
      - {name: pts, type: integer}
      - {name: rating, type: real}
    key: [gid]
entity_attrs: [player]
categorical_attrs: [team]
ranking_criteria:
  - {column: pts, aggregation: sum, direction: both}
  - {column: rating, aggregation: avg, direction: both}
"""

# (column, aggregation, direction, k): several queries per instance, so each
# family holds queries of different k, aggregation and direction
GAMES_QUERIES = [
    ("pts", "sum", "descending", 2),
    ("pts", "sum", "ascending", 3),
    ("pts", "avg", "descending", 3),
    ("pts", "avg", "ascending", 1),
    ("rating", "sum", "descending", 2),
    ("rating", "sum", "ascending", 1),
    ("rating", "avg", "descending", 3),
    ("rating", "avg", "ascending", 2),
]

NO_EDGES = SimpleNamespace(edges=[])  # one table: the oracle joins nothing

# sums and averages of these are rarely exact floats, so the rounding order
# of a real avg (float of the exact total, then divide) shows in the values
RATINGS = (0.1, 0.2, 0.3, 0.7, 1.1, 2.5)


class TestMaintainedOrder:
    """The sorted entity orders that the delta path maintains give, after
    every update, exactly the top-K of a full sort of the family's current
    totals, and the brute-force oracle's ranking."""

    def query_catalog(self) -> str:
        lines = []
        for team in ("red", "blue"):
            for column, aggregation, direction, k in GAMES_QUERIES:
                doc = {
                    "id": f"{team}-{column}-{aggregation}-{direction}-{k}",
                    "entity": "games.player",
                    "predicate": [{"kind": "binding", "left": "games.team", "comparator": "=", "right": team}],
                    "criterion": {"column": f"games.{column}", "aggregation": aggregation, "direction": direction},
                    "join_path": [],
                    "k": k,
                    "selectivity": 0.5,
                    "entropy_bits": 1.0,
                }
                lines.append(json.dumps(doc))
        return "\n".join(lines) + "\n"

    def oracle_top(self, tables: dict, q) -> list[tuple]:
        """oracle_eval_query over exact ratings, rounded the way the engine
        ranks a real column: the float of the exact total, then divided by
        the row count for avg."""
        if q.criterion.column.column != "rating":
            return oracle_eval_query(tables, NO_EDGES, q)

        def everyone(aggregation):
            full = replace(q, criterion=replace(q.criterion, aggregation=aggregation), k=10**6)
            return dict(oracle_eval_query(tables, NO_EDGES, full))

        sums, avgs = everyone("sum"), everyone("avg")
        if q.criterion.aggregation == "avg":  # ratings are positive, so count = sum / avg
            values = {e: float(s) / int(s / avgs[e]) for e, s in sums.items()}
        else:
            values = {e: float(s) for e, s in sums.items()}
        return oracle_rank(values, q.criterion.direction, q.k)

    def updates(self, rng: random.Random, gids: list[int]) -> list[UpdateRecord]:
        players = [f"p{i}" for i in range(8)]
        writes = [
            ("update", {"pts": 3}, {"gid": 0}),
            ("update", {"pts": 3}, {"gid": 1}),  # equal totals: the tie-break decides
            ("update", {"player": "p1"}, {"player": "p0"}),  # p0 drops to count 0
            ("insert", {"gid": 100, "player": "p9", "team": "red", "pts": 9, "rating": 0.7}, {}),  # new, top
            ("update", {"pts": Delta(-9)}, {"gid": 100}),  # and out of the top again
            ("update", {"team": "blue"}, {"player": "p9"}),  # leaves one instance for the other
        ]
        gids.append(100)
        for _ in range(400):
            gid = rng.choice(gids)
            kind = rng.randrange(7)
            if kind == 0:
                writes.append(("update", {"pts": Delta(rng.randint(-3, 3))}, {"gid": gid}))
            elif kind == 1:
                writes.append(("update", {"pts": rng.randint(0, 4)}, {"gid": gid}))
            elif kind == 2:
                writes.append(("update", {"rating": Delta(rng.choice(RATINGS))}, {"gid": gid}))
            elif kind == 3:
                writes.append(("update", {"rating": rng.choice(RATINGS)}, {"gid": gid}))
            elif kind == 4:
                writes.append(("update", {"player": rng.choice(players + ["p8", "p9"])}, {"gid": gid}))
            elif kind == 5:
                writes.append(("update", {"team": rng.choice(("red", "blue"))}, {"gid": gid}))
            else:
                gid = gids[-1] + 1
                row = {"gid": gid, "player": rng.choice(players + [f"n{gid}"]), "team": rng.choice(("red", "blue")),
                       "pts": rng.randint(0, 4), "rating": rng.choice(RATINGS)}
                writes.append(("insert", row, {}))
                gids.append(gid)
        return [UpdateRecord(seq, kind, "games", sv, where) for seq, (kind, sv, where) in enumerate(writes, start=1)]

    def test_top_k_equals_full_sort_and_oracle_after_every_update(self):
        rng = random.Random(62)
        catalog = load_catalog(GAMES_CATALOG)
        rows = [
            [gid, f"p{rng.randrange(8)}", rng.choice(("red", "blue")), rng.randint(0, 4), rng.choice(RATINGS)]
            for gid in range(30)
        ]
        store = Store(catalog)
        store.load_table("games", "gid,player,team,pts,rating\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
        queries = load_queries(self.query_catalog(), catalog)
        engine = Engine(catalog, store, queries)
        # one family holds both criterion columns, integer pts and real rating
        (fam,) = engine.families
        assert fam.columns == (ColumnRef("games", "pts"), ColumnRef("games", "rating")) and fam.real == (False, True)
        assert all(len(column.orders) == len(GAMES_QUERIES) // 2 for slot in fam.slots.values() for column in slot.columns)
        columns = ["gid", "player", "team", "pts", "rating"]
        tables = {"games": [dict(zip(columns, r)) for r in rows]}
        seen = {"tie": 0, "reordered": 0, "skipped": 0, "entities": set()}
        for u in self.updates(rng, [r[0] for r in rows]):
            engine.detect(u)
            oracle_apply(tables, u)
            # the store keeps rounded floats; the engine sums them exactly
            exact = {"games": [{**r, "rating": Fraction(r["rating"])} for r in tables["games"]]}
            assert_best_keys(engine)
            stats = engine.last_stats
            assert stats.reordered <= stats.row_candidates
            seen["reordered"] += stats.reordered
            seen["skipped"] += stats.row_candidates - stats.reordered
            for slot in fam.slots.values():
                for column, column_totals, real in zip(slot.columns, slot.totals, fam.real):
                    totals = {e: real_value(t) for e, t in column_totals.items()} if real else column_totals
                    seen["entities"] |= set(totals)
                    for order in column.orders:
                        qid = order.qid
                        q = engine.queries[qid]
                        got = engine.ranking(qid)
                        c = q.criterion
                        assert got == full_sort(totals, slot.counts, c.aggregation, c.direction, q.k), (u.seq, qid)
                        assert list(got) == self.oracle_top(exact, q), (u.seq, qid)
                        values = [v for _, v in got]
                        seen["tie"] += len(set(values)) < len(values)
        assert seen["tie"] and seen["reordered"] and seen["skipped"]
        assert "p9" in seen["entities"] and any(e.startswith("n") for e in seen["entities"])  # new entities


class TestRefill:
    """An order holds at most 2k keys. When the best entities of a large
    instance keep getting worse, it runs short of k keys and fills itself
    again from every entity of the instance."""

    def test_worsening_leaders_refill_the_order(self):
        catalog = load_catalog(GAMES_CATALOG)
        rng = random.Random(5)
        rows = [[gid, f"p{gid % 40:02d}", "red" if gid < 70 else "blue", rng.randint(1, 50), rng.choice(RATINGS)]
                for gid in range(90)]
        store = TestNetZero.store_of(catalog, rows)
        queries = load_queries(TestMaintainedOrder().query_catalog(), catalog)
        engine = Engine(catalog, store, queries)
        columns = ["gid", "player", "team", "pts", "rating"]
        tables = {"games": [dict(zip(columns, r)) for r in rows]}
        leader = "red-pts-sum-descending-2"
        assert engine.orders[leader].bound is not None  # 40 entities, 4 held
        refilled = []
        for seq in range(1, 61):
            # the leader's rows drop to the bottom, and with them its rating
            top = engine.ranking(leader)[0][0]
            u = UpdateRecord(seq, "update", "games", {"pts": 0, "rating": 0.1}, {"player": top})
            engine.detect(u)
            oracle_apply(tables, u)
            refilled.append(engine.last_stats.refilled)
            assert_best_keys(engine)
            exact = {"games": [{**r, "rating": Fraction(r["rating"])} for r in tables["games"]]}
            for qid, q in engine.queries.items():
                assert list(engine.ranking(qid)) == TestMaintainedOrder().oracle_top(exact, q), (seq, qid)
        # with k = 2 the leader's order holds 4 keys and loses one per update
        assert sum(refilled) >= 60 // 3 and refilled.count(0) > 0


ORDER_VALUES = st.tuples(st.integers(1, 3), st.integers(-20, 20))  # (count, total) of an entity


class TestEntityOrderUpdate:
    """EntityOrder.update against a full sort of the instance after every
    step: the events it appends are the oracle's diff of the two rankings,
    and it reports REORDERED exactly when the first k keys changed, CHANGED
    exactly when the ranking's entities changed and REFILLED exactly when it
    sorted its instance again. Its held map stays the keys' own, by entity,
    and the keys stay sorted with no entity twice."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        k=st.integers(1, 3),
        aggregation=st.sampled_from(["sum", "avg"]),
        direction=st.sampled_from(["ascending", "descending"]),
        initial=st.dictionaries(st.integers(0, 9), ORDER_VALUES, max_size=10),
        # per step, one to five moved entities: new values, or None to leave
        steps=st.lists(st.dictionaries(st.integers(0, 11), st.none() | ORDER_VALUES, min_size=1, max_size=5), max_size=12),
    )
    # four of five entities leave, the fifth held and the one beyond the
    # bound among them: the order is short of k with a stale bound, and the
    # entity that enters next lies above that bound, so no key moves and
    # the first k keys change only through the refill
    @example(
        k=2,
        aggregation="sum",
        direction="descending",
        initial={0: (1, 10), 1: (1, 9), 2: (1, 8), 3: (1, 7), 4: (1, 6)},
        steps=[{1: None, 2: None, 3: None, 4: None}, {5: (1, 1)}],
    )
    # equal values, so the entity decides every bisection and which keys lie
    # beyond the bound; in each step held entities fall beyond the bound,
    # others rise within it and others move and stay beyond it; in the
    # first, a held entity keeps its key and the order overfills, so the
    # bound moves
    @example(
        k=2,
        aggregation="sum",
        direction="descending",
        initial={e: (1, 5) for e in range(8)},
        steps=[
            {0: (2, 5), 2: (1, 4), 5: (1, 5), 6: (1, 6), 7: (1, 9)},
            {1: (1, 4), 3: (1, 7), 4: (1, 5), 0: None, 2: (1, 5)},
        ],
    )
    # every move lands at index k or beyond: a held key moves within the
    # tail, an entity not held rises but stays beyond the bound and another
    # leaves, so nothing is reported
    @example(
        k=2,
        aggregation="sum",
        direction="descending",
        initial={0: (1, 10), 1: (1, 9), 2: (1, 8), 3: (1, 7), 4: (1, 6), 5: (1, 5)},
        steps=[{3: (1, 8), 4: (1, 7), 5: None}],
    )
    # three held entities leave, the first of them below k; the order then
    # runs short of k and refills from the entities beyond the bound, whose
    # values tie with the leavers'. A refill never leaves the first k keys
    # as they were: the order runs short only after a key below k left, or
    # when it held every entity and a new one beyond its stale bound arrives
    @example(
        k=2,
        aggregation="sum",
        direction="descending",
        initial={0: (1, 9), 1: (1, 9), 2: (1, 9), 3: (1, 9), 4: (1, 9), 5: (1, 9)},
        steps=[{0: None, 1: None, 2: None}],
    )
    # the second entity loses its last row: the top shrinks with no
    # improvement, and the entity order still changed
    @example(
        k=2,
        aggregation="sum",
        direction="descending",
        initial={0: (1, 10), 1: (1, 9)},
        steps=[{1: None}],
    )
    # entities not held reach the value of the bound, which entity 4 holds
    # (5 ties it, beyond the bound): as the leader leaves, entity 1, below
    # the bound's entity, enters and ranks first; as 1 leaves, entity 6,
    # above it, stays out, so when 4 leaves too the order refills and 5
    # ranks first. Admitting every tie keeps 6 and ranks it first; admitting
    # none ranks 4 first after the first step
    @example(
        k=1,
        aggregation="sum",
        direction="descending",
        initial={2: (1, 12), 4: (1, 10), 5: (2, 10), 1: (1, 3), 6: (1, 2)},
        steps=[{2: None, 1: (1, 10)}, {1: None, 6: (2, 10)}, {4: None}],
    )
    @example(
        k=1,
        aggregation="sum",
        direction="ascending",
        initial={2: (1, -12), 4: (1, -10), 5: (2, -10), 1: (1, 3), 6: (1, 2)},
        steps=[{2: None, 1: (1, -10)}, {1: None, 6: (2, -10)}, {4: None}],
    )
    def test_matches_full_sort(self, k, aggregation, direction, initial, steps):
        counts = {e: n for e, (n, _) in initial.items()}
        totals = {e: t for e, (_, t) in initial.items()}
        q = SimpleNamespace(id="q", k=k, criterion=SimpleNamespace(aggregation=aggregation, direction=direction))
        order = EntityOrder(totals, counts, False, q)
        before = full_sort(totals, counts, aggregation, direction, k)
        for seq, step in enumerate(steps, start=1):
            held, keys = order.keys[:k], order.keys
            for e, values in step.items():
                if values is None:
                    counts.pop(e, None)
                    totals.pop(e, None)
                else:
                    counts[e], totals[e] = values
            events = []
            result = order.update(set(step), counts, seq, events)
            after = full_sort(totals, counts, aggregation, direction, k)
            assert order.ranking() == after
            assert order.held == {e: x for x in order.keys for e in (x[1],)}
            assert order.keys == sorted(order.keys) and len(order.held) == len(order.keys)
            assert bool(result & REORDERED) == (order.keys[:k] != held)
            assert bool(result & CHANGED) == ([e for e, _ in before] != [e for e, _ in after])
            assert bool(result & REFILLED) == (order.keys is not keys)  # only fill replaces the list
            assert result & ~(REORDERED | CHANGED | REFILLED) == 0
            assert [(x.query_id, x.seq) for x in events] == [("q", seq)] * len(events)
            assert [(x.entity, x.from_rank, x.to_rank) for x in events] == oracle_diff(list(before), list(after), k)
            before = after


    def test_moves_beyond_the_bound_return_0_at_once(self):
        # every moved entity stays beyond the bound, one of them entering
        # the instance: nothing moves, so the call returns 0 at once and
        # the keys stay the same list with the same contents
        counts = {e: 1 for e in range(8)}
        totals = {e: 10 - e for e in range(8)}
        q = SimpleNamespace(id="q", k=2, criterion=SimpleNamespace(aggregation="sum", direction="descending"))
        order = EntityOrder(totals, counts, False, q)
        keys, held, bound = order.keys, dict(order.held), order.bound
        contents = list(keys)
        totals.update({5: 4, 6: 2, 8: 1})
        counts[8] = 1
        events = []
        assert order.update({5, 6, 8}, counts, 1, events) == 0
        assert order.keys is keys and keys == contents and order.held == held and order.bound == bound
        assert events == []


PLAYS_CATALOG = """
relations:
  - name: plays
    columns:
      - {name: pid, type: integer}
      - {name: player, type: text}
      - {name: team, type: text}
      - {name: pts, type: integer}
      - {name: lvl, type: integer}
      - {name: ast, type: integer}
    key: [pid]
  - name: levels
    columns:
      - {name: lvl_id, type: integer}
      - {name: tier, type: text}
    key: [lvl_id]
entity_attrs: [plays.player]
categorical_attrs: [plays.team, levels.tier]
ranking_criteria:
  - {column: plays.pts, aggregation: sum, direction: both}
  - {column: plays.lvl, aggregation: sum, direction: both}
  - {column: plays.ast, aggregation: sum, direction: both}
join_edges:
  - {from: plays.lvl, to: levels.lvl_id}
"""

PLAYS_EDGES = SimpleNamespace(edges=[("plays", "lvl", "levels", "lvl_id")])
LEVELS = [[0, "gold"], [1, "gold"], [2, "silver"], [3, "silver"], [4, "bronze"]]


def plays_query(qid, column, aggregation, direction, k, bindings, atoms=(), joined=False) -> dict:
    predicate = [{"kind": "binding", "left": left, "comparator": "=", "right": right} for left, right in bindings]
    predicate += [{"kind": "const_comparison", "left": left, "comparator": op, "right": right} for left, op, right in atoms]
    return {
        "id": qid,
        "entity": "plays.player",
        "predicate": predicate,
        "criterion": {"column": f"plays.{column}", "aggregation": aggregation, "direction": direction},
        "join_path": [{"from": "plays.lvl", "to": "levels.lvl_id"}] if joined else [],
        "k": k,
        "selectivity": 0.5,
        "entropy_bits": 1.0,
    }


class TestSingleExtension:
    """An update that writes none of a family's shape columns is extended
    once and its criterion values are read before and after it; any other
    update is extended before and after. Here the criterion column pts is
    also a fixed-atom column of one family, and lvl is the criterion of
    another family and the join column of both joined families, so writes
    to them must re-extend there while value-only writes must not."""

    def queries(self, catalog):
        docs = []
        for team in ("red", "blue"):
            on_team = [("plays.team", team)]
            # pts is the criterion and a fixed-atom column: a write can move a row across pts >= 3
            docs.append(plays_query(f"pts-atom-sum-{team}", "pts", "sum", "descending", 2, on_team, [("plays.pts", ">=", 3)]))
            docs.append(plays_query(f"pts-atom-avg-{team}", "pts", "avg", "ascending", 3, on_team, [("plays.pts", ">=", 3)]))
            # pts as a plain criterion: its writes are value-only here
            docs.append(plays_query(f"pts-{team}", "pts", "sum", "descending", 2, on_team))
            docs.append(plays_query(f"ast-{team}", "ast", "sum", "ascending", 2, on_team))
        for tier in ("gold", "silver", "bronze"):
            on_tier = [("levels.tier", tier)]
            # lvl is the criterion and the join column: a write can move a row to another tier
            docs.append(plays_query(f"lvl-join-{tier}", "lvl", "sum", "descending", 2, on_tier, joined=True))
            docs.append(plays_query(f"pts-join-{tier}", "pts", "avg", "descending", 2, on_tier, joined=True))
        return load_queries("".join(json.dumps(d) + "\n" for d in docs), catalog)

    def updates(self, rng, n_rows):
        players = [f"p{i}" for i in range(7)]
        pids = list(range(n_rows))
        writes = [
            ("update", "plays", {"pts": 5}, {"pid": 0}),  # into pts >= 3 (or up within it)
            ("update", "plays", {"pts": 1}, {"pid": 0}),  # out of it again
            ("update", "plays", {"lvl": 4}, {"pid": 1}),  # to the bronze tier
            ("update", "plays", {"lvl": 0}, {"pid": 1}),  # to gold
        ]
        for _ in range(300):
            pid = rng.choice(pids)
            kind = rng.randrange(8)
            if kind == 0:
                writes.append(("update", "plays", {"pts": rng.randint(0, 6)}, {"pid": pid}))
            elif kind == 1:
                writes.append(("update", "plays", {"pts": Delta(rng.randint(-3, 3))}, {"pid": pid}))
            elif kind == 2:
                writes.append(("update", "plays", {"lvl": rng.randrange(len(LEVELS))}, {"pid": pid}))
            elif kind == 3:
                writes.append(("update", "plays", {"ast": Delta(rng.randint(-2, 4))}, {"pid": pid}))
            elif kind == 4:
                writes.append(("update", "plays", {"player": rng.choice(players)}, {"pid": pid}))
            elif kind == 5:
                writes.append(("update", "plays", {"pts": rng.randint(0, 6), "lvl": rng.randrange(len(LEVELS))}, {"pid": pid}))
            elif kind == 6:
                writes.append(("update", "levels", {"tier": rng.choice(("gold", "silver", "bronze"))}, {"lvl_id": rng.randrange(len(LEVELS))}))
            else:
                pids.append(pids[-1] + 1)
                row = {"pid": pids[-1], "player": rng.choice(players), "team": rng.choice(("red", "blue")),
                       "pts": rng.randint(0, 6), "lvl": rng.randrange(len(LEVELS)), "ast": rng.randint(0, 3)}
                writes.append(("insert", "plays", row, {}))
        return [UpdateRecord(seq, *w) for seq, w in enumerate(writes, start=1)]

    def test_rankings_equal_oracle_after_every_update(self):
        rng = random.Random(77)
        catalog = load_catalog(PLAYS_CATALOG)
        columns = ["pid", "player", "team", "pts", "lvl", "ast"]
        rows = [
            [pid, f"p{rng.randrange(7)}", rng.choice(("red", "blue")), rng.randint(0, 6), rng.randrange(len(LEVELS)), rng.randint(0, 3)]
            for pid in range(24)
        ]
        store = Store(catalog)
        store.load_table("plays", ",".join(columns) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
        store.load_table("levels", "lvl_id,tier\n" + "".join(f"{i},{t}\n" for i, t in LEVELS))
        engine = Engine(catalog, store, self.queries(catalog))
        tables = {"plays": [dict(zip(columns, r)) for r in rows],
                  "levels": [{"lvl_id": i, "tier": t} for i, t in LEVELS]}
        written_once = reordered = 0
        for u in self.updates(rng, len(rows)):
            once, cached, *_ = engine._route(u)
            written_once += bool(once or cached)
            engine.detect(u)
            reordered += engine.last_stats.reordered
            oracle_apply(tables, u)
            for qid, q in engine.queries.items():
                assert list(engine.ranking(qid)) == oracle_eval_query(tables, PLAYS_EDGES, q), (u.seq, qid)
        assert written_once and reordered  # both kinds of extension ran and rankings moved


class TestNetZero:
    """Updates whose contributions cancel per (instance, entity) move no
    entity in any order and leave the engine as a fresh one would be."""

    def setup(self):
        catalog = load_catalog(GAMES_CATALOG)
        # p1 has two red rows; the rest give every ranking a few entities
        rows = [
            [0, "p1", "red", 2, 0.25],
            [1, "p1", "red", 4, 0.75],
            [2, "p2", "red", 3, 0.5],
            [3, "p3", "red", 1, 1.5],
            [4, "p2", "blue", 5, 0.125],
            [5, "p4", "blue", 0, 2.0],
        ]
        queries = load_queries(TestMaintainedOrder().query_catalog(), catalog)
        return catalog, self.store_of(catalog, rows), queries

    @staticmethod
    def store_of(catalog, rows):
        store = Store(catalog)
        store.load_table("games", "gid,player,team,pts,rating\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
        return store

    def assert_fresh(self, catalog, store, queries, engine):
        fresh = Engine(catalog, self.store_of(catalog, store.table("games").rows), queries)
        assert rankings_of(engine) == rankings_of(fresh)
        # nothing changed, so every order is still the one start-up filled
        assert {qid: (o.keys, o.bound) for qid, o in engine.orders.items()} == {
            qid: (o.keys, o.bound) for qid, o in fresh.orders.items()
        }

    @pytest.mark.parametrize(
        "set_values, where",
        [
            ({"pts": 4}, {"gid": 1}),  # the same value, read before and after
            ({"team": "red"}, {"gid": 1}),  # the same shape value, extended before and after
            ({"pts": 3}, {"player": "p1"}),  # p1's two red rows 2 and 4 become 3 and 3
            ({"rating": 0.5}, {"player": "p1"}),  # exactly 1/4 + 3/4 - 1/2 - 1/2 == 0
        ],
    )
    def test_cancelling_update_moves_nothing(self, set_values, where):
        catalog, store, queries = self.setup()
        engine = Engine(catalog, store, queries)
        u = UpdateRecord(1, "update", "games", set_values, where)
        assert engine.detect(u) == []
        # row candidates still count the queries of every instance that a
        # contribution named before netting: here the red queries that read
        # a written column
        written = {ColumnRef("games", column) for column in set_values}
        red = [q for q in queries if q.id.startswith("red-")]
        assert engine.last_stats.row_candidates == sum(bool(referenced_columns(q) & written) for q in red)
        assert engine.last_stats.reordered == 0
        self.assert_fresh(catalog, store, queries, engine)


class TestMergedFamily:
    """One family holds every criterion column of a group, here integer pts
    and real rating. A write to one column moves only the orders of that
    column's queries; an update that may change the joined rows extends
    them once per family, not once per column."""

    ROWS = [
        [0, "p1", "red", 2, 0.25],
        [1, "p1", "red", 4, 0.75],
        [2, "p2", "red", 3, 0.5],
        [3, "p3", "red", 1, 1.5],
        [4, "p4", "red", 0, 2.5],
        [5, "p2", "blue", 5, 0.125],
        [6, "p4", "blue", 0, 2.0],
        [7, "p5", "blue", 2, 0.1],
    ]

    def setup(self):
        catalog = load_catalog(GAMES_CATALOG)
        store = TestNetZero.store_of(catalog, self.ROWS)
        queries = load_queries(TestMaintainedOrder().query_catalog(), catalog)
        engine = Engine(catalog, store, queries)
        assert len(engine.families) == 1
        return catalog, store, queries, engine

    @pytest.mark.parametrize(
        "column, set_values, where",
        [
            ("pts", {"pts": 9}, {"gid": 3}),  # p3 to the top of every pts ranking
            ("pts", {"pts": Delta(-4)}, {"player": "p1"}),
            ("rating", {"rating": 3.5}, {"gid": 0}),  # p1 to the top of every rating ranking
            ("rating", {"rating": Delta(0.3)}, {"team": "blue"}),
        ],
    )
    def test_column_write_moves_only_its_queries(self, monkeypatch, column, set_values, where):
        catalog, store, queries, engine = self.setup()
        others = {q.id for q in queries if q.criterion.column.column != column}
        held = {qid: (list(engine.orders[qid].keys), engine.orders[qid].bound) for qid in others}
        keys = {qid: engine.orders[qid].keys for qid in others}
        moved = []
        update = EntityOrder.update

        def recording(order, *args):
            moved.append(next(qid for qid, o in engine.orders.items() if o is order))
            return update(order, *args)

        monkeypatch.setattr(EntityOrder, "update", recording)
        engine.detect(UpdateRecord(1, "update", "games", set_values, where))
        assert moved and not set(moved) & others
        assert len(moved) == len(set(moved))  # each order is updated once
        assert {qid: (engine.orders[qid].keys, engine.orders[qid].bound) for qid in others} == held
        assert all(engine.orders[qid].keys is keys[qid] for qid in others)  # none re-sorted
        stats = engine.last_stats
        assert stats.column_candidates == len(queries) - len(others)
        assert 0 < stats.reordered <= stats.row_candidates <= len(queries) - len(others)
        assert_best_keys(engine)
        fresh = Engine(catalog, TestNetZero.store_of(catalog, store.table("games").rows), queries)
        assert rankings_of(engine) == rankings_of(fresh)

    @pytest.mark.parametrize(
        "kind, set_values, where, calls",
        [
            ("update", {"team": "blue"}, {"gid": 2}, 2),  # a shape write: before and after
            ("update", {"player": "p5", "pts": 7}, {"gid": 4}, 2),
            ("insert", {"gid": 8, "player": "p6", "team": "red", "pts": 6, "rating": 0.5}, {}, 1),  # after only
            ("update", {"pts": 7, "rating": 0.5}, {"gid": 4}, 1),  # both criteria, no shape column: once
        ],
    )
    def test_rows_extended_once_per_family(self, kind, set_values, where, calls):
        catalog, store, queries, engine = self.setup()
        (fam,) = engine.families
        extended = []
        plan = fam.plans["games"]

        def counting(rows):
            extended.append(list(rows))
            return plan(extended[-1])

        fam.plans["games"] = counting
        engine.detect(UpdateRecord(1, kind, "games", set_values, where))
        assert len(extended) == calls and all(len(rows) == 1 for rows in extended)
        assert engine.last_stats.column_candidates == len(queries)
        fresh = Engine(catalog, TestNetZero.store_of(catalog, store.table("games").rows), queries)
        assert rankings_of(engine) == rankings_of(fresh)
        assert_best_keys(engine)


COMPARATORS = {">": operator.gt, "<": operator.lt, "=": operator.eq, "!=": operator.ne, "<=": operator.le, ">=": operator.ge}


def reference_scan(store, fam):
    """instance -> (entity -> joined rows, per column: entity -> total) for
    every member instance of fam, from oracle_path_join along the family's
    own join path over the stored rows: real totals are the Fraction sums of
    their values."""
    tables = {name: [dict(zip(t.meta.column_names(), row)) for row in t.rows] for name, t in store.tables.items()}

    def cell(jrow, ref):
        return jrow[ref.relation][ref.column]

    def passes(jrow, atom):
        right = cell(jrow, atom.right) if isinstance(atom.right, ColumnRef) else atom.right
        return COMPARATORS[atom.comparator](cell(jrow, atom.left), right)

    out = {inst: ({}, [{} for _ in fam.columns]) for inst in fam.slots}
    for jrow in oracle_path_join(tables, fam.path, fam.needed):
        if not all(passes(jrow, atom) for atom in fam.fixed):
            continue
        inst = tuple(cell(jrow, c) for c in fam.binding_cols)
        if inst not in out:
            continue
        counts, values = out[inst]
        ent = cell(jrow, fam.entity)
        counts[ent] = counts.get(ent, 0) + 1
        for per_entity, c in zip(values, fam.columns):
            per_entity.setdefault(ent, []).append(cell(jrow, c))

    def total(values, real):
        return sum(map(Fraction, values), Fraction()) if real else sum(values)

    return {
        inst: (counts, [{e: total(v, real) for e, v in per.items()} for per, real in zip(values, fam.real)])
        for inst, (counts, values) in out.items()
    }


MAX = sys.float_info.max
# every finite double: subnormals, the largest magnitudes and both zeros included
FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestFixedPoint:
    """A real total is an int in units of 2**-1074 (detector.fixed), read back
    as its correctly rounded float (detector.real_value). Fraction is the
    oracle here only."""

    @given(st.lists(FINITE, max_size=8))
    @example([5e-324, -5e-324, 2.2250738585072014e-308])  # the smallest subnormal and normal
    @example([MAX, -MAX, 0.0, -0.0])
    def test_fixed_is_exact(self, vs):
        total = sum(map(fixed, vs))
        assert type(total) is int
        assert Fraction(total, 2**1074) == sum(map(Fraction, vs), Fraction())

    @given(st.lists(FINITE, max_size=8))
    @example([MAX, MAX, -MAX])  # a partial sum overflows, the sum does not
    @example([MAX, MAX * 2**-53])  # rounds up out of range
    @example([-MAX, -MAX, 1.0])
    @example([1e16, 1.0, 1.0])  # a float sum left to right stays 1e16
    @example([0.1, 0.2, -0.3])
    def test_real_value_rounds_once(self, vs):
        exact = sum(map(Fraction, vs), Fraction())
        got = real_value(sum(map(fixed, vs)))
        assert got == oracle_round(exact)
        try:
            assert got == math.fsum(vs)  # a second reference, where its partial sums stay in range
        except OverflowError:
            pass

    @given(st.lists(FINITE, min_size=1, max_size=8), st.lists(st.tuples(st.booleans(), FINITE), max_size=12))
    def test_no_drift(self, vs, writes):
        # a total kept by adding and subtracting terms equals the sum of the
        # terms it holds, and an add then a subtract gives the same int back
        total, held = sum(map(fixed, vs)), list(vs)
        for add, v in writes:
            before = total
            total = total + fixed(v) - fixed(v)
            assert total == before
            if add:
                total += fixed(v)
                held.append(v)
            elif held:
                total -= fixed(held.pop())
        assert total == sum(map(fixed, held))
        assert Fraction(total, 2**1074) == sum(map(Fraction, held), Fraction())


SH_CO = ("shareholder.s_companyid", "company.c_id")
CO_CTRY = ("company.c_countryid", "country.co_countryid")
SH_PERSON = ("shareholder.s_personid", "person.p_id")
CO_SM = ("company.c_id", "stockmarket.s_companyid")


def bloomberg_query(qid, entity, column, aggregation, path, bindings=()) -> dict:
    return {
        "id": qid,
        "entity": entity,
        "predicate": [{"kind": "binding", "left": left, "comparator": "=", "right": right} for left, right in bindings],
        "criterion": {"column": column, "aggregation": aggregation, "direction": "descending"},
        "join_path": [{"from": a, "to": b} for a, b in path],
        "k": 1,
        "selectivity": 0.5,
        "entropy_bits": 1.0,
    }


class TestFamilyScan:
    """Family.scan against nested loops along each family's own join path:
    every total is an int, a real column's its Fraction sum times 2**1074.
    A family with a leaf relation (it holds
    every criterion column and no entity, binding or fixed-atom column, and
    one path edge touches it) sums the leaf's rows per join value before the
    join; that must change no count and no correctly rounded total."""

    # s_amount is real; Germany's companies SAP (0) and BMW (1) hold 1e16 and
    # 1.0, and 1.0; company 99 does not exist; Mercedes, Google, Fiat and
    # Aegean Airlines have no shareholder
    SHAREHOLDERS = (
        "s_personid,s_companyid,s_amount\n"
        "0,3,400\n0,5,50.5\n1,8,40\n2,0,1e16\n3,0,1.0\n1,1,1.0\n3,3,100\n3,5,60\n0,99,5.5\n"
    )
    AMOUNT_CRITERIA = """\
  - {column: shareholder.s_amount, aggregation: sum, direction: descending}
  - {column: shareholder.s_amount, aggregation: avg, direction: ascending}
"""
    USER_ATOM = """\
user_constraints:
  - {kind: const_comparison, left: company.c_countryid, comparator: '<', right: 3}
"""

    @staticmethod
    def check(store, families):
        for fam in families:
            got = fam.scan(store, fam.slots)
            assert len(got) == len(fam.slots), fam.id
            assert all(type(v) is int for _, totals in got.values() for t in totals for v in t.values()), fam.id
            scales = [2**1074 if real else 1 for real in fam.real]
            assert got == {
                inst: (counts, [{e: v * scale for e, v in t.items()} for t, scale in zip(totals, scales)])
                for inst, (counts, totals) in reference_scan(store, fam).items()
            }, fam.id
            # the slots start from that scan
            assert got == {inst: (slot.counts, slot.totals) for inst, slot in fam.slots.items()}, fam.id

    @staticmethod
    def leaves(families):
        """(criterion relation, leaf edge or None) -> families."""
        return Counter((fam.columns[0].relation, fam.leaf and str(fam.leaf)) for fam in families)

    def real_store(self):
        text = (DATA_DIR / "bloomberg" / "catalog.yaml").read_text(encoding="utf-8")
        text = text.replace("{name: s_amount, type: integer}", "{name: s_amount, type: real}")
        text = text.replace("ranking_criteria:\n", "ranking_criteria:\n" + self.AMOUNT_CRITERIA) + self.USER_ATOM
        return load_dataset("bloomberg", text, {"shareholder": self.SHAREHOLDERS})

    @pytest.mark.parametrize(
        "k, c_num, j_num, leaves",
        [
            (1, 2, 3, {("stockmarket", "company.c_id=stockmarket.s_companyid"): 11,
                       ("stockmarket", "shareholder.s_companyid=stockmarket.s_companyid"): 1}),
            (2, 3, 1, {("stockmarket", "company.c_id=stockmarket.s_companyid"): 1}),
        ],
    )
    def test_bloomberg_families(self, bloomberg, k, c_num, j_num, leaves):
        catalog, store = bloomberg
        queries = generate_queries(catalog, GeneratorConfig(k=k, c_num=c_num, j_num=j_num), store)
        families = build_families(queries, catalog, store)
        assert self.leaves(families) == leaves
        self.check(store, families)

    @pytest.mark.parametrize("amounts", [False, True], ids=["fixture", "amounts-and-atom"])
    def test_loaded_queries_give_equal_families(self, bloomberg, amounts):
        # loaded queries share no objects with each other; with amounts, some
        # families carry a fixed atom and two queries per column
        catalog, store = self.real_store() if amounts else bloomberg
        generated = generate_queries(catalog, GeneratorConfig(k=1, c_num=2, j_num=3), store)
        loaded = load_queries(dump_queries(generated), catalog)
        attributes = operator.attrgetter("needed", "columns", "shape", "fixed", "binding_cols", "leaf")

        def fields(fam):
            return slot_queries(fam), *attributes(fam)

        families = list(map(fields, build_families(generated, catalog, store)))
        assert families == list(map(fields, build_families(loaded, catalog, store)))
        assert len(families) == (42 if amounts else 12)
        assert any(fixed for *_, fixed, _, _ in families) == amounts

    def test_real_amounts_sum_and_avg_with_a_fixed_atom(self):
        catalog, store = self.real_store()
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=2, j_num=3), store)
        families = build_families(queries, catalog, store)
        assert self.leaves(families) == {
            ("stockmarket", "company.c_id=stockmarket.s_companyid"): 20,
            ("stockmarket", "shareholder.s_companyid=stockmarket.s_companyid"): 1,
            ("shareholder", "shareholder.s_companyid=company.c_id"): 16,
            ("shareholder", "shareholder.s_personid=person.p_id"): 2,
            ("shareholder", None): 3,
        }
        # the fixed atom is on company, so families that carry it keep their leaf
        assert sum(bool(fam.fixed) for fam in families) == 18
        assert sum(bool(fam.fixed and fam.leaf) for fam in families) == 16
        self.check(store, families)

    def test_leaf_conditions_and_correct_rounding(self):
        catalog, store = self.real_store()
        amount = "shareholder.s_amount"
        docs = [
            # a leaf and three columns (one real): Germany's amounts arrive through two join values
            *(bloomberg_query(f"country-{c}", "country.co_name", c, "sum", [SH_CO, CO_CTRY])
              for c in (amount, "shareholder.s_personid", "shareholder.s_companyid")),
            # a leaf, one column: companies without shareholders add no row
            bloomberg_query("company", "company.c_name", amount, "avg", [SH_CO]),
            # a leaf, two columns, reached through the person edge
            *(bloomberg_query(f"person-{c}", "person.p_name", c, "sum", [SH_PERSON])
              for c in (amount, "shareholder.s_companyid")),
            # a binding column on the criterion relation: no leaf (three columns)
            *(bloomberg_query(f"bound-{c}", "country.co_name", c, "sum", [SH_CO, CO_CTRY], [("shareholder.s_personid", 3)])
              for c in (amount, "shareholder.s_personid", "shareholder.s_companyid")),
            # the entity on the criterion relation: no leaf
            bloomberg_query("held", "shareholder.s_personid", amount, "sum", [SH_CO]),
            # criteria in two relations: no leaf (two columns)
            *(bloomberg_query(f"two-{c}", "company.c_name", c, "sum", [SH_CO, CO_SM]) for c in (amount, "stockmarket.s_value")),
            # two path edges touch the criterion relation: no leaf
            bloomberg_query("middle", "person.p_name", amount, "avg", [SH_PERSON, SH_CO]),
        ]
        queries = load_queries("".join(json.dumps(d) + "\n" for d in docs), catalog)
        families = build_families(queries, catalog, store)
        by_query = {next(iter(slot_queries(fam).values()))[0][0]: fam for fam in families}
        assert {qid: fam.leaf and str(fam.leaf) for qid, fam in by_query.items()} == {
            f"country-{amount}": "shareholder.s_companyid=company.c_id",
            "company": "shareholder.s_companyid=company.c_id",
            f"person-{amount}": "shareholder.s_personid=person.p_id",
            f"bound-{amount}": None,
            "held": None,
            f"two-{amount}": None,
            "middle": None,
        }
        assert [len(fam.columns) for fam in families] == [3, 1, 2, 3, 1, 2, 1]
        self.check(store, families)

        country = by_query[f"country-{amount}"]
        [slot] = country.slots.values()
        counts, totals = slot.counts, slot.totals
        # pre-summed per join value in floats, 1e16 + 1.0 would round to 1e16
        # and the total stay 1e16; the exact total rounds once
        assert (counts["Germany"], totals[0]["Germany"]) == (3, fixed(1e16) + 2 * fixed(1.0))
        assert real_value(totals[0]["Germany"]) == 1.0000000000000002e16
        # the leaf's dangling row (company 99) and the companies without shareholders add nothing
        [slot] = by_query["company"].slots.values()
        counts = slot.counts
        assert sorted(counts) == ["BMW", "Facebook", "Microsoft", "SAP", "Superfast Ferries"]
        assert (counts["SAP"], counts["Microsoft"]) == (2, 2)
        assert 99 not in {row[0] for row in store.table("company").rows}


class TestFanoutCache:
    """A criterion-only write to a leaf relation reads the fan-out of its
    join value from the family's cache. A shape write and an insert into a
    relation of the family must clear that cache. The cache is filled by
    criterion writes to every row of both leaves. Then each move below is
    made and followed by the same writes, so a stale fan-out would meet a
    write to its join value. After every update, every ranking must equal
    oracle_path_rankings."""

    MOVES = [
        # SAP moves from Germany to the USA: its amounts and value change instance
        [("update", "company", {"c_countryid": 1}, {"c_id": 0})],
        # a leaf join column: Amancio's holding moves from Superfast Ferries to Microsoft
        [("update", "shareholder", {"s_companyid": 3}, {"s_personid": 1, "s_companyid": 8})],
        # Ingvar now holds Facebook, so Facebook's value reaches him too
        [("insert", "shareholder", {"s_personid": 2, "s_companyid": 5, "s_amount": 70}, {})],
        # company 9's market and holding rows reach no company until company 9 exists
        [
            ("insert", "stockmarket", {"s_companyid": 9, "s_value": 80}, {}),
            ("insert", "shareholder", {"s_personid": 0, "s_companyid": 9, "s_amount": 5}, {}),
        ],
        [("insert", "company", {"c_id": 9, "c_name": "Volvo", "c_countryid": 4}, {})],
    ]

    @staticmethod
    def setup():
        """The Bloomberg fixture with both s_amount criteria: its store and engine."""
        text = (DATA_DIR / "bloomberg" / "catalog.yaml").read_text(encoding="utf-8")
        text = text.replace("ranking_criteria:\n", "ranking_criteria:\n" + TestFamilyScan.AMOUNT_CRITERIA)
        catalog, store = load_dataset("bloomberg", text)
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=2, j_num=3), store)
        engine = Engine(catalog, store, queries)
        assert sum(bool(fam.leaf) for fam in engine.families) > 20
        return store, engine

    def test_moves_and_inserts_clear_the_fan_outs(self):
        store, engine = self.setup()
        tables = {name: [dict(zip(t.meta.column_names(), row)) for row in t.rows] for name, t in store.tables.items()}
        rng = random.Random(17)
        seq = itertools.count(1)
        reused = 0

        def step(kind, table, set_values, where):
            u = UpdateRecord(next(seq), kind, table, set_values, where)
            engine.detect(u)
            oracle_apply(tables, u)
            expected = oracle_path_rankings(tables, engine.queries.values())
            for qid in engine.queries:
                assert list(engine.ranking(qid)) == expected[qid], (u, qid)
            return engine.last_stats.reused

        def criterion_writes():
            nonlocal reused
            for row in list(tables["stockmarket"]):
                reused += step("update", "stockmarket", {"s_value": rng.randrange(1000)}, {"s_companyid": row["s_companyid"]})
            for row in list(tables["shareholder"]):
                where = {"s_personid": row["s_personid"], "s_companyid": row["s_companyid"]}
                reused += step("update", "shareholder", {"s_amount": rng.randrange(1000)}, where)

        criterion_writes()
        for moves in self.MOVES:
            for move in moves:
                step(*move)
            criterion_writes()
        assert reused > 0

    def test_cached_pairs_hold_the_member_keys(self):
        # a fan-out holds the family's own slot of each instance reached,
        # once per instance
        store, engine = self.setup()
        seq = itertools.count(1)
        for rid, row in enumerate(store.table("stockmarket").rows):
            engine.detect(UpdateRecord(next(seq), "update", "stockmarket", {"s_value": Delta(rid + 1)}, {"s_companyid": row[0]}))
        for rid, row in enumerate(store.table("shareholder").rows):
            where = {"s_personid": row[0], "s_companyid": row[1]}
            engine.detect(UpdateRecord(next(seq), "update", "shareholder", {"s_amount": Delta(rid + 1)}, where))
        held = 0
        for fam in engine.families:
            for groups in (fam.fanout or {}).values():
                assert len({slot.inst for slot, _ in groups}) == len(groups), fam.id
                for slot, entities in groups:
                    assert slot is fam.slots[slot.inst], (fam.id, slot.inst)
                    assert isinstance(entities, tuple) and entities, (fam.id, slot.inst)
                    held += slot.inst != ()
        assert held > 20


    ROSTER_CATALOG = """
relations:
  - name: games
    columns:
      - {name: gid, type: integer}
      - {name: player, type: text}
      - {name: venue, type: text}
      - {name: team, type: integer}
    key: [gid]
  - name: teams
    columns:
      - {name: tid, type: integer}
      - {name: rating, type: integer}
    key: [tid]
entity_attrs: [games.player]
categorical_attrs: [games.venue]
ranking_criteria:
  - {column: teams.rating, aggregation: sum, direction: both}
join_edges:
  - {from: games.team, to: teams.tid}
"""

    def test_a_pair_reached_twice_takes_the_change_twice(self):
        # p1 plays two home games for team 1, so a write to team 1's rating
        # reaches p1 through two joined rows, at home and over all venues,
        # and moves p1's sums by twice the change; a fan-out that held each
        # entity once would add it once, and differ from the reference
        catalog = load_catalog(self.ROSTER_CATALOG)
        games = [[0, "p1", "home", 1], [1, "p1", "home", 1], [2, "p2", "home", 1], [3, "p2", "away", 2], [4, "p3", "home", 2]]
        docs = []
        for venue in ("home", None):
            for aggregation, direction in (("sum", "descending"), ("sum", "ascending"), ("avg", "descending")):
                predicate = [] if venue is None else [
                    {"kind": "binding", "left": "games.venue", "comparator": "=", "right": venue}]
                docs.append({
                    "id": f"{venue}-{aggregation}-{direction}",
                    "entity": "games.player",
                    "predicate": predicate,
                    "criterion": {"column": "teams.rating", "aggregation": aggregation, "direction": direction},
                    "join_path": [{"from": "games.team", "to": "teams.tid"}],
                    "k": 1,
                    "selectivity": 0.5,
                    "entropy_bits": 1.0,
                })
        queries = load_queries("".join(json.dumps(d) + "\n" for d in docs), catalog)

        def engine(engine_class):
            store = Store(catalog)
            store.load_table("games", "gid,player,venue,team\n" + "".join(",".join(map(str, r)) + "\n" for r in games))
            store.load_table("teams", "tid,rating\n1,10\n2,24\n")
            return engine_class(catalog, store, queries)

        delta, reference = engine(Engine), engine(Reference)
        assert len(delta.families) == 2 and all(fam.leaf for fam in delta.families)
        writes = [{"rating": 11}, {"rating": Delta(3)}, {"rating": 2}, {"rating": Delta(-4)}, {"rating": 30}]
        for seq, set_values in enumerate(writes, start=1):
            u = UpdateRecord(seq, "update", "teams", set_values, {"tid": 1})
            assert delta.detect(u) == reference.detect(u), u
            assert rankings_of(delta) == rankings_of(reference), u
            assert delta.last_stats.reused == (2 if seq > 1 else 0)  # one lookup per family
        reached = {slot.inst: Counter(entities) for fam in delta.families for slot, entities in fam.fanout[1]}
        assert reached == {("home",): {"p1": 2, "p2": 1}, (): {"p1": 2, "p2": 1}}

class TestSqlDefinesRanking:
    """Every query's own SQL text, run by sqlite3 on the store's rows
    (oracle_sql_rankings), returns exactly the engine's top-K: the same
    entities, order and values, ties included."""

    @staticmethod
    def assert_sql_agrees(store, *engines) -> int:
        """Check every engine's rankings against their SQL; returns how many
        of them hold two equal values."""
        ties = 0
        for engine in engines:
            expected = oracle_sql_rankings(store, engine.queries.values())
            for qid, q in engine.queries.items():
                got = list(engine.ranking(qid))
                assert got == expected[qid], (qid, q.sql())
                values = [v for _, v in got]
                ties += len(set(values)) < len(values)
        return ties

    def test_random_instances(self):
        rng = random.Random(909)
        ties = 0
        for trial in range(6):
            inst = make_instance(
                rng,
                n_rows=rng.randrange(40, 200),
                n_entities=rng.randrange(5, 25),
                two_tables=trial % 2 == 1,
                with_user_atom=trial % 3 == 0,
                real_c2=trial == 4,
                value_range=rng.choice((5, 500)),  # small values tie often
            )
            catalog, store = load_instance(inst)
            queries = generate_queries(catalog, GeneratorConfig(k=rng.randrange(2, 5), c_num=2, j_num=1), store)
            assert queries, trial
            engines = [engine_class(catalog, store, queries) for engine_class in (Engine, Reference)]
            ties += self.assert_sql_agrees(store, *engines)
        assert ties

    @pytest.mark.parametrize("amounts", [False, True])
    @pytest.mark.parametrize("k", [1, 2])
    def test_bloomberg(self, amounts, k):
        text = (DATA_DIR / "bloomberg" / "catalog.yaml").read_text(encoding="utf-8")
        if amounts:
            text = text.replace("ranking_criteria:\n", "ranking_criteria:\n" + TestFamilyScan.AMOUNT_CRITERIA)
        catalog, store = load_dataset("bloomberg", text)
        queries = generate_queries(catalog, GeneratorConfig(k=k, c_num=2, j_num=3), store)
        assert any(len(q.join_path) == 3 for q in queries)
        engine = Engine(catalog, store, queries)
        self.assert_sql_agrees(store, engine)
        # half the synthesized stream leaves every criterion value mid-way
        stream = synth_stream(store, catalog, SynthConfig(seed=1))
        for u in stream[: len(stream) // 2]:
            engine.detect(u)
        self.assert_sql_agrees(store, engine)

    def test_final_state_of_a_structural_stream(self):
        rng = random.Random(31)
        inst = make_instance(rng, n_rows=150, n_entities=12, two_tables=True, with_user_atom=True, value_range=20)
        catalog, store = load_instance(inst)
        queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=2, j_num=1), store)
        engine = Engine(catalog, store, queries)
        for u in make_updates(rng, inst, 300, value_range=20):
            engine.detect(u)
        assert self.assert_sql_agrees(store, engine)

    def test_real_criterion(self):
        # rating sums and averages are rarely exact floats: the SQL's SUM and
        # AVG must round the way the engine ranks them
        rng = random.Random(62)
        catalog = load_catalog(GAMES_CATALOG)
        rows = [
            [gid, f"p{rng.randrange(8)}", rng.choice(("red", "blue")), rng.randint(0, 4), rng.choice(RATINGS)]
            for gid in range(30)
        ]
        store = TestNetZero.store_of(catalog, rows)
        engine = Engine(catalog, store, load_queries(TestMaintainedOrder().query_catalog(), catalog))
        for u in TestMaintainedOrder().updates(rng, [r[0] for r in rows]):
            engine.detect(u)
        assert self.assert_sql_agrees(store, engine)

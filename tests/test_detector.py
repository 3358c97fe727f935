import random
from types import SimpleNamespace

import pytest

from halloffame import (
    ColumnRef,
    Delta,
    Engine,
    GeneratorConfig,
    UpdateRecord,
    build_column_index,
    column_filter,
    detect,
    diff_rankings,
    generate_queries,
)
from halloffame.store import RankingState
from conftest import load_instance
from oracles import (
    make_instance,
    make_updates,
    oracle_apply,
    oracle_eval_query,
    oracle_run,
)


def fig5_update(seq=1):
    return UpdateRecord(seq, "update", "stockmarket", {"s_value": Delta(10)}, {"s_companyid": 8})


@pytest.fixture
def bloomberg_engine(bloomberg):
    catalog, store = bloomberg
    queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=1, j_num=3), store)
    return catalog, store, Engine(catalog, store, queries)


def queries_of(engine, fids):
    """Ids of the queries in the given families."""
    return {qid for fid in fids for qids in engine.families[fid].members.values() for qid in qids}


def column_candidates(engine, u):
    """Ids of the queries in the families the column filter picks."""
    return queries_of(engine, column_filter(u, engine.column_index))


def lookup(engine, u, rows):
    """Ids of the queries whose instances the family lookup reaches from the
    given rows of u.table."""
    families = [engine.families[fid] for fid in column_filter(u, engine.column_index)]
    return {qid for fam, inst, _, _ in engine.row_filter(u, rows, families) for qid in fam.members[inst]}


class TestColumnIndex:
    def test_queries_indexed_under_their_columns(self):
        rng = random.Random(6)
        inst = make_instance(rng, n_rows=60)
        catalog, store = load_instance(inst)
        queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=1, j_num=0), store)
        index = build_column_index(queries)
        for q in queries:
            for col in q.referenced_columns:
                assert q.id in index[col]
        # inverse direction: the index holds nothing beyond referenced_columns
        for col, ids in index.items():
            for qid in ids:
                q = next(x for x in queries if x.id == qid)
                assert col in q.referenced_columns

    def test_empty_query_set(self):
        assert build_column_index([]) == {}

    def test_criterion_column_always_present(self, bloomberg_engine):
        _, _, engine = bloomberg_engine
        s_value = ColumnRef("stockmarket", "s_value")
        assert queries_of(engine, engine.column_index[s_value]) == set(engine.queries)


class TestColumnFilter:
    def test_unreferenced_column_filtered(self, bloomberg_engine):
        _, _, engine = bloomberg_engine
        u = UpdateRecord(1, "update", "shareholder", {"s_amount": 99}, {"s_personid": 0, "s_companyid": 3})
        assert column_candidates(engine, u) == set()

    def test_criterion_column_matches_all_its_queries(self, bloomberg_engine):
        _, _, engine = bloomberg_engine
        assert column_candidates(engine, fig5_update()) == set(engine.queries)

    def test_insert_counts_all_columns(self, bloomberg_engine):
        _, _, engine = bloomberg_engine
        u = UpdateRecord(1, "insert", "stockmarket", {"s_companyid": 9, "s_value": 5}, {})
        assert column_candidates(engine, u) == set(engine.queries)


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
        state = RankingState((("a", 3), ("b", 2)))
        assert diff_rankings(state, state, 5) == []

    def test_entering_from_outside(self):
        old = RankingState((("a", 9), ("b", 8)))
        new = RankingState((("a", 9), ("c", 8)))
        assert diff_rankings(old, new, 2) == [("c", 3, 2)]

    def test_fig5_before_after(self):
        old = RankingState((("Bill Gates", 210), ("Warren E. Buffet", 210), ("Amancio O. Gaona", 204)))
        new = RankingState((("Amancio O. Gaona", 214), ("Bill Gates", 210), ("Warren E. Buffet", 210)))
        assert diff_rankings(old, new, 3) == [("Amancio O. Gaona", 3, 1)]


class TestDetect:
    def test_fig5_produces_exactly_one_event(self, bloomberg_engine):
        _, _, engine = bloomberg_engine
        events = detect(fig5_update(), engine)
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
        assert detect(u, engine) == []
        assert engine.last_stats.row_candidates == 0

    def test_unreferenced_column_skips_row_filter(self, bloomberg_engine):
        _, _, engine = bloomberg_engine
        u = UpdateRecord(
            1, "update", "shareholder", {"s_amount": 1}, {"s_personid": 0, "s_companyid": 3}
        )
        assert detect(u, engine) == []
        assert engine.last_stats.column_candidates == 0

    def test_determinism(self, bloomberg):
        def one_run():
            catalog, store = load_catalog_and_store()
            queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=1, j_num=3), store)
            engine = Engine(catalog, store, queries)
            out = []
            for seq in range(1, 4):
                out.append(detect(fig5_update(seq), engine))
            return out

        def load_catalog_and_store():
            from conftest import load_dataset

            return load_dataset("bloomberg")

        assert one_run() == one_run()

    def test_invalid_update_leaves_store_untouched(self, bloomberg_engine):
        _, store, engine = bloomberg_engine
        before = [list(r) for r in store.table("stockmarket").rows]
        bad = UpdateRecord(1, "update", "stockmarket", {"s_value": "oops"}, {"s_companyid": 8})
        with pytest.raises(Exception):
            detect(bad, engine)
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
        got = []
        for u in updates:
            for e in detect(u, engine):
                got.append((e.seq, e.query_id, e.entity, e.from_rank, e.to_rank))
            # cached states must equal a from-scratch evaluation at all times
            if u.seq % 17 == 0:
                for qid, q in engine.queries.items():
                    assert engine.rankings[qid] == store.evaluate_hof(q)
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
        shadow = Engine(shadow_catalog, shadow_store, queries, filters_enabled=False)
        for u in make_updates(rng, inst, 80):
            filtered = detect(u, engine)
            unfiltered = detect(
                UpdateRecord(u.seq, u.kind, u.table, u.set_values, u.where), shadow
            )
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
            detect(u, engine)
            oracle_apply(tables, u)
            for qid, q in engine.queries.items():
                want = oracle_eval_query(tables, edges_inst, q)
                assert list(engine.rankings[qid].entries) == want, (u.seq, qid)

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

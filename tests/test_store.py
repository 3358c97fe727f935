import dataclasses
import random

import pytest

from halloffame import (
    ColumnRef,
    ConstraintAtom,
    Delta,
    GeneratorConfig,
    Store,
    StoreError,
    UpdateRecord,
    generate_queries,
    load_catalog,
    read_update_stream,
    update_from_json,
    update_to_json,
    write_update_stream,
)
from conftest import load_instance
from oracles import make_instance, make_updates, oracle_eval_query

PLAYS_CONFIG = """
relations:
  - name: plays
    columns:
      - {name: pid, type: integer}
      - {name: team, type: text}
      - {name: year, type: integer}
      - {name: league, type: text}
      - {name: points, type: integer}
    key: [pid]
entity_attrs: [team]
categorical_attrs: [plays.team, plays.year, plays.league]
ranking_criteria:
  - {column: points, aggregation: sum, direction: descending}
"""

PLAYS_CSV = """pid,team,year,league,points
1,Phoenix,2010,NBA,10
2,Boston,2011,NBA,20
3,Phoenix,2010,NBA,30
4,San Antonio Spurs,1972,ABA,40
5,Phoenix,2010,NBA,50
"""


@pytest.fixture
def plays():
    catalog = load_catalog(PLAYS_CONFIG)
    store = Store(catalog)
    store.load_table("plays", PLAYS_CSV)
    return catalog, store


class TestLoadTable:
    def test_country_csv_has_six_rows(self, bloomberg):
        _, store = bloomberg
        assert len(store.table("country")) == 6

    def test_header_only_csv_gives_empty_table(self):
        catalog = load_catalog(PLAYS_CONFIG)
        store = Store(catalog)
        table = store.load_table("plays", "pid,team,year,league,points\n")
        assert len(table) == 0

    def test_bad_integer_cell_names_row(self):
        catalog = load_catalog(PLAYS_CONFIG)
        store = Store(catalog)
        bad = "pid,team,year,league,points\nabc,Phoenix,2010,NBA,10\n"
        with pytest.raises(StoreError, match="row 1"):
            store.load_table("plays", bad)

    def test_missing_and_extra_columns(self):
        catalog = load_catalog(PLAYS_CONFIG)
        store = Store(catalog)
        with pytest.raises(StoreError, match="missing"):
            store.load_table("plays", "pid,team,year,league\n")
        with pytest.raises(StoreError, match="unknown"):
            store.load_table("plays", "pid,team,year,league,points,bonus\n")

    def test_duplicate_key_rejected(self):
        catalog = load_catalog(PLAYS_CONFIG)
        store = Store(catalog)
        dup = "pid,team,year,league,points\n1,A,2010,NBA,1\n1,B,2010,NBA,2\n"
        with pytest.raises(StoreError, match="duplicate key"):
            store.load_table("plays", dup)


class TestApplyUpdate:
    def test_delta_update_affects_matching_rows(self, bloomberg):
        _, store = bloomberg
        u = UpdateRecord(1, "update", "stockmarket", {"s_value": Delta(10)}, {"s_companyid": 8})
        affected = store.apply_update(u)
        table = store.table("stockmarket")
        assert affected == [8]
        assert table.rows[8][table.col_pos["s_value"]] == 214

    def test_no_match_changes_nothing(self, bloomberg):
        _, store = bloomberg
        before = [list(r) for r in store.table("stockmarket").rows]
        u = UpdateRecord(1, "update", "stockmarket", {"s_value": 1}, {"s_companyid": 999})
        assert store.apply_update(u) == []
        assert store.table("stockmarket").rows == before

    def test_insert_returns_new_row_id(self, bloomberg):
        _, store = bloomberg
        u = UpdateRecord(1, "insert", "stockmarket", {"s_companyid": 9, "s_value": 7}, {})
        assert store.apply_update(u) == [9]
        assert len(store.table("stockmarket")) == 10

    def test_insert_duplicate_key_rejected(self, bloomberg):
        _, store = bloomberg
        u = UpdateRecord(1, "insert", "stockmarket", {"s_companyid": 8, "s_value": 7}, {})
        with pytest.raises(StoreError, match="duplicate key"):
            store.apply_update(u)

    def test_insert_requires_full_row(self, bloomberg):
        _, store = bloomberg
        with pytest.raises(StoreError, match="exactly the columns"):
            store.apply_update(UpdateRecord(1, "insert", "stockmarket", {"s_value": 7}, {}))

    def test_unknown_column_rejected(self, bloomberg):
        _, store = bloomberg
        with pytest.raises(StoreError, match="unknown column"):
            store.apply_update(
                UpdateRecord(1, "update", "stockmarket", {"nope": 1}, {"s_companyid": 8})
            )

    def test_delta_on_text_rejected(self, bloomberg):
        _, store = bloomberg
        with pytest.raises(StoreError, match="text"):
            store.apply_update(
                UpdateRecord(1, "update", "person", {"p_name": Delta(1)}, {"p_id": 0})
            )

    def test_invalid_update_mutates_nothing(self, plays):
        _, store = plays
        before = [list(r) for r in store.table("plays").rows]
        bad = UpdateRecord(1, "update", "plays", {"points": 5, "team": 42}, {"pid": 1})
        with pytest.raises(StoreError):
            store.apply_update(bad)
        assert store.table("plays").rows == before

    def test_non_finite_real_values_rejected(self):
        # a real total must stay exactly summable, so inf and nan never load
        catalog = load_catalog(PLAYS_CONFIG.replace("points, type: integer", "points, type: real"))
        store = Store(catalog)
        for cell in ("inf", "nan", "-Infinity"):
            with pytest.raises(StoreError, match="non-finite"):
                store.load_table("plays", f"pid,team,year,league,points\n1,A,2010,NBA,{cell}\n")
        store.load_table("plays", "pid,team,year,league,points\n1,A,2010,NBA,1e308\n")
        before = [list(r) for r in store.table("plays").rows]
        for value in (float("nan"), Delta(1e308)):
            with pytest.raises(StoreError, match="non-finite"):
                store.apply_update(UpdateRecord(1, "update", "plays", {"points": value}, {"pid": 1}))
        assert store.table("plays").rows == before

    def test_index_consistency_after_random_updates(self):
        rng = random.Random(11)
        inst = make_instance(rng, n_rows=80, two_tables=True)
        _, store = load_instance(inst)
        for u in make_updates(rng, inst, 150):
            store.apply_update(u)
        for table in store.tables.values():
            live = {col: {v: set(ids) for v, ids in idx.items()} for col, idx in table.indices.items()}
            key_live = dict(table.key_index)
            table.rebuild_indices()
            assert live == table.indices
            assert key_live == table.key_index


class TestSelectDistinct:
    def test_single_column_dedupe(self, plays):
        _, store = plays
        values = store.select_distinct([ColumnRef("plays", "league")])
        assert values == {("NBA",), ("ABA",)}

    def test_only_materialized_combinations(self, plays):
        _, store = plays
        pairs = store.select_distinct([ColumnRef("plays", "team"), ColumnRef("plays", "year")])
        assert ("Phoenix", 2010) in pairs
        assert ("Phoenix", 2011) not in pairs  # never co-occurs
        assert len(pairs) == 3

    def test_empty_table(self):
        catalog = load_catalog(PLAYS_CONFIG)
        store = Store(catalog)
        store.load_table("plays", "pid,team,year,league,points\n")
        assert store.select_distinct([ColumnRef("plays", "team")]) == set()

    def test_fixed_atoms_restrict(self, plays):
        _, store = plays
        atom = ConstraintAtom("const_comparison", ColumnRef("plays", "points"), ">", 25)
        values = store.select_distinct([ColumnRef("plays", "league")], [atom])
        assert values == {("NBA",), ("ABA",)}
        atom = ConstraintAtom("const_comparison", ColumnRef("plays", "points"), ">", 45)
        assert store.select_distinct([ColumnRef("plays", "league")], [atom]) == {("NBA",)}


class TestEvaluateHof:
    def test_figure_before_state(self, bloomberg):
        catalog, store = bloomberg
        queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=0, j_num=3), store)
        target = next(q for q in queries if str(q.entity_attr) == "person.p_name")
        state = store.evaluate_hof(target)
        assert set(state.entries) == {
            ("Bill Gates", 210),
            ("Warren E. Buffet", 210),
            ("Amancio O. Gaona", 204),
        }

    def test_true_predicate_large_k_returns_all_entities(self, plays):
        catalog, store = plays
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=0, j_num=0), store)
        target = next(q for q in queries if not q.predicate)
        big = dataclasses.replace(target, k=100)
        state = store.evaluate_hof(big)
        # sums: Phoenix 90, San Antonio Spurs 40, Boston 20
        assert state.entities() == ("Phoenix", "San Antonio Spurs", "Boston")

    def test_three_row_toy_matches_brute_force(self):
        rng = random.Random(0)
        inst = make_instance(rng, n_rows=3, n_entities=2, n_c1=1, n_c2=1)
        catalog, store = load_instance(inst)
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=0, j_num=0), store)
        for q in queries:
            assert list(store.evaluate_hof(q).entries) == oracle_eval_query(inst.tables, inst, q)

    def test_random_instances_match_brute_force(self):
        rng = random.Random(202)
        for trial in range(12):
            inst = make_instance(
                rng,
                n_rows=rng.randrange(30, 300),
                n_entities=rng.randrange(5, 40),
                two_tables=trial % 3 == 0,
                with_user_atom=trial % 4 == 0,
            )
            catalog, store = load_instance(inst)
            queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=2, j_num=2), store)
            assert queries, f"trial {trial} generated nothing"
            for q in queries:
                got = store.evaluate_hof(q)
                assert list(got.entries) == oracle_eval_query(inst.tables, inst, q)
                assert len(got) <= q.k
                assert len(set(got.entities())) == len(got)


class TestSelectivityAndCounts:
    def test_true_predicate_is_one(self, plays):
        _, store = plays
        assert store.selectivity((), (), needed={"plays"}) == 1.0

    def test_league_binding_fraction(self, plays):
        _, store = plays
        atom = ConstraintAtom("binding", ColumnRef("plays", "league"), "=", "NBA")
        assert store.selectivity((atom,), ()) == pytest.approx(0.8)

    def test_unsatisfiable_binding_is_zero(self, plays):
        _, store = plays
        atom = ConstraintAtom("binding", ColumnRef("plays", "league"), "=", "XFL")
        assert store.selectivity((atom,), ()) == 0.0

    def test_empty_table_is_an_error(self):
        catalog = load_catalog(PLAYS_CONFIG)
        store = Store(catalog)
        store.load_table("plays", "pid,team,year,league,points\n")
        atom = ConstraintAtom("binding", ColumnRef("plays", "league"), "=", "NBA")
        with pytest.raises(StoreError, match="empty data table"):
            store.selectivity((atom,), ())

    def test_monotone_under_added_conjuncts(self):
        rng = random.Random(5)
        inst = make_instance(rng, n_rows=150)
        _, store = load_instance(inst)
        c1 = ColumnRef("stats", "c1")
        c2 = ColumnRef("stats", "c2")
        for value1 in ("a0", "a1", "a2"):
            a1 = ConstraintAtom("binding", c1, "=", value1)
            base = store.selectivity((a1,), ())
            for value2 in ("b0", "b1"):
                a2 = ConstraintAtom("binding", c2, "=", value2)
                assert store.selectivity((a1, a2), ()) <= base

    def test_projection_counts(self, plays):
        _, store = plays
        cols = [ColumnRef("plays", "team"), ColumnRef("plays", "year"), ColumnRef("plays", "league")]
        counts = store.instantiation_counts(cols, ())
        assert counts == {
            ("Phoenix", 2010, "NBA"): 3,
            ("Boston", 2011, "NBA"): 1,
            ("San Antonio Spurs", 1972, "ABA"): 1,
        }

    def test_single_and_duplicate_rows(self):
        catalog = load_catalog(PLAYS_CONFIG)
        store = Store(catalog)
        store.load_table("plays", "pid,team,year,league,points\n1,A,2000,NBA,5\n")
        assert store.instantiation_counts([ColumnRef("plays", "team")], ()) == {("A",): 1}
        store2 = Store(catalog)
        store2.load_table(
            "plays", "pid,team,year,league,points\n1,A,2000,NBA,5\n2,A,2000,NBA,5\n"
        )
        assert store2.instantiation_counts([ColumnRef("plays", "team")], ()) == {("A",): 2}

    def test_counts_sum_to_joined_rows(self, bloomberg):
        _, store = bloomberg
        from halloffame import join_path

        catalog = store.catalog
        path = tuple(join_path(catalog, {"person", "stockmarket"}, 3))
        counts = store.instantiation_counts([ColumnRef("person", "p_name")], path)
        _, envs, _ = store.joined_rows({"person", "stockmarket"}, path)
        assert sum(counts.values()) == len(envs)


class TestUpdateStreamIO:
    def test_round_trip(self):
        updates = [
            UpdateRecord(1, "update", "t", {"x": Delta(3)}, {"k": 1}),
            UpdateRecord(2, "insert", "t", {"k": 9, "x": 5}, {}),
        ]
        text = write_update_stream(updates)
        assert list(read_update_stream(text)) == updates

    def test_json_shape(self):
        u = UpdateRecord(1, "update", "t", {"x": Delta(3)}, {"k": 1})
        line = update_to_json(u)
        assert '"delta": 3' in line
        assert update_from_json(line) == u

    def test_seq_must_increase(self):
        text = (
            update_to_json(UpdateRecord(2, "update", "t", {"x": 1}, {"k": 1}))
            + "\n"
            + update_to_json(UpdateRecord(2, "update", "t", {"x": 2}, {"k": 1}))
            + "\n"
        )
        with pytest.raises(StoreError, match="not increasing"):
            list(read_update_stream(text))

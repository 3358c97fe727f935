import csv
import dataclasses
import functools
import io
import itertools
import math
import operator
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from halloffame import (
    ColumnRef,
    ConstraintAtom,
    Delta,
    Engine,
    GeneratorConfig,
    JoinEdge,
    Reference,
    Store,
    StoreError,
    Table,
    UpdateRecord,
    generate_queries,
    join_path,
    load_catalog,
    read_update_stream,
    update_from_json,
    update_to_json,
    write_update_stream,
)
from halloffame.store import CsvLoadError, JoinScan, UpdateError, _coerce_cell, join_steps, leaf_edge
from conftest import DATA_DIR, assert_best_keys, load_dataset, load_instance, rankings_of
from oracles import (
    make_instance,
    make_updates,
    oracle_apply,
    oracle_diff,
    oracle_eval_query,
    oracle_eval_real_query,
    oracle_path_rankings,
    oracle_sql_rankings,
)

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


def engine_rankings(catalog, store, queries):
    """The rankings a newly built engine holds: delta, then the reference's."""
    return [rankings_of(engine_class(catalog, store, queries)) for engine_class in (Engine, Reference)]


def snapshot(store, engine):
    """Copies of every table's rows, column indices and key index, and of the
    engine's rankings; of the delta path's also its family counts and totals
    and entity orders."""
    tables = {
        name: (
            [list(r) for r in t.rows],
            {col: {v: set(ids) for v, ids in idx.items()} for col, idx in t.indices.items()},
            dict(t.key_index),
        )
        for name, t in store.tables.items()
    }
    if isinstance(engine, Reference):
        return tables, rankings_of(engine)
    families = [
        {i: (dict(slot.counts), [dict(t) for t in slot.totals]) for i, slot in fam.slots.items()}
        for fam in engine.families
    ]
    orders = {qid: (list(o.keys), o.bound) for qid, o in engine.orders.items()}
    return tables, rankings_of(engine), families, orders


def reloaded(store):
    """A new store loaded from CSV text of the store's current rows."""
    fresh = Store(store.catalog)
    for name, table in store.tables.items():
        out = io.StringIO()
        csv.writer(out).writerows([table.meta.column_names(), *table.rows])
        fresh.load_table(name, out.getvalue())
    return fresh


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

    def test_located_error_texts(self):
        real = load_catalog(PLAYS_CONFIG.replace("points, type: integer", "points, type: real"))
        header = "pid,team,year,league,points\n"
        cases = [
            (PLAYS_CONFIG, "abc,A,2010,NBA,1\n", "table 'plays', row 1, column 'pid': cannot parse 'abc' as integer"),
            (PLAYS_CONFIG, "1,A,2010,NBA,2.5\n", "table 'plays', row 1, column 'points': cannot parse '2.5' as integer"),
            (real, "1,A,2010,NBA,1\n2,B,2010,NBA,x\n", "table 'plays', row 2, column 'points': cannot parse 'x' as real"),
            (real, "1,A,2010,NBA, inf\n", "table 'plays', row 1, column 'points': non-finite value ' inf'"),
            (real, "1,A,2010,NBA,1e309\n", "table 'plays', row 1, column 'points': non-finite value '1e309'"),
            (PLAYS_CONFIG, "1,A,2010,NBA,1\n\n2,B,2010\n", "table 'plays', row 3: expected 5 cells"),
            (PLAYS_CONFIG, "1,A,2010,NBA,1\n1,B,2010,NBA,2\n", "table 'plays', row 2: duplicate key (1,)"),
            # the first bad row is the one named, whatever is wrong further on
            (PLAYS_CONFIG, "1,A,2010,NBA,1\n1,B,2010,NBA,2\nx,C,2010,NBA,3\n", "table 'plays', row 2: duplicate key (1,)"),
        ]
        for config, rows, text in cases:
            catalog = load_catalog(config) if isinstance(config, str) else config
            with pytest.raises(CsvLoadError) as info:
                Store(catalog).load_table("plays", header + rows)
            assert str(info.value) == text

    def test_first_bad_row_named_across_fault_kinds(self):
        header = "pid,team,year,league,points\n"
        cases = [
            # a wrong cell count before a duplicate key
            ("1,A,2010,NBA,1\n2,B,2010\n1,C,2010,NBA,3\n", "table 'plays', row 2: expected 5 cells"),
            # a duplicate key after a blank line, named by its record number
            ("1,A,2010,NBA,1\n\n1,B,2010,NBA,2\n", "table 'plays', row 3: duplicate key (1,)"),
            # ... also when a bad cell and a wrong cell count follow it
            ("\n1,A,2010,NBA,1\n\n1,B,2010,NBA,2\nx,C,2010,NBA,3\n", "table 'plays', row 4: duplicate key (1,)"),
            ("1,A,2010,NBA,1\n\n1,B,2010,NBA,2\n3,C\n", "table 'plays', row 3: duplicate key (1,)"),
        ]
        for rows, text in cases:
            with pytest.raises(CsvLoadError) as info:
                Store(load_catalog(PLAYS_CONFIG)).load_table("plays", header + rows)
            assert str(info.value) == text

    def test_bulk_indices_equal_appended_rows(self, bloomberg_dir):
        # blank lines, and a country id (99) that no country row holds
        catalog = load_catalog((bloomberg_dir / "catalog.yaml").read_text(encoding="utf-8"))
        text = "c_id,c_name,c_countryid\n\n4,SAP,1\n7,BMW,1\n\n2,Microsoft,0\n5,Acme,99\n\n3,SAP,0\n"
        table = Store(catalog).load_table("company", text)
        assert set(table.indices) == catalog.join_columns("company") == {"c_id", "c_countryid"}
        fresh = Table(table.meta, table.indices)
        for row in table.rows:
            fresh.append_row(row)
        assert fresh.indices == table.indices and fresh.key_index == table.key_index
        assert [list(index) for index in fresh.indices.values()] == [list(index) for index in table.indices.values()]
        assert list(fresh.key_index) == list(table.key_index) == [(4,), (7,), (2,), (5,), (3,)]
        assert table.indices["c_countryid"] == {1: {0, 1}, 0: {2, 4}, 99: {3}}

    def test_cells_equal_the_cell_by_cell_conversion(self):
        real = load_catalog(PLAYS_CONFIG.replace("points, type: integer", "points, type: real"))
        cells = [
            # pid, team, year, league, points
            [" 7 ", " Phoenix ", "-3", "NBA", "1e308"],
            ["-3", "Phoenix", "+4", " NBA", "-3"],
            ["8", "", "1_000", "NBA ", " -0.0 "],
            ["9", "Spurs", "0", "ABA", "2.5e-3"],
        ]
        text = "pid,team,year,league,points\n" + "".join(",".join(row) + "\n" for row in cells)
        table = Store(real).load_table("plays", text)
        types = [t for _, t in real.relation("plays").columns]
        assert len(table.rows) == len(cells)
        for row, record in zip(table.rows, cells):
            for value, cell, col_type in zip(row, record, types):
                expected = _coerce_cell(cell, col_type, "where")
                assert type(value) is type(expected) and repr(value) == repr(expected), (cell, col_type)
                if col_type == "text":
                    assert value is sys.intern(cell)


KEYED_CONFIG = """
relations:
  - name: pair
    columns:
      - {name: a, type: integer}
      - {name: b, type: text}
      - {name: v, type: integer}
    key: [a, b]
  - name: solo
    columns:
      - {name: id, type: integer}
      - {name: tag, type: text}
      - {name: v, type: integer}
    key: [id]
entity_attrs: [pair.b, solo.tag]
ranking_criteria:
  - {column: pair.v, aggregation: sum, direction: descending}
"""


class TestMatchRows:
    def test_where_on_a_categorical_column_scans(self, plays):
        # only key and join columns are indexed: a where on another column
        # scans the rows, and sees a write to that column at once
        _, store = plays
        table = store.table("plays")
        assert table.indices == {}  # plays has no join column

        def matched(**where):
            got = store.match_rows(UpdateRecord(1, "update", "plays", {"points": Delta(1)}, where))
            pos = table.col_pos
            assert got == [rid for rid, row in enumerate(table.rows) if all(row[pos[c]] == v for c, v in where.items())]
            return got

        assert matched(team="Phoenix") == matched(team="Phoenix", year=2010) == [0, 2, 4]
        assert matched(league="ABA") == [3] and matched(team="Lakers") == []
        store.apply_update(UpdateRecord(2, "update", "plays", {"team": "Lakers"}, {"team": "Phoenix", "points": 30}))
        assert matched(team="Phoenix") == [0, 4] and matched(team="Lakers") == [2]
        store.apply_update(UpdateRecord(3, "update", "plays", {"team": "Boston"}, {"team": "Phoenix"}))
        assert matched(team="Phoenix") == [] and matched(team="Boston") == [0, 1, 4]

    @staticmethod
    def brute_force(table, where):
        pos = table.col_pos
        return [rid for rid, row in enumerate(table.rows) if all(row[pos[c]] == v for c, v in where.items())]

    @staticmethod
    def wheres(table, a, b, v):
        """Every where shape for the probe (a, b, v): the key alone, with an
        agreeing and with a disagreeing non-key column, part of the key or
        none of it; an absent key when no row holds (a, b) or a."""
        composite = table.meta.name == "pair"
        key = {"a": a, "b": b} if composite else {"id": a}
        rid = table.key_index.get((a, b) if composite else (a,))
        held = v if rid is None else table.rows[rid][table.col_pos["v"]]
        out = [key, {**key, "v": held}, {**key, "v": held + 1}, {**key, "v": v}]
        out += [{"a": a}, {"b": b, "v": v}] if composite else [{"tag": b}, {**key, "tag": b}]
        return out

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        rows=st.dictionaries(st.tuples(st.integers(0, 3), st.sampled_from("xy")), st.integers(0, 2), max_size=8),
        moves=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 4), st.sampled_from("xyz")), max_size=4),
        probes=st.lists(st.tuples(st.integers(0, 4), st.sampled_from("xyz"), st.integers(0, 2)), min_size=1, max_size=4),
    )
    def test_equals_a_brute_force_filter(self, rows, moves, probes):
        # on a composite-key and a single-key table, before and after key
        # moves: a where naming the whole key probes the key index and
        # compares only its other columns, any other where scans; a bad
        # where column is still rejected
        store = Store(load_catalog(KEYED_CONFIG))
        solo = {a: (b, v) for (a, b), v in rows.items()}  # one row per a
        store.load_table("pair", "a,b,v\n" + "".join(f"{a},{b},{v}\n" for (a, b), v in rows.items()))
        store.load_table("solo", "id,tag,v\n" + "".join(f"{a},{b},{v}\n" for a, (b, v) in solo.items()))

        def check():
            for table in store.tables.values():
                for probe in probes:
                    for where in self.wheres(table, *probe):
                        u = UpdateRecord(1, "update", table.meta.name, {"v": Delta(1)}, where)
                        assert store.match_rows(u) == self.brute_force(table, where), (table.meta.name, where)

        check()
        for seq, (i, a, b) in enumerate(moves, start=2):
            for name, table in store.tables.items():
                if i >= len(table.rows):
                    continue
                row = table.rows[i]
                key = dict(zip(table.meta.key_columns, row))
                new = {"a": a, "b": b} if name == "pair" else {"id": a}
                try:
                    store.apply_update(UpdateRecord(seq, "update", name, new, key))
                except UpdateError as exc:  # onto a key another row holds
                    assert "duplicate key" in str(exc)
            check()

        for where, message in [
            ({"a": 0, "b": "x", "nope": 1}, "unknown column pair.nope"),
            ({"a": "0", "b": "x"}, "where column a: expected integer"),
            ({"a": 0, "b": 1}, "where column b: expected text"),
            ({"a": 0.5, "b": "x"}, "where column a: expected integer"),
        ]:
            with pytest.raises(UpdateError, match=message):
                store.match_rows(UpdateRecord(9, "update", "pair", {"v": 1}, where))


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

    @pytest.mark.parametrize("filters", [True, False])
    def test_insert_with_where_rejected_before_any_change(self, bloomberg, filters):
        catalog, store = bloomberg
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=1, j_num=2), store)
        engine = (Engine if filters else Reference)(catalog, store, queries)
        before = snapshot(store, engine)
        u = update_from_json(
            '{"seq": 3, "kind": "insert", "table": "country", "set": {"co_countryid": 99, "co_name": "X"}, '
            '"where": {"bogus": 5}}'
        )
        with pytest.raises(UpdateError, match="insert 3: an insert takes no where"):
            engine.detect(u)
        assert snapshot(store, engine) == before
        assert len(store.table("country")) == 6

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

    def test_huge_integer_in_a_real_column_rejected(self):
        # 10**400 has no float: a set, a delta, an insert and a where with it
        # are located UpdateErrors, not OverflowErrors, and change nothing
        catalog = load_catalog(PLAYS_CONFIG.replace("points, type: integer", "points, type: real"))
        store = Store(catalog)
        store.load_table("plays", PLAYS_CSV)
        before = [list(r) for r in store.table("plays").rows]
        huge = 10**400
        writes = [
            ("update", {"points": huge}, {"pid": 1}, "update 1, column points: integer out of the real range"),
            ("update", {"points": Delta(huge)}, {"pid": 1}, "update 1, column points: delta out of the real range"),
            ("update", {"points": 1.0}, {"points": huge}, "update 1, where column points: integer out of the real range"),
            ("insert", {"pid": 6, "team": "A", "year": 2010, "league": "NBA", "points": huge}, {},
             "insert 1, column points: integer out of the real range"),
        ]
        for kind, set_values, where, message in writes:
            with pytest.raises(UpdateError) as caught:
                store.apply_update(UpdateRecord(1, kind, "plays", set_values, where))
            assert str(caught.value) == message
            assert store.table("plays").rows == before

    def test_negative_zero_is_stored_as_zero(self):
        # a real column holds one zero, so no later reader can tell which
        # zero a row was given: CSV load, set, delta and insert store +0.0,
        # and so does the index of year, a join column
        config = PLAYS_CONFIG.replace("year, type: integer", "year, type: real").replace(
            "entity_attrs:", "  - {name: seasons, columns: [{name: s_year, type: real}]}\nentity_attrs:"
        )
        catalog = load_catalog(config + "join_edges:\n  - {from: plays.year, to: seasons.s_year}\n")
        store = Store(catalog)
        table = store.load_table("plays", "pid,team,year,league,points\n1,A,-0.0,NBA,1\n2,B,1.5,NBA,2\n")
        year = table.col_pos["year"]
        writes = [
            UpdateRecord(1, "update", "plays", {"year": -0.0}, {"pid": 2}),
            UpdateRecord(2, "update", "plays", {"year": Delta(-0.0)}, {"pid": 2}),
            UpdateRecord(3, "insert", "plays", {"pid": 3, "team": "C", "year": -0.0, "league": "NBA", "points": 3}, {}),
        ]
        assert math.copysign(1.0, table.rows[0][year]) == 1.0
        for u in writes:
            (rid,) = store.apply_update(u)
            assert math.copysign(1.0, table.rows[rid][year]) == 1.0, u.seq
        (zero,) = table.indices["year"]
        assert math.copysign(1.0, zero) == 1.0 and table.indices["year"][zero] == {0, 1, 2}

    def test_index_consistency_after_random_updates(self):
        rng = random.Random(11)
        inst = make_instance(rng, n_rows=80, two_tables=True)
        _, store = load_instance(inst)
        for u in make_updates(rng, inst, 150):
            store.apply_update(u)
        for table in store.tables.values():
            fresh = Table(table.meta, table.indices)
            for row in table.rows:
                fresh.append_row(row)
            assert fresh.indices == table.indices
            assert fresh.key_index == table.key_index

    def test_key_collisions_rejected_before_any_change(self, plays):
        catalog, store = plays
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=1, j_num=0), store)
        engine = Engine(catalog, store, queries)
        before = snapshot(store, engine)
        assert rankings_of(engine)
        collisions = [
            UpdateRecord(1, "update", "plays", {"pid": 3}, {"pid": 1}),  # onto an existing key
            UpdateRecord(2, "update", "plays", {"pid": 9}, {"team": "Phoenix"}),  # three rows onto one key
            UpdateRecord(3, "update", "plays", {"pid": Delta(1)}, {"team": "Phoenix"}),  # 1 -> 2, Boston's
        ]
        for u in collisions:
            with pytest.raises(UpdateError, match=f"update {u.seq}: duplicate key"):
                engine.detect(u)
            assert snapshot(store, engine) == before

    def test_key_moves_onto_free_keys(self, plays):
        _, store = plays
        table = store.table("plays")
        store.apply_update(UpdateRecord(1, "update", "plays", {"pid": Delta(10)}, {"team": "Phoenix"}))
        # 11 and 13 are free again once their own rows move off them
        store.apply_update(UpdateRecord(2, "update", "plays", {"pid": Delta(-2)}, {"team": "Phoenix"}))
        assert [row[0] for row in table.rows] == [9, 2, 11, 4, 13]
        assert table.key_index == {(9,): 0, (2,): 1, (11,): 2, (4,): 3, (13,): 4}

    def test_key_index_follows_random_key_moves(self):
        catalog = load_catalog(PLAYS_CONFIG)
        store = Store(catalog)
        rows = [f"{pid},T{pid % 4},2000,NBA,{pid}" for pid in range(60)]
        store.load_table("plays", "pid,team,year,league,points\n" + "\n".join(rows) + "\n")
        table = store.table("plays")
        rng = random.Random(7)
        taken = 0
        for seq in range(1, 400):
            keys = sorted(k for (k,) in table.key_index)
            choice = rng.randrange(3)
            if choice == 0:  # one row to any key, free or not
                writes = [({"pid": rng.randrange(80)}, {"pid": rng.choice(keys)})]
            elif choice == 1:  # a whole team by the same delta
                shift = Delta(rng.choice([-8, -4, -1, 1, 3, 4, 8]))
                writes = [({"pid": shift}, {"team": f"T{rng.randrange(4)}"})]
            else:  # row p takes key p + d, which row p + d vacates for p + 2d
                p, d = rng.choice(
                    [(p, d) for p in keys for d in range(1, 6) if p + d in keys and p + 2 * d not in keys]
                )
                writes = [
                    ({"year": 9999}, {"pid": p}),
                    ({"year": 9999}, {"pid": p + d}),
                    ({"pid": Delta(d)}, {"year": 9999}),
                    ({"year": 2000}, {"year": 9999}),
                ]
            for set_values, where in writes:
                try:
                    moved = store.apply_update(UpdateRecord(seq, "update", "plays", set_values, where))
                except UpdateError:
                    moved = []
                taken += choice == 2 and "pid" in set_values and len(moved) == 2
                rebuilt = {table._key_of(row): rid for rid, row in enumerate(table.rows)}
                assert table.key_index == rebuilt, (seq, set_values, where)
                assert len(rebuilt) == len(table.rows)
        assert taken > 50

    def test_wrong_typed_where_value_rejected_before_any_change(self, bloomberg):
        catalog, store = bloomberg
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=1, j_num=2), store)
        engine = Engine(catalog, store, queries)
        before = snapshot(store, engine)
        assert rankings_of(engine)
        for value in ("8", None, True, 8.5):
            u = UpdateRecord(1, "update", "stockmarket", {"s_value": Delta(10)}, {"s_companyid": value})
            with pytest.raises(UpdateError, match="update 1, where column s_companyid: expected integer"):
                engine.detect(u)
            assert snapshot(store, engine) == before
        u = UpdateRecord(1, "update", "company", {"c_countryid": 1}, {"c_name": 8})
        with pytest.raises(UpdateError, match="where column c_name: expected text"):
            engine.detect(u)
        assert snapshot(store, engine) == before
        as_float = UpdateRecord(2, "update", "stockmarket", {"s_value": Delta(10)}, {"s_companyid": 8.0})
        assert store.match_rows(as_float) == [8]


class TestEvaluateHof:
    """The rankings an engine starts from, built by the delta engine's
    set-up scan and by the reference, against the oracle."""

    def test_figure_before_state(self, bloomberg):
        catalog, store = bloomberg
        queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=0, j_num=3), store)
        target = next(q for q in queries if str(q.entity_attr) == "person.p_name")
        for rankings in engine_rankings(catalog, store, queries):
            assert set(rankings[target.id]) == {
                ("Bill Gates", 210),
                ("Warren E. Buffet", 210),
                ("Amancio O. Gaona", 204),
            }

    def test_true_predicate_large_k_returns_all_entities(self, plays):
        catalog, store = plays
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=0, j_num=0), store)
        target = next(q for q in queries if not q.predicate)
        big = dataclasses.replace(target, k=100)
        for rankings in engine_rankings(catalog, store, [big]):
            # sums: Phoenix 90, San Antonio Spurs 40, Boston 20
            assert [e for e, _ in rankings[big.id]] == ["Phoenix", "San Antonio Spurs", "Boston"]

    def test_three_row_toy_matches_brute_force(self):
        rng = random.Random(0)
        inst = make_instance(rng, n_rows=3, n_entities=2, n_c1=1, n_c2=1)
        catalog, store = load_instance(inst)
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=0, j_num=0), store)
        for rankings in engine_rankings(catalog, store, queries):
            for q in queries:
                assert list(rankings[q.id]) == oracle_eval_query(inst.tables, inst, q)

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
            for rankings in engine_rankings(catalog, store, queries):
                for q in queries:
                    got = rankings[q.id]
                    assert list(got) == oracle_eval_query(inst.tables, inst, q)
                    assert len(got) <= q.k
                    assert len({e for e, _ in got}) == len(got)


class TestSelectivityAndCounts:
    @staticmethod
    def selectivities(catalog, store, c_num=1):
        """predicate -> selectivity of every query generated at k=1; the
        catalogs used have one entity attribute and one criterion relation,
        so a predicate's queries share one selectivity."""
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=c_num, j_num=0), store)
        return {q.predicate: q.selectivity for q in queries}

    def test_true_predicate_is_one(self, plays):
        assert self.selectivities(*plays)[()] == 1.0

    def test_league_binding_fraction(self, plays):
        atom = ConstraintAtom("binding", ColumnRef("plays", "league"), "=", "NBA")
        assert self.selectivities(*plays)[(atom,)] == pytest.approx(0.8)

    def test_absent_value_generates_no_query(self, plays):
        league = ColumnRef("plays", "league")
        selectivity = self.selectivities(*plays)
        assert (ConstraintAtom("binding", league, "=", "XFL"),) not in selectivity
        assert {p[0].right for p in selectivity if p and p[0].left == league} == {"NBA", "ABA"}

    def test_empty_table_generates_nothing(self):
        catalog = load_catalog(PLAYS_CONFIG)
        store = Store(catalog)
        store.load_table("plays", "pid,team,year,league,points\n")
        assert generate_queries(catalog, GeneratorConfig(k=1, c_num=1, j_num=0), store) == []

    def test_monotone_under_added_conjuncts(self, plays):
        checked = 0
        for catalog, store in (plays, load_instance(make_instance(random.Random(5), n_rows=150))):
            selectivity = self.selectivities(catalog, store, c_num=2)
            for predicate, value in selectivity.items():
                for fewer in itertools.combinations(predicate, len(predicate) - 1) if predicate else ():
                    assert value <= selectivity[fewer]
                    checked += 1
        assert checked > 50

    def test_projection_counts(self, plays):
        _, store = plays
        cols = [ColumnRef("plays", "team"), ColumnRef("plays", "year"), ColumnRef("plays", "league")]
        counts = check_counts(store, {"plays"}, (), cols)
        assert counts == {
            ("Phoenix", 2010, "NBA"): 3,
            ("Boston", 2011, "NBA"): 1,
            ("San Antonio Spurs", 1972, "ABA"): 1,
        }

    def test_single_and_duplicate_rows(self):
        catalog = load_catalog(PLAYS_CONFIG)
        store = Store(catalog)
        store.load_table("plays", "pid,team,year,league,points\n1,A,2000,NBA,5\n")
        assert check_counts(store, {"plays"}, (), [ColumnRef("plays", "team")]) == {("A",): 1}
        store2 = Store(catalog)
        store2.load_table(
            "plays", "pid,team,year,league,points\n1,A,2000,NBA,5\n2,A,2000,NBA,5\n"
        )
        assert check_counts(store2, {"plays"}, (), [ColumnRef("plays", "team")]) == {("A",): 2}

    def test_counts_sum_to_joined_rows(self, bloomberg):
        _, store = bloomberg
        needed = {"person", "stockmarket"}
        path = tuple(join_path(store.catalog, needed, 3))
        names = [ColumnRef("person", "p_name")]
        assert leaf_edge(path, [ColumnRef("stockmarket", "s_value")], names)
        _, envs = store.joined_rows(needed, path)
        for leaf in (None, "stockmarket"):
            counts = check_counts(store, needed, path, names, leaf=leaf)
            assert sum(counts.values()) == len(envs)


class TestJoinedRows:
    PATH = (
        JoinEdge(ColumnRef("shareholder", "s_personid"), ColumnRef("person", "p_id")),
        JoinEdge(ColumnRef("shareholder", "s_companyid"), ColumnRef("company", "c_id")),
        JoinEdge(ColumnRef("company", "c_countryid"), ColumnRef("country", "co_countryid")),
    )

    @staticmethod
    def brute_force(store, path):
        """Row-id tuples, in sorted relation order, of every combination of
        one row per relation whose columns agree along every edge."""
        rels = sorted({r for edge in path for r in edge.relations()})
        pos = {rel: i for i, rel in enumerate(rels)}

        def value(ref, combo):
            table = store.table(ref.relation)
            return table.rows[combo[pos[ref.relation]]][table.col_pos[ref.column]]

        out = Counter()
        for combo in itertools.product(*(range(len(store.table(r).rows)) for r in rels)):
            if all(value(e.src, combo) == value(e.dst, combo) for e in path):
                out[combo] += 1
        return rels, out

    @pytest.mark.parametrize("reverse_first", [False, True])
    def test_three_edge_path_matches_nested_loops(self, bloomberg, reverse_first):
        _, store = bloomberg
        path = self.PATH
        if reverse_first:
            path = (JoinEdge(path[0].dst, path[0].src),) + path[1:]
        rels, expected = self.brute_force(store, path)
        rel_order, envs = store.joined_rows(rels, path)
        assert rel_order[0] == path[0].src.relation
        got = Counter(tuple(env[rel_order.index(r)] for r in rels) for env in envs)
        assert sum(expected.values()) > 1
        assert got == expected

    def test_counts_with_atoms_match_nested_loops(self, bloomberg):
        _, store = bloomberg
        amount = ColumnRef("shareholder", "s_amount")
        p_country, c_country = ColumnRef("person", "p_countryid"), ColumnRef("company", "c_countryid")
        atoms = (
            ConstraintAtom("const_comparison", amount, "<", 100),
            ConstraintAtom("inter_attribute", p_country, "!=", c_country),
        )
        columns = [ColumnRef("country", "co_name"), ColumnRef("person", "p_name")]
        rels, combos = self.brute_force(store, self.PATH)
        pos = {rel: i for i, rel in enumerate(rels)}

        def value(ref, combo):
            table = store.table(ref.relation)
            return table.rows[combo[pos[ref.relation]]][table.col_pos[ref.column]]

        expected = Counter()
        for combo, n in combos.items():
            if value(amount, combo) < 100 and value(p_country, combo) != value(c_country, combo):
                expected[tuple(value(c, combo) for c in columns)] += n
        got = JoinScan(store, rels, self.PATH, atoms).counts(columns)
        assert got == dict(expected)
        assert len(got) > 1
        assert sum(got.values()) < sum(JoinScan(store, rels, self.PATH).counts(columns).values())

    def test_one_join_per_path(self, bloomberg):
        _, store = bloomberg
        rels = {"shareholder", "person", "company", "country"}
        assert store.joined_rows({"person", "country"}, self.PATH) is store.joined_rows(rels, self.PATH)

    def test_malformed_paths_are_located_errors(self, bloomberg):
        # the catalog's join-path rule, the one a query catalog line meets, in its words
        _, store = bloomberg
        repeated = self.PATH[:2] + self.PATH[1:2]  # its last edge adds no relation
        outside = (JoinEdge(ColumnRef("company", "c_name"), ColumnRef("person", "p_name")),)
        cases = [
            ({"person", "stockmarket"}, (), r"join path does not reach relations \['stockmarket'\]"),
            ({"shareholder", "person", "company"}, repeated, "join path is not a connected tree: edge "),
            ({"person", "shareholder", "stockmarket"}, self.PATH[:1], r"does not reach relations \['stockmarket"),
            ({"company", "person"}, outside, "join path edge company.c_name=person.p_name is not a join edge"),
        ]
        for needed, path, message in cases:
            with pytest.raises(StoreError, match=message):
                store.joined_rows(needed, path)


COMPARATORS = {">": operator.gt, "<": operator.lt, "=": operator.eq, "!=": operator.ne, "<=": operator.le, ">=": operator.ge}


def nested_loop_envs(store, start, path):
    """Reference join: the start relation's row ids in order, each env
    extended edge by edge through every row of the new relation whose join
    column equals the env's, scanned in ascending row id."""
    order = [start]
    envs = [(rid,) for rid in range(len(store.tables[start].rows))]
    for edge in path:
        old, new = (edge.src, edge.dst) if edge.src.relation in order else (edge.dst, edge.src)
        otable, ntable = store.tables[old.relation], store.tables[new.relation]
        oi, op, np_ = order.index(old.relation), otable.col_pos[old.column], ntable.col_pos[new.column]
        envs = [
            env + (rid,)
            for env in envs
            for rid, row in enumerate(ntable.rows)
            if row[np_] == otable.rows[env[oi]][op]
        ]
        order.append(new.relation)
    return tuple(order), envs


def nested_loop_counts(store, order, envs, columns, atoms=()):
    """Reference count: each projection of columns over the envs that pass
    every atom, read cell by cell, keyed in first-seen order."""

    def value(ref, env):
        table = store.tables[ref.relation]
        return table.rows[env[order.index(ref.relation)]][table.col_pos[ref.column]]

    def passes(atom, env):
        right = value(atom.right, env) if isinstance(atom.right, ColumnRef) else atom.right
        return COMPARATORS[atom.comparator](value(atom.left, env), right)

    counts = {}
    for env in envs:
        if all(passes(atom, env) for atom in atoms):
            key = tuple(value(c, env) for c in columns)
            counts[key] = counts.get(key, 0) + 1
    return counts


def check_counts(store, needed, path, columns, atoms=(), leaf=None):
    """JoinScan's counts against nested_loop_counts over the whole path, as
    mappings (a scan promises no key order), and its total against the whole
    path's joined rows."""
    start = path[0].src.relation if path else next(iter(needed))
    order, envs = nested_loop_envs(store, start, path)
    scan = JoinScan(store, needed, path, atoms, leaf)
    got = scan.counts(columns)
    assert got == nested_loop_counts(store, order, envs, columns, atoms), (path, atoms, leaf)
    assert scan.total == len(envs)
    return got


class TestJoinSteps:
    @staticmethod
    def catalogs():
        yield load_catalog(make_instance(random.Random(1)).config_text)
        yield load_catalog(make_instance(random.Random(2), two_tables=True).config_text)
        yield load_catalog((DATA_DIR / "bloomberg" / "catalog.yaml").read_text(encoding="utf-8"))  # join cycles

    def test_every_path_from_every_relation(self):
        # each join_path path, as found and shuffled, walked from each of its
        # relations: each edge once, from an endpoint already joined; from the
        # path's start, in the path's own order
        rng = random.Random(5)
        walked = 0
        for catalog in self.catalogs():
            names = [rel.name for rel in catalog.relations]
            for needed in itertools.chain.from_iterable(itertools.combinations(names, n) for n in range(1, 5)):
                path = join_path(catalog, needed, 3)
                if path is None:
                    continue
                start = catalog.check_join_path(path, needed)
                steps = join_steps(path, start)
                assert [frozenset(step) for step in steps] == [frozenset(e.columns()) for e in path]
                shuffled = rng.sample(path, len(path))
                for order in (path, shuffled):
                    for base in {start}.union(*(e.relations() for e in path)):
                        joined = {base}
                        steps = join_steps(order, base)
                        for old, new in steps:
                            assert old.relation in joined and new.relation not in joined
                            joined.add(new.relation)
                        assert Counter(map(frozenset, steps)) == Counter(frozenset(e.columns()) for e in path)
                        walked += 1
        assert walked > 50, walked


class TestStoreKernels:
    """joined_rows and JoinScan's counts against nested loops: the same
    multiset of envs (a join promises no order), and the same counts per
    key, with and without a leaf relation summed per join value."""

    def check_path(self, store, path, columns, atoms):
        start = path[0].src.relation
        expected_order, expected_envs = nested_loop_envs(store, start, path)
        rel_order, envs = store.joined_rows(expected_order, path)
        assert rel_order == expected_order
        assert Counter(envs) == Counter(expected_envs)
        for fixed in ((), atoms):
            check_counts(store, expected_order, path, columns, fixed)
        return envs

    def test_two_tables_with_a_dangling_key(self):
        inst = make_instance(random.Random(11), n_rows=60, n_teams=4, two_tables=True)
        _, store = load_instance(inst)
        store.apply_update(UpdateRecord(1, "update", "stats", {"team_id": 99}, {"sid": 0}))
        buckets = store.tables["stats"].indices["team_id"]
        # some bucket iterates out of row-id order, so the join meets its rows so
        assert any(list(ids) != sorted(ids) for ids in buckets.values())
        assert max(len(ids) for ids in buckets.values()) > 1
        team_id, t_id = ColumnRef("stats", "team_id"), ColumnRef("teams", "t_id")
        columns = [ColumnRef("teams", "league"), ColumnRef("stats", "c1"), ColumnRef("stats", "player")]
        atoms = (
            ConstraintAtom("inter_attribute", ColumnRef("stats", "m1"), ">", ColumnRef("stats", "m2")),
            ConstraintAtom("const_comparison", ColumnRef("teams", "league"), "=", "L0"),
        )
        from_stats = self.check_path(store, (JoinEdge(team_id, t_id),), columns, atoms)
        from_teams = self.check_path(store, (JoinEdge(t_id, team_id),), columns, atoms)
        assert len(from_stats) == len(from_teams) == 59  # row 0's team is gone

    def test_every_bloomberg_path_at_three_joins(self, bloomberg):
        catalog, store = bloomberg
        names = [rel.name for rel in catalog.relations]
        paths = {
            tuple(path)
            for n in range(2, len(names) + 1)
            for rels in itertools.combinations(names, n)
            if (path := join_path(catalog, rels, 3))
        }
        assert len(paths) == 18
        text_columns = [ColumnRef(rel.name, col) for rel in catalog.relations for col, t in rel.columns if t == "text"]
        for path in paths:
            rels = {r for edge in path for r in edge.relations()}
            columns = [c for c in text_columns if c.relation in rels]
            start = store.tables[path[0].src.relation]
            first = ColumnRef(path[0].src.relation, start.meta.columns[0][0])
            atoms = (ConstraintAtom("const_comparison", first, ">", 1),)
            assert self.check_path(store, path, columns, atoms)

    def test_leaf_paths_count_as_the_full_join(self, bloomberg):
        # every relation one edge of a path touches, summed per join value as
        # a leaf: at the path's start, at the far end of its first edge and
        # further in; the other relations' text columns are projected
        catalog, store = bloomberg
        names = [rel.name for rel in catalog.relations]
        paths = {
            tuple(path)
            for n in range(2, len(names) + 1)
            for rels in itertools.combinations(names, n)
            if (path := join_path(catalog, rels, 3))
        }
        text_columns = [ColumnRef(rel.name, col) for rel in catalog.relations for col, t in rel.columns if t == "text"]
        where = Counter()
        for path in paths:
            rels = {r for edge in path for r in edge.relations()}
            for leaf in sorted(rels):
                leaf_columns = [ColumnRef(leaf, col) for col, _ in store.tables[leaf].meta.columns]
                columns = [c for c in text_columns if c.relation in rels - {leaf}]
                if not leaf_edge(path, leaf_columns, columns):
                    continue
                where[leaf == path[0].src.relation, leaf in path[0].relations()] += 1
                other = next(r for r in sorted(rels) if r != leaf)
                first = ColumnRef(other, store.tables[other].meta.columns[0][0])
                for atoms in ((), (ConstraintAtom("const_comparison", first, ">", 1),)):
                    assert check_counts(store, rels, path, columns, atoms, leaf) or atoms
        assert where == {(True, True): 7, (False, True): 15, (False, False): 15}

    def test_no_columns_and_empty_tables(self, plays):
        catalog, store = plays
        high = (ConstraintAtom("const_comparison", ColumnRef("plays", "points"), ">", 30),)
        none = (ConstraintAtom("const_comparison", ColumnRef("plays", "points"), ">", 50),)
        assert check_counts(store, ["plays"], (), []) == {(): 5}
        assert check_counts(store, ["plays"], (), [], high) == {(): 2}
        assert check_counts(store, ["plays"], (), [], none) == {}
        empty = Store(catalog)
        empty.load_table("plays", "pid,team,year,league,points\n")
        assert check_counts(empty, ["plays"], (), []) == {}
        assert check_counts(empty, ["plays"], (), [ColumnRef("plays", "team")]) == {}


class TestJoinCache:
    def test_writes_leave_no_stale_joined_rows(self, bloomberg):
        catalog, store = bloomberg
        needed = {"person", "stockmarket"}
        path = tuple(join_path(catalog, needed, 3))
        assert any("shareholder" in edge.relations() for edge in path)
        names = [ColumnRef("person", "p_name")]
        writes = [
            UpdateRecord(1, "update", "stockmarket", {"s_value": Delta(5)}, {"s_companyid": 8}),
            UpdateRecord(2, "update", "shareholder", {"s_companyid": 7}, {"s_personid": 1, "s_companyid": 8}),
            UpdateRecord(3, "insert", "shareholder", {"s_personid": 2, "s_companyid": 4, "s_amount": 70}, {}),
        ]
        for u in writes:
            for leaf in (None, "stockmarket"):  # cache both joins before the write
                JoinScan(store, needed, path, leaf=leaf).counts(names)
            store.apply_update(u)
            fresh = reloaded(store)
            assert store.joined_rows(needed, path) == fresh.joined_rows(needed, path), u.seq
            for leaf in (None, "stockmarket"):
                got = JoinScan(store, needed, path, leaf=leaf).counts(names)
                assert list(got.items()) == list(JoinScan(fresh, needed, path, leaf=leaf).counts(names).items()), u.seq


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
        with pytest.raises(StoreError, match="line 2: seq 2 not increasing"):
            list(read_update_stream(text))

    def test_on_error_reports_and_skips_bad_lines(self):
        good = update_to_json(UpdateRecord(1, "update", "t", {"x": 1}, {"k": 1}))
        text = f"not json\n{good}\n{good}\n"  # line 3 repeats seq 1
        seen = []
        got = list(read_update_stream(text, lambda lineno, exc: seen.append(lineno)))
        assert got == [update_from_json(good)]
        assert seen == [1, 3]

    @pytest.mark.parametrize(
        "line, message",
        [('{"seq": ' + "9" * 5000 + "}", "Exceeds the limit"), ("[" * 100000 + "]" * 100000, "maximum recursion")],
        ids=["huge-integer", "deep-nesting"],
    )
    def test_unparsable_line_is_located(self, line, message):
        # valid JSON text that the parser still rejects, with a ValueError or a RecursionError
        with pytest.raises(StoreError, match=f"update stream line 1: {message}"):
            list(read_update_stream(line + "\n"))
        seen = []
        assert list(read_update_stream(line + "\n", lambda lineno, exc: seen.append(lineno))) == []
        assert seen == [1]


@functools.cache
def model_inputs(real_criteria: bool = False):
    """A two-table instance small enough to check every ranking after every
    step, and the queries generated from it."""
    inst = make_instance(
        random.Random(11), n_rows=30, n_entities=8, n_c1=3, n_c2=3,
        two_tables=True, n_teams=4, with_user_atom=True, value_range=60, real_criteria=real_criteria,
    )
    catalog, store = load_instance(inst)
    return inst, tuple(generate_queries(catalog, GeneratorConfig(k=2, c_num=2, j_num=1), store))


ROW = st.integers(0, 10**6)  # any stats row, by position modulo the row count


class StoreEngineModel(RuleBasedStateMachine):
    """A store and its filtered engine against an oracle: after every step
    each table's indices, one per join column, and its key index equal ones
    rebuilt from its rows, the rows equal the oracle's (self.tables), every
    entity order holds its best keys and every ranking equals the oracle's
    (oracle_rankings). An applied step's events are the oracle's diff of
    every ranking before and after it (oracle_diff), and it counts as
    changed the queries whose ranked entities changed. A rejected step
    changes nothing. At the end of each example every ranking also equals
    what its own SQL returns (oracle_sql_rankings)."""

    store: Store
    engine: Engine
    tables: dict[str, list[dict]]
    seq = 0
    expected: dict[str, list[tuple]] | None = None  # oracle_rankings of the tables as they are, once computed

    def oracle_rankings(self) -> dict[str, list[tuple]]:
        raise NotImplementedError

    def current_rankings(self) -> dict[str, list[tuple]]:
        if self.expected is None:
            self.expected = self.oracle_rankings()
        return self.expected

    def update(self, kind: str, table: str, set_values: dict, where: dict) -> UpdateRecord:
        self.seq += 1
        return UpdateRecord(self.seq, kind, table, set_values, where)

    def apply(self, *args) -> None:
        u = self.update(*args)
        before = self.current_rankings()
        events = self.engine.detect(u)
        oracle_apply(self.tables, u)
        self.expected = None
        after = self.current_rankings()
        moves = [(qid, *move) for qid, q in self.engine.queries.items() for move in oracle_diff(before[qid], after[qid], q.k)]
        moves.sort(key=lambda m: (m[0], str(m[1])))
        assert [(e.query_id, e.entity, e.from_rank, e.to_rank) for e in events] == moves, u
        assert all(e.seq == u.seq for e in events)
        changed = sum([e for e, _ in before[qid]] != [e for e, _ in after[qid]] for qid in after)
        assert self.engine.last_stats.changed == changed, u

    def reject(self, *args) -> None:
        u = self.update(*args)
        before = snapshot(self.store, self.engine)
        with pytest.raises(UpdateError, match=f"update {u.seq}|insert {u.seq}"):
            self.engine.detect(u)
        assert snapshot(self.store, self.engine) == before

    @invariant()
    def indices_match_rows(self):
        for name, table in self.store.tables.items():
            columns = table.meta.column_names()
            assert [dict(zip(columns, row)) for row in table.rows] == self.tables[name]
            rebuilt = {col: {} for col in self.store.catalog.join_columns(name)}
            for rid, row in enumerate(table.rows):
                for col, index in rebuilt.items():
                    index.setdefault(row[table.col_pos[col]], set()).add(rid)
            assert table.indices == rebuilt
            keys = {tuple(row[table.col_pos[c]] for c in table.meta.key_columns): rid for rid, row in enumerate(table.rows)}
            assert table.key_index == keys and len(keys) == len(table.rows)

    @invariant()
    def orders_hold_best_keys(self):
        assert_best_keys(self.engine)

    def assert_rankings(self, expected: dict[str, list[tuple]]) -> None:
        for q in self.engine.queries.values():
            assert list(self.engine.ranking(q.id)) == expected[q.id], q.sql()

    @invariant()
    def rankings_match_oracle(self):
        self.assert_rankings(self.current_rankings())

    def teardown(self):
        self.assert_rankings(oracle_sql_rankings(self.store, self.engine.queries.values()))


class EngineModel(StoreEngineModel):
    """The two-table instance of model_inputs against oracle_eval_query."""

    real_criteria = False

    def __init__(self):
        super().__init__()
        self.inst, queries = model_inputs(self.real_criteria)
        catalog, self.store = load_instance(self.inst)
        self.engine = Engine(catalog, self.store, queries)
        self.tables = {name: [dict(r) for r in rows] for name, rows in self.inst.tables.items()}
        self.next_sid = len(self.tables["stats"])

    def oracle_rankings(self):
        return {q.id: oracle_eval_query(self.tables, self.inst, q) for q in self.engine.queries.values()}

    def sid(self, i: int) -> int:
        rows = self.tables["stats"]
        return rows[i % len(rows)]["sid"]

    @rule(i=ROW, col=st.sampled_from(["m1", "m2"]), value=st.integers(0, 60))
    def literal_write(self, i, col, value):
        self.apply("update", "stats", {col: value}, {"sid": self.sid(i)})

    @rule(c1=st.sampled_from(["a0", "a1", "a2"]), col=st.sampled_from(["m1", "m2"]), amount=st.integers(-20, 20))
    def delta_write_to_group(self, c1, col, amount):
        self.apply("update", "stats", {col: Delta(amount)}, {"c1": c1})

    @rule(i=ROW, col=st.sampled_from(["c1", "c2"]), value=st.integers(0, 3))
    def categorical_move(self, i, col, value):
        self.apply("update", "stats", {col: f"{'a' if col == 'c1' else 'b'}{value}"}, {"sid": self.sid(i)})

    @rule(t=st.integers(0, 3), league=st.sampled_from(["L0", "L1", "L2"]))
    def league_move(self, t, league):
        self.apply("update", "teams", {"league": league}, {"t_id": t})

    @rule(i=ROW, player=st.integers(0, 8))
    def entity_move(self, i, player):
        self.apply("update", "stats", {"player": f"p{player:03d}"}, {"sid": self.sid(i)})

    @rule(i=ROW, team=st.integers(0, 4))  # team 4 joins no team row
    def team_move(self, i, team):
        self.apply("update", "stats", {"team_id": team}, {"sid": self.sid(i)})

    @rule(player=st.integers(0, 8), c=st.integers(0, 3), m=st.integers(0, 60), team=st.integers(0, 3))
    def insert(self, player, c, m, team):
        row = {"sid": self.next_sid, "player": f"p{player:03d}", "c1": f"a{c}", "c2": f"b{c}", "m1": m, "m2": 60 - m,
               "team_id": team}
        self.next_sid += 1
        self.apply("insert", "stats", row, {})

    @rule(i=ROW)
    def key_move(self, i):
        self.apply("update", "stats", {"sid": self.next_sid}, {"sid": self.sid(i)})
        self.next_sid += 1

    @rule(i=ROW, j=ROW)
    def duplicate_key_rejected(self, i, j):
        if self.sid(i) != self.sid(j):
            self.reject("update", "stats", {"sid": self.sid(j)}, {"sid": self.sid(i)})
        row = dict(self.tables["stats"][i % len(self.tables["stats"])])
        self.reject("insert", "stats", row, {})

    @rule(i=ROW)
    def wrong_typed_where_rejected(self, i):
        self.reject("update", "stats", {"m1": Delta(1)}, {"sid": str(self.sid(i))})


EngineModel.TestCase.settings = settings(max_examples=30, stateful_step_count=20, derandomize=True, deadline=None)
TestEngineModel = EngineModel.TestCase

MAX = sys.float_info.max
# sums of these are rarely exact floats: 1e16 + 1.0 + 1.0 is not 1e16 in
# floats, 0.1 + 0.2 - 0.3 is not 0.0, and two of the huge ones leave the range
REAL = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 1.0, -0.0, 1e16, -1e16, 1e308, -1e308, MAX, 5e-324]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


class RealEngineModel(EngineModel):
    """EngineModel with m1 and m2 real, also written with real literals and
    deltas, against oracle_eval_real_query. A delta that would take a value
    out of the float range must be rejected."""

    real_criteria = True

    def oracle_rankings(self):
        return {q.id: oracle_eval_real_query(self.tables, self.inst, q) for q in self.engine.queries.values()}

    @rule(i=ROW, col=st.sampled_from(["m1", "m2"]), value=REAL)
    def real_literal_write(self, i, col, value):
        self.apply("update", "stats", {col: value}, {"sid": self.sid(i)})

    @rule(c1=st.sampled_from(["a0", "a1", "a2"]), col=st.sampled_from(["m1", "m2"]), amount=REAL)
    def real_delta_write_to_group(self, c1, col, amount):
        step = ("update", "stats", {col: Delta(amount)}, {"c1": c1})
        if all(math.isfinite(row[col] + amount) for row in self.tables["stats"] if row["c1"] == c1):
            self.apply(*step)
        else:
            self.reject(*step)


RealEngineModel.TestCase.settings = settings(max_examples=10, stateful_step_count=20, derandomize=True, deadline=None)
TestRealEngineModel = RealEngineModel.TestCase


@functools.cache
def bloomberg_model_inputs():
    """The Bloomberg fixture's catalog with s_amount as a second criterion,
    and the queries generated from it at cNum 2, jNum 3."""
    text = (DATA_DIR / "bloomberg" / "catalog.yaml").read_text(encoding="utf-8")
    text = text.replace(
        "ranking_criteria:\n", "ranking_criteria:\n  - {column: shareholder.s_amount, aggregation: avg, direction: ascending}\n"
    )
    catalog, store = load_dataset("bloomberg", text)
    return text, tuple(generate_queries(catalog, GeneratorConfig(k=1, c_num=2, j_num=3), store))


HOLDING = st.integers(0, 10**6)  # any row of a table, by position modulo its row count
COUNTRY = st.integers(0, 8)  # countries 6-8, companies 9-11 and persons 4-6 exist only once inserted
COMPANY = st.integers(0, 11)
PERSON = st.integers(0, 6)


class BloombergModel(StoreEngineModel):
    """The Bloomberg fixture, whose join graph has cycles, against
    oracle_path_rankings: every join column and both criteria are written
    and every table gets inserts. A step that would give two rows one key
    must be rejected; any other is applied."""

    def __init__(self):
        super().__init__()
        text, queries = bloomberg_model_inputs()
        catalog, self.store = load_dataset("bloomberg", text)
        self.engine = Engine(catalog, self.store, queries)
        self.keys = {rel.name: rel.key_columns for rel in catalog.relations}
        self.tables = {
            name: [dict(zip(table.meta.column_names(), row)) for row in table.rows] for name, table in self.store.tables.items()
        }

    def oracle_rankings(self):
        return oracle_path_rankings(self.tables, self.engine.queries.values())

    def row(self, table: str, i: int) -> dict:
        rows = self.tables[table]
        return rows[i % len(rows)]

    def key_of(self, table: str, i: int) -> dict:
        row = self.row(table, i)
        return {c: row[c] for c in self.keys[table]}

    def step(self, kind: str, table: str, set_values: dict, where: dict) -> None:
        trial = {table: [dict(r) for r in self.tables[table]]}
        oracle_apply(trial, UpdateRecord(0, kind, table, set_values, where))
        keys = [tuple(r[c] for c in self.keys[table]) for r in trial[table]]
        if len(set(keys)) == len(keys):
            self.apply(kind, table, set_values, where)
        else:
            self.reject(kind, table, set_values, where)

    @rule(i=HOLDING, country=COUNTRY)
    def company_country_move(self, i, country):
        self.step("update", "company", {"c_countryid": country}, self.key_of("company", i))

    @rule(i=HOLDING, country=COUNTRY)
    def person_country_move(self, i, country):
        self.step("update", "person", {"p_countryid": country}, self.key_of("person", i))

    @rule(i=HOLDING, person=PERSON)
    def holding_person_move(self, i, person):
        self.step("update", "shareholder", {"s_personid": person}, self.key_of("shareholder", i))

    @rule(i=HOLDING, company=COMPANY)
    def holding_company_move(self, i, company):
        self.step("update", "shareholder", {"s_companyid": company}, self.key_of("shareholder", i))

    @rule(i=HOLDING, company=COMPANY)
    def market_company_move(self, i, company):
        self.step("update", "stockmarket", {"s_companyid": company}, self.key_of("stockmarket", i))

    @rule(i=HOLDING, value=st.integers(0, 300), delta=st.booleans())
    def value_write(self, i, value, delta):
        self.step("update", "stockmarket", {"s_value": Delta(value - 150) if delta else value}, self.key_of("stockmarket", i))

    @rule(i=HOLDING, value=st.integers(0, 300), delta=st.booleans())
    def amount_write(self, i, value, delta):
        self.step("update", "shareholder", {"s_amount": Delta(value - 150) if delta else value}, self.key_of("shareholder", i))

    @rule(
        leaf=st.sampled_from([("stockmarket", "s_value"), ("shareholder", "s_amount")]),
        i=HOLDING,
        value=st.integers(0, 300),
        delta=st.booleans(),
    )
    def company_criterion_write(self, leaf, i, value, delta):
        # every leaf row of the company of row i: where the leaf joins on the
        # company, the first row fills its join value's fan-out and the others
        # reuse it
        table, column = leaf
        where = {"s_companyid": self.row(table, i)["s_companyid"]}
        self.step("update", table, {column: Delta(value - 150) if delta else value}, where)

    @rule(company=COMPANY, name=st.sampled_from(["SAP", "Fiat", "Volvo"]), country=COUNTRY)
    def insert_company(self, company, name, country):
        self.step("insert", "company", {"c_id": company, "c_name": name, "c_countryid": country}, {})

    @rule(person=PERSON, name=st.sampled_from(["Bill Gates", "Ada Lovelace"]), country=COUNTRY)
    def insert_person(self, person, name, country):
        self.step("insert", "person", {"p_id": person, "p_name": name, "p_countryid": country}, {})

    @rule(country=COUNTRY, name=st.sampled_from(["Greece", "Norway"]))
    def insert_country(self, country, name):
        self.step("insert", "country", {"co_countryid": country, "co_name": name}, {})

    @rule(company=COMPANY, value=st.integers(0, 300))
    def insert_market(self, company, value):
        self.step("insert", "stockmarket", {"s_companyid": company, "s_value": value}, {})

    @rule(person=PERSON, company=COMPANY, amount=st.integers(0, 300))
    def insert_holding(self, person, company, amount):
        self.step("insert", "shareholder", {"s_personid": person, "s_companyid": company, "s_amount": amount}, {})


BloombergModel.TestCase.settings = settings(max_examples=40, stateful_step_count=20, derandomize=True, deadline=None)
TestBloombergModel = BloombergModel.TestCase

import hashlib
import json
import random

import pytest

from halloffame import (
    ColumnRef,
    GeneratorConfig,
    Store,
    dump_queries,
    generate_queries,
    get_combinations,
    load_catalog,
    load_queries,
)
from halloffame.generator import GenerationError
from conftest import load_instance
from oracles import (
    make_instance,
    oracle_entropy_bits,
    oracle_enumerate,
    oracle_eval_query,
    oracle_selectivity,
    query_signature,
)

THREE_CATS_CONFIG = """
relations:
  - name: players
    columns:
      - {name: pid, type: integer}
      - {name: name, type: text}
      - {name: league, type: text}
      - {name: team, type: text}
      - {name: age, type: integer}
      - {name: points, type: integer}
    key: [pid]
entity_attrs: [name]
categorical_attrs: [league, team, age]
ranking_criteria:
  - {column: points, aggregation: sum, direction: descending}
"""


class TestGetCombinations:
    def test_size_bounded_powerset_single_table(self):
        catalog = load_catalog(THREE_CATS_CONFIG)
        combos = get_combinations(catalog, GeneratorConfig(k=5, c_num=2, j_num=0))
        assert len(combos) == 7  # empty + 3 singletons + 3 pairs
        sizes = sorted(c.size for c in combos)
        assert sizes == [0, 1, 1, 1, 2, 2, 2]

    def test_cnum_zero_keeps_only_empty(self):
        catalog = load_catalog(THREE_CATS_CONFIG)
        combos = get_combinations(catalog, GeneratorConfig(k=5, c_num=0, j_num=0))
        assert len(combos) == 1 and combos[0].size == 0

    def test_join_budget_prunes_cross_relation_pairs(self, bloomberg):
        catalog, _ = bloomberg
        pair = frozenset({ColumnRef("company", "c_name"), ColumnRef("country", "co_name")})
        with_budget = get_combinations(catalog, GeneratorConfig(k=3, c_num=2, j_num=1))
        assert pair in {c.sources for c in with_budget}  # company-country is 1 edge
        without = get_combinations(catalog, GeneratorConfig(k=3, c_num=2, j_num=0))
        assert pair not in {c.sources for c in without}

    def test_combinations_processed_in_ascending_size(self):
        catalog = load_catalog(THREE_CATS_CONFIG)
        combos = get_combinations(catalog, GeneratorConfig(k=5, c_num=3, j_num=0))
        sizes = [c.size for c in combos]
        assert sizes == sorted(sizes)


class TestGenerateQueries:
    def test_k_exceeding_entity_count_yields_nothing(self):
        rng = random.Random(1)
        inst = make_instance(rng, n_rows=12, n_entities=4, n_c1=2, n_c2=2)
        catalog, store = load_instance(inst)
        queries = generate_queries(catalog, GeneratorConfig(k=5, c_num=1, j_num=0), store)
        assert queries == []

    def test_small_instance_equals_brute_force(self):
        rng = random.Random(2)
        inst = make_instance(rng, n_rows=20, n_entities=6, n_c1=2, n_c2=2)
        catalog, store = load_instance(inst)
        cfg = GeneratorConfig(k=2, c_num=1, j_num=0)
        queries = generate_queries(catalog, cfg, store)
        assert {query_signature(q) for q in queries} == oracle_enumerate(inst, 2, 1, 0)

    def test_random_instances_equal_brute_force(self):
        rng = random.Random(77)
        for trial in range(20):
            inst = make_instance(
                rng,
                n_rows=rng.randrange(20, 150),
                n_entities=rng.randrange(4, 25),
                n_c1=rng.randrange(2, 8),
                n_c2=rng.randrange(2, 6),
                two_tables=trial % 3 == 1,
                with_user_atom=trial % 4 == 2,
            )
            catalog, store = load_instance(inst)
            k = rng.randrange(2, 6)
            c_num = rng.randrange(0, 4)
            j_num = rng.randrange(0, 3)
            cfg = GeneratorConfig(k=k, c_num=c_num, j_num=j_num)
            got = {query_signature(q) for q in generate_queries(catalog, cfg, store)}
            want = oracle_enumerate(inst, k, c_num, j_num)
            assert got == want, f"trial {trial} k={k} c={c_num} j={j_num}"

    def test_every_query_reaches_k_entities(self):
        rng = random.Random(3)
        inst = make_instance(rng, n_rows=100, n_entities=15)
        catalog, store = load_instance(inst)
        queries = generate_queries(catalog, GeneratorConfig(k=4, c_num=2, j_num=0), store)
        assert queries
        for q in queries:
            assert len(oracle_eval_query(inst.tables, inst, q)) == q.k

    def test_counts_monotone_in_cnum_and_k(self):
        rng = random.Random(8)
        inst = make_instance(rng, n_rows=200, n_entities=25)
        catalog, store = load_instance(inst)
        counts = [
            len(generate_queries(catalog, GeneratorConfig(k=3, c_num=c, j_num=0), store))
            for c in range(0, 4)
        ]
        assert counts == sorted(counts)
        by_k = [
            len(generate_queries(catalog, GeneratorConfig(k=k, c_num=2, j_num=0), store))
            for k in (2, 5, 10, 25)
        ]
        assert by_k == sorted(by_k, reverse=True)

    def test_pruned_at_most_unpruned(self):
        rng = random.Random(13)
        inst = make_instance(rng, n_rows=150, n_entities=20, two_tables=True)
        catalog, store = load_instance(inst)
        for c_num in range(0, 4):
            cfg = GeneratorConfig(k=3, c_num=c_num, j_num=2)
            # every instance with at least one entity, queried or not
            assert len(generate_queries(catalog, cfg, store)) <= len(oracle_enumerate(inst, 1, c_num, 2))

    def test_ids_stable_across_runs(self):
        rng = random.Random(21)
        inst = make_instance(rng, n_rows=60)
        catalog, store = load_instance(inst)
        cfg = GeneratorConfig(k=3, c_num=2, j_num=0)
        first = generate_queries(catalog, cfg, store)
        catalog2, store2 = load_instance(inst)
        second = generate_queries(catalog2, cfg, store2)
        assert [q.id for q in first] == [q.id for q in second]
        assert len({q.id for q in first}) == len(first)

    def test_allowlist_restricts_relation_sets(self):
        rng = random.Random(34)
        inst = make_instance(rng, n_rows=80, two_tables=True)
        restricted_cfg = inst.config_text + "join_allowlist:\n  - [stats]\n"
        catalog = load_catalog(restricted_cfg)
        store = Store(catalog)
        for name, text in inst.csvs.items():
            store.load_table(name, text)
        queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=2, j_num=2), store)
        assert queries
        assert all(q.relations() == frozenset({"stats"}) for q in queries)


class TestStaticScores:
    def test_fields_match_recomputation(self):
        rng = random.Random(41)
        one_table = make_instance(rng, n_rows=90)
        joined = make_instance(rng, n_rows=90, two_tables=True, with_user_atom=True)
        for inst, j_num in ((one_table, 0), (joined, 1)):
            catalog, store = load_instance(inst)
            queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=2, j_num=j_num), store)
            assert queries
            for q in queries:
                assert q.selectivity == pytest.approx(oracle_selectivity(inst.tables, inst, q))
                assert q.entropy_bits == pytest.approx(oracle_entropy_bits(inst.tables, inst, q))
                assert 0.0 <= q.selectivity <= 1.0
                assert q.entropy_bits >= 0.0

    def test_true_predicate_scores(self):
        rng = random.Random(42)
        inst = make_instance(rng, n_rows=40)
        catalog, store = load_instance(inst)
        queries = generate_queries(catalog, GeneratorConfig(k=2, c_num=0, j_num=0), store)
        for q in queries:
            assert q.predicate == ()
            assert q.selectivity == 1.0
            assert q.entropy_bits == 0.0  # entropy over zero columns

    def test_entropy_shared_across_bindings(self):
        rng = random.Random(43)
        inst = make_instance(rng, n_rows=120, n_c1=4)
        catalog, store = load_instance(inst)
        queries = generate_queries(catalog, GeneratorConfig(k=2, c_num=1, j_num=0), store)
        c1 = ColumnRef("stats", "c1")
        c1_queries = [q for q in queries if q.predicate_columns() == (c1,)]
        assert len({q.entropy_bits for q in c1_queries}) == 1
        assert len({q.selectivity for q in c1_queries}) > 1


class TestPinnedCatalogs:
    """Query catalogs pinned bit for bit: the score tests compare with
    pytest.approx, so they cannot see a change in a float's last bit, say
    from summing an entropy in another order."""

    @staticmethod
    def digest(queries) -> str:
        return hashlib.sha256(dump_queries(queries).encode("utf-8")).hexdigest()

    @pytest.mark.parametrize(
        "k, c_num, j_num, digest",
        [
            (1, 1, 1, "5cbe62479ebf1a5ab4b6ffc68a358c95dbf60adc6c2fe8f98120740cf7be5ef2"),
            (2, 2, 2, "324e5c2393a82a305e69e436dfe7df5b5919d35ed0634c33f3f19a513ba83d52"),
            (2, 3, 1, "51e466e7469118c9165e6710ce5538b2e55dd8e7ac9d1211600440a532a0691a"),
            (3, 3, 3, "06fce4bf04dee0e86c74b95d988f88fec2c690cf1d5545b1486ae7ac56b2f94c"),
        ],
    )
    def test_bloomberg(self, bloomberg, k, c_num, j_num, digest):
        catalog, store = bloomberg
        assert self.digest(generate_queries(catalog, GeneratorConfig(k=k, c_num=c_num, j_num=j_num), store)) == digest

    def test_user_atom(self):
        # queries with the fixed user atom take their entropy from a separate scan
        catalog, store = load_instance(make_instance(random.Random(3), two_tables=True, with_user_atom=True))
        queries = generate_queries(catalog, GeneratorConfig(k=2, c_num=2, j_num=1), store)
        assert (len(queries), sum(bool(q.fixed_atoms()) for q in queries)) == (140, 26)
        assert self.digest(queries) == "d7c3f48d0d43e9256b9a664989263af3e6c158cbb5dadafa9a8e8b14bf001c72"


class TestPersistence:
    def test_round_trip(self, bloomberg):
        catalog, store = bloomberg
        queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=2, j_num=3), store)
        assert queries
        text = dump_queries(queries)
        loaded = load_queries(text, catalog)
        assert loaded == queries

    def test_round_trip_with_user_atom(self):
        catalog, store = load_instance(make_instance(random.Random(3), two_tables=True, with_user_atom=True))
        queries = generate_queries(catalog, GeneratorConfig(k=2, c_num=2, j_num=1), store)
        assert any(a.kind == "inter_attribute" for q in queries for a in q.predicate)
        assert load_queries(dump_queries(queries), catalog) == queries

    def test_dump_contains_sql_rendering(self, bloomberg):
        catalog, store = bloomberg
        queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=0, j_num=3), store)
        text = dump_queries(queries)
        assert "SELECT" in text and "GROUP BY" in text and "LIMIT 3" in text

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda doc: [doc], "a query must be a JSON object"),
            (lambda doc: {**doc, "predicate": ["co_name = 'USA'"]}, "a predicate atom must be an object"),
            (lambda doc: {**doc, "entity": "nosuch.c_name"}, "unknown relation 'nosuch'"),
            (lambda doc: {**doc, "k": "3"}, "k must be an integer >= 1"),
            (lambda doc: {**doc, "k": 0}, "k must be an integer >= 1"),
            (lambda doc: {**doc, "predicate": [{**doc["predicate"][0], "comparator": "~"}]}, "unknown comparator"),
            (lambda doc: {**doc, "criterion": {**doc["criterion"], "aggregation": "max"}}, "unknown aggregation"),
            (lambda doc: {**doc, "predicate": [{**doc["predicate"][0], "right": 3}]}, "does not match the type"),
            (lambda doc: {**doc, "selectivity": "0.5"}, "selectivity must be a number"),
            (lambda doc: {**doc, "id": 7}, "id must be a string"),
            (lambda doc: doc, "duplicate query id"),
        ],
        ids=[
            "not-object", "atom-not-object", "unknown-relation", "k-text", "k-zero",
            "comparator", "aggregation", "constant-type", "selectivity-text", "id-number", "dup-id",
        ],
    )
    def test_bad_line_is_located(self, bloomberg, mutate, message):
        catalog, store = bloomberg
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=1, j_num=3), store)
        first = next(q for q in queries if q.predicate)
        line = dump_queries([first])
        text = line + json.dumps(mutate(json.loads(line))) + "\n"
        with pytest.raises(GenerationError, match=f"query catalog line 2: .*{message}"):
            load_queries(text, catalog)

    @pytest.mark.parametrize(
        "cut, message",
        [
            (lambda path: path[:1], r"join path does not reach relations \['stockmarket'\]"),
            (lambda path: path[:1] + path[:1], "join path is not a connected tree"),
            (
                lambda path: [{"from": "company.c_name", "to": "person.p_name"}] + path,
                "join path edge company.c_name=person.p_name is not a join edge of the catalog",
            ),
        ],
        ids=["cut-to-first-edge", "repeated-edge", "edge-outside-catalog"],
    )
    def test_bad_join_path_is_located(self, bloomberg, cut, message):
        # a 2-edge path cut to its first edge used to load and then fail at
        # engine start-up with an unlocated store error
        catalog, store = bloomberg
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=1, j_num=3), store)
        two_edges = next(
            q for q in queries
            if len(q.join_path) == 2 and "stockmarket" in q.relations() - q.join_path[0].relations()
        )
        doc = json.loads(dump_queries([two_edges]))
        doc["join_path"] = cut(doc["join_path"])
        with pytest.raises(GenerationError, match=f"query catalog line 1: {message}"):
            load_queries(json.dumps(doc) + "\n", catalog)

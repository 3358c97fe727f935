import csv
import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from halloffame import (
    ColumnRef,
    ConstraintAtom,
    GeneratorConfig,
    HofQuery,
    JoinEdge,
    RankingCriterion,
    Store,
    UpdateRecord,
    dump_queries,
    generate_queries,
    get_combinations,
    load_catalog,
    load_queries,
)
from halloffame.generator import GenerationError, _atom_text, _id_head, query_identity
from conftest import DATA_DIR, load_dataset, load_instance
from oracles import (
    fixed_atoms,
    make_instance,
    oracle_entropy_bits,
    oracle_enumerate,
    oracle_eval_query,
    oracle_path_scores,
    oracle_query_id,
    oracle_selectivity,
    oracle_sql,
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


SIGNED_ZERO_CONFIG = """
relations:
  - name: a
    columns:
      - {name: a_id, type: integer}
      - {name: a_name, type: text}
      - {name: x, type: real}
      - {name: m, type: integer}
    key: [a_id]
  - name: b
    columns:
      - {name: b_id, type: integer}
      - {name: b_name, type: text}
      - {name: a_fk, type: integer}
    key: [b_id]
entity_attrs: [a.a_name, b.b_name]
categorical_attrs: [a.x]
ranking_criteria:
  - {column: a.m, aggregation: sum, direction: descending}
join_edges:
  - {from: b.a_fk, to: a.a_id}
"""


# Eleven holdings where the fixture has six, in an order of their own:
# Microsoft, SAP and BMW have 4, 2 and 1 of them, and the full join of
# shareholder->company first meets the companies in another order than the
# company table lists them.
HOLDINGS = """\
s_personid,s_companyid,s_amount
1,8,40
0,3,400
2,0,10
3,3,100
0,5,50
3,5,60
1,3,70
2,1,20
1,0,30
3,8,90
2,3,80
"""


def load_amounts(holdings=None):
    """The Bloomberg fixture with s_amount as a second criterion, its
    families over shareholder->company starting their join at the leaf
    relation shareholder; with holdings as the shareholder table if given."""
    text = (DATA_DIR / "bloomberg" / "catalog.yaml").read_text(encoding="utf-8")
    text = text.replace(
        "ranking_criteria:\n", "ranking_criteria:\n  - {column: shareholder.s_amount, aggregation: avg, direction: ascending}\n"
    )
    return load_dataset("bloomberg", text, {"shareholder": holdings} if holdings else None)


RELATIONS = ["stats", "teams", "länder", "ligen"]
COLUMN_NAMES = ["c1", "m1", "größe"]
TEXTS = st.one_of(st.text(), st.sampled_from(["Zürich", "O'Brien", 'say "hi"', "back\\slash", "'\"\\", "日本", "\x00\n\t"]))
NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def hof_queries(draw) -> HofQuery:
    """Any query the renderers may meet: its join path obeys the join-path
    rule (each edge adds one relation to those before it), as generation and
    the query catalog's loader both check; without a join path every column
    is in one relation."""
    order = draw(st.permutations(RELATIONS))
    path = []
    for i in range(1, draw(st.integers(1, len(RELATIONS)))):
        ends = [order[draw(st.integers(0, i - 1))], order[i]]  # a relation joined before, the new one
        if draw(st.booleans()):
            ends.reverse()
        path.append(JoinEdge(ColumnRef(ends[0], "id"), ColumnRef(ends[1], "fk")))
    path = tuple(path)
    relations = sorted({r for e in path for r in (e.src.relation, e.dst.relation)}) or [draw(st.sampled_from(RELATIONS))]

    def column():
        return ColumnRef(draw(st.sampled_from(relations)), draw(st.sampled_from(COLUMN_NAMES)))

    atoms = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["binding", "const_comparison", "inter_attribute"]))
        comparator = "=" if kind == "binding" else draw(st.sampled_from(["<", ">", "=", "!=", "<=", ">="]))
        right = column() if kind == "inter_attribute" else draw(st.one_of(TEXTS, NUMBERS))
        atoms.append(ConstraintAtom(kind, column(), comparator, right))
    criterion = RankingCriterion(column(), draw(st.sampled_from(["sum", "avg"])), draw(st.sampled_from(["ascending", "descending"])))
    predicate = tuple(sorted(atoms, key=ConstraintAtom.sort_key))
    return HofQuery("", column(), predicate, criterion, path, draw(st.integers(1, 10**6)), 0.5, 0.0)


class TestRendering:
    """Query ids and SQL, joined from parts, against the oracles' whole
    documents and f-string."""

    @settings(max_examples=400, deadline=None)
    @given(hof_queries())
    def test_parts_equal_the_oracles(self, q):
        head = _id_head(q.entity_attr, q.criterion, q.join_path, q.k)
        assert query_identity(head, ", ".join(map(_atom_text, q.predicate))) == oracle_query_id(q)
        assert q.sql() == oracle_sql(q)

    def test_generated_queries_equal_the_oracles(self):
        catalog, store = load_instance(make_instance(random.Random(5), two_tables=True, with_user_atom=True))
        generated = generate_queries(catalog, GeneratorConfig(k=2, c_num=3, j_num=1), store)
        amounts_catalog, amounts_store = load_amounts(HOLDINGS)
        amounts = generate_queries(amounts_catalog, GeneratorConfig(k=1, c_num=2, j_num=3), amounts_store)
        assert any(a.kind == "inter_attribute" for q in generated for a in q.predicate)
        assert len({q.criterion.column for q in amounts}) == 2
        for cat, queries in ((catalog, generated), (amounts_catalog, amounts)):
            # generation sets each SQL text; a loaded query renders its own on first use
            loaded = load_queries(dump_queries(queries), cat)
            for q, again in zip(queries, loaded):
                assert q.id == oracle_query_id(q)
                assert q.sql() == again.sql() == oracle_sql(q), q.id


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

    def test_signed_zero_binds_one_zero(self):
        # the store holds -0.0 as 0.0, so the one instance of both rows binds
        # 0.0 for each entity, although a's rows meet -0.0 first and b's join
        # reaches a's 0.0 row first
        catalog = load_catalog(SIGNED_ZERO_CONFIG)
        store = Store(catalog)
        store.load_table("a", "a_id,a_name,x,m\n0,n0,-0.0,1\n1,n1,0.0,2\n")
        store.load_table("b", "b_id,b_name,a_fk\n0,q0,1\n1,q1,0\n")
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=1, j_num=1), store)
        bound = [(str(q.entity_attr), repr(q.predicate[0].right)) for q in queries if q.predicate]
        assert bound == [("a.a_name", "0.0"), ("b.b_name", "0.0")]

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

    @pytest.mark.parametrize("holdings", [None, HOLDINGS], ids=["fixture", "holdings"])
    def test_bloomberg_fields_follow_each_path(self, holdings):
        # the queries whose criterion relation is a leaf are counted through
        # a join without it; the oracle joins each query's whole path
        catalog, store = load_amounts(holdings)
        tables = {name: [dict(zip(t.meta.column_names(), row)) for row in t.rows] for name, t in store.tables.items()}
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=2, j_num=3), store)
        assert len(queries) == (88 if holdings is None else 93)
        for q in queries:
            selectivity, entropy_bits = oracle_path_scores(tables, q)
            assert q.selectivity == pytest.approx(selectivity), q.id
            assert q.entropy_bits == pytest.approx(entropy_bits), q.id

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
    from summing an entropy another way."""

    @staticmethod
    def digest(queries) -> str:
        return hashlib.sha256(dump_queries(queries).encode("utf-8")).hexdigest()

    @pytest.mark.parametrize(
        "k, c_num, j_num, digest",
        [
            (1, 1, 1, "66251fcd040522c9e7c95611d8ef7f8e0a762e5965161a11195d97073afa8740"),
            (2, 2, 2, "a2607a4e6f1aa711582c23757b74f16c0bc44415db56c6275ddfb0b50b753453"),
            (2, 3, 1, "37c327c1c5fcfa2022a338ac0283cad84fbec7c3eae03641d7d8ff652ce502a0"),
            (3, 3, 3, "cfaedc63b9264ead87c26357ed00fe35ac4f5a0e3d75f87fc7c4055571fdb770"),
        ],
    )
    def test_bloomberg(self, bloomberg, k, c_num, j_num, digest):
        catalog, store = bloomberg
        assert self.digest(generate_queries(catalog, GeneratorConfig(k=k, c_num=c_num, j_num=j_num), store)) == digest

    def test_user_atom(self):
        # queries with the fixed user atom take their entropy from a separate scan
        catalog, store = load_instance(make_instance(random.Random(3), two_tables=True, with_user_atom=True))
        queries = generate_queries(catalog, GeneratorConfig(k=2, c_num=2, j_num=1), store)
        assert (len(queries), sum(bool(fixed_atoms(q)) for q in queries)) == (140, 26)
        assert self.digest(queries) == "67d4b1ee629caa9e79c771ac584fbcf81f37ca655071b670fdf715ebdda9f3e3"

    def test_leaf_at_start(self):
        # the full join of shareholder->company starts at the leaf relation a
        # scan sums per join value
        catalog, store = load_amounts(HOLDINGS)
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=2, j_num=3), store)
        at_start = [q for q in queries if q.join_path and q.criterion.column.relation == q.join_path[0].src.relation == "shareholder"]
        assert (len(queries), len(at_start)) == (93, 12)
        assert self.digest(queries) == "51bd8202ba77464cfdfa47cc063b56c9024252b9908f0c8c33eb530416d0a688"


def two_zeros_and_a_user_atom():
    """A two-table instance with a user atom, whose real categorical column
    stats.c2 holds both 0.0 and -0.0."""
    inst = make_instance(random.Random(3), two_tables=True, with_user_atom=True, real_c2=True)
    assert ",0.0," in inst.csvs["stats"] and ",-0.0," in inst.csvs["stats"]
    return load_catalog(inst.config_text), inst.csvs, GeneratorConfig(k=2, c_num=2, j_num=1)


def leaf_at_start():
    """The Bloomberg fixture with s_amount and HOLDINGS, whose families over
    shareholder->company sum the relation their join starts at."""
    csvs = {path.stem: path.read_text(encoding="utf-8") for path in (DATA_DIR / "bloomberg").glob("*.csv")}
    catalog, _ = load_amounts(HOLDINGS)
    return catalog, {**csvs, "shareholder": HOLDINGS}, GeneratorConfig(k=1, c_num=2, j_num=3)


class TestRowOrder:
    """A query catalog is a function of the relations: shuffling the data
    rows of every CSV, or inserting the shuffled rows one at a time into
    empty tables, gives the same bytes."""

    @staticmethod
    def stores(catalog, csvs):
        """Per seeded shuffle of every CSV's data rows, a store that loads
        them and one that inserts them."""
        parse = {"text": str, "integer": int, "real": float}
        for seed in range(5):
            rng = random.Random(seed)
            loaded, inserted = Store(catalog), Store(catalog)
            seq = itertools.count(1)
            for name, text in csvs.items():
                header, *rows = text.splitlines()
                rng.shuffle(rows)
                loaded.load_table(name, "\n".join([header, *rows]) + "\n")
                inserted.load_table(name, header + "\n")
                types = dict(catalog.relation(name).columns)
                for row in csv.DictReader([header, *rows]):
                    values = {col: parse[types[col]](cell) for col, cell in row.items()}
                    inserted.apply_update(UpdateRecord(next(seq), "insert", name, values, {}))
            yield loaded
            yield inserted

    @pytest.mark.parametrize("inputs", [two_zeros_and_a_user_atom, leaf_at_start])
    def test_catalog_ignores_row_order(self, inputs):
        catalog, csvs, cfg = inputs()
        catalogs = {dump_queries(generate_queries(catalog, cfg, store)) for store in self.stores(catalog, csvs)}
        assert len(catalogs) == 1


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
            (lambda doc: {**doc, "k": "3"}, "k must be a finite integer >= 1"),
            (lambda doc: {**doc, "k": 0}, "k must be a finite integer >= 1"),
            (lambda doc: {**doc, "predicate": [{**doc["predicate"][0], "comparator": "~"}]}, "unknown comparator"),
            (lambda doc: {**doc, "criterion": {**doc["criterion"], "aggregation": "max"}}, "unknown aggregation"),
            (lambda doc: {**doc, "predicate": [{**doc["predicate"][0], "right": 3}]}, "does not match the type"),
            (lambda doc: {**doc, "selectivity": "0.5"}, "selectivity must be a number"),
            (lambda doc: {**doc, "selectivity": math.nan}, "selectivity must be a number in"),
            (lambda doc: {**doc, "selectivity": math.inf}, "selectivity must be a number in"),
            (lambda doc: {**doc, "selectivity": 0.0}, "selectivity must be a number in"),
            (lambda doc: {**doc, "selectivity": 1.5}, "selectivity must be a number in"),
            (lambda doc: {**doc, "entropy_bits": math.nan}, "entropy_bits must be a finite number >= 0"),
            (lambda doc: {**doc, "entropy_bits": math.inf}, "entropy_bits must be a finite number >= 0"),
            (lambda doc: {**doc, "entropy_bits": -0.5}, "entropy_bits must be a finite number >= 0"),
            (lambda doc: {**doc, "id": 7}, "id must be a string"),
            (lambda doc: doc, "duplicate query id"),
            (
                lambda doc: {**doc, "criterion": {**doc["criterion"], "column": "company.c_name"}},
                r"ranking criterion on non-numeric column company.c_name \(text\)",
            ),
            (
                lambda doc: {**doc, "predicate": [{**doc["predicate"][0], "comparator": "<"}]},
                "a binding atom compares with '=', got '<'",
            ),
            (
                lambda doc: {
                    **doc,
                    "predicate": [{"kind": "const_comparison", "left": "stockmarket.s_value", "comparator": "!=",
                                   "right": math.nan}],
                },
                "constant nan compared with stockmarket.s_value is not finite",
            ),
            (lambda doc: "[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),  # the line itself
        ],
        ids=[
            "not-object", "atom-not-object", "unknown-relation", "k-text", "k-zero",
            "comparator", "aggregation", "constant-type", "selectivity-text",
            "selectivity-nan", "selectivity-inf", "selectivity-zero", "selectivity-above-one",
            "entropy-nan", "entropy-inf", "entropy-negative", "id-number", "dup-id",
            "text-criterion", "binding-comparator", "nan-constant", "deep-nesting",
        ],
    )
    def test_bad_line_is_located(self, bloomberg, mutate, message):
        catalog, store = bloomberg
        queries = generate_queries(catalog, GeneratorConfig(k=1, c_num=1, j_num=3), store)
        first = next(q for q in queries if q.predicate)
        line = dump_queries([first])
        bad = mutate(json.loads(line))
        text = line + (bad if isinstance(bad, str) else json.dumps(bad)) + "\n"
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

import copy
import importlib.resources
import json
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st
import jsonschema
import pytest
import yaml

from oracles import make_instance
from halloffame import (
    CatalogError,
    ColumnRef,
    ConfigParseError,
    JoinEdge,
    SchemaCatalog,
    load_catalog,
    join_path,
)
from halloffame.catalog import _parse_yaml, _schema_violations

BASKETBALL_CONFIG = """
relations:
  - name: season_stats
    columns:
      - {name: player, type: text}
      - {name: team_id, type: integer}
      - {name: year, type: integer}
      - {name: age, type: integer}
      - {name: turnovers, type: integer}
      - {name: rebounds, type: integer}
      - {name: assists, type: integer}
      - {name: fg_pct, type: real}
      - {name: ppg, type: real}
      - {name: points, type: integer}
      - {name: three_pg, type: real}
      - {name: ft_made, type: integer}
      - {name: steals, type: integer}
      - {name: oreb, type: integer}
      - {name: dreb, type: integer}
    key: [player, team_id, year]
  - name: teams
    columns:
      - {name: t_id, type: integer}
      - {name: t_name, type: text}
      - {name: league, type: text}
    key: [t_id]
entity_attrs: [player, t_name]
categorical_attrs: [league, t_name, age]
ranking_criteria:
  - {column: turnovers, aggregation: sum, direction: ascending}
  - {column: rebounds, aggregation: sum, direction: descending}
  - {column: assists, aggregation: sum, direction: descending}
  - {column: fg_pct, aggregation: avg, direction: both}
  - {column: ppg, aggregation: avg, direction: descending}
  - {column: points, aggregation: sum, direction: descending}
  - {column: three_pg, aggregation: sum, direction: descending}
  - {column: ft_made, aggregation: sum, direction: descending}
user_constraints:
  - {kind: inter_attribute, left: steals, comparator: ">", right: turnovers}
  - {kind: inter_attribute, left: oreb, comparator: ">", right: dreb}
join_edges:
  - {from: season_stats.team_id, to: teams.t_id}
"""


def serialize_catalog(catalog: SchemaCatalog) -> str:
    """Render a catalog back to config text; load_catalog(serialize(c)) == c.

    "both" criteria were expanded at load time, so the serialized form lists
    the concrete criteria.
    """
    doc = {
        "relations": [
            {
                "name": rel.name,
                "columns": [{"name": c, "type": t} for c, t in rel.columns],
                **({"key": list(rel.key_columns)} if rel.key_columns else {}),
            }
            for rel in catalog.relations
        ],
        "entity_attrs": [str(c) for c in catalog.entity_columns()],
        "categorical_attrs": [str(c) for c in catalog.categorical_columns()],
        "ranking_criteria": [
            {"column": str(r.column), "aggregation": r.aggregation, "direction": r.direction}
            for r in catalog.ranking_criteria
        ],
        "user_constraints": [
            {
                "kind": a.kind,
                "left": str(a.left),
                "comparator": a.comparator,
                "right": str(a.right) if isinstance(a.right, ColumnRef) else a.right,
            }
            for a in catalog.user_constraints
        ],
        "join_edges": [{"from": str(e.src), "to": str(e.dst)} for e in catalog.join_edges],
    }
    if catalog.join_allowlist is not None:
        doc["join_allowlist"] = [sorted(group) for group in catalog.join_allowlist]
    return yaml.safe_dump(doc, sort_keys=False, allow_unicode=True)


ONE_RELATION = "relations:\n  - {name: a, columns: [{name: x, type: integer}]}\n"

# configs that break one rule, with the located message load_catalog names
PINNED_VIOLATIONS = [
    (
        ONE_RELATION + "user_constraints:\n  - {kind: const_comparison, left: x, comparator: '>', right: true}\n",
        "user_constraints/0/right: True is not of type 'string', 'number'",
    ),
    ("relations:\n  - {name: '', columns: [{name: x, type: integer}]}\n", "relations/0/name: '' should be non-empty"),
    ("relations:\n  - {name: a, columns: []}\n", "relations/0/columns: [] should be non-empty"),
    (ONE_RELATION + "join_allowlist: [[]]\n", "join_allowlist/0: [] should be non-empty"),
    (
        ONE_RELATION + "extra1: 1\nextra0: 2\n",
        "<top>: Additional properties are not allowed ('extra0', 'extra1' were unexpected)",
    ),
]

# a valid config that sets every property the packaged schema declares, so a
# walk over it meets every subschema
FULL_CONFIG_DOC = {
    "relations": [
        {"name": "a", "columns": [{"name": "x", "type": "integer"}, {"name": "y", "type": "real"}], "key": ["x"]},
        {"name": "b", "columns": [{"name": "z", "type": "text"}, {"name": "w", "type": "integer"}]},
    ],
    "entity_attrs": ["b.z"],
    "categorical_attrs": ["a.x"],
    "ranking_criteria": [{"column": "y", "aggregation": "sum", "direction": "both"}],
    "user_constraints": [{"kind": "const_comparison", "left": "y", "comparator": ">", "right": 1.5}],
    "join_edges": [{"from": "a.x", "to": "b.w"}],
    "join_allowlist": [["a", "b"]],
}

JUNK = [None, True, 0, 1.5, "", [], {}, "nosuch", "sum"]


def packaged_schema() -> dict:
    return json.loads(importlib.resources.files("halloffame").joinpath("catalog_schema.json").read_text("utf-8"))


def located(error: jsonschema.ValidationError) -> str:
    path = "/".join(str(p) for p in error.absolute_path) or "<top>"
    return f"config schema violation at {path}: {error.message}"


def nodes(value, path=()):
    """Every (path, value) of a parsed config, the root first."""
    yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def property_names(schema: dict) -> set:
    names = set(schema.get("properties", {}))
    for sub in [*schema.get("properties", {}).values(), *([schema["items"]] if "items" in schema else [])]:
        names |= property_names(sub)
    return names


class TestLoadCatalog:
    def test_bloomberg_annotation(self, bloomberg):
        catalog, _ = bloomberg
        assert len(catalog.entity_columns()) == 3
        assert len(catalog.categorical_columns()) == 2
        assert len(catalog.ranking_criteria) == 1

    def test_empty_relations_is_an_error(self):
        with pytest.raises(CatalogError, match="no relations"):
            load_catalog("relations: []\n")

    def test_both_direction_expands(self):
        catalog = load_catalog(BASKETBALL_CONFIG)
        assert len(catalog.ranking_criteria) == 9
        fg = [c for c in catalog.ranking_criteria if c.column.column == "fg_pct"]
        assert sorted(c.direction for c in fg) == ["ascending", "descending"]

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigParseError, match=r"line \d+"):
            load_catalog("relations:\n  - name: a\n   bad_indent: x\n")

    def test_unknown_column_in_role(self):
        bad = BASKETBALL_CONFIG.replace("entity_attrs: [player, t_name]", "entity_attrs: [nosuch]")
        with pytest.raises(CatalogError, match="nosuch"):
            load_catalog(bad)

    def test_ambiguous_bare_column(self):
        config = """
relations:
  - name: a
    columns: [{name: x, type: integer}]
  - name: b
    columns: [{name: x, type: integer}]
entity_attrs: [x]
"""
        with pytest.raises(CatalogError, match="ambiguous"):
            load_catalog(config)

    def test_criterion_on_text_column_rejected(self):
        bad = BASKETBALL_CONFIG + "\n"
        bad = bad.replace(
            "- {column: turnovers, aggregation: sum, direction: ascending}",
            "- {column: t_name, aggregation: sum, direction: ascending}",
        )
        with pytest.raises(CatalogError, match="non-numeric"):
            load_catalog(bad)

    def test_binding_user_constraint_rejected(self):
        bad = BASKETBALL_CONFIG.replace(
            "{kind: inter_attribute, left: steals, comparator: \">\", right: turnovers}",
            "{kind: binding, left: league, comparator: \"=\", right: NBA}",
        )
        with pytest.raises(CatalogError):
            load_catalog(bad)

    def test_constant_type_must_match_column(self):
        bad = BASKETBALL_CONFIG.replace(
            "{kind: inter_attribute, left: steals, comparator: \">\", right: turnovers}",
            "{kind: const_comparison, left: age, comparator: \">\", right: young}",
        )
        with pytest.raises(CatalogError, match="does not match"):
            load_catalog(bad)

    @pytest.mark.parametrize("value, shown", [(".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf")])
    def test_non_finite_constant_rejected(self, value, shown):
        # the engine and SQL disagree on a NaN: v != nan keeps every row in
        # Python and none in SQLite
        atom = f"{{kind: const_comparison, left: x, comparator: '!=', right: {value}}}"
        config = ONE_RELATION + f"user_constraints:\n  - {atom}\n"
        with pytest.raises(CatalogError) as info:
            load_catalog(config)
        assert str(info.value) == f"user_constraints[0]: constant {shown} compared with a.x is not finite"

    def test_unicode_comparators_normalized(self):
        config = BASKETBALL_CONFIG.replace(
            "{kind: inter_attribute, left: steals, comparator: \">\", right: turnovers}",
            "{kind: inter_attribute, left: steals, comparator: \"≥\", right: turnovers}",
        )
        catalog = load_catalog(config)
        assert any(a.comparator == ">=" for a in catalog.user_constraints)

    def test_packaged_schema_passes_its_metaschema(self):
        # load_catalog trusts the packaged schema and does not re-check it
        schema = packaged_schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize(
        "config",
        [
            "relations: 3\n",
            "relations:\n  - name: a\n",
            "relations:\n  - {name: a, columns: [{name: x, type: blob}]}\n",
            "relations:\n  - {name: a, columns: [{name: x, type: integer}]}\nranking_criteria: [{column: x}]\n",
            "relations:\n  - {name: a, columns: [{name: x, type: integer}]}\nsurprise: 1\n",
            # a quoted mapping keeps its keys in their own order, as repr does
            "relations:\n  - {name: a, columns: {x: 1, b: [2.5, 'c', null, true]}}\n",
            *(config for config, _ in PINNED_VIOLATIONS),
        ],
    )
    def test_schema_violation_names_best_match(self, config):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(yaml.safe_load(config), packaged_schema())
        with pytest.raises(CatalogError) as got:
            load_catalog(config)
        assert str(got.value) == located(expected.value)

    @pytest.mark.parametrize(
        "config, message",
        [
            *PINNED_VIOLATIONS,
            # several violations: the least deep is named, here over
            # relations/0/columns/0/type two levels down
            (
                "relations:\n  - {name: a, columns: [{name: x, type: blob}]}\nsurprise: 1\n",
                "<top>: Additional properties are not allowed ('surprise' was unexpected)",
            ),
            # and among equally deep ones the first walked: the schema lists
            # relations before join_allowlist
            ("join_allowlist: [[]]\nrelations:\n  - {name: a}\n", "relations/0: 'columns' is a required property"),
        ],
    )
    def test_schema_violation_texts(self, config, message):
        with pytest.raises(CatalogError) as got:
            load_catalog(config)
        assert str(got.value) == f"config schema violation at {message}"

    @pytest.mark.parametrize(
        "value, schema",
        [
            (5, {"type": "integer", "maximum": 3}),
            ({"a": "s"}, {"type": "object", "properties": {"a": {"pattern": "^t"}}}),
            ({}, {"additionalProperties": True}),
        ],
    )
    def test_unknown_schema_keyword_raises(self, value, schema):
        with pytest.raises(NotImplementedError, match="is not interpreted"):
            list(_schema_violations(value, schema))

    def test_full_config_meets_every_subschema(self):
        load_catalog(yaml.safe_dump(FULL_CONFIG_DOC))
        keys = {key for _, node in nodes(FULL_CONFIG_DOC) if isinstance(node, dict) for key in node}
        assert keys == property_names(packaged_schema())

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_schema_check_agrees_with_jsonschema(self, data):
        # mutate a valid config: replace a value with junk, delete a key or an
        # item, or add a key or an item
        doc = copy.deepcopy(FULL_CONFIG_DOC)
        for _ in range(data.draw(st.integers(1, 4))):
            path, node = data.draw(st.sampled_from(list(nodes(doc))))
            op = data.draw(st.sampled_from(["replace", "delete", "add"] if path else ["add"]))
            junk = copy.deepcopy(data.draw(st.sampled_from(JUNK)))
            if op == "add" and isinstance(node, dict):
                node[data.draw(st.sampled_from(["extra0", "extra1", "name"]))] = junk
            elif op == "add" and isinstance(node, list):
                node.append(junk)
            elif op != "add":
                parent = doc
                for key in path[:-1]:
                    parent = parent[key]
                if op == "replace":
                    parent[path[-1]] = junk
                else:
                    del parent[path[-1]]
        schema = packaged_schema()
        errors = list(jsonschema.validators.validator_for(schema)(schema).iter_errors(doc))
        try:
            load_catalog(yaml.safe_dump(doc))
            got = None
        except CatalogError as exc:
            got = str(exc)
        if not errors:
            assert got is None or not got.startswith("config schema violation")
        elif len(errors) == 1:
            assert got == located(jsonschema.exceptions.best_match(errors))
        else:
            assert got in {located(error) for error in errors}

    def test_round_trip(self, bloomberg):
        catalog, _ = bloomberg
        assert load_catalog(serialize_catalog(catalog)) == catalog

    def test_round_trip_basketball(self):
        catalog = load_catalog(BASKETBALL_CONFIG)
        assert load_catalog(serialize_catalog(catalog)) == catalog


def catalog_texts() -> dict[str, str]:
    """The Bloomberg fixture's catalog, this module's configs and some
    generated instances' catalogs, by name."""
    texts = {path.parent.name: path.read_text(encoding="utf-8")
             for path in (Path(__file__).parent / "data").glob("*/catalog.yaml")}
    texts["basketball"] = BASKETBALL_CONFIG
    texts["full"] = yaml.safe_dump(FULL_CONFIG_DOC)
    for seed, two_tables in ((1, False), (2, True)):
        texts[f"instance{seed}"] = make_instance(random.Random(seed), two_tables=two_tables, with_user_atom=True).config_text
    return texts


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
class TestParseYaml:
    """libyaml parses the config when PyYAML has it; the pure-Python parser
    gives the same documents and still words every error."""

    @pytest.mark.parametrize("name", sorted(catalog_texts()))
    def test_libyaml_gives_the_same_document(self, monkeypatch, name):
        text = catalog_texts()[name]
        doc, catalog = _parse_yaml(text), load_catalog(text)
        monkeypatch.setattr(yaml, "__with_libyaml__", False)
        assert _parse_yaml(text) == doc == yaml.safe_load(text)
        assert load_catalog(text) == catalog

    @pytest.mark.parametrize("libyaml", [True, False])
    def test_error_text_is_the_pure_python_parsers(self, monkeypatch, libyaml):
        monkeypatch.setattr(yaml, "__with_libyaml__", libyaml)
        with pytest.raises(ConfigParseError) as exc:
            load_catalog('relations: [a\n')
        assert str(exc.value) == (
            "config parse error at line 2: while parsing a flow sequence\n"
            '  in "<unicode string>", line 1, column 12:\n'
            "    relations: [a\n"
            "               ^\n"
            "expected ',' or ']', but got '<stream end>'\n"
            '  in "<unicode string>", line 2, column 1:\n'
            "    \n"
            "    ^"
        )


class TestJoinPath:
    def test_single_relation_needs_no_join(self, bloomberg):
        catalog, _ = bloomberg
        assert join_path(catalog, {"person"}, 3) == []

    def test_person_to_stockmarket_via_shareholder(self, bloomberg):
        catalog, _ = bloomberg
        path = join_path(catalog, {"person", "stockmarket"}, 3)
        assert path is not None and len(path) == 2
        rels = {rel for edge in path for rel in edge.relations()}
        assert rels == {"person", "shareholder", "stockmarket"}
        assert join_path(catalog, {"person", "stockmarket"}, 1) is None

    def test_disconnected_graph(self):
        config = """
relations:
  - name: a
    columns: [{name: x, type: integer}]
  - name: b
    columns: [{name: y, type: integer}]
"""
        catalog = load_catalog(config)
        assert join_path(catalog, {"a", "b"}, 5) is None

    def test_path_connects_exactly_needed_plus_intermediates(self, bloomberg):
        catalog, _ = bloomberg
        needed = {"person", "country", "stockmarket"}
        path = join_path(catalog, needed, 4)
        assert path is not None and len(path) <= 4
        # edges must form a connected tree containing all needed relations
        covered = set(path[0].relations())
        for edge in path[1:]:
            assert len(edge.relations() - covered) == 1
            covered |= edge.relations()
        assert needed <= covered

    def test_deterministic_and_lexicographically_smallest(self):
        # diamond: two minimal 2-edge routes from a to d; the tie must break
        # toward the edge pair with the smaller sort key (via b, not via c)
        config = """
relations:
  - name: a
    columns: [{name: ab, type: integer}, {name: ac, type: integer}]
  - name: b
    columns: [{name: ba, type: integer}, {name: bd, type: integer}]
  - name: c
    columns: [{name: ca, type: integer}, {name: cd, type: integer}]
  - name: d
    columns: [{name: db, type: integer}, {name: dc, type: integer}]
join_edges:
  - {from: a.ab, to: b.ba}
  - {from: a.ac, to: c.ca}
  - {from: b.bd, to: d.db}
  - {from: c.cd, to: d.dc}
"""
        catalog = load_catalog(config)
        path = join_path(catalog, {"a", "d"}, 3)
        assert [str(e) for e in path] == ["a.ab=b.ba", "b.bd=d.db"]
        assert join_path(catalog, {"a", "d"}, 3) == path

    def test_budget_honored(self, bloomberg):
        catalog, _ = bloomberg
        for j_num in range(0, 5):
            path = join_path(catalog, {"person", "country", "stockmarket"}, j_num)
            if path is not None:
                assert len(path) <= j_num

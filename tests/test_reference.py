"""The from-scratch reference (halloffame.reference) on its own: it shares
no code with the delta path it checks, and it sums real columns as the
delta path does, correctly rounded, up to the edge of the float range."""

import ast
import json
import math
from pathlib import Path

import halloffame
from halloffame import Engine, Reference, Store, UpdateRecord, load_catalog, load_queries
from conftest import rankings_of

PACKAGE = Path(halloffame.__file__).parent

# what builds the delta path's state or reads the store's joins for it
DELTA_PATH_NAMES = {
    "JoinScan", "Family", "build_families", "compile_predicate", "join_steps", "leaf_edge",
    "fixed", "real_value", "EntityOrder", "order_key", "joined_rows",
}


def names_in(tree: ast.AST) -> set[str]:
    """Every name a module imports, reads or looks up as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_reference_names_nothing_of_the_delta_path():
    tree = ast.parse((PACKAGE / "reference.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported >= {"detector", "store"}  # the walk sees the imports it must judge
    assert names_in(tree) & DELTA_PATH_NAMES == set()


def test_detector_imports_the_reference_only_in_its_shim():
    # the shim that builds a Reference for the benchmark's unfiltered
    # replay; nothing else in the delta path's module may reach the reference
    tree = ast.parse((PACKAGE / "detector.py").read_text(encoding="utf-8"))
    shim = next(
        f for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Engine"
        for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__new__"
    )
    in_shim = {id(node) for node in ast.walk(shim)}

    def names_reference(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            return "reference" in (node.module or "") or any(a.name == "reference" for a in node.names)
        return isinstance(node, ast.Import) and any("reference" in a.name for a in node.names)

    imports = [node for node in ast.walk(tree) if names_reference(node)]
    assert imports and all(id(node) in in_shim for node in imports)


CATALOG = """
relations:
  - name: t
    columns:
      - {name: id, type: integer}
      - {name: who, type: text}
      - {name: m1, type: real}
    key: [id]
entity_attrs: [who]
ranking_criteria:
  - {column: m1, aggregation: sum, direction: descending}
  - {column: m1, aggregation: avg, direction: descending}
"""


def test_real_sums_at_the_edge_of_the_float_range():
    # p's partial sums leave the float range although its exact sum, 1e308,
    # does not; s's exact sum, 2e308, leaves it and saturates to inf. A
    # reference that took an OverflowError of fsum for an infinite sum would
    # rank p first, at inf
    catalog = load_catalog(CATALOG)
    docs = [
        {"id": aggregation, "entity": "t.who", "predicate": [],
         "criterion": {"column": "t.m1", "aggregation": aggregation, "direction": "descending"},
         "join_path": [], "k": 2, "selectivity": 1.0, "entropy_bits": 1.0}
        for aggregation in ("sum", "avg")
    ]
    queries = load_queries("".join(json.dumps(d) + "\n" for d in docs), catalog)
    rows = [(0, "p", 1e308), (1, "p", 1e308), (2, "p", -1e308), (3, "q", 1.7e308), (4, "r", 1e307)]

    def engine(engine_class):
        store = Store(catalog)
        store.load_table("t", "id,who,m1\n" + "".join(f"{i},{who},{v!r}\n" for i, who, v in rows))
        return engine_class(catalog, store, queries)

    delta, reference = engine(Engine), engine(Reference)
    assert rankings_of(reference) == rankings_of(delta)
    assert reference.ranking("sum") == (("q", 1.7e308), ("p", 1e308))
    steps = [
        UpdateRecord(1, "update", "t", {"m1": 1.7e308}, {"id": 4}),  # r ties q
        UpdateRecord(2, "insert", "t", {"id": 5, "who": "s", "m1": 1e308}, {}),
        UpdateRecord(3, "insert", "t", {"id": 6, "who": "s", "m1": 1e308}, {}),  # s sums to 2e308
    ]
    for u in steps:
        assert delta.detect(u) == reference.detect(u), u.seq
        assert delta.last_stats.changed == reference.last_stats.changed, u.seq
        assert rankings_of(reference) == rankings_of(delta), u.seq
    assert reference.ranking("sum") == (("s", math.inf), ("q", 1.7e308))
    assert reference.ranking("avg")[0] == ("s", math.inf)

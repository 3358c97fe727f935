"""Annotated schema catalog: attribute roles, ranking criteria, constraints, join graph.

The catalog is loaded once from a YAML config (see ``catalog_schema.json`` for
the machine-readable grammar) and is immutable afterwards, so it can be read
from any number of workers without locking.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

import jsonschema
import yaml


COLUMN_TYPES = ("integer", "real", "text")
NUMERIC_TYPES = ("integer", "real")
COMPARATORS = (">", "<", "=", "!=", "<=", ">=")
AGGREGATIONS = ("sum", "avg")
DIRECTIONS = ("ascending", "descending", "both")

# accepted spellings in config text, normalized on load
_COMPARATOR_ALIASES = {"≠": "!=", "<>": "!=", "≤": "<=", "≥": ">=", "==": "="}

ATOM_BINDING = "binding"
ATOM_CONST = "const_comparison"
ATOM_INTER = "inter_attribute"


class CatalogError(Exception):
    """Invalid schema annotation (semantic errors: unknown names, bad kinds)."""


class ConfigParseError(CatalogError):
    """Config text is not syntactically valid; message carries a line number."""


@dataclass(frozen=True, order=True, slots=True)
class ColumnRef:
    """A fully resolved (relation, column) reference."""

    relation: str
    column: str

    def __str__(self) -> str:
        return f"{self.relation}.{self.column}"


@dataclass(frozen=True, slots=True)
class JoinEdge:
    """Equi-join between two columns; undirected for path purposes."""

    src: ColumnRef
    dst: ColumnRef

    def relations(self) -> frozenset[str]:
        return frozenset((self.src.relation, self.dst.relation))

    def columns(self) -> tuple[ColumnRef, ColumnRef]:
        return (self.src, self.dst)

    def sort_key(self) -> tuple:
        return (self.src, self.dst)

    def endpoint(self, relation: str) -> ColumnRef:
        if self.src.relation == relation:
            return self.src
        if self.dst.relation == relation:
            return self.dst
        raise KeyError(relation)

    def other(self, relation: str) -> ColumnRef:
        if self.src.relation == relation:
            return self.dst
        if self.dst.relation == relation:
            return self.src
        raise KeyError(relation)

    def __str__(self) -> str:
        return f"{self.src}={self.dst}"


@dataclass(frozen=True, slots=True)
class RankingCriterion:
    """How one numeric column ranks entities."""

    column: ColumnRef
    aggregation: str  # sum | avg
    direction: str  # ascending | descending | both

    def sort_key(self) -> tuple:
        return (self.column, self.aggregation, self.direction)

    def __str__(self) -> str:
        return f"{self.aggregation}({self.column}) {self.direction}"


@dataclass(frozen=True, slots=True)
class ConstraintAtom:
    """One conjunct of a predicate.

    ``binding`` atoms (C-attribute = data value) are produced by the
    generator; user-declared constraints are ``const_comparison`` or
    ``inter_attribute`` atoms.
    """

    kind: str
    left: ColumnRef
    comparator: str
    right: Any  # constant for binding/const_comparison, ColumnRef for inter_attribute

    def columns(self) -> tuple[ColumnRef, ...]:
        if isinstance(self.right, ColumnRef):
            return (self.left, self.right)
        return (self.left,)

    def relations(self) -> frozenset[str]:
        return frozenset(c.relation for c in self.columns())

    def sort_key(self) -> tuple:
        right = self.right
        tag = "col" if isinstance(right, ColumnRef) else type(right).__name__
        return (self.kind, self.left, self.comparator, tag, str(right))

    def render(self) -> str:
        rhs = str(self.right) if isinstance(self.right, ColumnRef) else repr(self.right)
        return f"{self.left} {self.comparator} {rhs}"


@dataclass
class RelationMeta:
    """One declared relation: typed columns, role annotations, key."""

    name: str
    columns: list[tuple[str, str]]  # (column name, type) in declaration order
    entity_attrs: list[str] = field(default_factory=list)
    categorical_attrs: list[str] = field(default_factory=list)
    key_columns: list[str] = field(default_factory=list)

    def column_names(self) -> list[str]:
        return [c for c, _ in self.columns]

    def column_type(self, name: str) -> str:
        for col, typ in self.columns:
            if col == name:
                return typ
        raise KeyError(f"{self.name}.{name}")

    def has_column(self, name: str) -> bool:
        return any(col == name for col, _ in self.columns)


@dataclass
class SchemaCatalog:
    """The fully resolved annotation. Immutable after load."""

    relations: list[RelationMeta]
    join_edges: list[JoinEdge]
    user_constraints: list[ConstraintAtom]
    ranking_criteria: list[RankingCriterion]  # concrete; "both" already expanded
    # optional expert allow-list: a query may only combine relations that fit
    # inside one of these sets
    join_allowlist: Optional[list[frozenset[str]]] = None

    def relation(self, name: str) -> RelationMeta:
        for rel in self.relations:
            if rel.name == name:
                return rel
        raise CatalogError(f"unknown relation {name!r}")

    def has_relation(self, name: str) -> bool:
        return any(rel.name == name for rel in self.relations)

    def column_type(self, ref: ColumnRef) -> str:
        return self.relation(ref.relation).column_type(ref.column)

    def entity_columns(self) -> list[ColumnRef]:
        return sorted(
            ColumnRef(rel.name, col)
            for rel in self.relations
            for col in rel.entity_attrs
        )

    def categorical_columns(self) -> list[ColumnRef]:
        return sorted(
            ColumnRef(rel.name, col)
            for rel in self.relations
            for col in rel.categorical_attrs
        )

    def join_columns(self, relation: str) -> set[str]:
        cols = set()
        for edge in self.join_edges:
            for ref in edge.columns():
                if ref.relation == relation:
                    cols.add(ref.column)
        return cols

    def edges_touching(self, relation: str) -> list[JoinEdge]:
        return [e for e in self.join_edges if relation in e.relations()]

    def allows_relations(self, needed: Iterable[str]) -> bool:
        if self.join_allowlist is None:
            return True
        needed = frozenset(needed)
        return any(needed <= allowed for allowed in self.join_allowlist)


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------


def _config_schema() -> dict:
    text = (
        importlib.resources.files("halloffame")
        .joinpath("catalog_schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def _parse_yaml(config_text: str) -> dict:
    try:
        doc = yaml.safe_load(config_text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else "?"
        raise ConfigParseError(f"config parse error at line {line}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParseError("config parse error at line 1: top level must be a mapping")
    return doc


class _Resolver:
    """Resolves 'relation.column' or bare 'column' strings to ColumnRefs."""

    def __init__(self, relations: list[RelationMeta]):
        self.by_name = {rel.name: rel for rel in relations}
        self.column_owners: dict[str, list[str]] = {}
        for rel in relations:
            for col in rel.column_names():
                self.column_owners.setdefault(col, []).append(rel.name)

    def resolve(self, text: str, context: str) -> ColumnRef:
        if "." in text:
            rel_name, col = text.split(".", 1)
            rel = self.by_name.get(rel_name)
            if rel is None:
                raise CatalogError(f"{context}: unknown relation {rel_name!r}")
            if not rel.has_column(col):
                raise CatalogError(f"{context}: unknown column {text!r}")
            return ColumnRef(rel_name, col)
        owners = self.column_owners.get(text, [])
        if not owners:
            raise CatalogError(f"{context}: unknown column {text!r}")
        if len(owners) > 1:
            raise CatalogError(
                f"{context}: column {text!r} is ambiguous (declared in {', '.join(sorted(owners))})"
            )
        return ColumnRef(owners[0], text)


def _parse_constant(value: Any, context: str) -> Any:
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        return value
    raise CatalogError(f"{context}: constant must be a string or number, got {value!r}")


def load_catalog(config_text: str) -> SchemaCatalog:
    """Parse and validate a schema annotation config.

    Raises ConfigParseError for syntax problems (with a line number) and
    CatalogError for semantic ones (unknown names, bad comparators, a
    criterion on a text column, ...).
    """
    doc = _parse_yaml(config_text)
    try:
        jsonschema.validate(doc, _config_schema())
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<top>"
        raise CatalogError(f"config schema violation at {path}: {exc.message}") from exc

    raw_relations = doc.get("relations") or []
    if not raw_relations:
        raise CatalogError("no relations declared")

    relations: list[RelationMeta] = []
    seen = set()
    for raw in raw_relations:
        name = raw["name"]
        if name in seen:
            raise CatalogError(f"relation {name!r} declared twice")
        seen.add(name)
        columns = [(c["name"], c["type"]) for c in raw["columns"]]
        col_names = [c for c, _ in columns]
        if len(set(col_names)) != len(col_names):
            raise CatalogError(f"relation {name!r} has duplicate column names")
        key = raw.get("key", [])
        for k in key:
            if k not in col_names:
                raise CatalogError(f"relation {name!r}: key column {k!r} not declared")
        relations.append(RelationMeta(name=name, columns=columns, key_columns=list(key)))

    resolver = _Resolver(relations)

    for role, attr in (("entity_attrs", "entity_attrs"), ("categorical_attrs", "categorical_attrs")):
        for text in doc.get(role, []):
            ref = resolver.resolve(text, role)
            getattr(resolver.by_name[ref.relation], attr).append(ref.column)

    criteria: list[RankingCriterion] = []
    for raw in doc.get("ranking_criteria", []):
        ref = resolver.resolve(raw["column"], "ranking_criteria")
        col_type = resolver.by_name[ref.relation].column_type(ref.column)
        if col_type not in NUMERIC_TYPES:
            raise CatalogError(f"ranking criterion on non-numeric column {ref} ({col_type})")
        direction = raw["direction"]
        if direction == "both":
            # eager expansion keeps generation a pure enumeration
            criteria.append(RankingCriterion(ref, raw["aggregation"], "ascending"))
            criteria.append(RankingCriterion(ref, raw["aggregation"], "descending"))
        else:
            criteria.append(RankingCriterion(ref, raw["aggregation"], direction))

    constraints: list[ConstraintAtom] = []
    for i, raw in enumerate(doc.get("user_constraints", [])):
        context = f"user_constraints[{i}]"
        kind = raw["kind"]
        comparator = _COMPARATOR_ALIASES.get(raw["comparator"], raw["comparator"])
        if comparator not in COMPARATORS:
            raise CatalogError(f"{context}: unknown comparator {raw['comparator']!r}")
        left = resolver.resolve(raw["left"], context)
        if kind == ATOM_BINDING:
            raise CatalogError(f"{context}: user constraints cannot be bindings")
        left_type = resolver.by_name[left.relation].column_type(left.column)
        if kind == ATOM_INTER:
            right: Any = resolver.resolve(str(raw["right"]), context)
            right_type = resolver.by_name[right.relation].column_type(right.column)
            compatible = left_type == right_type or (
                left_type in NUMERIC_TYPES and right_type in NUMERIC_TYPES
            )
            if not compatible:
                raise CatalogError(
                    f"{context}: cannot compare {left} ({left_type}) with {right} ({right_type})"
                )
        elif kind == ATOM_CONST:
            right = _parse_constant(raw["right"], context)
            const_is_text = isinstance(right, str)
            if const_is_text != (left_type == "text"):
                raise CatalogError(
                    f"{context}: constant {right!r} does not match type of {left} ({left_type})"
                )
        else:
            raise CatalogError(f"{context}: unknown constraint kind {kind!r}")
        constraints.append(ConstraintAtom(kind, left, comparator, right))

    edges: list[JoinEdge] = []
    for i, raw in enumerate(doc.get("join_edges", [])):
        context = f"join_edges[{i}]"
        src = resolver.resolve(raw["from"], context)
        dst = resolver.resolve(raw["to"], context)
        if src.relation == dst.relation:
            raise CatalogError(f"{context}: self-join edges are not supported")
        src_type = resolver.by_name[src.relation].column_type(src.column)
        dst_type = resolver.by_name[dst.relation].column_type(dst.column)
        compatible = src_type == dst_type or (
            src_type in NUMERIC_TYPES and dst_type in NUMERIC_TYPES
        )
        if not compatible:
            raise CatalogError(f"{context}: incompatible column types {src_type}/{dst_type}")
        edges.append(JoinEdge(src, dst))

    allowlist = None
    if "join_allowlist" in doc:
        allowlist = []
        for i, group in enumerate(doc["join_allowlist"]):
            for name in group:
                if name not in resolver.by_name:
                    raise CatalogError(f"join_allowlist[{i}]: unknown relation {name!r}")
            allowlist.append(frozenset(group))

    return SchemaCatalog(
        relations=relations,
        join_edges=edges,
        user_constraints=constraints,
        ranking_criteria=criteria,
        join_allowlist=allowlist,
    )


def serialize_catalog(catalog: SchemaCatalog) -> str:
    """Render a catalog back to config text; load_catalog(serialize(c)) == c.

    "both" criteria were expanded at load time, so the serialized form lists
    the concrete criteria.
    """
    doc: dict[str, Any] = {
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


# ---------------------------------------------------------------------------
# Join paths
# ---------------------------------------------------------------------------


def join_path(
    catalog: SchemaCatalog, needed: Iterable[str], j_num: int
) -> Optional[list[JoinEdge]]:
    """Shortest edge sequence connecting all ``needed`` relations, or None.

    The result is a tree grown from the lexicographically smallest needed
    relation, trying edges in sorted order, which makes the choice among
    equally short paths deterministic. None means no connection exists
    within ``j_num`` edges; that is a value, not an error.
    """
    needed_set = set(needed)
    if not needed_set:
        return []
    for name in needed_set:
        catalog.relation(name)  # raises on unknown names
    if len(needed_set) == 1:
        return []

    edges = sorted(catalog.join_edges, key=JoinEdge.sort_key)
    start = min(needed_set)

    def search(component: frozenset[str], budget: int) -> Optional[list[JoinEdge]]:
        if needed_set <= component:
            return []
        if budget == 0:
            return None
        for edge in edges:
            rels = edge.relations()
            new = rels - component
            if len(new) != 1:
                continue  # either detached from the component or a cycle edge
            rest = search(component | new, budget - 1)
            if rest is not None:
                return [edge] + rest
        return None

    # iterative deepening: the first depth that succeeds is minimal, and the
    # depth-first order makes the result lexicographically smallest
    for limit in range(0, j_num + 1):
        found = search(frozenset((start,)), limit)
        if found is not None:
            return found
    return None

"""Annotated schema catalog: attribute roles, ranking criteria, constraints, join graph.

The catalog is loaded once from a YAML config and is immutable afterwards.
The config's grammar is ``catalog_schema.json``, a JSON Schema (draft 2020-12)
shipped with the package. ``_schema_violations`` checks a config against it by
interpreting only the keywords that file uses (``type``, ``enum``,
``required``, ``additionalProperties: false``, ``properties``, ``items``,
``minItems`` and ``minLength``), with the messages of the ``jsonschema``
package; it raises on any other keyword, so the file and the checker cannot
drift apart.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

import yaml


NUMERIC_TYPES = ("integer", "real")
COMPARATORS = (">", "<", "=", "!=", "<=", ">=")
AGGREGATIONS = ("sum", "avg")

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

    def allows_relations(self, needed: Iterable[str]) -> bool:
        if self.join_allowlist is None:
            return True
        needed = frozenset(needed)
        return any(needed <= allowed for allowed in self.join_allowlist)


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------


@functools.cache
def _config_schema() -> dict:
    text = (
        importlib.resources.files("halloffame")
        .joinpath("catalog_schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


# JSON Schema's instance types over parsed YAML values; a bool is no number
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


def _schema_violations(value: Any, schema: dict, path: tuple = ()) -> Iterator[tuple[tuple, str]]:
    """Yield ``(path, message)`` for each rule of ``schema`` that ``value`` breaks.

    The walk takes a node's keywords in schema order, descending where it
    meets ``properties`` (in schema order) or ``items`` (in index order).
    Keywords other than the ones interpreted here raise NotImplementedError.
    """
    for keyword, rule in schema.items():
        if keyword in ("$schema", "title"):
            continue
        if keyword == "type":
            names = [rule] if isinstance(rule, str) else rule
            if not any(_JSON_TYPES[name](value) for name in names):
                yield path, f"{value!r} is not of type {', '.join(map(repr, names))}"
        elif keyword == "enum":
            if value not in rule:
                yield path, f"{value!r} is not one of {rule!r}"
        elif keyword in ("minItems", "minLength"):
            sized = isinstance(value, list if keyword == "minItems" else str)
            if sized and len(value) < rule:
                yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif keyword == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _schema_violations(item, rule, path + (i,))
        elif keyword == "required":
            if isinstance(value, dict):
                for key in rule:
                    if key not in value:
                        yield path, f"{key!r} is a required property"
        elif keyword == "additionalProperties" and rule is False:
            if isinstance(value, dict):
                extras = sorted((k for k in value if k not in schema.get("properties", {})), key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    listed = ", ".join(map(repr, extras))
                    yield path, f"Additional properties are not allowed ({listed} {verb} unexpected)"
        elif keyword == "properties":
            if isinstance(value, dict):
                for key, sub in rule.items():
                    if key in value:
                        yield from _schema_violations(value[key], sub, path + (key,))
        else:
            raise NotImplementedError(f"catalog schema keyword {keyword!r} is not interpreted")


def _parse_yaml(config_text: str) -> dict:
    """The config document. libyaml parses it when PyYAML has it; when that
    fails or gives no mapping, or without libyaml, the pure-Python parser
    parses it (again), so every error text and line number is that
    parser's."""
    doc = None
    if yaml.__with_libyaml__:
        try:
            doc = yaml.load(config_text, Loader=yaml.CSafeLoader)
        except yaml.YAMLError:
            pass
    if not isinstance(doc, dict):
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


def load_catalog(config_text: str) -> SchemaCatalog:
    """Parse and validate a schema annotation config.

    Raises ConfigParseError for syntax problems (with a line number) and
    CatalogError for semantic ones (unknown names, bad comparators, a
    criterion on a text column, ...).

    A config that breaks the packaged schema raises ``config schema
    violation at <path>: <message>``, with the path's parts joined by ``/``
    (``<top>`` at the root). When it breaks several rules, the one named is
    the least deep (fewest path parts); among equally deep ones, the first
    that ``_schema_violations`` yields.
    """
    doc = _parse_yaml(config_text)
    # the packaged schema is checked against its metaschema by the tests, not at every load
    violation = min(_schema_violations(doc, _config_schema()), key=lambda v: len(v[0]), default=None)
    if violation is not None:
        path, message = violation
        raise CatalogError(f"config schema violation at {'/'.join(map(str, path)) or '<top>'}: {message}")

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

    # a repeated role entry or criterion would generate every query it is in twice
    for role in ("entity_attrs", "categorical_attrs"):
        for i, text in enumerate(doc.get(role, [])):
            ref = resolver.resolve(text, role)
            listed = getattr(resolver.by_name[ref.relation], role)
            if ref.column in listed:
                raise CatalogError(f"{role}[{i}]: column {ref} listed twice")
            listed.append(ref.column)

    criteria: list[RankingCriterion] = []
    for i, raw in enumerate(doc.get("ranking_criteria", [])):
        ref = resolver.resolve(raw["column"], "ranking_criteria")
        col_type = resolver.by_name[ref.relation].column_type(ref.column)
        if col_type not in NUMERIC_TYPES:
            raise CatalogError(f"ranking criterion on non-numeric column {ref} ({col_type})")
        direction = raw["direction"]
        # eager expansion keeps generation a pure enumeration
        directions = ("ascending", "descending") if direction == "both" else (direction,)
        for one in directions:
            criterion = RankingCriterion(ref, raw["aggregation"], one)
            if criterion in criteria:
                raise CatalogError(f"ranking_criteria[{i}]: criterion {criterion} listed twice")
            criteria.append(criterion)

    constraints: list[ConstraintAtom] = []
    for i, raw in enumerate(doc.get("user_constraints", [])):
        context = f"user_constraints[{i}]"
        kind = raw["kind"]
        comparator = _COMPARATOR_ALIASES.get(raw["comparator"], raw["comparator"])
        if comparator not in COMPARATORS:
            raise CatalogError(f"{context}: unknown comparator {raw['comparator']!r}")
        left = resolver.resolve(raw["left"], context)
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
        else:  # ATOM_CONST, the schema's only other kind
            right = raw["right"]  # the schema admits a string or a number, not a bool
            const_is_text = isinstance(right, str)
            if const_is_text != (left_type == "text"):
                raise CatalogError(
                    f"{context}: constant {right!r} does not match type of {left} ({left_type})"
                )
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

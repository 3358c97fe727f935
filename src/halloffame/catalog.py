"""Annotated schema catalog: attribute roles, ranking criteria, constraints, join graph.

The catalog is loaded once from a YAML config and is immutable afterwards.
The config's grammar is ``catalog_schema.json``, a JSON Schema (draft 2020-12)
shipped with the package. ``_schema_violations`` checks a config against it by
interpreting only the keywords that file uses (``type``, ``enum``,
``required``, ``additionalProperties: false``, ``properties``, ``items``,
``minItems`` and ``minLength``), with the messages of the ``jsonschema``
package; it raises on any other keyword, so the file and the checker cannot
drift apart. A message quotes the value at fault as repr prints it while it
is short, and cut with ``...`` where it is long or deep (_quote).

What a query may say is written once, as SchemaCatalog's criterion, atom and
join-path rules (check_criterion, check_atom, check_join_path): the config's
loader, the query catalog's loader and the store's joins all apply them.
is_int, is_number and is_finite are the JSON-number tests every reader of a
JSON or YAML document shares; none of them takes a bool for a number.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
import reprlib
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Iterator, Optional, Sequence

import yaml


NUMERIC_TYPES = ("integer", "real")
COMPARATORS = (">", "<", "=", "!=", "<=", ">=")
AGGREGATIONS = ("sum", "avg")
DIRECTIONS = ("ascending", "descending")  # concrete; a config's "both" expands to these

# accepted spellings in config text, normalized on load
_COMPARATOR_ALIASES = {"≠": "!=", "<>": "!=", "≤": "<=", "≥": ">=", "==": "="}

ATOM_BINDING = "binding"
ATOM_CONST = "const_comparison"
ATOM_INTER = "inter_attribute"
ATOM_KINDS = (ATOM_BINDING, ATOM_CONST, ATOM_INTER)


def is_int(value: Any) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    """A JSON number: an int that is not a bool, or a float."""
    return is_int(value) or isinstance(value, float)


def is_finite(value: Any) -> bool:
    """A finite JSON number: a float other than inf and NaN, or an int that
    converts to one (10**400 does not)."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


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
    direction: str  # ascending | descending: a config's "both" is expanded on load

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

    # -- what a query may say: the config's and the query catalog's one rule book

    def check_criterion(self, criterion: RankingCriterion) -> None:
        """The criterion rule: sum or avg of a numeric column, in a concrete direction."""
        col_type = self.column_type(criterion.column)
        if col_type not in NUMERIC_TYPES:
            raise CatalogError(f"ranking criterion on non-numeric column {criterion.column} ({col_type})")
        if criterion.aggregation not in AGGREGATIONS:
            raise CatalogError(f"unknown aggregation {criterion.aggregation!r}")
        if criterion.direction not in DIRECTIONS:
            raise CatalogError(f"direction must be concrete, got {criterion.direction!r}")

    def check_atom(self, atom: ConstraintAtom) -> None:
        """The atom rule: a known kind and comparator, '=' for a binding atom,
        and text compared with text, a number with a number, whether the
        right side is a constant or a column; a float constant is finite (an
        int, of any size, is compared exactly, as the data's int cells are)."""
        if atom.kind not in ATOM_KINDS:
            raise CatalogError(f"unknown atom kind {atom.kind!r}")
        if atom.comparator not in COMPARATORS:
            raise CatalogError(f"unknown comparator {atom.comparator!r}")
        if atom.kind == ATOM_BINDING and atom.comparator != "=":
            raise CatalogError(f"a binding atom compares with '=', got {atom.comparator!r}")
        left_type = self.column_type(atom.left)
        if atom.kind == ATOM_INTER:
            right_type = self.column_type(atom.right)
            if (left_type == "text") != (right_type == "text"):
                raise CatalogError(f"cannot compare {atom.left} ({left_type}) with {atom.right} ({right_type})")
        elif not (isinstance(atom.right, str) if left_type == "text" else is_number(atom.right)):
            raise CatalogError(f"constant {atom.right!r} does not match the type of {atom.left} ({left_type})")
        elif isinstance(atom.right, float) and not math.isfinite(atom.right):
            raise CatalogError(f"constant {atom.right!r} compared with {atom.left} is not finite")

    def check_join_path(self, path: Sequence[JoinEdge], named: Iterable[str]) -> str:
        """The join-path rule; returns the relation the path starts from. A
        path is joined edge by edge from its first edge's source relation (the
        least named relation when it is empty), so every edge must be a join
        edge of the catalog that adds exactly one relation to those before it
        (a connected tree), and the path must reach every named relation."""
        named = set(named)
        start = path[0].src.relation if path else min(named)
        joined = {start}
        edges = set(self.join_edges)
        for edge in path:
            if edge not in edges and JoinEdge(edge.dst, edge.src) not in edges:
                raise CatalogError(f"join path edge {edge} is not a join edge of the catalog")
            if len(edge.relations() - joined) != 1:  # a catalog edge joins two relations
                raise CatalogError(f"join path is not a connected tree: edge {edge} does not add one relation")
            joined |= edge.relations()
        if not named <= joined:
            raise CatalogError(f"join path does not reach relations {sorted(named - joined)}")
        return start


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
    "number": is_number,
    "integer": lambda v: is_int(v) or isinstance(v, float) and v.is_integer(),
}


class _Quote(reprlib.Repr):
    """repr for quoting a config value in a message: as repr prints it while
    it is short, cut with '...' past 8 items, 6 levels or 60 characters of a
    string or number, so a long value cannot make the message long nor a
    deep one make the quoting recurse beyond the stack."""

    def __init__(self):
        super().__init__()
        self.maxlevel = 6
        self.maxlist = self.maxtuple = self.maxdict = self.maxset = 8
        self.maxstring = self.maxlong = self.maxother = 60

    def repr_dict(self, x: dict, level: int) -> str:  # reprlib sorts the keys; repr keeps their order
        if not x:
            return "{}"
        if level <= 0:
            return "{...}"
        pieces = [f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}" for k, v in islice(x.items(), self.maxdict)]
        return "{" + ", ".join(pieces + ["..."] * (len(x) > self.maxdict)) + "}"


_quote = _Quote().repr


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
                yield path, f"{_quote(value)} is not of type {', '.join(map(repr, names))}"
        elif keyword == "enum":
            if value not in rule:
                yield path, f"{_quote(value)} is not one of {rule!r}"
        elif keyword in ("minItems", "minLength"):
            sized = isinstance(value, list if keyword == "minItems" else str)
            if sized and len(value) < rule:
                yield path, f"{_quote(value)} {'should be non-empty' if rule == 1 else 'is too short'}"
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
    try:
        doc = _parse_yaml(config_text)
        # the packaged schema is checked against its metaschema by the tests, not at every load
        violation = min(_schema_violations(doc, _config_schema()), key=lambda v: len(v[0]), default=None)
    except (ValueError, RecursionError) as exc:  # an int beyond Python's digit limit, or nesting beyond the stack
        raise CatalogError(f"config unreadable: {type(exc).__name__}: {exc}") from None
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
    catalog = SchemaCatalog(relations=relations, join_edges=[], user_constraints=[], ranking_criteria=[])

    # a repeated role entry or criterion would generate every query it is in twice
    for role in ("entity_attrs", "categorical_attrs"):
        for i, text in enumerate(doc.get(role, [])):
            ref = resolver.resolve(text, role)
            listed = getattr(resolver.by_name[ref.relation], role)
            if ref.column in listed:
                raise CatalogError(f"{role}[{i}]: column {ref} listed twice")
            listed.append(ref.column)

    criteria = catalog.ranking_criteria
    for i, raw in enumerate(doc.get("ranking_criteria", [])):
        ref = resolver.resolve(raw["column"], "ranking_criteria")
        direction = raw["direction"]
        # eager expansion keeps generation a pure enumeration
        for one in DIRECTIONS if direction == "both" else (direction,):
            criterion = RankingCriterion(ref, raw["aggregation"], one)
            catalog.check_criterion(criterion)
            if criterion in criteria:
                raise CatalogError(f"ranking_criteria[{i}]: criterion {criterion} listed twice")
            criteria.append(criterion)

    for i, raw in enumerate(doc.get("user_constraints", [])):
        context = f"user_constraints[{i}]"
        left = resolver.resolve(raw["left"], context)
        # the schema admits a string or a number, not a bool, on the right
        right = resolver.resolve(str(raw["right"]), context) if raw["kind"] == ATOM_INTER else raw["right"]
        atom = ConstraintAtom(raw["kind"], left, _COMPARATOR_ALIASES.get(raw["comparator"], raw["comparator"]), right)
        try:
            catalog.check_atom(atom)
        except CatalogError as exc:
            raise CatalogError(f"{context}: {exc}") from None
        catalog.user_constraints.append(atom)

    for i, raw in enumerate(doc.get("join_edges", [])):
        context = f"join_edges[{i}]"
        src = resolver.resolve(raw["from"], context)
        dst = resolver.resolve(raw["to"], context)
        if src.relation == dst.relation:
            raise CatalogError(f"{context}: self-join edges are not supported")
        src_type, dst_type = catalog.column_type(src), catalog.column_type(dst)
        if (src_type == "text") != (dst_type == "text"):
            raise CatalogError(f"{context}: incompatible column types {src_type}/{dst_type}")
        catalog.join_edges.append(JoinEdge(src, dst))

    if "join_allowlist" in doc:
        catalog.join_allowlist = []
        for i, group in enumerate(doc["join_allowlist"]):
            for name in group:
                if name not in resolver.by_name:
                    raise CatalogError(f"join_allowlist[{i}]: unknown relation {name!r}")
            catalog.join_allowlist.append(frozenset(group))
    return catalog


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

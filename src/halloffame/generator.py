"""Enumerate every valid Hall of Fame query from an annotated schema.

Generation walks (entity attribute x constraint combination x materialized
binding values x concrete criterion). Each relation set's join path is
searched once and memoized, and a query is kept only if its relations join
within the budget and its ranking reaches at least K entities. Generation
reads no criterion value: per (entity, combination, join path) one
store.JoinScan, as the detector's families scan, with the criterion's
relation summed per join value when it is a leaf, gives every instance's
entity count and row count and the path's joined rows at once.

Each query carries the two static scores the scorer ranks its events by:
its selectivity (the share of the joined rows its predicate keeps, taken
from the same count) and the entropy of its predicate columns' joint value
distribution over the joined rows, computed once per (predicate columns,
join path) when the first query using them survives. Without fixed atoms
the predicate columns are the binding columns, so that distribution is the
count's rows per instance and needs no scan of its own. With fixed atoms
the count kept only the rows that pass them, so the distribution over all
joined rows takes one more JoinScan, without the atoms.

A query's id (query_identity) and its SQL are joined from parts: text per
(entity, criterion, join path, k) and text per predicate, the predicate and
its text built once per (combination, instance) and shared by every entity
and criterion. Generation sets each query's SQL; a query loaded from a
catalog renders it from the same parts on first use.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Union

from .catalog import (
    ATOM_BINDING,
    ATOM_INTER,
    CatalogError,
    ColumnRef,
    ConstraintAtom,
    JoinEdge,
    RankingCriterion,
    SchemaCatalog,
    is_finite,
    is_int,
    is_number,
    join_path,
)
from .scorer import entropy
from .store import JoinScan, Store, leaf_edge

Source = Union[ColumnRef, ConstraintAtom]


class GenerationError(Exception):
    pass


@dataclass(frozen=True)
class GeneratorConfig:
    k: int = 20
    c_num: int = 3
    j_num: int = 3

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.c_num < 0 or self.j_num < 0:
            raise ValueError("c_num and j_num must be >= 0")


def _source_key(source: Source) -> tuple:
    if isinstance(source, ColumnRef):
        return (0, str(source))
    return (1,) + source.sort_key()


@dataclass(frozen=True, slots=True)
class ConstraintCombination:
    """A set of constraint sources: categorical columns still to be bound
    per data, plus fixed user constraint atoms."""

    sources: frozenset

    @property
    def size(self) -> int:
        return len(self.sources)

    def binding_columns(self) -> tuple[ColumnRef, ...]:
        return tuple(sorted(s for s in self.sources if isinstance(s, ColumnRef)))

    def fixed_atoms(self) -> tuple[ConstraintAtom, ...]:
        atoms = [s for s in self.sources if isinstance(s, ConstraintAtom)]
        return tuple(sorted(atoms, key=ConstraintAtom.sort_key))

    def relations(self) -> frozenset[str]:
        rels = set()
        for s in self.sources:
            if isinstance(s, ColumnRef):
                rels.add(s.relation)
            else:
                rels.update(s.relations())
        return frozenset(rels)

    def sort_key(self) -> tuple:
        return (self.size, tuple(sorted(_source_key(s) for s in self.sources)))


def get_combinations(catalog: SchemaCatalog, cfg: GeneratorConfig) -> list[ConstraintCombination]:
    """All source subsets of size <= c_num whose relations join within j_num.

    Grown incrementally, so a superset only ever extends an already valid
    subset; the empty combination is always present. Returned in ascending
    size (then deterministic) order.
    """
    sources: list[Source] = list(catalog.categorical_columns())
    sources += sorted(catalog.user_constraints, key=ConstraintAtom.sort_key)

    combos: set[frozenset] = {frozenset()}
    for source in sources:
        # a grown set is kept or not on its own merits, so the order of this
        # pass does not matter; sets added in it already hold the source
        for existing in list(combos):
            grown = existing | {source}
            if len(grown) > cfg.c_num or grown in combos:
                continue
            rels = ConstraintCombination(grown).relations()
            if join_path(catalog, rels, cfg.j_num) is None:
                continue
            combos.add(grown)
    result = [ConstraintCombination(c) for c in combos]
    result.sort(key=ConstraintCombination.sort_key)
    return result


@dataclass(frozen=True, slots=True)
class HofQuery:
    """One generated Hall of Fame: a top-K grouped ranking query."""

    id: str
    entity_attr: ColumnRef
    predicate: tuple[ConstraintAtom, ...]  # conjunction; empty means true
    criterion: RankingCriterion  # concrete direction
    join_path: tuple[JoinEdge, ...]
    k: int
    selectivity: float
    entropy_bits: float
    _sql: Optional[str] = field(default=None, repr=False, compare=False)  # sql(), once rendered

    def relations(self) -> frozenset[str]:
        rels = {self.entity_attr.relation, self.criterion.column.relation}
        for atom in self.predicate:
            rels.update(atom.relations())
        for edge in self.join_path:
            rels.update(edge.relations())
        return frozenset(rels)

    def predicate_columns(self) -> tuple[ColumnRef, ...]:
        cols = set()
        for atom in self.predicate:
            cols.update(atom.columns())
        return tuple(sorted(cols))

    def sql(self) -> str:
        """Human-readable SQL-style rendering, for logs. generate_queries sets
        it; a query loaded from a catalog renders it on first use."""
        if self._sql is None:
            object.__setattr__(self, "_sql", self._render_sql())
        return self._sql

    def _render_sql(self) -> str:
        head, tail = _sql_parts(self.entity_attr, self.criterion, self.join_path, self.k)
        return head + _where([a.render() for a in self.predicate]) + tail


def _sql_parts(entity_attr: ColumnRef, criterion: RankingCriterion, path: tuple[JoinEdge, ...], k: int) -> tuple[str, str]:
    """A query's SQL before and after its WHERE clause. Without a join path
    every relation the query names is the entity's. Ties on the aggregate
    rank by ascending entity, as the engine ranks them, so the SQL defines
    the reported ranking."""
    agg = f"{criterion.aggregation.upper()}({criterion.column})"
    order = "ASC" if criterion.direction == "ascending" else "DESC"
    return (
        f"SELECT {entity_attr}, {agg} FROM {_from_clause(path) if path else entity_attr.relation}",
        f" GROUP BY {entity_attr} ORDER BY {agg} {order}, {entity_attr} ASC LIMIT {k}",
    )


def _where(rendered: list[str]) -> str:
    """The WHERE clause of a predicate's rendered atoms, empty for none."""
    return " WHERE " + " AND ".join(rendered) if rendered else ""


def _from_clause(path: tuple[JoinEdge, ...]) -> str:
    parts = []
    seen: set[str] = set()
    for edge in path:
        if not seen:
            parts.append(f"{edge.src.relation} JOIN {edge.dst.relation} ON {edge}")
            seen.update(edge.relations())
        else:  # the join-path rule: each later edge adds exactly one relation
            (new,) = edge.relations() - seen
            parts.append(f"JOIN {new} ON {edge}")
            seen.add(new)
    return " ".join(parts)


def _atom_json(atom: ConstraintAtom) -> dict:
    right: Any = atom.right
    if isinstance(right, ColumnRef):
        right = {"column": str(right)}
    return {"kind": atom.kind, "left": str(atom.left), "comparator": atom.comparator, "right": right}


def _atom_text(atom: ConstraintAtom) -> str:
    """An atom's canonical JSON text in a query id's document."""
    return json.dumps(_atom_json(atom), sort_keys=True)


def _id_head(entity_attr: ColumnRef, criterion: RankingCriterion, path: tuple[JoinEdge, ...], k: int) -> str:
    """A query id's document as canonical JSON text up to its predicate's
    atoms: "predicate" sorts last among its keys."""
    doc = {
        "entity": str(entity_attr),
        "predicate": [],
        "criterion": [str(criterion.column), criterion.aggregation, criterion.direction],
        "path": [[str(e.src), str(e.dst)] for e in path],
        "k": k,
    }
    return json.dumps(doc, sort_keys=True)[: -len("]}")]


def query_identity(head: str, atoms: str) -> str:
    """Stable content-derived query id: the sha256 of the query's document
    as canonical JSON (json.dumps with sorted keys), from its _id_head and
    the _atom_text of each predicate atom, joined by ", "."""
    return hashlib.sha256(f"{head}{atoms}]}}".encode("utf-8")).hexdigest()[:16]


def generate_queries(
    catalog: SchemaCatalog, cfg: GeneratorConfig, store: Store
) -> list[HofQuery]:
    """Enumerate all valid queries, searching each relation set's join path once.

    The output is set-equal to brute-force enumeration of every
    (entity, combination, binding, criterion) choice filtered by the join
    budget and the at-least-K rule.
    """
    combos = get_combinations(catalog, cfg)
    entities = catalog.entity_columns()
    criteria = sorted(catalog.ranking_criteria, key=RankingCriterion.sort_key)
    # (predicate columns, join path) -> entropy of their joint value
    # distribution over the joined rows, shared by every query using them
    entropies: dict[tuple, float] = {}
    # per combination: instance -> (predicate, its atoms' id texts, its WHERE clause)
    predicates: list[dict[tuple, tuple]] = [{} for _ in combos]
    queries: list[HofQuery] = []

    # relation set -> join_path's answer, searched once; a set with no tree
    # within j_num edges has no joinable superset, so nothing else is pruned
    paths: dict[frozenset, Optional[list[JoinEdge]]] = {}

    for e_attr in entities:
        for comb, shared in zip(combos, predicates):
            needed1 = frozenset((e_attr.relation,)) | comb.relations()
            binding_cols = comb.binding_columns()
            fixed = comb.fixed_atoms()
            pred_cols = tuple(sorted({*binding_cols, *(c for a in fixed for c in a.columns())}))
            counted: dict = {}  # join path -> (instance -> [entities, rows], joined rows, leaf relation)
            for crit in criteria:
                needed2 = needed1 | {crit.column.relation}
                if needed2 not in paths:
                    paths[needed2] = join_path(catalog, needed2, cfg.j_num)
                if paths[needed2] is None or not catalog.allows_relations(needed2):
                    continue
                path2 = tuple(paths[needed2])

                # criteria over one join path share one count
                if path2 not in counted:
                    leaf = crit.column.relation if leaf_edge(path2, (crit.column,), (e_attr, *pred_cols)) else None
                    scan = JoinScan(store, needed2, path2, fixed, leaf)
                    counted[path2] = scan.instances(binding_cols, e_attr), scan.total, leaf
                sizes, n_joined, leaf = counted[path2]
                id_head = _id_head(e_attr, crit, path2, cfg.k)
                sql_head, sql_tail = _sql_parts(e_attr, crit, path2, cfg.k)

                ent_key = (pred_cols, path2)
                for inst, (n_entities, n_rows) in sizes.items():
                    if n_entities < cfg.k:
                        continue
                    if ent_key not in entropies:  # the first surviving instance pays for it
                        if fixed:  # the count kept only the rows that pass the fixed atoms
                            entropies[ent_key] = entropy(JoinScan(store, needed2, path2, (), leaf).counts(pred_cols))
                        else:  # the predicate columns are the binding columns (or none): the count's row counts
                            entropies[ent_key] = entropy({key: rows for key, (_, rows) in sizes.items()})
                    parts = shared.get(inst)
                    if parts is None:
                        # binding atoms sort before fixed ones, by column (ConstraintAtom.sort_key)
                        predicate = tuple(
                            ConstraintAtom(ATOM_BINDING, col, "=", value) for col, value in zip(binding_cols, inst)
                        ) + fixed
                        atoms = ", ".join(map(_atom_text, predicate))
                        parts = shared[inst] = predicate, atoms, _where([a.render() for a in predicate])
                    predicate, atoms, where = parts
                    queries.append(HofQuery(
                        query_identity(id_head, atoms), e_attr, predicate, crit, path2, cfg.k,
                        n_rows / n_joined, entropies[ent_key], _sql=sql_head + where + sql_tail,
                    ))

    queries.sort(key=lambda q: (str(q.entity_attr), len(q.predicate), q.sql(), q.id))
    return queries


# ---------------------------------------------------------------------------
# Query catalog persistence (line-delimited JSON)
# ---------------------------------------------------------------------------


def query_to_json(q: HofQuery) -> str:
    doc = {
        "id": q.id,
        "entity": str(q.entity_attr),
        "predicate": [_atom_json(a) for a in q.predicate],
        "criterion": {
            "column": str(q.criterion.column),
            "aggregation": q.criterion.aggregation,
            "direction": q.criterion.direction,
        },
        "join_path": [{"from": str(e.src), "to": str(e.dst)} for e in q.join_path],
        "k": q.k,
        "selectivity": q.selectivity,
        "entropy_bits": q.entropy_bits,
        "sql": q.sql(),
    }
    return json.dumps(doc, sort_keys=True)


def _expect(ok: bool, what: str, value: Any) -> None:
    if not ok:
        raise GenerationError(f"{what}, got {value!r}")


def _parse_ref(text: Any, catalog: SchemaCatalog) -> ColumnRef:
    _expect(isinstance(text, str) and "." in text, "a column must be written relation.column", text)
    relation, column = text.split(".", 1)
    if not catalog.relation(relation).has_column(column):
        raise GenerationError(f"unknown column {text!r} in query catalog")
    return ColumnRef(relation, column)


def query_from_json(line: str, catalog: SchemaCatalog) -> HofQuery:
    """Parse one query catalog line; a field the engine cannot run is a
    GenerationError, and a query the catalog's rules reject a CatalogError."""
    doc = json.loads(line)
    _expect(isinstance(doc, dict), "a query must be a JSON object", doc)
    atoms = []
    for raw in doc["predicate"]:
        _expect(isinstance(raw, dict), "a predicate atom must be an object", raw)
        right = _parse_ref(raw["right"]["column"], catalog) if raw["kind"] == ATOM_INTER else raw["right"]
        atom = ConstraintAtom(raw["kind"], _parse_ref(raw["left"], catalog), raw["comparator"], right)
        catalog.check_atom(atom)
        atoms.append(atom)
    crit, k = doc["criterion"], doc["k"]
    criterion = RankingCriterion(_parse_ref(crit["column"], catalog), crit["aggregation"], crit["direction"])
    catalog.check_criterion(criterion)
    _expect(is_int(k) and is_finite(k) and k >= 1, "k must be a finite integer >= 1", k)
    _expect(isinstance(doc["id"], str), "id must be a string", doc["id"])
    sel, bits = doc["selectivity"], doc["entropy_bits"]
    _expect(is_number(sel) and 0 < sel <= 1, "selectivity must be a number in (0, 1]", sel)  # NaN fails the range
    _expect(is_finite(bits) and bits >= 0, "entropy_bits must be a finite number >= 0", bits)
    entity = _parse_ref(doc["entity"], catalog)
    path = tuple(JoinEdge(_parse_ref(e["from"], catalog), _parse_ref(e["to"], catalog)) for e in doc["join_path"])
    catalog.check_join_path(path, {entity.relation, criterion.column.relation}.union(*(a.relations() for a in atoms)))
    return HofQuery(
        doc["id"], entity, tuple(sorted(atoms, key=ConstraintAtom.sort_key)), criterion, path, k, sel, bits
    )


def dump_queries(queries: Iterable[HofQuery]) -> str:
    return "".join(query_to_json(q) + "\n" for q in queries)


def load_queries(text: str, catalog: SchemaCatalog) -> list[HofQuery]:
    """Parse a query catalog; a bad line raises a GenerationError naming its line number."""
    out: dict[str, HofQuery] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            q = query_from_json(line, catalog)
            _expect(q.id not in out, "duplicate query id", q.id)
        except (KeyError, TypeError, ValueError, RecursionError, CatalogError, GenerationError) as exc:
            raise GenerationError(f"query catalog line {lineno}: {exc}") from exc
        out[q.id] = q
    return list(out.values())

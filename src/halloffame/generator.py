"""Enumerate every valid Hall of Fame query and attach its static scores.

Generation walks (entity attribute x constraint combination x materialized
binding values x concrete criterion). Each relation set's join path is
searched once and memoized, and a query is kept only if its relations join
within the budget and its ranking reaches at least K entities. All binding
instantiations of one combination are evaluated in a single pass over the
joined table, which is what keeps enumeration tractable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Union

from .catalog import (
    ATOM_BINDING,
    ColumnRef,
    ConstraintAtom,
    JoinEdge,
    RankingCriterion,
    SchemaCatalog,
    join_path,
)
from .scorer import entropy
from .store import Store

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
        for existing in sorted(combos, key=lambda c: tuple(sorted(_source_key(s) for s in c))):
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

    @property
    def referenced_columns(self) -> frozenset[ColumnRef]:
        cols = {self.entity_attr, self.criterion.column}
        cols.update(self.predicate_columns())
        for edge in self.join_path:
            cols.update(edge.columns())
        return frozenset(cols)

    def binding_atoms(self) -> tuple[ConstraintAtom, ...]:
        return tuple(a for a in self.predicate if a.kind == ATOM_BINDING)

    def fixed_atoms(self) -> tuple[ConstraintAtom, ...]:
        return tuple(a for a in self.predicate if a.kind != ATOM_BINDING)

    def sql(self) -> str:
        """Human-readable SQL-style rendering, for logs."""
        agg = f"{self.criterion.aggregation.upper()}({self.criterion.column})"
        from_clause = _from_clause(self.join_path, self.relations())
        where = ""
        if self.predicate:
            where = " WHERE " + " AND ".join(a.render() for a in self.predicate)
        order = "ASC" if self.criterion.direction == "ascending" else "DESC"
        return (
            f"SELECT {self.entity_attr}, {agg} FROM {from_clause}{where} "
            f"GROUP BY {self.entity_attr} ORDER BY {agg} {order} LIMIT {self.k}"
        )


def _from_clause(path: tuple[JoinEdge, ...], relations: frozenset[str]) -> str:
    if not path:
        return next(iter(relations))
    parts = []
    seen: set[str] = set()
    for edge in path:
        if not seen:
            parts.append(f"{edge.src.relation} JOIN {edge.dst.relation} ON {edge}")
            seen.update(edge.relations())
        else:
            new = next(iter(edge.relations() - seen), None)
            parts.append(f"JOIN {new} ON {edge}")
            if new:
                seen.add(new)
    return " ".join(parts)


def _atom_json(atom: ConstraintAtom) -> dict:
    right: Any = atom.right
    if isinstance(right, ColumnRef):
        right = {"column": str(right)}
    return {"kind": atom.kind, "left": str(atom.left), "comparator": atom.comparator, "right": right}


def query_identity(
    entity_attr: ColumnRef,
    predicate: tuple[ConstraintAtom, ...],
    criterion: RankingCriterion,
    path: tuple[JoinEdge, ...],
    k: int,
) -> str:
    """Stable content-derived query id."""
    doc = {
        "entity": str(entity_attr),
        "predicate": [_atom_json(a) for a in predicate],
        "criterion": [str(criterion.column), criterion.aggregation, criterion.direction],
        "path": [[str(e.src), str(e.dst)] for e in path],
        "k": k,
    }
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()
    return digest[:16]


def make_query(
    entity_attr: ColumnRef,
    predicate: Iterable[ConstraintAtom],
    criterion: RankingCriterion,
    path: Iterable[JoinEdge],
    k: int,
    selectivity: float,
    entropy_bits: float,
) -> HofQuery:
    predicate = tuple(sorted(predicate, key=ConstraintAtom.sort_key))
    path = tuple(path)
    return HofQuery(
        id=query_identity(entity_attr, predicate, criterion, path, k),
        entity_attr=entity_attr,
        predicate=predicate,
        criterion=criterion,
        join_path=path,
        k=k,
        selectivity=selectivity,
        entropy_bits=entropy_bits,
    )


def _entropy_for(
    store: Store,
    columns: tuple[ColumnRef, ...],
    path: tuple[JoinEdge, ...],
    needed: frozenset[str],
    cache: dict,
) -> float:
    # one value per (column combination, join path): shared by every query
    # using the same constraint sources
    if not columns:
        return 0.0
    key = (columns, path, needed)
    value = cache.get(key)
    if value is None:
        value = entropy(store.instantiation_counts(list(columns), path, needed))
        cache[key] = value
    return value


def compute_static_scores(query: HofQuery, store: Store, cache: Optional[dict] = None) -> tuple[float, float]:
    """(selectivity, entropy_bits) of a query against the loaded data."""
    sel = store.selectivity(query.predicate, query.join_path, needed=query.relations())
    ent = _entropy_for(
        store, query.predicate_columns(), query.join_path, query.relations(), cache if cache is not None else {}
    )
    return sel, ent


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
    entropy_cache: dict = {}
    queries: list[HofQuery] = []

    # relation set -> join_path's answer, searched once; a set with no tree
    # within j_num edges has no joinable superset, so nothing else is pruned
    paths: dict[frozenset, Optional[list[JoinEdge]]] = {}

    for e_attr in entities:
        for comb in combos:
            needed1 = frozenset((e_attr.relation,)) | comb.relations()
            binding_cols = comb.binding_columns()
            fixed = comb.fixed_atoms()
            fam_cache: dict = {}
            for crit in criteria:
                needed2 = needed1 | {crit.column.relation}
                if needed2 not in paths:
                    paths[needed2] = join_path(catalog, needed2, cfg.j_num)
                if paths[needed2] is None or not catalog.allows_relations(needed2):
                    continue
                path2 = tuple(paths[needed2])

                # only row counts are read, so criteria over one relation set share a scan
                fam = fam_cache.get(needed2)
                if fam is None:
                    fam = store.evaluate_family(
                        e_attr, crit.column, needed2, path2, fixed, binding_cols
                    )
                    fam_cache[needed2] = fam

                for inst, slot in fam.per_inst.items():
                    if len(slot.counts) < cfg.k:
                        continue
                    bindings = tuple(
                        ConstraintAtom(ATOM_BINDING, col, "=", value)
                        for col, value in zip(binding_cols, inst)
                    )
                    predicate = tuple(
                        sorted(bindings + fixed, key=ConstraintAtom.sort_key)
                    )
                    sel = sum(slot.counts.values()) / fam.total_rows
                    ent = _entropy_for(
                        store,
                        tuple(sorted({c for a in predicate for c in a.columns()})),
                        path2,
                        needed2,
                        entropy_cache,
                    )
                    queries.append(
                        make_query(e_attr, predicate, crit, path2, cfg.k, sel, ent)
                    )

    queries.sort(key=lambda q: (str(q.entity_attr), len(q.predicate), q.sql(), q.id))
    return queries


def count_unpruned(catalog: SchemaCatalog, cfg: GeneratorConfig, store: Store) -> int:
    """Number of queries that would be generated without the at-least-K rule.

    Bindings still come from materialized value combinations; only the
    result-size pruning is dropped, mirroring the generation baseline used
    for trend comparisons.
    """
    combos = get_combinations(catalog, cfg)
    criteria = sorted(catalog.ranking_criteria, key=RankingCriterion.sort_key)
    total = 0
    for e_attr in catalog.entity_columns():
        for comb in combos:
            needed1 = frozenset((e_attr.relation,)) | comb.relations()
            path1 = join_path(catalog, needed1, cfg.j_num)
            if path1 is None:
                continue
            fam = store.evaluate_family(
                e_attr, e_attr, needed1, tuple(path1), comb.fixed_atoms(), comb.binding_columns()
            )
            n_insts = len(fam.per_inst)
            for crit in criteria:
                needed2 = needed1 | {crit.column.relation}
                if needed2 != needed1 and join_path(catalog, needed2, cfg.j_num) is None:
                    continue
                if not catalog.allows_relations(needed2):
                    continue
                total += n_insts
    return total


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


def _parse_ref(text: str, catalog: SchemaCatalog) -> ColumnRef:
    relation, column = text.split(".", 1)
    if not catalog.relation(relation).has_column(column):
        raise GenerationError(f"unknown column {text!r} in query catalog")
    return ColumnRef(relation, column)


def query_from_json(line: str, catalog: SchemaCatalog) -> HofQuery:
    doc = json.loads(line)
    atoms = []
    for raw in doc["predicate"]:
        right = raw["right"]
        if isinstance(right, dict):
            right = _parse_ref(right["column"], catalog)
        atoms.append(ConstraintAtom(raw["kind"], _parse_ref(raw["left"], catalog), raw["comparator"], right))
    crit = doc["criterion"]
    query = HofQuery(
        id=doc["id"],
        entity_attr=_parse_ref(doc["entity"], catalog),
        predicate=tuple(sorted(atoms, key=ConstraintAtom.sort_key)),
        criterion=RankingCriterion(
            _parse_ref(crit["column"], catalog), crit["aggregation"], crit["direction"]
        ),
        join_path=tuple(
            JoinEdge(_parse_ref(e["from"], catalog), _parse_ref(e["to"], catalog))
            for e in doc["join_path"]
        ),
        k=doc["k"],
        selectivity=doc["selectivity"],
        entropy_bits=doc["entropy_bits"],
    )
    return query


def dump_queries(queries: Iterable[HofQuery]) -> str:
    return "".join(query_to_json(q) + "\n" for q in queries)


def load_queries(text: str, catalog: SchemaCatalog) -> list[HofQuery]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(query_from_json(line, catalog))
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise GenerationError(f"query catalog line {lineno}: {exc}") from exc
    return out

"""In-memory relational store.

Holds the base tables, applies updates and inserts, and evaluates the
query shapes the rest of the engine needs: distinct-value lookups,
predicates, index-nested-loop joins along a fixed edge path, and grouped
top-K aggregation.

Indexing: hash value->rowset indices are kept for every categorical
attribute, every join-edge column, and the key columns (as a composite
key index). Only equality lookups occur in generated predicates, so
hash indices suffice.

Concurrency model: single writer. apply_update is the only mutation and
must be serialized by the caller; between mutations the store behaves as
an immutable snapshot that any number of readers may evaluate against.

Joined-row caching: the row-id tuples produced by a join path are cached
per (path, relations) and stay valid until an update rewrites a join
column of an involved relation or inserts into one, which is when the
cache entry is dropped.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

from .catalog import (
    ATOM_BINDING,
    ColumnRef,
    ConstraintAtom,
    JoinEdge,
    RelationMeta,
    SchemaCatalog,
    join_path,
)


class StoreError(Exception):
    """Store-level failure (bad CSV, bad update, unjoinable relations)."""


class CsvLoadError(StoreError):
    pass


class UpdateError(StoreError):
    pass


_OPS: dict[str, Callable[[Any, Any], bool]] = {
    ">": operator.gt,
    "<": operator.lt,
    "=": operator.eq,
    "!=": operator.ne,
    "<=": operator.le,
    ">=": operator.ge,
}


@dataclass(frozen=True, slots=True)
class Delta:
    """Additive update: new value = old value + amount."""

    amount: Any


@dataclass(frozen=True, slots=True)
class UpdateRecord:
    """One statement of the update stream.

    For kind "update", set_values maps columns to literals or Delta and
    where holds equality conditions. For kind "insert", set_values is the
    full row and where is empty.
    """

    seq: int
    kind: str  # update | insert
    table: str
    set_values: Mapping[str, Any]
    where: Mapping[str, Any]


@dataclass(frozen=True, slots=True)
class RankingState:
    """Materialized top-K list of (entity, aggregate), best first.

    Sorted by aggregate per the query direction; ties broken by ascending
    entity value, so the order is a deterministic total order and never
    contains duplicate entities.
    """

    entries: tuple[tuple[Any, Any], ...]

    def ranks(self) -> dict[Any, int]:
        return {entity: i + 1 for i, (entity, _) in enumerate(self.entries)}

    def entities(self) -> tuple[Any, ...]:
        return tuple(entity for entity, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def build_ranking(
    totals: Mapping[Any, Any],
    counts: Mapping[Any, int],
    aggregation: str,
    direction: str,
    k: Optional[int],
) -> RankingState:
    """Order per-entity totals and row counts into a RankingState, truncated to k."""
    if aggregation == "sum":
        items = list(totals.items())
    else:  # avg: arithmetic mean; groups exist only for present rows, so n >= 1
        items = [(entity, total / counts[entity]) for entity, total in totals.items()]
    items.sort(key=lambda item: item[0])  # ascending-entity tie-break
    items.sort(key=lambda item: item[1], reverse=direction == "descending")
    if k is not None:
        items = items[:k]
    return RankingState(tuple(items))


@dataclass
class FamilyEval:
    """Result of evaluating one query family over a joined table.

    total_rows counts all joined rows (before any predicate), which is the
    selectivity denominator. per_inst maps each binding-value tuple to its
    matching-row count and per-entity criterion totals and row counts.
    """

    total_rows: int
    per_inst: dict[tuple, "InstEval"]


@dataclass
class InstEval:
    row_count: int = 0
    totals: dict[Any, Any] = field(default_factory=dict)  # entity -> sum of criterion values
    counts: dict[Any, int] = field(default_factory=dict)  # entity -> matching rows


class Table:
    """One base table: typed rows plus value->rowset indices."""

    def __init__(self, meta: RelationMeta, indexed_columns: Iterable[str] = ()):
        self.meta = meta
        self.col_pos = {name: i for i, (name, _) in enumerate(meta.columns)}
        self.rows: list[list] = []
        self.indices: dict[str, dict[Any, set[int]]] = {
            col: {} for col in indexed_columns if col in self.col_pos
        }
        self.key_index: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def _index_add(self, rid: int, row: list) -> None:
        for col, index in self.indices.items():
            index.setdefault(row[self.col_pos[col]], set()).add(rid)
        if self.meta.key_columns:
            self.key_index[self._key_of(row)] = rid

    def _key_of(self, row: list) -> tuple:
        return tuple(row[self.col_pos[c]] for c in self.meta.key_columns)

    def append_row(self, row: list) -> int:
        rid = len(self.rows)
        self.rows.append(row)
        self._index_add(rid, row)
        return rid

    def rebuild_indices(self) -> None:
        for col in self.indices:
            self.indices[col] = {}
        self.key_index = {}
        for rid, row in enumerate(self.rows):
            for col, index in self.indices.items():
                index.setdefault(row[self.col_pos[col]], set()).add(rid)
            if self.meta.key_columns:
                self.key_index[self._key_of(row)] = rid


def _coerce_cell(text: str, col_type: str, where: str) -> Any:
    if col_type == "text":
        return sys.intern(text)  # equal cells share one object
    stripped = text.strip()
    try:
        if col_type == "integer":
            return int(stripped)
        value = float(stripped)
    except ValueError:
        raise CsvLoadError(f"{where}: cannot parse {text!r} as {col_type}") from None
    if not math.isfinite(value):
        raise CsvLoadError(f"{where}: non-finite value {text!r}")
    return value


def _check_value(value: Any, col_type: str, where: str) -> Any:
    if col_type == "text":
        if not isinstance(value, str):
            raise UpdateError(f"{where}: expected text, got {value!r}")
        return sys.intern(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UpdateError(f"{where}: expected {col_type}, got {value!r}")
    if col_type == "integer":
        if isinstance(value, float):
            if not value.is_integer():
                raise UpdateError(f"{where}: expected integer, got {value!r}")
            return int(value)
        return value
    value = float(value)
    if not math.isfinite(value):
        raise UpdateError(f"{where}: non-finite value {value!r}")
    return value


def load_table(meta: RelationMeta, csv_text: str, indexed_columns: Iterable[str] = ()) -> Table:
    """Build a table from CSV text (UTF-8, header row, RFC-4180 quoting)."""
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvLoadError(f"table {meta.name!r}: CSV has no header row") from None
    declared = meta.column_names()
    missing = [c for c in declared if c not in header]
    extra = [c for c in header if c not in declared]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing columns {missing}")
        if extra:
            parts.append(f"unknown columns {extra}")
        raise CsvLoadError(f"table {meta.name!r}: {'; '.join(parts)}")
    if len(set(header)) != len(header):
        raise CsvLoadError(f"table {meta.name!r}: duplicate header columns")

    table = Table(meta, indexed_columns)
    src_pos = [header.index(c) for c in declared]
    types = [t for _, t in meta.columns]
    for rownum, record in enumerate(reader, start=1):
        if not record:
            continue
        if len(record) != len(header):
            raise CsvLoadError(f"table {meta.name!r}, row {rownum}: expected {len(header)} cells")
        row = [
            _coerce_cell(record[src], types[i], f"table {meta.name!r}, row {rownum}, column {declared[i]!r}")
            for i, src in enumerate(src_pos)
        ]
        if meta.key_columns:
            key = tuple(row[table.col_pos[c]] for c in meta.key_columns)
            if key in table.key_index:
                raise CsvLoadError(f"table {meta.name!r}, row {rownum}: duplicate key {key}")
        table.append_row(row)
    return table


def compile_predicate(
    atoms: Iterable[ConstraintAtom],
    rel_pos: Mapping[str, int],
    tables: Mapping[str, Table],
) -> Callable[[tuple], bool]:
    """Compile a conjunction into a single env -> bool callable.

    An env is a tuple of row ids aligned with the relation order of some
    joined table; rel_pos maps relation names to env positions.
    """
    compiled = []
    for atom in atoms:
        op = _OPS[atom.comparator]
        li = rel_pos[atom.left.relation]
        lrows = tables[atom.left.relation].rows
        lp = tables[atom.left.relation].col_pos[atom.left.column]
        if isinstance(atom.right, ColumnRef):
            ri = rel_pos[atom.right.relation]
            rrows = tables[atom.right.relation].rows
            rp = tables[atom.right.relation].col_pos[atom.right.column]
            compiled.append(
                lambda env, op=op, li=li, lrows=lrows, lp=lp, ri=ri, rrows=rrows, rp=rp: op(
                    lrows[env[li]][lp], rrows[env[ri]][rp]
                )
            )
        else:
            compiled.append(
                lambda env, op=op, li=li, lrows=lrows, lp=lp, const=atom.right: op(
                    lrows[env[li]][lp], const
                )
            )
    if not compiled:
        return lambda env: True
    if len(compiled) == 1:
        return compiled[0]
    return lambda env: all(check(env) for check in compiled)


class Store:
    """All loaded tables plus join evaluation for one catalog."""

    def __init__(self, catalog: SchemaCatalog):
        self.catalog = catalog
        self.tables: dict[str, Table] = {}
        # (path, relations) -> (rel_order, envs, join column names per relation)
        self._join_cache: dict[tuple, tuple] = {}

    # -- loading ------------------------------------------------------------

    def load_table(self, relation: str, csv_text: str) -> Table:
        meta = self.catalog.relation(relation)
        indexed = set(meta.categorical_attrs) | self.catalog.join_columns(relation)
        table = load_table(meta, csv_text, indexed)
        self.tables[relation] = table
        self._join_cache.clear()
        return table

    def table(self, relation: str) -> Table:
        try:
            return self.tables[relation]
        except KeyError:
            raise StoreError(f"table {relation!r} not loaded") from None

    # -- updates ------------------------------------------------------------

    def match_rows(self, u: UpdateRecord) -> list[int]:
        """Row ids matching u.where in the current (pre-update) state."""
        if u.kind != "update":
            return []
        table = self.table(u.table)
        pos = table.col_pos
        for col in u.where:
            if col not in pos:
                raise UpdateError(f"update {u.seq}: unknown column {u.table}.{col}")
        where = dict(u.where)
        if table.meta.key_columns and set(where) >= set(table.meta.key_columns):
            key = tuple(where[c] for c in table.meta.key_columns)
            rid = table.key_index.get(key)
            candidates: Iterable[int] = [] if rid is None else [rid]
        else:
            indexed = [c for c in where if c in table.indices]
            if indexed:
                col = indexed[0]
                candidates = sorted(table.indices[col].get(where[col], ()))
            else:
                candidates = range(len(table.rows))
        rows = table.rows
        return [rid for rid in candidates if all(rows[rid][pos[c]] == v for c, v in where.items())]

    def apply_update(self, u: UpdateRecord) -> list[int]:
        """Apply one update or insert; returns the touched row ids (sorted)."""
        table = self.table(u.table)
        pos = table.col_pos
        for col in u.set_values:
            if col not in pos:
                raise UpdateError(f"update {u.seq}: unknown column {u.table}.{col}")
        types = dict(table.meta.columns)

        if u.kind == "insert":
            declared = set(table.col_pos)
            given = set(u.set_values)
            if given != declared:
                raise UpdateError(
                    f"insert {u.seq}: row must supply exactly the columns of {u.table} "
                    f"(missing {sorted(declared - given)}, extra {sorted(given - declared)})"
                )
            row = [None] * len(pos)
            for col, value in u.set_values.items():
                if isinstance(value, Delta):
                    raise UpdateError(f"insert {u.seq}: delta values are not allowed in inserts")
                row[pos[col]] = _check_value(value, types[col], f"insert {u.seq}, column {col}")
            if table.meta.key_columns:
                key = table._key_of(row)
                if key in table.key_index:
                    raise UpdateError(f"insert {u.seq}: duplicate key {key} in {u.table}")
            rid = table.append_row(row)
            self._invalidate(u.table, set(u.set_values), inserted=True)
            return [rid]

        if u.kind != "update":
            raise UpdateError(f"update {u.seq}: unknown kind {u.kind!r}")

        ids = self.match_rows(u)
        # validate every new value first so a bad update mutates nothing
        pending: list[tuple[int, str, Any]] = []
        for rid in ids:
            row = table.rows[rid]
            for col, value in u.set_values.items():
                where = f"update {u.seq}, column {col}"
                if isinstance(value, Delta):
                    if types[col] == "text":
                        raise UpdateError(f"{where}: delta on text column")
                    new = _check_value(row[pos[col]] + value.amount, types[col], where)
                else:
                    new = _check_value(value, types[col], where)
                pending.append((rid, col, new))

        changed_cols: set[str] = set()
        key_cols = set(table.meta.key_columns)
        for rid, col, new in pending:
            row = table.rows[rid]
            old = row[pos[col]]
            if new == old:
                continue
            if col in table.indices:
                bucket = table.indices[col]
                bucket[old].discard(rid)
                if not bucket[old]:
                    del bucket[old]
                bucket.setdefault(new, set()).add(rid)
            row[pos[col]] = new
            changed_cols.add(col)
        if changed_cols & key_cols:
            table.key_index = {table._key_of(r): i for i, r in enumerate(table.rows)}
        if changed_cols:
            self._invalidate(u.table, changed_cols, inserted=False)
        return sorted(ids)

    def drop_join_cache(self) -> None:
        """Free every cached joined table; later scans rebuild what they need."""
        self._join_cache.clear()

    def _invalidate(self, relation: str, written: set[str], inserted: bool) -> None:
        written_refs = {ColumnRef(relation, c) for c in written}
        stale = []
        for key, (rel_order, _, join_cols) in self._join_cache.items():
            if relation not in rel_order:
                continue
            if inserted or written_refs & join_cols:
                stale.append(key)
        for key in stale:
            del self._join_cache[key]

    # -- join evaluation ----------------------------------------------------

    def joined_rows(
        self, needed: Iterable[str], path: tuple[JoinEdge, ...]
    ) -> tuple[tuple[str, ...], list[tuple], frozenset[ColumnRef]]:
        """Materialize the joined table for a path as row-id tuples.

        Returns (relation order, envs, join columns). With an empty path the
        single needed relation is returned row by row. Cached until a
        mutation invalidates it.
        """
        path = tuple(path)
        needed_set = frozenset(needed)
        key = (path, needed_set)
        cached = self._join_cache.get(key)
        if cached is not None:
            return cached

        if not path:
            if len(needed_set) != 1:
                raise StoreError(f"empty join path cannot cover relations {sorted(needed_set)}")
            rel = next(iter(needed_set))
            table = self.table(rel)
            result = ((rel,), [(rid,) for rid in range(len(table.rows))], frozenset())
            self._join_cache[key] = result
            return result

        join_cols = frozenset(ref for edge in path for ref in edge.columns())
        rel_order: list[str] = []
        envs: list[tuple] = []
        for edge in path:
            if not rel_order:
                a, b = edge.src, edge.dst
                ta, tb = self.table(a.relation), self.table(b.relation)
                idx = tb.indices.get(b.column)
                if idx is None:
                    raise StoreError(f"join column {b} is not indexed")
                apos = ta.col_pos[a.column]
                rel_order = [a.relation, b.relation]
                for rid_a, row in enumerate(ta.rows):
                    for rid_b in sorted(idx.get(row[apos], ())):
                        envs.append((rid_a, rid_b))
                continue
            known_rels = set(rel_order)
            rels = edge.relations()
            new_rels = rels - known_rels
            if len(new_rels) != 1:
                raise StoreError(f"join path edge {edge} does not extend the joined relations")
            new_rel = next(iter(new_rels))
            new_ref = edge.endpoint(new_rel)
            old_ref = edge.other(new_rel)
            tn = self.table(new_rel)
            idx = tn.indices.get(new_ref.column)
            if idx is None:
                raise StoreError(f"join column {new_ref} is not indexed")
            to_table = self.table(old_ref.relation)
            oi = rel_order.index(old_ref.relation)
            opos = to_table.col_pos[old_ref.column]
            orows = to_table.rows
            extended = []
            for env in envs:
                value = orows[env[oi]][opos]
                for rid_n in sorted(idx.get(value, ())):
                    extended.append(env + (rid_n,))
            envs = extended
            rel_order.append(new_rel)

        uncovered = needed_set - set(rel_order)
        if uncovered:
            raise StoreError(f"join path does not reach relations {sorted(uncovered)}")
        result = (tuple(rel_order), envs, join_cols)
        self._join_cache[key] = result
        return result

    def _relations_for(
        self,
        path: tuple[JoinEdge, ...],
        columns: Iterable[ColumnRef] = (),
        atoms: Iterable[ConstraintAtom] = (),
        needed: Optional[Iterable[str]] = None,
    ) -> frozenset[str]:
        rels = set(needed or ())
        rels.update(c.relation for c in columns)
        for atom in atoms:
            rels.update(atom.relations())
        for edge in path:
            rels.update(edge.relations())
        return frozenset(rels)

    # -- spec operations ----------------------------------------------------

    def select_distinct(
        self, attrs: list[ColumnRef], fixed_atoms: Iterable[ConstraintAtom] = ()
    ) -> set[tuple]:
        """Distinct value tuples of attrs over the joined data, restricted by
        fixed_atoms. Only combinations materialized in the data appear.

        With no attrs and no atoms the single empty instantiation is returned.
        """
        fixed_atoms = tuple(fixed_atoms)
        needed = self._relations_for((), attrs, fixed_atoms)
        if not needed:
            return {()}
        path = join_path(self.catalog, needed, len(self.catalog.join_edges))
        if path is None:
            raise StoreError(f"relations {sorted(needed)} are not joinable")
        rel_order, envs, _ = self.joined_rows(needed, tuple(path))
        rel_pos = {rel: i for i, rel in enumerate(rel_order)}
        check = compile_predicate(fixed_atoms, rel_pos, self.tables)
        getters = [
            (rel_pos[a.relation], self.table(a.relation).col_pos[a.column], self.table(a.relation).rows)
            for a in attrs
        ]
        out: set[tuple] = set()
        for env in envs:
            if check(env):
                out.add(tuple(rows[env[i]][p] for i, p, rows in getters))
        return out

    def instantiation_counts(
        self,
        columns: list[ColumnRef],
        path: tuple[JoinEdge, ...],
        needed: Optional[Iterable[str]] = None,
    ) -> dict[tuple, int]:
        """Count each distinct projection of ``columns`` over the joined rows."""
        rels = self._relations_for(tuple(path), columns, needed=needed)
        rel_order, envs, _ = self.joined_rows(rels, tuple(path))
        rel_pos = {rel: i for i, rel in enumerate(rel_order)}
        getters = [
            (rel_pos[c.relation], self.table(c.relation).col_pos[c.column], self.table(c.relation).rows)
            for c in columns
        ]
        counts: dict[tuple, int] = {}
        for env in envs:
            key = tuple(rows[env[i]][p] for i, p, rows in getters)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def selectivity(
        self,
        predicate: Iterable[ConstraintAtom],
        path: tuple[JoinEdge, ...],
        needed: Optional[Iterable[str]] = None,
    ) -> float:
        """Fraction of the joined rows satisfying the predicate."""
        predicate = tuple(predicate)
        rels = self._relations_for(tuple(path), atoms=predicate, needed=needed)
        if not rels:
            raise StoreError("selectivity needs at least one relation; pass needed=")
        rel_order, envs, _ = self.joined_rows(rels, tuple(path))
        if not envs:
            raise StoreError("empty data table")
        rel_pos = {rel: i for i, rel in enumerate(rel_order)}
        check = compile_predicate(predicate, rel_pos, self.tables)
        hits = sum(1 for env in envs if check(env))
        return hits / len(envs)

    def evaluate_family(
        self,
        entity: ColumnRef,
        crit_column: ColumnRef,
        needed: Iterable[str],
        path: tuple[JoinEdge, ...],
        fixed_atoms: tuple[ConstraintAtom, ...] = (),
        binding_cols: tuple[ColumnRef, ...] = (),
        insts: Optional[set] = None,
        exact: bool = False,
    ) -> FamilyEval:
        """Grouped aggregation for every binding instantiation in one pass.

        A "family" is every query sharing entity attribute, criterion column,
        join path and constraint sources; its members differ only in binding
        values, so all of them fall out of a single scan of the joined table.
        insts restricts the scan to the given binding tuples. Totals of a
        real criterion column are the correctly rounded math.fsum of their
        values, whatever the row order, or with exact=True the exact
        Fraction sum.
        """
        rel_order, envs, _ = self.joined_rows(needed, tuple(path))
        rel_pos = {rel: i for i, rel in enumerate(rel_order)}
        check = compile_predicate(fixed_atoms, rel_pos, self.tables)

        def getter(ref: ColumnRef):
            table = self.table(ref.relation)
            return rel_pos[ref.relation], table.col_pos[ref.column], table.rows

        ei, ep, erows = getter(entity)
        ci, cp, crows = getter(crit_column)
        bind = [getter(c) for c in binding_cols]
        real = self.catalog.column_type(crit_column) == "real"

        result = FamilyEval(total_rows=len(envs), per_inst={})
        per_inst = result.per_inst
        for env in envs:
            if not check(env):
                continue
            inst = tuple(rows[env[i]][p] for i, p, rows in bind)
            if insts is not None and inst not in insts:
                continue
            slot = per_inst.get(inst)
            if slot is None:
                slot = per_inst[inst] = InstEval()
            slot.row_count += 1
            ent = erows[env[ei]][ep]
            value = crows[env[ci]][cp]
            counts = slot.counts
            if ent in counts:
                slot.totals[ent] += [value] if real else value
                counts[ent] += 1
            else:
                slot.totals[ent] = [value] if real else value
                counts[ent] = 1
        if real:
            for slot in per_inst.values():
                totals = slot.totals
                for ent, values in totals.items():
                    totals[ent] = sum(map(Fraction, values), Fraction()) if exact else math.fsum(values)
        return result

    def evaluate_hof(self, query) -> RankingState:
        """Evaluate one generated query against the current snapshot."""
        bindings = tuple(a for a in query.predicate if a.kind == ATOM_BINDING)
        fixed = tuple(a for a in query.predicate if a.kind != ATOM_BINDING)
        binding_cols = tuple(a.left for a in bindings)
        inst = tuple(a.right for a in bindings)
        fam = self.evaluate_family(
            query.entity_attr,
            query.criterion.column,
            query.relations(),
            query.join_path,
            fixed,
            binding_cols,
            insts={inst},
        )
        slot = fam.per_inst.get(inst) or InstEval()
        return build_ranking(
            slot.totals, slot.counts, query.criterion.aggregation, query.criterion.direction, query.k
        )


# ---------------------------------------------------------------------------
# Update stream serialization (line-delimited JSON)
# ---------------------------------------------------------------------------


def update_to_json(u: UpdateRecord) -> str:
    set_out = {
        col: ({"delta": v.amount} if isinstance(v, Delta) else v)
        for col, v in u.set_values.items()
    }
    doc = {"seq": u.seq, "kind": u.kind, "table": u.table, "set": set_out, "where": dict(u.where)}
    return json.dumps(doc, sort_keys=True)


def update_from_json(line: str) -> UpdateRecord:
    doc = json.loads(line)
    set_values = {}
    for col, v in doc["set"].items():
        if isinstance(v, dict):
            if set(v) != {"delta"}:
                raise StoreError(f"bad set value for column {col!r}: {v!r}")
            set_values[col] = Delta(v["delta"])
        else:
            set_values[col] = v
    return UpdateRecord(
        seq=doc["seq"],
        kind=doc["kind"],
        table=doc["table"],
        set_values=set_values,
        where=doc.get("where", {}),
    )


def write_update_stream(updates: Iterable[UpdateRecord]) -> str:
    return "".join(update_to_json(u) + "\n" for u in updates)


def read_update_stream(text: str) -> Iterator[UpdateRecord]:
    """Parse a stream, enforcing strictly increasing sequence numbers."""
    last = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            u = update_from_json(line)
        except (json.JSONDecodeError, KeyError) as exc:
            raise StoreError(f"update stream line {lineno}: {exc}") from exc
        if last is not None and u.seq <= last:
            raise StoreError(f"update stream line {lineno}: seq {u.seq} not increasing")
        last = u.seq
        yield u

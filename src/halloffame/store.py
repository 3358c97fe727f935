"""In-memory relational store.

Holds the base tables and applies updates and inserts. For the rest of the
engine it compiles predicates, materializes index-nested-loop joins along a
fixed edge path, and scans their rows that satisfy a conjunction, a leaf
relation summed per join value (JoinScan), for generation's counts and the
detector's family scans. It holds no ranking code: grouping rows into
rankings, ordering them and diffing them are the detector's and the
reference's.

Indexing: a row is reached by its key or by a join value, so only those
are indexed: the composite key index serves a where that names the whole
key, an insert and a key move, and a hash value->rowset index on every
join-edge column serves joins, leaf sums and the detector's row extension.
Any other where scans the table.

Concurrency model: single writer. apply_update is the only mutation and
must be serialized by the caller; between mutations the store behaves as
an immutable snapshot that any number of readers may evaluate against.

Joined-row caching: the row-id tuples produced by a join path are cached
per path, whatever relations a caller needs from them. Every insert and
every update that changes a value clears the whole cache. Set-up never
writes, and generation and the engine's start-up pick a leaf by one rule
(leaf_edge) and join the same path without it, so start-up reuses
generation's reduced joins. Nothing scans after a write: the delta path
reads no joined rows, and the from-scratch reference joins the base rows
itself.

Set-up in bulk: loading, joining and counting do start-up's per-row work,
so each works a row or a column at a time: one comprehension of
per-column converters per CSV row, one pass per indexed column after the
last row, one tuple list per join bucket and edge, and one Counter over the
zipped values of each column, whose loop runs in C and builds no key in
Python (a summed leaf adds each row's weight).
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .catalog import (
    CatalogError,
    ColumnRef,
    ConstraintAtom,
    JoinEdge,
    RelationMeta,
    SchemaCatalog,
    is_int,
    is_number,
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


@dataclass(slots=True)
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


class Table:
    """One base table: typed rows plus value->rowset indices."""

    def __init__(self, meta: RelationMeta, indexed_columns: Iterable[str] = ()):
        self.meta = meta
        self.col_pos = {name: i for i, (name, _) in enumerate(meta.columns)}
        self.types = dict(meta.columns)  # column -> declared type
        self.rows: list[list] = []
        self.indices: dict[str, dict[Any, set[int]]] = {col: {} for col in indexed_columns}
        self.key_index: dict[tuple, int] = {}
        self.key_set = frozenset(meta.key_columns)
        self._key_pos = [self.col_pos[c] for c in meta.key_columns]

    def __len__(self) -> int:
        return len(self.rows)

    def _key_of(self, row: list) -> tuple:
        return tuple(map(row.__getitem__, self._key_pos))

    def append_row(self, row: list) -> int:
        rid = len(self.rows)
        self.rows.append(row)
        for col, index in self.indices.items():
            index.setdefault(row[self.col_pos[col]], set()).add(rid)
        if self.meta.key_columns:
            self.key_index[self._key_of(row)] = rid
        return rid


class _NonFinite(ValueError):
    """A real cell that parses to inf or nan."""


def _finite_float(text: str) -> float:
    value = float(text) + 0.0  # a real -0.0 is stored as 0.0: a column holds one zero
    if not math.isfinite(value):
        raise _NonFinite(text)
    return value


# per column type: text -> value, raising ValueError on a cell it rejects
_CONVERTERS: dict[str, Callable[[str], Any]] = {"text": sys.intern, "integer": int, "real": _finite_float}


def _coerce_cell(text: str, col_type: str, where: str) -> Any:
    """A cell's value by _CONVERTERS; a cell they reject is a located CsvLoadError."""
    try:
        return _CONVERTERS[col_type](text)
    except _NonFinite:
        raise CsvLoadError(f"{where}: non-finite value {text!r}") from None
    except ValueError:
        raise CsvLoadError(f"{where}: cannot parse {text!r} as {col_type}") from None


class _BadValue(Exception):
    """A value that does not fit its column; the caller, which knows where
    the value was, raises the UpdateError that names it."""


def _check_value(value: Any, col_type: str) -> Any:
    """value as a col_type column stores it, or _BadValue."""
    if col_type == "text":
        if not isinstance(value, str):
            raise _BadValue(f"expected text, got {value!r}")
        return sys.intern(value)
    if not is_number(value):
        raise _BadValue(f"expected {col_type}, got {value!r}")
    if col_type == "integer":
        if isinstance(value, float):
            if not value.is_integer():
                raise _BadValue(f"expected integer, got {value!r}")
            return int(value)
        return value
    try:
        value = float(value) + 0.0  # -0.0 is stored as 0.0, as load_table stores it
    except OverflowError:  # an int beyond the float range
        raise _BadValue("integer out of the real range") from None
    if not math.isfinite(value):
        raise _BadValue(f"non-finite value {value!r}")
    return value


def _unreadable(relation: str, reader: Any, exc: csv.Error) -> CsvLoadError:
    """The located error of a record the csv module cannot read (a cell beyond its field limit, say)."""
    return CsvLoadError(f"table {relation!r}, line {reader.line_num}: {exc}")


def load_table(meta: RelationMeta, csv_text: str, indexed_columns: Iterable[str] = ()) -> Table:
    """Build a table from CSV text (UTF-8, header row, RFC-4180 quoting).

    Each row is converted in one comprehension of per-column converters
    (sys.intern, int, a float that rejects non-finite values and stores
    -0.0 as 0.0); a row that raises is converted again cell by cell with
    _coerce_cell, which names the bad cell. The key index and every value
    index are built after the last row, one pass per column, holding what
    append_row would hold. The first bad row in file order is named, whether
    its cell, cell count or key is wrong: before a bad cell or cell count
    is named, the rows before it are checked for a duplicate key.
    """
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvLoadError(f"table {meta.name!r}: CSV has no header row") from None
    except csv.Error as exc:
        raise _unreadable(meta.name, reader, exc) from None
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
    rows = table.rows
    blank: list[int] = []  # numbers of the empty records, which hold no row
    src_pos = [header.index(c) for c in declared]
    types = [t for _, t in meta.columns]
    converters = [(_CONVERTERS[t], src) for t, src in zip(types, src_pos)]
    try:
        for rownum, record in enumerate(reader, start=1):
            if not record:
                blank.append(rownum)
                continue
            if len(record) != len(header):
                raise CsvLoadError(f"table {meta.name!r}, row {rownum}: expected {len(header)} cells")
            try:
                row = [convert(record[src]) for convert, src in converters]
            except ValueError:  # the cell-by-cell path names the bad cell
                row = [
                    _coerce_cell(record[src], types[i], f"table {meta.name!r}, row {rownum}, column {declared[i]!r}")
                    for i, src in enumerate(src_pos)
                ]
            rows.append(row)
    except (CsvLoadError, csv.Error) as exc:
        _index_keys(table, blank, range(len(rows)))  # a duplicate key in an earlier row comes first
        if isinstance(exc, csv.Error):
            raise _unreadable(meta.name, reader, exc) from None
        raise
    ids = list(range(len(rows)))  # one int per row id, shared by every index as append_row shares it
    _index_keys(table, blank, ids)
    for col, index in table.indices.items():
        for rid, value in zip(ids, map(operator.itemgetter(table.col_pos[col]), rows)):
            index.setdefault(value, set()).add(rid)
    return table


def _index_keys(table: Table, blank: list[int], ids: Sequence[int]) -> None:
    """Fill the key index of a table's rows, whose ids are given; a
    duplicate key raises, naming its first repeating row by its number
    among the records, blank ones included."""
    if not table.meta.key_columns:
        return
    keys = list(zip(*(map(operator.itemgetter(p), table.rows) for p in table._key_pos)))
    table.key_index = dict(zip(keys, ids))
    if len(table.key_index) == len(keys):
        return
    first: dict[tuple, int] = {}
    rid = next(rid for rid, key in enumerate(keys) if first.setdefault(key, rid) != rid)
    rownum = rid + 1
    for number in blank:
        rownum += number <= rownum
    raise CsvLoadError(f"table {table.meta.name!r}, row {rownum}: duplicate key {keys[rid]}") from None


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
    if len(compiled) == 1:
        return compiled[0]
    return lambda env: all(check(env) for check in compiled)


class Store:
    """All loaded tables plus join evaluation for one catalog."""

    def __init__(self, catalog: SchemaCatalog):
        self.catalog = catalog
        self.tables: dict[str, Table] = {}
        # (first relation, path) -> (rel_order, envs)
        self._join_cache: dict[tuple, tuple] = {}
        self.rows_read = 0  # joined rows read so far: every JoinScan's, and the reference's start-up joins

    # -- loading ------------------------------------------------------------

    def load_table(self, relation: str, csv_text: str) -> Table:
        meta = self.catalog.relation(relation)
        table = load_table(meta, csv_text, self.catalog.join_columns(relation))
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
        """Row ids matching u.where in the current (pre-update) state. Every
        where column is validated; a where that names the whole key is then
        one key-index probe whose other columns alone are compared, any
        other where scans the table."""
        if u.kind != "update":
            return []
        table = self.table(u.table)
        pos, types = table.col_pos, table.types
        where = {}
        for col, value in u.where.items():
            if col not in pos:
                raise UpdateError(f"update {u.seq}: unknown column {u.table}.{col}")
            try:
                where[col] = _check_value(value, types[col])
            except _BadValue as exc:
                raise UpdateError(f"update {u.seq}, where column {col}: {exc}") from None
        key_set = table.key_set
        if key_set and where.keys() >= key_set:
            rid = table.key_index.get(tuple([where[c] for c in table.meta.key_columns]))
            if rid is None:
                return []
            row = table.rows[rid]
            return [rid] if all(row[pos[c]] == v for c, v in where.items() if c not in key_set) else []
        return [rid for rid, row in enumerate(table.rows) if all(row[pos[c]] == v for c, v in where.items())]

    def apply_update(self, u: UpdateRecord, ids: Optional[list[int]] = None) -> list[int]:
        """Apply one update or insert; returns the touched row ids (sorted).

        ids, when given, must be what match_rows(u) returns in the current
        state; a caller that already matched the update passes them so the
        rows are not matched twice.
        """
        table = self.table(u.table)
        pos, types = table.col_pos, table.types
        for col in u.set_values:
            if col not in pos:
                raise UpdateError(f"update {u.seq}: unknown column {u.table}.{col}")

        if u.kind == "insert":
            if u.where:
                raise UpdateError(f"insert {u.seq}: an insert takes no where, got {dict(u.where)!r}")
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
                try:
                    row[pos[col]] = _check_value(value, types[col])
                except _BadValue as exc:
                    raise UpdateError(f"insert {u.seq}, column {col}: {exc}") from None
            if table.meta.key_columns:
                key = table._key_of(row)
                if key in table.key_index:
                    raise UpdateError(f"insert {u.seq}: duplicate key {key} in {u.table}")
            rid = table.append_row(row)
            self._join_cache.clear()
            return [rid]

        if u.kind != "update":
            raise UpdateError(f"update {u.seq}: unknown kind {u.kind!r}")

        if ids is None:
            ids = self.match_rows(u)
        # validate every new value first so a bad update mutates nothing
        pending: list[tuple[int, str, Any]] = []
        try:
            for rid in ids:
                row = table.rows[rid]
                for col, value in u.set_values.items():
                    if isinstance(value, Delta):
                        if types[col] == "text":
                            raise _BadValue("delta on text column")
                        try:
                            new = row[pos[col]] + value.amount
                        except OverflowError:  # a float plus an int beyond the float range
                            raise _BadValue("delta out of the real range") from None
                        new = _check_value(new, types[col])
                    else:
                        new = _check_value(value, types[col])
                    pending.append((rid, col, new))
        except _BadValue as exc:
            raise UpdateError(f"update {u.seq}, column {col}: {exc}") from None
        if not table.key_set.isdisjoint(u.set_values):
            new_keys = self._check_keys(table, u, pending)
            for rid in ids:
                del table.key_index[table._key_of(table.rows[rid])]
            table.key_index.update(new_keys)

        changed_cols: set[str] = set()
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
        if changed_cols:
            self._join_cache.clear()
        return sorted(ids)

    @staticmethod
    def _check_keys(table: Table, u: UpdateRecord, pending: list[tuple[int, str, Any]]) -> dict[tuple, int]:
        """Each moved row's new key -> row id. Rejects an update that would
        give two rows the same key, either by moving a row onto an unmoved
        row's key or two rows onto one key."""
        moved = {rid: list(table.rows[rid]) for rid, _, _ in pending}
        for rid, col, new in pending:
            moved[rid][table.col_pos[col]] = new
        seen: dict[tuple, int] = {}
        for rid, row in moved.items():
            key = table._key_of(row)
            holder = table.key_index.get(key)
            if key in seen or (holder is not None and holder not in moved):
                raise UpdateError(f"update {u.seq}: duplicate key {key} in {u.table}")
            seen[key] = rid
        return seen

    def drop_join_cache(self) -> None:
        """Free every cached joined table; later scans rebuild what they need."""
        self._join_cache.clear()

    # -- join evaluation ----------------------------------------------------

    def joined_rows(self, needed: Iterable[str], path: tuple[JoinEdge, ...]) -> tuple[tuple[str, ...], list[tuple]]:
        """Materialize the joined table for a path as row-id tuples.

        Returns (relation order, envs): every row of the path's first relation
        (the single needed relation when the path is empty), extended edge by
        edge through index buckets, in no promised order. Cached until the
        next write. A path that the catalog's join-path rule rejects for the
        needed relations is a StoreError.
        """
        path = tuple(path)
        try:
            start = self.catalog.check_join_path(path, needed)
        except CatalogError as exc:
            raise StoreError(str(exc)) from None
        key = (start, path)  # the envs depend on nothing else
        cached = self._join_cache.get(key)
        if cached is None:
            cached = self._join_cache[key] = self._join(start, path)
        return cached

    def _join(self, start: str, path: tuple[JoinEdge, ...]) -> tuple[tuple[str, ...], list[tuple]]:
        """The joined envs of a path the join-path rule accepts, uncached: the
        start relation's row ids, each extended at every step of join_steps
        by the matching rows of the new relation (whose join column is
        indexed, as every join edge's is), in no promised order. Each
        distinct join value's index bucket becomes one-element tuples once
        per step, not once per env that reaches it."""
        rel_order = [start]
        envs = [(rid,) for rid in range(len(self.table(start).rows))]
        for old_ref, new_ref in join_steps(path, start):
            idx = self.table(new_ref.relation).indices[new_ref.column]
            to_table = self.table(old_ref.relation)
            oi = rel_order.index(old_ref.relation)
            opos = to_table.col_pos[old_ref.column]
            orows = to_table.rows
            values = [orows[env[oi]][opos] for env in envs]
            # each bucket once, as one-element tuples ready to append
            buckets = {v: [(rid,) for rid in idx.get(v, ())] for v in set(values)}
            envs = [env + tail for env, v in zip(envs, values) for tail in buckets[v]]
            rel_order.append(new_ref.relation)
        return tuple(rel_order), envs


def join_steps(path: Iterable[JoinEdge], base: str) -> list[tuple[ColumnRef, ColumnRef]]:
    """Each edge of a tree path over base, in the order a join from base
    takes them, as (endpoint already joined, endpoint it adds): always the
    first remaining edge that adds one relation, so a path the join-path
    rule accepts is walked in its own order from its start."""
    joined, remaining, steps = {base}, list(path), []
    while remaining:
        edge = next(e for e in remaining if len(e.relations() - joined) == 1)
        remaining.remove(edge)
        (new,) = edge.relations() - joined
        steps.append((edge.other(new), edge.endpoint(new)))
        joined.add(new)
    return steps


def leaf_edge(path: tuple[JoinEdge, ...], columns: Iterable[ColumnRef], held: Iterable[ColumnRef]) -> JoinEdge | None:
    """The path's edge to the one relation of columns, when that relation holds
    no column of held and no other edge touches it: a leaf to sum first."""
    (rel, *more) = {c.relation for c in columns}
    edges = [e for e in path if rel in e.relations()]
    return edges[0] if not more and len(edges) == 1 and all(c.relation != rel for c in held) else None


class JoinScan:
    """The joined rows of a path that pass a conjunction, read a column at a
    time, each weighted by the rows of the whole path's join it stands for.

    A leaf relation (leaf_edge) is summed per join value (eager aggregation)
    and the rest of the path joined without it; rows without leaf rows are
    dropped. Rows, and so the keys of counts, come in no promised order."""

    def __init__(self, store: Store, needed: Iterable[str], path: tuple[JoinEdge, ...], atoms=(), leaf=None):
        self.store, self.leaf, self.buckets = store, leaf, None  # buckets: join value -> leaf row ids
        if leaf:
            (edge,) = [e for e in path if leaf in e.relations()]
            self.joined, self.buckets = edge.other(leaf), store.table(leaf).indices[edge.endpoint(leaf).column]
            needed, path = set(needed) - {leaf}, tuple(e for e in path if e != edge)
        rel_order, self.envs = store.joined_rows(needed, path)
        store.rows_read += len(self.envs)
        self.rel_pos = {rel: i for i, rel in enumerate(rel_order)}
        if leaf:
            self.envs = list(compress(self.envs, map(self.buckets.__contains__, self.values(self.joined))))
        self.unfiltered = self.envs  # before the atoms
        if atoms:
            self.envs = list(filter(compile_predicate(atoms, self.rel_pos, store.tables), self.envs))

    @property
    def total(self) -> int:
        """Rows of the whole join, before the atoms, summed on each read."""
        if self.buckets is None:
            return len(self.unfiltered)
        return sum(map(len, map(self.buckets.__getitem__, self._column(self.joined, self.unfiltered))))

    def values(self, ref: ColumnRef) -> Iterator:
        """Per row, the value of ref, a column of the joined relations."""
        return self._column(ref, self.envs)

    def _column(self, ref: ColumnRef, envs: list[tuple]) -> Iterator:
        table = self.store.table(ref.relation)
        rows = map(table.rows.__getitem__, map(operator.itemgetter(self.rel_pos[ref.relation]), envs))
        return map(operator.itemgetter(table.col_pos[ref.column]), rows)

    def weights(self) -> Iterator[int]:
        """Per row, the rows of the whole join it stands for."""
        return repeat(1) if self.buckets is None else map(len, map(self.buckets.__getitem__, self.values(self.joined)))

    def terms(self, ref: ColumnRef, exact: Callable[[Any], int] | None) -> Iterator:
        """Per row, ref's value, or for a column of the leaf the sum of its
        values over the rows the row stands for; with exact, each value is
        first mapped to the int it adds to an exact sum."""
        if ref.relation != self.leaf:
            return map(exact, self.values(ref)) if exact else self.values(ref)
        table = self.store.table(ref.relation)
        cell = operator.itemgetter(table.col_pos[ref.column])
        add = (lambda values: sum(map(exact, values))) if exact else sum
        group = {v: add(map(cell, map(table.rows.__getitem__, ids))) for v, ids in self.buckets.items()}
        return map(group.__getitem__, self.values(self.joined))

    def counts(self, columns: Sequence[ColumnRef]) -> dict[tuple, int]:
        """Rows of the whole join per distinct projection of columns, in no
        promised key order. With no columns every row projects to ():
        {(): rows}, or {} when none pass."""
        keys = zip(*map(self.values, columns)) if columns else repeat((), len(self.envs))
        if self.buckets is None:
            return Counter(keys)
        counts: Counter = Counter()
        for key, n in zip(keys, self.weights()):
            counts[key] += n
        return counts

    def instances(self, columns: Sequence[ColumnRef], entity: ColumnRef) -> dict[tuple, tuple[int, int]]:
        """Per distinct projection of columns (an instance), in no promised
        key order: its distinct entity values and its rows of the whole join."""
        out: dict[tuple, tuple[int, int]] = {}
        for key, rows in self.counts([*columns, entity]).items():
            n, total = out.get(key[:-1], (0, 0))
            out[key[:-1]] = n + 1, total + rows
        return out


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


def _expect(ok: bool, what: str, value: Any, col: str = "") -> None:
    """Raise a StoreError for a field that is not ok; what may name the
    column as {col!r}, filled in only then."""
    if not ok:
        raise StoreError(f"{what.format(col=col)}, got {value!r}")


def update_from_json(line: str) -> UpdateRecord:
    """Parse one stream line; a field of the wrong JSON type is a StoreError."""
    doc = json.loads(line)
    _expect(isinstance(doc, dict), "an update must be a JSON object", doc)
    seq, kind, table = doc["seq"], doc["kind"], doc["table"]
    set_doc, where = doc["set"], doc.get("where", {})
    _expect(is_int(seq), "seq must be an integer", seq)
    _expect(isinstance(kind, str), "kind must be a string", kind)
    _expect(isinstance(table, str), "table must be a string", table)
    _expect(isinstance(set_doc, dict), "set must be an object", set_doc)
    _expect(isinstance(where, dict), "where must be an object", where)
    for col, v in where.items():
        _expect(not isinstance(v, (dict, list)), "where value for column {col!r} must be a scalar", v, col)
    set_values = {}
    for col, v in set_doc.items():
        if isinstance(v, dict):
            _expect(set(v) == {"delta"}, "bad set value for column {col!r}", v, col)
            _expect(is_number(v["delta"]), "delta for column {col!r} must be a number", v["delta"], col)
            set_values[col] = Delta(v["delta"])
        else:
            set_values[col] = v
    return UpdateRecord(seq=seq, kind=kind, table=table, set_values=set_values, where=where)


def write_update_stream(updates: Iterable[UpdateRecord]) -> str:
    return "".join(update_to_json(u) + "\n" for u in updates)


def read_update_stream(
    text: str, on_error: Optional[Callable[[int, Exception], None]] = None
) -> Iterator[UpdateRecord]:
    """Parse a stream, enforcing strictly increasing sequence numbers.

    A bad line raises a StoreError naming its line number; with on_error
    given, on_error(line number, exception) is called instead and the line
    is skipped.
    """
    last = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            u = update_from_json(line)
            if last is not None and u.seq <= last:
                raise StoreError(f"seq {u.seq} not increasing")
        except (KeyError, TypeError, ValueError, RecursionError, StoreError) as exc:
            if on_error is None:
                raise StoreError(f"update stream line {lineno}: {exc}") from exc
            on_error(lineno, exc)
            continue
        last = u.seq
        yield u

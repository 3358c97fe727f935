"""Two-tier filtering and delta maintenance of rankings, one update at a time.

Queries that share entity attribute, join path, fixed atoms and binding
columns form a family, whatever their criterion columns; they differ in
their binding values, the instance, and in their criterion. A family owns
its from-scratch scan: one pass over the joined table yields, for every
instance that is a query, per-entity row counts and one per-entity total
for each criterion column. The engine builds its state from that scan at
start-up and, for every update, keeps it current by delta.

Per update the engine runs a column filter (does the update write any
column a family depends on?), then a row filter: the updated rows are
extended along each touched family's join path, and every extension that
satisfies the fixed atoms and lands in a query's instance contributes
(instance, entity, joined row). A family's shape columns (entity,
predicate and join-path columns) decide which extensions exist and where
they land; an update that writes none of them is extended once, with the
written criterion columns read before and after the update, any other
before and after. The contributions are netted into one change of count
and of each column's total per instance and entity. Totals of integer
columns are exact ints, those of real columns exact Fractions, so no order
of updates can make them drift.

Each query keeps the sort keys (value, entity) of its instance's entities
in one list, best first: the value build_ranking ranks on, then the
entity. An entity whose count or whose total in the query's column
changed is bisected out at its old key and back in at its new one, unless
its count fell to 0; a write to one criterion column moves no other
column's queries. Only when one of those indices is below k is the query's
ranking rebuilt from the first k keys and diffed, and only rank
improvements become events.

With filters disabled the engine rescans every family from scratch on
every update and ranks each instance with build_ranking's full sort
instead. That path shares no code with the delta path's row extension or
its sorted lists, so the two cross-check each other.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from .catalog import ColumnRef, SchemaCatalog
from .generator import HofQuery
from .store import RankingState, Store, UpdateRecord, build_ranking, compile_predicate


@dataclass(frozen=True, slots=True)
class RankEvent:
    """An entity improved from from_rank to to_rank in one ranking."""

    query_id: str
    entity: Any
    from_rank: int
    to_rank: int
    seq: int


ColumnIndex = dict[ColumnRef, set]


def build_column_index(items: Iterable, columns: str = "referenced_columns") -> ColumnIndex:
    """column -> ids of all items (queries or families) whose columns (the
    attribute named by `columns`) include it."""
    index: ColumnIndex = {}
    for item in items:
        for col in getattr(item, columns):
            index.setdefault(col, set()).add(item.id)
    return index


def column_filter(u: UpdateRecord, index: ColumnIndex) -> set:
    """Ids of the items referencing at least one written column.

    Inserts carry the full row in set_values, so every column of the table
    counts as written.
    """
    hit: set = set()
    for col in u.set_values:
        hit |= index.get(ColumnRef(u.table, col), set())
    return hit


def diff_rankings(old: RankingState, new: RankingState, k: int) -> list[tuple[Any, int, int]]:
    """(entity, from_rank, to_rank) for every strict improvement; entities
    absent from the old ranking improve from rank k + 1."""
    old_ranks = old.ranks()
    out = []
    for rank, (entity, _) in enumerate(new.entries, start=1):
        previous = old_ranks.get(entity, k + 1)
        if rank < previous:
            out.append((entity, previous, rank))
    return out


@dataclass
class DetectStats:
    column_candidates: int
    row_candidates: int
    changed: int
    rebuilt: int  # rankings whose top-K was rebuilt and diffed


Contribution = tuple[tuple, Any, tuple]  # (instance, entity, row ids of the joined row)
Getter = tuple[int, int, list]  # a column: (position in a joined row, column position, table rows)


class Family:
    """Queries sharing entity attribute, join path, fixed atoms and binding
    columns, whatever their criterion columns; one scan evaluates every
    column of all their instances."""

    def __init__(self, fid: int, queries: list[HofQuery], catalog: SchemaCatalog):
        q = queries[0]
        self.id = fid
        self.entity = q.entity_attr
        self.needed = frozenset().union(*(m.relations() for m in queries))
        self.path = q.join_path
        self.fixed = q.fixed_atoms()
        self.binding_cols = tuple(a.left for a in q.binding_atoms())
        # the columns that decide which joined rows exist, pass the fixed
        # atoms and land in which instance and entity
        self.shape = frozenset((self.entity, *q.predicate_columns(), *(c for e in self.path for c in e.columns())))
        self.columns = tuple(dict.fromkeys(m.criterion.column for m in queries))  # criterion columns
        self.referenced_columns = self.shape | set(self.columns)
        self.real = tuple(catalog.column_type(c) == "real" for c in self.columns)
        self.exact = tuple(Fraction if r else int for r in self.real)  # criterion value -> its exact term in a total
        self.members: dict[tuple, list[list[str]]] = {}  # instance -> per column: query ids
        for q in queries:
            per_column = self.members.setdefault(tuple(a.right for a in q.binding_atoms()), [[] for _ in self.columns])
            per_column[self.columns.index(q.criterion.column)].append(q.id)
        self.counts: dict[tuple, dict[Any, int]] = {}  # instance -> entity -> joined rows
        self.totals: dict[tuple, list[dict[Any, Any]]] = {}  # instance -> per column: entity -> criterion total
        self.plans: dict[str, Callable[[Iterable[int]], list[Contribution]]] = {}
        # base relation -> per column: where its plan's contributions hold the value, and its exact type
        self.readers: dict[str, list[tuple[int, int, list, Callable]]] = {}

    def plan(self, store: Store, base: str) -> tuple[Callable[[Iterable[int]], list[Contribution]], list[tuple]]:
        """(row ids of `base` -> contributions of their extensions along the
        join path that satisfy the fixed atoms and land in a member instance,
        per criterion column: where a contribution's row ids hold its value
        and the column's exact type).
        A contribution holds the row ids, not the values, so every column
        can be read before and after an update that writes it."""
        rel_order = [base]
        steps = []
        remaining = list(self.path)
        while remaining:
            for i, edge in enumerate(remaining):
                new = edge.relations() - set(rel_order)
                if len(new) == 1:
                    break
            else:
                raise RuntimeError(f"join path {self.path} is not connected to {base}")
            del remaining[i]
            new_rel = next(iter(new))
            old_ref = edge.other(new_rel)
            old_table = store.table(old_ref.relation)
            steps.append(
                (
                    store.table(new_rel),
                    edge.endpoint(new_rel).column,
                    rel_order.index(old_ref.relation),
                    old_table.rows,
                    old_table.col_pos[old_ref.column],
                )
            )
            rel_order.append(new_rel)
        rel_pos = {rel: i for i, rel in enumerate(rel_order)}
        check = compile_predicate(self.fixed, rel_pos, store.tables) if self.fixed else None

        def getter(ref: ColumnRef) -> Getter:
            table = store.table(ref.relation)
            return rel_pos[ref.relation], table.col_pos[ref.column], table.rows

        ei, ep, erows = getter(self.entity)
        bind = [getter(c) for c in self.binding_cols]
        members = self.members

        def contributions(row_ids: Iterable[int]) -> list[Contribution]:
            envs = [(rid,) for rid in row_ids]
            for table, column, oi, orows, opos in steps:
                index = table.indices[column]
                envs = [env + (rid,) for env in envs for rid in index.get(orows[env[oi]][opos], ())]
            return [
                (inst, erows[env[ei]][ep], env)
                for env in (filter(check, envs) if check else envs)
                if (inst := tuple([rows[env[i]][p] for i, p, rows in bind])) in members
            ]

        return contributions, [(*getter(c), exact) for c, exact in zip(self.columns, self.exact)]

    def scan(self, store: Store, exact: bool) -> Iterator[tuple[tuple, dict[Any, int], list[dict[Any, Any]]]]:
        """(instance, entity -> joined rows, per column: entity -> criterion
        total) of every member instance, from one pass over the joined
        table; an instance without rows gets empty dicts. Totals of a real
        criterion column are the correctly rounded math.fsum of their
        values, whatever the row order, or with exact=True the exact
        Fraction sum."""
        rel_order, envs = store.joined_rows(self.needed, self.path)
        rel_pos = {rel: i for i, rel in enumerate(rel_order)}
        if self.fixed:
            envs = filter(compile_predicate(self.fixed, rel_pos, store.tables), envs)

        def getter(ref: ColumnRef) -> Getter:
            table = store.table(ref.relation)
            return rel_pos[ref.relation], table.col_pos[ref.column], table.rows

        ei, ep, erows = getter(self.entity)
        bind = [getter(c) for c in self.binding_cols]
        columns = [(*getter(c), real) for c, real in zip(self.columns, self.real)]
        # instance -> (entity -> rows, per column: (where to read it, real, entity -> total or real values))
        per_inst = {inst: ({}, [(*column, {}) for column in columns]) for inst in self.members}
        for env in envs:
            slot = per_inst.get(tuple([rows[env[i]][p] for i, p, rows in bind]))
            if slot is None:
                continue
            counts, sums = slot
            ent = erows[env[ei]][ep]
            if ent in counts:
                counts[ent] += 1
                for i, p, rows, real, t in sums:
                    t[ent] += [rows[env[i]][p]] if real else rows[env[i]][p]
            else:
                counts[ent] = 1
                for i, p, rows, real, t in sums:
                    t[ent] = [rows[env[i]][p]] if real else rows[env[i]][p]
        for inst, (counts, sums) in per_inst.items():
            for *_, real, t in sums:
                if real:
                    for ent, values in t.items():
                        t[ent] = sum(map(Fraction, values), Fraction()) if exact else math.fsum(values)
            yield inst, counts, [t for *_, t in sums]

    def apply(self, inst: tuple, net: dict[Any, list], columns: Iterable[int]) -> None:
        """Add each entity's net [total per column..., count] change to the
        instance, where only the given columns' totals may have changed; an
        entity whose count reaches 0 leaves it."""
        counts, totals = self.counts[inst], self.totals[inst]
        for j in columns:
            t = totals[j]
            for entity, d in net.items():
                t[entity] = t.get(entity, 0) + d[j]
        for entity, d in net.items():
            count = counts.get(entity, 0) + d[-1]
            if count:
                counts[entity] = count
            else:
                del counts[entity]
                for t in totals:
                    del t[entity]


def order_key(t: dict, n: dict, real: bool, avg: bool, sign: int) -> Callable[[Any], tuple]:
    """entity -> (value, entity) over live totals t and counts n, where value
    is sign (-1 when descending, else 1) times what build_ranking ranks on:
    the correctly rounded float of an exact real total, divided by the row
    count for avg. Ascending keys then put the best first, ties by
    ascending entity. Negation commutes with correctly rounded division, so
    negating before dividing gives build_ranking's value exactly negated."""
    value = float if real else int
    if avg:
        return lambda e: (sign * value(t[e]) / n[e], e)
    return lambda e: (sign * value(t[e]), e)


class EntityOrder:
    """The order_key of every entity of one query's instance, best first.

    The list holds the key tuples themselves, so bisection compares them
    without calling back into Python. The key reads the live totals of the
    query's column and the family's live counts for the instance, so an
    entity must be removed before its total changes and inserted after.
    """

    __slots__ = ("keys", "key", "sign", "k")

    def __init__(self, totals: dict, counts: dict, real: bool, q: HofQuery):
        self.sign = -1 if q.criterion.direction == "descending" else 1
        self.key = order_key(totals, counts, real, q.criterion.aggregation == "avg", self.sign)
        self.k = q.k
        self.keys = sorted(map(self.key, totals))

    def remove(self, changed: Iterable, present: dict) -> bool:
        """Remove the changed entities that are present; tells whether one
        of them sat in the top-K."""
        keys, key, crossed = self.keys, self.key, False
        for e in changed:
            if e in present:
                i = bisect_left(keys, key(e))
                del keys[i]
                crossed = crossed or i < self.k
        return crossed

    def insert(self, changed: Iterable, present: dict) -> bool:
        """Insert the changed entities that are present; tells whether one
        of them lands in the top-K."""
        keys, key, crossed = self.keys, self.key, False
        for e in changed:
            if e in present:
                k = key(e)
                i = bisect_left(keys, k)
                keys.insert(i, k)
                crossed = crossed or i < self.k
        return crossed

    def ranking(self) -> RankingState:
        """The top-K with build_ranking's values; multiplying by the sign is
        exact, so it restores each key's value."""
        sign = self.sign
        return RankingState(tuple([(e, sign * v) for v, e in self.keys[: self.k]]))


def build_families(queries: Iterable[HofQuery], catalog: SchemaCatalog) -> list[Family]:
    groups: dict[tuple, list[HofQuery]] = {}
    for q in queries:
        key = (q.entity_attr, q.join_path, q.fixed_atoms(), tuple(a.left for a in q.binding_atoms()))
        groups.setdefault(key, []).append(q)
    return [Family(fid, group, catalog) for fid, group in enumerate(groups.values())]


class Engine:
    """Detection state: queries, their families, cached rankings, filter index."""

    def __init__(
        self,
        catalog: SchemaCatalog,
        store: Store,
        queries: Iterable[HofQuery],
        filters_enabled: bool = True,
    ):
        self.catalog = catalog
        self.store = store
        self.queries: dict[str, HofQuery] = {q.id: q for q in queries}
        self.filters_enabled = filters_enabled
        self.families = build_families(self.queries.values(), catalog)
        self.column_index = build_column_index(self.families)
        self.shape_index = build_column_index(self.families, "shape")
        self.orders: dict[str, EntityOrder] = {}
        self.rankings: dict[str, RankingState] = {}
        if filters_enabled:
            for fam in self.families:
                for inst, counts, totals in fam.scan(store, exact=True):
                    fam.counts[inst], fam.totals[inst] = counts, totals
                    for qids, t, real in zip(fam.members[inst], totals, fam.real):
                        for qid in qids:
                            order = self.orders[qid] = EntityOrder(t, counts, real, self.queries[qid])
                            self.rankings[qid] = order.ranking()
                for rel in fam.needed:
                    fam.plans[rel], fam.readers[rel] = fam.plan(store, rel)
            store.drop_join_cache()  # the delta path never scans again
        else:
            self.rankings = self._rescan()
        self._routes: dict[tuple, tuple] = {}  # see _route
        self.last_stats = DetectStats(0, 0, 0, 0)

    def _rescan(self) -> dict[str, RankingState]:
        """Every ranking from one from-scratch scan per family, each sorted
        in full by build_ranking."""
        out: dict[str, RankingState] = {}
        for fam in self.families:
            for inst, counts, totals in fam.scan(self.store, exact=False):
                for qids, t in zip(fam.members[inst], totals):
                    for qid in qids:
                        c = self.queries[qid].criterion
                        out[qid] = build_ranking(t, counts, c.aggregation, c.direction, self.queries[qid].k)
        return out

    def _replace(self, qid: str, new: RankingState, seq: int, events: list[RankEvent]) -> bool:
        """Cache qid's new ranking, append its improvements to events and
        tell whether its entity order changed."""
        old = self.rankings[qid]
        if new == old:
            return False
        self.rankings[qid] = new
        moves = diff_rankings(old, new, self.queries[qid].k)
        events.extend(RankEvent(qid, entity, from_rank, to_rank, seq) for entity, from_rank, to_rank in moves)
        # Where the entity orders first differ, the new entity improves; with
        # no such position one order is a prefix of the other, so the order
        # changed exactly when something improved or the length changed.
        return bool(moves) or len(old) != len(new)

    # -- filtering --------------------------------------------------------

    def _route(self, u: UpdateRecord) -> tuple[dict[Family, list], list[Family], dict[Family, Iterable[int]], int]:
        """(families extended once -> (index, position, exact) of their
        written criterion columns, families extended twice, every hit family
        -> the indices of the columns whose queries the update concerns,
        column candidates) for u. They depend only on u's kind, table and
        written columns, so they are memoized on those."""
        key = (u.kind, u.table, tuple(u.set_values))
        route = self._routes.get(key)
        if route is None:
            hit = column_filter(u, self.column_index)
            # families whose shape the update may change are extended twice,
            # those it can only revalue once, reading only the written columns
            reshaped = column_filter(u, self.shape_index) if u.kind == "update" else hit
            positions = self.store.table(u.table).col_pos
            once = {
                fam: [(j, positions[c.column], exact) for j, (c, exact) in enumerate(zip(fam.columns, fam.exact))
                      if c.relation == u.table and c.column in u.set_values]
                for fam in (self.families[i] for i in sorted(hit - reshaped))
            }
            twice = [self.families[i] for i in sorted(hit & reshaped)]
            # the columns whose queries the update concerns
            concerned = {fam: [j for j, *_ in written] for fam, written in once.items()}
            concerned.update((fam, range(len(fam.columns))) for fam in twice)
            n = sum(len(per_column[j]) for fam, columns in concerned.items()
                    for per_column in fam.members.values() for j in columns)
            route = self._routes[key] = (once, twice, concerned, n)
        return route

    def row_filter(
        self, u: UpdateRecord, rows: Iterable[int], families: Iterable[Family]
    ) -> list[tuple[Family, tuple, Any, tuple]]:
        """(family, instance, entity, row ids of the joined row) for every
        extension of the given rows of u.table along a family's join path
        that satisfies the fixed atoms and the bindings of one of the
        family's queries."""
        rows = list(rows)
        if not rows:
            return []
        return [(fam, *c) for fam in families for c in fam.plans[u.table](rows)]

    # -- detection ----------------------------------------------------------

    def detect(self, u: UpdateRecord) -> list[RankEvent]:
        """Apply one update and return the rank improvements it caused.

        Families whose shape columns the update does not write extend its
        rows once and read the written criterion columns before and after
        the update; the others extend the rows before and after it. The
        contributions are netted into one change of count and of each
        column's total per (family, instance, entity). A query moves the
        entities whose count or whose column's total changed: each is
        removed from its order at its old key, gets the change, and is
        inserted at its new key if its count is still above 0. A query's
        ranking is rebuilt and diffed only when a removal or insertion
        index is below k. The store is only mutated if the update is valid,
        and the engine only after that.
        """
        events: list[RankEvent] = []
        changed = 0
        if not self.filters_enabled:
            self.store.apply_update(u)
            new_states = self._rescan()
            for qid in sorted(new_states):
                changed += self._replace(qid, new_states[qid], u.seq, events)
            n = len(self.queries)
            self.last_stats = DetectStats(n, n, changed, n)
            events.sort(key=lambda e: (e.query_id, str(e.entity)))
            return events

        once, twice, concerned, column_candidates = self._route(u)
        rows = self.store.match_rows(u)
        net: dict[tuple[Family, tuple], dict[Any, list]] = {}  # -> entity -> [total change per column..., count change]
        # written columns are base columns, so an extension reads them from its first row
        table = self.store.table(u.table).rows
        before = {rid: table[rid][:] for rid in rows} if once else {}
        kept = self.row_filter(u, rows, once)
        for fam, inst, e, env in self.row_filter(u, rows, twice):
            entities = net.get((fam, inst)) or net.setdefault((fam, inst), {})
            d = entities.get(e) or entities.setdefault(e, [0] * (len(fam.columns) + 1))
            d[-1] -= 1
            for j, (i, p, rs, exact) in enumerate(fam.readers[u.table]):
                d[j] -= exact(rs[env[i]][p])
        post = self.row_filter(u, self.store.apply_update(u, rows), twice)
        for fam, inst, e, env in kept:
            entities = net.get((fam, inst)) or net.setdefault((fam, inst), {})
            d = entities.get(e) or entities.setdefault(e, [0] * (len(fam.columns) + 1))
            old, new = before[env[0]], table[env[0]]
            for j, p, exact in once[fam]:
                if new[p] != old[p]:
                    d[j] += exact(new[p]) - exact(old[p])
        for fam, inst, e, env in post:
            entities = net.get((fam, inst)) or net.setdefault((fam, inst), {})
            d = entities.get(e) or entities.setdefault(e, [0] * (len(fam.columns) + 1))
            d[-1] += 1
            for j, (i, p, rs, exact) in enumerate(fam.readers[u.table]):
                d[j] += exact(rs[env[i]][p])

        rebuilt = 0
        orders = self.orders
        for (fam, inst), entities in net.items():
            moved = {e: d for e, d in entities.items() if any(d)}
            if not moved:
                continue
            counts = fam.counts[inst]
            per_column = fam.members[inst]
            # each concerned column's queries move the entities whose count or
            # total in that column changed; the other columns did not change
            columns = concerned[fam]
            mines = [(j, moved) for j in columns] if len(columns) == 1 else [
                (j, {e: d for e, d in moved.items() if d[j] or d[-1]}) for j in columns
            ]
            touched = [(qid, orders[qid], mine) for j, mine in mines if mine for qid in per_column[j]]
            was_top = [order.remove(mine, counts) for _, order, mine in touched]
            fam.apply(inst, moved, columns)
            for (qid, order, mine), top in zip(touched, was_top):
                if order.insert(mine, counts) or top:
                    rebuilt += 1
                    changed += self._replace(qid, order.ranking(), u.seq, events)
        events.sort(key=lambda e: (e.query_id, str(e.entity)))
        # row candidates count the queries of every named instance, net-zero ones too
        candidates = sum(len(fam.members[inst][j]) for fam, inst in net for j in concerned[fam])
        self.last_stats = DetectStats(column_candidates, candidates, changed, rebuilt)
        return events

"""Two-tier filtering and delta maintenance of rankings, one update at a time.

Queries that share entity attribute, criterion column, join path, fixed
atoms and binding columns form a family; they differ only in their binding
values, the instance. A family owns its from-scratch scan: one pass over
the joined table yields per-entity criterion totals and row counts for
every instance that is a query. The engine builds its state from that scan
at start-up and, for every update, keeps it current by delta.

Per update the engine runs a column filter (does the update write any
column a family depends on?), then a row filter: the updated rows are
extended along each touched family's join path, and every extension that
satisfies the fixed atoms and lands in a query's instance contributes
(instance, entity, criterion value). A family's shape columns (entity,
predicate and join-path columns) decide which extensions exist and where
they land; an update that writes none of them is extended once, with each
value read before and after the update, any other before and after. The
contributions are netted into one (total, count) change per instance and
entity. Totals of integer columns are exact ints, those of real columns
exact Fractions, so no order of updates can make them drift.

Each query keeps the sort keys (value, entity) of its instance's entities
in one list, best first: the value build_ranking ranks on, then the
entity. An entity with a non-zero net change is bisected out at its old
key and back in at its new one, unless its count fell to 0. Only when one
of those indices is below k is the query's ranking rebuilt from the first
k keys and diffed, and only rank improvements become events.

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


Contribution = tuple[tuple, Any, list]  # (instance, entity, row holding the criterion value)


class Family:
    """Queries sharing entity attribute, criterion column, join path, fixed
    atoms and binding columns; one scan evaluates all their instances."""

    def __init__(self, fid: int, q: HofQuery, real: bool):
        self.id = fid
        self.entity = q.entity_attr
        self.crit_column = q.criterion.column
        self.needed = q.relations()
        self.path = q.join_path
        self.fixed = q.fixed_atoms()
        self.binding_cols = tuple(a.left for a in q.binding_atoms())
        self.referenced_columns = q.referenced_columns
        # the columns that decide which joined rows exist, pass the fixed
        # atoms and land in which instance and entity
        self.shape = frozenset((self.entity, *q.predicate_columns(), *(c for e in self.path for c in e.columns())))
        self.real = real
        self.exact = Fraction if real else int  # criterion value -> its exact term in a total
        self.crit_pos = -1  # the criterion column's position in its rows, set with the plans
        self.members: dict[tuple, list[str]] = {}  # instance -> query ids
        self.n_queries = 0
        self.totals: dict[tuple, dict[Any, Any]] = {}  # instance -> entity -> criterion total
        self.counts: dict[tuple, dict[Any, int]] = {}  # instance -> entity -> joined rows
        self.plans: dict[str, Callable[[Iterable[int]], list[Contribution]]] = {}

    def plan(self, store: Store, base: str) -> Callable[[Iterable[int]], list[Contribution]]:
        """Row ids of `base` -> contributions of their extensions along the
        join path that satisfy the fixed atoms and land in a member instance.
        A contribution holds the criterion's row itself, not its value, so
        the value can be read before and after an update that writes it."""
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
        check = compile_predicate(self.fixed, rel_pos, store.tables)

        def getter(ref: ColumnRef):
            table = store.table(ref.relation)
            return rel_pos[ref.relation], table.col_pos[ref.column], table.rows

        ei, ep, erows = getter(self.entity)
        ci, _, crows = getter(self.crit_column)
        bind = [getter(c) for c in self.binding_cols]
        members = self.members

        def contributions(row_ids: Iterable[int]) -> list[Contribution]:
            envs = [(rid,) for rid in row_ids]
            for table, column, oi, orows, opos in steps:
                index = table.indices[column]
                envs = [env + (rid,) for env in envs for rid in index.get(orows[env[oi]][opos], ())]
            out = []
            for env in envs:
                if check(env):
                    inst = tuple(rows[env[i]][p] for i, p, rows in bind)
                    if inst in members:
                        out.append((inst, erows[env[ei]][ep], crows[env[ci]]))
            return out

        return contributions

    def scan(self, store: Store, exact: bool) -> Iterator[tuple[tuple, dict[Any, Any], dict[Any, int]]]:
        """(instance, entity -> criterion total, entity -> joined rows) of
        every member instance, from one pass over the joined table; an
        instance without rows gets empty dicts. Totals of a real criterion
        column are the correctly rounded math.fsum of their values, whatever
        the row order, or with exact=True the exact Fraction sum."""
        rel_order, envs = store.joined_rows(self.needed, self.path)
        rel_pos = {rel: i for i, rel in enumerate(rel_order)}
        check = compile_predicate(self.fixed, rel_pos, store.tables)

        def getter(ref: ColumnRef):
            table = store.table(ref.relation)
            return rel_pos[ref.relation], table.col_pos[ref.column], table.rows

        ei, ep, erows = getter(self.entity)
        ci, cp, crows = getter(self.crit_column)
        bind = [getter(c) for c in self.binding_cols]
        per_inst = {inst: ({}, {}) for inst in self.members}
        for env in envs:
            if not check(env):
                continue
            slot = per_inst.get(tuple(rows[env[i]][p] for i, p, rows in bind))
            if slot is None:
                continue
            totals, counts = slot
            ent = erows[env[ei]][ep]
            value = crows[env[ci]][cp]
            if ent in counts:
                totals[ent] += [value] if self.real else value
                counts[ent] += 1
            else:
                totals[ent] = [value] if self.real else value
                counts[ent] = 1
        for inst, (totals, counts) in per_inst.items():
            if self.real:
                for ent, values in totals.items():
                    totals[ent] = sum(map(Fraction, values), Fraction()) if exact else math.fsum(values)
            yield inst, totals, counts

    def apply(self, inst: tuple, net: dict[Any, list]) -> None:
        """Add each entity's net [total, count] change to the instance; an
        entity whose count reaches 0 leaves it."""
        totals, counts = self.totals[inst], self.counts[inst]
        for entity, (total, count) in net.items():
            count += counts.get(entity, 0)
            if count:
                counts[entity] = count
                totals[entity] = totals.get(entity, 0) + total
            else:
                del counts[entity], totals[entity]


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
    without calling back into Python. The key reads the family's live
    totals and counts for the instance, so an entity must be removed
    before its total changes and inserted after.
    """

    __slots__ = ("keys", "key", "sign", "k")

    def __init__(self, fam: Family, inst: tuple, q: HofQuery):
        self.sign = -1 if q.criterion.direction == "descending" else 1
        avg = q.criterion.aggregation == "avg"
        self.key = order_key(fam.totals[inst], fam.counts[inst], fam.real, avg, self.sign)
        self.k = q.k
        self.keys = sorted(map(self.key, fam.totals[inst]))

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
    families: dict[tuple, Family] = {}
    for q in queries:
        bindings = q.binding_atoms()
        key = (q.entity_attr, q.criterion.column, q.join_path, q.fixed_atoms(), tuple(a.left for a in bindings))
        fam = families.get(key)
        if fam is None:
            real = catalog.column_type(q.criterion.column) == "real"
            fam = families[key] = Family(len(families), q, real)
        fam.members.setdefault(tuple(a.right for a in bindings), []).append(q.id)
        fam.n_queries += 1
    return list(families.values())


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
                for inst, totals, counts in fam.scan(store, exact=True):
                    fam.totals[inst], fam.counts[inst] = totals, counts
                    for qid in fam.members[inst]:
                        order = self.orders[qid] = EntityOrder(fam, inst, self.queries[qid])
                        self.rankings[qid] = order.ranking()
                fam.plans = {rel: fam.plan(store, rel) for rel in fam.needed}
                fam.crit_pos = store.table(fam.crit_column.relation).col_pos[fam.crit_column.column]
            store.drop_join_cache()  # the delta path never scans again
        else:
            self.rankings = self._rescan()
        self.last_stats = DetectStats(0, 0, 0, 0)

    def _rescan(self) -> dict[str, RankingState]:
        """Every ranking from one from-scratch scan per family, each sorted
        in full by build_ranking."""
        out: dict[str, RankingState] = {}
        for fam in self.families:
            for inst, totals, counts in fam.scan(self.store, exact=False):
                for qid in fam.members[inst]:
                    c = self.queries[qid].criterion
                    out[qid] = build_ranking(totals, counts, c.aggregation, c.direction, self.queries[qid].k)
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

    def row_filter(
        self, u: UpdateRecord, rows: Iterable[int], families: Iterable[Family]
    ) -> list[tuple[Family, tuple, Any, list]]:
        """(family, instance, entity, criterion row) for every extension of
        the given rows of u.table along a family's join path that satisfies
        the fixed atoms and the bindings of one of the family's queries."""
        rows = list(rows)
        if not rows:
            return []
        return [(fam, *c) for fam in families for c in fam.plans[u.table](rows)]

    # -- detection ----------------------------------------------------------

    def detect(self, u: UpdateRecord) -> list[RankEvent]:
        """Apply one update and return the rank improvements it caused.

        Families whose shape columns the update does not write extend its
        rows once and read each criterion value before and after the
        update; the others extend the rows before and after it. The
        contributions are netted per (family, instance, entity). Each
        entity with a non-zero net change is removed from its instance's
        query orders at its old key, gets the change, and is inserted at
        its new key if its count is still above 0. A query's ranking is
        rebuilt and diffed only when a removal or insertion index is below
        k. The store is only mutated if the update is valid, and the engine
        only after that.
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

        hit = column_filter(u, self.column_index)
        # families whose shape the update may change are extended twice,
        # those it can only revalue once
        reshaped = column_filter(u, self.shape_index) if u.kind == "update" else hit
        once = [self.families[i] for i in sorted(hit - reshaped)]
        twice = [self.families[i] for i in sorted(hit & reshaped)]
        rows = self.store.match_rows(u)
        kept = [(fam, inst, e, row, row[fam.crit_pos]) for fam, inst, e, row in self.row_filter(u, rows, once)]
        pre = [(fam, inst, e, row[fam.crit_pos]) for fam, inst, e, row in self.row_filter(u, rows, twice)]
        post = self.row_filter(u, self.store.apply_update(u, rows), twice)
        net: dict[tuple[Family, tuple], dict[Any, list]] = {}  # -> entity -> [total change, count change]
        for fam, inst, e, row, old in kept:
            d = net.setdefault((fam, inst), {}).setdefault(e, [0, 0])
            if row[fam.crit_pos] != old:
                d[0] += fam.exact(row[fam.crit_pos]) - fam.exact(old)
        for fam, inst, e, old in pre:
            d = net.setdefault((fam, inst), {}).setdefault(e, [0, 0])
            d[0] -= fam.exact(old)
            d[1] -= 1
        for fam, inst, e, row in post:
            d = net.setdefault((fam, inst), {}).setdefault(e, [0, 0])
            d[0] += fam.exact(row[fam.crit_pos])
            d[1] += 1
        candidates = rebuilt = 0
        for (fam, inst), entities in net.items():
            qids = fam.members[inst]
            candidates += len(qids)  # counted before netting, so net-zero instances count too
            moved = {e: d for e, d in entities.items() if d[0] or d[1]}
            if not moved:
                continue
            counts = fam.counts[inst]
            orders = [self.orders[qid] for qid in qids]
            was_top = [order.remove(moved, counts) for order in orders]
            fam.apply(inst, moved)
            for qid, order, top in zip(qids, orders, was_top):
                if order.insert(moved, counts) or top:
                    rebuilt += 1
                    changed += self._replace(qid, order.ranking(), u.seq, events)
        events.sort(key=lambda e: (e.query_id, str(e.entity)))
        self.last_stats = DetectStats(sum(self.families[i].n_queries for i in hit), candidates, changed, rebuilt)
        return events

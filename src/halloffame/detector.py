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
before and after. Each contribution is added to, or for a pre-image
subtracted from, its entity's count and totals in the instance. Totals of
integer columns are exact ints, those of real columns exact Fractions, so
no order of updates can make them drift.

Each query keeps the sort keys (value, entity) of its instance's best 2k
entities, best first (the value build_ranking ranks on, saturated to -inf
or +inf when its float is out of range), and a bound above which lie the
keys of all other entities. Per update it re-keys the entities whose count
or total in its column may have changed, keeps the keys within the bound
and cuts the list back to 2k; only when fewer than k keys remain does it
sort the whole instance again. Only when the first k keys changed is its
ranking rebuilt and diffed, and only rank improvements become events.

With filters disabled the engine rescans every family from scratch on
every update and ranks each instance with build_ranking instead. That path
shares no code with the delta path's row extension or its entity orders,
so the two cross-check each other.
"""
from __future__ import annotations

import math
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
    rebuilt: int  # rankings whose top-K keys changed, so they were rebuilt and diffed
    refilled: int  # entity orders that ran short of k keys and sorted their instance again


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
        values, whatever the row order, or -inf or +inf when that is out of
        range, or with exact=True the exact Fraction sum."""
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
                        try:
                            t[ent] = sum(map(Fraction, values), Fraction()) if exact else math.fsum(values)
                        except OverflowError:  # fsum's sum, or only a partial sum, is out of range
                            total = sum(map(Fraction, values), Fraction())
                            try:
                                t[ent] = float(total)
                            except OverflowError:
                                t[ent] = math.inf if total > 0 else -math.inf
            yield inst, counts, [t for *_, t in sums]


def order_key(t: dict, n: dict, real: bool, avg: bool, sign: int) -> Callable[[Any], tuple]:
    """entity -> (value, entity) over live totals t and counts n, where value
    is sign (-1 when descending, else 1) times what build_ranking ranks on:
    the correctly rounded float of an exact real total, divided by the row
    count for avg, or -inf or +inf when that float is out of range. Ascending
    keys then put the best first, ties by ascending entity. Negation commutes
    with correctly rounded division, so negating before dividing gives
    build_ranking's value exactly negated."""
    if not (real or avg):
        return lambda e: (sign * t[e], e)

    def key(e):
        try:
            value = sign * float(t[e]) if real else sign * t[e]
            return (value / n[e] if avg else value), e
        except OverflowError:
            return (math.inf if sign * t[e] > 0 else -math.inf), e

    return key


class EntityOrder:
    """The order_key of one query's instance's best 2k entities, best first,
    and a bound: every entity not held has a key above it; None means every
    entity is held. The key reads the live totals of the query's column and
    the family's live counts for the instance."""

    __slots__ = ("keys", "bound", "key", "sign", "k")

    def __init__(self, totals: dict, counts: dict, real: bool, q: HofQuery):
        self.sign = -1 if q.criterion.direction == "descending" else 1
        self.key = order_key(totals, counts, real, q.criterion.aggregation == "avg", self.sign)
        self.k = q.k
        self.fill(counts)

    def fill(self, counts: dict) -> None:
        """Hold the best 2k keys of all entities in counts."""
        keys = sorted(map(self.key, counts))
        cap = 2 * self.k
        self.bound = keys[cap - 1] if len(keys) > cap else None
        self.keys = keys[:cap]

    def update(self, moved: set, counts: dict) -> tuple[bool, bool]:
        """Re-key the moved entities after their count or total changed; one
        no longer in counts leaves. Tells whether the first k keys changed
        and whether the order filled itself again from every entity."""
        keys, bound, k = self.keys, self.bound, self.k
        top = keys[:k]
        kept = [x for x in keys if x[1] not in moved]
        key = self.key
        fresh = [key(e) for e in moved if e in counts]
        kept += fresh if bound is None else [x for x in fresh if x <= bound]
        kept.sort()
        cap = 2 * k
        if len(kept) > cap:
            bound = kept[cap - 1]
            del kept[cap:]
        self.keys, self.bound = kept, bound
        refilled = len(kept) < k and len(counts) > len(kept)
        if refilled:
            self.fill(counts)
        return self.keys[:k] != top, refilled

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
        self.last_stats = DetectStats(0, 0, 0, 0, 0)

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

    def _route(self, u: UpdateRecord) -> tuple[dict[Family, list], list[Family], int]:
        """(families extended once -> (index, position, exact) of their
        written criterion columns, families extended twice, column
        candidates: the queries of those written columns and of every column
        of a family extended twice) for u. They depend only on u's kind,
        table and written columns, so they are memoized on those."""
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
            n = sum(len(per_column[j]) for fam, written in once.items() for per_column in fam.members.values()
                    for j, *_ in written)
            n += sum(len(qids) for fam in twice for per_column in fam.members.values() for qids in per_column)
            route = self._routes[key] = (once, twice, n)
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
        the update; the others extend the rows before and after it. Each
        contribution goes straight into its family's counts and totals,
        then every concerned query of a touched instance updates its order
        once. The store is only mutated if the update is valid, and the
        engine only after that.
        """
        events: list[RankEvent] = []
        changed = 0
        if not self.filters_enabled:
            self.store.apply_update(u)
            new_states = self._rescan()
            for qid in sorted(new_states):
                changed += self._replace(qid, new_states[qid], u.seq, events)
            n = len(self.queries)
            self.last_stats = DetectStats(n, n, changed, n, 0)
            events.sort(key=lambda e: (e.query_id, str(e.entity)))
            return events

        once, twice, column_candidates = self._route(u)
        rows = self.store.match_rows(u)
        # written columns are base columns, so an extension reads them from its first row
        table = self.store.table(u.table).rows
        before = {rid: table[rid][:] for rid in rows} if once else {}
        kept = self.row_filter(u, rows, once)
        pre = [(fam, inst, e, [exact(rs[env[i]][p]) for i, p, rs, exact in fam.readers[u.table]])
               for fam, inst, e, env in self.row_filter(u, rows, twice)]
        post = self.row_filter(u, self.store.apply_update(u, rows), twice)
        # (family, instance, column index or None for every column) -> the
        # entities whose count or total in that column may have changed
        moved: dict[tuple, set] = {}
        for fam, inst, e, values in pre:
            counts, totals = fam.counts[inst], fam.totals[inst]
            if counts[e] > 1:
                counts[e] -= 1
                for t, v in zip(totals, values):
                    t[e] -= v
            else:  # its last row: the exact totals are 0 now
                del counts[e]
                for t in totals:
                    del t[e]
            (moved.get((fam, inst, None)) or moved.setdefault((fam, inst, None), set())).add(e)
        for fam, inst, e, env in post:
            counts = fam.counts[inst]
            counts[e] = counts.get(e, 0) + 1
            for t, (i, p, rs, exact) in zip(fam.totals[inst], fam.readers[u.table]):
                t[e] = t.get(e, 0) + exact(rs[env[i]][p])
            (moved.get((fam, inst, None)) or moved.setdefault((fam, inst, None), set())).add(e)
        for fam, inst, e, env in kept:
            old, new = before[env[0]], table[env[0]]
            for j, p, exact in once[fam]:
                entities = moved.get((fam, inst, j)) or moved.setdefault((fam, inst, j), set())
                if new[p] != old[p]:
                    fam.totals[inst][j][e] += exact(new[p]) - exact(old[p])
                    entities.add(e)

        # row candidates count the queries of every named instance, unchanged ones too
        candidates = rebuilt = refilled = 0
        orders = self.orders
        for (fam, inst, j), entities in moved.items():
            counts, per_column = fam.counts[inst], fam.members[inst]
            for qids in per_column if j is None else (per_column[j],):
                candidates += len(qids)
                for qid in qids if entities else ():
                    order = orders[qid]
                    top, refill = order.update(entities, counts)
                    refilled += refill
                    if top:
                        rebuilt += 1
                        changed += self._replace(qid, order.ranking(), u.seq, events)
        events.sort(key=lambda e: (e.query_id, str(e.entity)))
        self.last_stats = DetectStats(column_candidates, candidates, changed, rebuilt, refilled)
        return events

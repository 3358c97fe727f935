"""Two-tier filtering and delta maintenance of rankings, one update at a time.

Queries that share entity attribute, join path, fixed atoms and binding
columns form a family, whatever their criterion columns; they differ in
their binding values, the instance, and in their criterion. A family owns
its from-scratch scan, which gives, for every instance that is a query,
per-entity row counts and one per-entity total for each criterion column.
It reads the joined rows through the JoinScan that Store.scan gives, as
generation counts them, so families of one shape, and generation before
them in one process, share one scan and its columns. A scan is a snapshot
of one store state: start-up reads it before any write, and the engine
drops every scan once start-up is done, so nothing holds one across a
write. When the criterion columns' relation is a leaf (store.leaf_edge),
that relation is summed per join value first (eager aggregation) and the
rest of the path is joined without it, so each joined row adds its join
value's row count and totals. The family builds its state from that scan
at start-up, and the engine keeps it current by delta, update by update.

A family is built complete at start-up: it groups its queries per instance
and criterion column, scans, and gives every member instance a slot, plus
one per criterion column of it (an instance with a single column is its own
column slot). An instance's slot holds its live counts and per-column
totals and every entity order of the instance; a column slot holds the same
counts and the orders of that column. The slots are the family's only index
of its queries: the route counts its candidates from them, the engine reads
its orders off them, and whatever names an instance on the update path (a
contribution, a fan-out, the entities an update moved) holds its slot,
hashed by identity, so no instance tuple is hashed or looked up again per
update.

Per update the engine filters in two tiers. The column tier is the route
(Engine._route), memoized per update kind, table and written columns: the
families whose shape or criterion columns the update writes, and the lane
each takes. The row tier is each family's plans (Family.plan): the updated
rows are extended along each touched family's join path (store.extension,
the one join walk, which the store's own joins take too), and every
extension that satisfies the fixed atoms and lands in a query's instance
contributes (the instance's slot, entity, joined row ids, values): the
values are the exact terms of every criterion column, read when the
contribution is made, so a contribution says by itself what it adds to its
entity and why. A family's shape columns (entity, predicate and join-path
columns) decide which extensions exist and where they land. An update takes
each family it hits through one of three lanes:

- direct: it writes none of the shape columns of a family without a join
  path. Each written row is its own extension, so the family's reader (its
  slot lookup, the row's instance from the binding columns, the entity
  position and the fixed-atom check) finds the row's slot and entity, and
  each written column adds exact(new) - exact(old) from a copy of the row
  taken before the update. No plan runs and no contribution is built.
- fan-out: it writes none of the shape columns of a family with a join
  path. Each row reaches the same slots and entities before the update as
  after it: its fan-out, read from the family's cache when it has a leaf
  (below), else from the family's extension of the row after the update.
  Each written column's change, exact(new) - exact(old) from a copy of the
  row, is added to every entity reached, as often as it is reached.
- twice: it writes a shape column, or inserts. The rows are extended before
  and after, and one signed loop subtracts the pre-image contributions from
  their entities' counts and totals and adds the post-image ones.

Every total is an exact int, a real column's in units of 2**-1074 (fixed),
so no order of updates can make a total drift. The entities moved go to the
slot they moved in: the instance's slot after a signed loop, which may move
every column, else the written column's slot.

A family with a leaf caches its fan-out: per join value of the leaf, per
instance reached, the instance's slot and the entity of every extension of
a leaf row holding it (an entity reached through two joined rows is there
twice), filled on first use from the family's extension of one such row.
The leaf holds no entity, binding or fixed-atom column and one path edge
touches it, so what a leaf row reaches depends only on its join value and
the shape columns of the other relations. A criterion-only write to the
leaf therefore looks its rows' join values up and extends a row only on a
miss; a family without a leaf has no cache, so each of its rows misses. The
cache is cleared whenever the store accepts an update that extends the
family twice: it writes one of the family's shape columns, or inserts into
one of its relations.

Each query keeps the sort keys (value, entity) of its instance's best 2k
entities, best first (the value its SQL ranks on, saturated to -inf or
+inf when its float is out of range), each held entity's key by entity,
and a bound above which lie the keys of all other entities: the buffer of
top-k view maintenance (Yi et al., ICDE 2003). Per update one call of its
order re-keys only the entities whose count or total in its column may
have changed, and pays per entity that moved, not per key held: a held
entity whose key changed leaves the sorted keys by bisection, a new key
within the bound enters by insertion, and an entity neither held nor
within the bound, or held with its key unchanged, costs one key and
nothing more. An order whose key is a plain int sum (neither real nor avg)
does not build that key for an entity beyond the bound: it compares sign
times the raw total with the bound's value, and the entity with the
bound's entity only on a tie, so such an entity costs two dict reads. This
relies on every column's totals holding exactly the counts' entities,
which the signed loop keeps. A call that moves no key returns at once,
unless the order holds fewer than k keys of a larger instance. Otherwise
the keys are cut back to 2k, which moves the bound; only when fewer than k
keys remain of a larger instance does the order sort the whole instance
again, its only sort after start-up. The call copies the first k keys at
its first move (or before that refill) and compares them with the new ones
at the end: every entity that ranks better in the new first k keys than in
the old ones becomes an event, and the call reports whether the first k
keys changed, whether the entity order did and whether the order refilled.
These orders are the delta path's only ranking state: it stores no
ranking, and a query's top-K as (entity, value) pairs is built from its
order's keys only when a reader asks for it.

The from-scratch reference that the delta path is checked against
(hof run --no-filters) is reference.Reference: it evaluates every query
again after every update and shares no code with this module's scans,
extensions, entity orders or event derivation, so a fault in any of them
shows as a difference between the two.
"""
from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, neg
from typing import Any, Callable, Iterable

from .catalog import ATOM_BINDING, ColumnRef, SchemaCatalog
from .generator import HofQuery
from .store import Store, UpdateRecord, compile_predicate, extension, leaf_edge


@dataclass(slots=True)
class RankEvent:
    """An entity improved from from_rank to to_rank in one ranking."""

    query_id: str
    entity: Any
    from_rank: int
    to_rank: int
    seq: int


Ranking = tuple[tuple[Any, Any], ...]  # a top-K: (entity, value) pairs, best first


@dataclass(slots=True)
class DetectStats:
    column_candidates: int
    row_candidates: int
    changed: int
    reordered: int  # top-Ks that changed: entity orders whose first k keys did
    refilled: int  # entity orders that ran short of k keys and sorted their instance again
    # base rows extended along a family's join path, once per family and pass;
    # a row that a family without a join path reads directly counts as its own extension
    extended: int
    reused: int  # leaf fan-outs read from a family's cache instead
    idle: int  # entity order calls that returned 0: their first k keys stayed


Contribution = tuple["Slot", Any, tuple, list]  # (instance's slot, entity, row ids of the joined row, exact values)
Getter = tuple[int, int, list]  # a column: (position in a joined row, column position, table rows)

_SCALE = 1 << 1074  # every finite double is an integer multiple of 2**-1074


def fixed(v: float) -> int:
    """A real value's exact term in a total: v * 2**1074, an int."""
    n, d = v.as_integer_ratio()  # d is a power of two, at most 2**1074
    return n << (1075 - d.bit_length())


def real_value(total: int) -> float:
    """The correctly rounded float of a fixed total, -inf or +inf out of range."""
    try:
        return total / _SCALE
    except OverflowError:
        return math.inf if total > 0 else -math.inf


class Slot:
    """One member instance of a family, or one criterion column of it: the
    instance's live counts (entity -> joined rows) and totals (per column:
    entity -> exact int total, with exactly the counts' entities), and the
    entity orders to re-key when the slot's entities move: every order of
    the instance, or the column's. An instance's slot holds its column
    slots, and is its own one when it has a single column; a column slot
    holds none. Built once, with its family, slots are what contributions,
    fan-outs and moved entities carry, hashed by identity."""

    __slots__ = ("counts", "totals", "orders", "columns")

    def __init__(self, counts: dict, totals: list[dict], orders: tuple[EntityOrder, ...], columns: tuple[Slot, ...] = ()):
        self.counts, self.totals, self.orders, self.columns = counts, totals, orders, columns


class Family:
    """Queries sharing entity attribute, join path, fixed atoms and binding
    columns, whatever their criterion columns, built complete: one scan of
    the store evaluates every column of all their instances, each member
    instance gets its slot and each query its EntityOrder in it, and a plan
    is compiled per relation the family reads. The slots are the family's
    only index of its queries. A family without a join path also gets a
    reader, by which the engine's direct lane reads a written row as its own
    extension, with no plan."""

    def __init__(self, fid: int, key: tuple, group: list[tuple[tuple, HofQuery]], catalog: SchemaCatalog,
                 store: Store):
        q = group[0][1]
        self.id = fid
        self.entity, self.path, self.fixed, self.binding_cols = key
        self.columns = tuple(dict.fromkeys(m.criterion.column for _, m in group))  # criterion columns
        # the queries differ only in binding values and criterion
        self.needed = q.relations() | {c.relation for c in self.columns}
        # the columns that decide which joined rows exist, pass the fixed
        # atoms and land in which instance and entity
        self.shape = frozenset((self.entity, *q.predicate_columns(), *(c for e in self.path for c in e.columns())))
        self.real = tuple(catalog.column_type(c) == "real" for c in self.columns)
        self.exact = tuple(fixed if r else int for r in self.real)  # criterion value -> its exact term in a total
        # the edge to the relation of the criterion columns that scan sums
        # per join value before the join, or None
        self.leaf = leaf_edge(self.path, self.columns, (self.entity, *q.predicate_columns()))
        # the leaf's join column, and per join value of it, per instance
        # reached, its slot and the entity of every extension of a leaf row
        # holding it: an entity reached through two joined rows is there twice
        self.leaf_column = self.leaf and self.leaf.endpoint(self.columns[0].relation).column
        self.fanout: dict[Any, tuple[tuple[Slot, tuple], ...]] | None = {} if self.leaf else None
        queries: dict[tuple, list[list[HofQuery]]] = {}  # instance -> per column: its queries
        at = {c: j for j, c in enumerate(self.columns)}
        for inst, m in group:
            per_column = queries.get(inst) or queries.setdefault(inst, [[] for _ in self.columns])
            per_column[at[m.criterion.column]].append(m)
        self.slots: dict[tuple, Slot] = {}  # instance -> its slot
        for inst, (counts, totals) in self.scan(store, queries).items():
            columns = []
            for column_queries, t, real in zip(queries[inst], totals, self.real):
                orders = []
                for m in column_queries:
                    orders.append(EntityOrder(t, counts, real, m))
                columns.append(Slot(counts, totals, tuple(orders)))
            if len(columns) == 1:
                slot = columns[0]
                slot.columns = (slot,)
            else:
                slot = Slot(counts, totals, sum([c.orders for c in columns], ()), tuple(columns))
            self.slots[inst] = slot
        # without a join path the direct lane reads each row as its own extension
        self.reader = None if self.path else self._reader(store)
        self.plans = {rel: self.plan(store, rel) for rel in self.needed}  # relation -> its rows' contributions

    def _reader(self, store: Store) -> tuple[Callable, Callable, int, Callable | None]:
        """The direct lane's reader (Engine.detect): (instance -> its slot or
        None, row -> its instance tuple, the entity's position, the fixed
        atoms' check of a 1-tuple env or None) over the family's one
        relation. The plans do not read it."""
        table = store.table(self.entity.relation)
        pos = table.col_pos
        ps = [pos[c.column] for c in self.binding_cols]
        if len(ps) == 1:  # itemgetter of one position gives the value, not a 1-tuple
            (p,) = ps
            inst = lambda row: (row[p],)
        else:
            inst = itemgetter(*ps) if ps else lambda row: ()
        check = compile_predicate(self.fixed, {table.meta.name: 0}, store.tables) if self.fixed else None
        return self.slots.get, inst, pos[self.entity.column], check

    def plan(self, store: Store, base: str) -> Callable[[Iterable[int]], list[Contribution]]:
        """Row ids of `base` -> the contributions of their extensions along
        the join path that satisfy the fixed atoms and land in a member
        instance: (slot, entity, row ids of the joined row, per criterion
        column its exact term). The rows are extended by store.extension, the
        instance comes as its slot, and the values are read when the
        contribution is made: before an update they are its pre-image.
        Without a join path each row extends to itself alone."""
        rel_order, extend = extension(store, self.path, base)
        rel_pos = {rel: i for i, rel in enumerate(rel_order)}
        check = compile_predicate(self.fixed, rel_pos, store.tables) if self.fixed else None

        def getter(ref: ColumnRef) -> Getter:
            table = store.table(ref.relation)
            return rel_pos[ref.relation], table.col_pos[ref.column], table.rows

        ei, ep, erows = getter(self.entity)
        bind = [getter(c) for c in self.binding_cols]
        readers = [(*getter(c), exact) for c, exact in zip(self.columns, self.exact)]
        slots = self.slots.get

        def contributions(row_ids: Iterable[int]) -> list[Contribution]:
            envs = extend([(rid,) for rid in row_ids])
            out = []
            for env in filter(check, envs) if check else envs:
                slot = slots(tuple([rows[env[i]][p] for i, p, rows in bind]))
                if slot is not None:
                    out.append((slot, erows[env[ei]][ep], env, [exact(rows[env[i]][p]) for i, p, rows, exact in readers]))
            return out

        return contributions

    def scan(self, store: Store, instances: Iterable) -> dict[tuple, tuple[dict, list]]:
        """instance -> (entity -> joined rows, per column: entity -> exact int
        total) of each given instance, from one zip loop over the store's
        JoinScan of the family's shape (Store.scan; the leaf summed per join
        value); an instance without rows gets empty dicts. A real column's
        totals are fixed-point (see fixed)."""
        scan = store.scan(self.needed, self.path, self.fixed, self.columns[0].relation if self.leaf else None)
        streams = [scan.terms(c, fixed if real else None) for c, real in zip(self.columns, self.real)]
        weights = scan.weights()
        insts = zip(*map(scan.values, self.binding_cols)) if self.binding_cols else repeat(())
        ents = scan.values(self.entity)
        per_inst = {inst: ({}, [{} for _ in self.columns]) for inst in instances}
        get = per_inst.get
        if len(streams) == 1:
            for inst, ent, n, v in zip(insts, ents, weights, *streams):
                slot = get(inst)
                if slot is None:
                    continue
                counts, (t,) = slot
                if ent in counts:
                    counts[ent] += n
                    t[ent] += v
                else:
                    counts[ent] = n
                    t[ent] = v
        elif len(streams) == 2:
            for inst, ent, n, v1, v2 in zip(insts, ents, weights, *streams):
                slot = get(inst)
                if slot is None:
                    continue
                counts, (t1, t2) = slot
                if ent in counts:
                    counts[ent] += n
                    t1[ent] += v1
                    t2[ent] += v2
                else:
                    counts[ent] = n
                    t1[ent] = v1
                    t2[ent] = v2
        else:
            for inst, ent, n, vs in zip(insts, ents, weights, zip(*streams)):
                slot = get(inst)
                if slot is None:
                    continue
                counts, sums = slot
                if ent in counts:
                    counts[ent] += n
                    for t, v in zip(sums, vs):
                        t[ent] += v
                else:
                    counts[ent] = n
                    for t, v in zip(sums, vs):
                        t[ent] = v
        return per_inst


def order_key(t: dict, n: dict, real: bool, avg: bool, sign: int) -> Callable[[Any], tuple]:
    """entity -> (value, entity) over live totals t and counts n of a real
    or avg criterion, where value is sign (-1 when descending, else 1) times
    what the query's SQL ranks on: the total, for a real column its
    real_value, divided by the row count for avg, or -inf or +inf when that
    is out of the float range. Ascending keys then put the best first, ties
    by ascending entity. Negation commutes with correctly rounded division,
    so negating before dividing gives that value exactly negated. A plain
    int sum's key, (sign * total, entity), needs no function: see
    EntityOrder."""

    def key(e):
        try:
            value = sign * real_value(t[e]) if real else sign * t[e]
            return (value / n[e] if avg else value), e
        except OverflowError:
            return (math.inf if sign * t[e] > 0 else -math.inf), e

    return key


REORDERED, CHANGED, REFILLED = 1, 2, 4  # the bits of EntityOrder.update's result


class EntityOrder:
    """The sort keys of one query's instance's best 2k entities, best first,
    each held entity's key by entity, and a bound: every entity not held has
    a key above it; None means every entity is held. A key reads the live
    totals of the query's column, and for avg the family's live counts for
    the instance: through order_key for a real or avg criterion, else
    straight from the totals (raw), as (sign * total, entity). The query's
    id names its events."""

    __slots__ = ("keys", "held", "bound", "key", "raw", "sign", "k", "qid")

    def __init__(self, totals: dict, counts: dict, real: bool, q: HofQuery):
        self.sign = -1 if q.criterion.direction == "descending" else 1
        avg = q.criterion.aggregation == "avg"
        if real or avg:
            self.key, self.raw = order_key(totals, counts, real, avg, self.sign), None
        else:
            self.key, self.raw = None, totals
        self.k = q.k
        self.qid = q.id
        self.fill(counts)

    def fill(self, counts: dict) -> None:
        """Hold the best 2k keys of all entities in counts: the only sort."""
        raw = self.raw
        if raw is None:
            keys = sorted(map(self.key, counts))
        else:  # a plain int sum: (sign * total, entity), a total per entity of counts
            totals = map(raw.__getitem__, counts)
            keys = sorted(zip(map(neg, totals) if self.sign < 0 else totals, counts))
        cap = 2 * self.k
        self.bound = keys[cap - 1] if len(keys) > cap else None
        del keys[cap:]
        self.keys = keys
        self.held = {x[1]: x for x in keys}

    def update(self, moved: set, counts: dict, seq: int, events: list[RankEvent]) -> int:
        """Re-key the moved entities after their count or total changed; one
        no longer in counts leaves. Appends a RankEvent of update seq for
        every entity that ranks better in the new first k keys than in the
        old ones (one absent from them improves from rank k + 1) and returns
        0 when the first k keys are unchanged, else REORDERED, with CHANGED
        when the entity order changed too; REFILLED is set when the order ran
        short of k keys and sorted its instance again.

        Only the moved entities cost anything: a held one whose key changed
        leaves the keys by bisection, and a new key within the bound enters by
        insertion; one neither held nor within the bound, or held with its key
        unchanged, moves nothing, and for a plain int sum one beyond the bound
        is told by its raw total, without a key. A call that moves no key
        returns 0 at once unless the order holds fewer than k keys of a larger
        instance; otherwise the keys are cut back to 2k, such a short order
        sorts its instance again (fill), and the first k keys, copied at the
        first move, are compared with the new ones."""
        keys, held, bound, key, k = self.keys, self.held, self.bound, self.key, self.k
        raw, sign = self.raw, self.sign
        if raw is not None:  # the bound's value and entity; no bound lies above every int
            limit, last = bound or (math.inf, None)
        top = None
        for e in moved:
            old = held.get(e)
            if raw is not None:
                # the raw total against the bound's value, its entity only on
                # a tie: an entity beyond the bound costs no key
                value = raw.get(e)  # the totals hold exactly the counts' entities
                if value is None:
                    new = None
                else:
                    value *= sign
                    new = None if value > limit or value == limit and e > last else (value, e)
            else:
                new = key(e) if e in counts else None
                if new is not None and bound is not None and new > bound:
                    new = None  # beyond the bound, among the entities not held
            if new == old:
                continue
            if top is None:
                top = keys[:k]
            if old is not None:
                del keys[bisect_left(keys, old)]
            if new is None:
                del held[e]
            else:
                insort(keys, new)
                held[e] = new
        if top is None:
            if len(keys) >= k or len(counts) <= len(keys):
                return 0
            top = keys[:k]
        cap = 2 * k
        if len(keys) > cap:
            self.bound = keys[cap - 1]
            for _, e in keys[cap:]:
                del held[e]
            del keys[cap:]
        result = 0
        if len(keys) < k and len(counts) > len(keys):
            result = REFILLED
            self.fill(counts)
            keys = self.keys
        if keys[:k] == top:
            return result
        before = {e: rank for rank, (_, e) in enumerate(top, start=1)}
        qid, n = self.qid, len(events)
        for rank, (_, e) in enumerate(keys[:k], start=1):
            previous = before.get(e, k + 1)
            if rank < previous:
                events.append(RankEvent(qid, e, previous, rank, seq))
        # where the entity orders first differ the new entity improves; with
        # no such position one is a prefix of the other, so the entity order
        # changed exactly when something improved or the length changed
        if len(events) > n or len(top) != min(k, len(keys)):
            return result | REORDERED | CHANGED
        return result | REORDERED

    def ranking(self) -> Ranking:
        """The top-K with the values its SQL ranks on; multiplying by the sign
        is exact, so it restores each key's value. Only a reader asks for it:
        the delta path itself works on the keys."""
        sign = self.sign
        return tuple([(e, sign * v) for v, e in self.keys[: self.k]])


def build_families(queries: Iterable[HofQuery], catalog: SchemaCatalog, store: Store) -> list[Family]:
    """Group queries by (entity attribute, join path, fixed atoms, binding
    columns), the key of their Family, reading each predicate once, and
    build each family complete over the store."""
    groups: dict[tuple, list[tuple[tuple, HofQuery]]] = {}  # key -> (instance, query) per query
    for q in queries:
        cols, inst, fixed = [], [], []
        for a in q.predicate:
            if a.kind == ATOM_BINDING:
                cols.append(a.left)
                inst.append(a.right)
            else:
                fixed.append(a)
        key = (q.entity_attr, q.join_path, tuple(fixed), tuple(cols))
        groups.setdefault(key, []).append((tuple(inst), q))
    return [Family(fid, key, group, catalog, store) for fid, (key, group) in enumerate(groups.items())]


class Engine:
    """Detection state: queries, their families, each built complete with
    its slots, the memoized route of each update shape, and each query's
    EntityOrder, read off the slots, from which a ranking is only built when
    ranking(qid) asks."""

    # The one caller that still asks for the unfiltered engine,
    # perfbench/replay.py::reference_log, gets the reference instead; the
    # filters_enabled keyword exists for it alone.
    def __new__(cls, catalog: SchemaCatalog, store: Store, queries: Iterable[HofQuery], filters_enabled: bool = True):
        if not filters_enabled:
            from .reference import Reference

            return Reference(catalog, store, queries)
        return super().__new__(cls)

    def __init__(self, catalog: SchemaCatalog, store: Store, queries: Iterable[HofQuery], filters_enabled: bool = True):
        self.store = store
        self.queries: dict[str, HofQuery] = {q.id: q for q in queries}
        self.families = build_families(self.queries.values(), catalog, store)
        # the ranking state, by query id for ranking()
        self.orders = {o.qid: o for fam in self.families for slot in fam.slots.values() for o in slot.orders}
        store.drop_join_cache()  # nothing scans again
        self._routes: dict[tuple, tuple] = {}  # see _route
        self.last_stats = DetectStats(0, 0, 0, 0, 0, 0, 0, 0)

    def ranking(self, qid: str) -> Ranking:
        """qid's current top-K: (entity, value) pairs, best first."""
        return self.orders[qid].ranking()

    # -- filtering --------------------------------------------------------

    def _route(self, u: UpdateRecord) -> tuple[list[tuple], list[tuple], list[Family], list[dict], int]:
        """The column tier for u, one entry per lane: ((family, columns) of
        families without a join path read directly, (family, columns,
        position of the leaf's join column or None) of families with a join
        path that fan out, families extended twice, the fan-out caches of
        those with a leaf, column candidates: the queries of the written
        columns of the first two lanes and of every column of the third). A
        family's columns are (index, position, exact) of its written
        criterion columns. A family is hit when u writes one of its shape or
        criterion columns, and extended twice when it writes a shape column;
        every relation a family reads holds one, so an insert that hits a
        family is extended twice. Memoized on u's kind, table and columns."""
        key = (u.kind, u.table, tuple(u.set_values))
        route = self._routes.get(key)
        if route is None:
            written = {ColumnRef(u.table, c) for c in u.set_values}  # an insert's: the full row
            positions = self.store.table(u.table).col_pos
            direct, fanned, twice, n = [], [], [], 0
            for fam in self.families:
                columns = [(j, positions[c.column], exact) for j, (c, exact) in enumerate(zip(fam.columns, fam.exact))
                           if c in written]
                if not written.isdisjoint(fam.shape):
                    # u may change which joined rows exist and where they land
                    twice.append(fam)
                    n += sum(len(slot.orders) for slot in fam.slots.values())
                elif columns:  # u can only revalue them, in its written columns
                    n += sum(len(slot.columns[j].orders) for slot in fam.slots.values() for j, *_ in columns)
                    if fam.reader:
                        direct.append((fam, columns))
                    else:  # with a leaf, a family's criterion columns are all in it, so u.table is the leaf
                        fanned.append((fam, columns, fam.leaf and positions[fam.leaf_column]))
            route = self._routes[key] = (direct, fanned, twice, [fam.fanout for fam in twice if fam.leaf], n)
        return route

    # -- detection ----------------------------------------------------------

    def detect(self, u: UpdateRecord) -> list[RankEvent]:
        """Apply one update and return the rank improvements it caused.

        Each family the route hits takes one lane. A family whose shape
        columns the update does not write reads the rows directly when it has
        no join path (its reader: no plan, no contribution), and else fans
        each row out to the slots and entities it reaches: through the
        family's cache of its leaf's join value when it has a leaf and the
        value is cached, else by extending the row after the update. Both
        lanes read the old values from a copy of the row taken before it.
        Only the others extend the rows before and after it and net the two
        in a signed loop. Each change goes straight into its family's counts
        and totals, then every concerned query of a touched instance updates
        its order once. The store is only mutated if the update is valid, and
        the engine only after that.
        """
        events: list[RankEvent] = []
        direct, fanned, twice, cleared, column_candidates = self._route(u)
        rows = self.store.match_rows(u)
        table = self.store.table(u.table).rows
        # a row read directly or fanned out carries no values, so its old ones are copied
        before = {rid: table[rid][:] for rid in rows} if direct or fanned else {}
        pre = [c for fam in twice for c in fam.plans[u.table](rows)] if twice and rows else ()
        touched = self.store.apply_update(u, rows)
        # u may have changed which joined rows a leaf row reaches; a rejected
        # u changed nothing, and no family in twice reads its cache below
        for fanout in cleared:
            fanout.clear()
        extended = len(rows) * len(direct)  # a row read directly is its own extension
        reused = 0
        # an instance's slot, or one of its column slots -> the entities
        # whose count or total in the slot's columns may have changed
        moved: defaultdict[Slot, set] = defaultdict(set)
        if twice:
            post = [c for fam in twice for c in fam.plans[u.table](touched)] if touched else ()
            extended += (len(rows) + len(touched)) * len(twice)
            for sign, images in ((-1, pre), (1, post)):
                for slot, e, _, values in images:
                    counts = slot.counts
                    n = counts.get(e, 0) + sign
                    if n:
                        counts[e] = n
                        for t, v in zip(slot.totals, values):
                            t[e] = t.get(e, 0) + sign * v
                    else:  # its last row: the exact totals are 0 now
                        del counts[e]
                        for t in slot.totals:
                            del t[e]
                    moved[slot].add(e)
        # a family without a join path reads each row itself: it passes the
        # fixed atoms, lands in its slot and entity before u as after (u writes
        # no shape column), and adds each written column's change
        for fam, columns in direct:
            slot_of, inst, ep, check = fam.reader
            for rid in rows:
                new = table[rid]
                if check is not None and not check((rid,)):
                    continue
                slot = slot_of(inst(new))
                if slot is None:
                    continue
                old, e = before[rid], new[ep]
                for j, p, exact in columns:
                    entities = moved[slot.columns[j]]
                    if new[p] != old[p]:  # a column's values map one to one to their exact terms
                        slot.totals[j][e] += exact(new[p]) - exact(old[p])
                        entities.add(e)
        # a row reaches the same joined rows before u as after (u writes no
        # shape column); a leaf row reaches what its join value reaches, so
        # look that up and extend the row only on a miss (a family without a
        # leaf always misses), then add each written column's change once per
        # joined row, with one moved set and one totals dict per instance
        for fam, columns, leaf in fanned:
            fanout = fam.fanout
            for rid in rows:
                old, new = before[rid], table[rid]
                groups = fanout.get(new[leaf]) if fanout is not None else None
                if groups is None:
                    reached: dict[Slot, list] = {}
                    for slot, e, *_ in fam.plans[u.table]((rid,)):
                        reached.setdefault(slot, []).append(e)
                    groups = reached.items()
                    if fanout is not None:
                        groups = fanout[new[leaf]] = tuple([(slot, tuple(es)) for slot, es in groups])
                    extended += 1
                else:
                    reused += 1
                for j, p, exact in columns:
                    change = exact(new[p]) - exact(old[p]) if new[p] != old[p] else 0
                    for slot, entities in groups:
                        into = moved[slot.columns[j]]
                        if change:
                            t = slot.totals[j]
                            for e in entities:
                                t[e] += change
                            into.update(entities)

        # row candidates count the queries of every named slot, unchanged ones too
        candidates = changed = reordered = refilled = idle = 0
        seq = u.seq
        for slot, entities in moved.items():
            orders = slot.orders
            candidates += len(orders)
            if entities:
                counts = slot.counts
                for order in orders:
                    result = order.update(entities, counts, seq, events)
                    if result:
                        reordered += result & REORDERED
                        changed += bool(result & CHANGED)
                        refilled += bool(result & REFILLED)
                    else:
                        idle += 1
        if len(events) > 1:
            events.sort(key=lambda e: (e.query_id, str(e.entity)))
        self.last_stats = DetectStats(
            column_candidates, candidates, changed, reordered, refilled, extended, reused, idle
        )
        return events

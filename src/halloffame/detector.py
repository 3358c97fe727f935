"""Two-tier filtering and delta maintenance of rankings, one update at a time.

Queries that share entity attribute, join path, fixed atoms and binding
columns form a family, whatever their criterion columns; they differ in
their binding values, the instance, and in their criterion. A family owns
its from-scratch scan, which yields, for every instance that is a query,
per-entity row counts and one per-entity total for each criterion column.
It reads the joined rows through store.JoinScan, as generation counts
them: when the criterion columns' relation is a leaf (store.leaf_edge),
that relation is summed per join value first (eager aggregation) and the
rest of the path is joined without it, so each joined row adds its join
value's row count and totals. The engine builds its state from that scan
at start-up and, for every update, keeps it current by delta.

Per update the engine filters in two tiers. The column tier is the route
(Engine._route), memoized per update kind, table and written columns: the
families whose shape or criterion columns the update writes, and how each
is extended. The row tier is row_filter: the updated rows are extended
along each touched family's join path, and every extension that
satisfies the fixed atoms and lands in a query's instance contributes
(instance, entity, joined row ids, values): the values are the exact
terms of every criterion column, read when the contribution is made, so a
contribution says by itself what it adds to its entity and why. A family's
shape columns (entity, predicate and join-path columns) decide which
extensions exist and where they land; an update that writes none of them
is extended once, before it, and each written criterion column's new
value is read against the contribution's old one; any other is extended
before and after, and one signed loop subtracts the pre-image
contributions from their entities' counts and totals and adds the
post-image ones. Every total is an exact int, a real column's in units of
2**-1074 (fixed), so no order of updates can make a total drift.

A family with a leaf caches its fan-out: per join value of the leaf, per
instance reached, the entity of every extension of a leaf row holding it
(an entity reached through two joined rows is there twice), filled on
first use from the family's extension of one such row. The leaf holds no
entity, binding or fixed-atom column and one path edge touches it, so what
a leaf row reaches depends only on its join value and the shape columns of
the other relations. A criterion-only write to the leaf therefore looks
its rows' join values up instead of extending the rows, and adds each
written column's change, taken once per row, to every cached entity, as
often as it is there. The cache is cleared whenever the store accepts an
update that extends the family twice: it writes one of the family's shape
columns, or inserts into one of its relations.

Each query keeps the sort keys (value, entity) of its instance's best 2k
entities, best first (the value build_ranking ranks on, saturated to -inf
or +inf when its float is out of range), each held entity's key by entity,
and a bound above which lie the keys of all other entities: the buffer of
top-k view maintenance (Yi et al., ICDE 2003). Per update one call of its
order re-keys only the entities whose count or total in its column may
have changed, and pays per entity that moved, not per key held: a held
entity whose key changed leaves the sorted keys by bisection, a new key
within the bound enters by insertion, and an entity neither held nor
within the bound, or held with its key unchanged, costs one key and
nothing more. A call that moves no key returns at once, unless the order
holds fewer than k keys of a larger instance. Otherwise the keys are cut
back to 2k, which moves the bound; only when fewer than k keys remain of a
larger instance does the order sort the whole instance again, its only
sort after start-up. The call copies the first k keys at its first move
(or before that refill) and compares them with the new ones at the end:
every entity that ranks better in the new first k keys than in the old
ones becomes an event, and the call reports whether the first k keys
changed, whether the entity order did and whether the order refilled.
These orders are the delta path's only ranking state: it stores no
ranking, and a query's top-K as (entity, value) pairs is built from its
order's keys only when a reader asks for it.

With filters disabled the engine rescans every family from scratch on
every update, ranks each instance with build_ranking, stores the ranking
and diffs it against the stored one with diff_rankings instead. Of the
delta path's row extension that path shares only the order of its join
steps (store.join_steps), and nothing of its entity orders or its event
derivation, so the two cross-check each other.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator, Mapping

from .catalog import ATOM_BINDING, ColumnRef, SchemaCatalog
from .generator import HofQuery
from .store import JoinScan, Store, UpdateRecord, compile_predicate, join_steps, leaf_edge


@dataclass(slots=True)
class RankEvent:
    """An entity improved from from_rank to to_rank in one ranking."""

    query_id: str
    entity: Any
    from_rank: int
    to_rank: int
    seq: int


Ranking = tuple[tuple[Any, Any], ...]  # a top-K: (entity, value) pairs, best first

_ENTITY, _VALUE = operator.itemgetter(0), operator.itemgetter(1)  # of a (entity, value) item


def build_ranking(totals: Mapping, counts: Mapping[Any, int], aggregation: str, direction: str, k: int) -> Ranking:
    """Order per-entity totals and row counts into a ranking, truncated to k.

    A full sort of every entity: it serves the reference path (filters
    off), at start-up and on every update. The delta path never calls it:
    each query keeps its own best keys (EntityOrder) and moves only the
    entities an update touched, so the two check each other. An avg out of
    the float range saturates to -inf or +inf; ties rank by ascending
    entity, so the order is total and holds no entity twice.
    """
    if aggregation == "sum":
        items = list(totals.items())
    else:  # avg: arithmetic mean; groups exist only for present rows, so n >= 1
        items = []
        for entity, total in totals.items():
            try:
                items.append((entity, total / counts[entity]))
            except OverflowError:
                items.append((entity, math.inf if total > 0 else -math.inf))
    items.sort(key=_ENTITY)  # ascending-entity tie-break
    items.sort(key=_VALUE, reverse=direction == "descending")
    return tuple(items[:k])


def diff_rankings(old: Ranking, new: Ranking, k: int) -> list[tuple[Any, int, int]]:
    """(entity, from_rank, to_rank) for every strict improvement; entities
    absent from the old ranking improve from rank k + 1. Only the reference
    path (filters off) diffs rankings; the delta path derives its events
    from sort keys (EntityOrder.update)."""
    old_ranks = {entity: rank for rank, (entity, _) in enumerate(old, start=1)}
    out = []
    for rank, (entity, _) in enumerate(new, start=1):
        previous = old_ranks.get(entity, k + 1)
        if rank < previous:
            out.append((entity, previous, rank))
    return out


@dataclass(slots=True)
class DetectStats:
    column_candidates: int
    row_candidates: int
    changed: int
    reordered: int  # top-Ks that changed: entity orders whose first k keys did, or stored rankings
    refilled: int  # entity orders that ran short of k keys and sorted their instance again
    extended: int  # base rows extended along a family's join path, once per family and pass
    reused: int  # leaf fan-outs read from a family's cache instead


Contribution = tuple[tuple, Any, tuple, list]  # (instance, entity, row ids of the joined row, exact values)
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


class Family:
    """Queries sharing entity attribute, join path, fixed atoms and binding
    columns, whatever their criterion columns; one scan evaluates every
    column of all their instances."""

    def __init__(self, fid: int, key: tuple, members: list[tuple[tuple, HofQuery]], catalog: SchemaCatalog):
        q = members[0][1]
        self.id = fid
        self.entity, self.path, self.fixed, self.binding_cols = key
        self.columns = tuple(dict.fromkeys(m.criterion.column for _, m in members))  # criterion columns
        # members differ only in binding values and criterion
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
        # reached, the entity of every extension of a leaf row holding it:
        # an entity reached through two joined rows is there twice
        self.leaf_column = self.leaf and self.leaf.endpoint(self.columns[0].relation).column
        self.fanout: dict[Any, tuple[tuple[tuple, tuple], ...]] | None = {} if self.leaf else None
        self.members: dict[tuple, list[list[str]]] = {}  # instance -> per column: query ids
        self.orders: dict[tuple, list[list[EntityOrder]]] = {}  # as members, their entity orders (filters on)
        slot = {c: j for j, c in enumerate(self.columns)}
        for inst, m in members:
            per_column = self.members.get(inst) or self.members.setdefault(inst, [[] for _ in self.columns])
            per_column[slot[m.criterion.column]].append(m.id)
        self.counts: dict[tuple, dict[Any, int]] = {}  # instance -> entity -> joined rows
        self.totals: dict[tuple, list[dict[Any, Any]]] = {}  # instance -> per column: entity -> criterion total
        self.plans: dict[str, Callable[[Iterable[int]], list[Contribution]]] = {}

    def plan(self, store: Store, base: str) -> Callable[[Iterable[int]], list[Contribution]]:
        """Row ids of `base` -> the contributions of their extensions along
        the join path that satisfy the fixed atoms and land in a member
        instance: (instance, entity, row ids of the joined row, per criterion
        column its exact term). The instance is members' own key, so what
        holds contributions shares it, and the values are read when the
        contribution is made: before an update they are its pre-image."""
        rel_order = [base]
        steps = []
        for old_ref, new_ref in join_steps(self.path, base):
            old_table = store.table(old_ref.relation)
            steps.append(
                (
                    store.table(new_ref.relation),
                    new_ref.column,
                    rel_order.index(old_ref.relation),
                    old_table.rows,
                    old_table.col_pos[old_ref.column],
                )
            )
            rel_order.append(new_ref.relation)
        rel_pos = {rel: i for i, rel in enumerate(rel_order)}
        check = compile_predicate(self.fixed, rel_pos, store.tables) if self.fixed else None

        def getter(ref: ColumnRef) -> Getter:
            table = store.table(ref.relation)
            return rel_pos[ref.relation], table.col_pos[ref.column], table.rows

        ei, ep, erows = getter(self.entity)
        bind = [getter(c) for c in self.binding_cols]
        readers = [(*getter(c), exact) for c, exact in zip(self.columns, self.exact)]
        keys = {inst: inst for inst in self.members}.get

        def contributions(row_ids: Iterable[int]) -> list[Contribution]:
            envs = [(rid,) for rid in row_ids]
            for table, column, oi, orows, opos in steps:
                index = table.indices[column]
                envs = [env + (rid,) for env in envs for rid in index.get(orows[env[oi]][opos], ())]
            out = []
            for env in filter(check, envs) if check else envs:
                inst = keys(tuple([rows[env[i]][p] for i, p, rows in bind]))
                if inst is not None:
                    out.append((inst, erows[env[ei]][ep], env, [exact(rows[env[i]][p]) for i, p, rows, exact in readers]))
            return out

        return contributions

    def scan(self, store: Store) -> Iterator[tuple[tuple, dict[Any, int], list[dict[Any, int]]]]:
        """(instance, entity -> joined rows, per column: entity -> exact int
        total) of every member instance, from one zip loop over a JoinScan
        (the leaf summed per join value); an instance without rows gets empty
        dicts. A real column's totals are fixed-point (see fixed)."""
        scan = JoinScan(store, self.needed, self.path, self.fixed, self.columns[0].relation if self.leaf else None)
        streams = [scan.terms(c, fixed if real else None) for c, real in zip(self.columns, self.real)]
        weights = scan.weights()
        insts = zip(*map(scan.values, self.binding_cols)) if self.binding_cols else repeat(())
        ents = scan.values(self.entity)
        per_inst = {inst: ({}, [{} for _ in self.columns]) for inst in self.members}
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
        for inst, (counts, sums) in per_inst.items():
            yield inst, counts, sums


def order_key(t: dict, n: dict, real: bool, avg: bool, sign: int) -> Callable[[Any], tuple]:
    """entity -> (value, entity) over live totals t and counts n, where value
    is sign (-1 when descending, else 1) times what build_ranking ranks on:
    the total, for a real column its real_value, divided by the row count
    for avg, or -inf or +inf when that is out of the float range. Ascending
    keys then put the best first, ties by ascending entity. Negation commutes
    with correctly rounded division, so negating before dividing gives
    build_ranking's value exactly negated."""
    if not (real or avg):
        return lambda e: (sign * t[e], e)

    def key(e):
        try:
            value = sign * real_value(t[e]) if real else sign * t[e]
            return (value / n[e] if avg else value), e
        except OverflowError:
            return (math.inf if sign * t[e] > 0 else -math.inf), e

    return key


REORDERED, CHANGED, REFILLED = 1, 2, 4  # the bits of EntityOrder.update's result


class EntityOrder:
    """The order_key of one query's instance's best 2k entities, best first,
    each held entity's key by entity, and a bound: every entity not held has
    a key above it; None means every entity is held. The key reads the live
    totals of the query's column and the family's live counts for the
    instance; the query's id names its events."""

    __slots__ = ("keys", "held", "bound", "key", "sign", "k", "qid")

    def __init__(self, totals: dict, counts: dict, real: bool, q: HofQuery):
        self.sign = -1 if q.criterion.direction == "descending" else 1
        self.key = order_key(totals, counts, real, q.criterion.aggregation == "avg", self.sign)
        self.k = q.k
        self.qid = q.id
        self.fill(counts)

    def fill(self, counts: dict) -> None:
        """Hold the best 2k keys of all entities in counts: the only sort."""
        keys = sorted(map(self.key, counts))
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
        unchanged, moves nothing. A call that moves no key returns 0 at once
        unless the order holds fewer than k keys of a larger instance;
        otherwise the keys are cut back to 2k, such a short order sorts its
        instance again (fill), and the first k keys, copied at the first move,
        are compared with the new ones."""
        keys, held, bound, key, k = self.keys, self.held, self.bound, self.key, self.k
        top = None
        for e in moved:
            old = held.get(e)
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
        # as in Engine._replace: the entity order changed exactly when
        # something improved or the length changed
        if len(events) > n or len(top) != min(k, len(keys)):
            return result | REORDERED | CHANGED
        return result | REORDERED

    def ranking(self) -> Ranking:
        """The top-K with build_ranking's values; multiplying by the sign is
        exact, so it restores each key's value. Only a reader asks for it:
        the delta path itself works on the keys."""
        sign = self.sign
        return tuple([(e, sign * v) for v, e in self.keys[: self.k]])


def build_families(queries: Iterable[HofQuery], catalog: SchemaCatalog) -> list[Family]:
    """Group queries by (entity attribute, join path, fixed atoms, binding
    columns), the key of their Family, reading each predicate once."""
    groups: dict[tuple, list[tuple[tuple, HofQuery]]] = {}  # key -> (instance, query) per member
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
    return [Family(fid, key, members, catalog) for fid, (key, members) in enumerate(groups.items())]


class Engine:
    """Detection state: queries, their families, the memoized route of each
    update shape, and one ranking state per query. With filters on that
    state is the query's EntityOrder, and a ranking is only built when
    ranking(qid) asks; with filters off it is the reference path's own
    stored ranking."""

    def __init__(
        self,
        catalog: SchemaCatalog,
        store: Store,
        queries: Iterable[HofQuery],
        filters_enabled: bool = True,
    ):
        self.store = store
        self.queries: dict[str, HofQuery] = {q.id: q for q in queries}
        self.filters_enabled = filters_enabled
        self.families = build_families(self.queries.values(), catalog)
        self.orders: dict[str, EntityOrder] = {}  # the delta path's ranking state, by query id for ranking()
        self._rankings: dict[str, Ranking] = {} if filters_enabled else self._rescan()  # the reference path's
        if filters_enabled:
            for fam in self.families:
                for inst, counts, totals in fam.scan(store):
                    fam.counts[inst], fam.totals[inst] = counts, totals
                    fam.orders[inst] = per_column = []
                    for qids, t, real in zip(fam.members[inst], totals, fam.real):
                        per_column.append(orders := [])
                        for qid in qids:
                            order = self.orders[qid] = EntityOrder(t, counts, real, self.queries[qid])
                            orders.append(order)
                for rel in fam.needed:
                    fam.plans[rel] = fam.plan(store, rel)
            store.drop_join_cache()  # the delta path never scans again
        self._routes: dict[tuple, tuple] = {}  # see _route
        self.last_stats = DetectStats(0, 0, 0, 0, 0, 0, 0)

    def ranking(self, qid: str) -> Ranking:
        """qid's current top-K: (entity, value) pairs, best first."""
        return self.orders[qid].ranking() if self.filters_enabled else self._rankings[qid]

    def _rescan(self) -> dict[str, Ranking]:
        """Every ranking from one from-scratch scan per family, each sorted
        in full by build_ranking; a real column's totals as real_value."""
        out: dict[str, Ranking] = {}
        for fam in self.families:
            for inst, counts, totals in fam.scan(self.store):
                for qids, t, real in zip(fam.members[inst], totals, fam.real):
                    if real:
                        t = {e: real_value(total) for e, total in t.items()}
                    for qid in qids:
                        c = self.queries[qid].criterion
                        out[qid] = build_ranking(t, counts, c.aggregation, c.direction, self.queries[qid].k)
        return out

    def _replace(self, qid: str, new: Ranking, seq: int, events: list[RankEvent]) -> bool:
        """Store qid's new ranking, which differs from its stored one, append
        its improvements to events and tell whether its entity order
        changed; the reference path's diff."""
        old = self._rankings[qid]
        self._rankings[qid] = new
        moves = diff_rankings(old, new, self.queries[qid].k)
        events.extend(RankEvent(qid, entity, from_rank, to_rank, seq) for entity, from_rank, to_rank in moves)
        # Where the entity orders first differ, the new entity improves; with
        # no such position one order is a prefix of the other, so the order
        # changed exactly when something improved or the length changed.
        return bool(moves) or len(old) != len(new)

    # -- filtering --------------------------------------------------------

    def _route(self, u: UpdateRecord) -> tuple[dict[Family, list], list[tuple], list[Family], list[dict], int]:
        """The column tier for u: (families without a leaf extended once ->
        (index, position, exact) of their written criterion columns, (family,
        those columns, position of the leaf's join column) of families with a
        leaf that read their fan-out cache instead, families extended twice,
        the fan-out caches of those with a leaf, column candidates: the
        queries of the written columns of the first two and of every column
        of the third). A family is hit when u writes one of its shape or
        criterion columns, and extended twice when it writes a shape column;
        every relation a family reads holds one, so an insert that hits a
        family is extended twice. Memoized on u's kind, table and columns."""
        key = (u.kind, u.table, tuple(u.set_values))
        route = self._routes.get(key)
        if route is None:
            written = {ColumnRef(u.table, c) for c in u.set_values}  # an insert's: the full row
            positions = self.store.table(u.table).col_pos
            once, cached, twice, n = {}, [], [], 0
            for fam in self.families:
                columns = [(j, positions[c.column], exact) for j, (c, exact) in enumerate(zip(fam.columns, fam.exact))
                           if c in written]
                if not written.isdisjoint(fam.shape):
                    # u may change which joined rows exist and where they land
                    twice.append(fam)
                    n += sum(len(qids) for per_column in fam.members.values() for qids in per_column)
                elif columns:  # u can only revalue them, in its written columns
                    n += sum(len(per_column[j]) for per_column in fam.members.values() for j, *_ in columns)
                    if fam.leaf:  # a family's criterion columns are all in its leaf, so u.table is the leaf
                        cached.append((fam, columns, positions[fam.leaf_column]))
                    else:
                        once[fam] = columns
            route = self._routes[key] = (once, cached, twice, [fam.fanout for fam in twice if fam.leaf], n)
        return route

    def row_filter(
        self, u: UpdateRecord, rows: Iterable[int], families: Iterable[Family]
    ) -> list[tuple[Family, tuple, Any, tuple, list]]:
        """(family, *contribution) for every extension of the given rows of
        u.table along a family's join path that satisfies the fixed atoms
        and the bindings of one of the family's queries (see Family.plan)."""
        rows = list(rows)
        if not rows:
            return []
        return [(fam, *c) for fam in families for c in fam.plans[u.table](rows)]

    # -- detection ----------------------------------------------------------

    def detect(self, u: UpdateRecord) -> list[RankEvent]:
        """Apply one update and return the rank improvements it caused.

        Families whose shape columns the update does not write extend its rows
        once before the update and take the written criterion columns' old
        values from the contributions, or with a leaf look up each row's cached
        fan-out and read the old values from a copy of the row; only the others
        extend the rows before and after it and net the two in a signed loop.
        Each contribution goes straight into its family's counts and totals,
        then every concerned query of a touched instance updates its order
        once. The store is only mutated if the update is valid, and the engine
        only after that.
        """
        events: list[RankEvent] = []
        changed = 0
        if not self.filters_enabled:
            self.store.apply_update(u)
            new_states = self._rescan()
            reordered = 0  # the stored top-Ks that changed, as the delta path counts them
            for qid in sorted(new_states):
                if new_states[qid] != self._rankings[qid]:
                    reordered += 1
                    changed += self._replace(qid, new_states[qid], u.seq, events)
            n = len(self.queries)
            self.last_stats = DetectStats(n, n, changed, reordered, 0, 0, 0)
            events.sort(key=lambda e: (e.query_id, str(e.entity)))
            return events

        once, cached, twice, cleared, column_candidates = self._route(u)
        rows = self.store.match_rows(u)
        table = self.store.table(u.table).rows
        # a cached fan-out holds no values, so its rows' old ones are copied
        before = {rid: table[rid][:] for rid in rows} if cached else {}
        kept = [(fam, columns, fam.plans[u.table](rows)) for fam, columns in once.items()]
        pre = self.row_filter(u, rows, twice) if twice else ()
        touched = self.store.apply_update(u, rows)
        # u may have changed which joined rows a leaf row reaches; a rejected
        # u changed nothing, and no family in twice reads its cache below
        for fanout in cleared:
            fanout.clear()
        extended = len(rows) * len(once)
        reused = 0
        # (family, instance, column index or None for every column) -> the
        # entities whose count or total in that column may have changed
        moved: defaultdict[tuple, set] = defaultdict(set)
        if twice:
            post = self.row_filter(u, touched, twice)
            extended += (len(rows) + len(touched)) * len(twice)
            for sign, images in ((-1, pre), (1, post)):
                for fam, inst, e, _, values in images:
                    counts, totals = fam.counts[inst], fam.totals[inst]
                    n = counts.get(e, 0) + sign
                    if n:
                        counts[e] = n
                        for t, v in zip(totals, values):
                            t[e] = t.get(e, 0) + sign * v
                    else:  # its last row: the exact totals are 0 now
                        del counts[e]
                        for t in totals:
                            del t[e]
                    moved[fam, inst, None].add(e)
        # written columns are base columns, so an extension reads them from its first row
        for fam, columns, contributions in kept:
            for inst, e, env, values in contributions:
                new = table[env[0]]
                for j, p, exact in columns:
                    entities = moved[fam, inst, j]
                    change = exact(new[p]) - values[j]
                    if change:
                        fam.totals[inst][j][e] += change
                        entities.add(e)
        # a leaf row reaches what its join value reaches: look that up, extend
        # the row only on a miss, and add each written column's change once
        # per joined row, with one moved set and one totals dict per instance
        for fam, columns, leaf in cached:
            fanout, totals = fam.fanout, fam.totals
            for rid in rows:
                old, new = before[rid], table[rid]
                groups = fanout.get(new[leaf])
                if groups is None:
                    reached: dict[tuple, list] = {}
                    for inst, e, *_ in fam.plans[u.table]((rid,)):
                        reached.setdefault(inst, []).append(e)
                    groups = fanout[new[leaf]] = tuple([(inst, tuple(es)) for inst, es in reached.items()])
                    extended += 1
                else:
                    reused += 1
                for j, p, exact in columns:
                    change = exact(new[p]) - exact(old[p]) if new[p] != old[p] else 0
                    for inst, entities in groups:
                        slot = moved[fam, inst, j]
                        if change:
                            t = totals[inst][j]
                            for e in entities:
                                t[e] += change
                            slot.update(entities)

        # row candidates count the queries of every named instance, unchanged ones too
        candidates = reordered = refilled = 0
        seq = u.seq
        for (fam, inst, j), entities in moved.items():
            counts, per_column = fam.counts[inst], fam.orders[inst]
            for orders in per_column if j is None else (per_column[j],):
                candidates += len(orders)
                for order in orders if entities else ():
                    result = order.update(entities, counts, seq, events)
                    if result:
                        reordered += result & REORDERED
                        changed += bool(result & CHANGED)
                        refilled += bool(result & REFILLED)
        if len(events) > 1:
            events.sort(key=lambda e: (e.query_id, str(e.entity)))
        self.last_stats = DetectStats(column_candidates, candidates, changed, reordered, refilled, extended, reused)
        return events

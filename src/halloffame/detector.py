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

Per update the engine runs a column filter (does the update write any
column a family depends on?), then a row filter: the updated rows are
extended along each touched family's join path, and every extension that
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
post-image ones. Totals of integer columns are exact ints, those of real
columns exact Fractions, so no order of updates can make them drift.

A family with a leaf caches its fan-out: per join value of the leaf, the
(instance, entity) of every extension of a leaf row holding it, filled on
first use from the family's extension of one such row. The leaf holds no
entity, binding or fixed-atom column and one path edge touches it, so what
a leaf row reaches depends only on its join value and the shape columns of
the other relations. A criterion-only write to the leaf therefore looks
its rows' join values up instead of extending the rows, and adds each
written column's change, taken once per row, to every cached pair. The
cache is cleared whenever an update extends the family twice: it writes
one of the family's shape columns, or inserts into one of its relations.

Each query keeps the sort keys (value, entity) of its instance's best 2k
entities, best first (the value build_ranking ranks on, saturated to -inf
or +inf when its float is out of range), and a bound above which lie the
keys of all other entities. Per update it re-keys the entities whose count
or total in its column may have changed. When none of them is held, none
falls within the bound and the order is not short, nothing changes and no
list is sorted. Otherwise it keeps the keys within the bound and cuts the
list back to 2k; only when fewer than k keys remain does it sort the whole
instance again. Only when the first k keys changed is its ranking rebuilt:
the order hands back its old first k keys, and every entity that ranks
better in the new ones than in those becomes an event.

With filters disabled the engine rescans every family from scratch on
every update, ranks each instance with build_ranking and diffs the old and
new rankings with diff_rankings instead. That path shares no code with the
delta path's row extension, its entity orders or its event derivation, so
the two cross-check each other.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from typing import Any, Callable, Iterable, Iterator

from .catalog import ATOM_BINDING, ColumnRef, SchemaCatalog
from .generator import HofQuery
from .store import JoinScan, RankingState, Store, UpdateRecord, build_ranking, compile_predicate, leaf_edge


@dataclass(slots=True)
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
    absent from the old ranking improve from rank k + 1. Only the reference
    path (filters off) diffs rankings; the delta path compares sort keys
    (EntityOrder.improvements)."""
    old_ranks = old.ranks()
    out = []
    for rank, (entity, _) in enumerate(new.entries, start=1):
        previous = old_ranks.get(entity, k + 1)
        if rank < previous:
            out.append((entity, previous, rank))
    return out


@dataclass(slots=True)
class DetectStats:
    column_candidates: int
    row_candidates: int
    changed: int
    rebuilt: int  # rankings whose top-K keys changed, so they were rebuilt and their events derived
    refilled: int  # entity orders that ran short of k keys and sorted their instance again
    extended: int  # base rows extended along a family's join path, once per family and pass
    reused: int  # leaf fan-outs read from a family's cache instead


Contribution = tuple[tuple, Any, tuple, list]  # (instance, entity, row ids of the joined row, exact values)
Getter = tuple[int, int, list]  # a column: (position in a joined row, column position, table rows)


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
        self.referenced_columns = self.shape | set(self.columns)
        self.real = tuple(catalog.column_type(c) == "real" for c in self.columns)
        self.exact = tuple(Fraction if r else int for r in self.real)  # criterion value -> its exact term in a total
        # the edge to the relation of the criterion columns that scan sums
        # per join value before the join, or None
        self.leaf = leaf_edge(self.path, self.columns, (self.entity, *q.predicate_columns()))
        # the leaf's join column, and per join value of it the (instance,
        # entity) pairs, flat, of every extension of a leaf row holding it
        self.leaf_column = self.leaf and self.leaf.endpoint(self.columns[0].relation).column
        self.fanout: dict[Any, tuple] | None = {} if self.leaf else None
        self.members: dict[tuple, list[list[str]]] = {}  # instance -> per column: query ids
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
        readers = [(*getter(c), exact) for c, exact in zip(self.columns, self.exact)]
        keys = {inst: inst for inst in self.members}.get

        def contributions(row_ids: Iterable[int]) -> list[Contribution]:
            envs = [(rid,) for rid in row_ids]
            for table, column, oi, orows, opos in steps:
                index = table.indices[column]
                envs = [env + (rid,) for env in envs for rid in index.get(orows[env[oi]][opos], ())]
            return [
                (inst, erows[env[ei]][ep], env, [exact(rows[env[i]][p]) for i, p, rows, exact in readers])
                for env in (filter(check, envs) if check else envs)
                if (inst := keys(tuple([rows[env[i]][p] for i, p, rows in bind]))) is not None
            ]

        return contributions

    def scan(self, store: Store, exact: bool) -> Iterator[tuple[tuple, dict[Any, int], list[dict[Any, Any]]]]:
        """(instance, entity -> joined rows, per column: entity -> criterion
        total) of every member instance, from one zip loop over a JoinScan
        (the leaf summed per join value); an instance without rows gets empty
        dicts. A real column's totals are the correctly rounded math.fsum of
        its values, -inf or +inf out of range, or with exact the Fraction sum."""
        scan = JoinScan(store, self.needed, self.path, self.fixed, self.columns[0].relation if self.leaf else None)
        # an entity's first term (an int, or a new list of a real column's
        # values, kept for the final sum) becomes its total
        streams = [scan.terms(c, real) for c, real in zip(self.columns, self.real)]
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
            for t in compress(sums, self.real):
                for ent, terms in t.items():
                    try:
                        t[ent] = sum(map(Fraction, terms), Fraction()) if exact else math.fsum(terms)
                    except OverflowError:  # fsum's sum, or only a partial sum, is out of range
                        total = sum(map(Fraction, terms), Fraction())
                        try:
                            t[ent] = float(total)
                        except OverflowError:
                            t[ent] = math.inf if total > 0 else -math.inf
            yield inst, counts, sums


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
    the family's live counts for the instance. refills counts the updates
    after which it ran short of k keys and filled itself again."""

    __slots__ = ("keys", "bound", "key", "sign", "k", "refills")

    def __init__(self, totals: dict, counts: dict, real: bool, q: HofQuery):
        self.sign = -1 if q.criterion.direction == "descending" else 1
        self.key = order_key(totals, counts, real, q.criterion.aggregation == "avg", self.sign)
        self.k = q.k
        self.refills = 0
        self.fill(counts)

    def fill(self, counts: dict) -> None:
        """Hold the best 2k keys of all entities in counts."""
        keys = sorted(map(self.key, counts))
        cap = 2 * self.k
        self.bound = keys[cap - 1] if len(keys) > cap else None
        self.keys = keys[:cap]

    def update(self, moved: set, counts: dict) -> list | None:
        """Re-key the moved entities after their count or total changed; one
        no longer in counts leaves. Returns the first k keys held before the
        update when they changed, else None. When no held entity moved, no
        re-keyed one falls within the bound and the order holds k keys or
        every entity, the keys stay as they are and nothing is sorted."""
        keys, bound, k = self.keys, self.bound, self.k
        kept = [x for x in keys if x[1] not in moved]
        key = self.key
        fresh = [key(e) for e in moved if e in counts]
        if bound is not None:
            fresh = [x for x in fresh if x <= bound]
        held = len(keys)
        if not fresh and len(kept) == held and (held >= k or len(counts) <= held):
            return None
        top = keys[:k]
        kept += fresh
        kept.sort()
        cap = 2 * k
        if len(kept) > cap:
            bound = kept[cap - 1]
            del kept[cap:]
        self.keys, self.bound = kept, bound
        if len(kept) < k and len(counts) > len(kept):
            self.fill(counts)
            self.refills += 1
        return top if self.keys[:k] != top else None

    def improvements(self, top: list) -> list[tuple[Any, int, int]]:
        """(entity, from_rank, to_rank) of every entity that ranks better in
        the first k keys than in top, the first k keys held before; one
        absent from top improves from rank k + 1."""
        k = self.k
        before = {e: rank for rank, (_, e) in enumerate(top, start=1)}
        out = []
        for rank, (_, e) in enumerate(self.keys[:k], start=1):
            previous = before.get(e, k + 1)
            if rank < previous:
                out.append((e, previous, rank))
        return out

    def ranking(self) -> RankingState:
        """The top-K with build_ranking's values; multiplying by the sign is
        exact, so it restores each key's value."""
        sign = self.sign
        return RankingState(tuple([(e, sign * v) for v, e in self.keys[: self.k]]))


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
                    fam.plans[rel] = fam.plan(store, rel)
            store.drop_join_cache()  # the delta path never scans again
        else:
            self.rankings = self._rescan()
        self._routes: dict[tuple, tuple] = {}  # see _route
        self.last_stats = DetectStats(0, 0, 0, 0, 0, 0, 0)

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
        tell whether its entity order changed; the reference path's diff."""
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

    def _route(self, u: UpdateRecord) -> tuple[dict[Family, list], list[tuple], list[Family], list[dict], int]:
        """(families without a leaf extended once -> (index, position, exact)
        of their written criterion columns, (family, those columns, position
        of the leaf's join column) of families with a leaf that read their
        fan-out cache instead, families extended twice, the fan-out caches
        of those with a leaf, column candidates: the queries of the written
        columns of the first two and of every column of the third) for u.
        They depend only on u's kind, table and written columns, so they are
        memoized on those."""
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
            # a family's criterion columns are all in its leaf, so u.table is the leaf
            cached = [(fam, once.pop(fam), positions[fam.leaf_column]) for fam in list(once) if fam.leaf]
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

        Families whose shape columns the update does not write extend its
        rows once before the update and take the written criterion columns'
        old values from the contributions, or with a leaf look up each row's
        cached fan-out and read the old values from a copy of the row; the
        others extend the rows before and after it. Each contribution goes
        straight into its family's counts and totals, then every concerned
        query of a touched instance updates its order once. The store is
        only mutated if the update is valid, and the engine only after that.
        """
        events: list[RankEvent] = []
        changed = 0
        if not self.filters_enabled:
            self.store.apply_update(u)
            new_states = self._rescan()
            for qid in sorted(new_states):
                changed += self._replace(qid, new_states[qid], u.seq, events)
            n = len(self.queries)
            self.last_stats = DetectStats(n, n, changed, n, 0, 0, 0)
            events.sort(key=lambda e: (e.query_id, str(e.entity)))
            return events

        once, cached, twice, cleared, column_candidates = self._route(u)
        for fanout in cleared:  # u may change which joined rows a leaf row reaches
            fanout.clear()
        rows = self.store.match_rows(u)
        table = self.store.table(u.table).rows
        # a cached fan-out holds no values, so its rows' old ones are copied
        before = {rid: table[rid][:] for rid in rows} if cached else {}
        kept = self.row_filter(u, rows, once)
        pre = self.row_filter(u, rows, twice)
        touched = self.store.apply_update(u, rows)
        post = self.row_filter(u, touched, twice)
        extended = (len(rows) + len(touched)) * len(twice) + len(rows) * len(once)
        reused = 0
        # (family, instance, column index or None for every column) -> the
        # entities whose count or total in that column may have changed
        moved: defaultdict[tuple, set] = defaultdict(set)
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
        for fam, inst, e, env, values in kept:
            new = table[env[0]]
            for j, p, exact in once[fam]:
                entities = moved[fam, inst, j]
                change = exact(new[p]) - values[j]
                if change:
                    fam.totals[inst][j][e] += change
                    entities.add(e)
        # a leaf row reaches what its join value reaches: look that up, extend
        # the row only on a miss, and add each written column's change once
        for fam, columns, leaf in cached:
            fanout, totals = fam.fanout, fam.totals
            for rid in rows:
                old, new = before[rid], table[rid]
                pairs = fanout.get(new[leaf])
                if pairs is None:
                    contributions = fam.plans[u.table]((rid,))
                    pairs = fanout[new[leaf]] = tuple([x for inst, e, *_ in contributions for x in (inst, e)])
                    extended += 1
                else:
                    reused += 1
                for j, p, exact in columns:
                    change = exact(new[p]) - exact(old[p]) if new[p] != old[p] else None
                    it = iter(pairs)
                    for inst, e in zip(it, it):
                        entities = moved[fam, inst, j]
                        if change is not None:
                            totals[inst][j][e] += change
                            entities.add(e)

        # row candidates count the queries of every named instance, unchanged ones too
        candidates = rebuilt = refilled = 0
        orders, rankings, seq = self.orders, self.rankings, u.seq
        for (fam, inst, j), entities in moved.items():
            counts, per_column = fam.counts[inst], fam.members[inst]
            for qids in per_column if j is None else (per_column[j],):
                candidates += len(qids)
                for qid in qids if entities else ():
                    order = orders[qid]
                    fills = order.refills
                    top = order.update(entities, counts)
                    refilled += order.refills - fills
                    if top is not None:
                        rebuilt += 1
                        new = rankings[qid] = order.ranking()
                        moves = order.improvements(top)
                        events.extend(RankEvent(qid, e, from_rank, to_rank, seq) for e, from_rank, to_rank in moves)
                        # as in _replace: the entity order changed exactly
                        # when something improved or the length changed
                        changed += bool(moves) or len(top) != len(new)
        events.sort(key=lambda e: (e.query_id, str(e.entity)))
        self.last_stats = DetectStats(column_candidates, candidates, changed, rebuilt, refilled, extended, reused)
        return events

"""Two-tier filtering and delta maintenance of rankings, one update at a time.

Queries that share entity attribute, criterion column, join path, fixed
atoms and binding columns form a family; they differ only in their binding
values, the instance. For every instance that is a query, a family keeps
per-entity criterion totals and row counts, built by one scan at start-up.

Per update the engine runs a column filter (does the update write any
column a family depends on?), then a row filter: the updated rows are
extended along each touched family's join path before and after the update,
and every extension that satisfies the family's fixed atoms and lands in a
query's instance contributes (instance, entity, value). Subtracting the
pre-image contributions and adding the post-image ones brings the
totals and counts up to date; only the rankings of instances that received a
contribution are rebuilt and diffed, and only rank improvements become
events. Totals of integer columns are exact ints, those of real columns
exact Fractions, so no order of updates can make them drift.

With filters disabled the engine rescans every family from scratch on
every update instead. That path shares no maintenance code with the delta
path, so the two cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Mapping

from .catalog import ColumnRef, SchemaCatalog
from .generator import HofQuery
from .store import InstEval, RankingState, Store, UpdateRecord, build_ranking, compile_predicate


@dataclass(frozen=True, slots=True)
class RankEvent:
    """An entity improved from from_rank to to_rank in one ranking."""

    query_id: str
    entity: Any
    from_rank: int
    to_rank: int
    seq: int


ColumnIndex = dict[ColumnRef, set]


def build_column_index(items: Iterable) -> ColumnIndex:
    """column -> ids of all items (queries or families) whose referenced
    columns include it."""
    index: ColumnIndex = {}
    for item in items:
        for col in item.referenced_columns:
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


Contribution = tuple[tuple, Any, Any]  # (instance, entity, criterion value)


class Family:
    """Queries sharing entity attribute, criterion column, join path, fixed
    atoms and binding columns; one scan evaluates all their instances."""

    def __init__(self, fid: int, q: HofQuery, exact: bool):
        self.id = fid
        self.entity = q.entity_attr
        self.crit_column = q.criterion.column
        self.needed = q.relations()
        self.path = q.join_path
        self.fixed = q.fixed_atoms()
        self.binding_cols = tuple(a.left for a in q.binding_atoms())
        self.referenced_columns = q.referenced_columns
        self.exact = exact  # real criterion column: Fraction totals
        self.members: dict[tuple, list[str]] = {}  # instance -> query ids
        self.n_queries = 0
        self.totals: dict[tuple, dict[Any, Any]] = {}  # instance -> entity -> criterion total
        self.counts: dict[tuple, dict[Any, int]] = {}  # instance -> entity -> joined rows
        self.plans: dict[str, Callable[[Iterable[int]], list[Contribution]]] = {}

    def plan(self, store: Store, base: str) -> Callable[[Iterable[int]], list[Contribution]]:
        """Row ids of `base` -> contributions of their extensions along the
        join path that satisfy the fixed atoms and land in a member instance."""
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
        ci, cp, crows = getter(self.crit_column)
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
                        out.append((inst, erows[env[ei]][ep], crows[env[ci]][cp]))
            return out

        return contributions

    def add(self, inst: tuple, entity: Any, value: Any, sign: int) -> None:
        """Add (sign 1) or remove (sign -1) one joined row's value; an
        entity whose count reaches 0 leaves the instance."""
        if self.exact:
            value = Fraction(value)
        totals, counts = self.totals[inst], self.counts[inst]
        count = counts.get(entity, 0) + sign
        if count:
            counts[entity] = count
            totals[entity] = totals.get(entity, 0) + sign * value
        else:
            del counts[entity], totals[entity]

    def view(self, inst: tuple) -> tuple[Mapping[Any, Any], Mapping[Any, int]]:
        """The instance's totals and counts as build_ranking reads them;
        exact totals become correctly rounded floats."""
        totals = self.totals[inst]
        if self.exact:
            totals = {entity: float(total) for entity, total in totals.items()}
        return totals, self.counts[inst]


def build_families(queries: Iterable[HofQuery], catalog: SchemaCatalog) -> list[Family]:
    families: dict[tuple, Family] = {}
    for q in queries:
        bindings = q.binding_atoms()
        key = (q.entity_attr, q.criterion.column, q.join_path, q.fixed_atoms(), tuple(a.left for a in bindings))
        fam = families.get(key)
        if fam is None:
            exact = catalog.column_type(q.criterion.column) == "real"
            fam = families[key] = Family(len(families), q, exact)
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
        self.rankings: dict[str, RankingState] = {}
        if filters_enabled:
            for fam in self.families:
                scan = store.evaluate_family(
                    fam.entity, fam.crit_column, fam.needed, fam.path, fam.fixed,
                    fam.binding_cols, set(fam.members), exact=fam.exact,
                )
                for inst in fam.members:
                    slot = scan.per_inst.get(inst) or InstEval()
                    fam.totals[inst], fam.counts[inst] = slot.totals, slot.counts
                    self.rankings.update(self._rank(fam, inst, *fam.view(inst)))
                fam.plans = {rel: fam.plan(store, rel) for rel in fam.needed}
            store.drop_join_cache()  # the delta path never scans again
        else:
            self.rankings = self._rescan()
        self.last_stats = DetectStats(0, 0, 0)

    def _rank(
        self, fam: Family, inst: tuple, totals: Mapping, counts: Mapping
    ) -> Iterator[tuple[str, RankingState]]:
        for qid in fam.members[inst]:
            q = self.queries[qid]
            yield qid, build_ranking(totals, counts, q.criterion.aggregation, q.criterion.direction, q.k)

    def _rescan(self) -> dict[str, RankingState]:
        """Every ranking from one from-scratch scan per family."""
        out: dict[str, RankingState] = {}
        for fam in self.families:
            scan = self.store.evaluate_family(
                fam.entity, fam.crit_column, fam.needed, fam.path, fam.fixed,
                fam.binding_cols, set(fam.members),
            )
            for inst in fam.members:
                slot = scan.per_inst.get(inst) or InstEval()
                out.update(self._rank(fam, inst, slot.totals, slot.counts))
        return out

    def _replace(self, qid: str, new: RankingState, seq: int, events: list[RankEvent]) -> bool:
        """Cache qid's new ranking, append its improvements to events and
        tell whether its entity order changed."""
        old = self.rankings[qid]
        self.rankings[qid] = new
        for entity, from_rank, to_rank in diff_rankings(old, new, self.queries[qid].k):
            events.append(RankEvent(qid, entity, from_rank, to_rank, seq))
        return old.entities() != new.entities()

    # -- filtering --------------------------------------------------------

    def row_filter(
        self, u: UpdateRecord, rows: Iterable[int], families: Iterable[Family]
    ) -> list[tuple[Family, tuple, Any, Any]]:
        """(family, instance, entity, value) for every extension of the given
        rows of u.table along a family's join path that satisfies the fixed
        atoms and the bindings of one of the family's queries."""
        rows = list(rows)
        if not rows:
            return []
        return [(fam, *c) for fam in families for c in fam.plans[u.table](rows)]

    # -- detection ----------------------------------------------------------

    def detect(self, u: UpdateRecord) -> list[RankEvent]:
        """Apply one update and return the rank improvements it caused.

        Queries no contribution reaches keep their cached ranking untouched;
        score-only changes that leave the entity order intact produce no
        events. The store is only mutated if the update is valid.
        """
        events: list[RankEvent] = []
        changed = 0
        if not self.filters_enabled:
            self.store.apply_update(u)
            new_states = self._rescan()
            for qid in sorted(new_states):
                changed += self._replace(qid, new_states[qid], u.seq, events)
            self.last_stats = DetectStats(len(self.queries), len(self.queries), changed)
            events.sort(key=lambda e: (e.query_id, str(e.entity)))
            return events

        families = [self.families[i] for i in sorted(column_filter(u, self.column_index))]
        pre = self.row_filter(u, self.store.match_rows(u), families)
        post = self.row_filter(u, self.store.apply_update(u), families)
        touched: dict[tuple[int, tuple], Family] = {}
        for sign, contributions in ((-1, pre), (1, post)):
            for fam, inst, entity, value in contributions:
                fam.add(inst, entity, value, sign)
                touched[fam.id, inst] = fam
        survivors = 0
        for (_, inst), fam in touched.items():
            for qid, new in self._rank(fam, inst, *fam.view(inst)):
                survivors += 1
                changed += self._replace(qid, new, u.seq, events)
        events.sort(key=lambda e: (e.query_id, str(e.entity)))
        self.last_stats = DetectStats(sum(f.n_queries for f in families), survivors, changed)
        return events


def detect(u: UpdateRecord, engine: Engine) -> list[RankEvent]:
    return engine.detect(u)

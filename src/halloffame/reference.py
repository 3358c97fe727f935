"""The from-scratch reference: every Hall of Fame evaluated again, as the SQL
query that defines it, after every update.

``hof run --no-filters`` runs it, and the tests and the benchmark's
correctness gate hold the delta path (detector.Engine) to its event logs.
So it shares no code with the delta path: it reads only the base tables'
rows and column positions, writes through Store.apply_update, and joins,
filters, groups, sums and ranks with its own code.

Queries that share a join path (over the same relations) and fixed atoms
read the same joined rows, so per update each such group is joined once:
a hash join built from the rows, edge by edge, whose joined row is the
concatenation of one row of each relation, then the fixed atoms as list
filters. The group's queries that share entity and binding columns (a
Shape) then group those rows once, by instance and entity, for all their
instances and criteria (the shared group-bys of a data cube: Gray et al.,
1997): one loop over the zipped column streams adds each row's term, its
row count of 1 and its criterion values, to its entity's total. A real
column collects its values and sums them with math.fsum, the correctly
rounded exact sum. fsum raises OverflowError when a partial sum leaves the
float range, even where the exact sum does not, so the sum is then taken
exactly as a Fraction and rounded once, out of range to -inf or +inf.

A query's ranking is a full sort of its instance's entities by value (the
sum, or the sum divided by the row count for avg, -inf or +inf when out of
range), best first, ties by ascending entity, cut to k. An update's events
are the diff of each changed ranking against the stored one.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat
from fractions import Fraction
from typing import Any, Callable, Iterable

from .catalog import ATOM_BINDING, ColumnRef, SchemaCatalog
from .detector import DetectStats, RankEvent, Ranking
from .generator import HofQuery
from .store import Store, UpdateRecord

_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ENTITY, _VALUE = operator.itemgetter(0), operator.itemgetter(1)  # of an (entity, value) item


def real_sum(values: list[float]) -> float:
    """The correctly rounded sum of values, -inf or +inf out of range."""
    try:
        return math.fsum(values)
    except OverflowError:  # a partial sum left the range; the exact sum may not
        exact = sum(map(Fraction, values))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def mean(total: Any, n: int) -> float:
    """total / n, -inf or +inf out of range."""
    try:
        return total / n
    except OverflowError:  # an int total beyond the float range
        return math.inf if total > 0 else -math.inf


def diff_rankings(old: Ranking, new: Ranking, k: int) -> list[tuple[Any, int, int]]:
    """(entity, from_rank, to_rank) for every strict improvement; entities
    absent from the old ranking improve from rank k + 1."""
    old_ranks = {entity: rank for rank, (entity, _) in enumerate(old, start=1)}
    out = []
    for rank, (entity, _) in enumerate(new, start=1):
        previous = old_ranks.get(entity, k + 1)
        if rank < previous:
            out.append((entity, previous, rank))
    return out


class Reference:
    """Every query's ranking, evaluated from the base tables after each update."""

    def __init__(self, catalog: SchemaCatalog, store: Store, queries: Iterable[HofQuery]):
        self.store = store
        self.queries: dict[str, HofQuery] = {q.id: q for q in queries}
        # (relations, join path, fixed atoms) -> (entity, binding columns) -> instance -> its queries
        groups: dict[tuple, dict[tuple, dict[tuple, list[HofQuery]]]] = {}
        for q in self.queries.values():
            binding = [a for a in q.predicate if a.kind == ATOM_BINDING]
            atoms = frozenset(a for a in q.predicate if a.kind != ATOM_BINDING)
            shapes = groups.setdefault((q.relations(), q.join_path, atoms), {})
            instances = shapes.setdefault((q.entity_attr, tuple(a.left for a in binding)), {})
            instances.setdefault(tuple(a.right for a in binding), []).append(q)
        self._groups = [(key, [Shape(catalog, *shape, instances) for shape, instances in shapes.items()])
                        for key, shapes in groups.items()]
        self._rankings, joined = self._evaluate()
        store.rows_read += joined  # the joined rows of its start-up
        self.last_stats = DetectStats(0, 0, 0, 0, 0, 0, 0, 0)

    def ranking(self, qid: str) -> Ranking:
        """qid's current top-K: (entity, value) pairs, best first."""
        return self._rankings[qid]

    def detect(self, u: UpdateRecord) -> list[RankEvent]:
        """Apply one update, evaluate every query again and return the rank
        improvements of the rankings that changed. A rejected update changes
        nothing."""
        self.store.apply_update(u)
        new, _ = self._evaluate()
        events: list[RankEvent] = []
        changed = reordered = 0
        for qid, ranking in new.items():
            old = self._rankings[qid]
            if ranking != old:
                reordered += 1
                moves = diff_rankings(old, ranking, self.queries[qid].k)
                events.extend(RankEvent(qid, entity, before, after, u.seq) for entity, before, after in moves)
                # where the entity orders first differ the new entity improves;
                # with no such position one is a prefix of the other
                changed += bool(moves) or len(old) != len(ranking)
        self._rankings = new
        n = len(self.queries)
        self.last_stats = DetectStats(n, n, changed, reordered, 0, 0, 0, 0)
        events.sort(key=lambda e: (e.query_id, str(e.entity)))
        return events

    def _evaluate(self) -> tuple[dict[str, Ranking], int]:
        """Every query's ranking, and how many joined rows were read."""
        out: dict[str, Ranking] = {}
        joined = 0
        for (relations, path, atoms), shapes in self._groups:
            rows, position = self._join(relations, path)
            joined += len(rows)
            for atom in atoms:
                op, left = _COMPARE[atom.comparator], position(atom.left)
                if isinstance(atom.right, ColumnRef):
                    right = position(atom.right)
                    rows = [r for r in rows if op(r[left], r[right])]
                else:
                    const = atom.right
                    rows = [r for r in rows if op(r[left], const)]
            for shape in shapes:
                shape.rank(rows, position, out)
        return out, joined

    def _join(self, relations: frozenset[str], path: tuple) -> tuple[list, Callable[[ColumnRef], int]]:
        """The joined rows of a path (of its one relation when it has no
        edge), each the concatenation of one row per relation, and a
        function from a column to its position in them."""
        tables = self.store.tables
        first = min(relations)
        offset = {first: 0}
        width = len(tables[first].col_pos)
        rows = tables[first].rows
        remaining = list(path)
        while remaining:
            edge = next(e for e in remaining if (e.src.relation in offset) != (e.dst.relation in offset))
            remaining.remove(edge)
            old, new = (edge.src, edge.dst) if edge.src.relation in offset else (edge.dst, edge.src)
            table = tables[new.relation]
            p = table.col_pos[new.column]
            matches: dict[Any, list] = {}
            for row in table.rows:
                matches.setdefault(row[p], []).append(row)
            q = offset[old.relation] + tables[old.relation].col_pos[old.column]
            rows = [left + right for left in rows for right in matches.get(left[q], ())]
            offset[new.relation] = width
            width += len(table.col_pos)

        def position(ref: ColumnRef) -> int:
            return offset[ref.relation] + tables[ref.relation].col_pos[ref.column]

        return rows, position


class Shape:
    """The queries of one group that share entity and binding columns: one
    group-by of the joined rows serves all their instances and criteria."""

    def __init__(self, catalog: SchemaCatalog, entity: ColumnRef, binding: tuple, instances: dict):
        self.entity, self.binding = entity, binding
        self.columns = list(dict.fromkeys(q.criterion.column for qs in instances.values() for q in qs))
        self.real = [i for i, c in enumerate(self.columns, start=1) if catalog.column_type(c) == "real"]
        # per instance, per criterion: (its column's slot in a total, avg, descending, (query id, k) of its queries)
        self.instances: dict[tuple, list[tuple[int, bool, bool, list[tuple[str, int]]]]] = {}
        for inst, queries in instances.items():
            by_criterion: dict = {}
            for q in queries:
                by_criterion.setdefault(q.criterion, []).append((q.id, q.k))
            self.instances[inst] = [
                (self.columns.index(c.column) + 1, c.aggregation == "avg", c.direction == "descending", qs)
                for c, qs in by_criterion.items()
            ]

    def rank(self, rows: list, position: Callable[[ColumnRef], int], out: dict) -> None:
        """Group rows by (instance, entity) and put every query's ranking in out."""
        # instance -> entity -> (rows, then per column its sum, or a real column's values)
        groups: dict[tuple, dict[Any, tuple]] = {inst: {} for inst in self.instances}
        get = groups.get
        insts = zip(*(map(operator.itemgetter(position(c)), rows) for c in self.binding)) if self.binding else repeat(())
        entities = map(operator.itemgetter(position(self.entity)), rows)
        terms = [repeat(1), *(map(operator.itemgetter(position(c)), rows) for c in self.columns)]
        for i in self.real:  # a real value as a list of one, which iadd extends in place
            terms[i] = map(list, zip(terms[i]))
        iadd = operator.iadd
        for inst, e, term in zip(insts, entities, zip(*terms)):
            slot = get(inst)
            if slot is not None:
                total = slot.get(e)
                slot[e] = term if total is None else tuple(map(iadd, total, term))
        for inst, criteria in self.instances.items():
            totals = groups[inst]
            if self.real:
                for e, total in totals.items():
                    total = totals[e] = list(total)
                    for i in self.real:
                        total[i] = real_sum(total[i])
            for i, avg, descending, queries in criteria:
                if avg:
                    items = [(e, mean(total[i], total[0])) for e, total in totals.items()]
                else:
                    items = [(e, total[i]) for e, total in totals.items()]
                items.sort(key=_ENTITY)  # ties by ascending entity
                items.sort(key=_VALUE, reverse=descending)
                for qid, k in queries:
                    out[qid] = tuple(items[:k])

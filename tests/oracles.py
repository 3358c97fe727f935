"""Brute-force reference implementations and random instance builders.

Everything here works on plain dict rows with nested-loop joins and no
indices or pruning, sharing no evaluation code with the package. Tests
compare engine output against these oracles; the oracles stay dumb on
purpose.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field

from halloffame import ColumnRef, Delta, HofQuery, UpdateRecord

_OPS = {
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


@dataclass
class Instance:
    """A randomly generated schema + data in both engine and oracle form."""

    config_text: str
    csvs: dict[str, str]
    tables: dict[str, list[dict]]  # oracle-side rows
    edges: list[tuple]  # (rel_a, col_a, rel_b, col_b)
    entity_attrs: list[tuple]  # (rel, col)
    cat_attrs: list[tuple]
    criteria: list[tuple]  # (rel, col, aggregation, direction)
    user_atoms: list[tuple] = field(default_factory=list)  # (kind, (rel,col), op, rhs)
    key_cols: dict[str, list[str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Oracle-side evaluation
# ---------------------------------------------------------------------------


def oracle_join(tables: dict[str, list[dict]], edges: list[tuple], rels: set[str]) -> list[dict]:
    """Nested-loop join over the relations, following the declared edges.

    Returns rows of shape {relation: rowdict}. Handles the shapes the random
    instances produce: one relation, or a set connected by the given edges.
    """
    rels = sorted(rels)
    joined = [{rels[0]: row} for row in tables[rels[0]]]
    remaining = set(rels[1:])
    usable = list(edges)
    while remaining:
        progressed = False
        for rel_a, col_a, rel_b, col_b in usable:
            have_a = rel_a not in remaining
            have_b = rel_b not in remaining
            if have_a == have_b:
                continue
            new_rel, new_col, old_rel, old_col = (
                (rel_b, col_b, rel_a, col_a) if have_a else (rel_a, col_a, rel_b, col_b)
            )
            if old_rel not in (set(rels) - remaining):
                continue
            out = []
            for jr in joined:
                for row in tables[new_rel]:
                    if row[new_col] == jr[old_rel][old_col]:
                        extended = dict(jr)
                        extended[new_rel] = row
                        out.append(extended)
            joined = out
            remaining.discard(new_rel)
            progressed = True
            break
        if not progressed:
            raise AssertionError(f"oracle cannot connect {remaining}")
    return joined


def oracle_path_join(tables: dict[str, list[dict]], path, rels: set[str]) -> list[dict]:
    """Nested-loop join along a query's own join path (package JoinEdges),
    from the first edge's source relation, or the one relation of an empty
    path. Returns rows of shape {relation: rowdict}. Where the join graph
    has cycles, two paths over one relation set can join different rows, so
    the path must be followed, not rediscovered."""
    if not path:
        (rel,) = rels
        return [{rel: row} for row in tables[rel]]
    start = path[0].src.relation
    have = {start}
    joined = [{start: row} for row in tables[start]]
    for edge in path:
        old, new = (edge.src, edge.dst) if edge.src.relation in have else (edge.dst, edge.src)
        have.add(new.relation)
        joined = [
            {**jr, new.relation: row}
            for jr in joined
            for row in tables[new.relation]
            if row[new.column] == jr[old.relation][old.column]
        ]
    return joined


def oracle_check_atom(jrow: dict, atom) -> bool:
    """atom: (kind, (rel, col), op, rhs) with rhs a constant or (rel, col)."""
    _, (rel, col), op, rhs = atom
    left = jrow[rel][col]
    right = jrow[rhs[0]][rhs[1]] if isinstance(rhs, tuple) else rhs
    return _OPS[op](left, right)


def oracle_groups(jrows, entity, crit, aggregation, atoms=()) -> dict:
    """entity/crit are (rel, col); returns entity value -> aggregate."""
    acc: dict = {}
    for jr in jrows:
        if not all(oracle_check_atom(jr, a) for a in atoms):
            continue
        ent = jr[entity[0]][entity[1]]
        val = jr[crit[0]][crit[1]]
        if ent in acc:
            acc[ent][0] += val
            acc[ent][1] += 1
        else:
            acc[ent] = [val, 1]
    if aggregation == "avg":
        return {e: t / n for e, (t, n) in acc.items()}
    return {e: t for e, (t, _) in acc.items()}


def oracle_rank(groups: dict, direction: str, k=None) -> list[tuple]:
    if direction == "descending":
        items = sorted(groups.items(), key=lambda it: (-it[1], it[0]))
    else:
        items = sorted(groups.items(), key=lambda it: (it[1], it[0]))
    return items if k is None else items[:k]


def _atom_of(a) -> tuple:
    """Signature of a package ConstraintAtom for set comparison."""
    rhs = (a.right.relation, a.right.column) if isinstance(a.right, ColumnRef) else a.right
    return (a.kind, (a.left.relation, a.left.column), a.comparator, rhs)


def query_signature(q: HofQuery) -> tuple:
    return (
        (q.entity_attr.relation, q.entity_attr.column),
        frozenset(_atom_of(a) for a in q.predicate),
        (q.criterion.column.relation, q.criterion.column.column),
        q.criterion.aggregation,
        q.criterion.direction,
    )


def _query_relations(q: HofQuery) -> set[str]:
    """Every relation a query's fields name."""
    rels = {q.entity_attr.relation, q.criterion.column.relation}
    rels.update(r for edge in q.join_path for r in (edge.src.relation, edge.dst.relation))
    for _, (rel, _), _, rhs in map(_atom_of, q.predicate):
        rels.add(rel)
        if isinstance(rhs, tuple):
            rels.add(rhs[0])
    return rels


def fixed_atoms(q: HofQuery) -> tuple:
    """The atoms of a query's predicate that no data value binds: the user
    constraint atoms."""
    return tuple(a for a in q.predicate if a.kind != "binding")


def referenced_columns(q: HofQuery) -> frozenset[ColumnRef]:
    """Every column a query's fields name: its entity, criterion, predicate
    and join path columns."""
    cols = {q.entity_attr, q.criterion.column}
    for a in q.predicate:
        cols.add(a.left)
        if isinstance(a.right, ColumnRef):
            cols.add(a.right)
    for edge in q.join_path:
        cols.update((edge.src, edge.dst))
    return frozenset(cols)


def _selectivity(jrows: list[dict], q: HofQuery) -> float:
    atoms = [_atom_of(a) for a in q.predicate]
    return sum(all(oracle_check_atom(jr, a) for a in atoms) for jr in jrows) / len(jrows)


def _entropy_bits(jrows: list[dict], q: HofQuery) -> float:
    columns = set()
    for _, left, _, rhs in map(_atom_of, q.predicate):
        columns.add(left)
        if isinstance(rhs, tuple):
            columns.add(rhs)
    counts = Counter(tuple(jr[rel][col] for rel, col in sorted(columns)) for jr in jrows)
    n = len(jrows)
    return sum(c / n * math.log2(n / c) for c in counts.values())


def oracle_selectivity(tables: dict[str, list[dict]], inst: Instance, q: HofQuery) -> float:
    """Share of the rows joined over the query's relations that satisfy its
    whole predicate."""
    return _selectivity(oracle_join(tables, inst.edges, _query_relations(q)), q)


def oracle_entropy_bits(tables: dict[str, list[dict]], inst: Instance, q: HofQuery) -> float:
    """Shannon entropy (bits) of the joint values of the predicate's columns
    over every row joined over the query's relations, the predicate unapplied;
    0 for an empty predicate."""
    return _entropy_bits(oracle_join(tables, inst.edges, _query_relations(q)), q)


def oracle_path_scores(tables: dict[str, list[dict]], q: HofQuery) -> tuple[float, float]:
    """(selectivity, entropy bits) as oracle_selectivity and
    oracle_entropy_bits give them, over the rows joined along the query's
    own join path (oracle_path_join)."""
    jrows = oracle_path_join(tables, q.join_path, _query_relations(q))
    return _selectivity(jrows, q), _entropy_bits(jrows, q)


def _ref(c: ColumnRef) -> str:
    return f"{c.relation}.{c.column}"


def _oracle_atom_json(atom) -> dict:
    right = atom.right
    if isinstance(right, ColumnRef):
        right = {"column": _ref(right)}
    return {"kind": atom.kind, "left": _ref(atom.left), "comparator": atom.comparator, "right": right}


def oracle_query_id(q: HofQuery) -> str:
    """The query's id: the first 16 hex digits of the sha256 of its whole
    document dumped as JSON with sorted keys."""
    doc = {
        "entity": _ref(q.entity_attr),
        "predicate": [_oracle_atom_json(a) for a in q.predicate],
        "criterion": [_ref(q.criterion.column), q.criterion.aggregation, q.criterion.direction],
        "path": [[_ref(e.src), _ref(e.dst)] for e in q.join_path],
        "k": q.k,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def oracle_sql(q: HofQuery) -> str:
    """The query's SQL rendering, written out in one f-string."""
    column = q.criterion.column
    agg = f"{q.criterion.aggregation.upper()}({_ref(column)})"
    if not q.join_path:
        from_clause = next(iter(_query_relations(q)))
    else:
        parts = []
        seen: set[str] = set()
        for edge in q.join_path:
            on = f"{_ref(edge.src)}={_ref(edge.dst)}"
            if not seen:
                parts.append(f"{edge.src.relation} JOIN {edge.dst.relation} ON {on}")
                seen.update((edge.src.relation, edge.dst.relation))
            else:
                new = next(iter({edge.src.relation, edge.dst.relation} - seen), None)
                parts.append(f"JOIN {new} ON {on}")
                if new:
                    seen.add(new)
        from_clause = " ".join(parts)
    where = ""
    if q.predicate:
        rendered = [
            f"{_ref(a.left)} {a.comparator} {_ref(a.right) if isinstance(a.right, ColumnRef) else repr(a.right)}"
            for a in q.predicate
        ]
        where = " WHERE " + " AND ".join(rendered)
    order = "ASC" if q.criterion.direction == "ascending" else "DESC"
    entity = _ref(q.entity_attr)
    return (
        f"SELECT {entity}, {agg} FROM {from_clause}{where} "
        f"GROUP BY {entity} ORDER BY {agg} {order} LIMIT {q.k}"
    )


def _join_cost(inst: Instance, rels: set[str]) -> int | None:
    """Minimal edges to connect rels, for the shapes instances produce."""
    if len(rels) <= 1:
        return 0
    if len(rels) == 2:
        for rel_a, _, rel_b, _ in inst.edges:
            if {rel_a, rel_b} == rels:
                return 1
        return None
    raise AssertionError("oracle instances use at most two relations")


def _subsets(items, max_size):
    out = [[]]
    for item in items:
        out += [s + [item] for s in out if len(s) < max_size]
    return out


def oracle_enumerate(inst: Instance, k: int, c_num: int, j_num: int) -> set[tuple]:
    """Full enumeration of every valid query, filtered by the join budget
    and the at-least-k rule; no pruning, no shared scans."""
    sources = [("bind", rc) for rc in inst.cat_attrs] + [("atom", a) for a in inst.user_atoms]
    result = set()
    for entity in inst.entity_attrs:
        for subset in _subsets(sources, c_num):
            bind_cols = [rc for kind, rc in subset if kind == "bind"]
            atoms = [a for kind, a in subset if kind == "atom"]
            rels1 = {entity[0]}
            rels1.update(rc[0] for rc in bind_cols)
            for a in atoms:
                rels1.add(a[1][0])
                if isinstance(a[3], tuple):
                    rels1.add(a[3][0])
            if _join_cost(inst, rels1) is None or _join_cost(inst, rels1) > j_num:
                continue
            for crel, ccol, agg, direction in inst.criteria:
                rels2 = rels1 | {crel}
                cost = _join_cost(inst, rels2)
                if cost is None or cost > j_num:
                    continue
                jrows = oracle_join(inst.tables, inst.edges, rels2)
                # partition by binding values, filter fixed atoms, count entities
                partitions: dict[tuple, set] = {}
                for jr in jrows:
                    if not all(oracle_check_atom(jr, a) for a in atoms):
                        continue
                    key = tuple(jr[rel][col] for rel, col in bind_cols)
                    partitions.setdefault(key, set()).add(jr[entity[0]][entity[1]])
                for inst_values, entities in partitions.items():
                    if len(entities) < k:
                        continue
                    bindings = [
                        ("binding", rc, "=", value) for rc, value in zip(bind_cols, inst_values)
                    ]
                    result.add(
                        (
                            entity,
                            frozenset(bindings + atoms),
                            (crel, ccol),
                            agg,
                            direction,
                        )
                    )
    return result


# ---------------------------------------------------------------------------
# Oracle-side update application and event detection
# ---------------------------------------------------------------------------


def oracle_apply(tables: dict[str, list[dict]], u: UpdateRecord) -> None:
    rows = tables[u.table]
    if u.kind == "insert":
        rows.append(dict(u.set_values))
        return
    for row in rows:
        if all(row[c] == v for c, v in u.where.items()):
            for col, value in u.set_values.items():
                row[col] = row[col] + value.amount if isinstance(value, Delta) else value


def _oracle_ranking(jrows: list[dict], q: HofQuery) -> list[tuple]:
    atoms = [_atom_of(a) for a in q.predicate]
    entity = (q.entity_attr.relation, q.entity_attr.column)
    crit = (q.criterion.column.relation, q.criterion.column.column)
    groups = oracle_groups(jrows, entity, crit, q.criterion.aggregation, atoms)
    return oracle_rank(groups, q.criterion.direction, q.k)


def oracle_eval_query(tables: dict[str, list[dict]], inst: Instance, q: HofQuery) -> list[tuple]:
    return _oracle_ranking(oracle_join(tables, inst.edges, set(q.relations())), q)


def oracle_path_rankings(tables: dict[str, list[dict]], queries) -> dict[str, list[tuple]]:
    """query id -> its ranking over its own join path (oracle_path_join);
    each distinct (path, relations) is joined once."""
    joins: dict[tuple, list[dict]] = {}
    out = {}
    for q in queries:
        key = (q.join_path, q.relations())
        if key not in joins:
            joins[key] = oracle_path_join(tables, q.join_path, set(q.relations()))
        out[q.id] = _oracle_ranking(joins[key], q)
    return out


def oracle_diff(old: list[tuple], new: list[tuple], k: int) -> list[tuple]:
    old_rank = {e: i + 1 for i, (e, _) in enumerate(old)}
    out = []
    for rank, (entity, _) in enumerate(new, start=1):
        prev = old_rank.get(entity, k + 1)
        if rank < prev:
            out.append((entity, prev, rank))
    return out


LESS, EQUAL, GREATER = -1, 0, 1


def compare_tradeoff(u: float, v: float, considerably) -> int:
    """The paper's single-position tradeoff comparison: GREATER/LESS only
    when the ``considerably`` margin predicate says so, EQUAL otherwise. Its
    indifference is intransitive, so the scorer ranks by quantized groups
    instead; this is the definition those groups stand in for."""
    if considerably(u, v):
        return GREATER
    if considerably(v, u):
        return LESS
    return EQUAL


def compare_tradeoff_sequences(us, vs, considerably) -> int:
    """Left-to-right tradeoff comparison; the first non-equal position decides."""
    if len(us) != len(vs):
        raise ValueError("sequences must have equal length")
    for u, v in zip(us, vs):
        decided = compare_tradeoff(u, v, considerably)
        if decided != EQUAL:
            return decided
    return EQUAL


def oracle_run(
    inst: Instance, queries: list[HofQuery], updates: list[UpdateRecord]
) -> list[tuple]:
    """Re-evaluate every query after every update; improvements only.

    Returns (seq, query_id, entity, from_rank, to_rank) tuples sorted the
    way the engine sorts its events.
    """
    tables = {name: [dict(r) for r in rows] for name, rows in inst.tables.items()}
    rankings = {q.id: oracle_eval_query(tables, inst, q) for q in queries}
    events = []
    for u in updates:
        oracle_apply(tables, u)
        per_update = []
        for q in sorted(queries, key=lambda q: q.id):
            new = oracle_eval_query(tables, inst, q)
            for entity, frm, to in oracle_diff(rankings[q.id], new, q.k):
                per_update.append((u.seq, q.id, entity, frm, to))
            rankings[q.id] = new
        per_update.sort(key=lambda e: (e[1], str(e[2])))
        events.extend(per_update)
    return events


# ---------------------------------------------------------------------------
# Random instance and update stream builders
# ---------------------------------------------------------------------------


def _csv_of(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    lines += [",".join(str(r[c]) for c in columns) for r in rows]
    return "\n".join(lines) + "\n"


def make_instance(
    rng: random.Random,
    n_rows: int = 120,
    n_entities: int = 30,
    n_c1: int = 6,
    n_c2: int = 4,
    two_tables: bool = False,
    n_teams: int = 5,
    n_leagues: int = 2,
    with_user_atom: bool = False,
    criteria: tuple = (("m1", "sum", "descending"), ("m2", "avg", "ascending")),
    value_range: int = 500,
    real_c2: bool = False,
) -> Instance:
    """One random benchmark instance: a stats table, optionally joined to a
    team table, with categorical attributes and numeric criteria. With
    real_c2 the categorical c2 is a real column whose first two values are
    0.0 and -0.0."""
    c2_values = [0.0, -0.0, *(i / 2 for i in range(2, n_c2))] if real_c2 else [f"b{i}" for i in range(n_c2)]
    stats_rows = []
    for sid in range(n_rows):
        row = {
            "sid": sid,
            "player": f"p{rng.randrange(n_entities):03d}",
            "c1": f"a{rng.randrange(n_c1)}",
            "c2": c2_values[rng.randrange(n_c2)],
            "m1": rng.randrange(value_range),
            "m2": rng.randrange(value_range),
        }
        if two_tables:
            row["team_id"] = rng.randrange(n_teams)
        stats_rows.append(row)

    stats_columns = ["sid", "player", "c1", "c2", "m1", "m2"] + (
        ["team_id"] if two_tables else []
    )
    col_types = {
        "sid": "integer",
        "player": "text",
        "c1": "text",
        "c2": "real" if real_c2 else "text",
        "m1": "integer",
        "m2": "integer",
        "team_id": "integer",
    }

    config = ["relations:"]
    config.append("  - name: stats")
    config.append("    columns:")
    for col in stats_columns:
        config.append(f"      - {{name: {col}, type: {col_types[col]}}}")
    config.append("    key: [sid]")

    tables = {"stats": stats_rows}
    edges = []
    cat_attrs = [("stats", "c1"), ("stats", "c2")]
    entity_attrs = [("stats", "player")]
    key_cols = {"stats": ["sid"]}
    if two_tables:
        team_rows = [
            {"t_id": t, "t_name": f"team{t:02d}", "league": f"L{t % n_leagues}"}
            for t in range(n_teams)
        ]
        tables["teams"] = team_rows
        edges.append(("stats", "team_id", "teams", "t_id"))
        cat_attrs.append(("teams", "league"))
        key_cols["teams"] = ["t_id"]
        config.append("  - name: teams")
        config.append("    columns:")
        config.append("      - {name: t_id, type: integer}")
        config.append("      - {name: t_name, type: text}")
        config.append("      - {name: league, type: text}")
        config.append("    key: [t_id]")

    config.append("entity_attrs: [stats.player]")
    config.append(
        "categorical_attrs: [" + ", ".join(f"{r}.{c}" for r, c in cat_attrs) + "]"
    )
    config.append("ranking_criteria:")
    crit_tuples = []
    for col, agg, direction in criteria:
        config.append(
            f"  - {{column: stats.{col}, aggregation: {agg}, direction: {direction}}}"
        )
        crit_tuples.append(("stats", col, agg, direction))
    user_atoms = []
    if with_user_atom:
        config.append("user_constraints:")
        config.append("  - {kind: inter_attribute, left: stats.m1, comparator: '>', right: stats.m2}")
        user_atoms.append(("inter_attribute", ("stats", "m1"), ">", ("stats", "m2")))
    if two_tables:
        config.append("join_edges:")
        config.append("  - {from: stats.team_id, to: teams.t_id}")

    csvs = {"stats": _csv_of(stats_rows, stats_columns)}
    if two_tables:
        csvs["teams"] = _csv_of(tables["teams"], ["t_id", "t_name", "league"])

    return Instance(
        config_text="\n".join(config) + "\n",
        csvs=csvs,
        tables=tables,
        edges=edges,
        entity_attrs=entity_attrs,
        cat_attrs=cat_attrs,
        criteria=crit_tuples,
        user_atoms=user_atoms,
        key_cols=key_cols,
    )


def make_updates(
    rng: random.Random,
    inst: Instance,
    n: int,
    allow_inserts: bool = True,
    allow_structural: bool = True,
    value_range: int = 500,
) -> list[UpdateRecord]:
    """A mixed stream against the stats table: numeric deltas and rewrites,
    categorical/entity rewrites, join-column moves, and inserts."""
    sids = [row["sid"] for row in inst.tables["stats"]]
    next_sid = max(sids) + 1
    two_tables = "teams" in inst.tables
    n_teams = len(inst.tables.get("teams", ())) or 1
    n_entities = len({row["player"] for row in inst.tables["stats"]})

    updates = []
    for seq in range(1, n + 1):
        roll = rng.random()
        if allow_inserts and roll < 0.04:
            row = {
                "sid": next_sid,
                "player": f"p{rng.randrange(n_entities):03d}",
                "c1": f"a{rng.randrange(8)}",
                "c2": f"b{rng.randrange(6)}",
                "m1": rng.randrange(value_range),
                "m2": rng.randrange(value_range),
            }
            if two_tables:
                row["team_id"] = rng.randrange(n_teams)
            sids.append(next_sid)
            next_sid += 1
            updates.append(UpdateRecord(seq, "insert", "stats", row, {}))
            continue
        sid = rng.choice(sids)
        choices = ["m1", "m2", "m_delta"]
        if allow_structural:
            choices += ["c1", "c2", "player"]
            if two_tables:
                choices.append("team_id")
        what = rng.choice(choices)
        if what == "m_delta":
            col = rng.choice(["m1", "m2"])
            set_values = {col: Delta(rng.randrange(-50, 51))}
        elif what in ("m1", "m2"):
            set_values = {what: rng.randrange(value_range)}
        elif what == "player":
            set_values = {"player": f"p{rng.randrange(n_entities):03d}"}
        elif what == "team_id":
            set_values = {"team_id": rng.randrange(n_teams)}
        else:
            set_values = {what: f"{'a' if what == 'c1' else 'b'}{rng.randrange(8)}"}
        updates.append(UpdateRecord(seq, "update", "stats", set_values, {"sid": sid}))
    return updates

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import Phase, settings

from halloffame import SchemaCatalog, Store, load_catalog
from oracles import fixed_atoms

DATA_DIR = Path(__file__).parent / "data"

# --hypothesis-profile=ci reports a failing example as found, without
# shrinking it first: the same tests pass and fail, but a failure is
# reported in about the time a pass takes, with a larger example
settings.register_profile("ci", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])


def load_dataset(name: str, catalog_text: str | None = None, csvs: dict[str, str] | None = None) -> tuple[SchemaCatalog, Store]:
    """A dataset under tests/data, optionally with another catalog text or
    other CSV texts for some relations."""
    base = DATA_DIR / name
    catalog = load_catalog(catalog_text or (base / "catalog.yaml").read_text(encoding="utf-8"))
    store = Store(catalog)
    for rel in catalog.relations:
        text = (csvs or {}).get(rel.name) or (base / f"{rel.name}.csv").read_text(encoding="utf-8")
        store.load_table(rel.name, text)
    return catalog, store


def load_instance(inst) -> tuple[SchemaCatalog, Store]:
    """Load one of the randomly generated oracle instances."""
    catalog = load_catalog(inst.config_text)
    store = Store(catalog)
    for name, text in inst.csvs.items():
        store.load_table(name, text)
    return catalog, store


@pytest.fixture
def bloomberg() -> tuple[SchemaCatalog, Store]:
    return load_dataset("bloomberg")


@pytest.fixture
def bloomberg_dir() -> Path:
    return DATA_DIR / "bloomberg"


def rankings_of(engine) -> dict:
    """query id -> the engine's current ranking of it."""
    return {qid: engine.ranking(qid) for qid in engine.queries}


def grouped_queries(engine) -> dict:
    """(entity attribute, join path, fixed atoms, binding columns) ->
    instance -> criterion column -> ids of the engine's queries, in their
    order, grouped from each query's own predicate."""
    out: dict = {}
    for qid, q in engine.queries.items():
        binding = [a for a in q.predicate if a.kind == "binding"]
        key = (q.entity_attr, q.join_path, fixed_atoms(q), tuple(a.left for a in binding))
        inst = tuple(a.right for a in binding)
        out.setdefault(key, {}).setdefault(inst, {}).setdefault(q.criterion.column, []).append(qid)
    return out


def assert_best_keys(engine) -> None:
    """Every entity order of a filtered engine holds exactly the first keys
    of a from-scratch sort of its instance: at least min(k, entities) and at
    most 2k of them, every key it does not hold above its bound, and no
    bound only when it holds every entity. Every total is an exact int, a
    real column's in units of 2**-1074, and each column's totals have
    exactly the entities of the instance's counts, as the bound test on raw
    totals relies on. The families' slots hold every query of the engine
    once: each instance's slot holds its orders, column by column, in its
    column slots and all together, and the engine's orders are the slots'."""
    expected = grouped_queries(engine)
    assert [(fam.entity, fam.path, fam.fixed, fam.binding_cols) for fam in engine.families] == list(expected)
    assert len(engine.orders) == len(engine.queries)
    for fam in engine.families:
        members = expected[fam.entity, fam.path, fam.fixed, fam.binding_cols]
        assert list(fam.slots) == list(members), fam.id
        for inst, by_column in members.items():
            per_column = [by_column.get(c, []) for c in fam.columns]
            slot = fam.slots[inst]
            counts = slot.counts
            assert all(type(v) is int for t in slot.totals for v in t.values()), (fam.id, inst)
            assert all(t.keys() == counts.keys() for t in slot.totals), (fam.id, inst)
            assert [[o.qid for o in column.orders] for column in slot.columns] == per_column, (fam.id, inst)
            assert list(slot.orders) == [o for column in slot.columns for o in column.orders], (fam.id, inst)
            assert all(column.counts is counts for column in slot.columns), (fam.id, inst)
            assert all(engine.orders[o.qid] is o for o in slot.orders), (fam.id, inst)
            for qids in per_column:
                for qid in qids:
                    order = engine.orders[qid]
                    key = order.key or (lambda e: (order.sign * order.raw[e], e))
                    full = sorted(map(key, counts))
                    held = len(order.keys)
                    assert min(order.k, len(full)) <= held <= 2 * order.k, qid
                    assert order.keys == full[:held], qid
                    if order.bound is None:
                        assert held == len(full), qid
                    else:
                        assert all(key <= order.bound for key in order.keys), qid
                        assert all(key > order.bound for key in full[held:]), qid

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import Phase, settings

from halloffame import SchemaCatalog, Store, load_catalog

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


def assert_best_keys(engine) -> None:
    """Every entity order of a filtered engine holds exactly the first keys
    of a from-scratch sort of its instance: at least min(k, entities) and at
    most 2k of them, every key it does not hold above its bound, and no
    bound only when it holds every entity. Every total is an exact int, a
    real column's in units of 2**-1074."""
    for fam in engine.families:
        for inst, per_column in fam.members.items():
            counts = fam.counts[inst]
            assert all(type(v) is int for t in fam.totals[inst] for v in t.values()), (fam.id, inst)
            for qids in per_column:
                for qid in qids:
                    order = engine.orders[qid]
                    full = sorted(map(order.key, counts))
                    held = len(order.keys)
                    assert min(order.k, len(full)) <= held <= 2 * order.k, qid
                    assert order.keys == full[:held], qid
                    if order.bound is None:
                        assert held == len(full), qid
                    else:
                        assert all(key <= order.bound for key in order.keys), qid
                        assert all(key > order.bound for key in full[held:]), qid

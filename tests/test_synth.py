import random

import pytest
from click.testing import CliRunner

from halloffame import (
    Store,
    StoreError,
    SynthConfig,
    load_catalog,
    synth_stream,
    write_update_stream,
)
from halloffame.cli import main
from conftest import load_instance
from oracles import make_instance

REAL_CONFIG = """
relations:
  - name: metrics
    columns:
      - {name: mid, type: integer}
      - {name: who, type: text}
      - {name: score, type: real}
      - {name: ratio, type: real}
    key: [mid]
entity_attrs: [who]
categorical_attrs: []
ranking_criteria:
  - {column: score, aggregation: sum, direction: descending}
  - {column: ratio, aggregation: avg, direction: descending}
"""

REAL_CSV = """mid,who,score,ratio
1,a,100.0,0.5
2,b,-40.0,0.25
3,c,250.0,0.75
"""


def real_store():
    catalog = load_catalog(REAL_CONFIG)
    store = Store(catalog)
    store.load_table("metrics", REAL_CSV)
    return catalog, store


def by_tuple(stream, column):
    out = {}
    for u in stream:
        if column in u.set_values:
            out.setdefault(tuple(sorted(u.where.items())), []).append(u.set_values[column])
    return out


class TestSynthStream:
    def test_expected_update_count(self, bloomberg):
        catalog, store = bloomberg
        stream = synth_stream(store, catalog, SynthConfig(seed=1))
        assert len(stream) == 9 * 10  # 9 stockmarket tuples x 1 criterion x 10

    def test_sum_model_non_decreasing_with_exact_final(self):
        catalog, store = real_store()
        stream = synth_stream(store, catalog, SynthConfig(seed=5))
        finals = {(("mid", 1),): 100.0, (("mid", 2),): -40.0, (("mid", 3),): 250.0}
        profiles = by_tuple(stream, "score")
        for key, values in profiles.items():
            assert len(values) == 10
            assert values[-1] == finals[key]
            transformed = values if finals[key] >= 0 else [-v for v in values]
            assert all(a <= b for a, b in zip(transformed, transformed[1:]))
            # intermediates stay strictly inside (0, final)
            for v in values[:-1]:
                assert abs(v) < abs(finals[key])

    def test_avg_model_fluctuates_around_final(self):
        catalog, store = real_store()
        stream = synth_stream(store, catalog, SynthConfig(seed=5))
        for key, values in by_tuple(stream, "ratio").items():
            final = values[-1]
            assert len(values) == 10
            # (1 + g) with g in (-1, 1): all values within (0, 2*final)
            for v in values[:-1]:
                assert 0.0 < v < 2.0 * final

    def test_seeded_determinism(self, bloomberg):
        catalog, store = bloomberg
        a = write_update_stream(synth_stream(store, catalog, SynthConfig(seed=9)))
        b = write_update_stream(synth_stream(store, catalog, SynthConfig(seed=9)))
        assert a == b
        c = write_update_stream(synth_stream(store, catalog, SynthConfig(seed=10)))
        assert a != c

    def test_round_robin_spacing(self):
        rng = random.Random(2)
        inst = make_instance(rng, n_rows=20)
        catalog, store = load_instance(inst)
        stream = synth_stream(store, catalog, SynthConfig(seed=0))
        n_streams = 20 * 2  # rows x criterion columns
        last_seen = {}
        for i, u in enumerate(stream):
            key = (tuple(sorted(u.where.items())), tuple(u.set_values))
            if key in last_seen:
                assert i - last_seen[key] >= n_streams - 1
            last_seen[key] = i

    def test_integer_columns_get_integer_values(self, bloomberg):
        catalog, store = bloomberg
        stream = synth_stream(store, catalog, SynthConfig(seed=3))
        assert all(isinstance(u.set_values["s_value"], int) for u in stream)

    def test_replay_restores_aggregates(self):
        rng = random.Random(7)
        inst = make_instance(rng, n_rows=30)
        catalog, store = load_instance(inst)
        original = {
            tuple(row): None for row in store.table("stats").rows
        }
        stream = synth_stream(store, catalog, SynthConfig(seed=4))
        for u in stream:
            store.apply_update(u)
        assert {tuple(row): None for row in store.table("stats").rows} == original

    def test_updates_per_tuple_knob(self, bloomberg):
        catalog, store = bloomberg
        stream = synth_stream(store, catalog, SynthConfig(seed=1, updates_per_tuple=4))
        assert len(stream) == 9 * 4

    def test_updates_per_tuple_bound(self):
        # hof synth's option range checks the same bound before the config sees it
        with pytest.raises(ValueError) as info:
            SynthConfig(updates_per_tuple=0)
        assert str(info.value) == "updates_per_tuple must be >= 1"

    def test_missing_table_is_an_error(self):
        catalog = load_catalog(REAL_CONFIG)
        store = Store(catalog)  # nothing loaded
        with pytest.raises(StoreError, match="not loaded"):
            synth_stream(store, catalog, SynthConfig())

    def test_criterion_column_missing_from_its_table(self):
        # a store loaded under another catalog: the criterion names a column
        # its table does not have
        _, store = real_store()
        extra = "{name: ratio, type: real}\n      - {name: extra, type: real}"
        other = load_catalog(REAL_CONFIG.replace("{name: ratio, type: real}", extra).replace("column: score,", "column: extra,"))
        with pytest.raises(StoreError) as info:
            synth_stream(store, other, SynthConfig())
        assert str(info.value) == "criterion column metrics.extra missing from table"

    def test_criterion_table_without_key_columns(self, tmp_path):
        # hof synth names the table; a keyless row has no where to address it by
        (tmp_path / "catalog.yaml").write_text(REAL_CONFIG.replace("    key: [mid]\n", ""))
        (tmp_path / "metrics.csv").write_text(REAL_CSV)
        args = ["synth", "--config", str(tmp_path / "catalog.yaml"), "--data-dir", str(tmp_path), "--out", str(tmp_path / "u.jsonl")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), repr(result.exception)
        assert result.output == "Error: table 'metrics' needs key columns to synthesize updates\n"

    def test_seq_strictly_increasing_from_one(self, bloomberg):
        catalog, store = bloomberg
        stream = synth_stream(store, catalog, SynthConfig(seed=2))
        assert [u.seq for u in stream] == list(range(1, len(stream) + 1))

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from halloffame import Delta, UpdateRecord, update_to_json, write_update_stream
from halloffame.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def fig5_stream_text():
    u = UpdateRecord(1, "update", "stockmarket", {"s_value": Delta(10)}, {"s_companyid": 8})
    return update_to_json(u) + "\n"


def gen(runner, bloomberg_dir, tmp_path, name="queries.jsonl", extra=()):
    out = tmp_path / name
    result = runner.invoke(
        main,
        [
            "generate",
            "--config", str(bloomberg_dir / "catalog.yaml"),
            "--data-dir", str(bloomberg_dir),
            "--out", str(out),
            "--k", "3", "--cnum", "1", "--jnum", "3",
            *extra,
        ],
    )
    assert result.exit_code == 0, result.output
    return out, result


class TestGenerate:
    def test_deterministic_output(self, runner, bloomberg_dir, tmp_path):
        out1, res1 = gen(runner, bloomberg_dir, tmp_path, "q1.jsonl")
        out2, res2 = gen(runner, bloomberg_dir, tmp_path, "q2.jsonl")
        assert out1.read_bytes() == out2.read_bytes()
        assert "generated" in res1.output

    def test_missing_csv_exits_2_naming_file(self, runner, bloomberg_dir, tmp_path):
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "catalog.yaml").write_text((bloomberg_dir / "catalog.yaml").read_text())
        (partial / "company.csv").write_text((bloomberg_dir / "company.csv").read_text())
        result = runner.invoke(
            main,
            [
                "generate",
                "--config", str(partial / "catalog.yaml"),
                "--data-dir", str(partial),
                "--out", str(tmp_path / "q.jsonl"),
            ],
        )
        assert result.exit_code == 2
        assert "person.csv" in result.output

    def test_cnum_zero_only_unconstrained(self, runner, bloomberg_dir, tmp_path):
        out, _ = gen(runner, bloomberg_dir, tmp_path, extra=["--cnum", "0"])
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            assert json.loads(line)["predicate"] == []


class TestSynth:
    def test_writes_stream(self, runner, bloomberg_dir, tmp_path):
        out = tmp_path / "updates.jsonl"
        result = runner.invoke(
            main,
            [
                "synth",
                "--config", str(bloomberg_dir / "catalog.yaml"),
                "--data-dir", str(bloomberg_dir),
                "--out", str(out),
                "--seed", "5",
            ],
        )
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 90

    def test_seed_determinism(self, runner, bloomberg_dir, tmp_path):
        outs = []
        for name in ("u1.jsonl", "u2.jsonl"):
            out = tmp_path / name
            runner.invoke(
                main,
                [
                    "synth",
                    "--config", str(bloomberg_dir / "catalog.yaml"),
                    "--data-dir", str(bloomberg_dir),
                    "--out", str(out),
                    "--seed", "5",
                ],
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def run_cmd(runner, bloomberg_dir, tmp_path, queries, updates_text, extra=(), events="events.jsonl"):
    updates = tmp_path / "updates.jsonl"
    updates.write_text(updates_text)
    events_path = tmp_path / events
    result = runner.invoke(
        main,
        [
            "run",
            "--config", str(bloomberg_dir / "catalog.yaml"),
            "--data-dir", str(bloomberg_dir),
            "--queries", str(queries),
            "--updates", str(updates),
            "--events", str(events_path),
            "--k", "3", "--b", "2",
            *extra,
        ],
    )
    return events_path, result


class TestRun:
    def test_zero_update_stream(self, runner, bloomberg_dir, tmp_path):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        events, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, "")
        assert result.exit_code == 0, result.output
        assert events.read_text() == ""
        assert "updates processed      0" in result.output

    def test_fig5_replay_logs_the_event(self, runner, bloomberg_dir, tmp_path):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        events, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, fig5_stream_text())
        assert result.exit_code == 0, result.output
        docs = [json.loads(line) for line in events.read_text().splitlines()]
        gaona = [d for d in docs if d["entity"] == "Amancio O. Gaona"]
        assert any(d["from_rank"] == 3 and d["to_rank"] == 1 for d in gaona)

    def test_no_filters_gives_identical_event_log(self, runner, bloomberg_dir, tmp_path):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        synth_out = tmp_path / "synth.jsonl"
        runner.invoke(
            main,
            [
                "synth",
                "--config", str(bloomberg_dir / "catalog.yaml"),
                "--data-dir", str(bloomberg_dir),
                "--out", str(synth_out),
                "--seed", "2",
            ],
        )
        text = synth_out.read_text()
        filtered, r1 = run_cmd(runner, bloomberg_dir, tmp_path, queries, text, events="e1.jsonl")
        unfiltered, r2 = run_cmd(
            runner, bloomberg_dir, tmp_path, queries, text, extra=["--no-filters"], events="e2.jsonl"
        )
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert filtered.read_bytes() == unfiltered.read_bytes()

    def test_stats_file_and_command(self, runner, bloomberg_dir, tmp_path):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        stats_path = tmp_path / "stats.jsonl"
        _, result = run_cmd(
            runner, bloomberg_dir, tmp_path, queries, fig5_stream_text(),
            extra=["--stats", str(stats_path)],
        )
        assert result.exit_code == 0
        rows = [json.loads(line) for line in stats_path.read_text().splitlines()]
        assert len(rows) == 1
        assert {"seq", "column_candidates", "row_candidates", "changed", "latency_ms"} <= set(rows[0])
        summary = runner.invoke(main, ["stats", "--stats", str(stats_path)])
        assert summary.exit_code == 0
        assert "column_candidates" in summary.output

    def test_malformed_line_abort_vs_skip(self, runner, bloomberg_dir, tmp_path):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        bad = "this is not json\n" + fig5_stream_text()
        _, aborted = run_cmd(runner, bloomberg_dir, tmp_path, queries, bad, events="ea.jsonl")
        assert aborted.exit_code != 0
        events, skipped = run_cmd(
            runner, bloomberg_dir, tmp_path, queries, bad,
            extra=["--on-error", "skip"], events="es.jsonl",
        )
        assert skipped.exit_code == 0
        assert "skipping" in skipped.output
        assert len(events.read_text().splitlines()) >= 1

    def test_real_criterion_sums_are_exact_with_and_without_filters(self, runner, tmp_path):
        # Summed left to right, ann's total 1e16 + 0.1 - 1e16 reads 0.0 and
        # falls below bob's 0.05; both paths must rank on the exact 0.1.
        data = tmp_path / "plays"
        data.mkdir()
        (data / "catalog.yaml").write_text(
            """
relations:
  - name: plays
    columns:
      - {name: pid, type: integer}
      - {name: player, type: text}
      - {name: team, type: text}
      - {name: pts, type: real}
    key: [pid]
entity_attrs: [player]
categorical_attrs: [team]
ranking_criteria:
  - {column: pts, aggregation: sum, direction: descending}
  - {column: pts, aggregation: avg, direction: ascending}
"""
        )
        (data / "plays.csv").write_text(
            "pid,player,team,pts\n"
            "0,ann,red,1e16\n1,ann,red,0.1\n2,ann,blue,-1e16\n3,bob,red,0.05\n"
            "4,bob,blue,0.3\n5,cat,red,0.2\n6,cat,blue,0.02\n7,dan,blue,0.04\n8,dan,red,0.01\n"
        )
        writes = [
            ("update", {"pts": Delta(0.25)}, {"pid": 3}),
            ("update", {"team": "blue"}, {"pid": 0}),  # 1e16 moves between groups
            ("insert", {"pid": 9, "player": "ann", "team": "red", "pts": 1e16}, {}),
            ("update", {"player": "bob"}, {"pid": 2}),  # -1e16 moves to bob
            ("update", {"pts": Delta(-1e16)}, {"pid": 9}),
            ("update", {"pts": Delta(1e16)}, {"pid": 4}),
            ("update", {"player": "ann"}, {"pid": 2}),
            ("insert", {"pid": 10, "player": "cat", "team": "blue", "pts": 0.1}, {}),
            ("update", {"pts": Delta(-1e16)}, {"pid": 4}),
            ("update", {"team": "red"}, {"pid": 0}),
            ("update", {"pts": 0.7}, {"pid": 5}),
            ("update", {"player": "dan"}, {"pid": 1}),
        ]
        text = "".join(
            update_to_json(UpdateRecord(seq, kind, "plays", set_values, where)) + "\n"
            for seq, (kind, set_values, where) in enumerate(writes, start=1)
        )
        queries, _ = gen(runner, data, tmp_path)
        filtered, r1 = run_cmd(runner, data, tmp_path, queries, text, events="e1.jsonl")
        unfiltered, r2 = run_cmd(runner, data, tmp_path, queries, text, extra=["--no-filters"], events="e2.jsonl")
        assert r1.exit_code == 0, r1.output
        assert r2.exit_code == 0, r2.output
        assert filtered.read_text().splitlines()
        assert filtered.read_bytes() == unfiltered.read_bytes()

    def test_flush_cadence_writes_window_rankings(self, runner, bloomberg_dir, tmp_path):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        two = fig5_stream_text() + update_to_json(
            UpdateRecord(2, "update", "stockmarket", {"s_value": Delta(500)}, {"s_companyid": 0})
        ) + "\n"
        events, result = run_cmd(
            runner, bloomberg_dir, tmp_path, queries, two, extra=["--flush-every", "1"]
        )
        assert result.exit_code == 0
        flush = Path(str(events) + ".flush")
        docs = [json.loads(line) for line in flush.read_text().splitlines()]
        assert len(docs) == 2
        assert docs[0]["flush_at"] == 1 and docs[0]["ranking"]


class TestRank:
    def make_events(self, runner, bloomberg_dir, tmp_path):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        events, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, fig5_stream_text())
        assert result.exit_code == 0
        return events

    def test_single_event_ranks_first(self, runner, bloomberg_dir, tmp_path):
        events = self.make_events(runner, bloomberg_dir, tmp_path)
        result = runner.invoke(main, ["rank", "--events", str(events), "--b", "2", "--k", "3"])
        assert result.exit_code == 0, result.output
        assert "   1. " in result.output

    def test_empty_window_exits_zero(self, runner, bloomberg_dir, tmp_path):
        events = self.make_events(runner, bloomberg_dir, tmp_path)
        result = runner.invoke(
            main,
            ["rank", "--events", str(events), "--b", "2", "--k", "3", "--window-end", "5000"],
        )
        assert result.exit_code == 0
        assert "no events" in result.output

    def test_replay_determinism(self, runner, bloomberg_dir, tmp_path):
        events = self.make_events(runner, bloomberg_dir, tmp_path)
        args = ["rank", "--events", str(events), "--b", "2", "--k", "3"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output


class TestEnvOverrides:
    def test_env_var_mirrors_flag(self, runner, bloomberg_dir, tmp_path):
        out = tmp_path / "q.jsonl"
        result = runner.invoke(
            main,
            [
                "generate",
                "--config", str(bloomberg_dir / "catalog.yaml"),
                "--data-dir", str(bloomberg_dir),
                "--out", str(out),
                "--cnum", "0",
            ],
            env={"HOF_GENERATE_K": "2"},
            auto_envvar_prefix="HOF",
        )
        assert result.exit_code == 0, result.output
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert docs and all(d["k"] == 2 for d in docs)

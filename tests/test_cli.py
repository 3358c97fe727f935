import csv
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import halloffame
from halloffame import (
    ChainStore,
    Delta,
    Engine,
    ScorerConfig,
    StoreError,
    UpdateRecord,
    load_queries,
    rank_events,
    read_update_stream,
    score_event,
    update_to_json,
    write_update_stream,
)
from halloffame import cli
from halloffame.cli import main
from conftest import DATA_DIR


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

    def test_generate_rows_follow_generated(self, runner, bloomberg_dir, tmp_path):
        # the joined rows generation's counts read; each company has one
        # stockmarket row, so summing that leaf per join value reads as many
        # rows as the whole paths hold
        _, result = gen(runner, bloomberg_dir, tmp_path)
        lines = result.output.splitlines()
        assert lines[2].startswith("generated 5 queries in ")
        assert lines[3:] == ["generate rows          72"]

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


PLAYS_CONFIG = """
relations:
  - name: plays
    columns:
      - {name: pid, type: integer}
      - {name: player, type: text}
      - {name: team, type: text}
      - {name: pts, type: integer}
    key: [pid]
"""


class TestDuplicateCatalogEntries:
    @pytest.mark.parametrize(
        "roles, located",
        [
            (
                "entity_attrs: [player]\ncategorical_attrs: [team]\nranking_criteria:\n"
                "  - {column: pts, aggregation: sum, direction: both}\n"
                "  - {column: pts, aggregation: sum, direction: descending}\n",
                "ranking_criteria[1]: criterion sum(plays.pts) descending listed twice",
            ),
            (
                "entity_attrs: [player, plays.player]\ncategorical_attrs: [team]\n"
                "ranking_criteria: [{column: pts, aggregation: sum, direction: descending}]\n",
                "entity_attrs[1]: column plays.player listed twice",
            ),
            (
                "entity_attrs: [player]\ncategorical_attrs: [team, team]\n"
                "ranking_criteria: [{column: pts, aggregation: sum, direction: descending}]\n",
                "categorical_attrs[1]: column plays.team listed twice",
            ),
        ],
    )
    def test_generate_rejects_a_repeated_entry(self, runner, tmp_path, roles, located):
        # each repeat would generate its queries twice, and hof run refuses
        # a query catalog with a duplicate query id
        (tmp_path / "catalog.yaml").write_text(PLAYS_CONFIG + roles)
        (tmp_path / "plays.csv").write_text("pid,player,team,pts\n0,ann,red,1\n1,bob,red,2\n2,cat,blue,3\n")
        out = tmp_path / "q.jsonl"
        result = runner.invoke(
            main,
            ["generate", "--config", str(tmp_path / "catalog.yaml"), "--data-dir", str(tmp_path), "--out", str(out)],
        )
        assert result.exit_code == 1, result.output
        assert result.output == f"Error: catalog: {located}\n"
        assert not out.exists()


class TestImports:
    def test_import_loads_no_jsonschema(self):
        # the catalog is checked by halloffame.catalog itself; jsonschema is
        # only the tests' oracle
        code = (
            "import sys, halloffame, halloffame.cli\n"
            "family = {'jsonschema', 'referencing', 'rpds', 'jsonschema_specifications'}\n"
            "print(sorted(family & {name.split('.')[0] for name in sys.modules}))\n"
        )
        src = str(Path(halloffame.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n"


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
            "--b", "2",
            *extra,
        ],
    )
    return events_path, result


class TestRun:
    def test_set_up_times_come_first(self, runner, bloomberg_dir, tmp_path):
        # generate: CSV loading, then generation; run: CSV loading, then
        # engine start-up; each line is a label and seconds to 3 places
        queries, generated = gen(runner, bloomberg_dir, tmp_path)
        _, ran = run_cmd(runner, bloomberg_dir, tmp_path, queries, fig5_stream_text())
        assert ran.exit_code == 0, ran.output
        for result, labels, rest in (
            (generated, ["csv load s", "generate s"], r"generated \d+ queries in \d+\.\d\ds -> "),
            (ran, ["csv load s", "engine start-up s"], r"updates processed      1$"),
        ):
            lines = result.output.splitlines()
            assert [re.sub(r" +\d+\.\d{3}$", "", line) for line in lines[:2]] == labels
            assert all(re.fullmatch(r"[a-z -]+s +\d+\.\d{3}", line) for line in lines[:2])
            assert re.match(rest, lines[2])

    def test_start_up_rows_follow_queries_total(self, runner, bloomberg_dir, tmp_path):
        # the joined rows the start-up read: the delta path's four family
        # scans read 9, 9, 9 and 6; the reference (--no-filters) joins each
        # of its three paths once, 9, 9 and 6 rows
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        for extra, rows in (([], 33), (["--no-filters"], 24)):
            _, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, fig5_stream_text(), extra=extra)
            assert result.exit_code == 0, result.output
            lines = result.output.splitlines()
            at = lines.index("queries total          5")
            assert lines[at + 1] == f"start-up rows          {rows}"
            assert lines[at + 2].startswith("mean column candidates ")

    def test_scores_normalize_by_each_querys_k(self, runner, bloomberg_dir, tmp_path):
        # with k = 3 queries the dynamic scores spread over several groups;
        # run takes no k of its own, and a b above the queries' k is allowed
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        updates = tmp_path / "synth.jsonl"
        synth = ["synth", "--config", str(bloomberg_dir / "catalog.yaml"), "--data-dir", str(bloomberg_dir)]
        assert runner.invoke(main, [*synth, "--out", str(updates)]).exit_code == 0
        events, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, updates.read_text())
        assert result.exit_code == 0, result.output
        groups = {halloffame.quantize(json.loads(line)["dynamic_norm"], 4) for line in events.read_text().splitlines()}
        assert len(groups) >= 2, groups
        _, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, updates.read_text(), extra=["--k", "20"])
        assert result.exit_code == 2, result.output
        _, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, updates.read_text(), extra=["--b", "7"])
        assert result.exit_code == 0, result.output

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
        stats_path = tmp_path / "stats.jsonl"
        filtered, r1 = run_cmd(runner, bloomberg_dir, tmp_path, queries, text, extra=["--stats", str(stats_path)],
                               events="e1.jsonl")
        unfiltered, r2 = run_cmd(
            runner, bloomberg_dir, tmp_path, queries, text, extra=["--no-filters"], events="e2.jsonl"
        )
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert filtered.read_bytes() == unfiltered.read_bytes()
        # 90 updates: of the order calls, 59 left the first k keys as they were
        rows = [json.loads(line) for line in stats_path.read_text().splitlines()]
        assert all(row["idle"] + row["reordered"] <= row["row_candidates"] for row in rows)
        assert [sum(row[f] for row in rows) for f in ("row_candidates", "reordered", "idle")] == [280, 177, 59]

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
        fields = {"column_candidates", "row_candidates", "reordered", "refilled", "changed", "extended", "reused", "idle",
                  "latency_ms"}
        assert {"seq", *fields} <= set(rows[0])
        assert rows[0]["changed"] <= rows[0]["reordered"] <= rows[0]["row_candidates"]
        assert rows[0]["reordered"] >= 1  # Gaona's ranking moved
        assert (rows[0]["row_candidates"], rows[0]["reordered"], rows[0]["idle"]) == (3, 3, 0)  # no order call idle
        assert "mean reordered top-Ks" in result.output
        summary = runner.invoke(main, ["stats", "--stats", str(stats_path)])
        assert summary.exit_code == 0
        assert {line.split()[0] for line in summary.output.splitlines()} == fields

    def test_stats_without_filters_rebuild_every_query(self, runner, bloomberg_dir, tmp_path):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        stats_path = tmp_path / "stats.jsonl"
        _, result = run_cmd(
            runner, bloomberg_dir, tmp_path, queries, fig5_stream_text(),
            extra=["--no-filters", "--stats", str(stats_path)],
        )
        assert result.exit_code == 0, result.output
        (row,) = [json.loads(line) for line in stats_path.read_text().splitlines()]
        n_queries = len(queries.read_text().splitlines())
        assert row["row_candidates"] == n_queries
        assert row["changed"] <= row["reordered"] < n_queries  # only the top-Ks that changed
        assert row["refilled"] == 0  # the rescan keeps no orders
        assert row["extended"] == row["reused"] == 0  # nor extends a row or reads a fan-out
        assert row["idle"] == 0  # nor calls an order

    def test_repeated_writes_reuse_the_fan_outs(self, runner, bloomberg_dir, tmp_path):
        # the second write to company 8's market value finds every fan-out
        # of its join value cached, in every family with that leaf
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        text = write_update_stream(
            UpdateRecord(seq, "update", "stockmarket", {"s_value": Delta(10)}, {"s_companyid": 8}) for seq in (1, 2)
        )
        stats_path = tmp_path / "stats.jsonl"
        _, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, text, extra=["--stats", str(stats_path)])
        assert result.exit_code == 0, result.output
        first, second = [json.loads(line) for line in stats_path.read_text().splitlines()]
        assert first["extended"] > 0 and first["reused"] == 0
        assert second["extended"] == 0 and second["reused"] == first["extended"]

    def test_rejected_update_keeps_the_fan_outs(self, runner, bloomberg_dir, tmp_path):
        # a duplicate-key insert into the leaf is rejected, so it leaves the
        # fan-outs it would have cleared: the next write reads them all
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        write = UpdateRecord(1, "update", "stockmarket", {"s_value": Delta(10)}, {"s_companyid": 8})
        duplicate = UpdateRecord(2, "insert", "stockmarket", {"s_companyid": 8, "s_value": 1}, {})
        again = UpdateRecord(3, "update", "stockmarket", {"s_value": Delta(10)}, {"s_companyid": 8})
        stats_path = tmp_path / "stats.jsonl"
        extra = ["--stats", str(stats_path), "--on-error", "skip"]
        _, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, write_update_stream([write, duplicate, again]), extra)
        assert result.exit_code == 0, result.output
        first, third = [json.loads(line) for line in stats_path.read_text().splitlines()]
        assert first["extended"] > 0 and first["reused"] == 0
        assert third["seq"] == 3 and third["extended"] == 0 and third["reused"] >= 1

    @pytest.mark.parametrize(
        "rewrite, message",
        [
            (
                lambda doc: doc["criterion"].update(column="company.c_name"),
                r"ranking criterion on non-numeric column company.c_name \(text\)",
            ),
            (
                lambda doc: [atom.update(comparator=">") for atom in doc["predicate"]],
                "a binding atom compares with '=', got '>'",
            ),
        ],
        ids=["text-criterion", "binding-comparator"],
    )
    def test_query_its_sql_does_not_rank_is_located(self, runner, bloomberg_dir, tmp_path, rewrite, message):
        # both lines used to load: a ValueError traceback ended the run at
        # the text criterion's first company write, and the engine ranked
        # co_name > 'Germany' as co_name = 'Germany'
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        doc = next(json.loads(line) for line in queries.read_text().splitlines() if "co_name = 'Germany'" in line)
        rewrite(doc)
        queries.write_text(json.dumps(doc) + "\n")
        renamed = UpdateRecord(1, "update", "company", {"c_name": "Zeta"}, {"c_id": 0})  # SAP, in Germany
        _, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, write_update_stream([renamed]))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert re.search(f"Error: query catalog line 1: {message}", result.output), result.output

    def test_join_path_short_of_a_relation_is_located(self, runner, bloomberg_dir, tmp_path):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        docs = [json.loads(line) for line in queries.read_text().splitlines()]
        lineno, doc = next((i, d) for i, d in enumerate(docs, start=1) if len(d["join_path"]) == 2)
        doc["join_path"] = doc["join_path"][:1]
        queries.write_text("".join(json.dumps(d) + "\n" for d in docs))
        _, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, fig5_stream_text())
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: query catalog line {lineno}: join path does not reach relations" in result.output

    def test_store_error_at_start_up_is_a_click_error(self, runner, bloomberg_dir, tmp_path, monkeypatch):
        def failing_engine(*args, **kwargs):
            raise StoreError("join column company.c_id is not indexed")

        monkeypatch.setattr(cli, "Engine", failing_engine)
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        _, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, fig5_stream_text())
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: engine start-up: join column company.c_id is not indexed" in result.output

    def test_malformed_line_abort_vs_skip(self, runner, bloomberg_dir, tmp_path):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        fig5 = json.loads(fig5_stream_text())
        malformed = ["this is not json"] + [
            json.dumps({**fig5, **change})
            for change in (
                {"set": 5},
                {"where": 7},
                {"where": {"s_companyid": [8]}},
                {"set": {"s_value": {"delta": "x"}}},
                {"where": {"s_companyid": {"eq": 8}}},
                {"seq": "1"},
                {"seq": True},
                {"kind": 1},
                {"table": None},
            )
        ] + [
            fig5_stream_text().strip().replace('"seq": 1', '"seq": ' + "9" * 5000),  # beyond int's digit limit
            "[" * 100000 + "]" * 100000,  # beyond the parser's recursion limit
        ]
        for i, line in enumerate(malformed):
            bad = line + "\n" + fig5_stream_text()
            _, aborted = run_cmd(runner, bloomberg_dir, tmp_path, queries, bad, events=f"ea{i}.jsonl")
            assert aborted.exit_code != 0, line
            assert "update line 1" in aborted.output, line
            events, skipped = run_cmd(
                runner, bloomberg_dir, tmp_path, queries, bad,
                extra=["--on-error", "skip"], events=f"es{i}.jsonl",
            )
            assert skipped.exit_code == 0, (line, skipped.output)
            assert "skipping update line 1" in skipped.output, line
            assert len(events.read_text().splitlines()) >= 1, line

    def test_wrong_typed_where_value_abort_vs_skip(self, runner, bloomberg_dir, tmp_path):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        wrong = UpdateRecord(1, "update", "stockmarket", {"s_value": Delta(10)}, {"s_companyid": "8"})
        fig5 = UpdateRecord(2, "update", "stockmarket", {"s_value": Delta(10)}, {"s_companyid": 8})
        text = write_update_stream([wrong, fig5])
        _, aborted = run_cmd(runner, bloomberg_dir, tmp_path, queries, text, events="ea.jsonl")
        assert aborted.exit_code != 0
        assert "update seq 1: update 1, where column s_companyid: expected integer" in aborted.output
        events, skipped = run_cmd(
            runner, bloomberg_dir, tmp_path, queries, text, extra=["--on-error", "skip"], events="es.jsonl"
        )
        assert skipped.exit_code == 0, skipped.output
        assert "skipping update seq 1" in skipped.output
        docs = [json.loads(line) for line in events.read_text().splitlines()]
        assert any(d["seq"] == 2 and d["entity"] == "Amancio O. Gaona" for d in docs)

    def test_huge_integer_in_a_real_column_abort_vs_skip(self, runner, tmp_path):
        # a JSON integer of 401 digits has no float, so a real column rejects it
        config = tmp_path / "catalog.yaml"
        config.write_text(
            PLAYS_CONFIG.replace("pts, type: integer", "pts, type: real")
            + "entity_attrs: [player]\ncategorical_attrs: [team]\n"
            + "ranking_criteria: [{column: pts, aggregation: sum, direction: descending}]\n"
        )
        (tmp_path / "plays.csv").write_text("pid,player,team,pts\n0,ann,red,1\n1,bob,red,2\n2,cat,blue,3\n")
        queries = tmp_path / "q.jsonl"
        common = ["--config", str(config), "--data-dir", str(tmp_path)]
        generated = runner.invoke(main, ["generate", *common, "--out", str(queries), "--k", "2", "--cnum", "0"])
        assert generated.exit_code == 0, generated.output
        updates = tmp_path / "updates.jsonl"
        updates.write_text(write_update_stream([
            UpdateRecord(1, "update", "plays", {"pts": 10**400}, {"pid": 0}),
            UpdateRecord(2, "update", "plays", {"pts": Delta(10**400)}, {"pid": 0}),
            UpdateRecord(3, "update", "plays", {"pts": 9.0}, {"pid": 0}),
        ]))

        def run(events, *extra):
            args = ["run", *common, "--queries", str(queries), "--updates", str(updates), *extra]
            return runner.invoke(main, [*args, "--events", str(tmp_path / events)])

        aborted = run("ea.jsonl")
        assert aborted.exit_code == 1 and isinstance(aborted.exception, SystemExit)
        assert "Error: update seq 1: update 1, column pts: integer out of the real range" in aborted.output
        skipped = run("es.jsonl", "--on-error", "skip")
        assert skipped.exit_code == 0, skipped.output
        assert "skipping update seq 1: update 1, column pts: integer out of the real range" in skipped.output
        assert "skipping update seq 2: update 2, column pts: delta out of the real range" in skipped.output
        docs = [json.loads(line) for line in (tmp_path / "es.jsonl").read_text().splitlines()]
        assert [(d["seq"], d["entity"], d["to_rank"]) for d in docs] == [(3, "ann", 1)]

    def test_abort_keeps_the_lines_already_written(self, runner, bloomberg_dir, tmp_path):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        stats_path = tmp_path / "stats.jsonl"
        events, result = run_cmd(
            runner, bloomberg_dir, tmp_path, queries, fig5_stream_text() + "this is not json\n",
            extra=["--stats", str(stats_path)],
        )
        assert result.exit_code != 0
        assert "update line 2" in result.output
        docs = [json.loads(line) for line in events.read_text().splitlines()]
        assert any(d["seq"] == 1 and d["entity"] == "Amancio O. Gaona" for d in docs)
        assert [json.loads(line)["seq"] for line in stats_path.read_text().splitlines()] == [1]

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


class TestRank:
    def make_events(self, runner, bloomberg_dir, tmp_path):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        events, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, fig5_stream_text())
        assert result.exit_code == 0
        return events

    def test_single_event_ranks_first(self, runner, bloomberg_dir, tmp_path):
        events = self.make_events(runner, bloomberg_dir, tmp_path)
        result = runner.invoke(main, ["rank", "--events", str(events)])
        assert result.exit_code == 0, result.output
        assert "   1. " in result.output

    def test_empty_window_exits_zero(self, runner, bloomberg_dir, tmp_path):
        events = self.make_events(runner, bloomberg_dir, tmp_path)
        result = runner.invoke(
            main,
            ["rank", "--events", str(events), "--window-end", "5000"],
        )
        assert result.exit_code == 0
        assert "no events" in result.output

    def test_replay_determinism(self, runner, bloomberg_dir, tmp_path):
        events = self.make_events(runner, bloomberg_dir, tmp_path)
        args = ["rank", "--events", str(events)]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_each_window_ranks_as_the_scored_events(self, runner, bloomberg, bloomberg_dir, tmp_path):
        # for every S of a replay, rank --window-end S lists the events
        # scored in memory with seq in (S - W, S], in rank_events' order
        window = 7
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        updates = tmp_path / "synth.jsonl"
        synth = ["synth", "--config", str(bloomberg_dir / "catalog.yaml"), "--data-dir", str(bloomberg_dir)]
        assert runner.invoke(main, [*synth, "--out", str(updates)]).exit_code == 0
        events, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, updates.read_text(), extra=["--window", str(window)])
        assert result.exit_code == 0, result.output
        catalog, store = bloomberg
        engine = Engine(catalog, store, load_queries(queries.read_text(), catalog))
        chains, cfg = ChainStore(), ScorerConfig(b=2, window_updates=window)
        scored, seqs = [], []
        for u in read_update_stream(updates.read_text()):
            seqs.append(u.seq)
            for event in engine.detect(u):
                query = engine.queries[event.query_id]
                scored.append((score_event(event, query, chains, cfg), query.sql()))
        assert len(seqs) > window and len({e.seq for e, _ in scored}) > 1
        for end in seqs:
            in_window = [(e, sql) for e, sql in scored if end - window < e.seq <= end]
            sql_of = {id(e): sql for e, sql in in_window}
            expected = rank_events([e for e, _ in in_window])
            result = runner.invoke(main, ["rank", "--events", str(events), "--window-end", str(end), "--window", str(window)])
            assert result.exit_code == 0, result.output
            head, *lines = result.output.splitlines()
            if not expected:
                assert head == f"no events in window ({end - window}, {end}]" and not lines
                continue
            assert head == f"events in window ({end - window}, {end}]: {len(expected)}"
            assert len(lines) == len(expected)
            for i, (line, e) in enumerate(zip(lines, expected), start=1):
                assert line.startswith(f"{i:4d}. seq={e.seq} "), (end, line)
                assert line.endswith(f" {e.entity!r} {e.from_rank}->{e.to_rank} {sql_of[id(e)]}"), (end, line)


GAMES_CONFIG = """
relations:
  - name: games
    columns:
      - {name: gid, type: integer}
      - {name: player, type: text}
      - {name: team, type: text}
      - {name: rating, type: real}
      - {name: pts, type: integer}
    key: [gid]
entity_attrs: [player]
categorical_attrs: [team]
ranking_criteria:
  - {column: rating, aggregation: sum, direction: both}
  - {column: rating, aggregation: avg, direction: both}
  - {column: pts, aggregation: avg, direction: both}
"""
HUGE = 10**400  # far beyond the float range


class TestOutOfRangeValues:
    """A ranking value whose float is out of range saturates to -inf or +inf
    on both paths, and entities tied there rank by entity."""

    @pytest.mark.parametrize(
        "rows, writes, ties",
        [
            (
                # a 400-digit integer cell: an avg over it is out of range at start-up
                [f"0,a,red,1.0,{HUGE}", "1,a,red,2.0,1", f"2,b,red,3.0,-{HUGE}", "3,c,blue,4.0,7", "4,m,blue,1.0,50"],
                [
                    ("update", {"pts": HUGE}, {"gid": 3}),  # c ties a at +inf and ranks after it
                    ("update", {"pts": 5}, {"gid": 0}),  # a back in range
                    ("update", {"team": "red"}, {"gid": 3}),  # a shape write
                    ("insert", {"gid": 5, "player": "d", "team": "red", "rating": 1.0, "pts": -HUGE}, {}),  # ties b at -inf
                ],
                [(1, "AVG(games.pts) DESC", "c", 3, 2), (4, "AVG(games.pts) ASC", "d", 3, 2)],
            ),
            (
                # real totals: 9e307 + 1e308 is out of range, and fsum's partial
                # sums of e's 1e308, 1e308, -1e308 overflow though the sum does not
                ["0,a,red,9e307,1", "1,a,red,1.0,2", "2,b,red,1e308,3", "3,e,red,1e308,4", "4,e,blue,1e308,5",
                 "5,e,blue,-1e308,6", "6,c,blue,1e308,7", "7,c,blue,-1e308,8", "8,f,blue,2.0,9"],
                [
                    ("update", {"rating": 1e308}, {"gid": 1}),  # a to +inf
                    ("update", {"rating": 1e308}, {"gid": 7}),  # c ties a at +inf and ranks after it
                    ("insert", {"gid": 9, "player": "d", "team": "red", "rating": 1.7e308, "pts": 1}, {}),
                    ("update", {"rating": -1.7e308}, {"gid": 2}),
                    ("update", {"rating": 1.0}, {"gid": 1}),  # a back in range
                    ("update", {"team": "red"}, {"gid": 5}),  # a shape write
                    ("update", {"rating": Delta(-1e308)}, {"gid": 3}),
                ],
                [(2, "SUM(games.rating) DESC", "c", 3, 2)],
            ),
        ],
    )
    def test_both_paths_write_the_same_events(self, runner, tmp_path, rows, writes, ties):
        (tmp_path / "catalog.yaml").write_text(GAMES_CONFIG)
        (tmp_path / "games.csv").write_text("gid,player,team,rating,pts\n" + "\n".join(rows) + "\n")
        updates = tmp_path / "updates.jsonl"
        updates.write_text(write_update_stream(
            [UpdateRecord(seq, kind, "games", sv, where) for seq, (kind, sv, where) in enumerate(writes, start=1)]
        ))
        common = ["--config", str(tmp_path / "catalog.yaml"), "--data-dir", str(tmp_path)]
        queries = tmp_path / "q.jsonl"
        result = runner.invoke(main, ["generate", *common, "--out", str(queries), "--k", "2", "--cnum", "1"])
        assert result.exit_code == 0, result.output
        logs = []
        for extra in ([], ["--no-filters"]):
            events = tmp_path / f"events{len(logs)}.jsonl"
            result = runner.invoke(main, ["run", *common, "--queries", str(queries), "--updates", str(updates),
                                          "--events", str(events), "--b", "2", *extra])
            assert result.exit_code == 0, result.output
            logs.append(events.read_bytes())
        assert logs[0] == logs[1]
        # each tie, in the query over every team
        moves = {(d["seq"], d["query"], d["entity"], d["from_rank"], d["to_rank"])
                 for d in map(json.loads, logs[0].decode().splitlines())}
        for seq, order, entity, from_rank, to_rank in ties:
            column = order.split()[0]
            query = f"SELECT games.player, {column} FROM games GROUP BY games.player ORDER BY {order}, games.player ASC LIMIT 2"
            assert (seq, query, entity, from_rank, to_rank) in moves


GOOD_EVENT = {
    "seq": 1, "query_id": "q", "query": "SELECT", "entity": "SAP", "from_rank": 4, "to_rank": 1,
    "selectivity": 0.5, "dynamic_raw": 3.0, "dynamic_norm": 0.2, "entropy_bits": 1.0, "chain": [[1, 4, 1]],
}
GOOD_STATS = {
    "seq": 1, "column_candidates": 3, "row_candidates": 1, "reordered": 1, "refilled": 0, "changed": 1, "extended": 2,
    "reused": 0, "idle": 0, "latency_ms": 0.5,
}


COMMANDS = [("rank", "--events", "event log", GOOD_EVENT), ("stats", "--stats", "stats", GOOD_STATS)]
# an event log field and a value that cannot be ranked
BAD_EVENT_FIELDS = {
    "bool-seq": ("seq", True),
    "float-seq": ("seq", 1.5),
    "float-from-rank": ("from_rank", 4.0),
    "bool-to-rank": ("to_rank", False),
    "number-query-id": ("query_id", 5),  # beside a str id it broke rank_events' sort
    "list-entity": ("entity", [1]),
    "null-entity": ("entity", None),
    "nan-selectivity": ("selectivity", math.nan),
    "inf-dynamic-norm": ("dynamic_norm", math.inf),
    "text-entropy": ("entropy_bits", "1.0"),
    "chain-object": ("chain", {"seq": 1}),
    "short-pair": ("chain", [[1, 4]]),
    "float-in-pair": ("chain", [[1, 4, 1.0]]),
    "huge-selectivity": ("selectivity", 10**400),  # no float holds it: rank's formatting raised
}
# a stats field and a value that cannot be summarized
BAD_STATS_FIELDS = {
    "nan-latency": ("latency_ms", math.nan),
    "inf-counter": ("extended", math.inf),
    "huge-counter": ("changed", 10**400),  # no float holds it: statistics.fmean raised
}


class TestBadInputLines:
    @pytest.mark.parametrize(
        "command, option, what, good, bad",
        [
            (*c, bad)
            for c in COMMANDS
            for bad in ("not json", "[1, 2]", "deep-nesting", "missing-field", "text-number")
        ]
        + [(*COMMANDS[0], bad) for bad in BAD_EVENT_FIELDS]
        + [(*COMMANDS[1], bad) for bad in BAD_STATS_FIELDS],
    )
    def test_bad_line_is_named(self, runner, tmp_path, command, option, what, good, bad):
        doc = dict(good)
        if bad == "missing-field":
            del doc["seq" if command == "rank" else "changed"]
        if bad == "text-number":
            doc["to_rank" if command == "rank" else "latency_ms"] = "1"
        fields = BAD_EVENT_FIELDS if command == "rank" else BAD_STATS_FIELDS
        if bad in fields:
            key, value = fields[bad]
            doc[key] = value
        verbatim = {"not json": bad, "[1, 2]": bad, "deep-nesting": "[" * 100000 + "]" * 100000}
        line = verbatim.get(bad) or json.dumps(doc)
        path = tmp_path / "input.jsonl"
        path.write_text(json.dumps(good) + "\n" + line + "\n")
        result = runner.invoke(main, [command, option, str(path)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {what} line 2: " in result.output


class TestIntegersBeyondTheFloatRange:
    """An integer that converts to no finite float is not a finite number. A
    query catalog line that gives one as k or entropy_bits is a located
    error of hof run; the run used to end in a traceback at the first event
    (k) or write an event log that hof rank could not format (entropy_bits)."""

    @pytest.mark.parametrize(
        "field, message",
        [("k", "k must be a finite integer >= 1"), ("entropy_bits", "entropy_bits must be a finite number >= 0")],
    )
    def test_query_catalog_field(self, runner, bloomberg_dir, tmp_path, field, message):
        queries, _ = gen(runner, bloomberg_dir, tmp_path)
        docs = [json.loads(line) for line in queries.read_text().splitlines()]
        queries.write_text("".join(json.dumps({**doc, field: 10**400}) + "\n" for doc in docs))
        _, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, fig5_stream_text())
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        # the error quotes the value cut to 60 characters, not all 401 digits
        assert f"Error: query catalog line 1: {message}, got 1{'0' * 27}...{'0' * 29}\n" in result.output
        # 10**300 converts to a float: such a k holds every entity
        queries.write_text("".join(json.dumps({**doc, field: 10**300}) + "\n" for doc in docs))
        events, result = run_cmd(runner, bloomberg_dir, tmp_path, queries, fig5_stream_text())
        assert result.exit_code == 0, result.output
        assert runner.invoke(main, ["rank", "--events", str(events)]).exit_code == 0

    def test_binding_constant_from_an_integer_column(self, runner, tmp_path):
        # an integer cell holds an exact int of any size, and a binding atom
        # compares it exactly, so a catalog generated from it runs
        (tmp_path / "catalog.yaml").write_text(GAMES_CONFIG.replace("categorical_attrs: [team]", "categorical_attrs: [pts]"))
        (tmp_path / "games.csv").write_text(f"gid,player,team,rating,pts\n0,a,red,1.0,{HUGE}\n1,b,red,2.0,{HUGE}\n2,c,blue,3.0,1\n")
        common = ["--config", str(tmp_path / "catalog.yaml"), "--data-dir", str(tmp_path)]
        queries = tmp_path / "q.jsonl"
        generated = runner.invoke(main, ["generate", *common, "--out", str(queries), "--k", "2", "--cnum", "1"])
        assert generated.exit_code == 0, generated.output
        bound = [doc for doc in map(json.loads, queries.read_text().splitlines()) if doc["predicate"]]
        assert {atom["right"] for doc in bound for atom in doc["predicate"]} == {HUGE}
        updates = tmp_path / "updates.jsonl"
        updates.write_text(write_update_stream([UpdateRecord(1, "update", "games", {"rating": 5.0}, {"gid": 0})]))
        events = tmp_path / "events.jsonl"
        args = ["run", *common, "--queries", str(queries), "--updates", str(updates), "--events", str(events)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        docs = [json.loads(line) for line in events.read_text().splitlines()]
        assert any(d["entity"] == "a" and f"games.pts = {HUGE}" in d["query"] for d in docs), docs


class TestUnreadableFiles:
    """A config, CSV or line-delimited file that Python cannot read ends in
    one located Error line, not a traceback."""

    @pytest.fixture
    def data(self, bloomberg_dir, tmp_path):
        return Path(shutil.copytree(bloomberg_dir, tmp_path / "data"))

    def generate(self, runner, data, tmp_path):
        return runner.invoke(
            main,
            ["generate", "--config", str(data / "catalog.yaml"), "--data-dir", str(data), "--out", str(tmp_path / "q.jsonl")],
        )

    @pytest.mark.parametrize("fault", ["digits", "nesting", "long"])
    def test_config_beyond_the_parser(self, runner, data, tmp_path, fault):
        config = data / "catalog.yaml"
        if fault == "digits":  # beyond Python's int digit limit: PyYAML's int constructor raises ValueError
            config.write_text(
                config.read_text()
                + "user_constraints:\n  - {kind: const_comparison, left: s_value, comparator: '>', right: "
                + "9" * 5000
                + "}\n"
            )
            message = "config unreadable: ValueError: Exceeds the limit"
        elif fault == "nesting":  # parses; the message quotes six levels of the value, then [...]
            config.write_text("relations: " + "[" * 5000 + "]" * 5000 + "\n")
            message = "config schema violation at relations/0: [[[[[[[...]]]]]]] is not of type 'object'"
        else:  # a 20,000-item list: the message quotes its first eight items
            config.write_text("relations: [[" + "0, " * 20000 + "0]]\n")
            message = "config schema violation at relations/0: [0, 0, 0, 0, 0, 0, 0, 0, ...] is not of type 'object'"
        result = self.generate(runner, data, tmp_path)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"Error: catalog: {message}")
        assert len(result.output.splitlines()[0]) < 200

    def test_csv_cell_beyond_the_field_limit(self, runner, data, tmp_path):
        country = data / "country.csv"
        country.write_text(country.read_text() + "99," + "x" * 200_000 + "\n")
        result = self.generate(runner, data, tmp_path)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error: table 'country', line 8: field larger than field limit" in result.output

    @pytest.mark.parametrize("command", ["run", "rank"])
    def test_file_not_utf8(self, runner, bloomberg_dir, tmp_path, command):
        bad = tmp_path / "input.jsonl"
        bad.write_bytes(fig5_stream_text().encode() + b'{"seq": 2, "table": "caf\xe9"}\n')
        if command == "rank":
            args, what = ["rank", "--events", str(bad)], "event log"
        else:
            queries, _ = gen(runner, bloomberg_dir, tmp_path)
            config = ["--config", str(bloomberg_dir / "catalog.yaml"), "--data-dir", str(bloomberg_dir)]
            args = ["run", *config, "--queries", str(queries), "--updates", str(bad), "--events", str(tmp_path / "e.jsonl")]
            args += ["--on-error", "skip"]
            what = "update stream"
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {what} file {bad}, line 2: not UTF-8 (invalid continuation byte)" in result.output


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A valid file of each line-delimited input, from the Bloomberg fixture:
    a query catalog, the first 20 lines of its synthesized update stream,
    and the event log and stats that hof run writes from them."""
    tmp_path, runner, bloomberg_dir = tmp_path_factory.mktemp("valid"), CliRunner(), DATA_DIR / "bloomberg"
    queries, _ = gen(runner, bloomberg_dir, tmp_path)
    updates = tmp_path / "updates.jsonl"
    config = ["--config", str(bloomberg_dir / "catalog.yaml"), "--data-dir", str(bloomberg_dir)]
    assert runner.invoke(main, ["synth", *config, "--out", str(updates)]).exit_code == 0
    updates.write_text("".join(updates.read_text().splitlines(keepends=True)[:20]))
    events, stats = tmp_path / "events.jsonl", tmp_path / "stats.jsonl"
    result = runner.invoke(main, ["run", *config, "--queries", str(queries), "--updates", str(updates),
                                  "--events", str(events), "--stats", str(stats)])
    assert result.exit_code == 0, result.output
    assert events.read_text() and stats.read_text()
    return {"update stream": updates, "query catalog": queries, "event log": events, "stats": stats, "config": config}


def fields_of(doc, path=()):
    """(path, value) of every field of a JSON document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from fields_of(value, path + (key,))


MUTATIONS = ["truncate", "flip", "utf8", "digits", "nesting", "oversized", "key"]


def oversized(mutation: str, byte: int):
    """The value of a field or cell mutation: a 400-digit integer (digits),
    100,000 levels of nesting, or a 100,000-character string (oversized,
    and for key the key or column name)."""
    if mutation == "digits":
        return -(10**400) if byte & 1 else 10**400
    return "@nest@" if mutation == "nesting" else "x" * 100_000


def mutate_bytes(data: bytes, mutation: str, at: int, byte: int) -> bytes | None:
    """The bytes with one byte-level fault: cut at a byte, one byte flipped
    (xor byte) or an invalid UTF-8 byte inserted; None for another mutation."""
    i = at % len(data)
    if mutation == "truncate":
        return data[:i]
    if mutation == "flip":
        return data[:i] + bytes([data[i] ^ byte]) + data[i + 1:]
    if mutation == "utf8":
        return data[:i] + b"\xff" + data[i:]
    return None


def mutate(text: str, mutation: str, at: int, pick: int, byte: int) -> bytes:
    """The file's bytes with one fault: a byte-level one (mutate_bytes), or,
    in one line, one field (a numeric one for digits) replaced by an
    oversized value, or one field's key (a key of an object) by a
    100,000-character string."""
    data = mutate_bytes(text.encode(), mutation, at, byte)
    if data is not None:
        return data
    lines = text.splitlines()
    n = at % len(lines)
    doc = json.loads(lines[n])
    fields = [path for path, value in fields_of(doc)
              if mutation != "digits" or isinstance(value, (int, float)) and not isinstance(value, bool)]
    if mutation == "key":
        fields = [path for path in fields if isinstance(path[-1], str)]
    *parents, last = fields[pick % len(fields)]
    owner = doc
    for key in parents:
        owner = owner[key]
    if mutation == "key":
        owner[oversized(mutation, byte)] = owner.pop(last)
    else:
        owner[last] = oversized(mutation, byte)
    lines[n] = json.dumps(doc).replace('"@nest@"', "[" * 100_000 + "]" * 100_000)
    return "\n".join(lines).encode() + b"\n"


def mutate_csv(text: str, mutation: str, at: int, pick: int, byte: int) -> bytes:
    """A CSV file's bytes with one fault: a byte-level one (mutate_bytes),
    one header name replaced by a 100,000-character string (key), or one
    data cell (a numeric one for digits) by an oversized value written as
    text, its nesting as 100,000 brackets opened and closed."""
    data = mutate_bytes(text.encode(), mutation, at, byte)
    if data is not None:
        return data
    rows = list(csv.reader(io.StringIO(text)))
    if mutation == "key":
        rows[0][pick % len(rows[0])] = oversized(mutation, byte)
    else:
        row = rows[1 + at % (len(rows) - 1)]
        cells = [i for i, cell in enumerate(row) if mutation != "digits" or re.fullmatch(r"-?[0-9]+", cell)]
        nesting = "[" * 100_000 + "]" * 100_000
        row[cells[pick % len(cells)]] = nesting if mutation == "nesting" else str(oversized(mutation, byte))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def assert_located_error(result) -> None:
    """A command ended with exit 0, or with exit 1 and one located Error
    line of at most 300 characters, never a traceback."""
    assert result.exit_code in (0, 1), result.output
    assert "Traceback" not in result.output
    if result.exit_code:
        assert isinstance(result.exception, SystemExit), repr(result.exception)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1, result.output
        assert len(errors[0]) <= 300, errors[0][:400]  # the value at fault is quoted cut short


class TestCorruptInputs:
    """Any one fault in an update stream, a query catalog, an event log or a
    stats file ends the command that reads it with exit 0, or with exit 1
    and one located Error line of at most 300 characters, never a traceback."""

    COMMANDS = {"update stream": "run", "query catalog": "run", "event log": "rank", "stats": "stats"}

    @settings(max_examples=300, deadline=None)  # about 5 ms each
    @given(
        kind=st.sampled_from(list(COMMANDS)),
        mutation=st.sampled_from(MUTATIONS),
        at=st.integers(0, 10**6),
        pick=st.integers(0, 100),
        byte=st.integers(1, 255),
    )
    # 400-digit integers that once ended in a traceback: the first line's k,
    # selectivity and changed (pick indexes the fields in sorted key order)
    @example(kind="query catalog", mutation="digits", at=0, pick=1, byte=2)
    @example(kind="event log", mutation="digits", at=0, pick=7, byte=2)
    @example(kind="stats", mutation="digits", at=0, pick=0, byte=2)
    # values that were once quoted in full, in an Error line of about
    # 100,000 characters: the first update's where s_companyid and its seq
    @example(kind="update stream", mutation="oversized", at=0, pick=6, byte=2)
    @example(kind="update stream", mutation="oversized", at=0, pick=1, byte=2)
    # column names that were once printed in full: the first update's where
    # key and set key
    @example(kind="update stream", mutation="key", at=0, pick=6, byte=2)
    @example(kind="update stream", mutation="key", at=0, pick=3, byte=2)
    def test_one_fault_is_a_located_error(self, valid_inputs, tmp_path_factory, kind, mutation, at, pick, byte):
        bad = tmp_path_factory.getbasetemp() / "corrupt.jsonl"
        bad.write_bytes(mutate(valid_inputs[kind].read_text(), mutation, at, pick, byte))
        command = self.COMMANDS[kind]
        if command == "run":
            files = {**valid_inputs, kind: bad}
            args = ["run", *files["config"], "--queries", str(files["query catalog"]),
                    "--updates", str(files["update stream"]), "--events", str(bad.with_suffix(".events"))]
        else:
            args = [command, "--events" if command == "rank" else "--stats", str(bad)]
        assert_located_error(CliRunner().invoke(main, args))


class TestCorruptCsv:
    """Any one fault in one Bloomberg CSV ends hof run over it with exit 0,
    or with exit 1 and one located Error line of at most 300 characters,
    never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(
        mutation=st.sampled_from(MUTATIONS),
        at=st.integers(0, 10**6),
        pick=st.integers(0, 100),
        byte=st.integers(1, 255),
    )
    # a header name that was once printed in full, in its unknown columns list
    @example(mutation="key", at=0, pick=1, byte=2)
    def test_one_fault_is_a_located_error(self, valid_inputs, tmp_path_factory, mutation, at, pick, byte):
        data_dir = tmp_path_factory.getbasetemp() / "corrupt-csv"
        if not data_dir.exists():
            shutil.copytree(DATA_DIR / "bloomberg", data_dir)
        (data_dir / "company.csv").write_bytes(
            mutate_csv((DATA_DIR / "bloomberg" / "company.csv").read_text(), mutation, at, pick, byte))
        args = ["run", "--config", str(data_dir / "catalog.yaml"), "--data-dir", str(data_dir),
                "--queries", str(valid_inputs["query catalog"]), "--updates", str(valid_inputs["update stream"]),
                "--events", str(data_dir / "events.jsonl")]
        assert_located_error(CliRunner().invoke(main, args))


class TestOptionRanges:
    REQUIRED = {
        "generate": ["--out", "q.jsonl"],
        "synth": ["--out", "u.jsonl"],
        "run": ["--queries", "q.jsonl", "--updates", "u.jsonl", "--events", "e.jsonl"],
    }

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("run", "--b", "1"),
            ("run", "--window", "0"),
            ("generate", "--k", "0"),
            ("generate", "--cnum", "-1"),
            ("generate", "--jnum", "-1"),
            ("synth", "--updates-per-tuple", "0"),
        ],
    )
    def test_out_of_range_exits_2_before_reading_csvs(self, runner, bloomberg_dir, monkeypatch, command, option, value):
        loaded = []
        monkeypatch.setattr(cli, "_load_store", lambda *args: loaded.append(args))
        config = ["--config", str(bloomberg_dir / "catalog.yaml"), "--data-dir", str(bloomberg_dir)]
        result = runner.invoke(main, [command, *config, *self.REQUIRED[command], option, value])
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{option}'" in result.output
        assert loaded == []


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
        )
        assert result.exit_code == 0, result.output
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert docs and all(d["k"] == 2 for d in docs)

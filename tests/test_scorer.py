import dataclasses
import json
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from halloffame import (
    ChainStore,
    ImprovementPair,
    RankEvent,
    ScoredEvent,
    ScorerConfig,
    dynamic_score,
    entropy,
    event_from_json,
    event_to_json,
    quantize,
    rank_events,
    score_event,
)
from halloffame.scorer import ScoringError
from oracles import EQUAL, GREATER, LESS, aggregate_chain, compare_tradeoff, compare_tradeoff_sequences


def doubling(hi, lo):
    return hi > 2 * lo


def event(qid="q", ent="e", frm=10, to=5, seq=1):
    return RankEvent(query_id=qid, entity=ent, from_rank=frm, to_rank=to, seq=seq)


class KeepAllChains(ChainStore):
    """Full chains, never dropped, only their expired pairs; each record
    returns the oracle's aggregate of the full chain."""

    def record(self, event, window_updates):
        key = (event.query_id, event.entity)
        horizon = event.seq - window_updates
        pairs = self._chains[key] = [p for p in self._chains.get(key, []) if p.seq > horizon]
        pairs.append(ImprovementPair(event.seq, event.from_rank, event.to_rank))
        return aggregate_chain(pairs)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"b": 1}, "b must be >= 2"), ({"window_updates": 0}, "window_updates must be >= 1")],
    ids=["b", "window"],
)
def test_config_bounds(kwargs, message):
    # hof run's option ranges check the same bounds before the config sees them
    with pytest.raises(ValueError) as info:
        ScorerConfig(**kwargs)
    assert str(info.value) == message


class TestChains:
    def test_first_event_creates_chain(self):
        chains = ChainStore()
        assert chains.record(event(seq=1), 1000) == [ImprovementPair(1, 10, 5)]

    def test_old_pairs_evicted_on_next_record(self):
        chains = ChainStore()
        chains.record(event(seq=1), 10)
        pairs = chains.record(event(seq=12, frm=5, to=4), 10)
        assert [p.seq for p in pairs] == [12]

    def test_seamless_continuation_kept(self):
        chains = ChainStore()
        chains.record(event(seq=100, frm=100, to=84), 1000)
        pairs = chains.record(event(seq=200, frm=84, to=65), 1000)
        assert [(p.from_rank, p.to_rank) for p in pairs] == [(100, 84), (84, 65)]

    def test_restarted_chain_trimmed_by_the_window(self):
        chains = ChainStore()
        chains.record(event(seq=1, frm=10, to=5), 10)
        # 5 -> 8 in between is a worsening: the chain restarts at (8, 6)
        assert chains.record(event(seq=2, frm=8, to=6), 10) == [ImprovementPair(2, 8, 6)]
        assert chains.record(event(seq=3, frm=6, to=4), 10) == [ImprovementPair(2, 8, 6), ImprovementPair(3, 6, 4)]
        # at seq 12 the horizon is 2: (8, 6) leaves the window, (6, 4) stays
        pairs = chains.record(event(seq=12, frm=4, to=2), 10)
        assert pairs == [ImprovementPair(3, 6, 4), ImprovementPair(12, 4, 2)]
        assert chains._chains == {("q", "e"): pairs}

    def test_dead_chains_dropped_without_changing_scores(self):
        rng = random.Random(8)
        cfg = ScorerConfig(window_updates=50)
        query = SimpleNamespace(k=20, selectivity=0.5, entropy_bits=1.0)
        bounded, reference = ChainStore(), KeepAllChains()
        most = 0
        for seq in range(1, 2001):  # 40 windows, up to 3 events per update
            for _ in range(rng.randint(0, 3)):
                to = rng.randint(1, 19)
                e = event(f"q{rng.randrange(40)}", f"e{rng.randrange(25)}", rng.randint(to + 1, 21), to, seq)
                assert score_event(e, query, bounded, cfg) == score_event(e, query, reference, cfg)
            most = max(most, len(bounded._chains))
        assert most <= 3 * cfg.window_updates
        assert len(reference._chains) > 4 * most

    @pytest.mark.parametrize("window", [1, 2])
    def test_one_eviction_per_update_in_short_windows(self, window):
        # several events per update, and updates that skip seqs, so chains
        # expire while others are recorded to within one update
        rng = random.Random(window)
        cfg = ScorerConfig(window_updates=window)
        query = SimpleNamespace(k=20, selectivity=0.5, entropy_bits=1.0)
        bounded, reference = ChainStore(), KeepAllChains()
        seq = 0
        for _ in range(1500):
            seq += rng.choice([1, 1, 2, 3])
            for q, ent in rng.sample([(q, e) for q in range(3) for e in range(4)], rng.randint(2, 6)):
                to = rng.randint(1, 19)
                e = event(f"q{q}", f"e{ent}", rng.randint(to + 1, 21), to, seq)
                assert score_event(e, query, bounded, cfg) == score_event(e, query, reference, cfg)
            assert all(pairs[-1].seq > seq - window for pairs in bounded._chains.values())


class TestAggregateChain:
    def test_intermediate_worsening_breaks_chain(self):
        pairs = [ImprovementPair(1, 100, 75), ImprovementPair(2, 84, 65)]
        assert aggregate_chain(pairs) == [ImprovementPair(2, 84, 65)]

    def test_seamless_continuation_merges(self):
        pairs = [ImprovementPair(1, 100, 84), ImprovementPair(2, 84, 65)]
        assert aggregate_chain(pairs) == pairs

    def test_single_pair_is_itself(self):
        pairs = [ImprovementPair(1, 9, 3)]
        assert aggregate_chain(pairs) == pairs

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            aggregate_chain([])

    def test_result_is_suffix_and_scores_at_least_latest(self):
        rng = random.Random(4)
        for _ in range(300):
            pairs = []
            for i in range(rng.randrange(1, 6)):
                to = rng.randrange(1, 21)
                frm = rng.randrange(to + 1, 22)
                pairs.append(ImprovementPair(i, frm, to))
            merged = aggregate_chain(pairs)
            assert merged == pairs[len(pairs) - len(merged):]
            raw_merged, _ = dynamic_score(merged, 20, 5)
            raw_latest, _ = dynamic_score(pairs[-1:], 20, 5)
            assert raw_merged >= raw_latest - 1e-12


class TestDynamicScore:
    def test_biggest_noticeable_improvement(self):
        raw, norm = dynamic_score([ImprovementPair(1, 21, 1)], 20, 5)
        assert raw == pytest.approx(20.0, abs=1e-9)
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_smallest_noticeable_improvement(self):
        raw, norm = dynamic_score([ImprovementPair(1, 21, 20)], 20, 5)
        assert raw == pytest.approx(1.0 / math.log(20, 5), abs=1e-9)
        assert norm == pytest.approx(0.0, abs=1e-9)

    def test_deep_rank_discounted(self):
        raw, _ = dynamic_score([ImprovementPair(1, 84, 65)], 100, 10)
        assert raw == pytest.approx(19.0 / math.log(65, 10), abs=1e-9)

    def test_no_pairs_rejected(self):
        with pytest.raises(ScoringError) as info:
            dynamic_score([], 20, 5)
        assert str(info.value) == "dynamic_score needs at least one pair"

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ScoringError):
            dynamic_score([ImprovementPair(1, 5, 5)], 20, 5)
        with pytest.raises(ScoringError):
            dynamic_score([ImprovementPair(1, 5, 0)], 20, 5)

    def test_multi_pair_normalization_clamped(self):
        pairs = [ImprovementPair(i, 21, 1) for i in range(3)]
        raw, norm = dynamic_score(pairs, 20, 5)
        assert raw == pytest.approx(60.0)
        assert norm == 1.0

    @given(
        to=st.integers(min_value=1, max_value=20),
        jump_a=st.integers(min_value=1, max_value=20),
        jump_b=st.integers(min_value=1, max_value=20),
    )
    def test_raw_increases_with_jump_size(self, to, jump_a, jump_b):
        small, big = sorted((jump_a, jump_b))
        if small == big:
            return
        raw_small, _ = dynamic_score([ImprovementPair(1, to + small, to)], 20, 5)
        raw_big, _ = dynamic_score([ImprovementPair(1, to + big, to)], 20, 5)
        assert raw_big > raw_small

    @given(to=st.integers(min_value=1, max_value=19), jump=st.integers(min_value=1, max_value=10))
    def test_raw_nondecreasing_as_target_rank_improves(self, to, jump):
        better, _ = dynamic_score([ImprovementPair(1, to + jump, to)], 20, 5)
        worse, _ = dynamic_score([ImprovementPair(1, to + 1 + jump, to + 1)], 20, 5)
        assert better >= worse - 1e-12

    @given(k=st.integers(min_value=1, max_value=60), b=st.integers(min_value=2, max_value=10), data=st.data())
    def test_each_query_normalizes_by_its_own_k(self, k, b, data):
        # K+1 -> 1 reads 1 and K+1 -> K reads 0 for every k, also k <= b
        # and k = 1, and the norm grows with the jump in between
        assert dynamic_score([ImprovementPair(1, k + 1, 1)], k, b)[1] == 1.0
        if k >= 2:
            assert dynamic_score([ImprovementPair(1, k + 1, k)], k, b)[1] == 0.0
        to = data.draw(st.integers(min_value=1, max_value=k), label="to")
        norms = [dynamic_score([ImprovementPair(1, frm, to)], k, b)[1] for frm in range(to + 1, k + 2)]
        assert all(0.0 <= norm <= 1.0 for norm in norms)
        assert norms == sorted(norms)
        norms = [dynamic_score([ImprovementPair(1, k + 1, to)], k, b)[1] for to in range(k, 0, -1)]
        assert norms == sorted(norms)
        # the same pair through score_event, in a ranking of 2 and one of 5
        chains, cfg = ChainStore(), ScorerConfig(b=b)
        by_size = {}
        for size in (2, 5):
            query = SimpleNamespace(k=size, selectivity=0.5, entropy_bits=1.0)
            by_size[size] = score_event(event(f"q{size}", frm=3, to=1), query, chains, cfg).dynamic_norm
        assert by_size == {size: dynamic_score([ImprovementPair(1, 3, 1)], size, b)[1] for size in (2, 5)}
        assert by_size[2] == 1.0 > by_size[5]
        if b >= 5:  # every rank up to 5 is undiscounted: raw 2, smallest 1, largest 5
            assert by_size[5] == 0.25

    def test_norm_always_in_unit_interval(self):
        rng = random.Random(9)
        for _ in range(500):
            to = rng.randrange(1, 21)
            frm = rng.randrange(to + 1, 22)
            _, norm = dynamic_score([ImprovementPair(1, frm, to)], 20, 5)
            assert 0.0 <= norm <= 1.0


@st.composite
def counts_in_two_orders(draw):
    """A count mapping and the same mapping in a drawn key order."""
    counts = draw(st.dictionaries(st.integers(), st.integers(min_value=1, max_value=10**6), min_size=1, max_size=30))
    return counts, dict(draw(st.permutations(list(counts.items()))))


class TestEntropy:
    def test_paper_projection(self):
        bits = entropy({"a": 3, "b": 1, "c": 1})
        expected = -(0.6 * math.log2(0.6) + 2 * 0.2 * math.log2(0.2))
        assert bits == pytest.approx(expected, abs=1e-12)
        assert bits == pytest.approx(1.3709505944546687, abs=1e-9)

    def test_single_instantiation_is_zero(self):
        assert entropy({"only": 17}) == 0.0

    def test_uniform_over_four_is_two_bits(self):
        assert entropy({i: 5 for i in range(4)}) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ScoringError):
            entropy({})
        with pytest.raises(ScoringError):
            entropy({"a": 0})

    @given(st.dictionaries(st.integers(), st.integers(min_value=1, max_value=50), min_size=1, max_size=12))
    def test_bounded_by_log_m_with_equality_iff_uniform(self, counts):
        bits = entropy(counts)
        m = len(counts)
        assert -1e-9 <= bits <= math.log2(m) + 1e-9
        if len(set(counts.values())) == 1:
            assert bits == pytest.approx(math.log2(m))
        if m == 1:
            assert bits == 0.0

    @example(({"a": 1, "b": 3, "c": 2}, {"b": 3, "c": 2, "a": 1}))
    @given(counts_in_two_orders())
    def test_same_float_in_every_order(self, drawn):
        # the same bits, so a catalog's entropy_bits do not depend on the
        # order a join meets the values in
        counts, permuted = drawn
        bits = entropy(counts)
        assert math.copysign(1.0, bits) == 1.0
        assert entropy(permuted).hex() == bits.hex()

    def test_order_decides_the_left_to_right_sum(self):
        # the example above: summed left to right, its terms give another
        # float in its first order than in its second, and the exact sum only
        # in the second

        def left_to_right(counts):
            result = 0.0
            for value in counts.values():
                p = value / sum(counts.values())
                result -= p * math.log2(p)
            return result

        counts, permuted = {"a": 1, "b": 3, "c": 2}, {"b": 3, "c": 2, "a": 1}
        assert left_to_right(counts) != left_to_right(permuted) == entropy(counts)


class TestCompareTradeoff:
    def test_first_position_decides_greater(self):
        assert compare_tradeoff_sequences((7, 3, 6), (3, 8, 4), doubling) == GREATER

    def test_second_position_decides_less(self):
        assert compare_tradeoff_sequences((7, 2, 6), (5, 6, 2), doubling) == LESS

    def test_exactly_equal(self):
        assert compare_tradeoff(4.0, 4.0, doubling) == EQUAL
        assert compare_tradeoff_sequences((1, 2), (1, 2), doubling) == EQUAL


def scored(qid="q", ent="e", sel=0.5, dyn=0.5, bits=1.0, seq=1):
    return ScoredEvent(
        seq=seq,
        query_id=qid,
        entity=ent,
        from_rank=10,
        to_rank=5,
        selectivity=sel,
        dynamic_raw=dyn,
        dynamic_norm=dyn,
        entropy_bits=bits,
        chain=(ImprovementPair(seq, 10, 5),),
    )


class TestRankEvents:
    def test_dynamic_breaks_selectivity_tie(self):
        a = scored("a", sel=0.9, dyn=0.2)
        b = scored("b", sel=0.85, dyn=0.7)
        assert [e.query_id for e in rank_events([a, b])] == ["b", "a"]

    def test_selectivity_bucket_decides(self):
        a = scored("a", sel=0.50, dyn=0.9)
        b = scored("b", sel=0.80, dyn=0.1)
        assert [e.query_id for e in rank_events([a, b])] == ["b", "a"]

    def test_permutation_invariance(self):
        rng = random.Random(31)
        events = [
            scored(f"q{i}", ent=f"e{i % 7}", sel=rng.random(), dyn=rng.random(), bits=rng.random() * 3, seq=i)
            for i in range(40)
        ]
        baseline = rank_events(events)
        for _ in range(10):
            shuffled = events[:]
            rng.shuffle(shuffled)
            assert rank_events(shuffled) == baseline

    def test_quantize_edges(self):
        assert quantize(0.0, 4) == 0
        assert quantize(0.24, 4) == 0
        assert quantize(0.25, 4) == 1
        assert quantize(1.0, 4) == 3  # capped at n - 1

    def test_scaling_within_bucket_preserves_order(self):
        events = [
            scored("a", sel=0.52, dyn=0.9),
            scored("b", sel=0.55, dyn=0.1),
            scored("c", sel=0.61, dyn=0.5),
        ]
        before = [e.query_id for e in rank_events(events)]
        # nudge all selectivities by a constant that keeps them in bucket 2
        moved = [
            dataclasses.replace(e, selectivity=e.selectivity + 0.1) for e in events
        ]
        after = [e.query_id for e in rank_events(moved)]
        assert before == after


HUGE_INTS = st.integers(min_value=-(10**400), max_value=10**400)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def scored_events(draw):
    def ints():
        return draw(st.integers() | HUGE_INTS)

    chain = draw(st.lists(st.builds(ImprovementPair, HUGE_INTS, HUGE_INTS, HUGE_INTS), max_size=60))
    return ScoredEvent(
        seq=ints(),
        query_id=draw(st.text()),
        entity=draw(st.text() | st.integers() | HUGE_INTS | st.floats(allow_nan=False)),
        from_rank=ints(),
        to_rank=ints(),
        selectivity=draw(FINITE),
        dynamic_raw=draw(FINITE),
        dynamic_norm=draw(FINITE),
        entropy_bits=draw(FINITE),
        chain=tuple(chain),
    )


class TestEventCodec:
    @given(scored_events(), st.text())
    @example(scored(ent="Amancio O. Gaona \u00e9\U0001f3c6"), "SELECT \u00fc")
    @example(dataclasses.replace(scored(ent=-(10**400)), seq=10**300), "")
    @example(scored(ent=1.0), "SELECT")
    def test_round_trip_and_json_dumps_oracle(self, e, sql):
        line = event_to_json(e, sql)
        assert event_from_json(line) == (e, sql)
        doc = {f.name: getattr(e, f.name) for f in dataclasses.fields(ScoredEvent)}
        doc["chain"] = [[p.seq, p.from_rank, p.to_rank] for p in e.chain]
        doc["query"] = sql
        assert line == json.dumps(doc, sort_keys=True)

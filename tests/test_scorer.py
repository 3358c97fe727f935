import dataclasses
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from halloffame import (
    ChainStore,
    ImprovementChain,
    ImprovementPair,
    RankEvent,
    ScoredEvent,
    ScorerConfig,
    aggregate_chain,
    compare_tradeoff,
    compare_tradeoff_sequences,
    dynamic_score,
    entropy,
    quantize,
    rank_events,
    record_improvement,
    score_event,
)
from halloffame.scorer import EQUAL, GREATER, LESS, ScoringError


def doubling(hi, lo):
    return hi > 2 * lo


def event(qid="q", ent="e", frm=10, to=5, seq=1):
    return RankEvent(query_id=qid, entity=ent, from_rank=frm, to_rank=to, seq=seq)


class TestChains:
    def test_first_event_creates_chain(self):
        chains = ChainStore()
        record_improvement(chains, event(seq=1), 1000)
        chain = chains.get("q", "e")
        assert chain.pairs == [ImprovementPair(1, 10, 5)]

    def test_old_pairs_evicted_on_next_record(self):
        chains = ChainStore()
        chains.record(event(seq=1), 10)
        chains.record(event(seq=12, frm=5, to=4), 10)
        assert [p.seq for p in chains.get("q", "e").pairs] == [12]

    def test_two_jumps_kept_while_in_window(self):
        chains = ChainStore()
        chains.record(event(seq=100, frm=100, to=75), 1000)
        chain = chains.record(event(seq=200, frm=84, to=65), 1000)
        assert [(p.from_rank, p.to_rank) for p in chain.pairs] == [(100, 75), (84, 65)]

    def test_dead_chains_dropped_without_changing_scores(self):
        class KeepAllChains(ChainStore):
            """Chains are never dropped, only their expired pairs."""

            def record(self, event, window_updates):
                key = (event.query_id, event.entity)
                chain = self._chains.setdefault(key, ImprovementChain(event.query_id, event.entity, []))
                horizon = event.seq - window_updates
                chain.pairs = [p for p in chain.pairs if p.seq > horizon]
                chain.pairs.append(ImprovementPair(event.seq, event.from_rank, event.to_rank))
                return chain

        rng = random.Random(8)
        cfg = ScorerConfig(k=20, window_updates=50)
        query = SimpleNamespace(selectivity=0.5, entropy_bits=1.0)
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


class TestAggregateChain:
    def test_intermediate_worsening_breaks_chain(self):
        chain = ImprovementChain("q", "e", [ImprovementPair(1, 100, 75), ImprovementPair(2, 84, 65)])
        assert aggregate_chain(chain) == [ImprovementPair(2, 84, 65)]

    def test_seamless_continuation_merges(self):
        chain = ImprovementChain("q", "e", [ImprovementPair(1, 100, 84), ImprovementPair(2, 84, 65)])
        assert aggregate_chain(chain) == chain.pairs

    def test_single_pair_is_itself(self):
        chain = ImprovementChain("q", "e", [ImprovementPair(1, 9, 3)])
        assert aggregate_chain(chain) == chain.pairs

    def test_empty_chain_rejected(self):
        with pytest.raises(ScoringError):
            aggregate_chain(ImprovementChain("q", "e", []))

    def test_result_is_suffix_and_scores_at_least_latest(self):
        rng = random.Random(4)
        cfg = ScorerConfig(b=5, k=20)
        for _ in range(300):
            pairs = []
            for i in range(rng.randrange(1, 6)):
                to = rng.randrange(1, 21)
                frm = rng.randrange(to + 1, 22)
                pairs.append(ImprovementPair(i, frm, to))
            chain = ImprovementChain("q", "e", pairs)
            merged = aggregate_chain(chain)
            assert merged == pairs[len(pairs) - len(merged):]
            raw_merged, _ = dynamic_score(merged, cfg)
            raw_latest, _ = dynamic_score(pairs[-1:], cfg)
            assert raw_merged >= raw_latest - 1e-12


class TestDynamicScore:
    CFG = ScorerConfig(b=5, k=20)

    def test_biggest_noticeable_improvement(self):
        raw, norm = dynamic_score([ImprovementPair(1, 21, 1)], self.CFG)
        assert raw == pytest.approx(20.0, abs=1e-9)
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_smallest_noticeable_improvement(self):
        raw, norm = dynamic_score([ImprovementPair(1, 21, 20)], self.CFG)
        assert raw == pytest.approx(1.0 / math.log(20, 5), abs=1e-9)
        assert norm == pytest.approx(0.0, abs=1e-9)

    def test_deep_rank_discounted(self):
        cfg = ScorerConfig(b=10, k=100)
        raw, _ = dynamic_score([ImprovementPair(1, 84, 65)], cfg)
        assert raw == pytest.approx(19.0 / math.log(65, 10), abs=1e-9)

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ScoringError):
            dynamic_score([ImprovementPair(1, 5, 5)], self.CFG)
        with pytest.raises(ScoringError):
            dynamic_score([ImprovementPair(1, 5, 0)], self.CFG)

    def test_multi_pair_normalization_clamped(self):
        pairs = [ImprovementPair(i, 21, 1) for i in range(3)]
        raw, norm = dynamic_score(pairs, self.CFG)
        assert raw == pytest.approx(60.0)
        assert norm == 1.0

    @given(
        to=st.integers(min_value=1, max_value=20),
        jump_a=st.integers(min_value=1, max_value=20),
        jump_b=st.integers(min_value=1, max_value=20),
    )
    def test_raw_increases_with_jump_size(self, to, jump_a, jump_b):
        cfg = ScorerConfig(b=5, k=20)
        small, big = sorted((jump_a, jump_b))
        if small == big:
            return
        raw_small, _ = dynamic_score([ImprovementPair(1, to + small, to)], cfg)
        raw_big, _ = dynamic_score([ImprovementPair(1, to + big, to)], cfg)
        assert raw_big > raw_small

    @given(to=st.integers(min_value=1, max_value=19), jump=st.integers(min_value=1, max_value=10))
    def test_raw_nondecreasing_as_target_rank_improves(self, to, jump):
        cfg = ScorerConfig(b=5, k=20)
        better, _ = dynamic_score([ImprovementPair(1, to + jump, to)], cfg)
        worse, _ = dynamic_score([ImprovementPair(1, to + 1 + jump, to + 1)], cfg)
        assert better >= worse - 1e-12

    def test_norm_always_in_unit_interval(self):
        rng = random.Random(9)
        cfg = ScorerConfig(b=5, k=20)
        for _ in range(500):
            to = rng.randrange(1, 21)
            frm = rng.randrange(to + 1, 22)
            _, norm = dynamic_score([ImprovementPair(1, frm, to)], cfg)
            assert 0.0 <= norm <= 1.0


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
    CFG = ScorerConfig(b=5, k=20, groups=4)

    def test_dynamic_breaks_selectivity_tie(self):
        a = scored("a", sel=0.9, dyn=0.2)
        b = scored("b", sel=0.85, dyn=0.7)
        assert [e.query_id for e in rank_events([a, b], self.CFG)] == ["b", "a"]

    def test_selectivity_bucket_decides(self):
        a = scored("a", sel=0.50, dyn=0.9)
        b = scored("b", sel=0.80, dyn=0.1)
        assert [e.query_id for e in rank_events([a, b], self.CFG)] == ["b", "a"]

    def test_permutation_invariance(self):
        rng = random.Random(31)
        events = [
            scored(f"q{i}", ent=f"e{i % 7}", sel=rng.random(), dyn=rng.random(), bits=rng.random() * 3, seq=i)
            for i in range(40)
        ]
        baseline = rank_events(events, self.CFG)
        for _ in range(10):
            shuffled = events[:]
            rng.shuffle(shuffled)
            assert rank_events(shuffled, self.CFG) == baseline

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
        before = [e.query_id for e in rank_events(events, self.CFG)]
        # nudge all selectivities by a constant that keeps them in bucket 2
        moved = [
            dataclasses.replace(e, selectivity=e.selectivity + 0.1) for e in events
        ]
        after = [e.query_id for e in rank_events(moved, self.CFG)]
        assert before == after

"""Event scoring: improvement chains, dynamic scores, entropy, the
lexicographic-tradeoff ordering of detected events, and the event log's
line format.

An event's final rank position is decided by, in order: the selectivity of
its query (how much competition the ranking has), the dynamic score of the
rank jump, and the entropy of the predicate's column combination. The two
leading scores are quantized into GROUPS coarse groups so that nearly
equal values tie and the next component decides, which is what makes the
sort key a lawful total preorder. ``hof rank`` applies rank_events to a
window of an event log.

The dynamic score is of the event's improvement chain: the suffix of its
entity's rank improvements in its query since the last worsening, which
ChainStore keeps by applying the chain rule as it records each pair. The
score is normalized by the ranking size K of the event's own query, its k,
with rules of its own for K <= b and K = 1 (dynamic_score).

event_to_json and event_from_json are the event log's one codec. Pipeline
is the one per-update step from an update to its event log lines.
"""

from __future__ import annotations

import json
import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import cache
from typing import Any, Iterable, Mapping, Sequence

from .catalog import expect, is_finite, is_int, is_number, quote


class ScoringError(Exception):
    pass


GROUPS = 4  # coarse score groups for tradeoff ties


@dataclass(frozen=True)
class ScorerConfig:
    b: int = 5  # rank threshold: improvements to rank <= b are undiscounted
    window_updates: int = 1000  # improvement pairs older than this are dropped

    def __post_init__(self):
        if self.b < 2:
            raise ValueError("b must be >= 2")
        if self.window_updates < 1:
            raise ValueError("window_updates must be >= 1")


@dataclass(slots=True)
class ImprovementPair:
    seq: int
    from_rank: int
    to_rank: int


class ChainStore:
    """Per-(query, entity) improvement chains within the sliding window. A
    chain is the suffix of one entity's rank improvements in one ranking
    since its last intermediate worsening: the chain rule, applied as each
    pair is recorded. Walking backward from the most recent pair, an
    earlier pair (p, p') stays only while the later pair starts at a rank
    at least as good as where the earlier one ended (from_rank <= p');
    everything before a worsening already had its chance to be reported.

    Chains are kept in the order they were last recorded to. Events arrive
    in stream order, so a chain whose newest pair has left the window holds
    no live state and is dropped from the front. Chains are evicted only
    when the window's horizon moved since the last eviction, once per
    update: after one, every chain left is newer than the horizon, and so
    is every chain recorded to until it moves. A live chain grows in place,
    restarts at a worsening and is rebuilt only when its oldest pair leaves
    the window.
    """

    def __init__(self):
        self._chains: OrderedDict[tuple, list[ImprovementPair]] = OrderedDict()
        self._horizon = None  # the horizon of the last eviction

    def record(self, event, window_updates: int) -> list[ImprovementPair]:
        """Extend the event's chain by its pair, or restart it at a
        worsening, evicting expired pairs and chains; returns the chain, the
        pairs that count as one combined improvement."""
        horizon = event.seq - window_updates
        chains = self._chains
        if horizon != self._horizon:
            self._horizon = horizon
            while chains and next(iter(chains.values()))[-1].seq <= horizon:
                chains.popitem(last=False)
        key = (event.query_id, event.entity)
        pairs = chains.pop(key, None)
        if pairs is None or event.from_rank > pairs[-1].to_rank:
            pairs = []
        elif pairs[0].seq <= horizon:
            pairs = [p for p in pairs if p.seq > horizon]
        pairs.append(ImprovementPair(event.seq, event.from_rank, event.to_rank))
        chains[key] = pairs
        return pairs


def dynamic_score(pairs: Sequence[ImprovementPair], k: int, b: int) -> tuple[float, float]:
    """(raw, normalized) jump score of an aggregated chain in a ranking of
    size K = k with rank threshold b.

    raw = sum of (r - r') for pairs reaching rank r' <= b, plus
    (r - r') / log_b(r') for deeper pairs. Normalization maps the smallest
    noticeable improvement (K+1 -> K) to 0 and the largest (K+1 -> 1, raw
    K) to 1, clamping multi-pair totals that exceed the single-pair bounds.
    The smallest one scores 1 / log_b(K) when K > b, and 1 when K <= b,
    since every rank up to K is then undiscounted; it is computed once per
    (K, b). K = 1 normalizes to 1: its only improvement, 2 -> 1, is also
    the largest one.
    """
    if not pairs:
        raise ScoringError("dynamic_score needs at least one pair")
    raw = 0.0
    for p in pairs:
        if p.to_rank < 1 or p.from_rank <= p.to_rank:
            raise ScoringError(f"invalid improvement pair {p.from_rank}->{p.to_rank}")
        jump = p.from_rank - p.to_rank
        if p.to_rank <= b:
            raw += jump
        else:
            raw += jump / math.log(p.to_rank, b)
    if k == 1:
        return raw, 1.0
    lo = _smallest_raw(k, b)
    normalized = (raw - lo) / (k - lo)
    normalized = min(1.0, max(0.0, normalized))
    return raw, normalized


@cache
def _smallest_raw(k: int, b: int) -> float:
    """The raw score of the smallest noticeable improvement, K+1 -> K."""
    return 1.0 / math.log(k, b) if k > b else 1.0


def entropy(counts: Mapping[Any, int]) -> float:
    """Shannon entropy (bits) of a count distribution, +0.0 for one count.
    The terms are summed exactly (math.fsum) and rounded once, so the result
    does not depend on the order of the counts."""
    if not counts:
        raise ScoringError("entropy of empty distribution")
    if min(counts.values()) <= 0:
        raise ScoringError(f"non-positive count {quote(min(counts.values()))}")
    total = sum(counts.values())
    return 0.0 - math.fsum(value / total * math.log2(value / total) for value in counts.values())


def quantize(score: float, groups: int) -> int:
    """Coarse group of a [0, 1] score: floor(score * n) capped at n - 1."""
    return min(groups - 1, math.floor(score * groups))


@dataclass(slots=True)
class ScoredEvent:
    """A detected improvement enriched with its ranking ingredients."""

    seq: int
    query_id: str
    entity: Any
    from_rank: int
    to_rank: int
    selectivity: float
    dynamic_raw: float
    dynamic_norm: float
    entropy_bits: float
    chain: tuple[ImprovementPair, ...]  # the pairs actually aggregated


def score_event(event, query, chains: ChainStore, cfg: ScorerConfig) -> ScoredEvent:
    """Record the event in its chain and compose the full score triple."""
    pairs = chains.record(event, cfg.window_updates)
    raw, norm = dynamic_score(pairs, query.k, cfg.b)
    return ScoredEvent(
        event.seq,
        event.query_id,
        event.entity,
        event.from_rank,
        event.to_rank,
        query.selectivity,
        raw,
        norm,
        query.entropy_bits,
        tuple(pairs),
    )


def rank_events(events: Iterable[ScoredEvent]) -> list[ScoredEvent]:
    """Order events by quantized selectivity, then quantized dynamic score,
    then raw entropy; query id, entity, and seq break exact ties."""

    def key(e: ScoredEvent):
        return (
            -quantize(e.selectivity, GROUPS),
            -quantize(e.dynamic_norm, GROUPS),
            -e.entropy_bits,
            e.query_id,
            str(e.entity),
            e.seq,
        )

    return sorted(events, key=key)


def event_to_json(event: ScoredEvent, sql: str) -> str:
    """One event log line: the event and its query's SQL."""
    doc = {
        "seq": event.seq,
        "query_id": event.query_id,
        "query": sql,
        "entity": event.entity,
        "from_rank": event.from_rank,
        "to_rank": event.to_rank,
        "selectivity": event.selectivity,
        "dynamic_raw": event.dynamic_raw,
        "dynamic_norm": event.dynamic_norm,
        "entropy_bits": event.entropy_bits,
        "chain": [[p.seq, p.from_rank, p.to_rank] for p in event.chain],
    }
    return json.dumps(doc, sort_keys=True)


def event_from_json(line: str) -> tuple[ScoredEvent, str]:
    """Parse one event log line into (event, SQL); a field that cannot be
    ranked is a ScoringError."""
    doc = json.loads(line)
    expect(isinstance(doc, dict), "an event must be a JSON object", doc, ScoringError)
    for key in ("seq", "from_rank", "to_rank"):
        expect(is_int(doc[key]), f"{key} must be an integer", doc[key], ScoringError)
    expect(isinstance(doc["query_id"], str), "query_id must be a string", doc["query_id"], ScoringError)
    entity = doc["entity"]
    expect(isinstance(entity, str) or is_number(entity), "entity must be a string or a number", entity, ScoringError)
    for key in ("selectivity", "dynamic_raw", "dynamic_norm", "entropy_bits"):
        expect(is_finite(doc[key]), f"{key} must be a finite number", doc[key], ScoringError)
    chain = doc["chain"]
    pairs = isinstance(chain, list) and all(isinstance(p, list) and len(p) == 3 and all(map(is_int, p)) for p in chain)
    expect(pairs, "chain must be a list of [seq, from_rank, to_rank] integer lists", chain, ScoringError)
    event = ScoredEvent(
        doc["seq"], doc["query_id"], entity, doc["from_rank"], doc["to_rank"],
        doc["selectivity"], doc["dynamic_raw"], doc["dynamic_norm"], doc["entropy_bits"],
        tuple(ImprovementPair(*p) for p in chain),
    )
    return event, doc.get("query", "")


class Pipeline:
    """The per-update step of ``hof run`` over an Engine or a Reference:
    detect, then score each event in its query's chain and render it as an
    event log line. Its only state is the chains; the update's DetectStats
    are the engine's last_stats."""

    def __init__(self, engine, cfg: ScorerConfig):
        self.engine, self.cfg, self.chains = engine, cfg, ChainStore()

    def step(self, u) -> tuple[list[str], float]:
        """The update's event lines, in detection order, and the milliseconds
        detect alone took. An update the engine rejects raises its
        StoreError and changes nothing."""
        started = time.perf_counter()
        detected = self.engine.detect(u)
        detect_ms = (time.perf_counter() - started) * 1000.0
        queries = self.engine.queries
        scored = [score_event(event, queries[event.query_id], self.chains, self.cfg) for event in detected]
        return [event_to_json(event, queries[event.query_id].sql()) for event in scored], detect_ms

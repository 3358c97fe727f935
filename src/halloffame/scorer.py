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

The dynamic score is normalized by the ranking size K of the event's own
query, its k, with rules of its own for K <= b and K = 1 (dynamic_score).

event_to_json and event_from_json are the event log's one codec.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cache
from typing import Any, Iterable, Mapping, Sequence


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
    chain is the time-ordered list of one entity's rank improvements in one
    ranking.

    Chains are kept in the order they were last recorded to. Events arrive
    in stream order, so a chain whose newest pair has left the window holds
    no live state and is dropped from the front. Chains are evicted only
    when the window's horizon moved since the last eviction, once per
    update: after one, every chain left is newer than the horizon, and so
    is every chain recorded to until it moves. A live chain's pair list
    grows in place and is rebuilt only when its oldest pair leaves the
    window.
    """

    def __init__(self):
        self._chains: OrderedDict[tuple, list[ImprovementPair]] = OrderedDict()
        self._horizon = None  # the horizon of the last eviction

    def record(self, event, window_updates: int) -> list[ImprovementPair]:
        """Append the event's pair to its chain, evicting expired pairs and
        chains; returns the chain."""
        horizon = event.seq - window_updates
        chains = self._chains
        if horizon != self._horizon:
            self._horizon = horizon
            while chains and next(iter(chains.values()))[-1].seq <= horizon:
                chains.popitem(last=False)
        key = (event.query_id, event.entity)
        pairs = chains.get(key)
        if pairs is None:
            pairs = chains[key] = []
        else:
            chains.move_to_end(key)
            if pairs[0].seq <= horizon:
                pairs = chains[key] = [p for p in pairs if p.seq > horizon]
        pairs.append(ImprovementPair(event.seq, event.from_rank, event.to_rank))
        return pairs


def aggregate_chain(pairs: list[ImprovementPair]) -> list[ImprovementPair]:
    """The suffix of the chain that counts as one combined improvement.

    Walking backward from the most recent pair, an earlier pair (p, p')
    stays included only while the later pair starts at a rank at least as
    good as where the earlier one ended (from_rank <= p'); the first
    intermediate worsening breaks the chain, since everything before it
    already had its chance to be reported.
    """
    if not pairs:
        raise ScoringError("aggregate_chain on empty chain")
    start = len(pairs) - 1
    while start > 0 and pairs[start].from_rank <= pairs[start - 1].to_rank:
        start -= 1
    return pairs[start:]


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
        raise ScoringError(f"non-positive count {min(counts.values())!r}")
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
    pairs = aggregate_chain(chains.record(event, cfg.window_updates))
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


def _expect(ok: bool, what: str, value: Any) -> None:
    if not ok:
        raise ScoringError(f"{what}, got {value!r}")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


def event_from_json(line: str) -> tuple[ScoredEvent, str]:
    """Parse one event log line into (event, SQL); a field that cannot be
    ranked is a ScoringError."""
    doc = json.loads(line)
    _expect(isinstance(doc, dict), "an event must be a JSON object", doc)
    for key in ("seq", "from_rank", "to_rank"):
        _expect(_is_int(doc[key]), f"{key} must be an integer", doc[key])
    _expect(isinstance(doc["query_id"], str), "query_id must be a string", doc["query_id"])
    entity = doc["entity"]
    _expect(isinstance(entity, (str, float)) or _is_int(entity), "entity must be a string or a number", entity)
    for key in ("selectivity", "dynamic_raw", "dynamic_norm", "entropy_bits"):
        _expect(_is_finite(doc[key]), f"{key} must be a finite number", doc[key])
    chain = doc["chain"]
    pairs = isinstance(chain, list) and all(isinstance(p, list) and len(p) == 3 and all(map(_is_int, p)) for p in chain)
    _expect(pairs, "chain must be a list of [seq, from_rank, to_rank] integer lists", chain)
    event = ScoredEvent(
        doc["seq"], doc["query_id"], entity, doc["from_rank"], doc["to_rank"],
        doc["selectivity"], doc["dynamic_raw"], doc["dynamic_norm"], doc["entropy_bits"],
        tuple(ImprovementPair(*p) for p in chain),
    )
    return event, doc.get("query", "")

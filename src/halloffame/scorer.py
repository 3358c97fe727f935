"""Event scoring: improvement chains, dynamic scores, entropy, and the
lexicographic-tradeoff ordering of detected events.

An event's final rank position is decided by, in order: the selectivity of
its query (how much competition the ranking has), the dynamic score of the
rank jump, and the entropy of the predicate's column combination. The two
leading scores are quantized into n coarse groups so that nearly equal
values tie and the next component decides, which is what makes the sort
key a lawful total preorder; the raw margin comparison (compare_tradeoff)
is intransitive in its indifference and is kept for spot comparisons only.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

LESS, EQUAL, GREATER = -1, 0, 1


class ScoringError(Exception):
    pass


@dataclass(frozen=True)
class ScorerConfig:
    b: int = 5  # rank threshold: improvements to rank <= b are undiscounted
    k: int = 20  # ranking size used for score normalization
    window_updates: int = 1000  # improvement pairs older than this are dropped
    groups: int = 4  # number of coarse score groups for tradeoff ties

    def __post_init__(self):
        if not (2 <= self.b <= self.k):
            raise ValueError("b must satisfy 2 <= b <= k")
        if self.window_updates < 1:
            raise ValueError("window_updates must be >= 1")
        if self.groups < 1:
            raise ValueError("groups must be >= 1")


@dataclass(frozen=True, slots=True)
class ImprovementPair:
    seq: int
    from_rank: int
    to_rank: int


@dataclass(slots=True)
class ImprovementChain:
    """Time-ordered rank improvements of one entity in one ranking."""

    query_id: str
    entity: Any
    pairs: list[ImprovementPair]


class ChainStore:
    """Per-(query, entity) improvement chains within the sliding window.

    Chains are kept in the order they were last recorded to. Events arrive
    in stream order, so a chain whose newest pair has left the window holds
    no live state and is dropped from the front.
    """

    def __init__(self):
        self._chains: OrderedDict[tuple, ImprovementChain] = OrderedDict()

    def record(self, event, window_updates: int) -> ImprovementChain:
        """Append the event's pair to its chain, evicting expired pairs and
        chains."""
        horizon = event.seq - window_updates
        chains = self._chains
        while chains and next(iter(chains.values())).pairs[-1].seq <= horizon:
            chains.popitem(last=False)
        key = (event.query_id, event.entity)
        chain = chains.get(key)
        if chain is None:
            chain = chains[key] = ImprovementChain(event.query_id, event.entity, [])
        else:
            chains.move_to_end(key)
        chain.pairs = [p for p in chain.pairs if p.seq > horizon]
        chain.pairs.append(ImprovementPair(event.seq, event.from_rank, event.to_rank))
        return chain


def aggregate_chain(chain: ImprovementChain) -> list[ImprovementPair]:
    """The suffix of the chain that counts as one combined improvement.

    Walking backward from the most recent pair, an earlier pair (p, p')
    stays included only while the later pair starts at a rank at least as
    good as where the earlier one ended (from_rank <= p'); the first
    intermediate worsening breaks the chain, since everything before it
    already had its chance to be reported.
    """
    if not chain.pairs:
        raise ScoringError("aggregate_chain on empty chain")
    pairs = chain.pairs
    start = len(pairs) - 1
    while start > 0 and pairs[start].from_rank <= pairs[start - 1].to_rank:
        start -= 1
    return pairs[start:]


def dynamic_score(pairs: Sequence[ImprovementPair], cfg: ScorerConfig) -> tuple[float, float]:
    """(raw, normalized) jump score of an aggregated chain.

    raw = sum of (r - r') for pairs reaching rank r' <= b, plus
    (r - r') / log_b(r') for deeper pairs. Normalization maps the smallest
    noticeable improvement (K+1 -> K) to 0 and the largest (K+1 -> 1) to 1,
    clamping multi-pair totals that exceed the single-pair bounds.
    """
    if not pairs:
        raise ScoringError("dynamic_score needs at least one pair")
    raw = 0.0
    for p in pairs:
        if p.to_rank < 1 or p.from_rank <= p.to_rank:
            raise ScoringError(f"invalid improvement pair {p.from_rank}->{p.to_rank}")
        jump = p.from_rank - p.to_rank
        if p.to_rank <= cfg.b:
            raw += jump
        else:
            raw += jump / math.log(p.to_rank, cfg.b)
    lo = 1.0 / math.log(cfg.k, cfg.b)
    normalized = (raw - lo) / (cfg.k - lo)
    normalized = min(1.0, max(0.0, normalized))
    return raw, normalized


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


def compare_tradeoff(u: float, v: float, considerably: Callable[[float, float], bool]) -> int:
    """Single-position tradeoff comparison: GREATER/LESS only when the
    ``considerably`` margin predicate says so, EQUAL otherwise."""
    if considerably(u, v):
        return GREATER
    if considerably(v, u):
        return LESS
    return EQUAL


def compare_tradeoff_sequences(
    us: Sequence[float], vs: Sequence[float], considerably: Callable[[float, float], bool]
) -> int:
    """Left-to-right tradeoff comparison; the first non-equal position decides."""
    if len(us) != len(vs):
        raise ScoringError("sequences must have equal length")
    for u, v in zip(us, vs):
        decided = compare_tradeoff(u, v, considerably)
        if decided != EQUAL:
            return decided
    return EQUAL


def quantize(score: float, groups: int) -> int:
    """Coarse group of a [0, 1] score: floor(score * n) capped at n - 1."""
    return min(groups - 1, math.floor(score * groups))


@dataclass(frozen=True, slots=True)
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
    chain = chains.record(event, cfg.window_updates)
    pairs = aggregate_chain(chain)
    raw, norm = dynamic_score(pairs, cfg)
    return ScoredEvent(
        seq=event.seq,
        query_id=event.query_id,
        entity=event.entity,
        from_rank=event.from_rank,
        to_rank=event.to_rank,
        selectivity=query.selectivity,
        dynamic_raw=raw,
        dynamic_norm=norm,
        entropy_bits=query.entropy_bits,
        chain=tuple(pairs),
    )


def rank_events(events: Iterable[ScoredEvent], cfg: ScorerConfig) -> list[ScoredEvent]:
    """Order events by quantized selectivity, then quantized dynamic score,
    then raw entropy; query id, entity, and seq break exact ties."""
    n = cfg.groups

    def key(e: ScoredEvent):
        return (
            -quantize(e.selectivity, n),
            -quantize(e.dynamic_norm, n),
            -e.entropy_bits,
            e.query_id,
            str(e.entity),
            e.seq,
        )

    return sorted(events, key=key)

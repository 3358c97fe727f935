"""Hall of Fame monitoring engine.

Generates top-K ranking queries from an annotated relational schema,
maintains their results under an update stream by applying each update
as a delta to per-family aggregates, and ranks the detected ranking-change events by lexicographic tradeoffs
over selectivity, dynamic score, and entropy.
"""

from .catalog import (
    CatalogError,
    ColumnRef,
    ConfigParseError,
    ConstraintAtom,
    JoinEdge,
    RankingCriterion,
    RelationMeta,
    SchemaCatalog,
    join_path,
    load_catalog,
    serialize_catalog,
)
from .detector import (
    Engine,
    Family,
    RankEvent,
    build_column_index,
    build_families,
    column_filter,
    detect,
    diff_rankings,
)
from .generator import (
    ConstraintCombination,
    GeneratorConfig,
    HofQuery,
    compute_static_scores,
    count_unpruned,
    dump_queries,
    generate_queries,
    get_combinations,
    load_queries,
)
from .scorer import (
    ChainStore,
    ImprovementChain,
    ImprovementPair,
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
from .store import (
    Delta,
    RankingState,
    Store,
    StoreError,
    Table,
    UpdateRecord,
    build_ranking,
    load_table,
    read_update_stream,
    update_from_json,
    update_to_json,
    write_update_stream,
)
from .synth import SynthConfig, synth_stream

__version__ = "0.1.0"

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
)
from .detector import (
    Engine,
    Family,
    RankEvent,
    build_families,
)
from .generator import (
    ConstraintCombination,
    GeneratorConfig,
    HofQuery,
    dump_queries,
    generate_queries,
    get_combinations,
    load_queries,
)
from .reference import Reference
from .scorer import (
    ChainStore,
    ImprovementPair,
    Pipeline,
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
from .store import (
    Delta,
    Store,
    StoreError,
    Table,
    UpdateRecord,
    load_table,
    read_update_stream,
    update_from_json,
    update_to_json,
    write_update_stream,
)
from .synth import SynthConfig, synth_stream

__version__ = "0.1.0"

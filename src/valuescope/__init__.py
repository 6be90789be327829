"""Core-value discourse metrics for social-media corpora.

Tag messages against six core-value orientations, build interaction graphs,
measure connectivity, conversation dynamics and language, then normalize
across orientations and classify each one as Active, Latent or Void with a
strategy hint.
"""

from .config import ConfigError, RunConfig
from .corpus import (
    ORIENTATIONS,
    CorpusError,
    Message,
    MessageTable,
    OrientationLexicon,
    ParseResult,
    Partition,
    Partitioned,
    TokenTable,
    filter_and_partition,
    load_corpus,
    parse_corpus,
    tokenize,
)
from .dynamics import (
    InteractivityScores,
    WindowSeries,
    activity,
    average_activity,
    average_response_time,
    count_extrema,
    interactivity_scores,
    nudges,
    rotating_leadership,
    window_series,
)
from .graph import (
    ConnectivityScores,
    InteractionGraph,
    build_graph,
    connectivity_scores,
    density,
    group_betweenness_centralization,
    group_degree_centralization,
    write_dot,
    write_graphml,
)
from .hierarchy import (
    Attitude,
    Band,
    Classification,
    CLASS_LABELS,
    CONNECTIVITY_METRICS,
    INTERACTIVITY_METRICS,
    METRICS,
    MetricVector,
    STRATEGY_HINTS,
    ValueClass,
    attitude,
    band,
    classify,
    composite,
    min_max_normalize,
    normalize_vectors,
)
from .language import (
    LanguageScores,
    LexiconSentimentScorer,
    PolarLexicon,
    ReferenceDictionary,
    SentimentScorer,
    build_reference,
    emotionality,
    language_scores,
    score_sentiment,
)
from .pipeline import (
    dump_report,
    evaluate_hierarchy,
    replay_metrics,
    round6,
    run_pipeline,
)
from .synth import (
    OrientationPlant,
    SynthSpec,
    demo_spec,
    full_scale_spec,
    generate_corpus,
    oscillation_series,
    star_plan,
    write_corpus,
)

__version__ = "0.1.0"

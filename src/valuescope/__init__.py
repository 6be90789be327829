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
    MessageTable,
    OrientationLexicon,
    ParseResult,
    Partitioned,
    TokenTable,
    filter_and_partition,
    load_corpus,
    parse_corpus,
    tokenize,
)
from .dynamics import (
    WindowSeries,
    activity,
    average_activity,
    count_extrema,
    interactivity_scores,
    rotating_leadership,
    window_series,
)
from .graph import (
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
    CLASSES,
    CONNECTIVITY_METRICS,
    INTERACTIVITY_METRICS,
    LANGUAGE_METRICS,
    METRICS,
    MetricVector,
    ValueClass,
    attitude,
    band,
    classify,
    composite,
    evaluate_hierarchy,
    min_max_normalize,
    normalize_vectors,
    round6,
)
from .language import (
    PolarLexicon,
    ReferenceDictionary,
    build_reference,
    emotionality,
    language_scores,
)
from .pipeline import dump_report, replay_metrics, run_pipeline

__version__ = "0.1.0"

# Only the ``synth`` verb needs the generator, so it is imported on first use.
_SYNTH_NAMES = frozenset({
    "OrientationPlant",
    "SynthSpec",
    "demo_spec",
    "full_scale_spec",
    "generate_corpus",
    "oscillation_series",
    "star_plan",
    "write_corpus",
})


def __getattr__(name: str):
    if name in _SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""End-to-end runs: corpus -> graphs -> metrics -> normalized hierarchy report.

Reports are byte-deterministic for a given corpus and configuration: the
partitions are canonically sorted, orientations appear in their fixed order
and every number is serialized at six significant digits.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Mapping

from .config import ConfigError, RunConfig
from .corpus import (
    ORIENTATIONS,
    OrientationLexicon,
    filter_and_partition,
    load_corpus,
)
from .dynamics import NO_WINDOWS, WindowSeries, interactivity_scores, window_series
from .graph import InteractionGraph, build_graph, connectivity_scores, write_dot, write_graphml
from .hierarchy import (
    Band,
    CONNECTIVITY_METRICS,
    INTERACTIVITY_METRICS,
    LOWER_IS_MORE,
    METRICS,
    MetricVector,
    attitude,
    band,
    classify,
    composite,
    normalize_vectors,
)
from .language import (
    LexiconSentimentScorer,
    PolarLexicon,
    ReferenceDictionary,
    SentimentScorer,
    build_reference,
    language_scores,
)


def round6(value: float) -> float:
    """Round to six significant digits, the report serialization precision."""
    return float(f"{value:.6g}")


def _opt6(value: float | None) -> float | None:
    return None if value is None else round6(value)


def _connectivity_inverted(cfg: RunConfig) -> frozenset[str]:
    if cfg.centralization_positive:
        return frozenset()
    return frozenset({"degree_centralization", "betweenness_centralization"})


def evaluate_hierarchy(
    vectors: Mapping[str, MetricVector], cfg: RunConfig
) -> list[dict]:
    """Normalize, composite, band and classify every orientation.

    Orientations missing an input (empty partitions, too few peers to
    normalize against) carry null composites and no classification instead
    of failing the run.
    """
    normalized = normalize_vectors(vectors)
    entries: list[dict] = []
    for orientation in vectors:
        mm = normalized[orientation]
        conn = composite(
            mm,
            CONNECTIVITY_METRICS,
            cfg.connectivity_weights,
            _connectivity_inverted(cfg),
        )
        inter = composite(
            mm,
            INTERACTIVITY_METRICS,
            cfg.interactivity_weights,
            LOWER_IS_MORE,
        )
        conn_band = (
            band(conn, cfg.connectivity_low, cfg.connectivity_high)
            if conn is not None
            else None
        )
        inter_band = (
            band(inter, cfg.interactivity_low, cfg.interactivity_high)
            if inter is not None
            else None
        )
        sentiment = getattr(vectors[orientation], "sentiment")
        feeling = (
            attitude(sentiment, cfg.attitude_negative_max, cfg.attitude_positive_min)
            if sentiment is not None
            else None
        )
        warnings: list[str] = []
        classification = None
        if conn_band is not None and inter_band is not None and feeling is not None:
            classification = classify(conn_band, inter_band, feeling)
            if inter_band is Band.LOW and conn_band is not Band.LOW:
                warnings.append(
                    "low interactivity forces Void; the "
                    f"{conn_band.value} connectivity band and "
                    f"{feeling.value} attitude are disregarded"
                )
        entries.append(
            {
                "orientation": orientation,
                "metrics": {
                    name: _opt6(value)
                    for name, value in vectors[orientation].as_dict().items()
                },
                "normalized": {
                    name: {
                        "mm": _opt6(mm[name]),
                        "directed": _opt6(
                            1.0 - mm[name]
                            if name in LOWER_IS_MORE and mm[name] is not None
                            else mm[name]
                        ),
                    }
                    for name in METRICS
                },
                "composites": {
                    "connectivity": _opt6(conn),
                    "interactivity": _opt6(inter),
                },
                "bands": {
                    "connectivity": conn_band.value if conn_band else None,
                    "interactivity": inter_band.value if inter_band else None,
                },
                "attitude": feeling.value if feeling else None,
                "classification": classification.value_class.value
                if classification
                else None,
                "label": classification.label if classification else None,
                "strategy_hint": classification.hint if classification else None,
                "warnings": warnings,
            }
        )
    return entries


def _load_lexicons(cfg: RunConfig) -> tuple[OrientationLexicon, PolarLexicon]:
    orientation_lexicon = (
        OrientationLexicon.from_file(cfg.orientation_lexicon)
        if cfg.orientation_lexicon
        else OrientationLexicon.default()
    )
    polar = (
        PolarLexicon.from_file(cfg.sentiment_lexicon)
        if cfg.sentiment_lexicon
        else PolarLexicon.default()
    )
    return orientation_lexicon, polar


def run_pipeline(
    cfg: RunConfig,
    scorer: SentimentScorer | None = None,
    write_outputs: bool = True,
) -> dict:
    """Full analysis of the configured corpus; returns the report dict."""
    cfg.validate()
    if not cfg.corpus:
        raise ConfigError("no corpus path configured")
    lexicon, polar = _load_lexicons(cfg)
    if scorer is None:
        scorer = LexiconSentimentScorer(polar)

    parsed = load_corpus(cfg.corpus)
    partitions, discarded = filter_and_partition(parsed.messages, lexicon)

    reference = None
    if cfg.reference_dictionary:
        reference = ReferenceDictionary.from_file(cfg.reference_dictionary)
    surprisal = build_reference(parsed.messages.tokens, reference)

    vectors: dict[str, MetricVector] = {}
    graphs: dict[str, InteractionGraph] = {}
    windows: dict[str, WindowSeries] = {}
    dangling = 0
    for orientation in ORIENTATIONS:
        partition = partitions[orientation]
        if not partition.rows.size:
            vectors[orientation] = MetricVector()
            windows[orientation] = NO_WINDOWS
            continue
        graph = build_graph(partition.corpus, partition.rows)
        if cfg.export_graphml or cfg.export_dot:
            graphs[orientation] = graph
        dangling += graph.dangling_refs
        series = window_series(graph, cfg.window_hours)
        windows[orientation] = series
        conn = connectivity_scores(graph)
        inter = interactivity_scores(
            graph, series, cfg.gbco_mode, cfg.response_cutoff_hours
        )
        lang = language_scores(partition, scorer, surprisal)
        # The three bundles hold exactly the metric vector's twelve fields.
        vectors[orientation] = MetricVector(**asdict(conn), **asdict(inter), **asdict(lang))

    report = {
        "mode": "run",
        "config": cfg.as_dict(),
        "run": {
            "corpus_size": len(parsed.messages),
            "skipped_records": parsed.skipped,
            "discarded_untagged": discarded,
            "dangling_references": dangling,
            "window_count": max((len(w) for w in windows.values()), default=0),
            "windows_per_orientation": {
                o: len(windows[o]) for o in ORIENTATIONS
            },
        },
        "orientations": evaluate_hierarchy(vectors, cfg),
    }
    if write_outputs:
        _write_outputs(report, cfg, graphs, windows)
    return report


def replay_metrics(
    raw: Mapping[str, Mapping[str, float | None]],
    cfg: RunConfig,
) -> dict:
    """Normalization and classification over externally supplied raw scores."""
    cfg.validate()
    if not all(isinstance(v, Mapping) for v in raw.values()):
        raise ValueError("raw scores must map orientation -> {metric: value}")
    unknown = set(raw) - set(ORIENTATIONS)
    if unknown:
        raise ValueError(f"unknown orientations: {sorted(unknown)}")
    if len(raw) < 2:
        raise ValueError("replay needs raw scores for at least two orientations")
    vectors = {
        orientation: MetricVector.from_dict(raw[orientation])
        for orientation in ORIENTATIONS
        if orientation in raw
    }
    return {
        "mode": "replay",
        "config": cfg.as_dict(),
        "orientations": evaluate_hierarchy(vectors, cfg),
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=True, allow_nan=False) + "\n"


def _write_outputs(
    report: dict,
    cfg: RunConfig,
    graphs: Mapping[str, InteractionGraph],
    windows: Mapping[str, WindowSeries],
) -> None:
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(
        os.path.join(cfg.output_dir, "report.json"), "w", encoding="utf-8"
    ) as handle:
        handle.write(dump_report(report))
    _write_metrics_csv(report, os.path.join(cfg.output_dir, "metrics.csv"))
    if cfg.window_csv:
        for orientation in ORIENTATIONS:
            path = os.path.join(cfg.output_dir, f"windows_{orientation}.csv")
            _write_window_csv(windows[orientation], path)
    if cfg.export_graphml or cfg.export_dot:
        graph_dir = os.path.join(cfg.output_dir, "graphs")
        os.makedirs(graph_dir, exist_ok=True)
        for orientation, graph in graphs.items():
            if cfg.export_graphml:
                write_graphml(
                    graph, orientation, os.path.join(graph_dir, f"{orientation}.graphml")
                )
            if cfg.export_dot:
                write_dot(
                    graph, orientation, os.path.join(graph_dir, f"{orientation}.dot")
                )


def _write_metrics_csv(report: dict, path: str) -> None:
    header = (
        ["orientation"]
        + list(METRICS)
        + [f"mm_{name}" for name in METRICS]
        + [
            "connectivity_composite",
            "interactivity_composite",
            "connectivity_band",
            "interactivity_band",
            "attitude",
            "classification",
            "label",
            "strategy_hint",
        ]
    )

    def cell(value) -> str:
        return "" if value is None else str(value)

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for entry in report["orientations"]:
            row = [entry["orientation"]]
            row += [cell(entry["metrics"][name]) for name in METRICS]
            row += [cell(entry["normalized"][name]["mm"]) for name in METRICS]
            row += [
                cell(entry["composites"]["connectivity"]),
                cell(entry["composites"]["interactivity"]),
                cell(entry["bands"]["connectivity"]),
                cell(entry["bands"]["interactivity"]),
                cell(entry["attitude"]),
                cell(entry["classification"]),
                cell(entry["label"]),
                cell(entry["strategy_hint"]),
            ]
            writer.writerow(row)


def _write_window_csv(series: WindowSeries, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["window_start", "n_nodes", "n_edges", "group_betweenness_centralization"])
        columns = (series.node_counts, series.edge_counts, series.centralization)
        for k, (nodes, edges, central) in enumerate(zip(*(c.tolist() for c in columns))):
            start = datetime.fromtimestamp((series.first + k) * series.width, tz=timezone.utc)
            writer.writerow([start.strftime("%Y-%m-%dT%H:%M:%SZ"), nodes, edges, round6(central)])

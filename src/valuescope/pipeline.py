"""End-to-end runs: corpus -> graphs -> metrics -> normalized hierarchy report.

Reports are byte-deterministic for a given corpus and configuration: the
partitions are canonically sorted, orientations appear in their fixed order
and every number is serialized at six significant digits.
"""

from __future__ import annotations

import csv
import json
import os
from datetime import datetime, timezone
from typing import Mapping

from .config import ConfigError, RunConfig
from .corpus import (
    ORIENTATIONS,
    OrientationLexicon,
    filter_and_partition,
    format_stamp,
    load_corpus,
)
from .dynamics import NO_WINDOWS, WindowSeries, interactivity_scores, window_series
from .graph import (
    InteractionGraph,
    build_graph,
    check_exportable,
    connectivity_scores,
    write_dot,
    write_graphml,
)
from .hierarchy import METRICS, MetricVector, evaluate_hierarchy, round6
from .language import PolarLexicon, ReferenceDictionary, build_reference, language_scores


def run_pipeline(cfg: RunConfig) -> dict:
    """Full analysis of the configured corpus: writes the outputs, returns the report dict."""
    cfg.validate()
    if not cfg.corpus:
        raise ConfigError("no corpus path configured")
    lexicon = (OrientationLexicon.from_file(cfg.orientation_lexicon)
               if cfg.orientation_lexicon else OrientationLexicon.default())
    polar = (PolarLexicon.from_file(cfg.sentiment_lexicon)
             if cfg.sentiment_lexicon else PolarLexicon.default())

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
        rows = partitions[orientation]
        if not rows.size:
            vectors[orientation] = MetricVector()
            windows[orientation] = NO_WINDOWS
            continue
        graph = build_graph(parsed.messages, rows)
        if cfg.export_graphml or cfg.export_dot:
            check_exportable(graph, orientation)  # before any output is written
            graphs[orientation] = graph
        dangling += graph.dangling_refs
        series = window_series(graph, cfg.window_hours)
        windows[orientation] = series
        conn = connectivity_scores(graph)
        inter = interactivity_scores(
            graph, series, cfg.gbco_mode, cfg.response_cutoff_hours
        )
        lang = language_scores(parsed.messages, rows, polar, surprisal)
        vectors[orientation] = MetricVector(**conn, **inter, **lang)

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

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for entry in report["orientations"]:
            writer.writerow(
                [
                    entry["orientation"],
                    *entry["metrics"].values(),
                    *(values["mm"] for values in entry["normalized"].values()),
                    *entry["composites"].values(),
                    *entry["bands"].values(),
                    entry["attitude"],
                    entry["classification"],
                    entry["label"],
                    entry["strategy_hint"],
                ]
            )


def _write_window_csv(series: WindowSeries, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["window_start", "n_nodes", "n_edges", "group_betweenness_centralization"])
        columns = (series.node_counts, series.edge_counts, series.centralization)
        for k, (nodes, edges, central) in enumerate(zip(*(c.tolist() for c in columns))):
            start = datetime.fromtimestamp((series.first + k) * series.width, tz=timezone.utc)
            writer.writerow([format_stamp(start), nodes, edges, round6(central)])

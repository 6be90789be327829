"""Outside-in layer trace of one ``valuescope run``.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/layertrace.py --corpus C.ndjson --out DIR [run flags...]

The script wraps the public layer functions of the ``valuescope`` package in
timing spans, in every module namespace that holds them, and then runs the
real command line entry point in this process.  Nothing under ``src/`` is
edited.  It prints one JSON object: the per-layer metrics (the traced
total among them), the layer functions that no longer exist, the count
probes that failed, and the number of spans.

Each span records its name, start, end and parent in compact arrays, so the
hundreds of thousands of ``tokenize`` spans of a large corpus cost a few
megabytes.  A layer's self time is its spans' durations minus the parts
covered by child spans; time under ``run_pipeline`` that no other span
covers is ``pipeline.self.s``, so the self times add up to the traced total.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import os
import resource
import sys
from array import array
from time import perf_counter

# span name -> (function name, sample peak RSS when it ends under the root)
TARGETS = {
    "pipeline.run_pipeline": ("run_pipeline", True),
    "corpus.load_corpus": ("load_corpus", True),
    "corpus.filter_and_partition": ("filter_and_partition", True),
    "corpus.tokenize": ("tokenize", False),
    "language.build_reference": ("build_reference", True),
    "language.language_scores": ("language_scores", True),
    "graph.build_graph": ("build_graph", True),
    "graph.connectivity_scores": ("connectivity_scores", True),
    "kernels.brandes": ("betweenness_csr", False),
    "dynamics.window_series": ("window_series", True),
    "dynamics.interactivity_scores": ("interactivity_scores", True),
    "hierarchy.evaluate_hierarchy": ("evaluate_hierarchy", True),
    "pipeline.write_outputs": ("_write_outputs", True),
}
MODULES = (
    "valuescope",
    "valuescope.cli",
    "valuescope.pipeline",
    "valuescope.corpus",
    "valuescope.language",
    "valuescope.graph",
    "valuescope._kernels",
    "valuescope.dynamics",
    "valuescope.hierarchy",
)
ROOT = "pipeline.run_pipeline"
# Brandes calls and graph builds are split into whole-orientation and
# per-window work by the nearest of these ancestors.
SPLIT = ("kernels.brandes", "graph.build_graph")
WINDOW_PARENT = "dynamics.window_series"
WHOLE_PARENT = "graph.connectivity_scores"
RENAME = {
    "pipeline.run_pipeline.s": "pipeline.self.s",
    "corpus.filter_and_partition.tagged": "corpus.tagged",
    "dynamics.window_series.windows": "dynamics.windows",
    "graph.build_graph.whole.nodes": "graph.whole.nodes",
    "graph.build_graph.whole.edges": "graph.whole.edges",
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans of one run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.work: dict[int, dict[str, int]] = {}  # span index -> probe counts
        self.rss_after: dict[str, float] = {}
        self.probe_errors: list[str] = []

    def wrap(self, span: str, fn, sample_rss: bool, probe=None):
        name_id = len(self.names)
        self.names.append(span)
        # Locals keep the per-call cost down: tokenize alone is called
        # hundreds of thousands of times.
        stack, starts, ends = self.stack, self.start, self.end
        push_name, push_parent = self.name_of.append, self.parent.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            push_name(name_id)
            push_parent(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if sample_rss and (len(stack) == 1 or self._is_root(stack[-1])):
                self.rss_after[span] = _maxrss_mb()
            if probe is not None:
                try:
                    self.work[index] = probe(args, kwargs, result)
                except Exception as exc:  # a refactor changed the signature
                    self.probe_errors.append(f"{span}: {exc!r}")
            return result

        return traced

    def _is_root(self, index: int) -> bool:
        return self.names[self.name_of[index]] == ROOT

    def ancestor(self, index: int, wanted: tuple[str, ...]) -> str | None:
        index = self.parent[index]
        while index >= 0:
            name = self.names[self.name_of[index]]
            if name in wanted:
                return name
            index = self.parent[index]
        return None


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


# Work counts read from a wrapped call's arguments or result.  ``nm`` is the
# computed bound n * 2m of one Brandes call (CSR holds each edge twice).
PROBES = {
    "corpus.load_corpus": lambda a, k, r: {"msgs": len(r.messages)},
    "corpus.filter_and_partition": lambda a, k, r: {
        "tagged": len(_arg(a, k, 0, "messages")) - r[1]
    },
    "graph.build_graph": lambda a, k, r: {
        "nodes": r.node_count,
        "edges": r.simple_edge_count,
    },
    "kernels.brandes": lambda a, k, r: {
        "nm": int(_arg(a, k, 2, "n")) * len(_arg(a, k, 1, "indices"))
    },
    "dynamics.window_series": lambda a, k, r: {"windows": len(r)},
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every target in every namespace that holds it; return the missing."""
    modules = []
    for name in MODULES:
        try:
            modules.append(importlib.import_module(name))
        except ImportError:
            continue
    missing = []
    for span, (attr, sample_rss) in TARGETS.items():
        original = next(
            (getattr(m, attr) for m in modules if callable(getattr(m, attr, None))),
            None,
        )
        if original is None:
            missing.append(span)
            continue
        wrapper = tracer.wrap(span, original, sample_rss, PROBES.get(span))
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    return missing


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics by name: self seconds, calls, work counts, peak RSS."""
    n = len(tracer.start)
    duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tracer.parent[i] >= 0:
            child[tracer.parent[i]] += duration[i]
    metrics: dict[str, float] = {"pipeline.total.s": 0.0}

    def add(name: str, value: float) -> None:
        name = RENAME.get(name, name)
        metrics[name] = metrics.get(name, 0) + value

    for i in range(n):
        key = tracer.names[tracer.name_of[i]]
        if key == ROOT and tracer.parent[i] < 0:
            metrics["pipeline.total.s"] += duration[i]
        if key in SPLIT:
            where = tracer.ancestor(i, (WINDOW_PARENT, WHOLE_PARENT))
            key += ".window" if where == WINDOW_PARENT else ".whole"
        add(f"{key}.s", duration[i] - child[i])
        add(f"{key}.calls", 1)
        for suffix, value in tracer.work.get(i, {}).items():
            add(f"{key}.{suffix}", value)
    for span, mb in tracer.rss_after.items():
        metrics[f"mem.rss_after.{span}"] = mb
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--out", required=True)
    args, run_flags = parser.parse_known_args(argv)

    from valuescope import cli

    tracer = Tracer()
    missing = install(tracer)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        with contextlib.redirect_stdout(sink):
            code = cli.main(["run", "--corpus", args.corpus, "--out", args.out, *run_flags])
    if code != 0:
        print(f"traced run exited with {code}", file=sys.stderr)
        return code
    result = {
        "metrics": summarize(tracer),
        "missing": missing,
        "probe_errors": tracer.probe_errors,
        "spans": len(tracer.start),
    }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

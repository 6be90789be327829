"""Interaction graphs and connectivity metrics.

``build_graph`` resolves one partition's mentions, replies and retweets
once, into an integer interaction table.  The whole graph, the window
graphs of ``dynamics.window_series``, the contacts of the dynamics metrics,
activity and the exports all read that table.
Metrics run on the simple undirected projection (distinct unordered pairs,
self-pairs dropped).  Betweenness is exact Brandes, never sampled; group
centralization follows Freeman's formulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterator
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from . import _kernels
from .corpus import ABSENT, MessageTable, segments

ARC_KINDS = ("mention", "reply", "retweet")
MENTION, REPLY, RETWEET = range(len(ARC_KINDS))


def _simple_csr(n: int, heads: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the distinct unordered pairs among arcs ``heads[i] -> tails[i]``, self-pairs dropped."""
    pairs = np.unique((np.minimum(heads, tails) * n + np.maximum(heads, tails))[heads != tails])
    both = np.sort(np.concatenate((pairs, pairs % n * n + pairs // n)))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(both // n, minlength=n), out=indptr[1:])
    return indptr, both % n


class SimpleGraph:
    """Sorted node handles and the simple undirected projection, as CSR."""

    def __init__(self, nodes: tuple[str, ...], indptr: np.ndarray, indices: np.ndarray):
        self.nodes = nodes
        self.node_count = len(nodes)
        self._indptr, self._indices = indptr, indices
        self.degrees = np.diff(indptr)
        self.simple_edge_count = len(indices) // 2


class InteractionGraph(SimpleGraph):
    """One partition's interaction table plus its simple projection.

    ``rows`` are the partition's rows of ``corpus``, in ``(created_at, id)``
    order, with ``authors`` (node ids) and ``stamps`` (epoch seconds).
    Arcs are the columns of ``table``, in row order and, within a row,
    mentions, then reply, then retweet; its rows are ``arc_rows``,
    ``arc_targets`` (node ids), ``arc_kinds`` (into ``ARC_KINDS``) and
    ``arc_refs`` (the referenced row, -1 for a mention), rows counted
    within the partition.  Nodes, the sorted handle table, are the authors
    and every mentioned handle.  A reply or retweet resolves only when the
    row it names is in the partition; otherwise it adds no arc and counts
    as dangling.
    """

    def __init__(self, corpus: MessageTable, rows: np.ndarray):
        self.corpus, self.rows = corpus, rows
        count = rows.size
        places, bounds = segments(corpus.mention_bounds, rows)
        authors, mentioned = corpus.authors[rows], corpus.mentions[places]
        handles = np.unique(np.concatenate((authors, mentioned)))
        self.authors = np.searchsorted(handles, authors)
        self.stamps = corpus.seconds[rows]
        # Each row's mentions, then a reply slot and a retweet slot; the
        # slots of unresolved references keep kind -1 and are dropped.
        arcs = np.full((4, mentioned.size + 2 * count), -1, dtype=np.int64)
        owner = np.repeat(np.arange(count), np.diff(bounds))
        at = np.arange(mentioned.size) + 2 * owner
        targets = np.searchsorted(handles, mentioned)
        arcs[0, at], arcs[1, at], arcs[2, at] = owner, targets, MENTION
        # Corpus row -> partition row; ABSENT and UNKNOWN index the two spare -1s.
        position = np.full(len(corpus) + 2, -1, dtype=np.int64)
        position[rows] = np.arange(count)
        self.dangling_refs = 0
        for kind, column in ((REPLY, corpus.reply_to), (RETWEET, corpus.retweet_of)):
            named = column[rows]
            refs = position[named]
            resolved = np.flatnonzero(refs >= 0)
            self.dangling_refs += int(np.count_nonzero(named != ABSENT)) - resolved.size
            refs, targets = refs[resolved], self.authors[refs[resolved]]
            at = bounds[1:][resolved] + 2 * resolved + (kind - REPLY)
            arcs[0, at], arcs[1, at], arcs[2, at], arcs[3, at] = resolved, targets, kind, refs
        self.table = arcs[:, arcs[2] >= 0]
        self.arc_rows, self.arc_targets, self.arc_kinds, self.arc_refs = self.table
        nodes = tuple(map(corpus.handles.__getitem__, handles.tolist()))
        super().__init__(nodes, *_simple_csr(len(nodes), self.authors[self.arc_rows], self.arc_targets))

    def iter_arcs(self) -> Iterator[tuple[str, str, str, datetime]]:
        """``(source, target, kind, created_at)`` per arc, in table order."""
        nodes, authors, rows = self.nodes, self.authors.tolist(), self.rows.tolist()
        for row, target, kind in self.table[:3].T.tolist():
            yield (
                nodes[authors[row]],
                nodes[target],
                ARC_KINDS[kind],
                self.corpus.created_at(rows[row]),
            )


build_graph = InteractionGraph  # build_graph(table, rows), rows in table.order()


def density(graph: SimpleGraph) -> float:
    n = graph.node_count
    if n < 2:
        return 0.0
    return 2.0 * graph.simple_edge_count / (n * (n - 1))


def betweenness_array(graph: SimpleGraph) -> np.ndarray:
    """Exact betweenness in node order, unordered pairs counted once."""
    return _kernels.betweenness_csr(graph._indptr, graph._indices, graph.node_count) / 2.0


def group_degree_centralization(graph: SimpleGraph) -> float:
    """Freeman degree centralization of the simple projection."""
    n = graph.node_count
    if n < 3:
        return 0.0
    dmax = int(graph.degrees.max())
    spread = float(np.sum(dmax - graph.degrees))
    return spread / ((n - 1) * (n - 2))


def centralization(scores: np.ndarray) -> float:
    """Freeman centralization of one graph's betweenness scores, in node order.

    Scores are normalized by (n-1)(n-2)/2 before the spread is taken, which
    pins a star at exactly 1.0.
    """
    n = scores.size
    if n < 3:
        return 0.0
    values = scores / ((n - 1) * (n - 2) / 2.0)
    return float(np.sum(values.max() - values)) / (n - 1)


def group_betweenness_centralization(graph: SimpleGraph) -> float:
    """Freeman betweenness centralization of the simple projection."""
    return centralization(betweenness_array(graph))


@dataclass(frozen=True, slots=True)
class ConnectivityScores:
    density: float
    degree_centralization: float
    betweenness_centralization: float


def connectivity_scores(graph: SimpleGraph) -> ConnectivityScores:
    return ConnectivityScores(
        density=density(graph),
        degree_centralization=group_degree_centralization(graph),
        betweenness_centralization=group_betweenness_centralization(graph),
    )


def _format_ts(stamp: datetime) -> str:
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))


def write_graphml(graph: InteractionGraph, orientation: str, path: str) -> None:
    """Serialize the arc multigraph as GraphML (directed edges)."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="d0" for="node" attr.name="orientation" attr.type="string"/>',
        '  <key id="d1" for="node" attr.name="degree" attr.type="int"/>',
        '  <key id="d2" for="edge" attr.name="kind" attr.type="string"/>',
        '  <key id="d3" for="edge" attr.name="timestamp" attr.type="string"/>',
        '  <graph id="G" edgedefault="directed">',
    ]
    orient = escape(orientation)
    for i, handle in enumerate(graph.nodes):
        lines.append(
            f"    <node id={quoteattr(handle)}>"
            f'<data key="d0">{orient}</data>'
            f'<data key="d1">{int(graph.degrees[i])}</data></node>'
        )
    for source, target, kind, stamp in graph.iter_arcs():
        lines.append(
            f"    <edge source={quoteattr(source)} target={quoteattr(target)}>"
            f'<data key="d2">{kind}</data>'
            f'<data key="d3">{_format_ts(stamp)}</data></edge>'
        )
    _write_lines(path, [*lines, "  </graph>", "</graphml>"])


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(graph: InteractionGraph, orientation: str, path: str) -> None:
    """Serialize the arc multigraph in DOT format."""
    lines = [f"digraph {_dot_quote(orientation)} {{"]
    for i, handle in enumerate(graph.nodes):
        lines.append(
            f"  {_dot_quote(handle)} [orientation={_dot_quote(orientation)}, "
            f"degree={int(graph.degrees[i])}];"
        )
    for source, target, kind, stamp in graph.iter_arcs():
        lines.append(
            f"  {_dot_quote(source)} -> {_dot_quote(target)} "
            f"[kind={_dot_quote(kind)}, timestamp={_dot_quote(_format_ts(stamp))}];"
        )
    _write_lines(path, [*lines, "}"])

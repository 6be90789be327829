"""Interaction graphs and connectivity metrics.

``build_graph`` resolves one partition's mentions, replies and retweets
once, into an integer interaction table.  The whole graph, its window
graphs, the contact streams, activity and the exports all read that table.
Metrics run on the simple undirected projection (distinct unordered pairs,
self-pairs dropped).  Betweenness is exact Brandes, never sampled; group
centralization follows Freeman's formulation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from typing import Iterable, Iterator
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from . import _kernels
from .corpus import Message

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

    ``messages`` are rows in ``(created_at, id)`` order, with ``authors``
    (node ids) and ``stamps`` (epoch seconds).  Arcs are the columns of
    ``table``, in row order and, within a row, mentions, then reply, then
    retweet; its rows are ``arc_rows``, ``arc_targets`` (node ids),
    ``arc_kinds`` (into ``ARC_KINDS``) and ``arc_refs`` (the referenced
    row, -1 for a mention).  Nodes, the sorted handle table, are the
    authors and every mentioned handle.  Reply and retweet ids resolve
    against these messages only (ids are unique); an unresolved id adds no
    arc and counts as dangling.
    """

    def __init__(self, messages: Iterable[Message]):
        self.messages = ordered = sorted(messages, key=lambda m: (m.created_at, m.id))
        nodes = tuple(sorted({m.author for m in ordered}.union(*(m.mentions for m in ordered))))
        index = {handle: i for i, handle in enumerate(nodes)}
        row_of = {m.id: row for row, m in enumerate(ordered)}
        authors = array("q", [index[m.author] for m in ordered])
        arcs = array("q")  # (row, target, kind, ref) per arc, flat
        self.dangling_refs = 0
        for row, m in enumerate(ordered):
            for handle in m.mentions:
                arcs.extend((row, index[handle], MENTION, -1))
            for ref, kind in ((m.reply_to, REPLY), (m.retweet_of, RETWEET)):
                if ref is None:
                    continue
                ref_row = row_of.get(ref)
                if ref_row is None:
                    self.dangling_refs += 1
                else:
                    arcs.extend((row, authors[ref_row], kind, ref_row))
        self.authors = np.frombuffer(authors, dtype=np.int64)
        self.stamps = np.fromiter((m.created_at.timestamp() for m in ordered), np.float64, len(ordered))
        self.table = np.frombuffer(arcs, dtype=np.int64).reshape(-1, 4).T.copy()
        self.arc_rows, self.arc_targets, self.arc_kinds, self.arc_refs = self.table
        super().__init__(nodes, *_simple_csr(len(nodes), self.authors[self.arc_rows], self.arc_targets))

    def windows(self, labels: np.ndarray, count: int) -> tuple[SimpleGraph, list[int]]:
        """One block-diagonal graph of all windows, rows labelled ``0..count-1``, and bounds.

        Window k is nodes ``bounds[k]:bounds[k+1]``.  It holds its rows' authors
        and arcs; a reply or retweet of a row in another window adds nothing.
        """
        n, refs = self.node_count, self.arc_refs
        arc_labels = labels[self.arc_rows]
        inside = (refs < 0) | (labels[refs] == arc_labels)
        heads = arc_labels[inside] * n + self.authors[self.arc_rows[inside]]
        tails = arc_labels[inside] * n + self.arc_targets[inside]
        # Every window's nodes as (label, node id) keys, in label then id order.
        keys = np.unique(np.concatenate((labels * n + self.authors, tails)))
        block = SimpleGraph(
            tuple(self.nodes[i] for i in (keys % n).tolist()),
            *_simple_csr(keys.size, np.searchsorted(keys, heads), np.searchsorted(keys, tails)),
        )
        return block, np.searchsorted(keys, np.arange(count + 1) * n).tolist()

    @cached_property
    def contact_streams(self) -> dict[tuple[int, int], list[float]]:
        """Chronological contact stamps per ordered ``(sender, target)`` node-id pair.

        A contact is a mention or a reply (resolved over all rows) of another
        actor, counted once per message and target.
        """
        n = self.node_count
        heads = self.authors[self.arc_rows]
        contact = (self.arc_kinds != RETWEET) & (heads != self.arc_targets)
        rows, heads, tails = self.arc_rows[contact], heads[contact], self.arc_targets[contact]
        # One contact per (row, target).  unique orders them by row, and the
        # stable sort by pair keeps each pair's contacts in row order.
        _, once = np.unique(rows * n + tails, return_index=True)
        pairs = (heads * n + tails)[once]
        order = np.argsort(pairs, kind="stable")
        pairs, stamps = pairs[order], self.stamps[rows[once][order]].tolist()
        starts = np.flatnonzero(np.diff(pairs, prepend=-1)).tolist()
        return {
            divmod(pair, n): stamps[lo:hi]
            for pair, lo, hi in zip(pairs[starts].tolist(), starts, [*starts[1:], len(stamps)])
        }

    def iter_arcs(self) -> Iterator[tuple[str, str, str, datetime]]:
        """``(source, target, kind, created_at)`` per arc, in table order."""
        for row, target, kind in self.table[:3].T.tolist():
            message = self.messages[row]
            yield message.author, self.nodes[target], ARC_KINDS[kind], message.created_at


build_graph = InteractionGraph  # build_graph(messages), in any order


def density(graph: SimpleGraph) -> float:
    n = graph.node_count
    if n < 2:
        return 0.0
    return 2.0 * graph.simple_edge_count / (n * (n - 1))


def betweenness_array(graph: SimpleGraph) -> np.ndarray:
    """Exact betweenness in node order, unordered pairs counted once."""
    return _kernels.betweenness_csr(graph._indptr, graph._indices, graph.node_count) / 2.0


def betweenness(graph: SimpleGraph) -> dict[str, float]:
    """``betweenness_array`` keyed by node handle."""
    return dict(zip(graph.nodes, betweenness_array(graph).tolist()))


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

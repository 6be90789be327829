"""Interaction graphs and connectivity metrics.

Arcs are directed interaction events (mention, reply, retweet) with
timestamps; metrics run on the simple undirected projection (distinct
unordered pairs, self-pairs dropped).  Betweenness is exact Brandes, never
sampled; group centralization follows Freeman's formulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterable
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from . import _kernels
from .corpus import Message

ARC_KINDS = ("mention", "reply", "retweet")


@dataclass(frozen=True, slots=True)
class Arc:
    source: str
    target: str
    timestamp: datetime
    kind: str


class InteractionGraph:
    """Directed multigraph of interaction events plus its simple projection."""

    def __init__(self, nodes: tuple[str, ...], arcs: list[Arc], dangling_refs: int):
        self.nodes = nodes
        self.index = {handle: i for i, handle in enumerate(nodes)}
        self.arcs = arcs
        self.dangling_refs = dangling_refs

        n = len(nodes)
        pairs: set[tuple[int, int]] = set()
        for arc in arcs:
            i = self.index[arc.source]
            j = self.index[arc.target]
            if i == j:
                continue  # self-arcs stay in the arc list only
            pairs.add((i, j) if i < j else (j, i))
        self.simple_edge_count = len(pairs)
        if pairs:
            edges = np.array(sorted(pairs), dtype=np.int64)
            u = np.concatenate([edges[:, 0], edges[:, 1]])
            v = np.concatenate([edges[:, 1], edges[:, 0]])
            order = np.lexsort((v, u))
            u, v = u[order], v[order]
            counts = np.bincount(u, minlength=n)
            self._indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=self._indptr[1:])
            self._indices = v
        else:
            self._indptr = np.zeros(n + 1, dtype=np.int64)
            self._indices = np.zeros(0, dtype=np.int64)
        self.degrees = np.diff(self._indptr)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def neighbors(self, node: str) -> list[str]:
        i = self.index[node]
        return [self.nodes[j] for j in self._indices[self._indptr[i] : self._indptr[i + 1]]]


def build_graph(messages: Iterable[Message]) -> InteractionGraph:
    """Build the interaction graph for one partition.

    Nodes are message authors plus every mentioned handle and every resolved
    reply/retweet target author, so actors who never posted still appear.
    Reply and retweet ids are resolved against the given message set only;
    unresolved ids produce no arc and are counted as dangling references.
    """
    msgs = list(messages)
    author_of = {m.id: m.author for m in msgs}
    nodes: set[str] = set()
    arcs: list[Arc] = []
    dangling = 0
    for m in msgs:
        nodes.add(m.author)
        for handle in m.mentions:
            nodes.add(handle)
            arcs.append(Arc(m.author, handle, m.created_at, "mention"))
        for ref, kind in ((m.reply_to, "reply"), (m.retweet_of, "retweet")):
            if ref is None:
                continue
            target = author_of.get(ref)
            if target is None:
                dangling += 1
                continue
            nodes.add(target)
            arcs.append(Arc(m.author, target, m.created_at, kind))
    return InteractionGraph(tuple(sorted(nodes)), arcs, dangling)


def density(graph: InteractionGraph) -> float:
    n = graph.node_count
    if n < 2:
        return 0.0
    return 2.0 * graph.simple_edge_count / (n * (n - 1))


def betweenness(graph: InteractionGraph) -> dict[str, float]:
    """Exact betweenness per node, unordered pairs counted once."""
    raw = _kernels.betweenness_csr(graph._indptr, graph._indices, graph.node_count)
    return {handle: float(raw[i]) / 2.0 for i, handle in enumerate(graph.nodes)}


def group_degree_centralization(graph: InteractionGraph) -> float:
    """Freeman degree centralization of the simple projection."""
    n = graph.node_count
    if n < 3:
        return 0.0
    dmax = int(graph.degrees.max())
    spread = float(np.sum(dmax - graph.degrees))
    return spread / ((n - 1) * (n - 2))


def group_betweenness_centralization(
    graph: InteractionGraph, scores: dict[str, float] | None = None
) -> float:
    """Freeman betweenness centralization of the simple projection.

    Node scores are normalized by (n-1)(n-2)/2 before the spread is taken,
    which pins a star at exactly 1.0.
    """
    n = graph.node_count
    if n < 3:
        return 0.0
    if scores is None:
        scores = betweenness(graph)
    values = np.array([scores[h] for h in graph.nodes], dtype=np.float64)
    values /= (n - 1) * (n - 2) / 2.0
    spread = float(np.sum(values.max() - values))
    return spread / (n - 1)


@dataclass(frozen=True, slots=True)
class ConnectivityScores:
    density: float
    degree_centralization: float
    betweenness_centralization: float
    node_count: int
    simple_edge_count: int


def connectivity_scores(graph: InteractionGraph) -> ConnectivityScores:
    return ConnectivityScores(
        density=density(graph),
        degree_centralization=group_degree_centralization(graph),
        betweenness_centralization=group_betweenness_centralization(graph),
        node_count=graph.node_count,
        simple_edge_count=graph.simple_edge_count,
    )


def _format_ts(stamp: datetime) -> str:
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


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
    for arc in graph.arcs:
        lines.append(
            f"    <edge source={quoteattr(arc.source)} target={quoteattr(arc.target)}>"
            f'<data key="d2">{arc.kind}</data>'
            f'<data key="d3">{_format_ts(arc.timestamp)}</data></edge>'
        )
    lines.extend(["  </graph>", "</graphml>", ""])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


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
    for arc in graph.arcs:
        lines.append(
            f"  {_dot_quote(arc.source)} -> {_dot_quote(arc.target)} "
            f"[kind={_dot_quote(arc.kind)}, timestamp={_dot_quote(_format_ts(arc.timestamp))}];"
        )
    lines.extend(["}", ""])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))

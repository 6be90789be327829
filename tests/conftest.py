"""Shared builders for the test suite.

Most tests construct tiny corpora by hand.  The helpers here keep those
constructions short and make the timestamps explicit: everything is an
offset in hours from a fixed UTC base instant.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from fractions import Fraction

from valuescope import InteractionGraph, Message, TaggedMessage, build_graph, tokenize

BASE = datetime(2021, 3, 1, tzinfo=timezone.utc)


def msg(
    ident: str,
    author: str,
    hours: float = 0.0,
    text: str = "",
    mentions: tuple[str, ...] = (),
    reply_to: str | None = None,
    retweet_of: str | None = None,
) -> Message:
    return Message(
        id=ident,
        author=author,
        created_at=BASE + timedelta(hours=hours),
        text=text,
        reply_to=reply_to,
        retweet_of=retweet_of,
        mentions=mentions,
    )


def carrying_tokens(messages) -> list[TaggedMessage]:
    """Messages as partitions hold them: each with its own tokens."""
    return [TaggedMessage(m, frozenset(), tuple(tokenize(m.text))) for m in messages]


def graph_from_edges(edges, extra_nodes=()) -> InteractionGraph:
    """Build an interaction graph whose simple projection is exactly `edges`.

    Each undirected edge (u, v) becomes one mention message u -> v.  Extra
    nodes are added as authors of messages with no references, which keeps
    them isolated.
    """
    messages = []
    for i, (u, v) in enumerate(edges):
        messages.append(msg(f"e{i:04d}", u, hours=float(i), mentions=(v,)))
    for j, node in enumerate(extra_nodes):
        messages.append(msg(f"x{j:04d}", node, hours=1000.0 + j))
    graph = build_graph(messages)
    assert graph.dangling_refs == 0
    return graph


def indexed_nodes(n: int) -> list[str]:
    """Zero padded handles so lexicographic order matches index order."""
    return [f"n{i:03d}" for i in range(n)]


def random_edge_set(rng, n: int, p: float) -> list[tuple[str, str]]:
    nodes = indexed_nodes(n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((nodes[i], nodes[j]))
    return edges


def betweenness_exact(graph: InteractionGraph) -> dict[str, Fraction]:
    """Brandes with rational arithmetic.

    Same algorithm as the float kernel but every dependency is a Fraction,
    so results can be compared against path enumeration with no rounding.
    Meant for small graphs; cost grows fast with size.
    """
    n = graph.node_count
    adjacency = [
        [int(j) for j in graph._indices[graph._indptr[i] : graph._indptr[i + 1]]]
        for i in range(n)
    ]
    bc = [Fraction(0)] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        dist[s] = 0
        sigma[s] = 1
        order = [s]
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    order.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
        delta = [Fraction(0)] * n
        for w in reversed(order[1:]):
            coeff = (1 + delta[w]) / Fraction(sigma[w])
            for v in adjacency[w]:
                if dist[v] == dist[w] - 1:
                    delta[v] += sigma[v] * coeff
            bc[w] += delta[w]
    return {handle: bc[i] / 2 for i, handle in enumerate(graph.nodes)}

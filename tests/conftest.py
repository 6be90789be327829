"""Shared builders for the test suite.

Most tests construct tiny corpora by hand.  The helpers here keep those
constructions short and make the timestamps explicit: everything is an
offset in hours from a fixed UTC base instant.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import numpy as np

from valuescope import (
    ORIENTATIONS,
    InteractionGraph,
    LanguageScores,
    LexiconSentimentScorer,
    Message,
    OrientationLexicon,
    Partition,
    WindowStat,
    betweenness,
    build_graph,
    group_betweenness_centralization,
    token_table,
    tokenize,
)
from valuescope._kernels import _component_labels
from valuescope.graph import SimpleGraph

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


def carrying_tokens(messages) -> Partition:
    """The messages, in the given order, as a partition over their own token table."""
    messages = list(messages)
    return Partition(messages, np.arange(len(messages)), token_table(messages))


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


# ----------------------------------------------------------------- oracles
#
# The Message-walking computations that the interaction table replaced.
# Each resolves references on its own, straight from the messages, so the
# table-based code can be checked against them for exact equality.


@dataclass
class OracleGraph:
    nodes: tuple[str, ...]
    arcs: list[tuple[str, str, str, datetime]]  # (source, target, kind, created_at)
    dangling_refs: int
    simple: SimpleGraph


def oracle_build_graph(messages) -> OracleGraph:
    """Arcs in the given message order; CSR built from Python sets."""
    msgs = list(messages)
    author_of = {m.id: m.author for m in msgs}
    nodes: set[str] = set()
    arcs = []
    dangling = 0
    for m in msgs:
        nodes.add(m.author)
        for handle in m.mentions:
            nodes.add(handle)
            arcs.append((m.author, handle, "mention", m.created_at))
        for ref, kind in ((m.reply_to, "reply"), (m.retweet_of, "retweet")):
            if ref is None:
                continue
            target = author_of.get(ref)
            if target is None:
                dangling += 1
                continue
            nodes.add(target)
            arcs.append((m.author, target, kind, m.created_at))
    ordered = tuple(sorted(nodes))
    index = {handle: i for i, handle in enumerate(ordered)}
    adjacency: list[set[int]] = [set() for _ in ordered]
    for source, target, _, _ in arcs:
        i, j = index[source], index[target]
        if i != j:
            adjacency[i].add(j)
            adjacency[j].add(i)
    indptr, indices = [0], []
    for neighbours in adjacency:
        indices.extend(sorted(neighbours))
        indptr.append(len(indices))
    simple = SimpleGraph(
        ordered, np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64)
    )
    return OracleGraph(ordered, arcs, dangling, simple)


def oracle_window_series(messages, window_hours: float) -> list[WindowStat]:
    """Bucket the messages, sort each bucket and build each window alone."""
    if not messages:
        return []
    width = window_hours * 3600.0
    stamps = [m.created_at.timestamp() for m in messages]
    first = int(min(stamps) // width)
    last = int(max(stamps) // width)
    buckets: dict[int, list[Message]] = {}
    for m, stamp in zip(messages, stamps):
        buckets.setdefault(int(stamp // width), []).append(m)
    series = []
    for idx in range(first, last + 1):
        inside = sorted(buckets.get(idx, ()), key=lambda m: (m.created_at, m.id))
        graph = oracle_build_graph(inside).simple
        series.append(
            WindowStat(
                start=datetime.fromtimestamp(idx * width, tz=timezone.utc),
                node_count=graph.node_count,
                edge_count=graph.simple_edge_count,
                betweenness=betweenness(graph),
                centralization=group_betweenness_centralization(graph),
            )
        )
    return series


def oracle_contact_streams(messages) -> dict[tuple[str, str], list[float]]:
    """Chronological contact timestamps per ordered handle pair."""
    ordered = sorted(messages, key=lambda m: (m.created_at, m.id))
    author_of = {m.id: m.author for m in ordered}
    streams: dict[tuple[str, str], list[float]] = {}
    for m in ordered:
        targets: list[str] = []
        for handle in m.mentions:
            if handle != m.author and handle not in targets:
                targets.append(handle)
        if m.reply_to is not None:
            target = author_of.get(m.reply_to)
            if target is not None and target != m.author and target not in targets:
                targets.append(target)
        stamp = m.created_at.timestamp()
        for target in targets:
            streams.setdefault((m.author, target), []).append(stamp)
    return streams


def oracle_activity(messages) -> int:
    total = 0
    for m in messages:
        total += 1 + len(m.mentions)
        total += m.reply_to is not None
        total += m.retweet_of is not None
    return total


def oracle_betweenness_csr(indptr, indices, n: int) -> np.ndarray:
    """The component loop that the rounds in ``betweenness_csr`` replaced.

    Each component of 3 or more nodes is copied into its own renumbered
    sub-CSR and searched from its non-leaf sources one by one, each weighted
    by ``1 + k_u``; ``k_u * (|C| - 2)`` is added afterwards.  Same reductions,
    same summation order, so the rounds must match it bit for bit.
    """
    bc = np.zeros(n, dtype=np.float64)
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    degree = np.diff(indptr)
    if not (degree > 1).any():
        return bc
    heads = np.repeat(np.arange(n, dtype=np.int64), degree)
    label = _component_labels(heads, indices, n)
    leaves = np.bincount(heads[degree[indices] == 1], minlength=n)
    kept = np.flatnonzero(np.bincount(label, minlength=n)[label] > 2)
    perm = kept[np.argsort(label[kept], kind="stable")]
    position = np.empty(n, dtype=np.int64)
    position[perm] = np.arange(perm.size)
    kept_degree = degree[perm]
    sub_indptr = np.zeros(perm.size + 1, dtype=np.int64)
    np.cumsum(kept_degree, out=sub_indptr[1:])
    edge = np.repeat(indptr[perm] - sub_indptr[:-1], kept_degree)
    sub_indices = position[indices[edge + np.arange(sub_indptr[-1])]]
    bounds = [0, *(np.flatnonzero(np.diff(label[perm])) + 1).tolist(), perm.size]
    for lo, hi in zip(bounds, bounds[1:]):
        size = hi - lo
        sources = np.flatnonzero(kept_degree[lo:hi] > 1)
        folded = leaves[perm[lo:hi][sources]].astype(np.float64)
        scores = _oracle_brandes(
            sub_indptr[lo : hi + 1] - sub_indptr[lo],
            sub_indices[sub_indptr[lo] : sub_indptr[hi]] - lo,
            size,
            sources,
            1.0 + folded,
        )
        scores[sources] += folded * (size - 2)
        bc[perm[lo:hi]] = scores
    return bc


def _oracle_brandes(indptr, indices, n, sources, weights) -> np.ndarray:
    """Level-synchronous Brandes from each source in turn, weighted."""
    bc = np.zeros(n, dtype=np.float64)
    heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    tails = indices
    for s, weight in zip(sources.tolist(), weights.tolist()):
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)
        dist[s] = 0
        sigma[s] = 1.0
        steps = []
        level = 0
        while True:
            on_level = dist[heads] == level
            step_heads = heads[on_level]
            if not step_heads.size:
                break
            step_tails = tails[on_level]
            dist[step_tails[dist[step_tails] < 0]] = level + 1
            forward = dist[step_tails] == level + 1
            up, down = step_heads[forward], step_tails[forward]
            sigma += np.bincount(down, weights=sigma[up], minlength=n)
            steps.append((up, down))
            level += 1
        delta = np.zeros(n, dtype=np.float64)
        for up, down in reversed(steps[1:]):
            delta += np.bincount(
                up, weights=sigma[up] / sigma[down] * (1.0 + delta[down]), minlength=n
            )
        bc += weight * delta
    return bc


# ------------------------------------------------------------- text oracles
#
# The per-message text layer that the corpus token table replaced: every
# message carries its own token tuple, the lexicon is matched by a
# first-token index, partitions are sorted one by one and the language
# scores walk those tuples.  Means add left to right, as the builtin ``sum``
# did before Python 3.12, so the comparison holds on every version.


def _left_to_right_sum(values) -> float:
    return functools.reduce(operator.add, values, 0)


def oracle_match(lexicon: OrientationLexicon, tokens) -> frozenset[str]:
    """Orientations whose phrases occur as contiguous subsequences of ``tokens``."""
    by_first_token: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for orientation, phrases in lexicon.phrases.items():
        for phrase in phrases:
            by_first_token.setdefault(phrase[0], []).append((orientation, phrase))
    found: set[str] = set()
    for start, token in enumerate(tokens):
        for orientation, phrase in by_first_token.get(token, ()):
            if tuple(tokens[start : start + len(phrase)]) == phrase:
                found.add(orientation)
    return frozenset(found)


@dataclass(frozen=True)
class OracleTagged:
    message: Message
    tokens: tuple[str, ...]


def oracle_filter_and_partition(messages, lexicon: OrientationLexicon):
    """(partitions of OracleTagged, discarded, Counter of every token)."""
    partitions: dict[str, list[OracleTagged]] = {o: [] for o in ORIENTATIONS}
    counts: Counter[str] = Counter()
    discarded = 0
    for message in messages:
        tokens = tuple(tokenize(message.text))
        counts.update(tokens)
        tags = oracle_match(lexicon, tokens)
        if not tags:
            discarded += 1
        for orientation in tags:
            partitions[orientation].append(OracleTagged(message, tokens))
    for bucket in partitions.values():
        bucket.sort(key=lambda t: (t.message.created_at, t.message.id))
    return partitions, discarded, counts


def oracle_language_scores(tagged, scorer, reference) -> LanguageScores:
    if not tagged:
        return LanguageScores(None, None, None)
    if type(scorer) is LexiconSentimentScorer:
        lexicon = scorer.lexicon
        sentiments = []
        for t in tagged:
            p = sum(token in lexicon.positive for token in t.tokens)
            q = sum(
                token in lexicon.negative and token not in lexicon.positive
                for token in t.tokens
            )
            sentiments.append(0.5 if p + q == 0 else 0.5 + (p - q) / (2.0 * (p + q)))
    else:
        sentiments = [scorer(t.message.text) for t in tagged]
    tokens = [token for t in tagged for token in t.tokens]
    return LanguageScores(
        sentiment=_left_to_right_sum(sentiments) / len(sentiments),
        emotionality=_left_to_right_sum(abs(s - 0.5) for s in sentiments)
        / len(sentiments),
        complexity=_left_to_right_sum(
            -math.log(reference.probabilities.get(token, reference.unseen))
            for token in tokens
        )
        / len(tokens)
        if reference is not None and tokens
        else None,
    )

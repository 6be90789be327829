"""Shared builders for the test suite.

Most tests construct tiny corpora by hand.  The helpers here keep those
constructions short and make the timestamps explicit: everything is an
offset in hours from a fixed UTC base instant.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import numpy as np
import pytest

from valuescope import (
    ORIENTATIONS,
    CorpusError,
    InteractionGraph,
    Message,
    MessageTable,
    MetricVector,
    OrientationLexicon,
    PolarLexicon,
    ReferenceDictionary,
    RunConfig,
    WindowSeries,
    build_graph,
    evaluate_hierarchy,
    interactivity_scores,
    language_scores,
    round6,
    tokenize,
)
from valuescope import corpus as corpus_module
from valuescope._kernels import betweenness_csr
from valuescope.corpus import ABSENT, UNKNOWN
from valuescope.dynamics import NO_WINDOWS
from valuescope.graph import betweenness_array, centralization

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


def graph_of(messages) -> InteractionGraph:
    """The interaction graph of ``messages`` (Message objects in any order, or a table)."""
    if not isinstance(messages, MessageTable):
        messages = MessageTable.from_messages(messages)
    return build_graph(messages, messages.order())


def carrying_tokens(messages) -> tuple[MessageTable, np.ndarray]:
    """The messages' table and every row of it, in the given order: one partition."""
    table = MessageTable.from_messages(messages)
    return table, np.arange(len(table))


def scored_sentiment(text: str, scorer) -> float:
    """The sentiment ``language_scores`` gives ``text`` as a one-message partition."""
    return language_scores(*carrying_tokens([msg("m", "a", text=text)]), scorer, None)["sentiment"]


def partition_ids(table: MessageTable, rows: np.ndarray) -> list[str]:
    """The ids of a partition's messages, in partition order."""
    return [table.ids[row] for row in rows.tolist()]


def betweenness(graph: InteractionGraph) -> dict[str, float]:
    """``betweenness_array`` keyed by node handle."""
    return dict(zip(graph.nodes, betweenness_array(graph).tolist()))


def art_hours(graph: InteractionGraph, cutoff_hours: float | None = None) -> float | None:
    """The average response time ``interactivity_scores`` gives ``graph``."""
    return interactivity_scores(graph, NO_WINDOWS, cutoff_hours=cutoff_hours)["art_hours"]


def nudges(graph: InteractionGraph, cutoff_hours: float | None = None) -> float | None:
    """The nudges ``interactivity_scores`` gives ``graph``."""
    return interactivity_scores(graph, NO_WINDOWS, cutoff_hours=cutoff_hours)["nudges"]


def split_into_ranges(patch: pytest.MonkeyPatch, path, ranges: int) -> None:
    """Make ``load_corpus(path)`` see ``ranges`` CPUs and cut ranges as small as it takes."""
    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(ranges)), raising=False)
    patch.setattr(corpus_module, "_MIN_RANGE_BYTES", max(1, os.path.getsize(path) // ranges))


def reference_from_tokens(tokens) -> ReferenceDictionary:
    """Reference dictionary from a token stream."""
    return ReferenceDictionary.from_counts(Counter(tokens))


def complexity(tokens, reference: ReferenceDictionary) -> float | None:
    """Mean surprisal (nats) of ``tokens`` under ``reference``, added left to right."""
    if not tokens:
        return None
    surprisals = [
        -math.log(reference.probabilities.get(token, reference.unseen)) for token in tokens
    ]
    return functools.reduce(operator.add, surprisals, 0) / len(surprisals)


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
    graph = graph_of(messages)
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
    indptr: np.ndarray  # the simple projection as CSR
    indices: np.ndarray
    authors: np.ndarray  # each message's author, as a node id
    stamps: np.ndarray  # each message's timestamp()
    table: np.ndarray  # (message, target node, kind, referenced message or -1) per arc


_KINDS = ("mention", "reply", "retweet")


def oracle_build_graph(messages) -> OracleGraph:
    """Arcs in the given message order; CSR built from Python sets."""
    msgs = list(messages)
    row_of = {m.id: row for row, m in enumerate(msgs)}
    nodes: set[str] = set()
    arcs = []
    places = []  # (message, referenced message or -1) per arc
    dangling = 0
    for row, m in enumerate(msgs):
        nodes.add(m.author)
        for handle in m.mentions:
            nodes.add(handle)
            arcs.append((m.author, handle, "mention", m.created_at))
            places.append((row, -1))
        for ref, kind in ((m.reply_to, "reply"), (m.retweet_of, "retweet")):
            if ref is None:
                continue
            if ref not in row_of:
                dangling += 1
                continue
            target = msgs[row_of[ref]].author
            nodes.add(target)
            arcs.append((m.author, target, kind, m.created_at))
            places.append((row, row_of[ref]))
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
    table = np.array(
        [
            [row for row, _ in places],
            [index[target] for _, target, _, _ in arcs],
            [_KINDS.index(kind) for _, _, kind, _ in arcs],
            [ref for _, ref in places],
        ],
        dtype=np.int64,
    ).reshape(4, -1)
    return OracleGraph(
        ordered,
        arcs,
        dangling,
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array([index[m.author] for m in msgs], dtype=np.int64),
        np.array([m.created_at.timestamp() for m in msgs], dtype=np.float64),
        table,
    )


@dataclass(frozen=True)
class OracleWindow:
    start: datetime
    node_count: int
    edge_count: int
    betweenness: dict[str, float]  # every node of the window, in handle order
    centralization: float


def oracle_window_series(messages, window_hours: float) -> list[OracleWindow]:
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
        graph = oracle_build_graph(inside)
        n = len(graph.nodes)
        scores = betweenness_csr(graph.indptr, graph.indices, n) / 2.0
        series.append(
            OracleWindow(
                start=datetime.fromtimestamp(idx * width, tz=timezone.utc),
                node_count=n,
                edge_count=graph.indices.size // 2,
                betweenness=dict(zip(graph.nodes, scores.tolist())),
                centralization=centralization(scores),
            )
        )
    return series


def window_starts(series: WindowSeries) -> list[datetime]:
    """Every window's start, as the window CSV writes it."""
    return [
        datetime.fromtimestamp((series.first + k) * series.width, tz=timezone.utc)
        for k in range(len(series))
    ]


def window_scores(series: WindowSeries, graph: InteractionGraph) -> list[tuple[int, str, float]]:
    """``(window, handle, score)`` for every nonzero score of the series, in order."""
    return [
        (k, graph.nodes[node], score)
        for k, node, score in zip(
            series.score_windows.tolist(), series.score_nodes.tolist(), series.scores.tolist()
        )
    ]


def oracle_count_extrema(series) -> int:
    """Strict interior extrema after collapsing equal-value plateaus, one value at a time."""
    collapsed: list[float] = []
    for value in series:
        if not collapsed or value != collapsed[-1]:
            collapsed.append(value)
    count = 0
    for i in range(1, len(collapsed) - 1):
        left, mid, right = collapsed[i - 1], collapsed[i], collapsed[i + 1]
        if (mid > left and mid > right) or (mid < left and mid < right):
            count += 1
    return count


def oracle_rotating_leadership(windows: list[OracleWindow], mode: str) -> int:
    """Group or actor leadership turnover, with every actor's series keyed by handle."""
    if len(windows) < 3:
        return 0
    if mode == "group":
        return oracle_count_extrema([w.centralization for w in windows])
    actors = sorted({node for w in windows for node in w.betweenness})
    total = 0
    for actor in actors:
        total += oracle_count_extrema([w.betweenness.get(actor, 0.0) for w in windows])
    return total


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
    label = oracle_component_labels(heads, indices, n)
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


def oracle_sentiment(text: str, lexicon: PolarLexicon) -> float:
    """0.5 + (p - q) / (2 (p + q)) over the text's tokens, a token on both sides positive."""
    tokens = tokenize(text)
    p = sum(token in lexicon.positive for token in tokens)
    q = sum(token in lexicon.negative and token not in lexicon.positive for token in tokens)
    return 0.5 if p + q == 0 else 0.5 + (p - q) / (2.0 * (p + q))


def oracle_language_scores(tagged, scorer, reference) -> dict:
    if not tagged:
        return {"sentiment": None, "emotionality": None, "complexity": None}
    if isinstance(scorer, PolarLexicon):
        scorer = functools.partial(oracle_sentiment, lexicon=scorer)
    sentiments = [scorer(t.message.text) for t in tagged]
    tokens = [token for t in tagged for token in t.tokens]
    return {
        "sentiment": _left_to_right_sum(sentiments) / len(sentiments),
        "emotionality": _left_to_right_sum(abs(s - 0.5) for s in sentiments)
        / len(sentiments),
        "complexity": _left_to_right_sum(
            -math.log(reference.probabilities.get(token, reference.unseen))
            for token in tokens
        )
        / len(tokens)
        if reference is not None and tokens
        else None,
    }


# ------------------------------------------------------------ kernel oracle


def oracle_component_labels(heads, tails, n: int) -> np.ndarray:
    """Min-label propagation with one pointer jump per round.

    Each round every node takes the smallest label among itself and its
    neighbours, then the label of that label.  Correct, but a long path
    takes between n/3 and n/2 rounds.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        low = label.copy()
        np.minimum.at(low, heads, label[tails])
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


# ------------------------------------------------------------- parse oracle
#
# The record-at-a-time parser that the message table replaced: every line
# goes through ``json.loads`` and becomes a ``Message``.


def _oracle_timestamp(raw):
    if not isinstance(raw, str) or not raw:
        return None
    try:
        stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
        if stamp.tzinfo is None:
            return stamp.replace(tzinfo=timezone.utc)
        # Raises OverflowError when the offset moves the date past year 1 or 9999.
        return stamp.astimezone(timezone.utc)
    except (ValueError, OverflowError):
        return None


def _oracle_handle(raw):
    if not isinstance(raw, str):
        return None
    handle = raw.strip().lstrip("@").lower()
    return handle or None


def oracle_parse_record(raw) -> Message | None:
    """Turn one decoded JSON record into a Message, or None if malformed."""
    if not isinstance(raw, dict):
        return None
    msg_id = raw.get("id")
    if not isinstance(msg_id, str) or not msg_id:
        return None
    author = _oracle_handle(raw.get("author"))
    if author is None:
        return None
    created_at = _oracle_timestamp(raw.get("created_at"))
    if created_at is None:
        return None
    text = raw.get("text")
    if not isinstance(text, str):
        return None
    refs = []
    for key in ("reply_to", "retweet_of"):
        ref = raw.get(key)
        if ref is None:
            refs.append(None)
            continue
        if not isinstance(ref, str) or not ref or ref == msg_id:
            return None
        refs.append(ref)
    raw_mentions = raw.get("mentions", [])
    if raw_mentions is None:
        raw_mentions = []
    if not isinstance(raw_mentions, list):
        return None
    mentions = []
    for entry in raw_mentions:
        handle = _oracle_handle(entry)
        if handle is None:
            return None
        mentions.append(handle)
    return Message(msg_id, author, created_at, text, refs[0], refs[1], tuple(mentions))


def oracle_parse_corpus(lines) -> tuple[list[Message], int]:
    """(messages, skipped); a duplicate id raises CorpusError."""
    messages = []
    skipped = 0
    seen = set()
    for line in lines:
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        message = oracle_parse_record(raw)
        if message is None:
            skipped += 1
            continue
        if message.id in seen:
            raise CorpusError(f"duplicate message id: {message.id!r}")
        seen.add(message.id)
        messages.append(message)
    return messages, skipped


UNKNOWN_REF = "<unknown>"


def table_rows(table: MessageTable) -> list[tuple]:
    """Each row as ``Message`` fields; a reference names its row's id, or ``UNKNOWN_REF``."""

    def ref(row: int) -> str | None:
        if row == ABSENT:
            return None
        return UNKNOWN_REF if row == UNKNOWN else table.ids[row]

    rows = []
    for row in range(len(table)):
        lo, hi = table.mention_bounds[row], table.mention_bounds[row + 1]
        rows.append(
            (
                table.ids[row],
                table.handles[table.authors[row]],
                table.created_at(row),
                table.texts[row],
                ref(int(table.reply_to[row])),
                ref(int(table.retweet_of[row])),
                tuple(table.handles[h] for h in table.mentions[lo:hi].tolist()),
            )
        )
    return rows


def oracle_rows(messages) -> list[tuple]:
    """``table_rows`` of the table that ``messages`` should fill."""
    ids = {m.id for m in messages}

    def ref(target: str | None) -> str | None:
        return None if target is None else target if target in ids else UNKNOWN_REF

    return [
        (m.id, m.author, m.created_at, m.text, ref(m.reply_to), ref(m.retweet_of), m.mentions)
        for m in messages
    ]


# --------------------------------------------------------- dynamics oracle
#
# Response time and nudges straight from the messages: every contact is
# found by scanning all messages, and every answer by scanning them again.


def _oracle_contacts(messages) -> list[tuple[str, str, float]]:
    """(sender, target, stamp) per contact, in (created_at, id) order."""
    ordered = sorted(messages, key=lambda m: (m.created_at, m.id))
    author_of = {m.id: m.author for m in ordered}
    contacts = []
    for m in ordered:
        targets = set(m.mentions)
        if m.reply_to in author_of:
            targets.add(author_of[m.reply_to])
        targets.discard(m.author)
        for target in sorted(targets):
            contacts.append((m.author, target, m.created_at.timestamp()))
    return contacts


def _by_pair(contacts) -> list[tuple[tuple[str, str], list[float], list[float]]]:
    """Per ordered pair, sorted: its contact stamps and the reverse pair's."""
    pairs = sorted({(a, b) for a, b, _ in contacts})
    return [
        (
            (a, b),
            [t for x, y, t in contacts if (x, y) == (a, b)],
            [t for x, y, t in contacts if (x, y) == (b, a)],
        )
        for a, b in pairs
    ]


def oracle_response_time(messages, cutoff_hours=None) -> float | None:
    """Mean hours from each contact to the target's first strictly later answer."""
    lags = []
    for _, sent, answers in _by_pair(_oracle_contacts(messages)):
        for stamp in sent:
            later = [t for t in answers if t > stamp]
            if not later:
                continue
            lag = (min(later) - stamp) / 3600.0
            if cutoff_hours is None or lag <= cutoff_hours:
                lags.append(lag)
    return _left_to_right_sum(lags) / len(lags) if lags else None


def oracle_nudges(messages, cutoff_hours=None) -> float | None:
    """Mean count of contacts waiting when an answer comes in time.

    Each answer takes the contacts strictly before it that no earlier
    counted answer took; it counts when its lag from the last of them is
    within the cutoff, and otherwise leaves them waiting.
    """
    chains = []
    for _, sent, answers in _by_pair(_oracle_contacts(messages)):
        taken = 0
        for answer in answers:
            waiting = [t for t in sent[taken:] if t < answer]
            if not waiting:
                continue
            if cutoff_hours is not None and (answer - waiting[-1]) / 3600.0 > cutoff_hours:
                continue
            chains.append(len(waiting))
            taken += len(waiting)
    return sum(chains) / len(chains) if chains else None


# ----------------------------------------------------------- report oracle
#
# A whole run composed from the oracles above, each walking ``Message``
# records.  Only the hierarchy, the centralization formula and the six-digit
# rounding are the code under test; every vector fed to them is the oracles'.


def _oracle_window_csv(series: list[OracleWindow]) -> bytes:
    rows = ["window_start,n_nodes,n_edges,group_betweenness_centralization"]
    rows += [
        f"{w.start:%Y-%m-%dT%H:%M:%SZ},{w.node_count},{w.edge_count},{round6(w.centralization)}"
        for w in series
    ]
    return "".join(row + "\r\n" for row in rows).encode()


def oracle_report(lines, cfg: RunConfig) -> tuple[dict, dict[str, bytes]]:
    """The report ``run_pipeline(cfg)`` returns for the NDJSON ``lines``, without
    its ``config`` block, and each orientation's window CSV.

    The packaged lexicons are used, and the corpus's own reference model;
    ``cfg`` gives the window width, leadership mode, response cutoff and the
    hierarchy's settings.
    """
    messages, skipped = oracle_parse_corpus(lines)
    partitions, discarded, counts = oracle_filter_and_partition(
        messages, OrientationLexicon.default()
    )
    reference = ReferenceDictionary.from_counts(dict(counts)) if counts else None
    polar = PolarLexicon.default()
    vectors, windows, csvs, dangling = {}, {}, {}, 0
    for orientation, tagged in partitions.items():
        ordered = [t.message for t in tagged]
        series = oracle_window_series(ordered, cfg.window_hours)
        windows[orientation], csvs[orientation] = len(series), _oracle_window_csv(series)
        if not ordered:
            vectors[orientation] = MetricVector()
            continue
        graph = oracle_build_graph(ordered)
        dangling += graph.dangling_refs
        n, edges = len(graph.nodes), graph.indices.size // 2
        degrees = np.diff(graph.indptr).tolist()
        scores = oracle_betweenness_csr(graph.indptr, graph.indices, n) / 2.0
        volume = oracle_activity(ordered)
        vectors[orientation] = MetricVector(
            density=2.0 * edges / (n * (n - 1)) if n > 1 else 0.0,
            degree_centralization=(
                sum(max(degrees) - d for d in degrees) / ((n - 1) * (n - 2)) if n > 2 else 0.0
            ),
            betweenness_centralization=centralization(scores),
            art_hours=oracle_response_time(ordered, cfg.response_cutoff_hours),
            nudges=oracle_nudges(ordered, cfg.response_cutoff_hours),
            actor_count=n,
            activity=volume,
            avg_activity_per_actor=volume / n,
            rotating_leadership=oracle_rotating_leadership(series, cfg.gbco_mode),
            **oracle_language_scores(tagged, polar, reference),
        )
    run = {
        "corpus_size": len(messages),
        "skipped_records": skipped,
        "discarded_untagged": discarded,
        "dangling_references": dangling,
        "window_count": max(windows.values()),
        "windows_per_orientation": windows,
    }
    return {"mode": "run", "run": run, "orientations": evaluate_hierarchy(vectors, cfg)}, csvs

"""Conversation dynamics: activity volume, response lags, nudges, leadership churn.

A directed contact A->B is a message by A that mentions B or replies to a
message authored by B.  One message yields at most one contact per distinct
target (a reply that also mentions its target is a single ping), and
self-contacts are ignored.  B answers a contact with their earliest strictly
later message that mentions or replies to A.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from .config import ConfigError
from .graph import RETWEET, InteractionGraph, betweenness_array, centralization

SECONDS_PER_HOUR = 3600.0
# Every window, empty or not, is a block of its series' graph and a WindowStat.
# The full-scale preset has 60 windows per series and four weeks hourly have 672.
MAX_WINDOWS = 100_000
_Contacts = tuple[np.ndarray, np.ndarray, np.ndarray]  # see _contacts


def activity(graph: InteractionGraph) -> int:
    """Messages plus every mention, reply reference and retweet reference."""
    return graph.rows.size + graph.arc_rows.size + graph.dangling_refs


def _contacts(graph: InteractionGraph) -> _Contacts:
    """Every contact, sorted by pair, then row: pair keys, stamps and answers.

    Pair keys are ``sender * n + target`` node ids.  ``answer[i]`` indexes
    contact i's answer, the reverse pair's first strictly later contact, or
    is -1.
    """
    n, rows, targets = graph.node_count, graph.arc_rows, graph.arc_targets
    senders = graph.authors[rows]
    contact = (graph.arc_kinds != RETWEET) & (senders != targets)
    rows, senders, targets = rows[contact], senders[contact], targets[contact]
    # One contact per (row, target).  unique orders them by row, and the
    # stable sort by pair keeps each pair's contacts in row order.
    _, once = np.unique(rows * n + targets, return_index=True)
    pairs = (senders * n + targets)[once]
    order = np.argsort(pairs, kind="stable")
    pairs, stamps = pairs[order], graph.stamps[rows[once][order]]
    # Search by (pair rank, stamp rank): both ranks are dense, so for C
    # contacts every key is below C * (C + 1).  The keys ascend because
    # rows, and so stamps, ascend within a pair.
    distinct, pair_rank = np.unique(pairs, return_inverse=True)
    _, stamp_rank = np.unique(stamps, return_inverse=True)
    reverse = pairs % n * n + pairs // n
    width = pairs.size
    found = np.searchsorted(
        pair_rank * width + stamp_rank,
        np.searchsorted(distinct, reverse) * width + stamp_rank,
        side="right",
    )
    # A search past the reverse pair's block lands in another pair or the end.
    answer = np.where(np.append(pairs, -1)[found] == reverse, found, -1)
    return pairs, stamps, answer


def average_response_time(
    graph: InteractionGraph, cutoff_hours: float | None = None
) -> float | None:
    """Mean hours from a contact to its earliest strictly later answer.

    Contacts that are never answered (or answered past ``cutoff_hours``, when
    given) carry no lag.  Returns None when nothing was answered.
    """
    return _average_response_time(_contacts(graph), cutoff_hours)


def _average_response_time(contacts: _Contacts, cutoff_hours: float | None) -> float | None:
    _, stamps, answer = contacts
    answered = answer >= 0
    lags = (stamps[answer[answered]] - stamps[answered]) / SECONDS_PER_HOUR
    if cutoff_hours is not None:
        lags = lags[lags <= cutoff_hours]
    if not lags.size:
        return None
    # Left to right in pair, then row order, as ``cumsum`` adds: the builtin
    # ``sum`` of floats is compensated since Python 3.12 and would change the
    # last digits.
    return float(np.cumsum(lags)[-1] / lags.size)


def nudges(
    graph: InteractionGraph, cutoff_hours: float | None = None
) -> float | None:
    """Mean run length of contacts A->B needed before B answers.

    Every answer closes one chain: the consecutive A->B contacts since B's
    previous answer.  Chains that never get an answer are dropped, so the
    metric is only defined over answered chains and is always >= 1.  An
    answer past ``cutoff_hours`` from the chain's last contact closes
    nothing, and the chain runs on to the next answer.
    """
    return _nudges(_contacts(graph), cutoff_hours)


def _nudges(contacts: _Contacts, cutoff_hours: float | None) -> float | None:
    pairs, stamps, answer = contacts
    answered = np.flatnonzero(answer >= 0)
    pairs, answer = pairs[answered], answer[answered]
    # Positions in ``answered`` of each chain's last contact.
    ends = np.flatnonzero(np.diff(answer, append=-1))
    if cutoff_hours is not None:
        lags = (stamps[answer[ends]] - stamps[answered[ends]]) / SECONDS_PER_HOUR
        ends = ends[lags <= cutoff_hours]
    if not ends.size:
        return None
    # A chain starts after the previous counted chain, or at its pair's first contact.
    starts = np.maximum(np.append(0, ends[:-1] + 1), np.searchsorted(pairs, pairs[ends]))
    return int(np.sum(ends + 1 - starts)) / ends.size


@dataclass(frozen=True, slots=True)
class WindowStat:
    start: datetime
    node_count: int
    edge_count: int
    betweenness: dict[str, float]  # nonzero scores only, in node order
    centralization: float


def window_series(
    graph: InteractionGraph, window_hours: float = 24.0
) -> list[WindowStat]:
    """Tumbling, epoch-aligned windows covering the full message span.

    Windows with no messages still appear (empty graph, centralization 0) so
    the series is contiguous.  With 24-hour windows the boundaries are exact
    UTC days.  Windows are disjoint blocks of one graph, and Brandes scores
    each component on its own, so one call per series is exact.
    """
    if window_hours <= 0:
        raise ValueError("window_hours must be positive")
    if not graph.rows.size:
        return []
    width = window_hours * SECONDS_PER_HOUR
    buckets = graph.stamps // width  # rows are in time order, so ascending
    first, last = int(buckets[0]), int(buckets[-1])
    if last - first + 1 > MAX_WINDOWS:
        raise ConfigError(
            f"window_hours={window_hours} gives {last - first + 1} windows, "
            f"more than the {MAX_WINDOWS} allowed"
        )
    labels = (buckets - first).astype(np.int64)  # small exact integers
    block, bounds = graph.windows(labels, last - first + 1)
    scores = betweenness_array(block)
    values, arcs = scores.tolist(), block._indptr[bounds].tolist()
    return [
        WindowStat(
            start=datetime.fromtimestamp((first + k) * width, tz=timezone.utc),
            node_count=hi - lo,
            edge_count=(arcs[k + 1] - arcs[k]) // 2,
            betweenness={block.nodes[i]: values[i] for i in range(lo, hi) if values[i]},
            centralization=centralization(scores[lo:hi]),
        )
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def count_extrema(series: Sequence[float]) -> int:
    """Strict interior extrema after collapsing equal-value plateaus."""
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


def rotating_leadership(windows: Sequence[WindowStat], mode: str = "group") -> int:
    """Leadership turnover across the window series.

    ``group`` counts extrema of the per-window group betweenness
    centralization.  ``actor`` counts extrema of every actor's own
    betweenness series and sums them.  Fewer than three windows always
    yields 0.
    """
    if mode not in ("group", "actor"):
        raise ValueError(f"unknown rotating-leadership mode: {mode!r}")
    if len(windows) < 3:
        return 0
    if mode == "group":
        return count_extrema([w.centralization for w in windows])
    actors = sorted({node for w in windows for node in w.betweenness})
    total = 0
    for actor in actors:
        total += count_extrema([w.betweenness.get(actor, 0.0) for w in windows])
    return total


@dataclass(frozen=True, slots=True)
class InteractivityScores:
    activity: int
    actor_count: int
    avg_activity_per_actor: float | None
    art_hours: float | None
    nudges: float | None
    rotating_leadership: int


def average_activity(volume: int, actors: int) -> float | None:
    """Activity per actor; absent for an empty network."""
    if actors <= 0:
        return None
    return volume / actors


def interactivity_scores(
    graph: InteractionGraph,
    windows: Sequence[WindowStat],
    mode: str = "group",
    cutoff_hours: float | None = None,
) -> InteractivityScores:
    volume = activity(graph)
    actors = graph.node_count
    contacts = _contacts(graph)
    return InteractivityScores(
        activity=volume,
        actor_count=actors,
        avg_activity_per_actor=average_activity(volume, actors),
        art_hours=_average_response_time(contacts, cutoff_hours),
        nudges=_nudges(contacts, cutoff_hours),
        rotating_leadership=rotating_leadership(windows, mode),
    )

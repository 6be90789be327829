"""Conversation dynamics: activity volume, response lags, nudges, leadership churn.

A directed contact A->B is a message by A that mentions B or replies to a
message authored by B.  One message yields at most one contact per distinct
target (a reply that also mentions its target is a single ping), and
self-contacts are ignored.  B answers a contact with their earliest strictly
later message that mentions or replies to A.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Sequence

from .config import ConfigError
from .corpus import Message
from .graph import (
    InteractionGraph,
    betweenness,
    build_graph,
    group_betweenness_centralization,
)

SECONDS_PER_HOUR = 3600.0
# Each window builds a graph and runs Brandes.  The full-scale preset has 60
# windows per series and four weeks in hourly windows have 672.
MAX_WINDOWS = 100_000


def activity(messages: Iterable[Message]) -> int:
    """Messages plus every mention, reply reference and retweet reference."""
    total = 0
    for m in messages:
        total += 1 + len(m.mentions)
        total += m.reply_to is not None
        total += m.retweet_of is not None
    return total


_Streams = dict[tuple[str, str], list[float]]


def _contact_streams(messages: Sequence[Message]) -> _Streams:
    """Chronological contact timestamps (epoch seconds) per ordered pair."""
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


def average_response_time(
    messages: Sequence[Message], cutoff_hours: float | None = None
) -> float | None:
    """Mean hours from a contact to its earliest strictly later answer.

    Contacts that are never answered (or answered past ``cutoff_hours``, when
    given) carry no lag.  Returns None when nothing was answered.
    """
    return _average_response_time(_contact_streams(messages), cutoff_hours)


def _average_response_time(
    streams: _Streams, cutoff_hours: float | None
) -> float | None:
    lags: list[float] = []
    for pair in sorted(streams):
        replies = streams.get((pair[1], pair[0]))
        if not replies:
            continue
        for stamp in streams[pair]:
            pos = bisect_right(replies, stamp)
            if pos == len(replies):
                continue
            lag = (replies[pos] - stamp) / SECONDS_PER_HOUR
            if cutoff_hours is not None and lag > cutoff_hours:
                continue
            lags.append(lag)
    if not lags:
        return None
    return sum(lags) / len(lags)


def nudges(
    messages: Sequence[Message], cutoff_hours: float | None = None
) -> float | None:
    """Mean run length of contacts A->B needed before B answers.

    Every answer closes one chain: the consecutive A->B contacts since B's
    previous answer.  Chains that never get an answer are dropped, so the
    metric is only defined over answered chains and is always >= 1.
    """
    return _nudges(_contact_streams(messages), cutoff_hours)


def _nudges(streams: _Streams, cutoff_hours: float | None) -> float | None:
    chains: list[int] = []
    for pair in sorted(streams):
        contacts = streams[pair]
        replies = streams.get((pair[1], pair[0]), [])
        ci = 0
        pending = 0
        for reply_stamp in replies:
            fresh = 0
            while ci < len(contacts) and contacts[ci] < reply_stamp:
                fresh += 1
                ci += 1
            pending += fresh
            if pending == 0:
                continue
            if (
                cutoff_hours is not None
                and (reply_stamp - contacts[ci - 1]) / SECONDS_PER_HOUR > cutoff_hours
            ):
                continue
            chains.append(pending)
            pending = 0
    if not chains:
        return None
    return sum(chains) / len(chains)


@dataclass(frozen=True, slots=True)
class WindowStat:
    start: datetime
    end: datetime
    node_count: int
    edge_count: int
    betweenness: dict[str, float]
    centralization: float


def window_series(
    messages: Sequence[Message], window_hours: float = 24.0
) -> list[WindowStat]:
    """Tumbling, epoch-aligned windows covering the full message span.

    Windows with no messages still appear (empty graph, centralization 0) so
    the series is contiguous.  With 24-hour windows the boundaries are exact
    UTC days.
    """
    if window_hours <= 0:
        raise ValueError("window_hours must be positive")
    if not messages:
        return []
    width = window_hours * SECONDS_PER_HOUR
    stamps = [m.created_at.timestamp() for m in messages]
    first = int(min(stamps) // width)
    last = int(max(stamps) // width)
    if last - first + 1 > MAX_WINDOWS:
        raise ConfigError(
            f"window_hours={window_hours} gives {last - first + 1} windows, "
            f"more than the {MAX_WINDOWS} allowed"
        )
    buckets: dict[int, list[Message]] = {}
    for m, stamp in zip(messages, stamps):
        buckets.setdefault(int(stamp // width), []).append(m)
    series: list[WindowStat] = []
    for idx in range(first, last + 1):
        inside = sorted(
            buckets.get(idx, ()), key=lambda m: (m.created_at, m.id)
        )
        graph = build_graph(inside)
        scores = betweenness(graph)
        series.append(
            WindowStat(
                start=datetime.fromtimestamp(idx * width, tz=timezone.utc),
                end=datetime.fromtimestamp((idx + 1) * width, tz=timezone.utc),
                node_count=graph.node_count,
                edge_count=graph.simple_edge_count,
                betweenness=scores,
                centralization=group_betweenness_centralization(graph, scores),
            )
        )
    return series


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
    messages: Sequence[Message],
    graph: InteractionGraph,
    windows: Sequence[WindowStat],
    mode: str = "group",
    cutoff_hours: float | None = None,
) -> InteractivityScores:
    volume = activity(messages)
    actors = graph.node_count
    streams = _contact_streams(messages)
    return InteractivityScores(
        activity=volume,
        actor_count=actors,
        avg_activity_per_actor=average_activity(volume, actors),
        art_hours=_average_response_time(streams, cutoff_hours),
        nudges=_nudges(streams, cutoff_hours),
        rotating_leadership=rotating_leadership(windows, mode),
    )

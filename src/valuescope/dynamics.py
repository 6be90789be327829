"""Conversation dynamics: activity volume, response lags, nudges, leadership churn.

A directed contact A->B is a message by A that mentions B or replies to a
message authored by B.  One message yields at most one contact per distinct
target (a reply that also mentions its target is a single ping), and
self-contacts are ignored.  B answers a contact with their earliest strictly
later message that mentions or replies to A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .config import ConfigError
from .graph import RETWEET, InteractionGraph, _simple_csr, centralization
from .hierarchy import ordered_mean

SECONDS_PER_HOUR = 3600.0
# Every window, empty or not, is a block of its series' graph and a row of its columns.
# The full-scale preset has 60 windows per series and four weeks hourly have 672.
MAX_WINDOWS = 100_000
# Epoch seconds of the first and the last second of the years 1 to 9999 in UTC,
# the instants a window start can be written as a ``datetime``.
CALENDAR = (-62135596800.0, 253402300799.0)
_Contacts = tuple[np.ndarray, np.ndarray, np.ndarray]  # see _contacts


def check_window_count(count: int, window_hours: float) -> None:
    """ConfigError when ``window_hours`` gives more than ``MAX_WINDOWS`` windows."""
    if count > MAX_WINDOWS:
        raise ConfigError(
            f"window_hours={window_hours} gives {count} windows, "
            f"more than the {MAX_WINDOWS} allowed"
        )


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


def _average_response_time(contacts: _Contacts, cutoff_hours: float | None) -> float | None:
    """Mean hours from a contact to its earliest strictly later answer.

    Contacts that are never answered (or answered past ``cutoff_hours``, when
    given) carry no lag.  Returns None when nothing was answered.
    """
    _, stamps, answer = contacts
    answered = answer >= 0
    lags = (stamps[answer[answered]] - stamps[answered]) / SECONDS_PER_HOUR
    if cutoff_hours is not None:
        lags = lags[lags <= cutoff_hours]
    if not lags.size:
        return None
    return ordered_mean(lags)  # in pair, then row order


def _nudges(contacts: _Contacts, cutoff_hours: float | None) -> float | None:
    """Mean run length of contacts A->B needed before B answers.

    Every answer closes one chain: the consecutive A->B contacts since B's
    previous answer.  Chains that never get an answer are dropped, so the
    metric is only defined over answered chains and is always >= 1.  An
    answer past ``cutoff_hours`` from the chain's last contact closes
    nothing, and the chain runs on to the next answer.
    """
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


@dataclass(frozen=True, slots=True, eq=False)
class WindowSeries:
    """Tumbling windows as columns; window k starts ``(first + k) * width`` epoch seconds.

    ``scores`` holds the nonzero betweenness scores in window then node order,
    each with its window and its node id in the partition graph."""

    first: int
    width: float
    node_counts: np.ndarray
    edge_counts: np.ndarray
    centralization: np.ndarray
    score_windows: np.ndarray
    score_nodes: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.node_counts.size


_EMPTY = np.zeros(0, dtype=np.int64)
NO_WINDOWS = WindowSeries(0, 1.0, _EMPTY, _EMPTY, np.zeros(0), _EMPTY, _EMPTY, np.zeros(0))


def window_series(graph: InteractionGraph, window_hours: float = 24.0) -> WindowSeries:
    """Tumbling, epoch-aligned windows covering the full message span.

    Windows with no messages still appear (empty graph, centralization 0) so
    the series is contiguous.  With 24-hour windows the boundaries are exact
    UTC days.  A window holds its rows' authors and arcs; a reply or retweet
    of a row in another window adds nothing.  Windows are disjoint blocks of
    one graph, and Brandes scores each component on its own, so one call per
    series is exact.
    """
    if window_hours <= 0:
        raise ValueError("window_hours must be positive")
    if not graph.rows.size:
        return NO_WINDOWS
    width = window_hours * SECONDS_PER_HOUR
    with np.errstate(all="ignore"):  # an infinite or NaN start is refused below
        buckets = graph.stamps // width  # rows are in time order, so ascending
    starts = buckets[0].item() * width, buckets[-1].item() * width
    if not CALENDAR[0] <= starts[0] <= starts[1] <= CALENDAR[1]:
        raise ConfigError(
            f"window_hours={window_hours} cannot place the windows in time: "
            "their starts must be finite and within the years 1 to 9999"
        )
    first, last = int(buckets[0]), int(buckets[-1])
    count = last - first + 1
    check_window_count(count, window_hours)
    labels = (buckets - first).astype(np.int64)  # small exact integers
    # The block-diagonal graph of all windows, on (window, node id) keys.
    n, rows, refs = graph.node_count, graph.arc_rows, graph.arc_refs
    arc_labels = labels[rows]
    inside = (refs < 0) | (labels[refs] == arc_labels)
    heads = arc_labels[inside] * n + graph.authors[rows[inside]]
    tails = arc_labels[inside] * n + graph.arc_targets[inside]
    keys = np.unique(np.concatenate((labels * n + graph.authors, tails)))
    indptr, indices = _simple_csr(keys.size, *np.searchsorted(keys, (heads, tails)))
    bounds = np.searchsorted(keys, np.arange(count + 1) * n)
    scores = _kernels.betweenness_csr(indptr, indices, keys.size) / 2.0
    scored = np.flatnonzero(scores)
    # A window without a nonzero score has centralization exactly 0.
    central = np.zeros(count)
    for k in np.unique(keys[scored] // n).tolist():
        central[k] = centralization(scores[bounds[k] : bounds[k + 1]])
    return WindowSeries(
        first, width, np.diff(bounds), np.diff(indptr[bounds]) // 2, central,
        keys[scored] // n, keys[scored] % n, scores[scored],
    )


def _extrema(keys: np.ndarray, windows: np.ndarray, values: np.ndarray, count: int) -> int:
    """Strict interior extrema of each key's series over ``count`` windows, summed.

    Entries are sorted by key, then window.  An absent window reads 0, and as
    plateaus collapse, a run of absent windows is one 0 wherever it stands.
    """
    first = np.diff(keys, prepend=keys[:1] - 1) != 0
    lead = np.where(first, windows > 0, np.diff(windows, prepend=0) > 1)
    trail = np.roll(first, -1) & (windows < count - 1)  # at a key's last entry
    size = 1 + lead + trail
    sequence = np.zeros(int(size.sum()), dtype=values.dtype)
    sequence[np.cumsum(size) - 1 - trail] = values
    owner, steps = np.repeat(keys, size), np.sign(np.diff(sequence))
    nonzero = np.flatnonzero(steps)
    # Sign changes between consecutive nonzero steps that both lie within one key.
    left, right = nonzero[:-1], nonzero[1:]
    return int(np.count_nonzero((steps[left] != steps[right]) & (owner[left] == owner[right + 1])))


def count_extrema(series: Sequence[float]) -> int:
    """Strict interior extrema after collapsing equal-value plateaus.

    Collapsing plateaus drops exactly the zero steps, so an extremum is a
    sign change between consecutive nonzero steps.
    """
    windows = np.arange(len(series))
    return _extrema(np.zeros_like(windows), windows, np.asarray(series), windows.size)


def rotating_leadership(series: WindowSeries, mode: str = "group") -> int:
    """Leadership turnover across the window series.

    ``group`` counts extrema of the per-window group betweenness
    centralization.  ``actor`` counts extrema of every actor's own
    betweenness series and sums them.  Fewer than three windows always
    yields 0.
    """
    if mode not in ("group", "actor"):
        raise ValueError(f"unknown rotating-leadership mode: {mode!r}")
    if mode == "group":
        return count_extrema(series.centralization)
    order = np.argsort(series.score_nodes, kind="stable")  # by node, then window
    entries = series.score_nodes[order], series.score_windows[order], series.scores[order]
    return _extrema(*entries, len(series))


def average_activity(volume: int, actors: int) -> float | None:
    """Activity per actor; absent for an empty network."""
    if actors <= 0:
        return None
    return volume / actors


def interactivity_scores(
    graph: InteractionGraph,
    windows: WindowSeries,
    mode: str = "group",
    cutoff_hours: float | None = None,
) -> dict[str, float | None]:
    """The ``hierarchy.INTERACTIVITY_METRICS`` of one graph and its window series, by name."""
    volume = activity(graph)
    actors = graph.node_count
    contacts = _contacts(graph)
    return {
        "art_hours": _average_response_time(contacts, cutoff_hours),
        "nudges": _nudges(contacts, cutoff_hours),
        "actor_count": actors,
        "activity": volume,
        "avg_activity_per_actor": average_activity(volume, actors),
        "rotating_leadership": rotating_leadership(windows, mode),
    }

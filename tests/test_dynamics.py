"""Activity, response times, nudges and rotating leadership."""

from __future__ import annotations

import functools
import operator
import random
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BASE,
    OracleWindow,
    art_hours,
    graph_of,
    msg,
    nudges,
    oracle_count_extrema,
    oracle_nudges,
    oracle_response_time,
    oracle_rotating_leadership,
    oracle_window_series,
    window_scores,
    window_starts,
)
from valuescope import (
    ConfigError,
    WindowSeries,
    activity,
    average_activity,
    count_extrema,
    interactivity_scores,
    rotating_leadership,
    window_series,
)
from valuescope import _kernels
from valuescope.dynamics import MAX_WINDOWS


def exchange(prefix, a, b, t0, lag_hours, pings=1):
    """`pings` contacts a->b followed by one reply b->a after `lag_hours`."""
    out = []
    for k in range(pings):
        out.append(msg(f"{prefix}c{k}", a, t0 + k * 0.01, mentions=(b,)))
    out.append(
        msg(
            f"{prefix}r",
            b,
            t0 + (pings - 1) * 0.01 + lag_hours,
            reply_to=f"{prefix}c{pings - 1}",
        )
    )
    return out


class TestActivity:
    def test_counts_message_plus_references(self):
        messages = [
            msg("m1", "a", 0.0, mentions=("b", "c")),
            msg("m2", "b", 1.0, reply_to="m1", retweet_of=None),
        ]
        # m1: 1 + 2 mentions = 3; m2: 1 + 1 reply = 2
        assert activity(graph_of(messages)) == 5

    def test_plain_messages_count_once_each(self):
        messages = [msg(f"m{i}", "a", float(i)) for i in range(7)]
        assert activity(graph_of(messages)) == 7

    def test_retweet_reference_counts(self):
        messages = [
            msg("m1", "a", 0.0),
            msg("m2", "b", 1.0, retweet_of="m1"),
        ]
        assert activity(graph_of(messages)) == 3

    def test_average_activity(self):
        assert average_activity(14, 5) == pytest.approx(2.8)
        assert average_activity(0, 0) is None


class TestAverageResponseTime:
    def test_single_answered_contact(self):
        messages = [
            msg("m1", "a", 0.0, mentions=("b",)),
            msg("m2", "b", 2.0, mentions=("a",)),
        ]
        assert art_hours(graph_of(messages)) == pytest.approx(2.0)

    def test_mean_over_three_pairs(self):
        messages = (
            exchange("p", "a", "b", 0.0, 1.0)
            + exchange("q", "c", "d", 0.0, 3.0)
            + exchange("r", "e", "f", 0.0, 8.0)
        )
        assert art_hours(graph_of(messages)) == pytest.approx(4.0)

    def test_unanswered_contact_is_none(self):
        messages = [msg("m1", "a", 0.0, mentions=("b",))]
        assert art_hours(graph_of(messages)) is None

    def test_simultaneous_message_is_not_an_answer(self):
        messages = [
            msg("m1", "a", 0.0, mentions=("b",)),
            msg("m2", "b", 0.0, mentions=("a",)),
        ]
        assert art_hours(graph_of(messages)) is None

    def test_reply_without_mention_answers(self):
        messages = [
            msg("m1", "a", 0.0, mentions=("b",)),
            msg("m2", "b", 1.5, reply_to="m1"),
        ]
        assert art_hours(graph_of(messages)) == pytest.approx(1.5)

    def test_retweets_make_no_contact(self):
        messages = [
            msg("m1", "a", 0.0, mentions=("b",)),
            msg("m2", "b", 1.0, retweet_of="m1"),
        ]
        assert art_hours(graph_of(messages)) is None

    def test_mention_and_reply_to_same_target_dedupe(self):
        # a pings b twice in one message (mention + reply); one contact only,
        # so one lag is recorded, not two.
        messages = [
            msg("m0", "b", 0.0, mentions=("a",)),
            msg("m1", "a", 1.0, mentions=("b",), reply_to="m0"),
            msg("m2", "b", 3.0, reply_to="m1"),
        ]
        # contacts: b->a at 0 (answered at 1.0), a->b at 1 (answered at 3.0)
        assert art_hours(graph_of(messages)) == pytest.approx(1.5)

    def test_self_mention_ignored(self):
        messages = [
            msg("m1", "a", 0.0, mentions=("a",)),
            msg("m2", "a", 1.0, mentions=("a",)),
        ]
        assert art_hours(graph_of(messages)) is None

    def test_earliest_answer_wins(self):
        messages = [
            msg("m1", "a", 0.0, mentions=("b",)),
            msg("m2", "b", 1.0, mentions=("a",)),
            msg("m3", "b", 9.0, mentions=("a",)),
        ]
        assert art_hours(graph_of(messages)) == pytest.approx(1.0)

    def test_cutoff_drops_slow_answers(self):
        messages = (
            exchange("p", "a", "b", 0.0, 1.0)
            + exchange("q", "c", "d", 0.0, 50.0)
        )
        assert art_hours(graph_of(messages)) == pytest.approx(25.5)
        assert art_hours(graph_of(messages), cutoff_hours=24.0) == pytest.approx(1.0)

    def test_mean_adds_left_to_right(self):
        # Ten 0.1 h lags: 0.09999999999999999 left to right, 0.1 compensated.
        messages = [
            m for k in range(10) for m in exchange(f"p{k}", f"a{k}", f"b{k}", 0.0, 0.1)
        ]
        lags = [0.1] * 10
        assert art_hours(graph_of(messages)) == (
            functools.reduce(operator.add, lags) / len(lags)
        )

    def test_order_independent(self):
        messages = (
            exchange("p", "a", "b", 0.0, 1.0)
            + exchange("q", "c", "d", 5.0, 3.0)
            + exchange("r", "e", "f", 2.0, 8.0, pings=3)
        )
        shuffled = messages[:]
        random.Random(1).shuffle(shuffled)
        assert art_hours(graph_of(shuffled)) == art_hours(graph_of(messages))


class TestNudges:
    def test_answer_after_three_pings(self):
        messages = exchange("p", "a", "b", 0.0, 1.0, pings=3)
        assert nudges(graph_of(messages)) == pytest.approx(3.0)

    def test_mean_over_chains(self):
        messages = (
            exchange("p", "a", "b", 0.0, 1.0, pings=1)
            + exchange("q", "c", "d", 0.0, 1.0, pings=1)
            + exchange("r", "e", "f", 0.0, 1.0, pings=2)
        )
        assert nudges(graph_of(messages)) == pytest.approx(4 / 3)

    def test_unanswered_chain_dropped(self):
        messages = exchange("p", "a", "b", 0.0, 1.0) + [
            msg("x1", "c", 0.0, mentions=("d",)),
            msg("x2", "c", 1.0, mentions=("d",)),
        ]
        assert nudges(graph_of(messages)) == pytest.approx(1.0)

    def test_no_answers_anywhere_is_none(self):
        messages = [msg("m1", "a", 0.0, mentions=("b",))]
        assert nudges(graph_of(messages)) is None

    def test_chain_resets_after_answer(self):
        messages = [
            msg("c1", "a", 0.0, mentions=("b",)),
            msg("c2", "a", 1.0, mentions=("b",)),
            msg("r1", "b", 2.0, mentions=("a",)),
            msg("c3", "a", 3.0, mentions=("b",)),
            msg("r2", "b", 4.0, mentions=("a",)),
        ]
        # a->b chains: pings {0,1} answered at 2 (length 2), ping {3}
        # answered at 4 (length 1).  b's answer at 2 is itself a contact
        # b->a, answered by a's ping at 3 (length 1).  Mean of {2,1,1}.
        assert nudges(graph_of(messages)) == pytest.approx(4 / 3)

    def test_answer_with_no_prior_contact_ignored(self):
        messages = [
            msg("r0", "b", 0.0, mentions=("a",)),
            msg("c1", "a", 1.0, mentions=("b",)),
            msg("r1", "b", 2.0, mentions=("a",)),
        ]
        # b's ping at 0 is answered by a at 1 (chain 1); a's ping answered
        # at 2 (chain 1).
        assert nudges(graph_of(messages)) == pytest.approx(1.0)

    def test_cutoff_applies_to_latest_contact(self):
        messages = exchange("p", "a", "b", 0.0, 30.0, pings=2)
        assert nudges(graph_of(messages)) == pytest.approx(2.0)
        assert nudges(graph_of(messages), cutoff_hours=24.0) is None


@st.composite
def conversations(draw):
    """Messages among four actors, with equal stamps, self-contacts,
    replies that also mention their target, and dangling replies.

    Stamps are whole half hours, so every lag is exact and some lags equal
    a cutoff of 0.5, 1 or 2 hours.  Four actors give adjacent pair blocks,
    some without their reverse pair, where an answer search can overrun.
    """
    size = draw(st.integers(min_value=0, max_value=24))
    ids = [f"m{i:02d}" for i in range(size)]
    messages = []
    for ident in ids:
        author = draw(st.sampled_from("abcd"))
        messages.append(
            msg(
                ident,
                author,
                draw(st.integers(0, 8)) / 2,
                mentions=tuple(draw(st.lists(st.sampled_from("abcd"), max_size=2))),
                reply_to=draw(st.none() | st.sampled_from([*ids, "gone"])),
            )
        )
    return draw(st.permutations(messages))


@settings(max_examples=300, deadline=None)
@given(conversations(), st.sampled_from([None, 0.0, 0.5, 1.0, 2.0]))
def test_response_time_and_nudges_match_per_contact_scan(messages, cutoff_hours):
    graph = graph_of(messages)
    scores = interactivity_scores(graph, window_series(graph), cutoff_hours=cutoff_hours)
    assert scores["art_hours"] == oracle_response_time(messages, cutoff_hours)
    assert scores["nudges"] == oracle_nudges(messages, cutoff_hours)


class TestCountExtrema:
    def test_worked_example(self):
        assert count_extrema([0.2, 0.5, 0.3, 0.6, 0.4]) == 3

    def test_plateau_collapses_before_counting(self):
        assert count_extrema([0.2, 0.5, 0.5, 0.3]) == 1
        assert count_extrema([0.2, 0.5, 0.5, 0.7]) == 0

    def test_monotone_and_constant_series(self):
        assert count_extrema([1.0, 2.0, 3.0, 4.0]) == 0
        assert count_extrema([2.0, 2.0, 2.0]) == 0

    def test_short_series(self):
        assert count_extrema([]) == 0
        assert count_extrema([1.0]) == 0
        assert count_extrema([1.0, 2.0]) == 0

    def test_alternating_series_saturates_bound(self):
        series = [float(i % 2) for i in range(10)]
        assert count_extrema(series) == 8

    def test_int_series(self):
        assert count_extrema([1, 3, 2, 2, 5]) == 2
        assert count_extrema(np.array([4, 1, 1, 1, 4, 0])) == 2

    def test_negative_values(self):
        assert count_extrema([-1.0, -3.0, -2.0, -5.0]) == 2
        assert count_extrema([-2, 0, -2, 0]) == 2

    def test_plateaus_at_both_ends(self):
        assert count_extrema([2.0, 2.0, 5.0, 1.0, 1.0]) == 1
        assert count_extrema([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]) == 0
        assert count_extrema([3, 3, 1, 1, 3, 3]) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(min_value=-5, max_value=5), max_size=25)
        | st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.25, 1.0, 3.0]), max_size=25)
    )
    def test_matches_oracle(self, values):
        assert count_extrema(values) == oracle_count_extrema(values)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=-5, max_value=5), max_size=25))
    def test_bound_and_integer_monotone_invariance(self, values):
        series = [float(v) for v in values]
        count = count_extrema(series)
        assert 0 <= count <= max(0, len(series) - 2)
        for transform in (lambda v: 3 * v + 7, lambda v: v**3):
            assert count_extrema([float(transform(v)) for v in values]) == count


class TestWindows:
    def test_windows_are_utc_days_and_contiguous(self):
        messages = [
            msg("m1", "a", 1.0, mentions=("b",)),
            # nothing on day 2
            msg("m2", "c", 49.0, mentions=("d",)),
        ]
        windows = window_series(graph_of(messages))
        assert len(windows) == 3
        starts = window_starts(windows)
        assert starts[0] == BASE
        assert all(start.hour == 0 for start in starts)
        assert windows.node_counts.tolist() == [2, 0, 2]
        assert windows.centralization[1] == 0.0

    def test_message_on_boundary_goes_to_later_window(self):
        messages = [
            msg("m1", "a", 0.0, mentions=("b",)),
            msg("m2", "c", 24.0, mentions=("d",)),
        ]
        windows = window_series(graph_of(messages))
        assert len(windows) == 2
        assert windows.node_counts[1] == 2

    def test_reply_across_a_boundary_resolves_only_for_contacts(self):
        # b's reply on day 2 points at a's day-1 message.  The day-2 window
        # resolves references inside itself only: no arc, and a is no node
        # there.  Contacts resolve against the whole partition,
        # so the reply still answers a's mention, 24 hours later.
        messages = [
            msg("m1", "a", 1.0, mentions=("b",)),
            msg("m2", "b", 25.0, reply_to="m1"),
        ]
        graph = graph_of(messages)
        assert graph.simple_edge_count == 1
        windows = window_series(graph)
        assert windows.node_counts.tolist() == [2, 1]
        assert windows.edge_counts.tolist() == [1, 0]
        assert window_scores(windows, graph) == []  # b alone scores 0
        assert art_hours(graph) == pytest.approx(24.0)
        assert nudges(graph) == pytest.approx(1.0)

    def test_custom_width(self):
        messages = [
            msg("m1", "a", 0.0),
            msg("m2", "a", 11.0),
        ]
        assert len(window_series(graph_of(messages), window_hours=6.0)) == 2

    def test_empty_and_bad_width(self):
        assert len(window_series(graph_of([]))) == 0
        with pytest.raises(ValueError):
            window_series(graph_of([msg("m1", "a")]), window_hours=0.0)

    @pytest.mark.parametrize(
        ("span_hours", "window_hours"),
        [(2 * 365 * 24.0, 0.001), (float(MAX_WINDOWS), 1.0)],
    )
    def test_too_many_windows_refused_before_building(self, span_hours, window_hours):
        # The second span is one window past the cap.
        messages = [msg("m1", "a", 0.0), msg("m2", "b", span_hours)]
        with pytest.raises(ConfigError, match="window_hours") as raised:
            window_series(graph_of(messages), window_hours=window_hours)
        count = int(span_hours / window_hours) + 1
        assert f" {count} windows" in str(raised.value)

    def test_one_brandes_call_per_series(self, monkeypatch):
        # Four days, three of them with a star or a path to score, one empty.
        messages = day_star(0, "h", ["a", "b", "c"]) + day_star(3, "h", ["a", "d"])
        messages.append(msg("p1", "x", 25.0, mentions=("y",)))
        messages.append(msg("p2", "y", 25.5, mentions=("z",)))
        calls = []
        kernel = _kernels.betweenness_csr

        def counted(*args):
            calls.append(args[2])
            return kernel(*args)

        monkeypatch.setattr(_kernels, "betweenness_csr", counted)
        graph = graph_of(messages)
        windows = window_series(graph)
        assert windows.node_counts.tolist() == [4, 3, 0, 3]
        assert window_scores(windows, graph) == [(0, "h", 3.0), (1, "y", 1.0), (3, "h", 1.0)]
        assert calls == [10]  # one call over the nodes of all four windows


def day_star(day, hub, spokes):
    """One hub mentioned by `spokes` fresh actors during UTC day `day`."""
    out = []
    for i, spoke in enumerate(spokes):
        out.append(
            msg(f"d{day}s{i}", spoke, 24.0 * day + 1.0 + i * 0.01, mentions=(hub,))
        )
    return out


@st.composite
def windowed_corpora(draw):
    """Mentions among a few actors over 1 to 6 UTC days.

    Days with no message are empty windows, and an actor posts or is
    mentioned on some days only.
    """
    days = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=24))
    messages = []
    for i, day in enumerate(days):
        hours = 24.0 * day + draw(st.sampled_from([0.0, 1.5, 12.0, 23.5]))
        author = draw(st.sampled_from("abcdef"))
        mentions = tuple(draw(st.lists(st.sampled_from("abcdefg"), max_size=3)))
        messages.append(msg(f"m{i:02d}", author, hours, mentions=mentions))
    return messages


class TestRotatingLeadership:
    def test_fewer_than_three_windows_is_zero(self):
        messages = [
            msg("m1", "a", 1.0, mentions=("b",)),
            msg("m2", "b", 30.0, mentions=("a",)),
        ]
        assert rotating_leadership(window_series(graph_of(messages))) == 0

    def test_group_mode_counts_planted_alternation(self):
        # Alternate days between a 4-star (centralization 1) and a dyad
        # (centralization 0): series 1,0,1,0,1 has 3 interior extrema.
        messages = []
        for day in range(5):
            if day % 2 == 0:
                messages += day_star(day, "hub", [f"s{day}a", f"s{day}b", f"s{day}c", f"s{day}d"])
            else:
                messages.append(msg(f"d{day}", "u", 24.0 * day + 1.0, mentions=("v",)))
        windows = window_series(graph_of(messages))
        assert windows.centralization.tolist() == [1.0, 0.0, 1.0, 0.0, 1.0]
        assert rotating_leadership(windows, "group") == 3

    def test_actor_mode_tracks_individual_series(self):
        # Day 0 and 2: dyad a-b. Day 1: path a-b-c, so b's betweenness
        # series is 0,1,0 (one extremum); a and c stay flat.
        messages = [
            msg("m0", "a", 1.0, mentions=("b",)),
            msg("m1", "a", 25.0, mentions=("b",)),
            msg("m2", "c", 25.5, mentions=("b",)),
            msg("m3", "a", 49.0, mentions=("b",)),
        ]
        windows = window_series(graph_of(messages))
        assert rotating_leadership(windows, "actor") == 1
        assert rotating_leadership(windows, "group") == 1

    @settings(max_examples=150, deadline=None)
    @given(windowed_corpora())
    def test_matches_oracles_in_both_modes(self, messages):
        windows = window_series(graph_of(messages))
        expected = oracle_window_series(messages, 24.0)
        for mode in ("group", "actor"):
            assert rotating_leadership(windows, mode) == oracle_rotating_leadership(
                expected, mode
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            rotating_leadership([], "chaos")

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from("abcde"), st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]), max_size=5
            ),
            max_size=12,
        )
    )
    def test_actor_mode_ignores_zero_scores(self, scores):
        # An absent actor reads 0.0, so dropping zeros changes no actor's series.
        # Actor "a" is node 0, "b" node 1 and so on.
        def series(dicts):
            entries = sorted(
                (k, "abcde".index(a), v) for k, d in enumerate(dicts) for a, v in d.items()
            )
            windows = np.array([k for k, _, _ in entries], dtype=np.int64)
            nodes = np.array([node for _, node, _ in entries], dtype=np.int64)
            values = np.array([v for _, _, v in entries], dtype=np.float64)
            counts = np.zeros(len(dicts), dtype=np.int64)
            return WindowSeries(
                0, 3600.0, counts, counts, np.zeros(len(dicts)), windows, nodes, values
            )

        dense = [{actor: d.get(actor, 0.0) for actor in "abcde"} for d in scores]
        sparse = [{actor: v for actor, v in d.items() if v} for d in scores]
        expected = oracle_rotating_leadership(
            [OracleWindow(BASE, 0, 0, d, 0.0) for d in dense], "actor"
        )
        assert rotating_leadership(series(dense), "actor") == expected
        assert rotating_leadership(series(sparse), "actor") == expected


class TestInteractivityScores:
    def test_bundle_matches_parts(self):
        messages = (
            exchange("p", "a", "b", 1.0, 2.0)
            + exchange("q", "c", "d", 25.0, 2.0)
            + exchange("r", "a", "d", 49.0, 2.0)
        )
        plain = [m.message if hasattr(m, "message") else m for m in messages]
        graph = graph_of(plain)
        windows = window_series(graph)
        scores = interactivity_scores(graph, windows)
        assert scores["activity"] == activity(graph)
        assert scores["actor_count"] == 4
        assert scores["avg_activity_per_actor"] == pytest.approx(
            activity(graph) / 4
        )
        assert scores["art_hours"] == pytest.approx(2.0)
        assert scores["nudges"] == pytest.approx(1.0)
        assert scores["rotating_leadership"] == rotating_leadership(windows)

"""Tests for the synthetic corpus generator.

The generator plants exact structure: one global hub with fresh spokes in
every window, isolated dyad pairs, or a dense core, and every planted
contact gets answered at exactly the configured lag.  The expected metrics
therefore have closed forms and most assertions here are exact.
"""

import functools
import hashlib
import json
from datetime import datetime, timedelta, timezone

import pytest

from conftest import art_hours, graph_of, nudges, oracle_sentiment
from valuescope import (
    ConfigError,
    OrientationPlant,
    PolarLexicon,
    SynthSpec,
    demo_spec,
    density,
    filter_and_partition,
    generate_corpus,
    group_betweenness_centralization,
    group_degree_centralization,
    oscillation_series,
    parse_corpus,
    rotating_leadership,
    star_plan,
    window_series,
    write_corpus,
)
from valuescope.corpus import OrientationLexicon
from valuescope.dynamics import MAX_WINDOWS

BASE = datetime(2021, 3, 1, tzinfo=timezone.utc)

DEMO_BUDGET = {
    "Customers": 260,
    "Employees": 160,
    "EconomicFinancialGrowth": 140,
    "Excellence": 200,
    "Citizenship": 130,
    "SocialResponsibility": 120,
}


def single_plant_spec(plant, days=7, seed=3):
    return SynthSpec(
        orientations={"Customers": plant}, start=BASE, days=days, seed=seed
    )


def parsed_messages(records):
    """Round-trip records through the NDJSON parser, asserting nothing drops."""
    result = parse_corpus(json.dumps(r) for r in records)
    assert result.skipped == 0
    assert len(result.messages) == len(records)
    return result.messages


def handles(records):
    names = {r["author"] for r in records}
    for r in records:
        names.update(r["mentions"])
    return names


@pytest.fixture(scope="module")
def demo_records():
    return generate_corpus(demo_spec())


@pytest.fixture(scope="module")
def demo_partitions(demo_records):
    table = parsed_messages(demo_records)
    partitions, discarded = filter_and_partition(table, OrientationLexicon.default())
    assert discarded == 0
    return {o: [demo_records[row]["text"] for row in rows.tolist()]
            for o, rows in partitions.items()}


class TestOscillationSeries:
    def test_no_period_means_flat_zero(self):
        assert oscillation_series(None, 5) == [0, 0, 0, 0, 0]

    def test_triangle_wave(self):
        assert oscillation_series(4, 6) == [1, 2, 3, 2, 1, 2]

    def test_period_two_alternates(self):
        assert oscillation_series(2, 5) == [1, 2, 1, 2, 1]

    @pytest.mark.parametrize("period", [2, 3, 7])
    def test_range_spans_one_to_half_period(self, period):
        series = oscillation_series(period, 3 * period)
        assert min(series) == 1
        assert max(series) == 1 + period // 2


class TestStarPlan:
    def test_budgets_add_up(self):
        plant = OrientationPlant(
            actors=217, messages=360, shape="star", oscillation_period=6
        )
        plan = star_plan(plant, 24)
        assert len(plan) == 24
        assert [d for _, d, _ in plan] == oscillation_series(6, 24)
        assert sum(s for s, _, _ in plan) == 217 - 1 - 2 * 60
        produced = sum(2 * (s + d) + p for s, d, p in plan)
        assert produced == 360

    def test_even_spoke_split_without_oscillation(self):
        plant = OrientationPlant(actors=50, messages=120, shape="star")
        plan = star_plan(plant, 7)
        spokes = [s for s, _, _ in plan]
        plains = [p for _, _, p in plan]
        assert spokes == [7] * 7
        assert all(d == 0 for _, d, _ in plan)
        assert sum(plains) == 120 - 98
        assert max(plains) - min(plains) <= 1

    def test_plan_is_pure_arithmetic(self):
        plant = OrientationPlant(
            actors=61, messages=260, shape="star", oscillation_period=4
        )
        assert star_plan(plant, 6) == star_plan(plant, 6)

    def test_too_few_actors(self):
        plant = OrientationPlant(actors=7, messages=100, shape="star")
        with pytest.raises(ValueError, match="too few actors"):
            star_plan(plant, 7)

    def test_message_budget_too_small(self):
        plant = OrientationPlant(actors=50, messages=97, shape="star")
        with pytest.raises(ValueError, match="message budget below"):
            star_plan(plant, 7)


def minimal_spec(**plant_kwargs):
    body = dict(actors=20, messages=60, shape="star")
    body.update(plant_kwargs)
    return SynthSpec(
        orientations={"Employees": OrientationPlant(**body)},
        start=BASE,
        days=3,
        seed=1,
    )


class TestSpecValidation:
    def test_demo_spec_is_valid(self):
        demo_spec().validate()

    def test_minimal_spec_is_valid(self):
        minimal_spec().validate()

    def test_naive_start_becomes_utc(self):
        spec = SynthSpec(
            orientations={"Employees": OrientationPlant(actors=20, messages=60)},
            start=datetime(2021, 3, 1),
        )
        assert spec.start.tzinfo is timezone.utc

    def test_start_off_window_boundary(self):
        spec = minimal_spec()
        spec.start = BASE + timedelta(hours=3)
        with pytest.raises(ValueError, match="window boundary"):
            spec.validate()

    def test_days_must_be_positive(self):
        spec = minimal_spec()
        spec.days = 0
        with pytest.raises(ValueError, match="days"):
            spec.validate()

    def test_window_hours_must_be_positive(self):
        spec = minimal_spec()
        spec.window_hours = 0.0
        with pytest.raises(ValueError, match="positive"):
            spec.validate()

    def test_unknown_orientation(self):
        spec = minimal_spec()
        spec.orientations["Vibes"] = OrientationPlant(actors=20, messages=60)
        with pytest.raises(ValueError, match="unknown orientations"):
            spec.validate()

    def test_empty_spec(self):
        spec = minimal_spec()
        spec.orientations = {}
        with pytest.raises(ValueError, match="plants no orientation"):
            spec.validate()

    @pytest.mark.parametrize(
        "plant_kwargs, message",
        [
            (dict(shape="ring"), "unknown shape"),
            (dict(actors=1), "at least 2 actors"),
            (dict(messages=0), "at least 1 message"),
            (dict(sentiment_bias=1.5), "sentiment_bias"),
            (dict(vocab_size=5), "vocab_size"),
            (dict(response_lag_hours=0.0), "response lag"),
            (dict(response_lag_hours=9.0), "response lag"),
            (dict(oscillation_period=1), "oscillation period"),
        ],
    )
    def test_plant_field_errors(self, plant_kwargs, message):
        with pytest.raises(ValueError, match=message):
            minimal_spec(**plant_kwargs).validate()

    def test_window_count_is_bounded(self):
        # Enough actors for a star in each of MAX_WINDOWS daily windows.
        spec = minimal_spec(actors=MAX_WINDOWS + 1, messages=2 * MAX_WINDOWS)
        spec.days = MAX_WINDOWS
        spec.window_hours = 24.0
        spec.validate()
        spec.window_hours = 12.0
        with pytest.raises(ValueError, match=f" {2 * MAX_WINDOWS} windows"):
            spec.validate()

    @pytest.mark.parametrize(
        "plant_kwargs, message",
        [
            (dict(actors=3), "too few actors for a star in every window"),
            (dict(actors=5, shape="fragmented-dyads"), "too few actors for a dyad in every window"),
            (dict(messages=17, shape="dense-core"), "message budget below planted interaction count"),
            (dict(messages=18, shape="dense-core"), "message budget below planted interaction count"),
            (dict(messages=15, shape="fragmented-dyads"),
             "message budget below planted interaction count"),
        ],
    )
    def test_plant_that_cannot_fill_every_window_is_refused(self, plant_kwargs, message):
        with pytest.raises(ValueError, match=f"^Employees: {message}$"):
            minimal_spec(**plant_kwargs).validate()

    def test_span_not_a_multiple_of_the_window_is_refused(self):
        spec = minimal_spec(response_lag_hours=1.0)
        spec.start = datetime(2021, 1, 3, 20, tzinfo=timezone.utc)
        spec.days = 1
        spec.window_hours = 5.0
        with pytest.raises(ValueError, match=r"^days \* 24 must be a positive multiple of window_hours$"):
            spec.validate()

    def test_run_must_end_by_the_year_9999(self):
        spec = minimal_spec()
        spec.start = datetime(9999, 12, 30, tzinfo=timezone.utc)
        with pytest.raises(ValueError, match="year 9999"):
            spec.validate()
        spec.start = datetime(9999, 12, 29, tzinfo=timezone.utc)
        records = generate_corpus(spec)
        assert records[-1]["created_at"].startswith("9999-12-31T")

    def test_n_windows(self):
        assert demo_spec().n_windows == 6
        spec = minimal_spec()
        spec.window_hours = 12.0
        assert spec.n_windows == 6

    def test_n_windows_requires_divisible_span(self):
        spec = minimal_spec()
        spec.window_hours = 7.0
        with pytest.raises(ValueError, match="multiple of window_hours"):
            spec.n_windows


class TestSpecFile:
    def write_spec(self, tmp_path, body):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        return str(path)

    def test_round_trip(self, tmp_path):
        body = {
            "orientations": {
                "Employees": {"actors": 30, "messages": 90, "shape": "star"},
                "SocialResponsibility": {
                    "actors": 20,
                    "messages": 60,
                    "shape": "fragmented-dyads",
                    "sentiment_bias": 0.4,
                },
            },
            "start": "2021-03-01T00:00:00Z",
            "days": 3,
            "seed": 9,
        }
        spec = SynthSpec.from_file(self.write_spec(tmp_path, body))
        assert spec.start == BASE
        assert spec.days == 3
        assert spec.seed == 9
        assert spec.orientations["Employees"].actors == 30
        assert spec.orientations["SocialResponsibility"].sentiment_bias == 0.4
        assert spec.n_windows == 3

    def test_defaults(self, tmp_path):
        body = {"orientations": {"Employees": {"actors": 20, "messages": 60}}}
        spec = SynthSpec.from_file(self.write_spec(tmp_path, body))
        assert spec.start == datetime(2021, 1, 4, tzinfo=timezone.utc)
        assert spec.days == 7
        assert spec.window_hours == 24.0
        assert spec.seed == 0

    def test_unknown_plant_key(self, tmp_path):
        body = {"orientations": {"Employees": {"actors": 20, "messages": 60, "mood": 1}}}
        with pytest.raises(ValueError, match="unknown plant keys"):
            SynthSpec.from_file(self.write_spec(tmp_path, body))

    def test_unknown_spec_key(self, tmp_path):
        body = {"orientations": {"Employees": {"actors": 20, "messages": 60}}, "dayz": 30}
        with pytest.raises(ConfigError, match=r"unknown spec keys \['dayz'\]"):
            SynthSpec.from_file(self.write_spec(tmp_path, body))

    def test_root_must_be_object(self, tmp_path):
        with pytest.raises(ValueError, match="JSON object"):
            SynthSpec.from_file(self.write_spec(tmp_path, [1, 2]))

    def test_orientations_required(self, tmp_path):
        with pytest.raises(ValueError, match="orientations"):
            SynthSpec.from_file(self.write_spec(tmp_path, {"days": 3}))


class TestDeterminism:
    def test_same_seed_same_records(self):
        assert generate_corpus(demo_spec(5)) == generate_corpus(demo_spec(5))

    def test_write_is_byte_stable(self, tmp_path):
        records = generate_corpus(demo_spec(5))
        a = tmp_path / "a.ndjson"
        b = tmp_path / "b.ndjson"
        write_corpus(records, str(a))
        write_corpus(generate_corpus(demo_spec(5)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_texts_not_structure(self):
        base = generate_corpus(demo_spec(5))
        other = generate_corpus(demo_spec(6))
        assert base != other
        assert [r["id"] for r in base] == [r["id"] for r in other]
        assert [r["created_at"] for r in base] == [r["created_at"] for r in other]


class TestGeneratedCorpus:
    def test_total_budget(self, demo_records):
        assert len(demo_records) == sum(DEMO_BUDGET.values())

    def test_ids_unique(self, demo_records):
        ids = [r["id"] for r in demo_records]
        assert len(set(ids)) == len(ids)

    def test_record_shape(self, demo_records):
        expected_keys = {
            "id", "author", "created_at", "text",
            "reply_to", "retweet_of", "mentions",
        }
        assert set(demo_records[0]) == expected_keys
        assert all(r["retweet_of"] is None for r in demo_records)

    def test_timestamps_inside_run(self, demo_records):
        spec = demo_spec()
        stamps = [
            datetime.fromisoformat(r["created_at"].replace("Z", "+00:00"))
            for r in demo_records
        ]
        assert min(stamps) >= spec.start
        assert max(stamps) < spec.start + timedelta(days=spec.days)

    def test_start_before_year_1000_round_trips(self):
        spec = minimal_spec()
        spec.start = datetime(500, 3, 1, tzinfo=timezone.utc)
        records = generate_corpus(spec)
        assert records[0]["created_at"].startswith("0500-03-01T")
        parsed_messages(records)

    def test_partition_matches_plants(self, demo_partitions):
        counts = {name: len(group) for name, group in demo_partitions.items()}
        assert counts == DEMO_BUDGET

    def test_texts_lead_with_the_planted_keyword(self, demo_partitions):
        lexicon = OrientationLexicon.default()
        for name, group in demo_partitions.items():
            keyword = " ".join(lexicon.phrases[name][0])
            assert all(text.startswith(keyword) for text in group)

    def test_actor_budgets(self, demo_records):
        spec = demo_spec()
        by_prefix = {
            "cust": "Customers",
            "empl": "Employees",
            "econ": "EconomicFinancialGrowth",
            "exce": "Excellence",
            "citi": "Citizenship",
            "soci": "SocialResponsibility",
        }
        groups = {name: [] for name in by_prefix.values()}
        for record in demo_records:
            groups[by_prefix[record["id"][:4]]].append(record)
        for name, plant in spec.orientations.items():
            seen = handles(groups[name])
            if plant.shape == "dense-core":
                # Core membership per exchange is sampled, so a core member
                # may in principle never be drawn.
                assert len(seen) <= plant.actors
                assert len(seen) >= plant.actors - 6
            else:
                assert len(seen) == plant.actors


def test_corpus_bytes_are_pinned(tmp_path):
    # An odd dyad plant whose spare actor posts in window 0, a dense core with
    # an odd interaction budget, so one core post, and an oscillating star.
    spec = SynthSpec(
        orientations={
            "Customers": OrientationPlant(actors=20, messages=60, shape="star", sentiment_bias=0.8,
                                          vocab_size=40, oscillation_period=2),
            "Citizenship": OrientationPlant(actors=15, messages=51, shape="dense-core",
                                            vocab_size=40),
            "SocialResponsibility": OrientationPlant(actors=13, messages=30,
                                                     shape="fragmented-dyads",
                                                     sentiment_bias=0.3, vocab_size=40),
        },
        start=BASE,
        days=3,
        seed=4,
    )
    records = generate_corpus(spec)
    assert any(r["author"] == "soci_spare" for r in records)
    path = tmp_path / "pinned.ndjson"
    write_corpus(records, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "13f16d800b18c272ffb90eac1f1888c19992d58671e1a1ed34c34f6ec16594db"


@pytest.fixture(scope="module")
def star_messages():
    plant = OrientationPlant(actors=50, messages=98, shape="star")
    return parsed_messages(generate_corpus(single_plant_spec(plant)))


class TestPlantedStar:
    def test_whole_run_graph_is_a_star(self, star_messages):
        graph = graph_of(star_messages)
        assert len(graph.nodes) == 50
        assert group_degree_centralization(graph) == 1.0
        assert group_betweenness_centralization(graph) == 1.0

    def test_response_time_equals_the_lag(self, star_messages):
        assert art_hours(graph_of(star_messages)) == 2.0

    def test_single_ping_exchanges(self, star_messages):
        assert nudges(graph_of(star_messages)) == 1.0

    def test_lag_is_configurable(self):
        plant = OrientationPlant(actors=50, messages=98, response_lag_hours=0.5)
        messages = parsed_messages(generate_corpus(single_plant_spec(plant)))
        assert art_hours(graph_of(messages)) == 0.5


@pytest.fixture(scope="module")
def dyad_messages():
    plant = OrientationPlant(actors=40, messages=90, shape="fragmented-dyads")
    return parsed_messages(generate_corpus(single_plant_spec(plant, days=5)))


class TestPlantedDyads:
    def test_graph_is_disjoint_pairs(self, dyad_messages):
        graph = graph_of(dyad_messages)
        assert len(graph.nodes) == 40
        assert graph.simple_edge_count == 20
        assert all(d == 1 for d in graph.degrees)

    def test_density_is_tiny(self, dyad_messages):
        graph = graph_of(dyad_messages)
        assert density(graph) == 20 / 780
        assert density(graph) < 0.05

    def test_nobody_brokers_anything(self, dyad_messages):
        graph = graph_of(dyad_messages)
        assert group_betweenness_centralization(graph) == 0.0

    def test_response_time_equals_the_lag(self, dyad_messages):
        assert art_hours(graph_of(dyad_messages)) == 2.0


@pytest.fixture(scope="module")
def core_records():
    plant = OrientationPlant(actors=40, messages=140, shape="dense-core")
    return generate_corpus(single_plant_spec(plant, days=5))


class TestPlantedDenseCore:
    def test_budget(self, core_records):
        assert len(core_records) == 140

    def test_core_traffic_is_answered(self, core_records):
        # Planted replies land at exactly the lag, but replies are contacts
        # too and the core may answer those hours later, so the mean is only
        # bounded below by something positive.
        messages = parsed_messages(core_records)
        art = art_hours(graph_of(messages))
        assert art is not None
        assert art > 0.0

    def test_core_is_denser_than_dyads(self, core_records, dyad_messages):
        core_graph = graph_of(parsed_messages(core_records))
        assert density(core_graph) > density(graph_of(dyad_messages))


class TestSentimentBias:
    def scorer(self):
        return functools.partial(oracle_sentiment, lexicon=PolarLexicon.default())

    def test_positive_bias_is_reached(self, demo_partitions):
        score = self.scorer()
        group = demo_partitions["Customers"]
        mean = sum(score(text) for text in group) / len(group)
        assert mean == pytest.approx(0.7, abs=0.06)

    def test_neutral_bias_is_exact(self, demo_partitions):
        score = self.scorer()
        group = demo_partitions["SocialResponsibility"]
        assert all(score(text) == 0.5 for text in group)

    def test_negative_bias_is_reached(self):
        plant = OrientationPlant(
            actors=50, messages=300, shape="star", sentiment_bias=0.3
        )
        records = generate_corpus(single_plant_spec(plant))
        score = self.scorer()
        mean = sum(score(r["text"]) for r in records) / len(records)
        assert mean == pytest.approx(0.3, abs=0.06)


@pytest.fixture(scope="module")
def oscillating_windows():
    plant = OrientationPlant(
        actors=217, messages=360, shape="star", oscillation_period=6
    )
    spec = single_plant_spec(plant, days=24, seed=5)
    messages = parsed_messages(generate_corpus(spec))
    return plant, window_series(graph_of(messages), 24.0)


class TestPlantedOscillation:
    def test_every_window_is_populated(self, oscillating_windows):
        _, windows = oscillating_windows
        assert len(windows) == 24
        assert (windows.node_counts > 0).all()

    def test_centralization_follows_the_dyad_wave(self, oscillating_windows):
        plant, windows = oscillating_windows
        # Each window holds a 4-spoke star plus k isolated dyads, so with
        # n = 5 + 2k nodes the hub's normalized betweenness, which equals
        # the group centralization here, is C(4,2) / ((n-1)(n-2)/2).
        expected = [
            12.0 / ((4 + 2 * k) * (3 + 2 * k))
            for _, k, _ in star_plan(plant, 24)
        ]
        actual = windows.centralization.tolist()
        assert actual == pytest.approx(expected, abs=1e-12)

    def test_group_extrema_match_the_planted_wave(self, oscillating_windows):
        # Dyad counts run [1,2,3,4,3,2] per period over four periods, and
        # centralization falls strictly as dyads rise.  Interior turning
        # points: four peaks (k=4) and three troughs (k=1 at the three
        # interior period seams), seven in total.
        _, windows = oscillating_windows
        assert rotating_leadership(windows) == 7

    def test_actor_extrema_stay_flat(self, oscillating_windows):
        # The hub scores C(4,2) in every window and everyone else scores
        # zero, so no individual series has a turning point.
        _, windows = oscillating_windows
        assert rotating_leadership(windows, mode="actor") == 0

"""End-to-end pipeline runs and the replay path.

The main fixture is a tiny corpus whose every downstream number was worked
out by hand; the assertions freeze that arithmetic.  Corpus layout:

  m1  alice 03-01 10:00  mentions bob    "quality check one"
  m2  bob   03-01 12:00  reply to m1     "quality check two"
  m3  carol 03-01 10:00  mentions dave   "quality rating three"
  m4  dave  03-01 13:00  mentions carol  "quality rating four"
  m5  erin  03-01 11:00                  "quality alone"
  m6  bob   03-02 10:00  reply to x99 (dangling), mentions alice
                                          "quality follow up"
  m7  erin  03-02 11:00                  "quality meets team spirit"
  m8  frank 03-02 12:00  mentions erin   "team spirit kickoff"
  m9  erin  03-02 14:00  reply to m8     "team spirit rules"
  m10 dave  03-01 20:00                  "nothing to see here"
  bad line: JSON record without a timestamp

Customers partition is m1..m7 (keyword "quality"), Employees is m7..m9
(keyword "team spirit"), m7 carries both, m10 is untagged.
"""

from __future__ import annotations

import json
import math
import os
import random
import tempfile
from datetime import timedelta
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASE, oracle_report, split_into_ranges
from reference_case import EXPECTED_HINTS
from valuescope import (
    CONNECTIVITY_METRICS,
    INTERACTIVITY_METRICS,
    LANGUAGE_METRICS,
    ConfigError,
    CorpusError,
    OrientationLexicon,
    PolarLexicon,
    RunConfig,
    build_graph,
    connectivity_scores,
    filter_and_partition,
    interactivity_scores,
    language_scores,
    load_corpus,
    replay_metrics,
    run_pipeline,
    window_series,
)
from valuescope import corpus as corpus_module
from valuescope import language as language_module
from valuescope.config import read_json_object
from valuescope.corpus import format_stamp
from valuescope.pipeline import dump_report, round6

FIXTURE_RECORDS = [
    {"id": "m1", "author": "alice", "created_at": "2021-03-01T10:00:00Z",
     "text": "quality check one", "mentions": ["bob"]},
    {"id": "m2", "author": "bob", "created_at": "2021-03-01T12:00:00Z",
     "text": "quality check two", "reply_to": "m1"},
    {"id": "m3", "author": "carol", "created_at": "2021-03-01T10:00:00Z",
     "text": "quality rating three", "mentions": ["dave"]},
    {"id": "m4", "author": "dave", "created_at": "2021-03-01T13:00:00Z",
     "text": "quality rating four", "mentions": ["carol"]},
    {"id": "m5", "author": "erin", "created_at": "2021-03-01T11:00:00Z",
     "text": "quality alone"},
    {"id": "m6", "author": "bob", "created_at": "2021-03-02T10:00:00Z",
     "text": "quality follow up", "reply_to": "x99", "mentions": ["alice"]},
    {"id": "m7", "author": "erin", "created_at": "2021-03-02T11:00:00Z",
     "text": "quality meets team spirit"},
    {"id": "m8", "author": "frank", "created_at": "2021-03-02T12:00:00Z",
     "text": "team spirit kickoff", "mentions": ["erin"]},
    {"id": "m9", "author": "erin", "created_at": "2021-03-02T14:00:00Z",
     "text": "team spirit rules", "reply_to": "m8"},
    {"id": "m10", "author": "dave", "created_at": "2021-03-01T20:00:00Z",
     "text": "nothing to see here"},
]

BAD_LINE = '{"id": "m11", "author": "x", "text": "no timestamp"}'

# Reference dictionary over all ten valid messages: 31 tokens, 19 distinct,
# add-one denominator 31 + 19 + 1 = 51.  Counts: quality 7, team 3, spirit 3,
# check 2, rating 2, everything else once.
_D = 51.0


def _expected_customers_complexity() -> float:
    # 21 tokens: quality x7, check x2, rating x2, team x1, spirit x1 and the
    # eight once-words one/two/three/four/alone/follow/up/meets.
    total = (
        7 * math.log(_D / 8)
        + 4 * math.log(_D / 3)
        + 2 * math.log(_D / 4)
        + 8 * math.log(_D / 2)
    )
    return total / 21


def _expected_employees_complexity() -> float:
    # 10 tokens: quality x1, team x3, spirit x3, meets/kickoff/rules once.
    total = math.log(_D / 8) + 6 * math.log(_D / 4) + 3 * math.log(_D / 2)
    return total / 10


EXPECTED_CUSTOMERS = {
    "density": 0.2,
    "degree_centralization": round6(1 / 12),
    "betweenness_centralization": 0.0,
    "art_hours": 2.5,
    "nudges": 1.0,
    "actor_count": 5.0,
    "activity": 13.0,
    "avg_activity_per_actor": 2.6,
    "rotating_leadership": 0.0,
    "sentiment": 0.5,
    "emotionality": 0.0,
    "complexity": round6(_expected_customers_complexity()),
}

EXPECTED_EMPLOYEES = {
    "density": 1.0,
    "degree_centralization": 0.0,
    "betweenness_centralization": 0.0,
    "art_hours": 2.0,
    "nudges": 1.0,
    "actor_count": 2.0,
    "activity": 5.0,
    "avg_activity_per_actor": 2.5,
    "rotating_leadership": 0.0,
    "sentiment": 0.5,
    "emotionality": 0.0,
    "complexity": round6(_expected_employees_complexity()),
}


def write_corpus_file(path, records=FIXTURE_RECORDS, extra_lines=(BAD_LINE,), order=None):
    lines = [json.dumps(r) for r in records] + list(extra_lines)
    if order is not None:
        order.shuffle(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture()
def fixture_report(tmp_path):
    corpus = tmp_path / "corpus.ndjson"
    write_corpus_file(corpus)
    cfg = RunConfig(corpus=str(corpus), output_dir=str(tmp_path / "out"))
    return run_pipeline(cfg), tmp_path / "out"


def entry_for(report, orientation):
    for entry in report["orientations"]:
        if entry["orientation"] == orientation:
            return entry
    raise AssertionError(f"no entry for {orientation}")


class TestFixtureRun:
    def test_run_counts(self, fixture_report):
        report, _ = fixture_report
        assert report["mode"] == "run"
        assert report["run"] == {
            "corpus_size": 10,
            "skipped_records": 1,
            "discarded_untagged": 1,
            "dangling_references": 1,
            "window_count": 2,
            "windows_per_orientation": {
                "Customers": 2,
                "Employees": 1,
                "EconomicFinancialGrowth": 0,
                "Excellence": 0,
                "Citizenship": 0,
                "SocialResponsibility": 0,
            },
        }

    def test_orientations_in_canonical_order(self, fixture_report):
        report, _ = fixture_report
        assert [e["orientation"] for e in report["orientations"]] == [
            "Customers",
            "Employees",
            "EconomicFinancialGrowth",
            "Excellence",
            "Citizenship",
            "SocialResponsibility",
        ]

    def test_customers_metrics(self, fixture_report):
        report, _ = fixture_report
        assert entry_for(report, "Customers")["metrics"] == EXPECTED_CUSTOMERS

    def test_employees_metrics(self, fixture_report):
        report, _ = fixture_report
        assert entry_for(report, "Employees")["metrics"] == EXPECTED_EMPLOYEES

    def test_empty_orientation_has_no_scores(self, fixture_report):
        report, _ = fixture_report
        entry = entry_for(report, "Citizenship")
        assert all(v is None for v in entry["metrics"].values())
        assert entry["composites"] == {"connectivity": None, "interactivity": None}
        assert entry["classification"] is None

    def test_normalized_values(self, fixture_report):
        report, _ = fixture_report
        mm_c = {
            name: cell["mm"]
            for name, cell in entry_for(report, "Customers")["normalized"].items()
        }
        mm_e = {
            name: cell["mm"]
            for name, cell in entry_for(report, "Employees")["normalized"].items()
        }
        # Two present values per metric: one orientation pins 0, the other 1,
        # except where both sides tie and the scale degenerates to 0.5.
        assert mm_c == {
            "density": 0.0,
            "degree_centralization": 1.0,
            "betweenness_centralization": 0.5,
            "art_hours": 1.0,
            "nudges": 0.5,
            "actor_count": 1.0,
            "activity": 1.0,
            "avg_activity_per_actor": 1.0,
            "rotating_leadership": 0.5,
            "sentiment": 0.5,
            "emotionality": 0.5,
            "complexity": 0.0,
        }
        assert mm_e["density"] == 1.0
        assert mm_e["complexity"] == 1.0
        assert mm_e["art_hours"] == 0.0

    def test_art_direction_flipped_in_directed_view(self, fixture_report):
        report, _ = fixture_report
        normalized = entry_for(report, "Customers")["normalized"]
        assert normalized["art_hours"] == {"mm": 1.0, "directed": 0.0}
        assert normalized["activity"] == {"mm": 1.0, "directed": 1.0}

    def test_composites_bands_and_classes(self, fixture_report):
        report, _ = fixture_report
        customers = entry_for(report, "Customers")
        employees = entry_for(report, "Employees")

        # Customers: conn mean{0, 1, 0.5}, inter mean{0, .5, 1, 1, 1, .5}
        assert customers["composites"] == {
            "connectivity": 0.5,
            "interactivity": round6(4 / 6),
        }
        assert customers["bands"] == {
            "connectivity": "Intermediate",
            "interactivity": "High",
        }
        assert customers["attitude"] == "neutral"
        assert customers["classification"] == "ActiveNeutralOrNegative"
        assert customers["label"] == "Active but with neutral or negative feelings"
        assert customers["strategy_hint"] == EXPECTED_HINTS["ActiveNeutralOrNegative"]
        assert customers["warnings"] == []

        # Employees: conn mean{1, 0, 0.5}, inter mean{1, .5, 0, 0, 0, .5}
        assert employees["composites"] == {
            "connectivity": 0.5,
            "interactivity": round6(2 / 6),
        }
        assert employees["bands"]["interactivity"] == "Intermediate"
        assert employees["classification"] == "Latent"
        assert employees["strategy_hint"] == EXPECTED_HINTS["Latent"]

    def test_output_files_written(self, fixture_report):
        report, out_dir = fixture_report
        report_path = out_dir / "report.json"
        metrics_path = out_dir / "metrics.csv"
        assert report_path.exists() and metrics_path.exists()
        on_disk = json.loads(report_path.read_text())
        assert on_disk == report
        lines = metrics_path.read_text().splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("orientation,density,")
        assert lines[1].startswith("Customers,0.2,")


def test_each_layer_returns_exactly_its_metric_names(tmp_path):
    """The three layers fill ``MetricVector``, the one list of the twelve names."""
    corpus = tmp_path / "corpus.ndjson"
    write_corpus_file(corpus)
    table = load_corpus(str(corpus)).messages
    partitions, _ = filter_and_partition(table, OrientationLexicon.default())
    customers, empty = partitions["Customers"], partitions["Citizenship"]
    assert customers.size and not empty.size
    graph = build_graph(table, customers)
    layers = [
        (connectivity_scores(graph), CONNECTIVITY_METRICS),
        (interactivity_scores(graph, window_series(graph)), INTERACTIVITY_METRICS),
        (language_scores(table, customers, PolarLexicon.default(), None), LANGUAGE_METRICS),
        (language_scores(table, empty, PolarLexicon.default(), None), LANGUAGE_METRICS),
    ]
    for scores, names in layers:
        assert set(scores) == set(names)


# Phrases of every default orientation, polar words and filler; a text joins
# a few, so many messages carry several orientations.
_PHRASES = (
    "quality", "customer trust", "team spirit", "financial strength", "leadership",
    "integrity", "social responsibility", "good", "bad", "love", "the", "plan",
)
_MALFORMED_LINES = (
    "{", "[1, 2]", "quality", '{"id": "x"}',
    '{"id": "late", "author": "a", "created_at": "soon", "text": "quality"}',
    '{"id": "self", "author": "a", "created_at": "2021-03-01T00:00:00Z", '
    '"text": "quality", "reply_to": "self"}',
)


@st.composite
def report_inputs(draw):
    """NDJSON lines from 3 to 6 authors, ``RunConfig`` options and a byte-range count.

    Stamps fall in 1 to 4 windows from a window start, so orientations span
    different window counts; references point inside, across and outside
    orientations and outside the corpus, and malformed lines are mixed in.
    """
    window_hours = draw(st.sampled_from([6.0, 24.0, 36.0]))  # BASE starts a window of each
    minutes = int(window_hours * 60) * draw(st.integers(1, 4))
    authors = draw(st.lists(st.sampled_from("abcdef"), min_size=3, max_size=6, unique=True))
    count = draw(st.integers(3, 14))
    ids = [f"m{i:02d}" for i in range(count)]
    references = st.none() | st.sampled_from([*ids, "gone"])
    lines = []
    for ident in ids:
        record = {
            "id": ident,
            "author": draw(st.sampled_from(authors)),
            "created_at": format_stamp(BASE + timedelta(minutes=draw(st.integers(0, minutes - 1)))),
            "text": " ".join(draw(st.lists(st.sampled_from(_PHRASES), min_size=1, max_size=4))),
            "mentions": draw(st.lists(st.sampled_from([*authors, "outsider"]), max_size=2)),
        }
        for key in ("reply_to", "retweet_of"):
            target = draw(references)
            if target is not None and target != ident:
                record[key] = target
        lines.append(json.dumps(record))
    for line in draw(st.lists(st.sampled_from(_MALFORMED_LINES), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    options = {
        "window_hours": window_hours,
        "gbco_mode": draw(st.sampled_from(["group", "actor"])),
        "response_cutoff_hours": draw(st.sampled_from([None, 1.0, 12.0])),
    }
    return lines, options, draw(st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(report_inputs())
def test_report_matches_the_composed_oracles(inputs):
    """The report, less ``config``, and every window CSV equal the oracles' on K byte ranges."""
    lines, options, ranges = inputs
    with tempfile.TemporaryDirectory() as work:
        corpus, out = os.path.join(work, "corpus.ndjson"), os.path.join(work, "out")
        with open(corpus, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
        cfg = RunConfig(corpus=corpus, output_dir=out, window_csv=True, **options)
        with pytest.MonkeyPatch.context() as patch:
            split_into_ranges(patch, corpus, ranges)
            report = run_pipeline(cfg)
        expected, window_csvs = oracle_report(lines, cfg)
        del report["config"]
        assert dump_report(report) == dump_report(expected)
        for orientation, expected_csv in window_csvs.items():
            with open(os.path.join(out, f"windows_{orientation}.csv"), "rb") as handle:
                assert handle.read() == expected_csv, orientation


class TestRunVariants:
    def test_byte_determinism_under_shuffle(self, tmp_path):
        corpus = tmp_path / "corpus.ndjson"
        cfg = RunConfig(corpus=str(corpus), output_dir=str(tmp_path / "out"))
        write_corpus_file(corpus, order=random.Random(1))
        first = dump_report(run_pipeline(cfg))
        write_corpus_file(corpus, order=random.Random(2))
        second = dump_report(run_pipeline(cfg))
        assert first == second

    def test_window_count_is_the_most_windows_of_any_orientation(self, tmp_path):
        corpus = tmp_path / "spans.ndjson"
        records = [
            {"id": "c1", "author": "alice", "created_at": "2021-03-01T10:00:00Z",
             "text": "quality first", "mentions": ["bob"]},
            {"id": "c2", "author": "bob", "created_at": "2021-03-01T12:00:00Z",
             "text": "quality second", "reply_to": "c1"},
            {"id": "e1", "author": "erin", "created_at": "2021-03-01T11:00:00Z",
             "text": "team spirit kickoff", "mentions": ["frank"]},
            {"id": "e2", "author": "frank", "created_at": "2021-03-04T09:00:00Z",
             "text": "team spirit again", "reply_to": "e1"},
        ]
        write_corpus_file(corpus, records=records, extra_lines=())
        cfg = RunConfig(corpus=str(corpus), output_dir=str(tmp_path / "out"))
        run = run_pipeline(cfg)["run"]
        per_orientation = run["windows_per_orientation"]
        assert per_orientation["Customers"] == 1
        assert per_orientation["Employees"] == 4
        assert run["window_count"] == per_orientation["Employees"]

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "empty.ndjson"
        corpus.write_text("")
        cfg = RunConfig(corpus=str(corpus), output_dir=str(tmp_path / "out"))
        report = run_pipeline(cfg)
        assert report["run"]["corpus_size"] == 0
        assert report["run"]["window_count"] == 0
        for entry in report["orientations"]:
            assert entry["classification"] is None

    def test_single_orientation_cannot_normalize(self, tmp_path):
        corpus = tmp_path / "solo.ndjson"
        records = [
            {"id": "s1", "author": "a", "created_at": "2021-03-01T10:00:00Z",
             "text": "quality", "mentions": ["b"]},
            {"id": "s2", "author": "b", "created_at": "2021-03-01T12:00:00Z",
             "text": "quality too", "reply_to": "s1"},
        ]
        write_corpus_file(corpus, records=records, extra_lines=())
        cfg = RunConfig(corpus=str(corpus), output_dir=str(tmp_path / "out"))
        report = run_pipeline(cfg)
        customers = entry_for(report, "Customers")
        assert customers["metrics"]["density"] == 1.0
        assert all(cell["mm"] is None for cell in customers["normalized"].values())
        assert customers["composites"]["interactivity"] is None
        assert customers["classification"] is None

    def test_duplicate_id_raises(self, tmp_path):
        corpus = tmp_path / "dup.ndjson"
        record = {"id": "m1", "author": "a",
                  "created_at": "2021-03-01T10:00:00Z", "text": "quality"}
        corpus.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        cfg = RunConfig(corpus=str(corpus), output_dir=str(tmp_path / "out"))
        with pytest.raises(CorpusError):
            run_pipeline(cfg)

    def test_missing_corpus_path_rejected(self):
        with pytest.raises(ConfigError):
            run_pipeline(RunConfig())

    def test_custom_scorer_changes_sentiment(self, tmp_path):
        corpus = tmp_path / "corpus.ndjson"
        write_corpus_file(corpus)
        cfg = RunConfig(corpus=str(corpus), output_dir=str(tmp_path / "out"))
        report = run_pipeline(cfg, scorer=lambda text: 0.9)
        assert entry_for(report, "Customers")["metrics"]["sentiment"] == 0.9
        assert entry_for(report, "Customers")["attitude"] == "positive"

    def test_each_message_is_tokenized_once(self, tmp_path, monkeypatch):
        calls = []
        original = corpus_module.tokenize

        def counting_tokenize(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(corpus_module, "tokenize", counting_tokenize)
        monkeypatch.setattr(language_module, "tokenize", counting_tokenize)
        corpus = tmp_path / "corpus.ndjson"
        write_corpus_file(corpus)
        run_pipeline(RunConfig(corpus=str(corpus), output_dir=str(tmp_path / "out")))

        data = resources.files("valuescope.data")
        phrases = json.loads(data.joinpath("orientation_lexicon.json").read_text())
        polar = json.loads(data.joinpath("sentiment_lexicon.json").read_text())
        lexicon_terms = sum(map(len, phrases.values())) + sum(map(len, polar.values()))
        texts = [r["text"] for r in FIXTURE_RECORDS]
        assert len(calls) == len(texts) + lexicon_terms
        assert all(calls.count(text) == 1 for text in texts)

    @pytest.mark.parametrize(
        "first, second",
        [
            (1.5, -0.5),
            (float("nan"), 0.5),
            (float("inf"), 0.5),
            ("0.5", 0.5),
            (None, 0.5),
            (True, 0.5),
            (False, 1.0),
        ],
    )
    def test_scorer_output_is_checked_per_message(self, tmp_path, first, second):
        # 1.5 and -0.5 average to a valid 0.5; each is still refused.
        corpus = tmp_path / "corpus.ndjson"
        write_corpus_file(corpus)
        cfg = RunConfig(corpus=str(corpus), output_dir=str(tmp_path / "out"))
        outputs = {"quality check one": first, "quality check two": second}
        with pytest.raises(ValueError, match="message 'm1'"):
            run_pipeline(cfg, scorer=lambda text: outputs.get(text, 0.5))

    def test_window_csv_and_graph_exports(self, tmp_path):
        corpus = tmp_path / "corpus.ndjson"
        write_corpus_file(corpus)
        out = tmp_path / "out"
        cfg = RunConfig(
            corpus=str(corpus),
            output_dir=str(out),
            window_csv=True,
            export_graphml=True,
            export_dot=True,
        )
        run_pipeline(cfg)
        windows = (out / "windows_Customers.csv").read_text().splitlines()
        assert windows[0] == (
            "window_start,n_nodes,n_edges,group_betweenness_centralization"
        )
        assert windows[1].startswith("2021-03-01T00:00:00Z,")
        assert len(windows) == 3
        assert (out / "graphs" / "Customers.graphml").exists()
        assert (out / "graphs" / "Employees.dot").exists()
        # orientations with no messages have no graph to export
        assert not (out / "graphs" / "Citizenship.graphml").exists()

    def test_stamps_before_year_1000_keep_four_digits(self, tmp_path):
        corpus = tmp_path / "corpus.ndjson"
        write_corpus_file(corpus, records=[
            {"id": "m1", "author": "alice", "created_at": "0500-03-01T10:00:00Z",
             "text": "quality check", "mentions": ["bob"]},
            {"id": "m2", "author": "bob", "created_at": "0500-03-01T11:00:00Z",
             "text": "quality check", "reply_to": "m1"},
        ], extra_lines=())
        out = tmp_path / "out"
        run_pipeline(RunConfig(corpus=str(corpus), output_dir=str(out), window_csv=True,
                               export_graphml=True, export_dot=True))
        windows = (out / "windows_Customers.csv").read_text().splitlines()
        assert windows[1].startswith("0500-03-01T00:00:00Z,")
        graphml = (out / "graphs" / "Customers.graphml").read_text()
        assert '<data key="d3">0500-03-01T10:00:00Z</data>' in graphml
        assert 'timestamp="0500-03-01T11:00:00Z"' in (out / "graphs" / "Customers.dot").read_text()

    def test_run_builds_no_message_objects(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Message was built")

        monkeypatch.setattr(corpus_module.Message, "__init__", refuse)
        corpus = tmp_path / "corpus.ndjson"
        write_corpus_file(corpus)
        cfg = RunConfig(
            corpus=str(corpus),
            output_dir=str(tmp_path / "out"),
            window_csv=True,
            export_graphml=True,
            export_dot=True,
        )
        run_pipeline(cfg, scorer=lambda text: 0.5)

    def test_external_reference_dictionary_used(self, tmp_path):
        corpus = tmp_path / "corpus.ndjson"
        write_corpus_file(corpus)
        ref = tmp_path / "ref.json"
        # Uniform counts: every token carries the same surprisal, so each
        # partition's complexity is exactly that one surprisal value.
        vocabulary = [
            "quality", "check", "one", "two", "rating", "three", "four",
            "alone", "follow", "up", "meets", "team", "spirit", "kickoff",
            "rules", "nothing", "to", "see", "here",
        ]
        ref.write_text(json.dumps({w: 5 for w in vocabulary}))
        cfg = RunConfig(
            corpus=str(corpus),
            output_dir=str(tmp_path / "out"),
            reference_dictionary=str(ref),
        )
        report = run_pipeline(cfg)
        expected = round6(math.log((5 * 19 + 19 + 1) / 6))
        assert entry_for(report, "Customers")["metrics"]["complexity"] == expected
        assert entry_for(report, "Employees")["metrics"]["complexity"] == expected


class TestReplay:
    def two_orientation_raw(self, **overrides):
        base = {
            "density": 0.5, "degree_centralization": 0.5,
            "betweenness_centralization": 0.5, "art_hours": 2.0,
            "nudges": 1.0, "actor_count": 10, "activity": 20,
            "avg_activity_per_actor": 2.0, "rotating_leadership": 3,
            "sentiment": 0.5, "emotionality": 0.1, "complexity": 7.0,
        }
        raw = {"Customers": dict(base), "Employees": dict(base)}
        for orientation, fields in overrides.items():
            raw[orientation].update(fields)
        return raw

    def test_identical_rows_normalize_to_half(self):
        report = replay_metrics(self.two_orientation_raw(), RunConfig())
        assert report["mode"] == "replay"
        for entry in report["orientations"]:
            assert entry["composites"]["connectivity"] == 0.5
            assert entry["composites"]["interactivity"] == 0.5
            # interactivity 0.5 >= 0.45: both land in the Active family
            assert entry["classification"] == "ActiveNeutralOrNegative"

    def test_forced_void_emits_warning(self):
        raw = self.two_orientation_raw(
            Customers={
                "density": 0.9, "degree_centralization": 0.9,
                "betweenness_centralization": 0.9, "art_hours": 9.0,
                "nudges": 1.0, "actor_count": 1, "activity": 1,
                "avg_activity_per_actor": 1.0, "rotating_leadership": 0,
            },
            Employees={
                "density": 0.1, "degree_centralization": 0.1,
                "betweenness_centralization": 0.1, "art_hours": 1.0,
                "nudges": 2.0, "actor_count": 100, "activity": 200,
                "avg_activity_per_actor": 2.0, "rotating_leadership": 5,
            },
        )
        report = replay_metrics(raw, RunConfig())
        customers = [
            e for e in report["orientations"] if e["orientation"] == "Customers"
        ][0]
        assert customers["composites"]["interactivity"] == 0.0
        assert customers["bands"] == {
            "connectivity": "High", "interactivity": "Low",
        }
        assert customers["classification"] == "Void"
        assert customers["strategy_hint"] == EXPECTED_HINTS["Void"]
        assert len(customers["warnings"]) == 1
        assert "disregarded" in customers["warnings"][0]

    def test_unknown_orientation_rejected(self):
        raw = self.two_orientation_raw()
        raw["Vibes"] = raw["Customers"]
        with pytest.raises(ValueError, match="unknown orientations"):
            replay_metrics(raw, RunConfig())

    def test_single_orientation_rejected(self):
        raw = {"Customers": self.two_orientation_raw()["Customers"]}
        with pytest.raises(ValueError, match="at least two"):
            replay_metrics(raw, RunConfig())

    def test_partial_metrics_renormalize(self):
        raw = self.two_orientation_raw()
        for orientation in raw:
            raw[orientation].pop("density")
        report = replay_metrics(raw, RunConfig())
        entry = report["orientations"][0]
        assert entry["metrics"]["density"] is None
        # connectivity falls back to the two centralization columns
        assert entry["composites"]["connectivity"] == 0.5

    def test_load_replay_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(self.two_orientation_raw()))
        with read_json_object(str(path), "metrics file", CorpusError) as raw:
            report = replay_metrics(raw, RunConfig())
        assert {e["orientation"] for e in report["orientations"]} == {
            "Customers", "Employees",
        }
        bad = tmp_path / "bad.json"
        bad.write_text('{"Customers": 3}')
        with pytest.raises(CorpusError, match="bad.json"):
            with read_json_object(str(bad), "metrics file", CorpusError) as raw:
                replay_metrics(raw, RunConfig())

    @pytest.mark.parametrize("scores", [3, ["density"], "density", None])
    def test_scores_must_be_mappings(self, scores):
        raw = {**self.two_orientation_raw(), "Customers": scores}
        with pytest.raises(ValueError, match="must map orientation"):
            replay_metrics(raw, RunConfig())


class TestRound6:
    def test_six_significant_digits(self):
        assert round6(1 / 12) == 0.0833333
        assert round6(2 / 3) == 0.666667
        assert round6(123456.789) == 123457.0
        assert round6(0.5) == 0.5
        assert round6(0.0) == 0.0

    def test_report_serialization_stable(self):
        report = {"b": 1, "a": [1.5, None, "x"]}
        assert dump_report(report) == dump_report(report)
        assert dump_report(report).endswith("\n")

    def test_report_serialization_refuses_non_finite(self):
        with pytest.raises(ValueError):
            dump_report({"a": float("nan")})

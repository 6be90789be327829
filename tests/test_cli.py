"""CLI verbs, flag plumbing and exit codes."""

from __future__ import annotations

import json
from importlib import resources

import pytest

from test_pipeline import write_corpus_file
from valuescope import ORIENTATIONS, ConfigError, RunConfig
from valuescope.cli import main


@pytest.fixture()
def corpus(tmp_path):
    path = tmp_path / "corpus.ndjson"
    write_corpus_file(path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def default_lexicon(kind: str) -> dict:
    data = resources.files("valuescope.data").joinpath(f"{kind}_lexicon.json")
    return json.loads(data.read_text(encoding="utf-8"))


class TestRunVerb:
    def test_happy_path_prints_report(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout = run_cli(
            capsys, "run", "--corpus", str(corpus), "--out", str(out)
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["run"]["corpus_size"] == 10
        assert (out / "report.json").exists()

    def test_missing_corpus_file_is_input_error(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys, "run", "--corpus", str(tmp_path / "nope.ndjson"),
            "--out", str(tmp_path / "out"),
        )
        assert code == 1

    def test_corpus_that_is_not_utf8_is_input_error(self, tmp_path, capsys, caplog):
        corpus = tmp_path / "corpus.ndjson"
        corpus.write_bytes(b"\xff\n")
        code, _ = run_cli(
            capsys, "run", "--corpus", str(corpus), "--out", str(tmp_path / "out")
        )
        assert code == 1
        assert "fatal input error" in caplog.text

    def test_bad_window_hours_is_config_error(self, corpus, tmp_path, capsys):
        code, _ = run_cli(
            capsys, "run", "--corpus", str(corpus),
            "--out", str(tmp_path / "out"), "--window-hours", "0",
        )
        assert code == 2

    @pytest.mark.parametrize(
        ("flag", "value"),
        [
            ("--window-hours", "nan"),
            ("--window-hours", "inf"),
            ("--response-cutoff-hours", "nan"),
        ],
    )
    def test_non_finite_flag_is_config_error(self, corpus, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        code, stdout = run_cli(
            capsys, "run", "--corpus", str(corpus), "--out", str(out), flag, value
        )
        assert code == 2
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw",
        [
            '{"window_hours": "24"}',
            '{"window_hours": true}',
            '{"window_hours": NaN}',
            pytest.param('{"window_hours": 1' + "0" * 400 + "}", id="int-past-float"),
            '{"interactivity_weights": {"art_hours": "2"}}',
            '{"interactivity_weights": {"nudges": Infinity}}',
            '{"connectivity_weights": {"densty": 5}}',
            '{"export_dot": "no"}',
            '{"window_csv": 1}',
        ],
    )
    def test_bad_config_value_is_config_error(self, corpus, tmp_path, capsys, raw):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(raw)
        out = tmp_path / "out"
        code, stdout = run_cli(
            capsys, "run", "--corpus", str(corpus),
            "--config", str(cfg_path), "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw",
        [
            '{"output_dir": 5}',
            '{"sentiment_lexicon": 0}',
            '{"orientation_lexicon": false}',
            '{"reference_dictionary": ["ref.json"]}',
            '{"corpus": 7}',
        ],
    )
    def test_non_string_path_is_config_error(self, corpus, tmp_path, capsys, monkeypatch, raw):
        # No --out: a bad output_dir must be refused before the analysis runs.
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(raw)
        code, stdout = run_cli(
            capsys, "run", "--corpus", str(corpus), "--config", str(cfg_path)
        )
        assert code == 2
        assert stdout == ""
        assert not (tmp_path / "out").exists()

    def test_too_many_windows_is_config_error(self, tmp_path, capsys):
        corpus = tmp_path / "two_years.ndjson"
        records = [
            {"id": "m1", "author": "alice", "created_at": "2021-03-01T10:00:00Z",
             "text": "quality first", "mentions": ["bob"]},
            {"id": "m2", "author": "bob", "created_at": "2023-03-01T10:00:00Z",
             "text": "quality second", "mentions": ["alice"]},
        ]
        write_corpus_file(corpus, records, extra_lines=())
        code, _ = run_cli(
            capsys, "run", "--corpus", str(corpus),
            "--out", str(tmp_path / "out"), "--window-hours", "0.001",
        )
        assert code == 2

    @pytest.mark.parametrize(
        ("window_hours", "flags"),
        [
            ("1e-310", ()),  # every window index overflows to infinity
            ("1e308", ("--window-csv",)),  # the width in seconds is infinite
        ],
    )
    def test_window_width_off_the_float_range_is_config_error(
        self, corpus, tmp_path, capsys, caplog, window_hours, flags
    ):
        out = tmp_path / "out"
        code, stdout = run_cli(
            capsys, "run", "--corpus", str(corpus), "--out", str(out),
            "--window-hours", window_hours, *flags,
        )
        assert code == 2 and stdout == ""
        assert "cannot place the windows in time" in caplog.text
        assert not out.exists()

    def test_window_start_before_year_one_is_config_error(self, tmp_path, capsys, caplog):
        corpus = tmp_path / "1969.ndjson"
        records = [
            {"id": "m1", "author": "alice", "created_at": "1969-06-01T10:00:00Z",
             "text": "quality first", "mentions": ["bob"]},
            {"id": "m2", "author": "bob", "created_at": "1969-06-02T10:00:00Z",
             "text": "quality second", "reply_to": "m1"},
        ]
        write_corpus_file(corpus, records, extra_lines=())
        out = tmp_path / "out"
        code, stdout = run_cli(
            capsys, "run", "--corpus", str(corpus), "--out", str(out),
            "--window-hours", "1e12", "--window-csv",
        )
        assert code == 2 and stdout == ""
        assert "within the years 1 to 9999" in caplog.text
        assert not out.exists()

    def test_config_file_feeds_run(self, corpus, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window_hours": 12.0, "window_csv": True}))
        out = tmp_path / "out"
        code, stdout = run_cli(
            capsys, "run", "--corpus", str(corpus),
            "--config", str(cfg_path), "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["config"]["window_hours"] == 12.0
        assert (out / "windows_Customers.csv").exists()

    def test_flag_overrides_config_file(self, corpus, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window_hours": 12.0}))
        code, stdout = run_cli(
            capsys, "run", "--corpus", str(corpus), "--config", str(cfg_path),
            "--out", str(tmp_path / "out"), "--window-hours", "6",
        )
        assert code == 0
        assert json.loads(stdout)["config"]["window_hours"] == 6.0

    def test_unknown_config_key_rejected(self, corpus, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"window_size": 3}))
        code, _ = run_cli(
            capsys, "run", "--corpus", str(corpus),
            "--config", str(cfg_path), "--out", str(tmp_path / "out"),
        )
        assert code == 2

    def test_flip_centralization_flag(self, corpus, tmp_path, capsys):
        code, stdout = run_cli(
            capsys, "run", "--corpus", str(corpus),
            "--out", str(tmp_path / "out"), "--flip-centralization",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["config"]["centralization_positive"] is False
        # Customers: mm {density 0, degree 1, betweenness 0.5}; flipped
        # centralizations contribute 0 and 0.5.
        customers = report["orientations"][0]
        assert customers["composites"]["connectivity"] == pytest.approx(0.5 / 3, abs=1e-6)

    def test_duplicate_ids_are_fatal_input(self, tmp_path, capsys):
        path = tmp_path / "dup.ndjson"
        row = {"id": "m1", "author": "a",
               "created_at": "2021-03-01T10:00:00Z", "text": "quality"}
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        code, _ = run_cli(
            capsys, "run", "--corpus", str(path), "--out", str(tmp_path / "out")
        )
        assert code == 1


class TestReplayVerb:
    def test_happy_path(self, tmp_path, capsys):
        metrics = {
            "Customers": {"density": 0.2, "sentiment": 0.6},
            "Employees": {"density": 0.4, "sentiment": 0.5},
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(metrics))
        code, stdout = run_cli(capsys, "replay", "--metrics", str(path))
        assert code == 0
        report = json.loads(stdout)
        assert report["mode"] == "replay"
        assert len(report["orientations"]) == 2

    def test_unknown_orientation_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"Vibes": {"density": 1.0}, "Customers": {}}))
        code, _ = run_cli(capsys, "replay", "--metrics", str(path))
        assert code == 1

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys, "replay", "--metrics", str(tmp_path / "nope.json")
        )
        assert code == 1

    @pytest.mark.parametrize(
        "token",
        [
            "NaN",
            "Infinity",
            "-Infinity",
            "1e999",
            "true",
            pytest.param("1" + "0" * 400, id="int-past-float"),
        ],
    )
    def test_non_finite_value_is_input_error(self, tmp_path, capsys, caplog, token):
        path = tmp_path / "metrics.json"
        path.write_text(
            '{"Customers": {"activity": %s}, "Employees": {"activity": 3},'
            ' "Excellence": {"activity": 5}}' % token
        )
        code, stdout = run_cli(capsys, "replay", "--metrics", str(path))
        assert code == 1
        assert stdout == ""
        assert "non-finite" in caplog.text or "finite number" in caplog.text

    @pytest.mark.parametrize(
        ("metric", "value"),
        [
            ("density", -3),
            ("betweenness_centralization", 1.5),
            ("sentiment", -0.1),
            ("emotionality", 0.9),
            ("nudges", 0.2),
            ("art_hours", -5),
            ("rotating_leadership", -1),
        ],
    )
    def test_value_outside_its_domain_is_input_error(
        self, tmp_path, capsys, caplog, metric, value
    ):
        path = tmp_path / "metrics.json"
        path.write_text(
            json.dumps({"Customers": {metric: value}, "Employees": {"density": 0.5}})
        )
        code, stdout = run_cli(capsys, "replay", "--metrics", str(path))
        assert code == 1
        assert stdout == ""
        assert f"metric {metric!r}" in caplog.text


class TestSynthVerb:
    def test_preset_demo_writes_parseable_corpus(self, tmp_path, capsys):
        out = tmp_path / "demo.ndjson"
        code, _ = run_cli(capsys, "synth", "--preset", "demo", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        parsed = [json.loads(line) for line in lines[:5]]
        assert all("created_at" in r for r in parsed)

    def test_seed_override_changes_output(self, tmp_path, capsys):
        a, b, c = (tmp_path / n for n in ("a.ndjson", "b.ndjson", "c.ndjson"))
        run_cli(capsys, "synth", "--preset", "demo", "--seed", "1", "--out", str(a))
        run_cli(capsys, "synth", "--preset", "demo", "--seed", "2", "--out", str(b))
        run_cli(capsys, "synth", "--preset", "demo", "--seed", "1", "--out", str(c))
        assert a.read_bytes() == c.read_bytes()
        assert a.read_bytes() != b.read_bytes()

    def test_spec_file(self, tmp_path, capsys):
        spec = {
            "orientations": {
                "Customers": {"actors": 30, "messages": 90, "shape": "star"},
                "Employees": {"actors": 20, "messages": 60,
                              "shape": "fragmented-dyads"},
            },
            "start": "2021-03-01T00:00:00Z",
            "days": 3,
            "seed": 5,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "synthetic.ndjson"
        code, _ = run_cli(capsys, "synth", "--spec", str(spec_path), "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 150

    def test_no_spec_or_preset_is_config_error(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "synth", "--out", str(tmp_path / "x.ndjson"))
        assert code == 2

    @pytest.mark.parametrize(
        ("where", "key", "value"),
        [
            ("spec", "days", 6.9),
            ("spec", "days", True),
            ("spec", "days", "6"),
            pytest.param("spec", "days", 10**400, id="spec-days-int-past-float"),
            ("spec", "seed", 1.5),
            ("spec", "seed", False),
            ("spec", "window_hours", "24"),
            ("spec", "window_hours", True),
            ("plant", "actors", 30.0),
            ("plant", "messages", True),
            ("plant", "shape", 5),
            ("plant", "response_lag_hours", "2"),
            ("plant", "sentiment_bias", True),
            ("plant", "vocab_size", 800.5),
            ("plant", "oscillation_period", 2.5),
            ("plant", "oscillation_period", "3"),
        ],
    )
    def test_spec_value_of_wrong_type_is_config_error(
        self, tmp_path, capsys, where, key, value
    ):
        plant = {"actors": 30, "messages": 90, "shape": "star"}
        spec = {"orientations": {"Customers": plant}, "days": 3}
        (spec if where == "spec" else plant)[key] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "x.ndjson"
        code, stdout = run_cli(capsys, "synth", "--spec", str(spec_path), "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert not out.exists()

    def test_unknown_spec_key_is_config_error(self, tmp_path, capsys, caplog):
        spec = {"orientations": {"Customers": {"actors": 30, "messages": 90}}, "dayz": 30}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "x.ndjson"
        code, _ = run_cli(capsys, "synth", "--spec", str(spec_path), "--out", str(out))
        assert code == 2
        assert "unknown spec keys ['dayz']" in caplog.text
        assert not out.exists()

    def test_infeasible_spec_is_config_error(self, tmp_path, capsys):
        spec = {
            "orientations": {
                "Customers": {"actors": 3, "messages": 2, "shape": "star"},
                "Employees": {"actors": 3, "messages": 2, "shape": "star"},
            },
            "start": "2021-03-01T00:00:00Z",
            "days": 3,
            "seed": 5,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, _ = run_cli(
            capsys, "synth", "--spec", str(spec_path),
            "--out", str(tmp_path / "x.ndjson"),
        )
        assert code == 2

    def test_too_many_windows_refused_before_planning(self, tmp_path, capsys, caplog):
        # Planning would build per-window lists ten million long before it
        # found that 30 actors cannot fill them.
        spec = {"orientations": {"Customers": {"actors": 30, "messages": 90}}, "days": 10_000_000}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "x.ndjson"
        code, _ = run_cli(capsys, "synth", "--spec", str(spec_path), "--out", str(out))
        assert code == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and " 10000000 windows" in errors[0]
        assert not out.exists()


class TestUnexportableHandles:
    """A handle GraphML or UTF-8 cannot hold stops an export before its file opens."""

    @pytest.fixture(params=["x\u0001y", "x\ud800"], ids=["control", "surrogate"])
    def author_corpus(self, request, tmp_path):
        path = tmp_path / "corpus.ndjson"
        record = {"id": "m1", "author": request.param, "created_at": "2021-03-01T10:00:00Z",
                  "text": "quality check", "mentions": ["bob"]}
        write_corpus_file(path, records=[record], extra_lines=())
        return request.param, path

    @pytest.mark.parametrize("fmt", ["graphml", "dot"])
    def test_run_writes_nothing(self, author_corpus, tmp_path, capsys, caplog, fmt):
        author, corpus = author_corpus
        out = tmp_path / "out"
        code, stdout = run_cli(
            capsys, "run", "--corpus", str(corpus), "--out", str(out), f"--export-{fmt}"
        )
        assert (code, stdout) == (1, "")
        assert f"cannot export Customers: handle {author!r}" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["graphml", "dot"])
    def test_export_graph_opens_no_file(self, author_corpus, tmp_path, capsys, caplog, fmt):
        author, corpus = author_corpus
        target = tmp_path / f"customers.{fmt}"
        code, _ = run_cli(
            capsys, "export-graph", "--corpus", str(corpus), "--orientation", "Customers",
            "--format", fmt, "--out", str(target),
        )
        assert code == 1
        assert f"cannot export Customers: handle {author!r}" in caplog.text
        assert not target.exists()


class TestExportGraphVerb:
    def test_graphml_and_dot(self, corpus, tmp_path, capsys):
        graphml = tmp_path / "customers.graphml"
        dot = tmp_path / "customers.dot"
        assert run_cli(
            capsys, "export-graph", "--corpus", str(corpus),
            "--orientation", "Customers", "--format", "graphml",
            "--out", str(graphml),
        )[0] == 0
        assert run_cli(
            capsys, "export-graph", "--corpus", str(corpus),
            "--orientation", "Customers", "--format", "dot",
            "--out", str(dot),
        )[0] == 0
        assert "graphml" in graphml.read_text()
        assert dot.read_text().startswith("digraph")

    def test_missing_corpus_is_input_error(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys, "export-graph", "--corpus", str(tmp_path / "nope"),
            "--orientation", "Customers", "--format", "dot",
            "--out", str(tmp_path / "x.dot"),
        )
        assert code == 1

    def test_bad_orientation_lexicon_is_config_error(self, corpus, tmp_path, capsys):
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({"Customers": ["quality"]}))
        code, _ = run_cli(
            capsys, "export-graph", "--corpus", str(corpus),
            "--orientation", "Customers", "--format", "dot",
            "--out", str(tmp_path / "x.dot"), "--orientation-lexicon", str(lexicon),
        )
        assert code == 2


class TestLexiconFiles:
    @pytest.mark.parametrize("verb", ["run", "export-graph"])
    @pytest.mark.parametrize("phrases", [5, [5], "client", {"client": 1}, None])
    def test_orientation_phrases_of_wrong_type_are_config_error(
        self, corpus, tmp_path, capsys, verb, phrases
    ):
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({**default_lexicon("orientation"), "Customers": phrases}))
        out = tmp_path / ("out" if verb == "run" else "x.dot")
        extra = () if verb == "run" else ("--orientation", "Customers", "--format", "dot")
        code, stdout = run_cli(
            capsys, verb, "--corpus", str(corpus), "--out", str(out),
            "--orientation-lexicon", str(lexicon), *extra,
        )
        assert code == 2
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("positive", [5, [5], "good", ["good", None], {"good": 1}])
    def test_sentiment_terms_of_wrong_type_are_config_error(
        self, corpus, tmp_path, capsys, positive
    ):
        lexicon = tmp_path / "sentiment.json"
        lexicon.write_text(json.dumps({**default_lexicon("sentiment"), "positive": positive}))
        out = tmp_path / "out"
        code, stdout = run_cli(
            capsys, "run", "--corpus", str(corpus), "--out", str(out),
            "--sentiment-lexicon", str(lexicon),
        )
        assert code == 2
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("count", [True, False])
    def test_reference_count_of_wrong_type_is_config_error(
        self, corpus, tmp_path, capsys, count
    ):
        reference = tmp_path / "reference.json"
        reference.write_text(json.dumps({"quality": 4, "good": count}))
        out = tmp_path / "out"
        code, stdout = run_cli(
            capsys, "run", "--corpus", str(corpus), "--out", str(out),
            "--reference-dictionary", str(reference),
        )
        assert code == 2
        assert stdout == ""
        assert not out.exists()


# How each JSON input file reaches the CLI, and the exit code a bad one gives.
INPUT_FILES = {
    "config": (("run", "--config"), 2),
    "orientation-lexicon": (("run", "--orientation-lexicon"), 2),
    "sentiment-lexicon": (("run", "--sentiment-lexicon"), 2),
    "reference-dictionary": (("run", "--reference-dictionary"), 2),
    "replay-metrics": (("replay", "--metrics"), 1),
    "synth-spec": (("synth", "--spec"), 2),
}
BAD_FILES = {
    "missing": None,
    "not-utf8": b'{"quality": "\xff"}\n',
    "invalid-json": b"{nope",
    "deep-array": b"[" * 100_000 + b"]" * 100_000,
    "top-level-array": b"[1, 2]",
}


# Well-formed JSON objects of the wrong shape, one per input file.
WRONG_SHAPES = {
    "config": {"window_hours": -1},
    "orientation-lexicon": {**{name: ["quality"] for name in ORIENTATIONS}, "Customers": 5},
    "sentiment-lexicon": {"positive": 5, "negative": []},
    "reference-dictionary": {},
    "replay-metrics": {"Customers": 5},
    "synth-spec": {"orientations": 5},
}


class TestBadInputFiles:
    @staticmethod
    def fails_with_one_error_line(name, path, corpus, tmp_path, capsys, caplog):
        (verb, flag), expected = INPUT_FILES[name]
        out = tmp_path / "out"
        argv = [verb, flag, str(path), "--out", str(out)]
        if verb == "run":
            argv += ["--corpus", str(corpus)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == expected
        assert captured.out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and str(path) in errors[0]
        assert "Traceback" not in caplog.text + captured.err
        assert not out.exists()

    @pytest.mark.parametrize("kind", BAD_FILES)
    @pytest.mark.parametrize("name", INPUT_FILES)
    def test_fails_with_one_error_line(self, corpus, tmp_path, capsys, caplog, name, kind):
        path = tmp_path / f"{name}.json"
        if BAD_FILES[kind] is not None:
            path.write_bytes(BAD_FILES[kind])
        self.fails_with_one_error_line(name, path, corpus, tmp_path, capsys, caplog)

    @pytest.mark.parametrize("name", INPUT_FILES)
    def test_wrong_shape_names_the_file(self, corpus, tmp_path, capsys, caplog, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(WRONG_SHAPES[name]), encoding="utf-8")
        self.fails_with_one_error_line(name, path, corpus, tmp_path, capsys, caplog)


class TestConfig:
    def test_validation_catches_bad_thresholds(self):
        with pytest.raises(ConfigError):
            RunConfig(interactivity_low=0.6, interactivity_high=0.4).validate()
        with pytest.raises(ConfigError):
            RunConfig(connectivity_low=0.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(attitude_negative_max=0.6).validate()
        with pytest.raises(ConfigError):
            RunConfig(gbco_mode="sideways").validate()
        with pytest.raises(ConfigError):
            RunConfig(response_cutoff_hours=0.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(interactivity_weights={"nudges": -1.0}).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"window_hours": float("nan")},
            {"window_hours": float("inf")},
            {"window_hours": "24"},
            {"window_hours": True},
            {"connectivity_low": None},
            {"response_cutoff_hours": float("nan")},
            {"response_cutoff_hours": False},
            {"centralization_positive": "yes"},
            {"export_graphml": 1},
            {"connectivity_weights": {"densty": 5.0}},
            {"interactivity_weights": {"density": 1.0}},
            {"interactivity_weights": {"art_hours": "2"}},
            {"interactivity_weights": {"art_hours": True}},
            {"connectivity_weights": {"density": float("nan")}},
            {"connectivity_weights": [("density", 1.0)]},
            {
                "connectivity_weights": {
                    "density": 0,
                    "degree_centralization": 0,
                    "betweenness_centralization": 0,
                }
            },
            {"output_dir": 5},
            {"output_dir": None},
            {"sentiment_lexicon": 0},
            {"gbco_mode": None},
        ],
    )
    def test_validation_refuses_bad_values(self, overrides):
        with pytest.raises(ConfigError):
            RunConfig(**overrides).validate()

    def test_validation_accepts_ints_and_unset_options(self):
        RunConfig(
            window_hours=6,
            response_cutoff_hours=None,
            corpus=None,
            connectivity_weights={"density": 2, "degree_centralization": 0},
            interactivity_weights={"art_hours": 0.5},
        ).validate()

    def test_defaults_are_valid(self):
        RunConfig().validate()

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"gbco_mode": "actor", "window_hours": 48.0}))
        cfg = RunConfig.from_file(str(path))
        assert cfg.gbco_mode == "actor"
        assert cfg.window_hours == 48.0
        assert cfg.as_dict()["window_hours"] == 48.0

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            RunConfig.from_file(str(bad))
        invalid = tmp_path / "invalid.json"
        invalid.write_text("{nope")
        with pytest.raises(ConfigError):
            RunConfig.from_file(str(invalid))

"""Parsing, tokenization and orientation tagging."""

from __future__ import annotations

import json
import logging
import os
import pickle
import random
import sys
import threading
import time
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Record,
    msg,
    ndjson_line,
    oracle_parse_corpus,
    oracle_rows,
    partition_ids,
    split_into_ranges,
    table_columns,
    table_of,
    table_rows,
)
from valuescope import corpus as corpus_module
from valuescope import (
    ORIENTATIONS,
    CorpusError,
    OrientationLexicon,
    filter_and_partition,
    load_corpus,
    parse_corpus,
    tokenize,
)
from valuescope.corpus import ABSENT, UNKNOWN


@pytest.fixture(scope="module")
def lexicon():
    return OrientationLexicon.default()


def record(ident="m1", author="alice", created_at="2021-03-01T10:00:00Z", **extra):
    raw = {"id": ident, "author": author, "created_at": created_at, "text": "hi"}
    raw.update(extra)
    return raw


def lines(*records):
    return [json.dumps(r) for r in records]


def parse_one(raw) -> Record | None:
    """The row that ``raw`` parses to alone as ``table_rows`` gives it, or
    None if it is skipped."""
    result = parse_corpus([json.dumps(raw)])
    assert len(result.messages) + result.skipped == 1
    return Record(*table_rows(result.messages)[0]) if len(result.messages) else None


def partition(messages, lexicon) -> tuple[dict[str, list[str]], int]:
    """Each orientation's message ids in partition order, and the discarded count."""
    partitions, discarded = filter_and_partition(table_of(messages), lexicon)
    return {o: partition_ids(messages, rows) for o, rows in partitions.items()}, discarded


def tags(lexicon, text) -> frozenset[str]:
    """Orientations whose partitions hold a message of ``text``."""
    partitions, _ = partition([msg("m1", "a", text=text)], lexicon)
    return frozenset(o for o, ids in partitions.items() if ids)


# Anything json.loads can return, and records that mix plausible field values
# (handles, ids, RFC 3339 stamps at any offset) with arbitrary JSON.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_offsets = st.timedeltas(
    min_value=timedelta(hours=-23, minutes=-59),
    max_value=timedelta(hours=23, minutes=59),
).map(timezone)
_stamps = st.one_of(
    # Equal stamps, and offsets at and past the calendar edges.
    st.sampled_from(
        [
            "2021-03-01T10:00:00Z",
            "2021-03-01T11:00:00+01:00",
            "0001-01-01T00:00:00+01:00",
            "0001-01-01T01:00:00+01:00",
            "9999-12-31T23:59:59-01:00",
            "9999-12-31T23:59:59.999999+00:00",
        ]
    ),
    st.datetimes(timezones=st.none() | _offsets).map(datetime.isoformat),
    st.datetimes().map(lambda d: d.strftime("%Y-%m-%dT%H:%M:%SZ")),
    st.text(alphabet="0123456789-:TZ+. ", max_size=26),
)
_handles = st.text(alphabet="@ aZ_9", max_size=5)
_records = st.fixed_dictionaries(
    {},
    optional={
        "id": st.sampled_from(["m1", "m2", "m3", "m4", ""]) | _json_values,
        "author": _handles | _json_values,
        "created_at": _stamps | _json_values,
        "text": st.text(max_size=12) | _json_values,
        "reply_to": st.sampled_from(["m1", "m2", ""]) | _json_values,
        "retweet_of": st.sampled_from(["m1", "m2", ""]) | _json_values,
        "mentions": st.lists(_handles | _json_values, max_size=3) | _json_values,
    },
)
# Records that pass every check unless a reference names their own id.
_valid_records = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["m1", "m2", "m3", "m4"]),
        "author": st.sampled_from(["a", "@B ", "c"]),
        "created_at": _stamps.filter(lambda raw: raw[:4] not in ("0001", "9999")),
        "text": st.text(max_size=12),
    },
    optional={
        "reply_to": st.none() | st.sampled_from(["m1", "m2", "m5"]),
        "retweet_of": st.none() | st.sampled_from(["m1", "m3", "m6"]),
        "mentions": st.none() | st.lists(st.sampled_from(["a", "@Bob", " c "]), max_size=3),
    },
)
# NDJSON lines: records and other JSON, possibly with a BOM or whitespace in
# front, trailing garbage or a second record behind; blank and
# whitespace-only lines; NaN literals; and arbitrary text.
_lines = st.one_of(
    st.tuples(
        st.sampled_from(["", " ", "\t", "\ufeff", "\u3000"]),
        st.one_of(_valid_records, _records, _json_values).map(json.dumps),
        st.sampled_from(["", "\n", " \r\n", "x", "}", " {}", "\u3000", "\x0b\n"]),
    ).map("".join),
    st.sampled_from(["", "\n", "  \t\r\n", "\u3000\n", "\x0b", "\ufeff", "NaN", "[NaN]"]),
    st.sampled_from(['"text": NaN', '"created_at": NaN', '"mentions": [NaN]']).map(
        lambda field: '{"id": "m9", "author": "a", "created_at": "2021-03-01T10:00:00Z", '
        '"text": "t", ' + field + "}"
    ),
    st.text(max_size=20),
)


class TestTokenize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("Great QUALITY, here.") == ["great", "quality", "here"]

    def test_handles_and_hashtags_keep_their_sigil(self):
        assert tokenize("Win!!! @Anna_K #GoTeam e.g.") == [
            "win", "@anna_k", "#goteam", "e", "g",
        ]

    def test_digits_count_as_word_characters(self):
        assert tokenize("top10 works") == ["top10", "works"]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("!!! ...") == []

    @settings(max_examples=500, deadline=None)
    @given(
        text=st.text(max_size=40)
        | st.lists(
            st.sampled_from(["a", "Z", "_", "9", "@", "#", "é", "ǅ", "²", "٣", "\u0345",
                             " ", "\t", "\n", "\x1c", "\u3000", "\u1680", "\u200b",
                             ",", "!", "İ", "ß"]),
            max_size=30,
        ).map("".join)
    )
    def test_matches_the_regex_on_any_text(self, text):
        # The split-first fast path must give exactly what the regex alone gives.
        assert tokenize(text) == corpus_module._TOKEN_RE.findall(text.lower())


class TestParse:
    def test_valid_plus_one_malformed_line(self):
        ok1 = record("m1")
        ok2 = record("m2", author="bob")
        bad = {"id": "m3", "author": "carol", "text": "no timestamp"}
        result = parse_corpus(lines(ok1, ok2, bad))
        table = result.messages
        assert [table.handles[author] for author in table.authors] == ["alice", "bob"]
        assert result.skipped == 1

    def test_broken_json_is_skipped(self):
        result = parse_corpus(["{not json", json.dumps(record("m1"))])
        assert result.skipped == 1
        assert len(result.messages) == 1

    def test_too_deeply_nested_json_is_skipped(self):
        result = parse_corpus(["[" * 100_000, json.dumps(record("m1"))])
        assert result.skipped == 1
        assert len(result.messages) == 1

    def test_blank_lines_are_ignored_not_counted(self):
        result = parse_corpus(["", "   ", json.dumps(record("m1")), "\n"])
        assert result.skipped == 0
        assert len(result.messages) == 1

    def test_duplicate_id_is_fatal(self):
        with pytest.raises(CorpusError, match="duplicate message id"):
            parse_corpus(lines(record("m1"), record("m1", author="bob")))

    @pytest.mark.parametrize(
        "mutation",
        [
            {"id": None},
            {"id": ""},
            {"id": 7},
            {"author": None},
            {"author": "  @  "},
            {"created_at": "yesterday"},
            {"created_at": None},
            {"text": None},
            {"text": 3},
            {"reply_to": ""},
            {"reply_to": 5},
            {"mentions": "bob"},
            {"mentions": [42]},
        ],
    )
    def test_malformed_record_rejected(self, mutation):
        assert parse_one(record(**mutation)) is None

    def test_self_reference_rejected(self):
        assert parse_one(record("m1", reply_to="m1")) is None
        assert parse_one(record("m1", retweet_of="m1")) is None

    def test_non_dict_record_rejected(self):
        assert parse_one(["not", "a", "dict"]) is None

    def test_mentions_normalized(self):
        message = parse_one(record(mentions=["@Bob ", "CAROL"]))
        assert message.mentions == ("bob", "carol")

    def test_author_handle_normalized(self):
        message = parse_one(record(author="@Alice"))
        assert message.author == "alice"

    def test_naive_timestamp_becomes_utc(self):
        message = parse_one(record(created_at="2021-03-01T10:00:00"))
        assert message.created_at.tzinfo == timezone.utc
        assert message.created_at.hour == 10

    @pytest.mark.parametrize(
        "stamp",
        [
            "2021-03-01T12:00:00+02:00",
            "2021-03-01T10:00:00+0000",
            "20210301T100000Z",
            "2021-03-01T10:00:00.123Z",
        ],
    )
    def test_offset_timestamp_converted_to_utc(self, stamp):
        message = parse_one(record(created_at=stamp))
        assert message.created_at.hour == 10
        assert message.created_at.tzinfo == timezone.utc

    def test_missing_mentions_defaults_empty(self):
        message = parse_one(record())
        assert message.mentions == ()
        assert message.reply_to is None
        assert message.retweet_of is None

    @pytest.mark.parametrize(
        "stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"]
    )
    def test_offset_past_the_calendar_edge_rejected(self, stamp):
        # Converting these to UTC leaves the years datetime can hold.
        assert parse_one(record(created_at=stamp)) is None

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_lines, max_size=6))
    def test_parse_matches_record_oracle(self, lines):
        try:
            expected, expected_skipped = oracle_parse_corpus(lines)
        except CorpusError as exc:
            with pytest.raises(CorpusError) as caught:
                parse_corpus(lines)
            assert str(caught.value) == str(exc)
            return
        result = parse_corpus(lines)
        table = result.messages
        assert result.skipped == expected_skipped
        assert table_rows(table) == oracle_rows(expected)
        assert table.seconds.tolist() == [m.created_at.timestamp() for m in expected]
        keys = [(m.created_at, m.id) for m in expected]
        assert table.order().tolist() == sorted(range(len(keys)), key=keys.__getitem__)

    @pytest.mark.parametrize(
        "stamp",
        [
            "0001-01-01T00:00:00Z",
            "0001-01-01T00:00:00.000001Z",
            "0001-01-01T01:00:00+01:00",
            "9999-12-31T23:59:59.999999Z",
            "9999-12-31T22:59:59.999999-01:00",
            "2255-06-05T23:47:34.740993Z",  # about 2**53 microseconds from 1970
        ],
    )
    def test_stamps_equal_timestamp_at_the_calendar_edges(self, stamp):
        table = parse_corpus(lines(record(created_at=stamp))).messages
        [expected], _ = oracle_parse_corpus(lines(record(created_at=stamp)))
        assert table.seconds[0].hex() == expected.created_at.timestamp().hex()
        assert table.created_at(0) == expected.created_at


class TestLexicon:
    def test_default_covers_all_orientations(self):
        lexicon = OrientationLexicon.default()
        assert set(lexicon.phrases) == set(ORIENTATIONS)
        for phrases in lexicon.phrases.values():
            assert phrases
            for phrase in phrases:
                assert 1 <= len(phrase) <= 5

    def test_missing_orientation_rejected(self):
        phrases = {o: ["x"] for o in ORIENTATIONS[:-1]}
        with pytest.raises(ValueError, match="missing"):
            OrientationLexicon(phrases)

    def test_unknown_orientation_rejected(self):
        phrases = {o: ["x"] for o in ORIENTATIONS}
        phrases["Vibes"] = ["y"]
        with pytest.raises(ValueError, match="unknown"):
            OrientationLexicon(phrases)

    def test_overlong_phrase_rejected(self):
        phrases = {o: ["x"] for o in ORIENTATIONS}
        phrases["Customers"] = ["one two three four five six"]
        with pytest.raises(ValueError, match="1 to 5"):
            OrientationLexicon(phrases)

    def test_duplicate_phrase_rejected(self):
        phrases = {o: ["x"] for o in ORIENTATIONS}
        phrases["Customers"] = ["quality", "Quality!"]
        with pytest.raises(ValueError, match="duplicate"):
            OrientationLexicon(phrases)

    def test_same_phrase_allowed_across_orientations(self):
        phrases = {o: ["shared term"] for o in ORIENTATIONS}
        lexicon = OrientationLexicon(phrases)
        assert tags(lexicon, "shared term") == frozenset(ORIENTATIONS)


class TestTagging:
    def test_multi_token_phrase_matches_through_punctuation(self, lexicon):
        text = "Our PASSION, for our customers always!"
        assert tags(lexicon, text) == frozenset({"Customers"})

    def test_multiple_orientations(self, lexicon):
        text = "team spirit plus integrity every day"
        assert tags(lexicon, text) == frozenset({"Employees", "Citizenship"})

    def test_no_match(self, lexicon):
        text = "completely unrelated word salad"
        assert tags(lexicon, text) == frozenset()

    def test_token_boundaries_respected(self, lexicon):
        # "quality" is a Customers keyword; it must not fire inside a larger
        # word, but must fire as a standalone token next to anything.
        assert tags(lexicon, "qualityx stuff") == frozenset()
        assert tags(lexicon, "high quality stuff") == frozenset({"Customers"})

    def test_phrase_must_be_contiguous(self, lexicon):
        text = "team building with true spirit"
        assert "Employees" not in tags(lexicon, text)

    @settings(max_examples=60, deadline=None)
    @given(
        caps=st.lists(st.booleans(), min_size=4, max_size=4),
        seps=st.lists(st.sampled_from([" ", ", ", "!  ", " - ", "... "]), min_size=3, max_size=3),
    )
    def test_tagging_survives_case_and_punctuation(self, caps, seps):
        words = ["passion", "for", "our", "customers"]
        styled = [w.upper() if c else w for w, c in zip(words, caps)]
        text = styled[0] + "".join(s + w for s, w in zip(seps, styled[1:]))
        assert tags(OrientationLexicon.default(), text) == frozenset({"Customers"})


class TestPartition:
    def test_phrase_split_across_two_messages_does_not_tag(self, lexicon):
        # Back to back in the token table the two read "passion for our customers".
        messages = [
            msg("m1", "a", hours=1.0, text="we share a passion for"),
            msg("m2", "b", hours=2.0, text="our customers know it"),
        ]
        partitions, discarded = partition(messages, lexicon)
        assert partitions["Customers"] == []
        assert discarded == 2

    def test_partition_counts_and_sorting(self, lexicon):
        messages = [
            msg("m2", "a", hours=2.0, text="quality again"),
            msg("m1", "b", hours=1.0, text="quality first"),
            msg("m3", "c", hours=3.0, text="nothing relevant"),
            msg("m4", "d", hours=4.0, text="team spirit and quality"),
        ]
        partitions, discarded = partition(messages, lexicon)
        assert discarded == 1
        assert partitions["Customers"] == ["m1", "m2", "m4"]
        assert partitions["Employees"] == ["m4"]
        assert partitions["Citizenship"] == []

    def test_multi_tagged_message_lands_in_each_partition(self, lexicon):
        messages = [msg("m1", "a", text="quality with integrity")]
        partitions, discarded = partition(messages, lexicon)
        assert discarded == 0
        holding = {o for o, ids in partitions.items() if ids == ["m1"]}
        assert holding == {"Customers", "Citizenship"}
        assert all(not partitions[o] for o in set(ORIENTATIONS) - holding)

    def test_tie_broken_by_id(self, lexicon):
        messages = [
            msg("mb", "a", hours=1.0, text="quality"),
            msg("ma", "b", hours=1.0, text="quality"),
        ]
        partitions, _ = partition(messages, lexicon)
        assert partitions["Customers"] == ["ma", "mb"]

    def test_tie_broken_by_id_in_python_string_order(self, lexicon):
        # A numpy string sort holds "a" and "a\x00" equal; Python puts "a" first.
        ids = ["😀", "a\x00", "b", "a", "é"]
        messages = [msg(ident, "x", hours=1.0, text="quality with integrity") for ident in ids]
        expected = ["a", "a\x00", "b", "é", "😀"]
        assert partition_ids(messages, table_of(messages).order()) == expected
        partitions, _ = partition(messages, lexicon)
        assert partitions["Customers"] == partitions["Citizenship"] == expected

    def test_input_order_does_not_matter(self, lexicon):
        messages = [
            msg(f"m{i}", f"a{i}", hours=float(i % 5), text="quality here")
            for i in range(20)
        ]
        shuffled = messages[:]
        random.Random(3).shuffle(shuffled)
        first, _ = partition(messages, lexicon)
        second, _ = partition(shuffled, lexicon)
        assert first["Customers"] == second["Customers"]

    def test_distinct_ids_plus_discarded_equals_total(self, lexicon):
        messages = [
            msg("m1", "a", text="quality"),
            msg("m2", "b", text="integrity and quality"),
            msg("m3", "c", text="blah"),
            msg("m4", "d", text="team spirit"),
        ]
        partitions, discarded = partition(messages, lexicon)
        tagged_ids = {ident for ids in partitions.values() for ident in ids}
        assert len(tagged_ids) + discarded == len(messages)


def ndjson_bytes(seed: int, newline: str = "\n", count: int = 120) -> bytes:
    """A corpus of valid, malformed and blank lines whose replies, retweets
    and mentions point all over the file, with non-ASCII text throughout."""
    rng = random.Random(seed)
    words = ["quality", "Team", "naïve", "漢字", "😀x", "@Bob", "#goal", "don't", "a_b", "ǅ"]
    lines = []
    for i in range(count):
        raw = record(
            f"m{i}", author=rng.choice(["alice", "Bob", "çelik", "@dana"]),
            created_at=f"2021-03-{1 + i % 28:02d}T{i % 24:02d}:00:00Z",
            text=" ".join(rng.choices(words, k=rng.randrange(0, 8))),
            mentions=rng.sample(["bob", "Çelik", "eve", "@zoë"], k=rng.randrange(0, 3)),
        )
        reply, retweet = rng.randrange(count + 10), rng.randrange(count)  # some name no record
        if rng.random() < 0.5 and reply != i:
            raw["reply_to"] = f"m{reply}"
        if rng.random() < 0.3 and retweet != i:
            raw["retweet_of"] = f"m{retweet}"
        lines.append(json.dumps(raw, ensure_ascii=rng.random() < 0.5))
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "   ", "{not json", "[" * 5000, '{"id": "x"}']))
    return newline.join(lines).encode("utf-8")


def test_table_builds_no_dict_over_the_ids():
    """Beyond its output columns, the merge holds fewer bytes per id than a
    ``str -> int`` dict over the ids would."""
    budget = 24  # bytes per id: three int64s
    size = 20_000
    ids = [f"id{i * 7919 % size:05d}" for i in range(size)]  # in no sorted order
    parts = [corpus_module._parse_lines(
        ndjson_line(msg(msg_id, f"u{i % 50}", i, "w x", ("u1",) if i % 2 else (),
                        ids[i - 1] if i % 3 else None))
        for i, msg_id in enumerate(ids)
    )]
    columns = ("ranks", "authors", "mentions", "mention_bounds", "micros", "seconds",
               "reply_to", "retweet_of")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = corpus_module._table(parts)
        merge_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        index = dict(zip(ids, range(size)))
        dict_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index) == len(table) == size
    assert dict_bytes > budget * size
    assert merge_peak - sum(getattr(table, name).nbytes for name in columns) < budget * size


class TestByteRanges:
    """``load_corpus`` on K byte ranges gives exactly what one range gives."""

    @staticmethod
    def load(path, monkeypatch, ranges: int):
        """Parse ``path`` with ``ranges`` CPUs and ranges as small as it takes."""
        with monkeypatch.context() as patch:
            split_into_ranges(patch, path, ranges)
            if ranges > 1:
                with open(path, "rb") as file:
                    assert len(corpus_module._cuts(file)) - 1 == ranges
            return load_corpus(str(path))

    @staticmethod
    def outcome(load):
        try:
            return table_columns(load())
        except CorpusError as exc:
            return f"CorpusError: {exc}"

    def assert_same_for_every_split(self, path, monkeypatch):
        expected = self.outcome(lambda: self.load(path, monkeypatch, 1))
        for ranges in (2, 3, 4):
            assert self.outcome(lambda: self.load(path, monkeypatch, ranges)) == expected
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)  # every worker was reaped
        return expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "mixed"])
    def test_every_split_gives_the_one_range_tables(self, tmp_path, monkeypatch, seed, newline):
        data = ndjson_bytes(seed, "\n" if newline == "mixed" else newline)
        if newline == "mixed":  # lone \r line ends, as open() reads them, among \n
            data = data.replace(b"}\n", b"}\r", 20)
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(data + (b"\n" if seed else b""))  # seed 0 ends without one
        expected = self.assert_same_for_every_split(path, monkeypatch)
        assert isinstance(expected, dict) and expected["ranks"] and expected["skipped"]

    def test_byte_order_mark_and_blank_lines_at_the_cuts(self, tmp_path, monkeypatch):
        lines = ndjson_bytes(3).split(b"\n")
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(b"\xef\xbb\xbf" + b"\n\n  \n".join(lines) + b"\n\n")
        expected = self.assert_same_for_every_split(path, monkeypatch)
        # The BOM spoils the first line, m0's valid record, as json.loads says.
        plain = parse_corpus(line.decode() for line in lines)
        assert len(expected["ranks"]) == len(plain.messages) - 1
        assert expected["skipped"] == plain.skipped + 1

    def test_duplicate_across_ranges_names_the_first_repeat(self, tmp_path, monkeypatch):
        lines = ndjson_bytes(4).split(b"\n")
        first_repeat = json.dumps(record("m1", author="copy")).encode()
        # Sorted, "m0" and its repeat are the first equal neighbours.
        later_repeat = json.dumps(record("m0", author="copy")).encode()
        lines[len(lines) // 2 : len(lines) // 2] = [first_repeat]
        lines.append(later_repeat)
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(b"\n".join(lines))
        assert self.assert_same_for_every_split(path, monkeypatch) == (
            "CorpusError: duplicate message id: 'm1'"
        )

    def test_references_are_found_by_sorted_lookup(self, tmp_path, monkeypatch):
        """Ids are looked up in their sorted list: a name past either end or
        a prefix of an id is unknown, and a reference may name a later range."""
        raws = [
            record("a\x00", text="only a NUL-suffixed a"),
            record("é", reply_to="😀"),
            record("😀", reply_to="😀~"),  # after every id: bisection ends past the list
            record("m1", reply_to="0"),  # before every id
            record("m2", reply_to="a"),  # only "a\x00" exists
            record("m3", retweet_of="zz-last"),  # the file's last record
            *(record(f"f{i:02d}", text="filler " * i, reply_to=f"f{i - 1:02d}")
              for i in range(40)),
            record("zz-last", reply_to="é", retweet_of="a\x00"),
        ]
        lines = [json.dumps(raw, ensure_ascii=False) for raw in raws]
        path = tmp_path / "corpus.ndjson"
        path.write_text("\n".join(lines), encoding="utf-8")
        expected, _ = oracle_parse_corpus(lines)
        for ranges in (1, 2, 3, 4):
            table = self.load(path, monkeypatch, ranges).messages
            assert table_rows(table) == oracle_rows(expected)
            assert table.reply_to[:5].tolist() == [ABSENT, 2, UNKNOWN, UNKNOWN, UNKNOWN]
            assert table.retweet_of[5] == len(table) - 1
            assert table.reply_to[-1] == 1 and table.retweet_of[-1] == 0

    def test_bad_utf8_is_reported_at_its_file_offset(self, tmp_path, monkeypatch):
        data = bytearray(ndjson_bytes(5, count=200))
        last_text = data.rindex(b'"text": "') + len(b'"text": "')
        data[last_text] = 0xFF  # in the last range for every split
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(bytes(data))
        for ranges in (1, 2, 3, 4):
            with pytest.raises(CorpusError, match=f"byte 0xff in position {last_text}:"):
                self.load(path, monkeypatch, ranges)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    def test_earliest_bad_range_wins_over_a_duplicate_id(self, tmp_path, monkeypatch):
        lines = ndjson_bytes(6, count=200).split(b"\n")
        lines.insert(1, lines[0])  # a duplicate id before any bad byte
        data = bytearray(b"\n".join(lines))
        middle = data.index(b'"text": "', len(data) // 2) + len(b'"text": "')
        end = data.rindex(b'"text": "') + len(b'"text": "')
        data[middle] = data[end] = 0xC3  # not followed by a continuation byte
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(bytes(data))
        for ranges in (1, 2, 4):
            with pytest.raises(CorpusError, match=f"byte 0xc3 in position {middle}:"):
                self.load(path, monkeypatch, ranges)

    @staticmethod
    def parent_reads(monkeypatch) -> list[tuple[int, int | None]]:
        """The ranges that ``_read_range`` reads in this process, as it reads them."""
        read_range, parent, reads = corpus_module._read_range, os.getpid(), []

        def counted(file, start, end):
            if os.getpid() == parent:
                reads.append((start, end))
            return read_range(file, start, end)

        monkeypatch.setattr(corpus_module, "_read_range", counted)
        return reads

    @pytest.mark.parametrize("ranges", [2, 3, 4])
    def test_healthy_workers_send_every_range(self, tmp_path, monkeypatch, caplog, ranges):
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(ndjson_bytes(7))
        expected = table_columns(self.load(path, monkeypatch, 1))
        reads = self.parent_reads(monkeypatch)
        caplog.set_level(logging.WARNING, logger="valuescope")
        assert table_columns(self.load(path, monkeypatch, ranges)) == expected
        assert len(reads) == 1 and reads[0][0] == 0
        assert not caplog.records

    def test_merge_holds_the_only_reference_to_each_range(self, tmp_path, monkeypatch):
        """``_table`` frees each range's columns as it goes, the last one included."""
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(ndjson_bytes(7))
        table, counts = corpus_module._table, []

        def counted(parts):
            counts.extend(sys.getrefcount(part) for part in parts)
            return table(parts)

        monkeypatch.setattr(corpus_module, "_table", counted)
        self.load(path, monkeypatch, 3)
        assert len(counts) == 3 and len(set(counts)) == 1

    @pytest.mark.parametrize("failure", ["fork-fails", "before-writing", "mid-pickle"])
    def test_range_no_worker_sent_is_read_here(self, tmp_path, monkeypatch, caplog, failure):
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(ndjson_bytes(7))
        expected = table_columns(self.load(path, monkeypatch, 1))
        read_range, dump, parent = corpus_module._read_range, pickle.dump, os.getpid()

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        def dying(file, start, end):
            if os.getpid() != parent:  # a worker; the parent must not exit
                os._exit(3)
            return read_range(file, start, end)

        def dying_dump(obj, file, *args):
            if os.getpid() == parent:
                return dump(obj, file, *args)
            data = pickle.dumps(obj, *args)
            file.write(data[: len(data) // 2])  # the first half of the worker's rows
            file.flush()
            os._exit(3)

        with monkeypatch.context() as patch:
            if failure == "fork-fails":
                patch.setattr(os, "fork", no_fork)
            elif failure == "before-writing":
                patch.setattr(corpus_module, "_read_range", dying)
            else:
                patch.setattr(pickle, "dump", dying_dump)
            reads = self.parent_reads(patch)
            caplog.set_level(logging.WARNING, logger="valuescope")
            assert table_columns(self.load(path, monkeypatch, 3)) == expected
        with monkeypatch.context() as patch, open(path, "rb") as file:
            split_into_ranges(patch, path, 3)
            cuts = corpus_module._cuts(file)
        assert reads == list(zip(cuts, cuts[1:]))  # every range, in file order
        assert [record.getMessage() for record in caplog.records] == [
            f"reading bytes {start}:{end} of {str(path)!r} here: no worker sent them"
            for start, end in reads[1:]
        ]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupt_kills_and_reaps_the_workers(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(ndjson_bytes(8))
        read_range = corpus_module._read_range

        def interrupted(file, start, end):
            if not start:  # the range this process reads
                raise KeyboardInterrupt
            time.sleep(60)  # a worker still busy: it must be killed, not awaited
            return read_range(file, start, end)

        monkeypatch.setattr(corpus_module, "_read_range", interrupted)
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.load(path, monkeypatch, 4)
        assert time.monotonic() - began < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_is_read_as_one_range(self, tmp_path, monkeypatch):
        data = ndjson_bytes(9)
        regular = tmp_path / "corpus.ndjson"
        regular.write_bytes(data)
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)

        def write() -> None:
            with open(fifo, "wb") as pipe:
                pipe.write(data)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        with monkeypatch.context() as patch:
            patch.setattr(corpus_module, "_MIN_RANGE_BYTES", 1)
            patch.setattr(corpus_module, "_fork", None)  # any worker would fail the parse
            result = load_corpus(str(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert table_columns(result) == self.outcome(lambda: self.load(regular, monkeypatch, 1))

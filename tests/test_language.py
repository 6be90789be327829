"""Sentiment, emotionality and surprisal complexity."""

from __future__ import annotations

import functools
import json
import math
import operator
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    carrying_tokens,
    complexity,
    msg,
    oracle_filter_and_partition,
    oracle_language_scores,
    oracle_sentiment,
    partition_ids,
    reference_from_tokens,
    scored_sentiment,
    table_of,
)
from valuescope import (
    ORIENTATIONS,
    OrientationLexicon,
    PolarLexicon,
    ReferenceDictionary,
    build_reference,
    emotionality,
    filter_and_partition,
    language_scores,
    tokenize,
)
from valuescope import language as language_module

POS = ("good", "great", "love")
NEG = ("bad", "awful", "hate")


@pytest.fixture()
def lexicon():
    return PolarLexicon(POS, NEG)


class TestSentiment:
    def test_formula_three_pos_one_neg(self, lexicon):
        text = "good great love the good parts, one bad moment"
        # p=4, q=1 -> 0.5 + 3/10
        assert scored_sentiment(text, lexicon) == pytest.approx(0.8)

    def test_neutral_when_no_polar_token(self, lexicon):
        assert scored_sentiment("nothing polar here", lexicon) == 0.5

    def test_extremes(self, lexicon):
        assert scored_sentiment("good great", lexicon) == 1.0
        assert scored_sentiment("bad awful hate", lexicon) == 0.0

    def test_balanced_counts_are_neutral(self, lexicon):
        assert scored_sentiment("good bad", lexicon) == 0.5

    def test_matching_is_token_based(self, lexicon):
        # "goodness" must not match "good"; punctuation must not block it.
        assert scored_sentiment("goodness me", lexicon) == 0.5
        assert scored_sentiment("GOOD!", lexicon) == 1.0

    def test_multi_token_term_rejected(self):
        with pytest.raises(ValueError, match="single token"):
            PolarLexicon(["very good"], ["bad"])

    def test_default_lexicon_loads_and_is_disjoint(self):
        lex = PolarLexicon.default()
        assert lex.positive and lex.negative
        assert not (lex.positive & lex.negative)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(POS + NEG + ("the", "and", "word")), max_size=20)
    )
    def test_swapping_lexicon_mirrors_score(self, words):
        text = " ".join(words)
        straight = PolarLexicon(POS, NEG)
        swapped = PolarLexicon(NEG, POS)
        assert scored_sentiment(text, straight) == pytest.approx(
            1.0 - scored_sentiment(text, swapped), abs=1e-12
        )

    def test_lexicon_subclass_scores_token_ids(self, lexicon):
        class Subclass(PolarLexicon):
            pass

        texts = ["good great love the good parts, one bad moment", "plain", "AWFUL, bad!"]
        table, rows = carrying_tokens(
            [msg(f"m{i}", "a", float(i), text=text) for i, text in enumerate(texts)]
        )
        expected = functools.reduce(operator.add, [oracle_sentiment(t, lexicon) for t in texts])
        scores = language_scores(table, rows, Subclass(POS, NEG), None)
        assert scores["sentiment"] == expected / len(texts)


class TestEmotionality:
    def test_all_neutral_is_zero(self):
        assert emotionality([0.5, 0.5, 0.5]) == 0.0

    def test_worked_example(self):
        assert emotionality([0.2, 0.8]) == pytest.approx(0.3)

    def test_empty_is_none(self):
        assert emotionality([]) is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
    def test_zero_iff_all_neutral_and_bounded(self, sentiments):
        value = emotionality(sentiments)
        assert 0.0 <= value <= 0.5
        if all(s == 0.5 for s in sentiments):
            assert value == 0.0
        else:
            assert value > 0.0


class TestReferenceDictionary:
    def test_add_one_smoothing_worked_example(self):
        ref = reference_from_tokens(["a", "a", "b"])
        # N=3, V=2, denominator 6
        assert ref.probabilities["a"] == pytest.approx(3 / 6, abs=1e-15)
        assert ref.probabilities["b"] == pytest.approx(2 / 6, abs=1e-15)
        assert "zzz" not in ref.probabilities
        assert ref.unseen == pytest.approx(1 / 6, abs=1e-15)

    def test_probability_mass_bounded(self):
        ref = reference_from_tokens("the quick brown fox jumps".split() * 40)
        total = sum(ref.probabilities.values()) + ref.unseen
        assert total <= 1.0 + 1e-9

    def test_surprisal_array_is_exact(self):
        # Over two counting slices, with a Zipf-like spread of counts.
        rng = random.Random(5)
        words = [f"w{i}" for i in range(400)]
        texts = [
            " ".join(rng.choices(words, weights=[1 / (k + 1) for k in range(400)], k=100))
            for _ in range(700)
        ]
        messages = [msg(f"m{i:03d}", "a", float(i), text=t) for i, t in enumerate(texts)]
        tokens = table_of(messages).tokens
        assert tokens.ids.size == 70_000
        corpus = reference_from_tokens(t for text in texts for t in text.split())
        surprisal = build_reference(tokens)
        assert surprisal.dtype == np.float64
        assert surprisal.tolist() == [
            -math.log(corpus.probabilities[w]) for w in tokens.vocabulary
        ]
        # Holds a token the corpus lacks and lacks every corpus token but two.
        external = ReferenceDictionary.from_counts({"w0": 9, "w7": 2, "absent": 4})
        surprisal = build_reference(tokens, external)
        assert surprisal.tolist() == [
            -math.log(external.probabilities.get(w, external.unseen))
            for w in tokens.vocabulary
        ]
        assert surprisal[tokens.vocabulary["w3"]] == -math.log(external.unseen)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            ReferenceDictionary.from_counts({})
        with pytest.raises(ValueError):
            ReferenceDictionary({"a": 0.0}, unseen=0.1)
        with pytest.raises(ValueError):
            ReferenceDictionary({"a": 0.9, "b": 0.2}, unseen=0.1)
        with pytest.raises(ValueError):
            ReferenceDictionary({"a": 0.5}, unseen=0.0)
        # NaN compares false with everything, so a plain "<= 0" lets it through.
        with pytest.raises(ValueError):
            ReferenceDictionary({"a": float("nan")}, unseen=0.1)
        with pytest.raises(ValueError):
            ReferenceDictionary({"a": 0.2}, unseen=float("nan"))

    def test_from_file(self, tmp_path):
        path = tmp_path / "ref.json"
        path.write_text('{"a": 2, "b": 1}')
        ref = ReferenceDictionary.from_file(str(path))
        assert ref.probabilities["a"] == pytest.approx(3 / 6)

    def test_from_file_rejects_bad_counts(self, tmp_path):
        path = tmp_path / "ref.json"
        for count in ("-1", "true", "false", "1.5", '"3"', "null"):
            path.write_text('{"a": 2, "b": %s}' % count)
            with pytest.raises(ValueError, match="bad count"):
                ReferenceDictionary.from_file(str(path))


class TestComplexity:
    def test_uniform_dictionary_gives_log_v(self):
        v = 1024
        ref = ReferenceDictionary(
            {f"w{i}": 1.0 / v for i in range(v)}, unseen=1e-12
        )
        tokens = [f"w{i % v}" for i in range(5000)]
        assert complexity(tokens, ref) == pytest.approx(math.log(v), abs=1e-9)

    def test_rare_tokens_raise_complexity(self):
        ref = reference_from_tokens(["common"] * 99 + ["rare"])
        assert complexity(["rare"], ref) > complexity(["common"], ref)
        assert complexity(["never_seen"], ref) > complexity(["rare"], ref)

    def test_empty_tokens_is_none(self):
        ref = reference_from_tokens(["a"])
        assert complexity([], ref) is None

    def test_mean_over_tokens(self):
        ref = reference_from_tokens(["a", "a", "b"])
        solo_a = complexity(["a"], ref)
        solo_b = complexity(["b"], ref)
        assert complexity(["a", "b"], ref) == pytest.approx((solo_a + solo_b) / 2)


class TestLanguageScores:
    def test_bundle(self, lexicon):
        messages = [
            msg("m1", "x", 0.0, text="good good thing"),
            msg("m2", "y", 1.0, text="bad thing"),
        ]
        ref = reference_from_tokens(
            t for m in messages for t in ("good", "bad", "thing")
        )
        table, rows = carrying_tokens(messages)
        scores = language_scores(table, rows, lexicon, build_reference(table.tokens, ref))
        assert scores["sentiment"] == pytest.approx((1.0 + 0.0) / 2)
        assert scores["emotionality"] == pytest.approx(0.5)
        assert scores["complexity"] == pytest.approx(
            complexity(["good", "good", "thing", "bad", "thing"], ref)
        )

    def test_empty_messages(self, lexicon):
        scores = language_scores(*carrying_tokens([]), lexicon, None)
        assert scores == {"sentiment": None, "emotionality": None, "complexity": None}

    def test_without_reference_complexity_absent(self, lexicon):
        messages = [msg("m1", "x", 0.0, text="good")]
        scores = language_scores(*carrying_tokens(messages), lexicon, None)
        assert scores["sentiment"] == 1.0
        assert scores["complexity"] is None

    def test_means_add_left_to_right(self, lexicon):
        # 0.6 ten times: 0.5999999999999999 left to right, 0.6 compensated.
        messages = [
            msg(f"m{i}", "x", float(i), text="good good good bad bad") for i in range(10)
        ]
        sentiments = [0.6] * 10
        expected = functools.reduce(operator.add, sentiments) / len(sentiments)
        scores = language_scores(*carrying_tokens(messages), lexicon, None)
        assert scores["sentiment"] == expected

    def test_memory_is_bounded_by_the_slice(self, lexicon, monkeypatch):
        """Four times the tokens, in four times the ``ID_SLICE`` slices, raise
        the traced peak by far less than four times: only the per-message
        sentiments grow with the partition."""
        size = 1024
        monkeypatch.setattr(language_module, "ID_SLICE", size)
        words = ["good", "bad", "plain", "words", "here", "and", "more", "text"]

        def peak(slices: int) -> int:
            table, rows = carrying_tokens([
                msg(f"m{i}", "x", float(i), text=" ".join(words[i % 8 :] + words[: i % 8]))
                for i in range(slices * size // len(words))
            ])
            assert table.tokens.ids.size == slices * size
            surprisal = build_reference(table.tokens)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                language_scores(table, rows, lexicon, surprisal)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        assert peak(8) <= 1.5 * peak(2)


# Tagging words, polar words (one on both sides), plain words and noise.
_WORDS = (
    "quality", "Team", "spirit", "integrity", "ETHICS", "service", "good",
    "great!", "love", "bad", "awful", "hate", "mixed", "plain", "words",
    "rare", "#tag", "@who", "...",
)


def _text_based_scores(texts, lexicon, reference) -> dict:
    """The computation before messages carried tokens: re-tokenize each text."""
    sentiments = [oracle_sentiment(text, lexicon) for text in texts]
    tokens = [token for text in texts for token in tokenize(text)]
    # Left to right, the order the builtin sum used before Python 3.12.
    total = functools.partial(functools.reduce, operator.add)
    return {
        "sentiment": total(sentiments) / len(sentiments),
        "emotionality": total(abs(s - 0.5) for s in sentiments) / len(sentiments),
        "complexity": total(
            -math.log(reference.probabilities.get(t, reference.unseen))
            for t in tokens
        )
        / len(tokens)
        if tokens
        else None,
    }


@pytest.fixture(scope="module")
def file_reference(tmp_path_factory):
    # Holds only some corpus tokens, so the rest take the unseen surprisal.
    path = tmp_path_factory.mktemp("ref") / "reference.json"
    path.write_text(json.dumps({"quality": 7, "good": 2, "plain": 3, "other": 1}))
    return ReferenceDictionary.from_file(str(path))


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join),
        min_size=1,
        max_size=20,
    )
)
def test_carried_tokens_equal_text_based_computation(texts, file_reference):
    polar = PolarLexicon(
        ("good", "great", "love", "mixed"), ("bad", "awful", "hate", "mixed")
    )
    messages = [msg(f"m{i:02d}", "a", float(i), text=t) for i, t in enumerate(texts)]
    table = table_of(messages)
    partitions, _ = filter_and_partition(table, OrientationLexicon.default())
    tokens = table.tokens

    # (surprisal array, the reference it must agree with)
    references = [(build_reference(tokens, file_reference), file_reference)]
    text_counts = Counter(t for m in messages for t in tokenize(m.text))
    assert set(tokens.vocabulary) == set(text_counts)
    if text_counts:
        # The counts agree if the surprisals of their smoothed model do.
        text_reference = ReferenceDictionary.from_counts(dict(text_counts))
        surprisal = build_reference(tokens)
        assert surprisal.tolist() == [
            -math.log(text_reference.probabilities[w]) for w in tokens.vocabulary
        ]
        references.append((surprisal, text_reference))

    for surprisal, reference in references:
        for orientation in ORIENTATIONS:
            rows = partitions[orientation]
            if not rows.size:
                continue
            texts = [messages[row].text for row in rows.tolist()]
            assert language_scores(table, rows, polar, surprisal) == _text_based_scores(
                texts, polar, reference
            )


# The default tagging words plus a custom lexicon's words, empty and
# punctuation-only texts, and polar words with "mixed" on both sides.
_ORACLE_WORDS = _WORDS + (
    "passion", "for", "our", "customers", "alpha", "beta", "gamma", "delta",
    "epsilon", "", "!!", "-",
)
_CUSTOM_LEXICON = {
    "Customers": ["alpha beta gamma delta epsilon", "quality", "passion for our customers"],
    "Employees": ["alpha beta", "team spirit"],
    "EconomicFinancialGrowth": ["beta beta", "zeta never seen"],
    "Excellence": ["gamma", "alpha beta gamma delta epsilon"],
    "Citizenship": ["integrity", "delta epsilon"],
    "SocialResponsibility": ["absent phrase here", "epsilon alpha"],
}


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(_ORACLE_WORDS), max_size=9).map(" ".join),
        max_size=25,
    ),
    hours=st.lists(st.integers(0, 3), min_size=25, max_size=25),
    ids=st.permutations(range(25)),
    custom=st.booleans(),
)
@example(texts=["", "!!", "- ..."], hours=[0] * 25, ids=list(range(25)), custom=False)
@example(
    texts=["passion for", "our customers", "alpha beta gamma", "delta epsilon"],
    hours=[1] * 25,
    ids=list(range(24, -1, -1)),
    custom=True,
)
def test_token_table_matches_per_message_oracle(texts, hours, ids, custom, file_reference):
    lexicon = (
        OrientationLexicon(_CUSTOM_LEXICON) if custom else OrientationLexicon.default()
    )
    messages = [
        msg(f"m{ids[i]:02d}", "a", float(hours[i]), text=text)
        for i, text in enumerate(texts)
    ]
    table = table_of(messages)
    partitions, discarded = filter_and_partition(table, lexicon)
    expected, expected_discarded, expected_counts = oracle_filter_and_partition(
        messages, lexicon
    )
    assert discarded == expected_discarded
    tokens = table.tokens
    assert list(tokens.vocabulary) == list(expected_counts)
    for orientation in ORIENTATIONS:
        assert partition_ids(messages, partitions[orientation]) == [
            t.message.id for t in expected[orientation]
        ]

    # (surprisal array, the reference it must agree with)
    references = [(None, None), (build_reference(tokens, file_reference), file_reference)]
    if expected_counts:
        # The counts agree if the surprisals of their smoothed model do.
        expected_reference = ReferenceDictionary.from_counts(dict(expected_counts))
        surprisal = build_reference(tokens)
        assert surprisal.tolist() == [
            -math.log(expected_reference.probabilities[w]) for w in tokens.vocabulary
        ]
        references.append((surprisal, expected_reference))
    polar = PolarLexicon(
        ("good", "great", "love", "mixed"), ("bad", "awful", "hate", "mixed")
    )
    for surprisal, reference in references:
        for orientation in ORIENTATIONS:
            assert language_scores(
                table, partitions[orientation], polar, surprisal
            ) == oracle_language_scores(expected[orientation], polar, reference)

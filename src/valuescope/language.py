"""Language metrics: lexicon sentiment, emotionality, unigram surprisal.

Sentiment scorers are pluggable: anything callable as ``scorer(text) -> float``
with output in [0, 1] works, and any other output fails the run.  The
built-in baseline counts polar lexicon tokens, reading the partition's ids
in the corpus token table.  Complexity is the mean surprisal (nats) of a
partition's tokens: ``build_reference`` gives each vocabulary entry its
surprisal once per run, under the corpus's smoothed unigram model or an
external reference dictionary, and every partition indexes that array.

Every mean adds its terms left to right, so it has the same bits on every
Python version (the builtin ``sum`` of floats is compensated since 3.12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .config import ConfigError, read_json_object
from .corpus import ID_SLICE, Partition, TokenTable, is_string_list, tokenize
from .hierarchy import is_finite_number

SentimentScorer = Callable[[str], float]

NEUTRAL_SENTIMENT = 0.5


class PolarLexicon:
    """Positive and negative single-token term sets."""

    def __init__(self, positive: Collection[str], negative: Collection[str]):
        self.positive = self._normalize(positive, "positive")
        self.negative = self._normalize(negative, "negative")
        # A token on both sides counts as positive only.
        self._negative_only = self.negative - self.positive

    @staticmethod
    def _normalize(terms: Collection[str], side: str) -> frozenset[str]:
        if not is_string_list(terms):
            raise ConfigError(f"{side} sentiment terms must be a list of strings")
        cleaned: set[str] = set()
        for term in terms:
            tokens = tokenize(term)
            if len(tokens) != 1:
                raise ConfigError(
                    f"{side} sentiment term {term!r} must be a single token"
                )
            cleaned.add(tokens[0])
        return frozenset(cleaned)

    @classmethod
    def from_file(cls, path: str) -> "PolarLexicon":
        with read_json_object(path, "sentiment lexicon") as raw:
            if set(raw) != {"positive", "negative"}:
                raise ConfigError("must hold exactly 'positive' and 'negative' arrays")
            return cls(raw["positive"], raw["negative"])

    @classmethod
    def default(cls) -> "PolarLexicon":
        packaged = resources.files("valuescope.data") / "sentiment_lexicon.json"
        with resources.as_file(packaged) as path:
            return cls.from_file(str(path))


def score_sentiment(text: str, lexicon: PolarLexicon) -> float:
    """0.5 + (p - q) / (2 (p + q)); 0.5 when no polar token occurs."""
    tokens = tokenize(text)
    p = sum(map(lexicon.positive.__contains__, tokens))
    q = sum(map(lexicon._negative_only.__contains__, tokens))
    if p + q == 0:
        return NEUTRAL_SENTIMENT
    return 0.5 + (p - q) / (2.0 * (p + q))


class LexiconSentimentScorer:
    """Default scorer: polar token counting against a PolarLexicon."""

    def __init__(self, lexicon: PolarLexicon | None = None):
        self.lexicon = lexicon if lexicon is not None else PolarLexicon.default()

    def __call__(self, text: str) -> float:
        return score_sentiment(text, self.lexicon)


def _mean(values: np.ndarray) -> float:
    """Mean with its terms added left to right (``cumsum``, not pairwise ``sum``)."""
    return float(np.cumsum(values)[-1] / values.size)


def emotionality(sentiments: Sequence[float]) -> float | None:
    """Mean absolute deviation from neutral; lives in [0, 0.5]."""
    if not len(sentiments):
        return None
    return _mean(np.abs(np.asarray(sentiments, dtype=np.float64) - NEUTRAL_SENTIMENT))


class ReferenceDictionary:
    """Unigram probabilities with a shared mass for unseen tokens."""

    def __init__(self, probabilities: dict[str, float], unseen: float):
        # Written so that NaN fails too: it compares false with everything.
        if not 0.0 < unseen <= 1.0:
            raise ConfigError(f"unseen probability must be in (0, 1]: {unseen!r}")
        total = unseen
        for token, prob in probabilities.items():
            if not 0.0 < prob <= 1.0:
                raise ConfigError(f"probability for {token!r} must be in (0, 1]: {prob!r}")
            total += prob
        if total > 1.0 + 1e-9:
            raise ConfigError(f"probabilities sum to {total}, above 1")
        self.probabilities = dict(probabilities)
        self.unseen = unseen

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> "ReferenceDictionary":
        """Add-one smoothing: p(w) = (count + 1) / (N + V + 1)."""
        if not counts:
            raise ConfigError("reference dictionary needs at least one token")
        for token, count in counts.items():
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise ConfigError(f"bad count for token {token!r}: {count!r}")
        denom = sum(counts.values()) + len(counts) + 1
        probabilities = {token: (c + 1) / denom for token, c in counts.items()}
        return cls(probabilities, 1.0 / denom)

    @classmethod
    def from_file(cls, path: str) -> "ReferenceDictionary":
        with read_json_object(path, "reference dictionary") as counts:
            return cls.from_counts(counts)


def build_reference(
    tokens: TokenTable, reference: ReferenceDictionary | None = None
) -> np.ndarray:
    """Surprisal -log p(w) in nats of every vocabulary entry, by token id.

    Without ``reference`` p is ``ReferenceDictionary.from_counts`` of the
    corpus counts; with one, a token it lacks gets its unseen probability.
    """
    ids, vocabulary = tokens.ids, tokens.vocabulary
    if reference is None:
        # Slice by slice, since bincount copies its input to int64.
        counts = np.zeros(len(vocabulary), dtype=np.int64)
        for start in range(0, ids.size, ID_SLICE):
            counts += np.bincount(ids[start : start + ID_SLICE], minlength=counts.size)
        denom = ids.size + counts.size + 1
        probabilities = [(c + 1) / denom for c in counts.tolist()]
    else:
        lookup, unseen = reference.probabilities.get, reference.unseen
        probabilities = [lookup(token, unseen) for token in vocabulary]
    # math.log per entry, so the bits match a per-token computation.
    return np.array([-math.log(p) for p in probabilities], dtype=np.float64)


@dataclass(frozen=True, slots=True)
class LanguageScores:
    sentiment: float | None
    emotionality: float | None
    complexity: float | None


def _lexicon_sentiments(
    ids: np.ndarray, bounds: np.ndarray, vocabulary: Mapping[str, int], lexicon: PolarLexicon
) -> np.ndarray:
    """``score_sentiment`` of every message, from its ids and bounds."""
    counts = []
    for terms in (lexicon.positive, lexicon._negative_only):
        polar = np.zeros(len(vocabulary), dtype=bool)
        polar[[vocabulary[term] for term in terms if term in vocabulary]] = True
        # Polar tokens per message as differences of a running count.
        running = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(polar[ids], out=running[1:])
        counts.append(running[bounds[1:]] - running[bounds[:-1]])
    p, q = counts
    sentiments = np.full(p.size, NEUTRAL_SENTIMENT)
    some = p + q > 0
    sentiments[some] = 0.5 + (p - q)[some] / (2.0 * (p + q)[some])
    return sentiments


def language_scores(
    partition: Partition,
    scorer: SentimentScorer,
    surprisal: np.ndarray | None,
) -> LanguageScores:
    """Sentiment, emotionality and complexity of one partition.

    The default lexicon scorer reads the partition's token ids; any other
    scorer is called with each message's text.  A sentiment outside [0, 1],
    NaN or not a number raises ValueError naming the message.  Complexity
    reads ``surprisal``, the corpus's ``build_reference`` array, if given.
    """
    if not partition.rows.size:
        return LanguageScores(None, None, None)
    ids, bounds = partition.token_ids()
    vocabulary = partition.tokens.vocabulary
    if type(scorer) is LexiconSentimentScorer:
        sentiments = _lexicon_sentiments(ids, bounds, vocabulary, scorer.lexicon)
    else:
        corpus, rows = partition.corpus, partition.rows.tolist()
        values = [scorer(corpus.texts[row]) for row in rows]
        for row, value in zip(rows, values):
            if not is_finite_number(value) or not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"sentiment scorer returned {value!r} for message "
                    f"{corpus.ids[row]!r}; expected a finite number in [0, 1]"
                )
        sentiments = np.array(values, dtype=np.float64)
    return LanguageScores(
        sentiment=_mean(sentiments),
        emotionality=emotionality(sentiments),
        complexity=_mean(surprisal[ids]) if surprisal is not None and ids.size else None,
    )

"""Language metrics: lexicon sentiment, emotionality, unigram surprisal.

Sentiment comes from a ``PolarLexicon``, which counts polar tokens on the
partition's ids in the corpus token table and never reads a text, or from
any callable ``scorer(text) -> float``, which is called with each message's
text and must return a number in [0, 1]; any other output fails the run.
Complexity is the mean surprisal (nats) of a partition's tokens:
``build_reference`` gives each vocabulary entry its surprisal once per run,
under the corpus's smoothed unigram model or an external reference
dictionary, and every partition indexes that array.
"""

from __future__ import annotations

import math
from importlib import resources
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from .config import ConfigError, read_json_object
from .corpus import ID_SLICE, MessageTable, TokenTable, is_string_list, segments, tokenize
from .hierarchy import LANGUAGE_METRICS, is_finite_number, ordered_mean

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

    def sentiments(
        self, ids: np.ndarray, bounds: np.ndarray, vocabulary: Mapping[str, int]
    ) -> np.ndarray:
        """0.5 + (p - q) / (2 (p + q)) of each message ``ids[bounds[k]:bounds[k + 1]]``, with p
        positive and q negative-only tokens; 0.5 when no polar token occurs."""
        counts = []
        for terms in (self.positive, self._negative_only):
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


def emotionality(sentiments: Sequence[float]) -> float | None:
    """Mean absolute deviation from neutral; lives in [0, 0.5]."""
    if not len(sentiments):
        return None
    return ordered_mean(np.abs(np.asarray(sentiments, dtype=np.float64) - NEUTRAL_SENTIMENT))


def _add_one(counts: list[int]) -> tuple[list[float], float]:
    """p(w) = (count + 1) / (N + V + 1) of each count, and 1 / (N + V + 1) for unseen tokens."""
    denom = sum(counts) + len(counts) + 1
    return [(c + 1) / denom for c in counts], 1.0 / denom


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
        """Add-one smoothed probabilities of token counts."""
        if not counts:
            raise ConfigError("reference dictionary needs at least one token")
        for token, count in counts.items():
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise ConfigError(f"bad count for token {token!r}: {count!r}")
        probabilities, unseen = _add_one(list(counts.values()))
        return cls(dict(zip(counts, probabilities)), unseen)

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
        probabilities, _ = _add_one(counts.tolist())
    else:
        lookup, unseen = reference.probabilities.get, reference.unseen
        probabilities = [lookup(token, unseen) for token in vocabulary]
    # math.log per entry, so the bits match a per-token computation.
    return np.array([-math.log(p) for p in probabilities], dtype=np.float64)


def language_scores(
    table: MessageTable,
    rows: np.ndarray,
    scorer: PolarLexicon | SentimentScorer,
    surprisal: np.ndarray | None,
) -> dict[str, float | None]:
    """The ``hierarchy.LANGUAGE_METRICS`` of one partition, ``rows`` of ``table``, by name.

    A ``PolarLexicon`` scores the rows' token ids; any other scorer is
    called with each message's text, and a sentiment outside [0, 1], NaN or
    not a number raises ValueError naming the message.  Complexity reads
    ``surprisal``, the corpus's ``build_reference`` array, if given.
    """
    if not rows.size:
        return dict.fromkeys(LANGUAGE_METRICS)
    positions, bounds = segments(table.tokens.bounds, rows)
    ids = table.tokens.ids[positions]
    if isinstance(scorer, PolarLexicon):
        sentiments = scorer.sentiments(ids, bounds, table.tokens.vocabulary)
    else:
        rows = rows.tolist()
        values = [scorer(table.texts[row]) for row in rows]
        for row, value in zip(rows, values):
            if not is_finite_number(value) or not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"sentiment scorer returned {value!r} for message "
                    f"{table.ids[row]!r}; expected a finite number in [0, 1]"
                )
        sentiments = np.array(values, dtype=np.float64)
    return {
        "sentiment": ordered_mean(sentiments),
        "emotionality": emotionality(sentiments),
        "complexity": ordered_mean(surprisal[ids]) if surprisal is not None and ids.size else None,
    }

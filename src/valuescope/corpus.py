"""Corpus ingestion: NDJSON parsing, keyword tagging, orientation partitioning.

Input is newline-delimited JSON, one message per line, with fields
``id``, ``author``, ``created_at`` (RFC 3339, UTC), ``text``, ``reply_to``,
``retweet_of`` and ``mentions``.  Messages are tagged against six core-value
orientations by matching lexicon phrases as contiguous token subsequences,
insensitive to case and punctuation.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from typing import Iterable, NamedTuple, Sequence

import numpy as np

ORIENTATIONS: tuple[str, ...] = (
    "Customers",
    "Employees",
    "EconomicFinancialGrowth",
    "Excellence",
    "Citizenship",
    "SocialResponsibility",
)

# A token is a run of word characters; a leading @ or # sticks to its token so
# handles and hashtags survive whole ("party" can never match inside "#party").
_TOKEN_RE = re.compile(r"[@#]?\w+")

_MAX_PHRASE_TOKENS = 5


class CorpusError(ValueError):
    """Fatal corpus defect, e.g. a duplicate message id or unreadable input."""


def is_string_list(value: object) -> bool:
    """A list, tuple or set of strings; a bare string is not one."""
    return isinstance(value, (list, tuple, set, frozenset)) and all(
        isinstance(item, str) for item in value
    )


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it on runs of non-alphanumerics."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True, slots=True)
class Message:
    id: str
    author: str
    created_at: datetime  # always timezone-aware UTC
    text: str
    reply_to: str | None = None
    retweet_of: str | None = None
    mentions: tuple[str, ...] = ()


@dataclass
class ParseResult:
    messages: list[Message]
    skipped: int


def _parse_timestamp(raw: object) -> datetime | None:
    if not isinstance(raw, str) or not raw:
        return None
    try:
        stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
        if stamp.tzinfo is None:
            return stamp.replace(tzinfo=timezone.utc)
        # Raises OverflowError when the offset moves the date past year 1 or 9999.
        return stamp.astimezone(timezone.utc)
    except (ValueError, OverflowError):
        return None


def _clean_handle(raw: object) -> str | None:
    if not isinstance(raw, str):
        return None
    handle = raw.strip().lstrip("@").lower()
    return handle or None


def parse_record(raw: object) -> Message | None:
    """Turn one decoded JSON record into a Message, or None if malformed."""
    if not isinstance(raw, dict):
        return None
    msg_id = raw.get("id")
    if not isinstance(msg_id, str) or not msg_id:
        return None
    author = _clean_handle(raw.get("author"))
    if author is None:
        return None
    created_at = _parse_timestamp(raw.get("created_at"))
    if created_at is None:
        return None
    text = raw.get("text")
    if not isinstance(text, str):
        return None

    refs: list[str | None] = []
    for key in ("reply_to", "retweet_of"):
        ref = raw.get(key)
        if ref is None:
            refs.append(None)
            continue
        # A message referencing itself is nonsense; treat as malformed.
        if not isinstance(ref, str) or not ref or ref == msg_id:
            return None
        refs.append(ref)

    raw_mentions = raw.get("mentions", [])
    if raw_mentions is None:
        raw_mentions = []
    if not isinstance(raw_mentions, list):
        return None
    mentions: list[str] = []
    for entry in raw_mentions:
        handle = _clean_handle(entry)
        if handle is None:
            return None
        mentions.append(handle)

    # Positional: keyword construction of the frozen slots class is slower.
    return Message(msg_id, author, created_at, text, refs[0], refs[1], tuple(mentions))


def parse_corpus(lines: Iterable[str]) -> ParseResult:
    """Parse an NDJSON stream.

    Malformed records (bad JSON, missing fields, unparseable timestamps,
    self-references) are counted and skipped.  A duplicate message id is a
    hard error: silently keeping either copy would corrupt every downstream
    count.
    """
    messages: list[Message] = []
    skipped = 0
    seen: set[str] = set()
    for line in lines:
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        message = parse_record(raw)
        if message is None:
            skipped += 1
            continue
        if message.id in seen:
            raise CorpusError(f"duplicate message id: {message.id!r}")
        seen.add(message.id)
        messages.append(message)
    return ParseResult(messages=messages, skipped=skipped)


def load_corpus(path: str) -> ParseResult:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_corpus(handle)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path!r}: {exc}") from exc


class OrientationLexicon:
    """Keyword phrases for the six orientations, pre-tokenized for matching."""

    def __init__(self, phrases: dict[str, list[str]]):
        given = set(phrases)
        expected = set(ORIENTATIONS)
        if given != expected:
            missing = sorted(expected - given)
            extra = sorted(given - expected)
            raise ValueError(
                f"lexicon must define exactly the six orientations; "
                f"missing={missing} unknown={extra}"
            )
        self.phrases: dict[str, tuple[tuple[str, ...], ...]] = {}
        for orientation in ORIENTATIONS:
            if not is_string_list(phrases[orientation]):
                raise ValueError(f"{orientation}: phrases must be a list of strings")
            seen: set[tuple[str, ...]] = set()
            tokenized: list[tuple[str, ...]] = []
            for phrase in phrases[orientation]:
                tokens = tuple(tokenize(phrase))
                if not tokens or len(tokens) > _MAX_PHRASE_TOKENS:
                    raise ValueError(
                        f"{orientation}: phrase {phrase!r} must have 1 to "
                        f"{_MAX_PHRASE_TOKENS} tokens"
                    )
                if tokens in seen:
                    raise ValueError(
                        f"{orientation}: duplicate phrase {phrase!r}"
                    )
                seen.add(tokens)
                tokenized.append(tokens)
            self.phrases[orientation] = tuple(tokenized)

    @classmethod
    def from_file(cls, path: str) -> "OrientationLexicon":
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError("orientation lexicon must be a JSON object")
        return cls(raw)

    @classmethod
    def default(cls) -> "OrientationLexicon":
        data = (
            resources.files("valuescope.data")
            .joinpath("orientation_lexicon.json")
            .read_text(encoding="utf-8")
        )
        return cls(json.loads(data))


class TokenTable(NamedTuple):
    """Every message's tokens as ids into one vocabulary, messages back to back."""

    ids: np.ndarray  # int32
    bounds: np.ndarray  # int64; message r holds ids[bounds[r] : bounds[r + 1]]
    vocabulary: dict[str, int]  # token -> id, ids in first-seen order


def token_table(messages: Sequence[Message]) -> TokenTable:
    """Tokenize each message once and number its tokens in first-seen order."""
    vocabulary: defaultdict[str, int] = defaultdict()
    # A token seen for the first time gets the next id: the size before insertion.
    vocabulary.default_factory = vocabulary.__len__
    number = vocabulary.__getitem__
    ids = array("i")
    bounds = array("q", [0])
    for message in messages:
        ids.extend(map(number, tokenize(message.text)))
        bounds.append(len(ids))
    return TokenTable(
        np.frombuffer(ids, dtype=np.int32),
        np.frombuffer(bounds, dtype=np.int64),
        dict(vocabulary),
    )


@dataclass(frozen=True, slots=True, eq=False)
class Partition:
    """One orientation's messages, sorted by (created_at, id), and their tokens."""

    messages: list[Message]
    rows: np.ndarray  # each message's row in ``tokens``
    tokens: TokenTable  # the corpus-wide table, shared by every partition

    def token_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """The messages' token ids back to back, and each message's bounds in them."""
        starts = self.tokens.bounds[self.rows]
        lengths = self.tokens.bounds[self.rows + 1] - starts
        bounds = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        positions = np.repeat(starts - bounds[:-1], lengths)
        positions += np.arange(bounds[-1])
        return self.tokens.ids[positions], bounds


def _tag(table: TokenTable, lexicon: OrientationLexicon) -> np.ndarray:
    """(orientation, message) matrix: does one of its phrases occur in the message.

    Candidates are the positions holding some phrase's first token; a phrase
    matches at a candidate when it fits in the candidate's own message and
    its remaining tokens follow, so no match spans two messages.
    """
    ids, bounds, vocabulary = table
    phrases = [
        (row, [vocabulary[token] for token in phrase])
        for row, orientation in enumerate(ORIENTATIONS)
        for phrase in lexicon.phrases[orientation]
        if all(token in vocabulary for token in phrase)
    ]
    is_first = np.zeros(len(vocabulary), dtype=bool)
    is_first[[phrase[0] for _, phrase in phrases]] = True
    starts = np.flatnonzero(is_first[ids])
    owner = np.searchsorted(bounds, starts, side="right") - 1
    room = bounds[owner + 1] - starts  # tokens from the candidate to its message end
    first = ids[starts]
    tags = np.zeros((len(ORIENTATIONS), len(bounds) - 1), dtype=bool)
    for row, phrase in phrases:
        hits = np.flatnonzero((first == phrase[0]) & (room >= len(phrase)))
        for offset, token in enumerate(phrase[1:], 1):
            hits = hits[ids[starts[hits] + offset] == token]
        tags[row, owner[hits]] = True
    return tags


class Partitioned(NamedTuple):
    partitions: dict[str, Partition]
    discarded: int
    token_counts: dict[str, int]  # over every message, untagged ones included


def filter_and_partition(
    messages: Iterable[Message], lexicon: OrientationLexicon
) -> Partitioned:
    """Tokenize and tag messages and split them into per-orientation partitions.

    Each message is tokenized exactly once into the corpus-wide token
    table; its tokens are counted, untagged messages included, for the
    reference dictionary.  A message matching several orientations lands in
    each of them; untagged messages are dropped and counted.  Partitions
    come back sorted by (created_at, id) so every downstream computation is
    independent of input order.
    """
    messages = list(messages)
    table = token_table(messages)
    tags = _tag(table, lexicon)
    tagged = np.flatnonzero(tags.any(axis=0)).tolist()
    # Two stable sorts order by (created_at, id), faster than one on tuples.
    tagged.sort(key=lambda r: messages[r].id)
    tagged.sort(key=lambda r: messages[r].created_at)
    ordered = np.array(tagged, dtype=np.int64)
    partitions = {}
    for row, orientation in enumerate(ORIENTATIONS):
        rows = ordered[tags[row, ordered]]
        partitions[orientation] = Partition(
            [messages[r] for r in rows.tolist()], rows, table
        )
    counts = np.bincount(table.ids, minlength=len(table.vocabulary))
    return Partitioned(
        partitions,
        len(messages) - len(tagged),
        dict(zip(table.vocabulary, counts.tolist())),
    )

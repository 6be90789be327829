"""Corpus ingestion: NDJSON parsing, keyword tagging, orientation partitioning.

Input is newline-delimited JSON, one message per line, with fields
``id``, ``author``, ``created_at`` (RFC 3339, UTC), ``text``, ``reply_to``,
``retweet_of`` and ``mentions``.  Parsing fills one ``MessageTable`` of
columns for the whole corpus; a partition is an array of its rows.
Messages are tagged against six core-value
orientations by matching lexicon phrases as contiguous token subsequences,
insensitive to case and punctuation.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from importlib import resources
from itertools import repeat
from operator import truediv
from typing import Iterable, Iterator, NamedTuple

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
    """One message as a record, the input of ``MessageTable.from_messages``."""

    id: str
    author: str
    created_at: datetime  # always timezone-aware UTC
    text: str
    reply_to: str | None = None
    retweet_of: str | None = None
    mentions: tuple[str, ...] = ()


# A reference column holds the referenced row, or one of these.
ABSENT = -1  # the message names no message
UNKNOWN = -2  # the message names an id that no message of the table has

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


@dataclass(eq=False)
class MessageTable:
    """The corpus as columns, one row per message, in input order.

    ``handles`` is the sorted table of every author and mentioned handle;
    ``authors`` and ``mentions`` are ids into it, row r's mentions being
    ``mentions[mention_bounds[r] : mention_bounds[r + 1]]``.  ``micros``
    are epoch microseconds, exact for ordering; ``seconds`` are the same
    instants as ``datetime.timestamp()`` gives them.  ``reply_to`` and
    ``retweet_of`` hold the referenced row, ``ABSENT`` or ``UNKNOWN``.
    """

    ids: list[str]
    texts: list[str]
    handles: tuple[str, ...]
    authors: np.ndarray  # int64
    mentions: np.ndarray  # int64
    mention_bounds: np.ndarray  # int64
    micros: np.ndarray  # int64
    seconds: np.ndarray  # float64
    reply_to: np.ndarray  # int64
    retweet_of: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_messages(cls, messages: Iterable[Message]) -> "MessageTable":
        """The table of ``messages``, in the given order; ids must be unique."""
        return _message_table(
            (m.id, m.author, (m.created_at - _EPOCH) // _MICROSECOND, m.text,
             m.reply_to, m.retweet_of, m.mentions)
            for m in messages
        )

    def order(self, rows: np.ndarray | None = None) -> np.ndarray:
        """``rows`` (default: every row) in ``(created_at, id)`` order."""
        if rows is None:
            rows = np.arange(len(self.ids))
        # Ids sort as Python strings: a numpy string sort ignores trailing NULs.
        by_id = np.array(sorted(rows.tolist(), key=self.ids.__getitem__), dtype=np.int64)
        return by_id[np.argsort(self.micros[by_id], kind="stable")]

    def created_at(self, row: int) -> datetime:
        """The row's stamp as an aware UTC datetime."""
        return _EPOCH + timedelta(microseconds=int(self.micros[row]))


def _message_table(records: Iterable[tuple]) -> MessageTable:
    """The table of ``(id, author, micros, text, reply_to, retweet_of, mentions)`` records."""
    row_of: dict[str | None, int] = {}
    ids: list[str] = []
    texts: list[str] = []
    replies: list[str | None] = []
    retweets: list[str | None] = []
    micros = array("q")
    # Handles are numbered in first-seen order until the table is sorted.
    handles: defaultdict[str, int] = defaultdict()
    handles.default_factory = handles.__len__
    number = handles.__getitem__
    authors = array("q")
    mentions = array("q")
    mention_bounds = array("q", [0])
    for msg_id, author, stamp, text, reply_to, retweet_of, named in records:
        if msg_id in row_of:
            raise CorpusError(f"duplicate message id: {msg_id!r}")
        row_of[msg_id] = len(ids)
        ids.append(msg_id)
        texts.append(text)
        replies.append(reply_to)
        retweets.append(retweet_of)
        micros.append(stamp)
        authors.append(number(author))
        mentions.extend(map(number, named))
        mention_bounds.append(len(mentions))

    first_seen = list(handles)
    by_handle = sorted(range(len(first_seen)), key=first_seen.__getitem__)
    renumber = np.empty(len(first_seen), dtype=np.int64)
    renumber[by_handle] = np.arange(len(first_seen))
    row_of[None] = ABSENT  # so that one lookup resolves every reference
    reply_to, retweet_of = (
        np.fromiter(map(row_of.get, refs, repeat(UNKNOWN)), np.int64, len(refs))
        for refs in (replies, retweets)
    )
    return MessageTable(
        ids=ids,
        texts=texts,
        handles=tuple(first_seen[i] for i in by_handle),
        authors=renumber[np.frombuffer(authors, dtype=np.int64)],
        mentions=renumber[np.frombuffer(mentions, dtype=np.int64)],
        mention_bounds=np.frombuffer(mention_bounds, dtype=np.int64),
        micros=np.frombuffer(micros, dtype=np.int64),
        # Python's int division is correctly rounded, as ``timestamp()`` is;
        # numpy's ``micros / 1e6`` is not once micros pass 2**53.
        seconds=np.fromiter(map(truediv, micros, repeat(1_000_000)), np.float64, len(micros)),
        reply_to=reply_to,
        retweet_of=retweet_of,
    )


@dataclass
class ParseResult:
    messages: MessageTable  # the accepted records, in input order
    skipped: int


# The scanner that ``json.loads`` runs.  On a line stripped of JSON
# whitespace it accepts exactly what ``json.loads`` accepts, when it stops at
# the line's end; a leading BOM fails both.
_scan_json = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


def _parse_micros(raw: object) -> int | None:
    """Epoch microseconds of an RFC 3339 stamp (UTC when it has no offset), or None."""
    if not isinstance(raw, str) or not raw:
        return None
    try:
        stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        else:
            # Raises OverflowError when the offset moves the date past year 1 or 9999.
            stamp = stamp.astimezone(timezone.utc)
    except (ValueError, OverflowError):
        return None
    return (stamp - _EPOCH) // _MICROSECOND


def _clean_handle(raw: object) -> str | None:
    if not isinstance(raw, str):
        return None
    handle = raw.strip().lstrip("@").lower()
    return handle or None


def _record(raw: object) -> tuple | None:
    """One decoded JSON record as the fields of a table row, or None if malformed."""
    if not isinstance(raw, dict):
        return None
    msg_id = raw.get("id")
    if not isinstance(msg_id, str) or not msg_id:
        return None
    author = _clean_handle(raw.get("author"))
    if author is None:
        return None
    micros = _parse_micros(raw.get("created_at"))
    if micros is None:
        return None
    text = raw.get("text")
    if not isinstance(text, str):
        return None
    reply_to, retweet_of = raw.get("reply_to"), raw.get("retweet_of")
    for ref in (reply_to, retweet_of):
        # A message referencing itself is nonsense; treat as malformed.
        if ref is not None and (not isinstance(ref, str) or not ref or ref == msg_id):
            return None
    mentions = raw.get("mentions")
    if mentions is None:
        mentions = ()
    elif isinstance(mentions, list):
        mentions = tuple(map(_clean_handle, mentions))
        if None in mentions:
            return None
    else:
        return None
    return msg_id, author, micros, text, reply_to, retweet_of, mentions


def parse_corpus(lines: Iterable[str]) -> ParseResult:
    """Parse an NDJSON stream into a message table.

    Malformed records (bad JSON, including JSON nested too deeply to decode,
    missing fields, unparseable timestamps, self-references) are counted and
    skipped.  A duplicate message id is a
    hard error: silently keeping either copy would corrupt every downstream
    count.
    """
    skipped = 0

    def records() -> Iterator[tuple]:
        nonlocal skipped
        for line in lines:
            line = line.strip(_JSON_SPACE)
            if not line or line.isspace():
                continue  # blank
            try:
                raw, end = _scan_json(line, 0)
            except (StopIteration, json.JSONDecodeError, RecursionError):
                skipped += 1
                continue
            record = _record(raw) if end == len(line) else None
            if record is None:
                skipped += 1
            else:
                yield record

    table = _message_table(records())
    return ParseResult(table, skipped)


def load_corpus(path: str) -> ParseResult:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_corpus(handle)
    except (OSError, UnicodeDecodeError) as exc:
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


def token_table(texts: Iterable[str]) -> TokenTable:
    """Tokenize each text once and number its tokens in first-seen order."""
    vocabulary: defaultdict[str, int] = defaultdict()
    # A token seen for the first time gets the next id: the size before insertion.
    vocabulary.default_factory = vocabulary.__len__
    number = vocabulary.__getitem__
    ids = array("i")
    bounds = array("q", [0])
    for text in texts:
        ids.extend(map(number, tokenize(text)))
        bounds.append(len(ids))
    return TokenTable(
        np.frombuffer(ids, dtype=np.int32),
        np.frombuffer(bounds, dtype=np.int64),
        dict(vocabulary),
    )


def segments(bounds: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the rows' segments ``bounds[r]:bounds[r + 1]`` lie, back to back,
    and each row's bounds among those positions."""
    starts = bounds[rows]
    lengths = bounds[rows + 1] - starts
    gathered = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=gathered[1:])
    positions = np.repeat(starts - gathered[:-1], lengths)
    positions += np.arange(gathered[-1])
    return positions, gathered


@dataclass(frozen=True, slots=True, eq=False)
class Partition:
    """One orientation's rows, in (created_at, id) order, of the corpus tables."""

    corpus: MessageTable  # shared by every partition, as is ``tokens``
    rows: np.ndarray  # int64; row r of ``corpus`` has row r of ``tokens``
    tokens: TokenTable

    def token_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """The messages' token ids back to back, and each message's bounds in them."""
        positions, bounds = segments(self.tokens.bounds, self.rows)
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


def filter_and_partition(corpus: MessageTable, lexicon: OrientationLexicon) -> Partitioned:
    """Tokenize and tag messages and split them into per-orientation partitions.

    Each message is tokenized exactly once into the corpus-wide token
    table; its tokens are counted, untagged messages included, for the
    reference dictionary.  A message matching several orientations lands in
    each of them; untagged messages are dropped and counted.  Partitions
    come back sorted by (created_at, id) so every downstream computation is
    independent of input order.
    """
    tokens = token_table(corpus.texts)
    tags = _tag(tokens, lexicon)
    ordered = corpus.order(np.flatnonzero(tags.any(axis=0)))
    partitions = {
        orientation: Partition(corpus, ordered[tags[row, ordered]], tokens)
        for row, orientation in enumerate(ORIENTATIONS)
    }
    counts = np.bincount(tokens.ids, minlength=len(tokens.vocabulary))
    return Partitioned(
        partitions,
        len(corpus) - ordered.size,
        dict(zip(tokens.vocabulary, counts.tolist())),
    )

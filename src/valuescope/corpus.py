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
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

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


@dataclass(frozen=True, slots=True)
class TaggedMessage:
    """A message, its orientations and its tokens (interned strings)."""

    message: Message
    orientations: frozenset[str]
    tokens: tuple[str, ...]


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

    return Message(
        id=msg_id,
        author=author,
        created_at=created_at,
        text=text,
        reply_to=refs[0],
        retweet_of=refs[1],
        mentions=tuple(mentions),
    )


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
        # Index phrases by first token so tagging only inspects candidates
        # that can possibly start at a given position.
        self._by_first_token: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
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
                self._by_first_token.setdefault(tokens[0], []).append(
                    (orientation, tokens)
                )
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

    def match(self, tokens: Sequence[str]) -> frozenset[str]:
        """Orientations whose phrases occur as contiguous subsequences."""
        index = self._by_first_token
        found: set[str] = set()
        for start in [i for i, token in enumerate(tokens) if token in index]:
            for orientation, phrase in index[tokens[start]]:
                if orientation in found:
                    continue
                if tuple(tokens[start : start + len(phrase)]) == phrase:
                    found.add(orientation)
        return frozenset(found)


class Partitioned(NamedTuple):
    partitions: dict[str, list[TaggedMessage]]
    discarded: int
    token_counts: Counter[str]  # over every message, untagged ones included


def filter_and_partition(
    messages: Iterable[Message], lexicon: OrientationLexicon
) -> Partitioned:
    """Tokenize and tag messages and split them into per-orientation partitions.

    Each message is tokenized exactly once; its tokens ride along with it
    and are counted corpus-wide, untagged messages included, for the
    reference dictionary.  A message matching several orientations lands in
    each of them; untagged messages are dropped and counted.  Partitions
    come back sorted by (created_at, id) so every downstream computation is
    independent of input order.
    """
    partitions: dict[str, list[TaggedMessage]] = {o: [] for o in ORIENTATIONS}
    carried: list[tuple[str, ...]] = []
    discarded = 0
    # Interning pools: all messages share one string object per distinct
    # token and one frozenset per distinct combination of orientations.
    canonical = {}.setdefault
    shared_tags = {}.setdefault
    for message in messages:
        raw = tokenize(message.text)
        tokens = tuple(map(canonical, raw, raw))
        carried.append(tokens)
        tags = lexicon.match(tokens)
        if not tags:
            discarded += 1
            continue
        tags = shared_tags(tags, tags)
        tagged = TaggedMessage(message=message, orientations=tags, tokens=tokens)
        for orientation in tags:
            partitions[orientation].append(tagged)
    for bucket in partitions.values():
        bucket.sort(key=lambda t: (t.message.created_at, t.message.id))
    counts = Counter(chain.from_iterable(carried))
    return Partitioned(partitions, discarded, counts)

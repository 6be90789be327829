"""Corpus ingestion: NDJSON parsing, keyword tagging, orientation partitioning.

Input is newline-delimited JSON, one message per line, with fields
``id``, ``author``, ``created_at`` (RFC 3339, UTC), ``text``, ``reply_to``,
``retweet_of`` and ``mentions``.  Parsing fills one ``MessageTable`` of
columns for the whole corpus, each text tokenized as its record is parsed;
a partition is an array of its rows.  Messages are tagged against six
core-value orientations by matching lexicon phrases as contiguous token
subsequences, insensitive to case and punctuation.
"""

from __future__ import annotations

import io
import json
import logging
import os
import pickle
import re
import signal
import stat
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from importlib import resources
from itertools import chain, count, groupby, islice, repeat
from operator import eq, is_not, truediv
from typing import BinaryIO, Callable, Iterable, NamedTuple

import numpy as np

from .config import ConfigError, read_json_object

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

_logger = logging.getLogger("valuescope")

# A corpus file is split into byte ranges of at least this size, one per
# usable CPU, so a small file is read in one range with no worker process.
_MIN_RANGE_BYTES = 1 << 20
# Token ids renumbered or counted per numpy call, so that no temporary is
# large: freed large blocks stay in the allocator's heap and raise peak RSS.
ID_SLICE = 1 << 15


class CorpusError(ValueError):
    """Fatal corpus defect, e.g. a duplicate message id or unreadable input."""


def is_string_list(value: object) -> bool:
    """A list, tuple or set of strings; a bare string is not one."""
    return isinstance(value, (list, tuple, set, frozenset)) and all(
        isinstance(item, str) for item in value
    )


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it on runs of non-alphanumerics.

    No token holds whitespace, and ``\\w`` is exactly ``isalnum()`` or
    ``_``, so when every whitespace-separated word is alphanumeric the words
    are the tokens; only other text goes through the regex.
    """
    text = text.lower()
    words = text.split()
    if all(map(str.isalnum, words)):
        return words
    return _TOKEN_RE.findall(text)


# A reference column holds the referenced row, or one of these.
ABSENT = -1  # the message names no message
UNKNOWN = -2  # the message names an id that no message of the table has

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


class TokenTable(NamedTuple):
    """Every message's tokens as ids into one vocabulary, messages back to back."""

    ids: np.ndarray  # int32
    bounds: np.ndarray  # int64; message r holds ids[bounds[r] : bounds[r + 1]]
    vocabulary: dict[str, int]  # token -> id, ids in first-seen order


@dataclass(eq=False)
class MessageTable:
    """The corpus as columns, one row per message, in input order.

    ``handles`` is the sorted table of every author and mentioned handle;
    ``authors`` and ``mentions`` are ids into it, row r's mentions being
    ``mentions[mention_bounds[r] : mention_bounds[r + 1]]``.  ``micros``
    are epoch microseconds, exact for ordering; ``seconds`` are the same
    instants as ``datetime.timestamp()`` gives them.  ``reply_to`` and
    ``retweet_of`` hold the referenced row, ``ABSENT`` or ``UNKNOWN``.
    ``tokens`` holds each text's tokens, row r's at ``tokens.bounds[r]``;
    the texts themselves are not kept.  ``ranks`` gives each message id's
    rank among the table's ids in Python string order, which breaks ties
    between equal stamps; the id strings are dropped too.
    """

    ranks: np.ndarray  # int64
    handles: tuple[str, ...]
    authors: np.ndarray  # int64
    mentions: np.ndarray  # int64
    mention_bounds: np.ndarray  # int64
    micros: np.ndarray  # int64
    seconds: np.ndarray  # float64
    reply_to: np.ndarray  # int64
    retweet_of: np.ndarray  # int64
    tokens: TokenTable

    def __len__(self) -> int:
        return len(self.ranks)

    def order(self, rows: np.ndarray | None = None) -> np.ndarray:
        """``rows`` (default: every row) in ``(created_at, id)`` order."""
        if rows is None:
            rows = np.arange(len(self))
        by_id = rows[np.argsort(self.ranks[rows])]
        return by_id[np.argsort(self.micros[by_id], kind="stable")]

    def created_at(self, row: int) -> datetime:
        """The row's stamp as an aware UTC datetime."""
        return _EPOCH + timedelta(microseconds=int(self.micros[row]))


class _Rows(NamedTuple):
    """One byte range's accepted records as columns of plain ``array``s and
    lists, so a worker process builds and pickles them without numpy.
    Handles are numbered in first-seen order; references are still ids.
    ``tokens`` holds each text's tokens as ``"i"`` ids into the range's own
    vocabulary, the texts' ``"q"`` bounds in them, and that vocabulary in
    first-seen order; the texts themselves are not kept."""

    ids: list[str]
    tokens: tuple[array, array, list[str]]
    replies: list[str | None]
    retweets: list[str | None]
    micros: array  # "q"
    handles: list[str]
    authors: array  # "q"
    mentions: array  # "q"
    mention_bounds: array  # "q"
    skipped: int = 0


def _numbering(keys: Iterable[str] = ()) -> tuple[dict[str, int], Callable[[str], int]]:
    """``keys`` numbered 0, 1, ..., and the lookup that gives a new key the
    next number, the size before insertion: numbers in first-seen order."""
    numbers: defaultdict[str, int] = defaultdict(None, zip(keys, count()))
    numbers.default_factory = numbers.__len__
    return numbers, numbers.__getitem__


def _table(parts: list[_Rows]) -> MessageTable:
    """The table of the ranges' rows, back to back in range order; empties ``parts``.

    Ids and handles are found by bisection in their sorted lists, so no dict
    keyed by them is built.  The ranges' own columns and the id strings are
    freed before range 0's token arrays grow by the other ranges' tokens.
    """
    # Ids rank as Python strings, which an object sort compares with ``<``:
    # a numpy string sort ignores trailing NULs.
    ids = np.array([msg_id for part in parts for msg_id in part.ids], dtype=object)
    by_id = np.argsort(ids, kind="stable")
    reply_to, retweet_of = _references(ids, by_id, parts)
    ranks = np.empty_like(by_id)
    ranks[by_id] = np.arange(by_id.size)
    del ids, by_id
    # A range lists each of its handles once, so sorted together a handle's
    # repeats are adjacent.
    handles = [handle for handle, _ in groupby(sorted(chain.from_iterable(
        part.handles for part in parts)))]
    authors, mentions, bounds = [], [], [np.zeros(1, np.int64)]
    micros = array("q")
    for part in parts:
        renumber = np.fromiter(map(bisect_left, repeat(handles), part.handles), np.int64,
                               len(part.handles))
        authors.append(renumber[np.frombuffer(part.authors, dtype=np.int64)])
        bounds.append(np.frombuffer(part.mention_bounds, dtype=np.int64)[1:]
                      + sum(map(len, mentions)))
        mentions.append(renumber[np.frombuffer(part.mentions, dtype=np.int64)])
        micros.extend(part.micros)
    authors, mentions, bounds = map(np.concatenate, (authors, mentions, bounds))
    tokens = [part.tokens for part in parts]
    parts.clear()
    del part  # the loop's last range, which would otherwise live until the return
    return MessageTable(
        ranks=ranks,
        handles=tuple(handles),
        authors=authors,
        mentions=mentions,
        mention_bounds=bounds,
        micros=np.frombuffer(micros, dtype=np.int64),
        # Python's int division is correctly rounded, as ``timestamp()`` is;
        # numpy's ``micros / 1e6`` is not once micros pass 2**53.
        seconds=np.fromiter(map(truediv, micros, repeat(1_000_000)), np.float64, len(micros)),
        reply_to=reply_to,
        retweet_of=retweet_of,
        tokens=_merge_tokens(tokens),
    )


def _references(ids: np.ndarray, by_id: np.ndarray,
                parts: list[_Rows]) -> tuple[np.ndarray, np.ndarray]:
    """The ``reply_to`` and ``retweet_of`` rows of the ranges' rows, whose ids
    are ``ids``, ``by_id`` ordering them stably as Python strings.  A
    duplicate id raises for its first repeat in input order: the later of
    two equal neighbours in that order is a repeat."""
    ordered = ids[by_id].tolist()
    repeats = by_id[1:][np.fromiter(map(eq, ordered, islice(ordered, 1, None)), bool)]
    if repeats.size:
        raise CorpusError(f"duplicate message id: {ids[repeats.min()]!r}")

    def place(ref: str) -> int:
        """The named id's index in ``ordered``, or ``UNKNOWN``."""
        at = bisect_left(ordered, ref)
        return at if at < len(ordered) and ordered[at] == ref else UNKNOWN

    def resolve(columns: list[list[str | None]]) -> np.ndarray:
        named = np.fromiter(map(is_not, chain.from_iterable(columns), repeat(None)), bool,
                            len(ids))
        rows = np.full(len(ids), ABSENT, np.int64)
        rows[named] = np.fromiter(map(place, filter(None, chain.from_iterable(columns))),
                                  np.int64, np.count_nonzero(named))
        found = rows >= 0
        rows[found] = by_id[rows[found]]
        return rows

    return (resolve([part.replies for part in parts]),
            resolve([part.retweets for part in parts]))


def _merge_tokens(parts: list[tuple[array, array, list[str]]]) -> TokenTable:
    """One token table of the ranges' tokens, back to back in range order.

    Each range's vocabulary is in its own first-seen order, so numbering its
    tokens in range order, skipping those already numbered, is the
    first-seen order of the whole corpus.  Range 0's numbers are already
    those; its arrays grow in place by each later range, renumbered.
    """
    (ids, bounds, words), *later = parts
    vocabulary, number = _numbering(words)
    for local_ids, local_bounds, words in later:
        renumber = np.fromiter(map(number, words), np.int32, len(words))
        local = np.frombuffer(local_ids, dtype=np.int32)
        offset = len(ids)
        for start in range(0, local.size, ID_SLICE):
            ids.frombytes(renumber.take(local[start : start + ID_SLICE]).tobytes())
        bounds.frombytes((np.frombuffer(local_bounds, dtype=np.int64)[1:] + offset).tobytes())
    return TokenTable(np.frombuffer(ids, dtype=np.int32), np.frombuffer(bounds, dtype=np.int64),
                      dict(vocabulary))


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


def format_stamp(stamp: datetime) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ`` of an aware UTC datetime, the year always four digits."""
    return f"{stamp.year:04d}-{stamp:%m-%dT%H:%M:%S}Z"


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


def _parse_lines(lines: Iterable[str]) -> _Rows:
    """The rows of the records of an NDJSON stream, with the skipped count."""
    rows = _Rows([], (array("i"), array("q", [0]), []), [], [], array("q"), [],
                 array("q"), array("q"), array("q", [0]))
    token_ids, token_bounds, words = rows.tokens
    vocabulary, word = _numbering()
    handles, number = _numbering()
    mentions = rows.mentions
    skipped = 0
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
            continue
        msg_id, author, stamp, text, reply_to, retweet_of, named = record
        rows.ids.append(msg_id)
        token_ids.extend(map(word, tokenize(text)))
        token_bounds.append(len(token_ids))
        rows.replies.append(reply_to)
        rows.retweets.append(retweet_of)
        rows.micros.append(stamp)
        rows.authors.append(number(author))
        mentions.extend(map(number, named))
        rows.mention_bounds.append(len(mentions))
    words.extend(vocabulary)
    rows.handles.extend(handles)
    return rows._replace(skipped=skipped)


def parse_corpus(lines: Iterable[str]) -> ParseResult:
    """Parse an NDJSON stream into a message table.

    Malformed records (bad JSON, including JSON nested too deeply to decode,
    missing fields, unparseable timestamps, self-references) are counted and
    skipped.  A duplicate message id is a hard error: silently keeping either
    copy would corrupt every downstream count.  A corpus file that is not
    UTF-8 fails as a whole in ``load_corpus``, before duplicate ids are
    checked.
    """
    parts = [_parse_lines(lines)]
    skipped = parts[0].skipped
    return ParseResult(_table(parts), skipped)


class _ByteRange(io.RawIOBase):
    """Bytes ``start:end`` of a binary file, read forward once; ``end`` None
    reads to the end without seeking, so pipes work.  ``position`` is the
    file offset reached."""

    def __init__(self, file: BinaryIO, start: int, end: int | None):
        if end is not None:
            file.seek(start)
        self.file, self.position, self.end = file, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if self.end is not None:
            buffer = memoryview(buffer)[: self.end - self.position]
        count = self.file.readinto(buffer)
        self.position += count
        return count


def _read_range(file: BinaryIO, start: int, end: int | None) -> _Rows:
    """Parse bytes ``start:end`` of ``file``, decoded as ``open()`` decodes
    text: UTF-8 with universal newlines."""
    chunk = _ByteRange(file, start, end)
    try:
        return _parse_lines(io.TextIOWrapper(chunk, encoding="utf-8"))
    except UnicodeDecodeError as exc:
        # The error's position is in the decoder's buffer, which ends where
        # the reads have reached.
        offset = chunk.position - len(exc.object) + exc.start
        raise CorpusError(
            f"cannot read corpus {file.name!r}: {exc.encoding!r} codec can't decode "
            f"byte {exc.object[exc.start]:#04x} in position {offset}: {exc.reason}"
        ) from exc


def _cuts(file: BinaryIO) -> list[int | None]:
    """The offsets that split ``file`` into byte ranges, each ending after a
    newline: one range per usable CPU, each at least ``_MIN_RANGE_BYTES``.
    ``[0, None]`` is one range read to the end, as for a pipe or a platform
    without ``fork``."""
    info = os.fstat(file.fileno())
    count = 1
    if stat.S_ISREG(info.st_mode) and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        count = min(len(os.sched_getaffinity(0)), info.st_size // _MIN_RANGE_BYTES)
    if count <= 1:
        return [0, None]
    cuts = {0, info.st_size}
    for part in range(1, count):
        file.seek(info.st_size * part // count)
        file.readline()
        cuts.add(file.tell())
    return sorted(cuts)


def _fork(path: str, start: int, end: int) -> tuple[int, BinaryIO] | None:
    """Start a worker on bytes ``start:end`` of ``path``: its pid and pipe, or None.

    The worker pickles into the pipe its range's rows, tokens included, or
    nothing if reading them fails.  It runs plain Python only, no numpy,
    whose threads the fork did not copy, and it leaves through ``os._exit``,
    so it never returns into the caller.
    """
    ends: tuple[int, ...] = ()
    try:
        ends = read_end, write_end = os.pipe()
        pid = os.fork()
    except OSError:
        for end in ends:
            os.close(end)
        return None
    if pid == 0:
        try:
            os.close(read_end)
            with open(path, "rb") as file:
                rows = _read_range(file, start, end)
            with open(write_end, "wb") as pipe:
                pickle.dump(rows, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _receive(worker: tuple[int, BinaryIO]) -> _Rows | None:
    """The worker's rows, or None if it sent none whole."""
    try:
        return pickle.load(worker[1])
    except (EOFError, pickle.UnpicklingError):
        return None


def load_corpus(path: str) -> ParseResult:
    """Parse the NDJSON file at ``path``, one byte range per usable CPU.

    Range 0 is read here and every other range by a forked worker, each
    tokenizing its texts as it parses them; a range that no worker sent is
    read here, with a warning.  The rows are joined in file order into
    exactly the tables that one range gives, so bad UTF-8 is reported at its
    file offset, for the earliest range that holds some.  Every worker is
    killed and reaped before this returns or raises.
    """
    workers: list[tuple[int, BinaryIO] | None] = []
    try:
        with open(path, "rb") as file:
            cuts = _cuts(file)
            for start, end in zip(cuts[1:-1], cuts[2:]):
                workers.append(_fork(path, start, end))
            parts = [_read_range(file, cuts[0], cuts[1])]
            for start, end, worker in zip(cuts[1:-1], cuts[2:], workers):
                # No local names a range's rows, so ``_table`` can free them.
                parts.append(worker and _receive(worker))
                if parts[-1] is None:
                    _logger.warning("reading bytes %d:%d of %r here: no worker sent them",
                                    start, end, path)
                    parts[-1] = _read_range(file, start, end)
        skipped = sum(part.skipped for part in parts)
        return ParseResult(_table(parts), skipped)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path!r}: {exc}") from exc
    finally:
        for pid, pipe in filter(None, workers):
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class OrientationLexicon:
    """Keyword phrases for the six orientations, pre-tokenized for matching."""

    def __init__(self, phrases: dict[str, list[str]]):
        given = set(phrases)
        expected = set(ORIENTATIONS)
        if given != expected:
            missing = sorted(expected - given)
            extra = sorted(given - expected)
            raise ConfigError(
                f"lexicon must define exactly the six orientations; "
                f"missing={missing} unknown={extra}"
            )
        self.phrases: dict[str, tuple[tuple[str, ...], ...]] = {}
        for orientation in ORIENTATIONS:
            if not is_string_list(phrases[orientation]):
                raise ConfigError(f"{orientation}: phrases must be a list of strings")
            seen: set[tuple[str, ...]] = set()
            tokenized: list[tuple[str, ...]] = []
            for phrase in phrases[orientation]:
                tokens = tuple(tokenize(phrase))
                if not tokens or len(tokens) > _MAX_PHRASE_TOKENS:
                    raise ConfigError(
                        f"{orientation}: phrase {phrase!r} must have 1 to "
                        f"{_MAX_PHRASE_TOKENS} tokens"
                    )
                if tokens in seen:
                    raise ConfigError(
                        f"{orientation}: duplicate phrase {phrase!r}"
                    )
                seen.add(tokens)
                tokenized.append(tokens)
            self.phrases[orientation] = tuple(tokenized)

    @classmethod
    def from_file(cls, path: str) -> "OrientationLexicon":
        with read_json_object(path, "orientation lexicon") as raw:
            return cls(raw)

    @classmethod
    def default(cls) -> "OrientationLexicon":
        packaged = resources.files("valuescope.data") / "orientation_lexicon.json"
        with resources.as_file(packaged) as path:
            return cls.from_file(str(path))


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
    partitions: dict[str, np.ndarray]  # orientation -> its rows, in (created_at, id) order
    discarded: int


def filter_and_partition(corpus: MessageTable, lexicon: OrientationLexicon) -> Partitioned:
    """Tag messages and split their rows into per-orientation partitions.

    Tagging reads the corpus token table, where parsing put each message's
    tokens.  A message matching several orientations lands in each of
    them; untagged messages are dropped and counted.  Each partition is an
    array of rows sorted by (created_at, id), so every downstream
    computation is independent of input order.
    """
    tags = _tag(corpus.tokens, lexicon)
    ordered = corpus.order(np.flatnonzero(tags.any(axis=0)))
    partitions = {o: ordered[tags[row, ordered]] for row, o in enumerate(ORIENTATIONS)}
    return Partitioned(partitions, len(corpus) - ordered.size)

"""Parse raw retweet event files into checked events and per-hashtag streams.

Input is one retweet event per line (JSONL or CSV). One pass (`_scan`)
checks each line once, in a fixed order: the JSON or CSV shape, the ids,
self-retweets, characters no id may hold, the hashtags, the timestamp,
then a repeated tweet id. Malformed lines are collected as rejects with
their line number and reason instead of aborting the run. That pass has
two consumers. `read_columns`, which the ingest stage uses, keeps the
valid lines as EventColumns: per line an account index for the author and
the retweeted account and the index of its shared tag set, plus the
earliest and latest timestamp; the store's registry, index pairs and
counts are passes over those columns. `parse_records` keeps them as
TweetRecords, for the library and the tests. Records are routed into one
stream per tracked hashtag; a record carrying several tracked hashtags is
intentionally duplicated into each of those streams, which is what lets
the same account show up in several hashtag networks downstream.

`synth` and `write_jsonl` emit one canonical line per record, json.dumps(
record_to_obj(r), sort_keys=True, separators=(",", ":")): from a template
when no id or tag holds a character json.dumps escapes, and read back
without the JSON decoder when no string in it holds '"', '\\' or a control
character. Every other valid JSON line is still accepted, with the same
reject reasons.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import logging
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import IO, Iterable

from .errors import HashtagError, IngestError, RejectRateError

log = logging.getLogger(__name__)

_HASHTAG_RE = re.compile(r"[a-z0-9_]+\Z")

CSV_COLUMNS = ("tweet_id", "author", "retweeted_author", "hashtags", "timestamp")
_FIELDS = frozenset(CSV_COLUMNS)

# What no id may hold: characters XML 1.0 cannot carry even escaped (C0
# controls other than tab, newline and carriage return, U+FFFE, U+FFFF)
# and lone surrogates, which UTF-8 cannot encode.
_BAD_ID_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def normalize_hashtag(tag: str) -> str:
    """Lowercase, strip a leading '#'. Raises HashtagError if the rest is not [a-z0-9_]+."""
    tag = tag.strip().lower()
    if tag.startswith("#"):
        tag = tag[1:]
    if not _HASHTAG_RE.match(tag):
        raise HashtagError(f"invalid hashtag: {tag!r}")
    return tag


def parse_rfc3339(value: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime.

    Raises ValueError for text without a timezone and for a moment outside
    the years 1-9999 in UTC, such as 9999-12-31T23:59:59-01:00.
    """
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        raise ValueError(f"timestamp lacks a timezone: {value!r}")
    try:
        return moment.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp out of range: {value!r}") from None


def format_rfc3339(moment: datetime) -> str:
    return moment.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


@dataclass(frozen=True, slots=True)
class TweetRecord:
    """One ingested (re)tweet event.

    retweeted_author is None for an original tweet. Hashtags are stored
    normalized (lowercase, no leading '#') and non-empty.
    """

    tweet_id: str
    author: str
    retweeted_author: str | None
    hashtags: frozenset[str]
    timestamp: datetime

    @property
    def is_retweet(self) -> bool:
        return self.retweeted_author is not None


@dataclass(frozen=True, slots=True)
class Reject:
    line: int
    reason: str
    raw: str


@dataclass(frozen=True)
class CorpusStats:
    """Descriptive counts for one ingested corpus.

    per_hashtag maps tag -> (tweets, retweets, unique accounts). The corpus
    sample size is reported both as record_count and account_count; the two
    are deliberately kept separate.
    """

    record_count: int
    account_count: int
    per_hashtag: dict[str, tuple[int, int, int]]
    window: tuple[datetime, datetime] | None

    def to_dict(self) -> dict:
        return {
            "record_count": self.record_count,
            "account_count": self.account_count,
            "per_hashtag": {
                tag: {"tweets": t, "retweets": r, "unique_accounts": u}
                for tag, (t, r, u) in sorted(self.per_hashtag.items())
            },
            "window": None
            if self.window is None
            else [format_rfc3339(self.window[0]), format_rfc3339(self.window[1])],
        }


@functools.lru_cache(maxsize=4096)
def _tag_set(hashtags: tuple[str, ...]) -> frozenset[str]:
    """The normalized tags of one raw hashtag list.

    Hashtag lists repeat from line to line, so records with the same raw
    list share one set. An invalid list raises each time: lru_cache keeps
    results, not exceptions.
    """
    tags = frozenset(normalize_hashtag(tag) for tag in hashtags)
    if not tags:
        raise ValueError("hashtags must be non-empty")
    return tags


def _check_fields(
    tweet_id: object,
    author: object,
    retweeted_author: object,
    hashtags: tuple[str, ...],
    timestamp: object,
) -> tuple[str, str, str | None, frozenset[str], datetime]:
    """The fields of one line, checked: (tweet_id, author, retweeted_author
    or None, shared tag set, UTC timestamp). Raises ValueError with the
    line's reject reason."""
    if not isinstance(tweet_id, str) or not tweet_id:
        raise ValueError("tweet_id must be a non-empty string")
    if not isinstance(author, str) or not author:
        raise ValueError("author must be a non-empty string")
    if retweeted_author is not None and (
        not isinstance(retweeted_author, str) or not retweeted_author
    ):
        raise ValueError("retweeted_author must be a non-empty string when present")
    if retweeted_author == author:
        raise ValueError("self-retweet")
    # one search finds whether any id is bad; a hit then names the first one
    if _BAD_ID_CHAR.search(tweet_id + author + (retweeted_author or "")):
        for name, value in (("tweet_id", tweet_id), ("author", author),
                            ("retweeted_author", retweeted_author or "")):
            if _BAD_ID_CHAR.search(value):
                raise ValueError(
                    f"{name} holds a control character, lone surrogate or noncharacter"
                )
    tags = _tag_set(hashtags)
    if not isinstance(timestamp, str):
        raise ValueError("timestamp must be an RFC 3339 string")
    return tweet_id, author, retweeted_author, tags, parse_rfc3339(timestamp)


_scan_json = json.JSONDecoder().scan_once  # the scanner json.loads runs

# A character json.dumps escapes, which the canonical line's template cannot write
_ESCAPED = re.compile(r'[^ !#-\[\]-~]')
# The canonical line. Its strings hold no '"', '\' or control character, so
# each is the text json.loads would decode; a tag list splits at '","'.
_CANONICAL_LINE = re.compile(
    r'\{"author":"(S)","hashtags":\[(?:"(S(?:","S)*)")?\](?:,"retweeted_author":"(S)")?'
    r',"timestamp":"(S)","tweet_id":"(S)"\}'.replace("S", r'[^"\\\x00-\x1f]*'))


def _check_jsonl_line(line: str):
    canonical = _CANONICAL_LINE.fullmatch(line)
    obj = None
    if canonical is not None:
        author, hashtags, retweeted, timestamp, tweet_id = canonical.groups()
        hashtags = [] if hashtags is None else hashtags.split('","')
    else:
        # A stripped line that holds exactly one JSON value decodes as
        # json.loads decodes it, without its Python-level wrappers; any other
        # line goes to json.loads, which raises the error it always raised.
        try:
            obj, end = _scan_json(line, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(line):
            obj = json.loads(line)
        tweet_id = None  # fails the clean test below unless obj has its fields
        if type(obj) is dict and obj.keys() <= _FIELDS:
            get = obj.get
            tweet_id, author, retweeted = get("tweet_id"), get("author"), get("retweeted_author")
            hashtags, timestamp = get("hashtags"), get("timestamp")
    # A clean line passes one test; any other line takes the ordered checks
    # below, the one source of reject reasons. A tag that is not a string
    # fails in _tag_set (AttributeError, or TypeError when unhashable).
    if (type(tweet_id) is str and tweet_id and type(author) is str and author
            and (retweeted is None or type(retweeted) is str and retweeted
                 and retweeted != author)
            and not _BAD_ID_CHAR.search(tweet_id + author + (retweeted or ""))
            and type(hashtags) is list and type(timestamp) is str
            and timestamp[-1:] == "Z"):
        try:
            tags = _tag_set(tuple(hashtags))
            moment = datetime.fromisoformat(timestamp[:-1] + "+00:00")
        except (ValueError, AttributeError, TypeError):
            pass
        else:
            if moment.tzinfo is not None:  # a date alone parses without one
                return tweet_id, author, retweeted, tags, moment
    if obj is None:  # not decoded yet: a canonical line that failed the test
        obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    if not _FIELDS.issuperset(obj):
        raise ValueError(f"unknown fields: {sorted(set(obj) - _FIELDS)}")
    hashtags = obj.get("hashtags")
    if not isinstance(hashtags, list) or not all(isinstance(t, str) for t in hashtags):
        raise ValueError("hashtags must be a list of strings")
    return _check_fields(
        obj.get("tweet_id"),
        obj.get("author"),
        obj.get("retweeted_author"),
        tuple(hashtags),
        obj.get("timestamp"),
    )


def _check_csv_line(line: str):
    row = next(csv.reader([line]))
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {len(row)}")
    tweet_id, author, retweeted_author, hashtags, timestamp = row
    return _check_fields(
        tweet_id,
        author,
        retweeted_author or None,
        tuple(t for t in hashtags.split("|") if t),
        timestamp,
    )


def _scan(source: str | Iterable[str], fmt: str, strict: bool, rejects: list[Reject]):
    """Yield the checked fields of each valid line of a JSONL or CSV source.

    The one pass over a corpus: it skips blank lines and the CSV header,
    appends malformed lines and repeated tweet ids to `rejects`, turns a
    decoding or read error into IngestError and, once the source is
    exhausted, applies the reject-rate rule of parse_records.
    """
    if fmt not in ("jsonl", "csv"):
        raise IngestError(f"unknown format: {fmt!r}")
    jsonl = fmt == "jsonl"
    check = _check_jsonl_line if jsonl else _check_csv_line
    seen_ids: set[str] = set()
    header = not jsonl
    try:
        lines = io.StringIO(source) if isinstance(source, str) else source
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if header:
                header = False
                if next(csv.reader([stripped])) != list(CSV_COLUMNS):
                    raise IngestError("csv input must start with the fixed header row")
                continue
            try:
                fields = check(stripped if jsonl else line)
                if fields[0] in seen_ids:
                    raise ValueError(f"duplicate tweet_id: {fields[0]}")
            except (ValueError, RecursionError, csv.Error) as exc:
                rejects.append(Reject(line=lineno, reason=str(exc), raw=stripped))
                continue
            seen_ids.add(fields[0])
            yield fields
    except UnicodeDecodeError as exc:
        raise IngestError(f"source is not valid UTF-8: {exc}") from exc
    except OSError as exc:
        raise IngestError(f"unreadable source: {exc}") from exc

    total = len(seen_ids) + len(rejects)
    if total and len(rejects) * 2 > total:
        message = f"{len(rejects)} of {total} lines rejected"
        if strict:
            raise RejectRateError(message)
        log.warning("%s", message)


def parse_records(
    source: str | Iterable[str],
    fmt: str = "jsonl",
    strict: bool = False,
) -> tuple[list[TweetRecord], list[Reject]]:
    """Parse a JSONL or CSV event source into records.

    source is the whole text or an iterable of text lines, such as a file
    opened in text mode; a decoding or read error of that file raises
    IngestError. Returns (records, rejects) in input order. Lines that fail
    validation (bad JSON, missing fields, self-retweets, duplicate tweet
    ids, malformed hashtags, timestamps without a timezone or outside the
    years 1-9999 in UTC) become Reject entries. A reject rate above 50%
    logs a warning, escalated to RejectRateError when strict is set.
    """
    rejects: list[Reject] = []
    # account ids repeat across records and are interned; tweet ids are unique
    records = [
        TweetRecord(tweet_id, sys.intern(author),
                    None if retweeted is None else sys.intern(retweeted), tags, moment)
        for tweet_id, author, retweeted, tags, moment in _scan(source, fmt, strict, rejects)
    ]
    return records, rejects


def _distinct(values):
    """The distinct values of an int array, ascending. np.unique gives the
    same, but this numpy hashes first and is many times slower."""
    import numpy as np

    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class EventColumns:
    """Checked events as columns, one row per event in input order.

    `accounts` lists every account id in first-seen order and `tag_sets`
    every distinct tag set; per row, `author` holds the author's account
    index, `retweeted` the retweeted account's index or -1 for an original
    tweet, and `tag_set` the index of its tag set. `window` is the earliest
    and latest timestamp, or None without rows.
    """

    def __init__(self, events: Iterable[tuple]):
        """events: (tweet_id, author, retweeted or None, tags, timestamp) tuples."""
        index: dict[str, int] = {}
        set_index: dict[frozenset[str], int] = {}
        self.author: list[int] = []
        self.retweeted: list[int] = []
        self.tag_set: list[int] = []
        add_author, add_retweeted, add_tag_set = (
            self.author.append, self.retweeted.append, self.tag_set.append)
        lo = hi = None
        for _, author, retweeted, tags, moment in events:
            i = index.get(author)
            if i is None:
                i = index[author] = len(index)
            add_author(i)
            if retweeted is None:
                i = -1
            else:
                i = index.get(retweeted)
                if i is None:
                    i = index[retweeted] = len(index)
            add_retweeted(i)
            i = set_index.get(tags)
            if i is None:
                i = set_index[tags] = len(set_index)
            add_tag_set(i)
            if lo is None:
                lo = hi = moment
            elif moment < lo:
                lo = moment
            elif moment > hi:
                hi = moment
        self.accounts = list(index)
        self.tag_sets = list(set_index)
        self.window = None if lo is None else (lo, hi)

    @classmethod
    def from_records(cls, records: Iterable[TweetRecord]) -> "EventColumns":
        return cls((r.tweet_id, r.author, r.retweeted_author, r.hashtags, r.timestamp)
                   for r in records)

    def __len__(self) -> int:
        return len(self.author)

    def _arrays(self):
        import numpy as np

        return tuple(np.array(col, dtype=np.int64)
                     for col in (self.author, self.retweeted, self.tag_set))

    def stream_rows(self, tags: Iterable[str]) -> dict:
        """Each tag's stream as an array of row numbers. A row whose tag set
        holds k of the tags is in all k streams."""
        import numpy as np

        row_set = np.array(self.tag_set, dtype=np.intp)
        return {
            tag: np.flatnonzero(np.array([tag in s for s in self.tag_sets], dtype=bool)[row_set])
            for tag in sorted(tags)
        }

    def index_pairs(self, tags: Iterable[str]) -> tuple[list[str], dict]:
        """(registry, pairs): the sorted ids of every account in a stream of
        `tags`, and per tag an (n, 2) int32 array of (author, retweeted)
        registry indices, -1 for an original tweet, in stream order."""
        import numpy as np

        author, retweeted, _ = self._arrays()
        rows = self.stream_rows(tags)
        hit = np.concatenate([np.zeros(0, dtype=np.intp), *rows.values()])
        used = _distinct(np.concatenate((author[hit], retweeted[hit])))
        order = sorted(used[used >= 0].tolist(), key=self.accounts.__getitem__)
        # remap[-1] stays -1, the retweeted index of an original tweet
        remap = np.full(len(self.accounts) + 1, -1, dtype="<i4")
        remap[order] = np.arange(len(order))
        pairs = {tag: np.stack((remap[author[r]], remap[retweeted[r]]), axis=1)
                 for tag, r in rows.items()}
        return [self.accounts[i] for i in order], pairs

    def stats(self) -> "CorpusStats":
        import numpy as np

        author, retweeted, row_set = self._arrays()
        n_accounts = len(self.accounts)
        tag_index: dict[str, int] = {}
        set_tags = np.array([tag_index.setdefault(tag, len(tag_index))
                             for s in self.tag_sets for tag in s], dtype=np.int64)
        tags = list(tag_index)
        # Set k's tags are set_tags[first[k]:first[k] + sizes[k]]. Each row
        # is repeated once per tag of its set, as (row, tag) pairs.
        sizes = np.array([len(s) for s in self.tag_sets], dtype=np.int64)
        first = np.cumsum(sizes) - sizes
        reps = sizes[row_set]
        row = np.repeat(np.arange(len(self)), reps)
        nth = np.arange(len(row)) - (np.cumsum(reps) - reps)[row]
        tag = set_tags[first[row_set[row]] + nth]
        is_retweet = retweeted[row] >= 0
        keys = _distinct(np.concatenate((
            tag * n_accounts + author[row], (tag * n_accounts + retweeted[row])[is_retweet]
        )))
        columns = (
            np.bincount(tag, minlength=len(tags)),
            np.bincount(tag[is_retweet], minlength=len(tags)),
            np.bincount(keys // n_accounts, minlength=len(tags)),
        )
        return CorpusStats(
            record_count=len(self),
            account_count=n_accounts,
            per_hashtag=dict(zip(tags, zip(*(c.tolist() for c in columns)))),
            window=self.window,
        )


def read_columns(
    source: str | Iterable[str],
    fmt: str = "jsonl",
    strict: bool = False,
) -> tuple[EventColumns, list[Reject]]:
    """Like parse_records, but the valid lines come back as EventColumns."""
    rejects: list[Reject] = []
    columns = EventColumns(_scan(source, fmt, strict, rejects))
    return columns, rejects


def split_streams(
    records: Iterable[TweetRecord], tracked: Iterable[str]
) -> tuple[dict[str, list[TweetRecord]], int]:
    """Route records into one stream per tracked hashtag.

    A record carrying k tracked hashtags lands in all k streams. Records
    with no tracked hashtag are dropped; their count is returned alongside
    the streams.
    """
    tags = {normalize_hashtag(t) for t in tracked}
    if not tags:
        raise ValueError("tracked hashtag set must be non-empty")
    records = list(records)
    rows = EventColumns.from_records(records).stream_rows(tags)
    streams = {tag: [records[i] for i in r.tolist()] for tag, r in rows.items()}
    routed = set().union(*(r.tolist() for r in rows.values()))
    return streams, len(records) - len(routed)


def corpus_stats(records: Iterable[TweetRecord]) -> CorpusStats:
    return EventColumns.from_records(records).stats()


def record_to_obj(record: TweetRecord) -> dict:
    obj = {
        "tweet_id": record.tweet_id,
        "author": record.author,
        "hashtags": ["#" + t for t in sorted(record.hashtags)],
        "timestamp": format_rfc3339(record.timestamp),
    }
    if record.retweeted_author is not None:
        obj["retweeted_author"] = record.retweeted_author
    return obj


def record_to_json_line(record: TweetRecord) -> str:
    """The record's canonical line (see the module docstring)."""
    tags = sorted(record.hashtags)
    retweeted = record.retweeted_author
    if _ESCAPED.search("".join((record.tweet_id, record.author, retweeted or "", *tags))):
        return json.dumps(record_to_obj(record), sort_keys=True, separators=(",", ":"))
    listed = '["#' + '","#'.join(tags) + '"]' if tags else "[]"
    retweet = "" if retweeted is None else f',"retweeted_author":"{retweeted}"'
    return (f'{{"author":"{record.author}","hashtags":{listed}{retweet},"timestamp":'
            f'"{format_rfc3339(record.timestamp)}","tweet_id":"{record.tweet_id}"}}')


def write_jsonl(records: Iterable[TweetRecord], sink: IO[str]) -> int:
    n = 0
    for record in records:
        sink.write(record_to_json_line(record) + "\n")
        n += 1
    return n


def write_csv(records: Iterable[TweetRecord], sink: IO[str]) -> int:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    n = 0
    for record in records:
        writer.writerow(
            [
                record.tweet_id,
                record.author,
                record.retweeted_author or "",
                "|".join("#" + t for t in sorted(record.hashtags)),
                format_rfc3339(record.timestamp),
            ]
        )
        n += 1
    return n


def write_rejects(rejects: Iterable[Reject], sink: IO[str]) -> int:
    n = 0
    for reject in rejects:
        sink.write(
            json.dumps(
                {"line": reject.line, "reason": reject.reason, "raw": reject.raw},
                sort_keys=True,
            )
        )
        sink.write("\n")
        n += 1
    return n

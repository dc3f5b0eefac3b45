"""Parse raw retweet event files into validated records and per-hashtag streams.

Input is one retweet event per line (JSONL or CSV). Every well-formed line
becomes a TweetRecord; malformed lines are collected as rejects with their
line number and reason instead of aborting the run. Records are then routed
into one stream per tracked hashtag; a record carrying several tracked
hashtags is intentionally duplicated into each of those streams, which is
what lets the same account show up in several hashtag networks downstream.
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
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        raise ValueError(f"timestamp lacks a timezone: {value!r}")
    return moment.astimezone(timezone.utc)


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


def _build_record(
    tweet_id: object,
    author: object,
    retweeted_author: object,
    hashtags: Iterable[str],
    timestamp: object,
) -> TweetRecord:
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
    for name, value in (("tweet_id", tweet_id), ("author", author),
                        ("retweeted_author", retweeted_author or "")):
        if _BAD_ID_CHAR.search(value):
            raise ValueError(f"{name} holds a control character, lone surrogate or noncharacter")
    tags = _tag_set(tuple(hashtags))
    if not isinstance(timestamp, str):
        raise ValueError("timestamp must be an RFC 3339 string")
    moment = parse_rfc3339(timestamp)
    # account ids repeat across records and are interned; tweet ids are unique
    return TweetRecord(
        tweet_id=tweet_id,
        author=sys.intern(author),
        retweeted_author=None if retweeted_author is None else sys.intern(retweeted_author),
        hashtags=tags,
        timestamp=moment,
    )


def _parse_jsonl_line(line: str) -> TweetRecord:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    if not _FIELDS.issuperset(obj):
        raise ValueError(f"unknown fields: {sorted(set(obj) - _FIELDS)}")
    hashtags = obj.get("hashtags")
    if not isinstance(hashtags, list) or not all(isinstance(t, str) for t in hashtags):
        raise ValueError("hashtags must be a list of strings")
    return _build_record(
        obj.get("tweet_id"),
        obj.get("author"),
        obj.get("retweeted_author"),
        hashtags,
        obj.get("timestamp"),
    )


def _parse_csv_row(row: list[str]) -> TweetRecord:
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {len(row)}")
    tweet_id, author, retweeted_author, hashtags, timestamp = row
    return _build_record(
        tweet_id,
        author,
        retweeted_author or None,
        [t for t in hashtags.split("|") if t],
        timestamp,
    )


def parse_records(
    source: str | Iterable[str],
    fmt: str = "jsonl",
    strict: bool = False,
) -> tuple[list[TweetRecord], list[Reject]]:
    """Parse a JSONL or CSV event source.

    source is the whole text or an iterable of text lines, such as a file
    opened in text mode; a decoding or read error of that file raises
    IngestError. Returns (records, rejects) in input order. Lines that fail
    validation (bad JSON, missing fields, self-retweets, duplicate tweet
    ids, malformed hashtags or timestamps) become Reject entries. A reject
    rate above 50% logs a warning, escalated to RejectRateError when strict
    is set.
    """
    if fmt not in ("jsonl", "csv"):
        raise IngestError(f"unknown format: {fmt!r}")
    try:
        lines = io.StringIO(source) if isinstance(source, str) else source
        records: list[TweetRecord] = []
        rejects: list[Reject] = []
        seen_ids: set[str] = set()
        header_skipped = False
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if fmt == "csv" and not header_skipped:
                header_skipped = True
                if next(csv.reader([stripped])) != list(CSV_COLUMNS):
                    raise IngestError("csv input must start with the fixed header row")
                continue
            try:
                if fmt == "jsonl":
                    record = _parse_jsonl_line(stripped)
                else:
                    record = _parse_csv_row(next(csv.reader([line])))
                if record.tweet_id in seen_ids:
                    raise ValueError(f"duplicate tweet_id: {record.tweet_id}")
            except (ValueError, RecursionError, csv.Error) as exc:
                rejects.append(Reject(line=lineno, reason=str(exc), raw=stripped))
                continue
            seen_ids.add(record.tweet_id)
            records.append(record)
    except UnicodeDecodeError as exc:
        raise IngestError(f"source is not valid UTF-8: {exc}") from exc
    except OSError as exc:
        raise IngestError(f"unreadable source: {exc}") from exc

    total = len(records) + len(rejects)
    if total and len(rejects) * 2 > total:
        message = f"{len(rejects)} of {total} lines rejected"
        if strict:
            raise RejectRateError(message)
        log.warning("%s", message)
    return records, rejects


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
    streams: dict[str, list[TweetRecord]] = {tag: [] for tag in sorted(tags)}
    dropped = 0
    for record in records:
        hit = False
        for tag in record.hashtags & tags:
            streams[tag].append(record)
            hit = True
        if not hit:
            dropped += 1
    return streams, dropped


def corpus_stats(records: Iterable[TweetRecord]) -> CorpusStats:
    accounts: set[str] = set()
    per_tag: dict[str, tuple[int, int, set[str]]] = {}
    count = 0
    lo: datetime | None = None
    hi: datetime | None = None
    for record in records:
        count += 1
        accounts.add(record.author)
        if record.retweeted_author is not None:
            accounts.add(record.retweeted_author)
        if lo is None or record.timestamp < lo:
            lo = record.timestamp
        if hi is None or record.timestamp > hi:
            hi = record.timestamp
        for tag in record.hashtags:
            tweets, retweets, tag_accounts = per_tag.setdefault(tag, (0, 0, set()))
            tag_accounts.add(record.author)
            if record.retweeted_author is not None:
                tag_accounts.add(record.retweeted_author)
            per_tag[tag] = (tweets + 1, retweets + record.is_retweet, tag_accounts)
    return CorpusStats(
        record_count=count,
        account_count=len(accounts),
        per_hashtag={tag: (t, r, len(a)) for tag, (t, r, a) in per_tag.items()},
        window=None if lo is None or hi is None else (lo, hi),
    )


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
    return json.dumps(record_to_obj(record), sort_keys=True, separators=(",", ":"))


def write_jsonl(records: Iterable[TweetRecord], sink: IO[str]) -> int:
    n = 0
    for record in records:
        sink.write(record_to_json_line(record))
        sink.write("\n")
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

import io
import json
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from _oracles import json_line, ordered_jsonl_check, record_pairs, record_stats, record_store, \
    write_csv
from hypothesis import example, given, strategies as st

from hashjack.errors import IngestError, RejectRateError
from hashjack.ingest import (
    _CANONICAL_LINE,
    _check_jsonl_line,
    CorpusStats,
    EventColumns,
    Reject,
    TweetRecord,
    corpus_stats,
    format_rfc3339,
    normalize_hashtag,
    parse_records,
    parse_rfc3339,
    read_columns,
    record_to_json_line,
    split_streams,
    write_jsonl,
    write_rejects,
)
from hashjack.graph import event_rows
from hashjack.store import rows_to_npy


def jl(**kw):
    obj = {
        "tweet_id": "t1",
        "author": "alice",
        "retweeted_author": "bob",
        "hashtags": ["#afd"],
        "timestamp": "2020-03-01T12:00:00Z",
    }
    obj.update(kw)
    return json.dumps(obj)


class TestNormalizeHashtag:
    def test_strips_hash_and_lowercases(self):
        assert normalize_hashtag("#AfD") == "afd"
        assert normalize_hashtag("  #Corona_19 ") == "corona_19"
        assert normalize_hashtag("plain") == "plain"

    @pytest.mark.parametrize("bad", ["", "#", "a b", "über", "tag!", "#a-b"])
    def test_rejects_non_hashtag_text(self, bad):
        with pytest.raises(ValueError):
            normalize_hashtag(bad)


class TestTimestamps:
    def test_z_suffix_and_offset_agree(self):
        a = parse_rfc3339("2020-03-01T12:00:00Z")
        b = parse_rfc3339("2020-03-01T14:00:00+02:00")
        assert a == b
        assert a.tzinfo is not None

    def test_format_is_utc_z(self):
        moment = datetime(2020, 3, 1, 14, 30, tzinfo=timezone.utc)
        assert format_rfc3339(moment) == "2020-03-01T14:30:00Z"

    def test_round_trip(self):
        text = "2020-03-05T23:59:59Z"
        assert format_rfc3339(parse_rfc3339(text)) == text


class TestParseJsonl:
    def test_happy_path(self):
        records, rejects = parse_records(jl() + "\n" + jl(tweet_id="t2"))
        assert rejects == []
        assert [r.tweet_id for r in records] == ["t1", "t2"]
        assert records[0].author == "alice"
        assert records[0].retweeted_author == "bob"
        assert records[0].hashtags == frozenset({"afd"})

    def test_original_tweet_has_no_retweeted_author(self):
        records, _ = parse_records(jl(retweeted_author=None))
        assert records[0].retweeted_author is None

    @pytest.mark.parametrize(
        "line",
        [
            "{not json",
            json.dumps(["not", "an", "object"]),
            jl(extra_field=1),
            json.dumps({"tweet_id": "t9"}),
            jl(hashtags=[]),
            jl(hashtags=["bad tag"]),
            jl(timestamp="not-a-time"),
            jl(retweeted_author="alice"),  # self-retweet
            jl(author=""),
            jl(hashtags=[None]),
            jl(hashtags=[5]),
            jl(author="a\ud800"),  # a lone surrogate escape
            jl(tweet_id="\udfff"),
            jl(retweeted_author="x\x01y"),
            jl(author="\x00"),
            json.dumps({**json.loads(jl()), "author": "a\ufffe"}, ensure_ascii=False),
            '{"tweet_id": ' + "[" * 100_000 + "]" * 100_000 + "}",
        ],
    )
    def test_bad_lines_become_rejects(self, line):
        records, rejects = parse_records(line)
        assert records == []
        assert len(rejects) == 1
        assert rejects[0].line == 1
        assert rejects[0].reason

    @pytest.mark.parametrize("account", ["a\tb", "a\nb", "a\rb", 'c&<">', "\xe9", "\x85"])
    def test_ids_xml_can_carry_are_kept(self, account):
        for line in (jl(author=account), json.dumps(json.loads(jl(author=account)),
                                                    ensure_ascii=False)):
            records, rejects = parse_records(line)
            assert not rejects
            assert records[0].author == account

    def test_duplicate_tweet_ids_rejected(self):
        records, rejects = parse_records(jl() + "\n" + jl())
        assert len(records) == 1
        assert len(rejects) == 1
        assert "duplicate" in rejects[0].reason

    def test_blank_lines_skipped(self):
        records, rejects = parse_records("\n" + jl() + "\n\n")
        assert len(records) == 1 and not rejects

    def test_unknown_format_raises(self):
        with pytest.raises(IngestError):
            parse_records("", fmt="xml")

    def test_high_reject_rate_raises_when_strict(self):
        source = "\n".join(["junk", "more junk", jl()])
        records, rejects = parse_records(source)  # tolerated, logged
        assert len(rejects) == 2
        with pytest.raises(RejectRateError):
            parse_records(source, strict=True)


OUT_OF_RANGE = ["9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00"]


class TestOutOfRangeTimestamps:
    """A timestamp whose UTC moment falls outside the years 1-9999 is a reject."""

    @pytest.mark.parametrize("stamp", OUT_OF_RANGE)
    def test_parse_rfc3339_raises_value_error(self, stamp):
        with pytest.raises(ValueError, match="timestamp out of range"):
            parse_rfc3339(stamp)

    @pytest.mark.parametrize("stamp", OUT_OF_RANGE)
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_line_is_rejected(self, stamp, fmt):
        source = jl(timestamp=stamp) + "\n" + jl(tweet_id="t2")
        if fmt == "csv":
            source = (TestParseCsv.HEADER + f"\nt1,alice,bob,#afd,{stamp}"
                      "\nt2,alice,bob,#afd,2020-03-01T12:00:00Z")
        records, rejects = parse_records(source, fmt=fmt)
        assert [r.tweet_id for r in records] == ["t2"]
        line = 1 if fmt == "jsonl" else 2
        assert [(r.line, r.reason) for r in rejects] == [
            (line, f"timestamp out of range: {stamp!r}")
        ]


class TestParseCsv:
    HEADER = "tweet_id,author,retweeted_author,hashtags,timestamp"

    def test_round_trip_through_csv(self):
        records, _ = parse_records(jl() + "\n" + jl(tweet_id="t2", retweeted_author=None))
        sink = io.StringIO()
        assert write_csv(records, sink) == 2
        back, rejects = parse_records(sink.getvalue(), fmt="csv")
        assert not rejects
        assert back == records

    def test_header_is_required(self):
        row = 't1,alice,bob,"#afd",2020-03-01T12:00:00Z'
        with pytest.raises(IngestError):
            parse_records(row, fmt="csv")

    def test_control_character_in_id_is_rejected(self):
        row = self.HEADER + "\nt1,a\x01,bob,#afd,2020-03-01T12:00:00Z"
        records, rejects = parse_records(row, fmt="csv")
        assert not records
        assert "author" in rejects[0].reason

    def test_multi_hashtag_column_uses_pipes(self):
        row = self.HEADER + "\nt1,alice,bob,#afd|#noafd,2020-03-01T12:00:00Z"
        records, rejects = parse_records(row, fmt="csv")
        assert not rejects
        assert records[0].hashtags == frozenset({"afd", "noafd"})


class TestTagSets:
    def test_equivalent_lists_give_equal_sets(self):
        lists = [["#A", "b"], ["b", "a"], ["#a", "B", "a"]]
        source = "\n".join(jl(tweet_id=f"t{i}", hashtags=h) for i, h in enumerate(lists))
        records, rejects = parse_records(source)
        assert not rejects
        assert [r.hashtags for r in records] == [frozenset({"a", "b"})] * 3

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_same_raw_list_shares_one_set(self, fmt):
        records, _ = parse_records("\n".join(jl(tweet_id=f"t{i}", hashtags=["#Afd", "#x"])
                                             for i in range(3)))
        if fmt == "csv":
            sink = io.StringIO()
            write_csv(records, sink)
            records, _ = parse_records(sink.getvalue(), fmt="csv")
        assert len(records) == 3
        assert records[1].hashtags is records[0].hashtags
        assert records[2].hashtags is records[0].hashtags

    def test_repeated_bad_tag_is_rejected_on_every_line(self):
        source = "\n".join(jl(tweet_id=f"t{i}", hashtags=["#ok", "bad tag"]) for i in range(3))
        records, rejects = parse_records(source)
        assert not records
        assert [(r.line, r.reason) for r in rejects] == [
            (line, "invalid hashtag: 'bad tag'") for line in (1, 2, 3)
        ]
        _, rejects = parse_records("\n".join(jl(tweet_id=f"t{i}", hashtags=[]) for i in range(2)))
        assert [r.reason for r in rejects] == ["hashtags must be non-empty"] * 2

    def test_unknown_fields_are_named_sorted(self):
        _, rejects = parse_records(jl(zeta=1, alpha=2))
        assert rejects[0].reason == "unknown fields: ['alpha', 'zeta']"


# Text json.dumps writes as it is, and characters it escapes: quotes,
# backslashes, control characters, DEL, non-ASCII text and lone surrogates.
PLAIN = re.compile(r'[ !#-\[\]-~]*')
plain_text = st.from_regex(PLAIN, fullmatch=True)
ESCAPED_CHARS = '"\\\x00\x1f\x7f\xe9\u2028\ud800\udfff\ufffe\U0001f600'
line_moments = st.datetimes(
    min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1),
    timezones=st.sampled_from([
        timezone.utc, timezone(timedelta(hours=2)), timezone(-timedelta(hours=5, minutes=30)),
    ]),
)


class TestJsonlRoundTrip:
    def test_write_then_parse_is_identity(self):
        records, _ = parse_records(
            jl() + "\n" + jl(tweet_id="t2", hashtags=["#b", "#a"], retweeted_author=None)
        )
        sink = io.StringIO()
        assert write_jsonl(records, sink) == 2
        back, rejects = parse_records(sink.getvalue())
        assert not rejects
        assert back == records

    def test_json_line_is_canonical(self):
        records, _ = parse_records(jl(hashtags=["#b", "#a"]))
        line = record_to_json_line(records[0])
        assert json.loads(line)["hashtags"] == ["#a", "#b"]
        assert line == record_to_json_line(records[0])

    @given(st.lists(plain_text, min_size=3, max_size=7), st.booleans(), line_moments,
           st.data())
    def test_json_line_equals_the_general_encoder(self, strings, original, moment, data):
        """A record's line is the general encoder's, and the reader's pattern
        takes it while no id or tag holds a character json.dumps escapes."""

        def line_of(strings):
            tweet_id, author, retweeted, *tags = strings
            record = TweetRecord(tweet_id, author, None if original else retweeted,
                                 frozenset(tags), moment)
            line = record_to_json_line(record)
            assert line == json_line(record)
            return line

        assert _CANONICAL_LINE.fullmatch(line_of(strings))
        i = data.draw(st.integers(0, len(strings) - 1))
        at = data.draw(st.integers(0, len(strings[i])))
        drawn = data.draw(st.characters().filter(lambda c: not PLAIN.fullmatch(c)))
        for char in [*ESCAPED_CHARS, drawn]:  # one character to escape, in one string
            line_of([*strings[:i], strings[i][:at] + char + strings[i][at:], *strings[i + 1:]])


accounts = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
tags = st.sampled_from(["one", "two", "three"])


@st.composite
def tweet_records(draw, index):
    author = draw(accounts)
    retweeted = draw(st.one_of(st.none(), accounts.filter(lambda a: a != author)))
    stamps = draw(st.integers(min_value=0, max_value=10**6))
    return TweetRecord(
        tweet_id=f"t{index}",
        author=author,
        retweeted_author=retweeted,
        hashtags=frozenset(draw(st.sets(tags, min_size=1, max_size=3))),
        timestamp=datetime(2020, 3, 1, tzinfo=timezone.utc).fromtimestamp(
            1583020800 + stamps, tz=timezone.utc
        ),
    )


@st.composite
def corpora(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    return [draw(tweet_records(i)) for i in range(n)]


class TestProperties:
    @given(corpora())
    def test_serialization_round_trips(self, records):
        for writer, fmt in ((write_jsonl, "jsonl"), (write_csv, "csv")):
            sink = io.StringIO()
            writer(records, sink)
            back, rejects = parse_records(sink.getvalue(), fmt=fmt)
            assert not rejects
            assert back == records

    @given(corpora(), st.sets(tags, min_size=1))
    def test_split_streams_routes_every_tracked_record(self, records, tracked):
        streams, dropped = split_streams(records, tracked)
        routed = sum(len(v) for v in streams.values())
        expected = sum(len(r.hashtags & tracked) for r in records)
        assert routed == expected
        assert dropped == sum(1 for r in records if not (r.hashtags & tracked))
        for tag, stream in streams.items():
            assert all(tag in r.hashtags for r in stream)


class TestSplitStreams:
    def test_multi_tag_record_lands_in_each_stream(self):
        records, _ = parse_records(jl(hashtags=["#x", "#y"]))
        streams, dropped = split_streams(records, ["x", "y", "z"])
        assert set(streams) == {"x", "y", "z"}  # tracked tags always present
        assert len(streams["x"]) == len(streams["y"]) == 1
        assert streams["z"] == []
        assert dropped == 0

    def test_untracked_records_counted_dropped(self):
        records, _ = parse_records(jl(hashtags=["#q"]))
        streams, dropped = split_streams(records, ["x"])
        assert streams == {"x": []}
        assert dropped == 1


class TestCorpusStats:
    def test_counts(self):
        records, _ = parse_records(
            "\n".join(
                [
                    jl(),
                    jl(tweet_id="t2", retweeted_author=None),
                    jl(tweet_id="t3", author="carol", hashtags=["#afd", "#x"]),
                ]
            )
        )
        stats = corpus_stats(records)
        assert stats.record_count == 3
        assert stats.account_count == 3  # alice, bob, carol
        tweets, retweets, uniq = stats.per_hashtag["afd"]
        assert (tweets, retweets) == (3, 2)
        assert uniq == 3
        assert stats.window is not None

    def test_to_dict_is_json_ready(self):
        records, _ = parse_records(jl())
        obj = corpus_stats(records).to_dict()
        json.dumps(obj)


# One line per reject reason, in the order the checks run, with the
# records and rejects parse_records has always given for them.
REASON_LINES = [
    jl(),
    "{not json",
    '{"tweet_id": "t2"} trailing',
    json.dumps(["not", "an", "object"]),
    jl(tweet_id="t3", extra=1),
    jl(tweet_id="t4", hashtags="#afd"),
    jl(tweet_id="t5", hashtags=["#afd", 5]),
    jl(tweet_id=""),
    jl(tweet_id="t6", author=None),
    jl(tweet_id="t7", retweeted_author=""),
    jl(tweet_id="t8", retweeted_author="alice"),
    jl(tweet_id="t9\x01"),
    jl(tweet_id="t10", author="a\ud800"),
    jl(tweet_id="t11", retweeted_author="b\ufffe"),
    jl(tweet_id="t12", hashtags=["bad tag"]),
    jl(tweet_id="t13", hashtags=[]),
    jl(tweet_id="t14", timestamp=5),
    jl(tweet_id="t15", timestamp="not-a-time"),
    jl(tweet_id="t16", timestamp="2020-03-01T12:00:00"),
    jl(),
    jl(tweet_id="t17", retweeted_author=None, hashtags=["#AfD", "#x"],
       timestamp="2020-03-01T14:00:00+02:00"),
    '{"tweet_id": ' + "[" * 5000 + "]" * 5000 + "}",
    "   ",
    jl(tweet_id="t18", timestamp=" 2020-03-01t07:00:00z "),
    jl(tweet_id="t19", timestamp=OUT_OF_RANGE[0]),
]
REASON_REJECTS = [
    (2, "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (3, "Extra data: line 1 column 20 (char 19)"),
    (4, "line is not a JSON object"),
    (5, "unknown fields: ['extra']"),
    (6, "hashtags must be a list of strings"),
    (7, "hashtags must be a list of strings"),
    (8, "tweet_id must be a non-empty string"),
    (9, "author must be a non-empty string"),
    (10, "retweeted_author must be a non-empty string when present"),
    (11, "self-retweet"),
    (12, "tweet_id holds a control character, lone surrogate or noncharacter"),
    (13, "author holds a control character, lone surrogate or noncharacter"),
    (14, "retweeted_author holds a control character, lone surrogate or noncharacter"),
    (15, "invalid hashtag: 'bad tag'"),
    (16, "hashtags must be non-empty"),
    (17, "timestamp must be an RFC 3339 string"),
    (18, "Invalid isoformat string: 'not-a-time'"),
    (19, "timestamp lacks a timezone: '2020-03-01T12:00:00'"),
    (20, "duplicate tweet_id: t1"),
    (22, "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    (25, f"timestamp out of range: {OUT_OF_RANGE[0]!r}"),
]
REASON_CSV_ROWS = [
    "t1,alice,bob,#afd,2020-03-01T12:00:00Z",
    "t2,alice,bob,#afd",
    "t3,alice,bob,#afd,2020-03-01T12:00:00Z,extra",
    "t4,a\x00b,bob,#afd,2020-03-01T12:00:00Z",
    ",alice,bob,#afd,2020-03-01T12:00:00Z",
    "t5,,bob,#afd,2020-03-01T12:00:00Z",
    "t6,alice,alice,#afd,2020-03-01T12:00:00Z",
    "t7,al\x01ice,bob,#afd,2020-03-01T12:00:00Z",
    "t8,alice,bob,#afd|bad tag,2020-03-01T12:00:00Z",
    "t9,alice,bob,|,2020-03-01T12:00:00Z",
    "t10,alice,bob,#afd,yesterday",
    "t11,alice,bob,#afd,2020-03-01T12:00:00",
    't12,alice,,"#AfD|#x",2020-03-01T14:00:00+02:00',
    "t1,carol,bob,#afd,2020-03-01T12:00:00Z",
    '"t13,alice,bob,#afd,2020-03-01T12:00:00Z',
    "t14,alice,bob,#afd|#afd,2020-03-01T10:00:00-05:00",
    f"t15,alice,bob,#afd,{OUT_OF_RANGE[1]}",
]
REASON_CSV_REJECTS = [
    (3, "expected 5 columns, got 4"),
    (4, "expected 5 columns, got 6"),
    (5, "author holds a control character, lone surrogate or noncharacter"),
    (6, "tweet_id must be a non-empty string"),
    (7, "author must be a non-empty string"),
    (8, "self-retweet"),
    (9, "author holds a control character, lone surrogate or noncharacter"),
    (10, "invalid hashtag: 'bad tag'"),
    (11, "hashtags must be non-empty"),
    (12, "Invalid isoformat string: 'yesterday'"),
    (13, "timestamp lacks a timezone: '2020-03-01T12:00:00'"),
    (15, "duplicate tweet_id: t1"),
    (16, "expected 5 columns, got 1"),
    (18, f"timestamp out of range: {OUT_OF_RANGE[1]!r}"),
]


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


CANONICAL = (
    '{"author":"alice","hashtags":["#afd","#x"],"retweeted_author":"bob",'
    '"timestamp":"2020-03-01T12:00:00Z","tweet_id":"t00000000"}'
)
MIXED_LINES = [
    CANONICAL,
    CANONICAL.replace('"t00000000"', '"t2"').replace(',"retweeted_author":"bob"', ""),
    CANONICAL.replace('"t00000000"', '"t3"').replace('"#afd","#x"', '"#AfD"'),
    CANONICAL.replace('"t00000000"', '"t4"').replace("12:00:00Z", "12:00:00.250000Z"),
    CANONICAL.replace('"t00000000"', '"t5"').replace('"alice"', '"\\u00e4lice"'),  # escaped
    CANONICAL.replace('"t00000000"', '"t6"').replace('"alice"', '"\u00e4lice"'),  # raw UTF-8
    CANONICAL.replace('"t00000000"', '"t7"').replace('"bob"', '"alice"'),
    CANONICAL.replace('"t00000000"', '"t8"').replace('"#afd","#x"', ""),
    CANONICAL.replace('"t00000000"', '"t9"').replace("12:00:00Z", "12:00:00+01:00"),
    json.dumps({"tweet_id": "t10", "author": "carol", "retweeted_author": "bob",
                "hashtags": ["#x"], "timestamp": "2020-03-01T14:00:00+02:00"}),
    json.dumps({"tweet_id": "t11", "author": "carol", "hashtags": ["#afd"],
                "timestamp": "2020-03-01T09:00:00Z"}),
    # the benchmark's injected lines: five malformed, three repeating t00000000
    '{"tweet_id": "bad-1", "author": "x"',
    '["not", "an", "object"]',
    '{"tweet_id": "bad-3", "author": "u1", "retweeted_author": "u1", '
    '"hashtags": ["#agenda"], "timestamp": "2020-03-01T00:00:00Z"}',
    '{"tweet_id": "bad-4", "author": "u1", "retweeted_author": "u2", '
    '"hashtags": ["#agenda"], "timestamp": "yesterday"}',
    '{"tweet_id": "bad-5", "author": "u1", "retweeted_author": "u2", '
    '"hashtags": ["#not a tag"], "timestamp": "2020-03-01T00:00:00Z"}',
    *(f'{{"tweet_id": "t00000000", "author": "dup{i}", "retweeted_author": "u2", '
      f'"hashtags": ["#party1"], "timestamp": "2020-03-01T00:00:00Z"}}' for i in range(3)),
]


class TestOnePass:
    """parse_records and read_columns share one checked pass over the lines."""

    def test_jsonl_records_and_rejects(self):
        records, rejects = parse_records("\n".join(REASON_LINES))
        assert records == [
            TweetRecord("t1", "alice", "bob", frozenset({"afd"}), utc(2020, 3, 1, 12)),
            TweetRecord("t17", "alice", None, frozenset({"afd", "x"}), utc(2020, 3, 1, 12)),
            TweetRecord("t18", "alice", "bob", frozenset({"afd"}), utc(2020, 3, 1, 7)),
        ]
        assert [(r.line, r.reason) for r in rejects] == REASON_REJECTS
        assert [r.raw for r in rejects] == [REASON_LINES[r.line - 1].strip() for r in rejects]

    def test_csv_records_and_rejects(self):
        source = "\n".join([TestParseCsv.HEADER, *REASON_CSV_ROWS])
        records, rejects = parse_records(source, fmt="csv")
        assert records == [
            TweetRecord("t1", "alice", "bob", frozenset({"afd"}), utc(2020, 3, 1, 12)),
            TweetRecord("t12", "alice", None, frozenset({"afd", "x"}), utc(2020, 3, 1, 12)),
            TweetRecord("t14", "alice", "bob", frozenset({"afd"}), utc(2020, 3, 1, 15)),
        ]
        assert [(r.line, r.reason) for r in rejects] == REASON_CSV_REJECTS
        assert [r.raw for r in rejects] == [REASON_CSV_ROWS[r.line - 2] for r in rejects]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_columns_see_the_same_lines(self, fmt):
        source = ("\n".join(REASON_LINES) if fmt == "jsonl"
                  else "\n".join([TestParseCsv.HEADER, *REASON_CSV_ROWS]))
        records, rejects = parse_records(source, fmt=fmt)
        columns, column_rejects = read_columns(source, fmt=fmt)
        assert column_rejects == rejects
        assert len(columns) == len(records)
        assert [columns.accounts[i] for i in columns.author] == [r.author for r in records]
        assert [columns.tag_sets[k] for k in columns.tag_set] == [r.hashtags for r in records]
        stamps = [r.timestamp for r in records]
        assert columns.window == (min(stamps), max(stamps))

    def test_mixed_corpus_gives_what_the_ordered_checks_give(self):
        """Canonical lines, json.dumps-default lines and the benchmark's
        eight injected line shapes, through both consumers of the pass."""
        source = "\n".join(MIXED_LINES)
        fields, rejects = [], []
        for lineno, line in enumerate(MIXED_LINES, start=1):
            try:
                checked = ordered_jsonl_check(line)
                if checked[0] in {f[0] for f in fields}:
                    raise ValueError(f"duplicate tweet_id: {checked[0]}")
            except ValueError as exc:
                rejects.append(Reject(lineno, str(exc), line))
            else:
                fields.append(checked)
        assert len(fields) == 9 and len(rejects) == 10
        records, record_rejects = parse_records(source)
        assert records == [TweetRecord(*f) for f in fields]
        columns, column_rejects = read_columns(source)
        assert vars(columns) == vars(EventColumns(fields))
        assert record_rejects == column_rejects == rejects

    def test_reject_rate_and_errors_come_from_the_pass(self):
        with pytest.raises(RejectRateError):
            read_columns("junk\nmore junk\n" + jl(), strict=True)
        with pytest.raises(IngestError):
            read_columns("", fmt="xml")


STAMPS = st.sampled_from([
    "2020-03-01T12:00:00Z", "2020-03-01T14:00:00+02:00", "2020-03-01T07:00:00-05:00",
    "2020-03-01t12:00:00z", "2020-02-29T23:30:00-13:00", "2020-03-02T00:00:00+11:59",
])


@st.composite
def corpus_lines(draw):
    """JSONL lines with mixed offsets, repeated and unique tag lists, and
    tags that are tracked, untracked or both."""
    lines = []
    for i in range(draw(st.integers(min_value=0, max_value=12))):
        author = draw(accounts)
        obj = {
            "tweet_id": f"t{i}",
            "author": author,
            "hashtags": draw(st.lists(st.sampled_from(
                ["#one", "#One", "two", "#three", f"#u{i}"]), min_size=1, max_size=3)),
            "timestamp": draw(STAMPS),
        }
        retweeted = draw(st.one_of(st.none(), accounts.filter(lambda a: a != author)))
        if retweeted is not None:
            obj["retweeted_author"] = retweeted
        lines.append(json.dumps(obj))
    return "\n".join(lines)


class TestColumns:
    """The store and the counts from columns equal a walk over the records."""

    @given(corpus_lines(), st.sets(tags, min_size=1))
    def test_columns_match_a_record_walk(self, text, tracked):
        records, _ = parse_records(text)
        columns, _ = read_columns(text)
        stats = columns.stats()
        expected = record_stats(records)
        assert stats.to_dict() == CorpusStats(**expected).to_dict()
        assert corpus_stats(records) == stats
        if stats.window is not None:
            assert all(moment.tzinfo is timezone.utc for moment in stats.window)
        ids, pairs = columns.index_pairs(tracked)
        expected_ids, expected_pairs = record_pairs(records, tracked)
        assert ids == expected_ids
        assert sorted(pairs) == sorted(expected_pairs)
        for tag, tag_pairs in pairs.items():
            assert tag_pairs.dtype == np.dtype("<i4") and tag_pairs.shape[1:] == (2,)
            assert tag_pairs.tolist() == [list(pair) for pair in expected_pairs[tag]]
        # the store's rows, as ingest writes them
        _, expected_rows = record_store(records, tracked)
        for tag, tag_pairs in pairs.items():
            assert rows_to_npy(event_rows(tag_pairs)) == rows_to_npy(expected_rows[tag])

    @given(corpora())
    def test_from_records_matches_the_record_walk(self, records):
        stats = EventColumns.from_records(records).stats()
        assert stats == CorpusStats(**record_stats(records))

    def test_empty_columns(self):
        columns = EventColumns([])
        assert columns.stats().to_dict() == {
            "record_count": 0, "account_count": 0, "per_hashtag": {}, "window": None,
        }
        ids, pairs = columns.index_pairs(["a"])
        assert ids == [] and pairs["a"].shape == (0, 2) and pairs["a"].dtype == np.dtype("<i4")
        assert rows_to_npy(event_rows(pairs["a"])) == rows_to_npy([])


class TestWriteRejects:
    def test_reject_lines_are_jsonl(self):
        _, rejects = parse_records("junk\n" + jl())
        sink = io.StringIO()
        assert write_rejects(rejects, sink) == 1
        obj = json.loads(sink.getvalue())
        assert obj["line"] == 1 and obj["raw"] == "junk"


CLEAN_LINE = {
    "tweet_id": "t1", "author": "alice", "retweeted_author": "bob",
    "hashtags": ["#afd", "#x"], "timestamp": "2020-03-01T12:00:00Z",
}
LINE_STAMPS = [
    "2020-03-01T12:00:00Z", "2020-03-01T12:00:00z", "2020-03-01T14:00:00+02:00",
    " 2020-03-01T12:00:00Z", "2020-03-01T12:00:00Z ", "\t2020-03-01T12:00:00Z\n",
    "2020-03-01T12:00:00 Z", "9999-12-31T23:59:59-01:00", "9999-12-31T23:59:59Z",
    "0001-01-01T00:00:00Z", "0001-01-01T00:30:00+01:00", "2020-03-01Z", "2020-03-01",
    "2020-03-01T12Z", "20200301T120000Z", "2020-03-01T12:00:00.123456Z",
    "2020-03-01T12:00:00+00:00Z", "2020-03-01T12:00:00", "Z", "", "yesterday",
    "2020-03-01\u3000T12:00:00Z",
]
LINE_MUTATIONS = {
    "tweet_id": ["", "t2", True, 5, None, [], "t\x01", "t\ud800"],
    "author": ["", "bob", False, 0, 1.5, None, "a\ufffe", " "],
    "retweeted_author": ["", "alice", "carol", True, 7, None, {}, "b\x0b"],
    "hashtags": [[], "#afd", ["#afd", 5], ["#afd", None], [["#afd"]], [{}], [True], [1.5],
                 ["#AfD", "afd"], ["#a b"], ["#ok", "#"], [" #afd "], None],
    "timestamp": [*LINE_STAMPS, 5, None, ["2020-03-01T12:00:00Z"]],
    "extra": [1, None, "x"],
}
MISSING_FIELD = object()


def check_outcome(check, line):
    """(fields, repr of the timestamp) or (exception type, reason) of a check."""
    try:
        fields = check(line)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)
    return fields, repr(fields[4])


class TestLineCheck:
    """A clean line's one test gives what the ordered checks give, and any
    other line gets their reject reason."""

    @given(
        st.lists(st.tuples(st.sampled_from(sorted(LINE_MUTATIONS)), st.data()), max_size=3),
        st.sampled_from([
            {}, {"separators": (",", ":")}, {"separators": (" , ", " : ")},
            {"separators": (",", ":"), "sort_keys": True},  # the canonical form
            {"separators": (",", ":"), "sort_keys": True, "ensure_ascii": False},
        ]),
    )
    @example([], {})
    @example([], {"separators": (",", ":"), "sort_keys": True})
    def test_same_fields_or_reason_as_the_ordered_checks(self, mutations, dumps):
        obj = dict(CLEAN_LINE)
        for field, data in mutations:
            value = data.draw(st.sampled_from([MISSING_FIELD, *LINE_MUTATIONS[field]]))
            if value is MISSING_FIELD:
                obj.pop(field, None)
            else:
                obj[field] = value
        line = json.dumps(obj, **dumps)
        assert check_outcome(_check_jsonl_line, line) == check_outcome(ordered_jsonl_check, line)

    @pytest.mark.parametrize("stamp", LINE_STAMPS)
    def test_every_listed_timestamp(self, stamp):
        line = jl(timestamp=stamp)
        assert check_outcome(_check_jsonl_line, line) == check_outcome(ordered_jsonl_check, line)

    @given(st.text(alphabet="0123456789-:.+ TZz", max_size=26))
    def test_any_timestamp_text(self, stamp):
        line = jl(timestamp=stamp)
        assert check_outcome(_check_jsonl_line, line) == check_outcome(ordered_jsonl_check, line)



def canonical(tweet_id, author="alice", retweeted="bob", tags=("#afd",),
              stamp="2020-03-01T12:00:00Z"):
    """A line in the canonical layout; its strings are written as given."""
    retweet = "" if retweeted is None else f',"retweeted_author":"{retweeted}"'
    tag_list = ",".join(f'"{t}"' for t in tags)
    return (f'{{"author":"{author}","hashtags":[{tag_list}]{retweet},'
            f'"timestamp":"{stamp}","tweet_id":"{tweet_id}"}}')


# Canonical lines that the line pattern or its tests refuse; each must get
# the reject reason and line number the ordered checks give.
PATTERN_EDGE_LINES = [
    canonical("t1"),
    canonical(""),
    canonical("t2", author=""),
    canonical("t3", retweeted=""),
    canonical("t4\ufffe"),
    canonical("t5", author="alice\ufffe"),
    canonical("t6", retweeted="\ufffebob"),
    canonical("t7\uffff"),
    canonical("t8", author="al\uffffice"),
    canonical("t9", retweeted="\uffff"),
    canonical("t10", retweeted="alice"),
    canonical("t1", author="carol"),
    canonical("t11", tags=("#afd", "#not a tag")),
    canonical("t12", tags=()),
    canonical("t13", retweeted=None),
]
BAD_CHAR = "{} holds a control character, lone surrogate or noncharacter"
PATTERN_EDGE_REJECTS = [
    (2, "tweet_id must be a non-empty string"),
    (3, "author must be a non-empty string"),
    (4, "retweeted_author must be a non-empty string when present"),
    (5, BAD_CHAR.format("tweet_id")),
    (6, BAD_CHAR.format("author")),
    (7, BAD_CHAR.format("retweeted_author")),
    (8, BAD_CHAR.format("tweet_id")),
    (9, BAD_CHAR.format("author")),
    (10, BAD_CHAR.format("retweeted_author")),
    (11, "self-retweet"),
    (12, "duplicate tweet_id: t1"),
    (13, "invalid hashtag: 'not a tag'"),
    (14, "hashtags must be non-empty"),
]
# Valid lines the pattern does not take: each is decoded and checked in order
OFF_PATTERN_LINES = [
    canonical("t1", stamp="2020-03-01T12:00:00z"),
    canonical("t2", stamp="2020-03-01T14:00:00+02:00"),
    canonical("t3", stamp="2020-03-01T07:00:00.500000-05:00"),
    json.dumps({"tweet_id": "t4", "timestamp": "2020-03-01T12:00:00Z", "author": "carol",
                "hashtags": ["#x"], "retweeted_author": "bob"}, separators=(",", ":")),
    json.dumps({"author": "carol", "hashtags": ["#afd", "#x"], "retweeted_author": "bob",
                "timestamp": "2020-03-01T12:00:00Z", "tweet_id": "t5"}, sort_keys=True),
    canonical("t6", author="\\u00e4lice", tags=("#\\u0041fd",)),
    canonical("t7", retweeted='b\\"o\\\\b'),
    canonical("t8", author="al\\u00efce", retweeted=None, tags=("#AfD",)),
]


class TestLinePatternEdge:
    """Lines at the edge of the canonical-line pattern get the reasons,
    line numbers and fields that the ordered checks give."""

    def test_refused_lines_get_the_ordered_reasons(self):
        matched = [_CANONICAL_LINE.fullmatch(line) is not None for line in PATTERN_EDGE_LINES]
        assert matched == [True] * 4 + [False] * 6 + [True] * 5
        source = "\n".join(PATTERN_EDGE_LINES)
        records, rejects = parse_records(source)
        columns, column_rejects = read_columns(source)
        assert [(r.line, r.reason) for r in rejects] == PATTERN_EDGE_REJECTS
        assert column_rejects == rejects
        assert [r.raw for r in rejects] == [PATTERN_EDGE_LINES[r.line - 1] for r in rejects]
        assert [r.tweet_id for r in records] == ["t1", "t13"]
        assert vars(columns) == vars(EventColumns.from_records(records))
        for lineno, reason in PATTERN_EDGE_REJECTS:
            if not reason.startswith("duplicate"):
                line = PATTERN_EDGE_LINES[lineno - 1]
                assert check_outcome(_check_jsonl_line, line)[1] == reason
                assert check_outcome(ordered_jsonl_check, line)[1] == reason

    def test_off_pattern_lines_give_the_same_columns(self):
        assert not any(_CANONICAL_LINE.fullmatch(line) for line in OFF_PATTERN_LINES)
        source = "\n".join(OFF_PATTERN_LINES)
        fields = [ordered_jsonl_check(line) for line in OFF_PATTERN_LINES]
        records, rejects = parse_records(source)
        columns, column_rejects = read_columns(source)
        assert rejects == column_rejects == []
        assert records == [TweetRecord(*f) for f in fields]
        assert vars(columns) == vars(EventColumns(fields))
        assert vars(columns) == vars(EventColumns.from_records(records))
        assert [r.timestamp for r in records[:3]] == [
            utc(2020, 3, 1, 12), utc(2020, 3, 1, 12), utc(2020, 3, 1, 12, 0, 0, 500000)]
        assert [r.author for r in records[5:]] == ["älice", "alice", "alïce"]
        assert records[5].hashtags == records[7].hashtags == frozenset({"afd"})
        assert records[6].retweeted_author == 'b"o\\b'

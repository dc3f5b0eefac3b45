import io
import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from hashjack.errors import IngestError, RejectRateError
from hashjack.ingest import (
    TweetRecord,
    corpus_stats,
    format_rfc3339,
    normalize_hashtag,
    parse_records,
    parse_rfc3339,
    record_to_json_line,
    split_streams,
    write_csv,
    write_jsonl,
    write_rejects,
)


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
        assert records[0].is_retweet

    def test_original_tweet_has_no_retweeted_author(self):
        records, _ = parse_records(jl(retweeted_author=None))
        assert records[0].retweeted_author is None
        assert not records[0].is_retweet

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


class TestWriteRejects:
    def test_reject_lines_are_jsonl(self):
        _, rejects = parse_records("junk\n" + jl())
        sink = io.StringIO()
        assert write_rejects(rejects, sink) == 1
        obj = json.loads(sink.getvalue())
        assert obj["line"] == 1 and obj["raw"] == "junk"

import random
from datetime import datetime

import pytest
from hypothesis import given, settings, strategies as st

from waysample.cdx import (
    CdxParseError,
    CdxRecord,
    MixedKeyError,
    TimeMap,
    Timestamp14,
    ZipNumEntry,
    parse_cdx_line,
    parse_timemap_text,
    parse_timestamp,
    parse_zipnum_line,
)

from conftest import make_history, make_record, make_timestamp

FIG1_FIRST_LINE = ("com,example)/ 20020120142510 http://example.com:80/ "
                   "text/html 200 S5QVKGLWBTPX3QHRRK3GV4KTNTE6JGNP 481")
FIG2_LINE = ("asia,cityrental)/ 20130804002034\tpart-a-00001"
             "\t3239987800\t278249\t999989")


def _strptime_oracle(raw: str) -> datetime | None:
    # 14 digits parsed by strptime; strptime's %d also takes " 1", which the
    # digit check refuses
    try:
        return datetime.strptime(raw, "%Y%m%d%H%M%S") if raw.isdigit() else None
    except ValueError:
        return None


class TestTimestamp:
    def test_golden(self):
        ts = parse_timestamp("20020120142510")
        assert (ts.datetime.year, ts.datetime.month, ts.datetime.day) == (2002, 1, 20)
        assert (ts.datetime.hour, ts.datetime.minute, ts.datetime.second) == (14, 25, 10)

    def test_pre_1996_parses(self):
        assert parse_timestamp("19791231000000").year == 1979

    def test_invalid_month(self):
        with pytest.raises(CdxParseError):
            parse_timestamp("20211301000000")

    def test_wrong_length(self):
        with pytest.raises(CdxParseError):
            parse_timestamp("2021")

    def test_replace_validates(self):
        with pytest.raises(CdxParseError):
            parse_timestamp("20020120142510")._replace(raw="20020230142510")

    @given(st.tuples(st.integers(1996, 2021), st.integers(1, 12), st.integers(1, 28),
                     st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)),
           st.tuples(st.integers(1996, 2021), st.integers(1, 12), st.integers(1, 28),
                     st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)))
    def test_order_isomorphism(self, a, b):
        ra = "%04d%02d%02d%02d%02d%02d" % a
        rb = "%04d%02d%02d%02d%02d%02d" % b
        assert (ra < rb) == (parse_timestamp(ra) < parse_timestamp(rb))
        assert parse_timestamp(ra).raw == ra

    def test_non_ascii_digits_rejected(self):
        # Arabic-Indic digits pass isdigit() and int(); as a year-2000 stamp
        # this one would sort after the year 3000
        with pytest.raises(CdxParseError):
            parse_timestamp("\u0662\u0660\u0660\u06600101000000")

    @pytest.mark.parametrize("raw,valid", [
        ("20000229000000", True), ("20240229235959", True), ("20230131000000", True),
        ("20231231235959", True), ("00010101000000", True), ("99991231235959", True),
        ("19000229000000", False), ("21000229000000", False), ("20230229000000", False),
        ("20230431000000", False), ("20230100000000", False), ("00000101000000", False),
        ("20200101240000", False), ("20200101006000", False), ("20200101000060", False),
    ])
    def test_calendar_edge_cases(self, raw, valid):
        expected = _strptime_oracle(raw)
        assert (expected is not None) == valid
        if valid:
            assert parse_timestamp(raw).datetime == expected
        else:
            with pytest.raises(CdxParseError):
                parse_timestamp(raw)

    @settings(max_examples=500)
    @given(st.one_of(
        st.builds("{:04d}{:02d}{:02d}{:02d}{:02d}{:02d}".format,
                  st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
                  st.integers(0, 25), st.integers(0, 61), st.integers(0, 61)),
        st.text(alphabet="0123456789 -:Tx", min_size=14, max_size=14)))
    def test_matches_strptime_oracle(self, raw):
        expected = _strptime_oracle(raw)
        if expected is None:
            with pytest.raises(CdxParseError):
                parse_timestamp(raw)
        else:
            ts = parse_timestamp(raw)
            assert ts.datetime == expected
            assert ts.year == expected.year


class TestCdxLine:
    def test_fig1_first_line(self):
        record = parse_cdx_line(FIG1_FIRST_LINE)
        assert record.timestamp.raw == "20020120142510"
        assert record.mime == "text/html"
        assert record.status == "200"
        assert record.to_line() == FIG1_FIRST_LINE

    def test_six_fields_rejected(self):
        with pytest.raises(CdxParseError):
            parse_cdx_line("com,example)/ 20020120142510 http://example.com/ text/html 200 DIGEST")

    def test_eight_fields_rejected(self):
        with pytest.raises(CdxParseError):
            parse_cdx_line(FIG1_FIRST_LINE + " extra")

    def test_non_numeric_length(self):
        with pytest.raises(CdxParseError):
            parse_cdx_line("com,example)/ 20020120142510 http://example.com/ text/html 200 D xyz")

    def test_runs_of_spaces_normalized(self):
        loose = FIG1_FIRST_LINE.replace(" ", "   ")
        assert parse_cdx_line(loose).to_line() == FIG1_FIRST_LINE

    def test_revisit_round_trip(self):
        line = "com,example)/ 20200101000000 http://example.com/ warc/revisit - DIGESTX 0"
        record = parse_cdx_line(line)
        assert record.is_revisit
        assert record.to_line() == line

    def test_missing_status_non_revisit_not_rejected(self):
        line = "com,example)/ 20200101000000 http://example.com/ text/html - DIGESTX 10"
        record = parse_cdx_line(line)
        assert record.status == "-"
        assert not record.is_revisit

    def test_round_trip_random(self, rng):
        for _ in range(500):
            record = make_record("com,example)/x", "http://example.com/x",
                                 make_timestamp(rng), rng=rng)
            assert parse_cdx_line(record.to_line()) == record


class TestZipNumLine:
    def test_fig2_golden(self):
        entry = parse_zipnum_line(FIG2_LINE)
        assert entry.surt == "asia,cityrental)/"
        assert entry.part == "part-a-00001"
        assert (entry.offset, entry.length, entry.block) == (3239987800, 278249, 999989)
        assert entry.to_line() == FIG2_LINE

    def test_missing_field(self):
        with pytest.raises(CdxParseError):
            parse_zipnum_line("asia,cityrental)/ 20130804002034\tpart-a-00001\t100")

    def test_negative_offset(self):
        with pytest.raises(CdxParseError):
            parse_zipnum_line("a)/ 20130804002034\tpart-a\t-5\t100\t1")

    def test_zero_length(self):
        with pytest.raises(CdxParseError):
            parse_zipnum_line("a)/ 20130804002034\tpart-a\t5\t0\t1")

    def test_round_trip_1000_generated(self, rng):
        for _ in range(1000):
            entry = ZipNumEntry(
                surt=f"com,host{rng.randrange(1000)})/p{rng.randrange(100)}",
                timestamp=make_timestamp(rng),
                part=f"part-{rng.choice('abc')}-{rng.randrange(99999):05d}",
                offset=rng.randrange(2 ** 40),
                length=rng.randrange(1, 2 ** 20),
                block=rng.randrange(10 ** 6),
            )
            assert parse_zipnum_line(entry.to_line()) == entry


class TestTimeMap:
    def test_shuffled_records_sorted(self, rng):
        records = make_history("http://example.com/", 50, rng)
        shuffled = records[:]
        rng.shuffle(shuffled)
        tm = TimeMap("http://example.com/", shuffled)
        stamps = [r.timestamp.raw for r in tm.records]
        assert stamps == sorted(stamps)

    def test_mixed_urlkeys_rejected(self, rng):
        a = make_record("com,a)/", "http://a.com/", make_timestamp(rng), rng=rng)
        b = make_record("com,b)/", "http://b.com/", make_timestamp(rng), rng=rng)
        with pytest.raises(MixedKeyError):
            TimeMap("http://a.com/", [a, b])

    def test_text_round_trip(self, rng):
        tm = TimeMap("http://example.com/", make_history("http://example.com/", 20, rng))
        assert parse_timemap_text(tm.uri_r, tm.to_text()).records == tm.records

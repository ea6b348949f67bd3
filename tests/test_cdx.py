import itertools
import random
import tracemalloc
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
    parse_timestamp,
    parse_zipnum_line,
    count_timemap,
    read_timemap,
    timemap_records,
    write_timemap,
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


def _fields(ts: Timestamp14) -> tuple[int, ...]:
    # year, month, day, hour, minute and second of the raw digits, as a
    # datetime's timetuple() starts
    return tuple(int(ts.raw[i:j]) for i, j in ((0, 4), (4, 6), (6, 8), (8, 10), (10, 12), (12, 14)))


class TestTimestamp:
    def test_golden(self):
        ts = parse_timestamp("20020120142510")
        assert _fields(ts) == (2002, 1, 20, 14, 25, 10)
        assert _fields(ts) == _strptime_oracle(ts.raw).timetuple()[:6]

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
            assert _fields(parse_timestamp(raw)) == expected.timetuple()[:6]
        else:
            with pytest.raises(CdxParseError):
                parse_timestamp(raw)

    def test_leap_day_is_checked_by_the_leap_year_rule(self):
        # 29 February is outside the common-timestamp regex, so the month
        # lengths and the Gregorian leap-year rule decide
        assert _fields(Timestamp14("20000229120000")) == (2000, 2, 29, 12, 0, 0)
        assert Timestamp14("20040229120000").year == 2004
        for raw in ("20010229120000", "19000229120000", "20040230120000"):
            with pytest.raises(CdxParseError, match=f"^invalid calendar datetime: '{raw}'$"):
                Timestamp14(raw)

    def test_month_ends_match_strptime_oracle(self):
        # every month end of years on each side of the leap-year rule, and of
        # the first and last years, with a time at and past each bound
        mismatches = []
        for year, month, day, time in itertools.product(
                (1, 4, 100, 400, 1900, 1996, 2000, 2001, 2004, 2100, 9999), range(14),
                (0, 28, 29, 30, 31, 32), ("235959", "240000", "006000", "000060")):
            raw = f"{year:04d}{month:02d}{day:02d}{time}"
            expected = _strptime_oracle(raw)
            try:
                outcome = _fields(Timestamp14(raw))
            except CdxParseError as exc:
                outcome = str(exc)
            if outcome != (expected.timetuple()[:6] if expected
                           else f"invalid calendar datetime: {raw!r}"):
                mismatches.append(raw)
        assert mismatches == []

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
            assert _fields(ts) == expected.timetuple()[:6]
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

    @pytest.mark.parametrize("length", ["\u0661\u0662", "\u00b2", "+12", "-0", "1_0"])
    def test_length_of_other_than_ascii_digits(self, length):
        # "\u0661\u0662" would be written back as "12"; int("\u00b2") raises a bare ValueError
        with pytest.raises(CdxParseError, match="line 3: non-numeric length"):
            parse_cdx_line(FIG1_FIRST_LINE[:-3] + length, 3)

    @pytest.mark.parametrize("length", ["007", "00", "0481"])
    def test_length_with_a_leading_zero(self, length):
        # "007" would be written back as "7"
        with pytest.raises(CdxParseError, match="line 3: length has a leading zero"):
            parse_cdx_line(FIG1_FIRST_LINE[:-3] + length, 3)
        assert parse_cdx_line(FIG1_FIRST_LINE[:-3] + "0").to_line() == FIG1_FIRST_LINE[:-3] + "0"

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

    def test_fields_are_read_only(self):
        record = parse_cdx_line(FIG1_FIRST_LINE)
        with pytest.raises(AttributeError):
            record.status = "404"
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_replace_validates(self):
        record = parse_cdx_line(FIG1_FIRST_LINE)
        assert record._replace(length=0).to_line() == FIG1_FIRST_LINE[:-3] + "0"
        with pytest.raises(CdxParseError, match="negative length"):
            record._replace(length=-1)

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

    @pytest.mark.parametrize("field", [2, 3, 4])
    @pytest.mark.parametrize("number", ["\u0661", "\u00b2", "+5", "--5", "1_0"])
    def test_numbers_of_other_than_ascii_digits(self, field, number):
        fields = FIG2_LINE.split("\t")
        fields[field] = number
        with pytest.raises(CdxParseError, match="line 2: non-numeric"):
            parse_zipnum_line("\t".join(fields), 2)

    @pytest.mark.parametrize("field, name", [(2, "offset"), (3, "length"), (4, "block")])
    @pytest.mark.parametrize("number", ["007", "0100", "01", "00"])
    def test_numbers_with_a_leading_zero(self, field, name, number):
        fields = FIG2_LINE.split("\t")
        fields[field] = number
        with pytest.raises(CdxParseError, match=f"line 2: {name} has a leading zero"):
            parse_zipnum_line("\t".join(fields), 2)

    def test_zero_offset_and_block(self):
        line = "a)/ 20130804002034\tpart-a\t0\t1\t0"
        assert parse_zipnum_line(line).to_line() == line

    def test_zero_length(self):
        with pytest.raises(CdxParseError):
            parse_zipnum_line("a)/ 20130804002034\tpart-a\t5\t0\t1")

    @pytest.mark.parametrize("line, reason", [
        ("com,a)/ 20230231000000\tp\t0\t1\t0", "invalid calendar datetime: '20230231000000'"),
        ("com,a)/ 2023023100000\tp\t0\t1\t0", "timestamp is not 14 digits: '2023023100000'"),
        ("com,a)/ 20230131000000\tp\t0\t0\t0", "non-positive length: 0"),
    ])
    def test_entry_errors_name_the_line(self, line, reason):
        # as parse_cdx_line names it for the same timestamp
        with pytest.raises(CdxParseError) as info:
            parse_zipnum_line(line, 7)
        assert (str(info.value), info.value.reason, info.value.line_no) == (
            f"line 7: {reason}", reason, 7)

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

    def test_a_built_timemap_keeps_no_list_of_its_caller(self, rng):
        records = make_history("http://example.com/", 20, rng)[::-1]
        given_order = records[:]
        tm = TimeMap("http://example.com/", records)
        assert tm.records is not records and records == given_order

    def test_text_round_trip(self, rng):
        tm = TimeMap("http://example.com/", make_history("http://example.com/", 20, rng))
        assert [parse_cdx_line(line) for line in tm.to_text().splitlines()] == tm.records


# CDX lines of one key, and lines that do not parse, for TimeMap files
KEY, URL = "com,example)/", "http://example.com/"
CDX_LINES = st.one_of(
    st.builds(lambda ts, n: f"{KEY}  {20000101000000 + ts} {URL} text/html 200 D{ts} {n}",
              st.integers(0, 9), st.integers(0, 99)),
    st.sampled_from(["", " ", "\t", "two fields", f"{KEY} 20000101000000 {URL} a b c x",
                     f"{KEY} 2000010100000 {URL} text/html 200 D 1"]))  # a 13-digit timestamp
OTHER_KEY_LINES = st.just(f"org,example)/ 20000101000000 {URL} text/html 200 D 1")
# what fh.read().splitlines() splits a line at, and what it does not
LINE_BREAKS = st.sampled_from(["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x85", "\u2028",
                               "\u2029", "\n\n", "\r\r\n", "\t", "\u00a0"])


class TestTimeMapFiles:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(CDX_LINES, LINE_BREAKS), max_size=12), st.booleans())
    def test_read_splits_as_splitlines_of_the_whole_text(self, tmp_path_factory, pieces, ends):
        text = "".join(line + brk for line, brk in pieces)
        path = tmp_path_factory.mktemp("tm") / "t.cdx"
        path.write_bytes((text if ends else text.rstrip("\r\n")).encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        # the records of the whole text, or the first line that is malformed or
        # earlier than the record before
        records, error_line = [], None
        for i, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                record = parse_cdx_line(line, i)
            except CdxParseError:
                error_line = i
                break
            if records and record.timestamp < records[-1].timestamp:
                error_line = i
                break
            records.append(record)
        if error_line is not None:
            with pytest.raises(CdxParseError) as error:
                read_timemap(path)
            assert error.value.line_no == error_line
        else:
            assert read_timemap(path) == TimeMap("", records)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.one_of(CDX_LINES, OTHER_KEY_LINES), LINE_BREAKS), max_size=12))
    def test_count_is_the_number_of_records_read(self, tmp_path_factory, pieces):
        # a malformed line or a second urlkey is the error that read_timemap raises
        path = tmp_path_factory.mktemp("tm") / "t.cdx"
        path.write_text("".join(line + brk for line, brk in pieces), encoding="utf-8")
        try:
            expected = len(read_timemap(path).records)
        except (CdxParseError, MixedKeyError) as exc:
            with pytest.raises(type(exc)) as error:
                count_timemap(path)
            assert str(error.value) == str(exc)
        else:
            assert count_timemap(path) == expected

    @given(st.lists(st.builds(
        CdxRecord, st.just(KEY),
        st.builds(lambda n: Timestamp14(str(20000101000000 + n)), st.integers(0, 59)),
        st.text(st.sampled_from("ab/:\u00e9\u2028\udcff"), min_size=1), st.just("text/html"),
        st.sampled_from(["200", "-"]), st.text("AZ", min_size=1), st.integers(0, 10 ** 12)),
        max_size=20))
    def test_write_writes_to_text(self, tmp_path_factory, records):
        tm = TimeMap(URL, records)
        path = tmp_path_factory.mktemp("tm") / "t.cdx"
        write_timemap(tm, path)
        # a lone surrogate is written as the byte it stands for, as atomic_open does
        assert path.read_bytes() == tm.to_text().encode("utf-8", "surrogateescape")

    def test_memory_beyond_the_records_is_flat_in_their_count(self, tmp_path):
        """Neither holds the file's text: what writing allocates stays within
        its buffers, and what reading allocates beyond the TimeMap it returns
        is what its one list of records takes to grow."""
        def traced(n: int) -> tuple[int, int]:
            tm = TimeMap(URL, make_history(URL, n, random.Random(n)))
            tracemalloc.start()
            try:
                write_timemap(tm, tmp_path / f"{n}.cdx")
                write_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                read = read_timemap(tmp_path / f"{n}.cdx")
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert read.records == tm.records and held > before
            return write_peak, peak - held

        (write_small, read_small), (write_large, read_large) = traced(2_000), traced(20_000)
        # a copy of the text would cost more than its 107 bytes a line
        assert write_large - write_small < 16 * 1024
        # the sort's list of keys: 16.7 bytes a record when a second list of
        # the records was sorted beside the parsed one
        assert (read_large - read_small) / 18_000 < 12

    @pytest.mark.parametrize("bad, reason", [
        (b"com,example)/ 2000010100000 http://example.com/ text/html 200 D 1",
         "timestamp is not 14 digits: '2000010100000'"),
        (b"com,example)/ 20000101000000 http://example.com/\xff text/html 200 D 1", "not UTF-8"),
        (b"com,example)/ 19991231235959 http://example.com/ text/html 200 D 1",
         "timestamp earlier than the record before, 20000101000000"),
        (b"org,example)/ 20000101000000 http://example.com/ text/html 200 D 1",
         f"urlkey other than the first record's, {KEY}"),
    ], ids=["13-digit timestamp", "0xff byte", "earlier than the line before", "second urlkey"])
    @pytest.mark.parametrize("reader", [read_timemap, count_timemap, list])
    def test_error_names_the_file_and_the_line(self, tmp_path, bad, reason, reader):
        good = f"{KEY} 20000101000000 {URL} text/html 200 D 1".encode()
        path = tmp_path / "t.cdx"
        path.write_bytes(good + b"\n" + bad + b"\n" + good + b"\n")
        with pytest.raises(CdxParseError) as error:
            reader(timemap_records(path) if reader is list else path)
        assert str(error.value) == f"{path}: line 2: {reason}"
        assert (error.value.path, error.value.line_no, error.value.reason) == (path, 2, reason)

    def test_records_are_read_a_line_at_a_time(self, tmp_path):
        """The records come as the file is read, and a record of a second
        urlkey is refused at its line."""
        path = tmp_path / "t.cdx"
        lines = [r.to_line() for r in make_history(URL, 3, random.Random(3))]
        path.write_text("\n".join(lines + [lines[-1].replace(KEY, "org,example)/")]) + "\n")
        records = timemap_records(path)
        assert [next(records).to_line() for _ in lines] == lines
        with pytest.raises(CdxParseError) as error:
            list(records)
        assert str(error.value) == f"{path}: line 4: urlkey other than the first record's, {KEY}"

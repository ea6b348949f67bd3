import datetime

import pytest
from hypothesis import given, strategies as st

from waysample.cdx import CdxRecord, MixedKeyError, TimeMap, Timestamp14
from waysample.timemaps import (
    LruDigestCache,
    max_revisit_distance,
    merge_pages,
    rehydrate,
    revisit_gaps,
)

from conftest import make_history, make_record

KEY = "com,example)/"
URL = "http://example.com/"


def full(ts, digest, status="200", mime="text/html"):
    return CdxRecord(KEY, Timestamp14(ts), URL, mime, status, digest, 1000)


def revisit(ts, digest):
    return CdxRecord(KEY, Timestamp14(ts), URL, "warc/revisit", "-", digest, 0)


def oracle_rehydrate(tm):
    """Unbounded-dictionary reference: no eviction ever."""
    seen = {}
    out, unresolved = [], []
    for i, record in enumerate(tm.records):
        if record.status != "-" and not record.mime_is_revisit:
            seen[record.digest] = record
            out.append(record)
        elif record.is_revisit:
            source = seen.get(record.digest)
            if source is None:
                unresolved.append(i)
                out.append(record)
            else:
                out.append(record._replace(status=source.status,
                                           mime=f"warc/revisit;orig={source.mime}"))
        else:
            out.append(record)
    return TimeMap(tm.uri_r, out), unresolved


def random_timemap(rng, n_rows, max_gap=800, miss_fraction=0.1):
    records = []
    start = datetime.datetime(2000, 1, 1)
    for i in range(n_rows):
        ts = (start + datetime.timedelta(hours=i)).strftime("%Y%m%d%H%M%S")
        if records and rng.random() < 0.3:
            if rng.random() < miss_fraction:
                records.append(revisit(ts, f"MISSING{rng.randrange(10 ** 6)}"))
            else:
                lo = max(0, len(records) - max_gap)
                source = records[rng.randrange(lo, len(records))]
                records.append(revisit(ts, source.digest))
        else:
            records.append(full(ts, f"D{i:07d}"))
    return TimeMap(URL, records)


class TestLruCache:
    def test_eviction_order(self):
        cache = LruDigestCache(2)
        cache.put("a", full("20000101000000", "a"))
        cache.put("b", full("20000102000000", "b"))
        cache.get("a")  # refresh a; b becomes the LRU entry
        cache.put("c", full("20000103000000", "c"))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_capacity_bound(self):
        cache = LruDigestCache(5)
        for i in range(100):
            cache.put(f"d{i}", full("20000101000000", f"d{i}"))
        assert len(cache) == 5

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LruDigestCache(0)


class TestRehydrate:
    def test_status_restored_from_prior_digest(self):
        tm = TimeMap(URL, [
            full("20020120142510", "DIGA"),
            revisit("20020328012821", "DIGA"),
            full("20020601000000", "DIGB", status="404"),
            revisit("20020701000000", "DIGB"),
        ])
        hydrated, unresolved = rehydrate(tm, 1000)
        assert unresolved == []
        assert hydrated.records[1].status == "200"
        assert hydrated.records[1].mime == "warc/revisit;orig=text/html"
        assert hydrated.records[3].status == "404"

    def test_no_revisits_unchanged(self, rng):
        tm = TimeMap(URL, make_history(URL, 30, rng))
        hydrated, unresolved = rehydrate(tm)
        assert hydrated.records == tm.records
        assert unresolved == []

    def test_miss_reported_not_failed(self):
        tm = TimeMap(URL, [full("20000101000000", "A"), revisit("20010101000000", "NOPE")])
        hydrated, unresolved = rehydrate(tm)
        assert unresolved == [1]
        assert hydrated.records[1].status == "-"

    def test_only_status_and_mime_change(self, rng):
        tm = random_timemap(rng, 500)
        hydrated, _ = rehydrate(tm)
        for before, after in zip(tm.records, hydrated.records):
            assert before.timestamp == after.timestamp
            assert before.urlkey == after.urlkey
            assert before.digest == after.digest
            assert before.length == after.length

    def test_matches_unbounded_oracle_when_gaps_fit(self, rng):
        for _ in range(20):
            tm = random_timemap(rng, rng.randint(10, 2000), max_gap=500)
            hydrated, unresolved = rehydrate(tm, 1000)
            expected, expected_unresolved = oracle_rehydrate(tm)
            assert hydrated.records == expected.records
            assert unresolved == expected_unresolved

    def test_idempotent(self, rng):
        tm = random_timemap(rng, 800)
        once, unresolved_once = rehydrate(tm, 1000)
        twice, unresolved_twice = rehydrate(once, 1000)
        assert twice.records == once.records
        assert unresolved_twice == unresolved_once

    def test_capacity_covering_whole_timemap_resolves_everything(self, rng):
        tm = random_timemap(rng, 1500, max_gap=200, miss_fraction=0.0)
        _, unresolved = rehydrate(tm, capacity=len(tm.records))
        assert unresolved == []
        assert max_revisit_distance(tm) <= len(tm.records)

    def test_tight_capacity_can_miss(self):
        records = [full("20000101000000", "SRC")]
        for i in range(10):
            records.append(full(f"200101{i + 1:02d}000000", f"F{i}"))
        records.append(revisit("20020101000000", "SRC"))
        tm = TimeMap(URL, records)
        _, unresolved = rehydrate(tm, capacity=5)
        assert unresolved == [11]


class TestRevisitDistance:
    def test_simple_gap(self):
        records = [full("20000101000000", "SRC")]
        records += [full(f"200001{i + 2:02d}000000", f"X{i}") for i in range(4)]
        records.append(revisit("20000115000000", "SRC"))
        tm = TimeMap(URL, records)
        assert max_revisit_distance(tm) == 5
        (gap,) = revisit_gaps(tm)
        assert (gap.source_index, gap.revisit_index, gap.distance) == (0, 5, 5)

    def test_no_revisits(self, rng):
        tm = TimeMap(URL, make_history(URL, 20, rng))
        assert max_revisit_distance(tm) == 0

    def test_unresolvable_revisit_not_counted(self):
        tm = TimeMap(URL, [full("20000101000000", "A"), revisit("20010101000000", "B")])
        assert max_revisit_distance(tm) == 0


class TestMergePages:
    def _pages(self, rng, n_pages=3, per_page=10):
        records = make_history(URL, n_pages * per_page, rng)
        return [records[i * per_page:(i + 1) * per_page] for i in range(n_pages)]

    def test_disjoint_pages(self, rng):
        pages = self._pages(rng)
        tm = merge_pages(pages)
        assert len(tm.records) == 30
        stamps = [r.timestamp.raw for r in tm.records]
        assert stamps == sorted(stamps)

    def test_boundary_duplicate_removed(self, rng):
        pages = self._pages(rng)
        pages[1] = [pages[0][-1]] + pages[1]
        tm = merge_pages(pages)
        assert len(tm.records) == 30

    def test_only_exact_duplicates_removed(self, rng):
        pages = self._pages(rng)
        first = pages[0][0]
        other_content = first._replace(digest="X" * 32)  # same time, another digest
        pages[2] += [first, other_content, first]
        pages[1].insert(0, pages[2][0])
        records = merge_pages(pages).records
        assert len(records) == 31
        assert records.count(first) == 1 and other_content in records

    def test_single_page_identity(self, rng):
        (page,) = self._pages(rng, n_pages=1)
        assert merge_pages([page]).records == sorted(page, key=lambda r: r.timestamp.raw)

    def test_mixed_keys_rejected(self, rng):
        a = make_record("com,a)/", "http://a.com/", "20000101000000", rng=rng)
        b = make_record("com,b)/", "http://b.com/", "20000101000000", rng=rng)
        with pytest.raises(MixedKeyError):
            merge_pages([[a], [b]])

    def test_order_insensitive(self, rng):
        pages = self._pages(rng)
        shuffled = pages[::-1]
        assert merge_pages(pages).records == merge_pages(shuffled).records


def line_keyed_merge(pages):
    """merge_pages as it was when it checked the keys itself and removed
    duplicates by their CDX line: the oracle for the record-keyed one."""
    keys = {r.urlkey for page in pages for r in page}
    if len(keys) > 1:
        raise MixedKeyError(f"pages mix urlkeys: {sorted(keys)}")
    seen = set()
    records = []
    for page in pages:
        for record in page:
            line = record.to_line()
            if line not in seen:
                seen.add(line)
                records.append(record)
    uri_r = records[0].original if records else ""
    return TimeMap(uri_r, records)


# few distinct values, so equal timestamps and exact duplicates are common;
# no field holds a space, as in every record parsed from a CDX line
RECORDS = st.builds(
    CdxRecord,
    urlkey=st.just(KEY),
    timestamp=st.sampled_from(["20000101000000", "20000101000001", "20050607080910"])
    .map(Timestamp14),
    original=st.sampled_from([URL, "https://www.example.com/"]),
    mime=st.sampled_from(["text/html", "warc/revisit"]),
    status=st.sampled_from(["200", "-"]),
    digest=st.sampled_from(["A", "B"]),
    length=st.integers(0, 2),
)


@st.composite
def paginated(draw, min_size=0):
    """One history cut into pages, each page after the first optionally
    opening with the previous page's last record, the pages optionally in
    reverse order."""
    history = draw(st.lists(RECORDS, min_size=min_size, max_size=30))
    cuts = sorted(draw(st.lists(st.integers(0, len(history)), max_size=5)))
    bounds = [0, *cuts, len(history)]
    pages = [history[a:b] for a, b in zip(bounds, bounds[1:])]
    for i in range(1, len(pages)):
        if pages[i - 1] and draw(st.booleans()):
            pages[i] = [pages[i - 1][-1], *pages[i]]
    return pages[::-1] if draw(st.booleans()) else pages


class TestMergePagesOracle:
    @given(paginated())
    def test_equal_records_in_equal_order(self, pages):
        assert merge_pages(pages).records == line_keyed_merge(pages).records

    @given(paginated(min_size=1), st.data())
    def test_mixed_keys_still_rejected(self, pages, data):
        page = data.draw(st.sampled_from(pages))
        foreign = data.draw(RECORDS)._replace(urlkey="com,other)/")
        page.insert(data.draw(st.integers(0, len(page))), foreign)
        with pytest.raises(MixedKeyError):
            line_keyed_merge(pages)
        with pytest.raises(MixedKeyError):
            merge_pages(pages)

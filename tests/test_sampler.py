import math
import random
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from waysample import sampler
from waysample.cdx import Timestamp14
from waysample.sampler import (
    DomainCount,
    DownsampleParams,
    SpillSort,
    YearBucket,
    bucket_by_first_year,
    calibrate_k,
    calibrate_sizes,
    domain_key,
    downsample_count,
    extract_missing_roots,
    first_root,
    inclusion_probability,
    reduce_long_tail,
    reintegrate_popular,
    select_urls,
    skip_sample,
    tail_survivors,
    year_bucket_label,
)
from waysample.surt import parse_url

from conftest import random_url


def ts(raw):
    return Timestamp14(raw)


class TestSkipSample:
    def test_exact_division(self):
        out = list(skip_sample(range(18000), 6000, 0))
        assert out == [0, 6000, 12000]

    def test_interval_one_is_identity(self):
        assert list(skip_sample(range(100), 1, 0)) == list(range(100))

    def test_phase_offsets(self):
        assert list(skip_sample(range(20), 6, 4)) == [4, 10, 16]

    def test_output_size_formula(self, rng):
        for _ in range(200):
            length = rng.randint(1, 500)
            interval = rng.randint(1, 50)
            phase = rng.randrange(interval)
            got = len(list(skip_sample(range(length), interval, phase)))
            expected = (length - phase - 1) // interval + 1 if phase < length else 0
            assert got == expected

    def test_contiguous_run_longer_than_interval_hits_every_phase(self):
        interval = 50
        stream = ["other"] * 37 + ["target"] * (interval + 1) + ["other"] * 20
        for phase in range(interval):
            assert "target" in list(skip_sample(stream, interval, phase))

    def test_invalid_phase(self):
        with pytest.raises(ValueError):
            list(skip_sample(range(5), 3, 3))


class TestInclusionProbability:
    def test_guaranteed_inclusion(self):
        assert inclusion_probability(6000, 6000) == 1.0
        assert inclusion_probability(12000, 6000) == 1.0

    def test_absent_url(self):
        assert inclusion_probability(0, 6000) == 0.0

    def test_half(self):
        assert inclusion_probability(3000, 6000) == 0.5

    def test_matches_empirical_frequency(self, rng):
        interval = 60
        m = 24
        start = 17
        hits = 0
        trials = 4000
        stream = ["x"] * start + ["t"] * m + ["x"] * 30
        for _ in range(trials):
            phase = rng.randrange(interval)
            if "t" in list(skip_sample(stream, interval, phase)):
                hits += 1
        assert abs(hits / trials - inclusion_probability(m, interval)) < 0.03


class TestBucketing:
    def test_pre_1996_dropped_and_counted(self):
        entries = [
            (parse_url("https://cevi.be/"), ts("19791231000000")),
            (parse_url("https://a.com/"), ts("19980501000000")),
        ]
        result = bucket_by_first_year(entries)
        assert result.dropped_pre_1996 == 1
        assert [b.label for b in result.buckets] == ["1996-2000"]

    def test_early_years_merge(self):
        for year in (1996, 1997, 1998, 1999, 2000):
            assert year_bucket_label(year) == "1996-2000"
        assert year_bucket_label(2001) == "2001"
        assert year_bucket_label(2002) == "2002"
        assert year_bucket_label(1995) is None

    def test_direct_year_mapping(self):
        result = bucket_by_first_year([(parse_url("https://a.com/x"), ts("20020120142510"))])
        assert result.buckets[0].label == "2002"

    def test_domains_keyed_with_www_stripped(self):
        entries = [
            (parse_url("https://www.a.co.uk/x"), ts("20050101000000")),
            (parse_url("https://a.co.uk/y"), ts("20050101000000")),
        ]
        bucket = bucket_by_first_year(entries).buckets[0]
        assert bucket.n_domains == 1
        assert bucket.domains[0].domain == "a.co.uk"
        assert bucket.domains[0].n_urls == 2

    def test_large_domain_dedup_is_linear(self):
        texts = [f"https://big.example.com/p{i}" for i in range(20_000)]
        repeats = texts[::10]
        first = ts("20050101000000")
        entries = [(parse_url(t), first) for t in texts[:10_000]]
        entries += [(parse_url(t), first) for t in repeats[:1_000]]
        entries += [(parse_url(t), first) for t in texts[10_000:]]
        entries += [(parse_url(t), first) for t in repeats[1_000:]]
        start = time.perf_counter()
        result = bucket_by_first_year(entries)
        elapsed = time.perf_counter() - start
        (bucket,) = result.buckets
        (domain,) = bucket.domains
        assert domain.urls == texts
        assert elapsed < 1.0


# canonical texts: roots, a path or query holding "/" or "://", non-ASCII and
# a long one (a lone surrogate, which stdin can give, is not one: parse_url
# refuses it)
_CANONICAL_TEXTS = [
    "http://a.com/", "https://a.com/", "http://a.com/p", "http://a.com/p/", "http://a.com/?q=/",
    "http://a.com/p?u=http://b.com/", "http://www.a.com/", "http://a.com/p/q",
    "http://a.com/\u00e9t\u00e9", "http://a.com/" + "x" * 300,
]


class TestFirstRoot:
    def test_first_root_is_the_first_text_that_parses_as_a_root(self, rng):
        texts = [parse_url(random_url(rng)).text for _ in range(2000)] + _CANONICAL_TEXTS
        for i in range(0, len(texts), 10):
            chunk = texts[i:i + 10]
            assert first_root(chunk) == next((t for t in chunk if parse_url(t).is_root), None)


class TestSpillSort:
    @given(st.lists(st.tuples(st.text("ab\x00\x01\x02\u00e9\U0001f600", max_size=4),
                              st.integers(0, 99))),
           st.sampled_from([4, 1 << 20]))
    def test_lines_sort_as_their_fields(self, items, budget):
        with mock.patch.object(sampler, "RUN_BYTES", budget), \
                mock.patch.object(sampler, "FAN_IN", 2), SpillSort() as lines:
            for key, n in items:
                lines.add(sampler._field(key).encode(), n)
            got = list(lines.lines())
            assert list(lines.lines()) == got  # read again
        fields = [line[:-1].split(sampler.SEP) for line in got]
        decoded = [(sampler._text(key), int(n)) for key, n in fields]
        # one line per key, the least, whether it met its repeats in a run
        # or, every line a run of its own, in the merges
        assert decoded == sorted({key: min(n for k, n in items if k == key)
                                  for key, _ in items}.items())

    def test_few_files_are_open_at_once_and_none_after(self, monkeypatch):
        import tempfile
        opened = []

        def temporary_file(**kwargs):
            opened.append(real(**kwargs))
            return opened[-1]

        real = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        most_open = 0
        with mock.patch.object(sampler, "RUN_BYTES", 1), \
                mock.patch.object(sampler, "FAN_IN", 4), SpillSort() as lines:
            for i in reversed(range(1000)):
                lines.add(b"%04d" % i, 0)
                most_open = max(most_open, sum(not fh.closed for fh in opened))
            assert list(lines.lines()) == [b"%04d\0\1%012d\n" % (i, 0) for i in range(1000)]
        # 1,000 runs, 250 + 62 + 15 + 3 merges and the last; at most 3 open per level
        assert len(opened) == 1000 + 250 + 62 + 15 + 3 + 1
        assert most_open <= 3 * 5 + 1
        assert all(fh.closed for fh in opened)


class TestDomainKey:
    def test_strips_www_class(self):
        assert domain_key("www4.daily.co.jp") == "daily.co.jp"
        assert domain_key("www3288.com") == "www3288.com"
        assert domain_key("yahoo.co.jp") == "yahoo.co.jp"


class TestMissingRoots:
    def test_deep_link_yields_root(self):
        urls = [parse_url("https://reddit.com/r/argentina/comments/1ruebz/x")]
        assert [u.text for u in extract_missing_roots(urls)] == ["https://reddit.com/"]

    def test_existing_root_suppresses(self):
        urls = [parse_url("https://a.com/"), parse_url("https://a.com/x")]
        assert extract_missing_roots(urls) == []

    def test_root_seen_after_deep_link(self):
        urls = [parse_url("https://a.com/x"), parse_url("https://a.com/")]
        assert extract_missing_roots(urls) == []

    def test_one_root_per_host_brute_force(self, rng):
        urls = []
        for i in range(1000):
            host = f"h{i % 100}.example"
            urls.append(parse_url(f"https://{host}/deep/page{i}"))
        roots = extract_missing_roots(urls)
        assert len(roots) == len({u.host for u in urls}) == 100
        assert all(r.is_root for r in roots)


def in_draw_order(lookup):
    """reintegrate_popular's first_captures over a dict of first captures."""
    return lambda draws: (lookup.get(url) for url in draws)


class TestReintegration:
    def _pool(self, rng, years, per_year):
        pool, lookup = [], {}
        for year in years:
            for i in range(per_year):
                url = parse_url(f"https://big.com/{year}/p{i}")
                pool.append(url)
                lookup[url] = ts(f"{year}0601000000")
        return pool, lookup

    def test_quotas_met_with_ample_pool(self, rng):
        years = list(range(2016, 2022))
        pool, lookup = self._pool(rng, years, 60)
        result = reintegrate_popular("big.com", pool, in_draw_order(lookup), years, 20, seed=7)
        assert not result.exhausted
        for year in years:
            assert len(result.per_year[year]) >= 20

    def test_exhaustion_names_missing_year(self, rng):
        years = [2018, 2019]
        pool, lookup = self._pool(rng, [2018], 30)
        result = reintegrate_popular("big.com", pool, in_draw_order(lookup), years, 20, seed=7)
        assert result.unmet_years == [2019]
        assert len(result.per_year[2018]) >= 20

    def test_deterministic_under_seed(self, rng):
        years = [2016, 2017]
        pool, lookup = self._pool(rng, years, 40)
        a = reintegrate_popular("big.com", pool, in_draw_order(lookup), years, 5, seed=42)
        b = reintegrate_popular("big.com", pool, in_draw_order(lookup), years, 5, seed=42)
        assert a.per_year == b.per_year

    def test_draws_without_replacement(self, rng):
        years = [2016]
        pool, lookup = self._pool(rng, years, 50)
        result = reintegrate_popular("big.com", pool, in_draw_order(lookup), years, 30, seed=1)
        selected = result.per_year[2016]
        assert len(selected) == len(set(u.text for u in selected))


def _bucket(domain_sizes, label="2016"):
    domains = []
    for i, n in enumerate(domain_sizes):
        name = f"d{i}.com"
        urls = [f"https://{name}/"] + [f"https://{name}/p{j}" for j in range(n - 1)]
        domains.append(DomainCount(name, urls))
    return YearBucket(label, domains)


class TestLongTail:
    def test_below_threshold_unchanged(self):
        bucket = _bucket([1] * 50 + [5] * 10)
        assert reduce_long_tail(bucket, 100, 0.10, 3) is bucket

    def test_above_threshold_cuts_singletons(self):
        bucket = _bucket([1] * 700 + [5] * 300)
        reduced = reduce_long_tail(bucket, 900, 0.10, 3)
        singles = [d for d in reduced.domains if d.n_urls == 1]
        multis = [d for d in reduced.domains if d.n_urls > 1]
        assert len(singles) == 70
        assert len(multis) == 300

    def test_no_singletons_unchanged(self):
        bucket = _bucket([5] * 1000)
        reduced = reduce_long_tail(bucket, 900, 0.10, 3)
        assert reduced.n_domains == 1000

    def test_deterministic(self):
        bucket = _bucket([1] * 500 + [3] * 100)
        a = reduce_long_tail(bucket, 400, 0.10, 9)
        b = reduce_long_tail(bucket, 400, 0.10, 9)
        assert [d.domain for d in a.domains] == [d.domain for d in b.domains]


def _reduce_long_tail_before(bucket, threshold, keep_fraction, seed):
    """reduce_long_tail as it was before tail_survivors: the oracle of the rule."""
    if bucket.n_domains <= threshold:
        return bucket
    rng = random.Random(f"{seed}|tail|{bucket.label}")
    singles = [d for d in bucket.domains if d.n_urls == 1]
    if not singles:
        return bucket
    keep_n = round(len(singles) * keep_fraction)
    kept = set(
        d.domain for d in rng.sample(sorted(singles, key=lambda d: d.domain), keep_n)
    )
    domains = [d for d in bucket.domains if d.n_urls > 1 or d.domain in kept]
    return YearBucket(bucket.label, domains)


class TestTailSurvivors:
    @given(st.lists(st.integers(1, 3), max_size=80), st.integers(0, 60),
           st.floats(0.01, 1.0), st.integers(0, 5), st.randoms(use_true_random=False))
    def test_keeps_what_the_rule_it_replaced_kept(self, sizes, threshold, keep_fraction,
                                                   seed, shuffler):
        bucket = _bucket(sizes)  # named d0, d1, ..., so not in name order past d9
        shuffler.shuffle(bucket.domains)
        got = reduce_long_tail(bucket, threshold, keep_fraction, seed)
        want = _reduce_long_tail_before(bucket, threshold, keep_fraction, seed)
        assert [d.domain for d in got.domains] == [d.domain for d in want.domains]

    def test_positions_among_the_singles_in_name_order(self):
        bucket = _bucket([1] * 30 + [2] * 5)
        kept = tail_survivors("2016", 35, 30, 10, 0.2, 4)
        singles = sorted(d.domain for d in bucket.domains if d.n_urls == 1)
        reduced = reduce_long_tail(bucket, 10, 0.2, 4)
        assert {d.domain for d in reduced.domains if d.n_urls == 1} == {
            singles[i] for i in kept}
        assert len(kept) == 6
        assert tail_survivors("2016", 10, 30, 10, 0.2, 4) is None  # not above the threshold
        assert tail_survivors("2016", 35, 0, 10, 0.2, 4) is None  # no single to drop


class TestDownsampleCount:
    def test_minimum_retention(self):
        assert downsample_count(1, DownsampleParams(k=1, c=1)) == 1

    def test_derived_value(self):
        # 2*ln(1000) + 1 = 14.8155...
        assert downsample_count(1000, DownsampleParams(k=2, c=1)) == 15

    def test_cap_at_n(self):
        assert downsample_count(5, DownsampleParams(k=100, c=1)) == 5

    def test_bounds_and_monotonicity(self):
        ns = sorted({int(round(10 ** (e / 10))) for e in range(0, 61)})
        for k in (1, 2, 3, 5):
            params = DownsampleParams(k=k, c=1)
            previous = 0
            for n in ns:
                reduced = downsample_count(n, params)
                assert min(n, params.c) <= reduced <= n
                assert reduced >= previous
                previous = reduced


def scan_calibrate(counts, c, target, k_max=50):
    """Independent linear-scan oracle over integer K."""
    totals = {
        k: sum(min(n, int(math.floor(k * math.log(n) + c + 0.5))) for n in counts)
        for k in range(1, k_max + 1)
    }
    if totals[1] > target:
        return 1, totals[1], True
    fitting = [t for t in totals.values() if t <= target]
    best = max(fitting) if fitting else max(totals.values())
    k = min(k for k, t in totals.items() if t >= best)
    return k, totals[k], False


class TestCalibration:
    def test_single_domain_cap(self):
        bucket = _bucket([10])
        result = calibrate_k(bucket, c=1, target=10)
        assert result.total == 10
        assert not result.overshoot

    def test_overshoot_returns_k1(self):
        bucket = _bucket([1] * 100)
        result = calibrate_k(bucket, c=1, target=50)
        assert result.k == 1
        assert result.overshoot
        assert result.total == 100

    def test_matches_scan_oracle_on_skewed_bucket(self, rng):
        counts = [max(1, int(rng.paretovariate(1.2))) for _ in range(2000)]
        bucket = _bucket(counts)
        target = 4000
        result = calibrate_k(bucket, c=1, target=target)
        k, total, overshoot = scan_calibrate(counts, 1, target)
        assert (result.k, result.total, result.overshoot) == (k, total, overshoot)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=20),
           st.integers(1, 3), st.integers(0, 900))
    def test_matches_brute_force_scan(self, counts, c, target):
        # every K from 1 to the URL count, past which no total grows
        totals = {
            k: sum(min(n, int(math.floor(k * math.log(n) + c + 0.5))) for n in counts)
            for k in range(1, sum(counts) + 1)
        }
        if totals[1] > target:
            expected = (1, totals[1], True)
        else:
            best = max(t for t in totals.values() if t <= target)
            expected = (min(k for k, t in totals.items() if t == best), best, False)
        result = calibrate_k(_bucket(counts), c=c, target=target)
        assert (result.k, result.total, result.overshoot) == expected

    def test_core_takes_the_counts_of_domain_sizes(self):
        counts = [1, 1, 2, 5, 5, 40]
        sizes = Counter(counts)
        sizes[7] = 0  # a size no domain has, as after the tail rule keeps no single
        assert calibrate_sizes(sizes, 1, 20) == calibrate_k(_bucket(counts), 1, 20)
        with pytest.raises(ValueError, match="no domains"):
            calibrate_sizes(Counter({1: 0}), 1, 20)

    def test_total_nondecreasing_in_k(self, rng):
        counts = [rng.randint(1, 500) for _ in range(300)]
        previous = 0
        for k in range(1, 20):
            params = DownsampleParams(k=k, c=1)
            total = sum(downsample_count(n, params) for n in counts)
            assert total >= previous
            previous = total


class TestSelectUrls:
    def test_root_always_included(self):
        domain = _bucket([10]).domains[0]
        selected = select_urls(domain, 3, seed=1)
        assert len(selected) == 3
        assert any(parse_url(u).is_root for u in selected)
        assert len(set(selected)) == 3

    def test_k_equals_n_returns_all(self):
        domain = _bucket([4]).domains[0]
        assert set(select_urls(domain, 4, seed=1)) == set(domain.urls)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            select_urls(_bucket([3]).domains[0], 0, seed=1)

    def test_deterministic(self):
        domain = _bucket([50]).domains[0]
        assert select_urls(domain, 7, seed=5) == select_urls(domain, 7, seed=5)

    def test_reservoir_uniform_on_rootless_domain(self):
        urls = [parse_url(f"https://d.com/p{i}") for i in range(4)]
        domain = DomainCount("d.com", urls)
        counts = Counter()
        for seed in range(10000):
            (picked,) = select_urls(domain, 1, seed=seed)
            counts[picked.text] += 1
        for url in urls:
            assert abs(counts[url.text] - 2500) <= 150


# bucket_by_first_year, extract_missing_roots and select_urls as they were
# when buckets held CanonicalUrl objects and the stage read its rows into a
# list first: the oracle for the streamed, text-keyed versions
class _OracleDomain:
    def __init__(self, domain):
        self.domain = domain
        self.urls = []

    @property
    def root(self):
        for url in self.urls:
            if url.is_root:
                return url
        return None


def _oracle_bucket(entries):
    by_label, seen_by_label, dropped = {}, {}, 0
    for url, first_capture in entries:
        label = year_bucket_label(first_capture.year)
        if label is None:
            dropped += 1
            continue
        seen = seen_by_label.setdefault(label, set())
        if url in seen:
            continue
        seen.add(url)
        domains = by_label.setdefault(label, {})
        key = domain_key(url.host)
        if key not in domains:
            domains[key] = _OracleDomain(key)
        domains[key].urls.append(url)
    buckets = [(label, [domains[k] for k in sorted(domains)])
               for label, domains in sorted(by_label.items())]
    return buckets, dropped


def _oracle_missing_roots(urls):
    hosts_with_root, roots_by_host = set(), {}
    for url in urls:
        if url.is_root:
            hosts_with_root.add(url.host)
            roots_by_host.pop(url.host, None)
        elif url.host not in hosts_with_root and url.host not in roots_by_host:
            roots_by_host[url.host] = parse_url(f"{url.scheme}://{url.host}/")
    return list(roots_by_host.values())


def _oracle_select(domain, k, seed):
    rng = random.Random(f"{seed}|select|{domain.domain}")
    root = domain.root
    selected, remaining = [], k
    if root is not None:
        selected.append(root)
        remaining -= 1
    reservoir, seen = [], 0
    for url in domain.urls:
        if root is not None and url is root:
            continue
        if seen < remaining:
            reservoir.append(url)
        else:
            j = rng.randrange(seen + 1)
            if j < remaining:
                reservoir[j] = url
        seen += 1
    return selected + reservoir


_ORACLE_URLS = st.builds(
    "{}://{}{}{}{}".format,
    st.sampled_from(["http", "https"]),
    st.sampled_from(["", "www.", "www2."]),
    st.sampled_from(["a.com", "b.co.uk", "www3288.com", "c.org"]),
    st.sampled_from(["", "/", "/p", "/q/", "/r.html"]),
    st.sampled_from(["", "?x=1", "?y"]),
)
_ORACLE_YEARS = st.sampled_from(["1994", "1995", "1996", "1999", "2000", "2001", "2007"])


# hosts holding NUL and SOH, which parse_url accepts: with a tab between
# fields "a.com\x00b" would sort before its prefix "a.com", and an unescaped
# NUL separator would make the end of a field ambiguous
_CONTROL_HOSTS = ["a\x00.com", "a\x01.com", "a\x00\x01.com", "a\x01\x00.com", "a.com\x00b",
                  "www.a\x00b.com"]


def _check_against_oracle(rows, seed):
    entries = [(parse_url(url), ts(year + "0101000000")) for url, year in rows]
    result = bucket_by_first_year(iter(entries))
    buckets, dropped = _oracle_bucket(entries)
    assert result.dropped_pre_1996 == dropped
    assert [b.label for b in result.buckets] == [label for label, _ in buckets]
    for bucket, (_, domains) in zip(result.buckets, buckets):
        assert [d.domain for d in bucket.domains] == [d.domain for d in domains]
        for got, want in zip(bucket.domains, domains):
            assert got.urls == [u.text for u in want.urls]
            assert first_root(got.urls) == (want.root.text if want.root else None)
            for k in range(1, got.n_urls):
                assert select_urls(got, k, seed) == [
                    u.text for u in _oracle_select(want, k, seed)]
            # every URL kept: no generator is built, since none would draw
            with mock.patch.object(random, "Random", side_effect=AssertionError):
                all_urls = select_urls(got, got.n_urls, seed)
            assert all_urls == [u.text for u in _oracle_select(want, got.n_urls, seed)]
    urls = [url for url, _ in entries]
    assert extract_missing_roots(iter(urls)) == _oracle_missing_roots(urls)


_ROWS_WITH_CONTROL_HOSTS = st.lists(
    st.tuples(_ORACLE_URLS | st.builds("http://{}{}".format, st.sampled_from(_CONTROL_HOSTS),
                                       st.sampled_from(["/", "/p", "/\x00"])),
              _ORACLE_YEARS), max_size=60)


class TestStreamedBucketingOracle:
    @given(st.lists(st.tuples(_ORACLE_URLS, _ORACLE_YEARS), max_size=60),
           st.integers(0, 3))
    def test_matches_list_based_oracle(self, rows, seed):
        _check_against_oracle(rows, seed)

    # a run of a few bytes spills every row to its own file, and a fan-in of
    # 2 merges them like a binary counter, several levels deep
    @given(_ROWS_WITH_CONTROL_HOSTS, st.integers(0, 3))
    def test_matches_list_based_oracle_when_every_row_spills(self, rows, seed):
        with mock.patch.object(sampler, "RUN_BYTES", 4), mock.patch.object(sampler, "FAN_IN", 2):
            _check_against_oracle(rows, seed)

    @given(_ROWS_WITH_CONTROL_HOSTS, st.sampled_from([None, 4]))
    def test_sizes_count_the_oracle_domains(self, rows, budget):
        entries = [(parse_url(url), ts(year + "0101000000")) for url, year in rows]
        buckets, _ = _oracle_bucket(entries)
        with mock.patch.object(sampler, "RUN_BYTES", budget or sampler.RUN_BYTES), \
                mock.patch.object(sampler, "FAN_IN", 2 if budget else sampler.FAN_IN), \
                sampler.FirstYearBuckets() as streamed:
            for entry in entries:
                streamed.add(*entry)
            # the sizes alone: no bucket's domains are built
            sizes = {label: bucket_sizes for label, bucket_sizes, _ in streamed.buckets()}
        assert sizes == {label: Counter(len(d.urls) for d in domains)
                         for label, domains in buckets}

"""Acceptance suite: ten end-to-end criteria over the whole toolkit.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS|FAIL`` line so a
plain ``pytest -s tests/test_acceptance.py`` doubles as a checklist.
"""

import datetime
import functools
import json
import os
import random
from collections import Counter

from waysample import sampler, stats
from waysample.cdx import TimeMap, parse_zipnum_line
from waysample.cli import main
from waysample.client import ArchiveClient, RetryPolicy
from waysample.mockserver import MockCdxServer
from waysample.sampler import DownsampleParams
from waysample.surt import parse_url, strip_www_prefix, surt_text_for_url, surt_to_url, url_to_surt
from waysample.timemaps import rehydrate
from waysample.urlfilter import (
    classify_likely_html,
    detect_index_alias,
    detect_session_alias,
)

from conftest import make_history, random_url
from test_cli import read_lines, write_lines
from test_sampler import scan_calibrate
from test_timemaps import full, oracle_rehydrate, revisit
from test_urlfilter import HEURISTIC_EXAMPLES, NON_HTML_EXAMPLES


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {number} {name}: PASS")
        return wrapper
    return decorate


@criterion(1, "likely-HTML heuristic table")
def test_01_heuristic_table():
    for url, expected in HEURISTIC_EXAMPLES:
        assert classify_likely_html(parse_url(url)) is expected, url
    for url in NON_HTML_EXAMPLES:
        assert classify_likely_html(parse_url(url)) is None, url


@criterion(2, "SURT golden and round-trip properties")
def test_02_surt_properties():
    assert surt_text_for_url("https://example.com/page") == "com,example)/page"
    assert surt_text_for_url("https://www.example.com/") == "com,example)/"
    assert (surt_text_for_url("https://city-sat.asia/thread28004.html")
            == "asia,city-sat)/thread28004.html")
    entry = parse_zipnum_line(
        "asia,cityrental)/ 20130804002034\tpart-a-00001\t3239987800\t278249\t999989")
    assert entry.surt == "asia,cityrental)/"
    assert strip_www_prefix("www4.daily.co.jp") == "daily.co.jp"
    assert strip_www_prefix("www3288.com") == "www3288.com"

    rng = random.Random(0xACCE72)
    for _ in range(100_000):
        url = random_url(rng)
        bare = url.split("://", 1)[1]
        key = url_to_surt(parse_url(url))
        assert url_to_surt(surt_to_url(key, "http")) == key
        assert surt_text_for_url(f"http://{bare}") == surt_text_for_url(f"https://{bare}")


@criterion(3, "downsampling equation bounds and monotonicity")
def test_03_downsample_equation():
    assert sampler.downsample_count(1000, DownsampleParams(k=2, c=1)) == 15
    ns = sorted({int(round(10 ** (e / 20))) for e in range(0, 121)})
    for k in (1, 2, 3, 5):
        params = DownsampleParams(k=k, c=1)
        previous = 0
        for n in ns:
            reduced = sampler.downsample_count(n, params)
            assert min(n, 1) <= reduced <= n
            assert reduced >= previous
            previous = reduced


@criterion(4, "skip-sampling inclusion probability")
def test_04_inclusion_probability():
    interval = 6000
    rng = random.Random(0xACCE74)

    def hit(start, m, phase):
        # the target block occupies stream positions [start, start+m); a
        # phase lands inside iff its residue falls within the block
        return m >= interval or (phase - start) % interval < m

    # the analytic hit test agrees with a real skip-sample pass
    for _ in range(100):
        m = rng.choice([1, 100, 3000, 6000])
        start = rng.randrange(interval)
        phase = rng.randrange(interval)
        stream = [0] * start + [1] * m + [0] * rng.randrange(500)
        sampled = list(sampler.skip_sample(stream, interval, phase))
        assert (1 in sampled) == hit(start, m, phase)

    for m in (1, 100, 3000, 6000, 12000):
        start = rng.randrange(interval)
        hits = sum(hit(start, m, rng.randrange(interval)) for _ in range(10_000))
        expected = sampler.inclusion_probability(m, interval)
        assert abs(hits / 10_000 - expected) <= 0.02, m
        if m >= interval:
            assert all(hit(start, m, phase) for phase in range(interval))
            assert expected == 1.0


@criterion(5, "rehydration equals the unbounded-cache oracle")
def test_05_rehydration_oracle():
    tm = TimeMap("http://example.com/", [
        full("20020120142510", "DIGA"),
        revisit("20020328012821", "DIGA"),
        full("20020601000000", "DIGB", status="404"),
        revisit("20020701000000", "DIGB"),
    ])
    hydrated, unresolved = rehydrate(tm)
    assert unresolved == []
    assert hydrated.records[1].status == "200"
    assert hydrated.records[3].status == "404"

    rng = random.Random(0xACCE75)
    sizes = [rng.randint(1, 200) for _ in range(990)] + \
        [rng.randint(2000, 10_000) for _ in range(10)]
    start = datetime.datetime(2000, 1, 1)
    for size in sizes:
        records = []
        for i in range(size):
            ts = (start + datetime.timedelta(minutes=i)).strftime("%Y%m%d%H%M%S")
            if records and rng.random() < 0.3:
                if rng.random() < 0.05:
                    records.append(revisit(ts, f"MISS{rng.randrange(10 ** 6)}"))
                else:
                    lo = max(0, len(records) - 1000)
                    records.append(revisit(
                        ts, records[rng.randrange(lo, len(records))].digest))
            else:
                records.append(full(ts, f"D{i:07d}"))
        tm = TimeMap("http://example.com/", records)
        hydrated, unresolved = rehydrate(tm, 1000)
        expected, expected_unresolved = oracle_rehydrate(tm)
        assert hydrated.records == expected.records
        assert unresolved == expected_unresolved
        again, again_unresolved = rehydrate(hydrated, 1000)
        assert again.records == hydrated.records
        assert again_unresolved == unresolved


@criterion(6, "pagination completeness under fault injection")
def test_06_pagination_completeness():
    rng = random.Random(0xACCE76)
    urls = [f"http://host{i}.example/p{i}" for i in range(500)]
    histories = {url: make_history(url, rng.randint(1, 30), rng) for url in urls}
    corpus = [record for history in histories.values() for record in history]
    retry = RetryPolicy(max_attempts=5, backoff_base=0.001, jitter=0.0)
    for page_size, chunk in zip((1, 7, 100),
                                (urls[0:167], urls[167:334], urls[334:500])):
        with MockCdxServer(corpus, page_size=page_size) as server, \
                ArchiveClient(server.endpoint, retry=retry) as client:
            faulted = rng.sample(chunk, 20)
            for url in faulted:
                key = surt_text_for_url(url)
                n_pages = server.page_count_for(url)
                for page in range(n_pages):
                    server.schedule_faults(key, page, [503] * rng.randint(1, 2))
            for url in chunk:
                tm = client.fetch_timemap(url)
                expected = "".join(r.to_line() + "\n" for r in histories[url])
                assert tm.to_text() == expected, url


def _build_e2e_corpus():
    """~50,000-record corpus: four first-capture buckets, 200 domains each,
    every domain carrying its root URL."""
    rng = random.Random(0xACCE77)
    sizes = [1] * 40 + [2] * 30 + [5] * 20 + [10] * 15 + [25] * 10 + [40] * 5
    corpus, urls = [], []
    for b, years in enumerate([(1996, 2000), (2001, 2001), (2002, 2002), (2003, 2003)]):
        for d, n_urls in enumerate(sizes):
            domain = f"b{b}d{d:03d}.com"
            start_year = rng.randint(*years)
            for j in range(n_urls):
                url = f"http://{domain}/" + ("" if j == 0 else f"page{j}.html")
                urls.append(url)
                corpus.extend(make_history(url, rng.randint(13, 19), rng,
                                           start_year=start_year,
                                           revisit_fraction=0.15))
    return corpus, urls


def _run_e2e(tmp_path, server, urls, run_name):
    root = tmp_path / run_name
    root.mkdir()
    inputs = root / "urls.txt"
    write_lines(inputs, urls + ["https://*/robots.txt", "https:///?x=1"])

    main(["filter", str(inputs), "-o", str(root / "verdicts.tsv")])
    valid = [row.split("\t")[0] for row in read_lines(root / "verdicts.tsv")
             if row.split("\t")[1] == "1"]
    write_lines(root / "valid.txt", valid)

    main(["fetch-first", str(root / "valid.txt"), "-o", str(root / "first.tsv"),
          "--endpoint", server.endpoint])
    main(["sample", "--first-captures", str(root / "first.tsv"),
          "--out-dir", str(root / "sample"), "--target", "300", "--seed", "11"])
    selected = []
    for name in sorted(os.listdir(root / "sample")):
        if name.startswith("bucket_"):
            selected += read_lines(root / "sample" / name)
    write_lines(root / "selected.txt", selected)

    main(["fetch", str(root / "selected.txt"), "--out-dir", str(root / "timemaps"),
          "--endpoint", server.endpoint])
    main(["rehydrate", "--in-dir", str(root / "timemaps"),
          "--out-dir", str(root / "hydrated")])
    main(["stats", "--first-captures", str(root / "first.tsv"),
          "--urls", str(root / "valid.txt"), "--sampled", str(root / "selected.txt"),
          "--timemap-dir", str(root / "hydrated"), "--out-dir", str(root / "stats")])
    return root


def _snapshot(root):
    """relative path -> bytes for every output except timing-bearing manifests."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name == "manifest.json":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@criterion(7, "end-to-end determinism and calibrated totals")
def test_07_end_to_end(tmp_path):
    corpus, urls = _build_e2e_corpus()
    assert len(corpus) >= 50_000
    with MockCdxServer(corpus, page_size=100) as server:
        first = _run_e2e(tmp_path, server, urls, "run_a")
        second = _run_e2e(tmp_path, server, urls, "run_b")
    assert _snapshot(first) == _snapshot(second)

    manifest = json.loads((first / "sample" / "manifest.json").read_text())
    target = 300
    buckets = manifest["counts"]["buckets"]
    assert [b["label"] for b in buckets] == ["1996-2000", "2001", "2002", "2003"]
    for bucket in buckets:
        assert 0.8 * target <= bucket["calibrated_total"] <= 1.2 * target, bucket
        assert bucket["selected"] == bucket["calibrated_total"]


@criterion(8, "calibration matches a linear scan")
def test_08_calibration_oracle():
    rng = random.Random(0xACCE78)
    for _ in range(100):
        counts = [max(1, int(rng.paretovariate(rng.uniform(0.8, 2.0))))
                  for _ in range(rng.randint(5, 400))]
        domains = [sampler.DomainCount(f"d{i}.com",
                                       [parse_url(f"https://d{i}.com/")] +
                                       [parse_url(f"https://d{i}.com/p{j}")
                                        for j in range(n - 1)])
                   for i, n in enumerate(counts)]
        bucket = sampler.YearBucket("2010", domains)
        # keep the optimum inside the oracle's K = 1..50 scan range
        t50 = sum(sampler.downsample_count(n, DownsampleParams(k=50, c=1))
                  for n in counts)
        target = rng.randint(len(counts) // 2 + 1, t50 - 1)
        result = sampler.calibrate_k(bucket, c=1, target=target)
        k, total, overshoot = scan_calibrate(counts, 1, target)
        assert (result.k, result.total, result.overshoot) == (k, total, overshoot)


@criterion(9, "session and index alias detection")
def test_09_alias_detection():
    matched, stripped = detect_session_alias(
        "https://clickbank.com/index.html;jsessionid=09020c463c1db67320a9e4b9f65bf619")
    assert matched
    assert stripped == "https://clickbank.com/index.html"

    rng = random.Random(0xACCE79)
    import re
    oracle = re.compile(r"index\.[a-zA-Z]+$")
    for _ in range(1000):
        canonical = parse_url(random_url(rng))
        segment = canonical.path.rsplit("/", 1)[-1]
        assert detect_index_alias(canonical) == bool(oracle.fullmatch(segment))

    tokens = [
        ";jsessionid=09020c463c1db67320a9e4b9f65bf619",
        "?phpsessid=" + "ab12" * 8,
        "?sid=0123456789abcdef0123456789abcdef&x=1",
        "",
    ]
    for _ in range(100_000):
        url = random_url(rng) + rng.choice(tokens)
        _, once = detect_session_alias(url)
        _, twice = detect_session_alias(once)
        assert twice == once


@criterion(10, "CCDF shape and rank correlation on a power-law corpus")
def test_10_stats_sanity():
    pre = Counter({f"d{i}.com": max(1, int(2000 / i)) for i in range(1, 501)})
    params = DownsampleParams(k=2, c=1)
    post = Counter({domain: sampler.downsample_count(n, params)
                    for domain, n in pre.items()})

    points = stats.ccdf_points(Counter(pre.values()))
    assert points[0][1] == 100.0
    percents = [pct for _, pct in points]
    assert percents == sorted(percents, reverse=True)
    assert all(percents[i] > percents[i + 1] or points[i][0] < points[i + 1][0]
               for i in range(len(points) - 1))

    assert stats.rank_correlation([(n, post[d]) for d, n in sorted(pre.items())]) > 0.9

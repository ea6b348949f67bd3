import heapq
import json
import math
import os
import random
import tempfile
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from waysample import spill
from waysample.cdx import TimeMap, Timestamp14, write_timemap
from waysample.cli import main
from waysample.stats import (DomainCounts, _average_ranks, ccdf_points, rank_correlation,
                             top_domains, year_histogram)
from waysample.surt import SurtError, domain_key, parse_url

from conftest import make_history


def spilled(pre, post):
    """DomainCounts of the domain counts pre and post (Counters), its adding
    ended."""
    counts = DomainCounts()
    for domain in pre.keys() | post.keys():
        counts.count([domain], pre[domain], post[domain])
    counts.tallies()  # the first read ends the adding
    return counts


@given(st.lists(st.tuples(st.text("ab\x00\x01\x02\u00e9", max_size=3), st.booleans())),
       st.sampled_from([4, 1 << 20]))
def test_counts_add_up_across_runs(items, budget):
    with mock.patch.object(spill, "RUN_BYTES", budget), \
            mock.patch.object(spill, "FAN_IN", 2), DomainCounts() as counts:
        for text, first in items:
            counts.count([text], int(first), int(not first))
        rows = list(counts.rows())
        assert list(counts) == [(n, m) for _, n, m in rows]  # read again
        tallies = counts.tallies()
    firsts = Counter(text for text, first in items if first)
    seconds = Counter(text for text, first in items if not first)
    assert rows == [(text, firsts[text], seconds[text])
                    for text in sorted(firsts.keys() | seconds.keys())]
    assert tallies == (Counter(n for _, n, _ in rows), Counter(m for _, _, m in rows))


def paired(pre, post):
    """Each domain's (count in pre, count in post), in domain order."""
    return [(pre[d], post[d]) for d in sorted(pre.keys() | post.keys())]


def sorted_scan_ccdf(counts):
    """ccdf_points as it was when it scanned a sorted copy of the counts:
    the oracle for the one that walks a tally of them."""
    values = sorted(counts)
    total = len(values)
    if total == 0:
        return []
    points = []
    n_ge = total
    i = 0
    for x in sorted(set(values)):
        while i < total and values[i] < x:
            i += 1
            n_ge -= 1
        points.append((x, 100.0 * n_ge / total))
    return points


# few distinct values, so ties are common; now and then one far out in the tail
COUNTS = st.lists(st.integers(0, 12) | st.integers(0, 10**9), max_size=300)


@given(COUNTS)
def test_ccdf_points_match_the_sorted_scan(counts):
    assert ccdf_points(Counter(counts)) == sorted_scan_ccdf(counts)


# top_domains, _average_ranks and rank_correlation as they were when they
# sorted every domain by (-count, domain) and kept a rank per domain: the
# oracles for the heap-based top_domains and the count-of-counts ranks
def sorted_top_domains(counts, n):
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def sorted_average_ranks(counts, domains):
    ordered = sorted(domains, key=lambda d: (-counts[d], d))
    ranks = {}
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and counts[ordered[j]] == counts[ordered[i]]:
            j += 1
        avg = (i + 1 + j) / 2
        for d in ordered[i:j]:
            ranks[d] = avg
        i = j
    return [ranks[d] for d in domains]


def sorted_rank_correlation(pre, post):
    common = sorted(set(pre) & set(post))
    if len(common) < 2:
        return 1.0
    xs = sorted_average_ranks(pre, common)
    ys = sorted_average_ranks(post, common)
    n = len(common)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return 1.0
    return cov / math.sqrt(vx * vy)


DOMAINS = st.sampled_from([f"d{i}.com" for i in range(40)] + ["a.org", "z.net", "é.de"])
# few distinct counts, so ties are common; now and then a large one
DOMAIN_COUNTS = st.dictionaries(DOMAINS, st.integers(1, 4) | st.integers(1, 10**6),
                                max_size=43).map(Counter)


@given(DOMAIN_COUNTS, DOMAIN_COUNTS)
def test_rank_correlation_matches_the_sorted_ranks(pre, post):
    common = sorted(set(pre) & set(post))
    for counts in (pre, post):
        ranks = _average_ranks(Counter(counts[d] for d in common))
        assert [ranks[counts[d]] for d in common] == sorted_average_ranks(counts, common)
    expected = sorted_rank_correlation(pre, post)
    assert rank_correlation(paired(pre, post)) == expected
    with spilled(pre, post) as counts:
        assert rank_correlation(counts) == expected


@pytest.mark.parametrize("pre, post", [
    (Counter(), Counter()),
    (Counter({"a.com": 3}), Counter({"a.com": 1, "b.com": 2})),  # one common domain
    (Counter({"a.com": 3, "b.com": 1}), Counter({"c.com": 1, "d.com": 2})),  # none
    (Counter({"a.com": 2, "b.com": 2, "c.com": 2}), Counter({"a.com": 1, "b.com": 5, "c.com": 3})),
    (Counter({"a.com": 1, "b.com": 5, "c.com": 3}), Counter({"a.com": 4, "b.com": 4, "c.com": 4})),
    (Counter({"a.com": 1, "b.com": 5, "c.com": 3}), Counter({"a.com": 2, "b.com": 7, "c.com": 7})),
], ids=["empty", "one-common", "none-common", "pre-constant", "post-constant", "tied"])
def test_rank_correlation_edge_cases(pre, post):
    assert rank_correlation(paired(pre, post)) == sorted_rank_correlation(pre, post)


@given(DOMAIN_COUNTS, DOMAIN_COUNTS, st.integers(1, 50))
def test_top_domains_match_the_sorted_ranking(pre, post, n):
    with spilled(pre, post) as counts:
        top = top_domains(counts, Counter(pre.values()), n)
    assert top == [(d, c, post[d]) for d, c in sorted_top_domains(pre, n)]


# Traced bytes that rank_correlation and top_domains allocate above what they
# return, per common domain, on 20,000 Pareto-sized domains of which 18,000 are
# common, measured on CPython 3.11.7 (x86-64 Linux). Sorting every domain by
# (-count, domain), with two key sets and a rank per domain, took 182 and 149;
# ranking by count took 26 (the sorted common domains and their two rank
# lists) and the heap under 1. Read from sorted spill lines, with the tally of
# counts before built ahead, they take 2.8 (tables of the distinct counts and
# of the distinct (before, after) pairs) and 0.36 (the heap and the lines
# being read).
@pytest.mark.parametrize("fn, bound", [
    (lambda counts, tally: rank_correlation(counts), 4),
    (lambda counts, tally: top_domains(counts, tally, 20), 1),
], ids=["rank_correlation", "top_domains"])
def test_transient_memory_per_domain_is_bounded(fn, bound):
    rng = random.Random(7)
    pre = Counter({f"host{i}.example.com": int(rng.paretovariate(1.2)) for i in range(20_000)})
    post = Counter({d: min(c, 1 + int(c ** 0.5)) for d, c in pre.items()})
    for d in list(pre)[::10]:
        del post[d]
    with spilled(pre, post) as counts:
        tally = Counter(pre.values())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(counts, tally)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak / 18_000 <= bound, peak


# The stats helpers as they were when stats held a Counter of every domain
# key of each list: the oracle for the tables read from sorted spill runs.
def counter_year_histogram(entries):
    counts = Counter()
    for _, ts in entries:
        counts[ts.year] += 1
    return dict(sorted(counts.items()))


def counter_domain_counts(urls):
    counts = Counter()
    for url in urls:
        counts[domain_key(url.host)] += 1
    return counts


def counter_ccdf_points(counts):
    tally = Counter(counts)
    total = n_ge = sum(tally.values())
    points = []
    for x in sorted(tally):
        points.append((x, 100.0 * n_ge / total))
        n_ge -= tally[x]
    return points


def counter_top_domains(counts, n):
    return heapq.nsmallest(n, counts.items(), key=lambda kv: (-kv[1], kv[0]))


def counter_average_ranks(counts, domains):
    tally = Counter(counts[d] for d in domains)
    by_count, above = {}, 0
    for count in sorted(tally, reverse=True):
        by_count[count] = (2 * above + 1 + tally[count]) / 2
        above += tally[count]
    return [by_count[counts[d]] for d in domains]


def counter_rank_correlation(pre, post):
    common = sorted(d for d in pre if d in post)
    if len(common) < 2:
        return 1.0
    xs = counter_average_ranks(pre, common)
    ys = counter_average_ranks(post, common)
    n = len(common)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return 1.0
    return cov / math.sqrt(vx * vy)


def counter_stats(url_lists, top_n):
    """The CSV texts and manifest counts of ``stats --urls --sampled`` with
    the helpers above, for the lines of each list (None if not given)."""
    files, counts = {}, {}

    def csv(name, header, rows):
        files[name] = header + "\n" + "".join(",".join(str(v) for v in row) + "\n"
                                              for row in rows)

    def parsed(lines):
        for line in lines:
            if line.strip():
                counts["input"] += 1
                try:
                    yield parse_url(line.strip())
                except SurtError:
                    counts["unparseable"] += 1

    domains = {}
    for which, lines, suffix in zip(("pre", "post"), url_lists, ("", "_sampled")):
        if lines is not None:
            counts.setdefault("input", 0)
            counts.setdefault("unparseable", 0)
            domains[which] = counter_domain_counts(parsed(lines))
            csv(f"urls_per_domain_ccdf{suffix}.csv", "urls_per_domain,percent_of_domains",
                counter_ccdf_points(domains[which].values()))
            counts[f"domains_{which}"] = len(domains[which])
    if len(domains) == 2:
        pre, post = domains["pre"], domains["post"]
        csv("top_domains.csv", "rank,domain,urls_pre,urls_post",
            ((rank, d, n, post.get(d, 0))
             for rank, (d, n) in enumerate(counter_top_domains(pre, top_n), 1)))
        r = counter_rank_correlation(pre, post)
        csv("rank_correlation.csv", "pearson_r_of_ranks", [(f"{r:.6f}",)])
        counts["rank_correlation"] = round(r, 6)
    return files, counts


# hosts of a few labels over a small alphabet, so that domains repeat and
# counts tie: non-ASCII, upper case, NUL and SOH (which sort below the spill
# lines' separator once escaped) and www prefixes that the domain key drops
LABELS = st.text("ab\x00\x01éA", min_size=1, max_size=2)
HOSTS = st.builds(lambda www, labels: www + ".".join(labels) + ".com",
                  st.sampled_from(["", "www.", "www2."]), st.lists(LABELS, min_size=1, max_size=2))
LINES = st.lists(st.one_of(
    st.builds("http://{}/{}".format, HOSTS, st.sampled_from(["", "p", "q?x=1"])),
    st.sampled_from(["", "http://a..com/", "ftp://a.com/", "  http://b.com/  "])), max_size=60)


@pytest.mark.parametrize("run_bytes, fan_in", [(spill.RUN_BYTES, spill.FAN_IN), (4, 2)],
                         ids=["default-budget", "every-key-spills"])
@settings(deadline=None)
@given(st.none() | LINES, st.none() | LINES, st.integers(1, 30))
def test_stats_tables_match_the_counter_oracle(run_bytes, fan_in, urls, sampled, top_n):
    with mock.patch.object(spill, "RUN_BYTES", run_bytes), \
            mock.patch.object(spill, "FAN_IN", fan_in), \
            tempfile.TemporaryDirectory() as tmp:
        argv = ["stats", "--out-dir", os.path.join(tmp, "out"), "--top-n", str(top_n),
                "--manifest", os.path.join(tmp, "stats.json")]
        for flag, lines in (("--urls", urls), ("--sampled", sampled)):
            if lines is not None:
                path = os.path.join(tmp, flag[2:])
                with open(path, "w", encoding="utf-8") as fh:
                    fh.writelines(line + "\n" for line in lines)
                argv += [flag, path]
        if urls is None and sampled is None:  # a usage error, which writes nothing
            with pytest.raises(SystemExit, match="^2$"):
                main(argv)
            assert os.listdir(tmp) == []
            return
        assert main(argv) == 0
        files = {}
        for name in os.listdir(os.path.join(tmp, "out")):
            with open(os.path.join(tmp, "out", name), encoding="utf-8") as fh:
                files[name] = fh.read()
        with open(os.path.join(tmp, "stats.json"), encoding="utf-8") as fh:
            counts = json.load(fh)["counts"]
    assert (files, counts) == counter_stats((urls, sampled), top_n)


TIMESTAMPS = st.sampled_from(["19950101000000", "19961231235959", "20050615120000",
                              "20051231000000", "20211010101010"])


@given(st.lists(st.tuples(st.just("http://a.com/"), TIMESTAMPS.map(Timestamp14))))
def test_year_histogram_matches_the_counter_oracle(entries):
    assert year_histogram(entries) == counter_year_histogram(entries)


def test_memento_ccdf_matches_the_counter_oracle(tmp_path):
    # TimeMaps of many sizes, some repeated and some empty, which the CCDF leaves out
    rng = random.Random(11)
    sizes = [rng.choice([0, 1, 1, 2, 3, 5, 8, 40]) for _ in range(60)]
    timemaps = tmp_path / "timemaps"
    timemaps.mkdir()
    for i, size in enumerate(sizes):
        url = f"http://h{i}.com/"
        write_timemap(TimeMap(url, make_history(url, size, rng)), timemaps / f"h{i}.cdx")
    (timemaps / "notes.txt").write_text("not a TimeMap\n")
    manifest = tmp_path / "stats.json"
    assert main(["stats", "--timemap-dir", str(timemaps), "--out-dir", str(tmp_path / "out"),
                 "--manifest", str(manifest)]) == 0
    points = counter_ccdf_points([size for size in sizes if size])
    assert (tmp_path / "out" / "mementos_per_url_ccdf.csv").read_text() == (
        "mementos_per_url,percent_of_urls\n" + "".join(f"{x},{p}\n" for x, p in points))
    assert json.loads(manifest.read_text())["counts"]["timemaps"] == sum(map(bool, sizes))
    assert json.loads(manifest.read_text())["counts"]["empty_timemaps"] == sizes.count(0)


def test_stats_without_an_input_is_a_usage_error(tmp_path, capsys):
    # an --out-dir alone has nothing to count: exit 2 before any file or manifest is written
    out, manifest = tmp_path / "out", tmp_path / "stats.json"
    with pytest.raises(SystemExit, match="^2$"):
        main(["stats", "--out-dir", str(out), "--manifest", str(manifest)])
    assert capsys.readouterr().err.splitlines()[-1] == (
        "waysample stats: error: one of --first-captures, --urls, --sampled or --timemap-dir"
        " is required")
    assert os.listdir(tmp_path) == []

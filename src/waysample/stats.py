"""Statistics emitted by the pipeline as CSV: first-capture-year
histograms, CCDF points, top-domain tables, and the rank correlation
between pre- and post-downsampling domain rankings; and the ``stats``
stage, which writes them."""

from __future__ import annotations

import heapq
import math
import os
from collections import Counter
from itertools import repeat
from operator import add, attrgetter, itemgetter
from typing import Iterable, Iterator

from . import partition
from .cdx import Timestamp14, count_timemap
from .spill import SpillSort
from .surt import domain_key, parse_host


def year_histogram(entries: Iterable[tuple[str, Timestamp14]]) -> dict[int, int]:
    """Counts by year of the first captures of (URL text, first capture) pairs."""
    # the first four digits sort as their years
    counts = Counter(map(itemgetter(slice(4)), map(attrgetter("raw"), map(itemgetter(1), entries))))
    return {int(year): n for year, n in sorted(counts.items())}


class DomainCounts(SpillSort):
    """The URLs of each domain key in two lists, in domain order: a
    SpillSort that adds, where a domain's number is its count in the first
    list times FIRST plus its count in the second. Iterating gives each
    domain's (first, second) counts, again each time."""

    FIRST = 10 ** 12

    def __init__(self, spill_dir: str | None = None):
        super().__init__(spill_dir, add, digits=24)

    def count(self, domains: Iterable[str], first: int, second: int) -> None:
        """Add ``first`` to the first count of each of ``domains`` and
        ``second`` to its second, adding each domain to the sort as one key."""
        number = first * self.FIRST + second
        for domain in domains:
            self.add((domain,), number)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return map(divmod, self.numbers(), repeat(self.FIRST))

    def rows(self, least: int = 0) -> Iterator[tuple[str, int, int]]:
        """(domain, first, second) of the domains whose first count is at least ``least``."""
        for (domain,), number in self.items(least * self.FIRST):
            yield (domain, *divmod(number, self.FIRST))

    def tallies(self) -> tuple[Counter, Counter]:
        """How many domains have each first count, and each second count."""
        firsts, seconds = Counter(), Counter()
        for number, m in Counter(self.numbers()).items():  # domains by their two counts
            first, second = divmod(number, self.FIRST)
            firsts[first] += m
            seconds[second] += m
        return firsts, seconds


def domain_counts(counts: DomainCounts, hosts: Iterable[str], first: int, second: int) -> None:
    """Add ``first`` to the first count of each host's domain key in
    ``counts``, and ``second`` to its second."""
    counts.count(map(domain_key, hosts), first, second)


def ccdf_points(tally: Counter) -> list[tuple[int, float]]:
    """CCDF of a count distribution given as how many items have each
    count: for each observed count x, the percentage of items whose count
    is >= x. Nonincreasing; 100% at the least count."""
    total = n_ge = sum(tally.values())
    points = []
    for x in sorted(tally):
        points.append((x, 100.0 * n_ge / total))
        n_ge -= tally[x]
    return points


def top_domains(counts: DomainCounts, tally: Counter, n: int) -> list[tuple[str, int, int]]:
    """The n (domain, count before, count after) rows of the domains with the
    most URLs before, ties in domain order; ``tally`` (domains by count
    before) gives the n-th highest count, below which no row is read whole."""
    least = above = 0
    for least in sorted(tally, reverse=True):
        above += tally[least]
        if above >= n:
            break
    # rows come in domain order, and nlargest keeps the first of equal counts first
    return heapq.nlargest(n, counts.rows(max(least, 1)), key=itemgetter(1))


def _average_ranks(tally: Counter) -> dict[int, float]:
    # rank 1 = highest count; ties share their average rank, so a rank depends only on its count
    by_count, above = {}, 0
    for count in sorted(tally, reverse=True):
        by_count[count] = (2 * above + 1 + tally[count]) / 2  # ranks above + 1 to above + tally
        above += tally[count]
    return by_count


def rank_correlation(counts: Iterable[tuple[int, int]]) -> float:
    """Pearson correlation of domain ranks before and after downsampling,
    over domains present in both rankings. ``counts``, each domain's (count
    before, count after), 0 if not in that ranking, are read once, to tally
    the distinct pairs. Each sum weighs a pair's term by its number of
    domains and is rounded once, so it is that of the exact terms in any
    order. Memory is a few tables of distinct counts and pairs."""
    pairs = [(x, y, m) for (x, y), m in Counter(counts).items() if x and y]
    xt, yt = Counter(), Counter()  # common domains by count before, and by count after
    for x, y, m in pairs:
        xt[x] += m
        yt[y] += m
    n = xt.total()
    if n < 2:
        return 1.0
    mean = (n + 1) / 2  # tied or not, the ranks add up to 1 + ... + n: exactly sum(ranks) / n
    dx = {c: r - mean for c, r in _average_ranks(xt).items()}
    dy = {c: r - mean for c, r in _average_ranks(yt).items()}
    cov = math.fsum(m * dx[x] * dy[y] for x, y, m in pairs)
    vx = math.fsum(m * dx[x] ** 2 for x, m in xt.items())
    vy = math.fsum(m * dy[y] ** 2 for y, m in yt.items())
    if vx == 0 or vy == 0:
        return 1.0
    return cov / math.sqrt(vx * vy)


def cmd_stats(stage, args) -> None:
    os.makedirs(args.out_dir, exist_ok=True)
    counts = stage.counts
    stage.params["top_n"] = args.top_n
    tables = {}  # CSV name: header and rows, written once every input has been read

    if args.first_captures:
        # the year histograms of the file's byte ranges, added up
        histogram = sum(map(Counter, partition.split(counts, args.first_captures, lambda source: (
            year_histogram(stage.first_captures(source))))), Counter())
        tables["first_capture_years.csv"] = "year,count", sorted(histogram.items())
        counts["first_capture_years"] = histogram.total()

    lists = {"pre": (args.urls, ""), "post": (args.sampled, "_sampled")}
    # counted in sorted runs that spill to anonymous files in the out-dir
    with DomainCounts(args.out_dir) as domains:
        for (path, _), weights in zip(lists.values(), ((1, 0), (0, 1))):
            if path:
                partition.split(counts, path, lambda source, part: domain_counts(
                    part, stage.parsed_urls(source, parse_host), *weights),
                    domains, spill_dir=args.out_dir)
        tallies = dict(zip(lists, domains.tallies()))
        for which, (path, suffix) in lists.items():
            if path:
                del tallies[which][0]  # the domains of the other list only
                tables[f"urls_per_domain_ccdf{suffix}.csv"] = (
                    "urls_per_domain,percent_of_domains", ccdf_points(tallies[which]))
                counts[f"domains_{which}"] = tallies[which].total()
        if args.urls and args.sampled:
            top = top_domains(domains, tallies["pre"], args.top_n)
            tables["top_domains.csv"] = "rank,domain,urls_pre,urls_post", [
                (rank, *row) for rank, row in enumerate(top, 1)]
            r = rank_correlation(domains)
            tables["rank_correlation.csv"] = "pearson_r_of_ranks", [(f"{r:.6f}",)]
            counts["rank_correlation"] = round(r, 6)

    if args.timemap_dir:
        tally = Counter()  # TimeMaps by memento count
        with os.scandir(args.timemap_dir) as entries:
            for entry in entries:
                if entry.name.endswith(".cdx"):
                    tally[count_timemap(entry.path)] += 1
        counts["empty_timemaps"] = tally.pop(0, 0)
        tables["mementos_per_url_ccdf.csv"] = (
            "mementos_per_url,percent_of_urls", ccdf_points(tally))
        counts["timemaps"] = tally.total()

    for name, (header, rows) in tables.items():
        with stage.open(os.path.join(args.out_dir, name), "w") as fh:
            fh.write(header + "\n")
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)

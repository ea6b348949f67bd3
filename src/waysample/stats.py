"""Statistics emitted by the pipeline as CSV: first-capture-year
histograms, CCDF points, top-domain tables, and the rank correlation
between pre- and post-downsampling domain rankings."""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Iterable

from .cdx import Timestamp14
from .surt import CanonicalUrl, domain_key


def year_histogram(entries: Iterable[tuple[str, Timestamp14]]) -> dict[int, int]:
    """Counts by year of the first captures of (URL text, first capture) pairs."""
    counts: Counter[int] = Counter()
    for _, ts in entries:
        counts[ts.year] += 1
    return dict(sorted(counts.items()))


def domain_counts(urls: Iterable[CanonicalUrl]) -> Counter:
    counts: Counter[str] = Counter()
    for url in urls:
        counts[domain_key(url.host)] += 1
    return counts


def ccdf_points(counts: Iterable[int]) -> list[tuple[int, float]]:
    """CCDF of a count distribution: for each observed x, the percentage of
    items whose count is >= x. Nonincreasing; 100% at the minimum count."""
    tally = Counter(counts)
    total = n_ge = sum(tally.values())
    points = []
    for x in sorted(tally):
        points.append((x, 100.0 * n_ge / total))
        n_ge -= tally[x]
    return points


def top_domains(counts: Counter, n: int) -> list[tuple[str, int]]:
    """The n domains with the most URLs, ties in domain order."""
    return heapq.nsmallest(n, counts.items(), key=lambda kv: (-kv[1], kv[0]))


def _average_ranks(counts: dict[str, int], domains: list[str]) -> list[float]:
    # rank 1 = highest count; ties share their average rank, so a rank depends only on its count
    tally = Counter(counts[d] for d in domains)
    by_count, above = {}, 0
    for count in sorted(tally, reverse=True):
        by_count[count] = (2 * above + 1 + tally[count]) / 2  # ranks above + 1 to above + tally
        above += tally[count]
    return [by_count[counts[d]] for d in domains]


def rank_correlation(pre: Counter, post: Counter) -> float:
    """Pearson correlation of domain ranks before and after downsampling,
    over domains present in both rankings."""
    common = sorted(d for d in pre if d in post)
    if len(common) < 2:
        return 1.0
    xs = _average_ranks(pre, common)
    ys = _average_ranks(post, common)
    n = len(common)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return 1.0
    return cov / math.sqrt(vx * vy)

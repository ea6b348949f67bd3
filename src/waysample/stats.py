"""Statistics emitted by the pipeline as CSV: first-capture-year
histograms, CCDF points, top-domain tables, and the rank correlation
between pre- and post-downsampling domain rankings."""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable

from .cdx import Timestamp14
from .sampler import domain_key
from .surt import CanonicalUrl


def year_histogram(entries: Iterable[tuple[CanonicalUrl, Timestamp14]]) -> dict[int, int]:
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
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def _average_ranks(counts: dict[str, int], domains: list[str]) -> list[float]:
    # rank 1 = highest count; ties share their average rank
    ordered = sorted(domains, key=lambda d: (-counts[d], d))
    ranks: dict[str, float] = {}
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


def rank_correlation(pre: Counter, post: Counter) -> float:
    """Pearson correlation of domain ranks before and after downsampling,
    over domains present in both rankings."""
    common = sorted(set(pre) & set(post))
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

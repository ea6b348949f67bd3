"""Statistics emitted by the pipeline as CSV: first-capture-year
histograms, CCDF points, top-domain tables, and the rank correlation
between pre- and post-downsampling domain rankings."""

from __future__ import annotations

import heapq
import math
from collections import Counter
from operator import attrgetter, itemgetter, mul
from typing import TYPE_CHECKING, Callable, Iterable

from .cdx import Timestamp14
from .surt import domain_key

if TYPE_CHECKING:
    from .sampler import SpillCount


def year_histogram(entries: Iterable[tuple[str, Timestamp14]]) -> dict[int, int]:
    """Counts by year of the first captures of (URL text, first capture) pairs."""
    # the first four digits sort as their years
    counts = Counter(map(itemgetter(slice(4)), map(attrgetter("raw"), map(itemgetter(1), entries))))
    return {int(year): n for year, n in sorted(counts.items())}


def domain_counts(counts: SpillCount, pre: Iterable[str], post: Iterable[str]) -> None:
    """Count in ``counts`` each domain key of the hosts ``pre``, its first
    count, and of the hosts ``post``, its second."""
    for hosts, first in ((pre, True), (post, False)):
        counts.count(map(domain_key, hosts), first)


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


def top_domains(counts: SpillCount, tally: Counter, n: int) -> list[tuple[str, int, int]]:
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
    before, count after) in domain order, 0 if not in that ranking, are read
    four times: to tally the distinct pairs, then once for each sum of terms
    in domain order. Memory is a few tables of distinct counts and pairs."""
    pairs = Counter(counts)  # domains by (count before, count after)
    xt, yt = Counter(), Counter()
    for (x, y), m in pairs.items():
        if x and y:
            xt[x] += m
            yt[y] += m
    n = xt.total()
    if n < 2:
        return 1.0
    mean = (n + 1) / 2  # tied or not, the ranks add up to 1 + ... + n: exactly sum(ranks) / n
    dx = {c: r - mean for c, r in _average_ranks(xt).items()}
    dy = {c: r - mean for c, r in _average_ranks(yt).items()}

    def total(term: Callable[[float, float], float]) -> float:
        # one sum() over the domains in domain order, so that it is the float of
        # sum() over the common domains' terms on any Python: the 0.0 of a
        # domain in one ranking leaves a float sum, never -0.0, as it was
        terms = {p: term(dx[p[0]], dy[p[1]]) if all(p) else 0.0 for p in pairs}
        return sum(map(terms.__getitem__, counts))

    cov = total(mul)
    vx = total(lambda a, _: a ** 2)
    vy = total(lambda _, b: b ** 2)
    if vx == 0 or vy == 0:
        return 1.0
    return cov / math.sqrt(vx * vy)

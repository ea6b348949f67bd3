"""Sampling mathematics for the URL pipeline.

Skip-list index sampling, the inclusion-probability model, first-capture
year bucketing (with the 1996-2000 merge and pre-1996 rejection), missing
root-URL upsampling, popular-domain reintegration, long-tail reduction,
logarithmic downsampling with K calibration, and deterministic per-domain
URL selection.

Bucketing and the missing roots keep their rows in ``spill.SpillSort``s
with the ``min`` fold, in bounded memory whatever the number of rows.

All randomized operations derive their random stream from (seed, domain)
so parallel scheduling cannot change results.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter, namedtuple
from contextlib import closing
from itertools import starmap
from typing import Callable, Generator, Iterable, Iterator

from .cdx import Timestamp14
from .spill import SpillSort
from .surt import CanonicalUrl, domain_key

FIRST_ARCHIVE_YEAR = 1996
EARLY_YEARS_END = 2000
EARLY_BUCKET_LABEL = "1996-2000"


class DownsampleParams(namedtuple("DownsampleParams", "k c")):
    """K and C of the per-bucket downsampling equation."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, k: float = 1.0, c: int = 1):
        if c < 1:
            raise ValueError("C must be >= 1")
        if k <= 0:
            raise ValueError("K must be positive")
        return tuple.__new__(cls, (k, c))


class DomainCount(namedtuple("DomainCount", "domain urls")):
    """A domain and the list of its distinct URL texts in text order."""

    __slots__ = ()

    @property
    def n_urls(self) -> int:
        return len(self.urls)


def first_root(texts: list[str]) -> str | None:
    """The first root URL among canonical URL texts: a root's text is
    scheme://host/, and a host holds no "/"."""
    return next((text for text in texts if text[-1] == "/" and text.count("/") == 3), None)


class YearBucket(namedtuple("YearBucket", "label domains")):
    """A bucket label and the list of its DomainCounts."""

    __slots__ = ()

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    @property
    def n_urls(self) -> int:
        return sum(d.n_urls for d in self.domains)


def skip_sample(records: Iterable, interval: int, phase: int = 0) -> Iterator:
    """Emit stream items at positions congruent to phase modulo interval."""
    if interval < 1:
        raise ValueError("interval must be >= 1")
    if not (0 <= phase < interval):
        raise ValueError("phase must satisfy 0 <= phase < interval")
    for pos, record in enumerate(records):
        if pos % interval == phase:
            yield record


def inclusion_probability(memento_count: int, interval: int) -> float:
    """Probability a URL with the given contiguous memento count lands in a
    skip-sampled index: linear in the count, capped at 1."""
    if interval < 1:
        raise ValueError("interval must be >= 1")
    if memento_count < 0:
        raise ValueError("memento_count must be >= 0")
    return min(1.0, memento_count / interval)


def year_bucket_label(year: int) -> str | None:
    """Bucket label for a first-capture year; None for pre-1996 years."""
    if year < FIRST_ARCHIVE_YEAR:
        return None
    if year <= EARLY_YEARS_END:
        return EARLY_BUCKET_LABEL
    return str(year)


BucketingResult = namedtuple("BucketingResult", "buckets dropped_pre_1996")


class FirstYearBuckets(SpillSort):
    """The distinct URLs of each first-capture year bucket, by domain, in a
    SpillSort of the ``min`` fold: memory is its budget plus the largest
    domain, whatever the number of rows. A row is a key of its bucket label,
    domain key and URL text, so a URL repeated in a bucket is one key, and
    the rows hold the same buckets in whatever order they are added. ``add``
    returns a row's label: None for a pre-1996 row, which is not kept."""

    def __init__(self, spill_dir: str | None = None):
        super().__init__(spill_dir)
        self._add = super().add  # SpillSort.add, which add overrides
        self._labels: dict[str, str | None] = {}  # year_bucket_label by the year's digits

    def add(self, url: CanonicalUrl, first_capture: Timestamp14) -> str | None:
        year = first_capture.raw[:4]
        label = self._labels.get(year, False)
        if label is False:
            label = self._labels[year] = year_bucket_label(int(year))
        if label is not None:
            self._add((label, domain_key(url.host), url.text), 0)
        return label

    def buckets(self) -> Iterator[tuple[str, Counter, Iterator[DomainCount]]]:
        """Each bucket's label, how many of its domains hold each number of
        URLs, and its domains: in label and then domain-key order, each
        domain's URLs in text order. The sizes of every bucket take one pass
        over the sorted rows, before the first is yielded, and the domains a
        second."""
        sizes = {label: Counter(domains) for label, domains in self.groups(whole=False)}
        for label, domains in self.groups():
            yield label, sizes[label], starmap(DomainCount, domains)


def bucket_by_first_year(
    entries: Iterable[tuple[CanonicalUrl, Timestamp14]],
    spill_dir: str | None = None,
) -> BucketingResult:
    """Group URLs by first-capture year: pre-1996 dropped and counted,
    1996-2000 merged into one bucket, each later year on its own. Buckets
    are in label order, their domains in domain-key order, and the URLs of a
    domain in text order, whatever the order of ``entries``. ``entries`` is
    read once, and a URL is kept as its text, which determines it (the host
    holds no ``/`` or ``?``, the path no ``?``, a query is never ``""``), so
    duplicate texts are exactly duplicate URLs. Spill files, if any, go in
    ``spill_dir``."""
    with FirstYearBuckets(spill_dir) as buckets:
        dropped = sum(buckets.add(url, first_capture) is None for url, first_capture in entries)
        return BucketingResult([YearBucket(label, list(domains))
                                for label, _, domains in buckets.buckets()], dropped)


class MissingRoots(SpillSort):
    """One root URL per host seen only through deep links; ``add`` takes one
    URL at a time, in any order.

    Each URL is a key of its host in this SpillSort, with a number: 0 for a
    root, 1 for an http deep link and 2 for an https one. The ``min`` fold
    keeps a host's least number, which says whether it has a root and, if
    not, whether any of its deep links is http."""

    def __init__(self, spill_dir: str | None = None):
        super().__init__(spill_dir)
        self._add = super().add

    def add(self, url: CanonicalUrl) -> None:
        scheme, host, path, query = url
        self._add((host,), 0 if path == "/" and query is None else 1 if scheme == "http" else 2)

    def roots(self) -> Iterator[CanonicalUrl]:
        """Each missing root, in host order, in one read of the sort: an http
        root if any of the host's deep links is http, else an https one."""
        for (host,), number in self.items(1):
            yield CanonicalUrl("http" if number == 1 else "https", host, "/", None)


def extract_missing_roots(urls: Iterable[CanonicalUrl]) -> list[CanonicalUrl]:
    """One root URL per host that appears only via deep links, in host
    order, as ``MissingRoots.roots`` gives them."""
    with MissingRoots() as missing:
        for url in urls:
            missing.add(url)
        return list(missing.roots())


class ReintegrationResult(namedtuple("ReintegrationResult", "per_year unmet_years")):
    """The URLs drawn for each year, and the sorted years left short of the floor."""

    __slots__ = ()

    @property
    def exhausted(self) -> bool:
        return bool(self.unmet_years)


def reintegrate_popular(
    domain: str,
    candidate_urls: Iterable[CanonicalUrl],
    first_captures: Callable[[list[CanonicalUrl]], Generator[Timestamp14 | None, None, None]],
    years: list[int],
    per_year_min: int,
    seed: int,
) -> ReintegrationResult:
    """Randomly draw candidates without replacement until every requested
    year has at least per_year_min URLs, resolving each draw's first-capture
    year through ``first_captures``. It maps the draws to their first
    captures (None where there is none) in draw order; it may look ahead of
    the draw being read, and it is closed once the quotas are met.

    If the pool runs out first, the partial result names the unmet years.
    """
    if per_year_min < 1:
        raise ValueError("per_year_min must be >= 1")
    rng = random.Random(f"{seed}|reintegrate|{domain}")
    pool = list(candidate_urls)
    rng.shuffle(pool)
    wanted = set(years)
    per_year: dict[int, list[CanonicalUrl]] = {y: [] for y in years}
    with closing(first_captures(pool)) as firsts:
        for url in pool:
            if all(len(per_year[y]) >= per_year_min for y in years):
                break
            first = next(firsts)
            if first is not None and first.year in wanted:
                per_year[first.year].append(url)
    unmet = sorted(y for y in years if len(per_year[y]) < per_year_min)
    return ReintegrationResult(per_year, unmet)


def tail_survivors(label: str, n_domains: int, n_singles: int, threshold: int,
                   keep_fraction: float, seed: int) -> set[int] | None:
    """The long-tail rule: when a bucket holds more than ``threshold``
    domains, ``n_singles`` of them with one URL, it keeps a uniform
    ``keep_fraction`` of those singles. Returns their positions among the
    bucket's singles in domain-key order, or None when every domain stays."""
    if n_domains <= threshold or not n_singles:
        return None
    rng = random.Random(f"{seed}|tail|{label}")
    return set(rng.sample(range(n_singles), round(n_singles * keep_fraction)))


def reduce_long_tail(bucket: YearBucket, threshold: int, keep_fraction: float,
                     seed: int) -> YearBucket:
    """``bucket`` without the single-URL domains that the long-tail rule
    (tail_survivors) drops."""
    singles = sorted(d.domain for d in bucket.domains if d.n_urls == 1)
    kept = tail_survivors(bucket.label, bucket.n_domains, len(singles), threshold,
                          keep_fraction, seed)
    if kept is None:
        return bucket
    kept_names = {singles[i] for i in kept}
    domains = [d for d in bucket.domains if d.n_urls > 1 or d.domain in kept_names]
    return YearBucket(bucket.label, domains)


def _reduced_count(n: int, k: float, c: int) -> int:
    # K * ln(n) + C > 0 (K > 0, n >= 1, C >= 1): half up is half away from zero
    return min(n, math.floor(k * math.log(n) + c + 0.5))


def downsample_count(n: int, params: DownsampleParams) -> int:
    """Reduced URL count for a domain with n URLs:
    min(n, round(K * ln(n) + C)), rounding half away from zero."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _reduced_count(n, params.k, params.c)


# K is None for a bucket with no domain left to calibrate
CalibrationResult = namedtuple("CalibrationResult", "k total overshoot")


def calibrate_k(bucket: YearBucket, c: int, target: int) -> CalibrationResult:
    """calibrate_sizes over the URL counts of ``bucket``'s domains."""
    return calibrate_sizes(Counter(d.n_urls for d in bucket.domains), c, target)


def calibrate_sizes(sizes: Counter, c: int, target: int) -> CalibrationResult:
    """Smallest integer K >= 1 whose reduced-URL total over a bucket equals
    the largest achievable total not exceeding the target; ``sizes`` holds,
    for each URL count, how many of the bucket's domains have it.

    The total is nondecreasing in K, so bisection applies. If even K = 1
    overshoots the target, K = 1 is returned with the overshoot flag set.
    Each probe costs one step per distinct domain size.
    """
    if not any(sizes.values()):
        raise ValueError("bucket has no domains")
    if c < 1:
        raise ValueError("C must be >= 1")

    def total(k: int) -> int:
        # downsample_count summed over the domains, m domains of size n at a time
        return sum(m * _reduced_count(n, k, c) for n, m in sizes.items())

    # with C >= 1, K = the largest domain size keeps every URL of every
    # domain, so the largest K whose total fits under the target is at most that
    ks = range(1, max(sizes) + 1)
    k = bisect.bisect_right(ks, target, key=total)  # how many K fit: the largest that does
    if not k:
        return CalibrationResult(1, total(1), overshoot=True)
    best_total = total(k)
    # smallest K reaching that total (ties collapse toward the smallest K)
    k = bisect.bisect_left(ks, best_total, hi=k, key=total) + 1
    return CalibrationResult(k, best_total, overshoot=False)


def select_urls(domain: DomainCount, k: int, seed: int) -> list[str]:
    """Pick k URLs from a domain: the root URL always included when present,
    the rest chosen by single-pass reservoir selection.

    Deterministic under a fixed seed regardless of scheduling.
    """
    if k == 0:
        raise ValueError("k must be >= 1 (C >= 1 forbids zero selections)")
    if k > domain.n_urls:
        raise ValueError(f"k={k} exceeds domain URL count {domain.n_urls}")
    urls = domain.urls
    root = first_root(urls)
    # when every URL is kept the reservoir takes them in order and never draws
    rng = random.Random(f"{seed}|select|{domain.domain}") if k < domain.n_urls else None
    selected = [] if root is None else [root]
    remaining = k - len(selected)
    reservoir: list[str] = []
    seen = 0
    for url in urls:
        if url == root:
            continue
        if seen < remaining:
            reservoir.append(url)
        else:
            j = rng.randrange(seen + 1)
            if j < remaining:
                reservoir[j] = url
        seen += 1
    return selected + reservoir

"""Sampling mathematics for the URL pipeline.

Skip-list index sampling, the inclusion-probability model, first-capture
year bucketing (with the 1996-2000 merge and pre-1996 rejection), missing
root-URL upsampling, popular-domain reintegration, long-tail reduction,
logarithmic downsampling with K calibration, and deterministic per-domain
URL selection.

All randomized operations derive their random stream from (seed, domain)
so parallel scheduling cannot change results.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable, Iterator

from .cdx import Timestamp14
from .surt import CanonicalUrl, domain_key
from .urlfilter import trim_to_root

FIRST_ARCHIVE_YEAR = 1996
EARLY_YEARS_END = 2000
EARLY_BUCKET_LABEL = "1996-2000"


@dataclass(frozen=True)
class DownsampleParams:
    """K and C of the per-bucket downsampling equation."""

    k: float = 1.0
    c: int = 1

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("C must be >= 1")
        if self.k <= 0:
            raise ValueError("K must be positive")


@dataclass(slots=True)
class DomainCount:
    """A domain's distinct URL texts in first-occurrence order."""

    domain: str
    urls: list[str] = field(default_factory=list)

    @property
    def n_urls(self) -> int:
        return len(self.urls)


class PackedDomain:
    """DomainCount's fields, with the texts packed in one bytearray, each one
    ending in a newline: len(text) + 1 bytes a URL, where a str in a list
    takes 57 more. ``add`` takes a text without a newline, maybe a repeat;
    repeats go once the buffer has doubled since it held none, and at ``dedup``."""

    __slots__ = ("domain", "packed", "n_urls", "_clean")

    def __init__(self, domain: str, text: str):
        self.domain, self.n_urls = domain, 1
        self.packed = bytearray((text + "\n").encode())
        self._clean = len(self.packed)  # the buffer's length when it last held no repeat

    def add(self, text: str) -> None:
        self.packed += (text + "\n").encode()
        if len(self.packed) > 2 * self._clean:
            self.dedup()

    def dedup(self) -> PackedDomain:
        """Drop the repeats, keeping first occurrences in order; set n_urls."""
        if len(self.packed) != self._clean:
            texts = dict.fromkeys(bytes(self.packed).split(b"\n"))  # b"" last
            self.packed = bytearray(b"\n").join(texts)
            self.n_urls, self._clean = len(texts) - 1, len(self.packed)
        return self

    @property
    def urls(self) -> list[str]:
        return self.packed.decode().split("\n")[:-1]


def first_root(texts: list[str]) -> str | None:
    """The first root URL among canonical URL texts: a root's text is
    scheme://host/, and a host holds no "/"."""
    return next((text for text in texts if text[-1] == "/" and text.count("/") == 3), None)


@dataclass
class YearBucket:
    label: str
    domains: list[DomainCount | PackedDomain] = field(default_factory=list)

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


@dataclass
class BucketingResult:
    buckets: list[YearBucket]
    dropped_pre_1996: int


def bucket_by_first_year(
    entries: Iterable[tuple[CanonicalUrl, Timestamp14]],
) -> BucketingResult:
    """Group URLs by first-capture year: pre-1996 dropped and counted,
    1996-2000 merged into one bucket, each later year on its own. Buckets
    are in label order, their domains in domain-key order, and the URLs of a
    domain in first-occurrence order. ``entries`` is read once, and a URL is
    kept as its text, which determines it (the host holds no ``/`` or ``?``,
    the path no ``?``, a query is never ``""``), so duplicate texts are
    exactly duplicate URLs; a URL's domain is a function of it, so its domain drops them."""
    by_label: dict[str, dict[str, PackedDomain]] = {}
    dropped = 0
    for url, first_capture in entries:
        label = year_bucket_label(first_capture.year)
        if label is None:
            dropped += 1
            continue
        domains = by_label.setdefault(label, {})
        key = domain_key(url.host)
        dc = domains.get(key)
        if dc is None:
            domains[key] = PackedDomain(key, url.text)
        else:
            dc.add(url.text)
    buckets = [
        YearBucket(label, [domains[k].dedup() for k in sorted(domains)])
        for label, domains in sorted(by_label.items())
    ]
    return BucketingResult(buckets, dropped)


class MissingRoots:
    """One root URL per host seen only through deep links, in the order of
    each host's first deep link; ``add`` takes one URL at a time."""

    def __init__(self):
        self.hosts_with_root: set[str] = set()
        self.roots: dict[str, CanonicalUrl] = {}

    def add(self, url: CanonicalUrl) -> None:
        if url.is_root:
            self.hosts_with_root.add(url.host)
            self.roots.pop(url.host, None)
        elif url.host not in self.hosts_with_root and url.host not in self.roots:
            self.roots[url.host] = trim_to_root(url)


def extract_missing_roots(urls: Iterable[CanonicalUrl]) -> list[CanonicalUrl]:
    """One root URL per host that appears only via deep links."""
    missing = MissingRoots()
    for url in urls:
        missing.add(url)
    return list(missing.roots.values())


@dataclass
class ReintegrationResult:
    per_year: dict[int, list[CanonicalUrl]]
    unmet_years: list[int]

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


def reduce_long_tail(bucket: YearBucket, threshold: int, keep_fraction: float,
                     seed: int) -> YearBucket:
    """When a bucket holds more distinct domains than ``threshold``,
    uniformly retain ``keep_fraction`` of its single-URL domains."""
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


def _reduced_count(n: int, k: float, c: int) -> int:
    # K * ln(n) + C > 0 (K > 0, n >= 1, C >= 1): half up is half away from zero
    return min(n, math.floor(k * math.log(n) + c + 0.5))


def downsample_count(n: int, params: DownsampleParams) -> int:
    """Reduced URL count for a domain with n URLs:
    min(n, round(K * ln(n) + C)), rounding half away from zero."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _reduced_count(n, params.k, params.c)


@dataclass
class CalibrationResult:
    k: int
    total: int
    overshoot: bool


def calibrate_k(bucket: YearBucket, c: int, target: int) -> CalibrationResult:
    """Smallest integer K >= 1 whose reduced-URL total equals the largest
    achievable total not exceeding the target.

    The total is nondecreasing in K, so binary search applies. If even
    K = 1 overshoots the target, K = 1 is returned with the overshoot
    flag set. Each probe costs one step per distinct domain size.
    """
    if not bucket.domains:
        raise ValueError("bucket has no domains")
    if c < 1:
        raise ValueError("C must be >= 1")
    sizes = Counter(d.n_urls for d in bucket.domains)

    def total(k: int) -> int:
        # downsample_count summed over the domains, m domains of size n at a time
        return sum(m * _reduced_count(n, k, c) for n, m in sizes.items())

    t1 = total(1)
    if t1 > target:
        return CalibrationResult(1, t1, overshoot=True)
    # with C >= 1, K = the largest domain size keeps every URL of every
    # domain, so the largest K whose total fits under the target is at most that
    lo, hi = 1, max(sizes) + 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if total(mid) <= target:
            lo = mid
        else:
            hi = mid
    best_total = total(lo)
    # smallest K reaching that total (ties collapse toward the smallest K)
    lo, hi = 0, lo
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if total(mid) >= best_total:
            hi = mid
        else:
            lo = mid
    return CalibrationResult(hi, best_total, overshoot=False)


def select_urls(domain: DomainCount | PackedDomain, k: int, seed: int) -> list[str]:
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

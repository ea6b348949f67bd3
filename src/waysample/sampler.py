"""Sampling mathematics for the URL pipeline.

Skip-list index sampling, the inclusion-probability model, first-capture
year bucketing (with the 1996-2000 merge and pre-1996 rejection), missing
root-URL upsampling, popular-domain reintegration, long-tail reduction,
logarithmic downsampling with K calibration, and deterministic per-domain
URL selection. Bucketing and the missing roots keep their rows in
``spill.SpillSort``s, in bounded memory whatever the number of rows or the
size of any domain. Every random stream derives from (seed, domain), so
parallel scheduling cannot change results. The ``sample`` and
``reintegrate`` stages run them.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import sys
from collections import Counter, deque, namedtuple
from contextlib import closing
from itertools import compress, islice, repeat
from typing import IO, Callable, Iterable, Iterator

from .cdx import Timestamp14
from .spill import SpillSort
from .surt import CanonicalUrl, SurtError, domain_key, parse_url

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

    @property
    def has_root(self) -> bool:
        return first_root(self.urls) is not None


# a domain, its URL count, whether one is a root, and its URL texts in text order, read once
StreamedDomain = namedtuple("StreamedDomain", "domain n_urls has_root urls")


def is_root(text: str) -> bool:
    """Whether a canonical URL text is a root: scheme://host/, where a host holds no "/"."""
    return text[-1] == "/" and text.count("/") == 3


def first_root(texts: Iterable[str]) -> str | None:
    """The first root URL among canonical URL texts."""
    return next(filter(is_root, texts), None)


class YearBucket(namedtuple("YearBucket", "label domains")):
    """A bucket label and the list of its DomainCounts."""

    __slots__ = ()

    @property
    def n_domains(self) -> int:
        return len(self.domains)


def skip_sample(records: Iterable, interval: int, phase: int = 0) -> Iterator:
    """Emit stream items at positions congruent to phase modulo interval."""
    if interval < 1:
        raise ValueError("interval must be >= 1")
    if not (0 <= phase < interval):
        raise ValueError("phase must satisfy 0 <= phase < interval")
    return islice(records, phase, None, interval)


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
    SpillSort of the ``min`` fold: memory is its budget, whatever the number
    of rows or the size of any domain. A row is a key of its bucket label,
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

    def buckets(self) -> Iterator[tuple[str, Counter, Iterator[StreamedDomain]]]:
        """Each bucket's label, how many of its domains hold each number of
        URLs, and its StreamedDomains: in label and then domain-key order,
        each domain's URLs in text order. The sorted rows are read twice, a
        URL at a time. The first read, before the first bucket is yielded,
        writes each domain's URL count and root flag to an anonymous side
        file in ``spill_dir``, which the second read takes in step."""
        import tempfile  # imported here, as in spill

        sizes = {}
        with tempfile.TemporaryFile(dir=self.spill_dir) as side:
            for label, domains in self.groups(decode=False):
                sizes[label] = bucket_sizes = Counter()
                for _, urls in domains:
                    n = root = 0
                    for n, url in enumerate(urls, 1):  # is_root on the bytes: "/" is one byte
                        root = root or url[-1:] == b"/" and url.count(b"/") == 3
                    bucket_sizes[n] += 1
                    side.write(b"%d %d\n" % (n, root))
            side.seek(0)
            for label, domains in self.groups():
                records = islice(side, sizes[label].total())
                yield label, sizes[label], (
                    StreamedDomain(name, int(n), root == b"1", urls)
                    for (name, urls), (n, root) in zip(domains, map(bytes.split, records)))
                deque(records, 0)  # the side lines of any domain left unread


def bucket_by_first_year(entries: Iterable[tuple[CanonicalUrl, Timestamp14]],
                         spill_dir: str | None = None) -> BucketingResult:
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
        return BucketingResult([YearBucket(label, [DomainCount(d.domain, list(d.urls))
                                                   for d in domains])
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


def reintegrate_popular(domain: str, candidate_urls: Iterable[str],
                        first_captures: Callable[[list[str]], Iterator[Timestamp14 | None]],
                        years: list[int], per_year_min: int, seed: int) -> ReintegrationResult:
    """Randomly draw candidate URL texts without replacement until every
    requested year has at least per_year_min URLs, resolving each draw's
    first-capture year through ``first_captures``, a generator. It maps the
    draws to their first captures (None where there is none) in draw order;
    it may look ahead of the draw being read, and it is closed once the
    quotas are met.

    If the pool runs out first, the partial result names the unmet years.
    """
    if per_year_min < 1:
        raise ValueError("per_year_min must be >= 1")
    rng = random.Random(f"{seed}|reintegrate|{domain}")
    pool = list(candidate_urls)
    rng.shuffle(pool)
    wanted = set(years)
    per_year: dict[int, list[str]] = {y: [] for y in years}
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
                   keep_fraction: float, seed: int) -> tuple[int, Iterator[bool]]:
    """The long-tail rule: when a bucket holds more than ``threshold``
    domains, ``n_singles`` of them with one URL, it keeps a uniform
    ``keep_fraction`` of those singles, rounded. Returns how many it keeps
    and whether it keeps each single, in domain-key order: by selection
    sampling (Knuth, TAOCP vol. 2, §3.4.2, Algorithm S) where the rule
    applies, which keeps a single with probability (singles left to keep) /
    (singles left), so each subset of that size is equally likely, in O(1) memory."""
    if n_domains <= threshold or not n_singles:
        return n_singles, repeat(True, n_singles)
    kept = round(n_singles * keep_fraction)
    return kept, _selection_sample(n_singles, kept, random.Random(f"{seed}|tail|{label}").random)


def _selection_sample(n: int, m: int, uniform: Callable[[], float]) -> Iterator[bool]:
    for left in range(n, 0, -1):
        keep = uniform() * left < m
        m -= keep
        yield keep


def reduce_long_tail(bucket: YearBucket, threshold: int, keep_fraction: float,
                     seed: int) -> YearBucket:
    """``bucket`` without the single-URL domains that the long-tail rule
    (tail_survivors) drops."""
    singles = sorted(d.domain for d in bucket.domains if d.n_urls == 1)
    kept, keep = tail_survivors(bucket.label, bucket.n_domains, len(singles), threshold,
                                keep_fraction, seed)
    if kept == len(singles):
        return bucket
    kept_names = set(compress(singles, keep))
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


def select_urls(domain: DomainCount | StreamedDomain, k: int, seed: int) -> list[str]:
    """Pick k URLs from a domain, reading its URLs once, in text order: its
    first root URL always included when it has one, the rest chosen by
    single-pass reservoir selection (Algorithm R), which needs only n, k and
    whether there is a root before the first URL.

    Deterministic under a fixed seed regardless of scheduling.
    """
    if k == 0:
        raise ValueError("k must be >= 1 (C >= 1 forbids zero selections)")
    if k > domain.n_urls:
        raise ValueError(f"k={k} exceeds domain URL count {domain.n_urls}")
    # when every URL is kept the reservoir takes them in order and never draws
    rng = random.Random(f"{seed}|select|{domain.domain}") if k < domain.n_urls else None
    has_root = looking = domain.has_root  # looking for the first root, which is selected
    remaining = k - has_root
    reservoir: list[str] = []
    seen = 0
    for url in domain.urls:
        if looking and is_root(url):
            root, looking = url, False
            continue
        if seen < remaining:
            reservoir.append(url)
        else:
            j = rng.randrange(seen + 1)
            if j < remaining:
                reservoir[j] = url
        seen += 1
    return [root] + reservoir if has_root else reservoir


def sample_bucket(label: str, sizes: Counter, domains: Iterable[StreamedDomain], cfg,
                  fh: IO[str]) -> dict:
    """Write a bucket's sample to ``fh``, a URL a line, and return its
    manifest entry: the long-tail rule (tail_survivors) over its single-URL
    domains, K calibrated over the sizes it leaves, and select_urls' reduced
    count from each domain it keeps, in domain-key order, under ``cfg``."""
    kept, keep = tail_survivors(label, sizes.total(), sizes[1], cfg.tail_threshold,
                                cfg.tail_keep_fraction, cfg.seed)
    reduced = Counter({**sizes, 1: kept})  # the sizes the tail rule leaves
    if reduced.total():
        calibration = calibrate_sizes(reduced, cfg.c, cfg.target)
        params = DownsampleParams(k=calibration.k, c=cfg.c)
    else:  # the tail rule drops every domain, each a single: no K to find
        calibration = CalibrationResult(None, 0, overshoot=False)
    selected = with_root = 0
    for domain in domains:
        with_root += domain.has_root
        if domain.n_urls > 1:
            k = downsample_count(domain.n_urls, params)
            fh.write("\n".join(select_urls(domain, k, cfg.seed)) + "\n")
            selected += k
        elif next(keep):  # a single the tail rule keeps, kept whole as select_urls would keep it
            fh.write(next(domain.urls) + "\n")
            selected += 1
    return {"label": label, "domains": sizes.total(), "domains_with_root": with_root,
            "domains_after_tail": reduced.total(), "urls": sum(n * m for n, m in sizes.items()),
            "k": calibration.k, "calibrated_total": calibration.total,
            "overshoot": calibration.overshoot, "selected": selected}


def _bucket_rows(stage, args, buckets: FirstYearBuckets) -> None:
    """Add each archived row of ``--first-captures`` whose URL parses to
    ``buckets``, the byte ranges split over CPUs, then the root of each host
    seen only through deep links that ``--endpoint`` finds archived, at its
    first capture."""
    from . import partition  # imported here: reintegrate, which shares this module, splits nothing
    counts = stage.counts

    def add_rows(source, buckets, missing) -> None:
        for url_text, first_capture in stage.first_captures(source):
            try:
                url = parse_url(url_text)
            except SurtError:
                counts["unparseable"] += 1
                continue
            counts["input"] += 1
            missing.add(url)
            if buckets.add(url, first_capture) is None:
                counts["dropped_pre_1996"] += 1

    with MissingRoots(args.out_dir) as missing:
        partition.split(counts, args.first_captures, add_rows, buckets, missing,
                        spill_dir=args.out_dir)
        roots = missing.roots()
        if not stage.cfg.endpoint:
            counts["missing_roots"] = sum(1 for _ in roots)
            return
        cdx_client = stage.client
        for root, record, error in cdx_client.map(
                lambda root: cdx_client.fetch_first_record(root.text), roots):
            counts["missing_roots"] += 1
            counts["roots_added" if record else
                   "root_errors" if error else "roots_unarchived"] += 1
            if record is not None and buckets.add(root, record.timestamp) is None:
                counts["dropped_pre_1996"] += 1


def cmd_sample(stage, args) -> None:
    cfg, counts = stage.cfg, stage.counts
    os.makedirs(args.out_dir, exist_ok=True)
    stage.manifest = args.manifest or os.path.join(args.out_dir, "manifest.json")
    counts.update(input=0, dropped_pre_1996=0, missing_roots=0, roots_added=0,
                  roots_unarchived=0, root_errors=0)
    # the sorted rows spill to anonymous files in the out-dir
    with FirstYearBuckets(args.out_dir) as buckets:
        _bucket_rows(stage, args, buckets)
        reports = counts["buckets"] = []
        counts["selected_total"] = 0
        for label, sizes, domains in buckets.buckets():
            with stage.open(os.path.join(args.out_dir, f"bucket_{label}.txt"), "w") as fh:
                reports.append(sample_bucket(label, sizes, domains, cfg, fh))
            counts["selected_total"] += reports[-1]["selected"]


def cmd_reintegrate(stage, args) -> None:
    cfg, cdx_client = stage.cfg, stage.client
    first, last = args.years
    years = list(range(first, last + 1))
    candidates = [url.text for url in stage.parsed_urls(args.input)]  # texts are smaller
    # the draws whose first capture the quota loop read, and those of them whose lookup
    # failed, read as no capture; not the look-ahead lookups, whose number is the timing's
    stage.counts.update(lookups=0, lookup_errors=0)

    def lookup(url: str) -> Timestamp14 | None:
        record = cdx_client.fetch_first_record(url)
        return record.timestamp if record else None

    def first_captures(draws: list[str]):
        with closing(cdx_client.map(lookup, draws)) as results:
            for _, first, error in results:
                stage.counts["lookups"] += 1
                stage.counts["lookup_errors"] += error is not None
                yield first

    result = reintegrate_popular(
        args.domain, candidates, first_captures, years, cfg.per_year_min, cfg.seed)
    with stage.open(args.output, "w") as fout:
        for year in years:
            for url in result.per_year[year]:
                fout.write(f"{year}\t{url}\n")
    if result.exhausted:
        print(f"candidate pool exhausted before quotas met for years: "
              f"{result.unmet_years}", file=sys.stderr)
    stage.counts.update(
        candidates=len(candidates),
        per_year={y: len(result.per_year[y]) for y in years},
        unmet_years=result.unmet_years,
    )

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

import heapq
import math
import random
from collections import Counter, namedtuple
from contextlib import closing
from itertools import groupby, repeat
from operator import itemgetter
from typing import IO, Callable, Generator, Iterable, Iterator

from .cdx import Timestamp14
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
    """A domain and the list of its distinct URL texts in first-occurrence order."""

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


# Sorted spill runs. A line is fields joined by SEP, each NUL in a field written
# as NUL STX, and ends in a newline, which no canonical text holds (parse_url
# drops tabs and newlines). SEP sorts below every written character, so lines
# sort as UTF-8 bytes exactly as the tuples of their fields do as strings.
RUN_BYTES = 512 * 1024  # line bytes a run holds before it is sorted into a file
FAN_IN = 16  # this many files of one merge level are merged into one of the next
SEP = b"\0\1"


def _field(text: str) -> str:
    return text.replace("\0", "\0\2")


def _text(field: bytes) -> str:
    return field.decode().replace("\0\2", "\0")


class SpillSort:
    """Lines of a key and a number, in sorted order, however many, with at
    most RUN_BYTES of them held in memory.

    ``add(key, number)`` takes the line ``key``, SEP, ``number`` in 12
    (``digits``) zero-padded digits and a newline; ``key`` is its fields.
    Of the lines added with one key, only the one with the least number is
    kept: a run keeps it, and every merge drops the others. A run whose
    lines reach RUN_BYTES is sorted into an anonymous temporary file in
    ``spill_dir``, which vanishes when it is closed or the process ends,
    killed or not; ``tempfile`` is imported at the first. FAN_IN files of
    one merge level are merged into one file of the next, so a few dozen
    files are open at most. ``lines()`` yields the kept lines, one per key,
    in sorted order, and may be called again; its first call ends the
    adding, and merges any files and the last run into one file.
    """

    digits = 12

    def _reduce(self, keys: Iterable[tuple[bytes, Iterator[bytes]]]) -> Iterator[bytes]:
        """The line a merge keeps of each key's lines: the first, of the least number."""
        return map(next, map(itemgetter(1), keys))

    def __init__(self, spill_dir: str | None = None):
        self.spill_dir = spill_dir
        self._run: dict[bytes, int] = {}
        self._run_bytes = 0
        self._keys: list[bytes] | None = None  # the last run's keys, sorted by lines()
        self._files: list[tuple[int, IO[bytes]]] = []  # (merge level, file), oldest first

    def __enter__(self) -> SpillSort:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        while self._files:
            self._files.pop()[1].close()

    def add(self, key: bytes, number: int) -> None:
        run = self._run
        kept = run.get(key)
        if kept is None:
            run[key] = number
            self._run_bytes += len(key) + 3 + self.digits  # SEP, the digits and a newline
            if self._run_bytes >= RUN_BYTES:
                self._run, self._run_bytes = {}, 0
                self._write(_lines(run, sorted(run), self.digits), 0)
        elif number < kept:
            run[key] = number

    def _write(self, lines: Iterable[bytes], level: int) -> None:
        import tempfile  # imported here: a sort that fits its budget writes no file

        fh = tempfile.TemporaryFile(dir=self.spill_dir)
        self._files.append((level, fh))
        fh.writelines(lines)
        if len(self._files) >= FAN_IN and self._files[-FAN_IN][0] == level:
            # levels fall along the list, so the last FAN_IN files are all of this level
            self._merge(FAN_IN, (), level + 1)

    def _merge(self, n: int, run: Iterable[bytes], level: int) -> None:
        """Merge the newest ``n`` files and the sorted ``run`` into one file."""
        merged = [fh for _, fh in self._files[-n:]]
        del self._files[-n:]
        try:
            # the lines of a key sort together, least number first; the key is
            # the line without SEP, the digits and a newline
            keys = groupby(heapq.merge(*map(_reread, merged), run),
                           key=itemgetter(slice(None, -3 - self.digits)))
            self._write(self._reduce(keys), level)
        finally:
            for fh in merged:
                fh.close()

    def lines(self) -> Iterator[bytes]:
        if self._keys is None:
            self._keys = sorted(self._run)
            if self._files:  # into one file, so that each read goes without a heap
                self._merge(len(self._files), _lines(self._run, self._keys, self.digits), 0)
                self._run, self._keys = {}, []
        if self._files:
            return _reread(self._files[0][1])
        return _lines(self._run, self._keys, self.digits)


class SpillCount(SpillSort):
    """Texts and two counts of each, in text order, in SpillSort's memory: a
    line's number, in 24 digits, is the first count times FIRST plus the
    second, and a run, and every merge, adds up the numbers of a key.
    Iterating gives each text's (first, second) counts, again each time."""

    digits = 24
    FIRST = 10 ** 12

    def count(self, texts: Iterable[str], first: bool) -> None:
        """Count each of ``texts`` once, in the first count or the second."""
        self._add_all(map(str.encode, map(_field, texts)), self.FIRST if first else 1)

    def _add_all(self, keys: Iterable[bytes], number: int) -> None:
        run = self._run
        for key in keys:
            if key in run:
                run[key] += number
            else:  # a new key, which may fill the run
                self.add(key, number)
                run = self._run

    def _reduce(self, keys: Iterable[tuple[bytes, Iterator[bytes]]]) -> Iterator[bytes]:
        for key, lines in keys:
            line = next(lines)
            for other in lines:  # the key's lines from other runs
                line = b"%s\0\1%024d\n" % (key, int(line[-25:]) + int(other[-25:]))
            yield line

    def __iter__(self) -> Iterator[tuple[int, int]]:
        numbers = map(int, map(itemgetter(slice(-25, None)), self.lines()))
        return map(divmod, numbers, repeat(self.FIRST))

    def rows(self, least: int = 0) -> Iterator[tuple[str, int, int]]:
        """(text, first, second) of the texts whose first count is at least ``least``."""
        floor = b"%012d" % least  # compared with the first 12 of the 24 digits
        for line in self.lines():
            if line[-25:-13] >= floor:
                key, number = line.split(SEP)
                yield (_text(key), *divmod(int(number), self.FIRST))

    def tallies(self) -> tuple[Counter, Counter]:
        """How many texts have each first count, and each second count."""
        return tuple(Counter({int(n): m for n, m in Counter(map(part, self.lines())).items()})
                     for part in (itemgetter(slice(-25, -13)), itemgetter(slice(-13, None))))


def _lines(run: dict[bytes, int], keys: list[bytes], digits: int) -> Iterator[bytes]:
    """The lines of ``run`` in the order of ``keys``: SEP sorts below any key
    character, so sorted keys give sorted lines."""
    return (b"%s\0\1%0*d\n" % (key, digits, run[key]) for key in keys)


def _reread(fh: IO[bytes]) -> Iterator[bytes]:
    fh.seek(0)
    return iter(fh)


class FirstYearBuckets:
    """The distinct URLs of each first-capture year bucket, by domain, as
    sorted spill runs: memory is SpillSort's budget plus the largest domain,
    whatever the number of rows. A row is a line of its bucket label, domain
    key, URL text and zero-padded row number; of a repeat in a bucket, the
    line of its first row is kept, and the row numbers restore
    first-occurrence order."""

    def __init__(self, spill_dir: str | None = None):
        self._rows = 0  # rows added, pre-1996 ones included
        self.dropped_pre_1996 = 0
        self._lines = SpillSort(spill_dir)
        self._add = self._lines.add
        self._labels: dict[str, str | None] = {}  # year_bucket_label by the year's digits

    def __enter__(self) -> FirstYearBuckets:
        return self

    def __exit__(self, *exc) -> None:
        self._lines.close()

    def add(self, url: CanonicalUrl, first_capture: Timestamp14) -> None:
        year = first_capture.raw[:4]
        label = self._labels.get(year, False)
        if label is False:
            label = self._labels[year] = year_bucket_label(int(year))
        if label is None:
            self.dropped_pre_1996 += 1
        else:
            text, domain = url.text, domain_key(url.host)
            if "\0" in text:  # the domain key is part of the text
                text, domain = _field(text), _field(domain)
            self._add(f"{label}\0\1{domain}\0\1{text}".encode(), self._rows)
        self._rows += 1

    def buckets(self) -> Iterator[tuple[str, Counter, Iterator[DomainCount]]]:
        """Each bucket's label, how many of its domains hold each number of
        URLs, and its domains: in label and then domain-key order, each
        domain's URLs in first-occurrence order. The sizes of every bucket
        take one pass over the sorted lines, before the first is yielded,
        and the domains a second."""
        sizes = {label: Counter(len(list(rows)) for _, rows in domains)
                 for label, domains in self._groups(2)}
        for label, domains in self._groups(-1):
            yield label.decode(), sizes[label], map(_domain, domains)

    def _groups(self, maxsplit: int) -> Iterator[tuple[bytes, Iterator]]:
        """Each label field and its domains: a domain key field and the
        fields of its lines (label, domain key, URL text, row number), split
        at most ``maxsplit`` times; the counting pass needs only the first two."""
        # map calls bytes.split without the argument tuple methodcaller builds per line
        rows = map(bytes.split, self._lines.lines(), repeat(SEP), repeat(maxsplit))
        for label, rows_of_label in groupby(rows, key=itemgetter(0)):
            yield label, groupby(rows_of_label, key=itemgetter(1))


def _domain(group: tuple[bytes, Iterable[list[bytes]]]) -> DomainCount:
    """A DomainCount from a domain key field and the fields of its lines,
    their URL texts put in row order, which is first-occurrence order."""
    domain, rows = group
    urls = list(rows)
    if len(urls) > 1:
        urls.sort(key=itemgetter(3))
    texts = b"\n".join(map(itemgetter(2), urls)).decode()
    del urls  # before the split, so that a large domain is held once at a time
    if "\0" in texts:
        texts = texts.replace("\0\2", "\0")
    return DomainCount(_text(domain), texts.split("\n"))


def bucket_by_first_year(
    entries: Iterable[tuple[CanonicalUrl, Timestamp14]],
    spill_dir: str | None = None,
) -> BucketingResult:
    """Group URLs by first-capture year: pre-1996 dropped and counted,
    1996-2000 merged into one bucket, each later year on its own. Buckets
    are in label order, their domains in domain-key order, and the URLs of a
    domain in first-occurrence order. ``entries`` is read once, and a URL is
    kept as its text, which determines it (the host holds no ``/`` or ``?``,
    the path no ``?``, a query is never ``""``), so duplicate texts are
    exactly duplicate URLs. Spill files, if any, go in ``spill_dir``."""
    with FirstYearBuckets(spill_dir) as buckets:
        for url, first_capture in entries:
            buckets.add(url, first_capture)
        return BucketingResult([YearBucket(label, list(domains))
                                for label, _, domains in buckets.buckets()],
                               buckets.dropped_pre_1996)


class MissingRoots:
    """One root URL per host seen only through deep links, in the order of
    each host's first deep link; ``add`` takes one URL at a time.

    Each URL is a sorted spill line of its host and a number: 0 for a root,
    and for a deep link twice its row number plus 1 for http or 2 for https.
    SpillSort keeps a host's line with the least number, which says whether
    it has a root and, if not, gives its first deep link's row and scheme;
    ``roots`` sorts those by row.
    """

    def __init__(self, spill_dir: str | None = None):
        self.spill_dir = spill_dir
        self._rows = 0  # URLs added
        self._lines = SpillSort(spill_dir)
        self._add = self._lines.add

    def __enter__(self) -> MissingRoots:
        return self

    def __exit__(self, *exc) -> None:
        self._lines.close()

    def add(self, url: CanonicalUrl) -> None:
        scheme, host, path, query = url
        if "\0" in host:
            host = _field(host)
        if path == "/" and query is None:
            self._add(host.encode(), 0)
        else:
            self._add(host.encode(), 2 * self._rows + (1 if scheme == "http" else 2))
        self._rows += 1

    def roots(self) -> Iterator[CanonicalUrl]:
        with SpillSort(self.spill_dir) as by_row:
            for line in self._lines.lines():
                host, number = line.split(SEP)
                if int(number):
                    by_row.add(number[:-1] + SEP + host, 0)
            for line in by_row.lines():
                number, host, _ = line.split(SEP)
                yield CanonicalUrl("http" if int(number) % 2 else "https", _text(host), "/", None)


def extract_missing_roots(urls: Iterable[CanonicalUrl]) -> list[CanonicalUrl]:
    """One root URL per host that appears only via deep links."""
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

    The total is nondecreasing in K, so binary search applies. If even
    K = 1 overshoots the target, K = 1 is returned with the overshoot
    flag set. Each probe costs one step per distinct domain size.
    """
    if not any(sizes.values()):
        raise ValueError("bucket has no domains")
    if c < 1:
        raise ValueError("C must be >= 1")

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

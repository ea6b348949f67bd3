"""Command-line pipeline: composable subcommands over files.

    filter      classify URL validity / aliases / wildcard flags
    classify    likely-HTML heuristic per URL
    fetch-first first-capture timestamp + MIME via the CDX API
    sample      bucket, tail-reduce, calibrate, downsample, select
    reintegrate randomized per-year quotas for a popular domain
    fetch       full TimeMaps via the pagination API (resumable)
    rehydrate   restore revisit statuses across a TimeMap directory
    stats       CSV reports (histograms, CCDFs, top domains, correlation)

Each subcommand writes a JSON run manifest recording parameters, seeds,
and per-stage counts so composed stages can be audited end to end.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
import time
from collections import Counter, deque
from contextlib import ExitStack, closing, contextmanager
from typing import TYPE_CHECKING, Callable, Iterable, Iterator
from urllib.parse import quote

from . import urlfilter
from .cdx import (
    CdxParseError,
    Timestamp14,
    atomic_open,
    count_timemap,
    parse_timestamp,
)
from .config import PipelineConfig
from .surt import CanonicalUrl, SurtError, parse_host, parse_url, surt_text_for_url

if TYPE_CHECKING:
    from . import sampler
    from .client import ArchiveClient


class Stage:
    """The plumbing every subcommand shares.

    It loads the config file, overridden by every parsed flag whose dest
    names a config field; builds the CDX client of a subcommand that takes
    ``--endpoint``, when an endpoint is configured, and streams its attempts
    to ``--log``; keeps the outcome counts; opens ``-`` as stdin or stdout
    without closing it; and, once the subcommand returns or fails, writes the
    manifest. Before the subcommand opens any file, it raises ``ValueError``
    for an unusable config or client setting and ``OSError`` for a
    ``--config`` or ``--log`` that cannot be opened, or for a ``--manifest``
    whose directory neither exists nor is made with the stage's ``--out-dir``.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = PipelineConfig.load(args.config, {
            name: getattr(args, name, None) for name in PipelineConfig._fields})
        self.params = self.cfg.to_dict()
        self.counts: dict = {}
        self.manifest = args.manifest
        if self.manifest:  # its directory is there, or is made with the stage's --out-dir
            where = os.path.dirname(os.path.abspath(self.manifest))
            made = os.path.abspath(getattr(args, "out_dir", None) or ".")
            if os.path.commonpath([where, made]) != where:
                os.stat(where)  # a FileNotFoundError naming the directory if it is not there
        self._client: ArchiveClient | None = None
        self._resources = ExitStack()  # the client and its log, closed by finish
        if hasattr(args, "endpoint") and self.cfg.endpoint:
            # imported here: it loads socket and queue, which offline stages do without
            from . import client as client_mod
            self._client = self._resources.enter_context(client_mod.ArchiveClient(
                base_url=self.cfg.endpoint,
                retry=client_mod.RetryPolicy(max_attempts=self.cfg.retry_cap,
                                             backoff_base=self.cfg.backoff_base),
                politeness_limit=self.cfg.politeness_limit,
                request_delay=self.cfg.request_delay,
                storage_dir=self.cfg.storage_dir,
            ))
            # the one output streamed to its final path rather than published
            # whole: line-buffered, so that a killed stage keeps each line
            if getattr(args, "log", None):
                log = self._resources.enter_context(
                    open(args.log, "w", encoding="utf-8", buffering=1))
                self._client.log = lambda entry: log.write(entry.to_tsv_line() + "\n")
        self._started = time.monotonic()

    @property
    def client(self) -> ArchiveClient:
        if self._client is None:
            raise SystemExit("configuration error: no CDX endpoint configured")
        return self._client

    @contextmanager
    def open(self, path: str | tuple[str, int, int], mode: str = "r"):
        """``path`` as UTF-8 text in which a byte that is not UTF-8 reads as a
        lone surrogate and is written back as that byte. A file written is
        published whole by ``atomic_open`` when the block ends, or not at all.
        A ``(path, start, end)`` that ``partition.split`` gives reads those
        bytes of it."""
        if path == "-":
            stream = sys.stdin if mode == "r" else sys.stdout
            if isinstance(stream, io.TextIOWrapper) and stream.errors != "surrogateescape":
                stream.reconfigure(errors="surrogateescape")  # before its first read
            yield stream
        elif isinstance(path, tuple):
            from .partition import read_range

            with read_range(*path) as fh:
                yield fh
        else:
            with (open(path, encoding="utf-8", errors="surrogateescape") if mode == "r"
                  else atomic_open(path, mode)) as fh:
                yield fh

    def urls(self, path: str) -> Iterator[str]:
        """The non-blank lines of ``path``, stripped; each counts as ``input``."""
        self.counts.setdefault("input", 0)
        with self.open(path) as fh:
            for line in fh:
                url = line.strip()
                if url:
                    self.counts["input"] += 1
                    yield url

    def map_urls(self, fn: Callable, items: Iterable, key: Callable | None = None) -> Iterator:
        """Yield ``(item, fn(item), None)`` for each of ``items``, in input
        order, running ``fn`` on ``politeness_limit`` threads with at most four
        times that many items in flight. A ``FetchError`` from ``fn`` yields
        ``(item, None, error)``. Items with the same ``key`` other than None
        run one after another, in input order.

        Any other exception from ``fn``, or closing the generator, cancels the
        items not yet started and waits for the running ones to end.
        """
        # imported here: they load logging and socket, which the offline stages do without
        from concurrent.futures import ThreadPoolExecutor

        from . import client as client_mod

        window: deque = deque()  # (item, key, future or None), in input order
        pool = ThreadPoolExecutor(self.cfg.politeness_limit)

        def call(item) -> tuple:
            try:
                return item, fn(item), None
            except client_mod.FetchError as exc:  # its traceback would hold fn's data
                return item, None, exc.with_traceback(None)

        def oldest() -> tuple:
            item, _, future = window.popleft()
            # an item whose key was in the window when it came in runs here, after the others
            return future.result() if future else call(item)

        try:
            for item in items:
                k = key(item) if key else None
                held = k is not None and any(k == other for _, other, _ in window)
                window.append((item, k, None if held else pool.submit(call, item)))
                if len(window) >= 4 * self.cfg.politeness_limit:
                    yield oldest()
            while window:
                yield oldest()
        finally:
            pool.shutdown(cancel_futures=True)

    def finish(self, status: str) -> None:
        """Close the client and its ``--log``, if a client was built, and write the manifest."""
        self._resources.close()
        if self.manifest:
            manifest = {
                "stage": self.args.command,
                "status": status,
                "params": self.params,
                "counts": self.counts,
                "elapsed_seconds": round(time.monotonic() - self._started, 3),
            }
            with atomic_open(self.manifest) as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")


def _parse_urls(stage: Stage, path: str, parse: Callable = parse_url) -> Iterator:
    """The URLs that ``stage.urls`` reads from ``path``, each counted as
    ``input``, that ``parse`` (``parse_url`` or ``parse_host``) takes, as it
    returns them; the others count as ``unparseable``."""
    counts = stage.counts
    counts.setdefault("unparseable", 0)
    for text in stage.urls(path):
        try:
            yield parse(text)
        except SurtError:
            counts["unparseable"] += 1


def timemap_filename(url: str) -> str:
    """Filesystem-safe TimeMap filename: the URL's quoted SURT key. A name over
    200 bytes becomes its first 131, ``+`` (which quoting never gives), the
    SHA-256 hex digest of the key and ``.cdx``: 200 bytes, so the temporary
    suffix that ``atomic_open`` adds still fits in a 255-byte name."""
    name = quote(surt_text_for_url(url), safe="") + ".cdx"
    if len(name) <= 200:
        return name
    import hashlib  # imported here: it adds 3.4 MB to every stage's RSS, and few names need it
    return f"{name[:131]}+{hashlib.sha256(name[:-4].encode()).hexdigest()}.cdx"


# ---------------------------------------------------------------------------


def cmd_filter(stage: Stage, args) -> None:
    from . import partition  # imported here: the stages that split no input do without it

    counts = stage.counts
    counts.update(valid=0, invalid=0)

    def line(url: str) -> str:
        v = urlfilter.verdict(url)
        counts["valid" if v.valid else "invalid"] += 1
        return v.to_tsv_line() + "\n"

    partition.url_lines(stage, args, line)


def cmd_classify(stage: Stage, args) -> None:
    from . import partition

    counts = stage.counts
    counts.update(likely_html=0, other=0)

    def line(url: str) -> str:
        try:
            heuristic = urlfilter.classify_likely_html(parse_url(url))
        except SurtError:
            heuristic = None
        counts["likely_html" if heuristic else "other"] += 1
        return f"{url}\t{heuristic.value if heuristic else '-'}\n"

    partition.url_lines(stage, args, line)


def _fetchable(url: str) -> bool:
    """The URLs fetch-first and fetch query: with a SURT key, no trailing wildcard."""
    return urlfilter.is_valid_url(url) and not urlfilter.detect_wildcard(url)


def cmd_fetch_first(stage: Stage, args) -> None:
    cdx_client = stage.client
    counts = stage.counts
    counts.update(archived=0, empty=0, skipped=0, error=0)

    def first_capture_row(url: str) -> tuple[str, str]:
        if not _fetchable(url):
            return "skipped", "-\t-\tskipped"
        record = cdx_client.fetch_first_record(url)
        if record is None:
            return "empty", "-\t-\tempty"
        return "archived", f"{record.timestamp.raw}\t{record.mime}\tok"

    with stage.open(args.output, "w") as fout:
        for url, row, _ in stage.map_urls(first_capture_row, stage.urls(args.input)):
            outcome, columns = row or ("error", "-\t-\terror")
            counts[outcome] += 1
            fout.write(f"{url}\t{columns}\n")


def _read_first_captures(stage: Stage, path: str) -> Iterator[tuple[str, Timestamp14]]:
    """The URL text and first capture of each archived row of a fetch-first
    TSV; rows without a capture count as ``no_capture``, rows whose timestamp
    does not parse as ``unparseable``. The URL is left to the caller to parse.
    A row without a tab is a ``CdxParseError`` naming the file and its line."""
    counts = stage.counts
    counts.setdefault("no_capture", 0)
    counts.setdefault("unparseable", 0)
    with stage.open(path) as fh:
        for i, line in enumerate(fh):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t", 2)
            if len(fields) < 2:
                raise CdxParseError("expected at least url<TAB>timestamp", i + 1, fh.name)
            url_text, ts = fields[0], fields[1]
            if ts == "-":
                counts["no_capture"] += 1
                continue
            try:
                first_capture = parse_timestamp(ts)
            except CdxParseError:
                counts["unparseable"] += 1
                continue
            yield url_text, first_capture


def _bucket_rows(stage: Stage, args, buckets: sampler.FirstYearBuckets) -> None:
    """Add each archived row of ``--first-captures`` whose URL parses to
    ``buckets``, the byte ranges split over CPUs, then the root of each host
    seen only through deep links that ``--endpoint`` finds archived, at its
    first capture."""
    from . import partition, sampler

    counts = stage.counts

    def add_rows(source, buckets, missing) -> None:
        for url_text, first_capture in _read_first_captures(stage, source):
            try:
                url = parse_url(url_text)
            except SurtError:
                counts["unparseable"] += 1
                continue
            counts["input"] += 1
            missing.add(url)
            if buckets.add(url, first_capture) is None:
                counts["dropped_pre_1996"] += 1

    with sampler.MissingRoots(args.out_dir) as missing:
        partition.split(counts, args.first_captures, add_rows, buckets, missing,
                        spill_dir=args.out_dir)
        roots = missing.roots()
        if not stage.cfg.endpoint:
            counts["missing_roots"] = sum(1 for _ in roots)
            return
        cdx_client = stage.client
        for root, record, error in stage.map_urls(
                lambda root: cdx_client.fetch_first_record(root.text), roots):
            counts["missing_roots"] += 1
            counts["roots_added" if record else
                   "root_errors" if error else "roots_unarchived"] += 1
            if record is not None and buckets.add(root, record.timestamp) is None:
                counts["dropped_pre_1996"] += 1


def cmd_sample(stage: Stage, args) -> None:
    # imported here, as in reintegrate: the other stages do without its code,
    # which adds to their peak RSS when they compile it from source
    from . import sampler

    cfg, counts = stage.cfg, stage.counts
    os.makedirs(args.out_dir, exist_ok=True)
    stage.manifest = args.manifest or os.path.join(args.out_dir, "manifest.json")
    counts.update(input=0, dropped_pre_1996=0, missing_roots=0, roots_added=0,
                  roots_unarchived=0, root_errors=0)
    # the sorted rows spill to anonymous files in the out-dir
    with sampler.FirstYearBuckets(args.out_dir) as buckets:
        _bucket_rows(stage, args, buckets)
        bucket_reports = counts["buckets"] = []
        counts["selected_total"] = 0
        for label, domain_sizes, domains in buckets.buckets():
            kept = sampler.tail_survivors(label, domain_sizes.total(), domain_sizes[1],
                                          cfg.tail_threshold, cfg.tail_keep_fraction, cfg.seed)
            reduced = domain_sizes.copy()
            if kept is not None:
                reduced[1] = len(kept)
            if reduced.total():
                calibration = sampler.calibrate_sizes(reduced, cfg.c, cfg.target)
                params = sampler.DownsampleParams(k=calibration.k, c=cfg.c)
            else:  # the tail rule drops every domain, each a single: no K to find
                calibration = sampler.CalibrationResult(None, 0, overshoot=False)
            selected = 0
            single = -1  # the domain's position among the bucket's single-URL domains
            with stage.open(os.path.join(args.out_dir, f"bucket_{label}.txt"), "w") as fh:
                for domain in domains:  # in domain-key order
                    n = len(domain.urls)
                    if n == 1:  # kept whole, as select_urls would keep it
                        single += 1
                        if kept is None or single in kept:
                            fh.write(domain.urls[0] + "\n")
                            selected += 1
                        continue
                    k = sampler.downsample_count(n, params)
                    fh.write("\n".join(sampler.select_urls(domain, k, cfg.seed)) + "\n")
                    selected += k
            counts["selected_total"] += selected
            bucket_reports.append({
                "label": label,
                "domains": domain_sizes.total(),
                "domains_after_tail": reduced.total(),
                "urls": sum(n * m for n, m in domain_sizes.items()),
                "k": calibration.k,
                "calibrated_total": calibration.total,
                "overshoot": calibration.overshoot,
                "selected": selected,
            })


def cmd_reintegrate(stage: Stage, args) -> None:
    from . import sampler

    cfg, cdx_client = stage.cfg, stage.client
    first, last = args.years
    years = list(range(first, last + 1))
    candidates = list(_parse_urls(stage, args.input))
    # the draws whose first capture the quota loop read, and those of them whose lookup
    # failed, read as no capture; not the look-ahead lookups, whose number is the timing's
    stage.counts.update(lookups=0, lookup_errors=0)

    def lookup(url: CanonicalUrl) -> Timestamp14 | None:
        record = cdx_client.fetch_first_record(url.text)
        return record.timestamp if record else None

    def first_captures(draws: list[CanonicalUrl]):
        with closing(stage.map_urls(lookup, draws)) as results:
            for _, first, error in results:
                stage.counts["lookups"] += 1
                stage.counts["lookup_errors"] += error is not None
                yield first

    result = sampler.reintegrate_popular(
        args.domain, candidates, first_captures, years, cfg.per_year_min, cfg.seed)
    with stage.open(args.output, "w") as fout:
        for year in years:
            for url in result.per_year[year]:
                fout.write(f"{year}\t{url.text}\n")
    if result.exhausted:
        print(f"candidate pool exhausted before quotas met for years: "
              f"{result.unmet_years}", file=sys.stderr)
    stage.counts.update(
        candidates=len(candidates),
        per_year={y: len(result.per_year[y]) for y in years},
        unmet_years=result.unmet_years,
    )


def cmd_fetch(stage: Stage, args) -> None:
    cdx_client = stage.client
    os.makedirs(args.out_dir, exist_ok=True)
    counts = stage.counts
    counts.update(fetched=0, empty=0, resumed=0, skipped=0, error=0)

    def targets() -> Iterator[tuple[str, str | None]]:
        for url in stage.urls(args.input):
            yield url, (os.path.join(args.out_dir, timemap_filename(url))
                        if _fetchable(url) else None)

    def fetch(target: tuple[str, str | None]) -> str:
        url, path = target
        if path is None:
            return "skipped"
        if os.path.exists(path):
            return "resumed"
        with atomic_open(path) as fh:  # written as each page arrives, renamed after the last
            fh.reconfigure(write_through=True)  # each line encoded as written, not held as text
            cdx_client.fetch_timemap(url, fh)
            return "ok" if fh.tell() else "empty"

    report_path = args.report or os.path.join(args.out_dir, "fetch_report.tsv")
    with stage.open(report_path, "w") as report:
        # URLs sharing a TimeMap file run in input order: the first fetches it
        for (url, _), outcome, _ in stage.map_urls(fetch, targets(),
                                                   key=lambda target: target[1]):
            outcome = outcome or "error"
            counts["fetched" if outcome == "ok" else outcome] += 1
            report.write(f"{url}\t{outcome}\n")


def cmd_rehydrate(stage: Stage, args) -> None:
    from . import timemaps  # imported here, as in sample: the other stages do without its code

    os.makedirs(args.out_dir, exist_ok=True)
    counts = stage.counts
    counts.update(timemaps=0, revisits_resolved=0, revisits_unresolved=0)
    unresolved_path = args.unresolved or os.path.join(args.out_dir, "unresolved.tsv")
    with stage.open(unresolved_path, "w") as unresolved_out:
        for name in sorted(os.listdir(args.in_dir)):
            if not name.endswith(".cdx"):
                continue
            counts["timemaps"] += 1
            with atomic_open(os.path.join(args.out_dir, name)) as out:
                resolved, unresolved = timemaps.rehydrate_file(
                    os.path.join(args.in_dir, name), stage.cfg.cache_capacity, out, unresolved_out)
            counts["revisits_resolved"] += resolved
            counts["revisits_unresolved"] += unresolved


def cmd_stats(stage: Stage, args) -> None:
    from . import partition, stats  # imported here, as in sample; they load spill, not sampler

    os.makedirs(args.out_dir, exist_ok=True)
    counts = stage.counts
    stage.params["top_n"] = args.top_n
    tables = {}  # CSV name: header and rows, written once every input has been read

    if args.first_captures:
        # the year histograms of the file's byte ranges, added up
        histogram = sum(map(Counter, partition.split(counts, args.first_captures, lambda source: (
            stats.year_histogram(_read_first_captures(stage, source))))), Counter())
        tables["first_capture_years.csv"] = "year,count", sorted(histogram.items())
        counts["first_capture_years"] = histogram.total()

    lists = {"pre": (args.urls, ""), "post": (args.sampled, "_sampled")}
    # counted in sorted runs that spill to anonymous files in the out-dir
    with stats.DomainCounts(args.out_dir) as domains:
        for (path, _), weights in zip(lists.values(), ((1, 0), (0, 1))):
            if path:
                partition.split(counts, path, lambda source, part: stats.domain_counts(
                    part, _parse_urls(stage, source, parse_host), *weights),
                    domains, spill_dir=args.out_dir)
        tallies = dict(zip(lists, domains.tallies()))
        for which, (path, suffix) in lists.items():
            if path:
                del tallies[which][0]  # the domains of the other list only
                tables[f"urls_per_domain_ccdf{suffix}.csv"] = (
                    "urls_per_domain,percent_of_domains", stats.ccdf_points(tallies[which]))
                counts[f"domains_{which}"] = tallies[which].total()
        if args.urls and args.sampled:
            top = stats.top_domains(domains, tallies["pre"], args.top_n)
            tables["top_domains.csv"] = "rank,domain,urls_pre,urls_post", [
                (rank, *row) for rank, row in enumerate(top, 1)]
            r = stats.rank_correlation(domains)
            tables["rank_correlation.csv"] = "pearson_r_of_ranks", [(f"{r:.6f}",)]
            counts["rank_correlation"] = round(r, 6)

    if args.timemap_dir:
        tally = Counter()  # TimeMaps by memento count
        with os.scandir(args.timemap_dir) as entries:
            for entry in entries:
                if entry.name.endswith(".cdx"):
                    n = count_timemap(entry.path)
                    if n:
                        tally[n] += 1
        tables["mementos_per_url_ccdf.csv"] = (
            "mementos_per_url,percent_of_urls", stats.ccdf_points(tally))
        counts["timemaps"] = tally.total()

    for name, (header, rows) in tables.items():
        with stage.open(os.path.join(args.out_dir, name), "w") as fh:
            fh.write(header + "\n")
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


# ---------------------------------------------------------------------------


def _year_range(text: str) -> tuple[int, int]:
    """``YYYY-YYYY``, first year no later than the last, as ``(first, last)``."""
    m = re.fullmatch(r"([0-9]{4})-([0-9]{4})", text)
    if m is None or m[1] > m[2]:  # four digits each, so text order is number order
        raise argparse.ArgumentTypeError(f"expected YYYY-YYYY, first <= last: {text!r}")
    return int(m[1]), int(m[2])


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waysample",
        description="Longitudinal URL sampling pipeline over a CDX archive index.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--manifest", help="write a JSON run manifest here")
        p.add_argument("--config", help="JSON config file (flags override it)")

    p = sub.add_parser("filter", help="URL validity / alias / wildcard verdicts")
    p.add_argument("input", help="newline-delimited URLs ('-' for stdin)")
    p.add_argument("-o", "--output", default="-")
    add_common(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("classify", help="likely-HTML heuristic per URL")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="-")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("fetch-first", help="first capture timestamp+MIME per URL")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--endpoint")
    p.add_argument("--politeness", type=int, dest="politeness_limit")
    p.add_argument("--backoff-base", type=float)
    p.add_argument("--log", help="write the fetch log TSV here")
    add_common(p)
    p.set_defaults(func=cmd_fetch_first)

    p = sub.add_parser("sample", help="bucket, downsample, and select URLs")
    p.add_argument("--first-captures", required=True,
                   help="TSV of url<TAB>timestamp (from fetch-first)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--target", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--tail-threshold", type=int)
    p.add_argument("--tail-keep", type=float, dest="tail_keep_fraction")
    p.add_argument("--seed", type=int)
    p.add_argument("--endpoint", help="resolve first captures of upsampled roots")
    add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("reintegrate", help="per-year quotas for a popular domain")
    p.add_argument("input", help="candidate URL list")
    p.add_argument("--domain", required=True)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--endpoint")
    p.add_argument("--years", type=_year_range, default="2016-2021")
    p.add_argument("--per-year-min", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--log")
    add_common(p)
    p.set_defaults(func=cmd_reintegrate)

    p = sub.add_parser("fetch", help="full TimeMaps via the pagination API")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--endpoint")
    p.add_argument("--politeness", type=int, dest="politeness_limit")
    p.add_argument("--backoff-base", type=float)
    p.add_argument("--report")
    p.add_argument("--log")
    add_common(p)
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("rehydrate", help="restore revisit statuses in TimeMaps")
    p.add_argument("--in-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--capacity", type=int, dest="cache_capacity")
    p.add_argument("--unresolved", help="unresolved-revisit report TSV")
    add_common(p)
    p.set_defaults(func=cmd_rehydrate)

    p = sub.add_parser("stats", help="emit CSV statistics")
    p.add_argument("--first-captures")
    p.add_argument("--urls", help="pre-downsampling URL list")
    p.add_argument("--sampled", help="post-downsampling URL list")
    p.add_argument("--timemap-dir")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--top-n", type=_positive_int, default=20)
    add_common(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        stage = Stage(args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"configuration error: {exc}") from None
    status = "failed"
    try:
        args.func(stage, args)
        status = "ok"
    except (OSError, CdxParseError) as exc:  # an input or output at fault: the error names it
        raise SystemExit(f"error: {exc}") from None
    finally:
        stage.finish(status)
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
from collections import deque
from contextlib import ExitStack, closing, contextmanager
from dataclasses import fields
from typing import TYPE_CHECKING, Callable, Iterable, Iterator
from urllib.parse import quote

from . import stats, timemaps, urlfilter
from .cdx import (
    CdxParseError,
    Timestamp14,
    atomic_open,
    parse_timestamp,
    read_timemap,
    write_timemap,
)
from .config import PipelineConfig
from .surt import CanonicalUrl, SurtError, parse_url, surt_text_for_url

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
    ``--config`` or ``--log`` that cannot be opened.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = PipelineConfig.load(args.config, {
            f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)})
        self.params = self.cfg.to_dict()
        self.counts: dict = {}
        self.manifest = args.manifest
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
            if getattr(args, "log", None):  # line-buffered: a killed stage keeps each line
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
    def open(self, path: str, mode: str = "r"):
        """``path`` as UTF-8 text in which a byte that is not UTF-8 reads as a
        lone surrogate and is written back as that byte."""
        if path == "-":
            stream = sys.stdin if mode == "r" else sys.stdout
            if isinstance(stream, io.TextIOWrapper) and stream.errors != "surrogateescape":
                stream.reconfigure(errors="surrogateescape")  # before its first read
            yield stream
        else:
            with open(path, mode, encoding="utf-8", errors="surrogateescape") as fh:
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


def _parse_urls(stage: Stage, path: str) -> Iterator[CanonicalUrl]:
    """The URLs of ``path`` that parse; the other non-blank lines count as
    ``unparseable``."""
    counts = stage.counts
    counts.setdefault("unparseable", 0)
    with stage.open(path) as fh:
        for line in fh:
            text = line.strip()
            if not text:
                continue
            try:
                yield parse_url(text)
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
    counts = stage.counts
    counts.update(valid=0, invalid=0)
    with stage.open(args.output, "w") as fout:
        for url in stage.urls(args.input):
            v = urlfilter.verdict(url)
            counts["valid" if v.valid else "invalid"] += 1
            fout.write(v.to_tsv_line() + "\n")


def cmd_classify(stage: Stage, args) -> None:
    counts = stage.counts
    counts.update(likely_html=0, other=0)
    with stage.open(args.output, "w") as fout:
        for url in stage.urls(args.input):
            try:
                heuristic = urlfilter.classify_likely_html(parse_url(url))
            except SurtError:
                heuristic = None
            counts["likely_html" if heuristic else "other"] += 1
            fout.write(f"{url}\t{heuristic.value if heuristic else '-'}\n")


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
    does not parse as ``unparseable``. The URL is left to the caller to parse."""
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
                raise CdxParseError("expected at least url<TAB>timestamp", i + 1)
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


def _bucket_rows(stage: Stage, args, buckets: sampler.FirstYearBuckets,
                 missing: sampler.MissingRoots) -> None:
    """Add each archived row of ``--first-captures`` whose URL parses to
    ``buckets`` and ``missing``, then to ``buckets`` the root of each host
    seen only through deep links that ``--endpoint`` finds archived, at its
    first capture."""
    counts = stage.counts
    for url_text, first_capture in _read_first_captures(stage, args.first_captures):
        try:
            url = parse_url(url_text)
        except SurtError:
            counts["unparseable"] += 1
            continue
        counts["input"] += 1
        missing.add(url)
        buckets.add(url, first_capture)
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
        if record is not None:
            buckets.add(root, record.timestamp)


def cmd_sample(stage: Stage, args) -> None:
    # imported here, as in reintegrate: the other stages do without its code,
    # which adds to their peak RSS when they compile it from source
    from . import sampler

    cfg, counts = stage.cfg, stage.counts
    os.makedirs(args.out_dir, exist_ok=True)
    stage.manifest = args.manifest or os.path.join(args.out_dir, "manifest.json")
    counts.update(input=0, missing_roots=0, roots_added=0, roots_unarchived=0, root_errors=0)
    # the sorted rows spill to anonymous files in the out-dir
    with sampler.FirstYearBuckets(args.out_dir) as buckets:
        with sampler.MissingRoots(args.out_dir) as missing:
            _bucket_rows(stage, args, buckets, missing)
        counts["dropped_pre_1996"] = buckets.dropped_pre_1996
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
    stage.counts["lookup_errors"] = 0  # draws whose lookup failed, read as no capture
    lookups = []  # one entry per lookup started, look-ahead included; append is atomic

    def lookup(url: CanonicalUrl) -> Timestamp14 | None:
        lookups.append(url)
        record = cdx_client.fetch_first_record(url.text)
        return record.timestamp if record else None

    def first_captures(draws: list[CanonicalUrl]):
        with closing(stage.map_urls(lookup, draws)) as results:
            for _, first, error in results:
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
        lookups=len(lookups),
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
        tm = cdx_client.fetch_timemap(url)
        write_timemap(tm, path)
        return "ok" if tm.records else "empty"

    report_path = args.report or os.path.join(args.out_dir, "fetch_report.tsv")
    with stage.open(report_path, "w") as report:
        # URLs sharing a TimeMap file run in input order: the first fetches it
        for (url, _), outcome, _ in stage.map_urls(fetch, targets(),
                                                   key=lambda target: target[1]):
            outcome = outcome or "error"
            counts["fetched" if outcome == "ok" else outcome] += 1
            report.write(f"{url}\t{outcome}\n")


def cmd_rehydrate(stage: Stage, args) -> None:
    os.makedirs(args.out_dir, exist_ok=True)
    counts = stage.counts
    counts.update(timemaps=0, revisits_resolved=0, revisits_unresolved=0)
    unresolved_path = args.unresolved or os.path.join(args.out_dir, "unresolved.tsv")
    with stage.open(unresolved_path, "w") as unresolved_out:
        for name in sorted(os.listdir(args.in_dir)):
            if not name.endswith(".cdx"):
                continue
            counts["timemaps"] += 1
            tm = read_timemap(os.path.join(args.in_dir, name))
            before = sum(1 for r in tm.records if r.is_revisit)
            hydrated, unresolved = timemaps.rehydrate(tm, stage.cfg.cache_capacity)
            counts["revisits_resolved"] += before - len(unresolved)
            counts["revisits_unresolved"] += len(unresolved)
            write_timemap(hydrated, os.path.join(args.out_dir, name))
            for pos in unresolved:
                record = tm.records[pos]
                unresolved_out.write(f"{record.urlkey}\t{pos}\t{record.digest}\n")


def cmd_stats(stage: Stage, args) -> None:
    os.makedirs(args.out_dir, exist_ok=True)
    counts = stage.counts
    stage.params["top_n"] = args.top_n

    def write_csv(name: str, header: str, rows) -> None:
        with stage.open(os.path.join(args.out_dir, name), "w") as fh:
            fh.write(header + "\n")
            fh.writelines(",".join(str(v) for v in row) + "\n" for row in rows)

    if args.first_captures:
        histogram = stats.year_histogram(_read_first_captures(stage, args.first_captures))
        write_csv("first_capture_years.csv", "year,count", histogram.items())
        counts["first_capture_years"] = sum(histogram.values())

    pre_counts = post_counts = None
    if args.urls:
        pre_counts = stats.domain_counts(_parse_urls(stage, args.urls))
        write_csv("urls_per_domain_ccdf.csv", "urls_per_domain,percent_of_domains",
                  stats.ccdf_points(pre_counts.values()))
        counts["domains_pre"] = len(pre_counts)
    if args.sampled:
        post_counts = stats.domain_counts(_parse_urls(stage, args.sampled))
        write_csv("urls_per_domain_ccdf_sampled.csv", "urls_per_domain,percent_of_domains",
                  stats.ccdf_points(post_counts.values()))
        counts["domains_post"] = len(post_counts)

    if pre_counts is not None and post_counts is not None:
        top_pre = stats.top_domains(pre_counts, args.top_n)
        write_csv("top_domains.csv", "rank,domain,urls_pre,urls_post",
                  ((rank, domain, n, post_counts.get(domain, 0))
                   for rank, (domain, n) in enumerate(top_pre, 1)))
        r = stats.rank_correlation(pre_counts, post_counts)
        write_csv("rank_correlation.csv", "pearson_r_of_ranks", [(f"{r:.6f}",)])
        counts["rank_correlation"] = round(r, 6)

    if args.timemap_dir:
        memento_counts = []
        for name in sorted(os.listdir(args.timemap_dir)):
            if name.endswith(".cdx"):
                tm = read_timemap(os.path.join(args.timemap_dir, name))
                if tm.records:
                    memento_counts.append(len(tm.records))
        write_csv("mementos_per_url_ccdf.csv", "mementos_per_url,percent_of_urls",
                  stats.ccdf_points(memento_counts))
        counts["timemaps"] = len(memento_counts)


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
    finally:
        stage.finish(status)
    return 0


if __name__ == "__main__":
    sys.exit(main())

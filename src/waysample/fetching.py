"""The ``fetch-first`` and ``fetch`` stages: a CDX query per URL, on the
stage's client threads, one report row per input URL in input order."""

from __future__ import annotations

import os
from typing import Iterator

from .cdx import atomic_open
from .urlfilter import detect_wildcard, is_valid_url


def _fetchable(url: str) -> bool:
    """The URLs fetch-first and fetch query: with a SURT key, no trailing wildcard."""
    return is_valid_url(url) and not detect_wildcard(url)


def cmd_fetch_first(stage, args) -> None:
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


def cmd_fetch(stage, args) -> None:
    cdx_client = stage.client
    os.makedirs(args.out_dir, exist_ok=True)
    counts = stage.counts
    counts.update(fetched=0, empty=0, resumed=0, skipped=0, error=0)

    def targets() -> Iterator[tuple[str, str | None]]:
        for url in stage.urls(args.input):
            yield url, (os.path.join(args.out_dir, stage.timemap_filename(url))
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

"""The ``filter`` and ``classify`` stages: one TSV row per input URL, the
input's byte ranges split over CPUs by ``partition.url_lines``."""

from __future__ import annotations

from . import partition, urlfilter
from .surt import SurtError, parse_url


def cmd_filter(stage, args) -> None:
    counts = stage.counts
    counts.update(valid=0, invalid=0)

    def line(url: str) -> str:
        v = urlfilter.verdict(url)
        counts["valid" if v.valid else "invalid"] += 1
        return v.to_tsv_line() + "\n"

    partition.url_lines(stage, args, line)


def cmd_classify(stage, args) -> None:
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

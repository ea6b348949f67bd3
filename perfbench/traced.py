"""Traced stage runner: ``python perfbench/traced.py --out FILE --trace-id ID
-- <waysample stage arguments>``, with ``PYTHONPATH`` naming ``src``.

It wraps the public functions of every waysample layer, then calls
``waysample.cli.main(argv)`` in this process. ``cli`` and the other modules
import names directly (``from .surt import parse_url``), so each wrapper is
installed in every waysample namespace that holds the original function.

- The stage and each per-URL ``ArchiveClient`` call get a span: name, start,
  end, parent span and the shared trace ID.
- Per-item functions get a call count and a total time, so the trace stays
  small however many items a stage handles.
- Times are inclusive: a wrapped call that makes other wrapped calls counts
  them too. ``covered_s`` sums only the outermost wrapped calls on the main
  thread, so ``main_s - covered_s`` is the stage's own time.

Spans and aggregates stay in memory and are written to FILE as one JSON
object when the stage returns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

import waysample.cli as cli
from waysample import cdx, client, sampler, stats, surt, timemaps, urlfilter

# (module, function name); the metric prefix is the module's last name part
AGGREGATED = [
    (cdx, "parse_cdx_line"), (cdx, "parse_timestamp"),
    (cdx, "read_timemap"), (cdx, "write_timemap"),
    (surt, "parse_url"), (surt, "surt_text_for_url"),
    (urlfilter, "verdict"), (urlfilter, "classify_likely_html"),
    (urlfilter, "is_valid_url"),
    (sampler, "bucket_by_first_year"), (sampler, "calibrate_k"),
    (sampler, "reduce_long_tail"), (sampler, "select_urls"),
    (sampler, "extract_missing_roots"), (sampler, "reintegrate_popular"),
    (timemaps, "rehydrate"), (timemaps, "merge_pages"),
    (stats, "year_histogram"), (stats, "domain_counts"), (stats, "ccdf_points"),
    (stats, "top_domains"), (stats, "rank_correlation"),
]
# functions whose work is counted in items as well as in calls
ITEM_COUNTS = {"timemaps.rehydrate": lambda tm, *rest: len(tm.records)}
SPANNED_METHODS = ["fetch_first_record", "fetch_page_count", "fetch_timemap"]


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.main_thread = threading.get_ident()
        self.lock = threading.Lock()
        self.local = threading.local()
        self.aggregates: dict[str, list] = {}  # name -> [calls, total_s, items]
        self.spans: list[dict] = []
        self.covered_s = 0.0

    def _stack(self) -> list:
        # open span IDs of this thread; 0 is the stage span
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = [0]
        return stack

    def call(self, name: str, fn, args, kwargs, spanned: bool, items: int):
        stack = self._stack()
        parent = stack[-1]
        span_id = None
        if spanned:
            with self.lock:
                span_id = len(self.spans) + 1
                self.spans.append(None)
        stack.append(span_id if spanned else parent)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self.lock:
                agg = self.aggregates.setdefault(name, [0, 0.0, 0])
                agg[0] += 1
                agg[1] += end - start
                agg[2] += items
                if len(stack) == 1 and threading.get_ident() == self.main_thread:
                    self.covered_s += end - start
                if spanned:
                    self.spans[span_id - 1] = {
                        "id": span_id, "parent": parent, "trace": self.trace_id,
                        "name": name, "start": start, "end": end,
                    }

    def wrap(self, name: str, fn, spanned: bool = False, count_items=None):
        def wrapper(*args, **kwargs):
            items = count_items(*args) if count_items else 0
            return self.call(name, fn, args, kwargs, spanned, items)
        wrapper.__wrapped__ = fn
        return wrapper


def install(tracer: Tracer) -> None:
    modules = [m for n, m in sys.modules.items()
               if n == "waysample" or n.startswith("waysample.")]
    for module, fname in AGGREGATED:
        original = getattr(module, fname)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
        wrapped = tracer.wrap(name, original, count_items=ITEM_COUNTS.get(name))
        for namespace in modules:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapped)
    for method in SPANNED_METHODS:
        original = getattr(client.ArchiveClient, method)
        wrapped = tracer.wrap(f"client.{method}", original, spanned=True)
        setattr(client.ArchiveClient, method, wrapped)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="trace JSON to write")
    parser.add_argument("--trace-id", required=True)
    parser.add_argument("stage_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.stage_args[1:] if args.stage_args[:1] == ["--"] else args.stage_args

    tracer = Tracer(args.trace_id)
    install(tracer)
    entered = time.monotonic()
    launched = float(os.environ.get("PERFBENCH_LAUNCHED_AT", entered))
    span = {"id": 0, "parent": None, "trace": args.trace_id,
            "name": f"cli.{argv[0]}", "start": time.perf_counter()}
    try:
        status = cli.main(argv)
    finally:
        span["end"] = time.perf_counter()
        trace = {
            "stage": argv[0],
            "startup_s": entered - launched,
            "main_s": span["end"] - span["start"],
            "covered_s": tracer.covered_s,
            "aggregates": tracer.aggregates,
            "spans": [span] + [s for s in tracer.spans if s is not None],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())

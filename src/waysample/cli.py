"""Command-line pipeline: composable subcommands over files.

``build_parser`` names each subcommand's module and function, and ``main``
imports that one module, so a stage compiles and loads no other stage's code.
With ``--manifest``, a subcommand writes a JSON run manifest recording
parameters, seeds and per-stage counts, so composed stages can be audited
end to end; ``sample`` writes one to its ``--out-dir`` by default.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import re
import sys
import time
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterator
from urllib.parse import quote

from .cdx import CdxParseError, Timestamp14, atomic_open, parse_timestamp
from .config import PipelineConfig
from .surt import SurtError, parse_url, surt_text_for_url


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
        self._client = None  # the ArchiveClient of an endpoint
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
    def client(self):
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

    def parsed_urls(self, path: str, parse: Callable = parse_url) -> Iterator:
        """The URLs that ``urls`` reads from ``path``, each counted as
        ``input``, that ``parse`` (``parse_url`` or ``parse_host``) takes, as it
        returns them; the others count as ``unparseable``."""
        self.counts.setdefault("unparseable", 0)
        for text in self.urls(path):
            try:
                yield parse(text)
            except SurtError:
                self.counts["unparseable"] += 1

    def first_captures(self, path: str) -> Iterator[tuple[str, Timestamp14]]:
        """The URL text and first capture of each archived row of a fetch-first
        TSV; rows without a capture count as ``no_capture``, rows whose timestamp
        does not parse as ``unparseable``. The URL is left to the caller to parse.
        A row without a tab is a ``CdxParseError`` naming the file and its line."""
        counts = self.counts
        counts.setdefault("no_capture", 0)
        counts.setdefault("unparseable", 0)
        with self.open(path) as fh:
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

    # for fetch: a stage module that imported this one would compile it again
    # under ``python -m waysample.cli``, where it runs as __main__
    timemap_filename = staticmethod(timemap_filename)

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

    def add_parser(name: str, module: str, func: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--manifest", help="write a JSON run manifest here")
        p.add_argument("--config", help="JSON config file (flags override it)")
        # the stage is func of waysample.<module>; error, its usage error
        p.set_defaults(module=module, func=func, error=p.error)
        return p

    p = add_parser("filter", "filtering", "cmd_filter",
                   "URL validity / alias / wildcard verdicts")
    p.add_argument("input", help="newline-delimited URLs ('-' for stdin)")
    p.add_argument("-o", "--output", default="-")

    p = add_parser("classify", "filtering", "cmd_classify", "likely-HTML heuristic per URL")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="-")

    p = add_parser("fetch-first", "fetching", "cmd_fetch_first",
                   "first capture timestamp+MIME per URL")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--endpoint")
    p.add_argument("--politeness", type=int, dest="politeness_limit")
    p.add_argument("--backoff-base", type=float)
    p.add_argument("--log", help="write the fetch log TSV here")

    p = add_parser("sample", "sampler", "cmd_sample", "bucket, downsample, and select URLs")
    p.add_argument("--first-captures", required=True,
                   help="TSV of url<TAB>timestamp (from fetch-first)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--target", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--tail-threshold", type=int)
    p.add_argument("--tail-keep", type=float, dest="tail_keep_fraction")
    p.add_argument("--seed", type=int)
    p.add_argument("--endpoint", help="resolve first captures of upsampled roots")

    p = add_parser("reintegrate", "sampler", "cmd_reintegrate",
                   "per-year quotas for a popular domain")
    p.add_argument("input", help="candidate URL list")
    p.add_argument("--domain", required=True)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--endpoint")
    p.add_argument("--years", type=_year_range, default="2016-2021")
    p.add_argument("--per-year-min", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--log")

    p = add_parser("fetch", "fetching", "cmd_fetch", "full TimeMaps via the pagination API")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--endpoint")
    p.add_argument("--politeness", type=int, dest="politeness_limit")
    p.add_argument("--backoff-base", type=float)
    p.add_argument("--report")
    p.add_argument("--log")

    p = add_parser("rehydrate", "timemaps", "cmd_rehydrate",
                   "restore revisit statuses in TimeMaps")
    p.add_argument("--in-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--capacity", type=int, dest="cache_capacity")
    p.add_argument("--unresolved", help="unresolved-revisit report TSV")

    p = add_parser("stats", "stats", "cmd_stats", "emit CSV statistics")
    p.add_argument("--first-captures")
    p.add_argument("--urls", help="pre-downsampling URL list")
    p.add_argument("--sampled", help="post-downsampling URL list")
    p.add_argument("--timemap-dir")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--top-n", type=_positive_int, default=20)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "stats" and not (args.first_captures or args.urls or args.sampled
                                        or args.timemap_dir):
        args.error("one of --first-captures, --urls, --sampled or --timemap-dir is required")
    run = getattr(importlib.import_module(f".{args.module}", __package__), args.func)
    try:
        stage = Stage(args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"configuration error: {exc}") from None
    status = "failed"
    try:
        run(stage, args)
        status = "ok"
    except (OSError, CdxParseError) as exc:  # an input or output at fault: the error names it
        raise SystemExit(f"error: {exc}") from None
    finally:
        stage.finish(status)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CDX records, ZipNum index lines, 14-digit timestamps, and TimeMaps.

A CDX line has exactly 7 space-separated fields:

    urlkey timestamp original mime status digest length

A ZipNum line is ``<surt> <timestamp>`` followed by four tab-separated
fields naming the CDX part file, byte offset, record size, and block
number.
"""

from __future__ import annotations

import os
import re
import threading
from collections import namedtuple
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from datetime import datetime

REVISIT_MIME = "warc/revisit"


class CdxParseError(ValueError):
    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class MixedKeyError(ValueError):
    """Records with differing urlkeys where a single key is required."""


def _calendar_datetime(raw: str) -> datetime:
    """The datetime of 14 digits; ValueError if it is no calendar date."""
    return datetime(int(raw[0:4]), int(raw[4:6]), int(raw[6:8]),
                    int(raw[8:10]), int(raw[10:12]), int(raw[12:14]))


# 14 digits that are a calendar datetime whatever the month's length: year
# not 0000, month 01-12, day 01-28, hour 00-23, minute and second 00-59
_COMMON_TIMESTAMP_RE = re.compile(r"(?!0000)[0-9]{4}(?:0[1-9]|1[0-2])(?:0[1-9]|1[0-9]|2[0-8])"
                                  r"(?:[01][0-9]|2[0-3])[0-5][0-9][0-5][0-9]")


class Timestamp14(namedtuple("Timestamp14", "raw")):
    """A 14-digit archive timestamp (YYYYMMDDhhmmss).

    Only the ASCII digits 0-9 are accepted, so string comparison order
    equals chronological order. It is an immutable 1-tuple of the raw
    digits, so it orders, compares and hashes by them. The common timestamp is
    accepted by one regex match; only the others are checked by ``datetime``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, raw: str):
        if _COMMON_TIMESTAMP_RE.fullmatch(raw) is None:
            if len(raw) != 14 or not raw.isascii() or not raw.isdigit():
                raise CdxParseError(f"timestamp is not 14 digits: {raw!r}")
            try:
                _calendar_datetime(raw)
            except ValueError as exc:
                raise CdxParseError(f"invalid calendar datetime: {raw!r}") from exc
        return tuple.__new__(cls, (raw,))

    @property
    def datetime(self) -> datetime:
        return _calendar_datetime(self.raw)

    @property
    def year(self) -> int:
        return int(self.raw[:4])

    def __str__(self) -> str:
        return self.raw


def parse_timestamp(text: str) -> Timestamp14:
    return Timestamp14(text)


@dataclass(frozen=True)
class CdxRecord:
    urlkey: str
    timestamp: Timestamp14
    original: str
    mime: str
    status: str
    digest: str
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise CdxParseError(f"negative length: {self.length}")

    @property
    def is_revisit(self) -> bool:
        """True for rehydratable revisit records (revisit MIME, no status)."""
        return self.status == "-" and self.mime_is_revisit

    @property
    def mime_is_revisit(self) -> bool:
        return self.mime == REVISIT_MIME or self.mime.startswith(REVISIT_MIME + ";")

    def to_line(self) -> str:
        return " ".join(
            (self.urlkey, self.timestamp.raw, self.original, self.mime,
             self.status, self.digest, str(self.length))
        )


def parse_cdx_line(line: str, line_no: int | None = None) -> CdxRecord:
    """Parse one 7-field CDX line. Any run of spaces separates fields."""
    fields = line.split()
    if len(fields) != 7:
        raise CdxParseError(f"expected 7 CDX fields, got {len(fields)}", line_no)
    urlkey, ts, original, mime, status, digest, length = fields
    if not length.isdigit():
        raise CdxParseError(f"non-numeric length: {length!r}", line_no)
    return CdxRecord(urlkey, Timestamp14(ts), original, mime, status, digest, int(length))


@dataclass(frozen=True)
class ZipNumEntry:
    surt: str
    timestamp: Timestamp14
    part: str
    offset: int
    length: int
    block: int

    def __post_init__(self):
        if self.offset < 0:
            raise CdxParseError(f"negative offset: {self.offset}")
        if self.length <= 0:
            raise CdxParseError(f"non-positive length: {self.length}")
        if self.block < 0:
            raise CdxParseError(f"negative block: {self.block}")

    def to_line(self) -> str:
        return (f"{self.surt} {self.timestamp.raw}\t{self.part}"
                f"\t{self.offset}\t{self.length}\t{self.block}")


def parse_zipnum_line(line: str, line_no: int | None = None) -> ZipNumEntry:
    """Parse one ZipNum line: ``surt ts\\tpart\\toffset\\tlength\\tblock``."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 5:
        raise CdxParseError(f"expected 5 tab-separated ZipNum fields, got {len(fields)}", line_no)
    key, part, offset, length, block = fields
    key_parts = key.split(" ")
    if len(key_parts) != 2:
        raise CdxParseError(f"ZipNum key is not 'surt timestamp': {key!r}", line_no)
    surt, ts = key_parts
    for name, value in (("offset", offset), ("length", length), ("block", block)):
        if not value.lstrip("-").isdigit():
            raise CdxParseError(f"non-numeric {name}: {value!r}", line_no)
    return ZipNumEntry(surt, Timestamp14(ts), part, int(offset), int(length), int(block))


@dataclass
class TimeMap:
    """The ordered capture history of one original URL."""

    uri_r: str
    records: list[CdxRecord] = field(default_factory=list)

    def __post_init__(self):
        keys = {r.urlkey for r in self.records}
        if len(keys) > 1:
            raise MixedKeyError(f"TimeMap mixes urlkeys: {sorted(keys)}")
        self.records = sorted(self.records, key=lambda r: r.timestamp.raw)

    def to_text(self) -> str:
        return "".join(r.to_line() + "\n" for r in self.records)


def parse_timemap_text(uri_r: str, text: str) -> TimeMap:
    records = [
        parse_cdx_line(line, line_no=i + 1)
        for i, line in enumerate(text.splitlines())
        if line.strip()
    ]
    return TimeMap(uri_r, records)


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Write to a temporary sibling that replaces ``path`` when the block
    ends, or is removed if it raises: ``path`` is never partly written."""
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_timemap(tm: TimeMap, path) -> None:
    with atomic_open(path) as fh:
        fh.write(tm.to_text())


def read_timemap(path, uri_r: str = "") -> TimeMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_timemap_text(uri_r, fh.read())

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
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator

REVISIT_MIME = "warc/revisit"


class CdxParseError(ValueError):
    """A line that does not parse: ``reason`` says why, ``line_no``, if
    known, which line, from 1, and ``path``, if known, of which file."""

    def __init__(self, reason: str, line_no: int | None = None, path=None):
        where = "" if line_no is None else f"line {line_no}: "
        super().__init__(f"{path}: {where}{reason}" if path else where + reason)
        self.reason, self.line_no, self.path = reason, line_no, path


class MixedKeyError(ValueError):
    """Records with differing urlkeys where a single key is required."""


# 14 digits that are a calendar datetime whatever the month's length: year
# not 0000, month 01-12, day 01-28, hour 00-23, minute and second 00-59. The
# others are checked as ``datetime`` would check them, without loading it: by
# the month's length, 29 days in February of a Gregorian leap year
_COMMON_TIMESTAMP_RE = re.compile(r"(?!0000)[0-9]{4}(?:0[1-9]|1[0-2])(?:0[1-9]|1[0-9]|2[0-8])"
                                  r"(?:[01][0-9]|2[0-3])[0-5][0-9][0-5][0-9]")
# the days of each month of a common year, January first
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


class Timestamp14(namedtuple("Timestamp14", "raw")):
    """A 14-digit archive timestamp (YYYYMMDDhhmmss).

    Only the ASCII digits 0-9 are accepted, so string comparison order
    equals chronological order. It is an immutable 1-tuple of the raw
    digits, so it orders, compares and hashes by them. The common timestamp is
    accepted by one regex match, the others by month length and leap year.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, raw: str):
        if _COMMON_TIMESTAMP_RE.fullmatch(raw) is None:
            if len(raw) != 14 or not raw.isascii() or not raw.isdigit():
                raise CdxParseError(f"timestamp is not 14 digits: {raw!r}")
            year, month, day = int(raw[:4]), int(raw[4:6]), int(raw[6:8])
            leap = month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
            if not (year and 1 <= month <= 12 and 1 <= day <= _MONTH_DAYS[month - 1] + leap
                    and raw[8:10] < "24" and raw[10:12] < "60" and raw[12:] < "60"):
                raise CdxParseError(f"invalid calendar datetime: {raw!r}")
        return tuple.__new__(cls, (raw,))

    @property
    def year(self) -> int:
        return int(self.raw[:4])

    def __str__(self) -> str:
        return self.raw


def parse_timestamp(text: str) -> Timestamp14:
    return Timestamp14(text)


class CdxRecord(namedtuple("CdxRecord", "urlkey timestamp original mime status digest length")):
    """One capture: the 7 fields of a CDX line, the timestamp a Timestamp14 and
    the length an int. An immutable tuple of them, which the constructor
    validates; parse_cdx_line, whose checks hold them, builds it directly."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, urlkey: str, timestamp: Timestamp14, original: str, mime: str,
                status: str, digest: str, length: int):
        if length < 0:
            raise CdxParseError(f"negative length: {length}")
        return tuple.__new__(cls, (urlkey, timestamp, original, mime, status, digest, length))

    @property
    def is_revisit(self) -> bool:
        """True for rehydratable revisit records (revisit MIME, no status)."""
        return self.status == "-" and self.mime_is_revisit

    @property
    def mime_is_revisit(self) -> bool:
        return self.mime == REVISIT_MIME or self.mime.startswith(REVISIT_MIME + ";")

    def to_line(self) -> str:
        urlkey, timestamp, original, mime, status, digest, length = self
        return f"{urlkey} {timestamp.raw} {original} {mime} {status} {digest} {length}"


def _number(text: str, name: str, line_no: int | None) -> int:
    """``text`` as a number: ASCII digits, with no leading zero unless it is
    ``0``, so that the number is written back as the same text."""
    if not (text.isascii() and text.isdigit()):
        raise CdxParseError(f"non-numeric {name}: {text!r}", line_no)
    if text[0] == "0" and len(text) > 1:
        raise CdxParseError(f"{name} has a leading zero: {text!r}", line_no)
    return int(text)


def parse_cdx_line(line: str, line_no: int | None = None) -> CdxRecord:
    """Parse one 7-field CDX line. Any run of spaces separates fields."""
    fields = line.split()
    if len(fields) != 7:
        raise CdxParseError(f"expected 7 CDX fields, got {len(fields)}", line_no)
    length = fields[6]
    if not (length.isascii() and length.isdigit() and (length[0] != "0" or length == "0")):
        _number(length, "length", line_no)  # which raises the error that says why
    try:
        fields[1] = Timestamp14(fields[1])
    except CdxParseError as exc:
        raise CdxParseError(exc.reason, line_no) from None
    fields[6] = int(length)  # of digits only: never negative
    return tuple.__new__(CdxRecord, fields)


class ZipNumEntry(namedtuple("ZipNumEntry", "surt timestamp part offset length block")):
    """One ZipNum index line; an immutable tuple of its fields, validated."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, surt: str, timestamp: Timestamp14, part: str, offset: int, length: int,
                block: int):
        if offset < 0:
            raise CdxParseError(f"negative offset: {offset}")
        if length <= 0:
            raise CdxParseError(f"non-positive length: {length}")
        if block < 0:
            raise CdxParseError(f"negative block: {block}")
        return tuple.__new__(cls, (surt, timestamp, part, offset, length, block))

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
    offset, length, block = (_number(value, name, line_no) for name, value in
                             (("offset", offset), ("length", length), ("block", block)))
    if length == 0:  # which ZipNumEntry refuses too, but without the line
        raise CdxParseError("non-positive length: 0", line_no)
    try:
        ts = Timestamp14(ts)
    except CdxParseError as exc:
        raise CdxParseError(exc.reason, line_no) from None
    return ZipNumEntry(surt, ts, part, offset, length, block)


class TimeMap(namedtuple("TimeMap", "uri_r records")):
    """The ordered capture history of one original URL: its records, of one
    urlkey, as a new list sorted by timestamp (stably, so equal timestamps
    keep their order); records of more than one urlkey are a ``MixedKeyError``.
    ``read_timemap`` and ``fetch_timemap``, which check both as they read,
    build theirs without checking again."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, uri_r: str, records: Iterable[CdxRecord] = ()):
        records = list(records)  # a copy: the caller may keep its list
        keys = set(map(attrgetter("urlkey"), records))
        if len(keys) > 1:
            raise MixedKeyError(f"TimeMap mixes urlkeys: {sorted(keys)}")
        records.sort(key=attrgetter("timestamp.raw"))
        return tuple.__new__(cls, (uri_r, records))

    def to_text(self) -> str:
        return "".join(r.to_line() + "\n" for r in self.records)


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Write to a temporary sibling that replaces ``path`` when the block
    ends, or is removed if it raises: ``path`` is never partly written. An
    error opening the sibling or replacing ``path`` names ``path`` alone."""
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    text = "b" not in mode  # UTF-8 in which a lone surrogate is written as the byte it stands for
    try:
        fh = open(tmp, mode, encoding="utf-8" if text else None,
                  errors="surrogateescape" if text else None)
    except OSError as exc:
        exc.filename = os.fspath(path)
        raise
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # it names the sibling too
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_timemap(tm: TimeMap, path) -> None:
    """Write the lines of ``tm``'s records to ``path`` one at a time, never its whole text."""
    with atomic_open(path) as fh:
        fh.writelines(r.to_line() + "\n" for r in tm.records)


def checked_records(texts: Iterable[str], path=None) -> Iterator[CdxRecord]:
    """The records of the lines of ``texts`` (a reply's pages, a file's lines:
    no line break spans two), split as ``str.splitlines`` splits them, blank
    lines skipped, parsed a line at a time and none kept. They are of one
    urlkey, in timestamp order, as a CDX server sends them: a line that is
    malformed, not UTF-8, earlier than the record before or of another urlkey
    than the first record's is a ``CdxParseError`` naming ``path`` and its
    line, counted over all the texts."""
    key = last = ""  # the first urlkey; the last timestamp
    for i, line in enumerate(chain.from_iterable(map(str.splitlines, texts)), 1):
        try:
            if not line.isascii():
                line.encode("utf-8")  # a byte that is not UTF-8 reads as a lone surrogate
            record = parse_cdx_line(line, i)
            ts = record.timestamp.raw
            key = key or record.urlkey
            if ts < last:
                raise CdxParseError(f"timestamp earlier than the record before, {last}")
            if record.urlkey != key:
                raise CdxParseError(f"urlkey other than the first record's, {key}")
        except (CdxParseError, UnicodeEncodeError) as exc:
            if not line.strip():
                continue  # a blank line, which parses as no fields
            reason = exc.reason if isinstance(exc, CdxParseError) else "not UTF-8"
            raise CdxParseError(reason, i, path) from None
        last = ts
        yield record


def timemap_records(path) -> Iterator[CdxRecord]:
    """The records of a TimeMap file, an error naming it, as ``checked_records``
    reads its lines, in which reading turns ``\\r\\n`` and ``\\r`` into ``\\n``."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        yield from checked_records(fh, path)


def read_timemap(path) -> TimeMap:
    """The TimeMap of a file, parsed a line at a time into one list of records."""
    return tuple.__new__(TimeMap, ("", list(timemap_records(path))))


def count_timemap(path) -> int:
    """How many records a TimeMap file holds, refused as ``timemap_records`` refuses it."""
    return sum(1 for _ in timemap_records(path))

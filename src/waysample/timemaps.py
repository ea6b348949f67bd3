"""TimeMap post-processing.

Revisit rehydration with a bounded LRU digest cache, page merging and
revisit-distance measurement. One TimeMap is processed by one worker;
the LRU pass is inherently sequential. A TimeMap file is rehydrated in one
pass, a line at a time: one out of timestamp order is refused, not sorted.
The ``rehydrate`` stage runs that pass over each TimeMap of a directory.
"""

from __future__ import annotations

import os
from collections import OrderedDict, namedtuple

from .cdx import REVISIT_MIME, CdxRecord, TimeMap, atomic_open, timemap_records

DEFAULT_CACHE_CAPACITY = 1000


class RevisitGap(namedtuple("RevisitGap", "revisit_index source_index")):
    """A resolvable revisit's position and that of its nearest prior full record."""

    __slots__ = ()

    @property
    def distance(self) -> int:
        return self.revisit_index - self.source_index


class LruDigestCache:
    """digest -> most recent full CdxRecord, bounded by capacity with
    least-recently-accessed eviction."""

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[str, CdxRecord] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> CdxRecord | None:
        record = self._entries.get(digest)
        if record is not None:
            self._entries.move_to_end(digest)
        return record

    def put(self, digest: str, record: CdxRecord) -> None:
        if digest in self._entries:
            self._entries.move_to_end(digest)
        self._entries[digest] = record
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def hydrate(self, record: CdxRecord) -> CdxRecord | None:
        """``record`` as one forward pass leaves it: a full record is cached, and
        a revisit takes the status of the cached one of its digest, its MIME as
        ``warc/revisit;orig=<mime>`` so provenance survives, or is None if none is."""
        if _is_full_record(record):
            self.put(record.digest, record)
        elif record.is_revisit:
            source = self.get(record.digest)
            return source and record._replace(status=source.status,
                                              mime=f"{REVISIT_MIME};orig={source.mime}")
        return record


def _is_full_record(record: CdxRecord) -> bool:
    # only true full captures feed the cache; already-rehydrated revisit
    # rows keep their marker MIME and are skipped, which makes the pass
    # idempotent
    return record.status != "-" and not record.mime_is_revisit


def rehydrate(
    tm: TimeMap, capacity: int = DEFAULT_CACHE_CAPACITY
) -> tuple[TimeMap, list[int]]:
    """Restore revisit-record statuses as ``LruDigestCache.hydrate`` does, in one
    forward pass; cache misses are left untouched and reported as positions."""
    cache, out, unresolved = LruDigestCache(capacity), [], []
    for i, record in enumerate(tm.records):
        hydrated = cache.hydrate(record)
        if hydrated is None:
            unresolved.append(i)
        out.append(hydrated or record)
    # in the order and of the urlkey of tm's records: a TimeMap without sorting again
    return tuple.__new__(TimeMap, (tm.uri_r, out)), unresolved


def rehydrate_file(path, capacity: int, out, report) -> tuple[int, int]:
    """Write the records of TimeMap file ``path`` to ``out`` as ``rehydrate`` leaves them,
    and the urlkey, position and digest of each unresolved revisit to ``report``; returns
    the revisits resolved and left. The file is read a line at a time, as
    ``timemap_records`` reads it, and refused as it refuses it."""
    cache, resolved, unresolved = LruDigestCache(capacity), 0, 0
    for pos, record in enumerate(timemap_records(path)):
        hydrated = cache.hydrate(record)
        if hydrated is None:
            unresolved += 1
            report.write(f"{record.urlkey}\t{pos}\t{record.digest}\n")
        elif hydrated is not record:
            resolved += 1
        out.write((hydrated or record).to_line() + "\n")
    return resolved, unresolved


def revisit_gaps(tm: TimeMap) -> list[RevisitGap]:
    """Gap between each resolvable revisit record and the nearest prior
    full record with the same digest (unbounded lookback)."""
    last_seen: dict[str, int] = {}
    gaps: list[RevisitGap] = []
    for i, record in enumerate(tm.records):
        if _is_full_record(record):
            last_seen[record.digest] = i
        elif record.is_revisit and record.digest in last_seen:
            gaps.append(RevisitGap(i, last_seen[record.digest]))
    return gaps


def max_revisit_distance(tm: TimeMap) -> int:
    """Maximum resolvable revisit gap in lines; 0 when none exist."""
    gaps = revisit_gaps(tm)
    return max((g.distance for g in gaps), default=0)


def merge_pages(pages: list[list[CdxRecord]], uri_r: str = "") -> TimeMap:
    """Concatenate paginated record lists into one TimeMap with exact
    duplicates removed; the TimeMap rejects mixed urlkeys and sorts by
    timestamp."""
    return TimeMap(uri_r, list(dict.fromkeys(r for page in pages for r in page)))


def cmd_rehydrate(stage, args) -> None:
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
                resolved, unresolved = rehydrate_file(
                    os.path.join(args.in_dir, name), stage.cfg.cache_capacity, out, unresolved_out)
            counts["revisits_resolved"] += resolved
            counts["revisits_unresolved"] += unresolved

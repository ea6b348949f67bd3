"""An external sort of keys of text fields, each with a number.

A key is kept as one line: its fields joined by SEP, each NUL in a field
written as NUL STX, then SEP, the number in a fixed count of zero-padded
digits, and a newline, which no field may hold. SEP sorts below every
written character, so lines sort as UTF-8 bytes exactly as the tuples of
their fields do as strings, and the lines of one key by their numbers.
Only this module knows the format: callers pass fields as ``str`` and get
fields and numbers back.
"""

from __future__ import annotations

import heapq
from itertools import groupby, repeat
from operator import itemgetter
from typing import IO, Callable, Iterable, Iterator

RUN_BYTES = 512 * 1024  # line bytes a run holds before it is sorted into a file
FAN_IN = 16  # this many files of one merge level are merged into one of the next
SEP = b"\0\1"


def _text(field: bytes) -> str:
    return field.decode().replace("\0\2", "\0")


class SpillSort:
    """Keys, all of one number of text fields, and a number for each, in key
    order, however many, with at most RUN_BYTES of their lines in memory.

    The numbers of a key are folded into one by ``fold``, chosen at
    construction: ``min`` keeps the least, ``operator.add`` sums them. A run
    folds them as they are added, and every merge as it meets them. A number,
    and a fold of numbers, is at least 0 and of at most ``digits`` digits.

    A run whose lines reach RUN_BYTES is sorted into an anonymous temporary
    file in ``spill_dir``, which vanishes when it is closed or the process
    ends, killed or not; ``tempfile`` is imported at the first. FAN_IN files
    of one merge level are merged into one file of the next, so a few dozen
    files are open at most. The first read ends the adding, and merges any
    files and the last run into one file; every read may be repeated.

    A part of the sort filled in another process, as ``partition.split``
    fills one, hands its keys over as one file: ``part`` makes the part,
    whose ``export`` writes the file, and ``take`` adds it as a sorted run.
    """

    def __init__(self, spill_dir: str | None = None,
                 fold: Callable[[int, int], int] = min, digits: int = 12):
        self.spill_dir = spill_dir
        self.fold = fold
        self.digits = digits
        self._run: dict[bytes, int] = {}
        self._run_bytes = 0
        self._keys: list[bytes] | None = None  # the last run's keys, sorted by the first read
        self._files: list[tuple[int, IO[bytes]]] = []  # (merge level, file), oldest first

    def __enter__(self) -> SpillSort:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        while self._files:
            self._files.pop()[1].close()

    def add(self, fields: tuple[str, ...], number: int) -> None:
        """Add ``number`` to the key of ``fields``."""
        key = "\n".join(fields)  # which no field holds, so that one scan finds a NUL
        if "\0" in key:
            key = key.replace("\0", "\0\2")
        key = key.replace("\n", "\0\1").encode()
        run = self._run
        kept = run.get(key)
        if kept is None:  # a new key, which may fill the run
            run[key] = number
            self._run_bytes += len(key) + 3 + self.digits  # SEP, the digits and a newline
            if self._run_bytes >= RUN_BYTES:
                self._run, self._run_bytes = {}, 0
                self._write(_run_lines(run, sorted(run), self.digits), 0)
        elif self.fold is not min or number < kept:  # else min would keep what is kept
            run[key] = self.fold(kept, number)

    def _write(self, lines: Iterable[bytes], level: int) -> None:
        import tempfile  # imported here: a sort that fits its budget writes no file

        fh = tempfile.TemporaryFile(dir=self.spill_dir)
        fh.writelines(lines)
        self._file(level, fh)

    def _file(self, level: int, fh: IO[bytes]) -> None:
        self._files.append((level, fh))
        if len(self._files) >= FAN_IN and self._files[-FAN_IN][0] == level:
            # levels fall along the list, so the last FAN_IN files are all of this level
            self._merge(FAN_IN, (), level + 1)

    def _merge(self, n: int, run: Iterable[bytes], level: int) -> None:
        """Merge the newest ``n`` files and the sorted ``run`` into one file."""
        merged = [fh for _, fh in self._files[-n:]]
        del self._files[-n:]
        try:
            self._write(self._merged(merged, run), level)
        finally:
            for fh in merged:
                fh.close()

    def _merged(self, files: list[IO[bytes]], run: Iterable[bytes]) -> Iterator[bytes]:
        """One line for each key of ``files`` and the sorted ``run``, in key order."""
        # the lines of a key sort together, least number first; the key is
        # the line without SEP, the digits and a newline
        keys = groupby(heapq.merge(*map(_reread, files), run),
                       key=itemgetter(slice(None, -3 - self.digits)))
        # min keeps a key's first line as it is
        return map(next, map(itemgetter(1), keys)) if self.fold is min else self._fold(keys)

    def part(self, fh: IO[bytes]) -> SpillSort:
        """An empty sort of this one's type, made of ``spill_dir`` alone, to fill a part of it."""
        return type(self)(self.spill_dir)

    def export(self, fh: IO[bytes]) -> None:
        """Write one line for each key, in key order, to ``fh``, whose file
        another sort of the same fold and digits may ``take``."""
        run = _run_lines(self._run, sorted(self._run), self.digits)
        fh.writelines(self._merged([f for _, f in self._files], run) if self._files else run)

    def take(self, fh: IO[bytes]) -> None:
        """Add the keys of a file that ``export`` wrote, as a run already
        sorted: the sort closes ``fh`` when it has merged it or is closed."""
        self._file(0, fh)

    def _fold(self, keys: Iterable[tuple[bytes, Iterator[bytes]]]) -> Iterator[bytes]:
        """One line for each key, of its lines' numbers folded."""
        fold, digits = self.fold, self.digits
        for key, lines in keys:
            line = next(lines)
            for other in lines:  # the key's lines from other runs
                number = fold(int(line[-1 - digits:]), int(other[-1 - digits:]))
                line = b"%s\0\1%0*d\n" % (key, digits, number)
            yield line

    def _lines(self) -> Iterator[bytes]:
        if self._keys is None:
            self._keys = sorted(self._run)
            if self._files:  # into one file, so that each read goes without a heap
                self._merge(len(self._files), _run_lines(self._run, self._keys, self.digits), 0)
                self._run, self._keys = {}, []
        if self._files:
            return _reread(self._files[0][1])
        return _run_lines(self._run, self._keys, self.digits)

    def items(self, least: int = 0) -> Iterator[tuple[tuple[str, ...], int]]:
        """The fields and number of each key whose number is at least ``least``, in key order."""
        digits = self.digits
        floor = b"%0*d" % (digits, least)  # of as many digits, so byte order is number order
        for line in self._lines():
            if line[-1 - digits:-1] >= floor:
                *fields, number = line.split(SEP)
                yield tuple(map(_text, fields)), int(number)

    def numbers(self) -> Iterator[int]:
        """The number of each key, in key order."""
        return map(int, map(itemgetter(slice(-1 - self.digits, None)), self._lines()))

    def groups(self, whole: bool = True) -> Iterator[tuple[str, Iterator]]:
        """For keys of three fields or more: each first field, in order, and
        each of its second fields, in order, with the last fields of its keys
        in key order; or, not ``whole``, with how many keys it has, which
        reads no more of a line than its first two fields."""
        # map calls bytes.split without the argument tuple methodcaller builds per line
        rows = map(bytes.split, self._lines(), repeat(SEP), repeat(-1 if whole else 2))
        for first, rows_of_first in groupby(rows, key=itemgetter(0)):
            seconds = groupby(rows_of_first, key=itemgetter(1))
            yield _text(first), map(_last_fields if whole else _size, seconds)


def _size(group: tuple[bytes, Iterable[list[bytes]]]) -> int:
    return len(list(group[1]))


def _last_fields(group: tuple[bytes, Iterable[list[bytes]]]) -> tuple[str, list[str]]:
    """A second field and the last fields of its lines, decoded at once."""
    second, rows = group
    texts = b"\n".join(map(itemgetter(-2), rows)).decode()
    if "\0" in texts:
        texts = texts.replace("\0\2", "\0")
    return _text(second), texts.split("\n")


def _run_lines(run: dict[bytes, int], keys: list[bytes], digits: int) -> Iterator[bytes]:
    """The lines of ``run`` in the order of ``keys``: SEP sorts below any key
    character, so sorted keys give sorted lines."""
    return (b"%s\0\1%0*d\n" % (key, digits, run[key]) for key in keys)


def _reread(fh: IO[bytes]) -> Iterator[bytes]:
    fh.seek(0)
    return iter(fh)

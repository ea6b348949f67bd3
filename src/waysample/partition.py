"""A stage's work over the byte ranges of an input file, each range in a
forked child, on as many CPUs as the stage may use.

``split`` is the one runner that ``filter``, ``classify``, ``sample`` and
``stats`` share. It is a module of its own, so that ``fetch-first``,
``fetch``, ``reintegrate`` and ``rehydrate``, which split no input, compile
and load none of it; ``sampler`` imports it in ``sample``'s body alone.
"""

from __future__ import annotations

import io
import marshal
import os
import threading
from contextlib import contextmanager, suppress
from typing import IO, Callable, NoReturn

from . import spill
from .cdx import CdxParseError


def split(counts: dict, path: str, work: Callable, *sinks, spill_dir: str | None = None) -> list:
    """The results of ``work(source, *parts)`` over the lines of ``path``,
    in input order, its byte ranges run on as many CPUs.

    ``ranges`` cuts ``path`` after newline bytes. With one range, for
    ``-``, without ``os.fork`` or with a thread running, ``work`` reads
    ``path`` here, and its parts are ``sinks`` themselves. Otherwise each
    range runs in a forked child: ``source`` is the range, which
    ``Stage.open`` reads, and each part is ``sink.part(fh)``, for an
    anonymous file in ``spill_dir`` made here. The child ends by
    ``part.export(fh)`` and hands back three things: its result and its
    ``counts``, over a pipe, and one file per sink. In range order, each
    range's counts are added to ``counts`` and ``sink.take(fh)`` takes its
    file. The first range to fail raises its error here, after its counts
    up to the error are added; a CdxParseError names the file's line, not
    the range's. Every child is reaped, however the stage ends.
    """
    if path == "-" or not hasattr(os, "fork") or threading.active_count() > 1:
        cuts = []
    else:
        cuts = ranges(path)
    if len(cuts) < 2:
        return [work(path, *sinks)]
    import signal
    import tempfile

    before = dict(counts)
    children: list[list] = []  # [pid until reaped, pipe, files until taken] by range
    results = []
    try:
        for start, end in cuts:
            with _sigint_held():  # so that no child is left unrecorded
                files = [tempfile.TemporaryFile(dir=spill_dir) for _ in sinks]
                r, w = os.pipe()
                child = [None, open(r, "rb"), files]
                children.append(child)
                try:
                    child[0] = os.fork()
                    if child[0] == 0:
                        _run_range(w, work, (path, start, end), sinks, files, counts)
                finally:
                    os.close(w)
        for (start, end), child in zip(cuts, children):
            data = child[1].read()
            with _sigint_held():
                status = os.waitpid(child[0], 0)[1]
                child[0] = None
            if not data:
                raise ChildProcessError(f"bytes {start}-{end} of {path}: the worker ended "
                                        f"with {os.waitstatus_to_exitcode(status)}")
            ok, result, range_counts = marshal.loads(data)
            for key, n in range_counts.items():
                if n != before.get(key):
                    counts[key] = counts.get(key, 0) + n - before.get(key, 0)
            if not ok:
                import pickle  # only for an error, which marshal cannot send

                exc = pickle.loads(result)
                if isinstance(exc, CdxParseError) and exc.line_no and start:
                    with read_range(path, 0, start) as fh:
                        exc = CdxParseError(exc.reason, exc.line_no + sum(1 for _ in fh), exc.path)
                raise exc
            for sink, fh in zip(sinks, child[2]):
                sink.take(fh)
            child[2] = ()
            results.append(result)
        return results
    finally:
        with _sigint_held():
            for pid, pipe, files in children:
                # a Ctrl-C held back until after a waitpid leaves a reaped pid here
                with suppress(ProcessLookupError, ChildProcessError):
                    if pid:
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                pipe.close()
                for fh in files:
                    fh.close()


def url_lines(stage, args, line: Callable[[str], str]) -> None:
    """Write ``line(url)`` for each URL of the stage's ``args.input`` to its
    ``args.output``, the input's byte ranges split over CPUs."""
    def lines(source, out: Output) -> None:
        out.writelines(map(line, stage.urls(source)))

    spill_dir = None if args.output == "-" else os.path.dirname(os.path.abspath(args.output))
    with stage.open(args.output, "w") as fout:
        split(stage.counts, args.input, lines, Output(fout), spill_dir=spill_dir)


def ranges(path: str) -> list[tuple[int, int]]:
    """``path`` cut after newline bytes into (start, end) byte ranges: one for
    each CPU this process may use, but no more than the file holds spill
    runs. A cut falls at the first line start at or after its even share of
    the size and after the cut before it."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    size = os.path.getsize(path)
    n = min(cpus, size // spill.RUN_BYTES)
    cuts = [0]
    if n > 1:
        with open(path, "rb") as fh:
            for i in range(1, n):
                fh.seek(max(size * i // n - 1, cuts[-1]))
                while (piece := fh.readline(1 << 16)) and piece[-1:] != b"\n":
                    pass  # to the end of the line the byte before the share falls in
                if fh.tell() == size:
                    break
                cuts.append(fh.tell())
    return list(zip(cuts, cuts[1:] + [size]))


def read_range(path: str, start: int, end: int) -> IO[str]:
    """The bytes ``start`` to ``end`` of ``path`` as text, read as ``Stage.open``
    reads the whole file."""
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, end)), encoding="utf-8",
                            errors="surrogateescape")


class _ByteRange(io.RawIOBase):
    def __init__(self, path: str, start: int, end: int):
        self.name = path  # so that an error names the file, as when it is read whole
        self._file = open(path, "rb", buffering=0)
        self._file.seek(start)
        self._left = end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


class Output:
    """A text file that ``split`` fills a range at a time: each range's part
    writes to a file of its own, which ``take`` appends, in range order."""

    def __init__(self, fh: IO[str]):
        self.fh = fh
        self.writelines = fh.writelines

    def part(self, fh: IO[bytes]) -> Output:
        return Output(io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape"))

    def export(self, fh: IO[bytes]) -> None:
        self.fh.flush()

    def take(self, fh: IO[bytes]) -> None:
        import shutil

        with fh:
            self.fh.flush()
            fh.seek(0)
            shutil.copyfileobj(fh, self.fh.buffer)


@contextmanager
def _sigint_held():
    """SIGINT held back while the block runs, which holds no other block: a
    Ctrl-C raises KeyboardInterrupt before it or after it, not between two
    steps that must both happen."""
    import signal

    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


def _run_range(pipe: int, work: Callable, source: tuple[str, int, int], sinks: tuple,
               files: list[IO[bytes]], counts: dict) -> NoReturn:
    """In a forked child, whose SIGINT stays held: ``work`` over one byte
    range, its parts exported to ``files``, and the outcome sent to ``pipe``
    as ``split`` reads it. The child ends here, whatever happens, and
    flushes or closes nothing that it shares with the parent but ``files``."""
    try:
        try:
            parts = [sink.part(fh) for sink, fh in zip(sinks, files)]
            result = work(source, *parts)
            for part, fh in zip(parts, files):
                part.export(fh)
                fh.flush()
            outcome = marshal.dumps((True, result, counts))
        except BaseException as exc:
            import pickle

            outcome = marshal.dumps((False, pickle.dumps(exc.with_traceback(None)), counts))
        with open(pipe, "wb") as fh:
            fh.write(outcome)
    finally:
        os._exit(0)

"""CDX API client: first-record queries, page counts, paginated TimeMap
fetches, retries with exponential backoff, a politeness ceiling on
concurrent requests, and content-addressed raw-response persistence.

Safe for concurrent use: each request attempt holds one of ``politeness_limit``
keep-alive connections; ``ArchiveClient.map`` runs per-URL work on as many threads.

Requests are HTTP/1.1 GETs on a stdlib ``socket`` (see ``_Connection``);
``ssl`` loads for an ``https://`` endpoint only, ``hashlib`` once a body is stored,
``random`` at the first retry; the host is resolved as ASCII bytes, without ``idna``.

A request is of one of three kinds, under the names that column 2 of the
``--log`` TSV and ``MockCdxServer.schedule_faults`` use: ``limit`` sends
``<path>?url=<URL>&limit=1``, ``numpages`` ``<path>?url=<URL>&showNumPages=true``
and ``page`` ``<path>?url=<URL>&page=<N>``, the URL quoted as a form value. A 2xx
body that is not UTF-8 is a ``CdxResponseError``, as a malformed one is.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from collections import deque, namedtuple
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Iterator
from urllib.parse import quote_plus, urlsplit

from . import __version__
from .cdx import CdxParseError, CdxRecord, TimeMap, atomic_open, checked_records

TRANSIENT_STATUS_MIN = 500
TIMEOUT = 30.0  # seconds a connection may take to open, and a read to get its next bytes
# the digits a body size may be written in, by base
_DIGITS = {10: b"0123456789", 16: b"0123456789abcdefABCDEF"}

# what each request kind appends to its quoted url; a page request adds its number
QUERY_SUFFIX = {"limit": "&limit=1", "numpages": "&showNumPages=true", "page": "&page="}


class FetchLog(namedtuple("FetchLog", "url kind page http_status attempt duration stored_at",
                          defaults=(None,))):
    """One request attempt: its URL, kind (a key of QUERY_SUFFIX), page number
    or None, HTTP status (0 for none), attempt number from 1, duration in
    seconds, and the path of its stored body or None."""

    __slots__ = ()

    def to_tsv_line(self) -> str:
        page = "-" if self.page is None else self.page
        return (f"{self.url}\t{self.kind}\t{page}\t{self.http_status}"
                f"\t{self.attempt}\t{self.duration:.6f}\t{self.stored_at or '-'}")


class FetchError(RuntimeError):
    """A URL the archive did not answer usefully; the stage records it and goes on."""


class TransportError(FetchError):
    def __init__(self, message: str, last_status: int | None = None):
        super().__init__(message)
        self.last_status = last_status


class CdxResponseError(FetchError):
    def __init__(self, message: str, stored_at: str | None = None):
        super().__init__(message)
        self.stored_at = stored_at


class RetryPolicy(namedtuple("RetryPolicy", "max_attempts backoff_base jitter")):
    """Retry on 5xx, 429 and connection failures only; any other 4xx is permanent.
    Backoff doubles from the base with jitter, capped at max_attempts."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, max_attempts: int = 5, backoff_base: float = 1.0, jitter: float = 0.25):
        if max_attempts < 1:
            raise ValueError(f"retry cap must be at least 1, got {max_attempts}")
        return tuple.__new__(cls, (max_attempts, backoff_base, jitter))

    def delay(self, attempt: int) -> float:
        import random  # imported here: a stage that meets no retry does without it
        base = self.backoff_base * (2 ** (attempt - 1))
        return base * (1.0 + self.jitter * random.random())


class _BadResponse(OSError):
    """A reply that breaks HTTP/1.1: retried like a transport failure, never resent."""


class _Connection:
    """A keep-alive HTTP/1.1 connection for GETs, opened on its first one. A body
    is read by ``Content-Length``, as ``chunked`` (extensions and trailers
    ignored) or up to the close; after that, ``Connection: close`` or an HTTP/1.0
    reply without keep-alive, the connection closes."""

    def __init__(self, host: str, port: int, netloc: str, tls=None):
        self._address, self._host, self._tls = (host.encode("ascii"), port), host, tls
        self._head = (f" HTTP/1.1\r\nHost: {netloc}\r\nUser-Agent: waysample/{__version__}"
                      "\r\nAccept-Encoding: identity\r\n\r\n").encode("ascii")
        self.sock = self._rfile = None

    def close(self) -> None:
        if self.sock is not None:
            self._rfile.close()
            self.sock.close()
            self.sock = self._rfile = None

    def get(self, target: str) -> tuple[int, bytes, str | None]:
        """Status, body and Location of a GET of ``target``; a reply that ends
        before its status line is a ``ConnectionResetError``."""
        if self.sock is None:
            sock = socket.create_connection(self._address, TIMEOUT)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # a failed handshake closes the socket, which wrap_socket took over from sock
            self.sock = (self._tls.wrap_socket(sock, server_hostname=self._host)
                         if self._tls else sock)
            self._rfile = self.sock.makefile("rb")
        self.sock.sendall(b"GET " + target.encode("ascii") + self._head)
        line = self._rfile.readline()
        if not line:
            raise ConnectionResetError("connection closed before the status line")
        version, _, rest = line.partition(b" ")
        if not (version.startswith(b"HTTP/1.") and rest[:3].isdigit() and rest[3:4].isspace()):
            raise _BadResponse(f"malformed status line {line[:80]!r}")
        headers = self._fields()
        connection = headers.get(b"connection", b"").lower()
        keep = b"keep-alive" in connection if version == b"HTTP/1.0" else b"close" not in connection
        if b"chunked" in headers.get(b"transfer-encoding", b"").lower():
            chunks = []
            while chunk := self._read(self._rfile.readline().partition(b";")[0].strip(), 16):
                chunks.append(chunk)
                self._rfile.readline()  # the CRLF after the chunk
            body, _ = b"".join(chunks), self._fields()  # trailers are ignored
        elif b"content-length" in headers:
            body = self._read(headers[b"content-length"], 10)
        else:
            body, keep = self._rfile.read(), False
        if not keep:
            self.close()
        return int(rest[:3]), body, headers.get(b"location", b"").decode("latin-1") or None

    def _fields(self) -> dict[bytes, bytes]:
        """The header or trailer fields up to the blank line, by lowercased name."""
        fields = {}
        while (line := self._rfile.readline()) not in (b"\r\n", b"\n"):
            if not line:
                raise _BadResponse("connection closed within the headers")
            name, _, value = line.partition(b":")
            fields[name.strip().lower()] = value.strip()
        return fields

    def _read(self, size: bytes, base: int) -> bytes:
        """The next ``size`` bytes, ``size`` written in ASCII ``base`` digits
        alone: no sign, ``_``, space or ``0x``."""
        n = int(size, base) if size and not size.strip(_DIGITS[base]) else -1
        data = self._rfile.read(n) if n >= 0 else b""
        if len(data) < n or n < 0:
            raise _BadResponse(f"body of size {size[:80]!r} ended after {len(data)} bytes")
        return data


class ArchiveClient:
    """A client of the CDX endpoint ``base_url``. ``log``, if set, gets the
    FetchLog of each attempt, one call at a time."""

    def __init__(self, base_url: str, retry: RetryPolicy = RetryPolicy(),
                 politeness_limit: int = 4, request_delay: float = 0.0,
                 storage_dir: str | None = None,
                 log: Callable[[FetchLog], None] | None = None):
        self.base_url, self.retry, self.politeness_limit = base_url, retry, politeness_limit
        self.request_delay, self.storage_dir = request_delay, storage_dir
        self.log = log
        parts = urlsplit(self.base_url)
        if (parts.scheme not in ("http", "https") or not parts.hostname or "@" in parts.netloc
                or parts.query or parts.fragment or not self.base_url.isascii()):
            raise ValueError("endpoint must be an ASCII http(s)://host[:port]/path URL "
                             f"without userinfo or query, got {self.base_url!r}")
        if self.politeness_limit < 1:
            raise ValueError(f"politeness limit must be at least 1, got {self.politeness_limit}")
        tls = None
        if parts.scheme == "https":
            try:
                import ssl  # imported here: it maps libcrypto, which http:// does without
            except ImportError:
                raise ValueError("an https:// endpoint needs Python's ssl module") from None
            tls = ssl.create_default_context()
        port = parts.port or (443 if tls else 80)
        self._path = parts.path or "/"
        # the politeness ceiling; none opens a socket before its first request, and
        # last in, first out keeps a lone caller on one warm connection
        self._pool: queue.LifoQueue = queue.LifoQueue()
        for _ in range(self.politeness_limit):
            self._pool.put(_Connection(parts.hostname, port, parts.netloc, tls))
        self._answered = False  # some request got an HTTP response
        self._lock = threading.Lock()
        self._next_start = 0.0  # monotonic time before which no request may start

    def close(self) -> None:
        """Close the idle connections; each reopens on its next request."""
        with self._pool.mutex:
            for conn in self._pool.queue:
                conn.close()

    def __enter__(self) -> ArchiveClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def map(self, fn: Callable, items: Iterable, key: Callable | None = None) -> Iterator:
        """Yield ``(item, fn(item), None)`` for each of ``items``, in input order, from
        ``politeness_limit`` threads, with at most four times that many items read ahead;
        a ``FetchError`` yields ``(item, None, error)``, and items with the same ``key``
        other than None run in turn. Any other exception is raised in its item's turn; it,
        or closing the generator, cancels the items not yet started and joins the threads."""
        todo: queue.SimpleQueue = queue.SimpleQueue()  # runs for the threads; None ends one
        window: deque = deque()  # (run, key, held) in input order; a run is [item, lock]
        cancelled = False

        def work() -> None:
            while (run := todo.get()) is not None:  # its lock is held until its outcome is in
                try:
                    if not cancelled:
                        run.append((run[0], fn(run[0]), None))
                except FetchError as exc:  # its traceback would hold fn's data
                    run.append((run[0], None, exc.with_traceback(None)))
                except BaseException as exc:  # raised by oldest, in its item's turn
                    run.append(exc)
                run[1].release()

        def oldest() -> tuple:
            run, _, held = window.popleft()
            if held:  # its key was in the window when it came in: it runs now, after the others
                todo.put(run)
            run[1].acquire()
            if isinstance(run[2], BaseException):
                raise run.pop()  # named by no variable, so no cycle holds it with this frame
            return run[2]

        workers = [threading.Thread(target=work) for _ in range(self.politeness_limit)]
        try:
            for worker in workers:
                worker.start()
            for item in items:
                k = key(item) if key else None
                run = [item, threading.Lock()]
                run[1].acquire()
                held = k is not None and any(k == other for _, other, _ in window)
                window.append((run, k, held))
                if not held:
                    todo.put(run)
                if len(window) >= 4 * self.politeness_limit:
                    yield oldest()
            while window:
                yield oldest()
        finally:
            cancelled = True
            for _ in workers:
                todo.put(None)
            for worker in filter(threading.Thread.is_alive, workers):  # not one never started
                worker.join()

    def _store_body(self, body: bytes) -> str | None:
        if self.storage_dir is None:
            return None
        import hashlib  # imported here: it maps libcrypto, which a stage storing nothing does without
        digest = hashlib.sha256(body).hexdigest()
        shard = os.path.join(self.storage_dir, digest[:2])
        os.makedirs(shard, exist_ok=True)
        path = os.path.join(shard, digest)
        if not os.path.exists(path):
            with atomic_open(path, "wb") as fh:
                fh.write(body)
        return path

    def _pace(self) -> None:
        """Wait until request_delay has passed since any thread's last request start."""
        with self._lock:
            now = time.monotonic()
            start = max(now, self._next_start)
            self._next_start = start + self.request_delay
        time.sleep(start - now)

    def _exchange(self, conn: _Connection, target: str) -> tuple[int, bytes, str | None]:
        """Status, body and Location of a GET on a keep-alive connection; on a
        reused one that the server closed while idle, the GET is sent again, once."""
        resend = conn.sock is not None
        while True:
            try:
                return conn.get(target)
            except BaseException as exc:
                conn.close()  # its state is unknown; the next request reconnects
                if not (resend and isinstance(exc, ConnectionError)):
                    raise
                resend = False

    def _get(self, url: str, kind: str, page: int | None = None) -> str:
        """The body of one logical request of ``kind`` (a key of ``QUERY_SUFFIX``):
        retries transient failures, logs every attempt, persists each received
        body. 3xx and 4xx other than 429 are permanent, and so is a refused or
        unresolvable endpoint that has never answered; a 2xx body that is not
        UTF-8 is a ``CdxResponseError``. Errors name the request as ``kind`` or
        ``page N``."""
        label = kind if page is None else f"{kind} {page}"
        target = (f"{self._path}?url={quote_plus(url, safe='')}{QUERY_SUFFIX[kind]}"
                  f"{'' if page is None else page}")
        last_status: int | None = None
        for attempt in range(1, self.retry.max_attempts + 1):
            conn = self._pool.get()
            try:
                if self.request_delay:
                    self._pace()
                start = time.monotonic()
                status, body, location, unreachable = 0, b"", None, False
                try:
                    status, body, location = self._exchange(conn, target)
                    self._answered = True
                except (ConnectionRefusedError, socket.gaierror):
                    unreachable = not self._answered
                except OSError:
                    pass
                duration = time.monotonic() - start
                stored_at = self._store_body(body) if body else None
                if self.log is not None:
                    with self._lock:
                        self.log(FetchLog(url, kind, page, status, attempt, duration, stored_at))
            finally:
                self._pool.put(conn)
            if 200 <= status < 300:
                try:
                    return body.decode("utf-8")
                except UnicodeDecodeError:
                    raise CdxResponseError(f"CDX body for {url!r} ({label}) is not UTF-8 "
                                           f"(raw body at {stored_at})", stored_at) from None
            last_status = status
            if unreachable:
                raise TransportError(f"cannot reach {self.base_url} for {url!r} ({label})", 0)
            if 300 <= status < 400:
                raise TransportError(f"HTTP {status} redirect to {location} for {url!r} "
                                     f"({label}); configure that endpoint instead", status)
            if 400 <= status < TRANSIENT_STATUS_MIN and status != 429:  # 429: rate limited
                raise TransportError(f"permanent HTTP {status} for {url!r} ({label})", status)
            if attempt < self.retry.max_attempts:
                time.sleep(self.retry.delay(attempt))
        raise TransportError(
            f"gave up after {self.retry.max_attempts} attempts "
            f"for {url!r} ({label}) (last status {last_status})",
            last_status,
        )

    def _unparseable(self, url: str, body: str) -> CdxResponseError:
        stored_at = self._store_body(body.encode("utf-8"))
        return CdxResponseError(
            f"unparseable CDX body for {url!r} (raw body at {stored_at})", stored_at)

    def fetch_first_record(self, url: str) -> CdxRecord | None:
        """First capture of a URL via a limit-1 query: the first record that
        ``checked_records`` reads of the body; None if none (unarchived URL)."""
        body = self._get(url, "limit")
        try:
            return next(checked_records([body]), None)
        except CdxParseError as exc:
            raise self._unparseable(url, body) from exc

    def fetch_page_count(self, url: str) -> int:
        body = self._get(url, "numpages").strip()
        if not (body.isascii() and body.isdigit()):
            raise CdxResponseError(f"page count {body!r} for {url!r} is not ASCII digits")
        return int(body)

    def fetch_timemap(self, url: str, fh=None):
        """Full TimeMap via the pagination protocol: page count first, then every page, whose
        lines ``checked_records`` reads as one reply's, exact repeats at a timestamp dropped.
        A line it refuses is a ``CdxResponseError``; a page that fails for good ends the fetch
        with its ``TransportError``, and no later page is requested. With ``fh``, a text file,
        the lines go to ``fh`` as each page arrives; only one timestamp's are held. Without it,
        the records are kept, in the order they came, and returned as the TimeMap of ``url``."""
        records = []  # without fh, the records kept
        n_pages = self.fetch_page_count(url)
        body = ""  # the page being read

        def pages():
            nonlocal body
            for page_no in range(n_pages):
                body = ""  # not held while the next page arrives
                yield (body := self._get(url, "page", page_no))

        try:
            for _, same in groupby(checked_records(pages()), attrgetter("timestamp.raw")):
                for record in dict.fromkeys(same):  # an exact repeat at its timestamp dropped
                    if fh is None:
                        records.append(record)
                    else:
                        fh.write(record.to_line() + "\n")
        except CdxParseError as exc:
            raise self._unparseable(url, body) from exc
        # of one urlkey, in timestamp order, as checked: a TimeMap without sorting again
        return None if fh else tuple.__new__(TimeMap, (url, records))

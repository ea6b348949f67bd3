"""Deterministic mock CDX server for desk-scale testing.

Serves the CDX API subset the pipeline uses (``url``, ``limit``, ``page``,
``showNumPages``) over an in-memory corpus sorted by (urlkey, timestamp),
with scripted fault injection (5xx sequences, dropped connections, slow
responses) and a max-concurrency probe for politeness tests. It speaks
HTTP/1.1, so clients keep their connections alive across requests.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import defaultdict, deque
from contextlib import suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .cdx import CdxRecord
from .surt import SurtError, surt_text_for_url


class MockCdxServer:
    """In-process HTTP server answering CDX queries from a fixed corpus.

    Fault scripts are keyed by (urlkey, kind) where kind is a page number,
    ``"limit"``, or ``"numpages"``; each scheduled status is consumed by
    one matching request before real responses resume. Status 0 closes the
    connection without a response. ``None`` as the key schedules faults for
    any request.
    """

    def __init__(self, corpus: list[CdxRecord], page_size: int,
                 host: str = "127.0.0.1", port: int = 0):
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.page_size = page_size
        self._index: dict[str, list[CdxRecord]] = defaultdict(list)
        for record in sorted(corpus, key=lambda r: (r.urlkey, r.timestamp.raw)):
            self._index[record.urlkey].append(record)
        self._faults: dict[object, deque[int]] = {}
        self._delays: dict[object, float] = {}
        self._lock = threading.Lock()
        self._active = 0
        self.max_concurrency = 0
        self.request_count = 0
        self.connection_count = 0
        self._connections: set[socket.socket] = set()
        self._stopped = False  # stop() hangs up every connection still open
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # headers and body are two sends: Nagle + delayed ACK would stall each ~40 ms
            disable_nagle_algorithm = True

            def log_message(self, *args):
                pass

            def do_GET(self):
                server._handle(self)

        class Server(ThreadingHTTPServer):
            daemon_threads = False  # so that server_close() joins every handler thread
            # process_request runs on the serving thread: stop() sees every connection
            def process_request(self, request, client_address):
                with server._lock:
                    server.connection_count += 1
                    server._connections.add(request)
                super().process_request(request, client_address)

            def shutdown_request(self, request):
                with server._lock:
                    server._connections.discard(request)
                super().shutdown_request(request)

            def handle_error(self, request, client_address):
                # a handler writing as stop() hung up its connection fails: expected
                if not server._stopped:
                    super().handle_error(request, client_address)

        self._httpd = Server((host, port), Handler)
        # stop() waits up to one poll interval; serve_forever's default is 0.5 s
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.02}, daemon=True)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "MockCdxServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, hang up every open keep-alive connection, and wait
        for the serving thread and every handler thread to end."""
        self._httpd.shutdown()
        with self._lock:
            self._stopped = True
            for sock in self._connections:  # wakes each handler blocked on a read
                with suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)
        self._httpd.server_close()
        self._thread.join()

    def __enter__(self) -> "MockCdxServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def endpoint(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/cdx"

    # -- fault injection ---------------------------------------------------

    def schedule_faults(self, urlkey: str | None, kind, statuses: list[int]) -> None:
        """Queue HTTP statuses for requests matching (urlkey, kind); kind is
        a page number, "limit", or "numpages". urlkey None matches any."""
        key = None if urlkey is None else (urlkey, kind)
        with self._lock:
            self._faults.setdefault(key, deque()).extend(statuses)

    def schedule_delay(self, urlkey: str | None, kind, seconds: float) -> None:
        key = None if urlkey is None else (urlkey, kind)
        with self._lock:
            self._delays[key] = seconds

    def _pop_fault(self, key) -> int | None:
        with self._lock:
            for probe in (key, None):
                queue = self._faults.get(probe)
                if queue:
                    return queue.popleft()
        return None

    def _delay_for(self, key) -> float:
        with self._lock:
            return self._delays.get(key) or self._delays.get(None) or 0.0

    # -- request handling --------------------------------------------------

    def _lookup(self, url: str) -> tuple[str, list[CdxRecord]]:
        """The URL's SURT key, or the URL itself if it has none, and its records."""
        try:
            key = surt_text_for_url(url)
        except SurtError:
            return url, []
        return key, self._index.get(key, [])

    def page_count_for(self, url: str) -> int:
        return -(-len(self._lookup(url)[1]) // self.page_size)

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        with self._lock:
            self._active += 1
            self.request_count += 1
            self.max_concurrency = max(self.max_concurrency, self._active)
        try:
            status, body = self._respond(handler.path)
            time.sleep(0)  # encourage interleaving under load
            if status == 0:
                handler.close_connection = True
                return
            handler.send_response(status)
            handler.send_header("Content-Type", "text/plain; charset=utf-8")
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body)
        finally:
            with self._lock:
                self._active -= 1

    def _respond(self, path: str) -> tuple[int, bytes]:
        params = parse_qs(urlsplit(path).query)
        url = params.get("url", [""])[0]
        if not url:
            return 400, b"missing url parameter\n"
        key, records = self._lookup(url)

        if params.get("showNumPages", [""])[0] == "true":
            kind = "numpages"
        elif "limit" in params:
            kind = "limit"
        elif "page" in params:
            kind = int(params["page"][0])
        else:
            kind = "limit"

        delay = self._delay_for((key, kind))
        if delay:
            time.sleep(delay)
        fault = self._pop_fault((key, kind))
        if fault is not None:
            return fault, b"injected fault\n"

        if kind == "numpages":
            return 200, f"{-(-len(records) // self.page_size)}\n".encode()
        if kind == "limit":
            limit = int(params.get("limit", ["1"])[0])
            lines = records[:limit]
        else:
            page = kind
            if page < 0:
                return 400, b"negative page\n"
            start = page * self.page_size
            lines = records[start:start + self.page_size]
        body = "".join(r.to_line() + "\n" for r in lines)
        return 200, body.encode()

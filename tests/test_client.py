import concurrent.futures
import datetime
import gc
import io
import ipaddress
import json
import os
import random
import socket
import ssl
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import deque
from unittest import mock
from urllib.parse import urlencode, urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from waysample import __version__
from waysample.client import (
    ArchiveClient,
    CdxResponseError,
    FetchLog,
    RetryPolicy,
    TransportError,
)
from waysample.cdx import (
    CdxParseError,
    CdxRecord,
    Timestamp14,
    atomic_open,
    read_timemap,
    write_timemap,
)
from waysample.mockserver import MockCdxServer
from waysample.surt import surt_text_for_url
from waysample.timemaps import merge_pages

from conftest import make_history

URL_A = "http://example.com/"
URL_B = "http://example.com/page.html"
KEY_A = surt_text_for_url(URL_A)

FAST_RETRY = RetryPolicy(max_attempts=5, backoff_base=0.01, jitter=0.0)


@pytest.fixture(scope="module")
def corpus():
    seeded = random.Random(0xFACADE)
    return {
        URL_A: make_history(URL_A, 25, seeded),
        URL_B: make_history(URL_B, 7, seeded),
    }


@pytest.fixture
def server(corpus):
    with MockCdxServer(corpus[URL_A] + corpus[URL_B], page_size=10) as srv:
        yield srv


@pytest.fixture
def logs():
    """The attempts of the client fixture, in the order it logged them."""
    return []


@pytest.fixture
def client(server, logs):
    with ArchiveClient(server.endpoint, retry=FAST_RETRY, log=logs.append) as client:
        yield client


class TestFirstRecord:
    def test_earliest_capture_returned(self, client, corpus):
        record = client.fetch_first_record(URL_A)
        assert record == corpus[URL_A][0]

    def test_unarchived_url_is_none(self, client):
        assert client.fetch_first_record("http://never-crawled.example/") is None

    def test_retry_after_transient_failure(self, server, client, logs, corpus):
        server.schedule_faults(KEY_A, "limit", [503])
        record = client.fetch_first_record(URL_A)
        assert record == corpus[URL_A][0]
        statuses = [log.http_status for log in logs]
        attempts = [log.attempt for log in logs]
        assert statuses == [503, 200]
        assert attempts == [1, 2]

    def test_permanent_4xx_not_retried(self, server, client, logs):
        server.schedule_faults(KEY_A, "limit", [404])
        with pytest.raises(TransportError) as exc:
            client.fetch_first_record(URL_A)
        assert exc.value.last_status == 404
        assert len(logs) == 1

    def test_gives_up_after_cap(self, server, client, logs):
        server.schedule_faults(KEY_A, "limit", [503] * 10)
        with pytest.raises(TransportError) as exc:
            client.fetch_first_record(URL_A)
        assert exc.value.last_status == 503
        assert len(logs) == FAST_RETRY.max_attempts


class TestPageCount:
    def test_ceiling_division(self, client):
        assert client.fetch_page_count(URL_A) == 3  # 25 records / 10 per page
        assert client.fetch_page_count(URL_B) == 1

    def test_exact_boundary(self, corpus):
        with MockCdxServer(corpus[URL_A], page_size=5) as srv:
            with ArchiveClient(srv.endpoint, retry=FAST_RETRY) as client:
                assert client.fetch_page_count(URL_A) == 5

    def test_unarchived_is_zero(self, client):
        assert client.fetch_page_count("http://never-crawled.example/") == 0


class TestFetchTimemap:
    def test_all_pages_merged(self, client, logs, corpus):
        tm = client.fetch_timemap(URL_A)
        assert tm.records == corpus[URL_A]
        kinds = [log.to_tsv_line().split("\t")[1] for log in logs]
        assert kinds == ["numpages", "page", "page", "page"]

    def test_unarchived_url_empty_timemap(self, client):
        tm = client.fetch_timemap("http://never-crawled.example/")
        assert tm.records == []

    def test_recovers_from_transient_page_faults(self, server, client, logs, corpus):
        server.schedule_faults(KEY_A, 1, [503, 503])
        tm = client.fetch_timemap(URL_A)
        assert tm.records == corpus[URL_A]
        assert len(logs) == 6  # numpages + pages 0..2 + two retries of page 1

    def test_persistent_page_failure_names_page(self, server, client):
        server.schedule_faults(KEY_A, 2, [500] * 10)
        with pytest.raises(TransportError, match=r"\(page 2\)") as exc:
            client.fetch_timemap(URL_A)
        assert exc.value.last_status == 500

    @pytest.mark.parametrize("streamed", [False, True])
    @pytest.mark.parametrize("failing", [0, 1, 2])  # the first, a middle and the last of 3
    def test_page_failing_for_good_is_the_last_request(self, server, client, logs, tmp_path,
                                                       failing, streamed):
        assert server.page_count_for(URL_A) == 3
        server.schedule_faults(KEY_A, failing, [500] * FAST_RETRY.max_attempts)
        with pytest.raises(TransportError, match=rf"\(page {failing}\)"):
            if streamed:
                with atomic_open(tmp_path / "t.cdx") as fh:
                    client.fetch_timemap(URL_A, fh)
            else:
                client.fetch_timemap(URL_A)
        # the page count, each earlier page once, then every attempt of the failing page
        assert [(log.kind, log.page, log.attempt) for log in logs] == [
            ("numpages", None, 1), *(("page", page, 1) for page in range(failing)),
            *(("page", failing, attempt) for attempt in range(1, FAST_RETRY.max_attempts + 1))]
        assert not os.listdir(tmp_path)

    def test_rate_limited_page_is_retried(self, server, client, logs, corpus):
        server.schedule_faults(KEY_A, 1, [429, 429])
        assert client.fetch_timemap(URL_A).records == corpus[URL_A]
        assert [(log.page, log.http_status) for log in logs if log.kind == "page"] == [
            (0, 200), (1, 429), (1, 429), (1, 200), (2, 200)]

    @pytest.mark.parametrize("status", [400, 404])
    def test_other_4xx_page_is_not_retried(self, server, client, logs, status):
        server.schedule_faults(KEY_A, 1, [status])
        with pytest.raises(TransportError, match=r"\(page 1\)") as exc:
            client.fetch_timemap(URL_A)
        assert exc.value.last_status == status
        assert [(log.page, log.http_status) for log in logs if log.kind == "page"] == [
            (0, 200), (1, status)]


# records of one URL among few timestamps and digests: equal timestamps and
# exact duplicates, within a page and across its boundaries
PAGED_RECORD = st.builds(
    lambda second, digest, status: CdxRecord(KEY_A, Timestamp14(f"200101010000{second:02d}"),
                                             URL_A, "text/html", status, digest, 1),
    st.integers(0, 3), st.sampled_from("AB"), st.sampled_from(["200", "404"]))
PAGED_RECORDS = st.lists(PAGED_RECORD, max_size=30)
# the lines of a reply or a file: records of PAGED_RECORD, with their repeats,
# in timestamp order or not, and among them a record of another urlkey, a
# malformed line or a blank one, each ended by a break that str.splitlines
# breaks at, of which reading a file turns "\r" and "\r\n" into "\n"
ODD_LINES = st.sampled_from([
    "org,example)/ 20010101000001 http://example.org/ text/html 200 A 1",
    "com,example)/ 2001010100000 http://example.com/ text/html 200 A 1",
    "com,example)/ 20010101000001 http://example.com/ text/html 200 A",
    "com,example)/ 20010101000001 http://example.com/ text/html 200 A 01",
    "", " ", "\t"])


@st.composite
def text_lines(draw) -> list[str]:
    lines = draw(st.lists(PAGED_RECORD.map(CdxRecord.to_line), max_size=12))
    if draw(st.booleans()):
        lines.sort(key=lambda line: line.split()[1])
    for odd in draw(st.lists(ODD_LINES, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    return [line + draw(st.sampled_from(["\n", "\r", "\r\n", "\x85"])) for line in lines]


def paged_client(pages: list[list[str]]) -> ArchiveClient:
    """A client whose page count and page requests are answered from ``pages``,
    each a list of CDX lines, without a server."""
    def get(url, kind, page=None):
        if kind == "numpages":
            return f"{len(pages)}\n"
        return "".join(line + "\n" for line in pages[page])

    client = ArchiveClient("http://cdx.example/cdx")
    client._get = get
    return client


class TestStreamedTimemap:
    """fetch_timemap writes each page's lines to a file as the page arrives;
    what it writes of pages in timestamp order is what write_timemap writes of
    merge_pages of them, and pages out of that order are a response error."""

    @settings(max_examples=300)
    @given(PAGED_RECORDS, st.integers(1, 7), st.sampled_from(["sorted", "pages", "records"]),
           st.randoms(use_true_random=False))
    def test_equals_write_timemap_of_merge_pages(self, tmp_path_factory, records, size, order,
                                                 rnd):
        if order != "records":  # the order a CDX server sends; stable, so ties keep theirs
            records.sort(key=lambda r: r.timestamp.raw)
        else:
            rnd.shuffle(records)
        pages = [records[i:i + size] for i in range(0, len(records), size)]
        if order == "pages":
            rnd.shuffle(pages)
        lines = [[r.to_line() for r in page] for page in pages]
        if lines:  # a blank line, which is no record
            lines[rnd.randrange(len(lines))].insert(0, " ")
        directory = tmp_path_factory.mktemp("tm")
        client = paged_client(lines)
        stamps = [r.timestamp.raw for page in pages for r in page]
        if stamps != sorted(stamps):  # a record earlier than the one before
            with pytest.raises(CdxResponseError), atomic_open(directory / "streamed.cdx") as fh:
                client.fetch_timemap(URL_A, fh)
            assert not os.listdir(directory)
            with pytest.raises(CdxResponseError):
                client.fetch_timemap(URL_A)
            return
        write_timemap(merge_pages(pages, URL_A), directory / "oracle.cdx")
        with atomic_open(directory / "streamed.cdx") as fh:
            assert client.fetch_timemap(URL_A, fh) is None
        assert (directory / "streamed.cdx").read_bytes() == (directory / "oracle.cdx").read_bytes()
        assert client.fetch_timemap(URL_A) == merge_pages(pages, URL_A)

    @given(PAGED_RECORDS.filter(bool), st.integers(1, 7), st.randoms(use_true_random=False))
    def test_second_urlkey_is_a_response_error(self, tmp_path_factory, records, size, rnd):
        records.sort(key=lambda r: r.timestamp.raw)
        other = records[rnd.randrange(len(records))]._replace(urlkey="org,example)/")
        records.insert(rnd.randrange(len(records) + 1), other)
        client = paged_client([[r.to_line() for r in records[i:i + size]]
                               for i in range(0, len(records), size)])
        path = tmp_path_factory.mktemp("tm") / "t.cdx"
        with pytest.raises(CdxResponseError), atomic_open(path, "w+") as fh:
            client.fetch_timemap(URL_A, fh)
        assert not path.exists()
        with pytest.raises(CdxResponseError):
            client.fetch_timemap(URL_A)


@settings(max_examples=300, deadline=None)
@given(text_lines(), st.lists(st.integers(0, 15), max_size=4))
def test_pages_and_a_file_of_the_same_lines_read_alike(tmp_path_factory, lines, cuts):
    # what a fetch keeps of its pages is what read_timemap reads of a file of
    # their lines without the exact repeats at a timestamp, and the fetch
    # refuses the lines exactly when the file read does
    cuts = sorted(min(cut, len(lines)) for cut in cuts)
    pages = ["".join(lines[start:end]) for start, end in zip([0, *cuts], [*cuts, len(lines)])]
    path = tmp_path_factory.mktemp("tm") / "t.cdx"
    path.write_bytes("".join(lines).encode())

    def get(self, url, kind, page=None):
        return f"{len(pages)}\n" if kind == "numpages" else pages[page]

    with mock.patch.object(ArchiveClient, "_get", get), \
            ArchiveClient("http://cdx.example/cdx") as client:
        try:
            records = list(dict.fromkeys(read_timemap(path).records))
        except CdxParseError:
            for fh in (None, io.StringIO()):
                with pytest.raises(CdxResponseError):
                    client.fetch_timemap(URL_A, fh)
            return
        assert client.fetch_timemap(URL_A).records == records
        fh = io.StringIO()
        assert client.fetch_timemap(URL_A, fh) is None
        assert fh.getvalue() == "".join(r.to_line() + "\n" for r in records)


class TestFetchLogs:
    def test_log_invariants(self, server, client, logs):
        server.schedule_faults(KEY_A, 0, [502])
        client.fetch_timemap(URL_A)
        client.fetch_first_record(URL_B)
        by_query = {}
        for log in logs:
            assert log.duration >= 0
            by_query.setdefault((log.url, log.kind, log.page), []).append(log.attempt)
        for attempts in by_query.values():
            assert attempts == list(range(1, len(attempts) + 1))

    def test_fields_are_read_only(self):
        log = FetchLog(URL_A, "page", 3, 503, 2, 0.25)
        assert log.to_tsv_line() == f"{URL_A}\tpage\t3\t503\t2\t0.250000\t-"
        with pytest.raises(AttributeError):
            log.http_status = 200

    def test_tsv_shape(self, client, logs):
        client.fetch_first_record(URL_A)
        client.fetch_timemap(URL_A)  # 25 records, 10 to a page
        rows = [log.to_tsv_line().split("\t") for log in logs]
        assert all(len(fields) == 7 and float(fields[5]) >= 0 for fields in rows)
        # every column but the duration: URL, kind, page, status, attempt, stored body
        assert [fields[:5] + fields[6:] for fields in rows] == [
            [URL_A, kind, page, "200", "1", "-"] for kind, page in [
                ("limit", "-"), ("numpages", "-"), ("page", "0"), ("page", "1"), ("page", "2")]]


class TestPoliteness:
    def test_concurrency_never_exceeds_limit(self, server):
        client = ArchiveClient(server.endpoint, retry=FAST_RETRY, politeness_limit=3)
        server.schedule_delay(None, None, 0.02)
        with client, concurrent.futures.ThreadPoolExecutor(max_workers=12) as pool:
            futures = [pool.submit(client.fetch_first_record, URL_A) for _ in range(24)]
            for future in futures:
                future.result()
        assert server.max_concurrency <= 3
        assert server.request_count == 24
        # the limit bounds the connections too, not only the requests in flight
        assert server.connection_count <= 3

    def test_request_delay_is_one_gap_for_all_threads(self, server):
        client = ArchiveClient(server.endpoint, retry=FAST_RETRY, politeness_limit=4,
                               request_delay=0.05)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave as often as they can
        try:
            start = time.monotonic()
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                for future in [pool.submit(client.fetch_first_record, URL_A)
                               for _ in range(10)]:
                    future.result(timeout=10)
            # ten starts, each at least 0.05 s after the one before
            assert time.monotonic() - start >= 0.45
        finally:
            sys.setswitchinterval(interval)
            client.close()

    def test_zero_politeness_limit_is_rejected(self, server):
        with pytest.raises(ValueError, match="politeness limit"):
            ArchiveClient(server.endpoint, politeness_limit=0)

    def test_zero_retry_cap_is_rejected(self):
        with pytest.raises(ValueError, match="retry cap"):
            RetryPolicy(max_attempts=0)


def _old_params(url, limit=None, page=None, show_num_pages=False) -> dict[str, str]:
    """The query parameters the client once rendered with ``urlencode``: the
    reference that each request target must match byte for byte."""
    params = {"url": url}
    if limit is not None:
        params["limit"] = str(limit)
    if page is not None:
        params["page"] = str(page)
    if show_num_pages:
        params["showNumPages"] = "true"
    return params


# URL texts rich in what form quoting changes: spaces, '&', '#', '%', '+' and non-ASCII
URL_TEXTS = st.text(st.one_of(st.sampled_from(list(" &#%+=?/:;~é中😀")),
                              st.characters(blacklist_categories=("Cs",))))


class TestQueryTargets:
    @given(URL_TEXTS)
    def test_target_is_urlencode_of_old_params(self, url):
        sent = []

        def get(conn, target):
            sent.append(target)
            return 200, b"12\n" if "showNumPages" in target else b"", None

        client = ArchiveClient("http://cdx.example/cdx")
        with mock.patch("waysample.client._Connection.get", get):
            assert client.fetch_first_record(url) is None
            assert client.fetch_timemap(url).records == []  # 12 empty pages
        assert sent == [f"/cdx?{urlencode(params)}" for params in [
            _old_params(url, limit=1), _old_params(url, show_num_pages=True),
            *[_old_params(url, page=n) for n in range(12)]]]


class TestBodyStorage:
    def test_content_addressed_and_deduplicated(self, server, tmp_path, logs):
        client = ArchiveClient(server.endpoint, retry=FAST_RETRY,
                               storage_dir=str(tmp_path), log=logs.append)
        with client:
            client.fetch_first_record(URL_A)
            client.fetch_first_record(URL_A)
        paths = {log.stored_at for log in logs}
        assert len(paths) == 1
        (path,) = paths
        digest = os.path.basename(path)
        assert os.path.basename(os.path.dirname(path)) == digest[:2]
        with open(path, "rb") as fh:
            import hashlib
            assert hashlib.sha256(fh.read()).hexdigest() == digest


def attempts(logs):
    return [(log.http_status, log.attempt) for log in logs]


class TestKeepAlive:
    def test_one_connection_for_sequential_requests(self, server, client):
        for _ in range(20):
            client.fetch_first_record(URL_A)
        assert server.connection_count == 1
        assert server.request_count == 20

    def test_sequential_requests_are_fast(self, client):
        # Nagle's algorithm on the mock would add ~40 ms to each request
        start = time.monotonic()
        for _ in range(50):
            client.fetch_first_record(URL_A)
        assert time.monotonic() - start < 1.0

    def test_drop_on_fresh_connection_is_an_attempt(self, server, client, logs, corpus):
        server.schedule_faults(KEY_A, "limit", [0])
        assert client.fetch_first_record(URL_A) == corpus[URL_A][0]
        assert attempts(logs) == [(0, 1), (200, 2)]

    def test_drop_on_reused_connection_is_resent(self, server, client, logs, corpus):
        client.fetch_page_count(URL_A)
        server.schedule_faults(KEY_A, "limit", [0])
        assert client.fetch_first_record(URL_A) == corpus[URL_A][0]
        assert attempts(logs) == [(200, 1), (200, 1)]
        assert server.connection_count == 2

    def test_redirect_is_permanent(self, server, client, logs):
        server.schedule_faults(KEY_A, "limit", [301])
        with pytest.raises(TransportError) as exc:
            client.fetch_first_record(URL_A)
        assert exc.value.last_status == 301
        assert attempts(logs) == [(301, 1)]

    def test_stopped_server_answers_nothing(self, server, client, logs):
        client.fetch_first_record(URL_A)
        server.stop()
        with pytest.raises(TransportError) as exc:
            client.fetch_first_record(URL_A)
        assert exc.value.last_status == 0
        assert attempts(logs) == [(200, 1)] + [
            (0, n) for n in range(1, FAST_RETRY.max_attempts + 1)]
        assert server.request_count == 1

    def test_close_then_reconnect(self, server, client, logs):
        client.fetch_first_record(URL_A)
        client.close()
        client.fetch_first_record(URL_A)
        assert server.connection_count == 2
        assert attempts(logs) == [(200, 1), (200, 1)]

    def test_leaving_a_with_block_closes_the_connections(self, server):
        with ArchiveClient(server.endpoint, retry=FAST_RETRY) as client:
            client.fetch_first_record(URL_A)
        client.fetch_first_record(URL_A)  # on a new connection, as after close()
        client.close()
        assert server.connection_count == 2


class TestMockServerStop:
    @staticmethod
    def _send(server, url):
        """A connection that has sent one limit=1 query for ``url``."""
        endpoint = urlsplit(server.endpoint)
        sock = socket.create_connection((endpoint.hostname, endpoint.port))
        sock.sendall(f"GET /cdx?url={url}&limit=1 HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        return sock

    @staticmethod
    def _wait(done):
        deadline = time.monotonic() + 5
        while not done():
            assert time.monotonic() < deadline
            time.sleep(0.005)

    def test_stop_during_a_request_prints_nothing(self, server, capfd):
        server.schedule_delay(None, None, 0.2)
        with self._send(server, URL_A):
            self._wait(lambda: server.request_count == 1)
            server.stop()  # while the handler waits, before it writes its answer
            # the handler writes to the dead socket, fails, and lets it go
            self._wait(lambda: not server._connections)
        assert capfd.readouterr().err == ""

    def test_stop_ends_every_thread_of_the_server(self, server):
        before = set(threading.enumerate())  # the serving thread among them
        server.schedule_delay(surt_text_for_url(URL_B), "limit", 0.2)
        with self._send(server, URL_A) as idle, self._send(server, URL_B):
            assert idle.recv(1)  # answered; the connection is kept alive, its handler waits
            self._wait(lambda: server.request_count == 2)  # the other's handler is answering
            server.stop()
            assert set(threading.enumerate()) <= before - {server._thread}

    def test_failing_handler_is_still_reported(self, server, capfd, monkeypatch):
        monkeypatch.setattr(server, "_respond", mock.Mock(side_effect=RuntimeError("boom")))
        with self._send(server, URL_A) as sock:
            assert sock.recv(1) == b""  # closed once the error is reported
        server.stop()
        assert "RuntimeError: boom" in capfd.readouterr().err


class TestEndpoint:
    @pytest.mark.parametrize("base_url", [
        "localhost:1", "127.0.0.1:1/cdx", "ftp://a.example/cdx", "http:///cdx",
        "http://user:pw@a.example/cdx", "http://a.example/cdx?output=json",
        "http://a.example/cdx#x", "http://a.example:port/cdx", "http://bücher.example/cdx",
    ])
    def test_malformed_endpoint_rejected(self, base_url):
        with pytest.raises(ValueError):
            ArchiveClient(base_url)

    def test_endpoint_named_by_host_name(self, server, corpus):
        # the host goes to getaddrinfo as ASCII bytes, which it resolves as a name too
        parts = urlsplit(server.endpoint)
        assert parts.hostname == "127.0.0.1"
        with ArchiveClient(f"http://localhost:{parts.port}/cdx", retry=FAST_RETRY) as client:
            assert client.fetch_first_record(URL_A) == corpus[URL_A][0]

    def test_https_without_ssl_module_is_rejected(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "ssl", None)  # import ssl raises ImportError
        with pytest.raises(ValueError, match="ssl module"):
            ArchiveClient("https://a.example/cdx")
        ArchiveClient("http://a.example/cdx").close()

    def test_refused_before_any_answer_fails_at_once(self, logs):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # the default RetryPolicy
        client = ArchiveClient(f"http://127.0.0.1:{port}/cdx", log=logs.append)
        start = time.monotonic()
        with pytest.raises(TransportError) as exc:
            client.fetch_first_record(URL_A)
        assert time.monotonic() - start < 1.0
        assert exc.value.last_status == 0
        assert attempts(logs) == [(0, 1)]


class TestMalformedResponses:
    def test_malformed_page_is_a_response_error(self, server, tmp_path):
        client = ArchiveClient(server.endpoint, retry=FAST_RETRY, storage_dir=str(tmp_path))
        server.schedule_faults(KEY_A, 1, [200])
        with client, pytest.raises(CdxResponseError) as exc:
            client.fetch_timemap(URL_A)
        with open(exc.value.stored_at, "rb") as fh:
            assert fh.read() == b"injected fault\n"

    def test_non_integer_page_count(self, server, client):
        server.schedule_faults(KEY_A, "numpages", [200])
        with pytest.raises(CdxResponseError):
            client.fetch_timemap(URL_A)


# what a stage fetching from an http:// endpoint does without: http.client,
# with its email header parser and ssl, and hashlib; ssl and hashlib each
# map libcrypto
HEAVY_MODULES = {"http.client", "email", "ssl", "_ssl", "hashlib", "_hashlib"}


def _modules_loaded_by(module: str) -> set[str]:
    # without site (-S), whose .pth hooks may load some of these modules at
    # start-up and so hide them, and compared with what start-up loads
    probe = (f"import sys; before = set(sys.modules); import {module}; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return set(subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                              check=True, env=env).stdout.split())


def test_cli_import_loads_no_http_dependency():
    third_party = {"requests", "urllib3", "idna", "charset_normalizer", "certifi"}
    loaded = _modules_loaded_by("waysample.cli")
    # the client and its HTTP stack load only where a network stage builds a
    # client; queue comes with the client's connections and worker threads, and
    # no stage loads logging or concurrent, which a thread pool would bring
    assert not loaded & {"waysample.client", "http.client", "ssl"}
    assert not {name.split(".")[0] for name in loaded} & {
        *third_party, "logging", "concurrent", "queue"}
    # the client itself is on the stdlib, and needs neither HTTP nor crypto modules
    loaded = _modules_loaded_by("waysample.client")
    assert "waysample.client" in loaded
    assert not {name.split(".")[0] for name in loaded} & third_party
    assert not loaded & HEAVY_MODULES


@pytest.mark.parametrize("module", ["waysample.cli", "waysample.client", "waysample.sampler",
                                    "waysample.spill", "waysample.stats", "waysample.timemaps",
                                    "waysample.filtering", "waysample.fetching"])
def test_stage_modules_load_no_dataclasses_or_datetime(module):
    # every stage is a process of its own, which pays for each module its
    # imports load: the records are tuples, and a timestamp that the
    # common-date regex does not take is checked by a month-length table
    loaded = _modules_loaded_by(module)
    assert module in loaded
    assert not loaded & {"dataclasses", "inspect", "datetime"}


# the waysample modules that every stage loads: the runner and what Stage uses
STAGE_COMMON = {"cli", "cdx", "config", "surt"}
# and those each stage loads besides: no offline stage loads the client, and
# no stage another stage's module
STAGE_MODULES = {
    "filter": {"filtering", "urlfilter", "partition", "spill"},
    "classify": {"filtering", "urlfilter", "partition", "spill"},
    "fetch-first": {"fetching", "urlfilter", "client"},
    "sample": {"sampler", "partition", "spill"},
    "sample --endpoint": {"sampler", "partition", "spill", "client"},
    "reintegrate": {"sampler", "spill", "client"},
    "fetch": {"fetching", "urlfilter", "client"},
    "rehydrate": {"timemaps"},
    "stats": {"stats", "partition", "spill"},
}


@pytest.mark.parametrize("stage", STAGE_MODULES)
def test_each_stage_loads_only_its_modules(tmp_path, stage):
    # main imports the one module that holds the stage; lists this short fit
    # one spill run, so no spill file is made and tempfile, which loads random, is not.
    # The stamps fall on 29 February and 31 December, outside the common-date
    # regex, and example.com is seen only through a deep link, so that sample
    # --endpoint looks its root up
    urls, first = tmp_path / "urls.txt", tmp_path / "first.tsv"
    urls.write_text(f"{URL_A}\nhttp://www.example.com/x\nhttp://b.com/\n")
    first.write_text("http://www.example.com/x\t20041231235959\ttext/html\tok\n"
                     "http://b.com/\t20040229000000\ttext/html\tok\n")
    (tmp_path / "timemaps").mkdir()
    records = [CdxRecord(KEY_A, Timestamp14(ts), URL_A, "text/html", "200", "A" * 32, 1024)
               for ts in ("20040229120000", "20041231235959")]
    (tmp_path / "timemaps" / "a.cdx").write_text("".join(r.to_line() + "\n" for r in records))
    out = str(tmp_path / "out")
    with MockCdxServer(records, page_size=10) as server:
        argv = {
            "filter": ["filter", str(urls), "-o", out],
            "classify": ["classify", str(urls), "-o", out],
            "fetch-first": ["fetch-first", str(urls), "-o", out, "--endpoint", server.endpoint],
            "sample": ["sample", "--first-captures", str(first), "--out-dir", out],
            "sample --endpoint": ["sample", "--first-captures", str(first), "--out-dir", out,
                                  "--endpoint", server.endpoint],
            "reintegrate": ["reintegrate", str(urls), "--domain", "example.com", "-o", out,
                            "--years", "2004-2004", "--per-year-min", "1",
                            "--endpoint", server.endpoint],
            "fetch": ["fetch", str(urls), "--out-dir", out, "--endpoint", server.endpoint],
            "rehydrate": ["rehydrate", "--in-dir", str(tmp_path / "timemaps"), "--out-dir", out],
            "stats": ["stats", "--urls", str(urls), "--sampled", str(urls), "--out-dir", out],
        }[stage]
        probe = (f"import sys; before = set(sys.modules); from waysample.cli import main; "
                 f"main({argv!r}); print(' '.join(sorted(set(sys.modules) - before)))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        # without site, as in _modules_loaded_by
        loaded = set(subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                                    text=True, check=True, env=env, timeout=60).stdout.split())
    assert {name[len("waysample."):] for name in loaded
            if name.startswith("waysample.")} == STAGE_COMMON | STAGE_MODULES[stage]
    assert not loaded & {"dataclasses", "inspect", "datetime"}
    if stage == "stats":
        assert "random" not in loaded
        assert len(os.listdir(out)) == 4  # the two CCDFs, the top domains and r
    if stage == "sample --endpoint":
        with open(os.path.join(out, "manifest.json")) as fh:
            assert json.load(fh)["counts"]["roots_added"] == 1
    if "client" in STAGE_MODULES[stage]:
        # the client runs plain threads, not a thread pool with its logging, and
        # resolves the endpoint's host as bytes, without the idna codec
        assert not loaded & {"concurrent", "logging", "encodings.idna", "unicodedata"}
    if stage in ("fetch-first", "fetch"):
        assert "random" not in loaded  # the backoff jitter's, loaded at a first retry


@pytest.mark.parametrize("end", ["error", "close"])
def test_map_cancels_the_items_not_started(end):
    # an exception from fn, or closing the generator, ends the map: of the 8
    # items read ahead for 2 threads, those not yet started never run, and
    # no_thread_is_left checks that both threads were joined
    started = []

    def fn(item):
        started.append(item)
        if item == 0 and end == "error":
            raise OSError("no space left")
        time.sleep(0.2)
        return item

    with ArchiveClient("http://127.0.0.1:9/cdx", politeness_limit=2) as client:
        results = client.map(fn, range(100))
        if end == "error":
            with pytest.raises(OSError, match="no space left"):
                next(results)
        else:
            assert next(results) == (0, 0, None)
            results.close()
    assert len(started) < 8


# a mock CDX server holding one capture of URL_A, run in a child process so
# that this process allocates only for the client; it stops when stdin closes
_SERVE = f"""
import sys
from waysample.cdx import CdxRecord, Timestamp14
from waysample.mockserver import MockCdxServer
record = CdxRecord({KEY_A!r}, Timestamp14("19960101000000"), {URL_A!r}, "text/html", "200",
                   "A" * 32, 1024)
with MockCdxServer([record], page_size=10) as server:
    print(server.endpoint, flush=True)
    sys.stdin.read()
"""


def test_client_keeps_nothing_per_request():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with subprocess.Popen([sys.executable, "-c", _SERVE], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True, env=env) as server:
        client = ArchiveClient(server.stdout.readline().strip(), retry=FAST_RETRY)  # no log
        assert not hasattr(client, "logs")

        def retained_after(calls: int) -> int:
            for _ in range(calls):
                assert client.fetch_first_record(URL_A) is not None
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            with client:
                before = retained_after(200)  # warm: the connection, the parser caches
                after = retained_after(1800)
        finally:
            tracemalloc.stop()
    assert (after - before) / 1800 < 10


# builds a client of the endpoint in argv[1], fetches URL_A, storing bodies
# under argv[2] if given, and prints the modules that loaded on the way
_PROBE = f"""
import sys
before = set(sys.modules)
from waysample.client import ArchiveClient
client = ArchiveClient(sys.argv[1], storage_dir=sys.argv[2] or None)
assert client.fetch_first_record({URL_A!r}) is not None
client.close()
print(' '.join(sorted(set(sys.modules) - before)))
"""


def test_http_fetch_loads_no_http_or_crypto_module(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with subprocess.Popen([sys.executable, "-c", _SERVE], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True, env=env) as server:
        endpoint = server.stdout.readline().strip()

        def loaded(storage_dir: str) -> set[str]:
            return set(subprocess.run(
                [sys.executable, "-c", _PROBE, endpoint, storage_dir], capture_output=True,
                text=True, check=True, env=env, timeout=60).stdout.split())

        without_storage, with_storage = loaded(""), loaded(str(tmp_path))
        server.stdin.close()
    assert not without_storage & HEAVY_MODULES
    # hashlib names a stored body, so it loads once there is one
    assert with_storage & HEAVY_MODULES == {"hashlib", "_hashlib"}
    assert os.listdir(tmp_path)


class ScriptedServer:
    """A raw-socket HTTP server that answers each request, in the order they
    come, with the next scripted reply: its byte pieces, sent with a pause
    between them, after which the connection closes if the reply says so.
    It serves one connection at a time and keeps every request head it read."""

    def __init__(self, *replies: tuple[list[bytes], bool], tls: ssl.SSLContext | None = None):
        self.replies = deque(replies)
        self.requests: list[bytes] = []
        self.connection_count = 0
        self._tls = tls
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.02)
        self.port = self._listener.getsockname()[1]
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def endpoint(self, scheme: str = "http") -> str:
        return f"{scheme}://127.0.0.1:{self.port}/cdx"

    def __enter__(self) -> "ScriptedServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stopped.set()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()
        self._listener.close()

    def _serve(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.connection_count += 1
            conn.settimeout(5)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                if self._tls is not None:
                    conn = self._tls.wrap_socket(conn, server_side=True)
                with conn, conn.makefile("rb") as rfile:
                    self._answer(conn, rfile)
            except OSError:  # a refused handshake, or the client hung up
                conn.close()

    def _answer(self, conn: socket.socket, rfile) -> None:
        while True:
            head = b""
            while (line := rfile.readline()) not in (b"\r\n", b""):
                head += line
            if not line:
                return
            self.requests.append(head)
            pieces, close = self.replies.popleft()
            for i, piece in enumerate(pieces):
                if i:
                    time.sleep(0.02)
                conn.sendall(piece)
            if close:
                return


RECORD_LINE = f"{KEY_A} 19960101000000 {URL_A} text/html 200 {'A' * 32} 1024\n".encode()


def reply(body: bytes = RECORD_LINE, status: bytes = b"200 OK", headers: bytes = b"") -> bytes:
    return (b"HTTP/1.1 " + status + b"\r\nContent-Length: " + str(len(body)).encode()
            + b"\r\n" + headers + b"\r\n" + body)


@pytest.fixture
def scripted(logs):
    """Runs a ScriptedServer of the given replies with a client of it."""
    def run(*replies, **kwargs):
        server = ScriptedServer(*replies)
        client = ArchiveClient(server.endpoint(), retry=FAST_RETRY, log=logs.append, **kwargs)
        return server, client
    return run


class TestExchange:
    def test_request_head(self, scripted):
        server, client = scripted(([reply()], False))
        with server, client:
            record = client.fetch_first_record(URL_A)
        assert record.timestamp.raw == "19960101000000"
        (head,) = server.requests
        assert head == (f"GET /cdx?url=http%3A%2F%2Fexample.com%2F&limit=1 HTTP/1.1\r\n"
                        f"Host: 127.0.0.1:{server.port}\r\nUser-Agent: waysample/{__version__}"
                        "\r\nAccept-Encoding: identity\r\n").encode()

    def test_chunked_body_with_extension_and_trailer(self, scripted, logs):
        chunked = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                   + b"%x;name=value\r\n" % 10 + RECORD_LINE[:10] + b"\r\n"
                   + b"%X\r\n" % (len(RECORD_LINE) - 10) + RECORD_LINE[10:] + b"\r\n"
                   + b"0\r\nX-Checksum: 1\r\n\r\n")
        server, client = scripted(([chunked], False), ([reply()], False))
        with server, client:
            first, second = client.fetch_first_record(URL_A), client.fetch_first_record(URL_A)
        assert first == second
        # the trailer was read to its end: the next reply came on the same connection
        assert server.connection_count == 1
        assert attempts(logs) == [(200, 1), (200, 1)]

    def test_content_length_body_in_pieces(self, scripted, logs):
        whole = reply()
        pieces = [whole[:20], whole[20:-30], whole[-30:-5], whole[-5:]]
        server, client = scripted((pieces, False), ([reply()], False))
        with server, client:
            assert client.fetch_first_record(URL_A) == client.fetch_first_record(URL_A)
        assert server.connection_count == 1

    def test_connection_close_opens_a_new_connection(self, scripted, logs):
        # the server leaves the connection open: the client must not reuse it
        server, client = scripted(([reply(headers=b"Connection: close\r\n")], False),
                                  ([reply()], False))
        with server, client:
            assert client.fetch_first_record(URL_A) == client.fetch_first_record(URL_A)
        assert server.connection_count == 2
        assert attempts(logs) == [(200, 1), (200, 1)]

    @pytest.mark.parametrize("head, server_closes", [
        (b"HTTP/1.0 200 OK\r\n\r\n", True),  # the body ends at the close
        (b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" % len(RECORD_LINE), False),
    ])
    def test_http10_reply_without_keep_alive_closes(self, scripted, logs, head, server_closes):
        server, client = scripted(([head, RECORD_LINE], server_closes), ([reply()], False))
        with server, client:
            assert client.fetch_first_record(URL_A) == client.fetch_first_record(URL_A)
        assert server.connection_count == 2
        assert attempts(logs) == [(200, 1), (200, 1)]

    def test_body_cut_short_is_a_failed_attempt(self, scripted, logs):
        server, client = scripted(([reply()[:-10]], True), ([reply()], False))
        with server, client:
            assert client.fetch_first_record(URL_A) is not None
        assert attempts(logs) == [(0, 1), (200, 2)]

    @pytest.mark.parametrize("garbage", [b"garbage\r\n\r\n", b"HTTP/1.1 2x0 OK\r\n\r\n",
                                         b"ICY 200 OK\r\n\r\n"])
    def test_garbage_status_line_is_retried_not_resent(self, scripted, logs, garbage):
        # on a reused connection, so a ConnectionError would be resent unlogged
        server, client = scripted(([reply()], False), ([garbage], False), ([reply()], False))
        with server, client:
            client.fetch_first_record(URL_A)
            assert client.fetch_first_record(URL_A) is not None
        assert attempts(logs) == [(200, 1), (0, 1), (200, 2)]
        assert server.connection_count == 2

    def test_bad_chunk_size_is_a_failed_attempt(self, scripted, logs):
        bad = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-1\r\n"
        server, client = scripted(([bad], True), ([reply()], False))
        with server, client:
            assert client.fetch_first_record(URL_A) is not None
        assert attempts(logs) == [(0, 1), (200, 2)]

    @pytest.mark.parametrize("head, tail", [
        # int() reads each size as the body's 101 bytes, or -0 as none of them
        (b"Content-Length: 1_01", b""), (b"Content-Length: +101", b""),
        (b"Content-Length: -0", b""),
        (b"Transfer-Encoding: chunked\r\n\r\n6_5", b"\r\n0\r\n\r\n"),  # int(b"6_5", 16)
        (b"Transfer-Encoding: chunked\r\n\r\n0x65", b"\r\n0\r\n\r\n"),  # int(b"0x65", 16)
    ])
    def test_size_of_other_than_ascii_digits_is_a_failed_attempt(self, scripted, logs,
                                                                  head, tail):
        assert len(RECORD_LINE) == 0x65
        bad = b"HTTP/1.1 200 OK\r\n" + head + b"\r\n" + (b"" if tail else b"\r\n")
        server, client = scripted(([bad + RECORD_LINE + tail], True), ([reply()], False))
        with server, client:
            assert client.fetch_first_record(URL_A) is not None
        assert attempts(logs) == [(0, 1), (200, 2)]

    @pytest.mark.parametrize("count", [b"1_0", b"+3", "\u0663".encode(), b"-1", b"3.0"])
    def test_page_count_of_other_than_ascii_digits(self, scripted, logs, count):
        server, client = scripted(([reply(count + b"\n")], False))
        with server, client, pytest.raises(CdxResponseError, match="not ASCII digits"):
            client.fetch_page_count(URL_A)
        assert attempts(logs) == [(200, 1)]


@pytest.mark.parametrize("method, replies", [
    ("fetch_first_record", [b"caf\xe9\n"]),
    ("fetch_timemap", [b"1\n", b"caf\xe9\n"]),  # page 0 is not UTF-8
])
def test_body_not_utf8_is_a_response_error(scripted, logs, tmp_path, method, replies):
    server, client = scripted(*[([reply(body)], False) for body in replies],
                              storage_dir=str(tmp_path))
    with server, client, pytest.raises(CdxResponseError) as exc:
        getattr(client, method)(URL_A)
    with open(exc.value.stored_at, "rb") as fh:
        assert fh.read() == b"caf\xe9\n"
    assert attempts(logs) == [(200, 1)] * len(replies)  # each answered once, not retried


def _self_signed_cert(tmp_path) -> tuple[str, str]:
    """A certificate for 127.0.0.1 that signs itself, and its key, as PEM files."""
    x509 = pytest.importorskip("cryptography.x509")
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(x509.oid.NameOID.COMMON_NAME, "waysample test")])
    now = datetime.datetime.now(datetime.timezone.utc)
    ski = x509.SubjectKeyIdentifier.from_public_key(key.public_key())
    cert = (x509.CertificateBuilder().subject_name(name).issuer_name(name)
            .public_key(key.public_key()).serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(days=1))
            .not_valid_after(now + datetime.timedelta(days=1))
            .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
            .add_extension(x509.KeyUsage(True, False, False, False, False, True, False, False,
                                         False), critical=True)
            .add_extension(ski, critical=False)
            .add_extension(x509.AuthorityKeyIdentifier.from_issuer_subject_key_identifier(ski),
                           critical=False)
            .add_extension(x509.SubjectAlternativeName(
                [x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), critical=False)
            .sign(key, hashes.SHA256()))
    cert_path, key_path = tmp_path / "cert.pem", tmp_path / "key.pem"
    cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(key.private_bytes(serialization.Encoding.PEM,
                                           serialization.PrivateFormat.PKCS8,
                                           serialization.NoEncryption()))
    return str(cert_path), str(key_path)


def test_https_round_trip(tmp_path, monkeypatch, logs):
    cert, key = _self_signed_cert(tmp_path)
    tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    tls.load_cert_chain(cert, key)
    with ScriptedServer(([reply()], False), tls=tls) as server:
        monkeypatch.setenv("SSL_CERT_FILE", cert)
        with ArchiveClient(server.endpoint("https"), retry=FAST_RETRY,
                           log=logs.append) as client:
            assert client.fetch_first_record(URL_A).timestamp.raw == "19960101000000"
        # not trusted: the default context checks the system's CA store only
        monkeypatch.delenv("SSL_CERT_FILE")
        with ArchiveClient(server.endpoint("https"), retry=FAST_RETRY,
                           log=logs.append) as client:
            with pytest.raises(TransportError) as exc:
                client.fetch_first_record(URL_A)
    assert exc.value.last_status == 0
    assert attempts(logs) == [(200, 1)] + [
        (0, n) for n in range(1, FAST_RETRY.max_attempts + 1)]
    assert len(server.requests) == 1

import concurrent.futures
import gc
import os
import random
import socket
import subprocess
import sys
import time
import tracemalloc
from contextlib import closing

import pytest

from waysample.client import (
    ArchiveClient,
    CdxQuery,
    CdxResponseError,
    PartialFetchError,
    RetryPolicy,
    TransportError,
)
from waysample.mockserver import MockCdxServer
from waysample.surt import surt_text_for_url

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
    client = ArchiveClient(server.endpoint, retry=FAST_RETRY, log=logs.append)
    yield client
    client.close()


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
            with closing(ArchiveClient(srv.endpoint, retry=FAST_RETRY)) as client:
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
        with pytest.raises(PartialFetchError) as exc:
            client.fetch_timemap(URL_A)
        assert exc.value.missing_pages == [2]
        assert exc.value.url == URL_A


class TestFetchLogs:
    def test_log_invariants(self, server, client, logs):
        server.schedule_faults(KEY_A, 0, [502])
        client.fetch_timemap(URL_A)
        client.fetch_first_record(URL_B)
        by_query = {}
        for log in logs:
            assert log.duration >= 0
            by_query.setdefault((log.query.url, log.query.page,
                                 log.query.show_num_pages), []).append(log.attempt)
        for attempts in by_query.values():
            assert attempts == list(range(1, len(attempts) + 1))

    def test_tsv_shape(self, client, logs):
        client.fetch_first_record(URL_A)
        (line,) = [log.to_tsv_line() for log in logs]
        fields = line.split("\t")
        assert fields[0] == URL_A
        assert fields[1] == "limit"
        assert fields[3] == "200"


class TestPoliteness:
    def test_concurrency_never_exceeds_limit(self, server):
        client = ArchiveClient(server.endpoint, retry=FAST_RETRY, politeness_limit=3)
        server.schedule_delay(None, None, 0.02)
        with closing(client), concurrent.futures.ThreadPoolExecutor(max_workers=12) as pool:
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


class TestQueryValidation:
    def test_numpages_excludes_page(self):
        with pytest.raises(ValueError):
            CdxQuery("http://a.com/", page=0, show_num_pages=True)

    def test_numpages_excludes_limit(self):
        with pytest.raises(ValueError):
            CdxQuery("http://a.com/", limit=1, show_num_pages=True)

    def test_params_rendering(self):
        assert CdxQuery("http://a.com/", limit=1).params() == {
            "url": "http://a.com/", "limit": "1"}


class TestBodyStorage:
    def test_content_addressed_and_deduplicated(self, server, tmp_path, logs):
        client = ArchiveClient(server.endpoint, retry=FAST_RETRY,
                               storage_dir=str(tmp_path), log=logs.append)
        with closing(client):
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


class TestEndpoint:
    @pytest.mark.parametrize("base_url", [
        "localhost:1", "127.0.0.1:1/cdx", "ftp://a.example/cdx", "http:///cdx",
        "http://user:pw@a.example/cdx", "http://a.example/cdx?output=json",
        "http://a.example/cdx#x", "http://a.example:port/cdx", "http://bücher.example/cdx",
    ])
    def test_malformed_endpoint_rejected(self, base_url):
        with pytest.raises(ValueError):
            ArchiveClient(base_url)

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
        with closing(client), pytest.raises(CdxResponseError) as exc:
            client.fetch_timemap(URL_A)
        with open(exc.value.stored_at, "rb") as fh:
            assert fh.read() == b"injected fault\n"

    def test_non_integer_page_count(self, server, client):
        server.schedule_faults(KEY_A, "numpages", [200])
        with pytest.raises(CdxResponseError):
            client.fetch_timemap(URL_A)


def _modules_loaded_by(module: str) -> set[str]:
    # compared with the modules loaded before the import, since site hooks
    # of the interpreter may load some of these packages themselves
    probe = (f"import sys; before = set(sys.modules); import {module}; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return set(subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, env=env).stdout.split())


def test_cli_import_loads_no_http_dependency():
    third_party = {"requests", "urllib3", "idna", "charset_normalizer", "certifi"}
    loaded = _modules_loaded_by("waysample.cli")
    # the client and its HTTP stack load only where a network stage builds a
    # client or runs map_urls; logging, concurrent and queue come with the
    # thread pool and the client's connection pool
    assert not loaded & {"waysample.client", "http.client", "ssl"}
    assert not {name.split(".")[0] for name in loaded} & {
        *third_party, "logging", "concurrent", "queue"}
    # the client itself is on the stdlib
    loaded = _modules_loaded_by("waysample.client")
    assert "waysample.client" in loaded
    assert not {name.split(".")[0] for name in loaded} & third_party


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
            with closing(client):
                before = retained_after(200)  # warm: the connection, the parser caches
                after = retained_after(1800)
        finally:
            tracemalloc.stop()
    assert (after - before) / 1800 < 10

import os
import random
import string
import threading

import pytest

from waysample.cdx import CdxRecord, Timestamp14
from waysample.surt import surt_text_for_url

LABEL_CHARS = string.ascii_lowercase + string.digits


def random_label(rng, min_len=1, max_len=10):
    n = rng.randint(min_len, max_len)
    label = "".join(rng.choice(LABEL_CHARS) for _ in range(n))
    # hyphens only in the middle, never as the whole label
    if n >= 3 and rng.random() < 0.2:
        pos = rng.randint(1, n - 2)
        label = label[:pos] + "-" + label[pos + 1:]
    return label


def random_host(rng, allow_www=True):
    labels = [random_label(rng) for _ in range(rng.randint(2, 4))]
    if allow_www and rng.random() < 0.2:
        labels.insert(0, "www" + (str(rng.randint(0, 9)) if rng.random() < 0.5 else ""))
    return ".".join(labels)


def random_path(rng):
    if rng.random() < 0.3:
        return "/"
    segments = [random_label(rng) for _ in range(rng.randint(1, 3))]
    path = "/" + "/".join(segments)
    r = rng.random()
    if r < 0.2:
        path += "/"
    elif r < 0.5:
        path += rng.choice([".html", ".htm", ".php", ".asp", ".jpg", ".shtml", ".cgi"])
    return path


def random_url(rng, allow_www=True):
    url = f"{rng.choice(['http', 'https'])}://{random_host(rng, allow_www)}{random_path(rng)}"
    if rng.random() < 0.3:
        url += f"?{random_label(rng)}={random_label(rng)}"
    return url


def make_timestamp(rng, year_lo=1996, year_hi=2021):
    year = rng.randint(year_lo, year_hi)
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    return Timestamp14(f"{year:04d}{month:02d}{day:02d}"
                       f"{rng.randint(0, 23):02d}{rng.randint(0, 59):02d}"
                       f"{rng.randint(0, 59):02d}")


def make_record(urlkey, original, ts, mime="text/html", status="200",
                digest=None, length=1024, rng=None):
    if digest is None:
        digest = "".join((rng or random).choice(string.ascii_uppercase + string.digits)
                         for _ in range(16))
    return CdxRecord(urlkey, ts if isinstance(ts, Timestamp14) else Timestamp14(ts),
                     original, mime, status, digest, length)


def make_history(url, n, rng, start_year=1996, revisit_fraction=0.0):
    """n chronologically ordered captures of one URL, optionally with
    revisit records pointing back at earlier digests."""
    key = surt_text_for_url(url)
    records = []
    year, month = start_year, 1
    for i in range(n):
        ts = Timestamp14(f"{year:04d}{month:02d}{rng.randint(1, 28):02d}"
                         f"{rng.randint(0, 23):02d}{rng.randint(0, 59):02d}{i % 60:02d}")
        if records and rng.random() < revisit_fraction:
            source = rng.choice(records)
            records.append(CdxRecord(key, ts, url, "warc/revisit", "-",
                                     source.digest, 0))
        else:
            records.append(make_record(key, url, ts, rng=rng))
        month += rng.randint(0, 2)
        if month > 12:
            month -= 12
            year += 1
    return sorted(records, key=lambda r: r.timestamp.raw)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(autouse=True)
def no_child_process_is_left():
    """Every child process a test starts, a stage's forked workers included,
    has ended and been reaped when the test ends."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_thread_is_left():
    """Every thread a test starts, a server's handler threads included, has
    ended when the test ends."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before and t.is_alive()]
    assert not left, f"threads still running: {left}"

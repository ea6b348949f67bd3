"""The partition runner, partition.split: filter, classify, sample and stats
cut a file input into byte ranges that forked children run, and their
outputs, counts and errors are those of the stage run in-process."""

import json
import os
import re
import signal
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from waysample import partition, sampler, spill, stats, urlfilter
from waysample.cli import main
from waysample.mockserver import MockCdxServer
from waysample.surt import surt_text_for_url

from conftest import make_record
from test_cli import _synthetic_first_captures, read_lines, write_lines


def cpus(n):
    """The CPUs this process may use, as ``os.sched_getaffinity`` gives them: n of them."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n)), create=True)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=60).map(lambda data: data.replace(b"x", b"\n")),
       st.integers(1, 70), st.integers(1, 8))
def test_ranges_are_cut_after_newline_bytes(tmp_path_factory, data, n_cpus, run_bytes):
    path = tmp_path_factory.mktemp("ranges") / "in"
    path.write_bytes(data)
    with cpus(n_cpus), mock.patch.object(spill, "RUN_BYTES", run_bytes):
        ranges = partition.ranges(str(path))
    assert ranges[0][0] == 0 and ranges[-1][1] == len(data)
    assert all(end == start for (_, end), (start, _) in zip(ranges, ranges[1:]))
    assert all(start < end for start, end in ranges) or data == b""
    assert all(data[start - 1:start] == b"\n" for start, _ in ranges[1:])
    assert len(ranges) <= max(1, min(n_cpus, len(data) // run_bytes))
    if n_cpus >= len(data) and run_bytes == 1:  # a cut at every line start
        assert len(ranges) == 1 + data[:-1].count(b"\n")


# Lines whose ends and contents differ in how they are read: the line breaks
# of universal-newline reading, U+0085 (which str.strip strips but no reading
# breaks at) and its lone byte, spaces, and bytes that are not UTF-8.
URLS = st.sampled_from([b"http://a.com/", b"http://a.com/x.html", b"https://www.a.com/y",
                        b"http://b.org/", b"http://b.org/p.jpg", b"https://c\xff.net/q",
                        b"http://d.de/\xc2\x85", b"http://e.com/\x85", b"http://f.com/*",
                        b"ftp://g.com/", b"", b" ", b"\xc2\x85"])
CAPTURES = st.sampled_from([b"\t20050101000000", b"\t19950607080910", b"\t20211231235959",
                            b"\t2001", b"\t-", b"\t-\t-\tempty"])
TAILS = st.sampled_from([b"", b"\ttext/html\tok", b" ", b"\xc2\x85", b"\x85"])
BREAKS = st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\n", b"\r\r\n", b"\n \n"])
URL_FILES = st.lists(st.tuples(URLS, TAILS, BREAKS).map(b"".join), max_size=14).map(b"".join)
ROWS = st.lists(st.tuples(URLS, CAPTURES, TAILS, BREAKS).map(b"".join), max_size=14)


def _run(root, argv):
    """The outputs of a stage, its manifest's counts, and its one-line error
    message, if it failed."""
    root.mkdir()
    manifest = root.parent / f"{root.name}.json"
    try:
        main([arg.replace("OUT", str(root)) for arg in argv] + ["--manifest", str(manifest)])
        error = None
    except SystemExit as exc:
        error = str(exc)
        assert re.match(r"error: .+: line [0-9]+: ", error), error  # a malformed row's
    outputs = {name: (root / name).read_bytes() for name in sorted(os.listdir(root))}
    return outputs, json.loads(manifest.read_text())["counts"], error


@settings(max_examples=25, deadline=None)
@given(URL_FILES, URL_FILES, ROWS, st.one_of(st.none(), st.integers(0, 14)),
       st.sampled_from([2, 3, 64]), st.sampled_from([1, 8]))
# a domain of three URLs in one bucket, which a target of 3 keeps whole
@example(b"", b"", [b"http://a.com/x.html\t20050101000000\n",
                    b"https://www.a.com/y\t20050101000000\n",
                    b"http://a.com/\t20050101000000\n"], None, 2, 1)
def test_every_stage_splits_to_what_it_does_in_process(tmp_path_factory, urls, sampled, rows,
                                                       malformed_at, n_cpus, run_bytes):
    # 64 CPUs with a run of 1 byte cut after every line break; a row without a
    # tab, or a line of a space, fails sample and stats with its line number
    if malformed_at is not None:
        rows.insert(min(malformed_at, len(rows)), b"http://no-tab.com/\r\n")
    tmp = tmp_path_factory.mktemp("split")
    inputs = {"urls": urls, "sampled": sampled, "first": b"".join(rows),
              "reversed": b"".join(reversed(rows))}
    for name, data in inputs.items():
        (tmp / name).write_bytes(data)
    urls, sampled, first, reversed_first = (str(tmp / name) for name in inputs)
    runs = {
        "filter": [urls, "-o", "OUT/verdicts.tsv"],
        "classify": [urls, "-o", "OUT/classes.tsv"],
        "sample": ["--first-captures", first, "--out-dir", "OUT", "--target", "3"],
        "stats": ["--first-captures", first, "--urls", urls, "--sampled", sampled,
                  "--out-dir", "OUT"],
    }
    for stage, argv in runs.items():
        with mock.patch.object(spill, "RUN_BYTES", run_bytes):
            with cpus(1):
                in_process = _run(tmp / f"{stage}1", [stage, *argv])
            with cpus(n_cpus):
                split = _run(tmp / f"{stage}{n_cpus}", [stage, *argv])
        # a failed stage's manifest counts the rows read before its error
        assert split == in_process, stage
        if stage in ("sample", "stats") and malformed_at is not None:
            assert in_process[2] is not None
        if stage == "sample" and in_process[2] is None:  # the same sample from the rows reversed
            argv = [reversed_first if arg == first else arg for arg in argv]
            for n in (1, n_cpus):
                with mock.patch.object(spill, "RUN_BYTES", run_bytes), cpus(n):
                    assert _run(tmp / f"reversed{n}", [stage, *argv]) == in_process


def test_a_malformed_row_names_its_line_in_the_file(tmp_path):
    # the row falls in the second of two ranges, after \r and \r\n line ends
    first = tmp_path / "first.tsv"
    rows = [f"http://h{i}.com/\t2005010100000{i % 10}\r" if i % 3 else
            f"http://h{i}.com/\t20050101000000\r\n" for i in range(400)]
    first.write_bytes("".join(rows[:300] + ["http://no-tab.com/\n"] + rows[300:]).encode())
    message = f"^error: {re.escape(str(first))}: line 301: expected at least url<TAB>"
    for stage in ("sample", "stats"):
        with cpus(2), mock.patch.object(spill, "RUN_BYTES", 1024), \
                pytest.raises(SystemExit, match=message):
            main([stage, "--first-captures", str(first), "--out-dir", str(tmp_path / stage)])
    with cpus(2), mock.patch.object(spill, "RUN_BYTES", 1024):
        (_, cut), (start, _) = partition.ranges(str(first))
    assert cut == start < first.read_bytes().index(b"no-tab")


def _trapped(stage):
    """What a stage calls for each URL in its children: a URL it is given fails there."""
    return {"filter": (urlfilter, "verdict"), "sample": (sampler, "parse_url"),
            "stats": (stats, "parse_host")}[stage]


@pytest.mark.parametrize("stage", ["filter", "sample", "stats"])
@pytest.mark.parametrize("interrupt", [False, True], ids=["a range fails", "Ctrl-C"])
def test_a_failed_range_or_a_ctrl_c_leaves_no_output_and_no_child(tmp_path, monkeypatch,
                                                                  stage, interrupt):
    """A child that raises, or a SIGINT to the stage while its children run,
    ends the stage with that error: no output is published and, as the
    autouse fixture checks, every child is reaped."""
    first, urls, out = tmp_path / "first.tsv", tmp_path / "urls.txt", tmp_path / "out"
    _synthetic_first_captures(first, 3000)
    write_lines(urls, [line.split("\t")[0] for line in read_lines(first)])
    out.mkdir()
    trapped = read_lines(urls)[2500]  # in the last of three ranges
    module, name = _trapped(stage)
    real, stage_pid = getattr(module, name), os.getpid()

    def trap(text, *args):
        if text == trapped:
            assert os.getpid() != stage_pid  # in a child
            if not interrupt:
                raise RuntimeError("a range fails")
            os.kill(stage_pid, signal.SIGINT)
        return real(text, *args)

    monkeypatch.setattr(module, name, trap)
    monkeypatch.setattr(spill, "RUN_BYTES", 4096)
    argv = {"filter": ["filter", str(urls), "-o", str(out / "verdicts.tsv")],
            "sample": ["sample", "--first-captures", str(first), "--out-dir", str(out)],
            "stats": ["stats", "--urls", str(urls), "--out-dir", str(out)]}[stage]
    with cpus(3), pytest.raises(KeyboardInterrupt if interrupt else RuntimeError):
        main(argv + ["--manifest", str(tmp_path / "manifest.json")])
    assert os.listdir(out) == []
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "failed"


# run from a launcher of its own, so that the stage's ru_maxrss starts from
# the launcher's small high-water mark rather than the test process's
_LAUNCH = """
import os, subprocess, sys
n, argv = sys.argv[1], sys.argv[2:]
boot = ("import os, sys; n = int(sys.argv.pop(1))\\n"
        "os.sched_getaffinity = lambda pid: set(range(n))\\n"
        "from waysample.cli import main; sys.exit(main(sys.argv[1:]))")
proc = subprocess.Popen([sys.executable, "-c", boot, n, *argv])
_, status, usage = os.wait4(proc.pid, 0)
assert status == 0
print(usage.ru_maxrss)
"""


def test_forked_ranges_take_no_more_memory_than_one_process(tmp_path):
    # the stage's ru_maxrss from os.wait4 is its own high-water mark or its
    # children's, whichever is the higher; each child holds one range's runs
    first = tmp_path / "first.tsv"
    _synthetic_first_captures(first, 160_000)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    peaks = {}
    for n in (1, 2):
        argv = ["sample", "--first-captures", str(first), "--out-dir", str(tmp_path / f"out{n}"),
                "--target", "500"]
        peaks[n] = int(subprocess.run([sys.executable, "-c", _LAUNCH, str(n), *argv],
                                      capture_output=True, text=True, check=True,
                                      env=env).stdout)
    assert {name: (tmp_path / "out1" / name).read_bytes()
            for name in os.listdir(tmp_path / "out1") if name != "manifest.json"} == {
        name: (tmp_path / "out2" / name).read_bytes()
        for name in os.listdir(tmp_path / "out2") if name != "manifest.json"}
    assert peaks[2] - peaks[1] < 1024, peaks  # KB


# a stage forks no range while a thread runs in its process, so it runs in a
# process of its own, away from the mock server's threads; each os.fork of
# the stage is told on stderr
_BOOT = """
import os, sys
from waysample import spill
from waysample.cli import main
n = int(sys.argv.pop(1))
os.sched_getaffinity = lambda pid: set(range(n))
spill.RUN_BYTES = 2048
fork = os.fork
def told_fork():
    pid = fork()
    if pid:
        print("forked", file=sys.stderr, flush=True)
    return pid
os.fork = told_fork
sys.exit(main(sys.argv[1:]))
"""


def test_roots_added_across_forked_ranges_are_those_of_one_process(tmp_path):
    # each pair of hosts shares a domain key, www.dN.com and dN.com, and is
    # seen only through deep links; both roots are archived in 2003, or in
    # 1995 for every tenth pair, and are listed in text order in the domain,
    # whichever host's deep link came first. The roots of every seventh
    # pair are not archived, and every fourth pair comes with a host of
    # another domain that has its root, so that no root of it is missing
    rows, corpus = [], []
    for d in range(300):
        hosts = [f"www.d{d}.com", f"d{d}.com"][::1 if d % 3 else -1]
        for i, host in enumerate(hosts * 2):
            rows.append(f"http://{host}/dir/p{i}.html\t2005010100000{i}\ttext/html\tok")
        if d % 4 == 0:
            rows.append(f"http://e{d}.com/\t20040101000000\ttext/html\tok")
        if d % 7:
            root = f"http://{hosts[0]}/"
            corpus.append(make_record(surt_text_for_url(root), root,
                                      "19950101000000" if d % 10 == 0 else "20030101000000"))
    first = tmp_path / "first.tsv"
    write_lines(first, rows)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    outputs = {}
    with MockCdxServer(corpus, page_size=10) as server:
        for n in (1, 2, 3):
            out = tmp_path / f"out{n}"
            run = subprocess.run([sys.executable, "-c", _BOOT, str(n), "sample",
                                  "--first-captures", str(first), "--out-dir", str(out),
                                  "--endpoint", server.endpoint],
                                 capture_output=True, text=True, env=env, timeout=120)
            assert run.returncode == 0, run.stderr
            assert run.stderr.count("forked") == (n if n > 1 else 0)
            outputs[n] = ({name: (out / name).read_bytes() for name in sorted(os.listdir(out))
                           if name != "manifest.json"},
                          json.loads((out / "manifest.json").read_text())["counts"])
    assert outputs[1] == outputs[2] == outputs[3]
    counts = outputs[1][1]
    assert counts["missing_roots"] == 600  # both hosts of every pair
    archived = [d for d in range(300) if d % 7]
    assert counts["roots_added"] == 2 * len(archived)
    assert counts["roots_unarchived"] == 600 - 2 * len(archived)
    assert counts["dropped_pre_1996"] == 2 * sum(1 for d in archived if d % 10 == 0)
    roots = [line.split("//")[1][:-1] for line in read_lines(out / "bucket_2003.txt")]
    assert len(roots) == 2 * sum(1 for d in archived if d % 10)
    for pair in zip(roots[::2], roots[1::2]):
        assert pair[1] == "www." + pair[0]

import errno
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from typing import Callable
from urllib.parse import parse_qs, quote, urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from waysample import cdx, cli, fetching, filtering, sampler, spill, timemaps
from waysample.cli import main, timemap_filename
from waysample.config import PipelineConfig
from waysample.mockserver import MockCdxServer
from waysample.surt import domain_key, parse_url, surt_text_for_url

from conftest import make_history, make_record

INDEX_SAMPLE = [
    "https://brs53.dx.am/scripts/jquery.min.js",
    "https://174.127.81.0/t/87/73/25/1-320x240.jpg",
    "https://mf.ag/2121_de.gif?exp=24559886473100",
    "https://notiche.com.ar/index.php?limitstart=42",
    "https:///?dn=renunciationguide.com&flrdr=yes&nxte=css",
    "https://*/robots.txt",
]


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


OUTCOMES = {
    "filter": ("valid", "invalid"),
    "classify": ("likely_html", "other"),
    "fetch-first": ("archived", "empty", "skipped", "error"),
    "fetch": ("fetched", "empty", "resumed", "skipped", "error"),
}


def counts_adding_up(manifest):
    """The manifest's counts, after checking that its stage's outcome counts
    add up to its input count."""
    report = json.loads(manifest.read_text())
    counts = report["counts"]
    assert sum(counts[k] for k in OUTCOMES[report["stage"]]) == counts["input"]
    return counts


class TestFilter:
    def test_index_sample_counts(self, tmp_path):
        inp = tmp_path / "urls.txt"
        out = tmp_path / "verdicts.tsv"
        manifest = tmp_path / "manifest.json"
        write_lines(inp, INDEX_SAMPLE)
        assert main(["filter", str(inp), "-o", str(out),
                     "--manifest", str(manifest)]) == 0
        rows = [line.split("\t") for line in read_lines(out)]
        assert len(rows) == 6
        assert sum(1 for r in rows if r[1] == "1") == 4
        report = json.loads(manifest.read_text())
        assert report["stage"] == "filter"
        assert counts_adding_up(manifest) == {"input": 6, "valid": 4, "invalid": 2}

    def test_empty_input_empty_output(self, tmp_path):
        inp = tmp_path / "empty.txt"
        out = tmp_path / "out.tsv"
        inp.write_text("")
        assert main(["filter", str(inp), "-o", str(out)]) == 0
        assert out.read_text() == ""

    def test_dash_leaves_stdin_and_stdout_open(self, tmp_path, capsys, monkeypatch):
        inp = tmp_path / "urls.txt"
        write_lines(inp, INDEX_SAMPLE)
        for _ in range(2):
            assert main(["filter", str(inp), "-o", "-"]) == 0
            rows = capsys.readouterr().out.splitlines()
            assert [row.split("\t")[0] for row in rows] == INDEX_SAMPLE
        stdin = io.StringIO("\n".join(INDEX_SAMPLE) + "\n")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["filter", "-", "-o", "-"]) == 0
        assert not stdin.closed
        assert len(capsys.readouterr().out.splitlines()) == len(INDEX_SAMPLE)

    def test_failure_on_a_row_leaves_nothing_at_the_output(self, tmp_path, monkeypatch):
        inp, out, manifest = tmp_path / "urls.txt", tmp_path / "verdicts.tsv", tmp_path / "m.json"
        write_lines(inp, INDEX_SAMPLE * 2000)  # rows well past a write buffer
        verdict, calls = filtering.urlfilter.verdict, []

        def failing_on_row_10000(url):
            calls.append(url)
            if len(calls) == 10_000:
                raise RuntimeError("injected")
            return verdict(url)

        monkeypatch.setattr(filtering.urlfilter, "verdict", failing_on_row_10000)
        with pytest.raises(RuntimeError):
            main(["filter", str(inp), "-o", str(out), "--manifest", str(manifest)])
        assert sorted(os.listdir(tmp_path)) == ["m.json", "urls.txt"]
        assert json.loads(manifest.read_text())["status"] == "failed"


class TestClassify:
    def test_heuristic_column(self, tmp_path):
        inp = tmp_path / "urls.txt"
        out = tmp_path / "classes.tsv"
        manifest = tmp_path / "manifest.json"
        write_lines(inp, ["https://notiche.com.ar/index.php?limitstart=42",
                          "https://brs53.dx.am/scripts/jquery.min.js"])
        assert main(["classify", str(inp), "-o", str(out),
                     "--manifest", str(manifest)]) == 0
        rows = [line.split("\t") for line in read_lines(out)]
        assert rows[0][1] == ".php[0-9]"
        assert rows[1][1] == "-"
        assert counts_adding_up(manifest)["likely_html"] == 1


@pytest.fixture
def archive(tmp_path):
    seeded = random.Random(0xBEEF)
    corpus = []
    histories = {}
    for i, year in enumerate((1998, 2002, 2005, 2010)):
        for suffix in ("", "about.html", "deep/p.php"):
            url = f"http://site{i}.com/{suffix}"
            history = make_history(url, 5 + i, seeded, start_year=year)
            histories[url] = history
            corpus.extend(history)
    server = MockCdxServer(corpus, page_size=4)
    server.start()
    yield server, histories
    server.stop()


class TestFetchFirst:
    def test_statuses_and_manifest(self, tmp_path, archive):
        server, histories = archive
        urls = sorted(histories) + ["http://never-crawled.example/",
                                    "https://*/robots.txt"]
        inp = tmp_path / "urls.txt"
        out = tmp_path / "first.tsv"
        manifest = tmp_path / "manifest.json"
        write_lines(inp, urls)
        assert main(["fetch-first", str(inp), "-o", str(out),
                     "--endpoint", server.endpoint,
                     "--manifest", str(manifest)]) == 0
        rows = {r[0]: r for r in (line.split("\t") for line in read_lines(out))}
        for url, history in histories.items():
            assert rows[url][1] == history[0].timestamp.raw
            assert rows[url][3] == "ok"
        assert rows["http://never-crawled.example/"][3] == "empty"
        assert rows["https://*/robots.txt"][3] == "skipped"
        counts = counts_adding_up(manifest)
        assert (counts["archived"], counts["empty"], counts["skipped"]) == (12, 1, 1)

    def test_missing_endpoint_is_configuration_error(self, tmp_path):
        inp = tmp_path / "urls.txt"
        manifest = tmp_path / "manifest.json"
        write_lines(inp, ["http://a.com/"])
        with pytest.raises(SystemExit, match="no CDX endpoint"):
            main(["fetch-first", str(inp), "-o", "-", "--manifest", str(manifest),
                  "--log", str(tmp_path / "log.tsv")])
        # no client was built, so there is no fetch log, but the failure is recorded
        assert json.loads(manifest.read_text())["status"] == "failed"
        assert not (tmp_path / "log.tsv").exists()

    def test_malformed_endpoint_is_configuration_error(self, tmp_path):
        inp = tmp_path / "urls.txt"
        out = tmp_path / "first.tsv"
        write_lines(inp, ["http://a.com/"])
        with pytest.raises(SystemExit, match="configuration error"):
            main(["fetch-first", str(inp), "-o", str(out), "--endpoint", "localhost:1"])
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--log", "--config"])
    def test_unopenable_log_or_config_fails_before_any_request(self, tmp_path, archive, flag):
        server, histories = archive
        inp = tmp_path / "urls.txt"
        write_lines(inp, sorted(histories))
        with pytest.raises(SystemExit) as exc:
            main(["fetch-first", str(inp), "-o", str(tmp_path / "first.tsv"),
                  "--endpoint", server.endpoint, "--manifest", str(tmp_path / "manifest.json"),
                  flag, str(tmp_path / "missing" / "file")])
        message = str(exc.value.code)
        assert message.startswith("configuration error: ") and "\n" not in message
        assert "missing/file" in message
        assert server.request_count == 0
        assert os.listdir(tmp_path) == ["urls.txt"]  # no output, no manifest

    @pytest.mark.parametrize("flags, config", [(["--politeness", "0"], {}),
                                               ([], {"retry_cap": 0})])
    def test_unusable_concurrency_or_retry_is_configuration_error(
            self, tmp_path, archive, flags, config):
        server, _ = archive
        inp = tmp_path / "urls.txt"
        out = tmp_path / "first.tsv"
        config_path = tmp_path / "config.json"
        write_lines(inp, ["http://a.com/"])
        config_path.write_text(json.dumps(config))
        with pytest.raises(SystemExit, match="configuration error"):
            main(["fetch-first", str(inp), "-o", str(out), "--endpoint", server.endpoint,
                  "--config", str(config_path), *flags])
        assert not out.exists()
        assert server.request_count == 0


class TestSample:
    def _first_captures(self, tmp_path, archive):
        server, histories = archive
        path = tmp_path / "first.tsv"
        write_lines(path, [f"{url}\t{history[0].timestamp.raw}\ttext/html\tok"
                           for url, history in sorted(histories.items())])
        return path

    def test_buckets_and_manifest(self, tmp_path, archive):
        server, _ = archive
        first = self._first_captures(tmp_path, archive)
        out_dir = tmp_path / "sample"
        assert main(["sample", "--first-captures", str(first),
                     "--out-dir", str(out_dir), "--target", "100",
                     "--seed", "1"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        labels = [b["label"] for b in manifest["counts"]["buckets"]]
        assert labels == ["1996-2000", "2002", "2005", "2010"]
        for bucket in manifest["counts"]["buckets"]:
            lines = read_lines(out_dir / f"bucket_{bucket['label']}.txt")
            assert len(lines) == bucket["selected"]
            # the root URL survives downsampling for every domain
            assert any(line.endswith(".com/") for line in lines)

    def test_deterministic_across_runs(self, tmp_path, archive):
        first = self._first_captures(tmp_path, archive)
        outputs = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            main(["sample", "--first-captures", str(first),
                  "--out-dir", str(out_dir), "--target", "100", "--seed", "9"])
            outputs.append({name: read_lines(out_dir / name)
                            for name in os.listdir(out_dir)
                            if name.startswith("bucket_")})
        assert outputs[0] == outputs[1]

    def test_missing_roots_resolved_via_endpoint(self, tmp_path, archive):
        server, histories = archive
        deep_only = [url for url in histories if url.endswith("deep/p.php")]
        first = tmp_path / "first.tsv"
        write_lines(first, [f"{url}\t{histories[url][0].timestamp.raw}"
                            for url in sorted(deep_only)])
        out_dir = tmp_path / "sample"
        main(["sample", "--first-captures", str(first), "--out-dir", str(out_dir),
              "--target", "100", "--seed", "1", "--endpoint", server.endpoint])
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["counts"]["missing_roots"] == 4
        assert manifest["counts"]["roots_added"] == 4
        selected = []
        for bucket in manifest["counts"]["buckets"]:
            selected += read_lines(out_dir / f"bucket_{bucket['label']}.txt")
        assert sum(1 for line in selected if line.endswith(".com/")) == 4

    def test_failed_root_lookup_is_counted(self, tmp_path, archive):
        server, histories = archive
        deep_only = sorted(url for url in histories if url.endswith("deep/p.php"))
        server.schedule_faults(surt_text_for_url("http://site1.com/"), "limit", [404])
        first = tmp_path / "first.tsv"
        write_lines(first, [f"{url}\t{histories[url][0].timestamp.raw}" for url in deep_only]
                    + [f"http://unarchived{i}.com/deep/p.php\t20050101000000" for i in (1, 2)])
        out_dir = tmp_path / "sample"
        assert main(["sample", "--first-captures", str(first), "--out-dir", str(out_dir),
                     "--target", "100", "--endpoint", server.endpoint]) == 0
        counts = json.loads((out_dir / "manifest.json").read_text())["counts"]
        assert (counts["missing_roots"], counts["roots_added"], counts["roots_unarchived"],
                counts["root_errors"]) == (6, 3, 2, 1)
        selected = []
        for bucket in counts["buckets"]:
            selected += read_lines(out_dir / f"bucket_{bucket['label']}.txt")
        assert sorted(line for line in selected if line.endswith(".com/")) == [
            "http://site0.com/", "http://site2.com/", "http://site3.com/"]

    @pytest.mark.parametrize("suffix, flags, config", [
        ("", ["--endpoint", "ftp://bad/cdx"], {}),
        ("deep/p.php", ["--endpoint", "ftp://bad/cdx"], {}),
        ("deep/p.php", ["--endpoint", "http://127.0.0.1:9/cdx"], {"politeness_limit": 0}),
    ])
    def test_unusable_client_fails_before_any_output(self, tmp_path, archive,
                                                      suffix, flags, config):
        # root rows leave no root to look up; deep links alone leave one missing per host
        _, histories = archive
        first = tmp_path / "first.tsv"
        write_lines(first, [f"{url}\t{history[0].timestamp.raw}"
                            for url, history in sorted(histories.items()) if url.endswith(suffix)])
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "sample"
        with pytest.raises(SystemExit, match="configuration error"):
            main(["sample", "--first-captures", str(first), "--out-dir", str(out_dir),
                  "--config", str(config_path), *flags])
        assert sorted(os.listdir(tmp_path)) == ["config.json", "first.tsv"]  # no out-dir, no manifest

    @pytest.mark.parametrize("target", ["0", "-5"])
    def test_target_below_one_is_a_configuration_error(self, tmp_path, archive, target):
        # deep links alone, so a stage that ran would look up their roots
        server, histories = archive
        first = tmp_path / "first.tsv"
        write_lines(first, [f"{url}\t{history[0].timestamp.raw}"
                            for url, history in sorted(histories.items())
                            if url.endswith("deep/p.php")])
        with pytest.raises(SystemExit, match="config key target must be >= 1"):
            main(["sample", "--first-captures", str(first), "--out-dir", str(tmp_path / "sample"),
                  "--target", target, "--endpoint", server.endpoint])
        assert server.request_count == 0
        assert os.listdir(tmp_path) == ["first.tsv"]  # no out-dir, no manifest

    def test_dropped_rows_are_counted(self, tmp_path, archive):
        first = self._first_captures(tmp_path, archive)
        rows = read_lines(first) + ["http://unarchived.com/\t-\t-\tempty",
                                    "http://failed.com/\t-\t-\terror",
                                    "ftp://files.com/\t20050101000000\ttext/html\tok",
                                    "\t20050101000000\ttext/html\tok"]
        write_lines(first, ["", *rows, ""])
        out_dir = tmp_path / "sample"
        assert main(["sample", "--first-captures", str(first),
                     "--out-dir", str(out_dir), "--target", "100"]) == 0
        counts = json.loads((out_dir / "manifest.json").read_text())["counts"]
        assert (counts["no_capture"], counts["unparseable"]) == (2, 2)
        assert counts["input"] + counts["no_capture"] + counts["unparseable"] == len(rows)

    def test_malformed_timestamp_is_unparseable(self, tmp_path):
        first = tmp_path / "first.tsv"
        write_lines(first, ["http://a.com/\t2005", "http://b.com/\t20050101000000"])
        out_dir = tmp_path / "sample"
        assert main(["sample", "--first-captures", str(first),
                     "--out-dir", str(out_dir), "--target", "10"]) == 0
        counts = json.loads((out_dir / "manifest.json").read_text())["counts"]
        assert (counts["input"], counts["no_capture"], counts["unparseable"]) == (1, 0, 1)
        assert read_lines(out_dir / "bucket_2005.txt") == ["http://b.com/"]
        stats_manifest = tmp_path / "stats.json"
        assert main(["stats", "--first-captures", str(first), "--out-dir", str(tmp_path / "stats"),
                     "--manifest", str(stats_manifest)]) == 0
        counts = json.loads(stats_manifest.read_text())["counts"]
        assert (counts["first_capture_years"], counts["unparseable"]) == (1, 1)

    def test_stats_counts_every_first_capture_whose_timestamp_parses(self, tmp_path):
        # stats reads only the timestamp; sample must parse the URL as well
        first = tmp_path / "first.tsv"
        write_lines(first, ["ftp://files.com/\t20050101000000", "http://b.com/\t20060101000000",
                            "http://c.com/\t2006"])
        stats_manifest = tmp_path / "stats.json"
        assert main(["stats", "--first-captures", str(first), "--out-dir", str(tmp_path / "stats"),
                     "--manifest", str(stats_manifest)]) == 0
        counts = json.loads(stats_manifest.read_text())["counts"]
        assert (counts["first_capture_years"], counts["unparseable"]) == (2, 1)
        assert read_lines(tmp_path / "stats" / "first_capture_years.csv") == [
            "year,count", "2005,1", "2006,1"]
        out_dir = tmp_path / "sample"
        assert main(["sample", "--first-captures", str(first),
                     "--out-dir", str(out_dir), "--target", "10"]) == 0
        counts = json.loads((out_dir / "manifest.json").read_text())["counts"]
        assert (counts["input"], counts["unparseable"]) == (1, 2)
        assert read_lines(out_dir / "bucket_2006.txt") == ["http://b.com/"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["a.com", "www.a.com", "b.a.com", "x.co.uk", "www.x.co.uk",
                         "www2.x.co.uk", "y.org"]),
        st.sampled_from(["/", "/p", "/p/q.html", "/p?q=1", "/z/"]),
        st.integers(1990, 2003)), max_size=40),
        st.sampled_from([0, 2, 5]), st.integers(1, 12), st.integers(0, 3))
    def test_streamed_selection_equals_the_list_form_rule(self, tmp_path_factory, rows,
                                                          threshold, target, seed):
        """Each bucket file holds select_urls over calibrate_k(reduce_long_tail(bucket)),
        for the buckets of bucket_by_first_year, and the manifest holds that K."""
        tmp = tmp_path_factory.mktemp("sample")
        urls = [(f"http://{host}{path}", f"{year}0{1 + year % 9}15000000")
                for host, path, year in rows]
        write_lines(tmp / "first.tsv", [f"{url}\t{ts}" for url, ts in urls])
        assert main(["sample", "--first-captures", str(tmp / "first.tsv"),
                     "--out-dir", str(tmp / "out"), "--target", str(target),
                     "--tail-threshold", str(threshold), "--seed", str(seed)]) == 0
        reports = {b["label"]: b for b in json.loads(
            (tmp / "out" / "manifest.json").read_text())["counts"]["buckets"]}
        cfg = PipelineConfig.load(None)
        buckets = sampler.bucket_by_first_year(
            (parse_url(url), cdx.Timestamp14(ts)) for url, ts in urls).buckets
        assert list(reports) == [bucket.label for bucket in buckets]
        for bucket in buckets:
            reduced = sampler.reduce_long_tail(bucket, threshold, cfg.tail_keep_fraction, seed)
            expected, calibration = [], (None, 0, False)  # the tail rule may empty it
            if reduced.domains:
                calibration = sampler.calibrate_k(reduced, cfg.c, target)
                params = sampler.DownsampleParams(calibration.k, cfg.c)
                for domain in reduced.domains:
                    k = sampler.downsample_count(domain.n_urls, params)
                    expected += sampler.select_urls(domain, k, seed)
            report = reports[bucket.label]
            assert (report["k"], report["calibrated_total"], report["overshoot"]) == calibration
            text = (tmp / "out" / f"bucket_{bucket.label}.txt").read_text()
            assert text == "".join(url + "\n" for url in expected)

    def test_first_captures_from_stdin(self, tmp_path, archive, monkeypatch):
        first = self._first_captures(tmp_path, archive)
        outputs = []
        for run, source in (("file", str(first)), ("stdin", "-")):
            monkeypatch.setattr(sys, "stdin", io.StringIO(first.read_text()))
            out_dir = tmp_path / run
            assert main(["sample", "--first-captures", source, "--out-dir", str(out_dir),
                         "--target", "100", "--seed", "3"]) == 0
            counts = json.loads((out_dir / "manifest.json").read_text())["counts"]
            outputs.append((counts, {name: read_lines(out_dir / name)
                                     for name in os.listdir(out_dir)
                                     if name.startswith("bucket_")}))
        assert outputs[0] == outputs[1]
        assert outputs[0][0]["input"] == len(read_lines(first))


    @pytest.mark.parametrize("run_bytes", [spill.RUN_BYTES, 64])
    def test_bucket_files_list_domains_in_sorted_order(self, tmp_path, monkeypatch, run_bytes):
        # NUL and SOH in hosts: with a tab between fields "a.com\x00x" would
        # sort before its prefix "a.com", and an unescaped NUL separator would
        # make the end of a field ambiguous
        monkeypatch.setattr(spill, "RUN_BYTES", run_bytes)
        labels = ["a", "a\x00", "a\x01", "a\x00\x01", "a\x01\x00", "a\x00\x00", "ab", "a\x00b"]
        hosts = [f"{label}.com" for label in labels] + ["a.com\x00x", "www.a\x00.com"]
        rows = [f"http://{host}{path}\t2005{month:02d}01000000"
                for month, path in enumerate(["/", "/p", "/\x00q"], 1) for host in hosts]
        first = tmp_path / "first.tsv"
        write_lines(first, rows)
        out_dir = tmp_path / "sample"
        assert main(["sample", "--first-captures", str(first), "--out-dir", str(out_dir),
                     "--target", "1000"]) == 0
        with open(out_dir / "bucket_2005.txt", encoding="utf-8") as fh:
            selected = fh.read().split("\n")[:-1]
        assert sorted(selected) == sorted(row.split("\t")[0] for row in rows)
        keys = [domain_key(parse_url(url).host) for url in selected]
        runs = [key for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]
        assert runs == sorted(set(keys))

    def test_bucket_that_the_tail_rule_empties_gets_an_empty_file(self, tmp_path):
        # three singles above a threshold of 2, of which round(3 * 0.1) = 0 stay
        first = tmp_path / "first.tsv"
        write_lines(first, [f"http://{host}/\t20210101000000"
                            for host in ("a.com", "b.com", "c.com")]
                    + ["http://d.com/\t20050101000000", "http://d.com/x\t20050101000000"])
        out_dir = tmp_path / "sample"
        assert main(["sample", "--first-captures", str(first), "--out-dir", str(out_dir),
                     "--tail-threshold", "2"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["counts"]["buckets"] == [
            {"label": "2005", "domains": 1, "domains_with_root": 1, "domains_after_tail": 1,
             "urls": 2, "k": 1, "calibrated_total": 2, "overshoot": False, "selected": 2},
            {"label": "2021", "domains": 3, "domains_with_root": 3, "domains_after_tail": 0,
             "urls": 3, "k": None, "calibrated_total": 0, "overshoot": False, "selected": 0}]
        assert (out_dir / "bucket_2021.txt").read_bytes() == b""
        assert manifest["counts"]["selected_total"] == 2

    def test_outputs_do_not_depend_on_the_run_budget(self, tmp_path, monkeypatch):
        # with runs of a few rows merged two at a time, a URL's repeats and a
        # host's root and deep links land in different runs
        first = tmp_path / "first.tsv"
        _synthetic_first_captures(first, 3000, repeats=2)
        outputs = []
        for run_bytes, fan_in in ((spill.RUN_BYTES, spill.FAN_IN), (200, 2)):
            monkeypatch.setattr(spill, "RUN_BYTES", run_bytes)
            monkeypatch.setattr(spill, "FAN_IN", fan_in)
            out_dir = tmp_path / f"out{run_bytes}"
            assert main(["sample", "--first-captures", str(first), "--out-dir", str(out_dir),
                         "--target", "300", "--tail-threshold", "40", "--seed", "3"]) == 0
            counts = json.loads((out_dir / "manifest.json").read_text())["counts"]
            outputs.append((counts, {name: (out_dir / name).read_bytes()
                                     for name in os.listdir(out_dir) if name != "manifest.json"}))
        assert outputs[0] == outputs[1]
        assert outputs[0][0]["missing_roots"] > 0
        assert any(b["domains_after_tail"] < b["domains"] for b in outputs[0][0]["buckets"])

    def test_failure_after_spilling_leaves_only_the_manifest(self, tmp_path, monkeypatch):
        import tempfile
        opened = []

        def temporary_file(**kwargs):
            opened.append(real(**kwargs))
            return opened[-1]

        real = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        monkeypatch.setattr(spill, "RUN_BYTES", 4096)
        first = tmp_path / "first.tsv"
        _synthetic_first_captures(first, 2000)
        with open(first, "a", encoding="utf-8") as fh:
            fh.write("http://one-column.com/\n")  # no timestamp column
        out_dir = tmp_path / "sample"
        with pytest.raises(SystemExit, match="^error: .*: expected at least url<TAB>timestamp$"):
            main(["sample", "--first-captures", str(first), "--out-dir", str(out_dir)])
        assert len(opened) > 2  # spill runs of rows and of roots
        assert all(fh.closed for fh in opened)
        assert os.listdir(out_dir) == ["manifest.json"]
        assert json.loads((out_dir / "manifest.json").read_text())["status"] == "failed"


def _synthetic_first_captures(path, n_rows, seed=5, spread=False, repeats=1):
    """A fetch-first TSV of n_rows shaped like a web index: Pareto domain
    sizes, some www hosts, a root for most domains, some queries, first
    captures from 1994 on that cluster after each domain's first year (or,
    with spread, fall in any year from 1995 to 2021), 3% of rows without a
    capture and 1% repeated rows. With repeats, its first n_rows / repeats
    rows come that many times over, one copy after another."""
    rng = random.Random(seed)
    lines = []
    d = 0
    while len(lines) < n_rows // repeats:
        d += 1
        host = f"{rng.choice(['', '', 'www.'])}host{d}.example.com"
        start = rng.randint(1994, 2020)
        paths = ["/"] if rng.random() < 0.95 else []
        paths += [f"/dir{j % 7}/page{j}.html" + (f"?id={j}" if rng.random() < 0.1 else "")
                  for j in range(int(rng.paretovariate(1.4)))]
        for path_part in paths:
            if rng.random() < 0.03:
                lines.append(f"http://{host}{path_part}\t-\t-\tempty")
                continue
            year = rng.randint(1995, 2021) if spread else min(2021, start + int(rng.expovariate(0.7)))
            lines.append(f"http://{host}{path_part}\t{year}0615120000\ttext/html\tok")
            if rng.random() < 0.01:
                lines.append(lines[-1])
    write_lines(path, lines[:n_rows // repeats] * repeats)


@pytest.fixture
def one_cpu(monkeypatch):
    """A stage run in-process on one CPU, as tracemalloc sees it whole: a
    stage split over forked children allocates in them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


# Peak traced bytes that `sample` adds per first-capture row between the two
# sizes below, measured on CPython 3.11.7 (x86-64 Linux):
# - clustered: 593 when the stage held every row as a (CanonicalUrl,
#   Timestamp14) tuple and each kept URL as a CanonicalUrl, 312 with one str
#   per kept URL in a list per (domain, bucket) and a seen-set per bucket,
#   and 169 with each (domain, bucket)'s texts packed into one bytearray;
# - spread: 642, 365 and 222. Spread data gains less: nearly every row opens
#   its own (domain, bucket) entry, which every version keeps;
# - every row 20 times over (clustered): 10.3 with the seen-sets and 8 when
#   each domain drops its repeats once its buffer has doubled; keeping every
#   repeat until the end of the pass takes 50.
# Each bound is about 1.3 times the packed slope.
@pytest.mark.parametrize("spread, repeats, bytes_per_row_bound", [
    (False, 1, 220),
    (True, 1, 290),
    (False, 20, 11),
], ids=["clustered", "spread", "repeated"])
def test_sample_memory_per_row_is_bounded(tmp_path, one_cpu, spread, repeats,
                                          bytes_per_row_bound):
    sizes = (10_000, 40_000)
    peaks = []
    for n_rows in sizes:
        _synthetic_first_captures(tmp_path / f"first{n_rows}.tsv", n_rows, spread=spread,
                                  repeats=repeats)
    tracemalloc.start()
    try:
        for n_rows in sizes:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(["sample", "--first-captures", str(tmp_path / f"first{n_rows}.tsv"),
                         "--out-dir", str(tmp_path / f"out{n_rows}"), "--target", "500"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    bytes_per_row = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
    assert bytes_per_row <= bytes_per_row_bound, bytes_per_row


def test_sample_memory_is_flat_in_the_row_count(tmp_path, one_cpu):
    # past its run budget, sample's memory is that budget: it held 20 MB
    # more at 160,000 rows than at 40,000 with a table of every distinct URL
    sizes = (40_000, 160_000)
    for n_rows in sizes:
        _synthetic_first_captures(tmp_path / f"first{n_rows}.tsv", n_rows)
    peaks = []
    tracemalloc.start()
    try:
        for n_rows in sizes:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(["sample", "--first-captures", str(tmp_path / f"first{n_rows}.tsv"),
                         "--out-dir", str(tmp_path / f"out{n_rows}"), "--target", "500"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2_000_000, peaks


def test_sample_memory_is_flat_in_the_largest_domain(tmp_path, one_cpu):
    # each domain streams through both reads of the sorted rows: with a list
    # of the domain's URLs in each, 80,000 URLs of one domain took 15 MB more
    # than 20,000
    sizes = (20_000, 80_000)
    peaks = []
    for n_urls in sizes:
        write_lines(tmp_path / f"first{n_urls}.tsv",
                    [f"http://big.com/p{i}\t2005061512000{i % 10}" for i in range(n_urls)])
    tracemalloc.start()
    try:
        for n_urls in sizes:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(["sample", "--first-captures", str(tmp_path / f"first{n_urls}.tsv"),
                         "--out-dir", str(tmp_path / f"out{n_urls}"), "--target", "500"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1_000_000, peaks


def test_stats_memory_is_flat_in_the_row_count(tmp_path, one_cpu):
    # past its run budget, stats' memory is that budget: with a Counter of
    # every domain key of each list it held 5.4 MB more at 160,000 URLs than
    # at 40,000
    sizes = (40_000, 160_000)
    for n_rows in sizes:
        _synthetic_first_captures(tmp_path / f"first{n_rows}.tsv", n_rows)
        urls = [line.split("\t")[0] for line in read_lines(tmp_path / f"first{n_rows}.tsv")]
        write_lines(tmp_path / f"urls{n_rows}.txt", urls)
        write_lines(tmp_path / f"sampled{n_rows}.txt", urls[::4])
    peaks = []
    tracemalloc.start()
    try:
        for n_rows in sizes:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(["stats", "--urls", str(tmp_path / f"urls{n_rows}.txt"),
                         "--sampled", str(tmp_path / f"sampled{n_rows}.txt"),
                         "--out-dir", str(tmp_path / f"out{n_rows}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2_000_000, peaks


class TestReintegrate:
    def test_per_year_quotas(self, tmp_path):
        seeded = random.Random(0x1234)
        corpus, candidates = [], []
        for year in (2016, 2017):
            for i in range(30):
                url = f"http://big.com/{year}/p{i}"
                candidates.append(url)
                corpus.append(make_record(
                    f"com,big)/{year}/p{i}", url, f"{year}0601000000", rng=seeded))
        inp = tmp_path / "candidates.txt"
        out = tmp_path / "quota.tsv"
        write_lines(inp, candidates)
        with MockCdxServer(corpus, page_size=10) as server:
            assert main(["reintegrate", str(inp), "--domain", "big.com",
                         "-o", str(out), "--endpoint", server.endpoint,
                         "--years", "2016-2017", "--per-year-min", "5",
                         "--seed", "3"]) == 0
        rows = [line.split("\t") for line in read_lines(out)]
        from collections import Counter
        per_year = Counter(r[0] for r in rows)
        assert per_year["2016"] >= 5 and per_year["2017"] >= 5
        assert len(rows) == len({r[1] for r in rows})

    def test_failed_lookup_is_counted(self, tmp_path):
        seeded = random.Random(0x1235)
        candidates = [f"http://big.com/p{i}" for i in range(6)]
        corpus = [make_record(f"com,big)/p{i}", url, "20160601000000", rng=seeded)
                  for i, url in enumerate(candidates)]
        inp, manifest = tmp_path / "candidates.txt", tmp_path / "manifest.json"
        write_lines(inp, candidates)
        with MockCdxServer(corpus, page_size=10) as server:
            server.schedule_faults("com,big)/p2", "limit", [404])
            # a quota above the pool: every candidate is drawn
            assert main(["reintegrate", str(inp), "--domain", "big.com",
                         "-o", str(tmp_path / "quota.tsv"), "--endpoint", server.endpoint,
                         "--years", "2016-2016", "--per-year-min", "10",
                         "--manifest", str(manifest)]) == 0
        counts = json.loads(manifest.read_text())["counts"]
        assert (counts["lookup_errors"], counts["per_year"], counts["unmet_years"]) == (
            1, {"2016": 5}, [2016])
        drawn = sorted(line.split("\t")[1] for line in read_lines(tmp_path / "quota.tsv"))
        assert drawn == [url for url in candidates if url != "http://big.com/p2"]

    def test_unparseable_candidates_are_counted(self, tmp_path):
        candidates = ["http://big.com/a", "ftp://big.com/b", "http://big.com/c", "big.com/d"]
        inp = tmp_path / "candidates.txt"
        manifest = tmp_path / "manifest.json"
        write_lines(inp, ["", *candidates, "  "])
        with MockCdxServer([], page_size=10) as server:
            assert main(["reintegrate", str(inp), "--domain", "big.com",
                         "-o", str(tmp_path / "quota.tsv"), "--endpoint", server.endpoint,
                         "--manifest", str(manifest)]) == 0
        counts = json.loads(manifest.read_text())["counts"]
        assert (counts["candidates"], counts["unparseable"]) == (2, 2)
        assert counts["input"] == 4


def interrupting_timemap_writes(interrupt: Callable[[str], bool],
                                error: BaseException | type = KeyboardInterrupt) -> Callable:
    """``fetching.atomic_open``, but a file of a TimeMap path for which ``interrupt``
    is true takes two writes and raises ``error`` at the third, once it has
    checked that its temporary sibling exists."""
    real = fetching.atomic_open

    class Interrupting:
        def __init__(self, fh, path):
            self.fh, self.path, self.writes = fh, path, 0

        def write(self, text):
            self.writes += 1
            if self.writes == 3:
                siblings = os.listdir(os.path.dirname(self.path))
                assert f"{os.path.basename(self.path)}.tmp." in " ".join(siblings)
                raise error
            return self.fh.write(text)

        def __getattr__(self, name):
            return getattr(self.fh, name)

    @contextmanager
    def atomic_open(path, mode="w"):
        with real(path, mode) as fh:
            yield Interrupting(fh, path) if path.endswith(".cdx") and interrupt(path) else fh
    return atomic_open


class TestFetchAndRehydrate:
    def test_fetch_writes_timemaps_and_resumes(self, tmp_path, archive):
        server, histories = archive
        urls = sorted(histories)[:3] + ["http://never-crawled.example/"]
        inp = tmp_path / "urls.txt"
        out_dir = tmp_path / "timemaps"
        write_lines(inp, urls)
        manifest = tmp_path / "manifest.json"
        args = ["fetch", str(inp), "--out-dir", str(out_dir),
                "--endpoint", server.endpoint, "--manifest", str(manifest)]
        assert main(args) == 0
        report = dict(line.split("\t") for line in read_lines(out_dir / "fetch_report.tsv"))
        assert [report[u] for u in urls] == ["ok", "ok", "ok", "empty"]
        assert counts_adding_up(manifest)["fetched"] == 3
        for url in urls[:3]:
            lines = read_lines(out_dir / timemap_filename(url))
            assert len(lines) == len(histories[url])
        # second run touches nothing: every URL resumes from the existing file
        before = server.request_count
        assert main(args) == 0
        report = dict(line.split("\t") for line in read_lines(out_dir / "fetch_report.tsv"))
        assert set(report.values()) == {"resumed"}
        assert server.request_count == before
        assert counts_adding_up(manifest)["resumed"] == len(urls)

    def test_url_without_surt_key_is_skipped(self, tmp_path, archive):
        server, histories = archive
        good = sorted(histories)[:2]
        urls = [good[0], "http://a..com/", "http://a,b.com/x", good[1]]  # both invalid to filter
        inp = tmp_path / "urls.txt"
        out_dir = tmp_path / "timemaps"
        manifest = tmp_path / "manifest.json"
        write_lines(inp, urls)
        assert main(["fetch", str(inp), "--out-dir", str(out_dir),
                     "--endpoint", server.endpoint, "--manifest", str(manifest)]) == 0
        report = dict(line.split("\t") for line in read_lines(out_dir / "fetch_report.tsv"))
        assert [report[u] for u in urls] == ["ok", "skipped", "skipped", "ok"]
        counts = counts_adding_up(manifest)
        assert (counts["fetched"], counts["skipped"]) == (2, 2)

    @pytest.mark.parametrize("kind", ["numpages", 1])
    def test_malformed_response_is_an_error_row(self, tmp_path, archive, kind):
        server, histories = archive
        urls = sorted(histories)[:3]
        bad = urls[1]
        assert server.page_count_for(bad) >= 2
        server.schedule_faults(surt_text_for_url(bad), kind, [200])  # body "injected fault"
        inp = tmp_path / "urls.txt"
        out_dir = tmp_path / "timemaps"
        manifest = tmp_path / "manifest.json"
        write_lines(inp, urls)
        assert main(["fetch", str(inp), "--out-dir", str(out_dir),
                     "--endpoint", server.endpoint, "--manifest", str(manifest)]) == 0
        report = dict(line.split("\t") for line in read_lines(out_dir / "fetch_report.tsv"))
        assert [report[u] for u in urls] == ["ok", "error", "ok"]
        assert counts_adding_up(manifest)["error"] == 1
        assert not (out_dir / timemap_filename(bad)).exists()

    def test_reply_back_in_time_is_an_error_row(self, tmp_path, archive):
        server, histories = archive
        urls = sorted(histories)[-3:]
        # each page of the second URL in timestamp order, but its second page the earlier
        records = server._index[surt_text_for_url(urls[1])]
        assert len(records) == 2 * server.page_size
        records[:] = records[server.page_size:] + records[:server.page_size]
        inp, out_dir, manifest = tmp_path / "urls.txt", tmp_path / "timemaps", tmp_path / "m.json"
        write_lines(inp, urls)
        assert main(["fetch", str(inp), "--out-dir", str(out_dir),
                     "--endpoint", server.endpoint, "--manifest", str(manifest)]) == 0
        assert read_lines(out_dir / "fetch_report.tsv") == [
            f"{urls[0]}\tok", f"{urls[1]}\terror", f"{urls[2]}\tok"]
        counts = counts_adding_up(manifest)
        assert (counts["fetched"], counts["error"]) == (2, 1)
        assert not (out_dir / timemap_filename(urls[1])).exists()
        for url in (urls[0], urls[2]):
            assert read_lines(out_dir / timemap_filename(url)) == [
                r.to_line() for r in histories[url]]

    def test_page_failing_for_good_ends_its_url_only(self, tmp_path):
        seeded = random.Random(0x5709)
        histories = {url: make_history(url, 9, seeded) for url in
                     ("http://ok.com/", "http://flaky.com/")}
        inp, config = tmp_path / "urls.txt", tmp_path / "config.json"
        write_lines(inp, histories)
        config.write_text(json.dumps({"backoff_base": 0.001}))
        runs = {}
        for faulted in (False, True):
            run = tmp_path / f"faulted-{faulted}"
            with MockCdxServer([r for h in histories.values() for r in h], page_size=3) as server:
                assert server.page_count_for("http://flaky.com/") == 3
                if faulted:  # its middle page fails every attempt
                    server.schedule_faults(surt_text_for_url("http://flaky.com/"), 1, [503] * 5)
                assert main(["fetch", str(inp), "--out-dir", str(run), "--endpoint",
                             server.endpoint, "--config", str(config),
                             "--log", str(tmp_path / f"log-{faulted}.tsv")]) == 0
            runs[faulted] = run
        run = runs[True]
        assert read_lines(run / "fetch_report.tsv") == [
            "http://ok.com/\tok", "http://flaky.com/\terror"]
        assert not (run / timemap_filename("http://flaky.com/")).exists()
        # the failing page's five attempts are the URL's last requests
        assert [line.split("\t")[1:5] for line in read_lines(tmp_path / "log-True.tsv")
                if line.startswith("http://flaky.com/\t")] == [
            ["numpages", "-", "200", "1"], ["page", "0", "200", "1"],
            *(["page", "1", "503", str(attempt)] for attempt in range(1, 6))]
        name = timemap_filename("http://ok.com/")
        assert (run / name).read_bytes() == (runs[False] / name).read_bytes()

    def test_failed_write_leaves_no_timemap(self, tmp_path, archive, monkeypatch):
        server, histories = archive
        url = sorted(histories)[0]
        inp = tmp_path / "urls.txt"
        out_dir = tmp_path / "timemaps"
        write_lines(inp, [url])
        args = ["fetch", str(inp), "--out-dir", str(out_dir), "--endpoint", server.endpoint]

        with monkeypatch.context() as patch:
            # two lines into the temporary file of the TimeMap, then an interrupt
            patch.setattr(fetching, "atomic_open", interrupting_timemap_writes(lambda path: True))
            with pytest.raises(KeyboardInterrupt):
                main(args)
        assert os.listdir(out_dir) == []  # nor a partial report
        assert main(args) == 0
        report = dict(line.split("\t") for line in read_lines(out_dir / "fetch_report.tsv"))
        assert report == {url: "ok"}
        assert len(read_lines(out_dir / timemap_filename(url))) == len(histories[url])

    def test_os_error_in_a_worker_ends_the_stage(self, tmp_path, archive, monkeypatch):
        server, histories = archive
        urls = sorted(histories)
        inp = tmp_path / "urls.txt"
        out_dir = tmp_path / "timemaps"
        manifest = tmp_path / "manifest.json"
        write_lines(inp, urls)
        full = OSError(errno.ENOSPC, "No space left on device")
        first = timemap_filename(urls[0])

        with monkeypatch.context() as patch:
            # the first URL's TimeMap gets two lines, then its worker finds the disk full
            patch.setattr(fetching, "atomic_open", interrupting_timemap_writes(
                lambda path: path.endswith(first), full))
            with pytest.raises(SystemExit) as exc:
                main(["fetch", str(inp), "--out-dir", str(out_dir), "--endpoint",
                      server.endpoint, "--politeness", "2", "--manifest", str(manifest)])
        assert exc.value.code == f"error: {full}"  # one line, no traceback
        assert json.loads(manifest.read_text())["status"] == "failed"
        # whole TimeMaps only: no temporary sibling, nor a partial report; and
        # no_thread_is_left checks that every worker has ended
        names = os.listdir(out_dir)
        assert first not in names and all(name.endswith(".cdx") for name in names)

    def test_long_urls_get_short_distinct_names(self, tmp_path):
        seeded = random.Random(0x10A6)
        prefix = "http://long.com/" + "/".join(f"segment{i:02d}" for i in range(40))
        long_urls = [prefix + "/a.html", prefix + "/b.html"]
        short = "http://long.com/"
        assert len(os.path.commonprefix(long_urls)) >= 300
        histories = {url: make_history(url, 6, seeded)
                     for url in [long_urls[0], short, long_urls[1]]}
        names = {url: timemap_filename(url) for url in histories}
        assert names[short] == quote(surt_text_for_url(short), safe="") + ".cdx"
        assert len(set(names.values())) == 3
        assert all(len(name) <= 200 for name in names.values())
        inp = tmp_path / "urls.txt"
        out_dir = tmp_path / "timemaps"
        write_lines(inp, histories)
        args = ["fetch", str(inp), "--out-dir", str(out_dir)]
        with MockCdxServer([r for h in histories.values() for r in h], page_size=4) as server:
            for outcome in ("ok", "resumed"):
                assert main([*args, "--endpoint", server.endpoint]) == 0
                report = read_lines(out_dir / "fetch_report.tsv")
                assert report == [f"{url}\t{outcome}" for url in histories]
        for url, history in histories.items():
            assert read_lines(out_dir / names[url]) == [r.to_line() for r in history]

        def counts(*argv):
            assert main([*argv, "--manifest", str(tmp_path / "m.json")]) == 0
            return json.loads((tmp_path / "m.json").read_text())["counts"]

        assert counts("rehydrate", "--in-dir", str(out_dir),
                      "--out-dir", str(tmp_path / "hydrated"))["timemaps"] == 3
        assert sorted(os.listdir(tmp_path / "hydrated")) == sorted(
            [*names.values(), "unresolved.tsv"])
        assert counts("stats", "--timemap-dir", str(out_dir),
                      "--out-dir", str(tmp_path / "stats"))["timemaps"] == 3

    def test_log_is_on_disk_as_attempts_end(self, tmp_path, archive):
        """A fetch killed mid-run leaves whole --log lines for all but the
        attempts in flight, at most one per connection."""
        server, histories = archive
        server.schedule_delay(None, None, 0.1)
        inp, log = tmp_path / "urls.txt", tmp_path / "fetch_log.tsv"
        write_lines(inp, sorted(histories))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "waysample.cli", "fetch", str(inp),
             "--out-dir", str(tmp_path / "timemaps"), "--endpoint", server.endpoint,
             "--politeness", "2", "--log", str(log)], env=env)
        try:
            deadline = time.monotonic() + 30
            while not (log.exists() and log.read_text().count("\n") >= 3):
                assert proc.poll() is None and time.monotonic() < deadline, "no log lines"
                time.sleep(0.01)
        finally:
            proc.kill()  # SIGKILL: the stage runs no clean-up
            proc.wait()
        # killed mid-run: some of the requests the stage would send were never sent
        assert server.request_count < sum(1 + server.page_count_for(url) for url in histories)
        text = log.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert all(len(line.split("\t")) == 7 for line in lines)
        assert len(lines) >= server.request_count - 2

    @staticmethod
    def _revisit_dir(tmp_path):
        """A TimeMap directory holding one 40-record history, 40% revisits."""
        seeded = random.Random(0x77)
        url = "http://revisits.com/"
        in_dir = tmp_path / "raw"
        in_dir.mkdir()
        history = make_history(url, 40, seeded, revisit_fraction=0.4)
        name = timemap_filename(url)
        write_lines(in_dir / name, [r.to_line() for r in history])
        return in_dir, name

    def test_rehydrate_directory(self, tmp_path):
        in_dir, name = self._revisit_dir(tmp_path)
        out_dir = tmp_path / "hydrated"
        assert main(["rehydrate", "--in-dir", str(in_dir),
                     "--out-dir", str(out_dir)]) == 0
        hydrated = read_lines(out_dir / name)
        assert len(hydrated) == 40
        unresolved = {int(line.split("\t")[1])
                      for line in read_lines(out_dir / "unresolved.tsv")}
        for pos, line in enumerate(hydrated):
            fields = line.split(" ")
            if not fields[3].startswith("warc/revisit"):
                continue
            if pos in unresolved:
                assert fields[4] == "-"
            else:
                assert fields[4] != "-"
                assert ";orig=" in fields[3]
        resolved = sum(1 for line in hydrated if ";orig=" in line)
        assert resolved > 0

    def test_cache_capacity_from_config_and_flag(self, tmp_path):
        in_dir, _ = self._revisit_dir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cache_capacity": 1}))

        def unresolved(run, *extra):
            manifest = tmp_path / f"{run}.json"
            assert main(["rehydrate", "--in-dir", str(in_dir),
                         "--out-dir", str(tmp_path / run),
                         "--manifest", str(manifest), *extra]) == 0
            report = json.loads(manifest.read_text())
            return report["params"]["cache_capacity"], report["counts"]["revisits_unresolved"]

        default = unresolved("default")
        assert default[0] == 1000
        from_file = unresolved("file", "--config", str(config))
        assert from_file[0] == 1
        assert from_file[1] > default[1]
        # the flag beats the file
        assert unresolved("flag", "--config", str(config), "--capacity", "1000") == default


# full and revisit records of one URL among few digests, so that a small
# cache both resolves revisits and misses them, and with equal timestamps
HYDRATE_RECORDS = st.lists(st.builds(
    lambda second, digest, revisit: make_record(
        "com,revisits)/", "http://revisits.com/", f"200101010000{second:02d}",
        mime="warc/revisit" if revisit else "text/html", status="-" if revisit else "200",
        digest=digest, length=0 if revisit else 1),
    st.integers(0, 9), st.sampled_from("ABCD"), st.booleans()), max_size=20)


class TestStreamedRehydrate:
    """rehydrate reads, rehydrates and writes a TimeMap a line at a time, and
    its outputs are those of timemaps.rehydrate on read_timemap of the file.
    A file out of timestamp order is an error, which leaves neither its
    hydrated file nor the report."""

    @staticmethod
    def expected(in_dir, capacity: int) -> tuple[dict, str, int]:
        """Each hydrated file's text, the unresolved rows and the resolved count."""
        texts, rows, resolved = {}, "", 0
        for name in sorted(os.listdir(in_dir)):
            tm = cdx.read_timemap(in_dir / name)
            hydrated, unresolved = timemaps.rehydrate(tm, capacity)
            texts[name] = hydrated.to_text()
            rows += "".join(f"{tm.records[pos].urlkey}\t{pos}\t{tm.records[pos].digest}\n"
                            for pos in unresolved)
            resolved += sum(r.is_revisit for r in tm.records) - len(unresolved)
        return texts, rows, resolved

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(HYDRATE_RECORDS, st.booleans()), min_size=1, max_size=3),
           st.integers(1, 3), st.randoms(use_true_random=False))
    def test_equals_rehydrate_of_read_timemap(self, tmp_path_factory, files, capacity, rnd):
        tmp = tmp_path_factory.mktemp("rehydrate")
        (tmp / "in").mkdir()
        for i, (records, in_order) in enumerate(files):
            if in_order:
                records.sort(key=lambda r: r.timestamp.raw)
            else:
                rnd.shuffle(records)
            write_lines(tmp / "in" / f"{i}.cdx", [r.to_line() for r in records])
        argv = ["rehydrate", "--in-dir", str(tmp / "in"), "--out-dir", str(tmp / "out"),
                "--capacity", str(capacity), "--manifest", str(tmp / "m.json")]
        disordered = [i for i, (records, _) in enumerate(files)
                      if records != sorted(records, key=lambda r: r.timestamp.raw)]
        if disordered:  # the files before the first of them are hydrated, and no more
            with pytest.raises(SystemExit) as error:
                main(argv)
            path = os.path.join(tmp / "in", f"{disordered[0]}.cdx")
            assert str(error.value).startswith(f"error: {path}: line ")
            assert sorted(os.listdir(tmp / "out")) == [f"{i}.cdx" for i in range(disordered[0])]
            return
        assert main(argv) == 0
        texts, rows, resolved = self.expected(tmp / "in", capacity)
        assert {name: (tmp / "out" / name).read_text() for name in texts} == texts
        assert (tmp / "out" / "unresolved.tsv").read_text() == rows
        counts = json.loads((tmp / "m.json").read_text())["counts"]
        assert (counts["revisits_resolved"], counts["revisits_unresolved"]) == (
            resolved, rows.count("\n"))

    def test_report_to_a_stream_that_cannot_seek(self, tmp_path, monkeypatch):
        class Unseekable(io.StringIO):
            def seekable(self):
                return False

        seeded = random.Random(0x5EE)
        (tmp_path / "in").mkdir()
        for i in range(3):
            records = make_history(f"http://revisits{i}.com/", 30, seeded, revisit_fraction=0.5)
            write_lines(tmp_path / "in" / f"{i}.cdx", [r.to_line() for r in records])
        monkeypatch.setattr(sys, "stdout", Unseekable())
        assert main(["rehydrate", "--in-dir", str(tmp_path / "in"), "--out-dir",
                     str(tmp_path / "out"), "--capacity", "2", "--unresolved", "-"]) == 0
        texts, rows, _ = self.expected(tmp_path / "in", 2)
        assert rows and sys.stdout.getvalue() == rows
        assert {name: (tmp_path / "out" / name).read_text() for name in texts} == texts

    @pytest.mark.parametrize("stage", ["rehydrate", "stats"])
    @pytest.mark.parametrize("bad, reason", [
        (b"com,a)/ 2001010100000 http://a.com/ text/html 200 D 1",
         "timestamp is not 14 digits: '2001010100000'"),
        (b"com,a)/ 20010101000000 http://a.com/\xff text/html 200 D 1", "not UTF-8"),
        (b"com,a)/ 19991231235959 http://a.com/ text/html 200 D 1",
         "timestamp earlier than the record before, 20000101000000"),
        (b"com,b)/ 20010101000000 http://b.com/ text/html 200 D 1",
         "urlkey other than the first record's, com,a)/"),
    ], ids=["13-digit timestamp", "0xff byte", "earlier than the line before", "second urlkey"])
    def test_error_names_the_file_and_the_line(self, tmp_path, stage, bad, reason):
        (tmp_path / "in").mkdir()
        path = tmp_path / "in" / "a.cdx"
        path.write_bytes(b"com,a)/ 20000101000000 http://a.com/ text/html 200 D 1\n" + bad + b"\n")
        argv = (["rehydrate", "--in-dir"] if stage == "rehydrate" else ["stats", "--timemap-dir"])
        with pytest.raises(SystemExit) as error:
            main([*argv, str(tmp_path / "in"), "--out-dir", str(tmp_path / "out")])
        assert str(error.value) == f"error: {path}: line 2: {reason}"


_SERVE_TWO_HISTORIES = """
import sys, time
from waysample.cdx import CdxRecord, Timestamp14
from waysample.mockserver import MockCdxServer
from waysample.surt import surt_text_for_url
corpus = []
for url, n in (("http://small.example/", 2_000), ("http://large.example/", 40_000)):
    key = surt_text_for_url(url)
    for i in range(n):
        ts = time.strftime("%Y%m%d%H%M%S", time.gmtime(946684800 + 600 * i))
        corpus.append(CdxRecord(key, Timestamp14(ts), url, "text/html", "200", f"D{i:031d}", i))
with MockCdxServer(corpus, page_size=1000) as server:
    print(server.endpoint, flush=True)
    sys.stdin.read()
"""


def test_fetch_memory_is_flat_in_the_capture_count(tmp_path):
    # the archive runs in its own process, so that its corpus is not traced;
    # holding each TimeMap whole, fetch peaked 23.9 MB higher for 40,000
    # captures than for 2,000, and writing each page's lines as it came, 1 KB
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with subprocess.Popen([sys.executable, "-c", _SERVE_TWO_HISTORIES], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True, env=env) as server:
        endpoint = server.stdout.readline().strip()

        def fetch(name: str, run: str) -> None:
            write_lines(tmp_path / f"{name}.txt", [f"http://{name}.example/"])
            assert main(["fetch", str(tmp_path / f"{name}.txt"), "--out-dir",
                         str(tmp_path / run / name), "--endpoint", endpoint]) == 0

        for name in ("small", "large"):  # what a first fetch imports or caches is not measured
            fetch(name, "warm-up")
        peaks = []
        tracemalloc.start()
        try:
            for name in ("small", "large"):
                gc.collect()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                fetch(name, "traced")
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        server.stdin.close()
    large = tmp_path / "traced" / "large" / timemap_filename("http://large.example/")
    assert len(read_lines(large)) == 40_000
    assert abs(peaks[1] - peaks[0]) < 64 * 1024, peaks


def test_rehydrate_memory_is_flat_in_the_record_count(tmp_path, monkeypatch):
    # the cache of 1,000 records is all rehydrate keeps: holding each TimeMap
    # whole, it peaked 20.4 MB higher for 40,000 records than for 4,000, and a
    # line at a time, 11 KB. The report goes to a file, or to a stdout that
    # cannot seek and keeps nothing
    for n in (4_000, 40_000):
        (tmp_path / f"in{n}").mkdir()
        history = make_history("http://revisits.com/", n, random.Random(n), revisit_fraction=0.3)
        write_lines(tmp_path / f"in{n}" / "t.cdx", [r.to_line() for r in history])
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(devnull, "seekable", lambda: False)
        monkeypatch.setattr(sys, "stdout", devnull)
        for report in ([], ["--unresolved", "-"]):
            peaks = []
            tracemalloc.start()
            try:
                for n in (4_000, 40_000):
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    assert main(["rehydrate", "--in-dir", str(tmp_path / f"in{n}"),
                                 "--out-dir", str(tmp_path / f"out{n}"), *report]) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert abs(peaks[1] - peaks[0]) < 64 * 1024, (report, peaks)


class TestStats:
    def test_reports(self, tmp_path):
        first = tmp_path / "first.tsv"
        urls = tmp_path / "urls.txt"
        out_dir = tmp_path / "stats"
        write_lines(first, ["http://a.com/\t19980101000000",
                            "http://b.com/\t20050101000000",
                            "http://c.com/\t20050601000000"])
        pool = [f"http://d{i}.com/p{j}" for i in range(5) for j in range(i + 1)]
        write_lines(urls, pool)
        assert main(["stats", "--first-captures", str(first), "--urls", str(urls),
                     "--sampled", str(urls), "--out-dir", str(out_dir)]) == 0
        years = dict(line.split(",") for line in read_lines(out_dir / "first_capture_years.csv")[1:])
        assert years == {"1998": "1", "2005": "2"}
        ccdf = [line.split(",") for line in read_lines(out_dir / "urls_per_domain_ccdf.csv")[1:]]
        assert float(ccdf[0][1]) == 100.0
        percents = [float(row[1]) for row in ccdf]
        assert percents == sorted(percents, reverse=True)
        # identical pre/post lists correlate perfectly
        (header, row) = read_lines(out_dir / "rank_correlation.csv")
        assert float(row) == pytest.approx(1.0)

    @pytest.mark.parametrize("failing", ["sampled", "timemap"])
    def test_failure_after_spilling_leaves_only_the_manifest(self, tmp_path, monkeypatch,
                                                             one_cpu, failing):
        # the sampled list fails to open while the spill runs are being written;
        # a malformed TimeMap fails once they are all written and closed. On
        # one CPU the runs are written in this process, where they are counted
        import tempfile
        opened = []

        def temporary_file(**kwargs):
            opened.append(real(**kwargs))
            return opened[-1]

        real = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        monkeypatch.setattr(spill, "RUN_BYTES", 4096)
        first, urls, timemaps = tmp_path / "first.tsv", tmp_path / "urls.txt", tmp_path / "tm"
        _synthetic_first_captures(first, 2000)
        write_lines(urls, [line.split("\t")[0] for line in read_lines(first)])
        timemaps.mkdir()
        (timemaps / "bad.cdx").write_text("not a CDX line\n")
        out_dir = tmp_path / "stats"
        argv = ["stats", "--first-captures", str(first), "--urls", str(urls),
                "--sampled", str(timemaps if failing == "sampled" else urls),
                "--timemap-dir", str(timemaps), "--out-dir", str(out_dir),
                "--manifest", str(out_dir / "manifest.json")]
        # a list that cannot be read and a malformed TimeMap are each a one-line error
        with pytest.raises(SystemExit, match="^error: " if failing == "sampled" else
                           f"^error: {re.escape(str(timemaps / 'bad.cdx'))}: line 1: "):
            main(argv)
        assert len(opened) > 2
        assert all(fh.closed for fh in opened)
        assert os.listdir(out_dir) == ["manifest.json"]
        assert json.loads((out_dir / "manifest.json").read_text())["status"] == "failed"


def test_every_output_opens_through_stage_open(tmp_path, monkeypatch):
    """The offline stages open each file they leave through Stage.open, but for
    manifests and TimeMaps, and atomic_open publishes every one of them."""
    opened = {"stage": set(), "atomic": set()}
    stage_open, atomic_open = cli.Stage.open, cdx.atomic_open

    def through_stage(self, path, mode="r"):
        if mode != "r":
            opened["stage"].add(os.path.abspath(path))
        return stage_open(self, path, mode)

    def through_atomic(path, *args, **kwargs):
        opened["atomic"].add(os.path.abspath(path))
        return atomic_open(path, *args, **kwargs)

    monkeypatch.setattr(cli.Stage, "open", through_stage)
    monkeypatch.setattr(cli, "atomic_open", through_atomic)  # manifests
    monkeypatch.setattr(timemaps, "atomic_open", through_atomic)  # rehydrated TimeMaps
    monkeypatch.setattr(cdx, "atomic_open", through_atomic)  # write_timemap

    inp, out = tmp_path / "in", tmp_path / "out"
    (inp / "raw").mkdir(parents=True)
    out.mkdir()
    urls, first = inp / "urls.txt", inp / "first.tsv"
    _synthetic_first_captures(first, 300)
    write_lines(urls, [line.split("\t")[0] for line in read_lines(first)] + INDEX_SAMPLE)
    seeded = random.Random(0x0FE)
    for url in ("http://revisits.com/", "http://revisits.com/a.html"):
        history = make_history(url, 12, seeded, revisit_fraction=0.4)
        write_lines(inp / "raw" / timemap_filename(url), [r.to_line() for r in history])

    def run(*argv):
        assert main([*argv, "--manifest", str(out / f"{argv[0]}.json")]) == 0

    run("filter", str(urls), "-o", str(out / "filter.tsv"))
    run("classify", str(urls), "-o", str(out / "classify.tsv"))
    run("sample", "--first-captures", str(first), "--out-dir", str(out / "sample"),
        "--target", "50")
    run("rehydrate", "--in-dir", str(inp / "raw"), "--out-dir", str(out / "hydrated"))
    buckets = sorted((out / "sample").glob("bucket_*.txt"))
    run("stats", "--first-captures", str(first), "--urls", str(urls),
        "--sampled", str(buckets[0]), "--timemap-dir", str(out / "hydrated"),
        "--out-dir", str(out / "stats"))

    left = {os.path.join(d, name) for d, _, names in os.walk(out) for name in names}
    assert opened["stage"] | opened["atomic"] == left
    assert opened["stage"] <= opened["atomic"]
    assert {os.path.basename(path) for path in opened["atomic"] - opened["stage"]} == {
        "filter.json", "classify.json", "sample.json", "rehydrate.json", "stats.json",
        *os.listdir(inp / "raw")}
    assert len(os.listdir(out / "stats")) == 6 and (out / "hydrated" / "unresolved.tsv").exists()


def test_url_without_surt_key_is_dropped_by_every_stage(tmp_path, archive):
    server, histories = archive
    deep = sorted(url for url in histories if url.endswith("deep/p.php"))[:3]
    # an empty label, a ',' in a label and an empty last label: no SURT key
    urls = [deep[0], "http://a..com/x", "http://a,b.com/", deep[1], "http://c.com./y", deep[2]]
    keyless = [url not in histories for url in urls]
    inp = tmp_path / "urls.txt"
    write_lines(inp, urls)

    def run(*argv):
        manifest = tmp_path / f"{argv[0]}.json"
        assert main([*argv, "--manifest", str(manifest)]) == 0
        return manifest

    def column(path, i):
        return [line.split("\t")[i] for line in read_lines(path)]

    manifest = run("filter", str(inp), "-o", str(tmp_path / "filter.tsv"))
    assert column(tmp_path / "filter.tsv", 1) == ["0" if bad else "1" for bad in keyless]
    assert counts_adding_up(manifest)["invalid"] == 3

    manifest = run("classify", str(inp), "-o", str(tmp_path / "classify.tsv"))
    assert [h == "-" for h in column(tmp_path / "classify.tsv", 1)] == keyless
    assert counts_adding_up(manifest)["other"] == 3

    log = tmp_path / "fetch_first.log"
    manifest = run("fetch-first", str(inp), "-o", str(tmp_path / "first.tsv"),
                   "--endpoint", server.endpoint, "--log", str(log))
    assert column(tmp_path / "first.tsv", 3) == ["skipped" if bad else "ok" for bad in keyless]
    assert counts_adding_up(manifest)["skipped"] == 3
    assert sorted(column(log, 0)) == deep and server.request_count == 3

    # a capture for every row, so the keyless ones reach the URL parse
    first = tmp_path / "captures.tsv"
    write_lines(first, [url + "\t" + (histories[url][0].timestamp.raw if url in histories
                                      else "20050101000000") for url in urls])
    out_dir = tmp_path / "sample"
    run("sample", "--first-captures", str(first), "--out-dir", str(out_dir),
        "--endpoint", server.endpoint)
    counts = json.loads((tmp_path / "sample.json").read_text())["counts"]
    assert (counts["input"], counts["unparseable"], counts["no_capture"]) == (3, 3, 0)
    # one root lookup for each host with a key, and none for the others
    assert (counts["missing_roots"], counts["roots_added"]) == (3, 3)
    assert server.request_count == 3 + 3

    manifest = run("stats", "--urls", str(inp), "--out-dir", str(tmp_path / "stats"))
    counts = json.loads(manifest.read_text())["counts"]
    assert (counts["unparseable"], counts["domains_pre"]) == (3, 3)


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_line_that_is_not_utf8_is_kept_and_never_queried(tmp_path, source):
    """A byte that is not UTF-8 makes its URL unparseable: the line is counted
    and written back byte for byte, and no endpoint is asked about it."""
    good = ["http://example.com/", "http://b.com/"]
    lines = [good[0].encode(), b"http://a.com/\xff", good[1].encode()]
    inp = tmp_path / "urls.txt"
    inp.write_bytes(b"".join(line + b"\n" for line in lines))
    # strict stdio, whatever the locale: the stage itself must escape the byte
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "PYTHONIOENCODING": "utf-8:strict"}
    history = make_history(good[0], 3, random.Random(3))

    def run(stage, *argv, out=None):
        manifest = tmp_path / f"{stage}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "waysample.cli", stage,
             "-" if source == "stdin" else str(inp), *argv, "--manifest", str(manifest)]
            + ([] if out is None else ["-o", "-" if source == "stdin" else str(out)]),
            input=inp.read_bytes() if source == "stdin" else None,
            capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        counts = counts_adding_up(manifest)
        if out is None:
            return None, counts
        return (proc.stdout if source == "stdin" else out.read_bytes()).splitlines(), counts

    rows, counts = run("filter", out=tmp_path / "filter.tsv")
    assert [row.split(b"\t")[:2] for row in rows] == [
        [lines[0], b"1"], [lines[1], b"0"], [lines[2], b"1"]]
    assert (counts["input"], counts["invalid"]) == (3, 1)

    with MockCdxServer(history, page_size=2) as server:
        rows, counts = run("fetch-first", "--endpoint", server.endpoint,
                           out=tmp_path / "first.tsv")
        assert [row.split(b"\t")[0] for row in rows] == lines
        assert [row.split(b"\t")[3] for row in rows] == [b"ok", b"skipped", b"empty"]
        assert (counts["input"], counts["skipped"]) == (3, 1)
        assert server.request_count == len(good)

    with MockCdxServer(history, page_size=2) as server:
        _, counts = run("fetch", "--out-dir", str(tmp_path / "timemaps"),
                        "--endpoint", server.endpoint)
        assert (tmp_path / "timemaps" / "fetch_report.tsv").read_bytes().splitlines() == [
            lines[0] + b"\tok", lines[1] + b"\tskipped", lines[2] + b"\tempty"]
        assert (counts["input"], counts["skipped"]) == (3, 1)
        assert server.request_count == sum(1 + server.page_count_for(url) for url in good)


class NotUtf8Archive(MockCdxServer):
    """A mock archive that answers the limit and page queries of one URL with a
    body that is not UTF-8."""

    def __init__(self, corpus, page_size, bad_url):
        super().__init__(corpus, page_size)
        self.bad_url = bad_url

    def _respond(self, path):
        params = parse_qs(urlsplit(path).query)
        if params["url"] == [self.bad_url] and "showNumPages" not in params:
            return 200, "café\n".encode("latin-1")
        return super()._respond(path)


def test_body_not_utf8_is_an_error_row(tmp_path):
    seeded = random.Random(0xE9)
    urls = [f"http://latin{i}.com/" for i in range(3)]
    inp = tmp_path / "urls.txt"
    write_lines(inp, urls)
    with NotUtf8Archive([r for url in urls for r in make_history(url, 6, seeded)], 4,
                        urls[1]) as server:
        manifest = tmp_path / "fetch-first.json"
        assert main(["fetch-first", str(inp), "-o", str(tmp_path / "first.tsv"),
                     "--endpoint", server.endpoint, "--manifest", str(manifest)]) == 0
        assert [line.split("\t")[3] for line in read_lines(tmp_path / "first.tsv")] == [
            "ok", "error", "ok"]
        assert counts_adding_up(manifest)["error"] == 1

        out_dir, manifest = tmp_path / "timemaps", tmp_path / "fetch.json"
        assert main(["fetch", str(inp), "--out-dir", str(out_dir),
                     "--endpoint", server.endpoint, "--manifest", str(manifest)]) == 0
        assert read_lines(out_dir / "fetch_report.tsv") == [
            f"{urls[0]}\tok", f"{urls[1]}\terror", f"{urls[2]}\tok"]
        assert counts_adding_up(manifest)["error"] == 1
        assert not (out_dir / timemap_filename(urls[1])).exists()


class TestFanOut:
    """The network stages run their per-URL work on politeness_limit threads;
    what they write must not depend on that number."""

    YEARS, PER_YEAR_MIN, SEED = (2016, 2017), 4, 5

    @pytest.fixture(scope="class")
    def world(self):
        """A corpus, the stage inputs in input order, and a fault script with
        transient 503s, permanent 404s and a page that fails every attempt."""
        seeded = random.Random(0xFA11)
        corpus, histories = [], {}
        for i in range(8):
            for suffix in ("", "a.html", "deep/p.php"):
                url = f"http://host{i}.com/{suffix}"
                histories[url] = make_history(url, seeded.randint(3, 12), seeded,
                                              start_year=1998 + i)
        for i in range(3):  # hosts the input reaches only through a deep link
            for suffix in ("", "deep/p.php"):
                url = f"http://deep{i}.com/{suffix}"
                histories[url] = make_history(url, 6, seeded, start_year=2003 + i)
        candidates = []
        for i in range(40):
            url = f"http://big.com/item{i}.html"
            histories[url] = make_history(url, 5, seeded, start_year=self.YEARS[0] + i % 2)
            candidates.append(url)
        for history in histories.values():
            corpus += history
        urls = [u for u in histories if not u.startswith(("http://deep", "http://big"))
                or u.endswith("deep/p.php")]
        urls += ["http://never-crawled.example/", "https://*/robots.txt"]
        key = surt_text_for_url
        faults = [(key("http://host1.com/a.html"), "limit", [404]),
                  (key("http://deep1.com/"), "limit", [404]),
                  (key("http://host2.com/"), "numpages", [404]),
                  (key("http://host3.com/"), 1, [503] * 5),
                  (key("http://big.com/item3.html"), "limit", [404])]
        for url in urls[::3] + candidates[::4]:
            for kind in ("limit", "numpages", 0):
                faults.append((key(url), kind, [503]))
        truth = {url: h[0].timestamp for url, h in histories.items()}
        return corpus, urls, candidates, faults, truth

    def _run(self, tmp_path, world, politeness, order):
        """fetch-first, sample --endpoint, reintegrate and fetch in a fresh
        directory against a fresh archive; returns every output's text, each
        manifest's counts, the candidate order and the archive's peak
        concurrency."""
        corpus, urls, candidates, faults, _ = world
        run = tmp_path / f"p{politeness}-{order}"
        run.mkdir()
        shuffled = random.Random(order)
        urls, candidates = list(urls), list(candidates)
        if order is not None:
            shuffled.shuffle(urls)
            shuffled.shuffle(candidates)
        write_lines(run / "urls.txt", urls)
        write_lines(run / "candidates.txt", candidates)
        (run / "config.json").write_text(json.dumps(
            {"politeness_limit": politeness, "backoff_base": 0.001}))
        with MockCdxServer(corpus, page_size=4) as server:
            for urlkey, kind, statuses in faults:
                server.schedule_faults(urlkey, kind, statuses)
            common = ["--endpoint", server.endpoint, "--config", str(run / "config.json")]
            stages = {
                "fetch-first": [str(run / "urls.txt"), "-o", str(run / "first.tsv")],
                "sample": ["--first-captures", str(run / "first.tsv"),
                           "--out-dir", str(run / "sample"), "--target", "30",
                           "--seed", str(self.SEED)],
                "reintegrate": [str(run / "candidates.txt"), "--domain", "big.com",
                                "-o", str(run / "quota.tsv"),
                                "--years", "-".join(map(str, self.YEARS)),
                                "--per-year-min", str(self.PER_YEAR_MIN),
                                "--seed", str(self.SEED)],
                "fetch": [str(run / "urls.txt"), "--out-dir", str(run / "timemaps")],
            }
            counts = {}
            for name, argv in stages.items():
                manifest = run / f"{name}.json"
                assert main([name, *argv, *common, "--manifest", str(manifest)]) == 0
                counts[name] = json.loads(manifest.read_text())["counts"]
            peak = server.max_concurrency
        outputs = {}
        for path in sorted(run.rglob("*")):
            if path.is_file() and path.suffix != ".json" and path.parent != run:
                outputs[str(path.relative_to(run))] = path.read_text()
        outputs["first.tsv"] = (run / "first.tsv").read_text()
        outputs["quota.tsv"] = (run / "quota.tsv").read_text()
        return outputs, counts, candidates, peak

    @pytest.mark.parametrize("order", [None, 11, 12])
    def test_outputs_independent_of_politeness(self, tmp_path, world, order):
        truth = world[-1]
        runs = {p: self._run(tmp_path, world, p, order) for p in (1, 2, 4)}
        base, base_counts, candidates, peak = runs[1]
        assert peak == 1
        # what a one-at-a-time reintegrate reads before its quotas are met
        draws = []

        def firsts(pool):
            for url in pool:
                draws.append(url)
                yield None if url.text.endswith("item3.html") else truth[url.text]

        sampler.reintegrate_popular("big.com", [parse_url(u) for u in candidates], firsts,
                                    list(self.YEARS), self.PER_YEAR_MIN, self.SEED)
        for politeness, (outputs, counts, _, _) in runs.items():
            assert outputs == base
            assert counts == base_counts
            for stage in ("fetch-first", "fetch"):
                assert counts_adding_up(tmp_path / f"p{politeness}-{order}" / f"{stage}.json")
        assert base_counts["fetch-first"]["error"] == 1
        assert base_counts["fetch"]["error"] == 2
        sample = base_counts["sample"]
        assert (sample["missing_roots"], sample["roots_added"], sample["roots_unarchived"],
                sample["root_errors"]) == (3, 2, 0, 1)
        assert base_counts["reintegrate"]["lookups"] == len(draws)
        assert base_counts["reintegrate"]["lookup_errors"] == sum(
            url.text.endswith("item3.html") for url in draws)
        assert base_counts["reintegrate"]["unmet_years"] == []
        if order is not None:  # reordered by input, per-URL rows match the input-order run
            unshuffled, _, _, _ = self._run(tmp_path, world, 1, None)
            for name in ("first.tsv", "timemaps/fetch_report.tsv"):
                assert sorted(base[name].splitlines()) == sorted(unshuffled[name].splitlines())
            # and the sample is the one drawn from the rows in input order
            assert ({name: text for name, text in base.items() if name.startswith("sample/")}
                    == {name: text for name, text in unshuffled.items()
                        if name.startswith("sample/")})

    @pytest.mark.parametrize("limit", [2, 4])
    def test_fetch_fills_the_politeness_limit(self, tmp_path, archive, limit):
        server, histories = archive
        server.schedule_delay(None, None, 0.02)
        inp = tmp_path / "urls.txt"
        write_lines(inp, sorted(histories))
        assert main(["fetch", str(inp), "--out-dir", str(tmp_path / "timemaps"),
                     "--endpoint", server.endpoint, "--politeness", str(limit)]) == 0
        assert server.max_concurrency == limit

    def test_timemap_aliases_fetch_once_in_input_order(self, tmp_path, archive):
        server, histories = archive
        server.schedule_delay(None, None, 0.02)
        aliases = ["https://www.site0.com/", "http://site0.com/"]
        assert timemap_filename(aliases[0]) == timemap_filename(aliases[1])
        inp = tmp_path / "urls.txt"
        out_dir = tmp_path / "timemaps"
        write_lines(inp, aliases)
        assert main(["fetch", str(inp), "--out-dir", str(out_dir),
                     "--endpoint", server.endpoint, "--politeness", "4"]) == 0
        assert read_lines(out_dir / "fetch_report.tsv") == [
            f"{aliases[0]}\tok", f"{aliases[1]}\tresumed"]
        assert server.request_count == 1 + server.page_count_for(aliases[0])

    def test_interrupt_in_a_worker_leaves_only_whole_timemaps(
            self, tmp_path, archive, monkeypatch):
        server, histories = archive
        urls = sorted(histories)
        inp = tmp_path / "urls.txt"
        out_dir = tmp_path / "timemaps"
        manifest, log = tmp_path / "manifest.json", tmp_path / "fetch_log.tsv"
        write_lines(inp, urls)
        args = ["fetch", str(inp), "--out-dir", str(out_dir),
                "--endpoint", server.endpoint, "--politeness", "2",
                "--manifest", str(manifest), "--log", str(log)]
        lock, calls = threading.Lock(), []

        def third(path):  # the third TimeMap gets two lines, then an interrupt
            with lock:
                calls.append(path)
                return len(calls) == 3

        with monkeypatch.context() as patch:
            patch.setattr(fetching, "atomic_open", interrupting_timemap_writes(third))
            with pytest.raises(KeyboardInterrupt):
                main(args)
        # the stage failed, and its manifest and fetch log say so
        assert json.loads(manifest.read_text())["status"] == "failed"
        assert len(read_lines(log)) == server.request_count > 0
        written = sorted(name for name in os.listdir(out_dir) if name.endswith(".cdx"))
        assert sorted(os.listdir(out_dir)) == written  # no partial report
        assert len(written) < len(urls) - 1
        assert main(args) == 0
        assert json.loads(manifest.read_text())["status"] == "ok"
        report = dict(line.split("\t") for line in read_lines(out_dir / "fetch_report.tsv"))
        for url in urls:
            done = timemap_filename(url) in written
            assert report[url] == ("resumed" if done else "ok")
            assert len(read_lines(out_dir / timemap_filename(url))) == len(histories[url])


@pytest.mark.parametrize("argv", [
    ["filter", "IN", "-o", "OUT"],
    ["classify", "IN", "-o", "OUT"],
    ["rehydrate", "--in-dir", "DIR", "--out-dir", "DIR"],
    ["stats", "--urls", "IN", "--out-dir", "DIR"],
    ["fetch", "IN", "--out-dir", "DIR", "--endpoint", "http://127.0.0.1:9/cdx"],
])
def test_unknown_config_key_fails_every_stage(tmp_path, argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"interval": 6000, "scheme": "https"}))
    inp = tmp_path / "urls.txt"
    write_lines(inp, INDEX_SAMPLE)
    paths = {"IN": str(inp), "OUT": str(tmp_path / "out.tsv"), "DIR": str(tmp_path)}
    with pytest.raises(SystemExit, match="unknown config keys"):
        main([paths.get(a, a) for a in argv] + ["--config", str(config)])
    assert not (tmp_path / "out.tsv").exists()


@pytest.mark.parametrize("argv", [
    ["filter", "MISSING", "-o", "OUT"],
    ["sample", "--first-captures", "MISSING", "--out-dir", "DIR"],
    ["stats", "--first-captures", "MISSING", "--out-dir", "DIR"],
    ["stats", "--urls", "A_DIR", "--out-dir", "DIR"],
    ["sample", "--first-captures", "NO_TAB", "--out-dir", "DIR"],
    ["stats", "--first-captures", "NO_TAB", "--out-dir", "DIR"],
    ["rehydrate", "--in-dir", "BAD_TIMEMAPS", "--out-dir", "DIR"],
    ["stats", "--timemap-dir", "BAD_TIMEMAPS", "--out-dir", "DIR"],
])
def test_missing_or_unreadable_input_is_a_one_line_error(tmp_path, argv):
    # a row without a tab, or a malformed TimeMap, is named by its file and line
    paths = {"MISSING": str(tmp_path / "missing.tsv"), "A_DIR": str(tmp_path),
             "NO_TAB": str(tmp_path / "first.tsv"), "BAD_TIMEMAPS": str(tmp_path / "tm"),
             "OUT": str(tmp_path / "out.tsv"), "DIR": str(tmp_path / "out")}
    write_lines(tmp_path / "first.tsv", ["http://a.com/\t20050101000000", "http://b.com/"])
    (tmp_path / "tm").mkdir()
    write_lines(tmp_path / "tm" / "a.cdx", [f"com,a)/ {ts} http://a.com/ text/html 200 D 1"
                                            for ts in ("20050101000000", "2005")])
    with pytest.raises(SystemExit) as exc:
        main([paths.get(a, a) for a in argv] + ["--manifest", str(tmp_path / "m.json")])
    message = str(exc.value.code)
    assert message.startswith("error: ") and "\n" not in message
    assert paths[argv[-3]] in message
    if argv[-3] in ("NO_TAB", "BAD_TIMEMAPS"):
        assert re.search(r": line 2: (expected at least url<TAB>|timestamp is not)", message)
    assert json.loads((tmp_path / "m.json").read_text())["status"] == "failed"
    assert not (tmp_path / "out.tsv").exists()
    assert not os.path.exists(tmp_path / "out") or not os.listdir(tmp_path / "out")


def test_an_unwritable_output_is_named_by_its_own_path(tmp_path):
    write_lines(tmp_path / "urls.txt", ["http://a.com/"])
    out = tmp_path / "missing" / "out.tsv"
    with pytest.raises(SystemExit) as exc:
        main(["filter", str(tmp_path / "urls.txt"), "-o", str(out),
              "--manifest", str(tmp_path / "m.json")])
    assert str(exc.value.code) == f"error: [Errno 2] No such file or directory: {str(out)!r}"
    assert json.loads((tmp_path / "m.json").read_text())["status"] == "failed"


@pytest.mark.parametrize("stage", ["filter", "fetch-first"])
def test_an_output_that_is_a_directory_is_named_by_its_own_path(tmp_path, archive, stage):
    server, _ = archive
    write_lines(tmp_path / "urls.txt", ["http://site0.com/"])
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(SystemExit) as exc:
        main([stage, str(tmp_path / "urls.txt"), "-o", str(out), "--manifest",
              str(tmp_path / "m.json"), *(["--endpoint", server.endpoint] * (stage != "filter"))])
    assert str(exc.value.code) == f"error: [Errno 21] Is a directory: {str(out)!r}"
    assert json.loads((tmp_path / "m.json").read_text())["status"] == "failed"
    assert sorted(os.listdir(tmp_path)) == ["m.json", "out", "urls.txt"]  # no temporary file
    assert not os.listdir(out)


def test_a_manifest_in_a_missing_directory_fails_before_any_work(tmp_path):
    first = tmp_path / "first.tsv"
    _synthetic_first_captures(first, 300)
    manifest = tmp_path / "missing" / "m.json"
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--first-captures", str(first), "--out-dir", str(tmp_path / "out"),
              "--manifest", str(manifest)])
    assert str(exc.value.code) == (
        f"configuration error: [Errno 2] No such file or directory: {str(manifest.parent)!r}")
    assert os.listdir(tmp_path) == ["first.tsv"]  # no output, no manifest
    # a manifest in the --out-dir that the stage makes is written there
    manifest = tmp_path / "out" / "sub" / "m.json"
    assert main(["sample", "--first-captures", str(first), "--out-dir", str(manifest.parent),
                 "--manifest", str(manifest)]) == 0
    assert json.loads(manifest.read_text())["status"] == "ok"


def test_config_defaults_in_manifest_order():
    assert list(PipelineConfig.load(None).to_dict().items()) == list({
        "target": 1_000_000, "c": 1, "tail_threshold": 900_000, "tail_keep_fraction": 0.10,
        "cache_capacity": 1000, "per_year_min": 20, "seed": 0, "endpoint": None,
        "politeness_limit": 4, "retry_cap": 5, "backoff_base": 1.0, "request_delay": 0.0,
        "storage_dir": None,
    }.items())


@pytest.mark.parametrize("argv, config", [
    (["sample", "--first-captures", "IN", "--out-dir", "DIR", "--c", "0"], {}),
    (["sample", "--first-captures", "IN", "--out-dir", "DIR"], {"target": -5}),
    (["sample", "--first-captures", "IN", "--out-dir", "DIR"], {"tail_keep_fraction": 0}),
    (["sample", "--first-captures", "IN", "--out-dir", "DIR", "--tail-keep", "1.5"], {}),
    (["rehydrate", "--in-dir", "IN_DIR", "--out-dir", "DIR", "--capacity", "0"], {}),
    (["reintegrate", "IN", "--domain", "a.com", "-o", "OUT",
      "--endpoint", "http://127.0.0.1:9/cdx"], {"per_year_min": 0}),
    (["reintegrate", "IN", "--domain", "a.com", "-o", "OUT",
      "--endpoint", "http://127.0.0.1:9/cdx", "--per-year-min", "-1"], {}),
    (["filter", "IN", "-o", "OUT"], {"c": "x"}),
    (["sample", "--first-captures", "IN", "--out-dir", "DIR"], {"target": "300"}),
    (["sample", "--first-captures", "IN", "--out-dir", "DIR"], {"tail_keep_fraction": "0.5"}),
    (["sample", "--first-captures", "IN", "--out-dir", "DIR"], {"seed": True}),
    (["sample", "--first-captures", "IN", "--out-dir", "DIR"], {"target": 300.0}),
    (["fetch-first", "IN", "-o", "OUT", "--endpoint", "http://127.0.0.1:9/cdx"],
     {"backoff_base": -1}),
    (["fetch-first", "IN", "-o", "OUT", "--endpoint", "http://127.0.0.1:9/cdx"],
     {"request_delay": -0.5}),
    (["fetch-first", "IN", "-o", "OUT", "--endpoint", "http://127.0.0.1:9/cdx"],
     {"politeness_limit": "2"}),
    (["fetch-first", "IN", "-o", "OUT"], {"endpoint": 5}),
    (["fetch", "IN", "--out-dir", "DIR", "--endpoint", "http://127.0.0.1:9/cdx"],
     {"storage_dir": ["x"]}),
    (["filter", "IN", "-o", "OUT"], None),
    (["filter", "IN", "-o", "OUT"], 3),
    (["filter", "IN", "-o", "OUT"], [1]),
    (["filter", "IN", "-o", "OUT"], "x"),
])
def test_out_of_range_config_fails_before_any_output(tmp_path, argv, config):
    inp = tmp_path / "in.tsv"
    write_lines(inp, ["http://a.com/\t20050101000000"])
    (tmp_path / "in_dir").mkdir()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    before = sorted(os.listdir(tmp_path))
    paths = {"IN": str(inp), "IN_DIR": str(tmp_path / "in_dir"),
             "OUT": str(tmp_path / "out.tsv"), "DIR": str(tmp_path / "out")}
    with pytest.raises(SystemExit, match="config key"):
        main([paths.get(a, a) for a in argv]
             + ["--config", str(config_path), "--manifest", str(tmp_path / "m.json")])
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("argv", [
    ["reintegrate", "IN", "--domain", "a.com", "-o", "OUT", "--years", "2016"],
    ["reintegrate", "IN", "--domain", "a.com", "-o", "OUT", "--years", "20x6-2017"],
    ["reintegrate", "IN", "--domain", "a.com", "-o", "OUT", "--years", "2021-2016"],
    ["stats", "--urls", "IN", "--out-dir", "DIR", "--top-n", "-1"],
    ["stats", "--urls", "IN", "--out-dir", "DIR", "--top-n", "0"],
    ["stats", "--urls", "IN", "--out-dir", "DIR", "--top-n", "x"],
])
def test_bad_flag_value_is_a_usage_error(tmp_path, capsys, argv):
    inp = tmp_path / "in.txt"
    write_lines(inp, ["http://a.com/", "http://b.com/"])
    before = sorted(os.listdir(tmp_path))
    paths = {"IN": str(inp), "OUT": str(tmp_path / "out.tsv"), "DIR": str(tmp_path / "out")}
    with pytest.raises(SystemExit) as exc:
        main([paths.get(a, a) for a in argv] + ["--manifest", str(tmp_path / "m.json")])
    assert exc.value.code == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before
